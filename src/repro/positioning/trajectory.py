"""Ground-truth indoor trajectory simulator.

Substitutes the paper's proprietary Wi-Fi positioning dataset (7-floor
Hangzhou mall, 2017-01-01..07). Each simulated shopper executes an
itinerary over the mall DSM — walk through corridors/staircases to a
shop, then either *stay* (a long dwell) or *browse* (a short walk-through
that the ground truth labels pass-by) — and is sampled at a fixed period.

Because movement follows the indoor graph, the ground truth respects
every constraint the Cleaner later enforces (no wall crossing, floor
changes only at staircases, bounded walking speed), so any violation in
the *raw* data is attributable to the corruption model alone.

Outputs per device:
- ground-truth positioning records ``(device_id, record_id, ts, x, y,
  floor)`` — ts is seconds from the scenario epoch;
- ground-truth mobility semantics ``(device_id, seq, event, region_id,
  t_start, t_end)`` derived by run-length encoding region occupancy.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.features import label_runs
from ..dsm.entities import CORRIDOR
from ..dsm.graph import IndoorGraph
from ..dsm.model import DigitalSpaceModel

#: A shop dwell at least this long is a ground-truth ``stay``; shorter
#: shop visits and all corridor traversals are ``pass-by``.
STAY_THRESHOLD_S = 60.0

RECORD_COLUMNS = ["device_id", "record_id", "ts", "x", "y", "floor"]
SEMANTIC_COLUMNS = ["device_id", "seq", "event", "region_id", "t_start", "t_end"]


def _walk_waypoints(
    graph: IndoorGraph,
    t: float,
    pos: tuple[float, float, int],
    target: tuple[float, float, int],
    speed: float,
) -> tuple[list[tuple[float, float, float, int]], float]:
    """Waypoints ``(t, x, y, floor)`` along the indoor path, walked at
    ``speed``; staircase segments cost the staircase length."""
    path = graph.path(pos, target)
    wps = []
    for i, (x, y, f) in enumerate(path):
        if i > 0:
            px, py, pf = path[i - 1]
            if int(f) != int(pf):
                seg = 8.0  # staircase climb length
            else:
                seg = float(np.hypot(x - px, y - py))
            t += seg / speed
        wps.append((t, float(x), float(y), int(f)))
    return wps, t


def simulate_device(
    dsm: DigitalSpaceModel,
    graph: IndoorGraph,
    device_id: str,
    *,
    rng: np.random.Generator,
    duration_s: float,
    period_s: float = 5.0,
    speed: float = 1.3,
    stay_s: tuple[float, float] = (120.0, 480.0),
    browse_s: tuple[float, float] = (15.0, 45.0),
    p_browse: float = 0.35,
    p_floor_switch: float = 0.3,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Simulate one shopper; returns (records, semantics) pandas frames."""
    shops = sorted(set(dsm.regions) - dsm.hall_regions())
    floors = sorted({r.floor for r in dsm.regions.values()})
    by_floor = {
        f: [rid for rid in shops if dsm.regions[rid].floor == f] for f in floors
    }

    # Start somewhere in a corridor on a random floor.
    f0 = int(rng.choice(floors))
    corridor = next(
        e for e in dsm.entities.values()
        if e.kind == CORRIDOR and e.floor == f0
    )
    cx, cy = corridor.centroid()
    pos = (cx + float(rng.uniform(-3, 3)), cy, f0)
    t = 0.0
    waypoints: list[tuple[float, float, float, int]] = [(t, pos[0], pos[1], pos[2])]

    while t < duration_s:
        floor = pos[2]
        if rng.random() < p_floor_switch and len(floors) > 1:
            floor = int(rng.choice([f for f in floors if f != pos[2]]))
        target_region = dsm.regions[rng.choice(by_floor[floor])]
        shop = dsm.entities[target_region.entity_ids[0]]
        sx, sy = shop.centroid()
        target = (
            sx + float(rng.uniform(-1.5, 1.5)),
            sy + float(rng.uniform(-1.5, 1.5)),
            floor,
        )
        wps, t = _walk_waypoints(graph, t, pos, target, speed)
        waypoints.extend(wps[1:])
        dwell = float(
            rng.uniform(*browse_s) if rng.random() < p_browse else rng.uniform(*stay_s)
        )
        t += dwell
        waypoints.append((t, target[0], target[1], floor))
        pos = target

    records = _sample(dsm, waypoints, device_id, duration_s, period_s, rng)
    semantics = ground_truth_semantics(dsm, records, period_s=period_s)
    return records, semantics


def _sample(
    dsm: DigitalSpaceModel,
    waypoints: list[tuple[float, float, float, int]],
    device_id: str,
    duration_s: float,
    period_s: float,
    rng: np.random.Generator,
) -> pd.DataFrame:
    wt = np.array([w[0] for w in waypoints])
    wx = np.array([w[1] for w in waypoints])
    wy = np.array([w[2] for w in waypoints])
    wf = np.array([w[3] for w in waypoints])
    ts = np.arange(0.0, duration_s, period_s)
    xs = np.interp(ts, wt, wx)
    ys = np.interp(ts, wt, wy)
    # Floor of the temporally nearer waypoint (only matters on staircases).
    idx = np.searchsorted(wt, ts, side="right") - 1
    idx = np.clip(idx, 0, len(wt) - 2)
    frac = np.where(
        wt[idx + 1] > wt[idx], (ts - wt[idx]) / (wt[idx + 1] - wt[idx]), 0.0
    )
    fl = np.where(frac < 0.5, wf[idx], wf[idx + 1]).astype(int)
    # Human micro-motion: small jitter, rejected if it would leave every
    # entity (e.g. poke through a wall) so ground truth stays legal.
    jx = xs + rng.normal(0.0, 0.15, len(ts))
    jy = ys + rng.normal(0.0, 0.15, len(ts))
    located = dsm.locate_entities(jx, jy, fl)
    ok = np.array([e is not None for e in located])
    xs = np.where(ok, jx, xs)
    ys = np.where(ok, jy, ys)
    return pd.DataFrame(
        {
            "device_id": device_id,
            "record_id": np.arange(len(ts), dtype=np.int64),
            "ts": ts,
            "x": xs,
            "y": ys,
            "floor": fl,
        }
    )[RECORD_COLUMNS]


def ground_truth_semantics(
    dsm: DigitalSpaceModel,
    records: pd.DataFrame,
    *,
    period_s: float,
    stay_threshold_s: float = STAY_THRESHOLD_S,
) -> pd.DataFrame:
    """Run-length encode region occupancy into ground-truth semantics.

    Contiguous samples in one region form an interval; a shop interval at
    least ``stay_threshold_s`` long is a ``stay``, anything else (short
    shop walk-throughs, corridor traversals) is a ``pass-by``. Intervals
    of a single sample are flicker (e.g. a door grazed mid-walk) and are
    absorbed into the preceding interval.
    """
    xs, ys, floors = (records[c].to_numpy() for c in ("x", "y", "floor"))
    region_ids = np.array(dsm.locate_regions(xs, ys, floors), dtype=object)
    located = pd.notna(region_ids)
    region, ts = region_ids[located], records["ts"].to_numpy()[located]
    if not len(region):
        return pd.DataFrame(columns=SEMANTIC_COLUMNS)
    start, end = np.array(label_runs(region)).T
    # Every run but the first needs two samples; the kept run before a
    # one-sample run extends over it.
    kept = np.flatnonzero((end - start > 1) | (np.arange(len(start)) == 0))
    kept_end = np.maximum.reduceat(ts[end - 1], kept)
    kept_region = region[start[kept]]
    # Re-merge adjacent same-region runs created by flicker absorption.
    first, last = np.array(label_runs(kept_region)).T
    t0 = ts[start[kept[first]]].astype(float)
    t1 = kept_end[last - 1].astype(float)
    rid = kept_region[first]
    is_stay = ~pd.Series(rid).isin(dsm.hall_regions()).to_numpy() & (
        t1 - t0 + period_s >= stay_threshold_s
    )
    return pd.DataFrame(
        {
            "device_id": records["device_id"].iloc[0],
            "seq": np.arange(len(rid)),
            "event": np.where(is_stay, "stay", "pass-by"),
            "region_id": rid,
            "t_start": t0,
            "t_end": t1,
        }
    )


def simulate_population(
    dsm: DigitalSpaceModel,
    *,
    n_devices: int,
    duration_s: float,
    period_s: float = 5.0,
    seed: int = 0,
    **device_kwargs,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Simulate ``n_devices`` shoppers; returns concatenated (records,
    semantics). Device IDs look like anonymized MACs, as in the demo
    (``3a.*.14``)."""
    graph = IndoorGraph(dsm)
    rng = np.random.default_rng(seed)
    all_r, all_s = [], []
    for i in range(n_devices):
        dev = f"{i % 256:02x}.{(i * 37) % 256:02x}.{i:04d}"
        r, s = simulate_device(
            dsm,
            graph,
            dev,
            rng=rng,
            duration_s=duration_s,
            period_s=period_s,
            **device_kwargs,
        )
        all_r.append(r)
        all_s.append(s)
    return (
        pd.concat(all_r, ignore_index=True),
        pd.concat(all_s, ignore_index=True),
    )
