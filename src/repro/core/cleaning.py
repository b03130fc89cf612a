"""Raw Data Cleaner — the Cleaning layer of the translation framework.

Per the paper (§3): invalid records are identified "by checking the
speeds between consecutive positioning records based on the minimum
indoor walking distance"; an invalid record is repaired in two steps —
*floor value correction* first, and if the speed-constraint violation
persists, *location interpolation* "by deriving the possible locations
at the time of that record based on the indoor geometrical and
topological information captured by the DSM".

Implementation: each device's time-ordered sequence is cleaned by a
sequential anchor scan (a record is valid if it is indoor-reachable from
the last valid record within the walking-speed budget), then invalid
runs are re-placed along the indoor shortest path between their flanking
valid anchors, time-proportionally. The scan runs distributed through
the shared :func:`~.stage.per_device` runner, with the DSM and graph
broadcast.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..dsm.geometry import point_along_polyline, polyline_length
from ..dsm.graph import IndoorGraph
from ..dsm.model import DigitalSpaceModel
from .stage import per_device

#: Indoor walking-speed bound (m/s) — people cannot move faster indoors.
DEFAULT_VMAX = 3.0

CLEANED_SCHEMA = T.StructType(
    [
        T.StructField("device_id", T.StringType(), False),
        T.StructField("record_id", T.LongType(), True),
        T.StructField("ts", T.DoubleType(), False),
        T.StructField("x", T.DoubleType(), False),
        T.StructField("y", T.DoubleType(), False),
        T.StructField("floor", T.IntegerType(), False),
        T.StructField("repair", T.StringType(), False),  # none|floor|interp
    ]
)

CLEANED_COLUMNS = CLEANED_SCHEMA.fieldNames()

VIOLATION_SCHEMA = T.StructType(
    [
        T.StructField("device_id", T.StringType(), False),
        T.StructField("n_pairs", T.LongType(), False),
        T.StructField("n_violations", T.LongType(), False),
    ]
)


def _indoor_speed_ok(
    graph: IndoorGraph,
    p1: tuple[float, float, int],
    p2: tuple[float, float, int],
    e1: str | None,
    e2: str | None,
    dt: float,
    vmax: float,
) -> bool:
    """Speed-constraint check using minimum indoor walking distance,
    with a Euclidean lower-bound shortcut (indoor >= Euclidean, so a
    Euclidean violation is already an indoor violation)."""
    if dt <= 0:
        return False
    budget = vmax * dt
    euclid = float(np.hypot(p2[0] - p1[0], p2[1] - p1[1]))
    if p1[2] == p2[2]:
        if euclid > budget:
            return False
        if e1 is not None and e1 == e2:
            return True
    return graph.distance(p1, p2, e1=e1, e2=e2) <= budget


def clean_sequence(
    pdf: pd.DataFrame,
    dsm: DigitalSpaceModel,
    graph: IndoorGraph,
    *,
    vmax: float = DEFAULT_VMAX,
) -> pd.DataFrame:
    """Clean one device's sequence; returns the cleaned records with a
    ``repair`` column (``none`` / ``floor`` / ``interp``)."""
    g = pdf.sort_values("ts").reset_index(drop=True)
    n = len(g)
    if n == 0:
        return g.assign(repair=pd.Series(dtype=str))
    x = g["x"].to_numpy(dtype=float).copy()
    y = g["y"].to_numpy(dtype=float).copy()
    floor = g["floor"].to_numpy(dtype=int).copy()
    ts = g["ts"].to_numpy(dtype=float)
    repair = np.array(["none"] * n, dtype=object)

    # Floor value correction, pass 1: neighborhood majority. Floor flips
    # are sporadic, so a record disagreeing with a strict majority of its
    # ±5 neighbors is wrong. (Genuine staircase transitions look like a
    # step function and survive: each boundary record still agrees with
    # the majority of its window.) This must precede the speed scan —
    # floors of identical floorplans are indistinguishable by XY speed,
    # so a wrong-floor anchor would otherwise propagate its floor.
    corrected = _majority_floor(floor)
    changed = corrected != floor
    floor = corrected
    repair[changed] = "floor"

    ent = list(dsm.locate_entities(x, y, floor))

    # Robust initial anchor: first record that agrees with its successor
    # (guards against an outlier in record 0 poisoning the whole scan).
    anchor = 0
    for i in range(n - 1):
        if _indoor_speed_ok(
            graph,
            (x[i], y[i], floor[i]),
            (x[i + 1], y[i + 1], floor[i + 1]),
            ent[i],
            ent[i + 1],
            ts[i + 1] - ts[i],
            vmax,
        ):
            anchor = i
            break
    invalid = np.zeros(n, dtype=bool)
    invalid[:anchor] = True

    for i in range(anchor + 1, n):
        dt = ts[i] - ts[anchor]
        p_a = (x[anchor], y[anchor], floor[anchor])
        if _indoor_speed_ok(graph, p_a, (x[i], y[i], floor[i]), ent[anchor], ent[i], dt, vmax):
            anchor = i
            continue
        # Violation persists after floor correction — schedule location
        # interpolation. (We deliberately do NOT retry the record on the
        # anchor's floor here: identical floorplans make floors
        # indistinguishable by XY speed, so an anchor-led floor rewrite
        # can propagate a stale floor across an entire walk. The
        # neighborhood-majority pass above is the floor correction.)
        invalid[i] = True

    # Interpolate each maximal invalid run between its valid flanks
    # along the indoor shortest path, time-proportionally.
    valid_idx = np.flatnonzero(~invalid)
    if len(valid_idx) == 0:
        # Pathological sequence: nothing trustworthy; leave as-is.
        out = g.copy()
        out["repair"] = "none"
        return out
    i = 0
    while i < n:
        if not invalid[i]:
            i += 1
            continue
        j = i
        while j < n and invalid[j]:
            j += 1
        left = i - 1 if i > 0 and not invalid[i - 1] else None
        right = j if j < n else None
        if left is None and right is None:
            i = j
            continue
        if left is None or right is None:
            k = right if left is None else left
            for m in range(i, j):
                x[m], y[m], floor[m] = x[k], y[k], floor[k]
                repair[m] = "interp"
            i = j
            continue
        poly = graph.path(
            (x[left], y[left], floor[left]),
            (x[right], y[right], floor[right]),
            e1=ent[left],
            e2=ent[right],
        )
        xy = poly[:, :2]
        total_len = polyline_length(xy)
        span = ts[right] - ts[left]
        for m in range(i, j):
            frac = (ts[m] - ts[left]) / span if span > 0 else 0.5
            px, py = point_along_polyline(xy, frac)
            x[m], y[m] = px, py
            # Floor of the nearest polyline vertex at that arc position.
            floor[m] = _floor_at(poly, frac, total_len)
            repair[m] = "interp"
        i = j

    out = g.copy()
    out["x"] = x
    out["y"] = y
    out["floor"] = floor
    out["repair"] = repair
    return out


def violation_sequence(
    pdf: pd.DataFrame,
    dsm: DigitalSpaceModel,
    graph: IndoorGraph,
    *,
    vmax: float = DEFAULT_VMAX,
) -> pd.DataFrame:
    """Count one device's speed-constraint violations: consecutive
    record pairs whose indoor speed is above ``vmax``."""
    g = pdf.sort_values("ts")
    x = g["x"].to_numpy(dtype=float)
    y = g["y"].to_numpy(dtype=float)
    fl = g["floor"].to_numpy(dtype=int)
    ts = g["ts"].to_numpy(dtype=float)
    ent = list(dsm.locate_entities(x, y, fl))
    viol = 0
    for i in range(len(g) - 1):
        if not _indoor_speed_ok(
            graph,
            (x[i], y[i], fl[i]),
            (x[i + 1], y[i + 1], fl[i + 1]),
            ent[i],
            ent[i + 1],
            ts[i + 1] - ts[i],
            vmax,
        ):
            viol += 1
    return pd.DataFrame(
        {
            "device_id": [g["device_id"].iloc[0]],
            "n_pairs": [max(0, len(g) - 1)],
            "n_violations": [viol],
        }
    )


def _majority_floor(floor: np.ndarray, half_window: int = 5) -> np.ndarray:
    """Replace each floor value by the mode of its ±half_window
    neighborhood; ties keep the current value.

    Floor flips are sporadic, so the mode wipes them out; a genuine
    staircase transition is a step function whose records each agree
    with the mode of their own window (at worst the boundary shifts by
    one sample), so it survives.
    """
    n = len(floor)
    if n == 0:
        return floor.copy()
    # Window counts of every floor value at once: one-hot rows, then
    # differences of their cumulative sums over each [lo, hi) window.
    vals, idx = np.unique(floor, return_inverse=True)
    onehot = np.zeros((n + 1, len(vals)), dtype=np.int64)
    onehot[np.arange(1, n + 1), idx] = 1
    cum = onehot.cumsum(axis=0)
    pos = np.arange(n)
    lo = np.maximum(pos - half_window, 0)
    hi = np.minimum(pos + half_window + 1, n)
    counts = cum[hi] - cum[lo]
    winners = counts == counts.max(axis=1, keepdims=True)
    # ``vals`` is sorted, so the first winning column is the smallest floor.
    return np.where(winners[pos, idx], floor, vals[winners.argmax(axis=1)])


def _floor_at(poly: np.ndarray, frac: float, total_len: float) -> int:
    """Floor value at fraction ``frac`` along a (x, y, floor) polyline —
    floor changes happen at staircase vertices (zero planar length), so
    take the floor of the segment containing the arc position."""
    if total_len <= 0 or len(poly) < 2:
        return int(poly[0, 2])
    seg = np.hypot(np.diff(poly[:, 0]), np.diff(poly[:, 1]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = frac * total_len
    i = int(np.searchsorted(cum, target, side="right") - 1)
    i = min(max(i, 0), len(poly) - 2)
    # Mid-segment: floors of both ends agree except across a staircase,
    # where planar length is 0 and searchsorted lands past it anyway.
    return int(poly[i + 1, 2]) if target > cum[i] else int(poly[i, 2])


def clean(
    raw: DataFrame,
    dsm: DigitalSpaceModel,
    *,
    vmax: float = DEFAULT_VMAX,
) -> DataFrame:
    """Distributed cleaning: one group per device, DSM broadcast."""
    kernel = partial(clean_sequence, vmax=vmax)
    return per_device(raw, kernel, CLEANED_SCHEMA, dsm, IndoorGraph(dsm))


def violation_stats(
    records: DataFrame, dsm: DigitalSpaceModel, *, vmax: float = DEFAULT_VMAX
) -> DataFrame:
    """Per-device count of speed-constraint violations (consecutive-pair
    indoor speed above ``vmax``) — the Cleaner's acceptance metric."""
    kernel = partial(violation_sequence, vmax=vmax)
    return per_device(records, kernel, VIOLATION_SCHEMA, dsm, IndoorGraph(dsm))
