"""Raw Data Cleaner — the Cleaning layer of the translation framework.

Per the paper (§3): invalid records are identified "by checking the
speeds between consecutive positioning records based on the minimum
indoor walking distance"; an invalid record is repaired in two steps —
*floor value correction* first, and if the speed-constraint violation
persists, *location interpolation* "by deriving the possible locations
at the time of that record based on the indoor geometrical and
topological information captured by the DSM".

Implementation: floor correction is a neighbourhood-majority pass over
each device's time-ordered sequence. The records are then resolved to
DSM entities once, and a sequential anchor scan marks them valid or
invalid (a record is valid if it is indoor-reachable from the last valid
record within the walking-speed budget). Each invalid run is re-placed
along the indoor shortest path between its flanking valid anchors,
time-proportionally. The scan runs distributed through the shared
:func:`~.stage.per_device` runner, with the DSM and graph broadcast.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..dsm.geometry import points_along_polyline
from ..dsm.graph import IndoorGraph
from ..dsm.model import DigitalSpaceModel
from .features import label_runs
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


def _speed_check(
    graph: IndoorGraph,
    x: np.ndarray,
    y: np.ndarray,
    floor: np.ndarray,
    ts: np.ndarray,
    ent: list[str],
) -> Callable[[int, int], bool]:
    """``ok(i, j)`` over one device's arrays and resolved entities: is
    record j indoor-reachable from record i within the walking-speed
    budget? Uses the minimum indoor walking distance, with a Euclidean
    lower-bound shortcut (indoor >= Euclidean, so a Euclidean violation
    is already an indoor violation)."""

    def ok(i: int, j: int) -> bool:
        dt = ts[j] - ts[i]
        if dt <= 0:
            return False
        budget = DEFAULT_VMAX * dt
        if floor[i] == floor[j]:
            if np.hypot(x[j] - x[i], y[j] - y[i]) > budget:
                return False
            if ent[i] == ent[j]:
                return True
        p_i, p_j = (x[i], y[i], floor[i]), (x[j], y[j], floor[j])
        return graph.distance(p_i, p_j, e1=ent[i], e2=ent[j]) <= budget

    return ok


def clean_sequence(
    pdf: pd.DataFrame, dsm: DigitalSpaceModel, graph: IndoorGraph
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

    # Floor value correction: neighborhood majority. Floor flips
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

    ent = graph.resolve_entities(x, y, floor)
    ok = _speed_check(graph, x, y, floor, ts, ent)

    # Robust initial anchor: first record that agrees with its successor
    # (guards against an outlier in record 0 poisoning the whole scan).
    anchor = next((i for i in range(n - 1) if ok(i, i + 1)), 0)
    invalid = np.zeros(n, dtype=bool)
    invalid[:anchor] = True

    for i in range(anchor + 1, n):
        if ok(anchor, i):
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
    # along the indoor shortest path, time-proportionally. The record at
    # ``anchor`` is never invalid, so every run has at least one flank.
    for a, b in label_runs(invalid):
        if not invalid[a]:
            continue
        repair[a:b] = "interp"
        if a == 0 or b == n:
            k = b if a == 0 else a - 1
            x[a:b], y[a:b], floor[a:b] = x[k], y[k], floor[k]
            continue
        left, right = a - 1, b
        poly = graph.path(
            (x[left], y[left], floor[left]),
            (x[right], y[right], floor[right]),
            e1=ent[left],
            e2=ent[right],
        )
        span = ts[right] - ts[left]
        fracs = (ts[a:b] - ts[left]) / span if span > 0 else np.full(b - a, 0.5)
        x[a:b], y[a:b], floor[a:b] = points_along_polyline(poly, fracs)

    out = g.copy()
    out["x"] = x
    out["y"] = y
    out["floor"] = floor
    out["repair"] = repair
    return out


def violation_sequence(
    pdf: pd.DataFrame, dsm: DigitalSpaceModel, graph: IndoorGraph
) -> pd.DataFrame:
    """Count one device's speed-constraint violations: consecutive
    record pairs whose indoor speed is above ``DEFAULT_VMAX``."""
    g = pdf.sort_values("ts")
    x = g["x"].to_numpy(dtype=float)
    y = g["y"].to_numpy(dtype=float)
    fl = g["floor"].to_numpy(dtype=int)
    ts = g["ts"].to_numpy(dtype=float)
    ok = _speed_check(graph, x, y, fl, ts, graph.resolve_entities(x, y, fl))
    viol = sum(not ok(i, i + 1) for i in range(len(g) - 1))
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


def clean(raw: DataFrame, dsm: DigitalSpaceModel) -> DataFrame:
    """Distributed cleaning: one group per device, DSM broadcast."""
    return per_device(raw, clean_sequence, CLEANED_SCHEMA, dsm, IndoorGraph(dsm))


def violation_stats(records: DataFrame, dsm: DigitalSpaceModel) -> DataFrame:
    """Per-device count of speed-constraint violations (consecutive-pair
    indoor speed above ``DEFAULT_VMAX``) — the Cleaner's acceptance metric."""
    return per_device(
        records, violation_sequence, VIOLATION_SCHEMA, dsm, IndoorGraph(dsm)
    )
