"""Snippet/segment feature extraction for event identification.

The paper (§3): "The feature extraction considers the information of
positioning location variance, traveling distance and speed, covering
range, number of turns, etc." — those are exactly the features below,
computed on time-ordered array slices of positioning records, bounded by
``(start, end)`` runs: per visit for the Annotator, per ``segment_id``
for training.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd

#: Order of the model's input features.
FEATURE_NAMES = [
    "n_points",
    "duration_s",
    "loc_variance",
    "travel_dist",
    "mean_speed",
    "max_step_speed",
    "covering_range",
    "n_turns",
    "radius_gyration",
    "floor_changes",
]

_TURN_ANGLE_RAD = np.deg2rad(45.0)
_MIN_STEP_M = 0.5  # steps shorter than this are jitter, not headings


def label_runs(labels: Sequence) -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` bounds of the maximal runs of equal
    labels, in order. Two ``None`` labels are equal."""
    if len(labels) == 0:
        return []
    v = np.asarray(labels, dtype=object)
    bounds = [0, *(np.flatnonzero(v[1:] != v[:-1]) + 1).tolist(), len(v)]
    return list(zip(bounds[:-1], bounds[1:]))


def segment_features(
    ts: np.ndarray, x: np.ndarray, y: np.ndarray, floor: np.ndarray
) -> dict[str, float]:
    """Feature dict for one time-ordered segment of positioning records,
    given as float ``ts, x, y`` and integer ``floor`` arrays."""
    n = len(ts)
    duration = float(ts[-1] - ts[0]) if n > 1 else 0.0

    if n > 1:
        dx, dy, dt = np.diff(x), np.diff(y), np.diff(ts)
        step = np.hypot(dx, dy)
        travel = float(step.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            speeds = np.where(dt > 0, step / dt, 0.0)
        max_speed = float(speeds.max()) if len(speeds) else 0.0
    else:
        travel, max_speed = 0.0, 0.0
    mean_speed = travel / duration if duration > 0 else 0.0

    var = float(np.var(x) + np.var(y))
    cov_range = float(np.hypot(x.max() - x.min(), y.max() - y.min())) if n else 0.0
    gyration = (
        float(np.sqrt(np.mean((x - x.mean()) ** 2 + (y - y.mean()) ** 2))) if n else 0.0
    )

    n_turns = 0
    if n > 2:
        sig = step >= _MIN_STEP_M
        hx, hy = dx[sig], dy[sig]
        if len(hx) > 1:
            heading = np.arctan2(hy, hx)
            dh = np.abs(np.diff(heading))
            dh = np.minimum(dh, 2 * np.pi - dh)
            n_turns = int(np.sum(dh > _TURN_ANGLE_RAD))

    floor_changes = int(np.sum(np.diff(floor.astype(int)) != 0)) if n > 1 else 0

    return {
        "n_points": float(n),
        "duration_s": duration,
        "loc_variance": var,
        "travel_dist": travel,
        "mean_speed": mean_speed,
        "max_step_speed": max_speed,
        "covering_range": cov_range,
        "n_turns": float(n_turns),
        "radius_gyration": gyration,
        "floor_changes": float(floor_changes),
    }


def runs_features(records: pd.DataFrame, runs: list[tuple[int, int]]) -> pd.DataFrame:
    """``FEATURE_NAMES`` frame, one row per ``(start, end)`` run bound into
    time-ordered ``records`` (columns ``ts, x, y, floor``)."""
    ts = records["ts"].to_numpy(dtype=float)
    x = records["x"].to_numpy(dtype=float)
    y = records["y"].to_numpy(dtype=float)
    floor = records["floor"].to_numpy()
    return pd.DataFrame(
        [segment_features(ts[a:b], x[a:b], y[a:b], floor[a:b]) for a, b in runs],
        columns=FEATURE_NAMES,
    )


def features_frame(segments: pd.DataFrame) -> pd.DataFrame:
    """Training feature table: one row per ``segment_id`` of Event Editor
    ``segments`` (columns ``segment_id, label, ts, x, y, floor``), in
    ``segment_id`` order, with ``FEATURE_NAMES`` columns and the
    segment's label."""
    seg = segments.sort_values(["segment_id", "ts"], kind="stable")
    runs = label_runs(seg["segment_id"].to_numpy())
    first = seg.iloc[[a for a, _ in runs]]
    feats = runs_features(seg, runs)
    feats.insert(0, "segment_id", first["segment_id"].to_numpy())
    feats["label"] = first["label"].to_numpy()
    return feats


def feature_matrix(features: pd.DataFrame) -> np.ndarray:
    """``(n, d)`` float matrix in canonical feature order."""
    return features[FEATURE_NAMES].to_numpy(dtype=float)
