"""Baseline comparators for the experiment tables.

The paper positions TRIPS against GPS-oriented tools ([10]–[12]) that
(a) know only the two generic patterns *stop* and *move*, (b) use no
indoor topology, and (c) do no indoor-specific cleaning. We implement
that class of solution as the ``stop_move_baseline``: a velocity
threshold splits each raw sequence into stops and moves (the classic
semantic-trajectory approach of Yan et al. [12]); regions are matched
flat by geometry with no DSM topology, floor errors go uncorrected, and
no learning or complementing happens. T3 compares TRIPS against it; the
topology-only Complementor baseline for T4 lives in
``complement.infer_path(mode='hops')``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..dsm.model import DigitalSpaceModel
from .annotation import SEMANTICS_COLUMNS, SEMANTICS_SCHEMA, dominant_region
from .features import label_runs
from .stage import per_device

#: Below this average speed (m/s) a run counts as a stop, per [12]-style
#: velocity-threshold segmentation.
DEFAULT_STOP_SPEED = 0.3
DEFAULT_MIN_STOP_S = 60.0


def stop_move_sequence(
    pdf: pd.DataFrame,
    dsm: DigitalSpaceModel,
    *,
    min_stop_s: float = DEFAULT_MIN_STOP_S,
) -> pd.DataFrame:
    """Velocity-threshold stop/move annotation of one raw sequence.

    Stops map to the paper's ``stay`` and moves to ``pass-by`` so the
    outputs are comparable against ground truth with the same scorer.
    """
    g = pdf.sort_values("ts").reset_index(drop=True)
    n = len(g)
    if n == 0:
        return pd.DataFrame(columns=SEMANTICS_COLUMNS)
    x = g["x"].to_numpy(dtype=float)
    y = g["y"].to_numpy(dtype=float)
    ts = g["ts"].to_numpy(dtype=float)
    speed = np.zeros(n)
    if n > 1:
        dt = np.diff(ts)
        step = np.hypot(np.diff(x), np.diff(y))
        with np.errstate(divide="ignore", invalid="ignore"):
            speed[1:] = np.where(dt > 0, step / dt, 0.0)
        speed[0] = speed[1]
    slow = speed <= DEFAULT_STOP_SPEED
    regions = dsm.locate_regions(x, y, g["floor"].to_numpy())

    # Runs of slow records are stop candidates; sub-threshold stops fall
    # back to moves (the [12] minimal-stop-duration rule). Consecutive
    # runs that end up with the same (event, region) merge — threshold
    # flicker otherwise fragments the output.
    device = g["device_id"].iloc[0]
    visits: list[dict] = []
    for a, b in label_runs(slow):
        is_stop = bool(slow[a]) and ts[b - 1] - ts[a] >= min_stop_s
        event = "stay" if is_stop else "pass-by"
        region = dominant_region(regions[a:b])
        last = visits[-1] if visits else None
        if last and last["event"] == event and last["region_id"] == region:
            last["t_end"] = float(ts[b - 1])
            last["n_records"] += b - a
            continue
        visits.append(
            {
                "device_id": device,
                "seq": len(visits),
                "event": event,
                "region_id": region,
                "tag": dsm.regions[region].tag if region else None,
                "t_start": float(ts[a]),
                "t_end": float(ts[b - 1]),
                "n_records": b - a,
                "inferred": False,
            }
        )
    return pd.DataFrame(visits, columns=SEMANTICS_COLUMNS)


def stop_move_baseline(raw: DataFrame, dsm: DigitalSpaceModel) -> DataFrame:
    """Distributed stop/move baseline over all devices (no cleaning, no
    learning, no topology, no complementing)."""
    return per_device(raw, stop_move_sequence, SEMANTICS_SCHEMA, dsm)
