"""Mobility Semantics Annotator — the Annotation layer.

For each cleaned positioning sequence: density-based splitting produces
snippets; *semantic matching* then annotates each snippet with

- an **event annotation** (the learning-based :class:`EventModel`
  predicts the mobility event, e.g. stay / pass-by),
- a **spatial annotation** (the DSM semantic region that dominates the
  snippet's time coverage),
- a **temporal annotation** (the snippet's time range),

yielding the paper's mobility-semantics triplets. A visit is a
``(start, end)`` run bound: its features come from array slices, and the
rows are built column-wise. Runs distributed through the shared
:func:`~.stage.per_device` runner, with the DSM and model broadcast.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..dsm.model import DigitalSpaceModel
from .events import EventModel
from .features import label_runs, runs_features
from .splitting import split_sequence
from .stage import per_device

SEMANTICS_SCHEMA = T.StructType(
    [
        T.StructField("device_id", T.StringType(), False),
        T.StructField("seq", T.LongType(), False),
        T.StructField("event", T.StringType(), False),
        T.StructField("region_id", T.StringType(), True),
        T.StructField("tag", T.StringType(), True),
        T.StructField("t_start", T.DoubleType(), False),
        T.StructField("t_end", T.DoubleType(), False),
        T.StructField("n_records", T.LongType(), False),
        T.StructField("inferred", T.BooleanType(), False),
    ]
)

SEMANTICS_COLUMNS = [f.name for f in SEMANTICS_SCHEMA.fields]


def dominant_region(regions: Sequence[str | None]) -> str | None:
    """Spatial matching: the semantic region covering the most of the
    given records (ties break lexicographically for determinism), or None
    when no record lies in a region."""
    counts = Counter(r for r in regions if r is not None)
    if not counts:
        return None
    top = max(counts.values())
    return min(r for r, c in counts.items() if c == top)


def annotate_sequence(
    pdf: pd.DataFrame, dsm: DigitalSpaceModel, model: EventModel
) -> pd.DataFrame:
    """Annotate one device's cleaned sequence into mobility semantics."""
    g = split_sequence(pdf)
    if g.empty:
        return pd.DataFrame(columns=SEMANTICS_COLUMNS)
    regions = dsm.locate_regions(
        g["x"].to_numpy(), g["y"].to_numpy(), g["floor"].to_numpy()
    )

    # Spatial matching first: every record gets a visit label. Dense
    # (stay-candidate) snippets match to their dominant region as a
    # whole; sparse (move) snippets traverse several regions, so each of
    # their records keeps its own region — each corridor or shop crossed
    # is its own pass-by candidate, as in the paper's Table 1. A
    # single-record run inside a move snippet is location-noise flicker
    # and takes the label before it, mirroring the ground-truth RLE
    # convention. A *visit* is a maximal run of equal labels (noise may
    # fragment a dwell, but a visit is a single mobility semantics).
    # Event identification runs once per visit, on the full visit span.
    labels = list(regions)
    for a, b in label_runs(g["snippet_id"].to_numpy()):
        if g["dense"].iat[a]:
            labels[a:b] = [dominant_region(regions[a:b])] * (b - a)
            continue
        for c, d in label_runs(regions[a:b])[1:]:
            if d - c == 1:
                labels[a + c] = labels[a + c - 1]
    runs = label_runs(labels)
    starts, ends = np.array(runs).T
    ts = g["ts"].to_numpy(dtype=float)
    region = [labels[a] for a in starts]
    return pd.DataFrame(
        {
            "device_id": g["device_id"].iloc[0],
            "seq": np.arange(len(runs)),
            "event": model.predict(runs_features(g, runs)),
            "region_id": region,
            "tag": [dsm.regions[r].tag if r else None for r in region],
            "t_start": ts[starts],
            "t_end": ts[ends - 1],
            "n_records": ends - starts,
            "inferred": False,
        },
        columns=SEMANTICS_COLUMNS,
    )


def annotate(
    cleaned: DataFrame, dsm: DigitalSpaceModel, model: EventModel
) -> DataFrame:
    """Distributed annotation of all devices' cleaned sequences."""
    return per_device(cleaned, annotate_sequence, SEMANTICS_SCHEMA, dsm, model)
