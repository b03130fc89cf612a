"""Mobility Semantics Annotator — the Annotation layer.

For each cleaned positioning sequence: density-based splitting produces
snippets; *semantic matching* then annotates each snippet with

- an **event annotation** (the learning-based :class:`EventModel`
  predicts the mobility event, e.g. stay / pass-by),
- a **spatial annotation** (the DSM semantic region that dominates the
  snippet's time coverage),
- a **temporal annotation** (the snippet's time range),

yielding the paper's mobility-semantics triplets. Runs distributed through
the shared :func:`~.stage.per_device` runner, with the DSM and model
broadcast.
"""
from __future__ import annotations

from functools import partial

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..dsm.model import DigitalSpaceModel
from .events import EventModel
from .features import FEATURE_NAMES, segment_features
from .splitting import (
    DEFAULT_EPS_M,
    DEFAULT_MIN_SNIPPET_S,
    DEFAULT_WINDOW_S,
    split_sequence,
)
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


def _segment_by_region(
    dsm: DigitalSpaceModel, grp: pd.DataFrame
) -> list[tuple[pd.DataFrame, str | None]]:
    """Split a move snippet into per-region runs (time-ordered).

    Single-record runs are location-noise flicker and are absorbed into
    the preceding run, mirroring the ground-truth RLE convention.
    """
    g = grp.sort_values("ts")
    ents = dsm.locate_entities(
        g["x"].to_numpy(), g["y"].to_numpy(), g["floor"].to_numpy()
    )
    regions = [None if e is None else dsm.entity_region(e) for e in ents]
    runs: list[tuple[list[int], str | None]] = []
    for i, r in enumerate(regions):
        if runs and runs[-1][1] == r:
            runs[-1][0].append(i)
        else:
            runs.append(([i], r))
    absorbed: list[tuple[list[int], str | None]] = []
    for idxs, r in runs:
        if len(idxs) == 1 and absorbed:
            absorbed[-1][0].extend(idxs)
        else:
            absorbed.append((idxs, r))
    return [(g.iloc[idxs], r) for idxs, r in absorbed]


def dominant_region(
    dsm: DigitalSpaceModel, snippet: pd.DataFrame
) -> str | None:
    """Spatial matching: the semantic region covering the most records of
    the snippet (ties break lexicographically for determinism)."""
    ents = dsm.locate_entities(
        snippet["x"].to_numpy(), snippet["y"].to_numpy(), snippet["floor"].to_numpy()
    )
    regions = [dsm.entity_region(e) for e in ents if e is not None]
    regions = [r for r in regions if r is not None]
    if not regions:
        return None
    counts = pd.Series(regions).value_counts()
    top = counts[counts == counts.max()]
    return sorted(top.index)[0]


def annotate_sequence(
    pdf: pd.DataFrame,
    dsm: DigitalSpaceModel,
    model: EventModel,
    *,
    eps_m: float = DEFAULT_EPS_M,
    window_s: float = DEFAULT_WINDOW_S,
    min_snippet_s: float = DEFAULT_MIN_SNIPPET_S,
) -> pd.DataFrame:
    """Annotate one device's cleaned sequence into mobility semantics."""
    with_snippets = split_sequence(
        pdf, eps_m=eps_m, window_s=window_s, min_snippet_s=min_snippet_s
    )
    if with_snippets.empty:
        return pd.DataFrame(columns=SEMANTICS_COLUMNS)
    device = with_snippets["device_id"].iloc[0]

    # Spatial matching first. Dense (stay-candidate) snippets match to
    # their dominant region as a whole; sparse (move) snippets traverse
    # several regions, so they are segmented into per-region runs — each
    # corridor or shop crossed is its own pass-by candidate, as in the
    # paper's Table 1. Consecutive candidates matched to the same region
    # then merge into one *visit* (noise may fragment a dwell, but a
    # visit is a single mobility semantics). Event identification runs
    # once per visit, on the full visit span.
    candidates: list[tuple[pd.DataFrame, str | None]] = []
    for _sid, grp in with_snippets.groupby("snippet_id", sort=True):
        if bool(grp["dense"].iloc[0]):
            candidates.append((grp, dominant_region(dsm, grp)))
        else:
            candidates.extend(_segment_by_region(dsm, grp))
    visits: list[pd.DataFrame] = []
    visit_regions: list[str | None] = []
    for grp, region in candidates:
        if visits and visit_regions[-1] == region:
            visits[-1] = pd.concat([visits[-1], grp])
        else:
            visits.append(grp)
            visit_regions.append(region)
    feats = pd.DataFrame(
        [segment_features(v) for v in visits], columns=FEATURE_NAMES
    )
    events = model.predict(feats)
    rows = []
    for seq, (grp, region, event) in enumerate(zip(visits, visit_regions, events)):
        rows.append(
            {
                "device_id": device,
                "seq": seq,
                "event": str(event),
                "region_id": region,
                "tag": dsm.regions[region].tag if region else None,
                "t_start": float(grp["ts"].min()),
                "t_end": float(grp["ts"].max()),
                "n_records": int(len(grp)),
                "inferred": False,
            }
        )
    return pd.DataFrame(rows, columns=SEMANTICS_COLUMNS)


def annotate(
    cleaned: DataFrame,
    dsm: DigitalSpaceModel,
    model: EventModel,
    *,
    eps_m: float = DEFAULT_EPS_M,
    window_s: float = DEFAULT_WINDOW_S,
    min_snippet_s: float = DEFAULT_MIN_SNIPPET_S,
) -> DataFrame:
    """Distributed annotation of all devices' cleaned sequences."""
    kernel = partial(
        annotate_sequence, eps_m=eps_m, window_s=window_s, min_snippet_s=min_snippet_s
    )
    return per_device(cleaned, kernel, SEMANTICS_SCHEMA, dsm, model)
