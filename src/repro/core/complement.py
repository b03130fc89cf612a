"""Mobility Semantics Complementor — the Complementing layer.

"A mobility semantics inference utilizes the mobility knowledge to infer
the most-likely mobility semantics between two semantic regions involved
in the intermediate result" by "a maximum a posteriori estimation".

A gap is a pair of consecutive semantics that are temporally far apart
(positioning dropout). The most likely region path between their regions
maximizes the product of transition probabilities from the constructed
mobility knowledge, constrained to the DSM's region-connectivity graph —
i.e. a minimum-cost path under ``-log P(transition)`` (Laplace-smoothed
so unseen but topologically legal transitions stay possible). The
``hops`` mode ignores the knowledge (uniform edge cost) and is the
topology-only baseline for T4.
"""
from __future__ import annotations

import heapq
import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from ..dsm.model import DigitalSpaceModel
from .annotation import SEMANTICS_COLUMNS, SEMANTICS_SCHEMA
from .stage import per_device

#: Consecutive semantics further apart than this are a gap to complement.
DEFAULT_GAP_THRESHOLD_S = 60.0
#: Laplace smoothing weight for unseen transitions.
DEFAULT_ALPHA = 0.5


def infer_path(
    adjacency: dict[str, list[str]],
    trans_counts: dict[tuple[str, str], float],
    start: str,
    end: str,
    *,
    mode: str = "map",
) -> list[str] | None:
    """Most-likely intermediate region sequence from ``start`` to ``end``
    (exclusive of both), or None if unreachable.

    ``mode='map'``: Dijkstra under ``-log P_smoothed(b|a)``;
    ``mode='hops'``: fewest doors (baseline).
    """
    if start == end:
        return []
    if start not in adjacency or end not in adjacency:
        return None

    def edge_cost(a: str, b: str) -> float:
        if mode == "hops":
            return 1.0
        nbrs = adjacency[a]
        total = sum(trans_counts.get((a, nb), 0.0) for nb in nbrs)
        p = (trans_counts.get((a, b), 0.0) + DEFAULT_ALPHA) / (
            total + DEFAULT_ALPHA * len(nbrs)
        )
        return -math.log(max(p, 1e-12))

    dist: dict[str, float] = {start: 0.0}
    prev: dict[str, str] = {}
    heap = [(0.0, start)]
    seen: set[str] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == end:
            break
        for v in adjacency.get(u, []):
            nd = d + edge_cost(u, v)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if end not in prev:
        return None
    path = [end]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    return path[1:-1]


def complement_sequence(
    sem: pd.DataFrame,
    dsm: DigitalSpaceModel,
    adjacency: dict[str, list[str]],
    trans_counts: dict[tuple[str, str], float],
    *,
    gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
    mode: str = "map",
) -> pd.DataFrame:
    """Complement one device's semantics sequence: infer the missing
    semantics inside every temporal gap and splice them in (flagged
    ``inferred=True``), re-sequencing the result."""
    records = sem.sort_values("t_start").to_dict("records")
    rows: list[dict] = []
    for cur, nxt in zip(records, records[1:] + [None]):
        rows.append(cur)
        if nxt is None:
            continue
        gap = float(nxt["t_start"]) - float(cur["t_end"])
        if gap <= gap_threshold_s:
            continue
        a, b = cur["region_id"], nxt["region_id"]
        if a is None or b is None:
            continue
        mids = infer_path(adjacency, trans_counts, a, b, mode=mode)
        if not mids:
            continue
        # Tile the gap uniformly across the inferred regions.
        step = gap / len(mids)
        t = float(cur["t_end"])
        for k, rid in enumerate(mids):
            rows.append(
                {
                    "device_id": cur["device_id"],
                    "seq": -1,
                    "event": "pass-by",
                    "region_id": rid,
                    "tag": dsm.regions[rid].tag if rid in dsm.regions else None,
                    "t_start": t + step * k,
                    "t_end": t + step * (k + 1),
                    "n_records": 0,
                    "inferred": True,
                }
            )
    out = pd.DataFrame(rows, columns=SEMANTICS_COLUMNS)
    out = out.sort_values(["t_start", "t_end"]).reset_index(drop=True)
    out["seq"] = np.arange(len(out), dtype=np.int64)
    return out


def complement(
    semantics: DataFrame,
    dsm: DigitalSpaceModel,
    trans_counts: dict[tuple[str, str], float],
) -> DataFrame:
    """Distributed complementing of all devices' semantics sequences."""
    return per_device(
        semantics,
        complement_sequence,
        SEMANTICS_SCHEMA,
        dsm,
        dsm.region_adjacency(),
        trans_counts,
    )


def find_gaps(semantics: DataFrame) -> DataFrame:
    """Relational view of the gaps the Complementor fills: consecutive
    semantics more than ``DEFAULT_GAP_THRESHOLD_S`` apart (columns:
    device_id, from_region, to_region, gap_start, gap_end)."""
    w = Window.partitionBy("device_id").orderBy("seq")
    return (
        semantics.withColumn("nxt_start", F.lead("t_start").over(w))
        .withColumn("nxt_region", F.lead("region_id").over(w))
        .where(F.col("nxt_start").isNotNull())
        .where(F.col("nxt_start") - F.col("t_end") > DEFAULT_GAP_THRESHOLD_S)
        .select(
            "device_id",
            F.col("region_id").alias("from_region"),
            F.col("nxt_region").alias("to_region"),
            F.col("t_end").alias("gap_start"),
            F.col("nxt_start").alias("gap_end"),
        )
    )
