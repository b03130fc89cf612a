"""Evaluation metrics for the experiment tables.

The paper assesses translations visually (the Viewer); our simulator
retains ground truth, so every layer gets a quantitative score:

- **positioning error** (T2): per-record Euclidean error and floor
  mismatch of raw/cleaned records against ground-truth records, joined
  relationally on ``(device_id, record_id)``;
- **semantics quality** (T3): interval-overlap matching of predicted
  semantics against ground-truth semantics, one overlap matrix per
  device → per-event precision / recall / F1 and spatial-annotation
  accuracy;
- **complement quality** (T4): inferred region paths inside dropout gaps
  against the ground-truth regions traversed there, each gap searched
  in its own device's rows only.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


# ----------------------------------------------------------------------
# T2 — positioning error
# ----------------------------------------------------------------------
def positioning_error(records: DataFrame, gt: DataFrame) -> DataFrame:
    """Per-record error columns via an equi-join on (device_id,
    record_id): ``err`` (planar metres) and ``floor_wrong`` (0/1)."""
    r = records.select("device_id", "record_id", "x", "y", "floor")
    g = gt.select(
        "device_id",
        "record_id",
        F.col("x").alias("gx"),
        F.col("y").alias("gy"),
        F.col("floor").alias("gfloor"),
    )
    return r.join(g, on=["device_id", "record_id"]).select(
        "device_id",
        "record_id",
        F.sqrt((F.col("x") - F.col("gx")) ** 2 + (F.col("y") - F.col("gy")) ** 2).alias(
            "err"
        ),
        (F.col("floor") != F.col("gfloor")).cast("int").alias("floor_wrong"),
    )


def error_summary(err: DataFrame) -> dict[str, float]:
    """Aggregate mean / p90 planar error and floor error rate."""
    row = err.agg(
        F.mean("err").alias("mean_err"),
        F.expr("percentile_approx(err, 0.9)").alias("p90_err"),
        F.mean("floor_wrong").alias("floor_err_rate"),
        F.count(F.lit(1)).alias("n"),
    ).collect()[0]
    return {
        "mean_err": float(row["mean_err"]),
        "p90_err": float(row["p90_err"]),
        "floor_err_rate": float(row["floor_err_rate"]),
        "n": int(row["n"]),
    }


# ----------------------------------------------------------------------
# T3 — semantics quality
# ----------------------------------------------------------------------
def match_semantics(pred: pd.DataFrame, gt: pd.DataFrame) -> pd.DataFrame:
    """Best-overlap match per ground-truth interval, per device.

    Returns one row per gt interval (devices sorted, then gt frame order)
    with the best-overlapping predicted interval's event/region, the first
    in frame order on a tie; None and ``overlap == 0.0`` when nothing
    overlaps. An empty ``gt`` gives an empty frame with the same columns.
    Each device builds one n_gt x n_pred overlap matrix: time and memory
    are O(gt x pred) per device.
    """
    gt_rows = gt.groupby("device_id").indices
    pred_rows = pred.groupby("device_id").indices
    p0, p1 = (pred[c].to_numpy(dtype=float) for c in ("t_start", "t_end"))
    g0, g1 = (gt[c].to_numpy(dtype=float) for c in ("t_start", "t_end"))
    best = np.full(len(gt), -1.0)
    match = np.zeros(len(gt), dtype=int)
    for dev, rows in gt_rows.items():
        if dev in pred_rows:
            cand = pred_rows[dev]
            ov = np.minimum.outer(g1[rows], p1[cand])
            ov -= np.maximum.outer(g0[rows], p0[cand])
            match[rows], best[rows] = cand[ov.argmax(axis=1)], ov.max(axis=1)
    order = np.concatenate(
        [np.empty(0, dtype=np.intp)] + [gt_rows[dev] for dev in sorted(gt_rows)]
    )
    best, match = best[order], match[order]
    hit = best > 0

    def matched(col: str) -> np.ndarray:
        out = np.full(len(order), None, dtype=object)
        out[hit] = pred[col].to_numpy(dtype=object)[match[hit]]
        return out

    return pd.DataFrame(
        {
            "device_id": gt["device_id"].to_numpy()[order],
            "gt_event": gt["event"].to_numpy()[order],
            "gt_region": gt["region_id"].to_numpy()[order],
            "gt_t_start": gt["t_start"].to_numpy()[order],
            "gt_t_end": gt["t_end"].to_numpy()[order],
            "pred_event": matched("event"),
            "pred_region": matched("region_id"),
            "overlap": np.where(hit, best, 0.0),
        }
    )


def semantics_scores(pred: pd.DataFrame, gt: pd.DataFrame) -> dict[str, float]:
    """Event P/R/F1 (per class and macro) + spatial accuracy.

    Recall-side matching runs gt→pred (above); precision-side runs
    pred→gt. A match is correct when the event labels agree; spatial
    accuracy is the fraction of matched gt intervals whose region also
    agrees.
    """
    fwd = match_semantics(pred, gt)  # gt -> best pred
    bwd = match_semantics(gt, pred)  # pred treated as "gt" to score precision
    scores: dict[str, float] = {}
    events = sorted(set(gt["event"].unique()) | set(pred["event"].unique()))
    f1s = []
    for ev in events:
        rel = fwd[fwd["gt_event"] == ev]
        recall = (
            float((rel["pred_event"] == ev).mean()) if len(rel) else float("nan")
        )
        relp = bwd[bwd["gt_event"] == ev]  # rows where *pred* event == ev
        precision = (
            float((relp["pred_event"] == ev).mean()) if len(relp) else float("nan")
        )
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        scores[f"{ev}_precision"] = precision
        scores[f"{ev}_recall"] = recall
        scores[f"{ev}_f1"] = f1
        f1s.append(f1)
    matched = fwd[fwd["overlap"] > 0]
    scores["event_accuracy"] = (
        float((matched["pred_event"] == matched["gt_event"]).mean())
        if len(matched)
        else float("nan")
    )
    scores["region_accuracy"] = (
        float((matched["pred_region"] == matched["gt_region"]).mean())
        if len(matched)
        else float("nan")
    )
    scores["macro_f1"] = float(np.mean(f1s)) if f1s else float("nan")
    return scores


# ----------------------------------------------------------------------
# T4 — complement quality
# ----------------------------------------------------------------------
def complement_scores(
    complemented: pd.DataFrame,
    gt_sem: pd.DataFrame,
    gaps: pd.DataFrame,
    *,
    transit_regions: set[str] | None = None,
) -> dict[str, float]:
    """Score inferred gap fillings against the ground-truth region
    sequence inside each gap.

    Metrics: exact region-path match rate, mean Jaccard similarity of
    region sets, and — when ``transit_regions`` (e.g. the hall regions)
    is given — ``transit_exact`` (exact match on the transit subsequence
    only) and ``path_recovered`` (the observed transit sequence is an
    ordered subsequence of the inferred path). The last is the fairest
    route-recovery measure: the observation itself under-reports halls
    that were crossed in under two sampling periods, so a correct
    inference legitimately contains *more* regions than were observed.
    Transit-only filtering matters because a shopper may detour into a
    shop mid-gap, which no inference from endpoint regions alone can
    know; the route through the halls *is* inferable.
    """
    if gaps.empty:
        return {
            "n_gaps": 0,
            "path_exact": float("nan"),
            "jaccard": float("nan"),
            "transit_exact": float("nan"),
            "path_recovered": float("nan"),
        }
    inf_rows = complemented[complemented["inferred"]]
    inferred = {dev: g for dev, g in inf_rows.groupby("device_id")}
    truth = {dev: g for dev, g in gt_sem.groupby("device_id")}
    no_rows = gt_sem.iloc[:0]
    exact, jac, transit, recovered = [], [], [], []
    for dev, lo, hi, flanks in zip(
        gaps["device_id"],
        gaps["gap_start"].astype(float),
        gaps["gap_end"].astype(float),
        zip(gaps["from_region"], gaps["to_region"]),
    ):
        inf, gt_in = inferred.get(dev, no_rows), truth.get(dev, no_rows)
        inf = inf[(inf["t_start"] >= lo - 1e-6) & (inf["t_end"] <= hi + 1e-6)]
        gt_in = gt_in[(gt_in["t_end"] > lo) & (gt_in["t_start"] < hi)]
        # Ground-truth interior: regions inside the gap, excluding the
        # flanking regions the Annotator already produced.
        gt_regions = [
            r for r in gt_in.sort_values("t_start")["region_id"] if r not in flanks
        ]
        inf_regions = list(inf.sort_values("t_start")["region_id"])
        exact.append(inf_regions == _dedup(gt_regions))
        a, b = set(inf_regions), set(gt_regions)
        jac.append(len(a & b) / len(a | b) if (a | b) else 1.0)
        if transit_regions is not None:
            gt_t = _dedup([r for r in gt_regions if r in transit_regions])
            inf_t = _dedup([r for r in inf_regions if r in transit_regions])
            transit.append(inf_t == gt_t)
            recovered.append(_is_subsequence(gt_t, inf_t))
    out = {
        "n_gaps": int(len(gaps)),
        "path_exact": float(np.mean(exact)),
        "jaccard": float(np.mean(jac)),
    }
    out["transit_exact"] = float(np.mean(transit)) if transit else float("nan")
    out["path_recovered"] = float(np.mean(recovered)) if recovered else float("nan")
    return out


def _is_subsequence(needle: list, haystack: list) -> bool:
    """True when ``needle`` appears in ``haystack`` in order (gaps allowed)."""
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def _dedup(seq: list) -> list:
    out = []
    for s in seq:
        if not out or out[-1] != s:
            out.append(s)
    return out


# ----------------------------------------------------------------------
# T5 — condensation
# ----------------------------------------------------------------------
def condensation_ratio(records: DataFrame, semantics: DataFrame) -> float:
    """Records-per-semantics ratio — quantifies the paper's claim that
    semantics "use a more condensed form compared to the raw records"."""
    n_rec = records.count()
    n_sem = semantics.count()
    return float(n_rec) / float(n_sem) if n_sem else float("inf")
