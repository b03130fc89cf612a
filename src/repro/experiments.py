"""Experiment harnesses — one per table in EXPERIMENTS.md.

The paper is a demo without numeric tables, so these tables quantify
each capability it claims (see DESIGN.md). Every harness returns a
pandas DataFrame with the table's rows; ``jobs/table*.py`` print them
and ``benchmarks/bench_table*.py`` time them.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from .configurator import EventEditor, designate_from_ground_truth
from .core import (
    clean,
    train_event_model,
    translate,
    stop_move_baseline,
    violation_stats,
)
from .core.annotation import annotate
from .core.complement import complement_sequence
from .core.evaluate import (
    complement_scores,
    error_summary,
    positioning_error,
    semantics_scores,
)
from .core.knowledge import count_transitions, knowledge_to_dict
from .dsm import IndoorGraph, build_mall
from .positioning import CorruptionConfig, corrupt, from_pandas
from .positioning.trajectory import _sample, _walk_waypoints, ground_truth_semantics
from .synth_data import mall_scenario


def _trained_model(scenario: dict, train_frac: float = 0.3):
    """Event Editor workflow: designate ground-truth segments for the
    first ``train_frac`` of devices, train the identifier on them, and
    return (model, test device list)."""
    devs = sorted(scenario["gt_pdf"]["device_id"].unique())
    n_train = max(1, int(len(devs) * train_frac))
    ed = EventEditor()
    ed.define_pattern("stay")
    ed.define_pattern("pass-by")
    designate_from_ground_truth(ed, scenario["gt_semantics_pdf"], devs[:n_train])
    model = train_event_model(ed.training_segments(scenario["gt_pdf"]))
    return model, devs[n_train:]


# ----------------------------------------------------------------------
# T1 — Table-1 walk-through (raw records -> semantics triplets)
# ----------------------------------------------------------------------
def table1(spark: SparkSession) -> dict:
    """Reproduce the shape of the paper's Table 1: one shopper staying in
    Adidas, walking through Nike, then staying at the Cashier; the
    pipeline must translate the raw records into that triplet trace.

    Returns ``{"raw": ..., "semantics": ...}`` pandas frames.
    """
    dsm = build_mall(n_floors=3, shops_per_side=4)
    graph = IndoorGraph(dsm)
    # Scripted itinerary on floor 1: S0=Adidas, S1=Nike, S2=Cashier.
    legs = [
        ("dwell", (5.0, 4.0, 1), 960.0),  # stay Adidas ~16 min
        ("walk", (13.0, 2.0, 1), None),  # into Nike...
        ("walk", (17.0, 6.0, 1), None),  # ...wander through it
        ("walk", (25.0, 4.0, 1), None),  # on to the Cashier
        ("dwell", (25.0, 4.0, 1), 240.0),  # stay Cashier ~4 min
    ]
    rng = np.random.default_rng(1)
    t, pos = 0.0, (5.0, 4.0, 1)
    waypoints = [(t, *pos)]
    for kind, target, dur in legs:
        if kind == "dwell":
            t += dur
            waypoints.append((t, *pos))
        else:
            wps, t = _walk_waypoints(graph, t, pos, target, 1.3)
            waypoints.extend(wps[1:])
            pos = target
    gt = _sample(dsm, waypoints, "3a.7f.0014", t, 5.0, rng)
    raw = corrupt(
        gt,
        CorruptionConfig(sigma_xy=0.8, p_floor_error=0.02, p_outlier=0.01, n_dropouts=0, seed=2),
        n_floors=3,
    )
    # Train the identifier from a small population in the same mall.
    scenario = mall_scenario(spark, sf=0.01, seed=0)
    model, _ = _trained_model(scenario)
    res = translate(from_pandas(spark, raw), dsm, model)
    sem = res.complemented.toPandas().sort_values("seq")
    return {"raw": raw, "gt_semantics": ground_truth_semantics(dsm, gt, period_s=5.0), "semantics": sem}


# ----------------------------------------------------------------------
# T2 — Cleaning layer vs noise level
# ----------------------------------------------------------------------
def table2(
    spark: SparkSession, *, sf: float = 0.1, sigmas=(0.5, 1.0, 2.0, 4.0), seed: int = 0
) -> pd.DataFrame:
    """Positioning error and speed-violation repair across noise levels."""
    rows = []
    base = mall_scenario(spark, sf=sf, seed=seed)
    dsm = base["dsm"]
    for sigma in sigmas:
        cfg = CorruptionConfig(sigma_xy=sigma, seed=seed + 7)
        raw_pdf = corrupt(base["gt_pdf"], cfg, n_floors=3)
        raw = from_pandas(spark, raw_pdf)
        cleaned = clean(raw, dsm).cache()
        before = error_summary(positioning_error(raw, base["gt"]))
        after = error_summary(positioning_error(cleaned, base["gt"]))
        v_before = (
            violation_stats(raw, dsm).agg(F.sum("n_violations")).collect()[0][0]
        )
        v_after = (
            violation_stats(
                cleaned.select("device_id", "record_id", "ts", "x", "y", "floor"), dsm
            )
            .agg(F.sum("n_violations"))
            .collect()[0][0]
        )
        rows.append(
            {
                "sigma_m": sigma,
                "mean_err_raw": before["mean_err"],
                "mean_err_clean": after["mean_err"],
                "p90_err_raw": before["p90_err"],
                "p90_err_clean": after["p90_err"],
                "floor_err_raw": before["floor_err_rate"],
                "floor_err_clean": after["floor_err_rate"],
                "violations_raw": int(v_before),
                "violations_clean": int(v_after),
            }
        )
        cleaned.unpersist()
    return pd.DataFrame(rows)


# ----------------------------------------------------------------------
# T3 — Annotation quality: TRIPS vs stop/move baseline vs no-clean
# ----------------------------------------------------------------------
def table3(
    spark: SparkSession, *, sf: float = 0.1, sigmas=(1.0, 3.0), seed: int = 0
) -> pd.DataFrame:
    """Event P/R/F1 and spatial accuracy for the three systems, at a
    moderate and a harsh noise level (cleaning matters more as the raw
    data degrades)."""
    scenario = mall_scenario(spark, sf=sf, seed=seed)
    dsm = scenario["dsm"]
    model, test_devs = _trained_model(scenario)
    gt_sem = scenario["gt_semantics_pdf"]
    gt_sem_test = gt_sem[gt_sem["device_id"].isin(test_devs)]

    rows = []
    for sigma in sigmas:
        cfg = CorruptionConfig(sigma_xy=sigma, seed=seed + 7)
        raw = from_pandas(spark, corrupt(scenario["gt_pdf"], cfg, n_floors=3))

        res = translate(raw, dsm, model)
        trips = res.semantics.toPandas()
        trips = trips[trips["device_id"].isin(test_devs)]

        noclean = annotate(raw, dsm, model).toPandas()
        noclean = noclean[noclean["device_id"].isin(test_devs)]

        base = stop_move_baseline(raw, dsm).toPandas()
        base = base[base["device_id"].isin(test_devs)]

        for name, pred in (
            ("TRIPS", trips),
            ("no-cleaning", noclean),
            ("stop/move [12]", base),
        ):
            s = semantics_scores(pred, gt_sem_test)
            rows.append(
                {
                    "sigma_m": sigma,
                    "system": name,
                    "stay_precision": s["stay_precision"],
                    "stay_recall": s["stay_recall"],
                    "stay_f1": s["stay_f1"],
                    "passby_precision": s["pass-by_precision"],
                    "passby_recall": s["pass-by_recall"],
                    "passby_f1": s["pass-by_f1"],
                    "macro_f1": s["macro_f1"],
                    "event_acc": s["event_accuracy"],
                    "region_acc": s["region_accuracy"],
                }
            )
    return pd.DataFrame(rows)


# ----------------------------------------------------------------------
# T4 — Complementing: knowledge-based MAP vs topology-only baseline
# ----------------------------------------------------------------------
def table4(spark: SparkSession, *, sf: float = 0.1, seed: int = 0) -> pd.DataFrame:
    """Masking experiment: delete observed transit semantics between two
    anchors and ask each Complementor variant to re-infer them.

    The knowledge is counted on the event model's training devices only,
    and only the held-out devices are masked and scored, so no masked
    transit is in the knowledge that re-infers it.
    """
    scenario = mall_scenario(spark, sf=sf, seed=seed)
    dsm = scenario["dsm"]
    model, test_devs = _trained_model(scenario)
    res = translate(scenario["raw"], dsm, model)
    held_out = F.col("device_id").isin(test_devs)
    trans_counts = knowledge_to_dict(count_transitions(res.semantics.where(~held_out)))
    sem = res.semantics.where(held_out).toPandas()
    adjacency = dsm.region_adjacency()
    halls = dsm.hall_regions()

    masked_all, gaps = _mask_transits(sem, halls)
    rows = []
    for mode in ("map", "hops"):
        # Threshold below the masked transits' durations (they are >= 15 s
        # by construction) but above the sampling period, so every masked
        # window registers as a gap and nothing else does.
        comp = pd.concat(
            [
                complement_sequence(
                    g, dsm, adjacency, trans_counts, gap_threshold_s=12.0, mode=mode
                )
                for _, g in masked_all.groupby("device_id")
            ],
            ignore_index=True,
        )
        s = complement_scores(comp, sem, gaps, transit_regions=halls)
        rows.append(
            {
                "system": "MAP + knowledge" if mode == "map" else "topology-only",
                "n_gaps": s["n_gaps"],
                "path_recovered": s["path_recovered"],
                "transit_exact": s["transit_exact"],
                "jaccard": s["jaccard"],
            }
        )
    return pd.DataFrame(rows)


def _mask_transits(
    sem: pd.DataFrame, halls: set[str], max_interior: int = 4
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Remove hall-only interiors between two non-hall anchors, producing
    (masked semantics, gap descriptors).

    Anchors are a device's non-hall rows in ``seq`` order, so the rows
    between two consecutive anchors are halls. Such an interior of 1 to
    ``max_interior`` rows is masked when its anchors lie at least 15 s
    apart, so that the masked window registers as a gap downstream.
    """
    masked_parts, gaps = [], []
    for dev, g in sem.groupby("device_id"):
        g = g.sort_values("seq").reset_index(drop=True)
        region = g["region_id"].to_numpy()
        t0, t1 = g["t_start"].to_numpy(), g["t_end"].to_numpy()
        is_anchor = ~g["region_id"].isin(halls).to_numpy()
        anchors = np.flatnonzero(is_anchor)
        a, b = anchors[:-1], anchors[1:]
        ok = (b - a > 1) & (b - a - 1 <= max_interior) & (t0[b] - t1[a] >= 15.0)
        a, b = a[ok], b[ok]
        # A hall row belongs to the interior after the anchor preceding it.
        prev = np.maximum.accumulate(np.where(is_anchor, np.arange(len(g)), -1))
        masked_parts.append(g[is_anchor | ~np.isin(prev, a)])
        gaps.extend(zip([dev] * len(a), region[a], region[b], t1[a], t0[b]))
    masked = (
        pd.concat(masked_parts, ignore_index=True)
        if masked_parts
        else sem.iloc[:0].reset_index(drop=True)
    )
    return (
        masked,
        pd.DataFrame(gaps, columns=["device_id", "from_region", "to_region", "gap_start", "gap_end"]),
    )


# ----------------------------------------------------------------------
# T5 — End-to-end throughput & condensation vs scale factor
# ----------------------------------------------------------------------
def table5(spark: SparkSession, *, sfs=(0.01, 0.05, 0.1), seed: int = 0) -> pd.DataFrame:
    rows = []
    for sf in sfs:
        scenario = mall_scenario(spark, sf=sf, seed=seed)
        model, _ = _trained_model(scenario)
        n_raw = scenario["raw"].count()
        t0 = time.perf_counter()
        res = translate(scenario["raw"], scenario["dsm"], model)
        n_sem = res.complemented.count()
        wall = time.perf_counter() - t0
        rows.append(
            {
                "sf": sf,
                "n_devices": scenario["n_devices"],
                "n_records": n_raw,
                "n_semantics": n_sem,
                "wall_s": wall,
                "records_per_s": n_raw / wall,
                "condensation": n_raw / n_sem,
            }
        )
    return pd.DataFrame(rows)
