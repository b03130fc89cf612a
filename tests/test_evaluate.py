"""Unit tests for the evaluation metrics (driver-side parts)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import (
    _dedup,
    complement_scores,
    match_semantics,
    semantics_scores,
)
from repro.dsm import build_mall


def _sem(dev, rows, inferred=False):
    return pd.DataFrame(
        [
            {
                "device_id": dev,
                "seq": i,
                "event": ev,
                "region_id": rid,
                "tag": None,
                "t_start": t0,
                "t_end": t1,
                "n_records": 1,
                "inferred": inferred,
            }
            for i, (ev, rid, t0, t1) in enumerate(rows)
        ]
    )


class TestMatch:
    def test_perfect_match(self):
        gt = _sem("d", [("stay", "A", 0, 100), ("pass-by", "H", 110, 130)])
        m = match_semantics(gt, gt)
        assert (m["pred_event"] == m["gt_event"]).all()
        assert (m["pred_region"] == m["gt_region"]).all()

    def test_best_overlap_chosen(self):
        gt = _sem("d", [("stay", "A", 0, 100)])
        pred = _sem("d", [("pass-by", "H", 0, 20), ("stay", "A", 20, 100)])
        m = match_semantics(pred, gt)
        assert m.iloc[0]["pred_event"] == "stay"

    def test_no_overlap_gives_none(self):
        gt = _sem("d", [("stay", "A", 0, 100)])
        pred = _sem("d", [("stay", "A", 500, 600)])
        m = match_semantics(pred, gt)
        assert m.iloc[0]["pred_event"] is None
        assert m.iloc[0]["overlap"] == 0.0

    def test_devices_isolated(self):
        gt = _sem("d1", [("stay", "A", 0, 100)])
        pred = _sem("d2", [("stay", "A", 0, 100)])
        m = match_semantics(pred, gt)
        assert m.iloc[0]["pred_event"] is None


class TestScores:
    def test_perfect_scores(self):
        gt = pd.concat(
            [
                _sem("d", [("stay", "A", 0, 100), ("pass-by", "H", 110, 130)]),
                _sem("e", [("stay", "B", 0, 50)]),
            ]
        )
        s = semantics_scores(gt, gt)
        assert s["stay_precision"] == 1.0
        assert s["stay_recall"] == 1.0
        assert s["pass-by_f1"] == 1.0
        assert s["event_accuracy"] == 1.0
        assert s["region_accuracy"] == 1.0
        assert s["macro_f1"] == 1.0

    def test_wrong_event_detected(self):
        gt = _sem("d", [("stay", "A", 0, 100)])
        pred = _sem("d", [("pass-by", "A", 0, 100)])
        s = semantics_scores(pred, gt)
        assert s["stay_recall"] == 0.0
        assert s["region_accuracy"] == 1.0

    def test_wrong_region_detected(self):
        gt = _sem("d", [("stay", "A", 0, 100)])
        pred = _sem("d", [("stay", "B", 0, 100)])
        s = semantics_scores(pred, gt)
        assert s["stay_recall"] == 1.0
        assert s["region_accuracy"] == 0.0


class TestComplementScores:
    def test_exact_recovery(self):
        gt = _sem(
            "d",
            [
                ("stay", "A", 0, 100),
                ("pass-by", "H", 100, 140),
                ("stay", "B", 140, 300),
            ],
        )
        comp = pd.concat(
            [
                _sem("d", [("stay", "A", 0, 100), ("stay", "B", 140, 300)]),
                _sem("d", [("pass-by", "H", 100, 140)], inferred=True),
            ]
        )
        gaps = pd.DataFrame(
            [
                {
                    "device_id": "d",
                    "from_region": "A",
                    "to_region": "B",
                    "gap_start": 100.0,
                    "gap_end": 140.0,
                }
            ]
        )
        s = complement_scores(comp, gt, gaps)
        assert s["path_exact"] == 1.0
        assert s["jaccard"] == 1.0

    def test_miss_scores_zero(self):
        gt = _sem(
            "d",
            [
                ("stay", "A", 0, 100),
                ("pass-by", "H", 100, 140),
                ("stay", "B", 140, 300),
            ],
        )
        comp = pd.concat(
            [
                _sem("d", [("stay", "A", 0, 100), ("stay", "B", 140, 300)]),
                _sem("d", [("pass-by", "X", 100, 140)], inferred=True),
            ]
        )
        gaps = pd.DataFrame(
            [
                {
                    "device_id": "d",
                    "from_region": "A",
                    "to_region": "B",
                    "gap_start": 100.0,
                    "gap_end": 140.0,
                }
            ]
        )
        s = complement_scores(comp, gt, gaps)
        assert s["path_exact"] == 0.0
        assert s["jaccard"] == 0.0

    def test_empty_gaps(self):
        s = complement_scores(pd.DataFrame(), pd.DataFrame(), pd.DataFrame())
        assert s["n_gaps"] == 0
        assert np.isnan(s["path_exact"])

    def test_transit_exact_ignores_shop_detours(self):
        gt = _sem(
            "d",
            [
                ("stay", "A", 0, 100),
                ("pass-by", "H", 100, 120),
                ("pass-by", "SHOP", 120, 140),  # unknowable detour
                ("pass-by", "H2", 140, 160),
                ("stay", "B", 160, 300),
            ],
        )
        comp = pd.concat(
            [
                _sem("d", [("stay", "A", 0, 100), ("stay", "B", 160, 300)]),
                _sem(
                    "d",
                    [("pass-by", "H", 100, 130), ("pass-by", "H2", 130, 160)],
                    inferred=True,
                ),
            ]
        )
        gaps = pd.DataFrame(
            [
                {
                    "device_id": "d",
                    "from_region": "A",
                    "to_region": "B",
                    "gap_start": 100.0,
                    "gap_end": 160.0,
                }
            ]
        )
        s = complement_scores(comp, gt, gaps, transit_regions={"H", "H2"})
        assert s["path_exact"] == 0.0  # penalized by the shop detour
        assert s["transit_exact"] == 1.0  # route through halls recovered


class TestHelpers:
    def test_dedup(self):
        assert _dedup(["a", "a", "b", "a"]) == ["a", "b", "a"]
        assert _dedup([]) == []

    def test_hall_regions(self):
        mall = build_mall(n_floors=2, shops_per_side=4, hall_sections=3)
        halls = mall.hall_regions()
        assert halls == {f"R-F{f}-hall{j}" for f in (1, 2) for j in range(3)}
