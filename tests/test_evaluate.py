"""Unit tests for the evaluation metrics (driver-side parts)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import (
    _dedup,
    _is_subsequence,
    complement_scores,
    match_semantics,
    semantics_scores,
)
from repro.dsm import build_mall


_COLUMNS = [
    "device_id", "seq", "event", "region_id", "tag", "t_start", "t_end", "n_records", "inferred"
]


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
        ],
        columns=_COLUMNS,
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


# ----------------------------------------------------------------------
# The per-device array implementations against the row-by-row originals
# ----------------------------------------------------------------------
def _reference_match(pred, gt):
    """``match_semantics`` as a loop over gt rows (one overlap vector per
    row), the implementation the per-device overlap matrix replaced."""
    out = []
    for dev, gt_dev in gt.groupby("device_id"):
        p_dev = pred[pred["device_id"] == dev]
        p0 = p_dev["t_start"].to_numpy(dtype=float)
        p1 = p_dev["t_end"].to_numpy(dtype=float)
        for _, g in gt_dev.iterrows():
            if len(p_dev):
                ov = np.minimum(p1, g["t_end"]) - np.maximum(p0, g["t_start"])
                j = int(np.argmax(ov))
                best = ov[j]
            else:
                best = -1.0
            row = {
                "device_id": dev,
                "gt_event": g["event"],
                "gt_region": g["region_id"],
                "gt_t_start": g["t_start"],
                "gt_t_end": g["t_end"],
            }
            if best > 0:
                m = p_dev.iloc[j]
                row.update(
                    pred_event=m["event"], pred_region=m["region_id"], overlap=best
                )
            else:
                row.update(pred_event=None, pred_region=None, overlap=0.0)
            out.append(row)
    return pd.DataFrame(out)


def _reference_complement_scores(complemented, gt_sem, gaps, *, transit_regions=None):
    """``complement_scores`` filtering the whole frames once per gap, the
    implementation the per-device split replaced (empty-gaps case
    omitted)."""
    exact, jac, transit, recovered = [], [], [], []
    for _, gap in gaps.iterrows():
        dev = gap["device_id"]
        lo, hi = float(gap["gap_start"]), float(gap["gap_end"])
        inf = complemented[
            (complemented["device_id"] == dev)
            & complemented["inferred"]
            & (complemented["t_start"] >= lo - 1e-6)
            & (complemented["t_end"] <= hi + 1e-6)
        ].sort_values("t_start")
        gt_in = gt_sem[
            (gt_sem["device_id"] == dev)
            & (gt_sem["t_end"] > lo)
            & (gt_sem["t_start"] < hi)
        ].sort_values("t_start")
        gt_regions = [
            r
            for r in gt_in["region_id"]
            if r not in (gap["from_region"], gap["to_region"])
        ]
        inf_regions = list(inf["region_id"])
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


_REGIONS = ["A", "B", "H", "H2", None]


def _random_sem(rng, devices, n_max, inferred=False):
    """Intervals on a 5 s grid over few regions, so that tied overlaps,
    touching and zero-length intervals are common; rows shuffled."""
    rows = [
        (
            dev,
            ("stay", "pass-by")[rng.integers(2)],
            _REGIONS[rng.integers(len(_REGIONS))],
            t0,
            t0 + 5.0 * int(rng.integers(0, 6)),
        )
        for dev in devices
        for t0 in 5.0 * rng.integers(0, 40, size=int(rng.integers(0, n_max + 1)))
    ]
    sem = pd.concat(
        [_sem(dev, [(ev, rid, t0, t1)], inferred) for dev, ev, rid, t0, t1 in rows]
        or [_sem("d", [])]
    )
    return sem.sample(frac=1.0, random_state=int(rng.integers(2**31)))


def _same_scores(got, want):
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert (np.isnan(v) and np.isnan(got[k])) or got[k] == v, k


class TestMatchAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_frames(self, seed):
        """d0 has no predictions, d3 no ground truth; frames unsorted."""
        rng = np.random.default_rng(seed)
        gt = _random_sem(rng, ["d0", "d1", "d2"], 8)
        pred = _random_sem(rng, ["d1", "d2", "d3"], 8)
        for a, b in ((pred, gt), (gt, pred)):
            pd.testing.assert_frame_equal(
                match_semantics(a, b), _reference_match(a, b), check_exact=True
            )

    def test_tie_goes_to_first_in_frame_order(self):
        gt = _sem("d", [("stay", "A", 0, 100)])
        pred = _sem("d", [("pass-by", "H", 0, 50), ("stay", "A", 50, 100)])
        for p, event in ((pred, "pass-by"), (pred.iloc[::-1], "stay")):
            m = match_semantics(p, gt)
            assert m.iloc[0]["pred_event"] == event
            pd.testing.assert_frame_equal(m, _reference_match(p, gt), check_exact=True)

    def test_touching_intervals_do_not_match(self):
        gt = _sem("d", [("stay", "A", 0, 100), ("stay", "B", 200, 300)])
        pred = _sem("d", [("stay", "A", 100, 200)])
        m = match_semantics(pred, gt)
        assert m["pred_event"].isna().all() and (m["overlap"] == 0.0).all()
        pd.testing.assert_frame_equal(m, _reference_match(pred, gt), check_exact=True)

    def test_gt_device_without_predictions(self):
        gt = pd.concat(
            [_sem("e", [("stay", "B", 0, 50)]), _sem("d", [("stay", "A", 0, 100)])]
        )
        pred = _sem("d", [("stay", "A", 0, 100)])
        m = match_semantics(pred, gt)
        assert list(m["device_id"]) == ["d", "e"]
        assert list(m["pred_event"]) == ["stay", None]
        pd.testing.assert_frame_equal(m, _reference_match(pred, gt), check_exact=True)

    def test_empty_ground_truth(self):
        """The row loop gave a frame without columns here; the array
        version keeps its 8 columns, so callers can still select them."""
        gt = _sem("d", [])
        pred = _sem("d", [("stay", "A", 0, 100)])
        m = match_semantics(pred, gt)
        assert _reference_match(pred, gt).empty
        assert list(m.columns) == [
            "device_id", "gt_event", "gt_region", "gt_t_start", "gt_t_end",
            "pred_event", "pred_region", "overlap",
        ]
        assert len(m) == 0
        assert m["overlap"].dtype == np.float64
        assert m["pred_event"].dtype == object

    def test_empty_predictions_score_zero(self):
        gt = _sem("d", [("stay", "A", 0, 100), ("pass-by", "H", 110, 130)])
        s = semantics_scores(_sem("d", []), gt)
        assert s["macro_f1"] == 0.0
        assert s["stay_f1"] == 0.0 and s["pass-by_f1"] == 0.0
        assert s["stay_recall"] == 0.0


class TestComplementScoresAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_gaps(self, seed):
        """Several devices (d3 has gaps but no rows at all); inferred rows
        start and end on, just inside and just outside the +-1e-6 bounds."""
        rng = np.random.default_rng(seed)
        gt = _random_sem(rng, ["d0", "d1", "d2"], 12)
        gaps, inferred = [], []
        for dev in ("d0", "d1", "d2", "d3"):
            for _ in range(int(rng.integers(dev == "d0", 4))):
                lo = 5.0 * int(rng.integers(0, 30))
                hi = lo + 5.0 * int(rng.integers(1, 8))
                gaps.append((dev, _REGIONS[rng.integers(5)], _REGIONS[rng.integers(5)], lo, hi))
                if dev == "d3":
                    continue
                for _ in range(int(rng.integers(0, 5))):
                    t0 = lo + (-2e-6, -1e-6, 0.0, 5.0)[rng.integers(4)]
                    t1 = hi + (2e-6, 1e-6, 0.0, -5.0)[rng.integers(4)]
                    ev_rid = ("pass-by", _REGIONS[rng.integers(5)])
                    inferred.append(_sem(dev, [(*ev_rid, t0, max(t0, t1))], True))
        gaps = pd.DataFrame(
            gaps, columns=["device_id", "from_region", "to_region", "gap_start", "gap_end"]
        )
        comp = pd.concat([_random_sem(rng, ["d0", "d1", "d2"], 6), *inferred])
        comp = comp.sample(frac=1.0, random_state=seed)
        for transit in (None, {"H", "H2"}):
            _same_scores(
                complement_scores(comp, gt, gaps, transit_regions=transit),
                _reference_complement_scores(comp, gt, gaps, transit_regions=transit),
            )
