"""Smoke tests of the experiment harnesses at tiny scale (the full
tables run under benchmarks/)."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import _mask_transits, table2, table5


class TestMaskTransits:
    def _sem(self, rows):
        return pd.DataFrame(
            [
                {
                    "device_id": "d",
                    "seq": i,
                    "event": ev,
                    "region_id": rid,
                    "tag": None,
                    "t_start": t0,
                    "t_end": t1,
                    "n_records": 1,
                    "inferred": False,
                }
                for i, (ev, rid, t0, t1) in enumerate(rows)
            ]
        )

    def test_hall_interior_masked(self):
        sem = self._sem(
            [
                ("stay", "A", 0, 100),
                ("pass-by", "H1", 105, 125),
                ("stay", "B", 130, 300),
            ]
        )
        masked, gaps = _mask_transits(sem, {"H1"})
        assert len(masked) == 2
        assert len(gaps) == 1
        g = gaps.iloc[0]
        assert (g["from_region"], g["to_region"]) == ("A", "B")
        assert (g["gap_start"], g["gap_end"]) == (100, 130)

    def test_shop_interior_not_masked(self):
        sem = self._sem(
            [
                ("stay", "A", 0, 100),
                ("pass-by", "S", 105, 125),  # a shop, not a hall
                ("stay", "B", 130, 300),
            ]
        )
        masked, gaps = _mask_transits(sem, {"H1"})
        assert len(masked) == 3
        assert len(gaps) == 0

    def test_short_transits_skipped(self):
        sem = self._sem(
            [
                ("stay", "A", 0, 100),
                ("pass-by", "H1", 102, 106),
                ("stay", "B", 108, 300),  # only 8 s between anchors
            ]
        )
        _, gaps = _mask_transits(sem, {"H1"})
        assert len(gaps) == 0

    def test_long_interiors_skipped(self):
        rows = [("stay", "A", 0, 100)]
        t = 105
        for i in range(6):
            rows.append(("pass-by", f"H{i}", t, t + 10))
            t += 15
        rows.append(("stay", "B", t, t + 100))
        _, gaps = _mask_transits(self._sem(rows), {f"H{i}" for i in range(6)})
        assert len(gaps) == 0


def _reference_mask_transits(sem, halls, max_interior=4):
    """``_mask_transits`` walking each device's anchor pairs row by row,
    the implementation the array version replaced."""
    masked_parts, gaps = [], []
    for dev, g in sem.groupby("device_id"):
        g = g.sort_values("seq").reset_index(drop=True)
        drop: set[int] = set()
        anchors = [i for i in range(len(g)) if g.loc[i, "region_id"] not in halls]
        for a, b in zip(anchors, anchors[1:]):
            interior = list(range(a + 1, b))
            if not interior or len(interior) > max_interior:
                continue
            if not all(g.loc[i, "region_id"] in halls for i in interior):
                continue
            if any(i in drop for i in interior):
                continue
            if g.loc[b, "t_start"] - g.loc[a, "t_end"] < 15.0:
                continue
            drop.update(interior)
            gaps.append(
                {
                    "device_id": dev,
                    "from_region": g.loc[a, "region_id"],
                    "to_region": g.loc[b, "region_id"],
                    "gap_start": g.loc[a, "t_end"],
                    "gap_end": g.loc[b, "t_start"],
                }
            )
        masked_parts.append(g.drop(index=list(drop)))
    return (
        pd.concat(masked_parts, ignore_index=True),
        pd.DataFrame(gaps, columns=["device_id", "from_region", "to_region", "gap_start", "gap_end"]),
    )


class TestMaskTransitsAgainstReference:
    HALLS = {"H1", "H2", "H3"}

    def _random_sem(self, rng, devices):
        """Per device, anchors (shops or None regions) separated by hall
        runs of 0-6 rows; times on a 5 s grid, so anchor spans of exactly
        15 s are common. Rows are shuffled across devices."""
        rows = []
        for dev in devices:
            t, seq = 0.0, 0
            for _ in range(int(rng.integers(1, 12))):
                anchor = ("S1", "S2", None)[rng.integers(3)]
                kinds = [anchor] + [
                    f"H{rng.integers(1, 4)}" for _ in range(int(rng.integers(0, 7)))
                ]
                for rid in kinds:
                    dur = 5.0 * int(rng.integers(0, 3))
                    rows.append((dev, seq, "pass-by", rid, None, t, t + dur, 1, False))
                    t += dur + 5.0 * int(rng.integers(0, 3))
                    seq += 1
        sem = pd.DataFrame(
            rows,
            columns=[
                "device_id", "seq", "event", "region_id", "tag",
                "t_start", "t_end", "n_records", "inferred",
            ],
        )
        return sem.sample(frac=1.0, random_state=int(rng.integers(2**31)))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        sem = self._random_sem(rng, ["d2", "d0", "d1"])
        for max_interior in (1, 4):
            got = _mask_transits(sem, self.HALLS, max_interior)
            want = _reference_mask_transits(sem, self.HALLS, max_interior)
            for g, w in zip(got, want):
                pd.testing.assert_frame_equal(g, w, check_exact=True)

    def test_span_of_exactly_15_s_is_masked(self):
        sem = TestMaskTransits()._sem(
            [("stay", "A", 0, 100), ("pass-by", "H1", 105, 110), ("stay", "B", 115, 200)]
        )
        masked, gaps = _mask_transits(sem, {"H1"})
        assert len(masked) == 2 and len(gaps) == 1
        want = _reference_mask_transits(sem, {"H1"})
        pd.testing.assert_frame_equal(masked, want[0], check_exact=True)
        pd.testing.assert_frame_equal(gaps, want[1], check_exact=True)

    def test_no_gaps_anywhere(self):
        sem = TestMaskTransits()._sem([("stay", "A", 0, 100), ("stay", "B", 105, 200)])
        for g, w in zip(_mask_transits(sem, {"H1"}), _reference_mask_transits(sem, {"H1"})):
            pd.testing.assert_frame_equal(g, w, check_exact=True)

    def test_empty_semantics(self):
        sem = TestMaskTransits()._sem([("stay", "A", 0, 100)]).iloc[:0]
        masked, gaps = _mask_transits(sem, {"H1"})
        assert masked.empty and list(masked.columns) == list(sem.columns)
        assert list(masked.dtypes) == list(sem.dtypes)
        assert gaps.empty and list(gaps.columns) == [
            "device_id", "from_region", "to_region", "gap_start", "gap_end"
        ]


class TestHarnessesSmoke:
    def test_table2_tiny(self, spark):
        out = table2(spark, sf=0.01, sigmas=(1.0,))
        assert len(out) == 1
        r = out.iloc[0]
        assert r["mean_err_clean"] <= r["mean_err_raw"]
        assert r["violations_clean"] < r["violations_raw"]

    def test_table5_tiny(self, spark):
        out = table5(spark, sfs=(0.01,))
        assert len(out) == 1
        assert out.iloc[0]["condensation"] > 5
        assert out.iloc[0]["n_records"] > 0
