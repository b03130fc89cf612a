"""Unit tests for the Raw Data Cleaner (driver-side logic)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.cleaning import _majority_floor, clean_sequence, violation_sequence
from repro.dsm import IndoorGraph, build_mall
from repro.positioning import CorruptionConfig, corrupt, simulate_population


@pytest.fixture(scope="module")
def mall():
    return build_mall(n_floors=3, shops_per_side=4)


@pytest.fixture(scope="module")
def graph(mall):
    return IndoorGraph(mall)


def _mk(rows):
    return pd.DataFrame(
        rows, columns=["device_id", "record_id", "ts", "x", "y", "floor"]
    )


class TestMajorityFloor:
    def test_fixes_isolated_flip(self):
        f = np.array([2, 2, 3, 2, 2])
        assert list(_majority_floor(f)) == [2, 2, 2, 2, 2]

    def test_preserves_clean_transition(self):
        f = np.array([1] * 8 + [2] * 8)
        assert list(_majority_floor(f)) == [1] * 8 + [2] * 8

    def test_fixes_flip_at_transition(self):
        # True floors 2,2,2,2,3,3,3,3 with record 4 flipped to 1.
        f = np.array([2, 2, 2, 2, 1, 3, 3, 3, 3, 3])
        out = _majority_floor(f)
        assert out[4] in (2, 3)  # anything but the flipped 1

    def test_keeps_tie_current_value(self):
        f = np.array([1, 1, 2, 2])
        out = _majority_floor(f, half_window=1)
        # Window of index 1 is [1,1,2]: majority 1 — unchanged; index 2
        # window [1,2,2] majority 2 — unchanged.
        assert list(out) == [1, 1, 2, 2]

    def test_empty(self):
        assert len(_majority_floor(np.array([], dtype=int))) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_per_record_loop(self, seed):
        """The window counts equal a per-record ``np.unique`` over each
        window, on noisy staircases with ties and on short arrays."""
        rng = np.random.default_rng(seed)
        for n in (*range(1, 8), 40, 300):
            steps = np.sort(rng.integers(0, n, size=rng.integers(0, 4)))
            floor = np.searchsorted(steps, np.arange(n), side="right") - 1
            flips = rng.random(n) < rng.choice([0.0, 0.1, 0.4])
            floor[flips] = rng.integers(-1, 4, size=int(flips.sum()))
            for half_window in (1, 2, 5):
                got = _majority_floor(floor, half_window)
                want = _majority_floor_loop(floor, half_window)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def _majority_floor_loop(floor: np.ndarray, half_window: int) -> np.ndarray:
    """Reference: the mode of each window by ``np.unique``; ties keep the
    current floor, else the smallest winning floor."""
    n = len(floor)
    out = floor.copy()
    for i in range(n):
        lo, hi = max(0, i - half_window), min(n, i + half_window + 1)
        vals, counts = np.unique(floor[lo:hi], return_counts=True)
        winners = set(vals[counts == counts.max()])
        if floor[i] not in winners:
            out[i] = min(winners)
    return out


class TestCleanSequence:
    def test_clean_data_untouched(self, mall, graph):
        # A legal walk inside one shop: nothing to repair.
        rows = [
            ["d", i, i * 5.0, 3.0 + 0.5 * i, 3.0, 1] for i in range(8)
        ]
        out = clean_sequence(_mk(rows), mall, graph)
        assert (out["repair"] == "none").all()
        assert np.allclose(out["x"], [r[3] for r in rows])

    def test_outlier_interpolated(self, mall, graph):
        # Stationary in shop S1 except one 20 m jump at t=25.
        rows = [["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(10)]
        rows[5][3] = 35.0  # jump within floor 1
        out = clean_sequence(_mk(rows), mall, graph)
        assert out.loc[5, "repair"] == "interp"
        assert abs(out.loc[5, "x"] - 15.0) < 1.0
        assert (out.drop(index=5)["repair"] == "none").all()

    def test_isolated_floor_flip_corrected(self, mall, graph):
        rows = [["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(10)]
        rows[4][5] = 3
        out = clean_sequence(_mk(rows), mall, graph)
        assert out.loc[4, "floor"] == 1
        assert out.loc[4, "repair"] == "floor"

    def test_interpolation_lands_on_indoor_path(self, mall, graph):
        # Walk from shop S1 to shop S2: the middle record is an outlier
        # and must be re-placed near the legal door route, not on the
        # straight line through the wall.
        rows = [
            ["d", 0, 0.0, 15.0, 4.0, 1],
            ["d", 1, 5.0, 15.0, 7.0, 1],
            ["d", 2, 10.0, 0.5, 21.0, 1],  # outlier: >15 m in 5 s
            ["d", 3, 15.0, 25.0, 7.0, 1],
            ["d", 4, 20.0, 25.0, 4.0, 1],
        ]
        out = clean_sequence(_mk(rows), mall, graph)
        assert out.loc[2, "repair"] == "interp"
        # Must lie within the corridor or one of the two shops' span.
        ent = mall.locate_entity(out.loc[2, "x"], out.loc[2, "y"], int(out.loc[2, "floor"]))
        assert ent in ("F1-S1", "F1-S2", "F1-hall1")

    def test_trailing_outliers_clamped_to_last_valid(self, mall, graph):
        rows = [["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(6)]
        rows[5][3] = 38.0
        rows[5][4] = 20.0
        out = clean_sequence(_mk(rows), mall, graph)
        assert out.loc[5, "repair"] == "interp"
        assert out.loc[5, "x"] == pytest.approx(15.0)
        assert out.loc[5, "y"] == pytest.approx(4.0)

    def test_leading_outlier_does_not_poison_scan(self, mall, graph):
        rows = [["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(8)]
        rows[0][3] = 38.0
        rows[0][4] = 20.0
        out = clean_sequence(_mk(rows), mall, graph)
        assert out.loc[0, "repair"] == "interp"
        assert (out.loc[1:, "repair"] == "none").all()

    def test_empty_sequence(self, mall, graph):
        out = clean_sequence(_mk([]), mall, graph)
        assert len(out) == 0

    def test_single_record(self, mall, graph):
        out = clean_sequence(_mk([["d", 0, 0.0, 15.0, 4.0, 1]]), mall, graph)
        assert len(out) == 1
        assert out.loc[0, "repair"] == "none"

    def test_output_sorted_by_ts(self, mall, graph):
        rows = [["d", i, (7 - i) * 5.0, 15.0, 4.0, 1] for i in range(8)]
        out = clean_sequence(_mk(rows), mall, graph)
        assert (np.diff(out["ts"]) > 0).all()


class TestLocateOnce:
    """Each kernel resolves one device's records in the DSM in one call,
    in-wall records included."""

    @pytest.mark.parametrize("kernel", [clean_sequence, violation_sequence])
    def test_one_locate_call_per_device(self, mall, graph, monkeypatch, kernel):
        gt, _ = simulate_population(mall, n_devices=1, duration_s=1800, period_s=5.0, seed=3)
        cfg = CorruptionConfig(sigma_xy=3.0, p_outlier=0.05, seed=4)
        pdf = corrupt(gt, cfg, n_floors=3)
        in_wall = mall.locate_entities(pdf["x"], pdf["y"], pdf["floor"]).count(None)
        assert in_wall > 10
        calls = []
        locate = mall.locate_entities

        def counting(*args):
            calls.append(1)
            return locate(*args)

        monkeypatch.setattr(mall, "locate_entities", counting)
        out = kernel(pdf, mall, graph)
        assert len(out) > 0
        assert len(calls) == 1


class TestCleaningQuality:
    """End-to-end quality on simulated data: cleaning must reduce both
    the planar error and the floor error rate (the T2 claim)."""

    @pytest.fixture(scope="class")
    def cleaned_vs_raw(self, mall, graph):
        gt, _ = simulate_population(
            mall, n_devices=4, duration_s=3600, period_s=5.0, seed=3
        )
        raw = corrupt(gt, CorruptionConfig(seed=4), n_floors=3)
        cleaned = pd.concat(
            [
                clean_sequence(g, mall, graph)
                for _, g in raw.groupby("device_id")
            ],
            ignore_index=True,
        )
        mr = raw.merge(gt, on=["device_id", "record_id"], suffixes=("", "_g"))
        mc = cleaned.merge(gt, on=["device_id", "record_id"], suffixes=("", "_g"))
        return mr, mc

    def test_floor_error_reduced(self, cleaned_vs_raw):
        mr, mc = cleaned_vs_raw
        before = (mr["floor"] != mr["floor_g"]).mean()
        after = (mc["floor"] != mc["floor_g"]).mean()
        assert after < before / 2

    def test_planar_error_reduced(self, cleaned_vs_raw):
        mr, mc = cleaned_vs_raw
        before = np.hypot(mr["x"] - mr["x_g"], mr["y"] - mr["y_g"]).mean()
        after = np.hypot(mc["x"] - mc["x_g"], mc["y"] - mc["y_g"]).mean()
        assert after < before

    def test_no_records_lost(self, cleaned_vs_raw):
        mr, mc = cleaned_vs_raw
        assert len(mc) == len(mr)
