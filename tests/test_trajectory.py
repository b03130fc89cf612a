"""Unit tests for the ground-truth trajectory simulator."""
import numpy as np
import pandas as pd
import pytest

from repro.dsm import IndoorGraph, build_mall
from repro.positioning import (
    RECORD_COLUMNS,
    SEMANTIC_COLUMNS,
    ground_truth_semantics,
    simulate_device,
    simulate_population,
)


@pytest.fixture(scope="module")
def mall():
    return build_mall(n_floors=3, shops_per_side=4)


@pytest.fixture(scope="module")
def graph(mall):
    return IndoorGraph(mall)


@pytest.fixture(scope="module")
def one_device(mall, graph):
    rng = np.random.default_rng(11)
    return simulate_device(
        mall, graph, "dev-1", rng=rng, duration_s=1800.0, period_s=5.0
    )


class TestRecords:
    def test_schema(self, one_device):
        rec, _ = one_device
        assert list(rec.columns) == RECORD_COLUMNS

    def test_sampling_grid(self, one_device):
        rec, _ = one_device
        assert len(rec) == 360  # 1800 / 5
        assert (np.diff(rec["ts"]) == 5.0).all()

    def test_every_record_inside_an_entity(self, mall, one_device):
        rec, _ = one_device
        located = mall.locate_entities(
            rec["x"].to_numpy(), rec["y"].to_numpy(), rec["floor"].to_numpy()
        )
        assert all(e is not None for e in located)

    def test_speed_constraint_respected(self, graph, one_device):
        """Ground truth must respect the indoor walking-speed bound the
        Cleaner later enforces (with slack for sampling jitter)."""
        rec, _ = one_device
        x, y = rec["x"].to_numpy(), rec["y"].to_numpy()
        fl, ts = rec["floor"].to_numpy(), rec["ts"].to_numpy()
        for i in range(0, len(rec) - 1, 7):
            d = graph.distance((x[i], y[i], fl[i]), (x[i + 1], y[i + 1], fl[i + 1]))
            assert d / (ts[i + 1] - ts[i]) <= 3.0, i

    def test_floor_changes_are_unit_steps(self, one_device):
        rec, _ = one_device
        assert set(np.abs(np.diff(rec["floor"].to_numpy()))) <= {0, 1}

    def test_deterministic_in_seed(self, mall, graph):
        a = simulate_device(
            mall, graph, "d", rng=np.random.default_rng(5), duration_s=600, period_s=5.0
        )[0]
        b = simulate_device(
            mall, graph, "d", rng=np.random.default_rng(5), duration_s=600, period_s=5.0
        )[0]
        pd.testing.assert_frame_equal(a, b)


class TestSemantics:
    def test_schema(self, one_device):
        _, sem = one_device
        assert list(sem.columns) == SEMANTIC_COLUMNS

    def test_events_are_stay_or_passby(self, one_device):
        _, sem = one_device
        assert set(sem["event"]) <= {"stay", "pass-by"}

    def test_intervals_ordered_and_disjoint(self, one_device):
        _, sem = one_device
        s = sem.sort_values("seq")
        assert (s["t_end"] >= s["t_start"]).all()
        assert (s["t_start"].to_numpy()[1:] > s["t_end"].to_numpy()[:-1]).all()

    def test_no_consecutive_same_region(self, one_device):
        _, sem = one_device
        r = sem.sort_values("seq")["region_id"].to_numpy()
        assert (r[1:] != r[:-1]).all()

    def test_stays_only_in_shops_and_long(self, mall, one_device):
        _, sem = one_device
        stays = sem[sem["event"] == "stay"]
        assert len(stays) > 0
        for _, s in stays.iterrows():
            assert not s["region_id"].endswith(tuple(f"hall{j}" for j in range(3)))
            assert s["t_end"] - s["t_start"] + 5.0 >= 60.0

    def test_hall_intervals_are_passby(self, one_device):
        _, sem = one_device
        halls = sem[sem["region_id"].str.contains("hall")]
        assert (halls["event"] == "pass-by").all()

    def test_rle_from_records_matches_regions(self, mall, one_device):
        rec, sem = one_device
        again = ground_truth_semantics(mall, rec, period_s=5.0)
        pd.testing.assert_frame_equal(sem, again)


class TestPopulation:
    def test_population_shapes(self, mall):
        rec, sem = simulate_population(
            mall, n_devices=3, duration_s=600, period_s=5.0, seed=0
        )
        assert rec["device_id"].nunique() == 3
        assert sem["device_id"].nunique() == 3
        assert len(rec) == 3 * 120

    def test_device_ids_look_like_macs(self, mall):
        rec, _ = simulate_population(
            mall, n_devices=2, duration_s=300, period_s=5.0, seed=0
        )
        for dev in rec["device_id"].unique():
            parts = dev.split(".")
            assert len(parts) == 3

    def test_devices_differ(self, mall):
        rec, _ = simulate_population(
            mall, n_devices=2, duration_s=600, period_s=5.0, seed=0
        )
        a, b = [g for _, g in rec.groupby("device_id")]
        assert not np.allclose(a["x"].to_numpy(), b["x"].to_numpy())


def _reference_ground_truth_semantics(dsm, records, *, period_s, stay_threshold_s=60.0):
    """``ground_truth_semantics`` as three Python passes over the records
    (runs, flicker absorption, re-merge), the implementation the
    ``label_runs`` version replaced."""
    region_ids = dsm.locate_regions(
        records["x"].to_numpy(), records["y"].to_numpy(), records["floor"].to_numpy()
    )
    ts = records["ts"].to_numpy()
    device = records["device_id"].iloc[0] if len(records) else None
    runs: list[list] = []
    for i in range(len(records)):
        rid = region_ids[i]
        if rid is None:
            continue
        if runs and runs[-1][0] == rid:
            runs[-1][2] = ts[i]
            runs[-1][3] += 1
        else:
            runs.append([rid, ts[i], ts[i], 1])
    merged: list[list] = []
    for run in runs:
        if run[3] == 1 and merged:
            merged[-1][2] = max(merged[-1][2], run[2])
        else:
            merged.append(run)
    final: list[list] = []
    for run in merged:
        if final and final[-1][0] == run[0]:
            final[-1][2] = run[2]
            final[-1][3] += run[3]
        else:
            final.append(run)
    halls = dsm.hall_regions()
    rows = []
    for seq, (rid, t0, t1, _n) in enumerate(final):
        dur = t1 - t0 + period_s
        is_stay = rid not in halls and dur >= stay_threshold_s
        rows.append(
            {
                "device_id": device,
                "seq": seq,
                "event": "stay" if is_stay else "pass-by",
                "region_id": rid,
                "t_start": float(t0),
                "t_end": float(t1),
            }
        )
    return pd.DataFrame(rows, columns=SEMANTIC_COLUMNS)


class _StubDSM:
    """Locates record ``i`` (its ``x``) in ``regions[i]``."""

    def __init__(self, regions):
        self.regions = regions

    def locate_regions(self, xs, ys, floors):
        return [self.regions[int(i)] for i in xs]

    def hall_regions(self):
        return {"H"}


def _records(n):
    return pd.DataFrame(
        {
            "device_id": "dev",
            "record_id": np.arange(n),
            "ts": 5.0 * np.arange(n),
            "x": np.arange(n, dtype=float),
            "y": 0.0,
            "floor": 1,
        }
    )


class TestGroundTruthAgainstReference:
    @pytest.mark.parametrize(
        "regions",
        [
            [],
            [None, None],
            ["A"],
            ["A", "B", "B", "B"],  # a first run of one sample is kept
            [None, "A", None, "A", "A", None],  # None records drop out
            ["A"] * 15 + ["B"] + ["A"] * 3,  # A-flicker-A re-merges
            ["A"] * 4 + ["B", "H", "C"] + ["H"] * 3,  # consecutive flickers
            ["H", "H", "B", "H", "H", "B", "B"],
        ],
    )
    def test_cases(self, regions):
        dsm, rec = _StubDSM(regions), _records(len(regions))
        pd.testing.assert_frame_equal(
            ground_truth_semantics(dsm, rec, period_s=5.0),
            _reference_ground_truth_semantics(dsm, rec, period_s=5.0),
            check_exact=True,
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_random_sequences(self, seed):
        """Runs of 1-14 samples over few regions and None, so that
        flickers, re-merges and stays of exactly the threshold occur."""
        rng = np.random.default_rng(seed)
        regions = [
            r
            for _ in range(int(rng.integers(1, 25)))
            for r in [("A", "B", "H", None)[rng.integers(4)]] * int(rng.integers(1, 15))
        ]
        dsm, rec = _StubDSM(regions), _records(len(regions))
        for threshold in (60.0, 20.0):
            pd.testing.assert_frame_equal(
                ground_truth_semantics(dsm, rec, period_s=5.0, stay_threshold_s=threshold),
                _reference_ground_truth_semantics(
                    dsm, rec, period_s=5.0, stay_threshold_s=threshold
                ),
                check_exact=True,
            )
