"""Unit tests for density-based splitting."""
import numpy as np
import pandas as pd
import pytest

from repro.core.splitting import (
    DEFAULT_DENSE_FRAC,
    DEFAULT_EPS_M,
    DEFAULT_MIN_SNIPPET_S,
    DEFAULT_WINDOW_S,
    split_sequence,
)


def _seq(segments):
    """Build a sequence from (n, x_fn, y, floor) movement segments."""
    rows, t, rid = [], 0.0, 0
    for n, x0, dx, y, floor in segments:
        for i in range(n):
            rows.append(["d", rid, t, x0 + dx * i, y, floor])
            rid += 1
            t += 5.0
    return pd.DataFrame(
        rows, columns=["device_id", "record_id", "ts", "x", "y", "floor"]
    )


class TestBasicSplit:
    def test_dwell_walk_dwell(self):
        pdf = _seq(
            [
                (24, 5.0, 0.0, 4.0, 1),  # dwell 120 s
                (8, 5.0, 2.5, 10.0, 1),  # walk 17.5 m
                (24, 25.0, 0.0, 4.0, 1),  # dwell 120 s
            ]
        )
        out = split_sequence(pdf)
        assert out["snippet_id"].nunique() == 3
        # First and last snippets are dense, the middle one is not.
        by = out.groupby("snippet_id")["dense"].first()
        assert list(by) == [True, False, True]

    def test_pure_dwell_single_snippet(self):
        pdf = _seq([(40, 5.0, 0.0, 4.0, 1)])
        out = split_sequence(pdf)
        assert out["snippet_id"].nunique() == 1
        assert out["dense"].all()

    def test_pure_walk_single_snippet(self):
        pdf = _seq([(30, 0.0, 1.5, 10.0, 1)])
        out = split_sequence(pdf)
        assert out["snippet_id"].nunique() == 1
        assert not out["dense"].any()

    def test_snippet_ids_time_ordered_consecutive(self):
        pdf = _seq(
            [(24, 5.0, 0.0, 4.0, 1), (8, 5.0, 2.5, 10.0, 1), (24, 25.0, 0.0, 4.0, 1)]
        )
        out = split_sequence(pdf)
        sids = out.sort_values("ts")["snippet_id"].to_numpy()
        assert (np.diff(sids) >= 0).all()
        assert set(sids) == set(range(sids.max() + 1))

    def test_noise_does_not_fragment_dwell(self):
        rng = np.random.default_rng(0)
        pdf = _seq([(60, 5.0, 0.0, 4.0, 1)])
        pdf["x"] += rng.normal(0, 1.0, len(pdf))
        pdf["y"] += rng.normal(0, 1.0, len(pdf))
        out = split_sequence(pdf)
        assert out["snippet_id"].nunique() <= 2


class TestFloorHandling:
    def test_floor_change_breaks_snippet(self):
        pdf = _seq([(20, 5.0, 0.0, 4.0, 1), (20, 5.0, 0.0, 4.0, 2)])
        out = split_sequence(pdf)
        first = out[out["floor"] == 1]["snippet_id"].unique()
        second = out[out["floor"] == 2]["snippet_id"].unique()
        assert set(first).isdisjoint(set(second))


class TestMerging:
    def test_short_snippet_merged(self):
        # 1-record blip between two dwells at the same spot: merged away.
        pdf = _seq([(24, 5.0, 0.0, 4.0, 1)])
        pdf.loc[12, "x"] = 11.0  # single distant record
        out = split_sequence(pdf, min_snippet_s=15.0)
        assert out["snippet_id"].nunique() <= 2

    def test_empty(self):
        empty = pd.DataFrame(
            columns=["device_id", "record_id", "ts", "x", "y", "floor"]
        )
        out = split_sequence(empty)
        assert len(out) == 0
        assert "snippet_id" in out.columns

    def test_single_record(self):
        pdf = _seq([(1, 5.0, 0.0, 4.0, 1)])
        out = split_sequence(pdf)
        assert out["snippet_id"].tolist() == [0]


class TestParams:
    def test_tight_eps_more_snippets(self):
        rng = np.random.default_rng(1)
        pdf = _seq([(40, 5.0, 0.0, 4.0, 1), (10, 5.0, 2.0, 10.0, 1), (40, 25.0, 0.0, 4.0, 1)])
        pdf["x"] += rng.normal(0, 0.8, len(pdf))
        loose = split_sequence(pdf, eps_m=6.0)["snippet_id"].nunique()
        tight = split_sequence(pdf, eps_m=1.0)["snippet_id"].nunique()
        assert tight >= loose


def _reference_split(
    pdf,
    *,
    eps_m=DEFAULT_EPS_M,
    window_s=DEFAULT_WINDOW_S,
    min_snippet_s=DEFAULT_MIN_SNIPPET_S,
    dense_frac=DEFAULT_DENSE_FRAC,
):
    """The per-record density loop and pandas snippet majority that
    ``split_sequence`` replaced."""
    g = pdf.sort_values("ts").reset_index(drop=True)
    n = len(g)
    x = g["x"].to_numpy(dtype=float)
    y = g["y"].to_numpy(dtype=float)
    ts = g["ts"].to_numpy(dtype=float)
    fl = g["floor"].to_numpy(dtype=int)
    dense = np.zeros(n, dtype=bool)
    lo = np.searchsorted(ts, ts - window_s, side="left")
    hi = np.searchsorted(ts, ts + window_s, side="right")
    for i in range(n):
        sl = slice(lo[i], hi[i])
        same_floor = fl[sl] == fl[i]
        d = np.hypot(x[sl] - x[i], y[sl] - y[i])
        near = (d <= eps_m) & same_floor
        dense[i] = bool(near.mean() >= dense_frac)
    change = np.flatnonzero((dense[1:] != dense[:-1]) | (fl[1:] != fl[:-1])) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])
    durations = ts[ends - 1] - ts[starts]
    target = np.arange(len(starts))
    for s in range(1, len(starts)):
        if durations[s] < min_snippet_s:
            target[s] = target[s - 1]
    merged = np.repeat(target, ends - starts)
    _, merged = np.unique(merged, return_inverse=True)
    out = g.copy()
    out["snippet_id"] = merged.astype("int64")
    out["dense"] = (
        pd.Series(dense).groupby(merged).transform("mean") >= 0.5
    ).to_numpy()
    return out


def _random_sequence(rng, n):
    """Integer-metre positions (so distances land exactly on ``eps_m``),
    dwell/walk phases, floor changes, and dropouts that make the density
    windows uneven."""
    step = np.where(rng.random(n) < 0.1, rng.uniform(40.0, 200.0, n), 5.0)
    ts = np.cumsum(step)
    moving = (np.arange(n) // 15) % 2 == 1
    x = np.cumsum(np.where(moving, rng.integers(-4, 5, n), 0)) + rng.integers(-2, 3, n)
    y = rng.integers(0, 5, n)
    floor = 1 + (np.arange(n) // 40) % 3
    return pd.DataFrame(
        {
            "device_id": "d",
            "record_id": np.arange(n),
            "ts": ts,
            "x": x.astype(float),
            "y": y.astype(float),
            "floor": floor,
        }
    ).sample(frac=1.0, random_state=int(rng.integers(1000)))


class TestAgainstReference:
    """``snippet_id`` and ``dense`` equal the per-record density loop."""

    @pytest.mark.parametrize("eps_m", [3.0, DEFAULT_EPS_M, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 30, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences(self, seed, n, eps_m):
        pdf = _random_sequence(np.random.default_rng(seed), n)
        pd.testing.assert_frame_equal(
            split_sequence(pdf, eps_m=eps_m),
            _reference_split(pdf, eps_m=eps_m),
            check_exact=True,
        )

    def test_distance_exactly_eps_is_near(self):
        # Alternating records 4 m apart: all near at eps 4, none at 3.9.
        pdf = _seq([(20, 0.0, 0.0, 4.0, 1)])
        pdf.loc[1::2, "x"] = 4.0
        assert split_sequence(pdf, eps_m=4.0)["dense"].all()
        assert not split_sequence(pdf, eps_m=3.9)["dense"].any()
        for eps_m in (3.9, 4.0):
            pd.testing.assert_frame_equal(
                split_sequence(pdf, eps_m=eps_m),
                _reference_split(pdf, eps_m=eps_m),
                check_exact=True,
            )
