"""Unit tests for snippet feature extraction."""
import numpy as np
import pandas as pd
import pytest

from repro.core.features import (
    FEATURE_NAMES,
    feature_matrix,
    features_frame,
    segment_features,
)


def _frame(xs, ys, floors=None, period=5.0):
    n = len(xs)
    return pd.DataFrame(
        {
            "ts": np.arange(n) * period,
            "x": xs,
            "y": ys,
            "floor": floors if floors is not None else [1] * n,
        }
    )


def _seg(xs, ys, floors=None, period=5.0):
    """``segment_features`` arguments for a time-ordered segment."""
    f = _frame(xs, ys, floors, period)
    return (
        f["ts"].to_numpy(dtype=float),
        f["x"].to_numpy(dtype=float),
        f["y"].to_numpy(dtype=float),
        f["floor"].to_numpy(),
    )


def _reference_features(seg: pd.DataFrame) -> dict[str, float]:
    """The frame-based feature extraction that ``segment_features``
    replaced: sorts the segment itself, then computes every feature."""
    seg = seg.sort_values("ts")
    x = seg["x"].to_numpy(dtype=float)
    y = seg["y"].to_numpy(dtype=float)
    ts = seg["ts"].to_numpy(dtype=float)
    floor = seg["floor"].to_numpy()
    n = len(seg)
    duration = float(ts[-1] - ts[0]) if n > 1 else 0.0
    if n > 1:
        dx, dy, dt = np.diff(x), np.diff(y), np.diff(ts)
        step = np.hypot(dx, dy)
        travel = float(step.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            speeds = np.where(dt > 0, step / dt, 0.0)
        max_speed = float(speeds.max()) if len(speeds) else 0.0
    else:
        travel, max_speed = 0.0, 0.0
    mean_speed = travel / duration if duration > 0 else 0.0
    var = float(np.var(x) + np.var(y))
    cov_range = float(np.hypot(x.max() - x.min(), y.max() - y.min())) if n else 0.0
    gyration = (
        float(np.sqrt(np.mean((x - x.mean()) ** 2 + (y - y.mean()) ** 2))) if n else 0.0
    )
    n_turns = 0
    if n > 2:
        sig = step >= 0.5
        hx, hy = dx[sig], dy[sig]
        if len(hx) > 1:
            heading = np.arctan2(hy, hx)
            dh = np.abs(np.diff(heading))
            dh = np.minimum(dh, 2 * np.pi - dh)
            n_turns = int(np.sum(dh > np.deg2rad(45.0)))
    floor_changes = int(np.sum(np.diff(floor.astype(int)) != 0)) if n > 1 else 0
    return {
        "n_points": float(n),
        "duration_s": duration,
        "loc_variance": var,
        "travel_dist": travel,
        "mean_speed": mean_speed,
        "max_step_speed": max_speed,
        "covering_range": cov_range,
        "n_turns": float(n_turns),
        "radius_gyration": gyration,
        "floor_changes": float(floor_changes),
    }


def _random_segment(rng, n):
    """A time-ordered segment with repeated timestamps and positions
    (zero-length steps and zero-duration steps) and floor changes."""
    ts = np.cumsum(rng.choice([0.0, 1.0, 5.0, 12.5], n))
    x = rng.normal(10.0, 4.0, n).round(1)
    y = rng.normal(5.0, 4.0, n).round(1)
    still = rng.random(n) < 0.3
    still[0] = False
    for i in np.flatnonzero(still):
        x[i], y[i] = x[i - 1], y[i - 1]
    floor = rng.choice([1, 1, 1, 2], n)
    return pd.DataFrame({"ts": ts, "x": x, "y": y, "floor": floor})


class TestStationary:
    def test_point_dwell(self):
        f = segment_features(*_seg([5.0] * 10, [4.0] * 10))
        assert f["n_points"] == 10
        assert f["duration_s"] == 45.0
        assert f["travel_dist"] == 0.0
        assert f["mean_speed"] == 0.0
        assert f["loc_variance"] == 0.0
        assert f["covering_range"] == 0.0
        assert f["n_turns"] == 0
        assert f["floor_changes"] == 0

    def test_single_record(self):
        f = segment_features(*_seg([5.0], [4.0]))
        assert f["n_points"] == 1
        assert f["duration_s"] == 0.0
        assert f["max_step_speed"] == 0.0


class TestWalk:
    def test_straight_walk(self):
        f = segment_features(*_seg(np.arange(10) * 5.0, [0.0] * 10))
        assert f["travel_dist"] == pytest.approx(45.0)
        assert f["mean_speed"] == pytest.approx(1.0)
        assert f["max_step_speed"] == pytest.approx(1.0)
        assert f["n_turns"] == 0
        assert f["covering_range"] == pytest.approx(45.0)

    def test_l_walk_has_one_turn(self):
        xs = [0, 5, 10, 10, 10]
        ys = [0, 0, 0, 5, 10]
        f = segment_features(*_seg(xs, ys))
        assert f["n_turns"] == 1

    def test_zigzag_many_turns(self):
        xs = [0, 5, 10, 15, 20, 25]
        ys = [0, 5, 0, 5, 0, 5]
        f = segment_features(*_seg(xs, ys))
        assert f["n_turns"] == 4

    def test_jitter_steps_ignored_for_turns(self):
        # Sub-half-metre steps must not generate phantom turns.
        rng = np.random.default_rng(0)
        xs = 5.0 + rng.normal(0, 0.1, 30)
        ys = 4.0 + rng.normal(0, 0.1, 30)
        f = segment_features(*_seg(xs, ys))
        assert f["n_turns"] == 0

    def test_floor_changes_counted(self):
        f = segment_features(*_seg([1.0] * 6, [11.0] * 6, floors=[1, 1, 2, 2, 3, 3]))
        assert f["floor_changes"] == 2


class TestVariance:
    def test_variance_scales(self):
        rng = np.random.default_rng(1)
        small = segment_features(
            *_seg(5 + rng.normal(0, 0.5, 50), 4 + rng.normal(0, 0.5, 50))
        )
        large = segment_features(
            *_seg(5 + rng.normal(0, 3.0, 50), 4 + rng.normal(0, 3.0, 50))
        )
        assert large["loc_variance"] > small["loc_variance"]
        assert large["radius_gyration"] > small["radius_gyration"]

    def test_unsorted_input_sorted_internally(self):
        seg = _frame(np.arange(10) * 2.0, [0.0] * 10).assign(segment_id=0, label="a")
        shuffled = seg.sample(frac=1.0, random_state=0)
        pd.testing.assert_frame_equal(
            features_frame(shuffled), features_frame(seg), check_exact=True
        )


class TestFrames:
    def test_features_frame_groups(self):
        seg = pd.concat(
            [
                _frame([5.0] * 10, [4.0] * 10).assign(segment_id=0, label="stay"),
                _frame(np.arange(10) * 5.0, [0.0] * 10).assign(
                    segment_id=1, label="pass-by"
                ),
            ]
        )
        out = features_frame(seg)
        assert len(out) == 2
        assert list(out.columns) == ["segment_id"] + FEATURE_NAMES + ["label"]
        assert out.loc[0, "label"] == "stay"
        assert out.loc[1, "travel_dist"] == pytest.approx(45.0)

    def test_feature_matrix_shape_and_order(self):
        seg = _frame([5.0] * 10, [4.0] * 10).assign(segment_id=0, label="stay")
        out = features_frame(seg)
        m = feature_matrix(out)
        assert m.shape == (1, len(FEATURE_NAMES))
        assert m[0, FEATURE_NAMES.index("n_points")] == 10


class TestAgainstReference:
    """The array features equal the frame-based reference exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_segments(self, n, seed):
        seg = _random_segment(np.random.default_rng(seed), n)
        got = segment_features(
            seg["ts"].to_numpy(dtype=float),
            seg["x"].to_numpy(dtype=float),
            seg["y"].to_numpy(dtype=float),
            seg["floor"].to_numpy(),
        )
        assert got == _reference_features(seg)

    def test_features_frame_matches_grouped_reference(self):
        rng = np.random.default_rng(7)
        parts = [
            _random_segment(rng, n).assign(segment_id=sid, label=f"l{sid % 2}")
            for sid, n in zip([3, 0, 2, 1], [1, 2, 25, 9])
        ]
        segments = pd.concat(parts).sample(frac=1.0, random_state=1)
        out = features_frame(segments)
        assert list(out["segment_id"]) == [0, 1, 2, 3]
        assert list(out.columns) == ["segment_id"] + FEATURE_NAMES + ["label"]
        for _, row in out.iterrows():
            grp = segments[segments["segment_id"] == row["segment_id"]]
            want = _reference_features(grp)
            assert {k: row[k] for k in FEATURE_NAMES} == want
            assert row["label"] == grp["label"].iloc[0]

    def test_empty_segments(self):
        empty = pd.DataFrame(columns=["segment_id", "label", "ts", "x", "y", "floor"])
        out = features_frame(empty)
        assert out.empty
        assert list(out.columns) == ["segment_id"] + FEATURE_NAMES + ["label"]
