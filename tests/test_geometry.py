"""Unit tests for repro.dsm.geometry."""
import numpy as np
import pytest

from repro.dsm.geometry import (
    bounding_box,
    point_in_polygon,
    points_along_polyline,
    points_in_polygon,
    polygon_area,
    polygon_centroid,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
L_SHAPE = np.array(
    [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float
)


class TestArea:
    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_triangle(self):
        assert polygon_area(TRIANGLE) == pytest.approx(6.0)

    def test_l_shape(self):
        assert polygon_area(L_SHAPE) == pytest.approx(3.0)

    def test_clockwise_is_negative(self):
        assert polygon_area(UNIT_SQUARE[::-1]) == pytest.approx(-1.0)


class TestCentroid:
    def test_unit_square(self):
        assert polygon_centroid(UNIT_SQUARE) == pytest.approx((0.5, 0.5))

    def test_translated_square(self):
        assert polygon_centroid(UNIT_SQUARE + 5.0) == pytest.approx((5.5, 5.5))

    def test_triangle(self):
        cx, cy = polygon_centroid(TRIANGLE)
        assert (cx, cy) == pytest.approx((4 / 3, 1.0))

    def test_degenerate_falls_back_to_mean(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert polygon_centroid(line) == pytest.approx((1.0, 0.0))


class TestPointInPolygon:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (0.5, 0.5, True),
            (0.01, 0.99, True),
            (1.5, 0.5, False),
            (-0.1, 0.5, False),
            (0.5, -0.01, False),
            (0.5, 1.01, False),
        ],
    )
    def test_unit_square(self, x, y, expected):
        assert point_in_polygon(x, y, UNIT_SQUARE) is expected

    @pytest.mark.parametrize(
        "x,y",
        [(0.0, 0.0), (1.0, 1.0), (0.5, 0.0), (0.0, 0.5), (1.0, 0.5)],
    )
    def test_boundary_counts_as_inside(self, x, y):
        assert point_in_polygon(x, y, UNIT_SQUARE)

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (0.5, 0.5, True),
            (1.5, 0.5, True),
            (1.5, 1.5, False),  # the notch
            (0.5, 1.5, True),
        ],
    )
    def test_concave_l_shape(self, x, y, expected):
        assert point_in_polygon(x, y, L_SHAPE) is expected

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.5, 2.5, 200)
        ys = rng.uniform(-0.5, 2.5, 200)
        vec = points_in_polygon(xs, ys, L_SHAPE)
        for i in range(len(xs)):
            assert vec[i] == point_in_polygon(xs[i], ys[i], L_SHAPE)


def _line(*xy, floor=1):
    """A ``(k, 3)`` polyline through ``xy`` on one floor."""
    return np.array([[x, y, floor] for x, y in xy], dtype=float)


def _at(poly, frac):
    """``(x, y)`` of the point at one fraction along ``poly``."""
    x, y, _ = points_along_polyline(poly, [frac])
    return float(x[0]), float(y[0])


class TestPolyline:
    def test_length_empty_and_single(self):
        # Zero-length polylines put every point at their first vertex.
        for poly in (_line((1.0, 2.0)), _line((1.0, 2.0), (1.0, 2.0))):
            x, y, floor = points_along_polyline(poly, [0.0, 0.5, 1.0])
            assert list(x) == [1.0] * 3
            assert list(y) == [2.0] * 3
            assert list(floor) == [1.0] * 3

    def test_length_square_path(self):
        poly = _line(*UNIT_SQUARE, UNIT_SQUARE[0])
        assert _at(poly, 0.5) == pytest.approx((1.0, 1.0))
        assert _at(poly, 0.625) == pytest.approx((0.5, 1.0))

    @pytest.mark.parametrize("frac,expected", [(0.0, (0, 0)), (0.5, (1, 0)), (1.0, (2, 0))])
    def test_point_along_straight(self, frac, expected):
        assert _at(_line((0.0, 0.0), (2.0, 0.0)), frac) == pytest.approx(expected)

    def test_point_along_bend(self):
        poly = _line((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
        assert _at(poly, 0.75) == pytest.approx((1.0, 0.5))

    def test_fraction_clamped(self):
        poly = _line((0.0, 0.0), (1.0, 0.0))
        assert _at(poly, -1.0) == pytest.approx((0.0, 0.0))
        assert _at(poly, 2.0) == pytest.approx((1.0, 0.0))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            points_along_polyline(np.zeros((0, 3)), [0.5])

    def test_single_point(self):
        assert _at(_line((3.0, 4.0)), 0.7) == (3.0, 4.0)

    def test_staircase_floors(self):
        # Floor 1 to (4, 0), a zero-length stair, then floor 2. A point at
        # the stair's arc position takes the floor after the stair.
        poly = np.array([[0, 0, 1], [4, 0, 1], [4, 0, 2], [8, 0, 2]], dtype=float)
        x, y, floor = points_along_polyline(poly, [0.0, 0.25, 0.49, 0.5, 0.51, 1.0])
        assert x == pytest.approx([0.0, 2.0, 3.92, 4.0, 4.08, 8.0])
        assert list(floor) == [1, 1, 1, 2, 2, 2]
        # So does one at arc position 0 when the stair starts the path.
        start = np.array([[0, 0, 1], [0, 0, 2], [4, 0, 2]], dtype=float)
        assert list(points_along_polyline(start, [0.0, 1.0])[2]) == [2, 2]

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_per_point_reference(self, seed):
        """A whole run placed in one call equals the per-point placement
        and floor lookup, exactly, on random polylines with stairs."""
        rng = np.random.default_rng(seed)
        for k in (1, 2, 3, 6):
            poly = np.column_stack(
                [rng.uniform(0, 10, (k, 2)), rng.integers(1, 4, k)]
            ).astype(float)
            stairs = rng.random(k - 1) < 0.3 if k > 1 else np.zeros(0, dtype=bool)
            for i in np.flatnonzero(stairs):
                poly[i + 1, :2] = poly[i, :2]
            fracs = np.concatenate([rng.uniform(-0.2, 1.2, 20), [0.0, 1.0]])
            x, y, floor = points_along_polyline(poly, fracs)
            for m, frac in enumerate(fracs):
                assert (x[m], y[m]) == _point_along_polyline(poly[:, :2], frac)
                assert floor[m] == _floor_at(poly, min(1.0, max(0.0, frac)))


def _point_along_polyline(p, frac):
    """Reference: one point at ``frac`` of a ``(k, 2)`` polyline."""
    frac = min(1.0, max(0.0, float(frac)))
    if len(p) == 1:
        return float(p[0, 0]), float(p[0, 1])
    seg = np.hypot(np.diff(p[:, 0]), np.diff(p[:, 1]))
    total = seg.sum()
    if total <= 0:
        return float(p[0, 0]), float(p[0, 1])
    target = frac * total
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    i = int(np.searchsorted(cum, target, side="right") - 1)
    i = min(i, len(seg) - 1)
    r = (target - cum[i]) / seg[i] if seg[i] > 0 else 0.0
    return (
        float(p[i, 0] + r * (p[i + 1, 0] - p[i, 0])),
        float(p[i, 1] + r * (p[i + 1, 1] - p[i, 1])),
    )


def _floor_at(poly, frac):
    """Reference: floor at ``frac`` along a ``(k, 3)`` polyline, the
    floor of the segment holding that arc position."""
    total_len = float(np.sum(np.hypot(np.diff(poly[:, 0]), np.diff(poly[:, 1]))))
    if total_len <= 0 or len(poly) < 2:
        return int(poly[0, 2])
    seg = np.hypot(np.diff(poly[:, 0]), np.diff(poly[:, 1]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = frac * total_len
    i = int(np.searchsorted(cum, target, side="right") - 1)
    i = min(max(i, 0), len(poly) - 2)
    return int(poly[i + 1, 2]) if target > cum[i] else int(poly[i, 2])


def test_bounding_box():
    assert bounding_box(L_SHAPE) == (0.0, 0.0, 2.0, 2.0)
