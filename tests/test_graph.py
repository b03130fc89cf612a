"""Unit tests for the indoor walking-distance graph."""
import numpy as np
import pytest

from repro.dsm import IndoorGraph, build_mall


@pytest.fixture(scope="module")
def mall():
    return build_mall(n_floors=3, shops_per_side=4)


@pytest.fixture(scope="module")
def graph(mall):
    return IndoorGraph(mall)


class TestDistance:
    def test_same_room_is_euclidean(self, graph):
        assert graph.distance((2, 2, 1), (5, 5, 1)) == pytest.approx(np.hypot(3, 3))

    def test_adjacent_shops_route_through_doors(self, graph):
        # Shops S1 (door at (15, 8)) and S2 (door at (25, 8)) front the
        # same hall section: legs to each door plus the hop between them.
        d = graph.distance((15.0, 4.0, 1), (25.0, 4.0, 1))
        assert d == pytest.approx(4 + 10 + 4)

    def test_indoor_at_least_euclidean(self, graph, mall):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p1 = (rng.uniform(0, 40), rng.uniform(0, 22), 1)
            p2 = (rng.uniform(0, 40), rng.uniform(0, 22), 1)
            if mall.locate_entity(*p1) is None or mall.locate_entity(*p2) is None:
                continue
            euclid = np.hypot(p2[0] - p1[0], p2[1] - p1[1])
            assert graph.distance(p1, p2) >= euclid - 1e-9

    def test_symmetric(self, graph):
        p1, p2 = (5.0, 4.0, 1), (33.0, 18.0, 2)
        assert graph.distance(p1, p2) == pytest.approx(graph.distance(p2, p1))

    def test_cross_floor_uses_staircase(self, graph):
        # Same (x, y) on adjacent floors: walk to a stair, climb (8 m),
        # walk back — strictly more than the climb alone.
        d = graph.distance((20.0, 11.0, 1), (20.0, 11.0, 2))
        assert d > 8.0

    def test_cross_floor_near_west_stair(self, graph):
        # Right at the west stair port (1, 11): distance ~= stair length.
        d = graph.distance((1.0, 11.0, 1), (1.0, 11.0, 2))
        assert d == pytest.approx(8.0, abs=1e-6)

    def test_two_floor_climb_is_two_flights(self, graph):
        d = graph.distance((1.0, 11.0, 1), (1.0, 11.0, 3))
        assert d == pytest.approx(16.0, abs=1e-6)

    def test_entity_hints_do_not_change_result(self, graph, mall):
        p1, p2 = (5.0, 4.0, 1), (15.0, 4.0, 1)
        e1 = mall.locate_entity(*p1)
        e2 = mall.locate_entity(*p2)
        assert graph.distance(p1, p2, e1=e1, e2=e2) == pytest.approx(
            graph.distance(p1, p2)
        )

    def test_point_in_wall_snaps_to_nearest_entity(self, graph):
        # (-1, -1) is outside every polygon on floor 1; distance should
        # still be finite via the nearest entity's doors.
        d = graph.distance((-1.0, -1.0, 1), (5.0, 10.0, 1))
        assert np.isfinite(d)

    @pytest.mark.parametrize(
        "p1", [(5.0, 4.0, 99), (np.nan, 4.0, 1)], ids=["unknown_floor", "nan_coordinate"]
    )
    def test_unknown_floor_raises(self, graph, p1):
        # A snap must not pick a nearest node for a NaN point.
        with pytest.raises(ValueError, match="no entity"):
            graph.distance(p1, (5.0, 4.0, 1))


class TestPath:
    def test_same_entity_path_is_segment(self, graph):
        p = graph.path((1.0, 1.0, 1), (3.0, 3.0, 1))
        assert p.shape == (2, 3)

    def test_cross_entity_path_passes_doors(self, graph):
        p = graph.path((15.0, 4.0, 1), (25.0, 4.0, 1))
        # p1, door S1, door S2, p2 (same hall section).
        assert len(p) == 4
        assert p[1][:2] == pytest.approx((15.0, 8.0))
        assert p[2][:2] == pytest.approx((25.0, 8.0))

    def test_path_endpoints(self, graph):
        p = graph.path((5.0, 4.0, 1), (33.0, 18.0, 3))
        assert p[0] == pytest.approx((5.0, 4.0, 1.0))
        assert p[-1] == pytest.approx((33.0, 18.0, 3.0))

    def test_cross_floor_path_contains_both_stair_ports(self, graph):
        p = graph.path((5.0, 4.0, 1), (5.0, 4.0, 2))
        floors = p[:, 2].astype(int)
        assert set(floors) == {1, 2}
        # Stair ports appear as two consecutive rows with identical x, y.
        dup = np.flatnonzero(
            (np.diff(p[:, 0]) == 0) & (np.diff(p[:, 1]) == 0) & (np.diff(floors) != 0)
        )
        assert len(dup) == 1

    def test_path_length_matches_distance_same_floor(self, graph):
        p1, p2 = (5.0, 4.0, 1), (25.0, 4.0, 1)
        p = graph.path(p1, p2)
        seg = np.hypot(np.diff(p[:, 0]), np.diff(p[:, 1])).sum()
        assert seg == pytest.approx(graph.distance(p1, p2))


class TestGraphStructure:
    def test_all_pairs_finite_in_connected_mall(self, graph):
        assert np.isfinite(graph.dist).all()

    def test_node_count(self, mall, graph):
        # One node per door, two per staircase.
        assert graph.pos.shape[0] == len(mall.doors) + 2 * len(mall.stairs)

    def test_triangle_inequality_on_nodes(self, graph):
        d = graph.dist
        n = d.shape[0]
        rng = np.random.default_rng(3)
        for _ in range(200):
            i, j, k = rng.integers(0, n, 3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestAgainstReferences:
    """``resolve_entities``, ``distance`` and ``path`` equal the scalar
    snap and the door-pair double loop they replaced, on random points on
    every floor, in-wall points and cross-floor pairs included."""

    @pytest.fixture(scope="class")
    def points(self, mall):
        rng = np.random.default_rng(11)
        n = 400
        xs = rng.uniform(-3.0, 43.0, n)
        ys = rng.uniform(-3.0, 25.0, n)
        floors = rng.integers(1, 4, n)
        in_wall = [e is None for e in mall.locate_entities(xs, ys, floors)]
        assert sum(in_wall) > 50
        return xs, ys, floors

    def test_resolve_entities_equals_scalar_snap(self, graph, points):
        xs, ys, floors = points
        want = [_resolve_entity(graph, *p) for p in zip(xs, ys, floors)]
        assert graph.resolve_entities(xs, ys, floors) == want

    def test_distance_and_path_equal_double_loop(self, graph, points):
        xs, ys, floors = points
        ents = graph.resolve_entities(xs, ys, floors)
        n_cross_floor = 0
        for i in range(len(xs) - 1):
            p1 = (xs[i], ys[i], floors[i])
            p2 = (xs[i + 1], ys[i + 1], floors[i + 1])
            e1, e2 = ents[i], ents[i + 1]
            n_cross_floor += p1[2] != p2[2]
            if e1 == e2:
                assert graph.distance(p1, p2) == np.hypot(p2[0] - p1[0], p2[1] - p1[1])
                continue
            best, pair = _door_pair(graph, p1, p2, e1, e2)
            assert graph.distance(p1, p2) == best
            assert graph.distance(p1, p2, e1=e1, e2=e2) == best
            mid = [
                [*graph.pos[k], graph._node_floor[k]] for k in graph._node_path(*pair)
            ]
            np.testing.assert_array_equal(graph.path(p1, p2)[1:-1], mid)
        assert n_cross_floor > 100


def _resolve_entity(graph, x, y, floor):
    """Reference: the scalar snap of one point."""
    eid = graph.dsm.locate_entity(x, y, floor)
    if eid is not None:
        return eid
    best, best_d = None, np.inf
    for cand_eid, nodes in graph._entity_nodes.items():
        if graph.dsm.entities[cand_eid].floor != floor:
            continue
        for i in nodes:
            d = float(np.hypot(graph.pos[i, 0] - x, graph.pos[i, 1] - y))
            if d < best_d:
                best, best_d = cand_eid, d
    if best is None:
        raise ValueError(f"no entity on floor {floor}")
    return best


def _door_pair(graph, p1, p2, e1, e2):
    """Reference: the door-to-door double loop; the shortest route's
    length and its first strictly best node pair."""
    best, best_pair = np.inf, None
    for a in graph._entity_nodes[e1]:
        la = float(np.hypot(graph.pos[a, 0] - p1[0], graph.pos[a, 1] - p1[1]))
        for b in graph._entity_nodes[e2]:
            if not np.isfinite(graph.dist[a, b]):
                continue
            lb = float(np.hypot(graph.pos[b, 0] - p2[0], graph.pos[b, 1] - p2[1]))
            tot = la + graph.dist[a, b] + lb
            if tot < best:
                best, best_pair = tot, (a, b)
    return best, best_pair
