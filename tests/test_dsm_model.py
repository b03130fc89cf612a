"""Unit tests for the Digital Space Model (entities, topology, JSON)."""
import numpy as np
import pytest

from repro.dsm import (
    CORRIDOR,
    ROOM,
    DigitalSpaceModel,
    Door,
    SemanticRegion,
    SpaceEntity,
    Staircase,
    build_mall,
)


@pytest.fixture(scope="module")
def mall():
    return build_mall(n_floors=3, shops_per_side=4)


def tiny_dsm() -> DigitalSpaceModel:
    d = DigitalSpaceModel()
    d.add_entity(SpaceEntity("roomA", ROOM, 1, [[0, 0], [4, 0], [4, 4], [0, 4]]))
    d.add_entity(SpaceEntity("hall", CORRIDOR, 1, [[4, 0], [8, 0], [8, 4], [4, 4]]))
    d.add_door(Door("d1", 1, 4.0, 2.0, "roomA", "hall"))
    d.add_region(SemanticRegion("rA", "Shop A", 1, ["roomA"]))
    d.add_region(SemanticRegion("rH", "Hall", 1, ["hall"]))
    return d


class TestRegistry:
    def test_duplicate_entity_rejected(self):
        d = tiny_dsm()
        with pytest.raises(ValueError, match="duplicate"):
            d.add_entity(SpaceEntity("roomA", ROOM, 1, [[0, 0], [1, 0], [1, 1]]))

    def test_door_unknown_entity_rejected(self):
        d = tiny_dsm()
        with pytest.raises(ValueError, match="unknown entity"):
            d.add_door(Door("dx", 1, 0, 0, "roomA", "nope"))

    def test_stair_unknown_entity_rejected(self):
        d = tiny_dsm()
        with pytest.raises(ValueError, match="unknown entity"):
            d.add_staircase(Staircase("sx", 0, 0, 1, 2, "hall", "nope"))

    def test_region_unknown_entity_rejected(self):
        d = tiny_dsm()
        with pytest.raises(ValueError, match="unknown entity"):
            d.add_region(SemanticRegion("rX", "X", 1, ["nope"]))

    def test_duplicate_region_rejected(self):
        d = tiny_dsm()
        with pytest.raises(ValueError, match="duplicate region"):
            d.add_region(SemanticRegion("rA", "Shop A", 1, ["roomA"]))


class TestTopology:
    def test_entity_neighbors_through_door(self):
        d = tiny_dsm()
        assert d.entity_neighbors("roomA") == ["hall"]
        assert d.entity_neighbors("hall") == ["roomA"]

    def test_entity_region_mapping(self):
        d = tiny_dsm()
        assert d.entity_region("roomA") == "rA"
        assert d.entity_region("hall") == "rH"
        assert d.entity_region("nope") is None

    def test_entity_region_first_region_wins(self):
        d = tiny_dsm()
        d.add_region(SemanticRegion("rA2", "Shop A annex", 1, ["roomA"]))
        assert d.entity_region("roomA") == "rA"

    def test_region_neighbors(self):
        d = tiny_dsm()
        assert d.region_neighbors("rA") == ["rH"]

    def test_mall_shop_neighbors_only_its_hall_section(self, mall):
        # Shop S0 on floor 1 fronts the west hall section.
        assert mall.entity_neighbors("F1-S0") == ["F1-hall0"]

    def test_mall_hall_adjacency_includes_stairs(self, mall):
        nbrs = mall.entity_neighbors("F1-hall0")
        assert "F2-hall0" in nbrs  # west staircase
        assert "F1-hall1" in nbrs  # next hall section
        assert "F1-S0" in nbrs and "F1-N0" in nbrs

    def test_mall_region_adjacency_symmetric(self, mall):
        adj = mall.region_adjacency()
        for rid, nbrs in adj.items():
            for nb in nbrs:
                assert rid in adj[nb], f"{rid}->{nb} not symmetric"

    def test_region_adjacency_no_self_loops(self, mall):
        for rid, nbrs in mall.region_adjacency().items():
            assert rid not in nbrs


class TestPointLocation:
    def test_locate_inside_room(self, mall):
        assert mall.locate_entity(5.0, 4.0, 1) == "F1-S0"

    def test_locate_inside_hall(self, mall):
        assert mall.locate_entity(5.0, 10.0, 1) == "F1-hall0"

    def test_locate_respects_floor(self, mall):
        assert mall.locate_entity(5.0, 4.0, 2) == "F2-S0"

    def test_locate_outside_returns_none(self, mall):
        assert mall.locate_entity(-5.0, -5.0, 1) is None
        assert mall.locate_entity(5.0, 4.0, 99) is None

    def test_shared_boundary_resolves_to_shop(self, mall):
        # The shop/hall boundary belongs to the shop (more specific).
        assert mall.locate_entity(5.0, 8.0, 1) == "F1-S0"

    def test_locate_region(self, mall):
        assert mall.locate_region(5.0, 4.0, 1) == "R-F1-S0"
        assert mall.locate_region(5.0, 10.0, 1) == "R-F1-hall0"

    def test_vectorized_matches_scalar(self, mall):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-2, 42, 100)
        ys = rng.uniform(-2, 24, 100)
        floors = rng.integers(1, 4, 100)
        vec = mall.locate_entities(xs, ys, floors)
        for i in range(100):
            assert vec[i] == mall.locate_entity(xs[i], ys[i], int(floors[i]))
        assert mall.locate_regions(xs, ys, floors) == [
            mall.locate_region(xs[i], ys[i], int(floors[i])) for i in range(100)
        ]


class TestJson:
    def test_roundtrip_preserves_everything(self, mall):
        clone = DigitalSpaceModel.from_json(mall.to_json())
        assert set(clone.entities) == set(mall.entities)
        assert set(clone.doors) == set(mall.doors)
        assert set(clone.stairs) == set(mall.stairs)
        assert set(clone.regions) == set(mall.regions)
        assert clone.region_adjacency() == mall.region_adjacency()

    def test_json_contains_topology_section(self, mall):
        import json

        payload = json.loads(mall.to_json())
        assert "topology" in payload
        assert payload["topology"]["region_adjacency"] == mall.region_adjacency()

    def test_regions_frame_flat_mapping(self, mall):
        pdf = mall.regions_frame()
        assert set(pdf.columns) == {"region_id", "tag", "floor", "entity_id"}
        assert len(pdf) == len(mall.regions)  # one entity per region here
        assert (pdf.groupby("region_id").size() == 1).all()
