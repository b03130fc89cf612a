"""The Digital Space Model (DSM).

The DSM is the paper's central side data structure: it records the
geometric attributes and topological relations of indoor entities, the
semantic regions, and the entity↔region mapping. It is produced by the
Space Modeler, serialized as JSON ("flexible to parse and manipulate"),
and consulted by all three Translator layers. The object is small and
picklable, so pipelines broadcast it to executors.
"""
from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pandas as pd

from .entities import CORRIDOR, Door, SemanticRegion, SpaceEntity, Staircase
from .geometry import points_in_polygon


class DigitalSpaceModel:
    """Registry of entities, doors, staircases and semantic regions, with
    derived topology (entity adjacency through doors/stairs and region
    connectivity)."""

    def __init__(self) -> None:
        self.entities: dict[str, SpaceEntity] = {}
        self.doors: dict[str, Door] = {}
        self.stairs: dict[str, Staircase] = {}
        self.regions: dict[str, SemanticRegion] = {}
        self._entity_region: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_entity(self, e: SpaceEntity) -> None:
        if e.entity_id in self.entities:
            raise ValueError(f"duplicate entity {e.entity_id}")
        self.entities[e.entity_id] = e

    def add_door(self, d: Door) -> None:
        for eid in (d.entity_a, d.entity_b):
            if eid not in self.entities:
                raise ValueError(f"door {d.door_id} references unknown entity {eid}")
        self.doors[d.door_id] = d

    def add_staircase(self, s: Staircase) -> None:
        for eid in (s.entity_low, s.entity_high):
            if eid not in self.entities:
                raise ValueError(f"stair {s.stair_id} references unknown entity {eid}")
        self.stairs[s.stair_id] = s

    def add_region(self, r: SemanticRegion) -> None:
        if r.region_id in self.regions:
            raise ValueError(f"duplicate region {r.region_id}")
        for eid in r.entity_ids:
            if eid not in self.entities:
                raise ValueError(f"region {r.region_id} references unknown entity {eid}")
        self.regions[r.region_id] = r
        for eid in r.entity_ids:
            self._entity_region.setdefault(eid, r.region_id)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def entity_neighbors(self, entity_id: str) -> list[str]:
        """Entities reachable from ``entity_id`` through one door or
        staircase — the wall-aware adjacency the Cleaner relies on."""
        out = []
        for d in self.doors.values():
            if d.entity_a == entity_id:
                out.append(d.entity_b)
            elif d.entity_b == entity_id:
                out.append(d.entity_a)
        for s in self.stairs.values():
            if s.entity_low == entity_id:
                out.append(s.entity_high)
            elif s.entity_high == entity_id:
                out.append(s.entity_low)
        return sorted(set(out))

    def entity_region(self, entity_id: str) -> str | None:
        """Region covering ``entity_id`` (entities map to at most one
        region in this model; otherwise the first region added wins), or
        None for untagged entities."""
        return self._entity_region.get(entity_id)

    def hall_regions(self) -> set[str]:
        """Regions covering a corridor: the transit regions. Every other
        region is a shop."""
        return {
            rid
            for rid, r in self.regions.items()
            if any(self.entities[e].kind == CORRIDOR for e in r.entity_ids)
        }

    def region_neighbors(self, region_id: str) -> list[str]:
        """Regions adjacent to ``region_id``: their entities are joined
        by a door or staircase. Used by the Complementor's inference."""
        r = self.regions[region_id]
        mine = set(r.entity_ids)
        out = set()
        for eid in mine:
            for nb in self.entity_neighbors(eid):
                reg = self.entity_region(nb)
                if reg is not None and reg != region_id:
                    out.add(reg)
        return sorted(out)

    def region_adjacency(self) -> dict[str, list[str]]:
        """Full region connectivity map (region → sorted neighbor list)."""
        return {rid: self.region_neighbors(rid) for rid in sorted(self.regions)}

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------
    def locate_entity(self, x: float, y: float, floor: int) -> str | None:
        """Entity containing the point, or None (inside a wall / outside)."""
        ids = self.locate_entities(np.array([x]), np.array([y]), np.array([floor]))
        return ids[0]

    def locate_entities(
        self, xs: np.ndarray, ys: np.ndarray, floors: np.ndarray
    ) -> list[str | None]:
        """Vectorized point→entity location for a batch of records.

        Corridors are tested last so a point on a shared shop/corridor
        boundary resolves to the shop (the more specific entity).
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        floors = np.asarray(floors)
        result: list[str | None] = [None] * len(xs)
        order = sorted(
            self.entities.values(), key=lambda e: (e.kind == CORRIDOR, e.entity_id)
        )
        unresolved = np.ones(len(xs), dtype=bool)
        for e in order:
            if not unresolved.any():
                break
            cand = unresolved & (floors == e.floor)
            if not cand.any():
                continue
            xmin, ymin, xmax, ymax = e.bbox()
            cand &= (xs >= xmin - 1e-9) & (xs <= xmax + 1e-9)
            cand &= (ys >= ymin - 1e-9) & (ys <= ymax + 1e-9)
            if not cand.any():
                continue
            idx = np.flatnonzero(cand)
            hit = points_in_polygon(xs[idx], ys[idx], e.poly_array())
            for i in idx[hit]:
                result[i] = e.entity_id
                unresolved[i] = False
        return result

    def locate_regions(
        self, xs: np.ndarray, ys: np.ndarray, floors: np.ndarray
    ) -> list[str | None]:
        """Vectorized point→region location: :meth:`locate_entities`, then
        each entity's region; None where a point has no region."""
        return [
            self._entity_region.get(e) for e in self.locate_entities(xs, ys, floors)
        ]

    def locate_region(self, x: float, y: float, floor: int) -> str | None:
        """Semantic region containing the point, or None."""
        return self.locate_regions(np.array([x]), np.array([y]), np.array([floor]))[0]

    # ------------------------------------------------------------------
    # Tabular views (for Spark joins / the oracle)
    # ------------------------------------------------------------------
    def regions_frame(self) -> pd.DataFrame:
        """Flat (region_id, tag, floor, entity_id) table for relational use."""
        rows = [
            {"region_id": r.region_id, "tag": r.tag, "floor": r.floor, "entity_id": eid}
            for r in self.regions.values()
            for eid in r.entity_ids
        ]
        return pd.DataFrame(rows, columns=["region_id", "tag", "floor", "entity_id"])

    # ------------------------------------------------------------------
    # JSON serialization (the paper stores the DSM as JSON)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "entities": [asdict(e) for e in self.entities.values()],
            "doors": [asdict(d) for d in self.doors.values()],
            "stairs": [asdict(s) for s in self.stairs.values()],
            "regions": [asdict(r) for r in self.regions.values()],
            "topology": {
                "entity_adjacency": {
                    eid: self.entity_neighbors(eid) for eid in sorted(self.entities)
                },
                "region_adjacency": self.region_adjacency(),
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DigitalSpaceModel":
        payload = json.loads(text)
        dsm = cls()
        for e in payload["entities"]:
            dsm.add_entity(SpaceEntity(**e))
        for d in payload["doors"]:
            dsm.add_door(Door(**d))
        for s in payload["stairs"]:
            dsm.add_staircase(Staircase(**s))
        for r in payload["regions"]:
            dsm.add_region(SemanticRegion(**r))
        return dsm
