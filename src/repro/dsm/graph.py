"""Indoor walking-distance graph over the DSM.

Walls are impassable: movement between entities happens only through
doors, and between floors only through staircases. The *minimum indoor
walking distance* between two points ([13] in the paper) is therefore a
shortest path through the door/staircase graph, which the Cleaning layer
uses both to detect speed-constraint violations and to interpolate
repaired locations along a legal indoor path.

The graph is small (one node per door plus two per staircase), so we
precompute all-pairs shortest paths once (vectorized Floyd–Warshall) and
answer point-to-point queries by combining the final walking legs with
the precomputed node-to-node distances: one matrix of leg + node-to-node
+ leg lengths over the two entities' nodes, whose first minimum is the
route. A query needs each point's containing entity;
:meth:`IndoorGraph.resolve_entities` resolves a whole device's records
in one DSM location call, snapping points inside walls to the entity
with the nearest node, and the Cleaner passes the result in as hints.
"""
from __future__ import annotations

import numpy as np

from .model import DigitalSpaceModel

_INF = float("inf")


class IndoorGraph:
    """All-pairs shortest walking paths over a DSM's doors/staircases."""

    def __init__(self, dsm: DigitalSpaceModel) -> None:
        self.dsm = dsm
        self._node_pos: list[tuple[float, float]] = []
        self._node_floor: list[int] = []
        self._entity_nodes: dict[str, list[int]] = {
            eid: [] for eid in dsm.entities
        }

        def add_node(x: float, y: float, floor: int, entities: list[str]) -> int:
            idx = len(self._node_pos)
            self._node_pos.append((x, y))
            self._node_floor.append(floor)
            for eid in entities:
                self._entity_nodes[eid].append(idx)
            return idx

        stair_ports: list[tuple[int, int, float]] = []  # (low idx, high idx, length)
        for d in dsm.doors.values():
            add_node(d.x, d.y, d.floor, [d.entity_a, d.entity_b])
        for s in dsm.stairs.values():
            lo = add_node(s.x, s.y, s.floor_low, [s.entity_low])
            hi = add_node(s.x, s.y, s.floor_high, [s.entity_high])
            stair_ports.append((lo, hi, s.length))

        n = len(self._node_pos)
        self.pos = np.asarray(self._node_pos, dtype=float) if n else np.zeros((0, 2))
        dist = np.full((n, n), _INF)
        np.fill_diagonal(dist, 0.0)
        # Within-entity edges: every pair of nodes on the same entity is
        # mutually walkable (mall entities are convex rectangles).
        for nodes in self._entity_nodes.values():
            for i in nodes:
                for j in nodes:
                    if i != j:
                        d = float(np.hypot(*(self.pos[i] - self.pos[j])))
                        dist[i, j] = min(dist[i, j], d)
        for lo, hi, length in stair_ports:
            dist[lo, hi] = dist[hi, lo] = min(dist[lo, hi], length)

        # Vectorized Floyd–Warshall with a `via` matrix for path recovery.
        via = np.full((n, n), -1, dtype=np.int64)
        for k in range(n):
            alt = dist[:, k, None] + dist[None, k, :]
            better = alt < dist
            dist = np.where(better, alt, dist)
            via[better] = k
        self.dist = dist
        self._via = via

    # ------------------------------------------------------------------
    def _node_path(self, i: int, j: int) -> list[int]:
        """Node index sequence of the shortest path from i to j (inclusive)."""
        if i == j:
            return [i]
        if not np.isfinite(self.dist[i, j]):
            raise ValueError(f"nodes {i} and {j} are disconnected")
        k = int(self._via[i, j])
        if k < 0:
            return [i, j]
        return self._node_path(i, k)[:-1] + self._node_path(k, j)

    def resolve_entities(
        self, xs: np.ndarray, ys: np.ndarray, floors: np.ndarray
    ) -> list[str]:
        """Containing entity of each point, from one
        :meth:`~.model.DigitalSpaceModel.locate_entities` call. Points
        inside walls (e.g. raw noise pushed a record out of any polygon)
        snap to the entity with the nearest graph node on the same floor;
        ties go to the first entity, then the first node, in graph order.

        Raises ValueError for a point with no such node: its floor has no
        entity, or a coordinate is not finite."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        floors = np.asarray(floors)
        ents = self.dsm.locate_entities(xs, ys, floors)
        miss = np.array([e is None for e in ents], dtype=bool)
        if not miss.any():
            return ents
        # One candidate per (entity, node) pair in graph order, so the
        # first argmin follows the tie rule above.
        cand_eid = [eid for eid, nodes in self._entity_nodes.items() for _ in nodes]
        cand_pos = self.pos[[i for nodes in self._entity_nodes.values() for i in nodes]]
        cand_floor = np.array([self.dsm.entities[eid].floor for eid in cand_eid])
        for f in np.unique(cand_floor):
            rows = np.flatnonzero(miss & (floors == f))
            if not len(rows):
                continue
            cols = np.flatnonzero(cand_floor == f)
            d = np.hypot(
                cand_pos[cols, 0] - xs[rows, None], cand_pos[cols, 1] - ys[rows, None]
            )
            k = d.argmin(axis=1)
            # A row of NaN or inf distances (non-finite point) has no
            # nearest node; it stays unresolved and raises below.
            found = d[np.arange(len(rows)), k] < _INF
            for r, c in zip(rows[found], cols[k[found]]):
                ents[r] = cand_eid[c]
        for i, e in enumerate(ents):
            if e is None:
                raise ValueError(
                    f"no entity on floor {floors[i]} near ({xs[i]}, {ys[i]})"
                )
        return ents

    def _best_pair(
        self, p1: tuple, p2: tuple, e1: str, e2: str
    ) -> tuple[float, tuple[int, int] | None]:
        """Shortest route from p1 in entity e1 to p2 in entity e2 through
        the graph: its length (inf if none) and its first and last node.
        Ties go to the first node pair in row-major order."""
        a, b = self._entity_nodes[e1], self._entity_nodes[e2]
        la = np.hypot(self.pos[a, 0] - p1[0], self.pos[a, 1] - p1[1])
        lb = np.hypot(self.pos[b, 0] - p2[0], self.pos[b, 1] - p2[1])
        tot = la[:, None] + self.dist[a][:, b] + lb
        if not (tot < _INF).any():
            return _INF, None
        k = int(tot.argmin())
        return float(tot.flat[k]), (a[k // len(b)], b[k % len(b)])

    # ------------------------------------------------------------------
    def distance(
        self,
        p1: tuple[float, float, int],
        p2: tuple[float, float, int],
        *,
        e1: str | None = None,
        e2: str | None = None,
    ) -> float:
        """Minimum indoor walking distance between two points.

        Same-entity pairs walk straight; cross-entity pairs take the best
        door-to-door route. Always >= the Euclidean distance. ``e1``/``e2``
        are optional containing-entity hints (the Cleaner resolves whole
        batches of records up front with :meth:`resolve_entities` and
        passes them in).
        """
        x1, y1, f1 = p1
        x2, y2, f2 = p2
        e1 = e1 or self.resolve_entities([x1], [y1], [f1])[0]
        e2 = e2 or self.resolve_entities([x2], [y2], [f2])[0]
        if e1 == e2:
            return float(np.hypot(x2 - x1, y2 - y1)) if f1 == f2 else _INF
        return self._best_pair(p1, p2, e1, e2)[0]

    def path(
        self,
        p1: tuple[float, float, int],
        p2: tuple[float, float, int],
        *,
        e1: str | None = None,
        e2: str | None = None,
    ) -> np.ndarray:
        """Shortest indoor path polyline ``(k, 3)`` of (x, y, floor) rows,
        from p1 to p2 through doors/staircases. The Cleaner interpolates
        repaired locations along this polyline."""
        x1, y1, f1 = p1
        x2, y2, f2 = p2
        e1 = e1 or self.resolve_entities([x1], [y1], [f1])[0]
        e2 = e2 or self.resolve_entities([x2], [y2], [f2])[0]
        if e1 == e2:
            return np.array([[x1, y1, f1], [x2, y2, f2]], dtype=float)
        _, pair = self._best_pair(p1, p2, e1, e2)
        if pair is None:
            raise ValueError("points are disconnected in the indoor graph")
        nodes = self._node_path(*pair)
        mid = [
            [self.pos[i, 0], self.pos[i, 1], float(self._node_floor[i])] for i in nodes
        ]
        return np.array([[x1, y1, float(f1)], *mid, [x2, y2, float(f2)]], dtype=float)
