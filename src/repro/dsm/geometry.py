"""Planar geometry primitives for the Digital Space Model.

Everything here is pure numpy so it can run inside the per-device stage
runner's Python workers without extra dependencies. Polygons are
``(n, 2)`` float arrays of vertices in order (closed implicitly); points
are ``(x, y)`` pairs or ``(m, 2)`` arrays for the vectorized variants.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "polygon_area",
    "polygon_centroid",
    "point_in_polygon",
    "points_in_polygon",
    "points_along_polyline",
    "bounding_box",
]


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area of ``poly`` (positive if counter-clockwise)."""
    p = np.asarray(poly, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(poly: np.ndarray) -> tuple[float, float]:
    """Area centroid of a simple polygon (falls back to vertex mean for
    degenerate zero-area polygons)."""
    p = np.asarray(poly, dtype=float)
    x, y = p[:, 0], p[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * np.sum(cross)
    if abs(a) < 1e-12:
        return float(x.mean()), float(y.mean())
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
    return float(cx), float(cy)


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray casting: boolean mask of which ``(xs, ys)``
    points fall inside ``poly``. Boundary points count as inside (the DSM
    treats walls as part of the room they bound)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    p = np.asarray(poly, dtype=float)
    n = len(p)
    inside = np.zeros(xs.shape, dtype=bool)
    on_edge = np.zeros(xs.shape, dtype=bool)
    for i in range(n):
        x1, y1 = p[i]
        x2, y2 = p[(i + 1) % n]
        # Edge membership: collinear and within the segment bbox.
        cross = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
        within = (
            (np.minimum(x1, x2) - 1e-9 <= xs)
            & (xs <= np.maximum(x1, x2) + 1e-9)
            & (np.minimum(y1, y2) - 1e-9 <= ys)
            & (ys <= np.maximum(y1, y2) + 1e-9)
        )
        on_edge |= (np.abs(cross) < 1e-9) & within
        # Ray casting toward +x.
        cond = (y1 > ys) != (y2 > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (xs < x_int)
    return inside | on_edge


def point_in_polygon(x: float, y: float, poly: np.ndarray) -> bool:
    """Scalar convenience wrapper over :func:`points_in_polygon`."""
    return bool(points_in_polygon(np.array([x]), np.array([y]), poly)[0])


def points_along_polyline(
    poly: np.ndarray, fracs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, y, floor)`` arrays of the points at fractions ``fracs``
    (clamped to 0..1) of a ``(k, 3)`` (x, y, floor) polyline's planar arc
    length.

    Used by the Cleaner's location interpolation: an invalid run is
    re-placed along the indoor shortest path at time-proportional
    distances. Floors change at staircase vertices (zero planar length),
    so a point takes the floor of the vertex after it only when it lies
    strictly past the vertex before it. A zero-length polyline puts every
    point at its first vertex."""
    p = np.asarray(poly, dtype=float)
    if len(p) == 0:
        raise ValueError("empty polyline")
    fracs = np.clip(np.asarray(fracs, dtype=float), 0.0, 1.0)
    seg = np.hypot(np.diff(p[:, 0]), np.diff(p[:, 1]))
    total = seg.sum()
    if total <= 0:
        n = len(fracs)
        return np.full(n, p[0, 0]), np.full(n, p[0, 1]), np.full(n, p[0, 2])
    target = fracs * total
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    i = np.minimum(np.searchsorted(cum, target, side="right") - 1, len(seg) - 1)
    r = np.divide(
        target - cum[i], seg[i], out=np.zeros_like(target), where=seg[i] > 0
    )
    x = p[i, 0] + r * (p[i + 1, 0] - p[i, 0])
    y = p[i, 1] + r * (p[i + 1, 1] - p[i, 1])
    floor = np.where(target > cum[i], p[i + 1, 2], p[i, 2])
    return x, y, floor


def bounding_box(poly: np.ndarray) -> tuple[float, float, float, float]:
    """``(xmin, ymin, xmax, ymax)`` of a polygon — used for cheap
    containment pre-filtering before exact point-in-polygon tests."""
    p = np.asarray(poly, dtype=float)
    return (
        float(p[:, 0].min()),
        float(p[:, 1].min()),
        float(p[:, 0].max()),
        float(p[:, 1].max()),
    )
