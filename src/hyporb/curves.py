"""Discretized curves: polylines and Euclidean point-to-curve distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class PolylineCurve:
    """A curve stored as an ordered list of vertices."""

    vertices: list[complex]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise DomainError("a polyline needs at least two vertices")
        arr = np.asarray(self.vertices, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite vertex in polyline")
        self.vertices = arr.tolist()
        self._array = arr

    @property
    def start(self) -> complex:
        return self.vertices[0]

    @property
    def end(self) -> complex:
        return self.vertices[-1]

    def as_array(self) -> np.ndarray:
        return self._array


def segment_point_distances(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(points, segments) matrix of distances from each point to each segment ``[a, b]``.

    The matrix is C-contiguous, so a per-segment minimum reduces across rows.
    """
    d = b - a
    ap = pts[:, None] - a
    dd = d.real**2 + d.imag**2
    t = ap.real * d.real + ap.imag * d.imag
    flat = ~(dd > 0)
    if flat.any():  # a zero-length (or non-finite) segment is measured from a
        dd[flat] = 1.0
        t[:, flat] = 0.0
    t /= dd
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    return np.abs(pts[:, None] - (a + t * d))


def polyline_point_distance(curve: PolylineCurve, p: complex) -> float:
    """Euclidean distance from point ``p`` to the polyline."""
    verts = curve.as_array()
    pts = np.asarray([p], dtype=complex)
    return float(segment_point_distances(verts[:-1], verts[1:], pts).min())
