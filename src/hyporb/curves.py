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
    """(segments, points) matrix of distances from each point to each segment ``[a, b]``."""
    d = (b - a)[:, None]
    ap = pts[None, :] - a[:, None]
    dd = (d.real**2 + d.imag**2)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(dd > 0, (ap.real * d.real + ap.imag * d.imag) / np.where(dd > 0, dd, 1), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = a[:, None] + t * d
    return np.abs(pts[None, :] - closest)


def polyline_point_distance(curve: PolylineCurve, p: complex) -> float:
    """Euclidean distance from point ``p`` to the polyline."""
    verts = curve.as_array()
    pts = np.asarray([p], dtype=complex)
    return float(segment_point_distances(verts[:-1], verts[1:], pts).min())
