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

    @staticmethod
    def segment(a: complex, b: complex) -> "PolylineCurve":
        return PolylineCurve([a, b])

    @staticmethod
    def constant(z: complex) -> "PolylineCurve":
        return PolylineCurve([z, z])


def segment_point_distance(a: complex, b: complex, p: complex) -> float:
    """Euclidean distance from point ``p`` to the segment ``[a, b]``."""
    d = b - a
    dd = d.real * d.real + d.imag * d.imag
    if dd == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / dd
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def polyline_point_distance(curve: PolylineCurve, p: complex) -> float:
    return min(
        segment_point_distance(a, b, p)
        for a, b in zip(curve.vertices, curve.vertices[1:])
    )
