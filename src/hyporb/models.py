"""Closed-form hyperbolic densities and distances on model surfaces.

Covered models: scaled round discs, the punctured unit disc, and discs with
a single cone point.  These are the building blocks every certified bound
in the package reduces to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_SINGULARITY_GUARD = 1e-12


@dataclass(frozen=True)
class Disc:
    """Round disc of radius ``radius`` centred at ``center``."""

    radius: float
    center: complex = 0j

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("disc radius must be positive")


@dataclass(frozen=True)
class PuncturedDisc:
    """The unit disc punctured at the origin."""


@dataclass(frozen=True)
class ConeDisc:
    """Disc of radius ``radius`` about ``center`` with one cone point at the center.

    ``order`` is the ramification value of the cone point; ``order == 1`` is
    accepted and gives the density of the plain disc.
    """

    order: int
    radius: float
    center: complex = 0j

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("cone order must be >= 1")
        if self.radius <= 0:
            raise DomainError("cone disc radius must be positive")


ModelSurface = Disc | PuncturedDisc | ConeDisc


def cone_density_formula(k, radius, radius_root, distance):
    """2 / (k * eps^(1/k) * d^((k-1)/k) * (1 - (d/eps)^(2/k))), given ``radius_root = eps^(1/k)``.

    The one-cone density with k = order (a float), eps = radius, d = distance,
    on floats or numpy arrays alike; unguarded, so meaningful for 0 < d < eps only.
    """
    u = (distance / radius) ** (1.0 / k)
    return 2.0 / (k * radius_root * distance ** ((k - 1.0) / k) * (1.0 - u * u))


def cone_density(order: int, radius: float, distance: float) -> float:
    """Density of the one-cone disc at Euclidean distance ``distance`` from the cone point."""
    if distance <= _SINGULARITY_GUARD:
        raise DomainError("point is at (or numerically at) the cone point")
    if distance >= radius:
        raise DomainError("point outside the cone disc")
    k = float(order)
    return cone_density_formula(k, radius, radius ** (1.0 / k), distance)


def density(surface: ModelSurface, z: complex) -> float:
    """Hyperbolic (orbifold) density of the model surface at ``z``."""
    if isinstance(surface, Disc):
        d = abs(z - surface.center)
        r = surface.radius
        if d >= r:
            raise DomainError("point outside the disc")
        return 2.0 * r / (r * r - d * d)
    if isinstance(surface, PuncturedDisc):
        m = abs(z)
        if m <= _SINGULARITY_GUARD:
            raise DomainError("point is at (or numerically at) the puncture")
        if m >= 1.0:
            raise DomainError("point outside the punctured unit disc")
        return 1.0 / (m * abs(math.log(m)))
    if isinstance(surface, ConeDisc):
        return cone_density(surface.order, surface.radius, abs(z - surface.center))
    raise DomainError(f"unknown model surface {surface!r}")


def hyp_distance_disc(z: complex, w: complex) -> float:
    """Hyperbolic distance in the unit disc.

    Transfers ``w`` to the origin with T(x) = (x - w) / (conj(w) x - 1) and
    applies d(0, u) = log((1 + |u|) / (1 - |u|)).
    """
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise DomainError("both points must lie in the open unit disc")
    u = abs((z - w) / (w.conjugate() * z - 1.0))
    # |u| < 1 for interior points; log1p keeps accuracy for nearby points.
    return math.log1p(u) - math.log1p(-u)


def cone_radial_length(order: int, radius: float, r_from: float, r_to: float) -> float:
    """Exact metric length of a radial segment in the one-cone disc.

    The primitive of the radial density is 2*artanh((r/eps)^(1/k)), so the
    distance from the cone point is finite even though the density blows up.
    """
    if not (0.0 <= r_from <= r_to < radius):
        raise DomainError("need 0 <= r_from <= r_to < radius")
    k = float(order)

    def primitive(r: float) -> float:
        if r == 0.0:
            return 0.0
        return 2.0 * math.atanh((r / radius) ** (1.0 / k))

    return primitive(r_to) - primitive(r_from)


def cone_disc_radial_distance(k: int, w: float) -> float:
    """Distance from the cone point to radius ``w`` in the unit one-cone disc.

    For k = 2 this is the closed form log((1 + sqrt(w)) / (1 - sqrt(w)));
    the same primitive covers every order k >= 2.
    """
    if k < 2:
        raise DomainError("cone order must be >= 2")
    if not 0.0 < w < 1.0:
        raise DomainError("w must lie in (0, 1)")
    return cone_radial_length(k, 1.0, 0.0, w)


def cone_circle_length(order: int, radius: float, r: float) -> float:
    """Metric length of the circle |z| = r in the one-cone disc (exact).

    Evaluated as 4*pi*u / (k (1 - u^2)) with u = (r/radius)^(1/k), which is
    well defined arbitrarily close to the cone point (no singularity guard:
    the length shrinks to zero with r).
    """
    if not 0.0 < r < radius:
        raise DomainError("need 0 < r < radius")
    k = float(order)
    u = (r / radius) ** (1.0 / k)
    return 4.0 * math.pi * u / (k * (1.0 - u * u))
