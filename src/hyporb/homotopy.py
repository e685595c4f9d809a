"""Winding classes in the once-marked disc and short loop representatives.

In a disc with a single cone point, relative homotopy classes of curves with
fixed endpoints are classified by the signed number of loops around the cone
point.  This module measures that class for polylines and constructs, for
every class, a representative whose certified metric length stays below a
sixth of the disc radius: two radial spokes plus arcs on a circle chosen so
small that even n + 1 full turns are cheap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curves import PolylineCurve
from .errors import DomainError
from .models import cone_circle_length

# Largest angle, in degrees, between consecutive arc vertices of a representative.
_ARC_STEP_DEG = 1.0


@dataclass(frozen=True)
class WindingClass:
    """Total argument increment of a curve about a center, in turns.

    For closed curves ``turns`` is the winding number up to float noise, and
    differences of ``turns`` between same-endpoint curves are exact integers
    up to float noise.
    """

    turns: float
    endpoints: tuple[complex, complex]


def winding_class(curve: PolylineCurve, center: complex) -> WindingClass:
    """Segment-wise argument increment of the curve about ``center``."""
    d = curve.as_array() - complex(center)
    if np.any(d == 0):
        raise DomainError("curve vertex at the winding center")
    total = float(np.angle(d[1:] / d[:-1]).sum())
    turns = total / (2.0 * math.pi)
    return WindingClass(turns=turns, endpoints=(curve.start, curve.end))


def relative_winding(a: WindingClass, b: WindingClass) -> int:
    """Integer class difference of two curves sharing endpoints (up to 1e-6)."""
    if abs(a.endpoints[0] - b.endpoints[0]) > 1e-6 or abs(a.endpoints[1] - b.endpoints[1]) > 1e-6:
        raise DomainError("winding classes compare only with shared endpoints")
    diff = a.turns - b.turns
    n = round(diff)
    if abs(diff - n) > 1e-6:
        raise DomainError(f"turn difference {diff} is not an integer")
    return n


def epsilon_prime(eps: float, d: int) -> float:
    """Largest radius whose radial spoke costs less than eps/18 (0.99 margin).

    Inverts the exact radial primitive 2*artanh((r/eps)^(1/d)).
    """
    if eps <= 0 or d < 1:
        raise DomainError("need eps > 0 and d >= 1")
    u = math.tanh(0.99 * eps / 36.0)
    return eps * u**d


def choose_epsilon_n(n: int, eps: float, d: int) -> float:
    """Largest radius whose full circle costs less than eps/(18 (n+1)) (0.99 margin).

    Inverts the exact circle length 4*pi*u / (d (1 - u^2)), u = (r/eps)^(1/d),
    in closed form, then steps the radius by single ulps until the float
    length crosses the target between it and the next float up:
    L(r) < target <= L(nextafter(r, inf)).  A radius that underflows to 0
    raises DomainError.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if eps <= 0 or d < 1:
        raise DomainError("need eps > 0 and d >= 1")
    target = 0.99 * eps / (18.0 * (n + 1))
    td = target * d
    u = 2.0 * td / (4.0 * math.pi + math.sqrt(16.0 * math.pi**2 + 4.0 * td * td))
    r = eps * u**d
    while cone_circle_length(d, eps, r) >= target:
        r = math.nextafter(r, 0.0)
    while cone_circle_length(d, eps, math.nextafter(r, math.inf)) < target:
        r = math.nextafter(r, math.inf)
    return r


def _arc_points(radius: float, theta_from: float, theta_to: float) -> np.ndarray:
    """Vertices on |z| = radius from theta_from to theta_to (signed sweep)."""
    sweep = theta_to - theta_from
    steps = max(1, math.ceil(abs(sweep) / math.radians(_ARC_STEP_DEG)))
    thetas = theta_from + sweep * np.arange(1, steps + 1) / steps
    return radius * np.exp(1j * thetas)


def build_representative(
    p: complex,
    q: complex,
    n: int,
    sign: int,
    eps: float = 1.0,
    d: int = 2,
) -> PolylineCurve:
    """Representative of the class "n extra loops with orientation sign".

    Route: radial from p down to the circle of radius eps_n, the shortest
    arc to the radial ray of q, n full signed loops, then radial out to q.
    Relative to the n = 0 representative the winding class is exactly
    sign * n.
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    if n < 0:
        raise DomainError("n must be >= 0")
    p, q = complex(p), complex(q)
    eps_p = epsilon_prime(eps, d)
    for name, z in (("p", p), ("q", q)):
        if z == 0:
            raise DomainError(f"{name} is at the cone point")
        if abs(z) >= eps_p:
            raise DomainError(f"{name} outside the inner disc of radius {eps_p:.3e}")
    eps_n = choose_epsilon_n(n, eps, d)
    eps_n = min(eps_n, 0.5 * min(abs(p), abs(q)))
    theta_p = cmath.phase(p)
    theta_q = cmath.phase(q)

    parts = [[p]]
    if abs(p) > eps_n:
        parts.append([eps_n * cmath.exp(1j * theta_p)])
    # shortest arc from the ray of p to the ray of q
    sweep = math.remainder(theta_q - theta_p, 2.0 * math.pi)
    parts.append(_arc_points(eps_n, theta_p, theta_p + sweep))
    theta = theta_p + sweep
    for _ in range(n):
        parts.append(_arc_points(eps_n, theta, theta + sign * 2.0 * math.pi))
        theta += sign * 2.0 * math.pi
    if abs(q) > eps_n:
        parts.append([q])
    return PolylineCurve(np.concatenate(parts))
