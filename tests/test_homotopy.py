"""Winding classes and short loop representatives in the one-cone disc."""

import cmath
import math

import pytest

from hyporb.certify import certified_curve_length
from hyporb.curves import PolylineCurve
from hyporb.errors import DomainError
from hyporb.homotopy import (
    build_representative,
    choose_epsilon_n,
    epsilon_prime,
    relative_winding,
    winding_class,
)
from hyporb.models import cone_circle_length, cone_radial_length
from hyporb.orbifolds import MarkedOrbifold, Surface


def _circle(radius=1.0, steps=360, clockwise=False, start=0.0):
    sgn = -1.0 if clockwise else 1.0
    return [
        radius * cmath.exp(1j * (start + sgn * 2.0 * math.pi * j / steps))
        for j in range(steps + 1)
    ]


def test_winding_unit_circle():
    wc = winding_class(PolylineCurve(_circle()), 0j)
    assert wc.n == 1
    assert abs(wc.turns - 1.0) < 1e-12


def test_winding_concatenation_cancels():
    verts = _circle() + _circle(clockwise=True)[1:]
    wc = winding_class(PolylineCurve(verts), 0j)
    assert wc.n == 0
    assert abs(wc.turns) < 1e-12


def test_winding_rejects_vertex_at_center():
    with pytest.raises(DomainError):
        winding_class(PolylineCurve([0j, 1.0 + 0j]), 0j)


def test_choose_epsilon_n_contract():
    prev = math.inf
    for n in range(0, 12):
        r = choose_epsilon_n(n, 1.0, 2)
        assert cone_circle_length(2, 1.0, r) < 1.0 / (18.0 * (n + 1))
        assert r < prev
        prev = r


def test_epsilon_prime_bound():
    for d in (2, 3, 6):
        ep = epsilon_prime(1.0, d)
        assert cone_radial_length(d, 1.0, 0.0, ep) < 1.0 / 18.0


def test_representative_lengths_and_classes():
    eps = 1.0
    for d in (2, 3):
        ep = epsilon_prime(eps, d)
        orb = MarkedOrbifold(Surface(outer=(0j, eps)), ((0j, d),))
        p = 0.8 * ep * cmath.exp(0.3j)
        q = 0.6 * ep * cmath.exp(-1.1j)
        direct = build_representative(p, q, 0, 1, eps, d)
        w0 = winding_class(direct, 0j)
        for n in (0, 1, 3, 10):
            for sign in (1, -1):
                rep = build_representative(p, q, n, sign, eps, d)
                length = certified_curve_length(orb, rep, refinement=eps, mark_margin=0.0)
                assert length < eps / 6.0
                assert relative_winding(winding_class(rep, 0j), w0) == sign * n


def test_representative_degenerate_same_ray():
    eps, d = 1.0, 2
    ep = epsilon_prime(eps, d)
    orb = MarkedOrbifold(Surface(outer=(0j, eps)), ((0j, d),))
    p = 0.7 * ep + 0j
    rep = build_representative(p, p, 0, 1, eps, d)
    length = certified_curve_length(orb, rep, refinement=eps, mark_margin=0.0)
    assert length < eps / 9.0


def test_representative_rejects_outside_inner_disc():
    with pytest.raises(DomainError):
        build_representative(0.9 + 0j, 0.1 + 0j, 0, 1, 1.0, 2)
    with pytest.raises(DomainError):
        build_representative(0j, 0.001 + 0j, 0, 1, 1.0, 2)


def test_relative_winding_requires_shared_endpoints():
    a = winding_class(PolylineCurve([1.0 + 0j, 2.0 + 0j]), 0j)
    b = winding_class(PolylineCurve([1.0j, 2.0j]), 0j)
    with pytest.raises(DomainError):
        relative_winding(a, b)
