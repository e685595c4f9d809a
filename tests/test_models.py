"""Model surface densities and closed-form distances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyporb.errors import DomainError
from hyporb.models import (
    ConeDisc,
    Disc,
    PuncturedDisc,
    cone_circle_length,
    cone_disc_radial_distance,
    cone_radial_length,
    density,
    hyp_distance_disc,
)

LOG3 = 1.0986122886681098
PUNCTURED_AT_HALF = 2.8853900817779268  # 1 / (0.5 ln 2)
LOG19 = 2.9444389791664403


def test_density_examples():
    assert density(Disc(1.0), 0j) == 2.0
    assert abs(density(ConeDisc(2, 1.0), 0.25) - 8.0 / 3.0) < 1e-12
    assert abs(density(PuncturedDisc(), 0.5) - PUNCTURED_AT_HALF) < 1e-12


def test_density_domain_errors():
    with pytest.raises(DomainError):
        density(Disc(1.0), 1.0)
    with pytest.raises(DomainError):
        density(PuncturedDisc(), 0j)
    with pytest.raises(DomainError):
        density(PuncturedDisc(), 5e-13)
    with pytest.raises(DomainError):
        density(ConeDisc(2, 1.0), 0j)
    with pytest.raises(DomainError):
        density(ConeDisc(2, 1.0, 0.3), 0.3 + 1.5j)


def test_cone_order_one_degenerates_to_disc():
    for z in (0.1, 0.3 + 0.2j, -0.45j):
        for eps in (1.0, 0.7):
            got = density(ConeDisc(1, eps), z)
            want = density(Disc(eps), z)
            assert abs(got - want) <= 1e-12 * want


def test_cone_density_increases_to_puncture_limit():
    for m in (0.1, 0.35, 0.6, 0.9):
        target = density(PuncturedDisc(), m)
        prev = -math.inf
        k = 2
        while k <= 256:
            val = density(ConeDisc(k, 1.0), m)
            assert prev < val < target
            prev = val
            k *= 2


def test_cone_scaling_covariance():
    for k in (2, 3, 7):
        for eps in (0.5, 2.0):
            for z in (0.1 + 0.05j, -0.2j):
                got = density(ConeDisc(k, eps), z * eps)
                want = density(ConeDisc(k, 1.0), z) / eps
                assert abs(got - want) <= 1e-12 * want


def test_hyp_distance_examples():
    assert abs(hyp_distance_disc(0j, 0.5) - LOG3) < 1e-12
    assert hyp_distance_disc(0.3 + 0.2j, 0.3 + 0.2j) == 0.0
    w = (math.e - 1.0) / (math.e + 1.0)
    assert abs(hyp_distance_disc(0j, w) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        hyp_distance_disc(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
)
def test_hyp_distance_symmetry_and_triangle(a, b, c):
    dab = hyp_distance_disc(a, b)
    assert abs(dab - hyp_distance_disc(b, a)) <= 1e-10 * (1 + dab)
    assert dab <= hyp_distance_disc(a, c) + hyp_distance_disc(c, b) + 1e-10


def test_radial_distance_examples():
    assert abs(cone_disc_radial_distance(2, 0.25) - LOG3) < 1e-12
    assert abs(cone_disc_radial_distance(2, 0.81) - LOG19) < 1e-12
    # distance to the cone point is finite and vanishes with w
    assert cone_disc_radial_distance(2, 1e-10) < 3e-5
    with pytest.raises(DomainError):
        cone_disc_radial_distance(2, 1.5)


def test_radial_distance_matches_quadrature_oracle():
    # The radial density f has a t^((1-k)/k) singularity at t = 0.  After the
    # substitution t = s^k the integrand f(s^k) k s^(k-1) is smooth on
    # [0, w^(1/k)], so tanh-sinh converges quickly; the closed form is exact.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for k in (2, 3, 5):

            def f(t):
                return 2.0 / (k * t ** ((k - 1.0) / k) * (1.0 - t ** (2.0 / k)))

            for w in (0.2, 0.5, 0.8):
                oracle = mp.quad(lambda s: f(s**k) * k * s ** (k - 1), [0, mp.root(w, k)])
                assert abs(cone_disc_radial_distance(k, w) - float(oracle)) < 1e-9


def test_circle_length_monotone_in_radius():
    prev = 0.0
    for r in [0.01 * j for j in range(1, 99)]:
        val = cone_circle_length(2, 1.0, r)
        assert val > prev
        prev = val
    # shrinks to zero toward the cone point
    assert cone_circle_length(3, 1.0, 1e-20) < 1e-6


def test_radial_length_additivity():
    k, eps = 3, 1.0
    whole = cone_radial_length(k, eps, 0.0, 0.6)
    split = cone_radial_length(k, eps, 0.0, 0.3) + cone_radial_length(k, eps, 0.3, 0.6)
    assert abs(whole - split) < 1e-12
