"""The fast kernels against their plain loop versions, kept here as references.

Preimage de-duplication, the certified curve length and the candidate order
of expansion certificates were rewritten for speed without changing any
arithmetic, so each must agree with its reference exactly, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyporb.certify import (
    _nearest_first,
    certified_curve_length,
)
from hyporb.curves import PolylineCurve, polyline_point_distance, segment_point_distances
from hyporb.errors import DomainError
from hyporb.maps import _dedup
from hyporb.orbifolds import MarkedOrbifold, Surface

# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def dedup_reference(points, tol=1e-9):
    out = []
    for p in points:
        if all(abs(p - q) > tol for q in out):
            out.append(p)
    return out


def isolation_radius_reference(orb, index):
    p, _ = orb.marks[index]
    dist = orb.surface.boundary_distance(p)
    for j, (q, _) in enumerate(orb.marks):
        if j != index:
            dist = min(dist, abs(p - q))
    return dist


def _cone_density_arr_reference(k, eps, d):
    u = (d / eps) ** (1.0 / k)
    with np.errstate(divide="ignore"):
        return 2.0 / (k * eps ** (1.0 / k) * d ** ((k - 1.0) / k) * (1.0 - u * u))


def curve_length_reference(orb, curve, refinement=1e-3, mark_margin=1e-9, max_rounds=60,
                           tighten=1.02):
    """Per-mark loop kernel that bounds every piece in every round."""
    verts = curve.as_array()
    a_all = verts[:-1]
    b_all = verts[1:]
    keep = np.abs(b_all - a_all) > 0
    a = a_all[keep]
    b = b_all[keep]
    if a.size == 0:
        return 0.0

    marks = np.asarray([p for p, _ in orb.marks], dtype=complex)
    nus = np.asarray([nu for _, nu in orb.marks], dtype=float)
    iso = np.asarray([isolation_radius_reference(orb, i) for i in range(len(orb.marks))])
    iso = np.where(np.isfinite(iso), iso, 0.0)

    def piece_bounds(a_, b_):
        bdy = orb.surface.segment_boundary_distances(a_, b_)
        if np.any(bdy < mark_margin) or np.any(bdy <= 0):
            raise DomainError("curve touches the surface boundary")
        if marks.size:
            dmin = segment_point_distances(a_, b_, marks)
            dmax = np.maximum(np.abs(a_[:, None] - marks[None, :]),
                              np.abs(b_[:, None] - marks[None, :]))
            if np.any(dmin.min(axis=1) < mark_margin) or np.any(dmin.min(axis=1) <= 0):
                raise DomainError("curve touches a mark")
            clean = 2.0 / np.minimum(dmin.min(axis=1), bdy)
            sup = clean.copy()
            far = clean.copy()
            for j in range(marks.size):
                inside = dmax[:, j] < iso[j]
                if not np.any(inside):
                    continue
                k = nus[j]
                eps = iso[j]
                lo = dmin[inside, j]
                hi = dmax[inside, j]
                cone_sup = np.maximum(
                    _cone_density_arr_reference(k, eps, lo), _cone_density_arr_reference(k, eps, hi)
                )
                cone_far = _cone_density_arr_reference(k, eps, hi)
                sup[inside] = np.minimum(sup[inside], cone_sup)
                far[inside] = np.minimum(far[inside], cone_far)
            return sup, far
        return 2.0 / bdy, 2.0 / bdy

    total = 0.0
    for _ in range(max_rounds):
        lens = np.abs(b - a)
        sup, far = piece_bounds(a, b)
        split = (lens > refinement) | (sup > tighten * far)
        done = ~split
        total += float(np.sum(lens[done] * sup[done]))
        if not np.any(split):
            break
        a_s, b_s = a[split], b[split]
        mid = 0.5 * (a_s + b_s)
        a = np.concatenate([a_s, mid])
        b = np.concatenate([mid, b_s])
    else:
        lens = np.abs(b - a)
        sup, _ = piece_bounds(a, b)
        total += float(np.sum(lens * sup))
    return total


def nearest_first_reference(pts, z):
    return sorted(range(len(pts)), key=lambda i: (abs(pts[i] - z), pts[i].real, pts[i].imag))


def segment_point_distance(a, b, p):
    """Scalar distance from ``p`` to the segment ``[a, b]``."""
    d = b - a
    dd = d.real * d.real + d.imag * d.imag
    if dd == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / dd
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def polyline_point_distance_reference(curve, p):
    return min(
        segment_point_distance(a, b, p) for a, b in zip(curve.vertices, curve.vertices[1:])
    )


# ---------------------------------------------------------------------------
# Preimage de-duplication
# ---------------------------------------------------------------------------

# Coordinates on a quarter-tol lattice around a few magnitudes, so that pairs
# land exactly tol apart, straddle the hash cells, and form chains where
# keeping the first point decides what follows.
_TOLS = st.sampled_from([1e-9, 0.5, 1.0])
_BASES = st.sampled_from([0.0, -3.0, 1e3, -7.5e5, 1e7])


@st.composite
def _clustered_points(draw):
    tol = draw(_TOLS)
    base = complex(draw(_BASES), draw(_BASES))
    steps = st.integers(-12, 12)
    jitter = st.sampled_from([0.0, 1e-3, -1e-3])
    pts = draw(
        st.lists(
            st.tuples(steps, steps, jitter).map(
                lambda t: base + complex(tol * (t[0] / 4 + t[2]), tol * t[1] / 4)
            ),
            max_size=40,
        )
    )
    return pts, tol


@settings(max_examples=300, deadline=None)
@given(_clustered_points())
def test_dedup_matches_quadratic_loop(case):
    pts, tol = case
    assert _dedup(pts, tol) == dedup_reference(pts, tol)


def test_dedup_keeps_first_point_of_a_chain():
    tol = 1e-9
    chain = [0j, 0.9e-9 + 0j, 1.8e-9 + 0j, 2.7e-9 + 0j]
    # the second point falls to the first, so the third survives, which then
    # removes the fourth
    assert _dedup(chain, tol) == [0j, 1.8e-9 + 0j]
    assert _dedup(chain, tol) == dedup_reference(chain, tol)


# ---------------------------------------------------------------------------
# Mark geometry and the certified curve length
# ---------------------------------------------------------------------------


def _random_orbifold(rng, surface):
    while True:
        n = int(rng.integers(2, 8))
        pts = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        try:
            return MarkedOrbifold(
                surface,
                tuple((complex(p), int(rng.choice([2, 3, 4, 6]))) for p in pts),
            )
        except DomainError:
            continue  # a mark fell outside the surface: draw again


def _random_polyline(rng, orb):
    """Vertices near marks (inside and outside their isolation discs) and at random."""
    verts = []
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.6:
            i = int(rng.integers(len(orb.marks)))
            r = orb.isolation_radii[i] * rng.uniform(0.05, 1.6)
            if not math.isfinite(r):
                r = rng.uniform(0.05, 1.0)
            verts.append(orb.marks[i][0] + r * np.exp(2j * np.pi * rng.random()))
        else:
            verts.append(complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)))
    return PolylineCurve(verts)


_SURFACES = {
    "plane": Surface(),
    "disc": Surface(outer=(0.3 + 0.1j, 4.0)),
    "minus_discs": Surface(holes=((3.5 + 0j, 0.8), (-1.0 + 3.6j, 0.5))),
}


def _same_length_or_same_error(orb, curve, **kw):
    try:
        want = curve_length_reference(orb, curve, **kw)
    except DomainError:
        with pytest.raises(DomainError):
            certified_curve_length(orb, curve, **kw)
        return False
    got = certified_curve_length(orb, curve, **kw)
    assert got == want or (math.isnan(got) and math.isnan(want))
    return True


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_mark_geometry_matches_per_mark_loop(surface):
    rng = np.random.default_rng(7)
    orb = _random_orbifold(rng, _SURFACES[surface])
    assert "isolation_radii" not in vars(orb)  # computed on first use only
    radii = orb.isolation_radii
    assert list(radii) == [isolation_radius_reference(orb, i) for i in range(len(orb.marks))]
    assert list(orb.mark_array) == [p for p, _ in orb.marks]
    assert list(orb.mark_orders) == [float(nu) for _, nu in orb.marks]
    assert orb.isolation_radii is radii
    with pytest.raises(ValueError):
        radii[0] = 0.0


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_certified_length_matches_per_mark_loop(surface):
    rng = np.random.default_rng(2024)
    certified = 0
    for _ in range(12):
        orb = _random_orbifold(rng, _SURFACES[surface])
        for _ in range(4):
            curve = _random_polyline(rng, orb)
            refinement = float(rng.choice([0.2, 0.05, 0.01]))
            certified += _same_length_or_same_error(orb, curve, refinement=refinement)
    assert certified >= 30  # most random curves avoid the marks


def test_certified_length_matches_per_mark_loop_when_rounds_run_out():
    rng = np.random.default_rng(11)
    orb = _random_orbifold(rng, Surface())
    for _ in range(6):
        curve = _random_polyline(rng, orb)
        _same_length_or_same_error(orb, curve, refinement=0.01, max_rounds=4)


def test_certified_length_straddling_isolation_radius():
    # orders 2, 3, 4 and 6; each segment runs from deep inside one mark's
    # isolation disc to well outside it
    orb = MarkedOrbifold(
        Surface(outer=(0j, 10.0)),
        ((0j, 2), (2.0 + 0j, 3), (0.5 + 2.0j, 4), (-1.5 - 1.0j, 6)),
    )
    for i, (p, _) in enumerate(orb.marks):
        eps = orb.isolation_radii[i]
        for angle in (0.3, 1.9, 4.0):
            direction = np.exp(1j * angle)
            curve = PolylineCurve([p + 0.01 * eps * direction, p + 1.5 * eps * direction])
            for refinement in (0.1, 1e-3):
                assert _same_length_or_same_error(orb, curve, refinement=refinement)


# ---------------------------------------------------------------------------
# Point-to-polyline distance
# ---------------------------------------------------------------------------


def test_polyline_point_distance_matches_scalar_loop():
    # Within 2 ulps, not bit for bit: the kernel takes numpy's abs of complex
    # arrays, which may differ from abs() of a Python complex in the last bit
    # (it does on AVX-512 hosts).
    rng = np.random.default_rng(5)
    curves = [PolylineCurve.constant(0.4 - 1.1j)]
    for _ in range(150):
        n = int(rng.integers(2, 7))
        verts = [complex(v) for v in rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)]
        i = int(rng.integers(n))
        verts.insert(i, verts[i])  # a zero-length segment
        curves.append(PolylineCurve(verts))
    checked = 0
    for curve in curves:
        points = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(3)]
        for a, b in zip(curve.vertices, curve.vertices[1:]):
            s = rng.uniform(0.1, 2.0)
            points += [a - s * (b - a), b + s * (b - a)]  # beyond both ends
        for p in points:
            want = polyline_point_distance_reference(curve, p)
            got = polyline_point_distance(curve, p)
            assert abs(got - want) <= 2 * math.ulp(want), (curve.vertices, p)
            checked += 1
    assert checked > 1500


# ---------------------------------------------------------------------------
# Candidate order of expansion certificates
# ---------------------------------------------------------------------------

_COORD = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.25])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(complex, _COORD, _COORD), max_size=30),
    st.builds(complex, _COORD, _COORD),
    st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
             max_size=10),
)
def test_nearest_first_matches_sorted(lattice, z, scattered):
    # lattice points tie in distance, in real part and as duplicates
    pts = lattice + scattered + lattice[:5]
    got = [int(i) for i in _nearest_first(np.asarray(pts, dtype=complex), z)]
    assert got == nearest_first_reference(pts, z)


def test_nearest_first_orders_near_ties_like_sorted():
    # points on one circle about z: their distances differ only in the last
    # bits, so the order shows any change in how the distance is rounded
    z = 0.7 - 1.3j
    pts = [z + 3.0 * complex(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 6.0, 400)]
    got = [int(i) for i in _nearest_first(np.asarray(pts, dtype=complex), z)]
    assert got == nearest_first_reference(pts, z)
