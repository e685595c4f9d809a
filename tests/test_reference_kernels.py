"""The fast kernels against their plain loop versions, kept here as references.

The same-point rule (``PointSet``), the lattice preimages, surface
containment, the boundary set, the scan's supply slice, the certified curve
length, the point order (``maps.nearest_first``) and the bound chain were
rewritten for speed without changing any arithmetic, so each must agree with
its reference exactly, bit for bit.  So must the sites that now share one
rule: the branch seed of a pullback and the repelling fixed point, which
once had a sort key and a same-point tolerance of their own.  The branch
seed now compares a few lattice points per branch in place of every
preimage in its window, and must pick the point the full enumeration picks.  The annulus
count is exact: it must agree with the quadratic loop over closed annuli.
The circle radius of homotopy representatives and the Spearman tie ranks
were rewritten as closed forms, which must agree bit for bit with the loops
they replaced wherever those loops finish.  The length floor that lets
expansion certificates skip candidate paths is a bound instead: it must
never exceed the reference length, nor fall below the floor whose cone
terms are minima over whole isolation discs, kept here as a reference.  The
nearest candidates, picked without ordering every boundary point, must be
the start of the point order.  The pointwise density bound is now the
zero-length piece of the curve-length kernel: it must never exceed the
nearest-mark rule it replaced, kept here as a reference, beyond rounding.
The pullback decay rate is fitted by the closed-form least-squares slope
summed with ``fsum`` in place of ``np.polyfit``, kept here as a reference:
the two rates must agree to rounding, the new slope must be the exact slope
to an ulp or two, and every default pullback must report the same 12 digits.
"""

import cmath
import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyporb import bounds, certify
from hyporb.bounds import BoundChainResult, ChainViolation, default_w_grid
from hyporb.certify import (
    _RADIUS_FACTORS,
    _blocked,
    _cone_density_floor,
    _decay_rate,
    _length_floors,
    _local_isolation,
    _modulus_slice,
    _nearest,
    _path_segments,
    _segments,
    certified_curve_length,
    pullback_shrinking_experiment,
    spearman_rank_correlation,
    upper_density_bound,
)
from hyporb.cli import RunConfig
from hyporb.curves import PolylineCurve, polyline_point_distance, segment_point_distances
from hyporb.errors import DomainError, NotFound
from hyporb.homotopy import build_representative, choose_epsilon_n, epsilon_prime
from hyporb.maps import (
    _TWO_PI,
    SAME_POINT_TOL,
    PointSet,
    _cosh_bases,
    _k_range,
    _lattice_preimages,
    _pi_sinh_bases,
    evaluate,
    get_map,
    local_degree,
    nearest_first,
    nearest_preimage,
    postsingular_truncation,
)
from hyporb.models import cone_circle_length, cone_density, cone_density_formula
from hyporb.orbifolds import (
    _CIRCLE_SAMPLES,
    MarkedOrbifold,
    Surface,
    _circle,
    _newton_fixed_point,
    annulus_count,
    boundary_set,
    build_associated_orbifold,
    find_repelling_cycle,
)

# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def dedup_reference(points, tol=1e-9):
    out = []
    for p in points:
        if all(abs(p - q) > tol for q in out):
            out.append(p)
    return out


def find_reference(points, z, tol=1e-9):
    return next((i for i, q in enumerate(points) if abs(z - q) <= tol), None)


def annulus_count_reference(points, K):
    """Points in the closed annulus m <= |z| <= K m, at best over the nonzero moduli m."""
    moduli = [abs(p) for p in points]
    return max((sum(1 for q in moduli if m <= q <= K * m) for m in moduli if m > 0), default=0)


def repelling_cycle_reference(map_spec, exclude, seed_box=(1.0 + 4.0j, 4.0 + 9.0j)):
    """``find_repelling_cycle`` with the 1e-8 same-point test it had before ``PointSet``.

    Returns the cycle and the accepted fixed points.
    """
    lo, hi = seed_box
    found = []
    for re in np.linspace(lo.real, hi.real, 12):
        for im in np.linspace(lo.imag, hi.imag, 12):
            z = _newton_fixed_point(map_spec, complex(re, im))
            if z is None or abs(map_spec.deriv(z)) <= 1.0 + 1e-6:
                continue
            if any(abs(z - q) < 1e-6 for q in exclude):
                continue
            if all(abs(z - f) > 1e-8 for f in found):
                found.append(z)
    return [min(found, key=lambda z: (abs(z), z.real, z.imag))], found


# the branch bases of each catalogue map, as ``EntireMapSpec.preimages`` forms them
_MAP_BASES = {
    "cosh": _cosh_bases,
    "pi_sinh": _pi_sinh_bases,
    "cosh_minus_one": lambda v: _cosh_bases(v + 1.0),
}


def lattice_preimages_reference(bases, r_max):
    pts = []
    for base in bases:
        for k in _k_range(base.imag, r_max):
            z = base + _TWO_PI * 1j * k
            if abs(z) <= r_max + 1e-9:
                pts.append(z)
    pts = PointSet(pts).points
    pts.sort(key=lambda z: (abs(z), z.real, z.imag))
    return pts


def contains_reference(surface, z):
    if surface.outer is not None and not abs(z - surface.outer[0]) < surface.outer[1]:
        return False
    return all(abs(z - c) > r for c, r in surface.holes)


def boundary_set_reference(name, lift, base, r_max):
    """Per point: scalar containment, local degree and base ramification."""
    spec = get_map(name)
    pts = []
    for value, nu_value in base.marks:
        for z in lattice_preimages_reference(_MAP_BASES[name](value), r_max):
            if contains_reference(base.surface, z) and contains_reference(lift.surface, z):
                deg = local_degree(spec, z)
                assert nu_value % deg == 0
                if nu_value // deg > base.ramification(z):
                    pts.append(z)
    for c, r in lift.surface.holes:
        if any(abs(c - cb) <= SAME_POINT_TOL and abs(r - rb) <= 1e-12
               for cb, rb in base.surface.holes):
            continue
        for z in _circle(c, r, _CIRCLE_SAMPLES):
            if abs(z) <= r_max and contains_reference(base.surface, z):
                pts.append(z)
    pts.sort(key=lambda z: (abs(z), z.real, z.imag))
    return pts


def bound_chain_reference(w_grid, k_set):
    """The chain one sample at a time: a ratio_cone_over_disc call and three checks per (w, k).

    Names resolve in ``bounds`` at call time, so a patched formula reaches both versions.
    """
    k_list = sorted(set(int(k) for k in k_set))
    if any(k < 2 for k in k_list):
        raise DomainError("cone orders must be >= 2")
    samples = []
    violations = []
    worst = -math.inf

    def check(lhs, rhs, w, k, what):
        nonlocal worst
        short = lhs - rhs
        worst = max(worst, short)
        if not short <= 1e-10:  # a nan shortfall was never checked
            violations.append(ChainViolation(w, k, what, short))

    for w in w_grid:
        R = bounds.R_of_w(w)
        lo = bounds.lambda_lower(R)
        up = bounds.ratio_upper(R)
        punct = bounds.ratio_puncture_over_disc(w)
        prev = None
        for k in k_list:
            r = bounds.ratio_cone_over_disc(k, w)
            samples.append((w, k))
            check(lo, r, w, k, "lambda_lower <= ratio_cone")
            if prev is not None:
                check(prev, r, w, k, "ratio_cone(k) <= ratio_cone(k+1)")
            check(r, punct, w, k, "ratio_cone <= ratio_puncture")
            prev = r
        samples.append((w, None))
        check(punct, up, w, None, "ratio_puncture <= ratio_upper")
    return BoundChainResult(samples=samples, violations=violations, worst_slack=worst)


def _bits(points):
    """Each point's parts as hex strings: equal lists are equal bit for bit, signed zeros too."""
    return [(z.real.hex(), z.imag.hex()) for z in points]


def isolation_radius_reference(orb, index):
    p, _ = orb.marks[index]
    dist = orb.surface.boundary_distance(p)
    for j, (q, _) in enumerate(orb.marks):
        if j != index:
            dist = min(dist, abs(p - q))
    return dist


def density_bound_reference(orb, z):
    """The nearest-mark rule ``upper_density_bound`` followed before it became
    the zero-length piece of ``certify._piece_bounds``.

    Inside the isolation disc of the nearest mark it takes that mark's cone
    density; elsewhere the largest mark-free disc about ``z``.
    """
    z = complex(z)
    if not orb.contains(z):
        raise DomainError(f"{z!r} lies outside the surface")
    b_dist = orb.surface.boundary_distance(z)
    if not orb.marks:
        if not math.isfinite(b_dist):
            raise DomainError("mark-free plane is not hyperbolic")
        return 2.0 / b_dist
    dists = [abs(z - p) for p, _ in orb.marks]
    i = int(np.argmin(dists))
    _, nu = orb.marks[i]
    if dists[i] <= 1e-12:
        raise DomainError(f"{z!r} is numerically at a mark")
    eps = float(orb.isolation_radii[i])
    if not math.isfinite(eps):
        raise DomainError("no finite witness disc around the only mark")
    if dists[i] < eps:
        return cone_density(nu, eps, dists[i])
    delta = min(dists[i], b_dist)
    if not math.isfinite(delta):
        raise DomainError("unbounded mark-free region: no witness disc")
    return 2.0 / delta


def _cone_density_arr_reference(k, eps, d):
    u = (d / eps) ** (1.0 / k)
    with np.errstate(divide="ignore"):
        return 2.0 / (k * eps ** (1.0 / k) * d ** ((k - 1.0) / k) * (1.0 - u * u))


def curve_length_reference(orb, curve, refinement=1e-3, mark_margin=1e-9, max_rounds=60,
                           tighten=1.02):
    """Per-mark loop kernel that bounds every piece in every round."""
    if not orb.hyperbolic:
        raise DomainError("the orbifold is not hyperbolic")
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
            dmin = segment_point_distances(a_, b_, marks).T
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


def choose_epsilon_n_reference(n: int, eps: float, d: int) -> float:
    """Largest radius whose full circle costs less than eps/(18 (n+1)).

    The circle length 2*pi*r*rho(r) is strictly monotone (shrinking to 0
    with the radius), so bisection applies; the returned radius satisfies
    the target with a 0.99 margin.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if eps <= 0 or d < 1:
        raise DomainError("need eps > 0 and d >= 1")
    target = 0.99 * eps / (18.0 * (n + 1))
    lo, hi = 0.0, eps * (1.0 - 1e-12)
    if cone_circle_length(d, eps, hi) <= target:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if cone_circle_length(d, eps, mid) < target:
            lo = mid
        else:
            hi = mid
    if lo == 0.0 or cone_circle_length(d, eps, lo) >= target:
        raise DomainError("bisection failed to certify a circle radius")
    return lo


def spearman_reference(xs: list[float], ys: list[float]) -> float:
    """Spearman rho with average ranks for ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise DomainError("need two sequences of equal length >= 2")

    def ranks(vals: list[float]) -> np.ndarray:
        order = np.argsort(vals, kind="stable")
        r = np.empty(len(vals))
        sorted_vals = np.asarray(vals)[order]
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            r[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


# ---------------------------------------------------------------------------
# The same-point rule
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
    kept = PointSet(pts, tol)
    assert kept.points == dedup_reference(pts, tol)
    for z in pts + [z + complex(tol, -tol) / 2 for z in pts]:
        assert kept.find(z) == find_reference(kept.points, z, tol)


def test_dedup_keeps_first_point_of_a_chain():
    tol = 1e-9
    chain = [0j, 0.9e-9 + 0j, 1.8e-9 + 0j, 2.7e-9 + 0j]
    # the second point falls to the first, so the third survives, which then
    # removes the fourth
    kept = PointSet(chain, tol)
    assert kept.points == [0j, 1.8e-9 + 0j]
    assert kept.points == dedup_reference(chain, tol)
    # add returns the index of the earliest kept point within tol
    assert [kept.add(z) for z in chain] == [0, 0, 1, 1]
    assert kept.points == [0j, 1.8e-9 + 0j]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            # moduli on a power-of-two ladder: many equal, or exactly K apart
            st.builds(lambda e, s: complex(2.0**e * s, 0.0), st.integers(-4, 8),
                      st.sampled_from([1.0, -1.0, 1.5])),
        ),
        max_size=30,
    ),
    st.sampled_from([1.5, 2.0, 4.0, 10.0]),
)
def test_annulus_count_matches_quadratic_loop(points, K):
    # add points exactly on the closed ends of the annuli whose inner or outer
    # circle passes through one of the first points
    ends = [e for m in (abs(p) for p in points[:2]) for e in (K * m, m / K)]
    points = points + [complex(e, 0.0) for e in ends]
    assert annulus_count(points, K) == annulus_count_reference(points, K)


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


def _cutoff_gives_inf_or_same_length(orb, curve, **kw):
    """``inf`` when the reference length reaches the cutoff, else the same length."""
    try:
        want = curve_length_reference(orb, curve, **kw)
    except DomainError:
        for cutoff in (0.0, 1e-6, math.inf):
            with pytest.raises(DomainError):
                certified_curve_length(orb, curve, cutoff=cutoff, **kw)
        return False
    assert 0.0 < want < math.inf
    for cutoff in (want, math.nextafter(want, math.inf), want / 2, 2 * want):
        got = certified_curve_length(orb, curve, cutoff=cutoff, **kw)
        assert got == (math.inf if want >= cutoff else want), (want, cutoff, got)
    return True


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_mark_geometry_matches_per_mark_loop(surface):
    rng = np.random.default_rng(7)
    orb = _random_orbifold(rng, _SURFACES[surface])
    assert "isolation_radii" not in vars(orb)  # computed on first use only
    assert "cone_groups" not in vars(orb)
    radii = orb.isolation_radii
    assert list(radii) == [isolation_radius_reference(orb, i) for i in range(len(orb.marks))]
    assert list(orb.mark_array) == [p for p, _ in orb.marks]
    assert list(orb.mark_orders) == [float(nu) for _, nu in orb.marks]
    assert orb.isolation_radii is radii
    with pytest.raises(ValueError):
        radii[0] = 0.0

    groups = orb.cone_groups
    assert orb.cone_groups is groups
    want = []
    for k in sorted({nu for _, nu in orb.marks}):
        cols = [i for i, (_, nu) in enumerate(orb.marks)
                if nu == k and math.isfinite(isolation_radius_reference(orb, i))]
        if cols:
            eps = [isolation_radius_reference(orb, i) for i in cols]
            want.append((k, cols, eps, [e ** (1.0 / k) for e in eps]))
    assert [(k, list(c), list(e), list(r)) for k, c, e, r in groups] == want
    for _, *arrays in groups:
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0


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


# Per surface, a segment that leaves it (the plane has no boundary).
_LEAVING = {
    "plane": [],
    "disc": [PolylineCurve([0.3 + 0.1j, 5.0 + 0.1j])],
    "minus_discs": [PolylineCurve([2.0 + 0.05j, 5.0 + 0.05j])],
}


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_cutoff_returns_inf_or_the_same_length(surface):
    rng = np.random.default_rng(99)
    certified = rejected = 0
    for _ in range(8):
        orb = _random_orbifold(rng, _SURFACES[surface])
        p = orb.marks[0][0]
        curves = [_random_polyline(rng, orb) for _ in range(4)]
        curves += [PolylineCurve([p - 0.01, p + 0.01])] + _LEAVING[surface]
        for curve in curves:
            refinement = float(rng.choice([0.2, 0.05, 0.01]))
            ok = _cutoff_gives_inf_or_same_length(orb, curve, refinement=refinement)
            certified += ok
            rejected += not ok
    assert certified >= 15
    assert rejected >= 8  # at least the segment through a mark, per orbifold
    point = PolylineCurve([0.1 + 0.2j, 0.1 + 0.2j])  # length 0
    assert certified_curve_length(orb, point, cutoff=1e-300) == 0.0
    assert certified_curve_length(orb, point, cutoff=0.0) == math.inf


def test_cutoff_returns_inf_or_the_same_length_when_rounds_run_out():
    rng = np.random.default_rng(11)
    orb = _random_orbifold(rng, Surface())
    certified = 0
    for _ in range(6):
        curve = _random_polyline(rng, orb)
        certified += _cutoff_gives_inf_or_same_length(orb, curve, refinement=0.01, max_rounds=4)
    assert certified >= 3


# Mark-free orbifolds: the witness is the largest clean disc, 2 / (boundary distance).
_MARK_FREE = {
    "disc": Surface(outer=(0j, 2.0)),
    "minus_discs": Surface(holes=((3.0 + 0j, 1.0), (-2j, 0.5))),
    "disc_minus_disc": Surface(outer=(0.2 + 0.1j, 3.0), holes=((1.0 - 0.5j, 0.6),)),
}


@pytest.mark.parametrize("surface", sorted(_MARK_FREE))
def test_certified_length_matches_per_mark_loop_without_marks(surface):
    rng = np.random.default_rng(19)
    orb = MarkedOrbifold(_MARK_FREE[surface], ())
    certified = 0
    for _ in range(30):
        verts, count = [], int(rng.integers(2, 6))
        while len(verts) < count:
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if orb.contains(z):
                verts.append(z)
        curve = PolylineCurve(verts)
        a, b = np.asarray(verts[:-1]), np.asarray(verts[1:])
        bdy = orb.surface.segment_boundary_distances(a, b)
        for margin in (1e-9, 0.0):  # the homotopy command passes 0.0
            assert np.array_equal(_blocked(orb, a, b, margin), (bdy < margin) | (bdy <= 0))
        refinement = float(rng.choice([0.2, 0.05]))
        if _same_length_or_same_error(orb, curve, refinement=refinement):
            _cutoff_gives_inf_or_same_length(orb, curve, refinement=refinement)
            certified += 1
    assert certified >= 20  # some segments cross a hole or leave the disc


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


def _random_points(rng, orb, count):
    """Points near marks (inside and outside their isolation discs), at random,
    at the marks themselves and a hair away from them."""
    pts = []
    for _ in range(count):
        i = int(rng.integers(len(orb.marks))) if orb.marks else None
        draw = rng.random()
        if i is None or draw < 0.3:
            pts.append(complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)))
        elif draw < 0.9:
            r = orb.isolation_radii[i] * rng.uniform(0.02, 1.5)
            pts.append(orb.marks[i][0] + r * np.exp(2j * np.pi * rng.random()))
        else:
            pts.append(orb.marks[i][0] + rng.choice([0.0, 1e-13, 1e-11]))
    return pts


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_density_bound_is_at_most_the_nearest_mark_rule(surface):
    # the kernel takes the least witness that holds the point, the reference
    # the nearest mark's cone whenever one holds it; 1e-12 allows for the
    # 1 - u^2 cancellation of the cone formula near an isolation rim, where
    # array and scalar pow differ in the last bit
    rng = np.random.default_rng(31)
    bounded = tighter = 0
    for _ in range(40):
        orb = _random_orbifold(rng, _SURFACES[surface])
        if not orb.hyperbolic:
            continue
        for z in _random_points(rng, orb, 40):
            try:
                want = density_bound_reference(orb, z)
            except DomainError:
                with pytest.raises(DomainError):
                    upper_density_bound(orb, z)
                continue
            got = upper_density_bound(orb, z)
            assert got <= want * (1.0 + 1e-12), (orb, z)
            bounded += 1
            tighter += got < want * (1.0 - 1e-12)
    assert bounded >= 1000
    assert tighter > 0


def test_density_bound_takes_the_clean_disc_at_the_rim_of_an_isolation_disc():
    # -2.999 lies in the isolation disc (radius 3) of the mark at 0, nearly on
    # its rim, where that cone is far above the mark-free disc of radius 2.999
    orb = MarkedOrbifold(Surface(outer=(0j, 10.0)), ((0j, 2), (3.0 + 0j, 2)))
    assert density_bound_reference(orb, -2.999) == pytest.approx(1000.1667, rel=1e-7)
    assert upper_density_bound(orb, -2.999) == pytest.approx(2.0 / 2.999, rel=1e-12)


# A homotopy representative runs its pieces round a small circle about its
# one cone point, few enough that one _piece_bounds call bounds several
# bisection levels: each level is replayed from that call's bounds.
def _representative(d, n):
    ep = epsilon_prime(1.0, d)
    p, q = 0.8 * ep * cmath.exp(0.3j), 0.6 * ep * cmath.exp(-1.1j)
    orb = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, d),))
    return orb, build_representative(p, q, n, 1, 1.0, d)


def _recorded_lookahead(monkeypatch):
    """Per call of ``_lookahead_depth``: (levels it chose, levels with 60 rounds left)."""
    calls = []
    depth_of = certify._lookahead_depth

    def recorded(cells, rounds_left):
        calls.append((depth_of(cells, rounds_left), depth_of(cells, 60)))
        return calls[-1][0]

    monkeypatch.setattr(certify, "_lookahead_depth", recorded)
    return calls


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("n", [0, 5, 10])
def test_certified_length_matches_per_mark_loop_with_lookahead(d, n, monkeypatch):
    orb, rep = _representative(d, n)
    calls = _recorded_lookahead(monkeypatch)
    assert _same_length_or_same_error(orb, rep, refinement=1.0, mark_margin=0.0)
    assert max(levels for levels, _ in calls) > 1


def test_certified_length_matches_per_mark_loop_when_rounds_run_out_in_a_lookahead(monkeypatch):
    orb, rep = _representative(3, 5)
    calls = _recorded_lookahead(monkeypatch)
    for max_rounds in range(1, 25):
        assert _same_length_or_same_error(orb, rep, refinement=1.0, mark_margin=0.0,
                                          max_rounds=max_rounds)
    assert any(levels < free for levels, free in calls)  # a lookahead cut at max_rounds


@pytest.mark.parametrize("d", [2, 3, 6])
def test_cutoff_inside_a_lookahead_returns_inf_or_the_same_length(d):
    # the 32 cutoffs are reached in many rounds, many of them replayed ones
    orb, rep = _representative(d, 10)
    want = curve_length_reference(orb, rep, refinement=1.0, mark_margin=0.0)
    for cutoff in [want * j / 32 for j in range(1, 33)] + [math.nextafter(want, math.inf)]:
        got = certified_curve_length(orb, rep, refinement=1.0, mark_margin=0.0, cutoff=cutoff)
        assert got == (math.inf if want >= cutoff else want), (want, cutoff, got)


def test_certified_length_matches_per_mark_loop_with_a_lookahead_after_mixed_rounds(monkeypatch):
    # two cone groups; the short segment is bounded in the first round while
    # the long one only splits, and once every piece is short one
    # _piece_bounds call bounds several levels
    orb = MarkedOrbifold(_SURFACES["disc"], ((0j, 2), (1.5 + 0j, 3)))
    assert len(orb.cone_groups) == 2
    curve = PolylineCurve([0.05 + 0.02j, 0.25 + 0.1j, 1.0 - 0.6j])
    short, long_ = np.abs(np.diff(curve.as_array()))
    assert short <= 0.3 < long_
    calls = _recorded_lookahead(monkeypatch)
    assert _same_length_or_same_error(orb, curve, refinement=0.3)
    assert _cutoff_gives_inf_or_same_length(orb, curve, refinement=0.3)
    assert max(levels for levels, _ in calls) > 1


# ---------------------------------------------------------------------------
# Length floors of candidate paths
# ---------------------------------------------------------------------------


def _floors(orb, paths, margin):
    """``_length_floors`` of the paths, from their segment table with ``margin``."""
    return _length_floors(orb, _path_segments(orb, paths, margin))


def _straddling_curves(orb, rng):
    """Segments from deep inside a mark's isolation disc to outside it."""
    curves = []
    for i, (p, _) in enumerate(orb.marks):
        eps = orb.isolation_radii[i]
        if math.isfinite(eps):
            direction = np.exp(2j * np.pi * rng.random())
            curves.append(PolylineCurve([p + 0.01 * eps * direction, p + 1.5 * eps * direction]))
    return curves


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_length_floor_is_below_certified_length(surface, monkeypatch):
    # the floor must not exceed the certified length whatever the refinement:
    # final pieces finer than the floor's, coarser ones (0.5), and when the
    # rounds run out
    rng = np.random.default_rng(31)
    compared = raised = 0
    for _ in range(10):
        orb = _random_orbifold(rng, _SURFACES[surface])
        curves = [_random_polyline(rng, orb) for _ in range(4)] + _straddling_curves(orb, rng)
        paths = [curve.vertices for curve in curves]
        floors = _floors(orb, paths, 1e-9)
        # one call for all paths gives each path the floor it gets alone
        assert floors == [_floors(orb, [path], 1e-9)[0] for path in paths]
        # each cone term is the minimum over the piece's distances, never
        # below the one over the whole disc
        whole = _whole_disc_floors(orb, paths, 1e-9, monkeypatch)
        assert all(f >= w for f, w in zip(floors, whole)), (floors, whole)
        raised += sum(f > w for f, w in zip(floors, whole))
        for curve, floor in zip(curves, floors):
            path_len = sum(abs(b - a) for a, b in zip(curve.vertices, curve.vertices[1:]))
            for kw in ({"refinement": 1e-3}, {"refinement": path_len / 256.0},
                       {"refinement": 0.5}, {"refinement": 0.01, "max_rounds": 4}):
                try:
                    want = curve_length_reference(orb, curve, **kw)
                except DomainError:
                    assert floor == 0.0  # never skipped, so the rejection is seen
                    continue
                assert 0.0 < floor <= want, (curve.vertices, kw, floor, want)
                compared += 1
    assert compared >= 150 and raised >= 20, (compared, raised)


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_length_floor_is_zero_exactly_for_rejected_paths(surface):
    rng = np.random.default_rng(8)
    rejected = 0
    for _ in range(8):
        orb = _random_orbifold(rng, _SURFACES[surface])
        p = orb.marks[0][0]
        curves = [_random_polyline(rng, orb) for _ in range(4)]
        curves += [PolylineCurve([p - 0.01, p + 0.01])] + _LEAVING[surface]
        for margin in (1e-9, 0.05):
            floors = _floors(orb, [curve.vertices for curve in curves], margin)
            for curve, floor in zip(curves, floors):
                try:
                    certified_curve_length(orb, curve, mark_margin=margin, max_rounds=1)
                except DomainError:
                    assert floor == 0.0
                    rejected += 1
                else:
                    assert floor > 0.0
    assert rejected >= 16


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_path_segments_match_a_loop_over_paths(surface):
    rng = np.random.default_rng(12)
    for _ in range(8):
        orb = _random_orbifold(rng, _SURFACES[surface])
        p = orb.marks[0][0]
        paths = [_random_polyline(rng, orb).vertices for _ in range(5)]
        paths += [[p - 0.01, p + 0.01], [0.5j, 0.5j, 1.0 + 0.5j, 1.0 + 0.5j]]
        paths += [curve.vertices for curve in _LEAVING[surface]]
        a, b, ids, rejected = _path_segments(orb, paths, 1e-9)
        want_a, want_b, want_ids, want_rejected = [], [], [], []
        for i, path in enumerate(paths):
            a_i, b_i = _segments(np.asarray(path, dtype=complex))
            want_a += a_i.tolist()
            want_b += b_i.tolist()
            want_ids += [i] * a_i.size
            want_rejected.append(bool(_blocked(orb, a_i, b_i, 1e-9).any()))
        assert _bits(a.tolist()) == _bits(want_a) and _bits(b.tolist()) == _bits(want_b)
        assert ids.tolist() == want_ids and rejected.tolist() == want_rejected


def test_length_floor_of_mark_free_or_zero_length_paths_is_zero():
    disc = MarkedOrbifold(Surface(outer=(0j, 2.0)), ())
    assert _floors(disc, [[0j, 1.0 + 0j], [0.5j, 0.5j]], 1e-9) == [0.0, 0.0]
    orb = MarkedOrbifold(Surface(), ((0j, 2), (3.0 + 0j, 3)))
    assert _floors(orb, [[1.0 + 1j, 1.0 + 1j], [1.0 + 1j, 2.0 + 1j]], 1e-9)[0] == 0.0


def _cone_density_min(k, eps):
    """Minimum over 0 < d < eps of the one-cone density, lowered by 1e-13 relative.

    The floor's cone term before it took each piece's own distance range.
    """
    s = (k - 1.0) / (k + 1.0)
    return (2.0 - 2e-13) / (k * eps * s ** ((k - 1.0) / 2.0) * (1.0 - s))


def _whole_disc_floors(orb, paths, margin, monkeypatch):
    """``_floors`` with the whole-disc cone minimum in place of the range one."""
    with monkeypatch.context() as m:
        m.setattr(certify, "_cone_density_floor",
                  lambda k, eps, eps_root, lo, hi: np.where(lo < eps, _cone_density_min(k, eps), np.inf))
        return _floors(orb, paths, margin)


def _cone_densities_in(k, e, lo, hi):
    """The density on a fine grid over [max(lo, 0+), min(hi, e)), its ends and about the minimiser."""
    d_star = e * ((k - 1.0) / (k + 1.0)) ** (k / 2.0)
    start, stop = max(lo, 1e-9 * e), min(hi, np.nextafter(e, 0.0))
    grid = np.concatenate([
        np.linspace(start, stop, 20001),
        d_star * (1.0 + np.linspace(-1e-5, 1e-5, 2001)),
    ])
    grid = grid[(grid >= start) & (grid <= stop)]
    with np.errstate(divide="ignore"):
        return cone_density_formula(float(k), e, e ** (1.0 / k), grid)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_cone_density_min_is_the_minimum_over_the_disc(k):
    # the floor over the whole disc is the reference's minimum
    for e in np.geomspace(1e-4, 1e3, 15):
        got = float(_cone_density_floor(float(k), e, e ** (1.0 / k), 0.0, e))
        want = float(_cone_density_min(float(k), e))
        density = _cone_densities_in(k, e, 0.0, e)
        assert max(got, want) <= density.min()
        assert density.min() - min(got, want) <= 1e-12 * density.min()


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_cone_density_floor_is_the_minimum_over_the_range(k):
    u = (k - 1.0) / (k + 1.0)
    checked = 0
    for e in np.geomspace(1e-4, 1e3, 15):
        root = e ** (1.0 / k)
        d_star = e * u ** (k / 2.0)
        # range ends from below 0 to beyond eps, on both sides of the
        # minimiser; the lower ones stay at most halfway from it to eps,
        # where 1 - s cancels few digits
        lows = [-0.5 * e, 0.0, 0.2 * d_star, 0.9 * d_star, d_star, 1.1 * d_star, 0.5 * (d_star + e)]
        assert float(_cone_density_floor(float(k), e, root, e, 1.5 * e)) == math.inf
        for lo in lows:
            for hi in lows + [0.999 * e, e, 1.5 * e]:
                if hi <= lo or hi <= 0.0:
                    continue
                got = float(_cone_density_floor(float(k), e, root, lo, hi))
                assert got <= _cone_densities_in(k, e, lo, hi).min(), (e, lo, hi)
                # the density at the point of the range nearest the minimiser
                at = cone_density_formula(float(k), e, root, min(max(d_star, lo), hi))
                assert 0.0 < at - got <= 2e-13 * at, (e, lo, hi)
                checked += 1
    assert checked == 15 * 41


# ---------------------------------------------------------------------------
# Lattice preimages, containment and the boundary set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_MAP_BASES))
def test_lattice_preimages_match_point_set_loop(name):
    spec = get_map(name)
    rng = np.random.default_rng(sorted(_MAP_BASES).index(name))
    fixed = [1.0 + 0j, -1.0 + 0j, 0j, -2.0 + 0j, 1j * math.pi, -1j * math.pi, 2.0 + 1j, 1e-300 + 0j]
    cases = [(v, r_max) for v in fixed for r_max in (0.5, 3.0, 7000.0)]
    scattered = rng.uniform(-30.0, 30.0, 40) + 1j * rng.uniform(-30.0, 30.0, 40)
    radii = np.exp(rng.uniform(math.log(0.5), math.log(7000.0), 40))
    cases += [(complex(v), float(r_max)) for v, r_max in zip(scattered, radii)]
    counts = {}
    for value, r_max in cases:
        want = lattice_preimages_reference(_MAP_BASES[name](value), r_max)
        assert _bits(spec.preimages(value, r_max)) == _bits(want), (value, r_max)
        counts[value, r_max] = len(want)
    # at a critical value the two branches meet, so half the points are
    # dropped as repeats (the real part of -acosh(-1) is -0.0)
    for value, _ in spec.critical_value_witnesses:
        assert counts[value, 7000.0] < 0.6 * counts[2.0 + 1j, 7000.0]


_ON_CIRCLE = Surface(holes=((1.0 + 1.0j, 0.5), (-2.0 + 0j, 0.25)), outer=(0.5 + 0.25j, 4.0))


@pytest.mark.parametrize("surface", [*_SURFACES.values(), _ON_CIRCLE],
                         ids=[*_SURFACES, "on_circle"])
def test_surface_contains_array_matches_scalar_loop(surface):
    rng = np.random.default_rng(11)
    pts = [complex(z) for z in rng.uniform(-5.0, 5.0, 400) + 1j * rng.uniform(-5.0, 5.0, 400)]
    # exactly on each circle, and one ulp to either side
    for c, r in surface.holes + ((surface.outer,) if surface.outer else ()):
        for x in (c.real + r, c.real - r):
            pts += [complex(math.nextafter(x, d), c.imag) for d in (-math.inf, x, math.inf)]
        pts.append(complex(c.real, c.imag + r))
    pts += [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 1.0)]
    want = [contains_reference(surface, z) for z in pts]
    assert surface.contains(np.asarray(pts, dtype=complex)).tolist() == want
    assert [bool(surface.contains(z)) for z in pts] == want
    assert surface.contains(np.empty((0,), dtype=complex)).shape == (0,)


@pytest.mark.parametrize("name", sorted(_MAP_BASES))
def test_boundary_set_matches_per_point_loop(name, request):
    # the cosh_minus_one lift removes 39 discs, whose circles add boundary points
    base, lift = request.getfixturevalue(f"{name}_pair")
    for r_max in (8.0, 120.0, 800.0, 6963.2):
        want = boundary_set_reference(name, lift, base, r_max)
        got = boundary_set(get_map(name), lift, base, r_max)
        assert want and _bits(got) == _bits(want), r_max


def test_modulus_slice_matches_comprehension(cosh_map, cosh_pair):
    # the scan's supply at every scale from 2^2 to 2^10, with points exactly
    # on and one ulp beyond both ends of each slice
    base, lift = cosh_pair
    scales = [2.0**e for e in range(2, 11)]
    shared = boundary_set(cosh_map, lift, base, 4.0 * max(scales) * max(_RADIUS_FACTORS))
    ends = [(t / 8.0, 4.0 * t * max(_RADIUS_FACTORS)) for t in scales]
    extra = [
        p
        for r_lo, r_hi in ends
        for r in (r_lo, r_hi)
        for x in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf))
        for p in (complex(x, 0.0), complex(-x, 0.0), complex(0.0, x))
    ]
    points = sorted(shared + extra, key=lambda z: (abs(z), z.real, z.imag))
    for r_lo, r_hi in ends:
        want = [p for p in points if r_lo <= abs(p) <= r_hi]
        assert _modulus_slice(points, r_lo, r_hi) == want
        assert complex(r_lo, 0.0) in want and complex(0.0, r_hi) in want
        assert _modulus_slice(shared, r_lo, r_hi) == [p for p in shared if r_lo <= abs(p) <= r_hi]


# ---------------------------------------------------------------------------
# Point-to-polyline distance
# ---------------------------------------------------------------------------


def test_polyline_point_distance_matches_scalar_loop():
    # Within 2 ulps, not bit for bit: the kernel takes numpy's abs of complex
    # arrays, which may differ from abs() of a Python complex in the last bit
    # (it does on AVX-512 hosts).
    rng = np.random.default_rng(5)
    curves = [PolylineCurve([0.4 - 1.1j, 0.4 - 1.1j])]
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


def test_local_isolation_matches_scalar_abs():
    # bit for bit: the margin of every certificate derives from it
    rng = np.random.default_rng(3)
    for surface in _SURFACES.values():
        for _ in range(20):
            orb = _random_orbifold(rng, surface)
            for z in rng.uniform(-3.0, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50):
                z = complex(z)
                assert _local_isolation(orb, z) == min(abs(p - z) for p, _ in orb.marks)


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
    got = [int(i) for i in nearest_first(pts, z)]
    assert got == nearest_first_reference(pts, z)


def test_nearest_first_orders_near_ties_like_sorted():
    # points on one circle about z: their distances differ only in the last
    # bits, so the order shows any change in how the distance is rounded
    z = 0.7 - 1.3j
    pts = [z + 3.0 * complex(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 6.0, 400)]
    got = [int(i) for i in nearest_first(np.asarray(pts, dtype=complex), z)]
    assert got == nearest_first_reference(pts, z)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(complex, _COORD, _COORD), max_size=30),
    st.builds(complex, _COORD, _COORD),
    st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
             max_size=10),
    st.integers(1, 16),
)
def test_nearest_k_is_the_start_of_nearest_first(lattice, z, scattered, k):
    # lattice points tie in distance, also at the k-th one, and as duplicates
    pts = np.asarray(lattice + scattered + lattice[:5], dtype=complex)
    dist = np.hypot(pts.real - z.real, pts.imag - z.imag)
    assert _nearest(pts, dist, z, k).tolist() == nearest_first(pts, z)[:k].tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(complex, _COORD, _COORD), max_size=30),
    st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
             max_size=10),
)
def test_nearest_first_about_zero_matches_lexsort_by_modulus(lattice, scattered):
    # the inline form the lattice preimages and boundary_set sorted with
    signed_zeros = [complex(-0.0, 1.0), 1j, complex(-0.0, -0.0), 0j, complex(2.0, -0.0)]
    pts = np.asarray(lattice + signed_zeros + scattered + lattice[:5], dtype=complex)
    want = np.lexsort((pts.imag, pts.real, np.hypot(pts.real, pts.imag)))
    assert nearest_first(pts, 0j).tolist() == want.tolist()
    circle = np.exp(1j * np.linspace(0.0, 6.0, 400)) * 3.0
    want = np.lexsort((circle.imag, circle.real, np.hypot(circle.real, circle.imag)))
    assert nearest_first(circle, 0j).tolist() == want.tolist()


@cache
def _default_pullback(name):
    """The default ``pullback`` run of the map, and the points whose nearest
    preimage seeds each of its steps."""
    cfg = RunConfig(map=name)
    spec = get_map(name)
    pair = build_associated_orbifold(spec, cfg.depth, cfg.escape_radius)
    a = complex(cfg.pullback_re_a, cfg.pullback_imag)
    curve0 = PolylineCurve([a, complex(cfg.pullback_re_b, cfg.pullback_imag)])
    targets = [a]  # the cli seeds cosh by -acosh(a), the other maps by nearest_preimage
    seed = -cmath.acosh(a) if name == "cosh" else nearest_preimage(spec, a)

    def recorded(map_spec, z):
        targets.append(z)
        return nearest_preimage(map_spec, z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "nearest_preimage", recorded)
        result = pullback_shrinking_experiment(spec, pair, curve0, seed, k_max=cfg.pullback_kmax,
                                               refinement=cfg.refinement)
    return targets, result


@pytest.mark.parametrize("name", sorted(_MAP_BASES))
def test_nearest_preimage_matches_min_by_sort_key(name):
    # the reference lists every preimage in the window |z| <= |a| + 12
    spec = get_map(name)
    rng = np.random.default_rng(sorted(_MAP_BASES).index(name) + 7)
    # the window holds about |a| / pi preimages, so leave out the escaping points
    values = [p.point for p in postsingular_truncation(spec, 8).points if abs(p.point) < 1e4]
    values += [complex(v) for v in rng.uniform(-40.0, 40.0, 60) + 1j * rng.uniform(-40.0, 40.0, 60)]
    values += [5.5 + 0.5j, 0.5j, 1e-300 + 0j]
    targets, _ = _default_pullback(name)
    assert len(targets) == RunConfig().pullback_kmax
    values += targets
    # large imaginary or real parts
    values += [complex(v) for v in rng.uniform(-50.0, 50.0, 30) + 1j * rng.uniform(-2e4, 2e4, 30)]
    values += [complex(v) for v in rng.uniform(-1e3, 1e3, 20) + 1j * rng.uniform(-20.0, 20.0, 20)]
    for a in values:
        pres = spec.preimages(a, abs(a) + 12.0)
        want = min(pres, key=lambda p: (abs(p - a), p.real, p.imag))
        assert _bits([nearest_preimage(spec, a)]) == _bits([want]), a


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.builds(complex, st.sampled_from([0.0, -0.0, 2.0, 45.0]) | st.floats(-60.0, 60.0),
                       st.sampled_from([0.0, 1e-10]) | st.floats(-10.0, 10.0)),
             min_size=1, max_size=3),
    st.floats(0.5, 80.0),
    st.floats(-100.0, 100.0),
    st.integers(-20, 20),
    st.sampled_from([0.0, 0.25, 0.5, 0.75]),
)
def test_lattice_points_near_a_point_hold_its_nearest(bases, r_max, near_re, k, frac):
    # a point level with a lattice point of the first base, halfway between
    # two of them, or beyond the disc's points of a base
    near = complex(near_re, bases[0].imag + _TWO_PI * (k + frac))
    full = _lattice_preimages(tuple(bases), r_max)
    part = _lattice_preimages(tuple(bases), r_max, near)
    assert bool(part) == bool(full)
    # a point of a later base may stay whose same point of an earlier base
    # was not tried, but the nearest point is the full set's, bit for bit
    assert all(min(abs(z - w) for w in full) <= SAME_POINT_TOL for z in part)
    if full:
        nearest = [full[nearest_first(full, near)[0]]]
        assert _bits([part[nearest_first(part, near)[0]]]) == _bits(nearest)


@pytest.mark.parametrize("name", sorted(_MAP_BASES))
def test_nearest_preimage_of_escaping_points(name):
    # the window of cosh's escaping postsingular point (about 4.05e72) holds
    # some 1e72 lattice points; the call returns a preimage or raises NotFound
    spec = get_map(name)
    escaping = [p.point for p in postsingular_truncation(spec, 8).points if abs(p.point) >= 1e4]
    for a in escaping + [1e6 + 1j]:
        try:
            z = nearest_preimage(spec, a)
        except NotFound:
            continue
        assert abs(z) <= abs(a) + 12.0
        assert abs(evaluate(spec, z) - a) <= 1e-9 * abs(a), (a, z)
    assert name != "cosh" or escaping


@pytest.mark.parametrize("name", sorted(_MAP_BASES))
@pytest.mark.parametrize("depth", [4, 8, 12])
def test_repelling_cycle_matches_loop_with_its_own_tolerance(name, depth):
    spec = get_map(name)
    exclude = [p.point for p in postsingular_truncation(spec, depth).points]
    want, found = repelling_cycle_reference(spec, exclude)
    assert _bits(find_repelling_cycle(spec, exclude=exclude)) == _bits(want)
    # the accepted points lie far apart, so a tolerance of 1e-8 or 1e-9 keeps the same ones
    assert len(found) >= 9
    assert min(abs(z - w) for i, z in enumerate(found) for w in found[:i]) > 1.0


# ---------------------------------------------------------------------------
# The bound chain
# ---------------------------------------------------------------------------


def _chain_outcome(chain, w_grid, k_set):
    """A chain's result with its floats as hex strings, or the class of what it raised."""
    try:
        res = chain(w_grid, k_set)
    except (DomainError, ArithmeticError) as exc:
        return type(exc)
    viols = [(v.w, v.k, v.description, v.slack.hex()) for v in res.violations]
    return list(res.samples), res.worst_slack.hex(), viols


def _assert_same_chain(w_grid, k_set):
    want = _chain_outcome(bound_chain_reference, w_grid, k_set)
    assert _chain_outcome(bounds.verify_bound_chain, w_grid, k_set) == want
    return want


_W999 = default_w_grid(999)
_CHAIN_CASES = {
    "grid999_k2to64": (_W999, range(2, 65)),
    "grid200_k2to16": (default_w_grid(200), range(2, 17)),
    "empty_grid": ([], range(2, 9)),
    "empty_k_set": (_W999, []),
    "unsorted_duplicate_k": (_W999, [7, 3, 64, 3, 2, 5, 7]),
    "k_up_to_1e6": (_W999, [2, 3, 1000, 999_999, 10**6]),
    "k_below_2": (_W999, [2, 1]),
    "w_outside_0_1": ([0.5, 1.0], [2, 3]),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_bound_chain_matches_per_sample_loop(case):
    _assert_same_chain(*_CHAIN_CASES[case])


# each patch moves one side of one inequality by far more than 1e-10 on part
# of the grid, so that rows with and without violations alternate
_CHAIN_PATCHES = {
    "lambda_lower <= ratio_cone": ("lambda_lower", lambda f: lambda R: f(R) + (1e-6 if R > 3.0 else 0.0)),
    "ratio_cone(k) <= ratio_cone(k+1)": (
        "_cone_ratio", lambda f: lambda k, *a: f(k, *a) * (1.001 if k == 5 else 1.0)
    ),
    "ratio_cone <= ratio_puncture": (
        "ratio_puncture_over_disc", lambda f: lambda w: f(w) * (0.95 if w < 0.05 else 1.0)
    ),
    "ratio_puncture <= ratio_upper": ("ratio_upper", lambda f: lambda R: f(R) * (0.5 if R > 2.5 else 1.0)),
}


@pytest.mark.parametrize("forced", [*sorted(_CHAIN_PATCHES), "all four"])
def test_bound_chain_matches_per_sample_loop_on_forced_violations(forced, monkeypatch):
    checks = sorted(_CHAIN_PATCHES) if forced == "all four" else [forced]
    for what in checks:
        name, patch = _CHAIN_PATCHES[what]
        monkeypatch.setattr(bounds, name, patch(getattr(bounds, name)))
    _, _, viols = _assert_same_chain(_W999, range(2, 12))
    assert set(checks) <= {v[2] for v in viols}
    assert 0 < len({v[0] for v in viols}) < 999


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=20),
    st.lists(st.integers(2, 10**6), max_size=8),
)
def test_bound_chain_matches_per_sample_loop_on_drawn_grids(w_grid, k_set):
    _assert_same_chain(w_grid, k_set)


# ---------------------------------------------------------------------------
# Circle radius of homotopy representatives
# ---------------------------------------------------------------------------


def _meets_epsilon_n_contract(r, n, eps, d):
    """L(r) < target <= L(next float up), L the circle length of radius r."""
    target = 0.99 * eps / (18.0 * (n + 1))
    return cone_circle_length(d, eps, r) < target <= cone_circle_length(
        d, eps, math.nextafter(r, math.inf))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_epsilon_n_matches_bisection_on_the_representative_grid(d):
    for n in range(33):
        assert choose_epsilon_n(n, 1.0, d) == choose_epsilon_n_reference(n, 1.0, d)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(2, 8), st.integers(0, 100))
def test_epsilon_n_matches_bisection_on_drawn_inputs(eps, d, n):
    assert choose_epsilon_n(n, eps, d) == choose_epsilon_n_reference(n, eps, d)


def test_epsilon_n_meets_its_contract_for_every_order():
    # At high orders and small eps the radius is so small that 200 halvings
    # of [0, eps) do not reach its ulp: the bisection stops before its
    # bracket closes and returns a smaller radius.  Wherever it closes, both
    # agree.
    compared = 0
    for d in range(1, 12):
        for eps in (0.01, 0.1, 1.0, 100.0):
            for n in range(101):
                r = choose_epsilon_n(n, eps, d)
                assert _meets_epsilon_n_contract(r, n, eps, d), (d, eps, n)
                want = choose_epsilon_n_reference(n, eps, d)
                if _meets_epsilon_n_contract(want, n, eps, d):
                    assert r == want, (d, eps, n)
                    compared += 1
    assert compared >= 4000


def test_epsilon_n_rejects_a_radius_that_underflows():
    with pytest.raises(DomainError):
        choose_epsilon_n(0, 1e-320, 2)
    with pytest.raises(DomainError):
        choose_epsilon_n(10**6, 1e-300, 8)


# ---------------------------------------------------------------------------
# Spearman tie ranks
# ---------------------------------------------------------------------------

_TIED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spearman_matches_tie_loop(data):
    size = data.draw(st.integers(2, 30))
    xs = data.draw(st.lists(st.integers(-3, 3) | _TIED, min_size=size, max_size=size))
    ys = data.draw(st.lists(_TIED, min_size=size, max_size=size))
    assert spearman_rank_correlation(xs, ys) == spearman_reference(xs, ys)
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    assert spearman_rank_correlation(ints, ys) == spearman_reference(ints, ys)


def _polyfit_slope(positive):
    """The decay-rate slope as ``np.polyfit`` fits it, by LAPACK least squares."""
    return float(np.polyfit(np.arange(1, len(positive)), np.log(positive[1:]), 1)[0])


def test_decay_rate_matches_polyfit_and_the_exact_slope():
    # pullback-like sequences: geometric decay times noise, 3 to 40 lengths
    rng = np.random.default_rng(29)
    for _ in range(2000):
        n = int(rng.integers(3, 41))
        positive = (10 ** rng.uniform(-3, 2) * rng.uniform(0.05, 0.95) ** np.arange(n)
                    * np.exp(rng.normal(0.0, 0.2, n))).tolist()
        rate = _decay_rate(positive)
        slope = _polyfit_slope(positive)
        assert abs(math.log(rate) - slope) <= 1e-13 * abs(slope)
        ks = range(1, n)
        logs = [Fraction(v) for v in np.log(positive[1:]).tolist()]
        k_mean, log_mean = Fraction(sum(ks), n - 1), sum(logs) / (n - 1)
        exact = float(sum((k - k_mean) * (v - log_mean) for k, v in zip(ks, logs))
                      / sum((k - k_mean) ** 2 for k in ks))
        # the slope within 2 ulps of the exact one, and each exp within an ulp
        assert abs(rate - math.exp(exact)) <= (2 * math.ulp(exact) + 2 * 2**-52) * rate
    assert math.isnan(_decay_rate([1.0, 0.5, 0.0]))
    assert _decay_rate([3.0, 0.0, 1.0, 0.5, 0.25]) == 0.5


@pytest.mark.parametrize("name", sorted(_MAP_BASES))
def test_default_decay_rates_match_polyfit_at_12_digits(name):
    _, result = _default_pullback(name)
    positive = [v for v in result.lengths if v > 0]
    assert len(positive) == len(result.lengths)
    assert f"{result.decay_rate:.12g}" == f"{math.exp(_polyfit_slope(positive)):.12g}"
