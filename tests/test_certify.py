"""Density upper bounds, certified lengths, certificates, scans, pullbacks."""

import cmath
import math

import numpy as np
import pytest

from hyporb import certify
from hyporb.bounds import lambda_lower
from hyporb.certify import (
    _FLOOR_SLACK,
    _MAX_CANDIDATES,
    _blocked,
    _candidate_paths,
    _length_floors,
    _local_isolation,
    _path_len,
    _path_segments,
    annulus_uniformity_scan,
    certified_curve_length,
    expansion_certificate,
    pullback_shrinking_experiment,
    sample_angles,
    spearman_rank_correlation,
    upper_density_bound,
)
from hyporb.curves import PolylineCurve, segment_point_distances
from hyporb.errors import DomainError, Overflow, PathBlocked
from hyporb.maps import PointSet, evaluate, nearest_first
from hyporb.models import ConeDisc, Disc, cone_density_formula, density
from hyporb.orbifolds import (
    MarkedOrbifold,
    Surface,
    boundary_set,
)

LOG3 = 1.0986122886681098
SHARP_HALF = 1.0606601717798212
PUNCT_HALF = 1.0820212806667226


@pytest.fixture(scope="module")
def cone_orb():
    return MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))


def test_upper_density_bound_cone_model(cone_orb):
    upper = upper_density_bound(cone_orb, 0.25 + 0j)
    assert abs(upper - 8.0 / 3.0) < 1e-12
    # equality case: the witness is the orbifold itself
    assert abs(upper - density(ConeDisc(2, 1.0), 0.25)) < 1e-12


def test_upper_density_bound_clean_disc():
    orb = MarkedOrbifold(Surface(outer=(0j, 8.0)), ((4.0 + 0j, 2),))
    assert abs(upper_density_bound(orb, 0j) - 0.5) < 1e-12


def test_upper_density_bound_at_mark_rejected(cone_orb):
    with pytest.raises(DomainError):
        upper_density_bound(cone_orb, 0j)


def _unit_disc_points(rng, count):
    """``count`` seeded points of |z| <= 0.999, uniform in the disc, off the centre."""
    r = 0.999 * np.sqrt(rng.uniform(1e-6, 1.0, count))
    return (r * np.exp(2j * np.pi * rng.random(count))).tolist()


@pytest.mark.parametrize("k", [2, 3, 6])
def test_upper_density_bound_is_the_one_cone_density(k):
    # in the one-cone unit disc the cone witness is the orbifold itself and
    # the clean disc is never lower; the allowance covers the 1 - u^2
    # cancellation of the cone formula near the rim
    orb = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, k),))
    for z in _unit_disc_points(np.random.default_rng(k), 1000):
        want = density(ConeDisc(k, 1.0), z)
        assert abs(upper_density_bound(orb, z) - want) <= 1e-12 * want


def test_upper_density_bound_of_mark_free_disc_dominates_its_density():
    orb = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    for z in _unit_disc_points(np.random.default_rng(1), 1000):
        assert upper_density_bound(orb, z) >= density(Disc(1.0), z)


# A plane is hyperbolic when sum(1 - 1/nu) over its marks exceeds 1: none of
# these is (cos covers the plane with two order-2 cone points).
_EUCLIDEAN = {
    "plane": (),
    "one mark": ((0j, 3),),
    "two order-2 marks": ((0j, 2), (2.0 + 0j, 2)),
}


@pytest.mark.parametrize("name", sorted(_EUCLIDEAN))
def test_orbifolds_that_are_not_hyperbolic_are_rejected(name):
    orb = MarkedOrbifold(Surface(), _EUCLIDEAN[name])
    assert not orb.hyperbolic
    with pytest.raises(DomainError):
        certified_curve_length(orb, PolylineCurve([0.5 + 0.5j, 0.5 + 1j]))
    with pytest.raises(DomainError):
        upper_density_bound(orb, 0.5 + 0.5j)
    with pytest.raises(DomainError):
        expansion_certificate((orb, orb), 0.5 + 0.5j, [3.0 + 1j])


@pytest.mark.parametrize("orb", [
    MarkedOrbifold(Surface(), ((0j, 2), (2.0 + 0j, 3))),
    MarkedOrbifold(Surface(outer=(0j, 4.0)), ()),
    MarkedOrbifold(Surface(holes=((3.0 + 0j, 1.0),)), ()),
], ids=["plane with orders 2 and 3", "mark-free disc", "mark-free plane with a hole"])
def test_hyperbolic_orbifolds_are_bounded(orb):
    assert orb.hyperbolic
    assert math.isfinite(certified_curve_length(orb, PolylineCurve([0.5 + 0.5j, 0.5 + 1j])))
    assert math.isfinite(upper_density_bound(orb, 0.5 + 0.5j))
    cert = expansion_certificate((orb, orb), 0.5 + 0.5j, [1.5 + 1j])
    assert math.isfinite(cert.R_bar)


def test_certified_length_constant_region():
    # straight segment far from the single mark: bound ~ 2 L / delta
    orb = MarkedOrbifold(Surface(outer=(0j, 100.0)), ((40.0 + 0j, 2),))
    curve = PolylineCurve([0j, 0.5 + 0j])
    val = certified_curve_length(orb, curve, refinement=1e-3)
    assert 2.0 * 0.5 / 40.0 <= val <= 1.05 * (2.0 * 0.5 / 39.5)


def test_certified_length_monotone_under_refinement(cone_orb):
    curve = PolylineCurve([1e-6 + 0j, 0.3 + 0.2j])
    prev = math.inf
    for ref in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        val = certified_curve_length(cone_orb, curve, refinement=ref)
        assert val <= prev + 1e-15
        prev = val


def test_certified_length_radial_convergence(cone_orb):
    curve = PolylineCurve([1e-9 + 0j, 0.25 + 0j])
    v4 = certified_curve_length(cone_orb, curve, refinement=1e-4)
    v5 = certified_curve_length(cone_orb, curve, refinement=1e-5)
    assert LOG3 < v4 < LOG3 * 1.02
    assert LOG3 < v5 < LOG3 * 1.002


def test_certified_length_rejects_mark_touch(cone_orb):
    with pytest.raises(DomainError):
        certified_curve_length(cone_orb, PolylineCurve([-0.1 + 0j, 0.1 + 0j]))


def test_certified_length_bounds_only_pieces_within_refinement(monkeypatch):
    # [1, 2] is longer than the refinement, so its own bound would never be
    # used: the first pieces bounded are its four quarters
    orb = MarkedOrbifold(Surface(outer=(0j, 10.0)), ((0j, 2), (5.0 + 0j, 3)))
    curve = PolylineCurve([1.0 + 0j, 2.0 + 0j])
    expected = certified_curve_length(orb, curve, refinement=0.3)
    rows = []

    def recorded(k, eps, eps_root, d):
        rows.append(np.shape(d)[-1])
        return cone_density_formula(k, eps, eps_root, d)

    monkeypatch.setattr(certify, "cone_density_formula", recorded)
    assert certified_curve_length(orb, curve, refinement=0.3) == expected
    assert rows and min(rows) >= 4


def test_expansion_certificate_sharp_case():
    base = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    lift = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))
    supply = [0j]
    cert = expansion_certificate((base, lift), 0.5 + 0j, supply)
    assert abs(cert.R_bar - LOG3) < 1e-12
    assert abs(cert.lambda_bar - SHARP_HALF) < 1e-12
    assert cert.lambda_bar == lambda_lower(cert.R_bar)
    # the puncture analogue has a larger true quotient than the certificate
    assert cert.lambda_bar <= PUNCT_HALF


def test_expansion_certificate_requires_boundary():
    base = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    lift = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))
    with pytest.raises(PathBlocked):
        expansion_certificate((base, lift), 0.5 + 0j, [])


def test_expansion_certificate_monotone_in_distance():
    base = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    lift = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))
    supply = [0j]
    c1 = expansion_certificate((base, lift), 0.3 + 0j, supply)
    c2 = expansion_certificate((base, lift), 0.6 + 0j, supply)
    assert c1.R_bar < c2.R_bar
    assert c1.lambda_bar > c2.lambda_bar  # a shorter path never certifies less


def test_expansion_certificates_on_cosh(cosh_map, cosh_pair):
    base, lift = cosh_pair
    supply = boundary_set(cosh_map, lift, base, 60.0)
    for z in (4.2 + 0.3j, 2.0j, -7.5 + 2.0j):
        cert = expansion_certificate(cosh_pair, z, supply)
        assert math.isfinite(cert.R_bar)
        assert cert.lambda_bar > 1.0
        assert cert.lambda_bar == lambda_lower(cert.R_bar)
        assert cert.truncation_depth == 8
        assert cert.path.vertices[0] == z


def test_expansion_certificate_rejects_nonpositive_refinement(cosh_map, cosh_pair):
    # each path's refinement is max(refinement, length / 256), which would
    # hide a negative one; the exact-distance case gets the same check
    base, lift = cosh_pair
    supply = boundary_set(cosh_map, lift, base, 60.0)
    disc = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    disc_pair = (disc, MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),)))
    for refinement in (-1.0, 0.0):
        with pytest.raises(DomainError, match="refinement must be positive"):
            expansion_certificate(cosh_pair, 3.0 + 1.0j, supply, refinement=refinement)
        with pytest.raises(DomainError, match="refinement must be positive"):
            expansion_certificate(disc_pair, 0.5 + 0j, [0j], refinement=refinement)
    assert math.isfinite(expansion_certificate(cosh_pair, 3.0 + 1.0j, supply, 1e-3).R_bar)


def _exhaustive_search(base, z, supply):
    """``((R_bar, path) or None, [(path, length or None)])``: every candidate path certified in full."""
    arr = np.asarray(supply, dtype=complex)
    order = nearest_first(arr, z)
    candidates = [supply[i] for i in order[:_MAX_CANDIDATES]]
    for i in order[np.abs(arr.imag[order]) >= 0.5 * abs(z)][:4]:
        if supply[i] not in candidates:
            candidates.append(supply[i])
    margin = 1e-3 * _local_isolation(base, z)
    best, tried = None, []
    for b in candidates:
        for path in _candidate_paths(z, b):
            try:
                length = certified_curve_length(
                    base, PolylineCurve(path),
                    refinement=max(1e-3, _path_len(path) / 256.0), mark_margin=margin,
                )
            except DomainError:
                length = None
            tried.append((path, length))
            if length is not None and math.isfinite(length) and (best is None or length < best[0]):
                best = (length, path)
    return best, tried


@pytest.mark.parametrize("name", ["cosh", "pi_sinh", "cosh_minus_one"])
def test_certificate_search_matches_exhaustive_search(name, request, monkeypatch):
    spec = request.getfixturevalue(f"{name}_map")
    pair = request.getfixturevalue(f"{name}_pair")
    base, lift = pair
    supply = boundary_set(spec, lift, base, 120.0)
    rng = np.random.default_rng(17)
    points = []
    while len(points) < 25:
        z = complex(*rng.uniform(-30.0, 30.0, 2))
        if base.contains(z) and base.ramification(z) == 1 and lift.ramification(z) == 1:
            points.append(z)
    expected = [_exhaustive_search(base, z, supply) for z in points]

    # Paths go one at a time, each by one call, in the stable order of their
    # floors, and the search ends at the first floor above the best length so
    # far.  Every loser stops at its cutoff and returns inf, so few paths
    # finish.  One segment table per certificate serves the floors, so
    # _blocked runs once for it and once per call.
    count = {"calls": 0, "finished": 0, "tables": 0, "blocked": 0}
    measured = []
    paths = []  # the candidate paths of the current certificate

    def table(orb, paths_, margin):
        assert [list(path) for path in paths_] == paths
        count["tables"] += 1
        return _path_segments(orb, paths_, margin)

    def blocked(*args):
        count["blocked"] += 1
        return _blocked(*args)

    def counted(orb, curve, *args, **kwargs):
        count["calls"] += 1
        measured.append(curve.vertices)
        length = certified_curve_length(orb, curve, *args, **kwargs)
        count["finished"] += math.isfinite(length)
        return length

    monkeypatch.setattr(certify, "certified_curve_length", counted)
    monkeypatch.setattr(certify, "_path_segments", table)
    monkeypatch.setattr(certify, "_blocked", blocked)
    skipped_total = 0
    for z, (best, tried) in zip(points, expected):
        measured.clear()
        paths[:] = [path for path, _ in tried]
        before = dict(count)
        cert = expansion_certificate(pair, z, supply)
        assert count["tables"] == before["tables"] + 1
        assert count["blocked"] == before["blocked"] + 1 + count["calls"] - before["calls"]
        assert best is not None
        assert (cert.R_bar, cert.path.vertices) == (best[0], best[1])
        floors = _length_floors(base, _path_segments(base, paths, 1e-3 * _local_isolation(base, z)))
        for (_, length), floor in zip(tried, floors):
            # the floor is sound on real certificates: never above the length
            assert length is None or floor <= length
        want, so_far = [], None
        for i in sorted(range(len(tried)), key=floors.__getitem__):
            if so_far is not None and floors[i] > so_far[0] * (1.0 + _FLOOR_SLACK):
                break
            want.append(i)
            length = tried[i][1]
            if length is not None and (so_far is None or (length, i) < so_far):
                so_far = (length, i)
        # each path measured exactly once, in that order; each other path
        # skipped by a floor above the winner's length
        assert [list(path) for path in measured] == [tried[i][0] for i in want]
        assert len(set(want)) == len(want)
        for i in set(range(len(tried))) - set(want):
            assert floors[i] > best[0] * (1.0 + _FLOOR_SLACK)
        skipped_total += len(tried) - len(want)
    # about 36 per certificate without the cutoff
    assert count["finished"] <= 6 * len(points), count
    assert skipped_total > count["calls"], (skipped_total, count)


def test_certificate_search_work_is_pinned(request, monkeypatch):
    # distance passes (segment_point_distances calls) of 20 certificates per
    # map: a count, so a change in the search's work shows on any host.
    # Certifying each cosh path alone, in candidate order, took 459; testing
    # the rejections again in each batch took 188 (cosh) and 265
    # (cosh_minus_one, whose base has a removed disc); cone floors over the
    # whole isolation disc, not the piece's distances, took 155 and 213;
    # bounding the paths after the first finished one together, 4 at a time,
    # took 91 and 124.  Each path now has its own call, which repeats the
    # rejection test of the segment table and bounds the path's rounds alone.
    passes = 0

    def counted(*args):
        nonlocal passes
        passes += 1
        return segment_point_distances(*args)

    monkeypatch.setattr(certify, "segment_point_distances", counted)
    got = {}
    for name in ("cosh", "cosh_minus_one"):
        spec = request.getfixturevalue(f"{name}_map")
        pair = request.getfixturevalue(f"{name}_pair")
        base, lift = pair
        supply = np.asarray(boundary_set(spec, lift, base, 800.0), dtype=complex)
        passes = 0
        for j, theta in enumerate(sample_angles(20)):
            z = 2.0 * 50.0 ** (j / 19) * complex(math.cos(theta), math.sin(theta))
            expansion_certificate(pair, z, supply)
        got[name] = passes
    assert got == {"cosh": 109, "cosh_minus_one": 215}


def _repelling_cycles(spec, n):
    """Repelling cycles of exact period ``n``, each once, as (points, log |(f^n)'|).

    Newton on f^n(z) - z from a 25 x 25 seed grid on [-12, 12]^2.
    """
    seen = PointSet()
    cycles = []
    for re in np.linspace(-12.0, 12.0, 25):
        for im in np.linspace(-12.0, 12.0, 25):
            z = complex(re, im)
            try:
                for _ in range(60):
                    pts, deriv = [z], 1.0 + 0j
                    for _ in range(n):
                        deriv *= spec.deriv(pts[-1])
                        pts.append(evaluate(spec, pts[-1]))
                    step = (pts[-1] - z) / (deriv - 1.0)
                    z -= step
                    if abs(step) <= 1e-13 * max(1.0, abs(z)):
                        break
                pts = [z]
                for _ in range(n):
                    pts.append(evaluate(spec, pts[-1]))
            except (Overflow, OverflowError, ZeroDivisionError):
                continue
            scale = max(1.0, abs(z))
            # a cycle, of exact period n, not found before
            if abs(pts[-1] - z) > 1e-9 * scale or (n == 2 and abs(pts[1] - z) <= 1e-6 * scale):
                continue
            if any(seen.find(p) is not None for p in pts[:-1]):
                continue
            for p in pts[:-1]:
                seen.add(p)
            moduli = [abs(spec.deriv(p)) for p in pts[:-1]]
            if 0.0 in moduli:  # superattracting
                continue
            log_multiplier = math.fsum(math.log(m) for m in moduli)
            if log_multiplier > 1e-9:
                cycles.append((pts[:-1], log_multiplier))
    return cycles


@pytest.mark.parametrize("name", ["cosh", "pi_sinh", "cosh_minus_one"])
def test_certificates_on_a_cycle_capture_at_most_its_multiplier(name, request):
    # Along a cycle p_0, ..., p_{n-1} the orbifold metric's expansion
    # factors multiply to |(f^n)'(p_0)|, as the densities cancel, and each
    # factor is at least the certificate's lambda_bar at its point.  So the
    # logs of the floors must sum to at most log |(f^n)'(p_0)|: a check of
    # the whole certificate chain against the map itself.
    spec = request.getfixturevalue(f"{name}_map")
    pair = request.getfixturevalue(f"{name}_pair")
    base, lift = pair
    supply = boundary_set(spec, lift, base, 800.0)
    ratios, marked, blocked = [], 0, 0
    for n in (1, 2):
        for pts, log_multiplier in _repelling_cycles(spec, n):
            # certificates exist only at unmarked points of the base surface
            if any(not base.contains(p) or base.ramification(p) > 1 or lift.ramification(p) > 1
                   for p in pts):
                marked += 1
                continue
            try:
                certs = [expansion_certificate(pair, p, supply) for p in pts]
            except PathBlocked:
                blocked += 1
                continue
            captured = math.fsum(math.log(cert.lambda_bar) for cert in certs)
            assert captured <= log_multiplier, (pts, captured, log_multiplier)
            ratios.append(captured / log_multiplier)
    print(f"{name}: {len(ratios)} cycles, {marked} marked or outside, {blocked} blocked, "
          f"capture ratio median {np.median(ratios):.3f}, max {max(ratios):.3f}")
    assert len(ratios) >= 100


def test_scan_empty_boundary_yields_warning_rows(cosh_map, cosh_pair):
    # an identity pair has an empty boundary set: rows carry the warning
    base, _ = cosh_pair
    rows = annulus_uniformity_scan(cosh_map, (base, base), [4.0], samples_per_scale=3)
    assert rows[0].samples == 0
    assert rows[0].truncation_warning
    assert math.isnan(rows[0].max_R_bar)


def test_scan_rows_warn_for_their_own_window(cosh_map, cosh_pair):
    # scale t reads the slice [t/8, 6.8 t]: at t = 4 it ends below the
    # second-deepest mark modulus, at t = 64 beyond it
    rows = annulus_uniformity_scan(cosh_map, cosh_pair, [4.0, 64.0], samples_per_scale=3)
    assert [r.truncation_warning for r in rows] == [False, True]


def test_certificates_on_all_catalogue_maps(pi_sinh_map, cosh_minus_one_map,
                                            pi_sinh_pair, cosh_minus_one_pair):
    for spec, pair in ((pi_sinh_map, pi_sinh_pair), (cosh_minus_one_map, cosh_minus_one_pair)):
        base, lift = pair
        supply = boundary_set(spec, lift, base, 120.0)
        assert len(supply) > 0
        for z in (4.0 + 0.5j, 0.5 + 40.0j):
            cert = expansion_certificate(pair, z, supply)
            assert math.isfinite(cert.R_bar) and cert.lambda_bar > 1.0


def test_scan_deterministic(cosh_map, cosh_pair):
    scales = [4.0, 8.0]
    rows1 = annulus_uniformity_scan(cosh_map, cosh_pair, scales, samples_per_scale=6)
    rows2 = annulus_uniformity_scan(cosh_map, cosh_pair, scales, samples_per_scale=6)
    assert [(r.scale, r.max_R_bar) for r in rows1] == [(r.scale, r.max_R_bar) for r in rows2]
    assert all(r.samples > 0 for r in rows1)


def test_spearman_examples():
    assert spearman_rank_correlation([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert spearman_rank_correlation([1, 2, 3, 4], [4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    assert abs(spearman_rank_correlation([1, 2, 3, 4], [1.0, 4.0, 2.0, 3.0])) < 0.5


def test_pullback_constant_curve(cosh_map, cosh_pair):
    curve = PolylineCurve([2.0 + 1.0j, 2.0 + 1.0j])
    seed = min(
        cosh_map.preimages(2.0 + 1.0j, 14.0),
        key=lambda p: (abs(p - (2.0 + 1.0j)), p.real, p.imag),
    )
    result = pullback_shrinking_experiment(cosh_map, cosh_pair, curve, seed, k_max=3)
    assert result.lengths == [0.0] * 4


def test_pullback_shrinking_default_route(cosh_map, cosh_pair):
    curve0 = PolylineCurve([5.5 + 0.5j, 6.0 + 0.5j])
    seed = -cmath.acosh(5.5 + 0.5j)
    result = pullback_shrinking_experiment(cosh_map, cosh_pair, curve0, seed, k_max=5)
    ratios = dict(result.ratios())
    assert all(ratios[k] < 1.0 for k in range(2, 6))
    assert result.forward_residual <= 1e-8
