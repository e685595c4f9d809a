"""Density upper bounds, certified lengths, certificates, scans, pullbacks."""

import cmath
import math

import numpy as np
import pytest

from hyporb import certify
from hyporb.bounds import lambda_lower
from hyporb.certify import (
    _MAX_CANDIDATES,
    CleanDisc,
    _candidate_paths,
    _local_isolation,
    _nearest_first,
    _path_len,
    annulus_uniformity_scan,
    certified_curve_length,
    expansion_certificate,
    pullback_shrinking_experiment,
    spearman_rank_correlation,
    upper_density_bound,
)
from hyporb.curves import PolylineCurve
from hyporb.errors import DomainError, PathBlocked
from hyporb.models import ConeDisc, density
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
    db = upper_density_bound(cone_orb, 0.25 + 0j)
    assert isinstance(db.witness, ConeDisc)
    assert abs(db.upper - 8.0 / 3.0) < 1e-12
    # equality case: the witness is the orbifold itself
    assert abs(db.upper - density(ConeDisc(2, 1.0), 0.25)) < 1e-12


def test_upper_density_bound_clean_disc():
    orb = MarkedOrbifold(Surface(outer=(0j, 8.0)), ((4.0 + 0j, 2),))
    db = upper_density_bound(orb, 0j)
    assert isinstance(db.witness, CleanDisc)
    assert abs(db.upper - 0.5) < 1e-12


def test_upper_density_bound_at_mark_rejected(cone_orb):
    with pytest.raises(DomainError):
        upper_density_bound(cone_orb, 0j)


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


def _exhaustive_search(base, z, supply):
    """``((R_bar, path) or None, paths tried)``: every candidate path certified in full."""
    arr = np.asarray(supply, dtype=complex)
    order = _nearest_first(arr, z)
    candidates = [supply[i] for i in order[:_MAX_CANDIDATES]]
    for i in order[np.abs(arr.imag[order]) >= 0.5 * abs(z)][:4]:
        if supply[i] not in candidates:
            candidates.append(supply[i])
    margin = 1e-3 * _local_isolation(base, z)
    best, tried = None, 0
    for b in candidates:
        for path in _candidate_paths(z, b):
            tried += 1
            try:
                length = certified_curve_length(
                    base, PolylineCurve(path),
                    refinement=max(1e-3, _path_len(path) / 256.0), mark_margin=margin,
                )
            except DomainError:
                continue
            if math.isfinite(length) and (best is None or length < best[0]):
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

    # every candidate path is still tried, but a loser stops at the best
    # length so far: it returns inf, and few paths finish
    count = {"calls": 0, "finished": 0}

    def counted(*args, **kwargs):
        count["calls"] += 1
        length = certified_curve_length(*args, **kwargs)
        count["finished"] += math.isfinite(length)
        return length

    monkeypatch.setattr(certify, "certified_curve_length", counted)
    for z, (best, tried) in zip(points, expected):
        before = count["calls"]
        cert = expansion_certificate(pair, z, supply)
        assert best is not None
        assert (cert.R_bar, cert.path.vertices) == (best[0], best[1])
        assert count["calls"] - before == tried
    # about 36 per certificate without the cutoff
    assert count["finished"] <= 6 * len(points), count


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
