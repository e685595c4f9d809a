"""Density upper bounds, certified lengths, certificates, scans, pullbacks."""

import cmath
import math

import pytest

from hyporb.bounds import lambda_lower
from hyporb.certify import (
    BoundarySet,
    CleanDisc,
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
    Window,
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
    supply = BoundarySet(points=[0j], provenance=["extra_ramification"])
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
        expansion_certificate((base, lift), 0.5 + 0j, BoundarySet([], []))


def test_expansion_certificate_monotone_in_distance():
    base = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    lift = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))
    supply = BoundarySet(points=[0j], provenance=["extra_ramification"])
    c1 = expansion_certificate((base, lift), 0.3 + 0j, supply)
    c2 = expansion_certificate((base, lift), 0.6 + 0j, supply)
    assert c1.R_bar < c2.R_bar
    assert c1.lambda_bar > c2.lambda_bar  # a shorter path never certifies less


def test_expansion_certificates_on_cosh(cosh_map, cosh_pair):
    base, lift = cosh_pair
    supply = boundary_set(cosh_map, lift, base, Window(r_max=60.0))
    for z in (4.2 + 0.3j, 2.0j, -7.5 + 2.0j):
        cert = expansion_certificate(cosh_pair, z, supply)
        assert math.isfinite(cert.R_bar)
        assert cert.lambda_bar > 1.0
        assert cert.lambda_bar == lambda_lower(cert.R_bar)
        assert cert.truncation_depth == 8
        assert cert.path.vertices[0] == z


def test_scan_empty_boundary_yields_warning_rows(cosh_map, cosh_pair):
    # an identity pair has an empty boundary set: rows carry the warning
    base, _ = cosh_pair
    rows = annulus_uniformity_scan(cosh_map, (base, base), [4.0], samples_per_scale=3)
    assert rows[0].samples == 0
    assert rows[0].truncation_warning
    assert math.isnan(rows[0].max_R_bar)


def test_certificates_on_all_catalogue_maps(pi_sinh_map, cosh_minus_one_map,
                                            pi_sinh_pair, cosh_minus_one_pair):
    for spec, pair in ((pi_sinh_map, pi_sinh_pair), (cosh_minus_one_map, cosh_minus_one_pair)):
        base, lift = pair
        supply = boundary_set(spec, lift, base, Window(r_max=120.0))
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
    curve = PolylineCurve.constant(2.0 + 1.0j)
    seed = min(
        cosh_map.preimages(2.0 + 1.0j, 14.0, 0.0),
        key=lambda p: (abs(p - (2.0 + 1.0j)), p.real, p.imag),
    )
    result = pullback_shrinking_experiment(cosh_map, cosh_pair, curve, seed, k_max=3)
    assert all(r.length_bound == 0.0 for r in result.rows)


def test_pullback_shrinking_default_route(cosh_map, cosh_pair):
    curve0 = PolylineCurve([5.5 + 0.5j, 6.0 + 0.5j])
    seed = -cmath.acosh(5.5 + 0.5j)
    result = pullback_shrinking_experiment(cosh_map, cosh_pair, curve0, seed, k_max=5)
    ratios = dict(result.ratios())
    assert all(ratios[k] < 1.0 for k in range(2, 6))
    assert result.forward_residual <= 1e-8
