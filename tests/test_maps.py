"""Catalogue map evaluation, orbits, inverse branches, pullbacks.

Expected values were frozen from an mpmath oracle (40 digits); forward
orbits were iterated in extended precision and rounded to double.
"""

import cmath
import math

import numpy as np
import pytest

from hyporb.curves import PolylineCurve, polyline_point_distance
from hyporb.errors import BranchBreak, DomainError, NearCritical, NotFound, Overflow
from hyporb.maps import (
    EntireMapSpec,
    Escaped,
    OrbitRecord,
    Preperiodic,
    TruncatedPostsingular,
    Undetermined,
    evaluate,
    get_map,
    inverse_step,
    iterate_orbit,
    local_degree,
    nearest_preimage,
    postsingular_truncation,
    pullback_curve,
)

PI = math.pi

# mpmath oracle values (40 digits, rounded to double)
COSH_1 = 1.5430806348152437
COSH_ORBIT = [1.0, 1.5430806348152437, 2.4463520074491622, 5.81637924538769, 167.87857252384405]
ACOSH_5_5 = 2.3895264345742186
ACOSH_6 = 2.477888730288475


def test_evaluate_examples(cosh_map, pi_sinh_map):
    assert evaluate(cosh_map, 0) == 1.0
    assert abs(evaluate(pi_sinh_map, 1j * PI / 2) - 1j * PI) < 1e-12
    assert abs(evaluate(cosh_map, 1.0) - COSH_1) < 1e-15


def test_evaluate_overflow(cosh_map):
    with pytest.raises(Overflow):
        evaluate(cosh_map, 1e6)


def test_local_degree_examples(cosh_map, pi_sinh_map):
    assert local_degree(cosh_map, 0j) == 2
    assert local_degree(cosh_map, 1.0) == 1
    assert local_degree(pi_sinh_map, 1j * PI / 2) == 2


def test_critical_value_witnesses():
    for name in ("cosh", "pi_sinh", "cosh_minus_one"):
        spec = get_map(name)
        for value, point in spec.critical_value_witnesses:
            assert abs(evaluate(spec, point) - value) <= 1e-12
            assert local_degree(spec, point) == 2


def test_deriv_matches_finite_difference():
    rng = np.random.default_rng(7)
    for name in ("cosh", "pi_sinh", "cosh_minus_one"):
        spec = get_map(name)
        for _ in range(100):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10:
                z *= 10 / abs(z)
            h = 1e-6 * (1 + abs(z))
            fd = (evaluate(spec, z + h) - evaluate(spec, z - h)) / (2 * h)
            d = spec.deriv(z)
            assert abs(fd - d) <= 1e-6 * (1 + abs(d))


def test_chain_rule_on_random_points():
    rng = np.random.default_rng(11)
    for name in ("cosh", "pi_sinh", "cosh_minus_one"):
        spec = get_map(name)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            composed = spec.deriv(evaluate(spec, z)) * spec.deriv(z)
            h = 1e-5 * (1 + abs(z))
            stencil = (
                evaluate(spec, evaluate(spec, z - 2 * h))
                - 8 * evaluate(spec, evaluate(spec, z - h))
                + 8 * evaluate(spec, evaluate(spec, z + h))
                - evaluate(spec, evaluate(spec, z + 2 * h))
            ) / (12 * h)
            assert abs(stencil - composed) <= 1e-9 * (1 + abs(stencil)) + 1e-7


def test_orbit_pi_sinh_preperiodic(pi_sinh_map):
    rec = iterate_orbit(pi_sinh_map, 1j * PI, 10, 1e6)
    assert rec.status == Preperiodic(preperiod=1, period=1)
    assert abs(rec.points[0] - 1j * PI) < 1e-15
    assert abs(rec.points[1]) < 1e-12


def test_orbit_cosh_escapes(cosh_map):
    rec = iterate_orbit(cosh_map, 1.0, 10, 1e6)
    assert isinstance(rec.status, Escaped)
    for got, want in zip(rec.points, COSH_ORBIT):
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_orbit_cosh_minus_one_superattracting(cosh_minus_one_map):
    rec = iterate_orbit(cosh_minus_one_map, 0j, 10, 1e6)
    assert rec.status == Preperiodic(preperiod=0, period=1)


def test_catalogue_orbits_always_classified():
    for name in ("cosh", "pi_sinh", "cosh_minus_one"):
        spec = get_map(name)
        for value, _ in spec.critical_value_witnesses:
            rec = iterate_orbit(spec, value, 30, 1e6)
            assert not isinstance(rec.status, Undetermined)


def test_postsingular_pi_sinh(pi_sinh_map):
    trunc = postsingular_truncation(pi_sinh_map, 10, 1e6)
    pts = trunc.julia_points()
    assert len(pts) == 3
    expected = [0j, 1j * PI, -1j * PI]
    for want in expected:
        assert min(abs(p - want) for p in pts) <= 1e-9
    assert not [p.point for p in trunc.points if p.fatou_candidate]


def test_postsingular_cosh_depth4(cosh_map):
    trunc = postsingular_truncation(cosh_map, 4, 1e6)
    pts = trunc.julia_points()
    expected = [1.0, -1.0] + COSH_ORBIT[1:]
    assert len(pts) == len(expected)
    for want in expected:
        assert min(abs(p - want) for p in pts) <= 1e-9 * (1 + abs(want))


def test_postsingular_cosh_minus_one(cosh_minus_one_map):
    trunc = postsingular_truncation(cosh_minus_one_map, 4, 1e6)
    fatou = [p.point for p in trunc.points if p.fatou_candidate]
    assert len(fatou) == 1 and abs(fatou[0]) < 1e-12
    julia = trunc.julia_points()
    assert min(abs(p + 2) for p in julia) < 1e-12
    want = math.cosh(2.0) - 1.0
    assert min(abs(p - want) for p in julia) < 1e-9


def test_inverse_step_examples(cosh_map, pi_sinh_map):
    z = inverse_step(cosh_map, COSH_ORBIT[2], 1.5, 1e-10)
    assert abs(z - COSH_1) < 1e-9
    # target 1 is a critical value: either the derivative floor trips or the
    # iteration converges right next to the critical point 0
    try:
        z = inverse_step(cosh_map, 1.0, 0.1, 1e-10)
    except NearCritical:
        pass
    else:
        assert abs(z) < 2e-5
        assert abs(evaluate(cosh_map, z) - 1.0) <= 1e-10
    z = inverse_step(pi_sinh_map, 0j, 3.1j, 1e-10)
    assert abs(z - 1j * PI) < 1e-9


def test_pullback_constant_curve(cosh_map):
    curve = PolylineCurve([COSH_ORBIT[2], COSH_ORBIT[2]])
    lifted = pullback_curve(cosh_map, curve, COSH_1)
    assert all(abs(v - COSH_1) < 1e-9 for v in lifted.vertices)


def test_pullback_real_segment(cosh_map):
    curve = PolylineCurve([5.5 + 0j, 6.0 + 0j])
    lifted = pullback_curve(cosh_map, curve, 2.39)
    assert abs(lifted.vertices[0] - ACOSH_5_5) < 1e-9
    assert abs(lifted.vertices[-1] - ACOSH_6) < 1e-9
    # forward remapping lands on the input polyline
    for v in lifted.vertices:
        assert polyline_point_distance(curve, evaluate(cosh_map, v)) < 1e-9


def test_pullback_branch_break_near_critical_value(cosh_map):
    # the segment crosses the critical value 1, where branches collide
    curve = PolylineCurve([1.2 + 0j, 0.8 + 0j])
    with pytest.raises((BranchBreak, NearCritical)):
        pullback_curve(cosh_map, curve, cmath.acosh(1.2))


def test_iterate_orbit_validation(cosh_map):
    with pytest.raises(DomainError):
        iterate_orbit(cosh_map, 1.0, 0)
    with pytest.raises(DomainError):
        iterate_orbit(cosh_map, 1.0, 5, escape_radius=0.5)


def test_attracting_cycle_points_are_listed_once():
    # two attracting orbits fall into the same 2-cycle {a, b} at different phases,
    # the second one 1e-12 off; a repelling orbit through b adds nothing
    a, b = 0.25 + 0.5j, -0.75 + 0j
    records = {
        1.0: OrbitRecord([1.0, a, b], Preperiodic(1, 2), attracting=True),
        2.0: OrbitRecord([2.0, b + 1e-12, a], Preperiodic(1, 2), attracting=True),
        3.0: OrbitRecord([3.0, b, 7.0], Preperiodic(1, 2), attracting=False),
    }
    trunc = TruncatedPostsingular(3, [], records)
    assert trunc.attracting_cycle_points() == [a, b]


def test_nearest_preimage(pi_sinh_map):
    a = 5.5 + 0.5j
    z = nearest_preimage(pi_sinh_map, a)
    assert abs(evaluate(pi_sinh_map, z) - a) < 1e-9
    assert all(abs(z - a) <= abs(p - a) for p in pi_sinh_map.preimages(a, abs(a) + 12.0))
    stub = EntireMapSpec(
        name="none", eval=lambda z: z, deriv=lambda z: 1 + 0j, deriv2=lambda z: 0j,
        critical_value_witnesses=(), preimages=lambda v, r_max: [],
    )
    with pytest.raises(NotFound):
        nearest_preimage(stub, 1.0 + 0j)
