"""Associated orbifold pairs, covering/inclusion checks, separation, boundary sets."""

import dataclasses
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyporb import orbifolds
from hyporb.errors import (
    CycleCollision,
    DivisibilityError,
    DomainError,
    EmptyInput,
    NotFound,
    Overflow,
)
from hyporb.maps import (
    SAME_POINT_TOL,
    EntireMapSpec,
    evaluate,
    get_map,
    local_degree,
    postsingular_truncation,
)
from hyporb.orbifolds import (
    MarkedOrbifold,
    Surface,
    _mark_preimages,
    annulus_count,
    boundary_set,
    build_associated_orbifold,
    check_covering_relation,
    check_holomorphic_inclusion,
    find_absorbing_disc,
    find_repelling_cycle,
    pairwise_separation,
    separation_report,
    truncation_warning,
)

PI = math.pi


def _linear_half_map() -> EntireMapSpec:
    """Test stub z/2: no singular values, so the postsingular set is empty."""
    return EntireMapSpec(
        name="half",
        eval=lambda z: 0.5 * z,
        deriv=lambda z: 0.5 + 0j,
        deriv2=lambda z: 0j,
        critical_value_witnesses=(),
        preimages=lambda v, r_max: [2.0 * v] if abs(2.0 * v) <= r_max else [],
    )


def _postsingular_points(spec: EntireMapSpec) -> list[complex]:
    """Points of the depth-12 postsingular truncation, for ``find_repelling_cycle``."""
    return [p.point for p in postsingular_truncation(spec, 12).points]


def test_build_pi_sinh_marks(pi_sinh_pair):
    base, lift = pi_sinh_pair
    for want in (0j, 1j * PI, -1j * PI):
        assert base.ramification(want) == 2
    assert all(nu == 2 for _, nu in base.marks)


def test_build_cosh_marks(cosh_pair, cosh_map):
    base, lift = cosh_pair
    trunc = postsingular_truncation(cosh_map, 8)
    for p in trunc.julia_points():
        assert base.ramification(p) == 2


def test_build_trivial_map_marks_only_cycle():
    stub = _linear_half_map()
    cycle = [4.0 + 0j]
    base, lift = build_associated_orbifold(stub, depth=4, cycle=cycle)
    assert base.surface == Surface()
    assert base.marks == ((4.0 + 0j, 2),)
    assert base.ramification(1.0) == 1
    # the preimage 8 of the cycle point carries the quotient ramification
    assert lift.ramification(8.0 + 0j) == 2


def test_trivial_map_has_no_attracting_cycle_points():
    # 0 attracts under z/2, but no singular orbit reaches it
    assert postsingular_truncation(_linear_half_map(), 4).attracting_cycle_points() == []


def test_build_rejects_cycle_on_postsingular_set(pi_sinh_map):
    with pytest.raises(CycleCollision):
        build_associated_orbifold(pi_sinh_map, 10, cycle=[1j * PI])


def test_checks_pass_for_all_catalogue_pairs(
    cosh_map, pi_sinh_map, cosh_minus_one_map, cosh_pair, pi_sinh_pair, cosh_minus_one_pair
):
    for spec, (base, lift) in (
        (cosh_map, cosh_pair),
        (pi_sinh_map, pi_sinh_pair),
        (cosh_minus_one_map, cosh_minus_one_pair),
    ):
        assert check_covering_relation(spec, base, lift).passed
        assert check_holomorphic_inclusion(lift, base).passed
        assert all(nu == 2 for _, nu in base.marks)


def test_covering_check_skips_only_overflowing_evaluations(cosh_map, cosh_pair):
    base, lift = cosh_pair
    # the lift mark at 4.05e72 has an image that overflows: it cannot be
    # checked and is skipped
    far = [z for z, _ in lift.marks if abs(z) > 1e72]
    assert len(far) == 1
    with pytest.raises((Overflow, OverflowError)):
        evaluate(cosh_map, far[0])
    assert check_covering_relation(cosh_map, base, lift).passed

    def broken(z):
        raise ZeroDivisionError("not an overflow")

    # any other failure of the map is a fault, not a skipped mark
    with pytest.raises(ZeroDivisionError):
        check_covering_relation(dataclasses.replace(cosh_map, eval=broken), base, lift)


def _witness_points(witnesses: list[str]) -> list[complex]:
    """The point ``z=...`` that each covering witness names."""
    return [complex(re.search(r"z=(\S+?)[,:]", w).group(1)) for w in witnesses]


# per map, the lift mark nearest 3 + 3j that is not a base mark
_PLANTED_MARK = {
    "cosh": 2.4463520074491623 + 2j * PI,
    "pi_sinh": 0.8278585215111122j,
    "cosh_minus_one": 2.0 + 0j,
}


def _planted_pair(request, name):
    spec = request.getfixturevalue(f"{name}_map")
    base, lift = request.getfixturevalue(f"{name}_pair")
    point = min(
        (z for z, _ in lift.marks if base.ramification(z) == 1), key=lambda z: abs(z - (3 + 3j))
    )
    assert abs(point - _PLANTED_MARK[name]) <= 1e-12
    return spec, base, lift, point


@pytest.mark.parametrize("name", ["cosh", "pi_sinh", "cosh_minus_one"])
def test_covering_check_reports_a_missing_lift_mark(request, name):
    spec, base, lift, point = _planted_pair(request, name)
    dropped = dataclasses.replace(lift, marks=tuple(m for m in lift.marks if m[0] != point))
    result = check_covering_relation(spec, base, dropped)
    assert not result.passed
    assert [abs(z - point) <= SAME_POINT_TOL for z in _witness_points(result.witnesses)] == [True]


@pytest.mark.parametrize("name", ["cosh", "pi_sinh", "cosh_minus_one"])
def test_covering_check_reports_a_doubled_lift_mark_both_ways(request, name):
    spec, base, lift, point = _planted_pair(request, name)
    doubled = tuple((z, 2 * nu if z == point else nu) for z, nu in lift.marks)
    result = check_covering_relation(spec, base, dataclasses.replace(lift, marks=doubled))
    assert not result.passed
    # once at the lift mark, once as a preimage of its base mark
    assert len(result.witnesses) == 2
    assert all(abs(z - point) <= SAME_POINT_TOL for z in _witness_points(result.witnesses))


def test_swapped_inclusion_fails(cosh_pair):
    base, lift = cosh_pair
    result = check_holomorphic_inclusion(base, lift)
    assert not result.passed
    assert result.witnesses


def test_identical_orbifold_inclusion_passes(cosh_pair):
    base, _ = cosh_pair
    assert check_holomorphic_inclusion(base, base).passed


def test_covering_identity_at_critical_witness(cosh_map, cosh_pair):
    base, lift = cosh_pair
    # nu(f(0)) = nu(1) = 2 equals deg(f, 0) * nu_tilde(0) = 2 * 1
    assert base.ramification(1.0 + 0j) == 2
    assert lift.ramification(0j) == 1


def test_deepening_is_conservative(cosh_map):
    cycle = find_repelling_cycle(cosh_map, _postsingular_points(cosh_map))
    base6, _ = build_associated_orbifold(cosh_map, 6, cycle=cycle)
    base7, _ = build_associated_orbifold(cosh_map, 7, cycle=cycle)
    for p, nu in base6.marks:
        assert base7.ramification(p) >= nu


def test_boundary_set_cosh_window(cosh_map, cosh_pair):
    base, lift = cosh_pair
    bset = boundary_set(cosh_map, lift, base, 8.0)
    assert len(bset) > 0
    assert bset == sorted(bset, key=lambda z: (abs(z), z.real, z.imag))
    assert not truncation_warning(base, 8.0)
    # the lift removes no discs, so every point is an extra-ramification point
    assert lift.surface.holes == ()
    # reflected orbit points are genuine extra-ramification points
    assert any(abs(p + 1.5430806348152437) < 1e-6 for p in bset)
    # preimages on the period lattice near 2 pi i
    assert any(abs(p - (1.0 + 2j * PI)) < 1e-6 for p in bset)
    for p in bset:
        assert base.ramification(p) == 1
        assert lift.ramification(p) > 1


def test_boundary_set_identity_pair_empty(cosh_pair, cosh_map):
    base, _ = cosh_pair
    bset = boundary_set(cosh_map, base, base, 10.0)
    assert bset == []


@pytest.mark.parametrize("r_max", [0.0, -1.0, math.nan, math.inf])
def test_boundary_set_rejects_radius_outside_open_half_line(cosh_map, cosh_pair, r_max):
    base, lift = cosh_pair
    with pytest.raises(DomainError):
        boundary_set(cosh_map, lift, base, r_max)


def test_boundary_set_raises_when_the_degree_does_not_divide(cosh_map):
    # the critical point 0 of cosh maps onto the mark 1 with degree 2, and 2
    # does not divide the odd ramification 3
    base = MarkedOrbifold(Surface(), ((1.0 + 0j, 3),))
    lift = MarkedOrbifold(Surface(), ())
    message = r"^deg\(f, 0j\) = 2 does not divide nu\(\(1\+0j\)\) = 3$"
    with pytest.raises(DivisibilityError, match=message):
        boundary_set(cosh_map, lift, base, 8.0)
    with pytest.raises(DivisibilityError, match=message):
        _mark_preimages(cosh_map, 1.0 + 0j, 3, 8.0, base.surface)
    # every preimage 2*pi*i*k of 1 is critical, and 2 divides 4
    z, nu_tilde = _mark_preimages(cosh_map, 1.0 + 0j, 4, 8.0, base.surface)
    assert z.tolist() == [0j, -2j * PI, 2j * PI] and nu_tilde.tolist() == [2, 2, 2]


def test_boundary_set_makes_no_per_point_calls(cosh_minus_one_map, cosh_minus_one_pair, monkeypatch):
    # a work counter, independent of the host's speed: containment runs once
    # per surface and base mark plus once for the hole circles, and the base
    # ramification of the preimages is compared as arrays
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Surface, "contains", counted("contains", Surface.contains))
    monkeypatch.setattr(
        MarkedOrbifold, "ramification", counted("ramification", MarkedOrbifold.ramification)
    )
    base, lift = cosh_minus_one_pair
    assert len(boundary_set(cosh_minus_one_map, lift, base, 6963.2)) > 20000
    assert calls["contains"] <= 2 * len(base.marks) + 1
    assert calls["ramification"] == 0


@pytest.mark.parametrize("name", ["cosh", "pi_sinh", "cosh_minus_one"])
def test_derivative_at_preimages_is_the_critical_value_product(name, request):
    # |f'(z)|^2 = |v - c1| |v - c2| at every preimage z of v: the identity that
    # lets _mark_preimages give degree 1 to preimages of values away from c1, c2
    spec = get_map(name)
    base, _ = request.getfixturevalue(f"{name}_pair")
    (c1, _), (c2, _) = spec.critical_value_witnesses
    values = [p for p, _ in base.marks] + [0.3 + 0.1j, -1.5 + 0j, -7.5 + 2j, 12j, 1e-3 + 0j]
    checked = 0
    for v in values:
        if min(abs(v - c1), abs(v - c2)) <= 1e-6:
            continue
        # through square roots, as |f'|^2 overflows at the deepest marks (~1e225)
        root = math.sqrt(abs(v - c1)) * math.sqrt(abs(v - c2))
        for z in spec.preimages(v, 700.0):
            q = abs(spec.deriv(z)) / root
            assert abs(q * q - 1.0) <= 1e-12, (v, z)
            checked += 1
    assert checked > 1000


def test_boundary_set_asks_local_degree_only_at_critical_value_preimages(
    cosh_minus_one_map, cosh_minus_one_pair, monkeypatch
):
    # -2 is the one base mark at a critical value of cosh - 1; the preimages
    # of the other marks get degree 1 without a call
    asked = []

    def recorded(spec, z):
        asked.append(z)
        return local_degree(spec, z)

    monkeypatch.setattr(orbifolds, "local_degree", recorded)
    base, lift = cosh_minus_one_pair
    assert len(boundary_set(cosh_minus_one_map, lift, base, 6963.2)) > 20000
    critical = [
        z
        for z in cosh_minus_one_map.preimages(-2.0 + 0j, 6963.2)
        if base.surface.contains(z) and lift.surface.contains(z)
    ]
    assert critical and asked == critical


@pytest.mark.parametrize("name", ["cosh", "cosh_minus_one"])
def test_scan_slice_needs_no_inner_radius(name, request):
    # the annulus scan slices one shared disc to [t/8, 6.8 t] at scale t: a
    # disc out to the slice's outer radius already holds the whole slice,
    # whatever the disc's radius beyond it
    spec = request.getfixturevalue(f"{name}_map")
    base, lift = request.getfixturevalue(f"{name}_pair")
    for t in (4.0, 16.0):
        r_lo, r_hi = t / 8.0, 6.8 * t
        slices = [
            [p for p in boundary_set(spec, lift, base, R) if r_lo <= abs(p) <= r_hi]
            for R in (r_hi, 4.0 * r_hi)
        ]
        assert slices[0] and slices[0] == slices[1]


def test_boundary_set_truncation_warning(cosh_pair):
    # the deepest resolvable window ends at the second-largest mark modulus
    base, _ = cosh_pair
    assert truncation_warning(base, 500.0)
    assert not truncation_warning(base, 150.0)


def test_complete_truncation_never_warns(pi_sinh_map, pi_sinh_pair):
    # every pi*sinh singular orbit closes up, so no marks can be missing
    base, lift = pi_sinh_pair
    assert base.truncation_complete
    bset = boundary_set(pi_sinh_map, lift, base, 300.0)
    assert not truncation_warning(base, 300.0)
    assert len(bset) > 0


def test_separation_examples(cosh_map, pi_sinh_map):
    assert pairwise_separation([1 + 0j, -1 + 0j]) == 2.0
    trunc = postsingular_truncation(cosh_map, 6)
    rep = separation_report(trunc, 2.0, cosh_map)
    assert 0.3519 <= rep.epsilon_star <= 0.3520
    assert rep.annulus_count_M == 3
    assert rep.orbit_crit_bound_c == 1
    assert rep.max_local_degree == 2
    trunc2 = postsingular_truncation(pi_sinh_map, 10)
    rep2 = separation_report(trunc2, 2.0, pi_sinh_map)
    assert abs(rep2.epsilon_star - 1.0) < 1e-9


def test_separation_empty_input():
    with pytest.raises(EmptyInput):
        pairwise_separation([])


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3), st.permutations(range(4)))
def test_separation_scale_and_permutation_invariance(t, perm):
    pts = [1 + 0j, -1 + 0j, 1.5430806348152437 + 0j, 2.4463520074491622 + 0j]
    scaled = [t * pts[i] for i in perm]
    assert abs(pairwise_separation(scaled) - pairwise_separation(pts)) < 1e-12
    assert annulus_count(scaled, 2.0) == annulus_count(pts, 2.0)


def test_annulus_count_includes_both_closed_ends():
    # moduli exactly K apart lie on the inner and outer circle of one closed annulus
    assert annulus_count([1, 2], 2.0) == 2
    assert annulus_count([3, 6j], 2.0) == 2
    assert annulus_count([1, 2.0000000001], 2.0) == 1
    # no annulus r > 0 holds the origin
    assert annulus_count([0j, 0j, 0j], 2.0) == 0
    assert annulus_count([], 2.0) == 0


def test_absorbing_disc_examples(cosh_minus_one_map):
    disc = find_absorbing_disc(cosh_minus_one_map, 0j)
    assert disc.radius == 0.5
    assert abs(disc.boundary_sup - 0.12762596520638078) < 1e-12
    with pytest.raises(NotFound):
        find_absorbing_disc(cosh_minus_one_map, 0j, r_grid=(3.0,))
    stub = _linear_half_map()
    d2 = find_absorbing_disc(stub, 0j, r_grid=(1.0,))
    assert d2.radius == 1.0 and abs(d2.boundary_sup - 0.5) < 1e-12


def test_absorbing_disc_overflow_is_not_found():
    # z/2 inside |z| < 0.75, overflowing beyond: the circle |z| = 1, which z/2
    # alone maps inside itself, cannot be sampled, so the search reports NotFound
    stub = dataclasses.replace(
        _linear_half_map(), eval=lambda z: 0.5 * z if abs(z) < 0.75 else complex(math.inf, 0.0)
    )
    with pytest.raises(NotFound):
        find_absorbing_disc(stub, 0j, r_grid=(1.0,))


def test_absorbing_disc_rejects_repelling(cosh_minus_one_map):
    with pytest.raises(DomainError):
        find_absorbing_disc(cosh_minus_one_map, 1.6161330104745745 + 0j)


def test_find_repelling_cycle_examples(cosh_map, pi_sinh_map, cosh_minus_one_map):
    import cmath

    cyc = find_repelling_cycle(cosh_map, _postsingular_points(cosh_map))
    z = cyc[0]
    assert abs(cmath.cosh(z) - z) < 1e-9
    assert abs(cmath.sinh(z)) > 1 + 1e-6
    box = (-0.2 - 0.2j, 0.2 + 0.2j)
    # the fixed point 0 of pi*sinh is postsingular, so a tight box around 0 fails
    with pytest.raises(NotFound):
        find_repelling_cycle(pi_sinh_map, _postsingular_points(pi_sinh_map), seed_box=box)
    # the fixed point 0 of cosh - 1 is attracting, so it is filtered too
    with pytest.raises(NotFound):
        find_repelling_cycle(
            cosh_minus_one_map, _postsingular_points(cosh_minus_one_map), seed_box=box
        )


def test_cosh_minus_one_surface(cosh_minus_one_pair):
    base, lift = cosh_minus_one_pair
    assert base.surface.outer is None
    assert any(abs(c) < 1e-9 and r == 0.5 for c, r in base.surface.holes)
    assert lift.surface.outer is None
    assert len(lift.surface.holes) > 1
    # boundary sampling of the lift discs that are interior to the base surface
    bset = boundary_set(get_map("cosh_minus_one"), lift, base, 10.0)
    assert any(abs(abs(p - c) - r) <= 1e-12 for p in bset for c, r in lift.surface.holes)


def test_orbifold_to_json(cosh_pair, cosh_minus_one_pair):
    for pair, kind in ((cosh_pair, "plane"), (cosh_minus_one_pair, "plane_minus_discs")):
        for orb in pair:
            assert orb.to_json() == {
                "surface": {
                    "kind": kind,
                    "discs": [[c.real, c.imag, r] for c, r in orb.surface.holes],
                },
                "marks": [[p.real, p.imag, nu] for p, nu in orb.marks],
                "truncation_depth": 8,
                "truncation_complete": False,
            }
    # the marks are written as [re, im, nu], in the order of ``marks``
    orb = MarkedOrbifold(Surface(holes=((0j, 0.5),)), ((3.0 - 1.0j, 2), (1.0 + 2.0j, 4)), 5, True)
    assert orb.to_json() == {
        "surface": {"kind": "plane_minus_discs", "discs": [[0.0, 0.0, 0.5]]},
        "marks": [[3.0, -1.0, 2], [1.0, 2.0, 4]],
        "truncation_depth": 5,
        "truncation_complete": True,
    }


def test_marked_orbifold_validation():
    with pytest.raises(DomainError):
        MarkedOrbifold(Surface(), ((0j, 1),))
    with pytest.raises(DomainError):
        MarkedOrbifold(Surface(), ((0j, 2), (1e-12 + 0j, 2)))
    with pytest.raises(DomainError):  # exactly SAME_POINT_TOL apart is one point
        MarkedOrbifold(Surface(), ((0j, 2), (1e-9 + 0j, 2)))
    with pytest.raises(DomainError):
        MarkedOrbifold(Surface(holes=((0j, 1.0),)), ((0.5 + 0j, 2),))
    with pytest.raises(DomainError):
        MarkedOrbifold(Surface(outer=(0j, 1.0)), ((2.0 + 0j, 2),))


def test_surface_json_kinds():
    holes = ((0j, 0.5), (3.0 + 1.0j, 0.25))
    assert Surface().to_json() == {"kind": "plane", "discs": []}
    assert Surface(holes=holes).to_json() == {
        "kind": "plane_minus_discs",
        "discs": [[0.0, 0.0, 0.5], [3.0, 1.0, 0.25]],
    }
    assert Surface(outer=(1j, 2.0)).to_json() == {"kind": "disc", "discs": [[0.0, 1.0, 2.0]]}
    # the format has no kind for a disc with holes
    with pytest.raises(DomainError):
        Surface(holes=holes, outer=(0j, 9.0)).to_json()


def test_surface_within():
    plane = Surface()
    minus = Surface(holes=((0j, 0.5),))
    disc = Surface(outer=(0j, 2.0))
    assert minus.within(plane) and disc.within(plane) and plane.within(plane)
    assert not plane.within(minus) and not plane.within(disc) and not disc.within(minus)
    assert Surface(holes=((0j, 0.6), (5.0 + 0j, 1.0))).within(minus)
    assert not Surface(holes=((0.2 + 0j, 0.5),)).within(minus)
    assert Surface(outer=(0.5 + 0j, 1.5)).within(disc)
    assert not Surface(outer=(0.6 + 0j, 1.5)).within(disc)
