"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Expected constants were computed with an mpmath oracle at 40 digits and
frozen here; runtime limits are asserted where the criterion states one.
"""

import cmath
import math
import sys
import time
from collections import Counter

import pytest

from hyporb import bounds, certify, homotopy, orbifolds
from hyporb.bounds import (
    R_of_w,
    default_w_grid,
    lambda_lower,
    ratio_cone_over_disc,
    ratio_upper,
    verify_bound_chain,
)
from hyporb.certify import (
    annulus_uniformity_scan,
    certified_curve_length,
    expansion_certificate,
    pullback_shrinking_experiment,
    spearman_rank_correlation,
)
from hyporb.cli import main as cli_main
from hyporb.curves import PolylineCurve
from hyporb.homotopy import (
    build_representative,
    epsilon_prime,
    relative_winding,
    winding_class,
)
from hyporb.maps import postsingular_truncation
from hyporb.orbifolds import (
    MarkedOrbifold,
    Surface,
    boundary_set,
    build_associated_orbifold,
    find_absorbing_disc,
    separation_report,
)

PI = math.pi
LOG3 = 1.0986122886681098
LAMBDA_AT_1 = 1.0754151025300257   # e / sqrt(e^2 - 1), mpmath oracle
SHARP_HALF = 1.0606601717798212    # (1 + w) / (2 sqrt(w)) at w = 0.5
ABSORB_SUP = 0.12762596520638078   # cosh(0.5) - 1


def report(n, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {n}: {detail}"


def count_calls(monkeypatch, module, names):
    """Count the calls of each ``module.<name>``; the counts are work measures
    that, unlike the wall clock, do not drift with the host's speed."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_criterion_01_sharpness_identity(monkeypatch):
    calls = count_calls(monkeypatch, sys.modules[__name__], ("ratio_cone_over_disc", "lambda_lower"))
    t0 = time.monotonic()
    worst = 0.0
    for w in default_w_grid(999):
        worst = max(worst, abs(ratio_cone_over_disc(2, w) - lambda_lower(R_of_w(w))))
    dt = time.monotonic() - t0
    report(
        1,
        worst <= 1e-12 and dt < 1.0
        and calls == {"ratio_cone_over_disc": 999, "lambda_lower": 999},
        f"sharpness gap {worst:.2e} on 999 points, {calls['lambda_lower']} lambda_lower calls",
        dt,
    )


def test_criterion_02_bound_chain(monkeypatch):
    # one lambda_lower per radius and one cone ratio per (w, k) pair
    calls = count_calls(monkeypatch, bounds, ("lambda_lower", "_cone_ratio"))
    t0 = time.monotonic()
    result = verify_bound_chain(default_w_grid(999), range(2, 65))
    worst_upper = max(
        abs(ratio_upper(R_of_w(w)) * w - 1.0) for w in default_w_grid(999)
    )
    dt = time.monotonic() - t0
    report(
        2,
        result.passed and worst_upper <= 1e-12 and dt < 5.0
        and calls == {"lambda_lower": 999, "_cone_ratio": 999 * 63},
        f"chain on {len(result.samples)} samples, worst slack {result.worst_slack:.2e}, "
        f"upper-bound identity gap {worst_upper:.2e}, "
        f"{calls['lambda_lower']} lambda_lower calls, {calls['_cone_ratio']} cone ratios",
        dt,
    )


def test_criterion_03_lambda_table(tmp_path):
    t0 = time.monotonic()
    assert cli_main(["bounds", "--output", str(tmp_path)]) == 0
    rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
    table = [tuple(float(tok) for tok in row.split(",")) for row in rows]
    values = [v for _, v in table]
    strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
    above_one = all(v > 1.0 for v in values)
    at_one = min(table, key=lambda row: abs(row[0] - 1.0))[1]
    ok = strictly_decreasing and above_one and abs(at_one - LAMBDA_AT_1) <= 1e-6
    dt = time.monotonic() - t0
    report(3, ok, f"emitted table strictly decreasing, >1, Lambda(1) = {at_one:.9f}", dt)


def test_criterion_04_pi_sinh_postsingular(pi_sinh_map, monkeypatch):
    calls = count_calls(monkeypatch, orbifolds, ("_newton_fixed_point", "local_degree"))
    t0 = time.monotonic()
    trunc = postsingular_truncation(pi_sinh_map, 10, 1e6)
    pts = trunc.julia_points()
    expected = [0j, 1j * PI, -1j * PI]
    exact = len(pts) == 3 and all(
        min(abs(p - want) for p in pts) <= 1e-9 for want in expected
    )
    preperiodic = all(
        rec.cycle_points() for rec in trunc.records.values()
    )
    base, _ = build_associated_orbifold(pi_sinh_map, 10)
    rams = [base.ramification(want) for want in expected]
    dt = time.monotonic() - t0
    # one Newton solve per point of the 12 x 12 seed grid of find_repelling_cycle
    report(
        4,
        exact and preperiodic and rams == [2, 2, 2] and dt < 1.0
        and calls == {"_newton_fixed_point": 144, "local_degree": 82},
        f"postsingular set {{0, +pi i, -pi i}} with ramification {rams}, "
        f"{calls['_newton_fixed_point']} Newton solves",
        dt,
    )


def test_criterion_05_cosh_separation(cosh_map, monkeypatch):
    calls = count_calls(monkeypatch, orbifolds, ("local_degree",))
    t0 = time.monotonic()
    trunc = postsingular_truncation(cosh_map, 8, 1e6)
    rep = separation_report(trunc, 2.0, cosh_map)
    ok = (
        0.3519 <= rep.epsilon_star <= 0.3520
        and rep.annulus_count_M == 3
        and rep.orbit_crit_bound_c == 1
        and rep.max_local_degree == 2
    )
    julia = len(trunc.julia_points())
    dt = time.monotonic() - t0
    report(
        5,
        ok and dt < 1.0 and julia == 7 and calls == {"local_degree": 14},
        f"eps* = {rep.epsilon_star:.6f}, M = {rep.annulus_count_M} over {julia} Julia points, "
        f"c = {rep.orbit_crit_bound_c}, max degree = {rep.max_local_degree}",
        dt,
    )


def test_criterion_06_cone_distance_convergence(monkeypatch):
    calls = count_calls(monkeypatch, certify, ("segment_point_distances",))
    t0 = time.monotonic()
    orb = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))
    curve = PolylineCurve([1e-9 + 0j, 0.25 + 0j])
    v4 = certified_curve_length(orb, curve, refinement=1e-4)
    passes4 = calls["segment_point_distances"]
    v5 = certified_curve_length(orb, curve, refinement=1e-5)
    passes5 = calls["segment_point_distances"] - passes4
    ok = (
        LOG3 < v4 <= 1.02 * LOG3
        and LOG3 < v5 <= 1.002 * LOG3
    )
    dt = time.monotonic() - t0
    # segment-mark distance passes: the rejection test and one per bounding call
    report(
        6,
        ok and dt < 5.0 and (passes4, passes5) == (8, 7),
        f"radial bounds {v4:.6f} and {v5:.6f} vs log 3 = {LOG3:.6f}, always from above, "
        f"from {passes4} and {passes5} distance passes",
        dt,
    )


def test_criterion_07_expansion_certificates(cosh_map, cosh_pair, monkeypatch):
    t0 = time.monotonic()
    base, lift = cosh_pair
    supply = boundary_set(cosh_map, lift, base, 800.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    ok = True
    min_lambda = math.inf
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return certified_curve_length(*args, **kwargs)

    monkeypatch.setattr(certify, "certified_curve_length", counted)
    for j in range(100):
        r = 2.0 * 50.0 ** (j / 99.0)
        theta = 2.0 * PI * ((0.17 + j * phi) % 1.0)
        z = r * complex(math.cos(theta), math.sin(theta))
        cert = expansion_certificate(cosh_pair, z, supply)
        min_lambda = min(min_lambda, cert.lambda_bar)
        ok = ok and math.isfinite(cert.R_bar) and cert.lambda_bar > 1.0
    # a deterministic work bound that does not drift with the host's speed:
    # the 100 certificates measure 146 of their 3,696 candidate paths, each
    # by one certified_curve_length call
    ok = ok and calls <= 200

    synth_base = MarkedOrbifold(Surface(outer=(0j, 1.0)), ())
    synth_lift = MarkedOrbifold(Surface(outer=(0j, 1.0)), ((0j, 2),))
    synth = expansion_certificate((synth_base, synth_lift), 0.5 + 0j, [0j])
    sharp_ok = abs(synth.lambda_bar - SHARP_HALF) <= 1e-9
    dt = time.monotonic() - t0
    report(
        7,
        ok and sharp_ok,
        f"100 cosh certificates finite with min lambda {min_lambda:.9f} > 1 "
        f"from {calls} curve lengths; "
        f"synthetic single-cone lambda = {synth.lambda_bar:.12f}",
        dt,
    )


def test_criterion_08_annulus_uniformity(cosh_map, cosh_pair):
    t0 = time.monotonic()
    scales = [2.0**e for e in range(2, 10)]
    rows = annulus_uniformity_scan(cosh_map, cosh_pair, scales, samples_per_scale=9)
    maxes = [r.max_R_bar for r in rows]
    ok = all(r.samples > 0 and math.isfinite(r.max_R_bar) for r in rows)
    med = sorted(maxes)[len(maxes) // 2]
    factor = max(maxes) / med
    rho = spearman_rank_correlation(list(range(len(maxes))), maxes)
    ok = ok and factor <= 1.5 and rho < 0.5
    dt = time.monotonic() - t0
    report(
        8,
        ok,
        f"per-scale max R in [{min(maxes):.3f}, {max(maxes):.3f}], "
        f"max/median {factor:.3f} <= 1.5, spearman {rho:.3f} < 0.5",
        dt,
    )


def test_criterion_09_pullback_shrinking(cosh_map, cosh_pair):
    t0 = time.monotonic()
    curve0 = PolylineCurve([5.5 + 0.5j, 6.0 + 0.5j])
    seed = -cmath.acosh(5.5 + 0.5j)
    result = pullback_shrinking_experiment(cosh_map, cosh_pair, curve0, seed, k_max=9)
    ratios = dict(result.ratios())
    monotone = all(ratios[k + 1] < 1.0 for k in range(2, 9))
    ok = monotone and result.forward_residual <= 1e-8
    dt = time.monotonic() - t0
    report(
        9,
        ok,
        f"ratios k=2..8 all < 1 (max {max(ratios[k + 1] for k in range(2, 9)):.4f}), "
        f"forward residual {result.forward_residual:.2e} <= 1e-8",
        dt,
    )


def test_criterion_10_homotopy_representatives(monkeypatch):
    distance_calls = count_calls(monkeypatch, certify, ("segment_point_distances",))
    circle_calls = count_calls(monkeypatch, homotopy, ("cone_circle_length",))
    t0 = time.monotonic()
    eps = 1.0
    ok = True
    worst = 0.0
    vertices = 0
    for d in (2, 3, 6):
        ep = epsilon_prime(eps, d)
        orb = MarkedOrbifold(Surface(outer=(0j, eps)), ((0j, d),))
        p = 0.8 * ep * cmath.exp(0.3j)
        q = 0.6 * ep * cmath.exp(-1.1j)
        w0 = winding_class(build_representative(p, q, 0, 1, eps, d), 0j)
        for n in range(0, 33):
            for sign in (1, -1):
                rep = build_representative(p, q, n, sign, eps, d)
                vertices += len(rep.vertices)
                length = certified_curve_length(orb, rep, refinement=eps, mark_margin=0.0)
                wind = relative_winding(winding_class(rep, 0j), w0)
                worst = max(worst, length)
                ok = ok and length < eps / 6.0 and wind == sign * n
    dt = time.monotonic() - t0
    passes = distance_calls["segment_point_distances"]
    circles = circle_calls["cone_circle_length"]
    # deterministic work counts beside the wall-clock bound, which drifts with
    # the host's speed: the vertices of the 198 representatives, the
    # segment-mark distance passes that certify their lengths, and the circle
    # lengths that choose their radii
    report(
        10,
        ok and vertices <= 1_158_525 and passes == 1_704 and circles == 2_485 and dt < 2.0,
        f"198 representatives ({vertices} vertices, {passes} distance passes, "
        f"{circles} circle lengths), "
        f"max certified length {worst:.6f} < {eps / 6.0:.6f}, exact classes",
        dt,
    )


def test_criterion_11_absorbing_disc(cosh_minus_one_map):
    t0 = time.monotonic()
    disc = find_absorbing_disc(cosh_minus_one_map, 0j)
    ok = (
        disc.radius == 0.5
        and abs(disc.boundary_sup - 0.1276260) <= 1e-7
        and abs(disc.boundary_sup - ABSORB_SUP) <= 1e-12
    )
    dt = time.monotonic() - t0
    report(11, ok, f"radius 0.5 certified with boundary sup {disc.boundary_sup:.9f}", dt)


@pytest.mark.parametrize(
    "command,mapname",
    [
        ("bounds", "cosh"),
        ("orbifold", "cosh"),
        ("separation", "cosh"),
        ("expansion", "cosh"),
        ("pullback", "cosh"),
        ("homotopy", "cosh"),
        ("basin", "cosh_minus_one"),
    ],
)
def test_criterion_12_cli_determinism(tmp_path, command, mapname):
    t0 = time.monotonic()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        code = cli_main([command, "--output", str(out), "--map", mapname])
        assert code == 0, f"{command} exited {code}"
    identical = True
    compared = 0
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        identical = identical and f2.exists() and f1.read_bytes() == f2.read_bytes()
        compared += 1
    dt = time.monotonic() - t0
    report(12, identical and compared > 0, f"{command}: {compared} artifact(s) byte-identical", dt)
