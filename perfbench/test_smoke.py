"""Smoke test of the benchmark itself, on reduced-size workloads.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_cli(ROOT)


def test_reduced_workloads_pass_and_produce_every_declared_metric(tmp_path):
    produced: set[str] = set()
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 7, reduced=True)
        tracer = Tracer()
        result = run.measure(cli, wl, 0, tmp_path / name, tracer)
        assert result.failed == 0, result.problems
        assert result.attempted == 2 * len(wl.invocations)
        layers = run.per_layer(wl, 7, result, tracer)  # runs the tracer's self-check
        assert layers["trace.overhead_ratio"] > 0
        produced |= {k for k, v in layers.items() if v > 0}
        e2e = run.end_to_end(wl, result, [0.1])
        assert [m["name"] for m in run.SPEC["end_to_end"]] == list(e2e)
        assert all(v > 0 for v in e2e.values()), e2e
    # Zero on every workload at seed 7: no digests are recorded for it, no
    # pullback needs a branch insertion, and no command reaches cone_density.
    zero = {"cli.artifact_digest_mismatches", "maps.pullback_curve.inserted", "models.cone_density.calls"}
    missing = [m["name"] for m in run.SPEC["per_layer"] if m["name"] not in produced | zero]
    assert not missing


def test_tracer_sees_calls_through_imported_names(tmp_path):
    wl = workloads.make("survey", workloads.DEFAULT_SEED, reduced=True)
    tracer = Tracer()
    result = run.measure(cli, wl, 0, tmp_path, tracer)
    m = tracer.pass_metrics(result.traced_pass_ids[0])
    # homotopy (n_max 2, orders 2,3,6) has 18 rows and pullback (k_max 3) 4
    assert m["certify.certified_curve_length.calls"] == 18 + 4
    assert m["orbifolds.build_associated_orbifold.calls"] == 2
    assert m["models.cone_circle_length.calls"] > 0


def test_tracer_restores_every_function():
    from hyporb import certify, maps, orbifolds

    before = (cli.expansion_certificate, certify.boundary_set, orbifolds.MarkedOrbifold.ramification,
              maps.get_map("cosh").preimages)
    tracer = Tracer()
    tracer.install()
    assert cli.expansion_certificate is not before[0]
    assert maps.get_map("cosh").preimages is not before[3]
    tracer.uninstall()
    after = (cli.expansion_certificate, certify.boundary_set, orbifolds.MarkedOrbifold.ramification,
             maps.get_map("cosh").preimages)
    assert all(a is b for a, b in zip(before, after))


def test_corrupted_lambda_bar_counts_as_failed(tmp_path, monkeypatch):
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--output") + 1]) / "expansion.json"
        data = json.loads(out.read_text())
        data["certificates"][0]["lambda_bar"] = 1.0
        out.write_text(json.dumps(data, indent=2) + "\n")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    wl = workloads.make("expansion-default", workloads.DEFAULT_SEED, reduced=True)
    result = run.measure(cli, wl, 0, tmp_path, None)
    assert result.attempted == 2
    assert result.failed == 2
    assert "lambda_bar 1.0 is not > 1" in result.problems[0]


def test_nonzero_exit_counts_as_failed_and_still_reports(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 70)
    wl = workloads.make("survey", workloads.DEFAULT_SEED, reduced=True)
    result = run.measure(cli, wl, 0, tmp_path, None)
    assert result.failed == result.attempted == 2 * len(wl.invocations)
    assert run.end_to_end(wl, result, [0.1])["certs_per_s"] == 0.0


def test_floor_check_rejects_a_wrong_last_digit():
    assert checks.floor_matches(3.56996975118, 1.00039663588)
    assert not checks.floor_matches(3.56996975118, 1.00039663589)


def test_default_seed_passes_cli_defaults():
    defaults = cli.RunConfig()
    for name in workloads.WORKLOADS:
        for inv in workloads.make(name, workloads.DEFAULT_SEED).invocations:
            sets = [v for k, v in zip(inv.argv, inv.argv[1:]) if k == "--set"]
            for item in sets:
                key, _, value = item.partition("=")
                if key in {"sample_count", "samples_per_scale", "scale_min_exp", "scale_max_exp"}:
                    continue  # expansion-wide's fixed sizes
                assert cli._coerce(key, value) == getattr(defaults, key), item
    assert {f.name for f in fields(defaults)} >= {"sample_r_min", "sample_r_max", "pullback_imag", "seed"}


def test_seeds_keep_the_commands_and_change_only_set_values():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 1), workloads.make(name, 2)
        assert [inv.label for inv in a.invocations] == [inv.label for inv in b.invocations]
        assert a != b
        for x, y in zip(a.invocations, b.invocations):
            keys = [[v.partition("=")[0] for v in inv.argv if "=" in v] for inv in (x, y)]
            assert keys[0] == keys[1]
        assert workloads.make(name, 1) == a


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
