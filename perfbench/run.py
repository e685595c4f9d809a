#!/usr/bin/env python3
"""Benchmark of the hyporb command-line interface.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload expansion-default --seed 0 --seconds 20 --trace 0

The program under test is ``src/hyporb`` of that checkout, driven through its
public entry point ``hyporb.cli.main`` in this one process, with numpy's BLAS
limited to one thread.  A pass runs every invocation of the workload once
(see ``workloads.py``); passes repeat while the next one is expected to end
within ``--seconds``, and at least two run, so that their artifacts can be
compared byte for byte.

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
alternates untraced and traced passes and reports the per-module metrics of
the traced passes (see ``tracer.py``) and the tracing overhead.  Every
invocation is checked (``checks.py``); a failed check or a nonzero exit code
counts as a failed operation.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment and the raw samples.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread.
SINGLE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in SINGLE_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# The metrics to report, with their units, as declared for this benchmark.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# Commands whose CLI handler builds the associated orbifold pair once.
BUILDS_PAIR = ("expansion", "orbifold", "pullback")

# Fresh-interpreter set-up: import, then build the pair of every map the
# workload uses at the CLI's default depth and escape radius.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hyporb
from hyporb.cli import RunConfig
cfg = RunConfig()
for name in sys.argv[2:]:
    hyporb.build_associated_orbifold(hyporb.get_map(name), cfg.depth, cfg.escape_radius)
print(repr(time.perf_counter() - t0))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run or cannot trust its own measurement."""


@dataclass
class Run:
    """Everything measured by one call of ``measure``."""

    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)  # process CPU seconds per pass
    traced_pass_ids: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failed_in_first_pass: set[str] = field(default_factory=set)  # invocation labels
    first_pass: Path | None = None
    artifacts: dict[str, bytes] = field(default_factory=dict)


def import_cli(root: Path):
    """Import ``hyporb.cli`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "hyporb" / "__init__.py").is_file():
        raise BenchmarkError(f"no hyporb package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import hyporb.cli

    if Path(hyporb.__file__).resolve().parent != (src / "hyporb").resolve():
        raise BenchmarkError(f"imported hyporb from {hyporb.__file__}, not from {src}")
    return hyporb.cli


def measure_setup(root: Path, maps: tuple[str, ...]) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(root / "src"), *maps],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=root,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _run_pass(cli, wl: workloads.Workload, outdir: Path) -> tuple[float, float, list[int], str]:
    sink = io.StringIO()
    codes = []
    c0, t0 = process_time(), perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        for inv in wl.invocations:
            codes.append(cli.main([*inv.argv, "--output", str(outdir / inv.label)]))
    return perf_counter() - t0, process_time() - c0, codes, sink.getvalue()


def _read_artifacts(outdir: Path) -> dict[str, bytes]:
    return {p.relative_to(outdir).as_posix(): p.read_bytes() for p in sorted(outdir.rglob("*")) if p.is_file()}


def measure(cli, wl: workloads.Workload, seconds: float, workdir: Path, tracer: Tracer | None) -> Run:
    """Run passes for ``seconds``; with a tracer, every second pass is traced.

    At least two passes run.  After that a pass starts only when, at the mean
    pass duration so far, it would end within ``seconds`` of the start.
    """
    run = Run()
    t_start = perf_counter()
    pass_id = 0
    while True:
        elapsed = perf_counter() - t_start
        if pass_id >= 2 and elapsed * (pass_id + 1) / pass_id > seconds:
            break
        traced = tracer is not None and pass_id % 2 == 1
        outdir = workdir / f"pass{pass_id}"
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            wall, cpu, codes, log = _run_pass(cli, wl, outdir)
        finally:
            if traced:
                tracer.uninstall()
        (run.traced_s if traced else run.untraced_s).append(wall)
        run.cpu_s.append(cpu)
        if traced:
            run.traced_pass_ids.append(pass_id)
        artifacts = _read_artifacts(outdir)
        for inv, code in zip(wl.invocations, codes):
            run.attempted += 1
            bad = [f"exit code {code}"] if code != 0 else checks.check(inv.command, outdir / inv.label)
            if pass_id > 0:
                mine = {k: v for k, v in artifacts.items() if k.startswith(inv.label + "/")}
                ref = {k: v for k, v in run.artifacts.items() if k.startswith(inv.label + "/")}
                if mine != ref:
                    bad.append("artifacts differ from pass 0")
            if bad:
                run.failed += 1
                run.problems.append(f"pass {pass_id} {' '.join(inv.argv)}: {'; '.join(bad)}")
                if pass_id == 0:
                    run.failed_in_first_pass.add(inv.label)
        if any(code != 0 for code in codes):
            run.problems.append(f"pass {pass_id} CLI output tail: {log.strip()[-400:]}")
        if pass_id == 0:
            run.first_pass, run.artifacts = outdir, artifacts
        else:
            shutil.rmtree(outdir, ignore_errors=True)
        pass_id += 1
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def certified_per_pass(wl: workloads.Workload, run: Run) -> tuple[int, int]:
    """(expansion certificates, other certified lengths) in the checked artifacts of pass 0."""
    certs = lengths = 0
    for inv in wl.invocations:
        if inv.label not in run.failed_in_first_pass:
            c, n = checks.certified_counts(inv.command, run.first_pass / inv.label)
            certs, lengths = certs + c, lengths + n
    return certs, lengths


def end_to_end(wl: workloads.Workload, run: Run, setup_s: list[float]) -> dict[str, float]:
    wall = statistics.median(run.untraced_s)
    certs, lengths = certified_per_pass(wl, run)
    groups: dict[str, list[float]] = {"mean": [], "max": [], "sum": []}
    for inv in wl.invocations:
        if inv.label in run.failed_in_first_pass:
            continue
        for role, values in checks.quality(inv.command, run.first_pass / inv.label).items():
            groups[role] += values
    nan = float("nan")
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certs_per_s": (certs or lengths) / wall,
        "r_bar_mean": statistics.fmean(groups["mean"]) if groups["mean"] else nan,
        "r_bar_scan_max": max(groups["max"]) if groups["max"] else nan,
        "length_sum": sum(groups["sum"]) if groups["sum"] else nan,
    }


def artifact_digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {k: hashlib.sha256(v).hexdigest() for k, v in artifacts.items()}


def _digest_mismatches(wl: workloads.Workload, seed: int, artifacts: dict[str, bytes]) -> int:
    """Artifacts whose digest differs from the recorded default-seed one (0 at other seeds)."""
    recorded = json.loads(DIGESTS.read_text()).get(wl.name) if DIGESTS.is_file() else None
    if seed != workloads.DEFAULT_SEED or recorded is None:
        return 0
    mine = artifact_digests(artifacts)
    return sum(1 for k in set(mine) | set(recorded) if mine.get(k) != recorded.get(k))


def self_check(wl: workloads.Workload, run: Run, per_pass: list[dict[str, float]]) -> None:
    """The traced counts must agree with what the artifacts say was computed."""
    certs, lengths = certified_per_pass(wl, run)
    builds = sum(1 for inv in wl.invocations if inv.command in BUILDS_PAIR)
    for m in per_pass:
        got = {k: int(m.get(f"{k}.calls", 0)) for k in (
            "certify.expansion_certificate", "certify.certified_curve_length",
            "orbifolds.build_associated_orbifold")}
        expected_len_ok = (got["certify.certified_curve_length"] >= certs if certs
                           else got["certify.certified_curve_length"] == lengths)
        if (got["certify.expansion_certificate"] != certs or not expected_len_ok
                or got["orbifolds.build_associated_orbifold"] != builds):
            raise BenchmarkError(
                f"tracer missed calls: {got}, artifacts imply {certs} certificates, "
                f"{lengths} certified lengths, {builds} pair builds"
            )


def per_layer(wl: workloads.Workload, seed: int, run: Run, tracer: Tracer) -> dict[str, float]:
    """Per-pass medians of every span and counter of the traced passes, plus derived figures."""
    per_pass = [tracer.pass_metrics(p) for p in run.traced_pass_ids]
    if run.failed == 0:  # a failed invocation computed less than its artifacts say
        self_check(wl, run, per_pass)
    out = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in set().union(*per_pass)}
    out["certify.certified_curve_length.rejected"] = out.get("certify.certified_curve_length.raised.DomainError", 0.0)
    latencies = tracer.durations("certify.expansion_certificate")
    if len(latencies) >= 2:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        out["certify.expansion_certificate.p50_ms"] = 1e3 * deciles[4]
        out["certify.expansion_certificate.p90_ms"] = 1e3 * deciles[8]
    out["certify.expansion_certificate.samples"] = float(len(latencies))
    certs = out.get("certify.expansion_certificate.calls", 0.0)
    out["certify.paths_per_cert"] = out.get("certify.certified_curve_length.calls", 0.0) / certs if certs else 0.0
    out["cli.self_s"] = out["cli.main.self_s"]
    out["cli.artifact_bytes"] = float(sum(len(v) for v in run.artifacts.values()))
    out["cli.artifact_digest_mismatches"] = float(_digest_mismatches(wl, seed, run.artifacts))
    out["trace.overhead_ratio"] = statistics.median(run.traced_s) / statistics.median(run.untraced_s)
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _commit(root: Path) -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=root, env=env, timeout=SETUP_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy

    src = hashlib.sha256()
    for p in sorted((root / "src" / "hyporb").rglob("*.py")):
        src.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": _commit(root),
        "source_sha256": src.hexdigest(),
        "single_process": True,
        "threads_at_end": threading.active_count(),
        "blas_threads_env": {v: os.environ[v] for v in SINGLE_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _metrics_json(values: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics with their units; a metric no pass produced reads 0."""
    out = {}
    for m in declared:
        v = float(values.get(m["name"], 0.0))
        out[m["name"]] = {"value": v if v == v else None, "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    wl = workloads.make(args.workload, args.seed)
    workdir = root / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        cli = import_cli(root)
        setup_s = measure_setup(root, wl.maps) if args.trace == 0 else []
        tracer = Tracer() if args.trace else None
        try:
            run = measure(cli, wl, args.seconds, workdir, tracer)
            if tracer is None:
                values, declared = end_to_end(wl, run, setup_s), SPEC["end_to_end"]
            else:
                values, declared = per_layer(wl, args.seed, run, tracer), SPEC["per_layer"]
                tracer.write(root / ".perfbench_out" / f"trace-{wl.name}-seed{args.seed}.jsonl")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # kept while another run uses it
                workdir.parent.rmdir()
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "argv": [list(inv.argv) for inv in wl.invocations],
        "untraced_pass_s": run.untraced_s,
        "traced_pass_s": run.traced_s,
        "cpu_pass_s": run.cpu_s,
        "setup_s_samples": setup_s,
        "ops_failed_ratio": run.failed / run.attempted,
        "environment": environment(root),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": _metrics_json(values, declared),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
