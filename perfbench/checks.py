"""Artifact checks for one CLI invocation, and the quality figures read from artifacts.

A check reads only the files the CLI wrote.  The expansion floor is
recomputed here from ``R_bar`` with the closed form
``lambda(R) = e^R / sqrt(e^(2R) - 1) = 1 / sqrt(1 - e^(-2R))``, independent
of the library's own ``lambda_lower``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The CLI writes floats with 12 significant digits: relative rounding <= 5e-12.
ROUNDING_12 = 5e-12


def lambda_floor(R: float) -> float:
    return 1.0 / math.sqrt(-math.expm1(-2.0 * R))


def _f12(x: float) -> float:
    return float(f"{x:.12g}")


def floor_matches(R_file: float, lambda_file: float) -> bool:
    """``lambda_file`` is the 12-digit floor of some R that rounds to ``R_file``.

    The floor decreases in R, so the admissible values lie between the rounded
    floors at the two ends of R_file's rounding interval.
    """
    lo = _f12(lambda_floor(R_file * (1.0 + ROUNDING_12)))
    hi = _f12(lambda_floor(R_file * (1.0 - ROUNDING_12)))
    return lo <= lambda_file <= hi


def _json(outdir: Path, command: str) -> dict:
    return json.loads((outdir / f"{command}.json").read_text())


def _csv_column(outdir: Path, command: str, column: str) -> list[float]:
    with (outdir / f"{command}.csv").open(newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _check_expansion(data: dict) -> list[str]:
    problems = []
    for i, cert in enumerate(data["certificates"]):
        R, lam = cert["R_bar"], cert["lambda_bar"]
        if not lam > 1.0:
            problems.append(f"certificate {i}: lambda_bar {lam!r} is not > 1")
        elif not floor_matches(R, lam):
            problems.append(f"certificate {i}: lambda_bar {lam!r} != lambda_lower({R!r}) = {lambda_floor(R)!r}")
    for row in data["scan"]:
        if row["samples"] > 0 and not row["min_lambda_bar"] > 1.0:
            problems.append(f"scan scale {row['scale']}: min_lambda_bar {row['min_lambda_bar']!r} is not > 1")
    return problems


def check(command: str, outdir: Path) -> list[str]:
    """Problems found in the artifacts of one successful invocation (empty when correct)."""
    try:
        data = _json(outdir, command)
        if command == "bounds":
            return [] if data["passed"] is True else ["bounds.json: passed is not true"]
        if command == "expansion":
            return _check_expansion(data)
        if command == "homotopy":
            return [] if data["violations"] == 0 else [f"homotopy.json: {data['violations']} violations"]
        if command == "pullback":
            return [] if data["monotone_after_burn_in"] is True else ["pullback.json: not monotone after burn-in"]
        if command == "orbifold":
            failed = [k for k in ("covering_passed", "inclusion_passed") if data[k] is not True]
            return [f"orbifold.json: {k} is not true" for k in failed]
        return []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable artifact: {type(exc).__name__}: {exc}"]


def certified_counts(command: str, outdir: Path) -> tuple[int, int]:
    """(expansion certificates, other certified curve lengths) an invocation wrote."""
    if command == "expansion":
        data = _json(outdir, command)
        return len(data["certificates"]) + sum(r["samples"] for r in data["scan"]), 0
    if command == "homotopy":
        return 0, _json(outdir, command)["rows"]
    if command == "pullback":
        return 0, len(_json(outdir, command)["lengths"])
    return 0, 0


def quality(command: str, outdir: Path) -> dict[str, list[float]]:
    """Certified hyperbolic lengths an invocation wrote, grouped by role.

    ``mean`` values enter ``r_bar_mean``, ``max`` values ``r_bar_scan_max``
    and ``sum`` values ``length_sum``.
    """
    if command == "expansion":
        data = _json(outdir, command)
        cert_R = [c["R_bar"] for c in data["certificates"]]
        scan_R = [r["max_R_bar"] for r in data["scan"] if r["samples"] > 0]
        return {"mean": cert_R, "max": scan_R, "sum": cert_R + scan_R}
    if command == "homotopy":
        lengths = _csv_column(outdir, command, "length")
    elif command == "pullback":
        lengths = _csv_column(outdir, command, "length_bound")
    else:
        return {}
    return {"mean": lengths, "max": lengths, "sum": lengths}
