"""Command-line front end: deterministic runs, JSON/CSV reports, exit codes.

Subcommands: bounds, orbifold, separation, expansion, pullback, homotopy,
basin, and show-config, which prints the effective configuration.
Configuration is a flat key = value text file; command-line flags override
file values and --set overrides anything.  All floats are emitted with 12 significant digits and
every run with the same configuration produces byte-identical files.

Exit codes: 0 pass, 2 mathematical check failure, 64 usage error,
70 internal error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .certify import (
    annulus_uniformity_scan,
    certified_curve_length,
    expansion_certificate,
    pullback_shrinking_experiment,
    sample_angles,
    spearman_rank_correlation,
)
from .curves import PolylineCurve
from .errors import UsageError
from .homotopy import build_representative, epsilon_prime, relative_winding, winding_class
from .maps import catalogue, get_map, nearest_preimage, postsingular_truncation
from .orbifolds import (
    MarkedOrbifold,
    Surface,
    boundary_set,
    build_associated_orbifold,
    check_covering_relation,
    check_holomorphic_inclusion,
    find_absorbing_disc,
    separation_report,
)


@dataclass
class RunConfig:
    """Flat run configuration with embedded defaults."""

    map: str = "cosh"
    depth: int = 8
    escape_radius: float = 1e6
    K: float = 2.0
    w_points: int = 999
    k_max: int = 64
    r_min: float = 0.05
    r_max: float = 8.0
    r_points: int = 160
    refinement: float = 1e-3
    seed: int = 1234
    sample_count: int = 40
    sample_r_min: float = 2.0
    sample_r_max: float = 100.0
    scale_min_exp: int = 2
    scale_max_exp: int = 9
    samples_per_scale: int = 6
    pullback_re_a: float = 5.5
    pullback_re_b: float = 6.0
    pullback_imag: float = 0.5
    pullback_kmax: int = 9
    homotopy_eps: float = 1.0
    homotopy_n_max: int = 10
    homotopy_d: str = "2,3,6"
    output: str = "."
    format: str = "both"

    def validate(self) -> None:
        if self.map not in catalogue():
            raise UsageError(f"config key map must be one of {sorted(catalogue())}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"config key {f.name} must be finite")
        numeric_positive = (
            "refinement", "homotopy_eps",
            "sample_r_min", "sample_r_max", "r_min", "r_max",
        )
        for name in numeric_positive:
            if getattr(self, name) <= 0:
                raise UsageError(f"config key {name} must be positive")
        if self.escape_radius <= 1:
            raise UsageError("config key escape_radius must exceed 1")
        if self.K <= 1:
            raise UsageError("config key K must exceed 1")
        if self.seed < 0:
            raise UsageError("config key seed must be >= 0")
        for name in ("depth", "w_points", "k_max", "sample_count",
                     "samples_per_scale", "pullback_kmax", "homotopy_n_max"):
            if getattr(self, name) < 1:
                raise UsageError(f"config key {name} must be >= 1")
        if self.w_points > bnd.MAX_W_POINTS:
            raise UsageError(
                f"config key w_points must be <= {bnd.MAX_W_POINTS} (the grid w = 0.001*j stays below 1)"
            )
        if self.r_min >= self.r_max:
            raise UsageError("config key r_min must be below r_max")
        if self.r_points < 2:
            raise UsageError("config key r_points must be >= 2")
        if self.scale_min_exp > self.scale_max_exp:
            raise UsageError("config key scale_min_exp must not exceed scale_max_exp")
        if self.format not in ("json", "csv", "both"):
            raise UsageError("config key format must be json, csv or both")
        try:
            self.homotopy_orders()
        except ValueError:
            raise UsageError("config key homotopy_d must be comma-separated integers >= 2") from None

    def homotopy_orders(self) -> list[int]:
        orders = [int(tok) for tok in self.homotopy_d.split(",") if tok.strip()]
        if not orders or any(d < 2 for d in orders):
            raise ValueError("bad homotopy orders")
        return orders


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    updates: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            _assign(updates, line, f"{path}:{lineno}")
    return replace(RunConfig(), **updates)


def _assign(updates: dict[str, object], item: str, where: str) -> None:
    """Parse one ``KEY = VALUE`` item into ``updates``; errors start with ``where``."""
    if "=" not in item:
        raise UsageError(f"{where}: expected KEY = VALUE, got {item!r}")
    key, _, value = (tok.strip() for tok in item.partition("="))
    if key not in {f.name for f in fields(RunConfig)}:
        raise UsageError(f"{where}: unknown config key {key!r}")
    try:
        updates[key] = _coerce(key, value)
    except ValueError:
        raise UsageError(f"{where}: config key {key}: cannot parse {value!r}") from None


def _coerce(key: str, value: str):
    """``value`` parsed as the type of ``key``'s default (int, float or str)."""
    return type(getattr(RunConfig(), key))(value)


def f12(x: float) -> float:
    """Round to 12 significant digits for stable, readable output; nan and inf pass unchanged."""
    return float(f"{x:.12g}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _rounded(data):
    """``data`` with ``f12`` applied to every float, through dicts and lists."""
    if isinstance(data, float):
        return f12(data)
    if isinstance(data, dict):
        return {k: _rounded(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_rounded(v) for v in data]
    return data


def _write(
    cfg: RunConfig, command: str, payload: dict, header: list[str], rows: list[list]
) -> None:
    """Write the artifacts that ``cfg.format`` selects under ``cfg.output``:
    ``<command>.json`` holds ``{"command": command, **payload}`` with every float
    rounded by ``f12``, ``<command>.csv`` the rows with floats as ``.12g``."""
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.format in ("json", "both"):
        text = json.dumps(_rounded({"command": command, **payload}), indent=2)
        (outdir / f"{command}.json").write_text(text + "\n")
    if cfg.format in ("csv", "both"):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        (outdir / f"{command}.csv").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(cfg: RunConfig) -> int:
    chain = bnd.verify_bound_chain(bnd.default_w_grid(cfg.w_points), range(2, cfg.k_max + 1))
    payload = {
        "passed": chain.passed,
        "samples": len(chain.samples),
        "worst_slack": chain.worst_slack,
        "violations": [
            {"w": v.w, "k": v.k, "what": v.description, "slack": v.slack}
            for v in chain.violations[:20]
        ],
        "lambda_at_1": bnd.lambda_lower(1.0),
    }
    table = bnd.lambda_table(cfg.r_min, cfg.r_max, cfg.r_points)
    _write(cfg, "bounds", payload, ["R", "Lambda"], [[R, v] for R, v in table])
    print(f"bounds: {'pass' if chain.passed else 'FAIL'} "
          f"({len(chain.samples)} samples, worst slack {_fmt(chain.worst_slack)})")
    return 0 if chain.passed else 2


def _build_pair(cfg: RunConfig):
    spec = get_map(cfg.map)
    pair = build_associated_orbifold(spec, cfg.depth, cfg.escape_radius)
    return spec, pair


def cmd_orbifold(cfg: RunConfig) -> int:
    spec, (base, lift) = _build_pair(cfg)
    rng = random.Random(cfg.seed)
    samples = []
    while len(samples) < 8:
        z = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        if base.contains(z) and base.ramification(z) == 1 and lift.ramification(z) == 1:
            samples.append(z)
    covering = check_covering_relation(spec, base, lift, samples)
    inclusion = check_holomorphic_inclusion(lift, base)
    trunc = postsingular_truncation(spec, cfg.depth, cfg.escape_radius)
    sep = separation_report(trunc, cfg.K, spec)
    payload = {
        "map": cfg.map,
        "base": base.to_json(),
        "lift": lift.to_json(),
        "covering_passed": covering.passed,
        "covering_witnesses": covering.witnesses[:10],
        "inclusion_passed": inclusion.passed,
        "inclusion_witnesses": inclusion.witnesses[:10],
        "separation": sep.to_json(),
    }
    _write(cfg, "orbifold", payload, ["mark_re", "mark_im", "ramification"],
           [[p.real, p.imag, nu] for p, nu in base.marks])
    ok = covering.passed and inclusion.passed
    print(f"orbifold[{cfg.map}]: {'pass' if ok else 'FAIL'} "
          f"({len(base.marks)} base marks, {len(lift.marks)} lift marks)")
    return 0 if ok else 2


def cmd_separation(cfg: RunConfig) -> int:
    spec = get_map(cfg.map)
    trunc = postsingular_truncation(spec, cfg.depth, cfg.escape_radius)
    sep = separation_report(trunc, cfg.K, spec)
    report = sep.to_json()
    payload = {
        "map": cfg.map,
        "points": [[p.point.real, p.point.imag] for p in trunc.points],
        "julia_candidates": sum(1 for p in trunc.points if not p.fatou_candidate),
        "fatou_candidates": sum(1 for p in trunc.points if p.fatou_candidate),
        "report": report,
    }
    _write(cfg, "separation", payload, list(report), [list(report.values())])
    print(f"separation[{cfg.map}]: eps*={_fmt(sep.epsilon_star)} M={sep.annulus_count_M} "
          f"c={sep.orbit_crit_bound_c}")
    return 0


def sample_points(cfg: RunConfig) -> list[complex]:
    """Deterministic log-spiral samples in the configured annulus."""
    pts = []
    n = cfg.sample_count
    ratio = cfg.sample_r_max / cfg.sample_r_min
    for j, theta in enumerate(sample_angles(n)):
        r = cfg.sample_r_min * ratio ** (j / max(n - 1, 1))
        pts.append(r * complex(math.cos(theta), math.sin(theta)))
    return pts


def cmd_expansion(cfg: RunConfig) -> int:
    spec, pair = _build_pair(cfg)
    base, lift = pair
    supply = boundary_set(spec, lift, base, 8.0 * cfg.sample_r_max)
    supply_arr = np.asarray(supply, dtype=complex)  # converted once for all certificates
    certs = [
        expansion_certificate(pair, z, supply_arr, refinement=cfg.refinement)
        for z in sample_points(cfg)
    ]
    min_lambda = min(c.lambda_bar for c in certs)
    scales = [2.0**e for e in range(cfg.scale_min_exp, cfg.scale_max_exp + 1)]
    rows = annulus_uniformity_scan(
        spec, pair, scales, samples_per_scale=cfg.samples_per_scale, refinement=cfg.refinement
    )
    maxes = [r.max_R_bar for r in rows if r.samples > 0]
    rho = spearman_rank_correlation(list(range(len(maxes))), maxes) if len(maxes) >= 2 else 0.0
    payload = {
        "map": cfg.map,
        "certificates": [c.to_json() for c in certs],
        "min_lambda_bar": min_lambda,
        "scan": [asdict(r) for r in rows],
        "scan_spearman": rho,
        "boundary_points": len(supply),
        "truncation_note": "boundary set enumerated from depth-"
        f"{cfg.depth} truncated data; escape labels are truncation-relative",
    }
    _write(cfg, "expansion", payload, ["scale", "max_R_bar", "min_lambda_bar", "samples"],
           [[r.scale, r.max_R_bar, r.min_lambda_bar, r.samples] for r in rows])
    print(f"expansion[{cfg.map}]: min certified lambda {_fmt(min_lambda)} over {len(certs)} points")
    if min_lambda <= 1.0:
        print("internal error: certificate with lambda_bar <= 1", file=sys.stderr)
        return 70
    return 0


def cmd_pullback(cfg: RunConfig) -> int:
    spec, pair = _build_pair(cfg)
    a = complex(cfg.pullback_re_a, cfg.pullback_imag)
    b = complex(cfg.pullback_re_b, cfg.pullback_imag)
    curve0 = PolylineCurve([a, b])
    seed = -cmath.acosh(a) if cfg.map == "cosh" else nearest_preimage(spec, a)
    result = pullback_shrinking_experiment(
        spec, pair, curve0, seed, k_max=cfg.pullback_kmax, refinement=cfg.refinement
    )
    ratios = result.ratios()
    bad = [(k, v) for k, v in ratios if k >= 2 and not v < 1.0]
    payload = {
        "map": cfg.map,
        "curve0": [[v.real, v.imag] for v in curve0.vertices],
        "branch_seed": [seed.real, seed.imag],
        "lengths": result.lengths,
        "ratios": [{"k": k, "ratio": v} for k, v in ratios],
        "decay_rate": result.decay_rate,
        "forward_residual": result.forward_residual,
        "monotone_after_burn_in": not bad,
    }
    _write(cfg, "pullback", payload, ["k", "length_bound"],
           [[k, v] for k, v in enumerate(result.lengths)])
    print(f"pullback[{cfg.map}]: rate {_fmt(result.decay_rate)}, "
          f"forward residual {_fmt(result.forward_residual)}")
    return 0 if not bad else 2


def cmd_homotopy(cfg: RunConfig) -> int:
    eps = cfg.homotopy_eps
    limit = eps / 6.0
    rows = []
    violations = 0
    for d in cfg.homotopy_orders():
        ep = epsilon_prime(eps, d)
        orb = MarkedOrbifold(Surface(outer=(0j, eps)), ((0j, d),))
        p = 0.8 * ep * cmath.exp(0.3j)
        q = 0.6 * ep * cmath.exp(-1.1j)
        direct = build_representative(p, q, 0, 1, eps, d)
        w0 = winding_class(direct, 0j)
        for n in range(0, cfg.homotopy_n_max + 1):
            for sign in (1, -1):
                rep_curve = build_representative(p, q, n, sign, eps, d)
                length = certified_curve_length(orb, rep_curve, refinement=eps, mark_margin=0.0)
                wind = relative_winding(winding_class(rep_curve, 0j), w0)
                ok = length < limit and wind == sign * n
                violations += 0 if ok else 1
                rows.append([d, n, sign, length, wind, limit])
    max_length = max(r[3] for r in rows)
    payload = {
        "eps": eps,
        "orders": cfg.homotopy_orders(),
        "n_max": cfg.homotopy_n_max,
        "rows": len(rows),
        "violations": violations,
        "max_length": max_length,
        "limit": limit,
    }
    _write(cfg, "homotopy", payload, ["d", "n", "sign", "length", "winding", "limit"], rows)
    print(f"homotopy: {len(rows)} representatives, max length "
          f"{_fmt(max_length)} < {_fmt(limit)}: {violations == 0}")
    return 0 if violations == 0 else 2


def cmd_basin(cfg: RunConfig) -> int:
    spec = get_map(cfg.map)
    trunc = postsingular_truncation(spec, cfg.depth, cfg.escape_radius)
    discs = [find_absorbing_disc(spec, q) for q in trunc.attracting_cycle_points()]
    payload = {
        "map": cfg.map,
        "absorbing_discs": [
            {"center": [d.center.real, d.center.imag], "radius": d.radius,
             "boundary_sup": d.boundary_sup}
            for d in discs
        ],
    }
    _write(cfg, "basin", payload, ["center_re", "center_im", "radius", "boundary_sup"],
           [[d.center.real, d.center.imag, d.radius, d.boundary_sup] for d in discs])
    print(f"basin[{cfg.map}]: {len(discs)} absorbing disc(s)")
    return 0


_COMMANDS = {
    "bounds": cmd_bounds,
    "orbifold": cmd_orbifold,
    "separation": cmd_separation,
    "expansion": cmd_expansion,
    "pullback": cmd_pullback,
    "homotopy": cmd_homotopy,
    "basin": cmd_basin,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 on usage problems, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hyporb", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["show-config"])
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--map", help="catalogue map name")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--format", choices=["json", "csv", "both"])
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        overrides = {
            flag: getattr(args, flag)
            for flag in ("output", "map", "depth", "format")
            if getattr(args, flag) is not None
        }
        for item in args.set:
            _assign(overrides, item, "--set")
        cfg = replace(cfg, **overrides)
        cfg.validate()
        if args.command == "show-config":
            for f in fields(RunConfig):
                print(f"{f.name} = {getattr(cfg, f.name)}")
            return 0
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
