"""Command-line front end: deterministic runs, JSON/CSV reports, exit codes.

Subcommands: bounds, orbifold, separation, expansion, pullback, homotopy,
basin.  Configuration is a flat key = value text file; command-line flags
override file values.  All floats are emitted with 12 significant digits and
every run with the same configuration produces byte-identical files.

Exit codes: 0 pass, 2 mathematical check failure, 64 usage error,
70 internal error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
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
from .errors import HyporbError, UsageError
from .homotopy import build_representative, epsilon_prime, relative_winding, winding_class
from .maps import get_map, nearest_preimage, postsingular_truncation
from .orbifolds import (
    MarkedOrbifold,
    Surface,
    Window,
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
    margin_rel: float = 1e-3
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
        numeric_positive = (
            "escape_radius", "refinement", "margin_rel", "homotopy_eps",
            "sample_r_min", "sample_r_max", "r_min", "r_max",
        )
        for name in numeric_positive:
            if getattr(self, name) <= 0:
                raise UsageError(f"config key {name} must be positive")
        if self.K <= 1:
            raise UsageError("config key K must exceed 1")
        for name in ("depth", "w_points", "k_max", "r_points", "sample_count",
                     "samples_per_scale", "pullback_kmax", "homotopy_n_max"):
            if getattr(self, name) < 1:
                raise UsageError(f"config key {name} must be >= 1")
        if self.w_points > bnd.MAX_W_POINTS:
            raise UsageError(
                f"config key w_points must be <= {bnd.MAX_W_POINTS} (the grid w = 0.001*j stays below 1)"
            )
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
    cfg = RunConfig()
    if path is None:
        return cfg
    valid = {f.name: f.type for f in fields(RunConfig)}
    updates: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = (tok.strip() for tok in line.partition("="))
        if key not in valid:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        updates[key] = _coerce(key, value)
    return replace(cfg, **updates)


def _coerce(key: str, value: str):
    current = getattr(RunConfig(), key)
    try:
        if isinstance(current, bool):
            return value.lower() in ("1", "true", "yes")
        if isinstance(current, int):
            return int(value)
        if isinstance(current, float):
            return float(value)
        return value
    except ValueError:
        raise UsageError(f"config key {key}: cannot parse {value!r}") from None


def f12(x: float) -> float:
    """Round to 12 significant digits for stable, readable output."""
    if x != x or x in (math.inf, -math.inf):
        return x
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


class _Reporter:
    """Writes the per-command json/csv artifacts under the output directory."""

    def __init__(self, cfg: RunConfig, command: str):
        self.cfg = cfg
        self.command = command
        self.outdir = Path(cfg.output)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def write_json(self, payload: dict) -> None:
        """Writes ``payload`` with every float rounded by ``f12``."""
        if self.cfg.format in ("json", "both"):
            path = self.outdir / f"{self.command}.json"
            path.write_text(json.dumps(_rounded(payload), indent=2) + "\n")

    def write_csv(self, header: list[str], rows: list[list]) -> None:
        if self.cfg.format in ("csv", "both"):
            path = self.outdir / f"{self.command}.csv"
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
            path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(cfg: RunConfig) -> int:
    rep = _Reporter(cfg, "bounds")
    chain = bnd.verify_bound_chain(bnd.default_w_grid(cfg.w_points), range(2, cfg.k_max + 1))
    table = bnd.lambda_table(cfg.r_min, cfg.r_max, cfg.r_points)
    rep.write_csv(["R", "Lambda"], [[R, v] for R, v in table])
    rep.write_json(
        {
            "command": "bounds",
            "passed": chain.passed,
            "samples": len(chain.samples),
            "worst_slack": chain.worst_slack,
            "violations": [
                {"w": v.w, "k": v.k, "what": v.description, "slack": v.slack}
                for v in chain.violations[:20]
            ],
            "lambda_at_1": bnd.lambda_lower(1.0),
        }
    )
    print(f"bounds: {'pass' if chain.passed else 'FAIL'} "
          f"({len(chain.samples)} samples, worst slack {_fmt(chain.worst_slack)})")
    return 0 if chain.passed else 2


def _build_pair(cfg: RunConfig):
    spec = get_map(cfg.map)
    pair = build_associated_orbifold(spec, cfg.depth, cfg.escape_radius)
    return spec, pair


def cmd_orbifold(cfg: RunConfig) -> int:
    rep = _Reporter(cfg, "orbifold")
    spec, (base, lift) = _build_pair(cfg)
    rng = np.random.default_rng(cfg.seed)
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
        "command": "orbifold",
        "map": cfg.map,
        "base": base.to_json(),
        "lift": lift.to_json(),
        "covering_passed": covering.passed,
        "covering_witnesses": covering.witnesses[:10],
        "inclusion_passed": inclusion.passed,
        "inclusion_witnesses": inclusion.witnesses[:10],
        "separation": sep.to_json(),
    }
    rep.write_json(payload)
    rep.write_csv(
        ["mark_re", "mark_im", "ramification"],
        [[p.real, p.imag, nu] for p, nu in base.marks],
    )
    ok = covering.passed and inclusion.passed
    print(f"orbifold[{cfg.map}]: {'pass' if ok else 'FAIL'} "
          f"({len(base.marks)} base marks, {len(lift.marks)} lift marks)")
    return 0 if ok else 2


def cmd_separation(cfg: RunConfig) -> int:
    rep = _Reporter(cfg, "separation")
    spec = get_map(cfg.map)
    trunc = postsingular_truncation(spec, cfg.depth, cfg.escape_radius)
    sep = separation_report(trunc, cfg.K, spec)
    payload = {
        "command": "separation",
        "map": cfg.map,
        "points": [[p.point.real, p.point.imag] for p in trunc.points],
        "julia_candidates": sum(1 for p in trunc.points if not p.fatou_candidate),
        "fatou_candidates": sum(1 for p in trunc.points if p.fatou_candidate),
        "report": sep.to_json(),
    }
    rep.write_json(payload)
    rep.write_csv(
        ["epsilon_star", "annulus_count_M", "orbit_crit_bound_c", "max_local_degree", "depth", "K"],
        [[sep.epsilon_star, sep.annulus_count_M, sep.orbit_crit_bound_c,
          sep.max_local_degree, sep.depth, sep.K]],
    )
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
    rep = _Reporter(cfg, "expansion")
    spec, pair = _build_pair(cfg)
    base, lift = pair
    window = Window(r_max=8.0 * cfg.sample_r_max, r_min=0.0)
    supply = boundary_set(spec, lift, base, window)
    certs = []
    for z in sample_points(cfg):
        cert = expansion_certificate(
            pair, z, supply, refinement=cfg.refinement, margin_rel=cfg.margin_rel
        )
        certs.append(cert)
    min_lambda = min(c.lambda_bar for c in certs)
    scales = [2.0**e for e in range(cfg.scale_min_exp, cfg.scale_max_exp + 1)]
    rows = annulus_uniformity_scan(
        spec, pair, scales, samples_per_scale=cfg.samples_per_scale, refinement=cfg.refinement
    )
    maxes = [r.max_R_bar for r in rows if r.samples > 0]
    rho = spearman_rank_correlation(list(range(len(maxes))), maxes) if len(maxes) >= 2 else 0.0
    payload = {
        "command": "expansion",
        "map": cfg.map,
        "certificates": [c.to_json() for c in certs],
        "min_lambda_bar": min_lambda,
        "scan": [asdict(r) for r in rows],
        "scan_spearman": rho,
        "boundary_points": len(supply),
        "truncation_note": "boundary set enumerated from depth-"
        f"{cfg.depth} truncated data; escape labels are truncation-relative",
    }
    rep.write_json(payload)
    rep.write_csv(
        ["scale", "max_R_bar", "min_lambda_bar", "samples"],
        [[r.scale, r.max_R_bar, r.min_lambda_bar, r.samples] for r in rows],
    )
    print(f"expansion[{cfg.map}]: min certified lambda {_fmt(min_lambda)} over {len(certs)} points")
    if min_lambda <= 1.0:
        print("internal error: certificate with lambda_bar <= 1", file=sys.stderr)
        return 70
    return 0


def cmd_pullback(cfg: RunConfig) -> int:
    rep = _Reporter(cfg, "pullback")
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
    rep.write_csv(
        ["k", "length_bound"],
        [[r.k, r.length_bound] for r in result.rows],
    )
    rep.write_json(
        {
            "command": "pullback",
            "map": cfg.map,
            "curve0": [[v.real, v.imag] for v in curve0.vertices],
            "branch_seed": [seed.real, seed.imag],
            "lengths": [r.length_bound for r in result.rows],
            "ratios": [{"k": k, "ratio": v} for k, v in ratios],
            "decay_rate": result.decay_rate,
            "forward_residual": result.forward_residual,
            "monotone_after_burn_in": not bad,
        }
    )
    print(f"pullback[{cfg.map}]: rate {_fmt(result.decay_rate)}, "
          f"forward residual {_fmt(result.forward_residual)}")
    return 0 if not bad else 2


def cmd_homotopy(cfg: RunConfig) -> int:
    rep = _Reporter(cfg, "homotopy")
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
    rep.write_csv(["d", "n", "sign", "length", "winding", "limit"], rows)
    rep.write_json(
        {
            "command": "homotopy",
            "eps": eps,
            "orders": cfg.homotopy_orders(),
            "n_max": cfg.homotopy_n_max,
            "rows": len(rows),
            "violations": violations,
            "max_length": max(r[3] for r in rows),
            "limit": limit,
        }
    )
    print(f"homotopy: {len(rows)} representatives, max length "
          f"{_fmt(max(r[3] for r in rows))} < {_fmt(limit)}: {violations == 0}")
    return 0 if violations == 0 else 2


def cmd_basin(cfg: RunConfig) -> int:
    rep = _Reporter(cfg, "basin")
    spec = get_map(cfg.map)
    trunc = postsingular_truncation(spec, cfg.depth, cfg.escape_radius)
    discs = []
    for q in trunc.attracting_cycle_points():
        disc = find_absorbing_disc(spec, q)
        discs.append(
            {
                "center": [disc.center.real, disc.center.imag],
                "radius": disc.radius,
                "boundary_sup": disc.boundary_sup,
            }
        )
    rep.write_json({"command": "basin", "map": cfg.map, "absorbing_discs": discs})
    rep.write_csv(
        ["center_re", "center_im", "radius", "boundary_sup"],
        [[d["center"][0], d["center"][1], d["radius"], d["boundary_sup"]] for d in discs],
    )
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
    parser.add_argument("--show-config", action="store_true", help="print the effective config")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        overrides: dict[str, object] = {}
        for flag in ("output", "map", "depth", "format"):
            value = getattr(args, flag)
            if value is not None:
                overrides[flag] = value
        for item in args.set:
            if "=" not in item:
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in {f.name for f in fields(RunConfig)}:
                raise UsageError(f"unknown config key {key!r}")
            overrides[key] = _coerce(key, value.strip())
        cfg = replace(cfg, **overrides)
        cfg.validate()
        if args.command == "show-config" or args.show_config:
            for f in fields(RunConfig):
                print(f"{f.name} = {getattr(cfg, f.name)}")
            if args.command == "show-config":
                return 0
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except HyporbError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
