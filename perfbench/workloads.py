"""Workloads of the hyporb CLI benchmark: fixed lists of CLI invocations.

Each workload is a list of ``hyporb`` command lines.  The workload seed only
chooses the values passed with ``--set``; the number and kind of commands,
and so the number of certificates and certified lengths each pass computes,
never depend on it.  ``DEFAULT_SEED`` passes the CLI defaults unchanged, so
its artifacts can be compared byte for byte with recorded digests.

Seeded ranges (all uniform, multiplicative around the CLI default):

* expansion workloads: ``sample_r_min`` in 2.0 * [0.98, 1.02] and
  ``sample_r_max`` in 100 * [0.99, 1.01].  These move the 40 (or 8) sample
  points and the sample window, and so the candidate sets and the winning
  paths; the annulus scan, whose scales are integers, stays fixed.  The
  ranges are narrow so that the spread of ``r_bar_mean`` across seeds stays
  well inside its 5% bound (about 1% at these ranges, 2.5% at twice them).
* survey: ``seed`` (the orbifold sample generator) in [1, 2**31) and
  ``pullback_imag`` in 0.5 * [0.96, 1.04].  The pullback's first certified
  length sets ``r_bar_scan_max`` here, which spreads about 1% across seeds
  at this range and 2% at 0.5 * [0.9, 1.1].
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
MAPS = ("cosh", "pi_sinh", "cosh_minus_one")


@dataclass(frozen=True)
class Invocation:
    """One CLI command line; ``label`` names its output directory."""

    label: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    maps: tuple[str, ...]


def _sets(values: dict[str, object]) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in values.items():
        out += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return tuple(out)


def _jitter(rng: random.Random | None, value: float, rel: float) -> float:
    return value if rng is None else value * rng.uniform(1.0 - rel, 1.0 + rel)


def _rng(seed: int) -> random.Random | None:
    return None if seed == DEFAULT_SEED else random.Random(seed)


def _expansion(name: str, map_name: str, fixed: dict, r_max: float, seed: int) -> Workload:
    rng = _rng(seed)
    values = dict(fixed)
    values["sample_r_min"] = _jitter(rng, 2.0, 0.02)
    values["sample_r_max"] = _jitter(rng, r_max, 0.01)
    argv = ("expansion", "--map", map_name) + _sets(values)
    return Workload(name, (Invocation(f"expansion-{map_name}", argv),), (map_name,))


def expansion_default(seed: int, reduced: bool = False) -> Workload:
    fixed = {}
    if reduced:
        fixed = {"sample_count": 4, "samples_per_scale": 3, "scale_min_exp": 2, "scale_max_exp": 3}
    return _expansion("expansion-default", "cosh", fixed, 20.0 if reduced else 100.0, seed)


def expansion_wide(seed: int, reduced: bool = False) -> Workload:
    fixed = {"sample_count": 8, "samples_per_scale": 3, "scale_min_exp": 6, "scale_max_exp": 10}
    if reduced:
        fixed.update(sample_count=2, scale_min_exp=3, scale_max_exp=4)
    return _expansion("expansion-wide", "cosh_minus_one", fixed, 20.0 if reduced else 100.0, seed)


def survey(seed: int, reduced: bool = False) -> Workload:
    rng = _rng(seed)
    cfg_seed = 1234 if rng is None else rng.randrange(1, 2**31)
    imag = _jitter(rng, 0.5, 0.04)
    bounds = {"w_points": 99, "k_max": 8} if reduced else {}
    homotopy = {"homotopy_n_max": 2} if reduced else {}
    per_map = {"seed": cfg_seed, "pullback_imag": imag}
    if reduced:
        per_map["pullback_kmax"] = 3
    maps = MAPS[:1] if reduced else MAPS
    invs = [
        Invocation("bounds", ("bounds",) + _sets(bounds)),
        Invocation("homotopy", ("homotopy",) + _sets(homotopy)),
    ]
    for map_name in maps:
        for cmd in ("orbifold", "separation", "pullback", "basin"):
            invs.append(Invocation(f"{cmd}-{map_name}", (cmd, "--map", map_name) + _sets(per_map)))
    return Workload("survey", tuple(invs), maps)


WORKLOADS = {
    "expansion-default": expansion_default,
    "expansion-wide": expansion_wide,
    "survey": survey,
}


def make(name: str, seed: int, reduced: bool = False) -> Workload:
    return WORKLOADS[name](seed, reduced)
