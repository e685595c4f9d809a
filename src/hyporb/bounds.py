"""Two-sided relative-density bounds and their sharpness identities.

Everything here is a scalar formula plus grid verification: the expansion
floor lambda_lower, the coarse upper bound 1 + 2/(e^R - 1), the exact
cone-over-disc and puncture-over-disc density quotients, and the chain of
inequalities connecting them.  Formulas are rearranged with expm1/log1p to
stay stable for large R; the verbatim textbook forms overflow early.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_ONE_PLUS = math.nextafter(1.0, math.inf)


def lambda_lower(R: float) -> float:
    """Certified expansion floor e^R / sqrt(e^(2R) - 1), always > 1.

    Computed as 1/sqrt(-expm1(-2R)).  For R large enough that the result is
    not representable above 1.0, the smallest double above 1.0 is returned
    so the strict inequality survives in floating point.
    """
    if R <= 0:
        raise DomainError("R must be positive")
    val = 1.0 / math.sqrt(-math.expm1(-2.0 * R))
    return max(val, _ONE_PLUS)


def R_of_w(w: float) -> float:
    """Hyperbolic distance log((1+w)/(1-w)) from the origin to radius w."""
    if not 0.0 < w < 1.0:
        raise DomainError("w must lie in (0, 1)")
    return 2.0 * math.atanh(w)


def ratio_upper(R: float) -> float:
    """Upper bound 1 + 2/(e^R - 1) on the relative density; equals 1/tanh(R/2)."""
    if R <= 0:
        raise DomainError("R must be positive")
    return 1.0 + 2.0 / math.expm1(R)


def ratio_cone_over_disc(k: int, w: float) -> float:
    """Exact quotient of the one-cone-disc density over the disc density.

    (1 - w^2) / (k * w^((k-1)/k) * (1 - w^(2/k))) at radius w, cone order k.
    """
    if k < 2:
        raise DomainError("cone order must be >= 2")
    if not 0.0 < w < 1.0:
        raise DomainError("w must lie in (0, 1)")
    return _cone_ratio(k, 2.0 / k, (k - 1.0) / k, math.log(w), 1.0 - w * w)


def _cone_ratio(k: int, two_over_k: float, exponent: float, log_w: float, one_minus_w2: float):
    """``ratio_cone_over_disc`` from log(w), 1 - w^2 and the per-k constants 2/k, (k-1)/k."""
    return one_minus_w2 / (k * math.exp(exponent * log_w) * -math.expm1(two_over_k * log_w))


def ratio_puncture_over_disc(w: float) -> float:
    """Exact quotient of the punctured-disc density over the disc density."""
    if not 0.0 < w < 1.0:
        raise DomainError("w must lie in (0, 1)")
    return (1.0 - w * w) / (2.0 * w * abs(math.log(w)))


@dataclass(frozen=True)
class ChainViolation:
    w: float
    k: int | None
    description: str
    slack: float


class _ChainSamples(Sequence):
    """The checked ``(w, k)`` pairs row by row (each w with every k, then None), none stored."""

    def __init__(self, ws: tuple, ks: list[int]):
        self._ws, self._ks = ws, (*ks, None)

    def __len__(self) -> int:
        return len(self._ws) * len(self._ks)

    def __getitem__(self, i: int) -> tuple[float, int | None]:
        row, col = divmod(range(len(self))[i], len(self._ks))
        return self._ws[row], self._ks[col]

    def __iter__(self):
        return ((w, k) for w in self._ws for k in self._ks)


@dataclass
class BoundChainResult:
    """``samples``: the checked ``(w, k)`` pairs, ``k`` None for the puncture step."""

    samples: Sequence[tuple[float, int | None]]
    violations: list[ChainViolation]
    worst_slack: float

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_bound_chain(w_grid, k_set) -> BoundChainResult:
    """Check lower <= cone(k) <= cone(k+1) <= puncture <= upper on a grid.

    An inequality counts as violated when it comes short by more than 1e-10,
    or when its shortfall is nan (both sides infinite), since it was not
    checked.  Violations are returned as data; ``worst_slack`` is the largest
    amount by which any inequality came short (negative when everything holds
    with margin), nan shortfalls left out.

    Each radius w is one row: its cone ratios in increasing k, from one
    log(w).  Correctly rounded subtraction is monotone in each argument, so
    the row's largest shortfall is exactly the largest of lo - min(row),
    max(row) - puncture, the largest adjacent difference and puncture - upper;
    only a row whose largest shortfall exceeds 1e-10, or with an infinite
    ratio (a nan shortfall needs two), is checked sample by sample, for its
    violations in order.
    """
    k_list = sorted(set(int(k) for k in k_set))
    if any(k < 2 for k in k_list):
        raise DomainError("cone orders must be >= 2")
    k_consts = [(k, 2.0 / k, (k - 1.0) / k) for k in k_list]
    w_grid = tuple(w_grid)
    violations: list[ChainViolation] = []
    worst = -math.inf
    for w in w_grid:
        R = R_of_w(w)
        lo = lambda_lower(R)
        up = ratio_upper(R)
        punct = ratio_puncture_over_disc(w)
        log_w, one_minus_w2 = math.log(w), 1.0 - w * w
        row = [_cone_ratio(k, a, b, log_w, one_minus_w2) for k, a, b in k_consts]
        # puncture - upper goes last: it is nan where both overflow to inf
        # (subnormal w), and max keeps an earlier argument over a nan, which
        # never counts as a shortfall
        row_worst = punct - up
        top = max(row, default=0.0)
        if row:
            adjacent = max(map(operator.sub, row, row[1:]), default=-math.inf)
            row_worst = max(lo - min(row), top - punct, adjacent, row_worst)
        worst = max(worst, row_worst)
        # a nan step needs two infinite sides; the ratios are all positive,
        # so the sum is infinite whenever one of them is
        if row_worst > 1e-10 or math.isinf(top + punct + up):
            violations += _row_violations(w, k_list, row, lo, punct, up)
    return BoundChainResult(_ChainSamples(w_grid, k_list), violations, worst)


def _row_violations(w, k_list, row, lo, punct, up) -> list[ChainViolation]:
    """The violations of one grid row, in the order the chain lists them."""
    shorts = []
    for i, (k, r) in enumerate(zip(k_list, row)):
        shorts.append((lo - r, k, "lambda_lower <= ratio_cone"))
        if i:
            shorts.append((row[i - 1] - r, k, "ratio_cone(k) <= ratio_cone(k+1)"))
        shorts.append((r - punct, k, "ratio_cone <= ratio_puncture"))
    shorts.append((punct - up, None, "ratio_puncture <= ratio_upper"))
    return [ChainViolation(w, k, what, short) for short, k, what in shorts if not short <= 1e-10]


def lambda_table(r_min: float, r_max: float, count: int) -> list[tuple[float, float]]:
    """(R, lambda_lower(R)) rows for a plot-ready table."""
    if not (0 < r_min < r_max) or count < 2:
        raise DomainError("need 0 < r_min < r_max and count >= 2")
    rs = np.linspace(r_min, r_max, count)
    return [(float(R), lambda_lower(float(R))) for R in rs]


MAX_W_POINTS = 999


def default_w_grid(points: int = MAX_W_POINTS) -> list[float]:
    """The radii w = 0.001*j for j = 1..points, all inside (0, 1).

    ``points`` may not exceed MAX_W_POINTS, where w would reach 1.
    """
    if not 1 <= points <= MAX_W_POINTS:
        raise DomainError(f"points must lie in 1..{MAX_W_POINTS}")
    return [0.001 * j for j in range(1, points + 1)]
