"""Catalogue entire maps: evaluation, orbits, inverse branches, curve pullback.

The catalogue is fixed (``cosh``, ``pi_sinh`` = pi*sinh, ``cosh_minus_one``)
with analytically known critical data and 2*pi*i periodicity.  All orbit
classifications are truncation-relative: an ``Escaped`` status only states
that the orbit left the configured escape radius within the computed steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .curves import PolylineCurve
from .errors import BranchBreak, DomainError, NearCritical, NoConvergence, NotFound, Overflow

_TWO_PI = 2.0 * math.pi
# Two computed points (orbit points, preimages, marks) at most this far apart are one point.
SAME_POINT_TOL = 1e-9
# Iteration budget of the damped Newton solve in ``inverse_step``.
_NEWTON_MAX_ITER = 80
# ``inverse_step`` gives up (NearCritical) where |f'| falls below this.
_NEWTON_DERIV_FLOOR = 1e-8
# Bisections of the target curve allowed per ``pullback_curve`` call.
_MAX_INSERTIONS = 4096


@dataclass(frozen=True)
class EntireMapSpec:
    """A concrete entire map with evaluator, derivatives and singular data.

    ``critical_value_witnesses`` pairs each critical value (the catalogue maps
    have no other singular values) with one critical point mapping onto it,
    and ``preimages(value, r_max)`` enumerates the full preimage set of a
    value in the disc |z| <= r_max + 1e-9, using the closed-form inverse
    branches plus the 2*pi*i period lattice.
    """

    name: str
    eval: Callable[[complex], complex]
    deriv: Callable[[complex], complex]
    deriv2: Callable[[complex], complex]
    critical_value_witnesses: tuple[tuple[complex, complex], ...]
    preimages: Callable[[complex, float], list[complex]]


def _k_range(imag_center: float, span: float) -> range:
    k_lo = math.floor((-span - imag_center) / _TWO_PI) - 1
    k_hi = math.ceil((span - imag_center) / _TWO_PI) + 1
    return range(k_lo, k_hi + 1)


class PointSet:
    """The same-point rule: kept points, in order, each more than ``tol`` from the earlier ones.

    ``find(z)`` is the index of the earliest kept point within ``tol`` of ``z``
    (or None); ``add(z)`` keeps ``z`` when there is none, and returns its index.
    Kept points are hashed into cells of side 2*tol, so a match lies in the 3x3
    cells around ``z``: rounding in ``x / cell`` never moves two points within
    tol two cells apart, at any magnitude (a cell of side tol would allow it).
    """

    def __init__(self, points: Iterable[complex] = (), tol: float = SAME_POINT_TOL):
        self.tol = tol
        self.points: list[complex] = []
        self._cell = 2.0 * tol
        self._grid: dict[tuple[int, int], list[int]] = {}
        add = self.add
        for z in points:
            add(z)

    def _scan(self, z: complex) -> tuple[int | None, tuple[int, int]]:
        # plain loops over local names: a comprehension measured 20% slower
        cell = self._cell
        i, j = math.floor(z.real / cell), math.floor(z.imag / cell)
        get, pts, tol = self._grid.get, self.points, self.tol
        best = None
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for k in get((i + di, j + dj), ()):
                    if abs(z - pts[k]) <= tol and (best is None or k < best):
                        best = k
        return best, (i, j)

    def find(self, z: complex) -> int | None:
        return self._scan(z)[0]

    def add(self, z: complex) -> int:
        k, key = self._scan(z)
        if k is None:
            k = len(self.points)
            self.points.append(z)
            self._grid.setdefault(key, []).append(k)
        return k


def _safe_acosh(w: complex) -> complex:
    # cmath.acosh squares its argument internally; fall back to log(2w) for
    # very large |w| where w**2 would overflow.
    if abs(w) > 1e150:
        return cmath.log(2.0 * w)
    return cmath.acosh(w)


def _cosh_bases(target: complex) -> tuple[complex, complex]:
    """The two branch bases of cosh z = target."""
    w0 = _safe_acosh(target)
    return w0, -w0


def _pi_sinh_bases(target: complex) -> tuple[complex, complex]:
    """The two branch bases of pi*sinh z = target."""
    w0 = cmath.asinh(target / math.pi)
    return w0, 1j * math.pi - w0


def _lattice_preimages(bases: tuple[complex, ...], r_max: float) -> list[complex]:
    """Points base + 2*pi*i*k with |z| <= r_max + 1e-9, sorted by (|z|, re, im)."""
    pts: list[complex] = []
    for base in bases:
        for k in _k_range(base.imag, r_max):
            z = base + _TWO_PI * 1j * k
            if abs(z) <= r_max + 1e-9:
                pts.append(z)
    pts = PointSet(pts).points
    pts.sort(key=lambda z: (abs(z), z.real, z.imag))
    return pts


def _make_cosh() -> EntireMapSpec:
    return EntireMapSpec(
        name="cosh",
        eval=cmath.cosh,
        deriv=cmath.sinh,
        deriv2=cmath.cosh,
        critical_value_witnesses=((-1.0 + 0j, 1j * math.pi), (1.0 + 0j, 0j)),
        preimages=lambda v, r_max: _lattice_preimages(_cosh_bases(v), r_max),
    )


def _make_pi_sinh() -> EntireMapSpec:
    pi = math.pi
    return EntireMapSpec(
        name="pi_sinh",
        eval=lambda z: pi * cmath.sinh(z),
        deriv=lambda z: pi * cmath.cosh(z),
        deriv2=lambda z: pi * cmath.sinh(z),
        critical_value_witnesses=((-1j * pi, -1j * pi / 2), (1j * pi, 1j * pi / 2)),
        preimages=lambda v, r_max: _lattice_preimages(_pi_sinh_bases(v), r_max),
    )


def _make_cosh_minus_one() -> EntireMapSpec:
    return EntireMapSpec(
        name="cosh_minus_one",
        eval=lambda z: cmath.cosh(z) - 1.0,
        deriv=cmath.sinh,
        deriv2=cmath.cosh,
        critical_value_witnesses=((-2.0 + 0j, 1j * math.pi), (0j, 0j)),
        preimages=lambda v, r_max: _lattice_preimages(_cosh_bases(v + 1.0), r_max),
    )


_CATALOGUE: dict[str, EntireMapSpec] = {}


def catalogue() -> dict[str, EntireMapSpec]:
    if not _CATALOGUE:
        for spec in (_make_cosh(), _make_pi_sinh(), _make_cosh_minus_one()):
            _CATALOGUE[spec.name] = spec
    return _CATALOGUE


def get_map(name: str) -> EntireMapSpec:
    try:
        return catalogue()[name]
    except KeyError:
        raise DomainError(f"unknown map {name!r}; catalogue: {sorted(catalogue())}") from None


def evaluate(map_spec: EntireMapSpec, z: complex) -> complex:
    """Evaluate f(z) in double precision; raise Overflow outside the range."""
    try:
        w = map_spec.eval(complex(z))
    except OverflowError:
        raise Overflow(z) from None
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise Overflow(z)
    return w


def local_degree(map_spec: EntireMapSpec, z: complex) -> int:
    """Smallest n with nonzero n-th derivative at z (catalogue: 1 or 2).

    Criticality is decided by |f'(z)| <= 1e-9 and then confirmed by a nonzero
    second derivative; the catalogue maps have no degenerate critical points.
    """
    try:
        d1 = abs(map_spec.deriv(z))
    except OverflowError:
        return 1
    if d1 > 1e-9:
        return 1
    if abs(map_spec.deriv2(z)) <= 1e-9:
        raise DomainError(f"degenerate critical point at {z!r}")
    return 2


@dataclass(frozen=True)
class Escaped:
    step: int


@dataclass(frozen=True)
class Preperiodic:
    preperiod: int
    period: int


@dataclass(frozen=True)
class Undetermined:
    depth: int


OrbitStatus = Escaped | Preperiodic | Undetermined


@dataclass
class OrbitRecord:
    """Forward orbit ``points`` of ``points[0]`` with its truncation-relative classification.

    ``attracting``: the orbit falls into an attracting cycle (see ``iterate_orbit``).
    """

    points: list[complex]
    status: OrbitStatus
    attracting: bool = False

    def cycle_points(self) -> list[complex]:
        if not isinstance(self.status, Preperiodic):
            return []
        s = self.status
        return self.points[s.preperiod : s.preperiod + s.period]


def cycle_multiplier(map_spec: EntireMapSpec, cycle: list[complex]) -> complex:
    """Product of f' over the points of a cycle."""
    mult = 1.0 + 0j
    for p in cycle:
        mult *= map_spec.deriv(p)
    return mult


def iterate_orbit(
    map_spec: EntireMapSpec,
    seed: complex,
    depth: int,
    escape_radius: float = 1e6,
) -> OrbitRecord:
    """Iterate f from ``seed`` until escape, a revisit, or ``depth`` steps.

    A return within ``SAME_POINT_TOL`` of an earlier point yields ``Preperiodic``;
    a modulus above ``escape_radius`` (or an overflow) yields ``Escaped``.
    The first point beyond the escape radius is stored when representable.
    The cycle attracts when its multiplier has modulus below 1 - 1e-9.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if escape_radius <= 1:
        raise DomainError("escape_radius must exceed 1")
    pts = [complex(seed)]
    seen = PointSet(pts)
    status: OrbitStatus | None = None
    for step in range(1, depth + 1):
        if abs(pts[-1]) > escape_radius:
            status = Escaped(step - 1)
            break
        try:
            nxt = evaluate(map_spec, pts[-1])
        except Overflow:
            status = Escaped(step)
            break
        # the points so far are all kept, so an index below ``step`` is a revisit
        hit = seen.add(nxt)
        pts.append(nxt)
        if hit < step:
            status = Preperiodic(hit, step - hit)
            break
        if abs(nxt) > escape_radius:
            status = Escaped(step)
            break
    if status is None:
        status = Undetermined(depth)
    record = OrbitRecord(points=pts, status=status)
    cyc = record.cycle_points()
    record.attracting = bool(cyc) and abs(cycle_multiplier(map_spec, cyc)) < 1.0 - 1e-9
    return record


@dataclass(frozen=True)
class PostsingularPoint:
    point: complex
    fatou_candidate: bool


@dataclass
class TruncatedPostsingular:
    """Truncated postsingular set with per-point Fatou/Julia tags."""

    depth: int
    points: list[PostsingularPoint]
    records: dict[complex, OrbitRecord]

    def julia_points(self) -> list[complex]:
        return [p.point for p in self.points if not p.fatou_candidate]

    def attracting_cycle_points(self) -> list[complex]:
        """Points of the attracting cycles of the stored orbits, de-duplicated, in record order."""
        return PointSet(
            q for rec in self.records.values() if rec.attracting for q in rec.cycle_points()
        ).points


def postsingular_truncation(
    map_spec: EntireMapSpec,
    depth: int,
    escape_radius: float = 1e6,
) -> TruncatedPostsingular:
    """Union of the truncated forward orbits of all critical values.

    Points are de-duplicated by ``PointSet`` and tagged as Fatou
    candidates when their source orbit falls into a detected attracting
    cycle, Julia candidates otherwise.
    """
    values = sorted(
        (v for v, _ in map_spec.critical_value_witnesses), key=lambda v: (v.real, v.imag)
    )
    entries: list[PostsingularPoint] = []
    records: dict[complex, OrbitRecord] = {}
    seen = PointSet()
    for value in values:
        rec = iterate_orbit(map_spec, value, depth, escape_radius)
        records[value] = rec
        for p in rec.points:
            if seen.add(p) == len(entries):  # a new point
                entries.append(PostsingularPoint(point=p, fatou_candidate=rec.attracting))
    return TruncatedPostsingular(depth=depth, points=entries, records=records)


def inverse_step(
    map_spec: EntireMapSpec,
    target: complex,
    seed: complex,
    tol: float = 1e-10,
) -> complex:
    """Damped Newton solve of f(z) = target starting from ``seed``.

    Returns the branch-continuous preimage.  Raises NearCritical when |f'|
    falls below ``_NEWTON_DERIV_FLOOR`` along the way and NoConvergence when the
    residual target is not met within the iteration budget.
    """
    z = complex(seed)
    try:
        res = abs(map_spec.eval(z) - target)
    except OverflowError:
        raise NoConvergence(0, residual=math.inf) from None
    for it in range(_NEWTON_MAX_ITER):
        if res <= tol:
            return z
        dz = map_spec.deriv(z)
        if abs(dz) < _NEWTON_DERIV_FLOOR:
            raise NearCritical(z, abs(dz))
        step = (map_spec.eval(z) - target) / dz
        lam = 1.0
        for _ in range(40):
            cand = z - lam * step
            try:
                cand_res = abs(map_spec.eval(cand) - target)
            except OverflowError:
                cand_res = math.inf
            if cand_res < res:
                z, res = cand, cand_res
                break
            lam *= 0.5
        else:
            raise NoConvergence(it + 1, residual=res)
    if res <= tol:
        return z
    raise NoConvergence(_NEWTON_MAX_ITER, residual=res)


def nearest_preimage(map_spec: EntireMapSpec, a: complex) -> complex:
    """The preimage of ``a`` within |z| <= |a| + 12 nearest to ``a``, ties broken by (re, im).

    This seeds the inverse branch of a pullback; raises NotFound when there is none.
    """
    pres = map_spec.preimages(a, abs(a) + 12.0)
    if not pres:
        raise NotFound(f"no preimage of {a!r} within |z| <= |a| + 12")
    return min(pres, key=lambda p: (abs(p - a), p.real, p.imag))


def pullback_curve(
    map_spec: EntireMapSpec,
    curve: PolylineCurve,
    branch_seed: complex,
    tol: float = 1e-10,
) -> PolylineCurve:
    """Lift ``curve`` through the inverse branch selected by ``branch_seed``.

    The branch is continued vertex to vertex by damped Newton; whenever
    consecutive preimages jump more than the local step bound, target
    vertices are inserted adaptively.  Raises BranchBreak when refinement
    cannot restore continuity (the curve passes too close to a critical
    value).
    """
    targets = curve.vertices
    z0 = complex(branch_seed)
    if abs(map_spec.eval(z0) - targets[0]) > max(10 * tol, 1e-8):
        z0 = inverse_step(map_spec, targets[0], z0, tol)
    lifted = [z0]
    inserted = 0

    def continue_to(target: complex, t_prev: complex, depth: int) -> None:
        nonlocal inserted
        z_prev = lifted[-1]
        d_prev = abs(map_spec.deriv(z_prev))
        # Step bound: a healthy branch moves about |dw|/|f'|; allow slack 8.
        step_bound = 8.0 * abs(target - t_prev) / max(d_prev, 1e-12) + 1e-12
        try:
            z_new = inverse_step(map_spec, target, z_prev, tol)
            jump = abs(z_new - z_prev)
        except (NearCritical, NoConvergence):
            z_new, jump = None, math.inf
        if z_new is not None and jump <= step_bound:
            lifted.append(z_new)
            return
        if depth > 24 or inserted >= _MAX_INSERTIONS:
            raise BranchBreak(len(lifted) - 1, f"(target {target!r})")
        inserted += 1
        mid = 0.5 * (t_prev + target)
        continue_to(mid, t_prev, depth + 1)
        continue_to(target, mid, depth + 1)

    for a, b in zip(targets, targets[1:]):
        if a == b:
            lifted.append(lifted[-1])
            continue
        continue_to(b, a, 0)
    return PolylineCurve(lifted)

