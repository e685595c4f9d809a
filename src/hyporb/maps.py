"""Catalogue entire maps: evaluation, orbits, inverse branches, curve pullback.

The catalogue is fixed (``cosh``, ``pi_sinh`` = pi*sinh, ``cosh_minus_one``)
with analytically known critical data and 2*pi*i periodicity.  All orbit
classifications are truncation-relative: an ``Escaped`` status only states
that the orbit left the configured escape radius within the computed steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from .curves import PolylineCurve
from .errors import BranchBreak, DomainError, NearCritical, NoConvergence, NotFound, Overflow

_TWO_PI = 2.0 * math.pi
# Points of the truncated postsingular set closer than this are one point.
_POSTSINGULAR_DEDUP_TOL = 1e-9
# Iteration budget of the damped Newton solve in ``inverse_step``.
_NEWTON_MAX_ITER = 80
# ``inverse_step`` gives up (NearCritical) where |f'| falls below this.
_NEWTON_DERIV_FLOOR = 1e-8
# Bisections of the target curve allowed per ``pullback_curve`` call.
_MAX_INSERTIONS = 4096


@dataclass(frozen=True)
class EntireMapSpec:
    """A concrete entire map with evaluator, derivatives and singular data.

    ``critical_value_witnesses`` pairs each critical value with one critical
    point mapping onto it.  ``critical_points_in_disc(center, radius)``
    enumerates critical points with their local degrees inside a disc, and
    ``preimages(value, r_max, r_min)`` enumerates the full preimage set of a
    value inside an annulus, using the closed-form inverse branches plus the
    2*pi*i period lattice.
    """

    name: str
    eval: Callable[[complex], complex]
    deriv: Callable[[complex], complex]
    deriv2: Callable[[complex], complex]
    critical_values: tuple[complex, ...]
    critical_value_witnesses: tuple[tuple[complex, complex], ...]
    asymptotic_values: tuple[complex, ...]
    critical_points_in_disc: Callable[[complex, float], list[tuple[complex, int]]]
    preimages: Callable[[complex, float, float], list[complex]]

    def singular_values(self) -> tuple[complex, ...]:
        return self.critical_values + self.asymptotic_values


def _k_range(imag_center: float, span: float) -> range:
    k_lo = math.floor((-span - imag_center) / _TWO_PI) - 1
    k_hi = math.ceil((span - imag_center) / _TWO_PI) + 1
    return range(k_lo, k_hi + 1)


def _in_annulus(z: complex, r_max: float, r_min: float) -> bool:
    m = abs(z)
    return r_min - 1e-9 <= m <= r_max + 1e-9


def _dedup(points: list[complex], tol: float = 1e-9) -> list[complex]:
    """Drop each point within ``tol`` of an earlier kept point; order is kept.

    Kept points are hashed into square cells of side 2*tol, so a point within
    tol of a kept one finds it among the 3x3 cells around its own.  With that
    side, rounding in ``x / cell`` never moves two such points two cells apart,
    at any magnitude (a cell of side tol would allow it).
    """
    cell = 2.0 * tol
    grid: dict[tuple[int, int], list[complex]] = {}
    out: list[complex] = []
    for p in points:
        i, j = math.floor(p.real / cell), math.floor(p.imag / cell)
        near = (
            q
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for q in grid.get((i + di, j + dj), ())
        )
        if all(abs(p - q) > tol for q in near):
            out.append(p)
            grid.setdefault((i, j), []).append(p)
    return out


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


def _lattice_preimages(bases: tuple[complex, ...], r_max: float, r_min: float) -> list[complex]:
    """Points base + 2*pi*i*k in the annulus r_min <= |z| <= r_max, sorted by (|z|, re, im)."""
    pts: list[complex] = []
    for base in bases:
        for k in _k_range(base.imag, r_max):
            z = base + _TWO_PI * 1j * k
            if _in_annulus(z, r_max, r_min):
                pts.append(z)
    pts = _dedup(pts)
    pts.sort(key=lambda z: (abs(z), z.real, z.imag))
    return pts


def _imaginary_lattice_critical_points(
    center: complex, radius: float, offset: float
) -> list[tuple[complex, int]]:
    """Critical points of the catalogue lie on i*(offset + pi*Z); degree 2."""
    out = []
    lo = math.floor((center.imag - radius - offset) / math.pi)
    hi = math.ceil((center.imag + radius - offset) / math.pi)
    for k in range(lo, hi + 1):
        c = 1j * (offset + math.pi * k)
        if abs(c - center) <= radius:
            out.append((c, 2))
    out.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    return out


def _make_cosh() -> EntireMapSpec:
    return EntireMapSpec(
        name="cosh",
        eval=cmath.cosh,
        deriv=cmath.sinh,
        deriv2=cmath.cosh,
        critical_values=(-1.0 + 0j, 1.0 + 0j),
        critical_value_witnesses=((-1.0 + 0j, 1j * math.pi), (1.0 + 0j, 0j)),
        asymptotic_values=(),
        critical_points_in_disc=lambda c, r: _imaginary_lattice_critical_points(c, r, 0.0),
        preimages=lambda v, r_max, r_min: _lattice_preimages(_cosh_bases(v), r_max, r_min),
    )


def _make_pi_sinh() -> EntireMapSpec:
    pi = math.pi
    return EntireMapSpec(
        name="pi_sinh",
        eval=lambda z: pi * cmath.sinh(z),
        deriv=lambda z: pi * cmath.cosh(z),
        deriv2=lambda z: pi * cmath.sinh(z),
        critical_values=(-1j * pi, 1j * pi),
        critical_value_witnesses=((-1j * pi, -1j * pi / 2), (1j * pi, 1j * pi / 2)),
        asymptotic_values=(),
        critical_points_in_disc=lambda c, r: _imaginary_lattice_critical_points(c, r, pi / 2),
        preimages=lambda v, r_max, r_min: _lattice_preimages(_pi_sinh_bases(v), r_max, r_min),
    )


def _make_cosh_minus_one() -> EntireMapSpec:
    return EntireMapSpec(
        name="cosh_minus_one",
        eval=lambda z: cmath.cosh(z) - 1.0,
        deriv=cmath.sinh,
        deriv2=cmath.cosh,
        critical_values=(-2.0 + 0j, 0j),
        critical_value_witnesses=((-2.0 + 0j, 1j * math.pi), (0j, 0j)),
        asymptotic_values=(),
        critical_points_in_disc=lambda c, r: _imaginary_lattice_critical_points(c, r, 0.0),
        preimages=lambda v, r_max, r_min: _lattice_preimages(_cosh_bases(v + 1.0), r_max, r_min),
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


def local_degree(map_spec: EntireMapSpec, z: complex, tol: float = 1e-9) -> int:
    """Smallest n with nonzero n-th derivative at z (catalogue: 1 or 2).

    Criticality is decided by |f'(z)| <= tol and then confirmed by a nonzero
    second derivative; the catalogue maps have no degenerate critical points.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    try:
        d1 = abs(map_spec.deriv(z))
    except OverflowError:
        return 1
    if d1 > tol:
        return 1
    if abs(map_spec.deriv2(z)) <= tol:
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
    """Forward orbit of a seed with its truncation-relative classification.

    ``attracting``: the orbit falls into an attracting cycle (see ``iterate_orbit``).
    """

    seed: complex
    points: list[complex]
    status: OrbitStatus
    local_degrees: list[int] = field(default_factory=list)
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
    cycle_tol: float = 1e-9,
) -> OrbitRecord:
    """Iterate f from ``seed`` until escape, a revisit, or ``depth`` steps.

    A revisit within ``cycle_tol`` of an earlier point yields ``Preperiodic``;
    a modulus above ``escape_radius`` (or an overflow) yields ``Escaped``.
    The first point beyond the escape radius is stored when representable.
    The cycle attracts when its multiplier has modulus below 1 - 1e-9.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if escape_radius <= 1:
        raise DomainError("escape_radius must exceed 1")
    if cycle_tol <= 0:
        raise DomainError("cycle_tol must be positive")
    pts = [complex(seed)]
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
        hit = next(
            (j for j, p in enumerate(pts) if abs(nxt - p) <= cycle_tol),
            None,
        )
        pts.append(nxt)
        if hit is not None:
            status = Preperiodic(hit, step - hit)
            break
        if abs(nxt) > escape_radius:
            status = Escaped(step)
            break
    if status is None:
        status = Undetermined(depth)
    degrees = [local_degree(map_spec, p) for p in pts]
    record = OrbitRecord(seed=complex(seed), points=pts, status=status, local_degrees=degrees)
    cyc = record.cycle_points()
    record.attracting = bool(cyc) and abs(cycle_multiplier(map_spec, cyc)) < 1.0 - 1e-9
    return record


@dataclass(frozen=True)
class PostsingularPoint:
    point: complex
    fatou_candidate: bool
    source_value: complex
    orbit_index: int


@dataclass
class TruncatedPostsingular:
    """Truncated postsingular set with per-point Fatou/Julia tags."""

    map_name: str
    depth: int
    escape_radius: float
    points: list[PostsingularPoint]
    records: dict[complex, OrbitRecord]

    def julia_points(self) -> list[complex]:
        return [p.point for p in self.points if not p.fatou_candidate]

    def fatou_points(self) -> list[complex]:
        return [p.point for p in self.points if p.fatou_candidate]

    def attracting_cycle_points(self) -> list[complex]:
        """Points of the attracting cycles of the stored orbits, de-duplicated, in record order."""
        return _dedup(
            [q for rec in self.records.values() if rec.attracting for q in rec.cycle_points()]
        )


def postsingular_truncation(
    map_spec: EntireMapSpec,
    depth: int,
    escape_radius: float = 1e6,
) -> TruncatedPostsingular:
    """Union of the truncated forward orbits of all singular values.

    Points are de-duplicated with ``_POSTSINGULAR_DEDUP_TOL`` and tagged as Fatou
    candidates when their source orbit falls into a detected attracting
    cycle, Julia candidates otherwise.
    """
    singular = sorted(map_spec.singular_values(), key=lambda v: (v.real, v.imag))
    entries: list[PostsingularPoint] = []
    records: dict[complex, OrbitRecord] = {}
    for value in singular:
        rec = iterate_orbit(map_spec, value, depth, escape_radius)
        records[value] = rec
        for idx, p in enumerate(rec.points):
            if any(abs(p - e.point) <= _POSTSINGULAR_DEDUP_TOL for e in entries):
                continue
            entries.append(
                PostsingularPoint(
                    point=p,
                    fatou_candidate=rec.attracting,
                    source_value=value,
                    orbit_index=idx,
                )
            )
    return TruncatedPostsingular(
        map_name=map_spec.name,
        depth=depth,
        escape_radius=escape_radius,
        points=entries,
        records=records,
    )


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
    pres = map_spec.preimages(a, abs(a) + 12.0, 0.0)
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


def orbit_degree_product(map_spec: EntireMapSpec, w: complex, m: int) -> int:
    """deg(f^m, w) as the product of local degrees along w, f(w), ..., f^(m-1)(w)."""
    deg = 1
    z = complex(w)
    for _ in range(m):
        deg *= local_degree(map_spec, z)
        z = evaluate(map_spec, z)
    return deg
