"""Truncated dynamically associated orbifolds built from orbit data.

The constructions here turn finite orbit data of a catalogue map into a pair
of marked orbifolds (base and lift), check the covering and inclusion
relations exactly in integer arithmetic, enumerate the boundary set of the
lift inside the base, and measure the separation of the truncated
postsingular set.  All ramification values are computed over the truncated
orbit graph only and every product is tagged with its truncation depth.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .curves import segment_point_distances
from .errors import (
    CycleCollision,
    DivisibilityError,
    DomainError,
    EmptyInput,
    NotFound,
    Overflow,
)
from .maps import (
    SAME_POINT_TOL,
    EntireMapSpec,
    PointSet,
    Preperiodic,
    TruncatedPostsingular,
    evaluate,
    local_degree,
    nearest_first,
    postsingular_truncation,
)

# Side of the square seed grid that ``find_repelling_cycle`` runs Newton from.
_SEED_GRID = 12
# Accepted repelling cycles keep at least this distance from excluded points.
_CYCLE_EXCLUSION_RADIUS = 1e-6
# Boundary-circle samples that certify an absorbing disc, and a lift disc about
# one of its preimages.
_ABSORB_SAMPLES = 720
_LIFT_DISC_SAMPLES = 180
# Lift marks and lift discs are the preimages within this radius of 0.
_LIFT_WINDOW_RADIUS = 120.0
# Samples per removed lift disc that ``boundary_set`` adds as boundary points.
_CIRCLE_SAMPLES = 12


def _circle(center: complex, radius: float, samples: int) -> list[complex]:
    """``samples`` equally spaced points of the circle, starting at angle 0."""
    return [center + radius * cmath.exp(2j * math.pi * j / samples) for j in range(samples)]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Surfaces and marked orbifolds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Surface:
    """The plane, or the open disc ``outer``, minus the closed discs ``holes``.

    Discs are ``(center, radius)`` pairs.  Associated orbifolds live on the
    plane minus absorbing discs; the synthetic model pairs live on a disc.
    """

    holes: tuple[tuple[complex, float], ...] = ()
    outer: tuple[complex, float] | None = None

    def contains(self, z: complex | np.ndarray) -> np.bool_ | np.ndarray:
        """Whether ``z`` lies in the surface: a bool for a point, a bool array for an array.

        A NaN point lies in no surface but the plane.
        """
        re, im = np.real(z), np.imag(z)
        inside = np.ones(np.shape(z), dtype=bool)
        if self.outer is not None:
            c, r = self.outer
            inside &= np.hypot(re - c.real, im - c.imag) < r
        # one pass per hole: a points x holes matrix would cost memory
        for c, r in self.holes:
            inside &= np.hypot(re - c.real, im - c.imag) > r
        return inside[()]

    def boundary_distance(self, z: complex) -> float:
        """Euclidean distance from ``z`` to the boundary (inf on the plane)."""
        d = min((abs(z - c) - r for c, r in self.holes), default=math.inf)
        if self.outer is not None:
            d = min(d, self.outer[1] - abs(z - self.outer[0]))
        return d

    def segment_boundary_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per segment ``a[i] b[i]``, the minimum distance to the boundary."""
        d = np.full(a.shape[0], np.inf)
        # not a min(axis=0, initial=np.inf) over an empty hole array: on the
        # plane that form measured 31.8 us per call against 2.1 us (64 segments)
        if self.holes:
            centers = np.asarray([c for c, _ in self.holes], dtype=complex)
            radii = np.asarray([r for _, r in self.holes])
            d = (segment_point_distances(a, b, centers) - radii[:, None]).min(axis=0)
        if self.outer is not None:
            # the outer circle is nearest to the segment at an endpoint
            c, r = self.outer
            d = np.minimum(d, r - np.maximum(np.abs(a - c), np.abs(b - c)))
        return d

    def within(self, other: "Surface") -> bool:
        """Whether this surface lies in ``other``, up to 1e-12 in the radii.

        Every hole of ``other`` must be covered by a hole of this surface, and
        this surface's outer disc must lie in that of ``other``.
        """
        if other.outer is not None:
            if self.outer is None:
                return False
            (c, r), (co, ro) = self.outer, other.outer
            if abs(c - co) + r > ro + 1e-12:
                return False
        return all(
            any(abs(c - ci) + r <= ri + 1e-12 for ci, ri in self.holes) for c, r in other.holes
        )

    def to_json(self) -> dict:
        if self.outer is None:
            kind = "plane_minus_discs" if self.holes else "plane"
            discs = self.holes
        elif self.holes:
            raise DomainError("the JSON format has no kind for a disc with holes")
        else:
            kind, discs = "disc", (self.outer,)
        return {"kind": kind, "discs": [[c.real, c.imag, r] for c, r in discs]}


@dataclass(frozen=True)
class MarkedOrbifold:
    """Planar surface descriptor plus finitely many marked points.

    ``marks`` maps points to ramification values >= 2; marks are pairwise
    more than ``SAME_POINT_TOL`` apart and lie in the surface.
    ``truncation_complete`` records that every source orbit closed up within
    the truncation (no escaping orbit), so no marks are missing.

    The mark geometry (``mark_array``, ``mark_orders``, ``isolation_radii``,
    ``cone_groups``) and ``hyperbolic`` are computed on first use and cached,
    the arrays read-only.
    """

    surface: Surface
    marks: tuple[tuple[complex, int], ...]
    truncation_depth: int = 0
    truncation_complete: bool = False

    def __post_init__(self):
        seen = PointSet()
        inside = self.surface.contains(self.mark_array)
        for i, (p, nu) in enumerate(self.marks):
            k = seen.add(p)
            if k < i:
                raise DomainError(f"marks too close: {seen.points[k]!r}, {p!r}")
            if nu < 2:
                raise DomainError("ramification values must be >= 2")
            if not inside[i]:
                raise DomainError(f"mark {p!r} outside the surface")

    def contains(self, z: complex) -> bool:
        return self.surface.contains(z)

    def ramification(self, z: complex) -> int:
        # a plain scan: most calls look at a base orbifold's 6-8 marks, where a
        # PointSet probe measured 3-4 us against 1.3 us for the scan
        for p, nu in self.marks:
            if abs(z - p) <= SAME_POINT_TOL:
                return nu
        return 1

    @cached_property
    def hyperbolic(self) -> bool:
        """Whether the orbifold is hyperbolic, so that density witnesses exist.

        A surface with a hole or an outer disc always is; the plane is when
        sum(1 - 1/nu) over the marks exceeds 1 (the float sum is exactly 1.0
        for two order-2 marks, and at least 7/6 when it exceeds 1).
        """
        if self.surface.holes or self.surface.outer is not None:
            return True
        return sum(1.0 - 1.0 / nu for _, nu in self.marks) > 1.0

    @cached_property
    def mark_array(self) -> np.ndarray:
        """Mark points, in the order of ``marks``."""
        return _readonly(np.asarray([p for p, _ in self.marks], dtype=complex))

    @cached_property
    def mark_orders(self) -> np.ndarray:
        """Ramification values of the marks, as floats."""
        return _readonly(np.asarray([nu for _, nu in self.marks], dtype=float))

    @cached_property
    def isolation_radii(self) -> np.ndarray:
        """Per mark, the distance to the nearest other mark or the boundary (may be inf)."""
        pts = [p for p, _ in self.marks]
        radii = [
            min(
                [self.surface.boundary_distance(p)]
                + [abs(p - q) for j, q in enumerate(pts) if j != i]
            )
            for i, p in enumerate(pts)
        ]
        return _readonly(np.asarray(radii, dtype=float))

    @cached_property
    def cone_groups(self) -> tuple[tuple[float, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per ramification order ``k``, ascending: ``(k, cols, eps, eps ** (1/k))``.

        ``cols`` indexes the marks of order ``k`` with a finite isolation
        radius ``eps``; a mark with an infinite one admits no cone witness and
        joins no group.
        """
        orders, iso = self.mark_orders, self.isolation_radii
        groups = []
        for k in sorted(set(orders.tolist())):
            cols = np.flatnonzero((orders == k) & np.isfinite(iso))
            if cols.size:
                eps = iso[cols]
                # scalar powers: numpy's vectorised array power may differ from
                # them in the last bit, and per-mark evaluation takes scalar ones
                eps_root = np.asarray([e ** (1.0 / k) for e in eps])
                groups.append((k, _readonly(cols), _readonly(eps), _readonly(eps_root)))
        return tuple(groups)

    def to_json(self) -> dict:
        return {
            "surface": self.surface.to_json(),
            "marks": [[p.real, p.imag, nu] for p, nu in self.marks],
            "truncation_depth": self.truncation_depth,
            "truncation_complete": self.truncation_complete,
        }


# ---------------------------------------------------------------------------
# Separation report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Separation statistics of a truncated postsingular set.

    epsilon_star: min over pairs of |z - w| / max(|z|, |w|).
    annulus_count_M: max number of points in a closed annulus [r, K r].
    orbit_crit_bound_c: max number of critical points on a stored orbit.
    """

    epsilon_star: float
    annulus_count_M: int
    orbit_crit_bound_c: int
    max_local_degree: int
    depth: int
    K: float

    def to_json(self) -> dict:
        return asdict(self)


def pairwise_separation(points: list[complex]) -> float:
    """min over distinct pairs of |z - w| / max(|z|, |w|)."""
    if len(points) < 2:
        raise EmptyInput("need at least two points")
    best = math.inf
    for i, z in enumerate(points):
        for w in points[i + 1 :]:
            denom = max(abs(z), abs(w))
            if denom == 0.0:
                raise DomainError("duplicate zero points")
            best = min(best, abs(z - w) / denom)
    return best


def annulus_count(points: list[complex], K: float) -> int:
    """max over r > 0 of the number of points with r <= |z| <= K r.

    Shrinking r to the smallest modulus inside a closed annulus loses no
    point, so some maximal annulus has a point on its inner circle: r runs
    over the nonzero moduli only.
    """
    if K <= 1:
        raise DomainError("K must exceed 1")
    moduli = sorted(abs(p) for p in points)
    return max(
        (bisect_right(moduli, K * m) - i for i, m in enumerate(moduli) if m > 0), default=0
    )


def separation_report(
    trunc: TruncatedPostsingular,
    K: float,
    map_spec: EntireMapSpec,
) -> SeparationReport:
    """Separation statistics of the Julia-candidate part of a truncation.

    The per-orbit critical count treats each singular value's witness
    critical point as the orbit seed, matching the bounded-criticality
    convention.
    """
    pts = trunc.julia_points()
    if not pts:
        raise EmptyInput("no Julia-candidate points in the truncation")
    eps_star = pairwise_separation(pts) if len(pts) >= 2 else math.inf
    M = annulus_count(pts, K)

    c = 0
    max_deg = 1
    witness = dict(map_spec.critical_value_witnesses)
    for value, rec in trunc.records.items():
        chain = []
        if value in witness:
            chain.append(witness[value])
        chain.extend(rec.points)
        degrees = [local_degree(map_spec, p) for p in chain]
        c = max(c, sum(1 for d in degrees if d > 1))
        max_deg = max(max_deg, max(degrees, default=1))
    return SeparationReport(
        epsilon_star=eps_star,
        annulus_count_M=M,
        orbit_crit_bound_c=c,
        max_local_degree=max_deg,
        depth=trunc.depth,
        K=K,
    )


# ---------------------------------------------------------------------------
# Repelling cycles and absorbing discs
# ---------------------------------------------------------------------------


def _newton_fixed_point(map_spec: EntireMapSpec, seed: complex) -> complex | None:
    """Newton for f(z) = z from ``seed``: the fixed point it reaches, or None."""
    z = complex(seed)
    for _ in range(80):
        try:
            g = evaluate(map_spec, z) - z
            dg = map_spec.deriv(z) - 1.0
        except (Overflow, OverflowError):
            return None
        if abs(dg) < 1e-14:
            return None
        step = g / dg
        z -= step
        if abs(step) < 1e-13:
            break
    try:
        return z if abs(evaluate(map_spec, z) - z) < 1e-9 else None
    except Overflow:
        return None


def find_repelling_cycle(
    map_spec: EntireMapSpec,
    exclude: list[complex],
    seed_box: tuple[complex, complex] = (1.0 + 4.0j, 4.0 + 9.0j),
) -> list[complex]:
    """Locate a repelling fixed point by Newton from a seed grid; return it as a 1-cycle.

    Accepted fixed points have multiplier modulus > 1 + 1e-6 and keep
    distance >= ``_CYCLE_EXCLUSION_RADIUS`` from every point of ``exclude``
    (``build_associated_orbifold`` passes its truncated postsingular set).
    The returned point is the deterministic minimum over (|z|, re, im) of
    the accepted points.
    """
    lo, hi = seed_box
    seeds = [
        complex(re, im)
        for re in np.linspace(lo.real, hi.real, _SEED_GRID)
        for im in np.linspace(lo.imag, hi.imag, _SEED_GRID)
    ]
    found = PointSet()
    for seed in seeds:
        z = _newton_fixed_point(map_spec, seed)
        if z is None or abs(map_spec.deriv(z)) <= 1.0 + 1e-6:
            continue
        if any(abs(z - q) < _CYCLE_EXCLUSION_RADIUS for q in exclude):
            continue
        found.add(z)
    if not found.points:
        raise NotFound(f"no repelling fixed point in box {seed_box!r}")
    return [found.points[nearest_first(found.points, 0j)[0]]]


@dataclass(frozen=True)
class AbsorbingDisc:
    center: complex
    radius: float
    boundary_sup: float


def _image_sup(
    map_spec: EntireMapSpec, center: complex, r: float, samples: int, target: complex
) -> float:
    """max |f(z) - target| over ``samples`` points of |z - center| = r; inf on overflow."""
    try:
        return max(abs(evaluate(map_spec, z) - target) for z in _circle(center, r, samples))
    except (Overflow, OverflowError):
        return math.inf


def find_absorbing_disc(
    map_spec: EntireMapSpec,
    attracting_point: complex,
    r_grid: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
) -> AbsorbingDisc:
    """Smallest grid radius whose disc about the attracting point maps inside itself.

    Certification samples the image of the boundary circle and requires
    sup |f(z) - p| < r (1 - 1e-6); a circle whose samples overflow fails.
    """
    p = complex(attracting_point)
    if abs(evaluate(map_spec, p) - p) > 1e-9:
        raise DomainError("attracting_point is not fixed")
    if abs(map_spec.deriv(p)) >= 1.0:
        raise DomainError("attracting_point is not attracting")
    for r in sorted(r_grid):
        sup = _image_sup(map_spec, p, r, _ABSORB_SAMPLES, p)
        if sup < r * (1.0 - 1e-6):
            return AbsorbingDisc(center=p, radius=float(r), boundary_sup=sup)
    raise NotFound(f"no radius in {r_grid!r} certifies an absorbing disc")


# ---------------------------------------------------------------------------
# Orbit graph and the associated pair
# ---------------------------------------------------------------------------


@dataclass
class _GraphNode:
    point: complex
    degree: int          # local degree of the map at the point
    image: int | None    # index of f(point) in the node list, None past truncation


def _build_orbit_graph(
    map_spec: EntireMapSpec,
    trunc: TruncatedPostsingular,
    cycle: list[complex],
) -> tuple[list[_GraphNode], PointSet]:
    """Orbit graph over Julia-candidate orbits, their critical witnesses, and the cycle.

    Fatou-candidate orbits are excluded: they live inside removed discs and a
    critical attracting cycle would feed an unbounded degree product.  The
    returned ``PointSet`` holds the node points, in node order.
    """
    nodes: list[_GraphNode] = []
    points = PointSet()

    def add(z: complex) -> int:
        i = points.add(z)
        if i == len(nodes):
            nodes.append(_GraphNode(point=z, degree=local_degree(map_spec, z), image=None))
        return i

    julia_values = {value for value, rec in trunc.records.items() if not rec.attracting}
    for value, rec in trunc.records.items():
        if value not in julia_values:
            continue
        idx = [add(p) for p in rec.points]
        for a, b in zip(idx, idx[1:]):
            nodes[a].image = b
    for v, c in map_spec.critical_value_witnesses:
        if v not in julia_values:
            continue
        ci = add(c)
        vi = points.find(v)
        if vi is not None:
            nodes[ci].image = vi
    cyc_idx = [add(p) for p in cycle]
    for j, a in enumerate(cyc_idx):
        nodes[a].image = cyc_idx[(j + 1) % len(cyc_idx)]
    return nodes, points


def _chain_lcm(nodes: list[_GraphNode]) -> list[int]:
    """lcm of degree products over all orbit-graph chains ending at each node.

    D(z) = lcm over edges u -> z of deg(u) * D(u), starting from D = 1 (a node
    no chain reaches keeps 1); iterated to the fixed point, which exists
    because every value divides lcm(1..C).
    """
    n = len(nodes)
    D = [1] * n
    for _ in range(n + 1):
        changed = False
        for i, node in enumerate(nodes):
            j = node.image
            if j is None:
                continue
            new = math.lcm(D[j], node.degree * D[i])
            if new != D[j]:
                D[j] = new
                changed = True
        if not changed:
            break
    return D


def build_associated_orbifold(
    map_spec: EntireMapSpec,
    depth: int,
    escape_radius: float = 1e6,
    cycle: list[complex] | None = None,
) -> tuple[MarkedOrbifold, MarkedOrbifold]:
    """Build the truncated associated pair (base, lift) from orbit data.

    Base marks: every truncated Julia-candidate point carries the lcm of
    local-degree products over the chains of the truncated orbit graph, and
    every cycle point carries 2.  Lift marks are nu(f(z)) / deg(f, z) on the
    stored preimage nodes, with divisibility checked exactly.  When an
    attracting basin is detected the surfaces drop certified absorbing discs
    (the lift also drops the certified discs around the attracting point's
    preimages inside ``_LIFT_WINDOW_RADIUS``).
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    trunc = postsingular_truncation(map_spec, depth, escape_radius)
    if cycle is None:
        cycle = find_repelling_cycle(map_spec, exclude=[p.point for p in trunc.points])

    nodes, points = _build_orbit_graph(map_spec, trunc, cycle)
    # every Julia-candidate point and every cycle point is a node
    julia = {points.find(p) for p in trunc.julia_points()}
    cyc_idx = [points.find(b) for b in cycle]
    for b, i in zip(cycle, cyc_idx):
        if i in julia:
            raise CycleCollision(f"cycle point {b!r} meets the truncated postsingular set")
    D = _chain_lcm(nodes)

    base_marks: list[tuple[complex, int]] = []
    for i, node in enumerate(nodes):
        if i in cyc_idx:
            base_marks.append((node.point, 2))
        elif i in julia and D[i] > 1:
            base_marks.append((node.point, D[i]))

    # Both surfaces drop the absorbing discs of detected attracting basins.
    holes: list[tuple[complex, float]] = []
    lift_holes: list[tuple[complex, float]] = []
    cycle_pts = trunc.attracting_cycle_points()
    for q in (cycle_pts[i] for i in nearest_first(cycle_pts, 0j)):
        disc = find_absorbing_disc(map_spec, q)
        holes.append((disc.center, disc.radius))
        for pre in map_spec.preimages(q, _LIFT_WINDOW_RADIUS):
            r_pre = _certify_preimage_disc(map_spec, pre, disc)
            if r_pre is not None:
                lift_holes.append((pre, r_pre))

    complete = all(isinstance(rec.status, Preperiodic) for rec in trunc.records.values())
    base = MarkedOrbifold(
        Surface(tuple(holes)),
        tuple(base_marks),
        truncation_depth=depth,
        truncation_complete=complete,
    )

    # Lift marks from the stored nodes: nu(f(z)) / deg(f, z).
    lift_marks: list[tuple[complex, int]] = []
    lift_points = PointSet()

    def add_lift_mark(z: complex, nu_tilde: int) -> None:
        if nu_tilde > 1 and lift_points.add(z) == len(lift_marks):  # a new point
            lift_marks.append((z, nu_tilde))

    for i, node in enumerate(nodes):
        if not base.contains(node.point):
            continue
        if node.image is not None:
            nu_image = base.ramification(nodes[node.image].point)
        elif i in julia:
            # Image beyond truncation: every chain into it extends a chain
            # through this node, so its ramification is divisible by
            # deg(node) * D(node); the quotient below is then D(node).
            nu_image = node.degree * D[i]
        else:
            continue
        if nu_image % node.degree != 0:
            raise DivisibilityError(
                f"deg(f, {node.point!r}) = {node.degree} does not divide nu = {nu_image}"
            )
        add_lift_mark(node.point, nu_image // node.degree)

    # Every preimage of a base mark inside the window is a lift mark with
    # the quotient ramification; most of them are unmarked in the base and
    # feed the boundary set.
    for value, nu_value in base.marks:
        zs, nus = _mark_preimages(map_spec, value, nu_value, _LIFT_WINDOW_RADIUS, base.surface)
        for z, nu_tilde in zip(zs.tolist(), nus.tolist()):
            add_lift_mark(z, nu_tilde)

    lift = MarkedOrbifold(
        Surface(tuple(lift_holes)),
        tuple(lift_marks),
        truncation_depth=depth,
        truncation_complete=complete,
    )
    return base, lift


def _mark_preimages(
    map_spec: EntireMapSpec,
    value: complex,
    nu_value: int,
    r_max: float,
    *surfaces: Surface,
) -> tuple[np.ndarray, np.ndarray]:
    """Preimages z of a mark in the disc |z| <= r_max inside every surface, and nu / deg(f, z).

    Both come as arrays, in enumeration order.  A local degree that does not
    divide the mark's ramification raises DivisibilityError at the first such
    point.
    """
    z = np.asarray(map_spec.preimages(value, r_max), dtype=complex)
    for surface in surfaces:
        z = z[surface.contains(z)]
    # On the catalogue |f'(z)|^2 = |v - c1| |v - c2| at every preimage z of v,
    # c1 and c2 the critical values (sinh^2 = cosh^2 - 1, pi^2 cosh^2 = pi^2 +
    # (pi sinh)^2), so away from them |f'| is far above local_degree's 1e-9.
    if all(abs(value - c) > 1e-6 for c, _ in map_spec.critical_value_witnesses):
        return z, np.full(z.shape, nu_value, dtype=int)
    degrees = []
    for p in z.tolist():
        deg = local_degree(map_spec, p)
        if nu_value % deg != 0:
            raise DivisibilityError(
                f"deg(f, {p!r}) = {deg} does not divide nu({value!r}) = {nu_value}"
            )
        degrees.append(deg)
    return z, nu_value // np.asarray(degrees, dtype=int)


def _certify_preimage_disc(
    map_spec: EntireMapSpec,
    pre: complex,
    disc: AbsorbingDisc,
) -> float | None:
    """Largest grid radius r with f(D_r(pre)) inside the absorbing disc."""
    for r in (disc.radius, disc.radius * 0.5, disc.radius * 0.25):
        sup = _image_sup(map_spec, pre, r, _LIFT_DISC_SAMPLES, disc.center)
        if sup < disc.radius * (1.0 - 1e-6):
            return r
    return None


# ---------------------------------------------------------------------------
# Covering / inclusion checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    passed: bool
    witnesses: list[str] = field(default_factory=list)


def check_covering_relation(
    map_spec: EntireMapSpec,
    base: MarkedOrbifold,
    lift: MarkedOrbifold,
) -> CheckResult:
    """Exact check of nu(f(z)) = deg(f, z) * nu_tilde(z), in both directions.

    It is checked at every lift mark, skipping those whose image overflows or
    lies beyond the stored marks of the base (truncation frontier), and at
    every preimage of a base mark inside both surfaces with |z| <=
    ``_LIFT_WINDOW_RADIUS``, so a lift mark missing there fails too.
    """
    witnesses: list[str] = []
    frontier = max((abs(p) for p, _ in base.marks), default=0.0)
    for z, nu_tilde in lift.marks:
        try:
            fz = evaluate(map_spec, z)
        except (Overflow, OverflowError):
            continue
        deg = local_degree(map_spec, z)
        nu_image = base.ramification(fz)
        if nu_image == 1 and abs(fz) > frontier * (1 - 1e-9):
            continue  # image beyond the truncated mark set
        if nu_image != deg * nu_tilde:
            witnesses.append(
                f"at z={z!r}: nu(f(z))={nu_image} != deg {deg} * nu_tilde {nu_tilde}"
            )
    # the marks are pairwise more than SAME_POINT_TOL apart: indices as in ``marks``
    lift_marks = PointSet(lift.mark_array.tolist())
    for value, nu_value in base.marks:
        zs = np.asarray(map_spec.preimages(value, _LIFT_WINDOW_RADIUS), dtype=complex)
        for p in zs[base.surface.contains(zs) & lift.surface.contains(zs)].tolist():
            k = lift_marks.find(p)
            nu_tilde = 1 if k is None else lift.marks[k][1]
            deg = local_degree(map_spec, p)
            if nu_value != deg * nu_tilde:
                witnesses.append(
                    f"at z={p!r}, a preimage of {value!r}: "
                    f"nu={nu_value} != deg {deg} * nu_tilde {nu_tilde}"
                )
    return CheckResult(passed=not witnesses, witnesses=witnesses)


def check_holomorphic_inclusion(lift: MarkedOrbifold, base: MarkedOrbifold) -> CheckResult:
    """Surface containment plus divisibility nu(z) | nu_tilde(z) at base marks."""
    witnesses: list[str] = []
    if not lift.surface.within(base.surface):
        witnesses.append("lift surface is not contained in the base surface")
    for p, nu in base.marks:
        if not lift.contains(p):
            continue
        nu_tilde = lift.ramification(p)
        if nu_tilde % nu != 0:
            witnesses.append(f"nu({p!r}) = {nu} does not divide nu_tilde = {nu_tilde}")
    return CheckResult(passed=not witnesses, witnesses=witnesses)


# ---------------------------------------------------------------------------
# Boundary set
# ---------------------------------------------------------------------------


def boundary_set(
    map_spec: EntireMapSpec,
    lift: MarkedOrbifold,
    base: MarkedOrbifold,
    r_max: float,
) -> list[complex]:
    """Boundary points of the lift inside the base with |z| <= r_max, sorted by (|z|, re, im).

    Extra-ramification points are the preimages of base marks whose lift
    ramification exceeds their base ramification; surface-boundary points are
    sampled on removed-disc boundaries of the lift.  Whether the disc may
    miss marks is ``truncation_warning(base, r_max)``.  Raises DomainError
    unless 0 < r_max < inf.
    """
    if not 0.0 < r_max < math.inf:
        raise DomainError(f"boundary window radius must be positive and finite, got {r_max!r}")
    if (
        base.marks == lift.marks
        and base.surface.within(lift.surface)
        and lift.surface.within(base.surface)
    ):
        return []
    # each mark's preimages come de-duplicated, and distinct marks have
    # distinct preimages
    parts = []
    for value, nu_value in base.marks:
        z, nu_tilde = _mark_preimages(map_spec, value, nu_value, r_max, base.surface, lift.surface)
        # base ramification: reversed, so that the earliest mark within
        # SAME_POINT_TOL wins, as in ``MarkedOrbifold.ramification``
        nu_base = np.ones(z.shape, dtype=int)
        for p, nu in reversed(base.marks):
            nu_base[np.hypot(z.real - p.real, z.imag - p.imag) <= SAME_POINT_TOL] = nu
        parts.append(z[nu_tilde > nu_base])
    circles = [
        _circle(c, r, _CIRCLE_SAMPLES)
        for c, r in lift.surface.holes
        # a hole shared with the base is base boundary: infinite distance
        if not any(
            abs(c - cb) <= SAME_POINT_TOL and abs(r - rb) <= 1e-12 for cb, rb in base.surface.holes
        )
    ]
    w = np.asarray(circles, dtype=complex).ravel()
    parts.append(w[(np.hypot(w.real, w.imag) <= r_max) & base.surface.contains(w)])
    pts = np.concatenate(parts)
    return pts[nearest_first(pts, 0j)].tolist()


def truncation_warning(base: MarkedOrbifold, r_max: float) -> bool:
    """Whether a boundary window reaching out to ``r_max`` may miss marks of ``base``.

    Preimages of marks deeper than the second-deepest stored orbit point
    would already fall inside such a window, so windows beyond it are
    flagged; a complete truncation (every orbit closed up) has no missing marks.
    """
    moduli = sorted(abs(p) for p, _ in base.marks)
    frontier = moduli[-2] if len(moduli) >= 2 else (moduli[-1] if moduli else 0.0)
    return r_max > frontier and not base.truncation_complete
