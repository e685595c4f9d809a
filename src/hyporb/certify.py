"""Certified expansion lower bounds via density upper bounds and curve lengths.

The engine only ever needs UPPER bounds on distances: the expansion floor is
decreasing in the distance, so any certified path length R_bar yields a valid
certificate lambda_lower(R_bar).  Density upper bounds come from one witness
kernel, ``_piece_bounds``: each piece of a curve takes the least density of
its witnesses (the mark-free disc about it, and the one-cone disc of every
mark whose isolation disc holds it), and the pointwise bound is the kernel's
zero-length piece.  Curve lengths are summed per piece with the exact
supremum of the witness density over the piece, refined adaptively near
singularities so the bound converges to the true integral from above.  Only
hyperbolic orbifolds (``MarkedOrbifold.hyperbolic``) are bounded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .bounds import lambda_lower
from .curves import PolylineCurve, polyline_point_distance, segment_point_distances
from .errors import DomainError, PathBlocked
from .maps import EntireMapSpec, evaluate, nearest_first, nearest_preimage, pullback_curve
from .models import cone_density_formula, hyp_distance_disc
from .orbifolds import MarkedOrbifold, boundary_set, truncation_warning

# A piece keeps splitting while its density supremum exceeds this factor times
# the density at its far end; it bounds the overestimate near singularities.
_TIGHTEN = 1.02
# Nearest boundary points tried per expansion certificate (before the
# high-imaginary extras).
_MAX_CANDIDATES = 12
# An expansion-certificate path keeps this fraction of the distance from its
# start to the nearest base mark (to the surface boundary on a mark-free base)
# away from every mark and the boundary; a closer path is rejected before bounding.
_MARGIN_REL = 1e-3
# Sample circles of the annulus scan, as multiples of each scale.
_RADIUS_FACTORS = (1.0, 1.3, 1.7)
# Bisections of each segment before its length floor is summed, so that floor
# pieces and the pieces of certified_curve_length nest in one dyadic tree.
_FLOOR_DEPTH = 4
# Piece-mark pairs one _piece_bounds call of certified_curve_length may bound
# when it looks several bisection levels ahead.
_LOOKAHEAD_CELLS = 1024
# A candidate path is skipped once its floor exceeds the best length by this
# relative margin, far above the rounding of either sum.
_FLOOR_SLACK = 1e-9
# (starts, ends, path ids) of segments and per path whether it is rejected: see _path_segments.
_Segments = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# The witness kernel and certified curve lengths
# ---------------------------------------------------------------------------


def _piece_bounds(orb: MarkedOrbifold, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sup bound, far-end pointwise bound) of the orbifold density per piece [a, b].

    The witness kernel: each piece takes the least of its mark-free disc
    bound and the cone bound of every mark whose isolation disc holds it.
    """
    marks = orb.mark_array
    bdy = orb.surface.segment_boundary_distances(a, b)
    # marks-major: each per-piece minimum reduces across rows; with no
    # marks it is inf, and the clean disc alone bounds the piece
    dmin = segment_point_distances(a, b, marks)
    dmax = np.maximum(np.abs(a - marks[:, None]), np.abs(b - marks[:, None]))
    sup = 2.0 / np.minimum(dmin.min(axis=0, initial=np.inf), bdy)
    far = sup.copy()
    for k, cols, eps, eps_root in orb.cone_groups:
        hi = dmax[cols]
        eps, eps_root = eps[:, None], eps_root[:, None]
        inside = hi < eps
        if not inside.any():
            continue
        # Outside the isolation disc the cone formula is negative or
        # infinite, never a bound: mask those entries before the minimum.
        with np.errstate(divide="ignore"):
            cone_far = cone_density_formula(k, eps, eps_root, hi)
            cone_near = cone_density_formula(k, eps, eps_root, dmin[cols])
        cone_sup = np.maximum(cone_near, cone_far)
        sup = np.minimum(sup, np.where(inside, cone_sup, np.inf).min(axis=0))
        far = np.minimum(far, np.where(inside, cone_far, np.inf).min(axis=0))
    return sup, far


def upper_density_bound(orb: MarkedOrbifold, z: complex) -> float:
    """Closed-form upper bound on the orbifold density at ``z``.

    The bound of the zero-length piece [z, z] under ``_piece_bounds``: the
    least density at ``z`` of the mark-free disc about it and of every
    one-cone disc about a mark that holds it.  Each witness embeds
    holomorphically, so its density dominates.
    """
    z = complex(z)
    if not orb.contains(z):
        raise DomainError(f"{z!r} lies outside the surface")
    if not orb.hyperbolic:
        raise DomainError("the orbifold is not hyperbolic: no witness bounds its density")
    if orb.marks and _local_isolation(orb, z) <= 1e-12:
        raise DomainError(f"{z!r} is numerically at a mark")
    at = np.array([z])
    return float(_piece_bounds(orb, at, at)[0][0])


def certified_curve_length(
    orb: MarkedOrbifold,
    curve: PolylineCurve,
    refinement: float = 1e-3,
    mark_margin: float = 1e-9,
    max_rounds: int = 60,
    cutoff: float = math.inf,
) -> float:
    """Upper bound for the orbifold length of a polyline, or ``inf`` once it reaches ``cutoff``.

    Segments are bisected (nested, so halving ``refinement`` never increases
    the result) until each piece is shorter than ``refinement``; pieces whose
    certified density supremum still exceeds ``_TIGHTEN`` times the density at
    their far end keep splitting, which grades the subdivision geometrically
    into integrable singularities.  Each piece contributes its Euclidean
    length times the exact supremum of the best witness density over the
    piece, so the total always dominates the witness-model integral.

    A curve on an orbifold that is not hyperbolic, or one of whose segments
    comes within ``mark_margin`` of a mark or of the surface boundary, is
    rejected (DomainError) before any bounding.
    Each round bounds only the pieces no longer than ``refinement``: longer
    pieces split whatever their bounds say, so bounding them would be wasted
    work.  While every piece of a round is that short, one ``_piece_bounds``
    call also bounds their halves as many rounds down as
    ``_lookahead_depth`` allows, and each of those rounds is replayed from
    its level of that call: masked to the halves of the pieces the round
    above split, a level lists the round's pieces in round order, so each
    round sums the same products in the same order, and the result is the
    float that bounding round by round gives.

    The sum of finished pieces never decreases, so the call returns ``inf``
    as soon as it reaches ``cutoff``: the result is ``inf`` exactly when the
    length is at least ``cutoff``, and the length itself otherwise.
    ``expansion_certificate`` bounds each candidate path by one call, with
    the best length so far as its cutoff.
    """
    if refinement <= 0:
        raise DomainError("refinement must be positive")
    if not orb.hyperbolic:
        raise DomainError("the orbifold is not hyperbolic: no witness bounds its density")
    a, b = _segments(curve.as_array())
    if _blocked(orb, a, b, mark_margin).any():
        raise DomainError("curve touches a mark or the surface boundary")

    total = 0.0
    r = 0  # rounds run
    while r < max_rounds:
        if not a.size:
            break
        lens = np.abs(b - a)
        split = lens > refinement
        depth = 1
        # a round in which every piece is too long only halves
        if not split.all():
            bounded = ~split
            if bounded.all():
                depth = _lookahead_depth(a.size * max(len(orb.marks), 1), max_rounds - r)
            if depth == 1:
                sup, far = _piece_bounds(orb, a[bounded], b[bounded])
                split[bounded] = sup > _TIGHTEN * far
                done = ~split
                total += float((lens[done] * sup[done[bounded]]).sum())
            else:
                # One call bounds this round's pieces and depth - 1 levels of
                # their halves; each round is its level of that call, masked
                # to the halves of the pieces the round above split.
                level_a, level_b = _dyadic_levels(a, b, depth)
                sup, far = _piece_bounds(orb, level_a, level_b)
                lens, splits = np.abs(level_b - level_a), sup > _TIGHTEN * far
                for level in range(depth):
                    at = slice(a.size * ((1 << level) - 1), a.size * ((2 << level) - 1))
                    alive = np.concatenate([split, split]) if level else bounded
                    split = alive & splits[at]
                    done = alive ^ split
                    total += float((lens[at][done] * sup[at][done]).sum())
                    if total >= cutoff or not split.any():
                        break
                a, b = level_a[at], level_b[at]
            if total >= cutoff or not split.any():
                break
            a, b = a[split], b[split]
        r += depth
        mid = 0.5 * (a + b)
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
    else:
        lens = np.abs(b - a)
        sup, _ = _piece_bounds(orb, a, b)
        total += float((lens * sup).sum())
    # a curve without pieces has length 0
    return math.inf if total >= cutoff else total


def _lookahead_depth(cells: int, rounds_left: int) -> int:
    """Levels one ``_piece_bounds`` call covers, from ``cells`` piece-mark pairs on its top level.

    The most levels whose pieces (each level twice the one above) hold at most
    ``_LOOKAHEAD_CELLS`` pairs, at least one and at most ``rounds_left``.
    """
    return min(max((_LOOKAHEAD_CELLS // cells + 1).bit_length() - 1, 1), rounds_left)


def _dyadic_levels(a: np.ndarray, b: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The pieces ``[a, b]`` and ``depth - 1`` levels of their halves, level after level.

    Each level lists the left halves of the level above, then its right
    halves, as ``certified_curve_length`` orders the pieces of its next round.
    """
    levels_a, levels_b = [a], [b]
    for _ in range(depth - 1):
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        levels_a.append(a)
        levels_b.append(b)
    return np.concatenate(levels_a), np.concatenate(levels_b)


# ---------------------------------------------------------------------------
# Expansion certificates
# ---------------------------------------------------------------------------


@dataclass
class ExpansionCertificate:
    """A point, a certified distance upper bound, and the expansion floor it implies."""

    point: complex
    path: PolylineCurve
    R_bar: float
    lambda_bar: float
    truncation_depth: int

    def to_json(self) -> dict:
        return {
            "point": [self.point.real, self.point.imag],
            "R_bar": self.R_bar,
            "lambda_bar": self.lambda_bar,
            "path": [[v.real, v.imag] for v in self.path.vertices],
            "truncation_depth": self.truncation_depth,
        }


def _certificate(
    base: MarkedOrbifold, z: complex, path: list[complex], R_bar: float
) -> ExpansionCertificate:
    return ExpansionCertificate(z, PolylineCurve(path), R_bar, lambda_lower(R_bar),
                                base.truncation_depth)


def _exact_disc_distance(disc: tuple[complex, float], z: complex, w: complex) -> float:
    c, r = disc
    return hyp_distance_disc((z - c) / r, (w - c) / r)


def _candidate_paths(z: complex, b: complex) -> list[list[complex]]:
    paths = [[z, b]]
    h = 0.5 * max(abs(z), abs(b))
    if h > 0:
        for sgn in (1.0, -1.0):
            paths.append([z, z + 1j * sgn * h, b])
    return paths


def expansion_certificate(
    pair: tuple[MarkedOrbifold, MarkedOrbifold],
    z: complex,
    boundary: list[complex] | np.ndarray,
    refinement: float = 1e-3,
) -> ExpansionCertificate:
    """Certify an expansion floor at ``z`` from boundary points (a list or a complex array).

    Candidate boundary points (nearest by Euclidean distance, plus a
    high-imaginary selection that keeps paths away from mark rows) are joined
    to ``z`` by straight or single-waypoint paths; the smallest certified
    path length wins, the earliest such path in candidate order on a tie.
    Paths are bounded one at a time, each by one ``certified_curve_length``
    call, in the stable order of their length floors (``_length_floors``).
    Until a path finishes the cutoff is ``inf``; then it is the best length
    so far (one ulp above it for a path that precedes the best one in
    candidate order, which wins a tie), so a losing path stops early.  The
    search ends at the first floor above the best length, since every later
    floor is at least as high.  The winner is the same as certifying every
    path in full.
    On a mark-free disc orbifold the exact hyperbolic distance is used,
    which reproduces the sharp single-cone case.  A base that is not
    hyperbolic has no certified lengths and raises DomainError.
    """
    base, lift = pair
    if not base.hyperbolic:
        raise DomainError("the base orbifold is not hyperbolic: no witness bounds its density")
    if len(boundary) == 0:
        raise PathBlocked("empty boundary set")
    z = complex(z)
    if refinement <= 0:
        raise DomainError("refinement must be positive")
    if lift.ramification(z) > 1 or base.ramification(z) > 1:
        raise DomainError(f"{z!r} is marked")
    if not base.contains(z):
        raise DomainError(f"{z!r} outside the base surface")

    arr = np.asarray(boundary, dtype=complex)
    disc = base.surface.outer
    if disc is not None and not base.surface.holes and not base.marks:
        b = min(arr.tolist(), key=lambda p: _exact_disc_distance(disc, z, p))
        return _certificate(base, z, [z, b], _exact_disc_distance(disc, z, b))

    # hypot, as nearest_first measures
    dist = np.hypot(arr.real - z.real, arr.imag - z.imag)
    candidates = arr[_nearest(arr, dist, z, _MAX_CANDIDATES)].tolist()
    high = np.flatnonzero(np.abs(arr.imag) >= 0.5 * abs(z))
    for p in arr[high[_nearest(arr[high], dist[high], z, 4)]].tolist():
        if p not in candidates:
            candidates.append(p)

    margin = _MARGIN_REL * _local_isolation(base, z)
    paths = [path_pts for b in candidates for path_pts in _candidate_paths(z, b)]
    floors = _length_floors(base, _path_segments(base, paths, margin))

    best: tuple[float, int] | None = None  # (length, path index)
    for i in sorted(range(len(paths)), key=floors.__getitem__):
        cutoff = math.inf
        if best is not None:
            if floors[i] > best[0] * (1.0 + _FLOOR_SLACK):
                break  # this path, and every later one, would return inf at its cutoff
            # one ulp above the best length for a path that would win a tie
            cutoff = math.nextafter(best[0], math.inf) if i < best[1] else best[0]
        refine = max(refinement, _path_len(paths[i]) / 256.0)
        try:
            length = certified_curve_length(base, PolylineCurve(paths[i]), refine, margin,
                                            cutoff=cutoff)
        except DomainError:
            continue
        if math.isfinite(length):  # below the cutoff: the best so far
            best = (length, i)
    if best is None:
        raise PathBlocked(f"no mark-avoiding path from {z!r} to the boundary set")
    return _certificate(base, z, paths[best[1]], best[0])


def _nearest(arr: np.ndarray, dist: np.ndarray, z: complex, k: int) -> np.ndarray:
    """The first ``k`` indices of ``nearest_first(arr, z)``, without ordering all of ``arr``.

    ``dist`` holds each point's distance to ``z`` as ``nearest_first``
    measures it.  Every point among the first ``k`` lies within the ``k``-th
    smallest distance, so only those points are ordered; ``flatnonzero``
    keeps them in index order, which breaks full ties as the stable order
    of all points does.
    """
    near = np.arange(arr.size)
    if arr.size > k:
        near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    return near[nearest_first(arr[near], z)[:k]]


def _path_len(pts: list[complex]) -> float:
    return sum(abs(b - a) for a, b in zip(pts, pts[1:]))


def _local_isolation(orb: MarkedOrbifold, z: complex) -> float:
    marks = orb.mark_array
    if marks.size == 0:
        d = orb.surface.boundary_distance(z)
        return d if math.isfinite(d) else 1.0
    # hypot, as abs() of a Python complex takes it (see maps.nearest_first)
    return float(np.hypot(marks.real - z.real, marks.imag - z.imag).min())


def _segments(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the polyline's segments of nonzero length."""
    keep = np.abs(verts[1:] - verts[:-1]) > 0
    return verts[:-1][keep], verts[1:][keep]


def _path_segments(orb: MarkedOrbifold, paths: list[list[complex]], mark_margin: float) -> _Segments:
    """(starts, ends, path ids) of every path's segments of nonzero length, path after path,
    and per path whether ``_blocked`` rejects one of its segments.
    """
    verts = np.array([v for pts in paths for v in pts], dtype=complex)
    owner = np.repeat(np.arange(len(paths)), [len(pts) for pts in paths])
    # a segment joins two vertices of one path
    keep = (owner[1:] == owner[:-1]) & (np.abs(verts[1:] - verts[:-1]) > 0)
    a, b, ids = verts[:-1][keep], verts[1:][keep], owner[:-1][keep]
    blocked = _blocked(orb, a, b, mark_margin)
    return a, b, ids, np.bincount(ids, weights=blocked, minlength=len(paths)) > 0


def _blocked(orb: MarkedOrbifold, a: np.ndarray, b: np.ndarray, mark_margin: float) -> np.ndarray:
    """Per segment [a, b]: within ``mark_margin`` of a mark or the boundary, or touching one."""
    nearest = segment_point_distances(a, b, orb.mark_array).min(axis=0, initial=np.inf)
    clear = np.minimum(orb.surface.segment_boundary_distances(a, b), nearest)
    return (clear < mark_margin) | (clear <= 0)


def _cone_density_floor(k: float, eps: np.ndarray, eps_root: np.ndarray, lo: np.ndarray,
                        hi: np.ndarray) -> np.ndarray:
    """Minimum over [lo, hi] of the one-cone density (order k, radius eps); inf where lo >= eps.

    With s = (d/eps)^(2/k) it is 2 / (k eps s^((k-1)/2) (1 - s)), which falls,
    then rises, least at s = (k-1)/(k+1): the minimum is at the point of
    [lo, hi] nearest there, below eps as lo is.  It is lowered by 1e-13
    relative, more than the formula rounds by while 1 - s > 1/(k+1), which
    holds where it is below 2/d >= 2/hi, the clean-disc term it is set against.
    """
    d = np.minimum(np.maximum(eps * ((k - 1.0) / (k + 1.0)) ** (k / 2.0), lo), hi)
    with np.errstate(divide="ignore"):  # at d >= eps the formula is no bound
        return np.where(lo < eps, (1.0 - 1e-13) * cone_density_formula(k, eps, eps_root, d), np.inf)


def _length_floors(orb: MarkedOrbifold, segments: _Segments) -> list[float]:
    """A lower bound on ``certified_curve_length`` of each path of a ``_path_segments`` table.

    Each segment is bisected ``_FLOOR_DEPTH`` times as ``certified_curve_length``
    bisects it, so each of its final pieces lies inside a floor piece or is a
    union of them.  A floor piece [a, b] lies at distances [lo, hi] from a
    mark m, hi = max(|a-m|, |b-m|), lo = hi - |b-a|.  Every such final piece
    has density bound at least the smaller of ``2 / min_m hi`` (its clean
    disc is never larger) and the cone density minimum over [lo, hi] of every
    mark whose isolation disc it may meet, by lo below the disc's radius (a
    cone witness needs the final piece inside that disc): one inside the
    floor piece takes its cone bound at distances in [lo, hi], one that is a
    union of floor pieces max(rho(dmin'), rho(dmax')), which, as the density
    falls, then rises, is at least the density at every distance it spans.
    Leaving out the surface boundary only lowers the floor; a mark-free
    orbifold gets 0.  So does a path that the table rejects, as
    ``certified_curve_length`` does with the table's margin: it is never
    skipped, and its rejection is seen.
    """
    a, b, ids, rejected = segments
    marks = orb.mark_array
    for _ in range(_FLOOR_DEPTH):
        mid = 0.5 * (a + b)
        a, b, ids = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([ids, ids])
    # marks-major: each per-piece minimum reduces across rows
    dmax = np.maximum(
        np.hypot(a.real - marks.real[:, None], a.imag - marks.imag[:, None]),
        np.hypot(b.real - marks.real[:, None], b.imag - marks.imag[:, None]),
    )
    density = 2.0 / dmax.min(axis=0, initial=np.inf)
    lens = np.hypot((b - a).real, (b - a).imag)
    dlow = dmax - lens
    for k, cols, eps, eps_root in orb.cone_groups:
        cone = _cone_density_floor(k, eps[:, None], eps_root[:, None], dlow[cols], dmax[cols])
        density = np.minimum(density, cone.min(axis=0))
    floors = np.bincount(ids, weights=lens * density, minlength=rejected.size)
    floors[rejected] = 0.0
    return floors.tolist()


# ---------------------------------------------------------------------------
# Scans and experiments
# ---------------------------------------------------------------------------


@dataclass
class ScanRow:
    scale: float
    max_R_bar: float
    min_lambda_bar: float
    samples: int
    truncation_warning: bool


def sample_angles(count: int) -> list[float]:
    """Deterministic golden-angle set, bounded away from the real axis rows."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return [2.0 * math.pi * ((0.17 + j * phi) % 1.0) for j in range(count)]


def _modulus_slice(points: list[complex], r_lo: float, r_hi: float) -> list[complex]:
    """The points with r_lo <= |p| <= r_hi, in order, of a list sorted by modulus."""
    return points[bisect_left(points, r_lo, key=abs) : bisect_right(points, r_hi, key=abs)]


def annulus_uniformity_scan(
    map_spec: EntireMapSpec,
    pair: tuple[MarkedOrbifold, MarkedOrbifold],
    scales: list[float],
    samples_per_scale: int = 12,
    refinement: float = 1e-3,
) -> list[ScanRow]:
    """Per-scale maxima of certified distances to the boundary set.

    For each scale t the boundary supply is the slice [t/8, 4 t max(_RADIUS_FACTORS)]
    of one shared enumeration, and certificates are computed at deterministic
    sample points on the circles |z| = t * _RADIUS_FACTORS.  Each row carries
    ``truncation_warning`` of its own slice.  The tested claim is the absence
    of growth of max R_bar across scales.
    """
    base, lift = pair
    rows: list[ScanRow] = []
    n_angles = max(1, samples_per_scale // len(_RADIUS_FACTORS))
    angles = sample_angles(n_angles)
    # One shared boundary enumeration covering every scale window.
    shared = boundary_set(map_spec, lift, base, 4.0 * max(scales) * max(_RADIUS_FACTORS))
    for t in scales:
        r_lo, r_hi = t / 8.0, 4.0 * t * max(_RADIUS_FACTORS)
        supply = np.asarray(_modulus_slice(shared, r_lo, r_hi), dtype=complex)
        if not supply.size:
            rows.append(
                ScanRow(scale=t, max_R_bar=math.nan, min_lambda_bar=math.nan, samples=0,
                        truncation_warning=True)
            )
            continue
        worst_R = 0.0
        best_lambda = math.inf
        n = 0
        for f in _RADIUS_FACTORS:
            for theta in angles:
                z = t * f * complex(math.cos(theta), math.sin(theta))
                if base.ramification(z) > 1 or lift.ramification(z) > 1:
                    continue
                cert = expansion_certificate(pair, z, supply, refinement=refinement)
                worst_R = max(worst_R, cert.R_bar)
                best_lambda = min(best_lambda, cert.lambda_bar)
                n += 1
        rows.append(
            ScanRow(
                scale=t,
                max_R_bar=worst_R,
                min_lambda_bar=best_lambda,
                samples=n,
                truncation_warning=truncation_warning(base, r_hi),
            )
        )
    return rows


def spearman_rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rho with average ranks for ties.

    A value's rank is the mean of the 1-based positions its ties take in the
    sorted values, which two binary searches give.  Two nan values count as a
    tie here.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise DomainError("need two sequences of equal length >= 2")

    def ranks(vals: list[float]) -> np.ndarray:
        v = np.asarray(vals)
        # stable: the default quicksort pages in numpy's SIMD sort kernels,
        # about 0.3 MB more peak RSS on an expansion run
        s = np.sort(v, kind="stable")
        return 0.5 * (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1)

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


@dataclass
class PullbackResult:
    """``lengths[k]``: certified length of the k-th pullback (``lengths[0]`` of curve0)."""

    lengths: list[float]
    decay_rate: float
    forward_residual: float

    def ratios(self) -> list[tuple[int, float]]:
        return [
            (k, l1 / l0 if l0 > 0 else math.nan)
            for k, (l0, l1) in enumerate(zip(self.lengths, self.lengths[1:]), 1)
        ]


def pullback_shrinking_experiment(
    map_spec: EntireMapSpec,
    pair: tuple[MarkedOrbifold, MarkedOrbifold],
    curve0: PolylineCurve,
    branch_seed: complex,
    k_max: int = 9,
    refinement: float = 1e-4,
) -> PullbackResult:
    """Iterated inverse-branch pullback with certified orbifold lengths.

    The first pullback uses ``branch_seed``; each later step continues with
    the preimage of the current first vertex closest to it.  Reports the
    certified length sequence, the fitted geometric decay rate, and the
    worst forward-mapping residual of the deepest curve against curve0.
    """
    base, _ = pair
    lengths = [certified_curve_length(base, curve0, refinement)]
    curves = [curve0]
    seed = complex(branch_seed)
    for k in range(1, k_max + 1):
        lifted = pullback_curve(map_spec, curves[-1], seed)
        lengths.append(certified_curve_length(base, lifted, refinement))
        curves.append(lifted)
        if k < k_max:
            seed = nearest_preimage(map_spec, lifted.vertices[0])

    # forward consistency of the deepest curve
    residual = 0.0
    deepest = curves[-1]
    for v in deepest.vertices:
        w = v
        for _ in range(k_max):
            w = evaluate(map_spec, w)
        residual = max(residual, polyline_point_distance(curve0, w))

    return PullbackResult(lengths=lengths, decay_rate=_decay_rate(lengths),
                          forward_residual=residual)


def _decay_rate(lengths: list[float]) -> float:
    """The decay rate: exp of the least-squares slope of the logs of the
    positive lengths after the first, against their index 1, 2, ...; nan
    below 3 positive lengths.

    The slope is the closed form summed with ``math.fsum``, within an ulp or
    two of the exact slope of the rounded logs.
    """
    positive = [v for v in lengths if v > 0]
    if len(positive) < 3:
        return math.nan
    logs = np.log(positive[1:]).tolist()
    ks = range(1, len(positive))
    k_mean, log_mean = math.fsum(ks) / len(ks), math.fsum(logs) / len(ks)
    slope = (math.fsum((k - k_mean) * (v - log_mean) for k, v in zip(ks, logs))
             / math.fsum((k - k_mean) * (k - k_mean) for k in ks))
    return math.exp(slope)
