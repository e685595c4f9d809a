"""Certified expansion lower bounds via density upper bounds and curve lengths.

The engine only ever needs UPPER bounds on distances: the expansion floor is
decreasing in the distance, so any certified path length R_bar yields a valid
certificate lambda_lower(R_bar).  Density upper bounds come from closed-form
witness models (a one-cone disc around the nearest mark, or a mark-free
disc), and curve lengths are summed per piece with the exact supremum of the
witness density over the piece, refined adaptively near singularities so the
bound converges to the true integral from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import lambda_lower
from .curves import PolylineCurve, polyline_point_distance, segment_point_distances
from .errors import DomainError, PathBlocked
from .maps import EntireMapSpec, evaluate, nearest_preimage, pullback_curve
from .models import ConeDisc, cone_density, cone_density_formula, hyp_distance_disc
from .orbifolds import MarkedOrbifold, boundary_set, truncation_warning

# A piece keeps splitting while its density supremum exceeds this factor times
# the density at its far end; it bounds the overestimate near singularities.
_TIGHTEN = 1.02
# Nearest boundary points tried per expansion certificate (before the
# high-imaginary extras).
_MAX_CANDIDATES = 12
# An expansion-certificate path keeps this fraction of the distance from its
# start to the nearest base mark (to the surface boundary on a mark-free base)
# away from every mark and the boundary; a closer path is rejected in round 0.
_MARGIN_REL = 1e-3
# Sample circles of the annulus scan, as multiples of each scale.
_RADIUS_FACTORS = (1.0, 1.3, 1.7)
# Newton residual tolerance of each inverse-branch pullback step.
_PULLBACK_NEWTON_TOL = 1e-13


@dataclass(frozen=True)
class CleanDisc:
    """A mark-free disc witness of radius ``radius`` centred at the point."""

    radius: float


@dataclass(frozen=True)
class DensityBound:
    point: complex
    upper: float
    witness: ConeDisc | CleanDisc


def upper_density_bound(orb: MarkedOrbifold, z: complex) -> DensityBound:
    """Closed-form upper bound on the orbifold density at ``z``.

    Inside the isolation disc of the nearest mark the witness is the one-cone
    disc model there; elsewhere it is the largest mark-free disc around
    ``z``.  Either witness embeds holomorphically, so its density dominates.
    """
    z = complex(z)
    if not orb.contains(z):
        raise DomainError(f"{z!r} lies outside the surface")
    b_dist = orb.surface.boundary_distance(z)
    if not orb.marks:
        if not math.isfinite(b_dist):
            raise DomainError("mark-free plane is not hyperbolic")
        return DensityBound(point=z, upper=2.0 / b_dist, witness=CleanDisc(b_dist))
    dists = [abs(z - p) for p, _ in orb.marks]
    i = int(np.argmin(dists))
    p, nu = orb.marks[i]
    d = dists[i]
    if d <= 1e-12:
        raise DomainError(f"{z!r} is numerically at a mark")
    eps = float(orb.isolation_radii[i])
    if not math.isfinite(eps):
        # a plane with a single mark is not hyperbolic; no witness exists
        raise DomainError("no finite witness disc around the only mark")
    if d < eps:
        return DensityBound(
            point=z,
            upper=cone_density(nu, eps, d),
            witness=ConeDisc(order=nu, radius=eps, center=p),
        )
    delta = min(min(dists), b_dist)
    if not math.isfinite(delta):
        raise DomainError("unbounded mark-free region: no witness disc")
    return DensityBound(point=z, upper=2.0 / delta, witness=CleanDisc(delta))


# ---------------------------------------------------------------------------
# Vectorized certified curve length
# ---------------------------------------------------------------------------


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

    Round 0 bounds every piece of the polyline, and so rejects (DomainError)
    a curve that comes within ``mark_margin`` of a mark or of the surface
    boundary.  Later rounds bound only the pieces no longer than
    ``refinement``: longer pieces split whatever their bounds say, so bounding
    them would be wasted work.

    The sum of finished pieces never decreases, so the call returns ``inf``
    as soon as it reaches ``cutoff``: the result is ``inf`` exactly when the
    length is at least ``cutoff``, and the length itself otherwise.
    """
    if refinement <= 0:
        raise DomainError("refinement must be positive")
    verts = curve.as_array()
    a_all = verts[:-1]
    b_all = verts[1:]
    keep = np.abs(b_all - a_all) > 0
    a = a_all[keep]
    b = b_all[keep]
    if a.size == 0:
        return 0.0 if 0.0 < cutoff else math.inf

    marks = orb.mark_array
    cone_groups = orb.cone_groups

    def piece_bounds(a_: np.ndarray, b_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sup bound, far-end pointwise bound) per piece."""
        bdy = orb.surface.segment_boundary_distances(a_, b_)
        # vertices are finite, so no NaN hides from these minima
        closest = bdy.min()
        if closest < mark_margin or closest <= 0:
            raise DomainError("curve touches the surface boundary")
        if not marks.size:
            return 2.0 / bdy, 2.0 / bdy
        dmin = segment_point_distances(a_, b_, marks)
        dmax = np.maximum(np.abs(a_[:, None] - marks[None, :]), np.abs(b_[:, None] - marks[None, :]))
        nearest = dmin.min(axis=1)
        closest = nearest.min()
        if closest < mark_margin or closest <= 0:
            raise DomainError("curve touches a mark")
        sup = 2.0 / np.minimum(nearest, bdy)
        far = sup.copy()
        for k, cols, eps, eps_root in cone_groups:
            hi = dmax[:, cols]
            inside = hi < eps
            if not inside.any():
                continue
            # Outside the isolation disc the cone formula is negative or
            # infinite, never a bound: mask those entries before the minimum.
            with np.errstate(divide="ignore"):
                cone_far = cone_density_formula(k, eps, eps_root, hi)
                cone_near = cone_density_formula(k, eps, eps_root, dmin[:, cols])
            cone_sup = np.maximum(cone_near, cone_far)
            sup = np.minimum(sup, np.where(inside, cone_sup, np.inf).min(axis=1))
            far = np.minimum(far, np.where(inside, cone_far, np.inf).min(axis=1))
        return sup, far

    total = 0.0
    for i in range(max_rounds):
        lens = np.abs(b - a)
        split = lens > refinement
        # after round 0, a round in which every piece is too long only halves
        if i == 0 or not split.all():
            bounded = np.ones_like(split) if i == 0 else ~split
            sup, far = piece_bounds(a[bounded], b[bounded])
            split[bounded] |= sup > _TIGHTEN * far
            done = ~split
            total += float((lens[done] * sup[done[bounded]]).sum())
            if total >= cutoff:
                return math.inf
            if not split.any():
                break
            a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
    else:
        lens = np.abs(b - a)
        sup, _ = piece_bounds(a, b)
        total += float(np.sum(lens * sup))
        if total >= cutoff:
            return math.inf
    return total


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
    boundary: list[complex],
    refinement: float = 1e-3,
) -> ExpansionCertificate:
    """Certify an expansion floor at ``z`` from a list of boundary points.

    Candidate boundary points (nearest by Euclidean distance, plus a
    high-imaginary selection that keeps paths away from mark rows) are joined
    to ``z`` by straight or single-waypoint paths; the smallest certified
    path length wins.  Each path passes the best length so far as its
    ``cutoff``, so a losing path stops early and the winner is the same.
    On a mark-free disc orbifold the exact hyperbolic distance is used,
    which reproduces the sharp single-cone case.
    """
    base, lift = pair
    if not boundary:
        raise PathBlocked("empty boundary set")
    z = complex(z)
    if lift.ramification(z) > 1 or base.ramification(z) > 1:
        raise DomainError(f"{z!r} is marked")
    if not base.contains(z):
        raise DomainError(f"{z!r} outside the base surface")

    disc = base.surface.outer
    if disc is not None and not base.surface.holes and not base.marks:
        b = min(boundary, key=lambda p: _exact_disc_distance(disc, z, p))
        R_bar = _exact_disc_distance(disc, z, b)
        return ExpansionCertificate(
            point=z,
            path=PolylineCurve([z, b]),
            R_bar=R_bar,
            lambda_bar=lambda_lower(R_bar),
            truncation_depth=base.truncation_depth,
        )

    arr = np.asarray(boundary, dtype=complex)
    order = _nearest_first(arr, z)
    candidates = [boundary[i] for i in order[:_MAX_CANDIDATES]]
    high = order[np.abs(arr.imag[order]) >= 0.5 * abs(z)]
    for i in high[:4]:
        if boundary[i] not in candidates:
            candidates.append(boundary[i])

    margin = _MARGIN_REL * _local_isolation(base, z)
    best: tuple[float, list[complex]] | None = None
    for b in candidates:
        for path_pts in _candidate_paths(z, b):
            try:
                length = certified_curve_length(
                    base,
                    PolylineCurve(path_pts),
                    refinement=max(refinement, _path_len(path_pts) / 256.0),
                    mark_margin=margin,
                    cutoff=math.inf if best is None else best[0],
                )
            except DomainError:
                continue
            if math.isfinite(length) and (best is None or length < best[0]):
                best = (length, path_pts)
    if best is None:
        raise PathBlocked(f"no mark-avoiding path from {z!r} to the boundary set")
    R_bar, path_pts = best
    return ExpansionCertificate(
        point=z,
        path=PolylineCurve(path_pts),
        R_bar=R_bar,
        lambda_bar=lambda_lower(R_bar),
        truncation_depth=base.truncation_depth,
    )


def _nearest_first(arr: np.ndarray, z: complex) -> np.ndarray:
    """Indices of ``arr`` in the stable order of the key (|p - z|, re p, im p)."""
    # hypot, as abs() of a Python complex takes it; numpy's complex abs can
    # differ from it in the last bit and so reorder near-ties
    dist = np.hypot(arr.real - z.real, arr.imag - z.imag)
    return np.lexsort((arr.imag, arr.real, dist))


def _path_len(pts: list[complex]) -> float:
    return sum(abs(b - a) for a, b in zip(pts, pts[1:]))


def _local_isolation(orb: MarkedOrbifold, z: complex) -> float:
    marks = orb.mark_array
    if marks.size == 0:
        d = orb.surface.boundary_distance(z)
        return d if math.isfinite(d) else 1.0
    return float(np.abs(marks - z).min())


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
        supply = [p for p in shared if r_lo <= abs(p) <= r_hi]
        if not supply:
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
    """Spearman rho with average ranks for ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise DomainError("need two sequences of equal length >= 2")

    def ranks(vals: list[float]) -> np.ndarray:
        order = np.argsort(vals, kind="stable")
        r = np.empty(len(vals))
        sorted_vals = np.asarray(vals)[order]
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            r[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r

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
        lifted = pullback_curve(map_spec, curves[-1], seed, tol=_PULLBACK_NEWTON_TOL)
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

    positive = [v for v in lengths if v > 0]
    if len(positive) >= 3:
        logs = np.log(positive[1:])
        ks = np.arange(1, len(positive))
        slope = float(np.polyfit(ks, logs, 1)[0])
        rate = math.exp(slope)
    else:
        rate = math.nan
    return PullbackResult(lengths=lengths, decay_rate=rate, forward_residual=residual)
