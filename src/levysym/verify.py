"""Numerical inequality harness.

Every check returns a CheckReport with a signed slack: positive slack
measures how far the claimed inequality is violated, so a check passes
when its slack stays at or below the tolerance.  Identity checks use an
absolute-value slack and a near-machine tolerance; comparison checks use
the mesh-coupled tolerance tau(h) because discretization adds a bias of
order h with an unknown constant.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assembly import DiscreteOperator, RadialGrid, energy, masked_vector
from .kernels import (IntegrabilityError, RadialProfile, ball_mass,
                      exterior_ball_mass, ray_integral, rearrange_profile,
                      surface_area, tail_primitive)
from .rearrange import (Grid, GridFunction, concentration_curve, default_radii,
                        schwarz_rearrangement)
from .solvers import Trajectory, solve_elliptic, to_grid_function

__all__ = [
    "CheckReport",
    "check_coarea",
    "check_comparison",
    "check_energy_comparison",
    "check_lens_geometry",
    "check_level_set_inequality",
    "check_max_principle",
    "check_maxmin_lemma",
    "check_parabolic_comparison",
    "check_phi_monotonicity",
    "check_polya_szego",
    "check_riesz",
    "config_hash",
    "phi_values",
    "tau",
    "truncate",
    "write_reports",
]

DEFAULT_KAPPA_TOL = 0.05
STRICT_TOL = float(np.finfo(np.float64).tiny)
# rows of the weight matrix per block of the coarea sums
CUT_BLOCK = 256


def tau(h: float, kappa_tol: float = DEFAULT_KAPPA_TOL) -> float:
    """Mesh-coupled comparison tolerance."""
    return max(1e-8, kappa_tol * h)


def plain_json(obj):
    """Strip numpy scalar types out of nested report payloads."""
    if isinstance(obj, dict):
        return {str(k): plain_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_json(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, np.bool_)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class CheckReport:
    check: str
    slack: float
    tolerance: float
    passed: bool
    worst_location: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.slack):
            raise ValueError("check slack must be finite")
        if not (self.tolerance > 0):
            raise ValueError("check tolerance must be positive")
        # numpy scalars sneak in from comparisons; records must be pure JSON
        object.__setattr__(self, "slack", float(self.slack))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))

    def as_record(self, config_digest: str) -> dict:
        return {
            "check": self.check,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_location": plain_json(self.worst_location),
            "config_hash": config_digest,
        }


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_reports(reports: Sequence[CheckReport], path, config_digest: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.as_record(config_digest), sort_keys=True,
                                separators=(",", ":"), allow_nan=False))
            fh.write("\n")


def grid_step(grid) -> float:
    if isinstance(grid, Grid):
        return grid.h
    if isinstance(grid, RadialGrid):
        return grid.delta
    raise TypeError("unsupported grid type")


def base_metadata(grid) -> dict:
    if isinstance(grid, Grid):
        return {"mode": "grid", "dimension": grid.dimension, "n": grid.n,
                "half_width": grid.half_width, "masked_cells": int(grid.masked_count)}
    return {"mode": "radial", "dimension": grid.dimension,
            "shells": int(grid.shells), "radius": grid.radius}


def matching_geometry(a: Grid, b: Grid) -> bool:
    return (a.dimension == b.dimension and a.n == b.n
            and abs(a.half_width - b.half_width) <= 1e-12 * a.half_width)


# --- concentration comparison -----------------------------------------------

def concentration_slack(u: GridFunction, v: GridFunction, radii):
    """Worst value and location of conc(u#) - conc(v) over the radii."""
    cu = concentration_curve(schwarz_rearrangement(u), radii)
    cv = concentration_curve(v, radii)
    diff = cu.integrals - cv.integrals
    worst = int(np.argmax(diff))
    return float(diff[worst]), float(cu.radii[worst]), cu, cv


def check_comparison(u: GridFunction, v: GridFunction, radii=None,
                     kappa_tol: float = DEFAULT_KAPPA_TOL,
                     name: str = "comparison") -> CheckReport:
    """Mass concentration of the rearranged solution never exceeds the
    symmetrized problem's solution: max_r of int_{B_r} u# - int_{B_r} v."""
    if not matching_geometry(u.grid, v.grid):
        raise ValueError("solutions live on different grid geometries")
    if u.grid.masked_count != v.grid.masked_count:
        raise ValueError("domains have different cell counts")
    if radii is None:
        radii = default_radii(u.grid)
    slack, worst_r, _, _ = concentration_slack(u, v, radii)
    tol = tau(u.grid.h, kappa_tol)
    return CheckReport(check=name, slack=slack, tolerance=tol,
                       passed=slack <= tol, worst_location={"r": worst_r},
                       metadata=base_metadata(u.grid))


def check_energy_comparison(op_u: DiscreteOperator, u, op_v: DiscreteOperator,
                            v, kappa_tol: float = DEFAULT_KAPPA_TOL) -> CheckReport:
    """The original solution's energy never exceeds the symmetrized one's."""
    slack = energy(op_u, u) - energy(op_v, v)
    h = grid_step(op_u.grid)
    tol = tau(h, kappa_tol)
    return CheckReport(check="energy_comparison", slack=slack, tolerance=tol,
                       passed=slack <= tol, worst_location={"scope": "global"},
                       metadata=base_metadata(op_u.grid))


def check_parabolic_comparison(traj_u: Trajectory, traj_v: Trajectory,
                               radii=None,
                               kappa_tol: float = DEFAULT_KAPPA_TOL) -> list:
    """Per-step concentration comparison along two trajectories."""
    if traj_u.timegrid != traj_v.timegrid:
        raise ValueError("trajectories use different time grids")
    gu, gv = traj_u.grid, traj_v.grid
    if not (isinstance(gu, Grid) and isinstance(gv, Grid)
            and matching_geometry(gu, gv)
            and gu.masked_count == gv.masked_count):
        raise ValueError("trajectories live on different grid geometries")
    if radii is None:
        radii = default_radii(gu)
    op_u0, op_v0 = traj_u.operator_at(0), traj_v.operator_at(0)
    u0 = to_grid_function(op_u0, traj_u.initial)
    v0 = to_grid_function(op_v0, traj_v.initial)
    slack0, worst0, _, _ = concentration_slack(u0, v0, radii)
    scale = max(float(np.abs(traj_u.initial).sum()) * gu.cell_volume, 1.0)
    if slack0 > 1e-12 * scale:
        raise ValueError(
            f"initial data violate the concentration precondition at r = {worst0}")
    tol = tau(gu.h, kappa_tol)
    times = traj_u.timegrid.times
    reports = []
    for n in range(traj_u.timegrid.steps):
        un = to_grid_function(op_u0, traj_u.states[n])
        vn = to_grid_function(op_v0, traj_v.states[n])
        slack, worst_r, _, _ = concentration_slack(un, vn, radii)
        meta = base_metadata(gu)
        meta["step"] = n
        reports.append(CheckReport(
            check="parabolic_comparison", slack=slack, tolerance=tol,
            passed=slack <= tol,
            worst_location={"r": worst_r, "t": float(times[n + 1])},
            metadata=meta))
    return reports


# --- pointwise and energy inequalities ---------------------------------------

def check_max_principle(op: DiscreteOperator, f, tol: float = 1e-12) -> CheckReport:
    """Nonpositive data force a nonpositive solution."""
    fvec = masked_vector(op.grid, f) if isinstance(op.grid, Grid) else np.asarray(f)
    if fvec.size and fvec.max() > 0:
        raise ValueError("maximum principle check needs nonpositive data")
    sol = solve_elliptic(op, fvec, tol=tol)
    slack = float(sol.vector.max()) if sol.vector.size else 0.0
    worst = int(np.argmax(sol.vector)) if sol.vector.size else 0
    tolerance = 10.0 * tol
    return CheckReport(check="max_principle", slack=slack, tolerance=tolerance,
                       passed=slack <= tolerance,
                       worst_location={"cell": worst},
                       metadata=base_metadata(op.grid))


def seminorm_sq(op: DiscreteOperator, u) -> float:
    """Kernel part of the energy: pair terms plus the exterior killing term,
    with no lower-order diagonal."""
    return energy(op.with_cdiag(np.zeros(op.size)), u)


def check_polya_szego(op_u: DiscreteOperator, op_v: DiscreteOperator,
                      u: GridFunction,
                      kappa_tol: float = DEFAULT_KAPPA_TOL) -> CheckReport:
    """Rearrangement does not increase the kernel seminorm."""
    if u.masked_values.size and u.masked_values.min() < 0:
        raise ValueError("rearrangement energy check needs nonnegative data")
    us = schwarz_rearrangement(u)
    if not np.array_equal(us.grid.mask_flat, op_v.grid.mask_flat):
        raise ValueError("symmetrized operator does not live on the matching ball")
    slack = seminorm_sq(op_v, us) - seminorm_sq(op_u, u)
    tol = tau(u.grid.h, kappa_tol)
    return CheckReport(check="polya_szego", slack=slack, tolerance=tol,
                       passed=slack <= tol, worst_location={"scope": "global"},
                       metadata=base_metadata(u.grid))


# --- Riesz-type rearrangement inequality --------------------------------------

def profile_mass(profile: RadialProfile, dim: int) -> float:
    """Total integral over R^dim; raises IntegrabilityError when divergent."""
    head = ray_integral(profile, 0.0, 1.0, dim - 1.0)
    tail = float(tail_primitive(profile, dim)(np.asarray(1.0)))
    return surface_area(dim) * (head + tail)


def pair_kernel_matrix(profile: RadialProfile, xa: np.ndarray, xb: np.ndarray,
                       diag_value: float) -> np.ndarray:
    diff = xa[:, None, :] - xb[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    out = np.empty(dist.shape)
    near_zero = dist < 1e-14
    out[near_zero] = diag_value
    out[~near_zero] = profile.evaluate(dist[~near_zero])
    return out


def check_riesz(W: RadialProfile, u: GridFunction, v: GridFunction,
                kappa_tol: float = DEFAULT_KAPPA_TOL,
                families: Sequence[str] = ("product", "min")) -> CheckReport:
    """Interaction functionals never exceed their symmetrized counterparts.

    Families: F(a,b) = a*b and F(a,b) = min(a,b); both are supermodular,
    which is the structural hypothesis of the inequality.
    """
    if u.grid is not v.grid and not np.array_equal(u.grid.mask_flat, v.grid.mask_flat):
        raise ValueError("both functions must live on the same grid")
    if (u.masked_values.size and u.masked_values.min() < 0) or \
       (v.masked_values.size and v.masked_values.min() < 0):
        raise ValueError("interaction comparison needs nonnegative data")
    dim = u.grid.dimension
    profile_mass(W, dim)  # integrability gate, raises when divergent
    Ws = rearrange_profile(W)
    vol = u.grid.cell_volume
    h = u.grid.h
    # shared diagonal rule: cell-scale mean of the profile, identical on both
    # sides so the diagonal difference reduces to the plain rearrangement bound
    small = ray_integral(W, 0.0, h / 2.0, dim - 1.0) * surface_area(dim)
    diag = small / (surface_area(dim) / dim * (h / 2.0) ** dim)
    small_s = ray_integral(Ws, 0.0, h / 2.0, dim - 1.0) * surface_area(dim)
    diag_s = small_s / (surface_area(dim) / dim * (h / 2.0) ** dim)

    us, vs = schwarz_rearrangement(u), schwarz_rearrangement(v)
    worst = {"family": ""}
    slack = -math.inf
    for family in families:
        lhs = interaction_sum(W, u, v, diag, family)
        rhs = interaction_sum(Ws, us, vs, diag_s, family)
        gap = (lhs - rhs) * vol * vol
        if gap > slack:
            slack = gap
            worst = {"family": family}
    tol = tau(h, kappa_tol)
    return CheckReport(check="riesz", slack=slack, tolerance=tol,
                       passed=slack <= tol, worst_location=worst,
                       metadata=base_metadata(u.grid))


def interaction_sum(W: RadialProfile, u: GridFunction, v: GridFunction,
                    diag_value: float, family: str) -> float:
    iu = np.flatnonzero(u.values != 0.0)
    iv = np.flatnonzero(v.values != 0.0)
    if family == "product":
        if iu.size == 0 or iv.size == 0:
            return 0.0
        mat = pair_kernel_matrix(W, u.grid.centers[iu], v.grid.centers[iv],
                                 diag_value)
        return float(u.values[iu] @ mat @ v.values[iv])
    if family == "min":
        sup = np.union1d(iu, iv)
        if sup.size == 0:
            return 0.0
        mat = pair_kernel_matrix(W, u.grid.centers[sup], v.grid.centers[sup],
                                 diag_value)
        pairs = np.minimum(u.values[sup][:, None], v.values[sup][None, :])
        return float(np.sum(pairs * mat))
    raise ValueError(f"unknown interaction family: {family}")


# --- coarea identities ---------------------------------------------------------

def truncate(u: GridFunction, level: float, height: float) -> GridFunction:
    """Cellwise min(height, max(0, u - level))."""
    if level < 0 or height <= 0:
        raise ValueError("truncation needs level >= 0 and height > 0")
    return GridFunction(u.grid, np.minimum(height, np.maximum(0.0, u.values - level)))


def perimeter_of(op: DiscreteOperator, inside: np.ndarray) -> float:
    Wm = op.weight_matrix
    outside = ~inside
    return float(inside @ Wm @ outside + op.kappa @ inside)


def prefix_cuts(op: DiscreteOperator, vals: np.ndarray) -> np.ndarray:
    """Perimeters of the prefixes of the cells sorted by descending value.

    Entry k is perimeter_of the first k cells in that order, accumulated as
    cut(S + {k}) = cut(S) + deg(k) + kappa_k - 2 W[k, S] over row blocks of
    the weight matrix, so every super-level set costs one lookup.
    """
    Wm = op.weight_matrix
    m = vals.size
    order = np.argsort(-vals, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    step = np.empty(m)
    for lo in range(0, m, CUT_BLOCK):
        sel = order[lo:lo + CUT_BLOCK]
        rows = Wm[sel]
        earlier = rows @ (rank < lo).astype(np.float64)
        within = np.tril(rows[:, sel], -1).sum(axis=1)
        step[lo:lo + CUT_BLOCK] = (rows.sum(axis=1) + op.kappa[sel]
                                   - 2.0 * (earlier + within))
    return np.concatenate(([0.0], np.cumsum(step)))


def check_coarea(op: DiscreteOperator, u: GridFunction, mode: str = "plain",
                 level: float = 0.0, height: float | None = None) -> CheckReport:
    """Layer-cake identity: the kernel total-variation energy equals the
    integral of discrete perimeters over levels.  Exact for cell data."""
    vals = masked_vector(op.grid, u)
    if vals.size and vals.min() < 0:
        raise ValueError("coarea check needs nonnegative data")
    if mode == "truncated":
        if height is None:
            raise ValueError("truncated mode needs a height")
        vals = np.minimum(height, np.maximum(0.0, vals - level))
    elif mode != "plain":
        raise ValueError("mode must be 'plain' or 'truncated'")
    Wm = op.weight_matrix
    pairs = 0.0
    for lo in range(0, vals.size, CUT_BLOCK):
        diff = np.abs(vals[lo:lo + CUT_BLOCK, None] - vals[None, :])
        pairs += float(np.sum(Wm[lo:lo + CUT_BLOCK] * diff))
    lhs = 0.5 * pairs + float(op.kappa @ vals)
    levels = np.unique(np.concatenate(([0.0], vals)))
    rhs = 0.0
    if levels.size > 1:
        # the set above levels[i] is the first `counts[i]` cells in
        # descending order; the whole support is evaluated directly
        counts = vals.size - np.searchsorted(np.sort(vals), levels[:-1], side="right")
        terms = np.diff(levels) * prefix_cuts(op, vals)[counts]
        terms[0] = (levels[1] - levels[0]) * perimeter_of(op, vals > levels[0])
        rhs = float(np.sum(terms))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    slack = abs(lhs - rhs) / scale
    return CheckReport(check=f"coarea_{mode}", slack=slack, tolerance=1e-10,
                       passed=slack <= 1e-10,
                       worst_location={"levels": int(levels.size - 1)},
                       metadata=base_metadata(op.grid))


# --- level-set flux inequality -------------------------------------------------

def check_level_set_inequality(op: DiscreteOperator, u_sharp: GridFunction,
                               c_sharp, f_sharp, levels,
                               kappa_tol: float = DEFAULT_KAPPA_TOL) -> list:
    """On each super-level ball: outward kernel flux plus the lower-order
    mass is at most the source mass."""
    grid = op.grid
    uvec = masked_vector(grid, u_sharp)
    cvec = masked_vector(grid, c_sharp)
    fvec = masked_vector(grid, f_sharp)
    keys = grid.radius_keys[grid.masked_indices]
    order = np.argsort(keys, kind="stable")
    sorted_vals = uvec[order]
    if sorted_vals.size > 1 and np.max(np.diff(sorted_vals)) > 1e-12:
        raise ValueError("function is not radially decreasing in the ball layout")
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size and levels.min() <= 0:
        raise ValueError("levels must be positive")
    Wm = op.weight_matrix
    vol = grid.cell_volume
    tol = tau(grid.h, kappa_tol)
    reports = []
    for t in levels:
        m = int(np.sum(sorted_vals > t))
        inside = np.zeros(op.size, dtype=bool)
        inside[order[:m]] = True
        outside = ~inside
        ui, uo = np.where(inside, uvec, 0.0), np.where(outside, uvec, 0.0)
        flux = float(ui @ Wm @ outside - inside @ Wm @ uo)
        lhs = flux + float(op.kappa @ ui) + vol * float(cvec @ (uvec * inside))
        rhs = vol * float(fvec @ inside)
        slack = lhs - rhs
        reports.append(CheckReport(
            check="level_set_inequality", slack=slack, tolerance=tol,
            passed=slack <= tol,
            worst_location={"level": float(t), "cells": m},
            metadata=base_metadata(grid)))
    return reports


# --- ball convolutions and their monotonicity ----------------------------------

def phi_values(profile: RadialProfile, r: float, points, which: str,
               dim: int | None = None) -> np.ndarray:
    """Masses of the profile seen from a point: over the ball complement
    (phi1, queried strictly inside) or over the ball (phi2, strictly
    outside)."""
    if dim is None:
        dim = profile.dimension
    pts = np.atleast_1d(np.asarray(points, dtype=np.float64))
    if not (r > 0):
        raise ValueError("ball radius must be positive")
    if which == "phi1":
        if np.any(pts < 0) or np.any(pts >= r):
            raise ValueError("phi1 is defined strictly inside the ball")
        return np.array([exterior_ball_mass(profile, dim, p, r) for p in pts])
    if which == "phi2":
        if np.any(pts <= r):
            raise ValueError("phi2 is defined strictly outside the ball")
        return np.array([ball_mass(profile, dim, p, r) for p in pts])
    raise ValueError("which must be 'phi1' or 'phi2'")


def check_phi_monotonicity(profile: RadialProfile, r: float,
                           samples: int = 64, dim: int | None = None,
                           outer_reach: float = 3.0) -> CheckReport:
    """phi1 increases on (0, r); phi2 decreases on (r, outer_reach * r)."""
    if dim is None:
        dim = profile.dimension
    ks = np.arange(1, samples + 1) / (samples + 1.0)
    rho = r * ks
    sigma = r + (outer_reach - 1.0) * r * ks
    p1 = phi_values(profile, r, rho, "phi1", dim)
    p2 = phi_values(profile, r, sigma, "phi2", dim)
    v1 = np.diff(p1)
    v2 = np.diff(p2)
    worst_inc = float(np.max(-v1)) if v1.size else -math.inf
    worst_dec = float(np.max(v2)) if v2.size else -math.inf
    slack = max(worst_inc, worst_dec, 0.0) if samples > 1 else 0.0
    if worst_inc >= worst_dec and v1.size:
        loc = {"side": "phi1", "rho": float(rho[int(np.argmax(-v1))])}
    elif v2.size:
        loc = {"side": "phi2", "rho": float(sigma[int(np.argmax(v2))])}
    else:
        loc = {"side": "degenerate", "rho": float(r)}
    return CheckReport(check="phi_monotonicity", slack=slack, tolerance=1e-8,
                       passed=slack <= 1e-8, worst_location=loc,
                       metadata={"kind": profile.kind, "dimension": dim,
                                 "r": r, "samples": samples})


# --- geometric lens lemma -------------------------------------------------------

def check_lens_geometry(r: float, rho: float, rho_prime: float,
                        boundary_samples: int = 4096,
                        grid_samples: int = 360) -> CheckReport:
    """At radii rho <= rho' with rho' - rho <= 2r, over the symmetric
    difference of the unit-configuration balls the max of the smaller
    squared distance and the min of the larger one both equal
    r^2 + rho*rho'."""
    if not (0 <= rho <= rho_prime):
        raise ValueError("radii must satisfy 0 <= rho <= rho'")
    if rho_prime - rho > 2 * r:
        raise ValueError("the balls do not overlap: rho' - rho must be <= 2r")
    x = np.array([rho, 0.0])
    xp = np.array([-rho_prime, 0.0])
    c = x + xp
    target = r * r + rho * rho_prime

    pts = []
    half_gap = (rho - rho_prime) / 2.0
    disc = r * r - half_gap * half_gap
    if disc >= 0:
        corner_y = math.sqrt(disc)
        pts.append(np.array([[half_gap, corner_y], [half_gap, -corner_y]]))
    theta = np.linspace(0.0, 2.0 * math.pi, boundary_samples, endpoint=False)
    ring = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts.append(ring)
    pts.append(ring + c)
    span = np.linspace(-r + min(c[0], 0.0), r + max(c[0], 0.0), grid_samples)
    gy = np.linspace(-r, r, grid_samples)
    gx, gy = np.meshgrid(span, gy)
    pts.append(np.stack([gx.ravel(), gy.ravel()], axis=1))
    z = np.concatenate(pts, axis=0)

    # closed symmetric difference: keep the corner points, which lie on both
    # circles and carry the extremal value
    eps = 1e-9 * r
    d0 = np.hypot(z[:, 0], z[:, 1])
    dc = np.hypot(z[:, 0] - c[0], z[:, 1] - c[1])
    lobe_a = (d0 <= r + eps) & (dc >= r - eps)
    lobe_b = (dc <= r + eps) & (d0 >= r - eps)
    z = z[lobe_a | lobe_b]
    if z.shape[0] == 0:
        return CheckReport(check="lens_geometry", slack=0.0, tolerance=1e-6,
                           passed=True, worst_location={"note": "empty lens"},
                           metadata={"r": r, "rho": rho, "rho_prime": rho_prime})
    d1 = np.sum((z - x) ** 2, axis=1)
    d2 = np.sum((z - xp) ** 2, axis=1)
    max_of_min = float(np.max(np.minimum(d1, d2)))
    min_of_max = float(np.min(np.maximum(d1, d2)))
    slack = max(abs(max_of_min - target), abs(min_of_max - target)) / target
    return CheckReport(check="lens_geometry", slack=slack, tolerance=1e-6,
                       passed=slack <= 1e-6,
                       worst_location={"max_of_min": max_of_min,
                                       "min_of_max": min_of_max},
                       metadata={"r": r, "rho": rho, "rho_prime": rho_prime,
                                 "points": int(z.shape[0])})


# --- radial max/min lemma --------------------------------------------------------

def check_maxmin_lemma(u, v, h1, h2, volumes=None) -> CheckReport:
    """If the running radial integral of u - v has a strictly positive
    maximum, weighting by an increasing positive h1 keeps the integral up
    to that radius strictly positive; dually for tails with decreasing h2."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if not (u.shape == v.shape == h1.shape == h2.shape):
        raise ValueError("all radial sequences must share one shape")
    if volumes is None:
        volumes = np.ones_like(u)
    else:
        volumes = np.asarray(volumes, dtype=np.float64)
    if h1.size == 0:
        raise ValueError("need at least one shell")
    if np.any(h1 <= 0) or np.any(np.diff(h1) < 0):
        raise ValueError("h1 must be positive and non-decreasing")
    if np.any(h2 <= 0) or np.any(np.diff(h2) > 0):
        raise ValueError("h2 must be positive and non-increasing")

    d = (u - v) * volumes
    running = np.cumsum(d)
    meta = {}
    slack = -math.inf
    worst = {"branch": "none"}
    any_active = False

    peak = int(np.argmax(running))
    if running[peak] > 0:
        any_active = True
        meta["max_hypothesis"] = "active"
        weighted = float(np.cumsum(d * h1)[peak])
        if -weighted > slack:
            slack = -weighted
            worst = {"branch": "max", "index": peak}
    else:
        meta["max_hypothesis"] = "vacuous"

    tails = running[-1] - running  # tail sum strictly beyond each index
    if tails.size > 1:
        inner = tails[:-1]
        kbar = int(np.argmax(inner))
        if inner[kbar] > 0:
            any_active = True
            meta["min_hypothesis"] = "active"
            weighted = float(np.sum(d[kbar + 1:] * h2[kbar + 1:]))
            if -weighted > slack:
                slack = -weighted
                worst = {"branch": "min", "index": kbar + 1}
        else:
            meta["min_hypothesis"] = "vacuous"
    else:
        meta["min_hypothesis"] = "vacuous"

    meta["vacuous"] = not any_active
    if not any_active:
        return CheckReport(check="maxmin_lemma", slack=0.0, tolerance=STRICT_TOL,
                           passed=True, worst_location={"branch": "vacuous"},
                           metadata=meta)
    return CheckReport(check="maxmin_lemma", slack=slack, tolerance=STRICT_TOL,
                       passed=slack < 0.0, worst_location=worst, metadata=meta)
