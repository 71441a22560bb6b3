"""Discrete nonlocal operator assembly.

The scheme is piecewise-constant cellwise collocation.  For masked cells
i != j the pairwise weight is

    far pairs  (index Chebyshev distance > 2):  K(x_i, x_j) h^(2N)
    near pairs (distance 1 or 2):  (Q(C_i, C_j) + Q(C_j, C_i)) / 2

with Q(C_i, C_j) = h^N * integral of K(x_i, y) over the cell C_j, refined
by midpoint subdivision with Richardson extrapolation until the relative
change drops below 1e-6.  The self pair never enters because a piecewise
constant has no variation inside a cell.

On the uniform grid the envelope part of a far weight, J(h |i - j|),
depends on the index offset i - j only.  The far field therefore
evaluates the profile once on the (2n - 1)^N integer offsets of the box
(zero at Chebyshev distance <= 2) and fills the weights by row-blocked
gathers from that table; a modulation a(x_i, x_j) multiplies the gathered
values on the same pairs.  No thread pool is involved.

Killing collects everything the masked cell sees outside the domain: the
same pairwise weights toward unmasked in-box cells, plus the analytic
radial tail beyond the box.  The tail knows only the envelope J, so with
modulation Lambda > 1 it is an interval [1, Lambda] * tail; the midpoint
enters kappa and the width lands in the diagnostics.  In 2-D the tail
density is evaluated once per orbit of the square's eight symmetries,
under which both the box and the midpoint angle rule are invariant.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import (
    Kernel,
    RadialProfile,
    angular_kernel_average,
    ball_volume,
    exterior_ball_mass,
    modulation_factor,
    surface_area,
    tail_primitive,
)
from .rearrange import Grid, GridFunction

__all__ = [
    "AssemblyError",
    "DiscreteOperator",
    "RadialGrid",
    "assemble",
    "assemble_radial",
    "build_rhs",
    "energy",
    "write_operator_csv",
]

NEAR_TOL = 1e-6
NEAR_CAP_1D = 1024
NEAR_CAP_2D = 256
TAIL_ANGLES = 2048
# bound on rows x subcells per modulation evaluation block
NEAR_BLOCK = 4_000_000
# bound on the entries of one row block of far-field gathers or tail rays
ROW_BLOCK = 1 << 20
# bound on pairs per block when walking the packed upper triangle
TRIU_BLOCK = 1 << 18


class AssemblyError(RuntimeError):
    pass


def thread_count() -> int:
    raw = os.environ.get("LEVYSYM_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        raise ValueError(f"LEVYSYM_THREADS must be an integer, got {raw!r}")
    if k < 1:
        raise ValueError("LEVYSYM_THREADS must be at least 1")
    return k


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial shells of the ball B_R, for the symmetrized problem."""

    dimension: int
    radius: float
    shells: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.shells < 2:
            raise ValueError("need at least two shells")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")

    @property
    def delta(self) -> float:
        return self.radius / self.shells

    @cached_property
    def edges(self) -> np.ndarray:
        return self.delta * np.arange(self.shells + 1, dtype=np.float64)

    @cached_property
    def midpoints(self) -> np.ndarray:
        return self.delta * (np.arange(self.shells, dtype=np.float64) + 0.5)

    @cached_property
    def volumes(self) -> np.ndarray:
        n = self.dimension
        return ball_volume(n) * np.diff(self.edges ** n)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric nonlocal stiffness operator over the masked cells.

    weights holds the strict upper triangle of the pairwise matrix in
    row-major pair order (np.triu_indices order, see triu_blocks).  kappa
    and cdiag are the killing and lower-order diagonals, already
    volume-weighted.
    """

    grid: object
    volumes: np.ndarray
    weights: np.ndarray
    kappa: np.ndarray
    cdiag: np.ndarray
    tail_interval: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.size
        if self.weights.shape != (m * (m - 1) // 2,):
            raise ValueError("weights must cover the strict upper triangle")
        for name in ("kappa", "cdiag"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have one entry per masked cell")
        if np.any(self.weights < 0) or np.any(self.kappa < 0) or np.any(self.cdiag < 0):
            raise ValueError("weights, kappa and cdiag must be nonnegative")

    @property
    def size(self) -> int:
        return self.volumes.size

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        m = self.size
        W = np.zeros((m, m))
        for start, stop, rows, cols in triu_blocks(m):
            W[rows, cols] = self.weights[start:stop]
            W[cols, rows] = self.weights[start:stop]
        return W

    @cached_property
    def matrix(self) -> np.ndarray:
        A = np.negative(self.weight_matrix)
        d = self.weight_matrix.sum(axis=1) + self.kappa + self.cdiag
        np.fill_diagonal(A, d)
        return A

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def with_cdiag(self, cdiag: np.ndarray) -> "DiscreteOperator":
        """Same interaction weights with a replaced lower-order diagonal."""
        cdiag = np.asarray(cdiag, dtype=np.float64)
        return DiscreteOperator(grid=self.grid, volumes=self.volumes,
                                weights=self.weights, kappa=self.kappa,
                                cdiag=cdiag, tail_interval=self.tail_interval,
                                diagnostics=self.diagnostics)


def triu_blocks(m: int, limit: int = TRIU_BLOCK):
    """Walk the strict upper triangle of an m x m matrix in row blocks.

    Yields (start, stop, rows, cols): the slice of the packed pair vector
    (np.triu_indices order) and the row and column index of each pair in
    it.  A block holds at most `limit` pairs unless a single row is longer.
    """
    counts = np.arange(m - 1, -1, -1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    lo = 0
    while lo < m - 1:
        hi = int(np.searchsorted(starts, starts[lo] + limit, side="right")) - 1
        hi = max(hi, lo + 1)
        rows = np.repeat(np.arange(lo, hi), counts[lo:hi])
        cols = (np.arange(starts[lo], starts[hi])
                - np.repeat(starts[lo:hi], counts[lo:hi]) + rows + 1)
        yield int(starts[lo]), int(starts[hi]), rows, cols
        lo = hi


def pack_upper(W: np.ndarray) -> np.ndarray:
    """Strict upper triangle of the square matrix W in packed pair order."""
    m = W.shape[0]
    out = np.empty(m * (m - 1) // 2)
    for start, stop, rows, cols in triu_blocks(m):
        out[start:stop] = W[rows, cols]
    return out


def masked_vector(grid: Grid, f) -> np.ndarray:
    """Degree-of-freedom vector of f: GridFunction or array over masked cells."""
    if isinstance(f, GridFunction):
        if f.grid is not grid and not np.array_equal(f.grid.mask_flat, grid.mask_flat):
            raise ValueError("function mask does not match the operator grid")
        return f.masked_values
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (grid.masked_count,):
        raise ValueError("vector length does not match the masked cell count")
    return f


def energy(op: DiscreteOperator, u) -> float:
    """Bilinear energy of u: sum over pairs of w (u_i - u_j)^2 plus the
    killing and lower-order diagonal terms.  Agrees with u^T A u."""
    if isinstance(u, GridFunction):
        u = masked_vector(op.grid, u)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (op.size,):
        raise ValueError("vector length does not match the operator")
    pairs = 0.0
    for start, stop, rows, cols in triu_blocks(op.size):
        d = u[rows] - u[cols]
        pairs += float(np.dot(op.weights[start:stop], d * d))
    return float(self_energy_terms(op, u) + pairs)


def self_energy_terms(op: DiscreteOperator, u: np.ndarray) -> float:
    return float(np.dot(op.kappa + op.cdiag, u * u))


def build_rhs(op: DiscreteOperator, f) -> np.ndarray:
    """Volume-weighted load vector b_i = vol_i f_i."""
    if isinstance(f, GridFunction):
        f = masked_vector(op.grid, f)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.size,):
        raise ValueError("load length does not match the operator")
    return op.volumes * f


def subcell_offsets(h: float, m: int, dim: int) -> np.ndarray:
    """Midpoints of an m^dim uniform subdivision of [-h/2, h/2]^dim."""
    axis = (np.arange(m) + 0.5) * (h / m) - h / 2.0
    if dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def near_offsets(dim: int) -> list:
    """Integer offsets with Chebyshev norm 1 or 2, lexicographically positive
    representatives first (delta > 0 in lex order), then their negatives."""
    out = []
    rng = range(-2, 3)
    if dim == 1:
        cells = [(d,) for d in rng if d != 0]
    else:
        cells = [(a, b) for a in rng for b in rng if (a, b) != (0, 0)]
    for d in cells:
        out.append(d)
    return out


def lex_positive(delta: tuple) -> bool:
    for d in delta:
        if d != 0:
            return d > 0
    return False


def refined_pair_weights(kernel: Kernel, centers: np.ndarray, rows: np.ndarray,
                         delta: tuple, h: float) -> tuple:
    """Symmetrized near-pair weights for all pairs (i, i + delta).

    centers: (count, N) cell centers of the full box, rows: flat indices of
    the source cells.  Returns (weights, depth) where weights[r] is
    (Q(C_i, C_j) + Q(C_j, C_i)) / 2 for i = rows[r], j the delta-neighbor.
    The midpoint refinements are Richardson-extrapolated; AssemblyError if
    the relative change never falls below NEAR_TOL.
    """
    dim = len(delta)
    shift = h * np.asarray(delta, dtype=np.float64)
    xi = centers[rows]
    xj = xi + shift
    cap = NEAR_CAP_1D if dim == 1 else NEAR_CAP_2D

    def level(m: int) -> np.ndarray:
        t = subcell_offsets(h, m, dim)
        radii = np.sqrt(np.sum((shift[None, :] + t) ** 2, axis=1))
        jvals = kernel.profile.evaluate(radii)
        scale = h ** dim * (h / m) ** dim
        if kernel.modulation is None:
            return np.full(rows.size, scale * float(jvals.sum()))
        # a-factor symmetrized over both cell viewpoints; t -> -t on the
        # mirrored half keeps the radius multiset identical
        out = np.empty(rows.size)
        step = max(1, NEAR_BLOCK // max(t.shape[0], 1))
        for lo in range(0, rows.size, step):
            hi = min(lo + step, rows.size)
            y_fwd = xi[lo:hi, None, :] + (shift + t)[None, :, :]
            y_bwd = xi[lo:hi, None, :] - t[None, :, :]
            if dim == 1:
                a_fwd = modulation_factor(kernel, xi[lo:hi, None, 0], y_fwd[:, :, 0])
                a_bwd = modulation_factor(kernel, xj[lo:hi, None, 0], y_bwd[:, :, 0])
            else:
                a_fwd = modulation_factor(kernel, xi[lo:hi, None, :], y_fwd)
                a_bwd = modulation_factor(kernel, xj[lo:hi, None, :], y_bwd)
            out[lo:hi] = scale * ((0.5 * (a_fwd + a_bwd)) @ jvals)
        return out

    prev_plain = level(1)
    prev_rich = None
    m = 2
    while m <= cap:
        plain = level(m)
        rich = plain + (plain - prev_plain) / 3.0
        if prev_rich is not None:
            denom = np.maximum(np.abs(rich), 1e-300)
            change = float(np.max(np.abs(rich - prev_rich) / denom))
            if change < NEAR_TOL:
                return rich, m
        prev_plain = plain
        prev_rich = rich
        m *= 2
    raise AssemblyError(
        f"near-field quadrature for cell offset {delta} did not converge "
        f"within {cap} subdivisions per axis")


def box_tail_density(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Envelope interaction density with the exterior of the box, per
    masked cell: integral of J(|x_i - y|) dy over R^N minus the box."""
    prim = tail_primitive(kernel.profile, grid.dimension)
    L = grid.half_width
    if grid.dimension == 1:
        x = grid.centers[grid.masked_indices, 0]
        return np.asarray(prim(L + x) + prim(L - x), dtype=np.float64)
    if grid.dimension == 2:
        # fold each cell onto its orbit representative under the square's
        # symmetries; the representative's flat index is a * n + b
        n = grid.n
        idx = grid.index_array[grid.masked_indices]
        folded = np.sort(np.minimum(idx, n - 1 - idx), axis=1)
        reps, inverse = np.unique(folded[:, 0] * n + folded[:, 1],
                                  return_inverse=True)
        X = grid.centers[reps]
        # polar decomposition: for each direction the ray exits the box at
        # distance min over axes of (signed face gap / direction cosine)
        theta = (np.arange(TAIL_ANGLES) + 0.5) * (2.0 * math.pi / TAIL_ANGLES)
        d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dens = np.empty(reps.size)
        step = max(1, ROW_BLOCK // TAIL_ANGLES)
        for lo in range(0, reps.size, step):
            x = X[lo:lo + step, None, :]
            gaps = np.where(d[None, :, :] > 0, L - x, -L - x)
            exit_dist = np.min(gaps / d[None, :, :], axis=2)
            dens[lo:lo + step] = prim(exit_dist).mean(axis=1) * 2.0 * math.pi
        return dens[inverse.ravel()]
    raise ValueError("full-grid assembly supports dimensions 1 and 2")


def far_offset_table(kernel: Kernel, grid: Grid) -> tuple:
    """Envelope profile at every integer index offset of the box, flattened
    over the (2n - 1)^N offsets in C order, and the mask of far offsets.
    The profile entry is zero at Chebyshev distance <= 2, where the near
    field and the self pair take over."""
    n, dim = grid.n, grid.dimension
    axis = np.arange(1 - n, n, dtype=np.int64)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")],
                       axis=1)
    far = np.max(np.abs(offsets), axis=1) > 2
    diff = grid.h * offsets[far]
    table = np.zeros(offsets.shape[0])
    table[far] = kernel.profile.evaluate(np.sqrt(np.sum(diff * diff, axis=1)))
    return table, far


def far_field(kernel: Kernel, grid: Grid) -> tuple:
    """Midpoint rule against every box cell at Chebyshev index distance > 2:
    (W, kappa) with the masked targets in the masked-cell matrix W and the
    unmasked ones summed per row into kappa.

    The weight of cells i, j is table[zero + p_i - p_j], with p the flat
    position of a cell's index in the offset table and zero that of the
    zero offset, times a(x_i, x_j) on modulated kernels and the squared
    volume.
    """
    n, dim = grid.n, grid.dimension
    table, far = far_offset_table(kernel, grid)
    scale = grid.cell_volume ** 2
    modulated = kernel.modulation is not None
    if not modulated:
        table *= scale
    strides = (2 * n - 1) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    pos = grid.index_array @ strides
    zero = (n - 1) * int(strides.sum())
    points = grid.centers[:, 0] if dim == 1 else grid.centers
    midx = grid.masked_indices
    outside = np.flatnonzero(~grid.mask_flat)

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        at = (zero + pos[rows])[:, None] - pos[cols][None, :]
        k = table[at]
        if modulated:
            ri, ci = np.nonzero(far[at])
            k[ri, ci] *= modulation_factor(kernel, points[rows[ri]], points[cols[ci]])
            k *= scale
        return k

    W = np.zeros((midx.size, midx.size))
    kappa = np.zeros(midx.size)
    step = max(1, ROW_BLOCK // grid.cell_count)
    for lo in range(0, midx.size, step):
        rows = midx[lo:lo + step]
        W[lo:lo + step] = block(rows, midx)
        if outside.size:
            kappa[lo:lo + step] = block(rows, outside).sum(axis=1)
    return W, kappa


def assemble(kernel: Kernel, grid: Grid, c: GridFunction | None = None) -> DiscreteOperator:
    """Assemble the discrete operator for the kernel on the masked cells."""
    if kernel.dimension != grid.dimension:
        raise ValueError("kernel dimension does not match the grid")
    if c is not None:
        cvals = masked_vector(grid, c)
        if cvals.size and cvals.min() < 0:
            raise ValueError("lower-order coefficient c must be nonnegative")
    else:
        cvals = np.zeros(grid.masked_count)

    t0 = time.perf_counter()
    workers = thread_count()
    dim = grid.dimension
    h = grid.h
    vol = grid.cell_volume
    centers = grid.centers
    index = grid.index_array
    maskf = grid.mask_flat
    midx = grid.masked_indices
    m = midx.size
    # masked-local position of each flat cell, -1 when unmasked
    local = np.full(grid.cell_count, -1, dtype=np.int64)
    local[midx] = np.arange(m)

    W, kappa = far_field(kernel, grid)
    t_far = time.perf_counter()

    # near field: refined symmetric quadrature per index offset; masked
    # pairs are handled once from the lex-positive side, masked-to-unmasked
    # visits are unique as ordered pairs and feed the killing term
    depths = {}
    nmax = grid.n
    strides = nmax ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    ivec = index[midx]
    for delta in near_offsets(dim):
        target = ivec + np.asarray(delta, dtype=np.int64)
        inside = np.all((target >= 0) & (target < nmax), axis=1)
        rows_local = np.flatnonzero(inside)
        if rows_local.size == 0:
            continue
        tflat = target[rows_local] @ strides
        tmasked = maskf[tflat]
        if not lex_positive(delta):
            rows_local = rows_local[~tmasked]
            if rows_local.size == 0:
                continue
            wvals, depth = refined_pair_weights(kernel, centers, midx[rows_local], delta, h)
            depths[str(delta)] = depth
            kappa[rows_local] += wvals
            continue
        wvals, depth = refined_pair_weights(kernel, centers, midx[rows_local], delta, h)
        depths[str(delta)] = depth
        sel = rows_local[tmasked]
        cols = local[tflat[tmasked]]
        W[sel, cols] = wvals[tmasked]
        W[cols, sel] = wvals[tmasked]
        kappa[rows_local[~tmasked]] += wvals[~tmasked]
    t_near = time.perf_counter()

    # analytic tail beyond the box, bracketed by the modulation band
    tail = vol * box_tail_density(kernel, grid)
    t_tail = time.perf_counter()
    tail_lo = tail
    tail_hi = kernel.Lambda * tail
    tail_mid = 0.5 * (tail_lo + tail_hi)
    kappa_inbox_median = float(np.median(kappa))
    kappa += tail_mid

    med_kappa = float(np.median(kappa))
    med_tail = float(np.median(tail_mid))
    margin_ok = med_tail <= 1e-3 * med_kappa
    if not margin_ok:
        warnings.warn(
            "box margin too small: median exterior tail exceeds 1e-3 of the "
            "median killing term; enlarge the bounding box to reduce "
            "truncation bias", stacklevel=2)

    weights = pack_upper(W)
    del W
    diag = {
        "mode": "grid",
        "dimension": dim,
        "n": grid.n,
        "half_width": grid.half_width,
        "masked_cells": int(m),
        "threads": workers,
        "near_refinement_depths": depths,
        "tail_interval_width_max": float(np.max(tail_hi - tail_lo)) if m else 0.0,
        "tail_interval_width_median": float(np.median(tail_hi - tail_lo)) if m else 0.0,
        "tail_to_kappa_median_ratio": med_tail / med_kappa if med_kappa > 0 else math.inf,
        "kappa_inbox_median": kappa_inbox_median,
        "box_margin_ok": bool(margin_ok),
        "far_seconds": t_far - t0,
        "near_seconds": t_near - t_far,
        "tail_seconds": t_tail - t_near,
        "assembly_seconds": time.perf_counter() - t0,
    }
    return DiscreteOperator(grid=grid, volumes=np.full(m, vol), weights=weights,
                            kappa=kappa, cdiag=cvals * vol,
                            tail_interval=np.stack([tail_lo, tail_hi], axis=1),
                            diagnostics=diag)


def shell_mass_from_point(profile: RadialProfile, dim: int, rho: float,
                          lo: float, hi: float) -> float:
    """Integral of J(|rho e1 - y|) over the shell lo < |y| < hi, by refined
    midpoint in the shell radius with Richardson extrapolation."""
    prev_plain = None
    prev_rich = None
    m = 2
    while m <= NEAR_CAP_1D:
        tau = lo + (np.arange(m) + 0.5) * (hi - lo) / m
        avg = angular_kernel_average(profile, dim, rho, tau)
        plain = float(np.sum(tau ** (dim - 1) * avg) * (hi - lo) / m)
        if prev_plain is not None:
            rich = plain + (plain - prev_plain) / 3.0
            if prev_rich is not None and abs(rich - prev_rich) <= NEAR_TOL * max(abs(rich), 1e-300):
                return rich
            prev_rich = rich
        prev_plain = plain
        m *= 2
    raise AssemblyError(
        f"radial near-shell quadrature did not converge for shell ({lo}, {hi})")


def assemble_radial(profile: RadialProfile, R: float, shells: int,
                    c_radial, dim: int) -> DiscreteOperator:
    """Assemble the symmetrized radial operator on uniform shells of B_R.

    c_radial gives the lower-order coefficient per shell and must be
    non-decreasing outward, as the increasing rearrangement demands.
    """
    rgrid = RadialGrid(dimension=dim, radius=R, shells=shells)
    c = np.zeros(shells) if c_radial is None else np.asarray(c_radial, dtype=np.float64)
    if c.shape != (shells,):
        raise ValueError("c_radial must supply one value per shell")
    if np.any(c < 0):
        raise ValueError("c_radial must be nonnegative")
    if np.any(np.diff(c) < -1e-12):
        raise ValueError("c_radial must be non-decreasing outward")

    t0 = time.perf_counter()
    mid = rgrid.midpoints
    vols = rgrid.volumes
    edges = rgrid.edges
    sphere = surface_area(dim)
    W = np.zeros((shells, shells))

    # far shell pairs: midpoint in both radial variables
    for k in range(shells):
        ls = np.arange(k + 3, shells)
        if ls.size:
            avg = angular_kernel_average(profile, dim, mid[k], mid[ls])
            W[k, ls] = avg * vols[k] * vols[ls] / sphere
            W[ls, k] = W[k, ls]

    # near shell pairs: point against refined radial interval, symmetrized
    for k in range(shells):
        for l in range(k + 1, min(k + 3, shells)):
            q_kl = shell_mass_from_point(profile, dim, mid[k], edges[l], edges[l + 1])
            q_lk = shell_mass_from_point(profile, dim, mid[l], edges[k], edges[k + 1])
            W[k, l] = W[l, k] = 0.5 * (vols[k] * q_kl + vols[l] * q_lk)

    kappa = np.array([vols[k] * exterior_ball_mass(profile, dim, mid[k], R)
                      for k in range(shells)])

    diag = {
        "mode": "radial",
        "dimension": dim,
        "shells": shells,
        "radius": R,
        "assembly_seconds": time.perf_counter() - t0,
    }
    return DiscreteOperator(grid=rgrid, volumes=vols, weights=pack_upper(W),
                            kappa=kappa, cdiag=c * vols,
                            tail_interval=np.stack([kappa, kappa], axis=1),
                            diagnostics=diag)


def write_operator_csv(op: DiscreteOperator, path) -> None:
    """Triplet export (i, j, w) of the strict upper triangle, using flat box
    cell ids for grid operators and shell ids for radial ones."""
    if isinstance(op.grid, Grid):
        ids = op.grid.masked_indices
    else:
        ids = np.arange(op.size)
    with open(path, "w", newline="") as fh:
        fh.write("i,j,w\n")
        for start, stop, rows, cols in triu_blocks(op.size):
            for a, b, w in zip(ids[rows], ids[cols], op.weights[start:stop]):
                fh.write(f"{a},{b},{w:.17g}\n")
