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
depends on the index offset i - j only, so the profile is evaluated once
on the (2n - 1)^N integer offsets of the box (zero at Chebyshev distance
<= 2).  Every grid operator stores that table T, times the squared volume,
and the Fourier symbol of its (2n)^N circulant embedding, so T x is one
FFT product (OffsetProduct) and rows of T are gathered on request.

Without modulation, and with a RoughCosine modulation a(|x - y|), the
whole kernel a J is translation invariant: T carries a at the offset
vectors and one near constant per offset, refined with a J, and W = T.
A SeparableCosine modulation 1 + amp g(x) g(y) gives
W = T + amp G T G + N with G = diag(g) at the masked cells and N the
sparse band of near weights, which differ from row to row: each
refinement level builds them from three sums per offset (separable_rows).
Only radial operators store a dense symmetric m x m W.  assemble refuses
any other modulation callable with a ValueError.  Outside
DiscreteOperator, W is read only through pair_rows (rows of W) and
weights_times (W x); weight_matrix and matrix are explicit
materialisations for small m.

Killing collects everything the masked cell sees outside the domain: the
same pairwise weights toward unmasked in-box cells, plus the analytic
radial tail beyond the box.  The tail knows only the envelope J, so with
modulation Lambda > 1 it is an interval [1, Lambda] * tail; the midpoint
enters kappa and the width lands in the diagnostics.  In 2-D the tail
density is evaluated once per orbit of the square's eight symmetries,
under which both the box and the midpoint angle rule are invariant.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from .env import thread_setting
from .kernels import (
    Kernel,
    RadialProfile,
    RoughCosine,
    SeparableCosine,
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
    "OffsetProduct",
    "OperatorSystem",
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
# bound on the entries of one row block of offset-table gathers or tail rays
ROW_BLOCK = 1 << 20


class AssemblyError(RuntimeError):
    pass


def thread_count() -> int:
    """LEVYSYM_THREADS, 1 when unset or blank; ValueError when invalid."""
    return thread_setting() or 1


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

    On a grid, pairs is the offset table T over the (2n - 1)^N offsets of
    the box, T_ij = T[zero + p_i - p_j] (see table_positions), and symbol
    its Fourier symbol (see OffsetProduct).  W is T, or with a separable
    modulation T + amp G T G + near, G = diag(g) over the masked cells and
    near the sparse band of weights between masked cells at Chebyshev
    index distance 1 or 2, where T is zero.  On a RadialGrid symbol is
    None and pairs is the dense symmetric m x m W.  pair_rows and
    weights_times read W in every form without building an m x m array.
    kappa and cdiag are the killing and lower-order diagonals, already
    volume-weighted.
    """

    grid: object
    volumes: np.ndarray
    pairs: np.ndarray
    kappa: np.ndarray
    cdiag: np.ndarray
    tail_interval: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    symbol: np.ndarray | None = None
    amp: float = 0.0
    g: np.ndarray | None = None
    near: sparse.csr_matrix | None = None

    def __post_init__(self):
        m = self.size
        if self.symbol is None and self.pairs.shape != (m, m):
            raise ValueError("dense pair weights must be an m x m matrix")
        for name in ("kappa", "cdiag"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have one entry per masked cell")
        if self.near is not None and (self.near.shape != (m, m) or self.g.shape != (m,)):
            raise ValueError("the near band and g must match the masked cells")
        if (np.any(self.pairs < 0) or np.any(self.kappa < 0) or np.any(self.cdiag < 0)
                or (self.near is not None and np.any(self.near.data < 0))):
            raise ValueError("weights, kappa and cdiag must be nonnegative")

    @property
    def size(self) -> int:
        return self.volumes.size

    def pair_rows(self, rows) -> np.ndarray:
        """W[rows] for a slice or index array of masked cells: a slice of
        the dense W, or gathered from the offset table (times
        1 + amp g_i g_j, plus the near band, when modulated)."""
        if self.symbol is None:
            return self.pairs[rows]
        midx = self.grid.masked_indices
        W = self.pairs[table_positions(self.grid, midx[rows], midx)]
        if self.near is not None:
            # W + amp g_i g_j W, then the band, with one temporary block
            scaled = W * self.g
            scaled *= self.amp * self.g[rows][:, None]
            W += scaled
            band = self.near[rows].tocoo()
            W[band.row, band.col] += band.data
        return W

    @cached_property
    def table_product(self) -> "OffsetProduct":
        """The FFT product with the offset table, built once per operator."""
        return OffsetProduct(self.symbol, self.grid)

    def weights_times(self, x: np.ndarray) -> np.ndarray:
        """W x: a dense product, or one FFT product through the symbol
        (three terms when modulated: T x + amp g T(g x) + N x)."""
        if self.symbol is None:
            return self.pairs @ x
        y = self.table_product(x)
        if self.near is not None:
            y += self.amp * self.g * self.table_product(self.g * x)
            y += self.near @ x
        return y

    @property
    def weight_matrix(self) -> np.ndarray:
        """The dense m x m W: the stored one, or for a table operator
        gathered in row blocks on first use and cached under this name."""
        if self.symbol is None:
            return self.pairs
        if "weight_matrix" not in self.__dict__:
            W = np.empty((self.size, self.size))
            step = max(1, ROW_BLOCK // self.size)
            for lo in range(0, self.size, step):
                W[lo:lo + step] = self.pair_rows(slice(lo, lo + step))
            self.__dict__["weight_matrix"] = W
        return self.__dict__["weight_matrix"]

    @property
    def weights(self) -> np.ndarray:
        """Strict upper triangle of weight_matrix in np.triu_indices order."""
        return self.weight_matrix[np.triu_indices(self.size, 1)]

    @cached_property
    def matrix(self) -> np.ndarray:
        A = np.negative(self.weight_matrix)
        d = self.weight_matrix.sum(axis=1) + self.kappa + self.cdiag
        np.fill_diagonal(A, d)
        return A

    @cached_property
    def degree(self) -> np.ndarray:
        """Row sums of W."""
        return self.weights_times(np.ones(self.size))

    def system(self, mass: np.ndarray | None = None) -> "OperatorSystem":
        """The matrix A + diag(mass) in the form pcg takes."""
        cdiag = self.cdiag if mass is None else self.cdiag + mass
        return OperatorSystem(self, self.degree + self.kappa + cdiag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.system() @ x

    def with_cdiag(self, cdiag: np.ndarray) -> "DiscreteOperator":
        """Same interaction weights with a replaced lower-order diagonal."""
        return replace(self, cdiag=np.asarray(cdiag, dtype=np.float64))


class OperatorSystem:
    """diag - W for an operator's weights W, with the shape, diagonal() and
    @ that pcg uses; W x goes through the operator's weights_times."""

    def __init__(self, op: DiscreteOperator, diag: np.ndarray):
        self.op = op
        self.diag = diag
        self.shape = (op.size, op.size)

    def diagonal(self) -> np.ndarray:
        return self.diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.diag * x - self.op.weights_times(x)


class OffsetProduct:
    """T x over the masked cells of a grid, for weights T[p_i - p_j] that
    depend on the index offset only.

    Scatters x into a zero (2n)^N box, multiplies its rfftn by the symbol
    of the circulant embedding of T and gathers the masked cells of the
    irfftn back.  The box is twice the grid per axis, so no offset between
    two cells wraps around.
    """

    def __init__(self, symbol: np.ndarray, grid: Grid):
        n, dim = grid.n, grid.dimension
        self.strides = (2 * n) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self.index = grid.index_array
        self.symbol = symbol
        self.box = (2 * n,) * dim
        self.axes = tuple(range(dim))
        self.cells = self.index[grid.masked_indices] @ self.strides

    def __call__(self, x, sources: np.ndarray | None = None) -> np.ndarray:
        """T x on the masked cells; with sources (flat box cell ids) x sits on
        those cells instead: the weights toward them times x."""
        box = np.zeros(self.box)
        at = self.cells if sources is None else self.index[sources] @ self.strides
        box.reshape(-1)[at] = x
        y = np.fft.irfftn(self.symbol * np.fft.rfftn(box, axes=self.axes),
                          s=self.box, axes=self.axes)
        return y.reshape(-1)[self.cells]


def circulant_symbol(table: np.ndarray, n: int, dim: int) -> np.ndarray:
    """rfftn of the (2n)^N circulant embedding of an offset table over
    (2n - 1)^N offsets in C order.  The table is even, so the transform is
    real and only its real part is kept."""
    emb = np.zeros((2 * n,) * dim)
    emb[(slice(0, 2 * n - 1),) * dim] = table.reshape((2 * n - 1,) * dim)
    axes = tuple(range(dim))
    emb = np.roll(emb, (1 - n,) * dim, axis=axes)
    return np.fft.rfftn(emb, axes=axes).real


def table_positions(grid: Grid, rows, cols) -> np.ndarray:
    """Offset-table positions zero + p_i - p_j of the box cells i in rows
    against j in cols, one row per i: p is the C-order position of a cell's
    index in the (2n - 1)^N offset table, zero that of the zero offset."""
    n, dim = grid.n, grid.dimension
    strides = (2 * n - 1) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    zero = (n - 1) * int(strides.sum())
    index = grid.index_array
    return (zero + index[rows] @ strides)[:, None] - (index[cols] @ strides)[None, :]


def masked_vector(grid, f) -> np.ndarray:
    """Degree-of-freedom vector of f over an operator grid: a GridFunction
    on the same mask, or an array with one entry per masked cell (per shell
    on a RadialGrid)."""
    if isinstance(f, GridFunction):
        if f.grid is not grid and not (isinstance(grid, Grid) and
                                       np.array_equal(f.grid.mask_flat, grid.mask_flat)):
            raise ValueError("function mask does not match the operator grid")
        return f.masked_values
    f = np.asarray(f, dtype=np.float64)
    size = grid.masked_count if isinstance(grid, Grid) else grid.shells
    if f.shape != (size,):
        raise ValueError("vector length does not match the operator")
    return f


def energy(op: DiscreteOperator, u) -> float:
    """Bilinear energy u^T A u: the sum over pairs of w (u_i - u_j)^2 plus
    the killing and lower-order diagonal terms, by one product with the
    operator's system."""
    u = masked_vector(op.grid, u)
    return float(u @ (op.system() @ u))


def build_rhs(op: DiscreteOperator, f) -> np.ndarray:
    """Volume-weighted load vector b_i = vol_i f_i."""
    return op.volumes * masked_vector(op.grid, f)


def subcell_offsets(h: float, m: int, dim: int) -> np.ndarray:
    """Midpoints of an m^dim uniform subdivision of [-h/2, h/2]^dim."""
    axis = (np.arange(m) + 0.5) * (h / m) - h / 2.0
    if dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def near_offsets(dim: int) -> list:
    """Nonzero integer offsets with Chebyshev norm at most 2, in
    lexicographic order."""
    return [d for d in itertools.product(range(-2, 3), repeat=dim) if any(d)]


def lex_positive(delta: tuple) -> bool:
    for d in delta:
        if d != 0:
            return d > 0
    return False


def offset_modulation(kernel: Kernel, v: np.ndarray) -> np.ndarray:
    """a(0, v) for each offset vector v (a row of v), through the band
    check of modulation_factor.  For a modulation of |x - y| alone this is
    its value at every pair of points v apart."""
    y = v[:, 0] if v.shape[1] == 1 else v
    return modulation_factor(kernel, np.zeros_like(y), y)


def separable_rows(mod: SeparableCosine, xi: np.ndarray, xj: np.ndarray,
                   c0: float, C: float, S: float) -> np.ndarray:
    """Sum over the subcell points v of (a(x_i, x_i + v) + a(x_j, x_j - v))
    J(|v|) / 2 per row, from c0 = sum J, C = sum cos(omega s_v) J and
    S = sum sin(omega s_v) J, s the coordinate sum.  Exact, since
    g(x + v) = (1 + cos(omega s_x) cos(omega s_v) - sin(omega s_x)
    sin(omega s_v)) / 2."""
    pi, pj = mod.omega * xi.sum(axis=1), mod.omega * xj.sum(axis=1)
    ci, cj = np.cos(pi), np.cos(pj)
    gi, gj = 0.5 * (1.0 + ci), 0.5 * (1.0 + cj)
    return c0 + 0.25 * mod.amp * (gi * (c0 + ci * C - np.sin(pi) * S)
                                  + gj * (c0 + cj * C + np.sin(pj) * S))


def refined_pair_weights(kernel: Kernel, centers: np.ndarray, rows: np.ndarray,
                         delta: tuple, h: float) -> tuple:
    """Symmetrized near-pair weights for all pairs (i, i + delta).

    centers: (count, N) cell centers of the full box, rows: flat indices of
    the source cells.  Returns (weights, depth) where weights[r] is
    (Q(C_i, C_j) + Q(C_j, C_i)) / 2 for i = rows[r], j the delta-neighbor.
    Each midpoint level sums over the subcell points v = h delta + t: one
    constant for every row unless the modulation is separable, whose
    per-row values come from three per-offset sums (separable_rows) and
    must lie in [1, Lambda] times the unmodulated sum.  The levels are
    Richardson-extrapolated; AssemblyError if the relative change never
    falls below NEAR_TOL.
    """
    dim = len(delta)
    shift = h * np.asarray(delta, dtype=np.float64)
    mod = kernel.modulation
    xi = centers[rows]
    cap = NEAR_CAP_1D if dim == 1 else NEAR_CAP_2D

    def level(m: int) -> np.ndarray:
        v = shift[None, :] + subcell_offsets(h, m, dim)
        jvals = kernel.profile.evaluate(np.sqrt(np.sum(v ** 2, axis=1)))
        scale = h ** dim * (h / m) ** dim
        if not isinstance(mod, SeparableCosine):
            # with a(|x - y|) both cell viewpoints see the same radii
            aj = jvals if mod is None else offset_modulation(kernel, v) * jvals
            return np.full(rows.size, scale * float(aj.sum()))
        phase = mod.omega * v.sum(axis=1)
        c0 = float(jvals.sum())
        out = scale * separable_rows(mod, xi, xi + shift, c0,
                                     float(np.cos(phase) @ jvals),
                                     float(np.sin(phase) @ jvals))
        lo = scale * c0
        if np.any(out < lo * (1.0 - 1e-12)) or np.any(out > kernel.Lambda * lo * (1.0 + 1e-12)):
            raise ValueError("modulation leaves the certified band [1, Lambda]")
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


def far_offset_table(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Profile at every integer index offset of the box, flattened over the
    (2n - 1)^N offsets in C order.  A RoughCosine factor a(|x - y|) is
    multiplied in; any other modulation is left to the caller.  The entry
    is zero at Chebyshev distance <= 2, where the near field and the self
    pair take over."""
    n, dim = grid.n, grid.dimension
    axis = np.arange(1 - n, n, dtype=np.int64)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")],
                       axis=1)
    far = np.max(np.abs(offsets), axis=1) > 2
    diff = grid.h * offsets[far]
    table = np.zeros(offsets.shape[0])
    table[far] = kernel.profile.evaluate(np.sqrt(np.sum(diff * diff, axis=1)))
    if isinstance(kernel.modulation, RoughCosine):
        table[far] *= offset_modulation(kernel, diff)
    return table


def near_field(kernel: Kernel, grid: Grid, kappa: np.ndarray) -> tuple:
    """Refined near weights of a separable kernel, from the lex-positive
    side toward masked cells and into kappa toward unmasked ones.  Returns
    (N, depth per offset), N the symmetric band as a sparse m x m matrix."""
    midx = grid.masked_indices
    # masked-local position of each flat cell, -1 when unmasked
    local = np.full(grid.cell_count, -1, dtype=np.int64)
    local[midx] = np.arange(midx.size)
    strides = grid.n ** np.arange(grid.dimension - 1, -1, -1, dtype=np.int64)
    ivec = grid.index_array[midx]
    depths = {}
    band = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    for delta in near_offsets(grid.dimension):
        target = ivec + np.asarray(delta, dtype=np.int64)
        rows = np.flatnonzero(np.all((target >= 0) & (target < grid.n), axis=1))
        tflat = target[rows] @ strides
        tmasked = grid.mask_flat[tflat]
        if not lex_positive(delta):
            rows, tflat, tmasked = rows[~tmasked], tflat[~tmasked], tmasked[~tmasked]
        if rows.size == 0:
            continue
        wvals, depths[str(delta)] = refined_pair_weights(
            kernel, grid.centers, midx[rows], delta, grid.h)
        sel, cols = rows[tmasked], local[tflat[tmasked]]
        band += [(sel, cols, wvals[tmasked]), (cols, sel, wvals[tmasked])]
        kappa[rows[~tmasked]] += wvals[~tmasked]
    i, j, w = (np.concatenate(part) for part in zip(*band))
    return sparse.csr_matrix((w, (i, j)), shape=(midx.size, midx.size)), depths


def assemble(kernel: Kernel, grid: Grid, c: GridFunction | None = None) -> DiscreteOperator:
    """Assemble the discrete operator for the kernel on the masked cells.

    The modulation must be None, a RoughCosine or a SeparableCosine (what
    make_modulation returns); any other callable raises ValueError, since
    the near field is built from the modulation's structure.
    """
    if kernel.dimension != grid.dimension:
        raise ValueError("kernel dimension does not match the grid")
    if not isinstance(kernel.modulation, (type(None), RoughCosine, SeparableCosine)):
        raise ValueError("assemble takes a modulation from make_modulation "
                         "(RoughCosine or SeparableCosine), not an arbitrary callable")
    if c is not None:
        cvals = masked_vector(grid, c)
        if cvals.size and cvals.min() < 0:
            raise ValueError("lower-order coefficient c must be nonnegative")
    else:
        cvals = np.zeros(grid.masked_count)

    t0 = time.perf_counter()
    workers = thread_count()
    dim, n, vol, m = grid.dimension, grid.n, grid.cell_volume, grid.masked_count
    mod = kernel.modulation
    separable = isinstance(mod, SeparableCosine)
    pairs = far_offset_table(kernel, grid) * vol ** 2
    t_far = time.perf_counter()
    depths = {}
    if not separable:
        # one near constant per lex-positive offset that fits in the table,
        # written at +delta and -delta; the source cell is immaterial
        table = pairs.reshape((2 * n - 1,) * dim)
        for delta in near_offsets(dim):
            if lex_positive(delta) and max(map(abs, delta)) < n:
                wvals, depths[str(delta)] = refined_pair_weights(
                    kernel, grid.centers, np.zeros(1, dtype=np.int64), delta, grid.h)
                d = np.asarray(delta)
                table[tuple(n - 1 + d)] = table[tuple(n - 1 - d)] = wvals[0]
    symbol = circulant_symbol(pairs, n, dim)
    product = OffsetProduct(symbol, grid)
    # killing toward the unmasked box cells: FFT products with their
    # indicator, clipped since rounding may take a zero sum below zero
    outside = np.flatnonzero(~grid.mask_flat)
    kappa = product(1.0, outside)
    g = near = None
    if separable:
        points = grid.centers[:, 0] if dim == 1 else grid.centers
        gbox = mod.g(points)
        # a(x_i, .) is affine in g, so the box cells of smallest and largest
        # g bound a over every pair
        extremes = points[[np.argmin(gbox), np.argmax(gbox)]]
        modulation_factor(kernel, points[grid.masked_indices][:, None], extremes[None])
        g = gbox[grid.masked_indices]
        kappa += mod.amp * g * product(gbox[outside], outside)
    kappa = np.maximum(kappa, 0.0)
    if separable:
        near, depths = near_field(kernel, grid, kappa)
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
    med_width = float(np.median(tail_hi - tail_lo))
    margin_ok = med_width <= 1e-3 * med_kappa
    if not margin_ok:
        warnings.warn(
            "box margin too small: the median width of the exterior tail "
            "interval exceeds 1e-3 of the median killing term; enlarge the "
            "bounding box to narrow the truncation uncertainty", stacklevel=2)

    diag = {
        "mode": "grid",
        "dimension": dim,
        "n": n,
        "half_width": grid.half_width,
        "masked_cells": int(m),
        "threads": workers,
        "near_refinement_depths": depths,
        "tail_interval_width_max": float(np.max(tail_hi - tail_lo)),
        "tail_interval_width_median": med_width,
        "tail_to_kappa_median_ratio": med_tail / med_kappa if med_kappa > 0 else math.inf,
        "kappa_inbox_median": kappa_inbox_median,
        "box_margin_ok": bool(margin_ok),
        "matvec": "fft",
        "far_seconds": t_far - t0,
        "near_seconds": t_near - t_far,
        "tail_seconds": t_tail - t_near,
        "assembly_seconds": time.perf_counter() - t0,
    }
    return DiscreteOperator(grid=grid, volumes=np.full(m, vol), pairs=pairs,
                            kappa=kappa, cdiag=cvals * vol,
                            tail_interval=np.stack([tail_lo, tail_hi], axis=1),
                            diagnostics=diag, symbol=symbol,
                            amp=mod.amp if separable else 0.0, g=g, near=near)


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
        "matvec": "dense",
        "assembly_seconds": time.perf_counter() - t0,
    }
    return DiscreteOperator(grid=rgrid, volumes=vols, pairs=W,
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
    W = op.weight_matrix
    with open(path, "w", newline="") as fh:
        fh.write("i,j,w\n")
        for i in range(op.size - 1):
            for b, w in zip(ids[i + 1:], W[i, i + 1:]):
                fh.write(f"{ids[i]},{b},{w:.17g}\n")
