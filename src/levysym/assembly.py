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
FFT product (OffsetProduct: rfftn's and irfftn's one-axis passes called
directly, an rfft and an irfft alone in 1-D) and rows of T are gathered
on request.

Without modulation, and with a RoughCosine modulation a(|x - y|), the
whole kernel a J is translation invariant: T carries a at the offset
vectors and one near constant per offset, refined with a J, and W = T.
A SeparableCosine modulation 1 + amp g(x) g(y) gives
W = T + amp G T G + N with G = diag(g) at the masked cells and N the
band of near weights, which differ from row to row: each refinement
level builds them from three sums per offset (separable_rows) and the
rows' phase terms, computed once per offset.  N is stored as two (K, m)
arrays, one slot per near offset (see DiscreteOperator), so assembly
needs numpy alone; scipy serves only the exponential and logarithmic
profile kinds (see kernels).  assemble refuses any other modulation
callable with a ValueError.  Outside DiscreteOperator, W is read only
through pair_rows (rows of W) and weights_times (W x); weight_matrix and
matrix are explicit materialisations for small m.

The near sums of a level (c0 = sum J over its subcell points, and C and
S for a separable kernel) do not depend on the row either: each assemble
keeps them in one NearSums table, keyed by the lex-positive offset and
the level, from which the offset -delta reads (c0, C, -S).  A
rough_cosine kernel sums a J instead and keeps its own sums.

Killing collects everything the masked cell sees outside the domain: the
same pairwise weights toward unmasked in-box cells, plus the analytic
radial tail beyond the box.  The tail knows only the envelope J, so with
modulation Lambda > 1 it is an interval [1, Lambda] * tail; the midpoint
enters kappa and the width lands in the diagnostics.  In 2-D the tail
density is evaluated once per orbit of the square's eight symmetries,
under which both the box and the midpoint angle rule are invariant: a ray
leaves the box at the smaller of its two per-axis face distances, each
built as one (representatives, TAIL_ANGLES) array per block, and the
profile's kernels.radial_primitive(..., tail=True) is averaged over the
rays.  A block holds ROW_BLOCK / 8 rays (16 representatives), so the
about seven arrays it has live at once fit in one row block; a
representative's density is the mean of its own row, whatever the block.

What does not depend on the mask is the operator's BoxKernel: the table
with its near constants, the symbol, the near sums, and the tail density
per orbit representative.  assemble(..., shared=other.box_kernel) takes
the table, symbol and near constants when shares_table holds (an
analytic profile and its rearrangement, which rearrange_profile returns
as is), and the tail wherever the masks share representatives and the
profile is the same object; the rest is built, so the operator is
bit-identical to a standalone one.  Tabulated, rough_cosine and
separable_cosine originals leave the symmetrized operator its own table;
behind a separable_cosine original with the same profile object its near
constants read c0 from the original's near sums.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .env import thread_setting
from .kernels import (
    Kernel,
    RoughCosine,
    SeparableCosine,
    modulation_factor,
    radial_primitive,
)
from .rearrange import Grid, GridFunction

__all__ = [
    "AssemblyError",
    "DiscreteOperator",
    "OffsetProduct",
    "OperatorSystem",
    "assemble",
    "build_rhs",
    "energy",
]

NEAR_TOL = 1e-6
NEAR_CAP_1D = 1024
NEAR_CAP_2D = 256
TAIL_ANGLES = 2048
# bound on the entries of one row block of offset-table gathers; the 2-D
# tail takes an eighth of it per block of rays
ROW_BLOCK = 1 << 18


class AssemblyError(RuntimeError):
    pass


def thread_count() -> int:
    """LEVYSYM_THREADS, 1 when unset or blank; ValueError when invalid."""
    return thread_setting() or 1


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric nonlocal stiffness operator over the masked cells of a grid.

    pairs is the offset table T over the (2n - 1)^N offsets of the box,
    T_ij = T[zero + p_i - p_j] (see table_positions), and symbol its
    Fourier symbol (see OffsetProduct).  W is T, or with a separable
    modulation T + amp G T G + N, G = diag(g) over the masked cells and
    N the band of weights between masked cells at Chebyshev index
    distance 1 or 2, where T is zero.  near_field stores N as two (K, m)
    arrays, K = len(near_offsets): near[k, i] is the weight between cell
    i and its neighbour at the k-th offset, near_cols[k, i] that
    neighbour's masked-local index, so slot K - 1 - k holds the opposite
    offset; a slot without a masked neighbour holds column m and weight
    0.  Both are None without that modulation.  pair_rows and
    weights_times read W in both forms without building an m x m array.
    kappa and cdiag are the killing and lower-order diagonals, already
    volume-weighted.  box_kernel is the mask-free part assemble built or
    shared (None for an operator built by hand).
    """

    grid: Grid
    volumes: np.ndarray
    pairs: np.ndarray
    kappa: np.ndarray
    cdiag: np.ndarray
    tail_interval: np.ndarray
    symbol: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    amp: float = 0.0
    g: np.ndarray | None = None
    near: np.ndarray | None = None
    near_cols: np.ndarray | None = None
    box_kernel: BoxKernel | None = None

    def __post_init__(self):
        m = self.size
        for name in ("kappa", "cdiag"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have one entry per masked cell")
        if self.near is not None:
            band = (len(near_offsets(self.grid.dimension)), m)
            if (self.near.shape != band or self.near_cols.shape != band
                    or self.g.shape != (m,)):
                raise ValueError("the near band and g must match the masked cells")
            if np.any(self.near[self.near_cols == m] != 0):
                raise ValueError("a padded slot of the near band must hold weight 0")
        if (np.any(self.pairs < 0) or np.any(self.kappa < 0) or np.any(self.cdiag < 0)
                or (self.near is not None and np.any(self.near < 0))):
            raise ValueError("weights, kappa and cdiag must be nonnegative")

    @property
    def size(self) -> int:
        return self.volumes.size

    def pair_rows(self, rows, cols=None) -> np.ndarray:
        """W[rows] for a slice or index array of masked cells, restricted to
        the distinct masked cells cols (an index array) when given,
        gathered from the offset table (times 1 + amp g_i g_j, plus the
        near band, when modulated)."""
        cols = slice(None) if cols is None else cols
        midx = self.grid.masked_indices
        W = self.pairs[table_positions(self.grid, midx[rows], midx[cols])]
        if self.near is not None:
            # W + amp g_i g_j W, then the band, with one temporary block
            scaled = W * self.g[cols]
            scaled *= self.amp * self.g[rows][:, None]
            W += scaled
            # position of each masked cell among cols, -1 elsewhere and for
            # the padding column m
            at = np.full(self.size + 1, -1, dtype=np.int64)
            at[np.arange(self.size)[cols]] = np.arange(W.shape[1])
            r = np.arange(self.size)[rows]
            c = at[self.near_cols[:, r]]
            k, i = np.nonzero(c >= 0)
            W[i, c[k, i]] += self.near[k, r[i]]
        return W

    @cached_property
    def table_product(self) -> "OffsetProduct":
        """The FFT product with the offset table, built once per operator."""
        return OffsetProduct(self.symbol, self.grid)

    def weights_times(self, x: np.ndarray) -> np.ndarray:
        """W x: one FFT product through the symbol (three terms when
        modulated: T x + amp g T(g x) + N x).  N x sums the band's slots in
        offset order, which is the order of the neighbours' masked-local
        indices, gathered in blocks of at most ROW_BLOCK entries."""
        y = self.table_product(x)
        if self.near is not None:
            y += self.amp * self.g * self.table_product(self.g * x)
            padded = np.zeros(self.size + 1)
            padded[:-1] = x
            step = max(1, ROW_BLOCK // self.near.shape[0])
            for lo in range(0, self.size, step):
                block = padded[self.near_cols[:, lo:lo + step]]
                block *= self.near[:, lo:lo + step]
                y[lo:lo + step] += block.sum(axis=0)
        return y

    @property
    def weight_matrix(self) -> np.ndarray:
        """The dense m x m W, gathered in row blocks on first use and
        cached under this name."""
        if "weight_matrix" not in self.__dict__:
            W = np.empty((self.size, self.size))
            step = max(1, ROW_BLOCK // self.size)
            for lo in range(0, self.size, step):
                W[lo:lo + step] = self.pair_rows(slice(lo, lo + step))
            self.__dict__["weight_matrix"] = W
        return self.__dict__["weight_matrix"]

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
        return OperatorSystem(self, self.degree + self.kappa + cdiag,
                              shifted=mass is not None)

    def with_cdiag(self, cdiag: np.ndarray) -> "DiscreteOperator":
        """Same interaction weights with a replaced lower-order diagonal."""
        return replace(self, cdiag=np.asarray(cdiag, dtype=np.float64))


class BoxKernel(NamedTuple):
    """The part of an operator that does not depend on its mask: the
    offset table with the near constants written in (none for a separable
    kernel, whose near band is per mask), their refinement depths, the
    table's symbol, the exterior tail density at the orbit
    representatives (see tail_orbits) of the mask it was built for, and
    the near sums of its assembly.  The table and symbol are read-only,
    so operators may share them."""

    kernel: Kernel
    dimension: int
    n: int
    half_width: float
    pairs: np.ndarray
    symbol: np.ndarray
    depths: dict
    tail_reps: np.ndarray
    tail_dens: np.ndarray
    near_sums: NearSums

    def fits(self, grid: Grid) -> bool:
        """Whether grid has this box: the same dimension, n and L."""
        return (grid.dimension, grid.n, grid.half_width) == (
            self.dimension, self.n, self.half_width)

    def tail_at(self, kernel: Kernel, grid: Grid, reps: np.ndarray) -> np.ndarray:
        """Tail densities at the sorted representatives reps: the stored
        ones where this box kernel has them, box_tail_density's for the
        rest.  A representative's density is the same either way."""
        pos = np.minimum(np.searchsorted(self.tail_reps, reps), self.tail_reps.size - 1)
        have = self.tail_reps[pos] == reps
        dens = np.empty(reps.size)
        dens[have] = self.tail_dens[pos[have]]
        dens[~have] = box_tail_density(kernel, grid, reps[~have])
        return dens


class OperatorSystem:
    """diag - W for an operator's weights W, with the shape, diagonal(), @
    and precondition that pcg uses; W x goes through the operator's
    weights_times.  shifted marks a system with a mass added to the
    operator's own diagonal."""

    def __init__(self, op: DiscreteOperator, diag: np.ndarray, shifted: bool = False):
        self.op = op
        self.diag = diag
        self.shape = (op.size, op.size)
        self.shifted = shifted

    def diagonal(self) -> np.ndarray:
        return self.diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.diag * x - self.op.weights_times(x)

    @cached_property
    def precondition(self):
        """r -> M^-1 r = S^-1 C^-1 S^-1 r, C the circulant with the symbol
        d - sigma, d the median of the diagonal D and sigma the table's
        symbol, and S = (D / d)^(1/2): one OffsetProduct with the symbol
        1 / (d - sigma) between two scalings.  None, for Jacobi, when the
        system is shifted, has a near band or d - sigma is not positive at
        every frequency (see solvers)."""
        if self.shifted or self.op.near is not None:
            return None
        dbar = median(self.diag)
        gap = dbar - self.op.symbol
        if not gap.min() > 0.0:
            return None
        product = OffsetProduct(np.reciprocal(gap, out=gap), self.op.grid)
        unscale = np.sqrt(dbar / self.diag)

        def apply(r):
            z = product(unscale * r)
            z *= unscale
            return z

        return apply

    @property
    def preconditioner(self) -> str:
        """The name of the preconditioner pcg applies: circulant or jacobi."""
        return "jacobi" if self.precondition is None else "circulant"


class OffsetProduct:
    """T x over the masked cells of a grid, for weights T[p_i - p_j] that
    depend on the index offset only.

    Scatters x into a zero (2n)^N box, multiplies its transform by the
    symbol of the circulant embedding of T and gathers the masked cells of
    the inverse back.  The box is twice the grid per axis, so no offset
    between two cells wraps around.  The transforms are rfftn's and
    irfftn's own one-axis passes, in their order, called directly: an rfft
    on the last axis and fft on the others (an rfft alone in 1-D), and back.
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
        spec = np.fft.rfft(box)
        for axis in reversed(self.axes[:-1]):
            spec = np.fft.fft(spec, axis=axis)
        spec *= self.symbol
        for axis in self.axes[:-1]:
            spec = np.fft.ifft(spec, axis=axis)
        return np.fft.irfft(spec, self.box[-1]).reshape(-1)[self.cells]


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


def masked_vector(grid: Grid, f) -> np.ndarray:
    """Degree-of-freedom vector of f over an operator grid: a GridFunction
    on the same mask, or an array with one entry per masked cell."""
    if isinstance(f, GridFunction):
        if f.grid is not grid and not np.array_equal(f.grid.mask_flat, grid.mask_flat):
            raise ValueError("function mask does not match the operator grid")
        return f.masked_values
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (grid.masked_count,):
        raise ValueError("vector length does not match the operator")
    return f


def energy(op: DiscreteOperator, u, mass: np.ndarray | None = None) -> float:
    """Bilinear energy u^T (A + diag(mass)) u: the sum over pairs of
    w (u_i - u_j)^2 plus the killing and lower-order diagonal terms, by one
    product with the operator's system."""
    u = masked_vector(op.grid, u)
    return float(u @ (op.system(mass) @ u))


def build_rhs(op: DiscreteOperator, f) -> np.ndarray:
    """Volume-weighted load vector b_i = vol_i f_i."""
    return op.volumes * masked_vector(op.grid, f)


def subcell_axes(shift: np.ndarray, h: float, m: int) -> list:
    """Per-axis coordinates of the points shift + t, t the midpoints of an
    m^dim uniform subdivision of [-h/2, h/2]^dim: the points are the
    C-order product of these axes (see axis_sum)."""
    axis = (np.arange(m) + 0.5) * (h / m) - h / 2.0
    return [s + axis for s in shift]


def axis_sum(parts: list) -> np.ndarray:
    """One value per axis, summed at every point of the C-order product of
    the axes (the first axis slowest), as a flat array."""
    out = parts[0]
    for part in parts[1:]:
        out = np.add.outer(out, part).ravel()
    return out


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


class NearSums:
    """The near-field level sums of one assembly, for one profile at one
    cell width h.

    levels maps (lex-positive offset delta, m) to the sums over the m^dim
    subcell points v = h delta + t of level m: (c0,), c0 = sum J(|v|), or
    with omega (a SeparableCosine kernel's) (c0, C, S), C = sum
    cos(omega s_v) J and S = sum sin(omega s_v) J, s the coordinate sum.
    The offset -delta reads (c0, C, -S), since t -> -t maps its points
    onto those of delta.  base is an earlier operator's table of the same
    profile and h, read where it holds a level.  computed, reused and
    points count the levels summed here, those read from a table, and the
    profile points evaluated for them; a rough_cosine kernel's sums of
    a J are counted but not kept."""

    def __init__(self, kernel: Kernel, h: float, base: NearSums | None = None):
        """An empty table for kernel, reading base where base serves it."""
        mod = kernel.modulation
        self.profile, self.h = kernel.profile, h
        self.omega = mod.omega if isinstance(mod, SeparableCosine) else None
        self.base = base if base is not None and base.serves(kernel, h) else None
        self.levels = {}
        self.computed = self.reused = self.points = 0

    def serves(self, kernel: Kernel, h: float) -> bool:
        """Whether kernel may read these sums at cell width h: the same
        profile object and h, and C and S at its omega if it is separable."""
        mod = kernel.modulation
        return (kernel.profile is self.profile and h == self.h
                and (not isinstance(mod, SeparableCosine) or mod.omega == self.omega))

    def profile_on(self, shift: np.ndarray, m: int) -> tuple:
        """(per-axis coordinates, J(|v|)) at the points v of level m."""
        coords = subcell_axes(shift, self.h, m)
        self.computed += 1
        self.points += m ** len(coords)
        return coords, self.profile.evaluate(np.sqrt(axis_sum([c ** 2 for c in coords])))

    def level(self, delta: tuple, m: int) -> tuple:
        """The sums of level m at delta: kept here or in base, else summed
        and kept under the lex-positive offset."""
        key = delta if lex_positive(delta) else tuple(-d for d in delta)
        sums = self.levels.get((key, m))
        if sums is None and self.base is not None:
            sums = self.base.levels.get((key, m))
        if sums is None:
            coords, jvals = self.profile_on(self.h * np.asarray(key, dtype=np.float64), m)
            sums = (float(jvals.sum()),)
            if self.omega is not None:
                phase = self.omega * axis_sum(coords)
                sums += (float(np.cos(phase) @ jvals), float(np.sin(phase) @ jvals))
            self.levels[key, m] = sums
        else:
            self.reused += 1
        if key != delta and len(sums) == 3:
            sums = (sums[0], sums[1], -sums[2])
        return sums

    def rough(self, kernel: Kernel, delta: tuple, m: int) -> float:
        """sum a(0, v) J(|v|) over the points of level m, for a RoughCosine
        kernel; not kept."""
        coords, jvals = self.profile_on(self.h * np.asarray(delta, dtype=np.float64), m)
        v = np.stack([g.ravel() for g in np.meshgrid(*coords, indexing="ij")], axis=1)
        return float((offset_modulation(kernel, v) * jvals).sum())


def row_phases(omega: float, x: np.ndarray) -> tuple:
    """(cos, sin, g) of omega s at the points x (rows), s the coordinate
    sum and g = (1 + cos) / 2: the row terms of separable_rows."""
    p = omega * x.sum(axis=1)
    c = np.cos(p)
    return c, np.sin(p), 0.5 * (1.0 + c)


def separable_rows(mod: SeparableCosine, at_i: tuple, at_j: tuple,
                   c0: float, C: float, S: float) -> np.ndarray:
    """Sum over the subcell points v of (a(x_i, x_i + v) + a(x_j, x_j - v))
    J(|v|) / 2 per row, from the row_phases at x_i and x_j, c0 = sum J,
    C = sum cos(omega s_v) J and S = sum sin(omega s_v) J, s the
    coordinate sum.  Exact, since g(x + v) = (1 + cos(omega s_x)
    cos(omega s_v) - sin(omega s_x) sin(omega s_v)) / 2."""
    (ci, si, gi), (cj, sj, gj) = at_i, at_j
    return c0 + 0.25 * mod.amp * (gi * (c0 + ci * C - si * S)
                                  + gj * (c0 + cj * C + sj * S))


def refined_pair_weights(kernel: Kernel, centers: np.ndarray, rows: np.ndarray,
                         delta: tuple, h: float, sums: NearSums | None = None) -> tuple:
    """Symmetrized near-pair weights for all pairs (i, i + delta).

    centers: (count, N) cell centers of the full box, rows: flat indices of
    the source cells.  Returns (weights, depth) where weights[r] is
    (Q(C_i, C_j) + Q(C_j, C_i)) / 2 for i = rows[r], j the delta-neighbor.
    Each midpoint level sums over the subcell points v = h delta + t, read
    from the table sums (a new one when None; ValueError when it does not
    serve the kernel): one constant for every row unless the modulation is
    separable, whose per-row values come from three per-offset sums
    (separable_rows) and must lie in [1, Lambda] times the unmodulated
    sum.  The levels m = 1, 2, 4, ... points per axis are each
    extrapolated to rich = plain + (plain - previous plain) / 3 until
    max |rich - previous rich| / max(|rich|, 1e-300) drops below NEAR_TOL;
    AssemblyError if the cap comes first.
    """
    dim = len(delta)
    mod = kernel.modulation
    cap = NEAR_CAP_1D if dim == 1 else NEAR_CAP_2D
    if sums is None:
        sums = NearSums(kernel, h)
    elif not sums.serves(kernel, h):
        raise ValueError("near sums of another profile, cell width or omega")
    separable = isinstance(mod, SeparableCosine)
    if separable:
        xi = centers[rows]
        at_i = row_phases(mod.omega, xi)
        at_j = row_phases(mod.omega, xi + h * np.asarray(delta, dtype=np.float64))

    def level(m: int) -> np.ndarray:
        scale = h ** dim * (h / m) ** dim
        if isinstance(mod, RoughCosine):
            # with a(|x - y|) both cell viewpoints see the same radii
            return np.full(rows.size, scale * sums.rough(kernel, delta, m))
        c0, *cs = sums.level(delta, m)
        if not separable:
            return np.full(rows.size, scale * c0)
        out = scale * separable_rows(mod, at_i, at_j, c0, *cs)
        lo = scale * c0
        if np.any(out < lo * (1.0 - 1e-12)) or np.any(out > kernel.Lambda * lo * (1.0 + 1e-12)):
            raise ValueError("modulation leaves the certified band [1, Lambda]")
        return out

    prev_plain, prev_rich = level(1), None
    m = 2
    while m <= cap:
        plain = level(m)
        rich = plain + (plain - prev_plain) / 3.0
        if prev_rich is not None:
            denom = np.maximum(np.abs(rich), 1e-300)
            if np.max(np.abs(rich - prev_rich) / denom) < NEAR_TOL:
                return rich, m
        prev_plain, prev_rich = plain, rich
        m *= 2
    raise AssemblyError(f"near-field quadrature for cell offset {delta} did not "
                        f"converge within {cap} subdivisions per axis")


def tail_block_rows() -> int:
    """Orbit representatives in one block of the 2-D box_tail_density: an
    eighth of a row block of rays, so that the arrays a block holds at once
    (tail_block_floats) fit in one row block."""
    return max(1, ROW_BLOCK // 8 // TAIL_ANGLES)


def tail_block_floats(reps: int) -> int:
    """Floats the 2-D box_tail_density holds at its peak over reps orbit
    representatives: seven (block, TAIL_ANGLES) arrays for a table or
    logarithmic profile (the exit distances, two per-axis quotients and
    the primitive's temporaries)."""
    return 7 * min(reps, tail_block_rows()) * TAIL_ANGLES


def median(x: np.ndarray) -> float:
    """np.median of a nonempty 1-D array, by the same partition and mean of
    the middle one or two entries; np.median itself loads numpy.ma (about
    1 MiB) on first use."""
    k = x.size // 2
    part = np.partition(x, [max(k - 1, 0), k])
    return float(part[k - 1 + x.size % 2:k + 1].mean())


def tail_orbits(grid: Grid) -> tuple:
    """(reps, inverse): the sorted flat box indices of the orbit
    representatives of the masked cells and each masked cell's position
    among them.  In 2-D a cell's orbit is its class under the square's
    eight symmetries, represented by the folded index (a, b), a <= b, at
    flat index a * n + b; in 1-D every cell is its own representative."""
    if grid.dimension == 1:
        return grid.masked_indices, np.arange(grid.masked_count)
    if grid.dimension == 2:
        n = grid.n
        idx = grid.index_array[grid.masked_indices]
        folded = np.sort(np.minimum(idx, n - 1 - idx), axis=1)
        reps, inverse = np.unique(folded[:, 0] * n + folded[:, 1],
                                  return_inverse=True)
        return reps, inverse.ravel()
    raise ValueError("full-grid assembly supports dimensions 1 and 2")


def box_tail_density(kernel: Kernel, grid: Grid, reps: np.ndarray | None = None) -> np.ndarray:
    """Envelope interaction density with the exterior of the box: integral
    of J(|x - y|) dy over R^N minus the box, per masked cell, or at the box
    cells reps (flat indices, orbit representatives in 2-D) when given."""
    inverse = None
    if reps is None:
        reps, inverse = tail_orbits(grid)
    prim = radial_primitive(kernel.profile, grid.dimension - 1.0, tail=True)
    L = grid.half_width
    if grid.dimension == 1:
        x = grid.centers[reps, 0]
        dens = np.asarray(prim(L + x) + prim(L - x), dtype=np.float64)
    elif grid.dimension == 2:
        X = grid.centers[reps]
        # polar decomposition: for each direction the ray exits the box at
        # distance min over axes of (signed face gap / direction cosine),
        # built one axis at a time as (representatives, angles) arrays
        theta = (np.arange(TAIL_ANGLES) + 0.5) * (2.0 * math.pi / TAIL_ANGLES)
        cx, cy = np.cos(theta), np.sin(theta)
        dens = np.empty(reps.size)
        step = tail_block_rows()
        for lo in range(0, reps.size, step):
            x, y = X[lo:lo + step, 0:1], X[lo:lo + step, 1:2]
            exit_dist = np.where(cx > 0, L - x, -L - x) / cx
            np.minimum(exit_dist, np.where(cy > 0, L - y, -L - y) / cy, out=exit_dist)
            dens[lo:lo + step] = prim(exit_dist).mean(axis=1) * 2.0 * math.pi
    else:
        raise ValueError("full-grid assembly supports dimensions 1 and 2")
    return dens if inverse is None else dens[inverse]


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


def near_constants(kernel: Kernel, grid: Grid, pairs: np.ndarray, sums: NearSums) -> dict:
    """Write one refined near constant per lex-positive offset that fits in
    the table into pairs, at +delta and -delta (the source cell is
    immaterial), from the level sums in sums, and return the refinement
    depth of each."""
    n, dim = grid.n, grid.dimension
    table = pairs.reshape((2 * n - 1,) * dim)
    depths = {}
    for delta in near_offsets(dim):
        if lex_positive(delta) and max(map(abs, delta)) < n:
            wvals, depths[str(delta)] = refined_pair_weights(
                kernel, grid.centers, np.zeros(1, dtype=np.int64), delta, grid.h,
                sums=sums)
            d = np.asarray(delta)
            table[tuple(n - 1 + d)] = table[tuple(n - 1 - d)] = wvals[0]
    return depths


def near_field(kernel: Kernel, grid: Grid, kappa: np.ndarray, sums: NearSums) -> tuple:
    """Refined near weights of a separable kernel, from the lex-positive
    side toward masked cells and into kappa toward unmasked ones, from
    the level sums in sums.  Returns (near, near_cols, depth per offset),
    the symmetric band in the slot form of DiscreteOperator."""
    midx = grid.masked_indices
    m = midx.size
    # masked-local position of each flat cell, -1 when unmasked
    local = np.full(grid.cell_count, -1, dtype=np.int64)
    local[midx] = np.arange(m)
    strides = grid.n ** np.arange(grid.dimension - 1, -1, -1, dtype=np.int64)
    ivec = grid.index_array[midx]
    offsets = near_offsets(grid.dimension)
    near = np.zeros((len(offsets), m))
    near_cols = np.full((len(offsets), m), m, dtype=np.int64)
    depths = {}
    for k, delta in enumerate(offsets):
        target = ivec + np.asarray(delta, dtype=np.int64)
        rows = np.flatnonzero(np.all((target >= 0) & (target < grid.n), axis=1))
        tflat = target[rows] @ strides
        tmasked = grid.mask_flat[tflat]
        if not lex_positive(delta):
            rows, tflat, tmasked = rows[~tmasked], tflat[~tmasked], tmasked[~tmasked]
        if rows.size == 0:
            continue
        wvals, depths[str(delta)] = refined_pair_weights(
            kernel, grid.centers, midx[rows], delta, grid.h, sums=sums)
        sel, cols = rows[tmasked], local[tflat[tmasked]]
        # the pair at +delta from sel is the pair at -delta from cols
        near[k, sel] = near[-1 - k, cols] = wvals[tmasked]
        near_cols[k, sel], near_cols[-1 - k, cols] = cols, sel
        kappa[rows[~tmasked]] += wvals[~tmasked]
    return near, near_cols, depths


def shares_table(kernel: Kernel, other: Kernel) -> bool:
    """Whether two kernels have one offset table, symbol and set of near
    constants: both unmodulated, with the very same profile object."""
    return (kernel.modulation is None and other.modulation is None
            and kernel.profile is other.profile)


def assemble(kernel: Kernel, grid: Grid, c: GridFunction | None = None,
             shared: BoxKernel | None = None) -> DiscreteOperator:
    """Assemble the discrete operator for the kernel on the masked cells.

    The modulation must be None, a RoughCosine or a SeparableCosine (what
    make_modulation returns); any other callable raises ValueError, since
    the near field is built from the modulation's structure.

    shared is another operator's box_kernel.  On a grid of the same
    geometry its table, symbol and near constants are taken as they are
    when shares_table(kernel, shared.kernel); whenever the two profiles
    are one object its tail densities at the orbit representatives both
    masks have, and its near sums where they serve the kernel (see
    NearSums.serves), are read.  The rest is built here, so the operator
    equals a standalone assembly bit for bit.
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
    if shared is not None and not shared.fits(grid):
        shared = None
    share_table = shared is not None and shares_table(kernel, shared.kernel)
    sums = NearSums(kernel, grid.h, None if shared is None else shared.near_sums)
    if share_table:
        pairs, symbol, depths = shared.pairs, shared.symbol, dict(shared.depths)
    else:
        pairs = far_offset_table(kernel, grid) * vol ** 2
    t_far = time.perf_counter()
    if not share_table:
        depths = {} if separable else near_constants(kernel, grid, pairs, sums)
        symbol = circulant_symbol(pairs, n, dim)
        # read-only from here on, so that another operator may share them
        pairs.flags.writeable = symbol.flags.writeable = False
    product = OffsetProduct(symbol, grid)
    # killing toward the unmasked box cells: FFT products with their
    # indicator, clipped since rounding may take a zero sum below zero
    outside = np.flatnonzero(~grid.mask_flat)
    kappa = product(1.0, outside)
    g = near = near_cols = None
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
        near, near_cols, depths = near_field(kernel, grid, kappa, sums)
    t_near = time.perf_counter()

    # analytic tail beyond the box, bracketed by the modulation band
    reps, inverse = tail_orbits(grid)
    if shared is not None and shared.kernel.profile is kernel.profile:
        dens = shared.tail_at(kernel, grid, reps)
    else:
        dens = box_tail_density(kernel, grid, reps)
    tail = vol * dens[inverse]
    t_tail = time.perf_counter()
    tail_lo = tail
    tail_hi = kernel.Lambda * tail
    tail_mid = 0.5 * (tail_lo + tail_hi)
    kappa_inbox_median = median(kappa)
    kappa += tail_mid

    med_kappa = median(kappa)
    med_tail = median(tail_mid)
    med_width = median(tail_hi - tail_lo)
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
        "near_sums": {"computed": sums.computed, "reused": sums.reused,
                      "points": sums.points},
        "tail_interval_width_max": float(np.max(tail_hi - tail_lo)),
        "tail_interval_width_median": med_width,
        "tail_to_kappa_median_ratio": med_tail / med_kappa if med_kappa > 0 else math.inf,
        "kappa_inbox_median": kappa_inbox_median,
        "box_margin_ok": bool(margin_ok),
        "matvec": "fft",
        "shared_kernel": share_table,
        "far_seconds": t_far - t0,
        "near_seconds": t_near - t_far,
        "tail_seconds": t_tail - t_near,
        "assembly_seconds": time.perf_counter() - t0,
    }
    box = BoxKernel(kernel=kernel, dimension=dim, n=n, half_width=grid.half_width,
                    pairs=pairs, symbol=symbol, depths=depths, tail_reps=reps,
                    tail_dens=dens, near_sums=sums)
    return DiscreteOperator(grid=grid, volumes=np.full(m, vol), pairs=pairs,
                            kappa=kappa, cdiag=cvals * vol,
                            tail_interval=np.stack([tail_lo, tail_hi], axis=1),
                            diagnostics=diag, symbol=symbol,
                            amp=mod.amp if separable else 0.0, g=g, near=near,
                            near_cols=near_cols, box_kernel=box)
