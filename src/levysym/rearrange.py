"""Discrete rearrangements on uniform box grids.

Functions live on a uniform grid over the box [-L, L]^N as piecewise
constants on cells.  Because every cell has the same volume h^N, each
rearrangement is a pure permutation of cell values, which makes
equimeasurability and the classical rearrangement inequalities exact at
the discrete level instead of approximate.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ConcentrationCurve",
    "DominationReport",
    "Grid",
    "GridFunction",
    "concentration_curve",
    "concentration_dominates",
    "convex_mean_comparison",
    "convex_test_family",
    "decreasing_rearrangement_1d",
    "default_radii",
    "distribution_function",
    "hardy_littlewood_lower_slack",
    "hardy_littlewood_slack",
    "read_gridfunction_csv",
    "schwarz_rearrangement",
    "write_gridfunction_csv",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell grid on the box [-L, L]^N with a boolean domain mask.

    Cells are enumerated in C (lexicographic) index order.  Cell i has
    center -L + (i + 1/2) h per axis with h = 2L/n.
    """

    dimension: int
    half_width: float
    n: int
    mask: np.ndarray

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.n < 1:
            raise ValueError("need at least one cell per axis")
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError("half_width must be positive and finite")
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        want = (self.n,) * self.dimension
        if mask.shape != want:
            raise ValueError(f"mask shape {mask.shape} does not match grid shape {want}")
        if not mask.any():
            raise ValueError("domain mask selects no cells")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def full_box(cls, dimension: int, half_width: float, n: int) -> "Grid":
        return cls(dimension, half_width, n, np.ones((n,) * dimension, dtype=bool))

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension

    @property
    def cell_count(self) -> int:
        return self.n ** self.dimension

    @cached_property
    def index_array(self) -> np.ndarray:
        """Integer cell indices, shape (cell_count, N), lexicographic order."""
        idx = np.indices((self.n,) * self.dimension, dtype=np.int64)
        out = idx.reshape(self.dimension, -1).T.copy()
        out.setflags(write=False)
        return out

    @cached_property
    def centers(self) -> np.ndarray:
        out = (self.index_array + 0.5) * self.h - self.half_width
        out.setflags(write=False)
        return out

    @cached_property
    def radius_keys(self) -> np.ndarray:
        # |center|^2 = (h/2)^2 * sum (2 i_k + 1 - n)^2, so the integer sum
        # orders cells by distance from the origin with no rounding at all
        q = 2 * self.index_array + 1 - self.n
        out = np.einsum("ij,ij->i", q, q)
        out.setflags(write=False)
        return out

    @cached_property
    def schwarz_order(self) -> np.ndarray:
        # stable sort on the radius key keeps lexicographic order inside ties
        out = np.argsort(self.radius_keys, kind="stable")
        out.setflags(write=False)
        return out

    @cached_property
    def sorted_radius_keys(self) -> np.ndarray:
        out = self.radius_keys[self.schwarz_order]
        out.setflags(write=False)
        return out

    @cached_property
    def mask_flat(self) -> np.ndarray:
        out = self.mask.ravel()
        out.setflags(write=False)
        return out

    @cached_property
    def masked_indices(self) -> np.ndarray:
        out = np.flatnonzero(self.mask_flat)
        out.setflags(write=False)
        return out

    @property
    def masked_count(self) -> int:
        return int(self.masked_indices.size)

    @cached_property
    def ball_grid(self) -> "Grid":
        """Grid whose domain is the first M cells in Schwarz order."""
        flat = np.zeros(self.cell_count, dtype=bool)
        flat[self.schwarz_order[: self.masked_count]] = True
        return Grid(self.dimension, self.half_width, self.n,
                    flat.reshape((self.n,) * self.dimension))

    def same_geometry(self, other: "Grid") -> bool:
        """Same dimension and resolution, half-widths equal to 1e-12 relative."""
        return (self.dimension == other.dimension and self.n == other.n
                and abs(self.half_width - other.half_width) <= 1e-12 * self.half_width)

    def snap_radius(self, r):
        """Snap radii outward to whole numbers of cell widths: an int for a
        scalar, an int64 array for an array."""
        k = np.asarray(r, dtype=np.float64)
        if np.any(k < 0):
            raise ValueError("radius must be nonnegative")
        k = np.ceil(k / self.h - 1e-9).astype(np.int64)
        return int(k) if k.ndim == 0 else k


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Cell values on a Grid, identically zero outside the domain mask."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape == self.grid.mask.shape:
            vals = vals.ravel()
        if vals.shape != (self.grid.cell_count,):
            raise ValueError("values must cover every cell of the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if np.any(vals[~self.grid.mask_flat] != 0.0):
            raise ValueError("values must vanish outside the domain mask")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "GridFunction":
        """Sample fn at cell centers inside the mask, zero elsewhere."""
        coords = [grid.centers[:, k] for k in range(grid.dimension)]
        sampled = np.asarray(fn(*coords), dtype=np.float64)
        sampled = np.broadcast_to(sampled, (grid.cell_count,)).copy()
        sampled[~grid.mask_flat] = 0.0
        return cls(grid, sampled)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        vals = np.where(grid.mask_flat, float(value), 0.0)
        return cls(grid, vals)

    @property
    def masked_values(self) -> np.ndarray:
        return self.values[self.grid.masked_indices]

    def total_integral(self) -> float:
        return self.grid.cell_volume * float(self.values.sum())


class ConcentrationCurve(NamedTuple):
    """Cumulative integrals over centered balls, one entry per radius (a row
    of them per function when concentration_curve takes a stack)."""

    radii: np.ndarray
    integrals: np.ndarray

    @property
    def total(self) -> float:
        return float(self.integrals[-1])


class DominationReport(NamedTuple):
    max_violation: float
    worst_radius: float


def default_radii(grid: Grid) -> np.ndarray:
    """Cell-boundary radii h, 2h, ... out to the far corner of the box."""
    kmax = int(math.ceil(math.sqrt(grid.dimension) * (grid.n - 1) / 2.0))
    while 4 * kmax * kmax < grid.dimension * (grid.n - 1) ** 2:
        kmax += 1
    return grid.h * np.arange(1, kmax + 1, dtype=np.float64)


def distribution_function(f: GridFunction, t: float) -> float:
    """Measure of the superlevel set {|f| > t} at cell resolution."""
    if t < 0:
        raise ValueError("level t must be nonnegative")
    return f.grid.cell_volume * int(np.count_nonzero(np.abs(f.masked_values) > t))


def decreasing_rearrangement_1d(f: GridFunction) -> np.ndarray:
    """Masked |f| values sorted nonincreasing, one slab of volume h^N each."""
    out = np.sort(np.abs(f.masked_values))[::-1].copy()
    return out


def schwarz_rearrangement(f: GridFunction, direction: str = "decreasing") -> GridFunction:
    """Radially monotone rearrangement of |f| onto the discrete ball.

    The discrete ball is the first M cells of the box in (|center|,
    lexicographic) order, M the masked cell count.  "decreasing" places
    the largest value at the innermost cell, "increasing" the smallest.
    """
    if direction not in ("decreasing", "increasing"):
        raise ValueError("direction must be 'decreasing' or 'increasing'")
    vals = np.sort(np.abs(f.masked_values))
    if direction == "decreasing":
        vals = vals[::-1]
    grid = f.grid
    out = np.zeros(grid.cell_count)
    out[grid.schwarz_order[: grid.masked_count]] = vals
    return GridFunction(grid.ball_grid, out)


def concentration_curve(f, radii: Sequence[float],
                        grid: Grid | None = None) -> ConcentrationCurve:
    """Integrals of f over centered balls B_r, r snapped outward to cell radii.

    f is a GridFunction, or, with grid given, an array whose rows each list
    the values of one function on all cells of grid in its Schwarz order
    (grid.schwarz_order); integrals then has one row per row of f.
    """
    if grid is None:
        grid = f.grid
        rows = f.values[grid.schwarz_order]
    else:
        rows = np.asarray(f, dtype=np.float64)
        if rows.shape[-1:] != (grid.cell_count,):
            raise ValueError("rows must cover every cell of the grid")
        if not np.isfinite(rows).all():
            raise ValueError("values must be finite")
    # the cells outside a GridFunction's mask hold 0
    if rows.size and rows.min() < -0.0:
        raise ValueError("concentration curves require nonnegative values")
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("need a nonempty 1-D radii sequence")
    # the comparison is False on NaN, so only the last radius can be
    # infinite or, alone, NaN
    if not (radii[1:] > radii[:-1]).all():
        raise ValueError("radii must be strictly increasing")
    if not math.isfinite(radii[-1]):
        raise ValueError("radii must be finite")
    ks = grid.snap_radius(radii)
    if not (ks[1:] > ks[:-1]).all():
        raise ValueError("distinct radii snapped to the same cell boundary")
    counts = np.searchsorted(grid.sorted_radius_keys, 4 * ks * ks, side="right")
    prefix = np.zeros(rows.shape[:-1] + (grid.cell_count + 1,))
    np.cumsum(rows, axis=-1, out=prefix[..., 1:])
    integrals = prefix[..., counts]
    integrals *= grid.cell_volume
    return ConcentrationCurve(radii=grid.h * ks.astype(np.float64), integrals=integrals)


def concentration_dominates(a: GridFunction, b: GridFunction,
                            radii: Sequence[float] | None = None) -> DominationReport:
    """Largest excess of a's concentration over b's across the radii.

    max_violation <= 0 certifies that b's concentration dominates a's.
    """
    if not a.grid.same_geometry(b.grid):
        raise ValueError("functions live on different grid geometries")
    if radii is None:
        radii = default_radii(a.grid)
    ca = concentration_curve(a, radii)
    cb = concentration_curve(b, radii)
    diff = ca.integrals - cb.integrals
    worst = int(np.argmax(diff))
    return DominationReport(max_violation=float(diff[worst]),
                            worst_radius=float(ca.radii[worst]))


def hardy_littlewood_slack(f: GridFunction, g: GridFunction) -> float:
    """Sum f* g* minus sum |f g|, cell-volume weighted.  Nonnegative."""
    if not np.array_equal(f.grid.mask_flat, g.grid.mask_flat):
        raise ValueError("functions must share one domain mask")
    fv = np.sort(np.abs(f.masked_values))
    gv = np.sort(np.abs(g.masked_values))
    paired = float(np.abs(f.masked_values * g.masked_values).sum())
    return f.grid.cell_volume * (float(fv @ gv) - paired)


def hardy_littlewood_lower_slack(f: GridFunction, g: GridFunction) -> float:
    """Sum |f g| minus sum f# g_#, the opposite-ordering lower bound."""
    if not np.array_equal(f.grid.mask_flat, g.grid.mask_flat):
        raise ValueError("functions must share one domain mask")
    fv = np.sort(np.abs(f.masked_values))
    gv = np.sort(np.abs(g.masked_values))[::-1]
    paired = float(np.abs(f.masked_values * g.masked_values).sum())
    return f.grid.cell_volume * (paired - float(fv @ gv))


def convex_test_family(tau: float) -> tuple:
    """Fixed family of increasing convex test functions with phi(0) = 0."""
    if tau < 0:
        raise ValueError("hinge offset must be nonnegative")
    return (
        ("square", lambda t: t * t),
        ("power_3_2", lambda t: t ** 1.5),
        ("cube", lambda t: t ** 3),
        ("hinge", lambda t: np.maximum(t - tau, 0.0)),
    )


def convex_mean_comparison(u: GridFunction, v: GridFunction,
                           phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of phi(v) minus integral of phi(u) for a convex test phi.

    phi must satisfy phi(0) = 0; only masked cells enter the sums, so
    the two functions may live on different domains of the same box.
    """
    uv = u.masked_values
    vv = v.masked_values
    if (uv.size and uv.min() < 0) or (vv.size and vv.min() < 0):
        raise ValueError("comparison requires nonnegative functions")
    su = float(np.sum(phi(uv)))
    sv = float(np.sum(phi(vv)))
    return v.grid.cell_volume * sv - u.grid.cell_volume * su


def write_gridfunction_csv(f: GridFunction, path) -> None:
    """One row per cell: integer indices, center coordinates, value, masked.

    Byte for byte what csv.writer writes with "{:.17g}" floats: no field
    needs quoting and rows end in CR LF.  Each axis value's index and
    center are formatted once (a center is (i + 1/2) h - L per axis, as in
    Grid.centers), and a value only when it is not +0.0, which prints "0".
    Rows are joined and written n at a time, one block per index of the
    leading axes.
    """
    grid = f.grid
    dim, n = grid.dimension, grid.n
    index_names = ["i", "j", "k", "l"][:dim] if dim <= 4 else [f"i{k}" for k in range(dim)]
    coord_names = ["x", "y", "z", "w"][:dim] if dim <= 4 else [f"x{k}" for k in range(dim)]
    index_text = [str(i) for i in range(n)]
    center_text = list(map("{:.17g}".format,
                           ((np.arange(n) + 0.5) * grid.h - grid.half_width).tolist()))
    values = f.values
    value_text = ["0"] * values.size
    signed = np.flatnonzero((values != 0) | np.signbit(values))
    for k, text in zip(signed.tolist(), map("{:.17g}".format, values[signed].tolist())):
        value_text[k] = text
    flags = ("0", "1")
    last = list(zip(index_text, center_text))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(index_names + coord_names + ["value", "masked"]) + "\r\n")
        for lo, head in zip(range(0, values.size, n),
                            itertools.product(range(n), repeat=dim - 1)):
            index = "".join(index_text[i] + "," for i in head)
            center = "".join(center_text[i] + "," for i in head)
            fh.write("".join([f"{index}{i},{center}{x},{v},{flags[m]}\r\n"
                              for (i, x), v, m in zip(last, value_text[lo:lo + n],
                                                      grid.mask_flat[lo:lo + n].tolist())]))


def read_gridfunction_csv(path) -> GridFunction:
    """Rebuild a GridFunction written by write_gridfunction_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if not rows:
        raise ValueError("empty grid CSV")
    ncols = len(header)
    if ncols < 4 or (ncols - 2) % 2 != 0:
        raise ValueError("malformed grid CSV header")
    dim = (ncols - 2) // 2
    idx = np.array([[int(r[k]) for k in range(dim)] for r in rows], dtype=np.int64)
    coords = np.array([[float(r[dim + k]) for k in range(dim)] for r in rows])
    values = np.array([float(r[2 * dim]) for r in rows])
    masked = np.array([r[2 * dim + 1] == "1" for r in rows])
    n = int(idx.max()) + 1
    if len(rows) != n ** dim:
        raise ValueError("grid CSV does not cover a full box")
    # center = -L + (i + 1/2) h pins h and L from any two distinct indices
    flat0 = idx[:, 0]
    a, b = int(np.argmin(flat0)), int(np.argmax(flat0))
    if flat0[a] == flat0[b]:
        raise ValueError("cannot infer cell size from a single index value")
    h = (coords[b, 0] - coords[a, 0]) / (flat0[b] - flat0[a])
    half_width = (flat0[a] + 0.5) * h - coords[a, 0]
    # round off reconstruction noise in the box size
    half_width = round(half_width / (0.5 * h)) * 0.5 * h
    order = np.lexsort(idx.T[::-1])
    mask = np.zeros(n ** dim, dtype=bool)
    vals = np.zeros(n ** dim)
    mask[:] = masked[order]
    vals[:] = values[order]
    grid = Grid(dim, half_width, n, mask.reshape((n,) * dim))
    return GridFunction(grid, vals)
