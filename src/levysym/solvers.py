"""Elliptic and parabolic solvers for the discrete nonlocal operator.

The elliptic solve is hand-rolled Jacobi-preconditioned conjugate
gradients with a fixed zero initial guess, so repeated runs are bitwise
deterministic.  The parabolic march is implicit Euler: each step solves
the elliptic system shifted by the volume-weighted mass over the step
size, which stays symmetric positive definite for every step size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .assembly import DiscreteOperator, build_rhs, energy
from .rearrange import Grid, GridFunction, write_gridfunction_csv

__all__ = [
    "EllipticSolution",
    "EnergyLedger",
    "SolverError",
    "TimeGrid",
    "Trajectory",
    "discrete_energy_ledger",
    "minimality_probe",
    "parabolic_solve",
    "pcg",
    "solve_elliptic",
    "time_average",
    "write_trajectory",
]


class SolverError(RuntimeError):
    def __init__(self, message: str, residual_history=()):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


def pcg(A: np.ndarray, b: np.ndarray, tol: float, max_iter: int):
    """Jacobi-preconditioned conjugate gradients from the zero vector.

    Returns (x, iterations, relative_residual, history).  Raises
    SolverError with the residual history when max_iter is exhausted.
    The load is scaled by a power of two to max |b| in [1/2, 1) first, so
    tiny loads neither underflow nor change the iterates' rounding.
    """
    big = float(np.max(np.abs(b))) if b.size else 0.0
    if big == 0.0:
        return np.zeros_like(b), 0, 0.0, ()
    _, shift = np.frexp(big)
    b = np.ldexp(b, -shift)
    norm_b = float(np.linalg.norm(b))
    d = np.diag(A).copy()
    if np.any(d <= 0):
        raise SolverError("system diagonal is not positive")
    x = np.zeros_like(b)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    history = []
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise SolverError("system lost positive definiteness", history)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / norm_b
        history.append(rel)
        if rel <= tol:
            return np.ldexp(x, shift), it, rel, tuple(history)
        z = r / d
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SolverError(
        f"conjugate gradients did not reach {tol} in {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history)


@dataclass(frozen=True, eq=False)
class EllipticSolution:
    vector: np.ndarray
    function: GridFunction | None
    iterations: int
    residual_norm: float
    energy_value: float
    residual_history: tuple


def as_dof_vector(op: DiscreteOperator, f) -> np.ndarray:
    if isinstance(f, GridFunction):
        return f.masked_values
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.size,):
        raise ValueError("vector length does not match the operator")
    return f


def to_grid_function(op: DiscreteOperator, vec: np.ndarray) -> GridFunction | None:
    if not isinstance(op.grid, Grid):
        return None
    out = np.zeros(op.grid.cell_count)
    out[op.grid.masked_indices] = vec
    return GridFunction(op.grid, out)


def solve_elliptic(op: DiscreteOperator, f, tol: float = 1e-10,
                   max_iter: int | None = None) -> EllipticSolution:
    """Solve A u = b for the volume-weighted load of f."""
    if not (tol > 0):
        raise ValueError("tolerance must be positive")
    b = build_rhs(op, as_dof_vector(op, f))
    if max_iter is None:
        max_iter = 20 * op.size + 200
    x, iters, rel, history = pcg(op.matrix, b, tol, max_iter)
    value = 0.5 * energy(op, x) - float(b @ x)
    return EllipticSolution(vector=x, function=to_grid_function(op, x),
                            iterations=iters, residual_norm=rel,
                            energy_value=value, residual_history=history)


def minimality_probe(op: DiscreteOperator, f, solution: EllipticSolution,
                     perturbations: int = 100, scale: float = 1e-3,
                     seed: int = 0) -> float:
    """Smallest change of the quadratic functional over random probes.

    The functional is 1/2 energy(u) - (b, u); at the discrete minimizer
    every probe of norm `scale` changes it by at least -1e-8.
    """
    b = build_rhs(op, as_dof_vector(op, f))
    u = solution.vector
    base = 0.5 * energy(op, u) - float(b @ u)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(perturbations):
        d = rng.normal(size=op.size)
        d *= scale / np.linalg.norm(d)
        probe = u + d
        val = 0.5 * energy(op, probe) - float(b @ probe)
        worst = min(worst, val - base)
    return float(worst)


class TimeGrid(NamedTuple):
    horizon: float
    steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def time_average(source: Callable, grid: Grid, timegrid: TimeGrid) -> list:
    """Per-step cellwise means of source(x..., t) by 8-point Gauss quadrature.

    source takes the cell-center coordinate columns plus a scalar time and
    returns values over cells, like GridFunction.from_callable with a time
    argument appended.
    """
    coords = [grid.centers[:, k] for k in range(grid.dimension)]
    dt = timegrid.dt
    out = []
    for n in range(timegrid.steps):
        a = n * dt
        mid, half = a + dt / 2.0, dt / 2.0
        acc = np.zeros(grid.cell_count)
        for node, weight in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            t = mid + half * node
            acc += weight * np.broadcast_to(
                np.asarray(source(*coords, t), dtype=np.float64), (grid.cell_count,))
        vals = 0.5 * acc  # weights sum to 2 on [-1, 1]
        vals = vals.copy()
        vals[~grid.mask_flat] = 0.0
        out.append(GridFunction(grid, vals))
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    grid: object
    timegrid: TimeGrid
    initial: np.ndarray
    states: np.ndarray
    f_seq: np.ndarray
    c_seq: np.ndarray
    residuals: tuple
    iterations: tuple
    operator_factory: object

    def operator_at(self, n: int) -> DiscreteOperator:
        if callable(self.operator_factory):
            return self.operator_factory(n)
        return self.operator_factory

    def state_function(self, n: int) -> GridFunction | None:
        return to_grid_function(self.operator_at(0), self.states[n])


def parabolic_solve(op_factory, f_n, u0, timegrid: TimeGrid,
                    tol: float = 1e-10, max_iter: int | None = None) -> Trajectory:
    """Implicit-Euler march: every step solves the mass-shifted elliptic
    system for the step's averaged coefficient and load."""
    base = op_factory(0) if callable(op_factory) else op_factory
    steps = timegrid.steps
    if steps < 1:
        raise ValueError("need at least one time step")
    dt = timegrid.dt
    u = as_dof_vector(base, u0).copy()
    initial = u.copy()
    if isinstance(f_n, (GridFunction, np.ndarray)):
        f_list = [f_n] * steps
    else:
        f_list = list(f_n)
        if len(f_list) != steps:
            raise ValueError("need one load per time step")
    if max_iter is None:
        max_iter = 20 * base.size + 200

    states = np.empty((steps, base.size))
    f_store = np.empty((steps, base.size))
    c_store = np.empty((steps, base.size))
    residuals = []
    iterations = []
    shifted_const = None
    if not callable(op_factory):
        shifted_const = base.with_cdiag(base.cdiag + base.volumes / dt)
    for n in range(steps):
        opn = op_factory(n) if callable(op_factory) else op_factory
        shifted = (shifted_const if shifted_const is not None
                   else opn.with_cdiag(opn.cdiag + opn.volumes / dt))
        fvec = as_dof_vector(opn, f_list[n])
        b = opn.volumes * (fvec + u / dt)
        try:
            u, it, rel, _ = pcg(shifted.matrix, b, tol, max_iter)
        except SolverError as err:
            raise SolverError(f"time step {n} failed: {err}",
                              err.residual_history) from err
        states[n] = u
        f_store[n] = fvec
        c_store[n] = opn.cdiag / opn.volumes
        residuals.append(rel)
        iterations.append(it)
    return Trajectory(grid=base.grid, timegrid=timegrid, initial=initial,
                      states=states, f_seq=f_store, c_seq=c_store,
                      residuals=tuple(residuals), iterations=tuple(iterations),
                      operator_factory=op_factory)


class EnergyLedger(NamedTuple):
    lhs: np.ndarray
    rhs: np.ndarray
    c_fit: float
    identity_residual: float


def discrete_energy_ledger(traj: Trajectory) -> EnergyLedger:
    """Cumulative dissipation ledger of the implicit-Euler march.

    lhs_n = sum of squared state increments + ||u_n||^2 + 2 dt * sum of
    step energies; the exact summation identity pins lhs_n to
    ||u_0||^2 + 2 dt * sum (b_k, u_{k+1}) up to solver tolerance, and
    identity_residual reports the worst gap.  rhs_n is the source-side
    budget ||u_0||^2 + dt * sum ||f_k||^2 and c_fit the smallest constant
    making lhs <= c_fit * rhs over all steps.
    """
    op0 = traj.operator_at(0)
    vols = op0.volumes
    dt = traj.timegrid.dt

    def msq(v):
        return float(np.dot(vols * v, v))

    steps = traj.timegrid.steps
    lhs = np.empty(steps)
    rhs = np.empty(steps)
    ident = np.empty(steps)
    diff_acc = 0.0
    energy_acc = 0.0
    work_acc = 0.0
    load_acc = 0.0
    prev = traj.initial
    u0_sq = msq(prev)
    for n in range(steps):
        opn = traj.operator_at(n)
        cur = traj.states[n]
        diff_acc += msq(cur - prev)
        energy_acc += energy(opn, cur)
        work_acc += float(np.dot(vols * traj.f_seq[n], cur))
        load_acc += msq(traj.f_seq[n])
        lhs[n] = diff_acc + msq(cur) + 2.0 * dt * energy_acc
        rhs[n] = u0_sq + dt * load_acc
        ident[n] = lhs[n] - (u0_sq + 2.0 * dt * work_acc)
        prev = cur
    scale = max(float(np.max(lhs)), u0_sq, 1e-300)
    identity_residual = float(np.max(np.abs(ident))) / scale
    positive = rhs > 0
    if positive.any():
        c_fit = float(np.max(lhs[positive] / rhs[positive]))
    else:
        c_fit = 0.0
    return EnergyLedger(lhs=lhs, rhs=rhs, c_fit=c_fit,
                        identity_residual=identity_residual)


def write_trajectory(traj: Trajectory, directory) -> None:
    """One CSV per step plus an index JSON with times, residuals and the
    dissipation ledger."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = len(str(traj.timegrid.steps))
    is_grid = isinstance(traj.grid, Grid)
    for n in range(traj.timegrid.steps):
        path = directory / f"u_{n + 1:0{width}d}.csv"
        if is_grid:
            write_gridfunction_csv(traj.state_function(n), path)
        else:
            mids = traj.grid.midpoints
            with open(path, "w", newline="") as fh:
                fh.write("rho,value\n")
                for r, v in zip(mids, traj.states[n]):
                    fh.write(f"{r:.17g},{v:.17g}\n")
    ledger = discrete_energy_ledger(traj)
    index = {
        "t": [float(t) for t in traj.timegrid.times[1:]],
        "dt": traj.timegrid.dt,
        "residuals": list(traj.residuals),
        "iterations": list(traj.iterations),
        "ledger_lhs": [float(v) for v in ledger.lhs],
        "ledger_rhs": [float(v) for v in ledger.rhs],
        "ledger_c_fit": ledger.c_fit,
        "ledger_identity_residual": ledger.identity_residual,
    }
    with open(directory / "index.json", "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
