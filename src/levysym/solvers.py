"""Elliptic and parabolic solvers for the discrete nonlocal operator.

The elliptic solve is hand-rolled Jacobi-preconditioned conjugate
gradients from the zero vector.  The parabolic march is implicit Euler:
each step solves the elliptic system shifted by the volume-weighted mass
over the step size, which stays symmetric positive definite for every
step size, starting CG from the linear extrapolation 2 u_n - u_{n-1} of
the two previous states (u_0 for the first step).  Every solve stops on
its full residual relative to its load, and the march's guess is a fixed
function of earlier states, so repeated runs of both are bitwise
deterministic.

Both solve the operator's `system`, an OperatorSystem whose products go
through the operator's weights_times: FFT products with the offset table
(two more and a near band product for separable_cosine).  The mass
shift is a diagonal added to that system once per distinct operator:
once for a fixed operator, every step for a per-step factory.  A march
keeps its states and one copy of each distinct load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .assembly import DiscreteOperator, build_rhs, energy, masked_vector
from .rearrange import Grid, GridFunction, write_gridfunction_csv

__all__ = [
    "EllipticSolution",
    "EnergyLedger",
    "SolverError",
    "TimeGrid",
    "Trajectory",
    "discrete_energy_ledger",
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


def pcg(A, b: np.ndarray, tol: float, max_iter: int,
        x0: np.ndarray | None = None):
    """Jacobi-preconditioned conjugate gradients from x0, or from the zero
    vector when x0 is None.

    A is anything with `shape`, `diagonal()` and `@`: an OperatorSystem or
    a dense array.  Returns (x, iterations, relative_residual, history).
    Stops at the first iterate whose residual is at most tol times the
    norm of b, whatever x0 is; an x0 that already passes is returned as it
    is with 0 iterations.  Raises SolverError with the residual history
    when max_iter is exhausted.  The load and x0 are scaled by the same
    power of two to max |b| in [1/2, 1) first, so tiny loads neither
    underflow nor change the iterates' rounding.
    """
    big = float(np.max(np.abs(b))) if b.size else 0.0
    if big == 0.0:
        return np.zeros_like(b), 0, 0.0, ()
    _, shift = np.frexp(big)
    b = np.ldexp(b, -shift)
    norm_b = float(np.linalg.norm(b))
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverError("system diagonal is not positive")
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.ldexp(x0, -shift)
        r = b - A @ x
        rel = float(np.linalg.norm(r)) / norm_b
        if rel <= tol:
            return np.array(x0, dtype=np.float64), 0, rel, ()
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
    function: GridFunction
    iterations: int
    residual_norm: float
    energy_value: float
    residual_history: tuple


def to_grid_function(op: DiscreteOperator, vec: np.ndarray) -> GridFunction:
    out = np.zeros(op.grid.cell_count)
    out[op.grid.masked_indices] = vec
    return GridFunction(op.grid, out)


def solve_elliptic(op: DiscreteOperator, f, tol: float = 1e-10,
                   max_iter: int | None = None) -> EllipticSolution:
    """Solve A u = b for the volume-weighted load of f."""
    if not (tol > 0):
        raise ValueError("tolerance must be positive")
    b = build_rhs(op, f)
    if max_iter is None:
        max_iter = 20 * op.size + 200
    x, iters, rel, history = pcg(op.system(), b, tol, max_iter)
    value = 0.5 * energy(op, x) - float(b @ x)
    return EllipticSolution(vector=x, function=to_grid_function(op, x),
                            iterations=iters, residual_norm=rel,
                            energy_value=value, residual_history=history)


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
        vals[~grid.mask_flat] = 0.0
        out.append(GridFunction(grid, vals))
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An implicit-Euler march: states[n] is u_{n+1} and f_seq[n] the
    masked load of step n, one array repeated for steps sharing a load.
    The step-n coefficient is operator_at(n).cdiag / volumes."""
    grid: Grid
    timegrid: TimeGrid
    initial: np.ndarray
    states: np.ndarray
    f_seq: tuple
    residuals: tuple
    iterations: tuple
    operator_factory: object

    def operator_at(self, n: int) -> DiscreteOperator:
        if callable(self.operator_factory):
            return self.operator_factory(n)
        return self.operator_factory

    def state_function(self, n: int) -> GridFunction:
        return to_grid_function(self.operator_at(0), self.states[n])


def parabolic_solve(op_factory, f_n, u0, timegrid: TimeGrid,
                    tol: float = 1e-10, max_iter: int | None = None) -> Trajectory:
    """Implicit-Euler march: every step solves the mass-shifted elliptic
    system of its operator, op_factory itself or op_factory(n), for its
    load, f_n itself or f_n[n].  The shifted system is built again only
    when the step's operator is a new object."""
    operator_at = op_factory if callable(op_factory) else lambda n: op_factory
    base = operator_at(0)
    steps = timegrid.steps
    if steps < 1:
        raise ValueError("need at least one time step")
    dt = timegrid.dt
    # u and prev are rebound, never written in place, so they share u_0
    u = prev = initial = masked_vector(base.grid, u0).copy()
    if isinstance(f_n, (GridFunction, np.ndarray)):
        f_list = [f_n] * steps
    else:
        f_list = list(f_n)
        if len(f_list) != steps:
            raise ValueError("need one load per time step")
    if max_iter is None:
        max_iter = 20 * base.size + 200

    states = np.empty((steps, base.size))
    f_seq, residuals, iterations = [], [], []
    shifted = None
    for n in range(steps):
        opn = operator_at(n)
        if shifted is None or shifted.op is not opn:
            shifted = opn.system(opn.volumes / dt)
        if n == 0 or f_list[n] is not f_list[n - 1]:
            # copied, so that the caller's later edits leave f_seq alone
            fvec = masked_vector(opn.grid, f_list[n]).copy()
        b = opn.volumes * (fvec + u / dt)
        # 2 u_0 - u_0 is u_0 exactly, so the first step starts from u_0
        guess = 2.0 * u - prev
        prev = u
        try:
            u, it, rel, _ = pcg(shifted, b, tol, max_iter, x0=guess)
        except SolverError as err:
            raise SolverError(f"time step {n} failed: {err}",
                              err.residual_history) from err
        states[n] = u
        f_seq.append(fvec)
        residuals.append(rel)
        iterations.append(it)
    return Trajectory(grid=base.grid, timegrid=timegrid, initial=initial,
                      states=states, f_seq=tuple(f_seq),
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
    for n in range(traj.timegrid.steps):
        write_gridfunction_csv(traj.state_function(n),
                               directory / f"u_{n + 1:0{width}d}.csv")
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
