"""Elliptic and parabolic solvers for the discrete nonlocal operator.

The elliptic solve is hand-rolled preconditioned conjugate gradients from
the zero vector.  It updates its iterate, residual and search direction
in place; besides the product with the system, an iteration allocates
only the circulant preconditioner's output, when it has one.

The preconditioner is the system's (OperatorSystem.precondition), by
this rule: an unshifted system A = D - W with no near band, and with
d - sigma > 0 at every frequency, takes the scaled circulant
M^-1 r = S^-1 P^T F^-1[F(P S^-1 r) / (d - sigma)].  Here sigma is the
operator's symbol, d the median of the diagonal D, S = (D / d)^(1/2), and
P scatters the masked cells into the (2n)^N box (R. H. Chan and M. K.
Ng, SIAM Review 38, 1996).  Every other system takes Jacobi: a shifted
one (each implicit-Euler step, where the mass over dt already conditions
the system), a separable_cosine one (its near band differs row by row)
and dense arrays.

The parabolic march is implicit Euler: each step solves the elliptic
system shifted by the volume-weighted mass over the step size, which
stays symmetric positive definite for every step size, starting CG from
the linear extrapolation 2 u_n - u_{n-1} of the two previous states (u_0
for the first step).  Every solve stops on its full residual relative to
its load, and the march's guess is a fixed function of earlier states,
so repeated runs of both are bitwise deterministic.

Both solve the operator's `system`, an OperatorSystem whose products go
through the operator's weights_times: FFT products with the offset table
(two more and a near band product for separable_cosine).  The mass
shift is a diagonal added to that system once per distinct operator:
once for a fixed operator, every step for a per-step factory.  A march
keeps its states and one copy of each distinct load.  A time-dependent
load enters as its per-step means (step_means), by the 8-point
Gauss-Legendre rule of kernels._gauss_legendre, built on first use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .assembly import DiscreteOperator, build_rhs, energy, masked_vector
from .kernels import _gauss_legendre
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
    """Preconditioned conjugate gradients from x0, or from the zero vector
    when x0 is None.

    A is anything with `shape`, `diagonal()` and `@`: an OperatorSystem or
    a dense array.  The preconditioner is A.precondition, a callable
    r -> M^-1 r, when A has one that is not None (an OperatorSystem's
    circulant), and Jacobi otherwise.  Returns (x, iterations, relative_residual, history).
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
    # sqrt(r @ r) is what np.linalg.norm computes for a 1-D float array
    norm_b = math.sqrt(b @ b)
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverError("system diagonal is not positive")
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.ldexp(x0, -shift)
        r = b - A @ x
        rel = math.sqrt(r @ r) / norm_b
        if rel <= tol:
            return np.array(x0, dtype=np.float64), 0, rel, ()
    precondition = getattr(A, "precondition", None)
    z = r / d if precondition is None else precondition(r)
    p = z.copy()
    step = np.empty_like(b)
    rz = float(r @ z)
    history = []
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise SolverError("system lost positive definiteness", history)
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=Ap)
        rel = math.sqrt(r @ r) / norm_b
        history.append(rel)
        if rel <= tol:
            return np.ldexp(x, shift), it, rel, tuple(history)
        if precondition is None:
            np.divide(r, d, out=z)
        else:
            z = precondition(r)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
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
    preconditioner: str = "jacobi"


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
    system = op.system()
    x, iters, rel, history = pcg(system, b, tol, max_iter)
    value = 0.5 * energy(op, x) - float(b @ x)
    return EllipticSolution(vector=x, function=to_grid_function(op, x),
                            iterations=iters, residual_norm=rel,
                            energy_value=value, residual_history=history,
                            preconditioner=system.preconditioner)


class TimeGrid(NamedTuple):
    horizon: float
    steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


def step_means(source: Callable, points: np.ndarray, timegrid: TimeGrid):
    """Per-step means of source(x..., t) at points (one row per point, one
    column per axis) by 8-point Gauss quadrature, one array per step,
    yielded as they are asked for."""
    coords = [points[:, k] for k in range(points.shape[1])]
    size = points.shape[0]
    dt = timegrid.dt
    nodes, weights = _gauss_legendre(8)
    for n in range(timegrid.steps):
        a = n * dt
        mid, half = a + dt / 2.0, dt / 2.0
        acc = np.zeros(size)
        for node, weight in zip(nodes, weights):
            t = mid + half * node
            acc += weight * np.broadcast_to(
                np.asarray(source(*coords, t), dtype=np.float64), (size,))
        acc *= 0.5  # weights sum to 2 on [-1, 1]
        yield acc


def time_average(source: Callable, grid: Grid, timegrid: TimeGrid) -> list:
    """Per-step cellwise means of source(x..., t) by 8-point Gauss quadrature
    (step_means), zero outside the mask.

    source takes the cell-center coordinate columns plus a scalar time and
    returns values over cells, like GridFunction.from_callable with a time
    argument appended.
    """
    out = []
    for vals in step_means(source, grid.centers, timegrid):
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
    preconditioner: str = "jacobi"

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
    load, f_n itself or the n-th of the loads f_n yields.  The loads are
    taken one step at a time, so a generator's loads never all exist at
    once.  The shifted system is built again only when the step's operator
    is a new object."""
    operator_at = op_factory if callable(op_factory) else lambda n: op_factory
    base = operator_at(0)
    steps = timegrid.steps
    if steps < 1:
        raise ValueError("need at least one time step")
    dt = timegrid.dt
    # u and prev are rebound, never written in place, so they share u_0
    u = prev = initial = masked_vector(base.grid, u0).copy()
    if isinstance(f_n, (GridFunction, np.ndarray)):
        f_n = [f_n] * steps
    if hasattr(f_n, "__len__") and len(f_n) != steps:
        raise ValueError("need one load per time step")
    loads = iter(f_n)
    if max_iter is None:
        max_iter = 20 * base.size + 200

    states = np.empty((steps, base.size))
    f_seq, residuals, iterations = [], [], []
    shifted = prev_load = None
    for n, load in zip(range(steps), loads):
        opn = operator_at(n)
        if shifted is None or shifted.op is not opn:
            shifted = opn.system(opn.volumes / dt)
        if load is not prev_load:
            # copied, so that the caller's later edits leave f_seq alone
            fvec = masked_vector(opn.grid, load).copy()
            prev_load = load
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
    if len(f_seq) < steps or next(loads, None) is not None:
        raise ValueError("need one load per time step")
    return Trajectory(grid=base.grid, timegrid=timegrid, initial=initial,
                      states=states, f_seq=tuple(f_seq),
                      residuals=tuple(residuals), iterations=tuple(iterations),
                      operator_factory=op_factory,
                      preconditioner=shifted.preconditioner)


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
