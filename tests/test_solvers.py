"""Elliptic and parabolic solver tests.

The closed-form case pins the kernel constant through an independent
quadrature oracle before trusting the discrete solution against the
profile, and the ledger tests lean on the exact summation identity of
the implicit-Euler march rather than on solver internals.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levysym.assembly import OperatorSystem, assemble, build_rhs, energy
from levysym.kernels import Kernel, RadialProfile, make_modulation
from levysym.rearrange import (Grid, GridFunction, read_gridfunction_csv,
                               schwarz_rearrangement)
from levysym.solvers import (EllipticSolution, SolverError, TimeGrid,
                             discrete_energy_ledger, parabolic_solve, pcg, solve_elliptic,
                             time_average, write_trajectory)


def box_grid(n, half_width=1.0, dim=1, mask=None):
    if mask is None:
        mask = np.ones((n,) * dim, dtype=bool)
    return Grid(dimension=dim, half_width=half_width, n=n, mask=mask)


def power_kernel(s, dim=1, gamma=1.0):
    return Kernel(profile=RadialProfile.power(s=s, dimension=dim, gamma=gamma))


@pytest.fixture(scope="module")
def split_domain_op():
    """1-D operator on a two-component domain, moderate order."""
    n = 48
    grid = box_grid(n)
    x = grid.centers[:, 0]
    mask = (x < -0.2) | (x > 0.15)
    grid = box_grid(n, mask=mask)
    op = assemble(power_kernel(0.35), grid)
    return grid, op


def test_zero_load_gives_zero_solution(split_domain_op):
    grid, op = split_domain_op
    sol = solve_elliptic(op, GridFunction.constant(grid, 0.0))
    assert np.all(sol.vector == 0.0)
    assert sol.iterations == 0
    assert sol.residual_norm == 0.0
    assert sol.energy_value == 0.0


def test_nonpositive_load_gives_nonpositive_solution(split_domain_op):
    grid, op = split_domain_op
    rng = np.random.default_rng(7)
    f = -rng.uniform(0.1, 1.0, size=op.size)
    sol = solve_elliptic(op, f)
    assert sol.vector.max() <= 1e-9


def test_residual_certificate(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.from_callable(grid, lambda x: np.cos(2.0 * x))
    sol = solve_elliptic(op, f, tol=1e-10)
    assert sol.residual_norm <= 1e-10
    b = build_rhs(op, f)
    rel = np.linalg.norm(op.matrix @ sol.vector - b) / np.linalg.norm(b)
    assert rel <= 1.1e-10
    assert sol.residual_history[-1] == sol.residual_norm
    assert sol.iterations == len(sol.residual_history)


def test_energy_value_matches_matrix_route(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.from_callable(grid, lambda x: 1.0 + 0.3 * x)
    sol = solve_elliptic(op, f)
    b = build_rhs(op, f)
    direct = 0.5 * float(sol.vector @ (op.matrix @ sol.vector)) - float(b @ sol.vector)
    assert sol.energy_value == pytest.approx(direct, abs=1e-12)
    # minimizer value is also -1/2 b^T u for the exact solution
    assert sol.energy_value == pytest.approx(-0.5 * float(b @ sol.vector), abs=1e-9)


def test_solution_function_layout(split_domain_op):
    grid, op = split_domain_op
    sol = solve_elliptic(op, GridFunction.constant(grid, 1.0))
    assert isinstance(sol, EllipticSolution)
    assert sol.function.grid is grid
    assert np.array_equal(sol.function.masked_values, sol.vector)
    assert np.all(sol.function.values[~grid.mask_flat] == 0.0)


def test_nonconvergence_error_carries_history(split_domain_op):
    grid, op = split_domain_op
    with pytest.raises(SolverError) as err:
        solve_elliptic(op, GridFunction.constant(grid, 1.0), max_iter=3)
    assert len(err.value.residual_history) == 3


def test_pcg_rejects_bad_tolerance(split_domain_op):
    grid, op = split_domain_op
    with pytest.raises(ValueError):
        solve_elliptic(op, GridFunction.constant(grid, 1.0), tol=0.0)


def test_pcg_zero_rhs_shortcut():
    A = np.eye(3)
    x, it, rel, hist = pcg(A, np.zeros(3), 1e-10, 10)
    assert np.all(x == 0.0) and it == 0 and rel == 0.0 and hist == ()


def test_pcg_exact_guess_takes_no_iteration(split_domain_op):
    grid, op = split_domain_op
    A = op.system()
    b = build_rhs(op, GridFunction.constant(grid, 1.0))
    exact = np.linalg.solve(op.matrix, b)
    guess = exact.copy()
    x, it, rel, hist = pcg(A, b, 1e-10, 100, x0=guess)
    assert it == 0 and hist == () and rel <= 1e-10
    assert np.array_equal(x, exact) and np.array_equal(guess, exact)


def test_pcg_random_guess_reaches_cold_answer(split_domain_op):
    grid, op = split_domain_op
    A = op.system()
    rng = np.random.default_rng(3)
    b = build_rhs(op, rng.uniform(-1.0, 1.0, size=op.size))
    tol = 1e-10
    cold, cold_its, _, _ = pcg(A, b, tol, 1000)
    warm, warm_its, rel, hist = pcg(A, b, tol, 1000,
                                    x0=rng.uniform(-5.0, 5.0, size=op.size))
    assert warm_its > 0 and rel <= tol and hist[-1] == rel
    true_rel = np.linalg.norm(b - op.matrix @ warm) / np.linalg.norm(b)
    assert true_rel <= 1.1 * tol
    # both residuals are within tol |b|, so the answers are within
    # 2 tol |b| / lambda_min of each other
    lam_min = np.linalg.eigvalsh(op.matrix)[0]
    gap = np.linalg.norm(warm - cold)
    assert gap <= 2.0 * tol * np.linalg.norm(b) / lam_min


def test_pcg_tiny_load_with_guess_keeps_iterates(split_domain_op):
    # b and x0 scaled by 2^-997 (about 7.5e-301): the iterates are the
    # unscaled ones times that power of two, bit for bit
    grid, op = split_domain_op
    A = op.system()
    rng = np.random.default_rng(4)
    b = build_rhs(op, rng.uniform(0.5, 1.0, size=op.size))
    guess = rng.uniform(0.0, 1.0, size=op.size)
    x, it, rel, hist = pcg(A, b, 1e-10, 1000, x0=guess)
    tiny_b, tiny_guess = np.ldexp(b, -997), np.ldexp(guess, -997)
    assert np.max(np.abs(tiny_b)) < 1e-300
    xt, itt, relt, histt = pcg(A, tiny_b, 1e-10, 1000, x0=tiny_guess)
    assert it > 0 and itt == it and relt == rel and histt == hist
    assert np.all(xt != 0.0)
    assert np.array_equal(xt, np.ldexp(x, -997))


def test_pcg_zero_rhs_with_guess_returns_zeros():
    x, it, rel, hist = pcg(np.eye(3), np.zeros(3), 1e-10, 10,
                           x0=np.array([1.0, -2.0, 3.0]))
    assert np.all(x == 0.0) and it == 0 and rel == 0.0 and hist == ()


# closed form: with gamma = 1/pi the half-order operator applied to
# p(x) = (1 - x^2)^{1/2} equals 1 on (-1, 1)

def reference_pcg(A, b, tol, max_iter, x0=None):
    """The pcg loop with fresh arrays for every update and np.linalg.norm,
    as a reference for pcg's in-place updates, with A's preconditioner
    (Jacobi when A has none)."""
    big = float(np.max(np.abs(b)))
    _, shift = np.frexp(big)
    b = np.ldexp(b, -shift)
    norm_b = float(np.linalg.norm(b))
    d = A.diagonal()
    precondition = getattr(A, "precondition", None) or (lambda r: r / d)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.ldexp(x0, -shift)
        r = b - A @ x
        rel = float(np.linalg.norm(r)) / norm_b
        if rel <= tol:
            return np.array(x0, dtype=np.float64), 0, rel, ()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    history = []
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / norm_b
        history.append(rel)
        if rel <= tol:
            return np.ldexp(x, shift), it, rel, tuple(history)
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("reference loop did not converge")


def same_solve(got, want):
    (x, it, rel, hist), (x_ref, it_ref, rel_ref, hist_ref) = got, want
    assert np.array_equal(x, x_ref)
    assert (it, rel, hist) == (it_ref, rel_ref, hist_ref)


def test_pcg_bitwise_reference_table_system(split_domain_op):
    # a zero mass shift keeps the Jacobi path, which the circulant (7
    # iterations here) would leave (see test_pcg_bitwise_reference_circulant)
    grid, op = split_domain_op
    b = build_rhs(op, GridFunction.from_callable(grid, lambda x: 1.0 + x * x))
    system = op.system(np.zeros(op.size))
    assert system.preconditioner == "jacobi"
    got = pcg(system, b, 1e-10, 500)
    assert got[1] > 10
    same_solve(got, reference_pcg(system, b, 1e-10, 500))


def test_pcg_bitwise_reference_with_guess(split_domain_op):
    _, op = split_domain_op
    rng = np.random.default_rng(21)
    b = rng.normal(size=op.size)
    system = op.system(op.volumes / 0.01)
    x0 = rng.normal(size=op.size)
    got = pcg(system, b, 1e-12, 500, x0=x0)
    assert got[1] > 0
    same_solve(got, reference_pcg(system, b, 1e-12, 500, x0=x0))


BOXES = [[[-1.0, -0.1], [-1.0, 1.0]], [[0.1, 1.0], [-0.5, 0.5]]]


def boxes_grid(n):
    """The two boxes of the elliptic benchmark geometry at resolution n."""
    c = box_grid(n, dim=2).centers
    mask = np.zeros(c.shape[0], dtype=bool)
    for (ax, bx), (ay, by) in BOXES:
        mask |= (c[:, 0] > ax) & (c[:, 0] < bx) & (c[:, 1] > ay) & (c[:, 1] < by)
    return box_grid(n, dim=2, mask=mask.reshape(n, n))


def test_pcg_bitwise_reference_circulant():
    grid = boxes_grid(32)
    c = GridFunction.from_callable(grid, lambda x, y: 10.0 * (x * x + y * y))
    op = assemble(power_kernel(0.5, dim=2), grid, c)
    b = build_rhs(op, GridFunction.from_callable(grid, lambda x, y: 1.0 + x * y))
    system = op.system()
    assert system.preconditioner == "circulant"
    got = pcg(system, b, 1e-10, 500)
    assert got[1] > 10
    same_solve(got, reference_pcg(system, b, 1e-10, 500))


@pytest.mark.parametrize("n", [64, 128])
def test_circulant_iterations_stay_flat(n):
    # Jacobi took 45/43 iterations at n = 64 and 64/57 at n = 128
    grid = boxes_grid(n)
    kernel = power_kernel(0.5, dim=2)
    op_u = assemble(kernel, grid)
    op_v = assemble(kernel, grid.ball_grid, shared=op_u.box_kernel)
    for op in (op_u, op_v):
        sol = solve_elliptic(op, GridFunction.constant(op.grid, 1.0))
        assert sol.preconditioner == "circulant"
        assert sol.iterations <= 25


def test_preconditioner_rule():
    grid = boxes_grid(16)
    op = assemble(power_kernel(0.5, dim=2), grid)
    assert op.system().preconditioner == "circulant"
    # a mass shift, as in every implicit-Euler step, keeps Jacobi
    assert op.system(op.volumes / 0.01).preconditioner == "jacobi"
    traj = parabolic_solve(op, np.ones(op.size), np.zeros(op.size), TimeGrid(1.0, 2))
    assert traj.preconditioner == "jacobi"
    # so do a near band and a median diagonal below the symbol's peak
    separable = Kernel(profile=RadialProfile.power(0.5, dimension=2), Lambda=2.0,
                       modulation=make_modulation("separable_cosine", 2.0, 2),
                       modulation_tag="separable_cosine")
    with pytest.warns(UserWarning, match="box margin"):
        banded = assemble(separable, grid)
    assert banded.system().preconditioner == "jacobi"
    sol = solve_elliptic(banded, GridFunction.constant(grid, 1.0))
    assert sol.preconditioner == "jacobi"
    low = OperatorSystem(op, np.full(op.size, 0.5 * op.symbol.max()))
    assert low.precondition is None and low.preconditioner == "jacobi"


def test_pcg_bitwise_reference_dense():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(40, 40))
    A = m @ m.T + 40.0 * np.eye(40)
    b = rng.normal(size=40) * 1e-7
    got = pcg(A, b, 1e-13, 200)
    assert got[1] > 5
    same_solve(got, reference_pcg(A, b, 1e-13, 200))


def half_order_apply(x, gamma):
    def p(y):
        return math.sqrt(max(1.0 - y * y, 0.0))

    def integrand(t):
        return (2.0 * p(x) - p(x + t) - p(x - t)) / (t * t)

    cuts = [0.0, 1.0 - abs(x), 1.0 + abs(x), 50.0]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(integrand, a + 1e-13, b, limit=400)
        total += val
    # analytic tail beyond the cut: integrand is 2 p(x) / t^2 there
    total += 2.0 * p(x) / cuts[-1]
    return gamma * total


def test_half_order_constant_oracle():
    gamma = 1.0 / math.pi
    for x in (0.0, 0.3, 0.55, 0.8):
        assert half_order_apply(x, gamma) == pytest.approx(1.0, abs=2e-5)


def test_closed_form_profile_refinement():
    gamma = 1.0 / math.pi
    kernel = power_kernel(0.5, gamma=gamma)
    errors = []
    for n in (64, 128, 256):
        grid = box_grid(n)
        op = assemble(kernel, grid)
        sol = solve_elliptic(op, GridFunction.constant(grid, 1.0))
        x = grid.centers[:, 0]
        exact = np.sqrt(1.0 - x * x)
        errors.append(np.max(np.abs(sol.vector - exact)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.03


def test_minimality_zero_perturbation(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.constant(grid, 1.0)
    sol = solve_elliptic(op, f)
    b = build_rhs(op, f)

    def functional(v):
        return 0.5 * energy(op, v) - float(b @ v)

    assert functional(sol.vector) - functional(sol.vector + 0.0) == 0.0


def test_minimality_residual_direction(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.constant(grid, 1.0)
    sol = solve_elliptic(op, f)
    b = build_rhs(op, f)
    r = b - op.matrix @ sol.vector
    norm = np.linalg.norm(r)
    if norm > 0:
        d = (1e-3 / norm) * r
    else:
        d = np.zeros_like(r)
        d[0] = 1e-3

    def functional(v):
        return 0.5 * energy(op, v) - float(b @ v)

    assert functional(sol.vector + d) - functional(sol.vector) >= -1e-8


def minimality_probe(op, f, solution, perturbations=100, scale=1e-3, seed=0):
    """Smallest change of the quadratic functional over random probes.

    The functional is 1/2 energy(u) - (b, u); at the discrete minimizer
    every probe of norm `scale` changes it by at least -1e-8.
    """
    b = build_rhs(op, f)
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


def test_minimality_random_probes(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.from_callable(grid, lambda x: np.exp(x))
    sol = solve_elliptic(op, f)
    worst = minimality_probe(op, f, sol, perturbations=100)
    assert worst >= -1e-8
    # probes are second-order in the scale, so the worst case is tiny but
    # genuinely nonnegative up to roundoff
    assert worst < 1e-3


def test_time_average_constant():
    grid = box_grid(16)
    tg = TimeGrid(horizon=2.0, steps=4)
    out = time_average(lambda x, t: np.full_like(x, 3.5), grid, tg)
    assert len(out) == 4
    for gf in out:
        assert np.allclose(gf.masked_values, 3.5, atol=1e-14)


def test_time_average_linear_in_time():
    grid = box_grid(16)
    tg = TimeGrid(horizon=4.0, steps=4)
    out = time_average(lambda x, t: t, grid, tg)
    assert np.allclose(out[0].masked_values, 0.5, atol=1e-13)
    assert np.allclose(out[3].masked_values, 3.5, atol=1e-13)


def test_time_average_sin_oracle():
    grid = box_grid(16)
    steps = 4
    tg = TimeGrid(horizon=math.pi, steps=steps)
    out = time_average(lambda x, t: math.sin(t), grid, tg)
    dt = tg.dt
    for n in range(steps):
        a, b = n * dt, (n + 1) * dt
        mean = (math.cos(a) - math.cos(b)) / dt
        assert np.allclose(out[n].masked_values, mean, atol=1e-10)


def test_time_average_respects_mask():
    n = 16
    grid = box_grid(n)
    x = grid.centers[:, 0]
    grid = box_grid(n, mask=x > 0)
    out = time_average(lambda x, t: 1.0 + 0.0 * x, grid, TimeGrid(1.0, 2))
    assert np.all(out[0].values[~grid.mask_flat] == 0.0)
    assert np.allclose(out[0].masked_values, 1.0)


def test_parabolic_zero_data_stays_zero(split_domain_op):
    grid, op = split_domain_op
    tg = TimeGrid(horizon=1.0, steps=5)
    traj = parabolic_solve(op, GridFunction.constant(grid, 0.0),
                           GridFunction.constant(grid, 0.0), tg)
    assert np.all(traj.states == 0.0)
    assert traj.residuals == (0.0,) * 5


def test_parabolic_single_huge_step_matches_elliptic(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.from_callable(grid, lambda x: 1.0 + 0.2 * np.sin(3 * x))
    ell = solve_elliptic(op, f)
    tg = TimeGrid(horizon=1e6, steps=1)
    traj = parabolic_solve(op, f, GridFunction.constant(grid, 0.0), tg)
    gap = np.max(np.abs(traj.states[0] - ell.vector))
    assert gap <= 1e-4 * np.max(np.abs(ell.vector))


def test_parabolic_approaches_steady_state(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.constant(grid, 1.0)
    # strict decay down to distances of about 2e-12 needs both solves well
    # below that, which the default tol of 1e-10 does not resolve
    ell = solve_elliptic(op, f, tol=1e-12)
    tg = TimeGrid(horizon=8.0, steps=20)
    traj = parabolic_solve(op, f, GridFunction.constant(grid, 0.0), tg,
                           tol=1e-12)
    dists = [np.max(np.abs(traj.states[n] - ell.vector)) for n in range(15, 20)]
    assert all(a > b for a, b in zip(dists[:-1], dists[1:]))
    assert dists[-1] < 1e-3 * np.max(np.abs(ell.vector))


def test_extrapolated_march_tracks_tight_cold_march(split_domain_op):
    # each step starts CG from 2 u_n - u_{n-1}; the final state must stay
    # within 5e-9 relative of a cold march at tol 1e-14 from 10 to 10,000
    # steps (starting from the previous state alone drifts to about 1.3e-8
    # at 10,000 steps), and take at most 60 % of a cold march's iterations
    grid, op = split_domain_op
    f = np.ones(op.size)
    u0 = np.zeros(op.size)
    warm_its = cold_its = 0
    for steps in (10, 100, 1000, 10_000):
        tg = TimeGrid(horizon=1.0, steps=steps)
        traj = parabolic_solve(op, f, u0, tg)
        warm_its += sum(traj.iterations)
        shifted = op.matrix + np.diag(op.volumes / tg.dt)
        ref = cold = u0
        for _ in range(steps):
            ref, _, _, _ = pcg(shifted, op.volumes * (f + ref / tg.dt),
                               1e-14, 10_000)
            cold, it, _, _ = pcg(shifted, op.volumes * (f + cold / tg.dt),
                                 1e-10, 10_000)
            cold_its += it
        gap = np.max(np.abs(traj.states[-1] - ref))
        assert gap <= 5e-9 * np.max(np.abs(ref)), steps
    assert warm_its <= 0.6 * cold_its


def test_parabolic_step_error_reports_index(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.constant(grid, 1.0)
    with pytest.raises(SolverError, match="time step 0"):
        parabolic_solve(op, f, GridFunction.constant(grid, 0.0),
                        TimeGrid(1.0, 2), max_iter=1)


def test_parabolic_rejects_bad_step_counts(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.constant(grid, 1.0)
    with pytest.raises(ValueError):
        parabolic_solve(op, f, f, TimeGrid(1.0, 0))
    with pytest.raises(ValueError):
        parabolic_solve(op, [f.masked_values] * 3, f, TimeGrid(1.0, 2))


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(min_value=1e-3, max_value=1e3))
def test_parabolic_norm_nonincreasing_without_load(dt):
    grid = box_grid(24)
    op = assemble(power_kernel(0.4), grid)
    rng = np.random.default_rng(11)
    u0 = rng.uniform(-1.0, 1.0, size=op.size)
    tg = TimeGrid(horizon=dt * 6, steps=6)
    traj = parabolic_solve(op, np.zeros(op.size), u0, tg)

    def mnorm(v):
        return math.sqrt(float(np.dot(op.volumes * v, v)))

    norms = [mnorm(u0)] + [mnorm(traj.states[n]) for n in range(6)]
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a + 1e-12 * norms[0]


def test_parabolic_time_dependent_coefficient():
    grid = box_grid(24)
    base = assemble(power_kernel(0.4), grid)
    tg = TimeGrid(horizon=1.0, steps=4)
    c_seq = time_average(lambda x, t: t * np.ones_like(x), grid, tg)

    def factory(n):
        return base.with_cdiag(base.volumes * c_seq[n].masked_values)

    f = GridFunction.constant(grid, 1.0)
    traj = parabolic_solve(factory, f, GridFunction.constant(grid, 0.0), tg)
    # manual steps as an independent route: step 1 from u_0 = 0 with the
    # step-0 coefficient, step 2 from the march's u_1 with the step-1 one
    dt = tg.dt

    def manual_step(n, u):
        shifted = base.matrix + np.diag(
            base.volumes * (c_seq[n].masked_values + 1.0 / dt))
        return np.linalg.solve(shifted, base.volumes * (f.masked_values + u / dt))

    assert np.max(np.abs(traj.states[0] - manual_step(0, 0.0))) < 1e-9
    assert np.max(np.abs(traj.states[1] - manual_step(1, traj.states[0]))) < 1e-9
    # the step-0 coefficient would not reproduce step 2
    assert np.max(np.abs(traj.states[1] - manual_step(0, traj.states[0]))) > 1e-4


def test_generator_loads_match_list(split_domain_op):
    # a generator is read one step at a time and marches bit for bit like
    # the list of the same loads; a short or long one is refused
    grid, op = split_domain_op
    tg = TimeGrid(1.0, 5)
    loads = [np.full(op.size, 1.0 + n) for n in range(tg.steps)]
    u0 = GridFunction.constant(grid, 0.0)
    listed = parabolic_solve(op, loads, u0, tg)
    streamed = parabolic_solve(op, (x for x in loads), u0, tg)
    assert np.array_equal(listed.states, streamed.states)
    assert all(np.array_equal(a, b) for a, b in zip(listed.f_seq, streamed.f_seq))
    for wrong in (loads[:-1], loads + loads[:1]):
        with pytest.raises(ValueError, match="one load per time step"):
            parabolic_solve(op, (x for x in wrong), u0, tg)


def test_fixed_operator_march_keeps_one_load():
    # a constant load is stored once, so the march's arrays beyond its
    # states stay O(m); a (steps, m) record of the load would double them
    grid = box_grid(1024)
    op = assemble(power_kernel(0.5), grid)
    f = np.ones(op.size)
    tracemalloc.start()
    try:
        traj = parabolic_solve(op, f, np.zeros(op.size), TimeGrid(1.0, 400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * traj.states.nbytes
    assert len(traj.f_seq) == 400
    assert all(load is traj.f_seq[0] for load in traj.f_seq)
    f[:] = 2.0
    assert np.all(traj.f_seq[0] == 1.0)


@pytest.mark.parametrize("data", ["unit", "random"])
def test_march_tolerance_error_growth(split_domain_op, data):
    # end-state gap of a tol = 1e-10 march to a tol = 1e-14 march; it grows
    # with the step count (from about 1e-11 at 10 steps to 2e-10 and 3e-10
    # at 1,000) and must stay within the benchmark's 1e-8 reference drift
    grid, op = split_domain_op
    if data == "unit":
        f, u0 = np.ones(op.size), np.zeros(op.size)
    else:
        rng = np.random.default_rng(17)
        f, u0 = rng.uniform(0.0, 1.0, size=(2, op.size))
    for steps in (10, 100, 1000):
        tg = TimeGrid(horizon=1.0, steps=steps)
        loose = parabolic_solve(op, f, u0, tg).states[-1]
        tight = parabolic_solve(op, f, u0, tg, tol=1e-14).states[-1]
        assert np.max(np.abs(loose - tight)) <= 1e-8, steps


def test_ledger_zero_data(split_domain_op):
    grid, op = split_domain_op
    zero = GridFunction.constant(grid, 0.0)
    traj = parabolic_solve(op, zero, zero, TimeGrid(1.0, 4))
    ledger = discrete_energy_ledger(traj)
    assert np.all(ledger.lhs == 0.0)
    assert np.all(ledger.rhs == 0.0)
    assert ledger.c_fit == 0.0
    assert ledger.identity_residual == 0.0


def test_ledger_dissipation_identity_without_load(split_domain_op):
    grid, op = split_domain_op
    rng = np.random.default_rng(3)
    u0 = rng.uniform(0.0, 1.0, size=op.size)
    traj = parabolic_solve(op, np.zeros(op.size), u0, TimeGrid(2.0, 16))
    ledger = discrete_energy_ledger(traj)
    u0_sq = float(np.dot(op.volumes * u0, u0))
    # with no source every cumulative row collapses to the initial mass
    assert np.max(np.abs(ledger.lhs - u0_sq)) <= 1e-10 * u0_sq
    assert ledger.identity_residual <= 1e-10


def test_ledger_identity_with_load(split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.from_callable(grid, lambda x: np.cos(x))
    u0 = GridFunction.from_callable(grid, lambda x: np.exp(-4 * x * x))
    traj = parabolic_solve(op, f, u0, TimeGrid(1.0, 12))
    ledger = discrete_energy_ledger(traj)
    assert ledger.identity_residual <= 1e-8
    assert np.all(ledger.lhs <= ledger.c_fit * ledger.rhs + 1e-12)


def test_ledger_cfit_stable_under_step_refinement():
    grid = box_grid(32)
    op = assemble(power_kernel(0.5), grid)
    f = GridFunction.constant(grid, 1.0)
    u0 = GridFunction.constant(grid, 0.0)
    fits = []
    for steps in (16, 32, 64):
        traj = parabolic_solve(op, f, u0, TimeGrid(1.0, steps))
        fits.append(discrete_energy_ledger(traj).c_fit)
    assert max(fits) / min(fits) < 2.0
    assert all(np.isfinite(v) and v > 0 for v in fits)


# spec-level invariants

@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(min_value=-4.0, max_value=4.0),
       beta=st.floats(min_value=-4.0, max_value=4.0))
def test_linearity_of_solve(alpha, beta):
    grid = box_grid(24)
    op = assemble(power_kernel(0.45), grid)
    x = grid.centers[:, 0]
    f1 = np.cos(2 * x)
    f2 = np.exp(-x)
    u1 = solve_elliptic(op, f1).vector
    u2 = solve_elliptic(op, f2).vector
    combined = solve_elliptic(op, alpha * f1 + beta * f2).vector
    scale = max(np.max(np.abs(combined)), 1.0)
    assert np.max(np.abs(combined - alpha * u1 - beta * u2)) <= 1e-9 * scale


@pytest.mark.parametrize("alpha", [3.88e-160, 1e-170])
def test_tiny_load_scales_the_solution(alpha):
    # norm(b) underflows for these loads unless pcg rescales them first
    grid = box_grid(24)
    op = assemble(power_kernel(0.45), grid)
    f = np.cos(2 * grid.centers[:, 0])
    u1 = solve_elliptic(op, f).vector
    u = solve_elliptic(op, alpha * f).vector
    assert np.max(np.abs(u - alpha * u1)) <= 1e-9 * np.max(np.abs(alpha * u1))


def test_reflection_symmetry_of_solution():
    n = 48
    grid = box_grid(n)
    x = grid.centers[:, 0]
    grid = box_grid(n, mask=np.abs(x) > 0.2)
    op = assemble(power_kernel(0.4), grid,
                  c=np.abs(grid.centers[grid.masked_indices, 0]))
    f = GridFunction.from_callable(grid, lambda x: np.cos(3 * x))
    sol = solve_elliptic(op, f)
    vals = sol.function.values
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-9


def test_radiality_of_symmetrized_solution():
    n = 96
    grid = box_grid(n)
    raw = GridFunction.from_callable(
        grid, lambda x: np.exp(-3 * np.abs(x)) + 0.2 * (np.abs(x) < 0.4))
    fs = schwarz_rearrangement(raw)
    ball = fs.grid
    c_inc = ball.centers[ball.masked_indices, 0] ** 2
    op = assemble(power_kernel(0.5), ball, c=c_inc)
    sol = solve_elliptic(op, fs)
    resym = schwarz_rearrangement(sol.function)
    assert np.max(np.abs(sol.function.values - resym.values)) <= 1e-9


def test_radial_mode_parabolic_smoke():
    # the symmetrized problem on the ball grid: radial load and initial
    # data keep every state its own Schwarz rearrangement
    n = 64
    x = box_grid(n).centers[:, 0]
    raw = GridFunction.from_callable(box_grid(n, mask=np.abs(x) > 0.3),
                                     lambda x: np.exp(-2 * np.abs(x)))
    fs = schwarz_rearrangement(raw)
    op = assemble(power_kernel(0.4), fs.grid)
    traj = parabolic_solve(op, fs, 0.5 * fs.masked_values, TimeGrid(1.0, 4))
    assert np.all(np.isfinite(traj.states))
    assert discrete_energy_ledger(traj).identity_residual <= 1e-8
    final = traj.state_function(3)
    resym = schwarz_rearrangement(final)
    assert np.max(np.abs(final.values - resym.values)) <= 1e-9


def test_write_trajectory_artifacts(tmp_path, split_domain_op):
    grid, op = split_domain_op
    f = GridFunction.constant(grid, 1.0)
    traj = parabolic_solve(op, f, GridFunction.constant(grid, 0.0),
                           TimeGrid(1.0, 3))
    out = tmp_path / "traj"
    write_trajectory(traj, out)
    files = sorted(p.name for p in out.iterdir())
    assert files == ["index.json", "u_1.csv", "u_2.csv", "u_3.csv"]
    back = read_gridfunction_csv(out / "u_3.csv")
    assert np.allclose(back.values, traj.state_function(2).values, atol=1e-15)
    import json
    index = json.loads((out / "index.json").read_text())
    assert index["t"] == [pytest.approx(v) for v in (1 / 3, 2 / 3, 1.0)]
    assert len(index["residuals"]) == 3
    assert index["ledger_c_fit"] > 0


def two_piece_ops():
    """FFT-path operators on a masked 1-D and 2-D grid: unmodulated, and
    separable_cosine on the 2-D grid."""
    x = box_grid(64).centers[:, 0]
    g1 = box_grid(64, mask=(x < -0.3) | (x > 0.1))
    c = box_grid(16, dim=2).centers
    g2 = box_grid(16, dim=2,
                  mask=((c[:, 0] < -0.2) | ((c[:, 1] > 0.3) & (c[:, 0] < 0.6))
                        ).reshape(16, 16))
    separable = Kernel(profile=RadialProfile.power(0.3, dimension=2), Lambda=2.0,
                       modulation=make_modulation("separable_cosine", 2.0, 2),
                       modulation_tag="separable_cosine")
    return [assemble(power_kernel(0.4), g1),
            assemble(power_kernel(0.3, dim=2), g2,
                     GridFunction.constant(g2, 0.5)),
            assemble(separable, g2, GridFunction.constant(g2, 0.5))]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_parabolic_fft_march_matches_dense_march(index):
    op = two_piece_ops()[index]
    assert op.diagnostics["matvec"] == "fft"
    tg = TimeGrid(horizon=0.5, steps=6)
    rng = np.random.default_rng(5)
    f = rng.uniform(0.0, 1.0, size=op.size)
    u0 = rng.uniform(0.0, 1.0, size=op.size)
    traj = parabolic_solve(op, f, u0, tg)
    # the same march through the dense shifted matrix, from the same
    # extrapolated guesses
    dense = op.matrix + np.diag(op.volumes / tg.dt)
    u = prev = u0
    for n in range(tg.steps):
        guess = 2.0 * u - prev
        prev = u
        u, it, _, _ = pcg(dense, op.volumes * (f + u / tg.dt), 1e-10, 10_000,
                          x0=guess)
        assert traj.iterations[n] == it
        assert np.max(np.abs(traj.states[n] - u)) <= 1e-12 * np.max(np.abs(u))


class DenseSystem:
    """A dense matrix with the preconditioner of an operator's system, so
    that pcg runs the same loop through dense products."""

    def __init__(self, matrix, system):
        self.matrix, self.shape = matrix, matrix.shape
        self.precondition = system.precondition

    def diagonal(self):
        return self.matrix.diagonal()

    def __matmul__(self, x):
        return self.matrix @ x


@pytest.mark.parametrize("index", [0, 1, 2])
def test_elliptic_fft_solve_skips_dense_matrix(index):
    op = two_piece_ops()[index]
    f = GridFunction.constant(op.grid, 1.0)
    sol = solve_elliptic(op, f)
    assert "matrix" not in vars(op)
    assert "weight_matrix" not in vars(op)
    assert sol.preconditioner == ("jacobi" if index == 2 else "circulant")
    dense = DenseSystem(op.matrix, op.system())
    x, it, _, _ = pcg(dense, build_rhs(op, f), 1e-10, 10_000)
    assert sol.iterations == it
    assert np.max(np.abs(sol.vector - x)) <= 1e-12 * np.max(np.abs(x))


def test_load_on_another_mask_is_rejected():
    g = Grid(1, 1.0, 16, np.ones(16, dtype=bool))
    op = assemble(Kernel(profile=RadialProfile.power(0.3, dimension=1)), g, None)
    half = Grid(1, 1.0, 16, np.arange(16) < 8)
    with pytest.raises(ValueError, match="mask"):
        solve_elliptic(op, GridFunction.constant(half, 1.0))
    with pytest.raises(ValueError, match="mask"):
        parabolic_solve(op, GridFunction.constant(g, 1.0),
                        GridFunction.constant(half, 1.0), TimeGrid(1.0, 2))
