"""Acceptance suite: nine criteria, one test and one printed verdict line
each.

Each criterion states its tolerance and runtime cap inline.  Randomized
suites use fixed seeds so reruns are byte-for-byte comparable.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from levysym.assembly import assemble
from levysym.kernels import Kernel, RadialProfile
from levysym.rearrange import (Grid, GridFunction, hardy_littlewood_slack,
                               schwarz_rearrangement)
from levysym.solvers import TimeGrid, parabolic_solve, solve_elliptic
from levysym.verify import (check_comparison, check_energy_comparison,
                            check_coarea, check_lens_geometry,
                            check_max_principle, check_maxmin_lemma,
                            check_parabolic_comparison, check_phi_monotonicity,
                            check_polya_szego, check_riesz, tau)


def box_grid(n, dim=1, mask=None):
    if mask is None:
        mask = np.ones((n,) * dim, dtype=bool)
    return Grid(dimension=dim, half_width=1.0, n=n, mask=mask)


def two_interval_grid(n):
    g = box_grid(n)
    x = g.centers[:, 0]
    mask = ((x > -1.0) & (x < -0.2)) | ((x > 0.2) & (x < 1.0))
    return box_grid(n, mask=mask)


def fractional_kernel(s, dim=1, gamma=1.0):
    return Kernel(profile=RadialProfile.power(s=s, dimension=dim,
                                              gamma=gamma))


def solve_pair(grid, kernel, f, c=None):
    """Original problem and its symmetrized counterpart."""
    op_u = assemble(kernel, grid, c=c)
    u = solve_elliptic(op_u, f)
    ball = grid.ball_grid
    c_sharp = None
    if c is not None:
        full = np.zeros(grid.cell_count)
        full[grid.masked_indices] = c
        c_sharp = schwarz_rearrangement(GridFunction(grid, full),
                                        direction="increasing").masked_values
    op_v = assemble(Kernel(profile=kernel.profile), ball, c=c_sharp)
    v = solve_elliptic(op_v, schwarz_rearrangement(f))
    return op_u, u, op_v, v


@pytest.fixture(scope="module")
def main_scenarios():
    """Criterion 2/3 share these runs: s x {c=0, c radial} x {n=128, 256}."""
    t0 = time.perf_counter()
    runs = {}
    for s in (0.25, 0.5, 0.75):
        for c_tag in ("zero", "radial"):
            for n in (128, 256):
                grid = two_interval_grid(n)
                c = (None if c_tag == "zero"
                     else grid.centers[grid.masked_indices, 0] ** 2)
                f = GridFunction.constant(grid, 1.0)
                op_u, u, op_v, v = solve_pair(grid, fractional_kernel(s), f,
                                              c=c)
                comp = check_comparison(u.function, v.function)
                ener = check_energy_comparison(op_u, u.vector, op_v, v.vector)
                runs[s, c_tag, n] = {"comparison": comp, "energy": ener,
                                     "h": grid.h}
    runs["seconds"] = time.perf_counter() - t0
    return runs


def test_criterion_1_equality_sanity():
    t0 = time.perf_counter()
    n = 256
    grid = box_grid(n, mask=np.abs(box_grid(n).centers[:, 0]) < 0.8).ball_grid
    kernel = fractional_kernel(0.5)
    c = grid.centers[grid.masked_indices, 0] ** 2
    f = GridFunction.from_callable(grid, lambda x: np.exp(-2.0 * x * x))
    op_u, u, op_v, v = solve_pair(grid, kernel, f, c=c)
    assert np.array_equal(op_u.matrix, op_v.matrix), \
        "equality configuration must produce the identical discrete system"
    rep = check_comparison(u.function, v.function)
    seconds = time.perf_counter() - t0
    assert abs(rep.slack) <= 1e-8
    assert seconds < 5.0
    print(f"\n[criterion 1] PASS: equality config, max concentration diff "
          f"{rep.slack:.2e} <= 1e-8, {seconds:.2f}s")


def test_criterion_2_main_comparison(main_scenarios):
    lines = []
    for s in (0.25, 0.5, 0.75):
        for c_tag in ("zero", "radial"):
            fine = main_scenarios[s, c_tag, 256]["comparison"]
            coarse = main_scenarios[s, c_tag, 128]["comparison"]
            tol = tau(main_scenarios[s, c_tag, 256]["h"])
            assert fine.slack <= tol, (s, c_tag)
            decay = abs(coarse.slack) / abs(fine.slack)
            assert decay >= 1.5, (s, c_tag, decay)
            lines.append(f"s={s} c={c_tag}: slack {fine.slack:+.2e} "
                         f"<= {tol:.1e}, decay {decay:.2f}x")
    seconds = main_scenarios["seconds"]
    assert seconds < 60.0
    print(f"\n[criterion 2] PASS: " + "; ".join(lines)
          + f"; total {seconds:.1f}s")


def test_criterion_3_energy_estimate(main_scenarios):
    worst = -math.inf
    for s in (0.25, 0.5, 0.75):
        for c_tag in ("zero", "radial"):
            rep = main_scenarios[s, c_tag, 256]["energy"]
            tol = tau(main_scenarios[s, c_tag, 256]["h"])
            assert rep.slack <= tol, (s, c_tag)
            worst = max(worst, rep.slack)
    print(f"\n[criterion 3] PASS: energy slack <= tau(h) in all six "
          f"scenarios, worst {worst:+.2e}")


def test_criterion_4_closed_form_solve():
    t0 = time.perf_counter()
    # the oracle applies the operator with unit constant to the candidate
    # profile by quadrature; the constant that makes the image one is the
    # reciprocal of the measured value
    profile = lambda y: np.maximum(0.0, 1.0 - np.square(y)) ** 0.5

    def unit_image(x):
        def integrand(t):
            return (2.0 * profile(x) - profile(x + t) - profile(x - t)) / t ** 2
        cuts = sorted({1.0 - abs(x), 1.0 + abs(x)})
        val = 0.0
        lo = 0.0
        for hi in cuts + [50.0]:
            part, _ = quad(integrand, lo, hi, limit=400)
            val += part
            lo = hi
        return val + 2.0 * profile(x) / 50.0

    images = [unit_image(x) for x in (-0.55, -0.2, 0.1, 0.45)]
    gamma = 1.0 / float(np.mean(images))
    assert abs(gamma - 1.0 / math.pi) < 1e-4 * (1.0 / math.pi), \
        "oracle constant should match the half-order normalization"

    errors = []
    for n in (64, 128, 256):
        grid = box_grid(n)
        op = assemble(fractional_kernel(0.5, gamma=gamma), grid)
        u = solve_elliptic(op, GridFunction.constant(grid, 1.0))
        exact = profile(grid.centers[grid.masked_indices, 0])
        errors.append(float(np.max(np.abs(u.vector - exact))))
    seconds = time.perf_counter() - t0
    assert errors[0] > errors[1] > errors[2], errors
    assert seconds < 30.0
    print(f"\n[criterion 4] PASS: gamma={gamma:.6f} from quadrature oracle, "
          f"Linf errors {errors[0]:.3e} > {errors[1]:.3e} > {errors[2]:.3e}, "
          f"{seconds:.1f}s")


def test_criterion_5_parabolic_comparison():
    t0 = time.perf_counter()
    n = 128
    grid = two_interval_grid(n)
    kernel = fractional_kernel(0.5)
    op_u = assemble(kernel, grid)
    op_v = assemble(kernel, grid.ball_grid)
    f = GridFunction.constant(grid, 1.0)
    fs = schwarz_rearrangement(f)
    u0 = GridFunction.from_callable(
        grid, lambda x: np.exp(-40.0 * (x - 0.55) ** 2))
    tg = TimeGrid(1.0, 32)
    traj_u = parabolic_solve(op_u, f, u0, tg)
    traj_v = parabolic_solve(op_v, fs, schwarz_rearrangement(u0), tg)
    reps = check_parabolic_comparison(traj_u, traj_v)
    tol = tau(grid.h)
    assert len(reps) == 32
    assert all(r.slack <= tol for r in reps)
    elliptic = check_comparison(solve_elliptic(op_u, f).function,
                                solve_elliptic(op_v, fs).function)
    ratio = abs(reps[-1].slack) / abs(elliptic.slack)
    seconds = time.perf_counter() - t0
    assert 0.5 <= ratio <= 2.0, ratio
    assert seconds < 120.0
    print(f"\n[criterion 5] PASS: 32 steps all <= {tol:.1e}, final slack "
          f"{reps[-1].slack:+.2e}, final/elliptic {ratio:.2f}, {seconds:.1f}s")


def test_criterion_6_exact_discrete_identities():
    t0 = time.perf_counter()
    grid = two_interval_grid(64)
    op = assemble(fractional_kernel(0.5), grid)
    rng = np.random.default_rng(60601)

    def random_function(low=0.0):
        vals = np.zeros(grid.cell_count)
        vals[grid.mask_flat] = rng.uniform(low, 1.0, grid.masked_count)
        return GridFunction(grid, vals)

    worst_coarea = 0.0
    for _ in range(100):
        u = random_function()
        plain = check_coarea(op, u)
        trunc = check_coarea(op, u, "truncated", level=0.3, height=0.5)
        assert plain.slack <= 1e-10 and trunc.slack <= 1e-10
        worst_coarea = max(worst_coarea, plain.slack, trunc.slack)

    worst_hl = math.inf
    for _ in range(1000):
        slack = hardy_littlewood_slack(random_function(), random_function())
        assert slack >= -1e-12
        worst_hl = min(worst_hl, slack)

    worst_mp = -math.inf
    for _ in range(50):
        f = -rng.uniform(0.0, 1.0, op.size)
        rep = check_max_principle(op, f)
        assert rep.slack <= 1e-10
        worst_mp = max(worst_mp, rep.slack)
    seconds = time.perf_counter() - t0
    assert seconds < 30.0
    print(f"\n[criterion 6] PASS: coarea worst {worst_coarea:.1e} <= 1e-10 "
          f"(100 functions, both modes), HL worst {worst_hl:+.1e} >= -1e-12 "
          f"(1000 pairs), max principle worst {worst_mp:+.1e} <= 1e-10 "
          f"(50 sources), {seconds:.1f}s")


def test_criterion_7_inequality_suites():
    t0 = time.perf_counter()
    grid = two_interval_grid(64)
    tol = tau(grid.h)
    rng = np.random.default_rng(70707)

    def random_function():
        vals = np.zeros(grid.cell_count)
        vals[grid.mask_flat] = rng.uniform(0.0, 1.0, grid.masked_count)
        return GridFunction(grid, vals)

    W = RadialProfile.exponential(lam=2.0, dimension=1)
    worst_riesz = -math.inf
    for _ in range(500):
        rep = check_riesz(W, random_function(), random_function())
        assert rep.slack <= rep.tolerance
        worst_riesz = max(worst_riesz, rep.slack)

    kernel = fractional_kernel(0.5)
    op = assemble(kernel, grid)
    op_ball = assemble(kernel, grid.ball_grid)
    worst_ps = -math.inf
    for _ in range(200):
        rep = check_polya_szego(op, op_ball, random_function())
        assert rep.slack <= tol
        worst_ps = max(worst_ps, rep.slack)

    profiles = [RadialProfile.power(s=0.5, dimension=1),
                RadialProfile.sum_of_powers(s_list=[0.25, 0.75], dimension=1),
                RadialProfile.logarithmic(eps=1.0, dimension=1),
                RadialProfile.exponential(lam=1.0, dimension=1)]
    worst_phi = -math.inf
    for prof in profiles:
        rep = check_phi_monotonicity(prof, r=0.8, samples=64)
        assert rep.slack <= 1e-8, prof.kind
        worst_phi = max(worst_phi, rep.slack)

    worst_lens = -math.inf
    for r, rho, rho_p in [(1.0, 0.3, 0.8), (0.7, 0.5, 1.2), (2.0, 0.1, 3.9),
                          (1.0, 0.0, 2.0), (1.5, 0.6, 0.6)]:
        rep = check_lens_geometry(r, rho, rho_p)
        assert rep.passed, (r, rho, rho_p)
        worst_lens = max(worst_lens, rep.slack)
    seconds = time.perf_counter() - t0
    assert seconds < 120.0
    print(f"\n[criterion 7] PASS: Riesz worst {worst_riesz:+.1e} (500 trials),"
          f" PS worst {worst_ps:+.1e} (200 trials) <= {tol:.1e}, phi "
          f"monotonicity worst {worst_phi:.1e} <= 1e-8 (4 kernels), lens "
          f"worst {worst_lens:.1e} within 1e-6, {seconds:.1f}s")


def test_criterion_8_planar_smoke():
    try:
        import resource
    except ImportError:
        resource = None
    t0 = time.perf_counter()
    n = 64
    g0 = box_grid(n, dim=2)
    x, y = g0.centers[:, 0], g0.centers[:, 1]
    mask = (((x > -0.85) & (x < -0.15) & (y > -0.35) & (y < 0.35))
            | ((x > 0.25) & (x < 0.75) & (y > 0.05) & (y < 0.55)))
    grid = box_grid(n, dim=2, mask=mask.reshape(n, n))
    kernel = fractional_kernel(0.5, dim=2)
    op_u = assemble(kernel, grid)
    op_v = assemble(kernel, grid.ball_grid)
    assembly_seconds = time.perf_counter() - t0
    f = GridFunction.constant(grid, 1.0)
    u = solve_elliptic(op_u, f)
    v = solve_elliptic(op_v, schwarz_rearrangement(f))
    rep = check_comparison(u.function, v.function)
    tol = tau(grid.h)
    assert rep.slack <= tol
    assert assembly_seconds <= 60.0
    peak_gb = float("nan")
    if resource is not None:
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2 ** 20
        assert peak_gb <= 1.0, f"peak memory {peak_gb:.2f} GB"
    print(f"\n[criterion 8] PASS: two disjoint squares, slack "
          f"{rep.slack:+.2e} <= {tol:.1e}, assembly {assembly_seconds:.1f}s, "
          f"peak {peak_gb:.2f} GB")


def test_criterion_9_maxmin_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90909)
    active = vacuous = 0
    for _ in range(1000):
        m = int(rng.integers(3, 24))
        u = rng.uniform(0.0, 1.0, m)
        v = rng.uniform(0.0, 1.0, m)
        h1 = rng.uniform(0.1, 0.6) + np.cumsum(rng.uniform(0.0, 0.5, m))
        h2 = (rng.uniform(0.1, 0.6) + np.cumsum(rng.uniform(0.0, 0.5, m)))[::-1].copy()
        volumes = rng.uniform(0.5, 1.5, m)
        rep = check_maxmin_lemma(u, v, h1, h2, volumes=volumes)
        assert rep.passed, "hypothesis-satisfying case must conclude strictly"
        if rep.metadata["vacuous"]:
            vacuous += 1
        else:
            active += 1
    seconds = time.perf_counter() - t0
    assert active > 0, "suite must exercise non-vacuous cases"
    assert active + vacuous == 1000
    assert seconds < 10.0
    print(f"\n[criterion 9] PASS: 1000 radial pairs, {active} active all "
          f"strict, {vacuous} vacuous reported as such, zero counterexamples,"
          f" {seconds:.1f}s")
