"""Inequality harness tests.

Equality configurations pin the exact cases (identical systems, radial
data), randomized suites probe the inequality direction at small scale,
and the acceptance suite reruns them at full trial counts.
"""

import inspect
import json
import math
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.integrate import dblquad

from levysym import verify
from levysym.assembly import (DiscreteOperator, assemble, build_rhs, energy,
                              masked_vector)
from levysym.kernels import (IntegrabilityError, Kernel, RadialProfile,
                             make_modulation)
from levysym.rearrange import (Grid, GridFunction, concentration_dominates,
                               schwarz_rearrangement)
from levysym.solvers import TimeGrid, parabolic_solve, solve_elliptic
from levysym.verify import (CheckReport, check_coarea, check_comparison,
                            check_energy_comparison, check_lens_geometry,
                            check_level_set_inequality, check_max_principle,
                            check_maxmin_lemma, check_parabolic_comparison,
                            check_phi_monotonicity, check_polya_szego,
                            check_riesz, config_hash, phi_values, tau,
                            truncate, write_reports)


def box_grid(n, dim=1, half_width=1.0, mask=None):
    if mask is None:
        mask = np.ones((n,) * dim, dtype=bool)
    return Grid(dimension=dim, half_width=half_width, n=n, mask=mask)


def interval_domain(n, pieces, half_width=1.0):
    g = box_grid(n, half_width=half_width)
    x = g.centers[:, 0]
    mask = np.zeros(n, dtype=bool)
    for a, b in pieces:
        mask |= (x > a) & (x < b)
    return box_grid(n, half_width=half_width, mask=mask)


def power_kernel(s, dim=1, gamma=1.0):
    return Kernel(profile=RadialProfile.power(s=s, dimension=dim, gamma=gamma))


def random_gridfunction(grid, rng, low=0.0, high=1.0):
    vals = np.zeros(grid.cell_count)
    vals[grid.mask_flat] = rng.uniform(low, high, grid.masked_count)
    return GridFunction(grid, vals)


class TestCheckReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckReport("x", float("nan"), 1e-8, True, {})
        with pytest.raises(ValueError):
            CheckReport("x", 0.0, 0.0, True, {})

    def test_tau(self):
        assert tau(1.0) == 0.05
        assert tau(1e-9) == 1e-8
        assert tau(0.5, kappa_tol=0.2) == 0.1

    def test_jsonl_roundtrip_and_determinism(self, tmp_path):
        reports = [CheckReport("a", 0.25, 1e-3, False, {"r": 0.5}),
                   CheckReport("b", -1.0, 1e-8, True, {"cell": 3})]
        digest = config_hash({"n": 64})
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        write_reports(reports, p1, digest)
        write_reports(reports, p2, digest)
        assert p1.read_bytes() == p2.read_bytes()
        lines = [json.loads(line) for line in p1.read_text().splitlines()]
        assert lines[0] == {"check": "a", "slack": 0.25, "tolerance": 1e-3,
                            "pass": False, "worst_location": {"r": 0.5},
                            "config_hash": digest}

    def test_json_ready_plain_values(self):
        obj = {1: np.bool_(True), "a": (np.int64(3), np.float32(0.5)),
               "b": np.arange(4.0).reshape(2, 2), "c": [np.uint8(7), None, "s"],
               "d": np.array(2.5)}
        got = verify.json_ready(obj)
        assert got == {"1": True, "a": [3, 0.5], "b": [[0.0, 1.0], [2.0, 3.0]],
                       "c": [7, None, "s"], "d": 2.5}
        assert [type(v) for v in (got["1"], got["a"][0], got["a"][1], got["c"][0])] \
            == [bool, int, float, int]
        json.dumps(got)

    def test_config_hash_stable(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 16


def comparison_pipeline(grid, kernel, f, c=None, c_sharp_direction="increasing"):
    """Solve the problem and its symmetrized counterpart, returning
    (op_u, u, op_v, v)."""
    op_u = assemble(kernel, grid, c=c)
    u = solve_elliptic(op_u, f)
    ball = grid.ball_grid
    f_sharp = schwarz_rearrangement(f)
    c_sharp = None
    if c is not None:
        cf = np.zeros(grid.cell_count)
        cf[grid.masked_indices] = c
        c_sharp = schwarz_rearrangement(
            GridFunction(grid, cf), direction=c_sharp_direction).masked_values
    sym_kernel = Kernel(profile=kernel.profile)
    op_v = assemble(sym_kernel, ball, c=c_sharp)
    v = solve_elliptic(op_v, f_sharp)
    return op_u, u, op_v, v


class TestComparison:
    def test_equality_configuration(self):
        n = 64
        g = box_grid(n)
        x = g.centers[:, 0]
        grid = box_grid(n, mask=np.abs(x) < 0.6)
        kernel = power_kernel(0.5)
        c = grid.centers[grid.masked_indices, 0] ** 2
        f = GridFunction.from_callable(
            grid, lambda x: np.maximum(0.0, 1.0 - np.abs(x)))
        op_u, u, op_v, v = comparison_pipeline(grid, kernel, f, c=c)
        assert np.array_equal(op_u.matrix, op_v.matrix)
        rep = check_comparison(u.function, v.function)
        assert rep.slack <= 1e-9
        assert rep.passed

    def test_two_interval_scenario_decay(self):
        kernel = power_kernel(0.5)
        slacks = {}
        for n in (64, 128):
            grid = interval_domain(n, [(-1.0, -0.2), (0.2, 1.0)])
            f = GridFunction.constant(grid, 1.0)
            _, u, _, v = comparison_pipeline(grid, kernel, f)
            rep = check_comparison(u.function, v.function)
            assert rep.passed
            slacks[n] = rep.slack
        assert abs(slacks[64]) / abs(slacks[128]) >= 1.5

    def test_doubled_source_concentrates_more(self):
        grid = interval_domain(64, [(-1.0, -0.2), (0.2, 1.0)])
        kernel = power_kernel(0.5)
        f = GridFunction.constant(grid, 1.0)
        op_u, u, op_v, _ = comparison_pipeline(grid, kernel, f)
        v1 = solve_elliptic(op_v, schwarz_rearrangement(f))
        v2 = solve_elliptic(op_v, schwarz_rearrangement(
            GridFunction.constant(grid, 2.0)))
        r1 = check_comparison(u.function, v1.function)
        r2 = check_comparison(u.function, v2.function)
        assert r2.slack < r1.slack

    def test_half_width_rounding_is_the_same_geometry(self):
        g1 = interval_domain(32, [(-1.0, 0.0)])
        g2 = interval_domain(32, [(-1.0, 0.0)], half_width=1.0 + 1e-14)
        u = schwarz_rearrangement(GridFunction.constant(g1, 1.0))
        v = schwarz_rearrangement(GridFunction.constant(g2, 1.0))
        assert abs(check_comparison(u, v).slack) <= 1e-12
        assert abs(concentration_dominates(u, v).max_violation) <= 1e-12
        far = GridFunction.constant(
            interval_domain(32, [(-1.0, 0.0)], half_width=1.0 + 1e-10), 1.0)
        with pytest.raises(ValueError):
            check_comparison(u, far)
        with pytest.raises(ValueError):
            concentration_dominates(u, far)

    def test_mismatched_grids_rejected(self):
        g1 = interval_domain(32, [(-1.0, 0.0)])
        g2 = interval_domain(64, [(-1.0, 0.0)])
        u = GridFunction.constant(g1, 1.0)
        v = GridFunction.constant(g2, 1.0)
        with pytest.raises(ValueError):
            check_comparison(u, v)


class TestEnergyComparison:
    def test_equality_configuration(self):
        grid = box_grid(48, mask=np.abs(box_grid(48).centers[:, 0]) < 0.7)
        kernel = power_kernel(0.4)
        f = GridFunction.from_callable(grid, lambda x: 1.0 / (1.0 + x * x))
        op_u, u, op_v, v = comparison_pipeline(grid, kernel, f)
        rep = check_energy_comparison(op_u, u.vector, op_v, v.vector)
        assert abs(rep.slack) <= 1e-9
        assert rep.passed

    def test_rough_kernel_over_envelope(self):
        grid = interval_domain(64, [(-0.9, -0.1), (0.3, 0.9)])
        profile = RadialProfile.power(s=0.5, dimension=1)
        rough = Kernel(profile=profile, Lambda=2.0,
                       modulation=make_modulation("rough_cosine", 2.0, 1),
                       modulation_tag="rough_cosine")
        f = GridFunction.constant(grid, 1.0)
        op_u = assemble(rough, grid)
        u = solve_elliptic(op_u, f)
        op_v = assemble(Kernel(profile=profile), grid.ball_grid)
        v = solve_elliptic(op_v, schwarz_rearrangement(f))
        rep = check_energy_comparison(op_u, u.vector, op_v, v.vector)
        assert rep.passed
        crep = check_comparison(u.function, v.function)
        assert crep.passed

    def test_with_and_without_killing_coefficient(self):
        grid = interval_domain(64, [(-0.8, 0.8)])
        kernel = power_kernel(0.6)
        f = GridFunction.from_callable(grid, lambda x: np.exp(-x))
        for c in (None, 0.5 + grid.centers[grid.masked_indices, 0] ** 2):
            op_u, u, op_v, v = comparison_pipeline(grid, kernel, f, c=c)
            rep = check_energy_comparison(op_u, u.vector, op_v, v.vector)
            assert rep.passed


class TestParabolicComparison:
    def setup_ops(self, n=64):
        grid = interval_domain(n, [(-1.0, -0.2), (0.2, 1.0)])
        kernel = power_kernel(0.5)
        op_u = assemble(kernel, grid)
        op_v = assemble(kernel, grid.ball_grid)
        return grid, op_u, op_v

    def test_zero_data_zero_slacks(self):
        grid, op_u, op_v = self.setup_ops()
        zero_u = GridFunction.constant(grid, 0.0)
        zero_v = GridFunction.constant(op_v.grid, 0.0)
        tg = TimeGrid(1.0, 4)
        tu = parabolic_solve(op_u, zero_u, zero_u, tg)
        tv = parabolic_solve(op_v, zero_v, zero_v, tg)
        reps = check_parabolic_comparison(tu, tv)
        assert len(reps) == 4
        assert all(r.slack == 0.0 and r.passed for r in reps)

    def test_late_steps_approach_elliptic_slack(self):
        grid, op_u, op_v = self.setup_ops()
        f = GridFunction.constant(grid, 1.0)
        fs = schwarz_rearrangement(f)
        u0 = GridFunction.from_callable(
            grid, lambda x: np.exp(-40 * (x - 0.55) ** 2))
        tg = TimeGrid(2.0, 32)
        tu = parabolic_solve(op_u, f, u0, tg)
        tv = parabolic_solve(op_v, fs, schwarz_rearrangement(u0), tg)
        reps = check_parabolic_comparison(tu, tv)
        assert all(r.passed for r in reps)
        ell = check_comparison(solve_elliptic(op_u, f).function,
                               solve_elliptic(op_v, fs).function)
        ratio = reps[-1].slack / ell.slack
        assert 0.5 <= ratio <= 2.0

    def test_initial_precondition_violation(self):
        grid, op_u, op_v = self.setup_ops()
        u0 = GridFunction.from_callable(
            grid, lambda x: np.exp(-40 * (x - 0.55) ** 2))
        zero_v = GridFunction.constant(op_v.grid, 0.0)
        tg = TimeGrid(1.0, 2)
        tu = parabolic_solve(op_u, GridFunction.constant(grid, 0.0), u0, tg)
        tv = parabolic_solve(op_v, zero_v, zero_v, tg)
        with pytest.raises(ValueError, match="precondition"):
            check_parabolic_comparison(tu, tv)

    def test_timegrid_mismatch(self):
        grid, op_u, op_v = self.setup_ops()
        zero_u = GridFunction.constant(grid, 0.0)
        zero_v = GridFunction.constant(op_v.grid, 0.0)
        tu = parabolic_solve(op_u, zero_u, zero_u, TimeGrid(1.0, 2))
        tv = parabolic_solve(op_v, zero_v, zero_v, TimeGrid(1.0, 4))
        with pytest.raises(ValueError, match="time grids"):
            check_parabolic_comparison(tu, tv)


class TestParabolicWindows:
    """The per-step gaps come from windows of stacked states, and equal the
    one-step concentration_gap of each step exactly."""

    def march(self, n=64, steps=10):
        grid = interval_domain(n, [(-1.0, -0.2), (0.2, 1.0)])
        kernel = power_kernel(0.5)
        op_u, op_v = assemble(kernel, grid), assemble(kernel, grid.ball_grid)
        f = GridFunction.constant(grid, 1.0)
        u0 = GridFunction.from_callable(
            grid, lambda x: 0.01 * np.exp(-40 * (x - 0.55) ** 2))
        tg = TimeGrid(0.5, steps)
        tu = parabolic_solve(op_u, f, u0, tg)
        tv = parabolic_solve(op_v, schwarz_rearrangement(f),
                             schwarz_rearrangement(u0), tg)
        return op_u, op_v, tu, tv

    def test_windows_match_per_step_gaps(self, monkeypatch):
        op_u, op_v, tu, tv = self.march(steps=10)
        monkeypatch.setattr(verify, "gap_window", lambda grid: 3)
        reps = check_parabolic_comparison(tu, tv)
        assert [r.metadata["step"] for r in reps] == list(range(10))
        for n, rep in enumerate(reps):
            slack, worst_r, *_ = verify.concentration_gap(
                verify.to_grid_function(op_u, tu.states[n]),
                verify.to_grid_function(op_v, tv.states[n]))
            assert (rep.slack, rep.worst_location["r"]) == (slack, worst_r)
        # a window covering the whole march gives the same reports
        monkeypatch.setattr(verify, "gap_window", lambda grid: 64)
        assert check_parabolic_comparison(tu, tv) == reps

    def test_window_size(self):
        # each stacked array of u# and v rows holds at most 8,192 values
        assert verify.gap_window(box_grid(1024)) == 4
        assert verify.gap_window(box_grid(256)) == 16
        assert verify.gap_window(box_grid(64, dim=2)) == 1
        assert verify.gap_window(box_grid(512, dim=2)) == 1

    @pytest.mark.parametrize("side,value,message", [
        ("u", math.nan, "values must be finite"),
        ("v", math.inf, "values must be finite"),
        ("v", -1e-3, "nonnegative"),
    ])
    def test_bad_states_raise_as_per_step(self, monkeypatch, side, value, message):
        monkeypatch.setattr(verify, "gap_window", lambda grid: 3)
        op_u, op_v, tu, tv = self.march(steps=7)
        (tu if side == "u" else tv).states[5, 2] = value
        # the one-step route of a GridFunction per state raises alike
        with pytest.raises(ValueError, match=message):
            verify.concentration_gap(verify.to_grid_function(op_u, tu.states[5]),
                                     verify.to_grid_function(op_v, tv.states[5]))
        with pytest.raises(ValueError, match=message):
            check_parabolic_comparison(tu, tv)

    def test_window_memory(self):
        # the parabolic-1d1024 geometry: 400 steps, m = 820
        op_u, op_v, tu, tv = self.march(n=1024, steps=400)
        check_parabolic_comparison(tu, tv)
        tracemalloc.start()
        try:
            reps = check_parabolic_comparison(tu, tv)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reps) == 400
        # what the check allocates beyond the reports it returns
        assert peak - held < 0.5 * 2 ** 20


class TestMaxPrinciple:
    def test_zero_source(self):
        grid = interval_domain(48, [(-0.9, 0.4)])
        op = assemble(power_kernel(0.5), grid)
        rep = check_max_principle(op, np.zeros(op.size))
        assert rep.slack == 0.0 and rep.passed

    def test_constant_negative_source(self):
        grid = interval_domain(48, [(-0.9, 0.4)])
        op = assemble(power_kernel(0.5), grid)
        rep = check_max_principle(op, -np.ones(op.size))
        assert rep.passed
        assert rep.slack < 0.0  # strictly negative in the interior

    def test_single_cell_spike(self):
        grid = interval_domain(48, [(-0.9, 0.4)])
        op = assemble(power_kernel(0.5), grid)
        f = np.zeros(op.size)
        f[op.size // 3] = -5.0
        rep = check_max_principle(op, f)
        assert rep.passed

    def test_positive_source_rejected(self):
        grid = interval_domain(32, [(-0.5, 0.5)])
        op = assemble(power_kernel(0.5), grid)
        with pytest.raises(ValueError):
            check_max_principle(op, np.ones(op.size))


class TestPolyaSzego:
    def setup_pair(self, n=64, s=0.5, kernel=None):
        grid = interval_domain(n, [(-0.9, -0.1), (0.3, 0.9)])
        kernel = kernel or power_kernel(s)
        op_u = assemble(kernel, grid)
        op_v = assemble(Kernel(profile=kernel.profile), grid.ball_grid)
        return grid, op_u, op_v

    def test_fixed_point_configuration(self):
        n = 64
        g = box_grid(n)
        grid = box_grid(n, mask=np.abs(g.centers[:, 0]) < 0.5)
        kernel = power_kernel(0.5)
        op = assemble(kernel, grid)
        op_ball = assemble(kernel, grid.ball_grid)
        u = GridFunction(grid, np.where(grid.mask_flat, 2.0, 0.0))
        rep = check_polya_szego(op, op_ball, u)
        assert abs(rep.slack) <= 1e-12

    def test_randomized_suite(self):
        grid, op_u, op_v = self.setup_pair()
        rng = np.random.default_rng(2024)
        for _ in range(25):
            u = random_gridfunction(grid, rng)
            rep = check_polya_szego(op_u, op_v, u)
            assert rep.passed

    def test_two_bump_under_modulation(self):
        profile = RadialProfile.power(s=0.5, dimension=1)
        rough = Kernel(profile=profile, Lambda=3.0,
                       modulation=make_modulation("rough_cosine", 3.0, 1),
                       modulation_tag="rough_cosine")
        grid, op_u, op_v = self.setup_pair(kernel=rough)
        u = GridFunction.from_callable(
            grid, lambda x: np.exp(-30 * (x + 0.5) ** 2)
            + 0.7 * np.exp(-50 * (x - 0.6) ** 2))
        rep = check_polya_szego(op_u, op_v, u)
        assert rep.passed
        assert rep.slack < 0.0

    def test_energy_checks_keep_table_operators_sparse(self):
        grid, op_u, op_v = self.setup_pair()
        u = random_gridfunction(grid, np.random.default_rng(9))
        check_polya_szego(op_u, op_v, u)
        check_energy_comparison(op_u, u, op_v, schwarz_rearrangement(u))
        for op in (op_u, op_v):
            assert op.symbol is not None
            assert "weight_matrix" not in vars(op)
            assert all(v.size < op.size * (op.size - 1) // 2
                       for v in vars(op).values() if isinstance(v, np.ndarray))

    def test_negative_data_rejected(self):
        grid, op_u, op_v = self.setup_pair(32)
        u = GridFunction(grid, np.where(grid.mask_flat, -1.0, 0.0))
        with pytest.raises(ValueError):
            check_polya_szego(op_u, op_v, u)

    def test_seminorm_drops_only_the_lower_order_diagonal(self):
        # against the energy of a copy of the operator with cdiag = 0
        grid = interval_domain(64, [(-0.9, -0.1), (0.3, 0.9)])
        c = 3.0 + grid.centers[grid.masked_indices, 0] ** 2
        op = assemble(power_kernel(0.5), grid, c=c)
        u = random_gridfunction(grid, np.random.default_rng(12))
        copy = energy(op.with_cdiag(np.zeros(op.size)), u)
        assert verify.seminorm_sq(op, u) == pytest.approx(copy, rel=1e-13, abs=0.0)
        uvec = u.masked_values
        assert energy(op, u) - copy == pytest.approx(float(uvec @ (op.cdiag * uvec)),
                                                     rel=1e-9)


class TestRiesz:
    def test_equality_on_radial_data(self):
        n = 64
        g = box_grid(n)
        grid = box_grid(n, mask=np.abs(g.centers[:, 0]) < 0.7).ball_grid
        W = RadialProfile.exponential(lam=1.5, dimension=1)
        u = GridFunction.from_callable(
            grid, lambda x: np.maximum(0.0, 0.7 - np.abs(x)))
        rep = check_riesz(W, u, u)
        assert abs(rep.slack) <= 1e-12

    def test_single_interval_is_translation_equality(self):
        # one off-center block rearranges to a translate of itself, and the
        # interaction depends only on pair distances
        grid = box_grid(64)
        x = grid.centers[:, 0]
        u = GridFunction(grid, ((x > 0.3) & (x < 0.5)).astype(float))
        W = RadialProfile.exponential(lam=1.0, dimension=1)
        rep = check_riesz(W, u, u)
        assert abs(rep.slack) <= 1e-12

    def test_split_cluster_strictly_concentrates(self):
        grid = box_grid(64)
        x = grid.centers[:, 0]
        vals = (((x > -0.8) & (x < -0.6)) | ((x > 0.4) & (x < 0.6))).astype(float)
        u = GridFunction(grid, vals)
        radii = np.linspace(0.05, 3.0, 60)
        W = RadialProfile.tabulated(radii=radii,
                                    values=np.exp(-radii ** 2), dimension=1)
        rep = check_riesz(W, u, u)
        assert rep.passed
        assert rep.slack < 0.0

    def test_randomized_pairs(self):
        grid = interval_domain(64, [(-0.8, -0.1), (0.2, 0.9)])
        W = RadialProfile.exponential(lam=2.0, dimension=1)
        rng = np.random.default_rng(777)
        for _ in range(30):
            u = random_gridfunction(grid, rng)
            v = random_gridfunction(grid, rng)
            rep = check_riesz(W, u, v)
            assert rep.passed

    def test_nonintegrable_weight_rejected(self):
        grid = box_grid(32)
        u = GridFunction.constant(grid, 1.0)
        with pytest.raises(IntegrabilityError):
            check_riesz(RadialProfile.power(s=0.5, dimension=1), u, u)

    def test_negative_data_rejected(self):
        grid = box_grid(32)
        u = GridFunction.constant(grid, 1.0)
        v = GridFunction(grid, -np.ones(grid.cell_count))
        with pytest.raises(ValueError):
            check_riesz(RadialProfile.exponential(lam=1.0, dimension=1), u, v)


class TestCoarea:
    def setup_op(self, n=32):
        grid = interval_domain(n, [(-0.9, 0.5)])
        return grid, assemble(power_kernel(0.5), grid)

    def test_two_valued_function(self):
        grid, op = self.setup_op()
        vals = np.zeros(grid.cell_count)
        idx = grid.masked_indices
        vals[idx[: idx.size // 2]] = 1.0
        rep = check_coarea(op, GridFunction(grid, vals))
        assert rep.slack <= 1e-14

    def test_three_values_brute_force(self):
        grid, op = self.setup_op(16)
        rng = np.random.default_rng(5)
        vals = np.zeros(grid.cell_count)
        vals[grid.mask_flat] = rng.choice([0.2, 0.9, 1.7], grid.masked_count)
        u = GridFunction(grid, vals)
        rep = check_coarea(op, u)
        assert rep.passed
        # independent route: explicit pair sum against explicit level sum
        m = masked = vals[grid.mask_flat]
        Wm = op.weight_matrix
        lhs = sum(Wm[i, j] * abs(masked[i] - masked[j])
                  for i in range(len(m)) for j in range(i + 1, len(m)))
        lhs += float(op.kappa @ masked)
        rhs = 0.0
        levels = sorted({0.0, *masked})
        for lo, hi in zip(levels[:-1], levels[1:]):
            s = masked > lo
            rhs += (hi - lo) * (float(s @ Wm @ ~s) + float(op.kappa @ s))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_randomized_identity(self):
        grid, op = self.setup_op()
        rng = np.random.default_rng(31)
        for _ in range(20):
            u = random_gridfunction(grid, rng)
            assert check_coarea(op, u).passed
            assert check_coarea(op, u, "truncated", level=0.3,
                                height=0.4).passed

    def test_truncated_above_max(self):
        grid, op = self.setup_op()
        u = GridFunction(grid, np.where(grid.mask_flat, 0.5, 0.0))
        rep = check_coarea(op, u, "truncated", level=2.0, height=1.0)
        assert rep.slack == 0.0

    def test_negative_data_rejected(self):
        grid, op = self.setup_op()
        u = GridFunction(grid, np.where(grid.mask_flat, -0.5, 0.0))
        with pytest.raises(ValueError):
            check_coarea(op, u)

    @pytest.mark.parametrize("level,height", [(0.0, -1.0), (0.1, 0.0), (-0.1, 1.0)])
    def test_truncated_mode_validated_like_truncate(self, level, height):
        grid, op = self.setup_op()
        u = GridFunction(grid, np.where(grid.mask_flat, 0.5, 0.0))
        with pytest.raises(ValueError, match="level >= 0 and height > 0"):
            truncate(u, level, height)
        with pytest.raises(ValueError, match="level >= 0 and height > 0"):
            check_coarea(op, u, "truncated", level=level, height=height)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_incremental_cut_matches_per_level_perimeters(self, dim, monkeypatch):
        # small row blocks so the cut crosses several block boundaries
        monkeypatch.setattr(verify, "CUT_BLOCK", 7)
        if dim == 1:
            grid = interval_domain(40, [(-0.9, -0.2), (0.1, 0.7)])
        else:
            c = box_grid(12, dim=2).centers
            grid = box_grid(12, dim=2, mask=((c[:, 0] < 0.3) | (c[:, 1] > 0.5)).reshape(12, 12))
        op = assemble(power_kernel(0.4, dim=dim), grid)
        rng = np.random.default_rng(7 + dim)
        for _ in range(5):
            # few distinct values, zeros included: many tied cells per level
            vals = 0.25 * rng.integers(0, 6, grid.masked_count)
            levels = np.unique(np.concatenate(([0.0], vals)))
            want = sum((hi - lo) * verify.perimeter_of(op, vals > lo)
                       for lo, hi in zip(levels[:-1], levels[1:]))
            counts = vals.size - np.searchsorted(np.sort(vals), levels[:-1], side="right")
            got = float(np.sum(np.diff(levels) * verify.prefix_cuts(op, vals)[counts]))
            assert got == pytest.approx(want, rel=1e-12)
            full = np.zeros(grid.cell_count)
            full[grid.masked_indices] = vals
            assert check_coarea(op, GridFunction(grid, full)).slack <= 1e-12


class TestTruncate:
    def test_all_below(self):
        grid = box_grid(16)
        u = GridFunction.constant(grid, 0.2)
        out = truncate(u, 0.5, 1.0)
        assert np.all(out.values == 0.0)

    def test_all_above(self):
        grid = box_grid(16)
        u = GridFunction.constant(grid, 5.0)
        out = truncate(u, 0.5, 1.0)
        assert np.all(out.masked_values == 1.0)

    def test_tent_formula(self):
        grid = box_grid(64)
        u = GridFunction.from_callable(
            grid, lambda x: np.maximum(0.0, 1.0 - np.abs(x)))
        out = truncate(u, 0.25, 0.5)
        expect = np.minimum(0.5, np.maximum(0.0, u.values - 0.25))
        assert np.array_equal(out.values, expect)

    def test_validation(self):
        grid = box_grid(16)
        u = GridFunction.constant(grid, 1.0)
        with pytest.raises(ValueError):
            truncate(u, -0.1, 1.0)
        with pytest.raises(ValueError):
            truncate(u, 0.1, 0.0)


def level_set_reference(op, u_sharp, c_sharp, f_sharp, levels):
    """Slacks of the level-set inequality by its per-level form: the flux
    out of each super-level ball from two weights_times products."""
    grid = op.grid
    uvec, cvec, fvec = (masked_vector(grid, x) for x in (u_sharp, c_sharp, f_sharp))
    order = np.argsort(grid.radius_keys[grid.masked_indices], kind="stable")
    vol = grid.cell_volume
    slacks = []
    for t in levels:
        inside = np.zeros(op.size, dtype=bool)
        inside[order[:int(np.sum(uvec[order] > t))]] = True
        outside = ~inside
        ui, uo = np.where(inside, uvec, 0.0), np.where(outside, uvec, 0.0)
        flux = float(ui @ op.weights_times(outside) - inside @ op.weights_times(uo))
        lhs = flux + float(op.kappa @ ui) + vol * float(cvec @ (uvec * inside))
        slacks.append(lhs - vol * float(fvec @ inside))
    return np.array(slacks)


BOXES = [[(-1.0, -0.1), (-1.0, 1.0)], [(0.1, 1.0), (-0.5, 0.5)]]


def two_piece_domain(dim, n):
    """The two intervals or the two boxes of the benchmark geometries."""
    if dim == 1:
        return interval_domain(n, [(-1.0, -0.2), (0.2, 1.0)])
    x, y = box_grid(n, dim=2).centers.T
    mask = np.zeros(n * n, dtype=bool)
    for (ax, bx), (ay, by) in BOXES:
        mask |= (x > ax) & (x < bx) & (y > ay) & (y < by)
    return box_grid(n, dim=2, mask=mask.reshape(n, n))


def rearranged_solution(dim, n, envelope_gamma=1.0, with_c=True):
    """(op_v, u#, c#, f#, every distinct positive level of u#): u solves the
    problem on the two-piece domain with f = 1 and c = 1 + |x|^2 (or 0),
    and op_v is assembled on the ball from the power envelope with the
    given gamma."""
    grid = two_piece_domain(dim, n)
    r2 = np.sum(grid.centers ** 2, axis=1)
    c = GridFunction(grid, np.where(grid.mask_flat, 1.0 + r2 if with_c else 0.0, 0.0))
    f = GridFunction.constant(grid, 1.0)
    op_u = assemble(power_kernel(0.5, dim=dim), grid, c=c.masked_values)
    cs = schwarz_rearrangement(c, direction="increasing")
    op_v = assemble(power_kernel(0.5, dim=dim, gamma=envelope_gamma), grid.ball_grid,
                    c=cs.masked_values)
    us = schwarz_rearrangement(solve_elliptic(op_u, f).function)
    vals = np.sort(us.masked_values)
    levels = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    return op_v, us, cs, schwarz_rearrangement(f), levels[levels > 0]


class TestLevelSet:
    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
    def test_prefix_form_matches_per_level_reference(self, dim, n):
        op_v, us, cs, fs, levels = rearranged_solution(dim, n)
        assert levels.size > 100
        reps = check_level_set_inequality(op_v, us, cs, fs, levels)
        slacks = np.array([r.slack for r in reps])
        ref = level_set_reference(op_v, us, cs, fs, levels)
        assert np.all(np.abs(slacks - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert [r.worst_location["level"] for r in reps] == levels.tolist()

    def test_doubled_envelope_fails_at_every_level(self):
        # v assembled from 2J: the flux out of every nonempty super-level
        # ball doubles, so the inequality fails at all of them, beyond tau(h)
        op_v, us, cs, fs, levels = rearranged_solution(2, 32, envelope_gamma=2.0,
                                                       with_c=False)
        reps = check_level_set_inequality(op_v, us, cs, fs, levels[:-1])
        slacks = np.array([r.slack for r in reps])
        assert all(r.worst_location["cells"] > 0 for r in reps)
        assert np.all(slacks > 0.0)
        worst = reps[int(np.argmax(slacks))]
        assert worst.slack > tau(op_v.grid.h)
        assert not worst.passed

    def setup_radial_solution(self, n=64):
        g = box_grid(n)
        grid = box_grid(n, mask=np.abs(g.centers[:, 0]) < 0.8).ball_grid
        op = assemble(power_kernel(0.5), grid)
        f = GridFunction.from_callable(
            grid, lambda x: np.maximum(0.0, 1.0 - 1.2 * np.abs(x)))
        sol = solve_elliptic(op, f)
        return grid, op, f, sol

    def test_equality_flux_identity(self):
        grid, op, f, sol = self.setup_radial_solution()
        levels = np.linspace(0.1, 0.9, 5) * float(np.max(sol.vector))
        reps = check_level_set_inequality(op, sol.function,
                                          np.zeros(op.size), f, levels)
        for rep in reps:
            assert abs(rep.slack) <= 1e-10

    def test_level_above_max(self):
        grid, op, f, sol = self.setup_radial_solution()
        reps = check_level_set_inequality(op, sol.function, np.zeros(op.size),
                                          f, [2.0 * float(np.max(sol.vector))])
        assert reps[0].slack == 0.0
        assert reps[0].worst_location["cells"] == 0

    def test_rearranged_nonradial_solution(self):
        n = 64
        grid = interval_domain(n, [(-0.9, -0.1), (0.3, 0.9)])
        kernel = power_kernel(0.5)
        op_u = assemble(kernel, grid)
        f = GridFunction.constant(grid, 1.0)
        u = solve_elliptic(op_u, f)
        ball = grid.ball_grid
        op_b = assemble(kernel, ball)
        us = schwarz_rearrangement(u.function)
        fs = schwarz_rearrangement(f)
        levels = np.linspace(0.2, 0.8, 4) * float(np.max(u.vector))
        reps = check_level_set_inequality(op_b, us, np.zeros(op_b.size), fs,
                                          levels)
        assert all(r.passed for r in reps)

    def test_validation(self):
        grid, op, f, sol = self.setup_radial_solution(32)
        rng_vals = np.linspace(0.0, 1.0, op.size)  # radially increasing: wrong
        bad = np.zeros(grid.cell_count)
        bad[grid.masked_indices[np.argsort(
            grid.radius_keys[grid.masked_indices], kind="stable")]] = rng_vals
        with pytest.raises(ValueError, match="radially decreasing"):
            check_level_set_inequality(op, GridFunction(grid, bad),
                                       np.zeros(op.size), f, [0.5])
        with pytest.raises(ValueError, match="positive"):
            check_level_set_inequality(op, sol.function, np.zeros(op.size),
                                       f, [0.0])


def table_pair(dim, tag="none"):
    """Original and ball operators, unmodulated or with the named modulation
    at Lambda = 2: two intervals at n = 40 in 1-D, an L shape at n = 12 in
    2-D."""
    if dim == 1:
        grid = interval_domain(40, [(-0.9, -0.2), (0.1, 0.7)])
    else:
        c = box_grid(12, dim=2).centers
        grid = box_grid(12, dim=2, mask=((c[:, 0] < 0.3) | (c[:, 1] > 0.5)).reshape(12, 12))
    kernel = power_kernel(0.4, dim=dim)
    if tag != "none":
        kernel = Kernel(profile=kernel.profile, Lambda=2.0,
                        modulation=make_modulation(tag, 2.0, dim), modulation_tag=tag)
    return grid, assemble(kernel, grid), assemble(kernel, grid.ball_grid)


READER_TAGS = ("none", "separable_cosine")


@dataclass(frozen=True, eq=False)
class DenseOperator(DiscreteOperator):
    """The reference reader: W read from a stored dense m x m array
    instead of gathered from the offset table and band."""

    dense: np.ndarray | None = None

    def pair_rows(self, rows, cols=None):
        return self.dense[rows] if cols is None else self.dense[rows][:, cols]

    def weights_times(self, x):
        return self.dense @ x


def dense_copy(op):
    return DenseOperator(**{f.name: getattr(op, f.name) for f in fields(op)},
                         dense=op.weight_matrix)


class TestTableReaders:
    """Checks read W through pair_rows and weights_times only."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_checks_hold_no_dense_array(self, dim):
        for tag in READER_TAGS:
            grid, op_u, op_v = table_pair(dim, tag)
            f = GridFunction.constant(grid, 1.0)
            fs = schwarz_rearrangement(f)
            u, v = solve_elliptic(op_u, f), solve_elliptic(op_v, fs)
            top = float(np.max(u.vector))
            check_comparison(u.function, v.function)
            check_energy_comparison(op_u, u.vector, op_v, v.vector)
            check_polya_szego(op_u, op_v, u.function)
            assert check_coarea(op_u, u.function).passed
            assert check_coarea(op_u, u.function, "truncated", level=0.2 * top,
                                height=0.5 * top).passed
            check_level_set_inequality(op_v, schwarz_rearrangement(u.function),
                                       np.zeros(op_v.size), fs, [0.3 * top, 0.7 * top])
            for op in (op_u, op_v):
                assert op.symbol is not None
                assert (op.near is not None) == (tag == "separable_cosine")
                assert all(a.size < op.size * (op.size - 1) // 2
                           for a in vars(op).values() if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_table_and_dense_readers_agree(self, dim, monkeypatch):
        # small row blocks so the gathers cross several block boundaries
        monkeypatch.setattr(verify, "CUT_BLOCK", 7)
        for tag in READER_TAGS:
            grid, op_u, op_v = table_pair(dim, tag)
            rng = np.random.default_rng(40 + dim)
            for op in (op_u, op_v):
                dense = dense_copy(op)
                vals = 0.25 * rng.integers(0, 6, op.size)
                inside = vals > 0.6
                assert verify.perimeter_of(op, inside) == pytest.approx(
                    verify.perimeter_of(dense, inside), rel=1e-12)
                np.testing.assert_allclose(verify.prefix_cuts(op, vals),
                                           verify.prefix_cuts(dense, vals),
                                           rtol=1e-12, atol=0.0)
                full = np.zeros(op.grid.cell_count)
                full[op.grid.masked_indices] = vals
                u = GridFunction(op.grid, full)
                for mode, kw in (("plain", {}),
                                 ("truncated", {"level": 0.25, "height": 0.5})):
                    a = check_coarea(op, u, mode, **kw)
                    b = check_coarea(dense, u, mode, **kw)
                    assert a.passed and b.passed
                    assert abs(a.slack - b.slack) <= 1e-12
            f = GridFunction.constant(grid, 1.0)
            us = schwarz_rearrangement(solve_elliptic(op_u, f).function)
            fs = schwarz_rearrangement(f)
            dense_v = dense_copy(op_v)
            zeros = np.zeros(op_v.size)
            levels = np.linspace(0.2, 0.8, 4) * float(np.max(us.values))
            for a, b in zip(check_level_set_inequality(op_v, us, zeros, fs, levels),
                            check_level_set_inequality(dense_v, us, zeros, fs, levels)):
                assert a.slack == pytest.approx(b.slack, rel=1e-12, abs=1e-12)


def coarea_operators(dim):
    """(name, operator) for the three forms that coarea_sums reads: table,
    separable_cosine (table plus g and a near band) and dense."""
    _, op, _ = table_pair(dim)
    _, op_sep, _ = table_pair(dim, "separable_cosine")
    dense = dense_copy(op)
    return [("table", op), ("separable_cosine", op_sep), ("dense", dense)]


def coarea_values(op, seed):
    """Few distinct values with zeros: many tied cells per level."""
    return 0.25 * np.random.default_rng(seed).integers(0, 6, op.size)


def as_function(op, vals):
    full = np.zeros(op.grid.cell_count)
    full[op.grid.masked_indices] = vals
    return GridFunction(op.grid, full)


def small_block(monkeypatch, m):
    """A CUT_BLOCK of at least three blocks that does not divide m."""
    b = next(b for b in (7, 5, 11) if m % b)
    assert m // b >= 3
    monkeypatch.setattr(verify, "CUT_BLOCK", b)


def mutate(monkeypatch, name, old, new):
    """Install verify.<name> with the one occurrence of old in its source
    replaced by new."""
    src = inspect.getsource(getattr(verify, name))
    assert src.count(old) == 1
    namespace = dict(vars(verify))
    exec(compile(src.replace(old, new), verify.__file__, "exec"), namespace)
    monkeypatch.setattr(verify, name, namespace[name])


COAREA_MUTANTS = {
    "within_upper_triangle": ("within_block", "np.tril(block, -1)", "np.triu(block, 1)"),
    "current_block_in_E": ("coarea_sums", "earlier = op.weights_times(inside)[sel]",
                           "inside[sel] = 1.0; earlier = op.weights_times(inside)[sel]"),
    "shifted_level_index": ("check_coarea", "cuts[counts]", "cuts[counts - 1]"),
    "dropped_kappa": ("coarea_sums", "op.degree[sel] + op.kappa[sel]", "op.degree[sel]"),
}


class TestCoareaBlocks:
    """The blocked walk of coarea_sums against per-level perimeters, and
    mutants of it that the coarea check must catch."""

    def test_block_size_follows_the_fft_box(self):
        assert verify.cut_block(box_grid(64, dim=2)) == 256
        assert verify.cut_block(box_grid(128, dim=2)) == 512
        assert verify.cut_block(box_grid(256, dim=2)) == 1024
        assert verify.cut_block(box_grid(1024)) == 256

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pair_rows_column_selection(self, dim):
        rng = np.random.default_rng(3)
        for _, op in coarea_operators(dim):
            rows = rng.permutation(op.size)[:9]
            cols = rng.permutation(op.size)[:13]
            want = op.weight_matrix[np.ix_(rows, cols)]
            np.testing.assert_allclose(op.pair_rows(rows, cols), want, rtol=1e-15, atol=0.0)
            np.testing.assert_array_equal(op.pair_rows(slice(2, 5), cols),
                                          op.pair_rows(np.arange(2, 5), cols))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_per_level_perimeters(self, dim, monkeypatch):
        for form, op in coarea_operators(dim):
            small_block(monkeypatch, op.size)
            W = op.weight_matrix
            for seed in range(3):
                vals = coarea_values(op, 10 * dim + seed)
                order = np.argsort(-vals, kind="stable")
                cuts, pairs = verify.coarea_sums(op, vals)
                for k in range(op.size + 1):
                    inside = np.zeros(op.size, dtype=bool)
                    inside[order[:k]] = True
                    assert cuts[k] == pytest.approx(verify.perimeter_of(op, inside),
                                                    rel=1e-12, abs=1e-14), (form, k)
                want = 0.5 * float(np.sum(W * np.abs(vals[:, None] - vals[None, :])))
                assert pairs == pytest.approx(want, rel=1e-12), form
                levels = np.unique(np.concatenate(([0.0], vals)))
                rhs = sum((hi - lo) * verify.perimeter_of(op, vals > lo)
                          for lo, hi in zip(levels[:-1], levels[1:]))
                assert pairs + float(op.kappa @ vals) == pytest.approx(rhs, rel=1e-12)
                assert verify.check_coarea(op, as_function(op, vals)).slack <= 1e-12

    @pytest.mark.parametrize("mutant", sorted(COAREA_MUTANTS))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_mutants_fail(self, mutant, dim, monkeypatch):
        cases = []
        for form, op in coarea_operators(dim):
            small_block(monkeypatch, op.size)
            u = as_function(op, coarea_values(op, 5 + dim))
            assert verify.check_coarea(op, u).passed, form
            cases.append((form, op, u))
        mutate(monkeypatch, *COAREA_MUTANTS[mutant])
        for form, op, u in cases:
            small_block(monkeypatch, op.size)
            rep = verify.check_coarea(op, u)
            assert not rep.passed and rep.slack > 1e-6, form


class TestPhi:
    def test_exponential_interval_oracle(self):
        prof = RadialProfile.exponential(lam=1.0, dimension=1)
        val = phi_values(prof, 1.0, [0.0], "phi1")[0]
        assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)
        # off-center: P(1-x) + P(1+x) with P(a) = e^-a
        val = phi_values(prof, 1.0, [0.3], "phi1")[0]
        assert val == pytest.approx(math.exp(-0.7) + math.exp(-1.3), rel=1e-10)

    def test_phi2_decay(self):
        prof = RadialProfile.exponential(lam=1.0, dimension=1)
        far = phi_values(prof, 1.0, [12.0], "phi2")[0]
        near = phi_values(prof, 1.0, [1.5], "phi2")[0]
        assert far < 1e-4 < near

    def test_singular_kernel_growth_toward_boundary(self):
        prof = RadialProfile.power(s=0.6, dimension=1)
        inner, outer = phi_values(prof, 1.0, [0.5, 0.95], "phi1")
        assert np.isfinite(outer)
        assert outer > inner

    def test_domain_errors(self):
        prof = RadialProfile.exponential(lam=1.0, dimension=1)
        with pytest.raises(ValueError):
            phi_values(prof, 1.0, [1.0], "phi1")
        with pytest.raises(ValueError):
            phi_values(prof, 1.0, [0.5], "phi2")
        with pytest.raises(ValueError):
            phi_values(prof, 1.0, [0.5], "phi3")

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_planar_oracle(self):
        prof = RadialProfile.exponential(lam=1.0, dimension=2)
        rho, r = 0.4, 1.0
        val = phi_values(prof, r, [rho], "phi1", dim=2)[0]
        inner, _ = dblquad(
            lambda y, x: math.exp(-math.hypot(x - rho, y))
            * (math.hypot(x, y) <= r), -1.2, 1.2, -1.2, 1.2, epsabs=1e-11)
        oracle = 2.0 * math.pi - inner
        assert val == pytest.approx(oracle, rel=2e-5)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("prof", ["logarithmic", "power"])
    def test_one_primitive_per_call_is_bitwise(self, dim, prof):
        # phi_values builds the radial primitive once for all its points
        profile = (RadialProfile.logarithmic(eps=1.0, dimension=dim)
                   if prof == "logarithmic" else RadialProfile.power(s=0.6, dimension=dim))
        inside, outside = [0.0, 0.3, 0.7], [1.2, 2.0, 2.9]
        assert np.array_equal(
            phi_values(profile, 1.0, inside, "phi1"),
            [verify.exterior_ball_mass(profile, dim, p, 1.0) for p in inside])
        assert np.array_equal(
            phi_values(profile, 1.0, outside, "phi2"),
            [verify.ball_mass(profile, dim, p, 1.0) for p in outside])

    def test_monotonicity_across_kinds(self):
        profiles = [RadialProfile.power(s=0.6, dimension=1),
                    RadialProfile.sum_of_powers(s_list=[0.3, 0.7], dimension=1),
                    RadialProfile.logarithmic(eps=1.0, dimension=1),
                    RadialProfile.exponential(lam=2.0, dimension=1)]
        for prof in profiles:
            rep = check_phi_monotonicity(prof, r=0.8, samples=16)
            assert rep.passed, prof.kind

    def test_monotonicity_planar(self):
        prof = RadialProfile.power(s=0.4, dimension=2)
        rep = check_phi_monotonicity(prof, r=1.0, samples=12, dim=2)
        assert rep.passed


class TestLensGeometry:
    def test_known_configurations(self):
        for r, rho, rho_p in [(1.0, 0.3, 0.8), (0.7, 0.5, 1.2),
                              (2.0, 0.1, 3.9)]:
            rep = check_lens_geometry(r, rho, rho_p)
            assert rep.passed
            target = r * r + rho * rho_p
            assert rep.worst_location["max_of_min"] == pytest.approx(target)

    def test_tangent_circles(self):
        rep = check_lens_geometry(1.0, 0.0, 2.0)
        assert rep.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            check_lens_geometry(1.0, 0.5, 0.2)
        with pytest.raises(ValueError):
            check_lens_geometry(0.5, 0.1, 1.5)


class TestMaxMin:
    def test_constant_positive_difference(self):
        u = np.full(8, 2.0)
        v = np.ones(8)
        h1 = np.linspace(1.0, 3.0, 8)
        h2 = np.linspace(3.0, 1.0, 8)
        rep = check_maxmin_lemma(u, v, h1, h2)
        assert rep.passed
        assert rep.metadata["max_hypothesis"] == "active"

    def test_equal_sequences_vacuous(self):
        u = np.ones(6)
        rep = check_maxmin_lemma(u, u, np.arange(1.0, 7.0),
                                 np.arange(6.0, 0.0, -1.0))
        assert rep.passed
        assert rep.metadata["vacuous"]

    def test_sign_changing_case(self):
        # running integral peaks strictly inside, then dips negative
        d = np.array([1.0, 2.0, -0.5, -4.0])
        u = np.maximum(d, 0.0)
        v = np.maximum(-d, 0.0)
        h1 = np.array([1.0, 1.5, 2.0, 2.5])
        h2 = np.array([2.5, 2.0, 1.5, 1.0])
        rep = check_maxmin_lemma(u, v, h1, h2)
        assert rep.metadata["max_hypothesis"] == "active"
        assert rep.passed

    def test_randomized_radial_pairs(self):
        rng = np.random.default_rng(99)
        vacuous = 0
        for _ in range(200):
            m = rng.integers(3, 20)
            u = rng.uniform(0.0, 1.0, m)
            v = rng.uniform(0.0, 1.0, m)
            base = rng.uniform(0.1, 1.0)
            h1 = base + np.cumsum(rng.uniform(0.0, 0.5, m))
            h2 = base + np.cumsum(rng.uniform(0.0, 0.5, m))[::-1].copy()
            vols = rng.uniform(0.5, 1.5, m)
            rep = check_maxmin_lemma(u, v, h1, h2, volumes=vols)
            assert rep.passed
            if rep.metadata["vacuous"]:
                vacuous += 1
        assert vacuous < 200

    def test_validation(self):
        u = np.ones(4)
        inc = np.arange(1.0, 5.0)
        dec = inc[::-1].copy()
        with pytest.raises(ValueError):
            check_maxmin_lemma(u, u, dec, dec)
        with pytest.raises(ValueError):
            check_maxmin_lemma(u, u, inc, inc)
        with pytest.raises(ValueError):
            check_maxmin_lemma(u, np.ones(3), inc, dec)
