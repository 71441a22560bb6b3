import math

import numpy as np
import pytest
from scipy import integrate

import levysym.assembly as assembly
from levysym.assembly import (
    AssemblyError,
    RadialGrid,
    assemble,
    assemble_radial,
    build_rhs,
    energy,
    write_operator_csv,
)
from levysym.kernels import (
    Kernel,
    RadialProfile,
    eval_kernel,
    make_modulation,
    surface_area,
    tail_primitive,
)
from levysym.rearrange import Grid, GridFunction

# most fixtures keep the domain equal to the box, so the exterior tail is
# the whole killing term and the box-margin warning is expected noise
pytestmark = pytest.mark.filterwarnings("ignore:box margin too small")


def frac_kernel(s, dim=1, gamma=1.0):
    return Kernel(profile=RadialProfile.power(s, dimension=dim, gamma=gamma))


class TestPairWeights:
    def test_two_far_cells_midpoint_rule(self):
        n = 16
        mask = np.zeros(n, dtype=bool)
        mask[2] = mask[10] = True
        g = Grid(1, 1.0, n, mask)
        k = frac_kernel(0.3)
        op = assemble(k, g, None)
        d = abs(g.centers[10, 0] - g.centers[2, 0])
        want = k.profile.evaluate(d) * g.h ** 2
        assert op.weights.size == 1
        assert op.weights[0] == want

    def test_deterministic_reassembly(self):
        g = Grid.full_box(1, 1.0, 32)
        k = Kernel(profile=RadialProfile.power(0.4, dimension=1), Lambda=2.0,
                   modulation=make_modulation("rough_cosine", 2.0, dim=1),
                   modulation_tag="rough_cosine")
        a = assemble(k, g, None)
        b = assemble(k, g, None)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.kappa, b.kappa)

    def test_near_weight_against_dblquad(self):
        # adjacent-cell weight, flat modulation: oracle is the exact
        # one-sided cell integral, which equals the symmetrized value here
        g = Grid.full_box(1, 1.0, 16)
        s = 0.6
        k = frac_kernel(s)
        op = assemble(k, g, None)
        W = op.weight_matrix
        i = 7
        xi = g.centers[i, 0]
        lo, hi = xi + g.h / 2, xi + 3 * g.h / 2
        oracle, _ = integrate.quad(lambda y: (y - xi) ** (-1 - 2 * s), lo, hi,
                                   epsabs=1e-14, epsrel=1e-12)
        assert W[i, i + 1] == pytest.approx(g.h * oracle, rel=2e-6)

    def test_near_weight_modulated_oracle(self):
        g = Grid.full_box(1, 1.0, 16)
        lam = 2.0
        k = Kernel(profile=RadialProfile.power(0.4, dimension=1), Lambda=lam,
                   modulation=make_modulation("separable_cosine", lam, dim=1),
                   modulation_tag="separable_cosine")
        op = assemble(k, g, None)
        i = 5
        xi, xj = g.centers[i, 0], g.centers[i + 1, 0]
        a = k.modulation

        def kern(x0, y):
            return a(x0, y) * np.abs(x0 - y) ** -1.8

        q_ij, _ = integrate.quad(lambda y: kern(xi, y), xj - g.h / 2, xj + g.h / 2,
                                 epsabs=1e-14, epsrel=1e-12)
        q_ji, _ = integrate.quad(lambda y: kern(xj, y), xi - g.h / 2, xi + g.h / 2,
                                 epsabs=1e-14, epsrel=1e-12)
        want = 0.5 * g.h * (q_ij + q_ji)
        assert op.weight_matrix[i, i + 1] == pytest.approx(want, rel=2e-6)

    def test_near_weight_2d_against_dblquad(self):
        g = Grid.full_box(2, 1.0, 8)
        s = 0.3
        k = frac_kernel(s, dim=2)
        op = assemble(k, g, None)
        # pick the cell pair at index offset (1, 1) from a middle cell
        i_idx, j_idx = (3, 3), (4, 4)
        flat_i = i_idx[0] * 8 + i_idx[1]
        flat_j = j_idx[0] * 8 + j_idx[1]
        li = int(np.flatnonzero(g.masked_indices == flat_i)[0])
        lj = int(np.flatnonzero(g.masked_indices == flat_j)[0])
        xi = g.centers[flat_i]
        yc = g.centers[flat_j]
        half = g.h / 2

        def integrand(y1, y0):
            r = math.hypot(y0 - xi[0], y1 - xi[1])
            return r ** (-2 - 2 * s)

        oracle, _ = integrate.dblquad(integrand, yc[0] - half, yc[0] + half,
                                      yc[1] - half, yc[1] + half,
                                      epsabs=1e-13, epsrel=1e-10)
        want = g.h ** 2 * oracle
        assert op.weight_matrix[li, lj] == pytest.approx(want, rel=5e-6)

    def test_far_weight_2d_midpoint(self):
        g = Grid.full_box(2, 1.0, 8)
        k = frac_kernel(0.3, dim=2)
        op = assemble(k, g, None)
        flat_i = 1 * 8 + 1
        flat_j = 1 * 8 + 5
        li = int(np.flatnonzero(g.masked_indices == flat_i)[0])
        lj = int(np.flatnonzero(g.masked_indices == flat_j)[0])
        d = np.linalg.norm(g.centers[flat_i] - g.centers[flat_j])
        assert op.weight_matrix[li, lj] == k.profile.evaluate(d) * g.h ** 4

    def test_nonconvergent_near_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(assembly, "NEAR_CAP_1D", 4)
        g = Grid.full_box(1, 1.0, 16)
        with pytest.raises(AssemblyError):
            assemble(frac_kernel(0.75), g, None)


def modulated_kernel(tag, dim, s=0.4, lam=2.0):
    return Kernel(profile=RadialProfile.power(s, dimension=dim), Lambda=lam,
                  modulation=make_modulation(tag, lam, dim=dim), modulation_tag=tag)


def two_piece_grid(dim):
    """Asymmetric masked grid: two intervals at n = 48, an L shape at n = 16."""
    if dim == 1:
        x = Grid.full_box(1, 1.0, 48).centers[:, 0]
        return Grid(1, 1.0, 48, (x < -0.3) | (x > 0.1))
    c = Grid.full_box(2, 1.0, 16).centers
    mask = (c[:, 0] < -0.2) | ((c[:, 1] > 0.3) & (c[:, 0] < 0.6))
    return Grid(2, 1.0, 16, mask.reshape(16, 16))


def direct_far_field(kernel, grid):
    """Reference far field: the midpoint rule evaluated pair by pair against
    every box cell at Chebyshev index distance > 2."""
    idx, X, midx = grid.index_array, grid.centers, grid.masked_indices
    W = np.zeros((midx.size, midx.size))
    kappa = np.zeros(midx.size)
    for r, i in enumerate(midx):
        cols = np.flatnonzero(np.max(np.abs(idx - idx[i]), axis=1) > 2)
        if grid.dimension == 1:
            k = eval_kernel(kernel, np.full(cols.size, X[i, 0]), X[cols, 0])
        else:
            k = eval_kernel(kernel, np.broadcast_to(X[i], (cols.size, 2)), X[cols])
        row = np.zeros(grid.cell_count)
        row[cols] = k * grid.cell_volume ** 2
        W[r] = row[midx]
        kappa[r] = row[~grid.mask_flat].sum()
    return W, kappa


class TestOffsetTable:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tag", ["none", "rough_cosine", "separable_cosine"])
    def test_far_field_matches_direct_pairs(self, dim, tag, monkeypatch):
        g = two_piece_grid(dim)
        k = modulated_kernel(tag, dim) if tag != "none" else frac_kernel(0.4, dim=dim)
        # small row blocks so the gathers cross several block boundaries
        monkeypatch.setattr(assembly, "ROW_BLOCK", 1000)
        W, kappa = assembly.far_field(k, g)
        monkeypatch.undo()
        W_ref, kappa_ref = direct_far_field(k, g)
        np.testing.assert_allclose(W, W_ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(kappa, kappa_ref, rtol=1e-13, atol=0.0)
        # the assembled operator carries exactly these far weights
        op = assemble(k, g, None)
        far = W_ref > 0
        assert np.array_equal(op.weight_matrix[far], W[far])

    @pytest.mark.parametrize("prof", [RadialProfile.power(0.3, dimension=2),
                                      RadialProfile.exponential(1.5, dimension=2)])
    def test_folded_tail_matches_unfolded(self, prof, monkeypatch):
        g = two_piece_grid(2)
        monkeypatch.setattr(assembly, "ROW_BLOCK", 3 * 2048)
        got = assembly.box_tail_density(Kernel(profile=prof), g)
        # every masked cell on its own, no symmetry fold
        prim = tail_primitive(prof, 2)
        X = g.centers[g.masked_indices]
        L = g.half_width
        theta = (np.arange(2048) + 0.5) * (2.0 * math.pi / 2048)
        d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        gaps = np.where(d[None, :, :] > 0, L - X[:, None, :], -L - X[:, None, :])
        want = prim(np.min(gaps / d[None, :, :], axis=2)).mean(axis=1) * 2.0 * math.pi
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40])
    @pytest.mark.parametrize("limit", [1, 5, 1000])
    def test_triu_blocks_cover_triu_indices(self, m, limit):
        iu, ju = np.triu_indices(m, k=1)
        rows, cols, stop = [], [], 0
        for start, end, r, c in assembly.triu_blocks(m, limit):
            assert start == stop and end - start == r.size == c.size
            assert r.size <= max(limit, m - 1 - r[0])
            rows.append(r)
            cols.append(c)
            stop = end
        assert stop == iu.size
        if rows:
            assert np.array_equal(np.concatenate(rows), iu)
            assert np.array_equal(np.concatenate(cols), ju)

    def test_phase_seconds_in_diagnostics(self):
        op = assemble(frac_kernel(0.4, dim=2), two_piece_grid(2), None)
        d = op.diagnostics
        phases = [d[key] for key in ("far_seconds", "near_seconds", "tail_seconds")]
        assert all(t >= 0 for t in phases)
        assert sum(phases) <= d["assembly_seconds"]


class TestRowSums:
    def test_rowsum_oracle_s025(self):
        # independent adaptive-quadrature oracle for the full interaction
        # density of each cell; the midpoint far rule carries an O(h^{2s})
        # consistency error, measured at 2.2e-3 for this configuration
        g = Grid.full_box(1, 1.0, 64)
        k = frac_kernel(0.25)
        op = assemble(k, g, None)
        prim = tail_primitive(k.profile, 1)
        x = g.centers[:, 0]
        h = g.h
        oracles = np.empty(64)
        for i in range(64):
            xi = x[i]
            parts = 0.0
            if xi - h / 2 > -1.0:
                v, _ = integrate.quad(lambda y: abs(xi - y) ** -1.5, -1.0, xi - h / 2,
                                      epsabs=1e-13, epsrel=1e-11)
                parts += v
            if xi + h / 2 < 1.0:
                v, _ = integrate.quad(lambda y: abs(xi - y) ** -1.5, xi + h / 2, 1.0,
                                      epsabs=1e-13, epsrel=1e-11)
                parts += v
            oracles[i] = parts + float(prim(1.0 + xi) + prim(1.0 - xi))
        rowsums = (op.weight_matrix.sum(axis=1) + op.kappa) / h
        rel = np.abs(rowsums - oracles) / oracles
        assert rel.max() <= 4e-3

    def test_rowsum_error_stable_under_refinement(self):
        # the relative gap to the quadrature oracle is h-independent: the
        # midpoint far error and the singular row mass shrink at the same
        # rate, so the bound can only be frozen, not tightened by refining
        k = frac_kernel(0.25)

        def worst(n):
            g = Grid.full_box(1, 1.0, n)
            op = assemble(k, g, None)
            prim = tail_primitive(k.profile, 1)
            x = g.centers[:, 0]
            h = g.h
            rel = 0.0
            for i in range(0, n, max(1, n // 16)):
                xi = x[i]
                parts = 0.0
                if xi - h / 2 > -1.0:
                    v, _ = integrate.quad(lambda y: abs(xi - y) ** -1.5, -1.0,
                                          xi - h / 2, epsabs=1e-13, epsrel=1e-11)
                    parts += v
                if xi + h / 2 < 1.0:
                    v, _ = integrate.quad(lambda y: abs(xi - y) ** -1.5, xi + h / 2,
                                          1.0, epsabs=1e-13, epsrel=1e-11)
                    parts += v
                oracle = parts + float(prim(1.0 + xi) + prim(1.0 - xi))
                got = (op.weight_matrix[i].sum() + op.kappa[i]) / h
                rel = max(rel, abs(got - oracle) / oracle)
            return rel

        assert worst(64) <= 4e-3
        assert worst(128) <= 4e-3


class TestMatrixStructure:
    def test_m_matrix_and_spd(self):
        centers_mask = np.zeros(48, dtype=bool)
        centers_mask[8:20] = True
        centers_mask[30:42] = True
        g = Grid(1, 1.2, 48, centers_mask)
        c = GridFunction.from_callable(g, lambda x: 0.5 + 0 * x)
        op = assemble(frac_kernel(0.5), g, c)
        A = op.matrix
        assert np.array_equal(A, A.T)
        off = A - np.diag(np.diag(A))
        assert off.max() <= 0
        # diagonal dominance slack is exactly kappa + cdiag
        slack = np.diag(A) - np.abs(off).sum(axis=1)
        assert np.allclose(slack, op.kappa + op.cdiag, rtol=1e-12, atol=1e-15)
        assert np.linalg.eigvalsh(A)[0] > 0
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.normal(size=op.size)
            assert u @ (A @ u) > 0

    def test_kappa_positive_with_exterior(self):
        g = Grid(1, 1.0, 32, np.abs(Grid.full_box(1, 1.0, 32).centers[:, 0]) < 0.5)
        op = assemble(frac_kernel(0.5), g, None)
        assert np.all(op.kappa > 0)


class TestEnergy:
    def test_zero(self):
        g = Grid.full_box(1, 1.0, 16)
        op = assemble(frac_kernel(0.3), g, None)
        assert energy(op, np.zeros(op.size)) == 0.0

    def test_indicator_expansion(self):
        g = Grid.full_box(1, 1.0, 16)
        c = GridFunction.constant(g, 2.0)
        op = assemble(frac_kernel(0.3), g, c)
        i = 5
        u = np.zeros(op.size)
        u[i] = 1.0
        want = op.weight_matrix[i].sum() + op.kappa[i] + op.cdiag[i]
        assert energy(op, u) == pytest.approx(want, rel=1e-14)

    def test_quadratic_form_oracle(self):
        g = Grid.full_box(1, 1.0, 48)
        op = assemble(frac_kernel(0.45), g, GridFunction.constant(g, 1.0))
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.normal(size=op.size)
            assert energy(op, u) == pytest.approx(float(u @ (op.matrix @ u)), rel=1e-12)

    def test_gridfunction_argument(self):
        g = Grid.full_box(1, 1.0, 16)
        op = assemble(frac_kernel(0.3), g, None)
        f = GridFunction.from_callable(g, lambda x: np.cos(x))
        assert energy(op, f) == pytest.approx(energy(op, f.masked_values), rel=1e-15)

    def test_refinement_cauchy_contraction(self):
        # smooth compactly supported profile; energies settle with a
        # monotone tail and differences shrinking by 1.5x per refinement
        k = frac_kernel(0.25)
        vals = []
        for n in (16, 32, 64, 128):
            g = Grid.full_box(1, 1.0, n)
            u = GridFunction.from_callable(g, lambda x: np.cos(0.5 * np.pi * x) ** 2)
            op = assemble(k, g, None)
            vals.append(energy(op, u))
        d = np.abs(np.diff(vals))
        signs = np.sign(np.diff(vals))
        assert signs[0] == signs[1] == signs[2]
        assert d[0] / d[1] >= 1.5
        assert d[1] / d[2] >= 1.5


class TestKilling:
    def test_tail_interval_scales_with_lambda(self):
        g = Grid.full_box(1, 1.0, 32)
        lam = 2.5
        k = Kernel(profile=RadialProfile.power(0.4, dimension=1), Lambda=lam,
                   modulation=make_modulation("rough_cosine", lam, dim=1),
                   modulation_tag="rough_cosine")
        op = assemble(k, g, None)
        ti = op.tail_interval
        assert np.allclose(ti[:, 1], lam * ti[:, 0], rtol=1e-14)
        flat = assemble(frac_kernel(0.4), g, None)
        # midpoint of the interval enters kappa
        assert np.allclose(op.kappa - flat.kappa,
                           0.5 * (lam - 1.0) * ti[:, 0], rtol=1e-9)

    def test_1d_tail_is_exact_primitive(self):
        g = Grid.full_box(1, 1.0, 32)
        prof = RadialProfile.exponential(1.5, dimension=1)
        op = assemble(Kernel(profile=prof), g, None)
        prim = tail_primitive(prof, 1)
        x = g.centers[:, 0]
        want = g.h * (prim(1.0 + x) + prim(1.0 - x))
        assert np.allclose(op.tail_interval[:, 0], want, rtol=1e-12)

    def test_2d_tail_against_quad(self):
        g = Grid.full_box(2, 1.0, 8)
        prof = RadialProfile.exponential(1.0, dimension=2)
        op = assemble(Kernel(profile=prof), g, None)
        # polar oracle around one specific cell center
        li = 20
        x = g.centers[g.masked_indices[li]]

        def ray(theta):
            d = np.array([math.cos(theta), math.sin(theta)])
            ts = [(1.0 - x[0]) / d[0] if d[0] > 0 else (-1.0 - x[0]) / d[0] if d[0] < 0 else math.inf,
                  (1.0 - x[1]) / d[1] if d[1] > 0 else (-1.0 - x[1]) / d[1] if d[1] < 0 else math.inf]
            rmin = min(ts)
            val, _ = integrate.quad(lambda r: math.exp(-r) * r, rmin, np.inf)
            return val

        oracle, _ = integrate.quad(ray, 0, 2 * math.pi, limit=400)
        assert op.tail_interval[li, 0] == pytest.approx(g.cell_volume * oracle, rel=1e-5)

    def test_box_margin_warning_and_silence(self):
        inner = np.abs(Grid.full_box(1, 8.0, 64).centers[:, 0]) < 1.0
        g_wide = Grid(1, 8.0, 64, inner)
        prof = RadialProfile.exponential(2.0, dimension=1)
        with pytest.warns(UserWarning, match="box margin"):
            assemble(frac_kernel(0.25), Grid.full_box(1, 1.0, 16), None)
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            assemble(Kernel(profile=prof), g_wide, None)


class TestRhs:
    def test_volume_weighting(self):
        g = Grid.full_box(1, 1.0, 16)
        op = assemble(frac_kernel(0.3), g, None)
        f = GridFunction.constant(g, 3.0)
        assert np.allclose(build_rhs(op, f), 3.0 * g.h)

    def test_c_requires_nonnegative(self):
        g = Grid.full_box(1, 1.0, 8)
        c = GridFunction(g, np.full(8, -1.0))
        with pytest.raises(ValueError):
            assemble(frac_kernel(0.3), g, c)


class TestRadial:
    def test_shell_geometry(self):
        rg = RadialGrid(dimension=2, radius=1.0, shells=4)
        assert np.allclose(rg.volumes.sum(), math.pi, rtol=1e-14)
        assert np.allclose(rg.midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_far_weight_formula(self):
        prof = RadialProfile.exponential(1.0, dimension=2)
        rad = assemble_radial(prof, 1.0, 8, None, 2)
        rg = rad.grid
        from levysym.kernels import angular_kernel_average
        k, l = 1, 6
        want = (angular_kernel_average(prof, 2, rg.midpoints[k], rg.midpoints[l])
                * rg.volumes[k] * rg.volumes[l] / surface_area(2))
        assert rad.weight_matrix[k, l] == pytest.approx(want, rel=1e-12)

    def test_kappa_uses_exterior_mass(self):
        prof = RadialProfile.exponential(1.0, dimension=1)
        rad = assemble_radial(prof, 2.0, 8, None, 1)
        from levysym.kernels import exterior_ball_mass
        for k in (0, 3, 7):
            want = rad.grid.volumes[k] * exterior_ball_mass(prof, 1, rad.grid.midpoints[k], 2.0)
            assert rad.kappa[k] == pytest.approx(want, rel=1e-12)

    def test_c_monotonicity_enforced(self):
        prof = RadialProfile.exponential(1.0, dimension=1)
        with pytest.raises(ValueError):
            assemble_radial(prof, 1.0, 4, [1.0, 0.5, 0.5, 0.5], 1)
        assemble_radial(prof, 1.0, 4, [0.5, 0.5, 1.0, 1.0], 1)

    def test_matches_full_grid_1d(self):
        # symmetric full grid and the shell reduction must agree on radial
        # inputs; far weights coincide exactly, near ones to quadrature tol
        R, n = 1.5, 128
        g = Grid.full_box(1, R, n)
        prof = RadialProfile.power(0.3, dimension=1)
        op = assemble(Kernel(profile=prof), g, None)
        rad = assemble_radial(prof, R, n // 2, None, 1)
        x = g.centers[:, 0]
        u_cells = np.exp(-2 * x * x) * (R * R - x * x)
        rho = rad.grid.midpoints
        u_shell = np.exp(-2 * rho * rho) * (R * R - rho * rho)
        act_full = (op.matrix @ u_cells) / g.h
        act_rad = (rad.matrix @ u_shell) / rad.grid.volumes
        rel = np.abs(act_full[n // 2:] - act_rad) / np.abs(act_rad).max()
        assert rel.max() <= 1e-3

    def test_spd(self):
        prof = RadialProfile.power(0.5, dimension=2)
        rad = assemble_radial(prof, 1.0, 16, np.linspace(0, 1, 16), 2)
        A = rad.matrix
        assert np.array_equal(A, A.T)
        assert np.linalg.eigvalsh(A)[0] > 0


class TestExport:
    def test_triplet_csv(self, tmp_path):
        g = Grid.full_box(1, 1.0, 8)
        op = assemble(frac_kernel(0.3), g, None)
        p = tmp_path / "op.csv"
        write_operator_csv(op, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "i,j,w"
        assert len(lines) - 1 == op.size * (op.size - 1) // 2
        i, j, w = lines[1].split(",")
        assert int(i) < int(j)
        assert float(w) == op.weights[0]


class TestThreads:
    def test_thread_count_invariance(self, monkeypatch):
        g = Grid.full_box(1, 1.0, 48)
        k = frac_kernel(0.4)
        monkeypatch.setenv("LEVYSYM_THREADS", "1")
        a = assemble(k, g, None)
        monkeypatch.setenv("LEVYSYM_THREADS", "4")
        b = assemble(k, g, None)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.kappa, b.kappa)
        assert b.diagnostics["threads"] == 4

    def test_bad_thread_value(self, monkeypatch):
        g = Grid.full_box(1, 1.0, 16)
        monkeypatch.setenv("LEVYSYM_THREADS", "zero")
        with pytest.raises(ValueError):
            assemble(frac_kernel(0.3), g, None)
