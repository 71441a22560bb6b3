import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, sparse

import levysym.assembly as assembly
from levysym.assembly import (
    AssemblyError,
    assemble,
    build_rhs,
    energy,
)
from levysym.kernels import (
    Kernel,
    RadialProfile,
    SeparableCosine,
    eval_kernel,
    make_modulation,
    radial_primitive,
    rearrange_profile,
)
from levysym.env import thread_setting
from levysym.rearrange import Grid, GridFunction


def frac_kernel(s, dim=1, gamma=1.0):
    return Kernel(profile=RadialProfile.power(s, dimension=dim, gamma=gamma))


def upper_weights(op):
    """Strict upper triangle of the weight matrix in np.triu_indices order."""
    return op.weight_matrix[np.triu_indices(op.size, 1)]


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
        upper = upper_weights(op)
        assert upper.size == 1
        assert upper[0] == want

    def test_deterministic_reassembly(self):
        g = Grid.full_box(1, 1.0, 32)
        k = Kernel(profile=RadialProfile.power(0.4, dimension=1), Lambda=2.0,
                   modulation=make_modulation("rough_cosine", 2.0, dim=1),
                   modulation_tag="rough_cosine")
        a = assemble(k, g, None)
        b = assemble(k, g, None)
        assert np.array_equal(upper_weights(a), upper_weights(b))
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


TAIL_PROFILES = {
    "power": RadialProfile.power(0.5, dimension=2),
    "sum_of_powers": RadialProfile.sum_of_powers([0.2, 0.7], dimension=2, gamma=1.7),
    "exponential": RadialProfile.exponential(1.3, dimension=2),
    "logarithmic": RadialProfile.logarithmic(1.0, dimension=2),
    "tabulated": RadialProfile.tabulated([0.3, 1.7, 2.9], [4.1, 2.3, 1.1], dimension=2),
}


def per_ray_tail(prof, grid, X):
    """Reference 2-D tail density at the points X (rows): the radial
    primitive at each of 2048 midpoint rays' exit distance from the box,
    the smaller of the two per-axis face distances, averaged times 2 pi."""
    prim = radial_primitive(prof, 1.0, tail=True)
    L = grid.half_width
    theta = (np.arange(2048) + 0.5) * (2.0 * math.pi / 2048)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    gaps = np.where(d[None, :, :] > 0, L - X[:, None, :], -L - X[:, None, :])
    return prim(np.min(gaps / d[None, :, :], axis=2)).mean(axis=1) * 2.0 * math.pi


def near_band(grid):
    """Masked-cell pairs at Chebyshev index distance <= 2, self pairs included."""
    idx = grid.index_array[grid.masked_indices]
    return np.max(np.abs(idx[:, None, :] - idx[None, :, :]), axis=2) <= 2


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
        op = assemble(k, g, None)
        # small row blocks so the gathers cross several block boundaries
        monkeypatch.setattr(assembly, "ROW_BLOCK", 1000)
        far = ~near_band(g)
        W_ref, _ = direct_far_field(k, g)
        np.testing.assert_allclose(op.weight_matrix[far], W_ref[far], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(op.kappa, direct_kappa(k, g), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("prof", [
        RadialProfile.power(0.3, dimension=2),
        RadialProfile.exponential(1.5, dimension=2),
        RadialProfile.sum_of_powers([0.2, 0.7], dimension=2),
        RadialProfile.tabulated([0.2, 0.5, 1.3, 2.5], [4.0, 2.0, 1.0, 0.5], dimension=2)])
    def test_folded_tail_matches_unfolded(self, prof):
        g = two_piece_grid(2)
        got = assembly.box_tail_density(Kernel(profile=prof), g)
        # every masked cell on its own, no symmetry fold
        unfolded = per_ray_tail(prof, g, g.centers[g.masked_indices])
        np.testing.assert_allclose(got, unfolded, rtol=1e-13, atol=0.0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), kind=st.sampled_from(sorted(TAIL_PROFILES)),
           seed=st.integers(0, 2 ** 32 - 1), fill=st.floats(0.05, 1.0))
    def test_tail_table_matches_per_ray_rule(self, n, kind, seed, fill):
        # the prefix-table lookups against the per-ray midpoint rule, on
        # random masks of odd and even boxes
        prof = TAIL_PROFILES[kind]
        mask = np.random.default_rng(seed).random((n, n)) < fill
        mask.flat[seed % mask.size] = True
        g = Grid(2, 1.0, n, mask)
        got = assembly.box_tail_density(Kernel(profile=prof), g)
        # the rule is invariant under the square's eight symmetries, so the
        # reference is evaluated once per folded index
        idx = g.index_array[g.masked_indices]
        folded = np.sort(np.minimum(idx, n - 1 - idx), axis=1)
        reps, inverse = np.unique(folded[:, 0] * n + folded[:, 1], return_inverse=True)
        want = per_ray_tail(prof, g, g.centers[reps])[inverse.ravel()]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_tail_blocks_bitwise_one_representative_each(self, n, monkeypatch):
        # each gap's prefix sums are the cumsum of its own row of quadrant
        # rays, so the gap block size (one gap, five with a short last
        # block, or the whole box) changes no bit, for every profile kind
        g = Grid.full_box(2, 1.0, n)
        for prof in (RadialProfile.power(0.5, dimension=2),
                     RadialProfile.sum_of_powers([0.2, 0.7], dimension=2, gamma=1.7),
                     RadialProfile.exponential(1.3, dimension=2),
                     RadialProfile.logarithmic(1.0, dimension=2),
                     RadialProfile.tabulated([0.3, 1.7, 2.9], [4.1, 2.3, 1.1], dimension=2)):
            blocked = assembly.box_tail_density(Kernel(profile=prof), g)
            for rows in (1, 5):
                with monkeypatch.context() as patch:
                    patch.setattr(assembly, "ROW_BLOCK", rows * 8 * (assembly.TAIL_ANGLES // 4))
                    assert assembly.tail_table_rows() == rows
                    single = assembly.box_tail_density(Kernel(profile=prof), g)
                assert np.array_equal(blocked, single), (prof.kind, rows)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tag", ["none", "rough_cosine"])
    def test_far_table_bitwise_per_axis(self, dim, tag):
        # the per-axis squares and Chebyshev norms against the offset
        # vectors of the whole (2n - 1)^N box
        g = Grid.full_box(dim, 1.0, 24 if dim == 2 else 200)
        k = modulated_kernel(tag, dim) if tag != "none" else frac_kernel(0.4, dim=dim)
        axis = np.arange(1 - g.n, g.n, dtype=np.int64)
        offsets = np.stack([a.ravel() for a in np.meshgrid(*([axis] * dim), indexing="ij")],
                           axis=1)
        far = np.max(np.abs(offsets), axis=1) > 2
        diff = g.h * offsets[far]
        want = np.zeros(offsets.shape[0])
        want[far] = k.profile.evaluate(np.sqrt(np.sum(diff * diff, axis=1)))
        if tag != "none":
            want[far] *= assembly.offset_modulation(k, diff)
        assert np.array_equal(assembly.far_offset_table(k, g), want)

    def test_tail_block_peak(self):
        # one block of 64 gaps x 512 quadrant rays and the 64 x 64 sums of
        # a 2-D n = 64 full box
        g = Grid.full_box(2, 1.0, 64)
        k = frac_kernel(0.5, dim=2)
        assembly.box_tail_density(k, g)
        tracemalloc.start()
        try:
            assembly.box_tail_density(k, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 1001, 4096])
    def test_median_is_numpy_median(self, size):
        # the diagnostics' medians, bit for bit, signed zeros included
        rng = np.random.default_rng(size)
        for x in (rng.standard_normal(size), np.round(rng.random(size), 1),
                  np.full(size, -0.0)):
            got, want = assembly.median(x), float(np.median(x))
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_phase_seconds_in_diagnostics(self):
        op = assemble(frac_kernel(0.4, dim=2), two_piece_grid(2), None)
        d = op.diagnostics
        phases = [d[key] for key in ("far_seconds", "near_seconds", "tail_seconds")]
        assert all(t >= 0 for t in phases)
        assert sum(phases) <= d["assembly_seconds"]


def half_power_tail(grid):
    """Exact 2-D tail density of j(r) = gamma r^-3 (s = 1/2): each face at
    distance d, seen between the angles phi_1 < phi_2 from its normal,
    adds gamma (sin phi_2 - sin phi_1) / d."""
    L = grid.half_width
    x, y = grid.centers[grid.masked_indices].T
    # face distances in counterclockwise order: right, top, left, bottom
    faces = [L - x, L - y, L + x, L + y]
    dens = 0.0
    for f, d in enumerate(faces):
        before, after = faces[f - 1], faces[(f + 1) % 4]
        dens = dens + (after / np.hypot(d, after) + before / np.hypot(d, before)) / d
    return dens


class TestTailTable:
    def tail_error(self):
        g = Grid.full_box(2, 1.0, 64)
        prof = RadialProfile.power(0.5, dimension=2, gamma=1.3)
        got = assembly.box_tail_density(Kernel(profile=prof), g)
        want = prof.gamma * half_power_tail(g)
        return np.max(np.abs(got - want) / want)

    def test_half_power_closed_form(self):
        # the 2048-angle midpoint rule, 5.6e-7 from the exact density
        assert self.tail_error() < 1e-6

    def test_coarse_rule_fails_closed_form(self, monkeypatch):
        # control: 256 angles are 3.9e-5 off, so the oracle can fail
        monkeypatch.setattr(assembly, "TAIL_ANGLES", 256)
        assert self.tail_error() > 1e-6

    def test_angle_count_multiple_of_four(self, monkeypatch):
        monkeypatch.setattr(assembly, "TAIL_ANGLES", 2046)
        with pytest.raises(ValueError, match="multiple of 4"):
            assembly.box_tail_density(frac_kernel(0.5, dim=2), Grid.full_box(2, 1.0, 8))

    @pytest.mark.parametrize("kind", ["power", "logarithmic"])
    def test_build_evaluates_n_quarter_angles(self, kind, monkeypatch):
        # one build evaluates the primitive at n K / 4 points whatever the
        # mask (in blocks of 5 gaps here), and a shared op_v at none
        points = []
        primitive = assembly.radial_primitive

        def counted(*args, **kwargs):
            prim = primitive(*args, **kwargs)

            def evaluate(r):
                points.append(np.size(r))
                return prim(r)

            return evaluate

        kernel = Kernel(profile=TAIL_PROFILES[kind])
        # one block of all 16 gaps: the blocks below change no bit
        whole = assembly.box_tail_density(kernel, Grid.full_box(2, 1.0, 16))
        monkeypatch.setattr(assembly, "radial_primitive", counted)
        monkeypatch.setattr(assembly, "ROW_BLOCK", 8 * 512 * 5)
        envelope = Kernel(profile=rearrange_profile(kernel.profile))
        assert envelope.profile is kernel.profile
        one = np.zeros((16, 16), dtype=bool)
        one[3, 11] = True
        for g in (Grid.full_box(2, 1.0, 16), two_piece_grid(2), Grid(2, 1.0, 16, one)):
            quarter_rays = g.n * assembly.TAIL_ANGLES // 4
            points.clear()
            op = assemble(kernel, g)
            assert len(points) == 4 and sum(points) == quarter_rays
            assert np.array_equal(op.box_kernel.tail.density, whole)
            assert op.diagnostics["tail_table"] == {"source": "computed",
                                                   "points": quarter_rays}
            points.clear()
            op_v = assemble(envelope, g.ball_grid, shared=op.box_kernel)
            assert points == []
            assert op_v.diagnostics["tail_table"] == {"source": "shared", "points": 0}
            assert op_v.box_kernel.tail.density is op.box_kernel.tail.density

    def test_one_dimensional_tail_has_no_table(self):
        op = assemble(frac_kernel(0.4), two_piece_grid(1))
        assert op.diagnostics["tail_table"] is None
        x = op.grid.centers[op.grid.masked_indices, 0]
        prim = radial_primitive(op.box_kernel.kernel.profile, 0.0, tail=True)
        assert np.array_equal(assembly.box_tail_density(op.box_kernel.kernel, op.grid),
                              prim(1.0 + x) + prim(1.0 - x))


SECONDS = {"far_seconds", "near_seconds", "tail_seconds", "assembly_seconds"}


class TestSharedKernel:
    """The symmetrized operator assembled with the original's box_kernel
    against a standalone assembly of it: bit for bit the same operator."""

    PROFILES = {
        "power": lambda dim: RadialProfile.power(0.4, dimension=dim),
        "sum_of_powers": lambda dim: RadialProfile.sum_of_powers([0.2, 0.7], dimension=dim),
        "exponential": lambda dim: RadialProfile.exponential(1.5, dimension=dim),
        "logarithmic": lambda dim: RadialProfile.logarithmic(1.0, dimension=dim),
    }

    @staticmethod
    def assemble_pair(kernel, grid):
        """(op_u, shared op_v, standalone op_v), op_v for the envelope on
        the ball with c = 0.5."""
        envelope = Kernel(profile=rearrange_profile(kernel.profile))
        ball = grid.ball_grid
        c = GridFunction.constant(ball, 0.5)
        op_u = assemble(kernel, grid)
        return (op_u, assemble(envelope, ball, c, shared=op_u.box_kernel),
                assemble(envelope, ball, c))

    @staticmethod
    def assert_same(got, want):
        for name in ("pairs", "symbol", "kappa", "tail_interval", "cdiag", "near",
                     "near_cols"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        # near_sums and tail_table count where the sums and the tail table
        # came from, like shared_kernel
        skip = SECONDS | {"shared_kernel", "near_sums", "tail_table"}
        assert ({k: v for k, v in got.diagnostics.items() if k not in skip}
                == {k: v for k, v in want.diagnostics.items() if k not in skip})

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_shared_equals_standalone(self, dim, kind, monkeypatch):
        kernel = Kernel(profile=self.PROFILES[kind](dim))
        tables = []
        density = assembly.box_tail_density

        def counted(kernel, grid, table=None):
            tables.append(None if table is None else table.source)
            return density(kernel, grid, table)

        monkeypatch.setattr(assembly, "box_tail_density", counted)
        op_u, shared, alone = self.assemble_pair(kernel, two_piece_grid(dim))
        assert shared.pairs is op_u.pairs and shared.symbol is op_u.symbol
        assert not (shared.pairs.flags.writeable or shared.symbol.flags.writeable)
        assert shared.diagnostics["shared_kernel"]
        assert not (op_u.diagnostics["shared_kernel"] or alone.diagnostics["shared_kernel"])
        assert (shared.diagnostics["near_refinement_depths"]
                == op_u.diagnostics["near_refinement_depths"])
        assert all(shared.diagnostics[key] >= 0 for key in SECONDS)
        self.assert_same(shared, alone)
        # one tail call per assembly; in 2-D the shared one reads op_u's
        # table and the standalone one builds its own (1-D has no table)
        assert tables == ["computed", "shared" if dim == 2 else "computed", "computed"]
        if dim == 2:
            assert shared.box_kernel.tail.density is op_u.box_kernel.tail.density
            assert not op_u.box_kernel.tail.density.flags.writeable
            assert np.array_equal(alone.box_kernel.tail.density, op_u.box_kernel.tail.density)
            assert shared.diagnostics["tail_table"] == {"source": "shared", "points": 0}

    @pytest.mark.filterwarnings("ignore:box margin too small")
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tag", ["table", "rough_cosine", "separable_cosine"])
    def test_own_table(self, dim, tag):
        # a tabulated profile is rearranged into a new object, and a
        # modulated original has another table: the envelope builds its own
        if tag == "table":
            kernel = Kernel(profile=RadialProfile.tabulated(
                [0.2, 0.5, 1.3, 2.5], [2.0, 4.0, 1.0, 0.5], dimension=dim))
        else:
            kernel = modulated_kernel(tag, dim)
        op_u, shared, alone = self.assemble_pair(kernel, two_piece_grid(dim))
        assert shared.pairs is not op_u.pairs
        assert not shared.diagnostics["shared_kernel"]
        self.assert_same(shared, alone)

    def test_other_geometry_not_shared(self):
        kernel = frac_kernel(0.4, dim=2)
        coarse = assemble(kernel, Grid.full_box(2, 1.0, 8))
        g = two_piece_grid(2)
        op = assemble(kernel, g, shared=coarse.box_kernel)
        assert not op.diagnostics["shared_kernel"]
        self.assert_same(op, assemble(kernel, g))


def fourier_cases():
    """Unmodulated operators on masked 1-D and 2-D grids, a centered ball
    and a grid with a nonzero lower-order coefficient, and separable_cosine
    operators with that coefficient."""
    g2 = two_piece_grid(2)
    c = GridFunction.from_callable(g2, lambda x, y: 1.0 + x * x + 0.5 * y)
    g1 = two_piece_grid(1)
    c1 = GridFunction.from_callable(g1, lambda x: 1.0 + x * x)
    return {
        "masked-1d": assemble(frac_kernel(0.4), g1, None),
        "masked-2d": assemble(frac_kernel(0.4, dim=2), g2, None),
        "ball": assemble(frac_kernel(0.3, dim=2), g2.ball_grid, None),
        "with-c": assemble(frac_kernel(0.6, dim=2), g2, c),
        "separable-1d": assemble(modulated_kernel("separable_cosine", 1), g1, c1),
        "separable-2d": assemble(modulated_kernel("separable_cosine", 2), g2, c),
    }


FOURIER_CASES = ["masked-1d", "masked-2d", "ball", "with-c", "separable-1d", "separable-2d"]


class ReferenceProduct:
    """The offset-table product written with np.fft.rfftn and irfftn over
    the whole box, as a reference for OffsetProduct's one-axis passes."""

    def __init__(self, product):
        self.product = product

    def __call__(self, x, sources=None):
        prod = self.product
        box = np.zeros(prod.box)
        at = prod.cells if sources is None else prod.index[sources] @ prod.strides
        box.reshape(-1)[at] = x
        y = np.fft.irfftn(prod.symbol * np.fft.rfftn(box, axes=prod.axes),
                          s=prod.box, axes=prod.axes)
        return y.reshape(-1)[prod.cells]


class TestToeplitzSystem:
    """OperatorSystem products, diagonals and mass shifts against op.matrix,
    and OffsetProduct against the rfftn/irfftn product."""

    @pytest.fixture(scope="class")
    def cases(self):
        return fourier_cases()

    @pytest.mark.parametrize("name", FOURIER_CASES)
    def test_matvec_matches_dense(self, cases, name):
        op = cases[name]
        assert op.diagnostics["matvec"] == "fft"
        rng = np.random.default_rng(7)
        for x in (rng.normal(size=op.size), np.ones(op.size)):
            want = op.matrix @ x
            got = op.system() @ x
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", FOURIER_CASES)
    def test_diagonal_matches_dense(self, cases, name):
        op = cases[name]
        np.testing.assert_allclose(op.system().diagonal(), np.diag(op.matrix),
                                   rtol=1e-14, atol=0.0)

    def test_mass_shift_is_a_diagonal(self, cases):
        op = cases["with-c"]
        mass = np.linspace(1.0, 3.0, op.size)
        x = np.random.default_rng(8).normal(size=op.size)
        want = op.matrix @ x + mass * x
        got = op.system(mass) @ x
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the carried-over symbol keeps with_cdiag operators on the FFT path
        shifted = op.with_cdiag(op.cdiag + mass)
        assert shifted.symbol is op.symbol
        np.testing.assert_allclose(shifted.system().diagonal(),
                                   op.system(mass).diagonal(), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ["separable-1d", "separable-2d"])
    def test_separable_system_matches_dense(self, cases, name):
        op = cases[name]
        assert op.symbol is not None and op.near is not None
        mass = np.linspace(1.0, 3.0, op.size)
        x = np.random.default_rng(9).normal(size=op.size)
        for want, got in ((op.matrix @ x, op.system() @ x),
                          (op.matrix @ x + mass * x, op.system(mass) @ x)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        np.testing.assert_allclose(op.system(mass).diagonal(), np.diag(op.matrix) + mass,
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", FOURIER_CASES)
    def test_bitwise_rfftn_product(self, cases, name):
        product = cases[name].table_product
        ref = ReferenceProduct(product)
        rng = np.random.default_rng(11)
        for x in (rng.normal(size=cases[name].size), np.ones(cases[name].size)):
            assert np.array_equal(product(x), ref(x))

    @pytest.mark.parametrize("dim,n", [(1, 1024), (1, 37), (2, 64), (2, 15)])
    def test_bitwise_on_full_boxes(self, dim, n):
        op = assemble(frac_kernel(0.5, dim=dim), Grid.full_box(dim, 1.0, n), None)
        x = np.random.default_rng(n).normal(size=op.size)
        assert np.array_equal(op.table_product(x), ReferenceProduct(op.table_product)(x))

    @pytest.mark.parametrize("name", ["masked-1d", "masked-2d", "separable-2d"])
    def test_bitwise_sources(self, cases, name):
        # the killing's path: x sits on the unmasked box cells
        op = cases[name]
        product = op.table_product
        outside = np.flatnonzero(~op.grid.mask_flat)
        x = np.random.default_rng(12).normal(size=outside.size)
        ref = ReferenceProduct(product)
        for value in (1.0, x):
            assert np.array_equal(product(value, outside), ref(value, outside))

    @pytest.mark.parametrize("name", ["separable-1d", "separable-2d"])
    def test_separable_weights_times_bitwise(self, cases, name):
        # T x + amp g T(g x) + N x, with the reference product swapped in
        op = cases[name]
        x = np.random.default_rng(13).normal(size=op.size)
        got = op.weights_times(x)
        ref_op = replace(op)
        ref_op.__dict__["table_product"] = ReferenceProduct(op.table_product)
        assert np.array_equal(got, ref_op.weights_times(x))


def pair_energy(op, u):
    """Reference energy: w (u_i - u_j)^2 summed pair by pair over i < j
    from the dense weights, plus the killing and lower-order terms."""
    W = op.weight_matrix
    total = float(np.dot(op.kappa + op.cdiag, u * u))
    for i in range(u.size - 1):
        d = u[i] - u[i + 1:]
        total += float(np.dot(W[i, i + 1:], d * d))
    return total


def dense_arrays(op):
    """Names of the arrays in vars(op) with at least m (m - 1) / 2 entries,
    as many as the strict upper triangle of the weights."""
    return [k for k, v in vars(op).items()
            if isinstance(v, np.ndarray) and v.size >= op.size * (op.size - 1) // 2]


class TestStoredPairs:
    @pytest.fixture(scope="class")
    def cases(self):
        g2 = two_piece_grid(2)
        c = GridFunction.from_callable(g2, lambda x, y: 1.0 + x * x + 0.5 * y)
        return {
            "table-2d": assemble(frac_kernel(0.4, dim=2), g2, c),
            "separable_cosine": assemble(modulated_kernel("separable_cosine", 2), g2, c),
            "rough_cosine": assemble(modulated_kernel("rough_cosine", 2), g2, None),
        }

    @pytest.mark.parametrize("name", ["table-2d", "separable_cosine", "rough_cosine"])
    def test_energy_matches_pair_sum(self, cases, name):
        op = cases[name]
        rng = np.random.default_rng(11)
        for u in (rng.normal(size=op.size), rng.uniform(0.0, 1.0, op.size)):
            assert energy(op, u) == pytest.approx(pair_energy(op, u), rel=1e-12)

    def test_table_operator_holds_no_dense_array(self):
        g = two_piece_grid(2)
        for k in (frac_kernel(0.4, dim=2), modulated_kernel("separable_cosine", 2)):
            op = assemble(k, g, None)
            assert op.pairs.shape == ((2 * g.n - 1) ** 2,)
            assert dense_arrays(op) == []
            energy(op, np.random.default_rng(3).normal(size=op.size))
            assert "weight_matrix" not in vars(op)
            assert dense_arrays(op) == []
            # the dense weights are gathered on request and cached by name
            W = op.weight_matrix
            assert dense_arrays(op) == ["weight_matrix"]
            assert op.weight_matrix is W

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gathered_weights_match_far_field(self, dim, monkeypatch):
        g = two_piece_grid(dim)
        k = frac_kernel(0.4, dim=dim)
        W, _ = direct_far_field(k, g)
        op = assemble(k, g, None)
        # small row blocks so the gather crosses several block boundaries
        monkeypatch.setattr(assembly, "ROW_BLOCK", 1000)
        gathered = op.weight_matrix
        band = near_band(g)
        np.testing.assert_allclose(gathered[~band], W[~band], rtol=1e-13, atol=0.0)
        assert np.array_equal(gathered, gathered.T)
        assert not np.any(np.diag(gathered))
        assert np.all(gathered[band & ~np.eye(op.size, dtype=bool)] > 0)


def direct_kappa(kernel, grid):
    """Reference kappa: direct_far_field toward unmasked cells plus the
    refined near weight of every masked cell toward each unmasked box cell
    at Chebyshev distance 1 or 2, pair by pair, plus the tail midpoint."""
    _, kappa = direct_far_field(kernel, grid)
    idx, n = grid.index_array, grid.n
    for r, i in enumerate(grid.masked_indices):
        for delta in assembly.near_offsets(grid.dimension):
            j = idx[i] + np.asarray(delta)
            if np.all((j >= 0) & (j < n)) and not grid.mask[tuple(j)]:
                w, _ = assembly.refined_pair_weights(kernel, grid.centers, np.array([i]),
                                                     delta, grid.h)
                kappa[r] += w[0]
    tail = grid.cell_volume * assembly.box_tail_density(kernel, grid)
    return kappa + 0.5 * (1.0 + kernel.Lambda) * tail


def per_row_near(kernel, grid, rows, delta):
    """Reference near weights for the pairs (i, i + delta), i in rows: the
    modulation of both cell viewpoints evaluated at every subcell point of
    every row, with the Richardson loop of assembly.refined_pair_weights.
    Returns (weights, depth)."""
    dim, h, a = grid.dimension, grid.h, kernel.modulation
    shift = h * np.asarray(delta, dtype=np.float64)
    xi = grid.centers[rows]
    xj = xi + shift
    cap = assembly.NEAR_CAP_1D if dim == 1 else assembly.NEAR_CAP_2D

    def level(m):
        axis = (np.arange(m) + 0.5) * (h / m) - h / 2.0
        t = np.stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")],
                     axis=1)
        v = shift + t
        jvals = kernel.profile.evaluate(np.sqrt(np.sum(v ** 2, axis=1)))
        out = np.empty(len(rows))
        for lo in range(0, len(rows), 8):
            x, y = xi[lo:lo + 8, None, :], xj[lo:lo + 8, None, :]
            fwd, bwd = x + v[None], y - v[None]
            if dim == 1:
                avg = 0.5 * (a(x[..., 0], fwd[..., 0]) + a(y[..., 0], bwd[..., 0]))
            else:
                avg = 0.5 * (a(x, fwd) + a(y, bwd))
            out[lo:lo + 8] = avg @ jvals
        return h ** dim * (h / m) ** dim * out

    prev_plain, prev_rich, m = level(1), None, 2
    while m <= cap:
        plain = level(m)
        rich = plain + (plain - prev_plain) / 3.0
        if (prev_rich is not None
                and np.max(np.abs(rich - prev_rich) / np.abs(rich)) < assembly.NEAR_TOL):
            return rich, m
        prev_plain, prev_rich, m = plain, rich, 2 * m
    raise AssertionError(f"reference near quadrature did not converge at {delta}")


def near_rows(grid, delta):
    """The source rows assembly.near_field refines for an offset: masked
    cells whose delta-neighbor lies in the box, and for an offset that is
    not lex-positive only those whose neighbor is unmasked.  Returns the
    flat source cells and the flat targets."""
    idx = grid.index_array
    src = grid.masked_indices
    target = idx[src] + np.asarray(delta)
    inside = np.all((target >= 0) & (target < grid.n), axis=1)
    src, target = src[inside], target[inside]
    tflat = np.ravel_multi_index(tuple(target.T), grid.mask.shape)
    if not assembly.lex_positive(delta):
        keep = ~grid.mask_flat[tflat]
        src, tflat = src[keep], tflat[keep]
    return src, tflat


def reference_near(kernel, grid):
    """Near part of W and of kappa and the depth per offset, pair by pair
    through per_row_near.  Returns ({delta: (src, tflat, weights)}, depths)."""
    out, depths = {}, {}
    for delta in assembly.near_offsets(grid.dimension):
        src, tflat = near_rows(grid, delta)
        if src.size:
            w, depths[str(delta)] = per_row_near(kernel, grid, src, delta)
            out[delta] = (src, tflat, w)
    return out, depths


def reference_weights(kernel, grid, near):
    """Dense W and in-box kappa from direct_far_field plus the reference near
    weights of reference_near, pair by pair."""
    W, kappa = direct_far_field(kernel, grid)
    local = np.full(grid.cell_count, -1)
    local[grid.masked_indices] = np.arange(grid.masked_count)
    for src, tflat, w in near.values():
        to_masked = grid.mask_flat[tflat]
        rows, cols = local[src[to_masked]], local[tflat[to_masked]]
        W[rows, cols] = W[cols, rows] = w[to_masked]
        np.add.at(kappa, local[src[~to_masked]], w[~to_masked])
    return W, kappa


def mutant_rows(kind):
    """assembly.separable_rows with one deliberate fault ("exact": none)."""
    def rows(mod, at_i, at_j, c0, C, S):
        (ci, si, gi), (cj, sj, gj) = at_i, at_j
        if kind == "swap-cos":
            ci, cj = cj, ci
        s_sign = 1.0 if kind == "flip-S" else -1.0
        quarter = 0.5 if kind == "amp/2" else 0.25
        return c0 + quarter * mod.amp * (gi * (c0 + ci * C + s_sign * si * S)
                                         + gj * (c0 + cj * C + sj * S))
    return rows


class TestModulationForms:
    @pytest.fixture(scope="class")
    def separable(self):
        out = {}
        for dim in (1, 2):
            g = two_piece_grid(dim)
            k = modulated_kernel("separable_cosine", dim)
            out[dim] = (g, k) + reference_near(k, g)
        return out

    @pytest.mark.parametrize("dim", [1, 2])
    def test_separable_near_weights_match_per_row(self, separable, dim):
        g, k, ref, depths = separable[dim]
        named = [(1,), (2,)] if dim == 1 else [(1, 0), (1, 1), (2, -1)]
        assert all(d in ref for d in named)
        for delta, (src, _, want) in ref.items():
            got, depth = assembly.refined_pair_weights(k, g.centers, src, delta, g.h)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            assert depth == depths[str(delta)]
        op = assemble(k, g, None)
        assert op.diagnostics["near_refinement_depths"] == depths
        # the assembled band carries the per-row weights at the named offsets
        local = np.full(g.cell_count, -1)
        local[g.masked_indices] = np.arange(g.masked_count)
        for delta in named:
            src, tflat, want = ref[delta]
            to_masked = g.mask_flat[tflat]
            np.testing.assert_allclose(
                op.weight_matrix[local[src[to_masked]], local[tflat[to_masked]]],
                want[to_masked], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kind", ["exact", "flip-S", "swap-cos", "amp/2"])
    def test_separable_mutants_fail(self, separable, kind, monkeypatch):
        g, k, ref, _ = separable[2]
        monkeypatch.setattr(assembly, "separable_rows", mutant_rows(kind))
        worst = 0.0
        for delta in [(1, 0), (1, 1), (2, -1)]:
            src, _, want = ref[delta]
            try:
                got, _ = assembly.refined_pair_weights(k, g.centers, src, delta, g.h)
            except ValueError:  # the band guard caught it
                worst = math.inf
                break
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert (worst <= 1e-13) == (kind == "exact")

    @pytest.mark.parametrize("kind", ["exact", "no-GTG", "no-band"])
    def test_separable_operator_mutants_fail(self, separable, kind):
        # W = T + amp G T G + N against the pairwise reference, with one
        # term of the stored form dropped ("exact": none)
        g, k, ref, _ = separable[2]
        op = assemble(k, g, None)
        if kind == "no-GTG":
            op = replace(op, amp=0.0)
        elif kind == "no-band":
            op = replace(op, near=np.zeros_like(op.near))
        W, _ = reference_weights(k, g, ref)
        x = np.random.default_rng(12).normal(size=op.size)
        want = W @ x
        worst = max(float(np.max(np.abs(op.weights_times(x) - want))
                          / np.max(np.abs(want))),
                    float(np.max(np.abs(op.pair_rows(slice(0, op.size)) - W))
                          / np.max(W)))
        assert (worst <= 1e-13) == (kind == "exact")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rough_cosine_table_matches_dense_reference(self, dim):
        g = two_piece_grid(dim)
        k = modulated_kernel("rough_cosine", dim)
        op = assemble(k, g, None)
        assert op.diagnostics["matvec"] == "fft"
        assert op.pairs.shape == ((2 * g.n - 1) ** dim,)
        x = np.random.default_rng(4).normal(size=op.size)
        y = op.system() @ x
        assert dense_arrays(op) == []
        W, kappa = reference_weights(k, g, reference_near(k, g)[0])
        np.testing.assert_allclose(op.weight_matrix, W, rtol=1e-13, atol=0.0)
        tail = g.cell_volume * assembly.box_tail_density(k, g)
        np.testing.assert_allclose(op.kappa, kappa + 0.5 * (1.0 + k.Lambda) * tail,
                                   rtol=1e-12, atol=0.0)
        want = op.matrix @ x
        assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_plain_callable_refused(self, dim):
        k = Kernel(profile=RadialProfile.power(0.4, dimension=dim), Lambda=2.0,
                   modulation=lambda x, y: 1.5 + 0 * np.asarray(x, dtype=float),
                   modulation_tag="rough_cosine")
        with pytest.raises(ValueError, match="make_modulation"):
            assemble(k, two_piece_grid(dim), None)

    @pytest.mark.parametrize("tag", ["separable_cosine", "rough_cosine"])
    def test_out_of_band_kernel_refused(self, tag):
        # 1 + amp = 3 above Lambda = 1.5
        k = Kernel(profile=RadialProfile.power(0.4, dimension=2), Lambda=1.5,
                   modulation=make_modulation(tag, 3.0, dim=2), modulation_tag=tag)
        with pytest.raises(ValueError, match="certified band"):
            assemble(k, Grid.full_box(2, 1.0, 16), None)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_refined_separable_weights_band_checked(self, dim):
        # the near guard on its own: in band at Lambda = 1 + amp, refused
        # just below the largest pair-averaged factor
        g = Grid.full_box(dim, 1.0, 8)
        delta = (1,) * dim
        src = near_rows(g, delta)[0]
        k = modulated_kernel("separable_cosine", dim)
        w, _ = assembly.refined_pair_weights(k, g.centers, src, delta, g.h)
        w0, _ = assembly.refined_pair_weights(frac_kernel(0.4, dim), g.centers, src,
                                              delta, g.h)
        ratio = float(np.max(w / w0))
        assert 1.0 < ratio < k.Lambda
        low = replace(k, Lambda=1.0 + 0.9 * (ratio - 1.0))
        with pytest.raises(ValueError, match="certified band"):
            assembly.refined_pair_weights(low, g.centers, src, delta, g.h)


def per_offset_near(kernel, centers, rows, delta, h):
    """The near loop with no shared sums, as refined_pair_weights ran it
    before NearSums: every level evaluates the profile on the meshgrid of
    its own subcell points, and for a separable modulation recomputes every
    row's phase terms.  Returns (weights, depth), None where the cap comes
    first."""
    dim = len(delta)
    shift = h * np.asarray(delta, dtype=np.float64)
    mod = kernel.modulation
    xi = centers[rows]
    cap = assembly.NEAR_CAP_1D if dim == 1 else assembly.NEAR_CAP_2D

    def rows_sum(xj, c0, C, S):
        pi, pj = mod.omega * xi.sum(axis=1), mod.omega * xj.sum(axis=1)
        ci, cj = np.cos(pi), np.cos(pj)
        gi, gj = 0.5 * (1.0 + ci), 0.5 * (1.0 + cj)
        return c0 + 0.25 * mod.amp * (gi * (c0 + ci * C - np.sin(pi) * S)
                                      + gj * (c0 + cj * C + np.sin(pj) * S))

    def level(m):
        axis = (np.arange(m) + 0.5) * (h / m) - h / 2.0
        t = np.stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")],
                     axis=1)
        v = shift[None, :] + t
        jvals = kernel.profile.evaluate(np.sqrt(np.sum(v ** 2, axis=1)))
        scale = h ** dim * (h / m) ** dim
        if not isinstance(mod, SeparableCosine):
            aj = jvals if mod is None else assembly.offset_modulation(kernel, v) * jvals
            return np.full(rows.size, scale * float(aj.sum()))
        phase = mod.omega * v.sum(axis=1)
        return scale * rows_sum(xi + shift, float(jvals.sum()),
                                float(np.cos(phase) @ jvals), float(np.sin(phase) @ jvals))

    prev_plain, prev_rich = level(1), None
    m = 2
    while m <= cap:
        plain = level(m)
        rich = plain + (plain - prev_plain) / 3.0
        if prev_rich is not None:
            denom = np.maximum(np.abs(rich), 1e-300)
            if np.max(np.abs(rich - prev_rich) / denom) < assembly.NEAR_TOL:
                return rich, m
        prev_plain, prev_rich = plain, rich
        m *= 2
    return None


NEAR_PROFILES = {
    "power": lambda dim: RadialProfile.power(0.4, dimension=dim),
    "sum_of_powers": lambda dim: RadialProfile.sum_of_powers([0.2, 0.7], dimension=dim),
    "exponential": lambda dim: RadialProfile.exponential(1.5, dimension=dim),
    "logarithmic": lambda dim: RadialProfile.logarithmic(1.0, dimension=dim),
    "tabulated": lambda dim: RadialProfile.tabulated(
        [0.2, 0.5, 1.3, 2.5], [4.0, 2.0, 1.0, 0.5], dimension=dim),
}


def profile_kernel(kind, tag, dim, lam=2.0):
    profile = NEAR_PROFILES[kind](dim)
    if tag == "none":
        return Kernel(profile=profile)
    return Kernel(profile=profile, Lambda=lam, modulation=make_modulation(tag, lam, dim=dim),
                  modulation_tag=tag)


class TestNearSums:
    """One table of level sums per assembly against the per-offset loop."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tag", ["none", "rough_cosine", "separable_cosine"])
    @pytest.mark.parametrize("kind", sorted(NEAR_PROFILES))
    def test_table_matches_per_offset_loop(self, kind, tag, dim):
        # every offset in near_field's order through one table: the
        # lex-positive weights and all depths bit for bit, the others (read
        # from reflected sums) within rounding; the 2-D table profile steps
        # at r = 0.2 inside the near field, where some offsets meet the cap
        g = two_piece_grid(dim)
        k = profile_kernel(kind, tag, dim)
        sums = assembly.NearSums(k, g.h)
        for delta in assembly.near_offsets(dim):
            src = near_rows(g, delta)[0]
            if not src.size:
                continue
            ref = per_offset_near(k, g.centers, src, delta, g.h)
            if ref is None:
                with pytest.raises(AssemblyError):
                    assembly.refined_pair_weights(k, g.centers, src, delta, g.h, sums=sums)
                continue
            got, depth = assembly.refined_pair_weights(k, g.centers, src, delta, g.h,
                                                       sums=sums)
            want, want_depth = ref
            assert depth == want_depth, delta
            if assembly.lex_positive(delta):
                assert np.array_equal(got, want), delta
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        if tag == "rough_cosine":
            assert sums.levels == {} and sums.reused == 0 and sums.computed > 0
        else:
            # each level of a lex-positive offset is summed once
            assert sums.computed == len(sums.levels) and sums.reused > 0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tag", ["none", "rough_cosine", "separable_cosine"])
    def test_assembled_depths_match_per_offset_loop(self, tag, dim):
        g = two_piece_grid(dim)
        k = profile_kernel("power", tag, dim)
        op = assemble(k, g)
        offsets = [d for d in assembly.near_offsets(dim)
                   if tag == "separable_cosine" or assembly.lex_positive(d)]
        want = {}
        for delta in offsets:
            src = near_rows(g, delta)[0] if tag == "separable_cosine" else np.zeros(1, int)
            if src.size:
                want[str(delta)] = per_offset_near(k, g.centers, src, delta, g.h)[1]
        assert op.diagnostics["near_refinement_depths"] == want

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["power", "exponential", "logarithmic"])
    def test_envelope_reads_separable_sums(self, kind, dim):
        # the envelope's near constants take c0 from the original's table
        # and equal a standalone assembly bit for bit
        g = two_piece_grid(dim)
        k = profile_kernel(kind, "separable_cosine", dim)
        envelope = Kernel(profile=k.profile)
        op_u = assemble(k, g)
        shared = assemble(envelope, g.ball_grid, shared=op_u.box_kernel)
        alone = assemble(envelope, g.ball_grid)
        for name in ("pairs", "symbol", "kappa", "tail_interval"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name)), name
        assert (shared.diagnostics["near_refinement_depths"]
                == alone.diagnostics["near_refinement_depths"])
        counts = shared.diagnostics["near_sums"]
        assert counts["reused"] > 0
        assert counts["computed"] == alone.diagnostics["near_sums"]["computed"] - counts["reused"]

    def test_nothing_carries_over_between_assemblies(self):
        g = two_piece_grid(2)
        for k in (frac_kernel(0.4, dim=2), modulated_kernel("separable_cosine", 2)):
            first, second = assemble(k, g), assemble(k, g)
            assert first.box_kernel.near_sums is not second.box_kernel.near_sums
            for op in (first, second):
                counts = op.diagnostics["near_sums"]
                assert counts["computed"] > 0 and counts["points"] > 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_band_checked_on_table_sums(self, dim):
        # a narrower Lambda with the same profile and modulation reads every
        # level from the table and is still refused
        g = Grid.full_box(dim, 1.0, 8)
        delta = (1,) * dim
        src = near_rows(g, delta)[0]
        k = modulated_kernel("separable_cosine", dim)
        sums = assembly.NearSums(k, g.h)
        w, _ = assembly.refined_pair_weights(k, g.centers, src, delta, g.h, sums=sums)
        w0, _ = assembly.refined_pair_weights(frac_kernel(0.4, dim), g.centers, src,
                                              delta, g.h)
        low = replace(k, Lambda=1.0 + 0.9 * (float(np.max(w / w0)) - 1.0))
        computed = sums.computed
        with pytest.raises(ValueError, match="certified band"):
            assembly.refined_pair_weights(low, g.centers, src, delta, g.h, sums=sums)
        assert sums.computed == computed and sums.reused > 0

    def test_cap_raises_with_table_sums(self, monkeypatch):
        g = Grid.full_box(2, 1.0, 8)
        k = modulated_kernel("separable_cosine", 2)
        sums = assembly.NearSums(k, g.h)
        src = near_rows(g, (1, 0))[0]
        assembly.refined_pair_weights(k, g.centers, src, (1, 0), g.h, sums=sums)
        monkeypatch.setattr(assembly, "NEAR_CAP_2D", 4)
        with pytest.raises(AssemblyError):
            assembly.refined_pair_weights(k, g.centers, src, (1, 0), g.h, sums=sums)

    def test_table_of_another_kernel_refused(self):
        g = Grid.full_box(2, 1.0, 8)
        k = modulated_kernel("separable_cosine", 2)
        sums = assembly.NearSums(k, g.h)
        src = near_rows(g, (1, 0))[0]
        others = [(frac_kernel(0.4, dim=2), g.h),
                  (k, 0.5 * g.h),
                  (Kernel(profile=k.profile, Lambda=2.0, modulation_tag="separable_cosine",
                          modulation=make_modulation("separable_cosine", 2.0, 2, omega=2.0)),
                   g.h)]
        for other, h in others:
            with pytest.raises(ValueError, match="near sums"):
                assembly.refined_pair_weights(other, g.centers, src, (1, 0), h, sums=sums)
        # an unmodulated kernel of the same profile reads c0 from it
        plain = Kernel(profile=k.profile)
        assembly.refined_pair_weights(k, g.centers, src, (1, 0), g.h, sums=sums)
        reused = sums.reused
        assembly.refined_pair_weights(plain, g.centers, np.zeros(1, int), (1, 0), g.h,
                                      sums=sums)
        assert sums.reused > reused


def holed_grid(dim):
    """two_piece_grid with a few interior cells unmasked, so that band
    slots are padded inside the domain as well as at its edges."""
    g = two_piece_grid(dim)
    mask = g.mask_flat.copy()
    mask[g.masked_indices[[5, 6, 20] if dim == 1 else [10, 11, 40, 41, 57]]] = False
    return Grid(dim, 1.0, g.n, mask.reshape(g.mask.shape))


def csr_band(op):
    """The near band of op as a scipy CSR matrix, the form it had before."""
    m, K = op.size, op.near.shape[0]
    rows = np.repeat(np.arange(m)[None, :], K, axis=0)
    real = op.near_cols < m
    return sparse.csr_matrix((op.near[real], (rows[real], op.near_cols[real])),
                             shape=(m, m))


def csr_weights_times(op, band, x):
    y = op.table_product(x)
    y += op.amp * op.g * op.table_product(op.g * x)
    y += band @ x
    return y


def csr_pair_rows(op, band, rows, cols=None):
    cols = slice(None) if cols is None else cols
    midx = op.grid.masked_indices
    W = op.pairs[assembly.table_positions(op.grid, midx[rows], midx[cols])]
    scaled = W * op.g[cols]
    scaled *= op.amp * op.g[rows][:, None]
    W += scaled
    part = band[rows][:, cols].tocoo()
    W[part.row, part.col] += part.data
    return W


class TestNearBand:
    """The separable near band as (K, m) slot arrays, against the CSR
    matrix it replaces."""

    @pytest.fixture(scope="class")
    def ops(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return {dim: assemble(modulated_kernel("separable_cosine", dim), holed_grid(dim))
                    for dim in (1, 2)}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_slots_hold_the_neighbours(self, ops, dim):
        op = ops[dim]
        g, m = op.grid, op.size
        offsets = assembly.near_offsets(dim)
        assert op.near.shape == op.near_cols.shape == (len(offsets), m)
        local = np.full(g.cell_count + 1, m)
        local[g.masked_indices] = np.arange(m)
        idx = g.index_array[g.masked_indices]
        padded = 0
        for k, delta in enumerate(offsets):
            assert offsets[-1 - k] == tuple(-d for d in delta)
            target = idx + np.asarray(delta)
            inside = np.all((target >= 0) & (target < g.n), axis=1)
            want = np.full(m, m)
            want[inside] = local[np.ravel_multi_index(tuple(target[inside].T),
                                                      g.mask.shape)]
            np.testing.assert_array_equal(op.near_cols[k], want)
            real = want < m
            padded += int(np.sum(~real & inside))
            assert np.all(op.near[k, real] > 0) and np.all(op.near[k, ~real] == 0)
            # the pair seen from its other cell sits in the opposite slot
            np.testing.assert_array_equal(op.near_cols[-1 - k, want[real]],
                                          np.flatnonzero(real))
            np.testing.assert_array_equal(op.near[-1 - k, want[real]], op.near[k, real])
        assert padded > 0  # slots toward unmasked in-box cells occur

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_weights_times_bitwise_csr(self, ops, dim, blocked, monkeypatch):
        op = ops[dim]
        if blocked:  # gather blocks of 5 cells, the last one short
            monkeypatch.setattr(assembly, "ROW_BLOCK", 5 * op.near.shape[0])
            assert op.size % 5 != 0
        band = csr_band(op)
        rng = np.random.default_rng(8 + dim)
        for x in (rng.normal(size=op.size), np.ones(op.size), rng.random(op.size) > 0.5):
            assert np.array_equal(op.weights_times(x), csr_weights_times(op, band, x))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pair_rows_bitwise_csr(self, ops, dim):
        op = ops[dim]
        band = csr_band(op)
        rng = np.random.default_rng(5)
        rows = rng.permutation(op.size)[:11]
        cols = rng.permutation(op.size)[:op.size // 2]
        for r, c in ((slice(None), None), (slice(3, 19), None), (rows, None),
                     (rows, cols), (slice(3, 19), cols), (cols, cols)):
            assert np.array_equal(op.pair_rows(r, c), csr_pair_rows(op, band, r, c))

    def test_guards(self, ops):
        op = ops[2]
        pad = np.argwhere(op.near_cols == op.size)[0]
        bad = op.near.copy()
        bad[tuple(pad)] = 1e-3
        negative = op.near.copy()
        negative[np.unravel_index(np.argmax(op.near), op.near.shape)] = -1e-3
        cases = [("must match", {"near": op.near[:, :-1]}),
                 ("must match", {"near_cols": op.near_cols[:-1]}),
                 ("padded slot", {"near": bad}),
                 ("nonnegative", {"near": negative})]
        for match, change in cases:
            with pytest.raises(ValueError, match=match):
                replace(op, **change)
        replace(op, near=op.near.copy())  # the unchanged band passes


class TestTableEdgeCases:
    def test_domain_flush_with_upper_edge(self):
        # two rows against the upper x edge: +delta with delta_x = 2 has no
        # in-box target, while -delta meets the unmasked cells below
        n = 10
        idx = Grid.full_box(2, 1.0, n).index_array
        g = Grid(2, 1.0, n, ((idx[:, 0] >= n - 2) & (idx[:, 1] >= 3)).reshape(n, n))
        k = frac_kernel(0.4, dim=2)
        op = assemble(k, g, None)
        assert op.symbol is not None
        np.testing.assert_allclose(op.kappa, direct_kappa(k, g), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_smallest_grids(self, dim, n):
        # at n <= 2 the |delta| = 2 offsets do not fit in the offset table
        mask = np.ones((n,) * dim, dtype=bool)
        if n > 1:
            mask.reshape(-1)[-1] = False
        g = Grid(dim, 1.0, n, mask)
        k = frac_kernel(0.3, dim=dim)
        op = assemble(k, g, None)
        assert op.pairs.shape == ((2 * n - 1) ** dim,)
        assert set(op.diagnostics["near_refinement_depths"]) == {
            str(d) for d in assembly.near_offsets(dim)
            if assembly.lex_positive(d) and max(map(abs, d)) < n}
        np.testing.assert_allclose(op.kappa, direct_kappa(k, g), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(op.system() @ np.ones(op.size),
                                   op.matrix @ np.ones(op.size), rtol=1e-13)

    def test_full_box_has_no_inbox_killing(self):
        g = Grid.full_box(2, 1.0, 8)
        k = frac_kernel(0.4, dim=2)
        op = assemble(k, g, None)
        assert op.diagnostics["kappa_inbox_median"] == 0.0
        assert np.array_equal(op.kappa, op.tail_interval.mean(axis=1))
        np.testing.assert_allclose(op.kappa, direct_kappa(k, g), rtol=1e-12, atol=0.0)


class TestRowSums:
    def test_rowsum_oracle_s025(self):
        # independent adaptive-quadrature oracle for the full interaction
        # density of each cell; the midpoint far rule carries an O(h^{2s})
        # consistency error, measured at 2.2e-3 for this configuration
        g = Grid.full_box(1, 1.0, 64)
        k = frac_kernel(0.25)
        op = assemble(k, g, None)
        prim = radial_primitive(k.profile, 0.0, tail=True)
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
            prim = radial_primitive(k.profile, 0.0, tail=True)
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
        prim = radial_primitive(prof, 0.0, tail=True)
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

    def test_box_margin_warning_on_wide_tail_interval(self):
        # Lambda > 1 on a domain that touches the box: the tail is known
        # only to within [1, Lambda] times the envelope tail, a sizable
        # share of kappa
        lam = 2.5
        k = Kernel(profile=RadialProfile.power(0.4, dimension=1), Lambda=lam,
                   modulation=make_modulation("rough_cosine", lam, dim=1),
                   modulation_tag="rough_cosine")
        with pytest.warns(UserWarning, match="box margin too small"):
            op = assemble(k, Grid.full_box(1, 1.0, 32), None)
        assert op.diagnostics["box_margin_ok"] is False
        assert op.diagnostics["tail_interval_width_median"] > 0.0

    @pytest.mark.parametrize("case", ["exact-tail", "wide-margin"])
    def test_box_margin_silent(self, case):
        if case == "exact-tail":
            # Lambda = 1: the tail is exact, however large its share of kappa
            k, g = frac_kernel(0.25), Grid.full_box(1, 1.0, 16)
        else:
            inner = np.abs(Grid.full_box(1, 8.0, 64).centers[:, 0]) < 1.0
            g = Grid(1, 8.0, 64, inner)
            k = Kernel(profile=RadialProfile.exponential(2.0, dimension=1), Lambda=2.0,
                       modulation=make_modulation("rough_cosine", 2.0, dim=1),
                       modulation_tag="rough_cosine")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = assemble(k, g, None)
        assert op.diagnostics["box_margin_ok"] is True
        if case == "exact-tail":
            assert op.diagnostics["tail_interval_width_max"] == 0.0
            assert op.diagnostics["tail_to_kappa_median_ratio"] > 0.1


class TestRhs:
    def test_radial_vectors_and_mask_checks(self):
        # the symmetrized operator on the ball grid of a half-masked grid:
        # same cell count, another mask
        half = Grid(1, 1.0, 16, np.arange(16) < 8)
        rad = assemble(frac_kernel(0.4), half.ball_grid, None)
        f = np.linspace(0.0, 1.0, 8)
        np.testing.assert_array_equal(build_rhs(rad, f), rad.volumes * f)
        with pytest.raises(ValueError, match="length"):
            build_rhs(rad, np.ones(7))
        with pytest.raises(ValueError, match="mask"):
            build_rhs(rad, GridFunction.constant(half, 1.0))
        op = assemble(frac_kernel(0.3), Grid.full_box(1, 1.0, 16), None)
        with pytest.raises(ValueError, match="mask"):
            energy(op, GridFunction.constant(half, 1.0))
        with pytest.raises(ValueError, match="length"):
            energy(op, np.ones(op.size + 1))

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


class TestThreads:
    def test_thread_count_invariance(self, monkeypatch):
        g = Grid.full_box(1, 1.0, 48)
        k = frac_kernel(0.4)
        monkeypatch.setenv("LEVYSYM_THREADS", "1")
        a = assemble(k, g, None)
        monkeypatch.setenv("LEVYSYM_THREADS", "4")
        b = assemble(k, g, None)
        assert np.array_equal(upper_weights(a), upper_weights(b))
        assert np.array_equal(a.kappa, b.kappa)
        assert b.diagnostics["threads"] == 4

    def test_bad_thread_value(self, monkeypatch):
        g = Grid.full_box(1, 1.0, 16)
        monkeypatch.setenv("LEVYSYM_THREADS", "zero")
        with pytest.raises(ValueError):
            assemble(frac_kernel(0.3), g, None)

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_blank_thread_value_means_unset(self, monkeypatch, raw):
        monkeypatch.setenv("LEVYSYM_THREADS", raw)
        op = assemble(frac_kernel(0.3), Grid.full_box(1, 1.0, 16), None)
        assert op.diagnostics["threads"] == 1

    @pytest.mark.parametrize("raw, want", [(" 3 ", 3), ("04", 4), ("1", 1)])
    def test_thread_setting_values(self, monkeypatch, raw, want):
        monkeypatch.setenv("LEVYSYM_THREADS", raw)
        assert thread_setting() == want

    @pytest.mark.parametrize("raw", ["0", "-2", "+2", "2.0", "\u00b2", "four"])
    def test_thread_setting_rejects(self, monkeypatch, raw):
        monkeypatch.setenv("LEVYSYM_THREADS", raw)
        with pytest.raises(ValueError, match="LEVYSYM_THREADS"):
            thread_setting()
