import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from levysym.kernels import (
    IntegrabilityError,
    Kernel,
    KernelDomainError,
    RadialProfile,
    RoughCosine,
    SeparableCosine,
    ball_mass,
    ball_volume,
    eval_kernel,
    exp_weight_mass,
    exterior_ball_mass,
    levy_integral,
    make_modulation,
    ray_integral,
    rearrange_profile,
    surface_area,
    tail_primitive,
)


def test_sphere_and_ball_constants():
    assert surface_area(1) == 2.0
    assert ball_volume(1) == 2.0
    assert surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


class TestEvaluate:
    def test_fractional_point_value(self):
        # s = 1/2 in dimension 1: j(r) = r^-2, so j(2) = 0.25 exactly
        j = RadialProfile.power(0.5, dimension=1)
        assert j.evaluate(2.0) == 0.25

    def test_sum_of_powers_at_one(self):
        j = RadialProfile.sum_of_powers([0.25, 0.75], dimension=1)
        assert j.evaluate(1.0) == 2.0

    def test_singular_profile_rejects_zero_radius(self):
        j = RadialProfile.power(0.5, dimension=1)
        with pytest.raises(KernelDomainError):
            j.evaluate(0.0)
        with pytest.raises(KernelDomainError):
            j.evaluate(np.array([1.0, 0.0]))

    def test_negative_radius_rejected(self):
        j = RadialProfile.exponential(1.0, dimension=1)
        with pytest.raises(KernelDomainError):
            j.evaluate(-0.5)

    def test_tabulated_shell_convention(self):
        # value v_k on (r_{k-1}, r_k], zero beyond the last radius
        j = RadialProfile.tabulated([1.0, 2.0, 3.0], [5.0, 7.0, 2.0], dimension=1)
        assert j.evaluate(0.5) == 5.0
        assert j.evaluate(1.0) == 5.0
        assert j.evaluate(1.0 + 1e-12) == 7.0
        assert j.evaluate(3.0) == 2.0
        assert j.evaluate(3.5) == 0.0

    def test_exponential_at_zero(self):
        j = RadialProfile.exponential(2.0, dimension=1, gamma=3.0)
        assert j.evaluate(0.0) == 3.0


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RadialProfile(kind="gauss", dimension=1)

    def test_sum_of_powers_range(self):
        with pytest.raises(ValueError):
            RadialProfile.sum_of_powers([0.5, 1.5], dimension=1)

    def test_tabulated_monotone_radii(self):
        with pytest.raises(ValueError):
            RadialProfile.tabulated([2.0, 1.0], [1.0, 1.0], dimension=1)

    def test_lambda_below_one(self):
        j = RadialProfile.power(0.5, dimension=1)
        with pytest.raises(ValueError):
            Kernel(profile=j, Lambda=0.5)

    def test_power_construction_is_permissive(self):
        # integrability is certified by levy_integral, not the constructor
        RadialProfile.power(-0.1, dimension=1)
        RadialProfile.power(1.2, dimension=1)


class TestEvalKernel:
    def test_coincident_points(self):
        k = Kernel(profile=RadialProfile.power(0.5, dimension=1))
        with pytest.raises(KernelDomainError):
            eval_kernel(k, 1.0, 1.0)

    def test_translation_invariant_value(self):
        k = Kernel(profile=RadialProfile.power(0.5, dimension=1))
        assert eval_kernel(k, 3.0, 1.0) == 0.25

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_modulated(self, x, y):
        if abs(x - y) < 1e-9:
            return
        k = Kernel(
            profile=RadialProfile.power(0.4, dimension=1),
            Lambda=2.0,
            modulation=make_modulation("separable_cosine", 2.0, dim=1),
            modulation_tag="separable_cosine",
        )
        assert eval_kernel(k, x, y) == eval_kernel(k, y, x)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_envelope_bounds(self, x, y):
        if abs(x - y) < 1e-9:
            return
        lam = 3.0
        j = RadialProfile.power(0.4, dimension=1)
        k = Kernel(profile=j, Lambda=lam,
                   modulation=make_modulation("rough_cosine", lam, dim=1),
                   modulation_tag="rough_cosine")
        base = j.evaluate(abs(x - y))
        val = eval_kernel(k, x, y)
        assert base - 1e-12 <= val <= lam * base + 1e-9

    def test_modulation_band_enforced(self):
        j = RadialProfile.power(0.4, dimension=1)
        k = Kernel(profile=j, Lambda=1.5, modulation=lambda x, y: 2.0 + 0 * np.asarray(x),
                   modulation_tag="rough_cosine")
        with pytest.raises(ValueError):
            eval_kernel(k, 0.0, 1.0)

    def test_named_modulations_carry_their_form(self):
        rough = make_modulation("rough_cosine", 3.0, dim=2, omega=2.0)
        sep = make_modulation("separable_cosine", 3.0, dim=2, omega=2.0)
        assert rough == RoughCosine(amp=2.0, omega=2.0, dim=2)
        assert sep == SeparableCosine(amp=2.0, omega=2.0, dim=2)
        x, y = np.array([0.1, -0.4]), np.array([0.7, 0.2])
        r = math.hypot(*(x - y))
        assert rough(x, y) == pytest.approx(1.0 + (1.0 + math.cos(2.0 * r)), rel=1e-15)

        def g(z):
            return 0.5 * (1.0 + math.cos(2.0 * z.sum()))

        assert sep(x, y) == pytest.approx(1.0 + 2.0 * g(x) * g(y), rel=1e-15)
        assert make_modulation("none", 3.0, dim=2) is None

    def test_two_dimensional_points(self):
        k = Kernel(profile=RadialProfile.power(0.5, dimension=2))
        x = np.array([0.0, 0.0])
        y = np.array([3.0, 4.0])
        assert eval_kernel(k, x, y) == pytest.approx(5.0 ** (-3.0), rel=1e-15)


class TestRearrangeProfile:
    def test_analytic_kinds_unchanged(self):
        for j in (RadialProfile.power(0.5, dimension=1),
                  RadialProfile.logarithmic(1.0, dimension=2),
                  RadialProfile.exponential(2.0, dimension=1)):
            assert rearrange_profile(j) is j

    def test_tabulated_sort_equal_volume_shells(self):
        # uniform 1-D shells all have volume 2, so the sort keeps the radii
        j = RadialProfile.tabulated([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], dimension=1)
        js = rearrange_profile(j)
        assert js.values == (3.0, 2.0, 1.0)
        assert js.radii == pytest.approx((1.0, 2.0, 3.0))

    def test_measure_preservation_2d(self):
        # shells of unequal area: the rearranged break radii must preserve
        # the measure of every superlevel set exactly
        j = RadialProfile.tabulated([0.5, 1.0, 2.0], [2.0, 5.0, 1.0], dimension=2)
        js = rearrange_profile(j)
        assert list(js.values) == [5.0, 2.0, 1.0]

        def superlevel_volume(prof, t):
            vol = 0.0
            prev = 0.0
            for rk, vk in zip(prof.radii, prof.values):
                if vk > t:
                    vol += ball_volume(2) * (rk ** 2 - prev ** 2)
                prev = rk
            return vol

        for t in (0.0, 0.5, 1.5, 2.0, 4.0, 4.999):
            assert superlevel_volume(j, t) == pytest.approx(superlevel_volume(js, t), abs=1e-12)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, vals):
        radii = [0.5 * (k + 1) for k in range(len(vals))]
        j = RadialProfile.tabulated(radii, vals, dimension=2)
        once = rearrange_profile(j)
        twice = rearrange_profile(once)
        assert np.allclose(once.radii, twice.radii, rtol=0, atol=1e-14)
        assert once.values == twice.values


class TestRayIntegral:
    def test_power_closed_form_vs_quad(self):
        j = RadialProfile.power(0.3, dimension=1)
        val = ray_integral(j, 0.25, 4.0, 0.0)
        oracle, _ = integrate.quad(lambda r: r ** (-1.6), 0.25, 4.0)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_exponential_vs_quad(self):
        j = RadialProfile.exponential(1.7, dimension=2, gamma=2.0)
        val = ray_integral(j, 0.1, math.inf, 1.0)
        oracle, _ = integrate.quad(lambda r: 2.0 * math.exp(-1.7 * r) * r, 0.1, np.inf)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_logarithmic_vs_quad(self):
        j = RadialProfile.logarithmic(1.5, dimension=1)
        val = ray_integral(j, 0.5, 3.0, 0.0)
        oracle, _ = integrate.quad(lambda r: math.log1p(r) ** 1.5 * r ** (-3.0), 0.5, 3.0)
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_tabulated_by_hand(self):
        j = RadialProfile.tabulated([1.0, 2.0], [3.0, 1.0], dimension=1)
        # moment 0 over (0.5, 5): 3*(1-0.5) + 1*(2-1) + 0 = 2.5
        assert ray_integral(j, 0.5, 5.0, 0.0) == pytest.approx(2.5, rel=1e-14)
        assert ray_integral(j, 0.5, math.inf, 0.0) == pytest.approx(2.5, rel=1e-14)

    def test_tail_primitive_matches_ray_integral(self):
        # profile singularity dimension must match the moment weight, else
        # the tail genuinely diverges (checked separately below)
        for dim in (1, 2):
            profiles = [
                RadialProfile.power(0.5, dimension=dim),
                RadialProfile.sum_of_powers([0.25, 0.75], dimension=dim),
                RadialProfile.exponential(1.3, dimension=dim),
                RadialProfile.tabulated([0.5, 1.5, 2.0], [4.0, 2.0, 1.0], dimension=dim),
                RadialProfile.logarithmic(1.0, dimension=dim),
            ]
            for j in profiles:
                prim = tail_primitive(j, dim)
                for a in (0.3, 0.9, 1.7, 2.5):
                    expected = ray_integral(j, a, math.inf, dim - 1.0)
                    if j.kind == "logarithmic":
                        assert float(prim(a)) == pytest.approx(expected, rel=1e-8, abs=1e-13)
                    else:
                        # both read the kind's one radial primitive
                        assert float(prim(a)) == expected

    @pytest.mark.parametrize("j", [RadialProfile.power(0.5, dimension=1),
                                   RadialProfile.sum_of_powers([0.25, 0.75], dimension=2)])
    def test_whole_ray_of_power_kinds_diverges(self, j):
        # a power is never integrable at both ends of (0, inf)
        for moment in (0.0, j.dimension - 1.0, j.dimension + 1.0):
            with pytest.raises(IntegrabilityError):
                ray_integral(j, 0.0, math.inf, moment)

    def test_logarithmic_head(self):
        # near 0 the integrand is r^(eps + moment - 3) in 1-D
        with pytest.raises(IntegrabilityError):
            ray_integral(RadialProfile.logarithmic(2.0, dimension=1), 0.0, 1.0, 0.0)
        val = ray_integral(RadialProfile.logarithmic(2.5, dimension=1), 0.0, 1.0, 0.0)
        oracle, _ = integrate.quad(lambda r: math.log1p(r) ** 2.5 * r ** (-3.0), 0.0, 1.0)
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_tail_primitive_divergent_moment(self):
        # dimension-1 fractional profile against a planar moment weight
        with pytest.raises(IntegrabilityError):
            tail_primitive(RadialProfile.power(0.5, dimension=1), 2)


class TestLevyIntegral:
    def test_fractional_half_dimension_one(self):
        # independent split-integral oracle: j(r) = r^-2 on each half line
        j = RadialProfile.power(0.5, dimension=1)
        head, _ = integrate.quad(lambda r: r * r * r ** (-2.0), 0.0, 1.0)
        tail, _ = integrate.quad(lambda r: r ** (-2.0), 1.0, np.inf)
        oracle = 2.0 * (head + tail)
        val = levy_integral(j)
        assert val == pytest.approx(oracle, rel=1e-12)
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_divergent_tail(self):
        with pytest.raises(IntegrabilityError):
            levy_integral(RadialProfile.power(-0.05, dimension=1))
        with pytest.raises(IntegrabilityError):
            levy_integral(RadialProfile.power(0.0, dimension=1))

    def test_divergent_head(self):
        with pytest.raises(IntegrabilityError):
            levy_integral(RadialProfile.power(1.0, dimension=1))
        with pytest.raises(IntegrabilityError):
            levy_integral(RadialProfile.power(1.3, dimension=2))

    def test_every_shipped_kind_finite(self):
        profiles = [
            RadialProfile.power(0.5, dimension=2),
            RadialProfile.sum_of_powers([0.25, 0.75], dimension=1),
            RadialProfile.logarithmic(2.0, dimension=2),
            RadialProfile.exponential(0.7, dimension=1),
            RadialProfile.tabulated([1.0, 4.0], [2.0, 0.5], dimension=2),
        ]
        for j in profiles:
            assert math.isfinite(levy_integral(j))

    def test_logarithmic_vs_quad_oracle(self):
        j = RadialProfile.logarithmic(1.0, dimension=1)
        head, _ = integrate.quad(lambda r: math.log1p(r) * r ** (-3.0) * r * r, 0.0, 1.0)
        tail, _ = integrate.quad(lambda r: math.log1p(r) * r ** (-3.0), 1.0, np.inf)
        assert levy_integral(j) == pytest.approx(2.0 * (head + tail), rel=1e-8)


class TestExpWeightMass:
    def test_fractional_oracle(self):
        # j(r) = r^-2 gives weight exp(-t r^2), a Gaussian
        j = RadialProfile.power(0.5, dimension=1)
        res = exp_weight_mass(j, t=1.0, cutoff=10.0)
        oracle, _ = integrate.quad(lambda r: math.exp(-r * r), 0.0, 10.0)
        assert res.mass == pytest.approx(2.0 * oracle, rel=1e-9)
        # certified tail bound: surface * I_R / t with I_R = 1/10
        assert res.tail_bound == pytest.approx(0.2, rel=1e-12)
        true_tail, _ = integrate.quad(lambda r: 2.0 * math.exp(-r * r), 10.0, np.inf)
        assert true_tail <= res.tail_bound

    def test_large_t_shrinks(self):
        j = RadialProfile.power(0.5, dimension=1)
        small = exp_weight_mass(j, t=50.0, cutoff=5.0)
        big = exp_weight_mass(j, t=0.5, cutoff=5.0)
        assert small.mass < big.mass
        assert small.tail_bound < big.tail_bound

    def test_doubling_profile_grows_mass(self):
        j1 = RadialProfile.exponential(1.0, dimension=1, gamma=1.0)
        j2 = RadialProfile.exponential(1.0, dimension=1, gamma=2.0)
        m1 = exp_weight_mass(j1, t=1.0, cutoff=4.0)
        m2 = exp_weight_mass(j2, t=1.0, cutoff=4.0)
        assert m2.mass > m1.mass

    def test_zero_t_is_infinite_mass(self):
        j = RadialProfile.power(0.5, dimension=1)
        with pytest.raises(IntegrabilityError):
            exp_weight_mass(j, t=0.0, cutoff=1.0)

    def test_unsorted_tabulated_rejected(self):
        j = RadialProfile.tabulated([1.0, 2.0], [1.0, 3.0], dimension=1)
        with pytest.raises(ValueError):
            exp_weight_mass(j, t=1.0, cutoff=5.0)
        exp_weight_mass(rearrange_profile(j), t=1.0, cutoff=5.0)

    def test_every_analytic_kind_integrable(self):
        profiles = [
            RadialProfile.power(0.5, dimension=1),
            RadialProfile.sum_of_powers([0.3, 0.6], dimension=2),
            RadialProfile.logarithmic(1.0, dimension=1),
            RadialProfile.exponential(1.0, dimension=2),
        ]
        for j in profiles:
            res = exp_weight_mass(j, t=1.0, cutoff=6.0)
            assert math.isfinite(res.mass) and math.isfinite(res.tail_bound)


class TestGeometricIntegrals:
    def test_exterior_mass_1d_exponential(self):
        # centered point, unit ball: 2 e^-1 exactly
        j = RadialProfile.exponential(1.0, dimension=1)
        val = exterior_ball_mass(j, 1, rho=0.0, r=1.0)
        assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_ball_mass_1d_exponential(self):
        j = RadialProfile.exponential(1.0, dimension=1)
        # point at rho = 2, ball radius 1: integral of e^-|2-y| over (-1, 1)
        val = ball_mass(j, 1, rho=2.0, r=1.0)
        oracle = math.exp(-1.0) - math.exp(-3.0)
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_exterior_mass_2d_quad_oracle(self):
        j = RadialProfile.exponential(1.0, dimension=2)
        rho, r = 0.4, 1.0
        val = exterior_ball_mass(j, 2, rho=rho, r=r)

        def integrand(theta, R):
            d = math.sqrt(R * R + rho * rho - 2.0 * R * rho * math.cos(theta))
            return math.exp(-d) * R

        oracle, _ = integrate.dblquad(integrand, 1.0, 40.0, 0.0, 2.0 * math.pi,
                                      epsabs=1e-11, epsrel=1e-11)
        assert val == pytest.approx(oracle, rel=1e-7)

    def test_ball_mass_2d_quad_oracle(self):
        j = RadialProfile.exponential(1.0, dimension=2)
        rho, r = 1.6, 1.0
        val = ball_mass(j, 2, rho=rho, r=r)

        def integrand(theta, R):
            d = math.sqrt(R * R + rho * rho - 2.0 * R * rho * math.cos(theta))
            return math.exp(-d) * R

        oracle, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 2.0 * math.pi,
                                      epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_domain_validation(self):
        j = RadialProfile.exponential(1.0, dimension=2)
        with pytest.raises(ValueError):
            exterior_ball_mass(j, 2, rho=1.5, r=1.0)
        with pytest.raises(ValueError):
            ball_mass(j, 2, rho=0.5, r=1.0)
