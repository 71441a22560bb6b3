"""The public API, levysym.__all__, changes only together with a stated
reason in CHANGES.md; this pins it, so any change shows up as a failing
test to update alongside that reason."""

import levysym

PUBLIC = [
    "CheckReport", "DiscreteOperator", "EllipticSolution", "Grid", "GridFunction",
    "Kernel", "RadialProfile", "TimeGrid", "Trajectory", "__version__",
    "assemble", "build_rhs", "check_coarea", "check_comparison",
    "check_energy_comparison", "check_lens_geometry", "check_level_set_inequality",
    "check_max_principle", "check_maxmin_lemma", "check_parabolic_comparison",
    "check_phi_monotonicity", "check_polya_szego", "check_riesz",
    "concentration_curve", "concentration_dominates", "config_hash",
    "default_radii", "discrete_energy_ledger", "energy", "eval_kernel",
    "exp_weight_mass", "hardy_littlewood_slack", "levy_integral",
    "make_modulation", "parabolic_solve", "phi_values", "read_gridfunction_csv",
    "rearrange_profile", "schwarz_rearrangement", "solve_elliptic", "tau",
    "time_average", "truncate", "write_gridfunction_csv", "write_reports",
    "write_trajectory",
]


def test_public_api_is_pinned_and_resolves():
    assert sorted(levysym.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(levysym, name)] == []
