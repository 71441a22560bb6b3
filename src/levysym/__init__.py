"""Nonlocal Dirichlet problems with Levy-type kernels: solvers, discrete
Schwarz symmetrization, and mass-concentration comparison checks."""

import os as _os

from levysym.env import thread_setting as _thread_setting

# must run before numpy is first imported or the BLAS pools ignore it; an
# invalid value is reported by assemble and the CLI instead
try:
    _threads = _thread_setting()
except ValueError:
    _threads = None
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_threads))
del _os, _thread_setting, _threads

from levysym.kernels import (
    Kernel,
    RadialProfile,
    eval_kernel,
    exp_weight_mass,
    levy_integral,
    make_modulation,
    rearrange_profile,
)
from levysym.rearrange import (
    Grid,
    GridFunction,
    concentration_curve,
    concentration_dominates,
    default_radii,
    hardy_littlewood_slack,
    read_gridfunction_csv,
    schwarz_rearrangement,
    write_gridfunction_csv,
)
from levysym.assembly import (
    DiscreteOperator,
    assemble,
    build_rhs,
    energy,
)
from levysym.solvers import (
    EllipticSolution,
    TimeGrid,
    Trajectory,
    discrete_energy_ledger,
    parabolic_solve,
    solve_elliptic,
    time_average,
    write_trajectory,
)
from levysym.verify import (
    CheckReport,
    check_coarea,
    check_comparison,
    check_energy_comparison,
    check_lens_geometry,
    check_level_set_inequality,
    check_max_principle,
    check_maxmin_lemma,
    check_parabolic_comparison,
    check_phi_monotonicity,
    check_polya_szego,
    check_riesz,
    config_hash,
    phi_values,
    tau,
    truncate,
    write_reports,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DiscreteOperator",
    "EllipticSolution",
    "Grid",
    "GridFunction",
    "Kernel",
    "RadialProfile",
    "TimeGrid",
    "Trajectory",
    "assemble",
    "build_rhs",
    "check_coarea",
    "check_comparison",
    "check_energy_comparison",
    "check_lens_geometry",
    "check_level_set_inequality",
    "check_max_principle",
    "check_maxmin_lemma",
    "check_parabolic_comparison",
    "check_phi_monotonicity",
    "check_polya_szego",
    "check_riesz",
    "concentration_curve",
    "concentration_dominates",
    "config_hash",
    "default_radii",
    "discrete_energy_ledger",
    "energy",
    "eval_kernel",
    "exp_weight_mass",
    "hardy_littlewood_slack",
    "levy_integral",
    "make_modulation",
    "parabolic_solve",
    "phi_values",
    "read_gridfunction_csv",
    "rearrange_profile",
    "schwarz_rearrangement",
    "solve_elliptic",
    "tau",
    "time_average",
    "truncate",
    "write_gridfunction_csv",
    "write_reports",
    "write_trajectory",
    "__version__",
]
