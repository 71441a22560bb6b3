"""Configuration-driven experiment runner.

A scenario file is a strict JSON document (``"schema": 1``) naming the
domain, grid, kernel, data, optional time block, and the checks to run.
``run_scenario`` solves the problem and its symmetrized counterpart,
writes CSV curves plus machine-readable reports, and exits 0 only when
every requested check passes (2 on a failed check, 1 on an execution
error).  ``refine_sweep`` reruns a scenario at doubled resolution and
reports slack decay per check.
"""

import argparse
import csv
import json
import math
import os
import resource
import time
import warnings

import numpy as np

from levysym.assembly import (ROW_BLOCK, TAIL_ANGLES, AssemblyError, assemble,
                              masked_vector, near_offsets, shares_table, tail_table_rows)
from levysym.env import thread_setting
from levysym.kernels import (IntegrabilityError, Kernel, KernelDomainError,
                             RadialProfile, SeparableCosine, make_modulation,
                             rearrange_profile)
# concentration_curve is not called here; the benchmark tracer wraps it
from levysym.rearrange import (Grid, GridFunction, concentration_curve,
                               read_gridfunction_csv, schwarz_rearrangement,
                               write_gridfunction_csv)
from levysym.solvers import (SolverError, TimeGrid, parabolic_solve,
                             solve_elliptic, step_means, to_grid_function)
from levysym.verify import (check_coarea, check_comparison,
                            check_energy_comparison, check_max_principle,
                            check_parabolic_comparison, check_polya_szego,
                            concentration_gap, config_hash, cut_block,
                            gap_window, json_ready, write_reports)

SCHEMA_VERSION = 1
KERNEL_KINDS = ("exponential", "fractional", "logarithmic", "sum_of_powers",
                "table")
MODULATION_TAGS = ("none", "rough_cosine", "separable_cosine")
DATA_KINDS = ("constant", "radial", "table")
RADIAL_FORMULAS = ("abs", "gauss", "square")
# f.time_factor tag -> g(t) of the separable source f(x) g(t)
TIME_FACTORS = {"none": None, "decay": lambda t: np.exp(-t),
                "ramp": lambda t: t}
CHECK_NAMES = ("coarea", "comparison", "energy", "max_principle",
               "parabolic", "polya_szego")
# run mode -> the checks it allows
MODE_CHECKS = {"elliptic": frozenset(CHECK_NAMES) - {"parabolic"},
               "parabolic": frozenset(("parabolic", "comparison"))}
# domain type -> (dimension, shape of a piece in messages, name of a side)
PIECE_SHAPES = {"intervals": (1, "[a, b] pairs", "interval"),
                "boxes": (2, "[[ax, bx], [ay, by]] boxes", "side")}

TOP_KEYS = ("schema", "dimension", "domain", "n", "half_width", "kernel",
            "c", "f", "initial", "time", "checks", "tolerances", "output",
            "seed", "memory_cap_gb")


class ConfigError(ValueError):
    """Carries every validation problem found in a scenario file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ScenarioError(RuntimeError):
    """Execution failure after a config parsed cleanly."""


class ScenarioConfig:
    """Validated scenario with defaults filled in.

    ``raw`` holds the canonical dict (defaults included) that seeds the
    config hash stamped on every report line.
    """

    def __init__(self, raw, base_dir):
        self.raw = raw
        self.base_dir = base_dir
        self.dimension = raw["dimension"]
        self.domain = raw["domain"]
        self.n = raw["n"]
        self.half_width = raw["half_width"]
        self.kernel = raw["kernel"]
        self.c = raw["c"]
        self.f = raw["f"]
        self.initial = raw["initial"]
        self.time = raw["time"]
        self.checks = tuple(raw["checks"])
        self.solver_tol = raw["tolerances"]["solver_tol"]
        self.kappa_tol = raw["tolerances"]["kappa_tol"]
        self.output = raw["output"]
        self.seed = raw["seed"]
        self.memory_cap_gb = raw["memory_cap_gb"]

    def with_resolution(self, n, steps=None):
        raw = json.loads(json.dumps(self.raw))
        raw["n"] = n
        if steps is not None and raw["time"] is not None:
            raw["time"]["steps"] = steps
        return ScenarioConfig(raw, self.base_dir)


def require_keys(block, allowed, prefix, errors):
    for key in sorted(block):
        if key not in allowed:
            errors.append(f"{prefix}{key}: unknown key")


def is_number(val):
    """A finite JSON number; booleans are not numbers, and json.load lets
    NaN and Infinity through as floats."""
    return not isinstance(val, bool) and (
        isinstance(val, int) or isinstance(val, float) and math.isfinite(val))


def check_number(block, key, errors, prefix="", minimum=None,
                 strict_min=None, integer=False, default=None, required=None):
    """Validate one numeric field, appending at most one error; returns the
    value or the default.  A missing key is an error only when ``required``
    gives its message."""
    label = f"{prefix}{key}"
    if key not in block:
        if required is not None:
            errors.append(f"{label}: {required}")
        return default
    val = block[key]
    if not is_number(val):
        errors.append(f"{label}: must be finite" if isinstance(val, float)
                      else f"{label}: expected a number")
        return default
    if integer and not isinstance(val, int):
        errors.append(f"{label}: expected an integer")
        return default
    if minimum is not None and val < minimum:
        errors.append(f"{label}: must be >= {minimum}")
        return default
    if strict_min is not None and val <= strict_min:
        errors.append(f"{label}: must be > {strict_min}")
        return default
    return val


def validate_domain(domain, dimension, half_width, errors):
    if not isinstance(domain, dict):
        errors.append("domain: expected an object")
        return None
    dtype = domain.get("type")
    if dtype in PIECE_SHAPES:
        # an interval is a box with one side
        dim, shape, side_name = PIECE_SHAPES[dtype]
        require_keys(domain, ("type", "pieces"), "domain.", errors)
        if dimension != dim:
            errors.append(f"domain.type: {dtype} require dimension {dim}")
        pieces = domain.get("pieces")
        boxes = ([[p] for p in pieces] if dim == 1 and isinstance(pieces, list)
                 else pieces)
        if (not isinstance(boxes, list) or not boxes
                or not all(isinstance(box, list) and len(box) == dim
                           and all(isinstance(side, list) and len(side) == 2
                                   and all(is_number(v) for v in side)
                                   for side in box)
                           for box in boxes)):
            errors.append(f"domain.pieces: expected a nonempty list of {shape} "
                          "of finite numbers")
            return None
        for a, b in (side for box in boxes for side in box):
            if not (-half_width <= a < b <= half_width):
                errors.append(
                    f"domain.pieces: {side_name} [{a}, {b}] must satisfy "
                    f"-L <= a < b <= L with L = {half_width}")
        boxes = [[[float(a), float(b)] for a, b in box] for box in boxes]
        return {"type": dtype,
                "pieces": [box[0] for box in boxes] if dim == 1 else boxes}
    if dtype == "ball":
        require_keys(domain, ("type", "radius"), "domain.", errors)
        radius = check_number(domain, "radius", errors, "domain.",
                              strict_min=0.0,
                              required="required for a ball domain")
        if radius is not None and radius > half_width:
            errors.append("domain.radius: must not exceed the box half-width")
        return {"type": "ball", "radius": float(radius or 0.0)}
    errors.append("domain.type: expected one of ball, boxes, intervals")
    return None


def validate_kernel(kernel, dimension, base_dir, errors):
    if not isinstance(kernel, dict):
        errors.append("kernel: expected an object")
        return None
    kind = kernel.get("kind")
    if kind not in KERNEL_KINDS:
        errors.append(f"kernel.kind: unknown kind {kind!r} "
                      f"(allowed: {', '.join(KERNEL_KINDS)})")
        return None
    allowed = {"kind", "Lambda", "modulation", "omega"}
    out = {"kind": kind}
    if kind == "fractional":
        allowed.add("s")
        s = check_number(kernel, "s", errors, "kernel.",
                         required="required for a fractional kernel")
        if s is not None and not 0.0 < s < 1.0:
            errors.append("kernel.s: must lie in (0, 1)")
        out["s"] = s
    elif kind == "sum_of_powers":
        allowed.add("s_list")
        s_list = kernel.get("s_list")
        if (not isinstance(s_list, list) or not s_list
                or not all(is_number(v) and 0.0 < v < 1.0
                           for v in s_list)):
            errors.append("kernel.s_list: expected a nonempty list of "
                          "exponents in (0, 1)")
        else:
            out["s_list"] = [float(v) for v in s_list]
    elif kind == "logarithmic":
        allowed.add("eps")
        eps = check_number(kernel, "eps", errors, "kernel.",
                           required="required for a logarithmic kernel")
        if eps is not None and not 0.0 < eps <= dimension + 2:
            errors.append("kernel.eps: must lie in (0, dimension + 2]")
        out["eps"] = eps
    elif kind == "exponential":
        allowed.add("lam")
        out["lam"] = check_number(kernel, "lam", errors, "kernel.",
                                  strict_min=0.0,
                                  required="required for an exponential kernel")
    else:
        allowed.add("path")
        path = kernel.get("path")
        if not isinstance(path, str) or not path:
            errors.append("kernel.path: required for a table kernel")
        elif not os.path.exists(os.path.join(base_dir, path)):
            errors.append(f"kernel.path: table file not found: {path}")
        out["path"] = path
    require_keys(kernel, allowed, "kernel.", errors)
    lam = check_number(kernel, "Lambda", errors, "kernel.", default=1.0)
    if lam is not None and lam < 1.0:
        errors.append("kernel.Lambda: must be >= 1")
    out["Lambda"] = lam
    tag = kernel.get("modulation", "none")
    if tag not in MODULATION_TAGS:
        errors.append(f"kernel.modulation: unknown tag {tag!r} "
                      f"(allowed: {', '.join(MODULATION_TAGS)})")
        tag = "none"
    out["modulation"] = tag
    out["omega"] = check_number(kernel, "omega", errors, "kernel.",
                                strict_min=0.0, default=3.0)
    return out


def validate_data(spec, name, base_dir, errors, nonnegative=False,
                  allow_time=False):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        errors.append(f"{name}: expected an object")
        return None
    kind = spec.get("kind")
    if kind not in DATA_KINDS:
        errors.append(f"{name}.kind: unknown kind {kind!r} "
                      f"(allowed: {', '.join(DATA_KINDS)})")
        return None
    allowed = {"kind"}
    out = {"kind": kind}
    if kind == "constant":
        allowed.add("value")
        out["value"] = float(check_number(spec, "value", errors, f"{name}.",
                                          default=0.0,
                                          required="required for constant data"))
        if nonnegative and out["value"] < 0:
            errors.append(f"{name}.value: must be nonnegative")
    elif kind == "radial":
        allowed.update(("formula", "scale"))
        formula = spec.get("formula")
        if formula not in RADIAL_FORMULAS:
            errors.append(f"{name}.formula: unknown tag {formula!r} "
                          f"(allowed: {', '.join(RADIAL_FORMULAS)})")
        out["formula"] = formula
        out["scale"] = float(check_number(spec, "scale", errors, f"{name}.",
                                          default=1.0))
        if nonnegative and out["scale"] < 0:
            errors.append(f"{name}.scale: must be nonnegative")
    else:
        allowed.add("path")
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            errors.append(f"{name}.path: required for table data")
        elif not os.path.exists(os.path.join(base_dir, path)):
            errors.append(f"{name}.path: table file not found: {path}")
        out["path"] = path
    if allow_time:
        allowed.add("time_factor")
        factor = spec.get("time_factor", "none")
        if factor not in TIME_FACTORS:
            errors.append(f"{name}.time_factor: unknown tag {factor!r} "
                          f"(allowed: {', '.join(TIME_FACTORS)})")
            factor = "none"
        out["time_factor"] = factor
    require_keys(spec, allowed, f"{name}.", errors)
    return out


def parse_config(path):
    """Parse and validate a scenario file, reporting every problem found."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError([f"not valid JSON: {err}"]) from err
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    errors = []
    require_keys(doc, TOP_KEYS, "", errors)
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema: required and must equal {SCHEMA_VERSION}")
    dimension = doc.get("dimension")
    if type(dimension) is not int or dimension not in (1, 2):
        errors.append("dimension: must be 1 or 2")
        dimension = 1
    n = doc.get("n")
    if (not isinstance(n, int) or isinstance(n, bool)
            or not 16 <= n <= 1024 or n & (n - 1)):
        errors.append("n: must be a power of two between 16 and 1024")
        n = 16
    half_width = check_number(doc, "half_width", errors, strict_min=0.0,
                              default=1.0)
    base_dir = os.path.dirname(os.path.abspath(path))

    domain = None
    if "domain" not in doc:
        errors.append("domain: required")
    else:
        domain = validate_domain(doc["domain"], dimension, half_width, errors)

    kernel = None
    if "kernel" not in doc:
        errors.append("kernel: required")
    else:
        kernel = validate_kernel(doc["kernel"], dimension, base_dir, errors)

    f_spec = None
    if "f" not in doc:
        errors.append("f: required")
    else:
        f_spec = validate_data(doc["f"], "f", base_dir, errors,
                               allow_time=True)
    c_spec = validate_data(doc.get("c"), "c", base_dir, errors,
                           nonnegative=True)
    init_spec = validate_data(doc.get("initial"), "initial", base_dir, errors,
                              nonnegative=True)

    time_block = doc.get("time")
    if time_block is not None:
        if not isinstance(time_block, dict):
            errors.append("time: expected an object")
            time_block = None
        else:
            require_keys(time_block, ("horizon", "steps"), "time.", errors)
            horizon = check_number(time_block, "horizon", errors, "time.",
                                   strict_min=0.0, required="required")
            steps = check_number(time_block, "steps", errors, "time.",
                                 integer=True, minimum=1, required="required")
            time_block = ({"horizon": float(horizon), "steps": steps}
                          if horizon is not None and steps is not None
                          else None)
    if time_block is None:
        if init_spec is not None:
            errors.append("initial: only meaningful with a time block")
        if f_spec and f_spec.get("time_factor", "none") != "none":
            errors.append("f.time_factor: requires a time block")

    checks = doc.get("checks", ["comparison"])
    if (not isinstance(checks, list)
            or not all(isinstance(c, str) for c in checks)):
        errors.append("checks: expected a list of check names")
        checks = []
    else:
        for name in checks:
            if name not in CHECK_NAMES:
                errors.append(f"checks: unknown check {name!r} "
                              f"(allowed: {', '.join(CHECK_NAMES)})")
        if "parabolic" in checks and time_block is None:
            errors.append("checks: the parabolic check requires a time block")

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        errors.append("tolerances: expected an object")
        tolerances = {}
    require_keys(tolerances, ("solver_tol", "kappa_tol"), "tolerances.",
                 errors)
    solver_tol = check_number(tolerances, "solver_tol", errors, "tolerances.",
                              strict_min=0.0, default=1e-10)
    kappa_tol = check_number(tolerances, "kappa_tol", errors, "tolerances.",
                             minimum=0.0, default=0.05)

    output = doc.get("output", "out")
    if not isinstance(output, str) or not output:
        errors.append("output: expected a nonempty path")
        output = "out"
    seed = check_number(doc, "seed", errors, integer=True, minimum=0,
                        default=0)
    memory_cap_gb = check_number(doc, "memory_cap_gb", errors,
                                 strict_min=0.0, default=2.0)
    if errors:
        raise ConfigError(errors)
    raw = {
        "schema": SCHEMA_VERSION,
        "dimension": dimension,
        "domain": domain,
        "n": n,
        "half_width": float(half_width),
        "kernel": kernel,
        "c": c_spec,
        "f": f_spec,
        "initial": init_spec,
        "time": time_block,
        "checks": [str(c) for c in checks],
        "tolerances": {"solver_tol": float(solver_tol),
                       "kappa_tol": float(kappa_tol)},
        "output": output,
        "seed": int(seed),
        "memory_cap_gb": float(memory_cap_gb),
    }
    return ScenarioConfig(raw, base_dir)


# --- scenario assembly ---------------------------------------------------------


def domain_mask(cfg, grid):
    dom = cfg.domain
    if dom["type"] != "ball":
        # cells whose center lies strictly inside a piece; an interval is a
        # box with one side
        boxes = ([[p] for p in dom["pieces"]] if dom["type"] == "intervals"
                 else dom["pieces"])
        flat = np.zeros(grid.cell_count, dtype=bool)
        for box in boxes:
            inside = np.ones(grid.cell_count, dtype=bool)
            for x, (a, b) in zip(grid.centers.T, box):
                inside &= (x > a) & (x < b)
            flat |= inside
    else:
        # cell-prefix ball in the rearrangement layout, so a ball domain is
        # bit-identical to its own symmetrized domain
        k = grid.snap_radius(dom["radius"])
        flat = grid.radius_keys <= 4 * k * k
    if not flat.any():
        raise ScenarioError("domain contains no grid cells at this resolution")
    return flat.reshape(grid.mask.shape)


def scenario_grid(cfg):
    full = Grid(dimension=cfg.dimension, half_width=cfg.half_width, n=cfg.n,
                mask=np.ones((cfg.n,) * cfg.dimension, dtype=bool))
    return Grid(dimension=cfg.dimension, half_width=cfg.half_width, n=cfg.n,
                mask=domain_mask(cfg, full))


def load_profile_table(path, dimension):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0][:2] == ["r", "value"]:
        rows = rows[1:]
    try:
        radii = [float(row[0]) for row in rows]
        values = [float(row[1]) for row in rows]
    except (IndexError, ValueError) as err:
        raise ScenarioError(f"kernel table {path}: expected r,value rows "
                            f"({err})") from err
    return RadialProfile.tabulated(radii=radii, values=values,
                                   dimension=dimension)


def scenario_kernel(cfg):
    spec = cfg.kernel
    dim = cfg.dimension
    if spec["kind"] == "fractional":
        profile = RadialProfile.power(s=spec["s"], dimension=dim)
    elif spec["kind"] == "sum_of_powers":
        profile = RadialProfile.sum_of_powers(s_list=spec["s_list"],
                                              dimension=dim)
    elif spec["kind"] == "logarithmic":
        profile = RadialProfile.logarithmic(eps=spec["eps"], dimension=dim)
    elif spec["kind"] == "exponential":
        profile = RadialProfile.exponential(lam=spec["lam"], dimension=dim)
    else:
        profile = load_profile_table(
            os.path.join(cfg.base_dir, spec["path"]), dim)
    modulation = make_modulation(spec["modulation"], spec["Lambda"], dim,
                                 omega=spec["omega"])
    return Kernel(profile=profile, Lambda=spec["Lambda"],
                  modulation=modulation, modulation_tag=spec["modulation"])


def envelope_kernel(kernel):
    """The symmetrized problem's kernel: the rearranged profile, no
    modulation."""
    return Kernel(profile=rearrange_profile(kernel.profile))


def data_function(spec, cfg, grid):
    """Grid function for a c/f/initial spec; zero when spec is None."""
    if spec is None:
        return GridFunction.constant(grid, 0.0)
    if spec["kind"] == "constant":
        return GridFunction.constant(grid, spec["value"])
    if spec["kind"] == "radial":
        scale = spec["scale"]
        radius = np.linalg.norm(grid.centers, axis=1)
        formulas = {"square": lambda r: scale * r * r,
                    "abs": lambda r: scale * r,
                    "gauss": lambda r: scale * np.exp(-r * r)}
        values = formulas[spec["formula"]](radius)
        values = np.where(grid.mask_flat, values, 0.0)
        return GridFunction(grid, values)
    table = read_gridfunction_csv(os.path.join(cfg.base_dir, spec["path"]))
    if not (table.grid.same_geometry(grid)
            and np.array_equal(table.grid.mask, grid.mask)):
        raise ScenarioError(
            f"table {spec['path']} does not match the scenario grid")
    return GridFunction(grid, table.values)


def time_loads(fn, factor, timegrid, grid):
    """Loads on the operator grid `grid` of the source fn(x) g(t), g the
    named time factor: fn itself for "none", else a generator of the
    per-step means over the masked cells (solvers.step_means, the rule of
    solvers.time_average), built as the march takes them.  The march sees
    only these vectors, so fn's mask is checked against grid here."""
    g = TIME_FACTORS[factor]
    if g is None:
        return fn
    vals = masked_vector(grid, fn)
    return step_means(lambda *x_t: vals * g(x_t[-1]),
                      fn.grid.centers[fn.grid.masked_indices], timegrid)


def write_concentration_csv(path, radii, conc_u_sharp, conc_v, diff):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "conc_u_sharp", "conc_v", "diff"])
        for row in zip(radii, conc_u_sharp, conc_v, diff):
            writer.writerow([f"{x:.17g}" for x in row])


class WarningLog(warnings.catch_warnings):
    """Inside the block every warning shown is also kept in records as
    {"category", "message", "phase"}, and still goes on to the handler
    outside (stderr by default).  phase names the part of the run that
    raised it."""

    def __enter__(self):
        super().__enter__()
        self.records, self.phase = [], "setup"
        show = warnings.showwarning

        def keep(message, category, filename, lineno, file=None, line=None):
            self.records.append({"category": category.__name__,
                                 "message": str(message), "phase": self.phase})
            show(message, category, filename, lineno, file, line)

        warnings.showwarning = keep
        return self


def run_scenario(cfg, mode):
    """Execute one scenario; returns (exit_code, summary dict)."""
    if mode not in MODE_CHECKS:
        raise ValueError(f"unknown scenario mode {mode!r}")
    if mode == "parabolic" and cfg.time is None:
        raise ScenarioError("a parabolic run needs a time block in the config")
    bad = [c for c in cfg.checks if c not in MODE_CHECKS[mode]]
    if bad:
        article = "an" if mode == "elliptic" else "a"
        raise ScenarioError(
            f"checks not available in {article} {mode} run: {', '.join(bad)}")
    with WarningLog() as log:
        return run_phases(cfg, mode, log)


def run_phases(cfg, mode, log):
    """The body of run_scenario; log.phase names the phase that runs."""
    t_start = time.perf_counter()
    outdir = os.path.join(cfg.base_dir, cfg.output)
    os.makedirs(outdir, exist_ok=True)
    grid = scenario_grid(cfg)
    kernel = scenario_kernel(cfg)
    ball = grid.ball_grid
    envelope = envelope_kernel(kernel)

    c_fn = data_function(cfg.c, cfg, grid)
    c_vec = c_fn.masked_values if cfg.c is not None else None
    c_sharp = (schwarz_rearrangement(c_fn, direction="increasing").masked_values
               if cfg.c is not None else None)
    f_fn = data_function(cfg.f, cfg, grid)
    f_sharp = schwarz_rearrangement(f_fn)

    log.phase = "assembly"
    t_asm = time.perf_counter()
    op_u = assemble(kernel, grid, c=c_vec)
    # the envelope shares op_u's table, symbol and tail where the kernels allow
    op_v = assemble(envelope, ball, c=c_sharp, shared=op_u.box_kernel)
    assembly_seconds = time.perf_counter() - t_asm

    digest = config_hash(cfg.raw)
    diagnostics = {
        "config_hash": digest,
        "mode": mode,
        "seed": cfg.seed,
        "grid": {"dimension": grid.dimension, "n": grid.n,
                 "half_width": grid.half_width, "h": grid.h,
                 "masked_cells": grid.masked_count},
        "assembly": {"seconds": assembly_seconds,
                     "original": op_u.diagnostics,
                     "symmetrized": op_v.diagnostics},
    }

    log.phase = "solve"
    t_solve = time.perf_counter()
    if mode == "elliptic":
        u_sol = solve_elliptic(op_u, f_fn, tol=cfg.solver_tol)
        v_sol = solve_elliptic(op_v, f_sharp, tol=cfg.solver_tol)
        u_fn, v_fn = u_sol.function, v_sol.function
        diagnostics["solver"] = {
            "iterations_u": u_sol.iterations, "iterations_v": v_sol.iterations,
            "residual_u": u_sol.residual_norm, "residual_v": v_sol.residual_norm,
            "residual_history_u": u_sol.residual_history,
            "residual_history_v": v_sol.residual_history,
            "cg_iters": u_sol.iterations + v_sol.iterations,
            "preconditioner_u": u_sol.preconditioner,
            "preconditioner_v": v_sol.preconditioner,
        }
    else:
        timegrid = TimeGrid(cfg.time["horizon"], cfg.time["steps"])
        init_fn = data_function(cfg.initial, cfg, grid)
        init_sharp = schwarz_rearrangement(init_fn)
        factor = cfg.f.get("time_factor", "none")
        traj_u = parabolic_solve(op_u, time_loads(f_fn, factor, timegrid, op_u.grid),
                                 init_fn, timegrid, tol=cfg.solver_tol)
        traj_v = parabolic_solve(op_v, time_loads(f_sharp, factor, timegrid, op_v.grid),
                                 init_sharp, timegrid, tol=cfg.solver_tol)
        u_fn = to_grid_function(op_u, traj_u.states[-1])
        v_fn = to_grid_function(op_v, traj_v.states[-1])
        diagnostics["solver"] = {
            "iterations_u": traj_u.iterations, "iterations_v": traj_v.iterations,
            "residual_u": max(traj_u.residuals), "residual_v": max(traj_v.residuals),
            "residuals_u": traj_u.residuals, "residuals_v": traj_v.residuals,
            "cg_iters": sum(traj_u.iterations) + sum(traj_v.iterations),
            "preconditioner_u": traj_u.preconditioner,
            "preconditioner_v": traj_v.preconditioner,
        }
    diagnostics["solver"]["seconds"] = time.perf_counter() - t_solve

    log.phase = "io"
    write_gridfunction_csv(u_fn, os.path.join(outdir, "u.csv"))
    write_gridfunction_csv(v_fn, os.path.join(outdir, "v.csv"))
    _, _, cu, cv, diff = concentration_gap(u_fn, v_fn)
    write_concentration_csv(os.path.join(outdir, "concentration.csv"),
                            cu.radii, cu.integrals, cv.integrals, diff)

    reports = []
    checks_path = os.path.join(outdir, "checks.jsonl")
    check_seconds = {}
    log.phase = "checks"
    try:
        for name in cfg.checks:
            t_check = time.perf_counter()
            if name == "comparison":
                reports.append(check_comparison(u_fn, v_fn,
                                                kappa_tol=cfg.kappa_tol))
            elif name == "energy":
                reports.append(check_energy_comparison(
                    op_u, u_sol.vector, op_v, v_sol.vector,
                    kappa_tol=cfg.kappa_tol))
            elif name == "max_principle":
                reports.append(check_max_principle(op_u, f_fn))
            elif name == "polya_szego":
                reports.append(check_polya_szego(op_u, op_v, u_fn,
                                                 kappa_tol=cfg.kappa_tol))
            elif name == "coarea":
                reports.append(check_coarea(op_u, u_fn))
            elif name == "parabolic":
                reports.extend(check_parabolic_comparison(
                    traj_u, traj_v, kappa_tol=cfg.kappa_tol))
            check_seconds[name] = time.perf_counter() - t_check
    finally:
        # the contract: reports reached are on disk even when a later check
        # blows up
        write_reports(reports, checks_path, digest)

    diagnostics["checks"] = {"requested": list(cfg.checks),
                             "reports": len(reports),
                             "failed": sum(not r.passed for r in reports),
                             "seconds": check_seconds}
    diagnostics["warnings"] = log.records
    # ru_maxrss is the process high-water mark in KiB
    diagnostics["memory"] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "estimate_bytes": estimate_bytes(cfg)}
    diagnostics["total_seconds"] = time.perf_counter() - t_start
    with open(os.path.join(outdir, "diagnostics.json"), "w") as fh:
        json.dump(json_ready(diagnostics), fh, indent=2, sort_keys=True)
        fh.write("\n")

    code = 0 if all(r.passed for r in reports) else 2
    summary = {
        "output": outdir,
        "reports": [{"check": r.check, "slack": r.slack,
                     "tolerance": r.tolerance, "pass": r.passed}
                    for r in reports],
        "exit": code,
    }
    return code, summary


def estimate_bytes(cfg):
    """Peak bytes of one level, counted before anything big is allocated:
    what the run keeps from assembly on, plus the largest of its phases'
    temporaries, not every phase added together.

    Kept: the operators' offset tables and symbols (about 1.5 (2n)^N box
    arrays each), one pair when the two share them (assembly.shares_table
    of the kernel and its envelope), 20 vectors of m (the operators'
    diagonals, volumes, tail intervals and cell lists, the solutions), 24
    of cell_count (both grids' cached index, coordinate and order arrays,
    the run's grid functions), with separable_cosine the near band's two
    (K, m) arrays and g, a fixed 160 KiB of Python objects, most of it
    the record buffer a csv.writer grows, 16 KiB for the near sums an
    operator keeps (assembly.NearSums: 80 levels of three sums take 13 KB
    at the 2-D offsets) and 64 KiB for hashlib, which the config hash
    imports on a run's first use (47-57 KB traced), and in 2-D the exterior
    tail densities of the box, n^2 floats, once when the two profiles are
    one object (assembly.TailTable).  Phases: one FFT product's box
    temporaries, with the circulant preconditioner's symbol during an
    elliptic solve; in 2-D a tail table's build, seven arrays of
    tail_table_rows x K / 4 (K = TAIL_ANGLES) for a block of prefix sums
    and three n x n arrays; the coarea walk's b x b blocks
    (b = cut_block, at most m) when coarea is requested; the separable
    band's gather block; and in a parabolic run the states both
    trajectories keep (2 steps m), the masked per-step loads of f and f#
    when f has a time factor (2 steps m more), one FFT product, 2 KiB of
    reports and residuals per step and the parabolic check's window arrays
    (about six stacked arrays of the u# and v rows of gap_window steps).
    The counts are calibrated against the tracemalloc peak of a warm run.
    The interpreter and its other modules are not counted (see the
    README's memory_cap_gb); a first run also traces the modules it
    imports, numpy.fft (about 0.2 MiB) and, for the exponential kind,
    scipy.special (about 10 MiB)."""
    grid = scenario_grid(cfg)
    m, dim, n = grid.masked_count, grid.dimension, grid.n
    box = (2 * n) ** dim
    table = (2 * n - 1) ** dim
    symbol = (2 * n) ** (dim - 1) * (n + 1)
    kernel = scenario_kernel(cfg)
    separable = isinstance(kernel.modulation, SeparableCosine)
    tables = 1 if shares_table(kernel, envelope_kernel(kernel)) else 2
    kept = tables * (table + symbol) + 20 * m + 24 * grid.cell_count + (160 + 16 + 64) * 1024 // 8
    # an FFT product: the zero box, its transform, the product, the inverse
    # and its intermediate, and the gathered result; a system without a
    # near band is solved with the circulant, which keeps one more symbol
    phases = [6 * box + (0 if separable else symbol)]
    if dim == 2:
        kept += (1 if envelope_kernel(kernel).profile is kernel.profile else 2) * n * n
        phases.append(7 * min(n, tail_table_rows()) * (TAIL_ANGLES // 4) + 3 * n * n)
    if "coarea" in cfg.checks:
        # the gathered block with its index array or a second block
        # (|u_i - u_j|, the lower triangle, the modulated term)
        b = min(m, cut_block(grid))
        phases.append(3 * b * b)
    if separable:
        band = len(near_offsets(dim)) * m
        kept += 2 * band + m
        phases.append(min(band, ROW_BLOCK))
    if cfg.time is not None:
        steps = cfg.time["steps"]
        held = 2 if cfg.f.get("time_factor", "none") == "none" else 4
        window = 12 * gap_window(grid) * grid.cell_count
        phases.append(held * steps * m + 6 * box + window + 2048 // 8 * steps)
    return 8 * (kept + max(phases))


def refine_sweep(cfg, levels, mode="elliptic"):
    """Rerun the scenario at n, 2n, ... (and doubled steps), reporting
    per-check slack decay; refuses a level that would blow the memory cap."""
    if levels < 2:
        raise ValueError("a sweep needs at least 2 levels")
    cap_bytes = cfg.memory_cap_gb * 2.0 ** 30
    level_rows = []
    refused = None
    worst_exit = 0
    for lvl in range(levels):
        n = cfg.n * 2 ** lvl
        steps = cfg.time["steps"] * 2 ** lvl if cfg.time else None
        sub = cfg.with_resolution(n, steps)
        sub.raw["output"] = os.path.join(cfg.output, f"level_{lvl}")
        sub.output = sub.raw["output"]
        needed = estimate_bytes(sub)
        if needed > cap_bytes:
            refused = {"level": lvl, "n": n, "estimated_bytes": needed,
                       "cap_bytes": cap_bytes}
            break
        code, summary = run_scenario(sub, mode)
        worst_exit = max(worst_exit, code)
        slack_by_check = {}
        for rep in summary["reports"]:
            prev = slack_by_check.get(rep["check"], -math.inf)
            slack_by_check[rep["check"]] = max(prev, rep["slack"])
        level_rows.append({"level": lvl, "n": n, "steps": steps,
                           "exit": code, "max_slack": slack_by_check})
    if not level_rows:
        raise ScenarioError(
            "memory cap refuses even the first sweep level; raise "
            "memory_cap_gb or start from a smaller n")
    ratios = {}
    for a, b in zip(level_rows[:-1], level_rows[1:]):
        for name in a["max_slack"]:
            if name not in b["max_slack"]:
                continue
            coarse, fine = abs(a["max_slack"][name]), abs(b["max_slack"][name])
            ratios.setdefault(name, []).append(
                coarse / fine if fine > 0 else None)
    report = {"levels": level_rows, "decay_ratios": ratios, "refused": refused}
    outdir = os.path.join(cfg.base_dir, cfg.output)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "sweep.json"), "w") as fh:
        json.dump(json_ready(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return worst_exit, report


def rearrange_csv(src, dst):
    f = read_gridfunction_csv(src)
    write_gridfunction_csv(schwarz_rearrangement(f), dst)


# --- entry point ---------------------------------------------------------------


def structured_error(err):
    payload = {"error": {"type": type(err).__name__, "message": str(err)}}
    if isinstance(err, ConfigError):
        payload["error"]["details"] = err.errors
    print(json.dumps(payload, sort_keys=True))
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levysym",
        description="Nonlocal Dirichlet scenarios: solve, symmetrize, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("solve-elliptic", "solve a stationary scenario"),
                       ("solve-parabolic", "march a time-dependent scenario"),
                       ("verify", "run a scenario's checks")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="scenario JSON file")
    p = sub.add_parser("sweep", help="rerun a scenario at doubled resolutions")
    p.add_argument("config", help="scenario JSON file")
    p.add_argument("--levels", type=int, required=True,
                   help="number of resolutions, at least 2")
    p = sub.add_parser("rearrange",
                       help="Schwarz-rearrange a grid-function CSV")
    p.add_argument("src", help="input CSV")
    p.add_argument("dst", help="output CSV")
    return parser


RUNTIME_ERRORS = (ScenarioError, AssemblyError, SolverError,
                  IntegrabilityError, KernelDomainError, ValueError,
                  OSError)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        thread_setting()
        if args.command == "rearrange":
            rearrange_csv(args.src, args.dst)
            print(json.dumps({"rearranged": args.dst}))
            return 0
        cfg = parse_config(args.config)
        if args.command == "sweep":
            mode = "parabolic" if cfg.time is not None else "elliptic"
            code, report = refine_sweep(cfg, args.levels, mode)
            print(json.dumps(json_ready(report), sort_keys=True))
            return code
        mode = {"solve-elliptic": "elliptic",
                "solve-parabolic": "parabolic"}.get(args.command)
        if mode is None:
            mode = "parabolic" if cfg.time is not None else "elliptic"
        code, summary = run_scenario(cfg, mode)
        print(json.dumps(json_ready(summary), sort_keys=True))
        return code
    except RUNTIME_ERRORS as err:
        return structured_error(err)


if __name__ == "__main__":
    raise SystemExit(main())
