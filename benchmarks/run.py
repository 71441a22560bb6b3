"""Scenario benchmark of levysym.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario from the seed, writes it to a file
under ``benchmarks/.work`` and runs it through the public
``levysym.cli.parse_config`` and ``levysym.cli.run_scenario`` calls in a
closed loop from this single process: one scenario at a time, no extra
threads, the BLAS pool at its default.  Every run is checked (see
``check_outcome``) and a failed run counts in ``failed``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it splits the time between untraced runs and runs traced by
``spans.Tracer`` and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat every metric by name
with its unit, plus the machine and library settings.

``--n`` runs a smaller variant of the workload (the smoke test uses
16); ``--write-reference`` stores the seed-0 outputs the correctness
check compares against.  The package is imported from ``src`` next to
this directory, never from elsewhere.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

from spans import LAYERS, REPORT_NAMES, Tracer, expected_spans
from workloads import WORKLOADS, scenario

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
PACKAGE = (SRC / "levysym").resolve()

SETUP_REPEATS = 5
# allowed drift of a slack, sum or maximum from the seed-0 reference:
# 100 x the workloads' solver_tol, relative once the value exceeds 1
REF_TOL = 1e-8
L3_PATH = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")

END_TO_END = {"scenario_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# quantities computed from array sizes and iteration counts, not measured
COMPUTED = ("assembly.operator_bytes", "solvers.matvec_bytes",
            "solvers.matvec_gflops")
PER_LAYER = {
    "assembly.assemble_s": "s", "assembly.assemble_u_s": "s",
    "assembly.assemble_v_s": "s", "assembly.far_pack_s": "s",
    "assembly.near_s": "s", "assembly.near_calls": "count",
    "assembly.near_depth_max": "count", "assembly.tail_s": "s",
    "assembly.masked_cells": "count", "assembly.operator_bytes": "B",
    "kernels.profile_points": "count", "kernels.modulation_points": "count",
    "kernels.modulation_s": "s",
    "solvers.solve_s": "s", "solvers.pcg_s": "s", "solvers.pcg_calls": "count",
    "solvers.cg_iters": "count", "solvers.matvec_bytes": "B",
    "solvers.matvec_gflops": "GFLOP/s", "solvers.materialize_s": "s",
    "solvers.energy_s": "s",
    "rearrange.schwarz_s": "s", "rearrange.schwarz_calls": "count",
    "rearrange.concentration_s": "s",
    "rearrange.concentration_calls": "count",
    **{f"verify.{report}_s": "s" for report in REPORT_NAMES.values()},
    "verify.perimeter_calls": "count", "verify.perimeter_s": "s",
    "verify.energy_calls": "count", "verify.energy_s": "s",
    "verify.checks_failed": "count", "verify.slack_max_dev": "ratio",
    "cli.run_self_s": "s", "cli.io_s": "s", "cli.io_bytes": "B",
    "cli.warnings": "count", "cli.mem_estimate_ratio": "ratio",
    **{layer + ".self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import levysym.cli
levysym.cli.parse_config(sys.argv[2])
print(json.dumps({"setup_s": time.perf_counter() - t0,
                  "module": levysym.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- environment -------------------------------------------------------------


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        l3 = L3_PATH.read_text().strip()
    except OSError:
        l3 = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": np.__version__, "blas": blas, "l3_cache": l3}
    for var in ("LEVYSYM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def import_levysym():
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no levysym package under {SRC}")
    sys.path.insert(0, str(SRC))
    import levysym
    from levysym import assembly, cli, kernels, solvers, verify
    if Path(levysym.__file__).resolve().parent != PACKAGE:
        raise BenchError(f"levysym imported from {levysym.__file__}, "
                         f"not from {SRC}")
    return {"cli": cli, "assembly": assembly, "kernels": kernels,
            "solvers": solvers, "verify": verify}


def measure_setup(path):
    """Seconds to import levysym and parse the scenario, each in a fresh
    interpreter; one unmeasured start first fills the bytecode cache."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), str(path)],
                capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"set-up run timed out: {err}") from err
        if proc.returncode != 0:
            raise BenchError("set-up run failed:\n" + proc.stderr)
        record = json.loads(proc.stdout.splitlines()[-1])
        if Path(record["module"]).resolve().parent != PACKAGE:
            raise BenchError(f"set-up imported {record['module']}")
        samples.append(record["setup_s"])
    return samples[1:]


# -- one scenario run and its correctness check ---------------------------------


def run_once(cli, cfg, mode):
    """Time one run_scenario call; an exception is recorded, not raised."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code, summary = cli.run_scenario(cfg, mode)
            error = None
        except Exception:  # every failure of the program is counted
            code, summary, error = None, None, traceback.format_exc()
        wall = time.perf_counter() - start
    return {"wall": wall, "code": code, "summary": summary, "error": error,
            "warnings": len(caught)}


def column_stats(path, dimension):
    import numpy as np
    values = np.loadtxt(path, delimiter=",", skiprows=1,
                        usecols=2 * dimension, ndmin=1)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path.name} holds non-finite values")
    return float(values.sum()), float(values.max())


def fingerprint(outcome, cfg):
    """Slacks per check plus sum and maximum of the u and v artifacts."""
    slacks = {}
    for rep in outcome["summary"]["reports"]:
        slacks.setdefault(rep["check"], []).append(rep["slack"])
    out = Path(outcome["summary"]["output"])
    u_sum, u_max = column_stats(out / "u.csv", cfg.dimension)
    v_sum, v_max = column_stats(out / "v.csv", cfg.dimension)
    return {"checks": slacks, "u_sum": u_sum, "u_max": u_max,
            "v_sum": v_sum, "v_max": v_max}


def deviation(got, want):
    """Largest drift of got from want, scaled as REF_TOL is; inf when a
    check or a step is missing."""
    worst = 0.0
    pairs = [(got[k], want[k]) for k in ("u_sum", "u_max", "v_sum", "v_max")]
    for name, ref in want["checks"].items():
        values = got["checks"].get(name, [])
        if len(values) != len(ref):
            return float("inf")
        pairs.extend(zip(values, ref))
    for value, ref in pairs:
        worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    return worst


def check_outcome(outcome, cfg, workload, want):
    """Problems of one run (empty when it passed) and its fingerprint.

    A run fails when it raises, exits non-zero, misses a requested report
    or, given a reference, drifts from it by more than REF_TOL.
    Box-margin warnings are counted, not failures."""
    if outcome["error"]:
        return [outcome["error"]], None
    problems = []
    if outcome["code"] != 0:
        problems.append(f"exit code {outcome['code']}")
    try:
        got = fingerprint(outcome, cfg)
    except (OSError, ValueError) as err:
        return problems + [f"artifacts: {err}"], None
    steps = workload.time["steps"] if workload.time else 1
    for check in workload.checks:
        name = REPORT_NAMES[check]
        count = steps if check == "parabolic" else 1
        if len(got["checks"].get(name, [])) != count:
            problems.append(f"report {name}: expected {count}, got "
                            f"{len(got['checks'].get(name, []))}")
    drift = deviation(got, want) if want is not None else 0.0
    if drift > REF_TOL:
        problems.append(f"outputs drift from the reference by {drift:.3g} "
                        f"> {REF_TOL}")
    return problems, got


# -- measurement loops --------------------------------------------------------


class Runner:
    """One benchmark process: a scenario, its reference and its tallies."""

    def __init__(self, modules, cfg, workload, reference):
        self.modules = modules
        self.cfg = cfg
        self.workload = workload
        self.want = reference
        self.attempted = 0
        self.failures = []
        self.max_dev = 0.0

    def run(self, probe=None):
        """One checked run; probe.start and probe.stop bracket the call."""
        self.attempted += 1
        if probe is not None:
            probe.start()
        outcome = run_once(self.modules["cli"], self.cfg, self.workload.mode)
        problems = probe.stop(outcome) if probe is not None else []
        more, got = check_outcome(outcome, self.cfg, self.workload, self.want)
        problems += more
        if got is not None:
            if self.want is None:
                # without a stored reference, later runs must repeat the first
                self.want = got
            self.max_dev = max(self.max_dev, deviation(got, self.want))
        outcome["ok"] = not problems
        if problems:
            self.failures.append(problems)
        return outcome

    def loop(self, seconds, probe=None):
        """Runs until `seconds` have passed, at least one."""
        outcomes = []
        start = time.perf_counter()
        while not outcomes or time.perf_counter() - start < seconds:
            outcomes.append(self.run(probe))
        return outcomes


def walls(outcomes):
    """Wall times of the passing runs, or of all runs when none passed."""
    good = [o["wall"] for o in outcomes if o["ok"]]
    return good or [o["wall"] for o in outcomes]


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(runner, seconds, scenario_path):
    setup = measure_setup(scenario_path)
    outcomes = runner.loop(seconds)
    times = walls(outcomes)
    metrics = {
        "scenario_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"scenario_s": describe(times), "setup_s": describe(setup)}
    return metrics, notes, {"scenario_s": times, "setup_s": setup}


def describe(samples):
    tail = tail_percentile(samples)
    text = f"median of {len(samples)}"
    if tail is None:
        return text + "; no percentile has 10 samples beyond it"
    return text + f"; p{tail[0]:.0f} = {tail[1]!r}"


class MemoryProbe:
    """Allocation peak of one run from tracemalloc, which numpy reports to."""

    def __init__(self):
        self.peak = None

    def start(self):
        tracemalloc.start()

    def stop(self, outcome):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return []


class TraceProbe:
    """Traces one run into the tracer and keeps its per-layer row."""

    def __init__(self, runner, tracer):
        self.tracer = tracer
        workload = runner.workload
        self.expect = expected_spans(workload.mode, workload.checks,
                                     bool(workload.modulation))
        self.rows = []

    def start(self):
        self.tracer.begin_run(len(self.rows))

    def stop(self, outcome):
        tracer = self.tracer
        row = tracer.layer_metrics(tracer.run)
        row["assembly.operator_bytes"] = tracer.operator_bytes()
        tracer.operators = []
        summary = outcome["summary"] or {"reports": [], "output": ""}
        row["verify.checks_failed"] = sum(not r["pass"]
                                          for r in summary["reports"])
        out = Path(summary["output"])
        row["cli.io_bytes"] = (sum(p.stat().st_size for p in out.iterdir())
                               if summary["output"] and out.is_dir() else 0)
        row["cli.warnings"] = outcome["warnings"]
        row["trace.wall_s"] = outcome["wall"]
        self.rows.append(row)
        gone = sorted(self.expect - tracer.entered(tracer.run))
        return [f"spans never entered: {', '.join(gone)}"] if gone else []


def traced(runner, seconds, spans_path):
    """One run under tracemalloc, which also warms up, then untraced runs
    for half the time and traced runs for the other half.  Per-layer
    metrics are means over the traced runs."""
    if runner.modules["assembly"].thread_count() > 1:
        raise BenchError("tracing needs LEVYSYM_THREADS unset or 1: spans "
                         "assume one thread")
    memory = MemoryProbe()
    runner.run(memory)
    plain = walls(runner.loop(seconds / 2.0))
    tracer = Tracer()
    probe = TraceProbe(runner, tracer)
    try:
        tracer.install(runner.modules)
    except AttributeError as err:
        raise BenchError(str(err)) from err
    try:
        runner.loop(seconds / 2.0, probe)
    finally:
        tracer.remove()
    tracer.write(spans_path)
    rows = probe.rows
    metrics = {name: statistics.fmean(row[name] for row in rows)
               for name in rows[0]}
    estimate = runner.modules["cli"].estimate_bytes(runner.cfg)
    metrics["cli.mem_estimate_ratio"] = estimate / memory.peak
    metrics["verify.slack_max_dev"] = runner.max_dev
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                      / statistics.fmean(plain) - 1.0)
    notes = {"trace.wall_s": f"mean of {len(rows)} traced runs against "
                             f"{len(plain)} untraced",
             "cli.mem_estimate_ratio": f"estimate_bytes {estimate} over the "
                                       f"tracemalloc peak {memory.peak}"}
    samples = {"untraced_s": plain,
               "traced_s": [row["trace.wall_s"] for row in rows]}
    return metrics, notes, samples


# -- reporting ----------------------------------------------------------------


def print_report(args, env, cfg_info, metrics, units, notes, runner):
    print(f"# levysym benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# " + " ".join(f"{k}={v}" for k, v in cfg_info.items()))
    failed = len(runner.failures)
    rows = dict(metrics)
    if not args.trace:
        rows["failed_frac"] = failed / runner.attempted
        units = dict(units, failed_frac="ratio")
        notes = dict(notes, failed_frac=f"{failed} of {runner.attempted} "
                                        f"runs failed")
    for name, value in rows.items():
        note = notes.get(name, "")
        if name in COMPUTED:
            note = (f"computed from array sizes, not measured; "
                    f"L3 = {env['l3_cache']}")
        print(f"{name:32s} {value!r:>24} {units[name]:8s} {note}".rstrip())
    for problems in runner.failures[:5]:
        # a traceback is kept whole in result.json; its last line shows here
        print("# failed run: " + "; ".join(p.strip().splitlines()[-1]
                                           for p in problems))


def write_reference():
    modules = import_levysym()
    WORK.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        path = WORK / f"{name}-reference" / "scenario.json"
        shutil.rmtree(path.parent, ignore_errors=True)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(scenario(workload, 0), indent=2))
        cfg = modules["cli"].parse_config(str(path))
        outcome = run_once(modules["cli"], cfg, workload.mode)
        problems, got = check_outcome(outcome, cfg, workload, None)
        if problems:
            raise BenchError(f"{name}: " + "; ".join(problems))
        reference[name] = got
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="resolution of a smaller variant")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2


def bench(args):
    workload = WORKLOADS[args.workload]
    modules = import_levysym()
    env = environment()
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario(workload, args.seed, args.n), indent=2))
    cfg = modules["cli"].parse_config(str(path))
    reference = None
    if args.seed == 0 and args.n is None:
        try:
            reference = json.loads(REFERENCE.read_text())[workload.name]
        except (OSError, KeyError) as err:
            raise BenchError(f"no seed-0 reference: {err}") from err
    runner = Runner(modules, cfg, workload, reference)
    cfg_info = {"dimension": cfg.dimension, "n": cfg.n,
                "masked": modules["cli"].scenario_grid(cfg).masked_count,
                "checks": ",".join(cfg.checks), "mode": workload.mode}
    if args.trace:
        metrics, notes, samples = traced(runner, args.seconds,
                                         work / "spans.jsonl")
        units = PER_LAYER
    else:
        metrics, notes, samples = end_to_end(runner, args.seconds, path)
        units = END_TO_END
    if set(metrics) != set(units):
        raise BenchError(f"metrics and units disagree: "
                         f"{sorted(set(metrics) ^ set(units))}")
    print_report(args, env, cfg_info, metrics, units, notes, runner)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"env": env, "scenario": cfg_info, "samples": samples,
         "failures": runner.failures, "result": result}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
