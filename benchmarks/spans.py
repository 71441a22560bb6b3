"""Span tracing of a levysym scenario from outside the package.

The pipeline looks its layer functions up as module attributes at call
time (``cli.assemble``, ``solvers.pcg``, ...).  ``Tracer.install``
replaces those attributes with timing wrappers and ``Tracer.remove`` puts
the originals back, so the package itself is never edited.  Spans are
kept in memory as (name, start, end, parent, run id) and written out when
the benchmark ends.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

import functools
import json
import time

LAYERS = ("kernels", "rearrange", "assembly", "solvers", "verify", "cli")

# (module, attribute, span name); a missing attribute fails installation
WRAPPED = (
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "assemble", "assembly.assemble"),
    ("assembly", "refined_pair_weights", "assembly.near"),
    ("assembly", "box_tail_density", "assembly.tail"),
    ("assembly", "modulation_factor", "kernels.modulation"),
    ("cli", "solve_elliptic", "solvers.solve_elliptic"),
    ("cli", "parabolic_solve", "solvers.parabolic_solve"),
    ("solvers", "pcg", "solvers.pcg"),
    ("solvers", "energy", "solvers.energy"),
    ("cli", "schwarz_rearrangement", "rearrange.schwarz"),
    ("verify", "schwarz_rearrangement", "rearrange.schwarz"),
    ("cli", "concentration_curve", "rearrange.concentration"),
    ("verify", "concentration_curve", "rearrange.concentration"),
    ("cli", "check_comparison", "verify.comparison"),
    ("cli", "check_energy_comparison", "verify.energy_comparison"),
    ("cli", "check_polya_szego", "verify.polya_szego"),
    ("cli", "check_coarea", "verify.coarea_plain"),
    ("cli", "check_parabolic_comparison", "verify.parabolic_comparison"),
    ("verify", "perimeter_of", "verify.perimeter"),
    ("verify", "energy", "verify.energy"),
    ("cli", "write_gridfunction_csv", "cli.io"),
    ("cli", "write_concentration_csv", "cli.io"),
    ("cli", "write_reports", "cli.io"),
)

# spans every run of a mode enters, and those each requested check adds
MODE_SPANS = {
    "elliptic": ("solvers.solve_elliptic", "solvers.energy"),
    "parabolic": ("solvers.parabolic_solve",),
}
BASE_SPANS = ("cli.run_scenario", "assembly.assemble", "assembly.near",
              "assembly.tail", "solvers.pcg", "rearrange.schwarz",
              "rearrange.concentration", "cli.io")
# CheckReport.check of each scenario check; its span is named after it
REPORT_NAMES = {"comparison": "comparison", "energy": "energy_comparison",
                "polya_szego": "polya_szego", "coarea": "coarea_plain",
                "parabolic": "parabolic_comparison"}
INNER_SPANS = {"energy": ("verify.energy",),
               "polya_szego": ("verify.energy",),
               "coarea": ("verify.perimeter",)}


def size(value):
    """Element count of an array or a scalar, without importing numpy
    ahead of the package (which sets the BLAS thread count first)."""
    return int(getattr(value, "size", 1))


def expected_spans(mode, checks, modulated):
    names = set(BASE_SPANS) | set(MODE_SPANS[mode])
    for check in checks:
        names.add("verify." + REPORT_NAMES[check])
        names.update(INNER_SPANS.get(check, ()))
    if modulated:
        names.add("kernels.modulation")
    return names


class Tracer:
    """In-memory spans plus per-run counters for one benchmark process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id]
        self.stack = []
        self.run = None
        self.counters = {}   # run id -> {counter: value}
        self.operators = []  # operators assembled in the current run
        self.restore = []

    # -- recording -----------------------------------------------------

    def begin_run(self, run):
        self.run = run
        self.counters[run] = {"kernels.profile_points": 0,
                              "kernels.modulation_points": 0,
                              "solvers.cg_iters": 0,
                              "solvers.matvec_flops": 0,
                              "assembly.near_depth_max": 0,
                              "assembly.masked_cells": 0}
        self.operators = []

    def add(self, key, value):
        self.counters[self.run][key] += value

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def timed(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, modules):
        """Wrap every name in WRAPPED; modules maps short names to module
        objects.  Raises AttributeError before wrapping anything if a name
        is missing, so a rename in the package cannot yield zeros."""
        missing = [f"{mod}.{attr}" for mod, attr, _ in WRAPPED
                   if not callable(getattr(modules[mod], attr, None))]
        profile_cls = modules["kernels"].RadialProfile
        if not callable(getattr(profile_cls, "evaluate", None)):
            missing.append("kernels.RadialProfile.evaluate")
        if missing:
            raise AttributeError("cannot trace, names not found: "
                                 + ", ".join(missing))
        hooks = {
            "assembly.assemble": self.after_assemble,
            "assembly.near": self.after_near,
            "kernels.modulation": self.after_modulation,
            "solvers.pcg": self.after_pcg,
        }
        for mod, attr, name in WRAPPED:
            owner = modules[mod]
            original = getattr(owner, attr)
            self.restore.append((owner, attr, original))
            setattr(owner, attr, self.timed(original, name, hooks.get(name)))
        evaluate = profile_cls.evaluate

        @functools.wraps(evaluate)
        def counted(profile, r):
            self.add("kernels.profile_points", size(r))
            return evaluate(profile, r)

        self.restore.append((profile_cls, "evaluate", evaluate))
        profile_cls.evaluate = counted

    def remove(self):
        while self.restore:
            owner, attr, original = self.restore.pop()
            setattr(owner, attr, original)

    # -- hooks reading counts off arguments and results ------------------

    def after_assemble(self, args, op):
        if not self.operators:
            self.add("assembly.masked_cells", op.size)
        self.operators.append(op)

    def after_near(self, args, result):
        counts = self.counters[self.run]
        counts["assembly.near_depth_max"] = max(
            counts["assembly.near_depth_max"], int(result[1]))

    def after_modulation(self, args, result):
        self.add("kernels.modulation_points", size(result))

    def after_pcg(self, args, result):
        m = args[0].shape[0]
        self.add("solvers.cg_iters", int(result[1]))
        self.add("solvers.matvec_flops", 2 * m * m * int(result[1]))

    # -- analysis --------------------------------------------------------

    def run_spans(self, run):
        return [i for i, s in enumerate(self.spans) if s[4] == run]

    def self_times(self, run):
        """Self time of every span of a run, keyed by span index."""
        idx = self.run_spans(run)
        children = {i: [] for i in idx}
        for i in idx:
            parent = self.spans[i][3]
            if parent is not None:
                children[parent].append((self.spans[i][1], self.spans[i][2]))
        out = {}
        for i in idx:
            name, start, end, _, _ = self.spans[i]
            covered, reach = 0.0, start
            for lo, hi in sorted(children[i]):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[i] = (end - start) - covered
        return out

    def entered(self, run):
        return {self.spans[i][0] for i in self.run_spans(run)}

    def layer_metrics(self, run):
        """Per-layer totals, counts and self times of one traced run."""
        own = self.self_times(run)
        total, calls, self_s = {}, {}, {}
        for i, t_self in own.items():
            name, start, end, _, _ = self.spans[i]
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + t_self
        # the original operator is assembled first, the symmetrized second
        assembles = [self.spans[i][2] - self.spans[i][1] for i in sorted(own)
                     if self.spans[i][0] == "assembly.assemble"]
        c = self.counters[run]
        pcg_s = total.get("solvers.pcg", 0.0)
        out = {
            "assembly.assemble_s": total.get("assembly.assemble", 0.0),
            "assembly.assemble_u_s": sum(assembles[:1]),
            "assembly.assemble_v_s": sum(assembles[1:]),
            "assembly.far_pack_s": self_s.get("assembly.assemble", 0.0),
            "assembly.near_s": total.get("assembly.near", 0.0),
            "assembly.near_calls": calls.get("assembly.near", 0),
            "assembly.near_depth_max": c["assembly.near_depth_max"],
            "assembly.tail_s": total.get("assembly.tail", 0.0),
            "assembly.masked_cells": c["assembly.masked_cells"],
            "kernels.profile_points": c["kernels.profile_points"],
            "kernels.modulation_points": c["kernels.modulation_points"],
            "kernels.modulation_s": total.get("kernels.modulation", 0.0),
            "solvers.solve_s": (total.get("solvers.solve_elliptic", 0.0)
                                + total.get("solvers.parabolic_solve", 0.0)),
            "solvers.pcg_s": pcg_s,
            "solvers.pcg_calls": calls.get("solvers.pcg", 0),
            "solvers.cg_iters": c["solvers.cg_iters"],
            "solvers.matvec_bytes": 4 * c["solvers.matvec_flops"],
            "solvers.matvec_gflops": (c["solvers.matvec_flops"] / pcg_s / 1e9
                                      if pcg_s > 0 else 0.0),
            "solvers.materialize_s": (self_s.get("solvers.solve_elliptic", 0.0)
                                      + self_s.get("solvers.parabolic_solve", 0.0)),
            "solvers.energy_s": total.get("solvers.energy", 0.0),
            "rearrange.schwarz_s": total.get("rearrange.schwarz", 0.0),
            "rearrange.schwarz_calls": calls.get("rearrange.schwarz", 0),
            "rearrange.concentration_s": total.get("rearrange.concentration", 0.0),
            "rearrange.concentration_calls": calls.get("rearrange.concentration", 0),
            "verify.perimeter_calls": calls.get("verify.perimeter", 0),
            "verify.perimeter_s": total.get("verify.perimeter", 0.0),
            "verify.energy_calls": calls.get("verify.energy", 0),
            "verify.energy_s": total.get("verify.energy", 0.0),
            "cli.run_self_s": self_s.get("cli.run_scenario", 0.0),
            "cli.io_s": self_s.get("cli.io", 0.0),
        }
        for report in REPORT_NAMES.values():
            out[f"verify.{report}_s"] = total.get("verify." + report, 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                t for name, t in self_s.items() if name.split(".")[0] == layer)
        return out

    def operator_bytes(self):
        """Bytes of the arrays the assembled operators hold, cached dense
        copies included, computed from array sizes."""
        total = 0
        for op in self.operators:
            total += sum(getattr(v, "nbytes", 0) for v in vars(op).values())
        return total

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
