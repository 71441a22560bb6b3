"""The benchmark tracer (benchmarks/spans.py) wraps package functions by
module and attribute name, and the runner (benchmarks/run.py) calls a few
more on the imported modules.  A rename or deletion in the package makes
the benchmark refuse to run; this catches it in the unit tests."""

import importlib
import re
import runpy
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def unresolved(names):
    return [f"{mod}.{attr}" for mod, attr in names
            if not callable(getattr(importlib.import_module(f"levysym.{mod}"),
                                    attr, None))]


def test_every_wrapped_name_is_a_callable():
    # run_path compiles the file in memory and writes no bytecode next to it
    wrapped = runpy.run_path(str(BENCHMARKS / "spans.py"))["WRAPPED"]
    assert wrapped
    assert unresolved((mod, attr) for mod, attr, _ in wrapped) == []


def test_every_runner_call_is_a_callable():
    # the runner reaches the package as modules["<mod>"].<attr>(...)
    text = (BENCHMARKS / "run.py").read_text()
    called = set(re.findall(r'modules\["(\w+)"\]\.(\w+)\(', text))
    assert called >= {("assembly", "thread_count"), ("cli", "estimate_bytes"),
                      ("cli", "parse_config"), ("cli", "scenario_grid")}
    assert unresolved(sorted(called)) == []
