"""The benchmark tracer (benchmarks/spans.py) wraps package functions by
module and attribute name.  A rename in the package makes the traced
benchmark refuse to run; this catches it in the unit tests."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_wrapped_name_is_a_callable():
    # run_path compiles the file in memory and writes no bytecode next to it
    wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
    assert wrapped
    missing = [f"{mod}.{attr}" for mod, attr, _ in wrapped
               if not callable(getattr(importlib.import_module(f"levysym.{mod}"),
                                       attr, None))]
    assert missing == []
