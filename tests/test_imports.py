"""What importing levysym loads: no module-level scipy import, no unused
imported name or unreferenced function, and which modules importing the
CLI and a scenario run pull in (each case in a fresh interpreter, since
sys.modules only grows)."""

import ast
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import levysym

PACKAGE = Path(levysym.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEARCHED = [path for top in ("src", "tests", "benchmarks")
            for path in sorted((BENCHMARKS.parent / top).rglob("*.py"))]


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def import_time_nodes(tree):
    """Nodes that run when the module is imported: everything outside
    function bodies and outside `if TYPE_CHECKING:` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def scipy_imports(tree):
    """Line numbers of the scipy imports that run at import time."""
    lines = []
    for node in import_time_nodes(tree):
        if isinstance(node, ast.Import) and any(is_scipy(a.name) for a in node.names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and is_scipy(node.module)):
            lines.append(node.lineno)
    return lines


def imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere in the module, plus the entries of __all__."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {"assembly.py", "cli.py", "kernels.py", "verify.py"} <= {
        p.name for p in MODULES}


def test_no_module_level_scipy_import():
    found = [f"{p.name}:{line}" for p in MODULES for line in scipy_imports(parse(p))]
    assert found == [], f"scipy imported at module level: {found}"


def test_every_imported_name_is_used():
    # a name the benchmark tracer wraps in a module is kept there for it
    wrapped = runpy.run_path(str(BENCHMARKS / "spans.py"))["WRAPPED"]
    unused = []
    for path in MODULES:
        tree = parse(path)
        used = used_names(tree) | {attr for mod, attr, _ in wrapped
                                   if mod == path.stem}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"imported but never used: {unused}"


def defined_functions(tree):
    """Names of the non-dunder module-level functions and methods."""
    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    return [node.name for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreferenced(functions, texts):
    """The names that occur, as a whole word, only once over the texts:
    at their own definition."""
    return [name for name in functions
            if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) < 2]


def test_every_function_is_referenced():
    texts = [path.read_text() for path in SEARCHED]
    dead = [f"{path.name}:{name}" for path in MODULES
            for name in unreferenced(defined_functions(parse(path)), texts)]
    assert dead == [], f"defined but referenced nowhere: {dead}"


def test_reference_scan_sees_what_it_must():
    tree = ast.parse(
        "def used():\n"
        "    def nested():\n"
        "        pass\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    @property\n"
        "    def orphan(self):\n"
        "        return used()\n")
    functions = defined_functions(tree)
    assert functions == ["used", "orphan"]
    assert unreferenced(functions, [ast.unparse(tree), "unused_name"]) == ["orphan"]


def test_scan_sees_what_it_must():
    """The scan catches a top-level scipy import, one under an if at module
    level and an unused name, and leaves function-level and TYPE_CHECKING
    imports alone."""
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import scipy.sparse\n"
        "if True:\n"
        "    from scipy import special\n"
        "if TYPE_CHECKING:\n"
        "    from scipy import integrate\n"
        "def f():\n"
        "    from scipy import linalg\n"
        "    return linalg, special, integrate\n"
        "import os\n")
    assert sorted(scipy_imports(tree)) == [2, 4]
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["scipy", "os"]


CHILD = r"""
import json, os, sys, warnings
import levysym.cli as cli

polynomial_at_import = "numpy.polynomial" in sys.modules
warnings.simplefilter("ignore")
codes = [cli.run_scenario(cli.parse_config(path), mode)[0]
         for path, mode in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy_ma": "numpy.ma" in sys.modules,
    "polynomial_at_import": polynomial_at_import,
    "env": {var: os.environ.get(var) for var in json.loads(sys.argv[2])},
}))
"""

BOXES = [[[-1.0, -0.1], [-1.0, 1.0]], [[0.1, 1.0], [-0.5, 0.5]]]
ELLIPTIC_2D = {
    "schema": 1, "dimension": 2, "n": 16,
    "domain": {"type": "boxes", "pieces": BOXES},
    "kernel": {"kind": "fractional", "s": 0.5},
    "f": {"kind": "constant", "value": 1.0},
    "checks": ["comparison", "energy", "polya_szego", "coarea"],
}
PARABOLIC_1D = {
    "schema": 1, "dimension": 1, "n": 64,
    "domain": {"type": "intervals", "pieces": [[-1.0, -0.2], [0.2, 1.0]]},
    "kernel": {"kind": "fractional", "s": 0.5},
    "f": {"kind": "constant", "value": 1.0},
    "checks": ["parabolic", "comparison"],
    "time": {"horizon": 0.5, "steps": 4},
}
SEPARABLE = dict(ELLIPTIC_2D, checks=["comparison"], kernel={
    "kind": "fractional", "s": 0.5, "Lambda": 2.0,
    "modulation": "separable_cosine"})
EXPONENTIAL = dict(ELLIPTIC_2D, checks=["comparison"],
                   kernel={"kind": "exponential", "lam": 1.0})
LOGARITHMIC = dict(ELLIPTIC_2D, kernel={"kind": "logarithmic", "eps": 1.0})


def run_child(tmp_path, scenarios, env=None, report=()):
    """Run (doc, mode) scenarios in a fresh interpreter; returns the exit
    codes, the scipy modules loaded and the report variables."""
    jobs = []
    for k, (doc, mode) in enumerate(scenarios):
        path = tmp_path / f"scenario{k}.json"
        path.write_text(json.dumps(dict(doc, output=f"out{k}")))
        jobs.append((str(path), mode))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(jobs), json.dumps(list(report))],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule is built on first use (kernels._gauss_legendre)
    out = run_child(tmp_path, [])
    assert out["codes"] == []
    assert not out["polynomial_at_import"]


def test_unmodulated_fractional_run_loads_no_scipy(tmp_path):
    out = run_child(tmp_path, [(ELLIPTIC_2D, "elliptic"),
                               (PARABOLIC_1D, "parabolic")])
    assert out["codes"] == [0, 0]
    assert out["scipy"] == []


def test_runs_load_no_numpy_ma(tmp_path):
    # numpy.ma (about 1 MiB) would load inside a first run, where the
    # memory estimate does not count it: np.median and np.unique on floats
    # import it
    time_factor = dict(PARABOLIC_1D, f={"kind": "constant", "value": 1.0,
                                         "time_factor": "decay"})
    out = run_child(tmp_path, [(ELLIPTIC_2D, "elliptic"), (SEPARABLE, "elliptic"),
                               (time_factor, "parabolic")])
    assert out["codes"] == [0, 0, 0]
    assert not out["numpy_ma"]


def test_separable_run_loads_no_scipy(tmp_path):
    out = run_child(tmp_path, [(SEPARABLE, "elliptic")])
    assert out["codes"] == [0]
    assert out["scipy"] == []


def test_exponential_run_loads_scipy_special(tmp_path):
    out = run_child(tmp_path, [(EXPONENTIAL, "elliptic")])
    assert out["codes"] == [0]
    assert "scipy.special" in out["scipy"]


def test_logarithmic_run_loads_no_quadrature(tmp_path):
    # the logarithmic primitive is a fixed Gauss rule, not scipy's quad
    out = run_child(tmp_path, [(LOGARITHMIC, "elliptic")])
    assert out["codes"] == [0]
    assert "scipy.integrate" not in out["scipy"]


def test_logarithmic_run_loads_no_scipy_special(tmp_path):
    # the far tail's incomplete gamma is kernels.gamma_tail, a continued
    # fraction in numpy, so a first logarithmic run traces no scipy.special
    out = run_child(tmp_path, [(LOGARITHMIC, "elliptic")])
    assert out["codes"] == [0]
    assert "scipy.special" not in out["scipy"]


def test_thread_setting_reaches_a_late_scipy(tmp_path):
    """LEVYSYM_THREADS sets the BLAS pool variables when levysym is
    imported, so a scipy that loads later, mid-run, sees them too."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["LEVYSYM_THREADS"] = "1"
    out = run_child(tmp_path, [(EXPONENTIAL, "elliptic")], env=env,
                    report=THREAD_VARS)
    assert "scipy.special" in out["scipy"]
    assert out["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert out["env"]["OMP_NUM_THREADS"] == "1"
    diagnostics = json.loads((tmp_path / "out0" / "diagnostics.json").read_text())
    assert diagnostics["assembly"]["original"]["threads"] == 1
    assert diagnostics["assembly"]["symmetrized"]["threads"] == 1
