"""Scenario runner tests: config validation, pipeline artifacts, exit
codes, sweep behavior, and the rearrange subcommand."""

import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from levysym.cli import (TIME_FACTORS, ConfigError, ScenarioError,
                         data_function, estimate_bytes, main, parse_config,
                         refine_sweep, run_scenario, scenario_grid, time_loads)
from levysym.rearrange import (Grid, GridFunction, read_gridfunction_csv,
                               write_gridfunction_csv)
from levysym.solvers import TimeGrid, time_average


BOXES = [[[-1.0, -0.1], [-1.0, 1.0]], [[0.1, 1.0], [-0.5, 0.5]]]


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {
        "schema": 1,
        "dimension": 1,
        "domain": {"type": "intervals", "pieces": [[-1.0, -0.2], [0.2, 1.0]]},
        "n": 64,
        "kernel": {"kind": "fractional", "s": 0.5},
        "f": {"kind": "constant", "value": 1.0},
        "checks": ["comparison"],
        "output": "out",
    }
    doc.update(overrides)
    for key in [k for k, v in doc.items() if v is None]:
        del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, checks=None, output=None)
        cfg = parse_config(path)
        assert cfg.solver_tol == 1e-10
        assert cfg.kappa_tol == 0.05
        assert cfg.checks == ("comparison",)
        assert cfg.output == "out"
        assert cfg.seed == 0
        assert cfg.memory_cap_gb == 2.0

    def test_all_errors_reported_at_once(self, tmp_path):
        path = write_config(tmp_path, schema=2, n=100,
                            kernel={"kind": "levy-flight"},
                            checks=["comparison", "nope"], surprise=1)
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        errors = exc.value.errors
        assert any("schema" in e for e in errors)
        assert any(e.startswith("n:") for e in errors)
        assert any("levy-flight" in e and "allowed" in e for e in errors)
        assert any("nope" in e for e in errors)
        assert any("surprise" in e for e in errors)
        assert len(errors) >= 5

    def test_power_of_two_enforced(self, tmp_path):
        for bad in (100, 8, 2048, 63):
            with pytest.raises(ConfigError) as exc:
                parse_config(write_config(tmp_path, n=bad))
            assert any(e.startswith("n:") for e in exc.value.errors)

    def test_unknown_nested_keys(self, tmp_path):
        path = write_config(
            tmp_path,
            domain={"type": "intervals", "pieces": [[-1.0, 0.0]], "why": 1},
            tolerances={"solver_tol": 1e-10, "extra": 2})
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any("domain.why" in e for e in exc.value.errors)
        assert any("tolerances.extra" in e for e in exc.value.errors)

    def test_domain_dimension_cross_check(self, tmp_path):
        path = write_config(tmp_path, dimension=2)
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any("intervals require dimension 1" in e
                   for e in exc.value.errors)

    @pytest.mark.parametrize("dimension, domain, errors", [
        (2, {"type": "intervals", "pieces": [[-1.0, -0.2], [0.2, 1.0]]},
         ["domain.type: intervals require dimension 1"]),
        (1, {"type": "boxes", "pieces": BOXES},
         ["domain.type: boxes require dimension 2"]),
        (1, {"type": "intervals", "pieces": []},
         ["domain.pieces: expected a nonempty list of [a, b] pairs of finite numbers"]),
        (1, {"type": "intervals", "pieces": [[0.0, 0.5, 0.7]]},
         ["domain.pieces: expected a nonempty list of [a, b] pairs of finite numbers"]),
        (1, {"type": "intervals", "pieces": [0.0, 0.5]},
         ["domain.pieces: expected a nonempty list of [a, b] pairs of finite numbers"]),
        (2, {"type": "intervals", "pieces": "x"},
         ["domain.type: intervals require dimension 1",
          "domain.pieces: expected a nonempty list of [a, b] pairs of finite numbers"]),
        (1, {"type": "intervals", "pieces": [[-2.0, 0.5], [0.6, 0.6]]},
         ["domain.pieces: interval [-2.0, 0.5] must satisfy -L <= a < b <= L "
          "with L = 1.0",
          "domain.pieces: interval [0.6, 0.6] must satisfy -L <= a < b <= L "
          "with L = 1.0"]),
        (2, {"type": "boxes", "pieces": [[-1.0, 0.0]]},
         ["domain.pieces: expected a nonempty list of [[ax, bx], [ay, by]] "
          "boxes of finite numbers"]),
        (2, {"type": "boxes", "pieces": [[[-1.0, 0.0], [0.0, 0.5], [0.0, 0.5]]]},
         ["domain.pieces: expected a nonempty list of [[ax, bx], [ay, by]] "
          "boxes of finite numbers"]),
        (2, {"type": "boxes", "pieces": [[[-1.0, 0.0], [0.0, True]]]},
         ["domain.pieces: expected a nonempty list of [[ax, bx], [ay, by]] "
          "boxes of finite numbers"]),
        (1, {"type": "boxes", "pieces": None},
         ["domain.type: boxes require dimension 2",
          "domain.pieces: expected a nonempty list of [[ax, bx], [ay, by]] "
          "boxes of finite numbers"]),
        (2, {"type": "boxes", "pieces": [[[0.5, 0.2], [-1.0, 1.5]]]},
         ["domain.pieces: side [0.5, 0.2] must satisfy -L <= a < b <= L "
          "with L = 1.0",
          "domain.pieces: side [-1.0, 1.5] must satisfy -L <= a < b <= L "
          "with L = 1.0"]),
        (2, {"type": "boxes", "pieces": BOXES, "why": 1}, ["domain.why: unknown key"]),
        (2, {"type": "ball"}, ["domain.radius: required for a ball domain"]),
        (2, {"type": "ball", "radius": 1.5},
         ["domain.radius: must not exceed the box half-width"]),
        (1, {"type": "disc"}, ["domain.type: expected one of ball, boxes, intervals"]),
        (1, [], ["domain: expected an object"]),
    ])
    def test_domain_messages(self, tmp_path, dimension, domain, errors):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, dimension=dimension, domain=domain))
        assert exc.value.errors == errors

    @pytest.mark.parametrize("dimension, pieces, canonical", [
        (1, [[-1, 0], [0.25, 1]], [[-1.0, 0.0], [0.25, 1.0]]),
        (2, [[[-1, 0], [0, 1]]], [[[-1.0, 0.0], [0.0, 1.0]]]),
    ])
    def test_domain_pieces_canonical(self, tmp_path, dimension, pieces, canonical):
        # the canonical pieces keep the nesting of their type, so the config
        # hash of a scenario does not depend on how the domain is validated
        kind = "intervals" if dimension == 1 else "boxes"
        cfg = parse_config(write_config(tmp_path, dimension=dimension,
                                        domain={"type": kind, "pieces": pieces}))
        assert cfg.domain == {"type": kind, "pieces": canonical}
        assert all(type(v) is float for v in np.ravel(cfg.domain["pieces"]).tolist())

    def test_interval_bounds_checked(self, tmp_path):
        path = write_config(
            tmp_path, domain={"type": "intervals", "pieces": [[-2.0, 0.5]]})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_parabolic_check_needs_time_block(self, tmp_path):
        path = write_config(tmp_path, checks=["parabolic"])
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any("time block" in e for e in exc.value.errors)

    def test_time_factor_needs_time_block(self, tmp_path):
        path = write_config(
            tmp_path, f={"kind": "constant", "value": 1.0,
                         "time_factor": "decay"})
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any("time_factor" in e for e in exc.value.errors)

    def test_missing_table_file(self, tmp_path):
        path = write_config(tmp_path,
                            kernel={"kind": "table", "path": "no_such.csv"})
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any("not found" in e for e in exc.value.errors)

    def test_radial_scale_zero_kept(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, f={"kind": "radial", "formula": "square", "scale": 0}))
        assert cfg.f["scale"] == 0.0
        f_fn = data_function(cfg.f, cfg, scenario_grid(cfg))
        assert np.all(f_fn.values == 0.0)

    def test_logarithmic_eps_bound_listed_with_other_errors(self, tmp_path):
        # eps <= dimension + 2 keeps the profile decreasing; a 1-D eps = 5
        # is reported with the Lambda error, not left to fail at run time
        path = write_config(tmp_path, kernel={"kind": "logarithmic", "eps": 5,
                                              "Lambda": 0.5})
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        errors = exc.value.errors
        assert "kernel.eps: must lie in (0, dimension + 2]" in errors
        assert any(e.startswith("kernel.Lambda") for e in errors)
        assert len(errors) == 2
        cfg = parse_config(write_config(
            tmp_path, dimension=2, kernel={"kind": "logarithmic", "eps": 4},
            domain={"type": "ball", "radius": 0.5}))
        assert cfg.kernel["eps"] == 4

    @pytest.mark.parametrize("overrides, error", [
        ({"kernel": {"kind": "exponential", "lam": 0}}, "kernel.lam: must be > 0.0"),
        ({"dimension": 2, "domain": {"type": "ball", "radius": 0}},
         "domain.radius: must be > 0.0"),
        ({"time": {"horizon": 1.0, "steps": 0}}, "time.steps: must be >= 1"),
        ({"time": {"horizon": 0, "steps": 4}}, "time.horizon: must be > 0.0"),
        ({"kernel": {"kind": "fractional", "s": "x"}}, "kernel.s: expected a number"),
        ({"f": {"kind": "constant", "value": "x"}}, "f.value: expected a number"),
        ({"kernel": {"kind": "logarithmic"}},
         "kernel.eps: required for a logarithmic kernel"),
        ({"memory_cap_gb": math.nan}, "memory_cap_gb: must be finite"),
        ({"tolerances": {"solver_tol": math.nan}}, "tolerances.solver_tol: must be finite"),
        ({"tolerances": {"kappa_tol": math.inf}}, "tolerances.kappa_tol: must be finite"),
        ({"half_width": math.nan}, "half_width: must be finite"),
        ({"dimension": True}, "dimension: must be 1 or 2"),
        ({"dimension": 1.0}, "dimension: must be 1 or 2"),
        ({"domain": {"type": "intervals", "pieces": [[False, True]]}},
         "domain.pieces: expected a nonempty list of [a, b] pairs of finite numbers"),
        ({"domain": {"type": "intervals", "pieces": [[-math.inf, 0.5]]}},
         "domain.pieces: expected a nonempty list of [a, b] pairs of finite numbers"),
    ])
    def test_each_bad_field_reported_once(self, tmp_path, overrides, error):
        # json.dumps writes NaN and Infinity, which json.load reads back
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, **overrides))
        assert exc.value.errors == [error]

    def test_negative_c_rejected(self, tmp_path):
        path = write_config(tmp_path, c={"kind": "constant", "value": -1.0})
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any(e.startswith("c.value") for e in exc.value.errors)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert any("JSON" in e for e in exc.value.errors)


class TestRunScenario:
    def test_two_interval_artifacts_and_exit(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, checks=["comparison", "energy", "coarea"]))
        code, summary = run_scenario(cfg, "elliptic")
        assert code == 0
        out = tmp_path / "out"
        for name in ("u.csv", "v.csv", "concentration.csv", "checks.jsonl",
                     "diagnostics.json"):
            assert (out / name).exists(), name
        lines = [json.loads(line)
                 for line in (out / "checks.jsonl").read_text().splitlines()]
        assert [rec["check"] for rec in lines] == ["comparison",
                                                   "energy_comparison",
                                                   "coarea_plain"]
        assert all(rec["pass"] for rec in lines)
        assert len({rec["config_hash"] for rec in lines}) == 1
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["checks"]["failed"] == 0
        assert diag["grid"]["n"] == 64

    def test_diagnostics_record_matvec_and_check_seconds(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, checks=["comparison", "energy", "coarea"],
            kernel={"kind": "fractional", "s": 0.5, "Lambda": 2.0,
                    "modulation": "separable_cosine"}))
        run_scenario(cfg, "elliptic")
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        # the separable original is an offset-table operator like the
        # symmetrized one, which drops the modulation
        assert diag["assembly"]["original"]["matvec"] == "fft"
        assert diag["assembly"]["symmetrized"]["matvec"] == "fft"
        seconds = diag["checks"]["seconds"]
        assert sorted(seconds) == ["coarea", "comparison", "energy"]
        assert all(t >= 0 for t in seconds.values())

    def test_diagnostics_record_warnings_and_residual_histories(self, tmp_path):
        # the modulated-2d32 benchmark scenario: Lambda = 2 on boxes that
        # touch the bounding box raises the box-margin warning
        cfg = parse_config(write_config(
            tmp_path, dimension=2, n=32, checks=["comparison", "energy"],
            domain={"type": "boxes", "pieces": TestMemoryEstimate.BOXES},
            kernel=TestMemoryEstimate.MODULATED))
        with pytest.warns(UserWarning, match="box margin too small") as caught:
            run_scenario(cfg, "elliptic")
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        records = diag["warnings"]
        assert len(records) == len(caught) == 1
        assert records[0]["category"] == "UserWarning"
        assert records[0]["phase"] == "assembly"
        assert records[0]["message"] == str(caught[0].message)
        solver = diag["solver"]
        for side in ("u", "v"):
            history = solver[f"residual_history_{side}"]
            assert len(history) == solver[f"iterations_{side}"]
            assert history[-1] == solver[f"residual_{side}"]

    def test_quiet_run_records_no_warnings(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(cfg, "elliptic")
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["warnings"] == []

    def test_concentration_csv_columns(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_scenario(cfg, "elliptic")
        with open(tmp_path / "out" / "concentration.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "conc_u_sharp", "conc_v", "diff"]
        body = np.array(rows[1:], dtype=float)
        assert np.all(np.diff(body[:, 0]) > 0)
        # diff column is consistent and the comparison direction holds
        assert np.allclose(body[:, 3], body[:, 1] - body[:, 2], atol=1e-18)
        assert body[:, 3].max() <= 0.05 * (2.0 / 64)
        # the CSV and the comparison check come from one routine
        rec = json.loads((tmp_path / "out" / "checks.jsonl").read_text())
        assert rec["check"] == "comparison"
        worst = int(np.argmax(body[:, 3]))
        assert body[worst, 3] == rec["slack"]
        assert body[worst, 0] == rec["worst_location"]["r"]

    def test_equality_scenario_exit_zero(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path,
            domain={"type": "ball", "radius": 0.7},
            c={"kind": "radial", "formula": "square"},
            f={"kind": "radial", "formula": "gauss"},
            checks=["comparison", "energy"]))
        code, summary = run_scenario(cfg, "elliptic")
        assert code == 0
        recs = [json.loads(line) for line in
                (tmp_path / "out" / "checks.jsonl").read_text().splitlines()]
        assert abs(recs[0]["slack"]) <= 1e-10

    def test_kappa_tol_zero_failure_path(self, tmp_path):
        # lattice anisotropy makes the rearranged planar ball solution's
        # seminorm exceed the original's by ~4e-5; with the mesh allowance
        # switched off that check must fail and still land in checks.jsonl
        cfg = parse_config(write_config(
            tmp_path,
            dimension=2,
            domain={"type": "ball", "radius": 0.67},
            n=32,
            checks=["comparison", "polya_szego"],
            tolerances={"kappa_tol": 0.0}))
        code, summary = run_scenario(cfg, "elliptic")
        assert code == 2
        recs = {rec["check"]: rec for rec in
                (json.loads(line) for line in
                 (tmp_path / "out" / "checks.jsonl").read_text().splitlines())}
        assert recs["comparison"]["pass"]
        assert not recs["polya_szego"]["pass"]
        assert recs["polya_szego"]["slack"] > recs["polya_szego"]["tolerance"]
        assert recs["polya_szego"]["worst_location"]

    def test_same_scenario_passes_with_default_allowance(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path,
            dimension=2,
            domain={"type": "ball", "radius": 0.67},
            n=32,
            checks=["comparison", "polya_szego"]))
        code, summary = run_scenario(cfg, "elliptic")
        assert code == 0

    def test_parabolic_run(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path,
            f={"kind": "constant", "value": 1.0, "time_factor": "decay"},
            initial={"kind": "radial", "formula": "gauss", "scale": 0.5},
            time={"horizon": 1.0, "steps": 8},
            checks=["parabolic", "comparison"]))
        code, summary = run_scenario(cfg, "parabolic")
        assert code == 0
        recs = [json.loads(line) for line in
                (tmp_path / "out" / "checks.jsonl").read_text().splitlines()]
        steps = [rec for rec in recs if rec["check"] == "parabolic_comparison"]
        assert len(steps) == 8
        assert all(rec["pass"] for rec in recs)

    def test_last_parabolic_report_is_the_final_comparison(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, initial={"kind": "radial", "formula": "gauss", "scale": 0.5},
            time={"horizon": 1.0, "steps": 6}, checks=["parabolic", "comparison"]))
        run_scenario(cfg, "parabolic")
        recs = [json.loads(line) for line in
                (tmp_path / "out" / "checks.jsonl").read_text().splitlines()]
        last, final = recs[-2], recs[-1]
        assert last["check"] == "parabolic_comparison"
        assert final["check"] == "comparison"
        assert last["slack"] == final["slack"]
        assert last["worst_location"]["r"] == final["worst_location"]["r"]

    def test_parabolic_diagnostics_record_step_residuals_and_memory(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, initial={"kind": "radial", "formula": "gauss", "scale": 0.5},
            time={"horizon": 1.0, "steps": 8}, checks=["parabolic"]))
        run_scenario(cfg, "parabolic")
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        solver = diag["solver"]
        for side in ("u", "v"):
            residuals = solver[f"residuals_{side}"]
            assert len(residuals) == len(solver[f"iterations_{side}"]) == 8
            assert max(residuals) == solver[f"residual_{side}"]
            assert all(0.0 <= r <= cfg.solver_tol for r in residuals)
        assert solver["cg_iters"] == (sum(solver["iterations_u"])
                                      + sum(solver["iterations_v"]))
        assert diag["memory"]["estimate_bytes"] == estimate_bytes(cfg)
        assert diag["memory"]["peak_rss_mb"] > 0.0

    def test_elliptic_diagnostics_record_cg_iters_and_memory(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_scenario(cfg, "elliptic")
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        solver = diag["solver"]
        assert solver["cg_iters"] == solver["iterations_u"] + solver["iterations_v"]
        assert "residuals_u" not in solver
        assert sorted(diag["memory"]) == ["estimate_bytes", "peak_rss_mb"]
        assert diag["memory"]["estimate_bytes"] == estimate_bytes(cfg)
        assert diag["memory"]["peak_rss_mb"] > 0.0

    @pytest.mark.filterwarnings("ignore:box margin too small")
    @pytest.mark.parametrize("kernel,mode,want", [
        ({"kind": "fractional", "s": 0.5}, "elliptic", ("circulant", "circulant", True)),
        ({"kind": "logarithmic", "eps": 1.0}, "parabolic", ("jacobi", "jacobi", True)),
        ({"kind": "fractional", "s": 0.5, "Lambda": 2.0,
          "modulation": "separable_cosine"}, "elliptic", ("jacobi", "circulant", False))])
    def test_diagnostics_record_preconditioners_and_shared_kernel(
            self, tmp_path, kernel, mode, want):
        time_block = {"horizon": 1.0, "steps": 3} if mode == "parabolic" else None
        cfg = parse_config(write_config(tmp_path, kernel=kernel, time=time_block))
        run_scenario(cfg, mode)
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert (diag["solver"]["preconditioner_u"], diag["solver"]["preconditioner_v"],
                diag["assembly"]["symmetrized"]["shared_kernel"]) == want
        original, symmetrized = diag["assembly"]["original"], diag["assembly"]["symmetrized"]
        assert original["shared_kernel"] is False
        if want[2]:
            # a shared table carries the original's near depths, and the
            # symmetrized operator reports its own seconds
            assert symmetrized["near_refinement_depths"] == original["near_refinement_depths"]
            assert 0.0 <= symmetrized["assembly_seconds"]

    @pytest.mark.filterwarnings("ignore:box margin too small")
    def test_diagnostics_record_near_sums(self, tmp_path):
        # the modulated-2d32 benchmark geometry: op_v reads every near level
        # from op_u's sums and evaluates no profile point of its own
        cfg = parse_config(write_config(
            tmp_path, dimension=2, n=32, domain={"type": "boxes", "pieces": BOXES},
            kernel={"kind": "fractional", "s": 0.5, "Lambda": 2.0,
                    "modulation": "separable_cosine", "omega": 3.0},
            checks=["comparison", "energy", "polya_szego"]))
        run_scenario(cfg, "elliptic")
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        original = diag["assembly"]["original"]["near_sums"]
        symmetrized = diag["assembly"]["symmetrized"]["near_sums"]
        assert sorted(original) == ["computed", "points", "reused"]
        assert original["computed"] > 0 and original["points"] > 0
        assert symmetrized == {"computed": 0, "points": 0,
                               "reused": symmetrized["reused"]}
        assert symmetrized["reused"] > 0

    def test_parabolic_mode_requires_time_block(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        with pytest.raises(ScenarioError):
            run_scenario(cfg, "parabolic")

    def test_elliptic_mode_rejects_parabolic_check(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, time={"horizon": 1.0, "steps": 4},
            checks=["parabolic"]))
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, "elliptic")
        assert str(exc.value) == "checks not available in an elliptic run: parabolic"

    def test_parabolic_mode_rejects_elliptic_checks(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, time={"horizon": 1.0, "steps": 4},
            checks=["comparison", "energy", "parabolic", "coarea"]))
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, "parabolic")
        assert str(exc.value) == ("checks not available in a parabolic run: "
                                  "energy, coarea")
        assert not (tmp_path / "out").exists()

    def test_unknown_mode_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario mode 'steady'"):
            run_scenario(parse_config(write_config(tmp_path)), "steady")

    def test_determinism_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path, checks=["comparison", "energy"],
                            seed=11)
        blobs = []
        for _ in range(2):
            run_scenario(parse_config(path), "elliptic")
            blobs.append((tmp_path / "out" / "checks.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_table_kernel_scenario(self, tmp_path):
        radii = np.linspace(0.05, 4.0, 40)
        values = np.exp(-1.5 * radii)
        with open(tmp_path / "kernel.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "value"])
            writer.writerows([f"{r:.17g}", f"{v:.17g}"]
                             for r, v in zip(radii, values))
        cfg = parse_config(write_config(
            tmp_path, kernel={"kind": "table", "path": "kernel.csv"}))
        code, summary = run_scenario(cfg, "elliptic")
        assert code == 0

    def test_logarithmic_2d_scenario(self, tmp_path, capsys):
        path = write_config(
            tmp_path, dimension=2, n=16, kernel={"kind": "logarithmic", "eps": 1.0},
            domain={"type": "boxes", "pieces": [[[-1.0, -0.1], [-1.0, 1.0]],
                                                [[0.1, 1.0], [-0.5, 0.5]]]},
            checks=["comparison", "energy", "polya_szego", "coarea"])
        assert main(["solve-elliptic", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["check"] for r in payload["reports"]] == [
            "comparison", "energy_comparison", "polya_szego", "coarea_plain"]

    def test_table_source_must_match_grid(self, tmp_path):
        g = Grid(dimension=1, half_width=1.0, n=32,
                 mask=np.ones(32, dtype=bool))
        write_gridfunction_csv(GridFunction.constant(g, 1.0),
                               tmp_path / "f.csv")
        cfg = parse_config(write_config(
            tmp_path, f={"kind": "table", "path": "f.csv"}))
        with pytest.raises(ScenarioError):
            run_scenario(cfg, "elliptic")


def traced_peak(cfg, mode):
    """tracemalloc peak bytes of one run_scenario call."""
    tracemalloc.start()
    try:
        run_scenario(cfg, mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def warm_peak(cfg, mode):
    """tracemalloc peak bytes of a second run_scenario call, after a first
    one has paid the lazy imports and caches."""
    run_scenario(cfg, mode)
    return traced_peak(cfg, mode)


class TestMemoryEstimate:
    BOXES = [[[-1.0, -0.1], [-1.0, 1.0]], [[0.1, 1.0], [-0.5, 0.5]]]
    MODULATED = {"kind": "fractional", "s": 0.5, "Lambda": 2.0,
                 "modulation": "separable_cosine", "omega": 3.0}
    LOGARITHMIC = {"kind": "logarithmic", "eps": 1.0}

    @pytest.mark.parametrize("dim,n,modulated,steps", [
        (2, 32, False, None), (2, 64, False, None), (1, 256, True, None),
        (1, 1024, True, None), (1, 256, False, 100),
        (2, 32, True, None), (1, 256, "rough_cosine", None),
        (2, 64, "logarithmic", None)])
    def test_tracemalloc_peak_within_estimate(self, tmp_path, dim, n, modulated, steps):
        # two offset-table operators; separable_cosine (modulated True) adds
        # a near band and the g vector to the original; the logarithmic
        # kernel's tail blocks run a Gauss rule over every ray
        extra = {"domain": {"type": "boxes", "pieces": self.BOXES}} if dim == 2 else {}
        if modulated is True:
            extra["kernel"] = self.MODULATED
        elif modulated == "logarithmic":
            extra["kernel"] = self.LOGARITHMIC
        elif modulated:
            extra["kernel"] = dict(self.MODULATED, modulation=modulated)
        checks = ["comparison", "energy", "polya_szego", "coarea"]
        if steps:
            extra["time"] = {"horizon": 1.0, "steps": steps}
            checks = ["parabolic", "comparison"]
        cfg = parse_config(write_config(tmp_path, dimension=dim, n=n, checks=checks,
                                        **extra))
        assert traced_peak(cfg, "parabolic" if steps else "elliptic") <= estimate_bytes(cfg)

    @pytest.mark.parametrize("factor", ["none", "decay"])
    def test_parabolic_estimate_within_1_5x_of_peak(self, tmp_path, factor):
        # the parabolic-1d1024 geometry: the march keeps the states and
        # loads of both trajectories, and only a time factor adds per-step
        # box loads of f and f#
        cfg = parse_config(write_config(
            tmp_path, n=1024, checks=["parabolic", "comparison"],
            time={"horizon": 1.0, "steps": 400},
            f={"kind": "constant", "value": 1.0, "time_factor": factor}))
        peak = traced_peak(cfg, "parabolic")
        assert peak <= estimate_bytes(cfg) <= 1.5 * peak

    @pytest.mark.parametrize("n", [16, 32])
    def test_small_2d_estimate_within_4x_of_peak(self, tmp_path, n):
        # the 2-D tail blocks hold TAIL_ANGLES rays per orbit representative
        # (36 at n = 16, 136 at n = 32), not ROW_BLOCK floats, so the
        # estimate of a small level stays near its tracemalloc peak
        cfg = parse_config(write_config(
            tmp_path, dimension=2, n=n, domain={"type": "boxes", "pieces": self.BOXES},
            checks=["comparison", "energy", "polya_szego", "coarea"]))
        peak = traced_peak(cfg, "elliptic")
        assert peak <= estimate_bytes(cfg) <= 4 * peak

    @pytest.mark.parametrize("kernel,n", [("fractional", 64), ("separable_cosine", 64),
                                          ("logarithmic", 64), ("fractional", 128)])
    def test_estimate_within_1_5x_of_warm_peak(self, tmp_path, kernel, n):
        # the elliptic-2d64 geometry and checks: the estimate counts what the
        # run keeps plus its largest phase, not every phase together
        spec = {"fractional": {"kind": "fractional", "s": 0.5},
                "separable_cosine": self.MODULATED,
                "logarithmic": self.LOGARITHMIC}[kernel]
        cfg = parse_config(write_config(
            tmp_path, dimension=2, n=n, domain={"type": "boxes", "pieces": self.BOXES},
            kernel=spec, checks=["comparison", "energy", "polya_szego", "coarea"]))
        peak = warm_peak(cfg, "elliptic")
        assert peak <= estimate_bytes(cfg) <= 1.5 * peak

    def test_separable_n128_under_default_cap(self, tmp_path):
        # the modulated-2d32 benchmark geometry refined to n = 128 (m = 11,136)
        cfg = parse_config(write_config(
            tmp_path, dimension=2, n=128, checks=["comparison", "energy", "polya_szego"],
            domain={"type": "boxes", "pieces": self.BOXES}, kernel=self.MODULATED))
        assert scenario_grid(cfg).masked_count == 11136
        assert estimate_bytes(cfg) <= cfg.memory_cap_gb * 2.0 ** 30


class TestRefineSweep:
    def test_two_level_decay(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, n=64))
        code, report = refine_sweep(cfg, 2)
        assert code == 0
        assert [row["n"] for row in report["levels"]] == [64, 128]
        ratio = report["decay_ratios"]["comparison"][0]
        assert ratio >= 1.5
        assert (tmp_path / "out" / "sweep.json").exists()
        assert (tmp_path / "out" / "level_1" / "checks.jsonl").exists()

    def test_zero_source_all_levels_zero(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, f={"kind": "constant", "value": 0.0}, n=32))
        code, report = refine_sweep(cfg, 2)
        assert code == 0
        for row in report["levels"]:
            assert row["max_slack"]["comparison"] == 0.0
        assert report["decay_ratios"]["comparison"] == [None]

    def test_memory_guard_refuses_before_allocation(self, tmp_path):
        # between the estimates of level 0 (274,568 B) and level 1
        # (303,048 B)
        cfg = parse_config(write_config(tmp_path, n=64,
                                        memory_cap_gb=2.7e-4))
        code, report = refine_sweep(cfg, 3)
        assert report["refused"] is not None
        assert report["refused"]["level"] >= 1
        assert len(report["levels"]) == report["refused"]["level"]
        # the refused level never created its output directory
        refused_dir = tmp_path / "out" / f"level_{report['refused']['level']}"
        assert not refused_dir.exists()

    def test_guard_on_first_level_is_an_error(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, memory_cap_gb=1e-9))
        with pytest.raises(ScenarioError):
            refine_sweep(cfg, 2)

    def test_levels_validated(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        with pytest.raises(ValueError):
            refine_sweep(cfg, 1)

    def test_parabolic_sweep_doubles_steps(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, n=32,
            initial={"kind": "radial", "formula": "gauss"},
            time={"horizon": 0.5, "steps": 4},
            checks=["parabolic"]))
        code, report = refine_sweep(cfg, 2, mode="parabolic")
        assert code == 0
        assert [row["steps"] for row in report["levels"]] == [4, 8]


class TestMainEntry:
    def test_verify_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["verify", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit"] == 0

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, n=100)
        assert main(["verify", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ConfigError"
        assert any(e.startswith("n:") for e in payload["error"]["details"])

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "ghost.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload

    def test_rearrange_subcommand(self, tmp_path, capsys):
        g = Grid(dimension=1, half_width=1.0, n=32,
                 mask=np.ones(32, dtype=bool))
        rng = np.random.default_rng(8)
        f = GridFunction(g, rng.uniform(0.0, 2.0, 32))
        src, dst = tmp_path / "in.csv", tmp_path / "sorted.csv"
        write_gridfunction_csv(f, src)
        assert main(["rearrange", str(src), str(dst)]) == 0
        back = read_gridfunction_csv(dst)
        order = np.argsort(g.radius_keys, kind="stable")
        assert np.all(np.diff(back.values[order]) <= 1e-15)
        assert np.allclose(np.sort(back.values), np.sort(f.values))

    def test_solve_parabolic_dispatch(self, tmp_path, capsys):
        path = write_config(
            tmp_path, time={"horizon": 0.5, "steps": 4},
            initial={"kind": "radial", "formula": "gauss"},
            checks=["parabolic"])
        assert main(["solve-parabolic", str(path)]) == 0

    def test_sweep_dispatch(self, tmp_path, capsys):
        path = write_config(tmp_path, n=32)
        assert main(["sweep", str(path), "--levels", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["levels"]) == 2

    @pytest.mark.parametrize("raw, code", [("", 0), ("  ", 0), ("2", 0),
                                           ("0", 1), ("two", 1)])
    def test_thread_setting_exit_codes(self, tmp_path, capsys, monkeypatch,
                                       raw, code):
        monkeypatch.setenv("LEVYSYM_THREADS", raw)
        assert main(["verify", str(write_config(tmp_path, n=32))]) == code
        payload = json.loads(capsys.readouterr().out)
        assert ("error" in payload) == (code == 1)


def test_time_loads_are_the_masked_time_averages():
    # the per-step loads built on the masked cells are bit for bit the
    # masked values of solvers.time_average's box loads
    tg = TimeGrid(horizon=1.5, steps=6)
    full = Grid.full_box(2, 1.0, 16)
    grid = Grid(dimension=2, half_width=1.0, n=16,
                mask=(np.abs(full.centers).max(axis=1) > 0.4).reshape(16, 16))
    f = GridFunction(grid, np.where(grid.mask_flat, 1.0 + grid.centers[:, 0] ** 2, 0.0))
    for factor in ("decay", "ramp"):
        g = TIME_FACTORS[factor]
        boxed = time_average(lambda *x_t: f.values * g(x_t[-1]), grid, tg)
        loads = list(time_loads(f, factor, tg, grid))
        assert len(loads) == tg.steps
        assert all(np.array_equal(a, b.masked_values) for a, b in zip(loads, boxed))


def test_step_averages_integrate_the_time_factor():
    # the per-step loads of f(x) g(t) are f times the exact mean of g
    tg = TimeGrid(horizon=1.5, steps=6)
    a, b = tg.times[:-1], tg.times[1:]
    grid = Grid.full_box(1, 1.0, 8)
    f = GridFunction.from_callable(grid, lambda x: 1.0 + x * x)
    means = {"decay": (np.exp(-a) - np.exp(-b)) / tg.dt, "ramp": 0.5 * (a + b)}
    for factor, mean in means.items():
        loads = np.array(list(time_loads(f, factor, tg, grid)))
        np.testing.assert_allclose(loads, np.outer(mean, f.masked_values), rtol=1e-14)
    assert time_loads(f, "none", tg, grid) is f


def test_time_loads_refuse_a_foreign_mask():
    # the march sees only the per-step vectors, so the source's mask is
    # compared with the operator grid's when the loads are made, before
    # the first step is asked for, even where the masked counts agree
    tg = TimeGrid(horizon=1.0, steps=3)
    f = GridFunction.from_callable(
        Grid(dimension=1, half_width=1.0, n=8, mask=np.arange(8) != 2),
        lambda x: 1.0 + x * x)
    for mask in (np.ones(8, dtype=bool), np.arange(8) != 5):
        with pytest.raises(ValueError, match="mask does not match"):
            time_loads(f, "decay", tg, Grid(dimension=1, half_width=1.0, n=8, mask=mask))
