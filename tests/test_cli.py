import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from measureflow import analysis, cli
from measureflow.cli import main
from measureflow.lattice import run_semigroup
from measureflow.problems import builtin_problem


def write_measure(path: Path, atoms, dim=1):
    path.write_text(json.dumps({"dim": dim, "atoms": atoms}))
    return str(path)


@pytest.fixture
def dirac_files(tmp_path):
    a = write_measure(tmp_path / "a.json", [[0.0, 1.0]])
    b = write_measure(tmp_path / "b.json", [[1.0, 1.0]])
    return a, b


class TestDistanceCommand:
    def test_w1(self, dirac_files, tmp_path, capsys):
        a, b = dirac_files
        assert main(["distance", a, b, "--metric", "w1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == 1.0
        assert payload["plan"] == [[0, 0, 1.0]]

    def test_gw_against_empty(self, tmp_path, capsys):
        a = write_measure(tmp_path / "a.json", [[0.0, 1.0]])
        b = write_measure(tmp_path / "b.json", [])
        assert main(["distance", a, b, "--metric", "gw"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == 1.0
        assert payload["removed1"] == 1.0

    def test_mass_mismatch_exits_2(self, tmp_path, capsys):
        a = write_measure(tmp_path / "a.json", [[0.0, 1.0]])
        b = write_measure(tmp_path / "b.json", [[1.0, 2.0]])
        assert main(["distance", a, b, "--metric", "w1"]) == 2
        assert "MassMismatch" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        a = write_measure(tmp_path / "a.json", [[0.0, 1.0]])
        assert main(["distance", a, str(tmp_path / "nope.json")]) == 4

    def test_bad_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [[0.0, 1.0]]}')
        a = write_measure(tmp_path / "a.json", [[0.0, 1.0]])
        assert main(["distance", str(bad), a]) == 2

    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys):
        # printed "distance": NaN and exited 0 before
        a = write_measure(tmp_path / "a.json", [[math.nan, 1.0]])
        b = write_measure(tmp_path / "b.json", [[1.0, 1.0]])
        assert main(["distance", a, b, "--metric", "w1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ConfigError")
        assert "non-finite atom coordinate" in captured.err

    @pytest.mark.parametrize("data", [
        {"dim": 1.9, "atoms": [[1.0, 1.0]]},
        {"dim": True, "atoms": [[1.0, 1.0]]},
        {"dim": "1", "atoms": [[1.0, 1.0]]},
        {"dim": 1, "atoms": [[1.0, 1.0, 5.0]]},
        {"dim": 1, "atoms": [[1.0, True]]},
        {"dim": 1, "atoms": [["1.0", 1.0]]},
    ], ids=["float_dim", "bool_dim", "text_dim", "long_row", "bool_weight", "text_coordinate"])
    def test_wrong_measure_schema_exits_2(self, tmp_path, capsys, data):
        # each of these exited 0 with distance 1.0, in a file and inline
        a = tmp_path / "a.json"
        a.write_text(json.dumps(data))
        b = write_measure(tmp_path / "b.json", [[0.0, 1.0]])
        assert main(["distance", str(a), b]) == 2
        assert capsys.readouterr().err.startswith(f"error: ConfigError: {a}: bad measure schema")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "initial_measure": data}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: bad inline measure schema")

    def test_wrong_lifted_schema_exits_2(self, tmp_path, capsys):
        va = tmp_path / "va.json"
        va.write_text(json.dumps({"dim": 1, "atoms": [[0.0, 0.0, 1.0, 5.0]]}))
        vb = tmp_path / "vb.json"
        vb.write_text(json.dumps({"dim": 1, "atoms": [[0.0, 0.0, 1.0]]}))
        assert main(["distance", str(va), str(vb), "--metric", "fiber-w"]) == 2
        assert "bad lifted-measure schema" in capsys.readouterr().err

    def test_csv_rows_of_another_length_exit_2(self, tmp_path, capsys):
        # the second row's extra value was dropped, and gw exited 0
        a = tmp_path / "a.csv"
        a.write_text("0.0,1.0\n1.0,1.0,5.0\n")
        b = write_measure(tmp_path / "b.json", [[1.0, 1.0]])
        assert main(["distance", str(a), b, "--metric", "gw"]) == 2
        assert "must list 2 numbers" in capsys.readouterr().err

    def test_csv_measure_variant(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0.0,1.0\n")
        b = write_measure(tmp_path / "b.json", [[1.0, 1.0]])
        assert main(["distance", str(a), b, "--metric", "w1"]) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == 1.0

    def test_fiber_metrics(self, tmp_path, capsys):
        va = tmp_path / "va.json"
        vb = tmp_path / "vb.json"
        va.write_text(json.dumps({"dim": 1, "atoms": [[0.0, 0.0, 1.0]]}))
        vb.write_text(json.dumps({"dim": 1, "atoms": [[0.01, 0.0, 1.0]]}))
        assert main(["distance", str(va), str(vb), "--metric", "fiber-wg"]) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == pytest.approx(0.0, abs=1e-9)

    def test_simplex_failure_exits_2(self, dirac_files, capsys, monkeypatch):
        import measureflow.wasserstein
        from measureflow._simplex import SimplexError

        def fail(*args, **kwargs):
            raise SimplexError("pivot limit 0 exceeded")

        monkeypatch.setattr(measureflow.wasserstein, "solve_transport", fail)
        assert main(["distance", *dirac_files, "--metric", "w1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SimplexError: pivot limit 0 exceeded\n"

    def test_fiber_lp_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        import types

        import measureflow.fiber

        def fail(*args, **kwargs):
            return types.SimpleNamespace(status=2, message="The problem is infeasible.")

        monkeypatch.setattr(measureflow.fiber, "linprog", fail)
        va = tmp_path / "va.json"
        vb = tmp_path / "vb.json"
        va.write_text(json.dumps({"dim": 1, "atoms": [[0.0, 0.0, 1.0]]}))
        vb.write_text(json.dumps({"dim": 1, "atoms": [[0.5, 0.0, 1.0]]}))
        for metric in ("fiber-w", "fiber-wg"):
            assert main(["distance", str(va), str(vb), "--metric", metric]) == 2
            err = capsys.readouterr().err
            assert err == "error: SolverError: fiber LP failed: The problem is infeasible.\n"


class TestSimulateCommand:
    def test_row_count_and_summary(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--preset", "translate", "--N", "4", "--T", "1.0",
             "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,atom_index,x1,weight"
        assert len(lines) == 1 + 5  # header + one atom per 5 time blocks
        summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
        assert summary["n_steps"] == 4
        assert summary["final_mass"] == 1.0
        assert "generated_at" not in summary

    def test_invalid_n_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "N": 0, "T": 1.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json.loads raised a bare ValueError (exit 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"problem": "translate", "N": ' + "9" * 5000 + "}")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: ConfigError: {cfg}: invalid JSON")

    def test_tight_extent_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "N": 1, "T": 1.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("config", [
        # a NaN coordinate reached the stepper's lattice assertion (exit 1)
        {"problem": "translate", "initial_measure": {"dim": 1, "atoms": [[math.nan, 1.0]]}},
        # negative inline weights raised a bare ValueError (exit 1)
        {"problem": "translate", "initial_measure": {"dim": 1, "atoms": [[0.0, -1.0]]}},
        {"problem": "custom", "source": {
            "kind": "constant", "measure": {"dim": 1, "atoms": [[0.0, -1.0]]}}},
    ], ids=["nan_initial", "negative_initial", "negative_source"])
    def test_bad_inline_measure_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "N": 4, "T": 1.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ConfigError: bad inline measure schema")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("config", [
        {"problem": "translate", "T": math.nan},
        {"problem": "translate", "T": math.inf},
        {"problem": "custom", "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
         "pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [1.0, 0.5]], "q": 0}},
        {"problem": "custom", "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
         "source": {"kind": "proportional", "rate": "fast", "R": 2.0}},
        {"problem": "custom", "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
         "source": {"kind": "proportional", "rate": 0.5, "R": [2.0]}},
    ], ids=["nan_T", "inf_T", "q_zero", "text_rate", "list_R"])
    def test_bad_config_number_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 4, "T": 1.0, **config}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: ")

    @pytest.mark.parametrize("config", [
        # each of these exited 1 with a ValueError or KeyError traceback
        {"pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "C": "abc"}},
        {"pvf": {"kind": "deterministic", "velocity": {"type": "constant"}}},
        {"source": {"kind": "proportional", "rate": 0.5, "R": 2.0}, "constants": {"L": "x"}},
        {"pvf": {"kind": "deterministic", "velocity": {"type": "scale"}}},
        {"pvf": {"kind": "deterministic", "velocity": {"type": "identity"},
                 "velocity_bound": "fast"}},
    ], ids=["text_C", "constant_velocity_without_value", "retired_constants_block",
            "scale_without_factor", "text_velocity_bound"])
    def test_bad_field_config_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "custom", "N": 4, "T": 1.0,
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]}, **config,
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("source", [
        # each of these exited 1 with a traceback
        {"kind": "proportional", "rate": 0.5, "R": 2.0, "carrier": {"radius": 1.0}},
        {"kind": "proportional", "rate": 0.5, "R": 2.0,
         "carrier": {"center": ["left"], "radius": 1.0}},
        {"kind": "proportional", "rate": 0.5, "R": 2.0,
         "carrier": {"center": [0.0], "radius": "wide"}},
        {"kind": "proportional", "rate": 0.5, "R": 2.0, "carrier": [0, 1]},
        {"kind": "constant", "measure": {"dim": 1, "atoms": [[2.0, 1.0]]}, "R": 0.5},
        # each of these exited 0 and created no mass
        {"kind": "proportional", "rate": 0.5, "R": math.nan},
        {"kind": "proportional", "rate": 0.5, "R": -1.0},
        {"kind": "proportional", "rate": 0.5, "R": 2.0,
         "carrier": {"center": [0.0], "radius": math.nan}},
        {"kind": "proportional", "rate": 0.5, "R": 2.0,
         "carrier": {"center": [0.0], "radius": -1.0}},
    ], ids=["carrier_no_center", "carrier_text_center", "carrier_text_radius",
            "carrier_not_object", "constant_outside_R", "nan_R", "negative_R",
            "nan_carrier_radius", "negative_carrier_radius"])
    def test_bad_source_exits_2(self, tmp_path, capsys, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "custom", "N": 4, "T": 1.0,
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]}, "source": source,
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_infinite_carrier_radius_allowed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "custom", "N": 4, "T": 1.0,
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
            "source": {"kind": "proportional", "rate": 0.5, "R": 2.0,
                       "carrier": {"center": [0.0], "radius": math.inf}},
        }))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
        summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
        assert summary["final_mass"] == 1.125**4

    def test_proportional_source_with_infinite_radius(self, tmp_path):
        # such a source only grows existing atoms, so its R does not widen
        # the growth envelope (an infinite R exited 3 here)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "custom", "N": 4, "T": 1.0,
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
            "source": {"kind": "proportional", "rate": 0.5, "R": math.inf},
        }))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
        summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
        assert summary["masses"] == [1.125**k for k in range(5)]

    def test_carrier_of_another_dim_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "custom", "N": 4, "T": 1.0,
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
            "source": {"kind": "proportional", "rate": 0.5, "R": 2.0,
                       "carrier": {"center": [0.0, 0.0], "radius": 1.0}},
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: DimensionMismatch: ")

    @pytest.mark.parametrize("atom", [[1e154, 1e154], [1e200, 0.0]])
    def test_overflowing_support_radius_exits_2(self, tmp_path, capsys, atom):
        # the squared norm of either atom passes the float range: the radius
        # is inf, and the level check rejects the run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "custom", "N": 4, "T": 1.0, "adaptive_extent": True,
            "initial_measure": {"dim": 2, "atoms": [[*atom, 1.0]]},
            "pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "C": 1.0},
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "support radius inf" in capsys.readouterr().err

    def test_custom_config(self, tmp_path):
        mu = write_measure(tmp_path / "mu.json", [[0.25, 1.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "custom",
                    "N": 4,
                    "T": 0.5,
                    "initial_measure": "mu.json",
                    "pvf": {
                        "kind": "deterministic",
                        "velocity": {"type": "constant", "value": [1.0]},
                        "C": 1.0,
                    },
                }
            )
        )
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
        final = out.read_text().strip().splitlines()[-1]
        assert final.split(",")[2] == "0.75"


@pytest.mark.parametrize("command", ["simulate", "convergence", "validate"])
@pytest.mark.parametrize("value", ["false", 0, None])
def test_adaptive_extent_must_be_a_boolean(tmp_path, capsys, command, value):
    # "false" was read as true
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "translate", "N": 4, "T": 1.0,
                               "N_list": [2, 4, 8], "adaptive_extent": value}))
    out = tmp_path / "o.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: ConfigError: adaptive_extent must be true or false, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    # 4.9 ran at N=4, true at N=1 and "8" at N=8
    ("simulate", {"N": 4.9}, "N must be an integer, got 4.9"),
    ("simulate", {"N": True}, "N must be an integer, got True"),
    ("simulate", {"N": "8"}, "N must be an integer, got '8'"),
    ("validate", {"N": 4.9}, "N must be an integer, got 4.9"),
    ("simulate", {"problem": "custom", "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]},
                  "pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [1.0, 0.5]], "q": 2.5}},
     "q must be an integer, got 2.5"),
    ("convergence", {"N_list": [2, 4.5, 8]}, "level must be an integer, got 4.5"),
    ("convergence", {"N_list": [2, True, 8]}, "level must be an integer, got True"),
    ("convergence", {"N_list": "2,4,8"}, "N_list must be a list of integers, got '2,4,8'"),
], ids=["float_N", "bool_N", "text_N", "validate_float_N", "float_q", "float_level",
        "bool_level", "text_N_list"])
def test_config_integers_must_be_json_integers(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "translate", "N": 4, "T": 1.0, **config}))
    out = tmp_path / "o.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("levels", ["4,x,16", "4,8.5,16", "4,0,16"])
def test_levels_option_must_list_positive_integers(tmp_path, capsys, levels):
    out = tmp_path / "o.json"
    assert main(["convergence", "--preset", "translate", "--levels", levels,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError: ")
    assert not out.exists()


def _run_simulate(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])


ONE_ATOM = {"dim": 1, "atoms": [[0.0, 1.0]]}
PROPORTIONAL = {"kind": "proportional", "rate": 0.5, "R": 2.0}


@pytest.mark.parametrize("config, key, where", [
    ({"problem": "translate", "Tfinal": 2.0}, "Tfinal", "config"),
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "c": 1.0}},
     "c", "deterministic pvf"),
    ({"pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [1.0, 0.5]], "qq": 4}},
     "qq", "diffusion1d pvf"),
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "constant", "values": [1.0]}}},
     "values", "constant velocity"),
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "identity", "factor": 2.0}}},
     "factor", "identity velocity"),
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "scale", "factr": 2.0}}},
     "factr", "scale velocity"),
    ({"source": {"kind": "constant", "measure": ONE_ATOM, "r": 1.0}}, "r", "constant source"),
    # exited 0 with final_mass 1.0: no source ran
    ({"source": {"kind": "proportional", "rates": 0.5}}, "rates", "proportional source"),
    ({"source": {**PROPORTIONAL, "carrier": {"center": [0.0], "radius": 1.0, "r": 1.0}}},
     "r", "carrier"),
    # retired keys: an alias of the pvf's C, and an L that nothing read
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "identity"}},
      "constants": {"C": 2.0}}, "constants", "config"),
    # an alias of q
    ({"pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [1.0, 0.5]],
              "quadrature_points": 4}}, "quadrature_points", "diffusion1d pvf"),
    # diffusion1d bounds its speed by phi, so no growth constant is read
    ({"pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [1.0, 0.5]], "C": 2.0}},
     "C", "diffusion1d pvf"),
], ids=["top_level", "deterministic_pvf", "diffusion1d_pvf", "constant_velocity",
        "identity_velocity", "scale_velocity", "constant_source", "proportional_source",
        "carrier", "retired_constants", "retired_quadrature_points", "retired_diffusion1d_C"])
def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys, config, key, where):
    config = {"problem": "custom", "N": 4, "T": 1.0, "initial_measure": ONE_ATOM, **config}
    assert _run_simulate(tmp_path, config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: unknown key {key!r} in {where} (allowed: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bound, code", [(-1.0, 2), (math.nan, 2), (0.0, 0)])
@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_velocity_bound_must_be_nonnegative(tmp_path, capsys, command, bound, code):
    # -1 ran simulate to exit 0, and validate then failed its support_envelope check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "custom", "N": 4, "T": 1.0, "initial_measure": {"dim": 1, "atoms": [[0.5, 1.0]]},
        "pvf": {"kind": "deterministic", "velocity": {"type": "constant", "value": [0.0]},
                "velocity_bound": bound},
    }))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err == f"error: ConfigError: velocity bound must be nonnegative, got {bound}\n"
        assert not out.exists()


def test_unknown_preset_exits_2_and_lists_the_presets(tmp_path, capsys):
    # exited 2 saying that custom problems need a 'pvf' or a 'source'
    assert main(["simulate", "--preset", "foo", "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: ConfigError: unknown preset 'foo'; available: translate, diffusion1d, source-only\n")
    # in a config, any other name is a custom problem's
    assert _run_simulate(tmp_path, {"problem": "foo", "N": 4, "T": 1.0, "initial_measure": ONE_ATOM,
                                    "source": PROPORTIONAL}) == 0


# every key each config object allows, spread over one config per pvf kind
# and velocity type, so no key a builder reads is missing from its key set
EVERY_KEY_TOP = {"problem": "custom", "N": 4, "T": 0.5, "N_list": [2, 4, 8], "metric": "gw",
                 "adaptive_extent": True, "seed": 0, "initial_measure": ONE_ATOM}
EVERY_KEY_CONFIGS = {
    "constant_velocity": {
        "pvf": {"kind": "deterministic", "C": 1.0, "velocity_bound": 0.5,
                "velocity": {"type": "constant", "value": [0.5]}},
        "source": {**PROPORTIONAL, "carrier": {"center": [0.0], "radius": 1.0}},
    },
    "scale_velocity": {
        "pvf": {"kind": "deterministic", "velocity": {"type": "scale", "factor": 0.5}},
        "source": {"kind": "constant", "measure": {"dim": 1, "atoms": [[0.5, 0.25]]},
                   "R": 1.0},
    },
    "identity_velocity": {"pvf": {"kind": "deterministic", "velocity": {"type": "identity"}}},
    "diffusion1d": {"pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [2.0, 0.5]], "q": 4}},
}


def _pairs(objects, tag: str) -> set[tuple[str, str]]:
    return {(obj[tag], key) for obj in objects for key in obj}


def _table(kinds: dict) -> set[tuple[str, str]]:
    return {(kind, key) for kind, keys in kinds.items() for key in keys}


def test_every_allowed_key_is_used_below():
    from measureflow import cli

    configs = list(EVERY_KEY_CONFIGS.values())
    pvfs = [config["pvf"] for config in configs]
    sources = [config["source"] for config in configs if "source" in config]
    assert set(EVERY_KEY_TOP) | {"pvf", "source"} == set(cli._CONFIG_KEYS)
    assert _pairs(pvfs, "kind") == _table(cli._PVF_KEYS)
    assert _pairs([pvf["velocity"] for pvf in pvfs if "velocity" in pvf],
                  "type") == _table(cli._VELOCITY_KEYS)
    assert _pairs(sources, "kind") == _table(cli._SOURCE_KEYS)
    assert {key for source in sources for key in source.get("carrier", ())} == set(
        cli._CARRIER_KEYS)


@pytest.mark.parametrize("command", ["simulate", "convergence", "validate"])
@pytest.mark.parametrize("name", sorted(EVERY_KEY_CONFIGS))
def test_config_with_every_allowed_key_runs(tmp_path, command, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EVERY_KEY_TOP, **EVERY_KEY_CONFIGS[name]}))
    out = tmp_path / "o.out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0


def test_benchmark_configs_and_measures_parse(tmp_path, monkeypatch):
    # the benchmark's generated inputs stay inside the closed key sets and
    # the strict measure schema
    from measureflow import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for op in workloads.make_pass(workload, 1, 0, "tiny", tmp_path / workload):
            args = parser.parse_args(op.argv)
            if op.command == "distance":
                load = cli._load_measure if args.metric in ("w1", "gw") else cli._load_lifted
                assert len(load(args.file_a)) and len(load(args.file_b))
            else:
                assert cli._build_problem(*cli._load_config(args)).initial.dim >= 1


@pytest.mark.parametrize("config, message", [
    # ran with T = 1.0, rate 1.0 and velocity 1.0
    ({"problem": "translate", "T": True}, "T must be a number, got True"),
    ({"source": {**PROPORTIONAL, "rate": True}}, "rate must be a number, got True"),
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "constant", "value": [True]}}},
     "velocity value must be a number, got True"),
    ({"source": {**PROPORTIONAL, "R": "2.0"}}, "R must be a number, got '2.0'"),
    ({"pvf": {"kind": "diffusion1d", "phi": [[0.0, -0.5], [1.0, False]]}},
     "bad phi table: phi row must be a number, got False"),
    ({"source": {**PROPORTIONAL, "carrier": {"center": [True], "radius": 1.0}}},
     "carrier center must be a number, got True"),
    ({"problem": 3}, "problem must be a string, got 3"),
    ({"problem": "translate", "T": 10**400}, "T must be a number in the float range"),
    # ran with the growth envelope NaN, so its upfront check never fired
    ({"pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "C": math.nan}},
     "growth constant C must be positive"),
], ids=["bool_T", "bool_rate", "bool_velocity", "text_R", "bool_phi", "bool_center",
        "number_problem", "huge_T", "nan_C"])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, config, message):
    config = {"problem": "custom", "N": 4, "T": 1.0, "initial_measure": ONE_ATOM, **config}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("config, message", [
    # each exited 1 with AttributeError: ... has no attribute 'get'
    ({"pvf": {"kind": "deterministic", "velocity": "identity"}},
     "velocity must be a JSON object, got 'identity'"),
    ({"pvf": "x"}, "pvf must be a JSON object, got 'x'"),
    ({"source": [1]}, "source must be a JSON object, got [1]"),
    ({"pvf": None}, "pvf must be a JSON object, got None"),
], ids=["text_velocity", "text_pvf", "list_source", "null_pvf"])
def test_config_object_of_another_type_exits_2(tmp_path, capsys, config, message):
    config = {"problem": "custom", "N": 4, "T": 1.0, "initial_measure": ONE_ATOM, **config}
    assert _run_simulate(tmp_path, config) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


class TestConvergenceCommand:
    def test_translate_preset_report(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = main(
            ["convergence", "--preset", "translate", "--levels", "4,8,16",
             "--T", "1.0", "--out", str(out), "--csv", str(csv_path), "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["levels"] == [4, 8, 16]
        assert report["rate"] == math.inf or report["rate"] >= 0.9
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "level,distance,fitted_rate"
        assert len(lines) == 4

    def test_presets_at_small_levels(self, tmp_path):
        # each preset's study: a distance per level pair, a reference per
        # level where the exact solution is known, and a fitted rate
        for name in ("translate", "diffusion1d", "source-only"):
            out = tmp_path / f"{name}.json"
            assert main(["convergence", "--preset", name, "--levels", "2,4,8", "--T", "0.5",
                         "--out", str(out), "--no-timestamp"]) == 0
            report = json.loads(out.read_text())
            assert (report["problem"], report["metric"], report["T"]) == (
                name.replace("-", "_"), "gw", 0.5)
            assert [pair[:2] for pair in report["pair_distances"]] == [[2, 4], [4, 8]]
            assert [n for n, _ in report["reference_sup"]] == (
                [] if name == "diffusion1d" else [2, 4, 8])
            assert "rate" in report

    def test_single_level_exits_2(self, tmp_path):
        assert (
            main(
                ["convergence", "--preset", "translate", "--levels", "8",
                 "--out", str(tmp_path / "r.json")]
            )
            == 2
        )


    def test_nan_t_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "T": math.nan}))
        out = tmp_path / "r.json"
        assert main(["convergence", "--config", str(cfg), "--levels", "4,8,16",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: T must be")
        assert not out.exists()

    def test_no_usable_level_pair_exits_3(self, tmp_path, capsys):
        # every level overflows the literal extent [-N, N]: no distance and
        # no rate, rather than an empty report with rate Infinity
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "T": 100}))
        out = tmp_path / "r.json"
        assert main(["convergence", "--config", str(cfg), "--levels", "2,4,8",
                     "--out", str(out)]) == 3
        assert "levels 2, 4, 8" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_nan_t_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "T": math.nan}))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: T must be")

    @pytest.mark.parametrize("seed", ["abc", 1.7, True, [1]])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        # "abc" exited 1 with a ValueError traceback; 1.7 ran as seed 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "translate", "N": 4, "T": 1.0, "seed": seed}))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: ConfigError: seed must be an integer, got {seed!r}\n"

    @pytest.mark.parametrize("preset", ["translate", "diffusion1d", "source-only"])
    def test_presets_pass(self, tmp_path, preset):
        out = tmp_path / "val.json"
        code = main(
            ["validate", "--preset", preset, "--N", "4", "--T", "1.0",
             "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "mass_bookkeeping" in names and "grid_alignment" in names

    @pytest.mark.parametrize("preset", ["translate", "diffusion1d", "source-only"])
    def test_probe_reuses_the_run_of_the_initial_measure(self, tmp_path, monkeypatch, preset):
        # the run, the determinism rerun and the probe's run of the shifted
        # measure; the probe's run of the initial measure repeated a prefix
        # of the first run
        calls = []

        def spy(grid, mu0, pvf, src, T):
            calls.append((mu0, T))
            return run_semigroup(grid, mu0, pvf, src, T)

        monkeypatch.setattr(cli, "run_semigroup", spy)
        monkeypatch.setattr(analysis, "run_semigroup", spy)
        out = tmp_path / "val.json"
        assert main(["validate", "--preset", preset, "--N", "8", "--out", str(out)]) == 0
        initial = builtin_problem(preset).initial
        assert [mu0 == initial for mu0, _ in calls] == [True, True, False]
        assert json.loads(out.read_text())["passed"] is True


    # three atoms with non-dyadic weights under a proportional source: with
    # B(0, 5) covering the run the defects follow rate dt |mu_k| exactly; the
    # carrier B(0.5, 0.6) does not cover the moving atoms, so the check
    # recomputes the source on the recorded states within its rounding slack.
    # In "sub_floor" a unit atom moving right leaves a trail of 2^-51 atoms
    # below the weight floor, which the recorded states miss but the source
    # sees: the slack must cover their mass
    SOURCE_RUNS = {
        "covered": {"source": {"kind": "proportional", "rate": 0.5, "R": 5.0}},
        "carrier": {
            "pvf": {"kind": "deterministic", "C": 0.5,
                    "velocity": {"type": "constant", "value": [0.5]}},
            "source": {"kind": "proportional", "rate": 0.5, "R": 5.0,
                       "carrier": {"center": [0.5], "radius": 0.6}},
        },
        "sub_floor": {
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1.0]]}, "T": 0.5,
            "pvf": {"kind": "deterministic", "C": 1.0,
                    "velocity": {"type": "constant", "value": [1.0]}},
            "source": {"kind": "proportional", "rate": 2.0**-48, "R": 5.0,
                       "carrier": {"center": [0.0], "radius": 1.0}},
        },
    }

    def _validate_source_run(self, tmp_path, name):
        config = {
            "problem": "custom",
            "initial_measure": {"dim": 1, "atoms": [[0.0, 1 / 3], [0.25, 1 / 7], [0.5, 1 / 4]]},
            "N": 8, "T": 1.0, **self.SOURCE_RUNS[name],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "val.json"
        code = main(["validate", "--config", str(path), "--out", str(out), "--no-timestamp"])
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        return code, checks["mass_bookkeeping"]

    @pytest.mark.parametrize("name", sorted(SOURCE_RUNS))
    def test_proportional_source_bookkeeping_passes(self, tmp_path, name):
        code, check = self._validate_source_run(tmp_path, name)
        assert code == 0 and check["passed"] is True

    @pytest.mark.parametrize("name", ["carrier", "covered"])
    def test_source_dropping_an_atom_fails_bookkeeping(self, tmp_path, name, monkeypatch):
        from measureflow import lattice

        source = lattice._source

        def drop_first(*args):
            cells, nums, den = source(*args)
            return cells[1:], nums[1:], den

        monkeypatch.setattr(lattice, "_source", drop_first)
        code, check = self._validate_source_run(tmp_path, name)
        assert code == 1 and check["passed"] is False
        assert check["details"]["max_abs_defect_gap"] > 1e-4

    def test_covered_source_bookkeeping_is_exact(self, tmp_path, monkeypatch):
        # a source 2^-60 relative short stays inside the rounding slack of the
        # recomputed source, but not in the closed form rate dt |mu_k|
        from measureflow import lattice

        source = lattice._source

        def short(*args):
            cells, nums, den = source(*args)
            return cells, nums * (2**60 - 1), den * 2**60

        monkeypatch.setattr(lattice, "_source", short)
        code, check = self._validate_source_run(tmp_path, "covered")
        assert code == 1 and check["passed"] is False
        assert 0 < check["details"]["max_abs_defect_gap"] < 1e-18


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, tmp_path):
        results = {}
        for threads in ("1", "8"):
            base = tmp_path / f"t{threads}"
            base.mkdir()
            main(
                ["simulate", "--preset", "diffusion1d", "--N", "8", "--T", "1.0",
                 "--out", str(base / "traj.csv"), "--no-timestamp",
                 "--threads", threads]
            )
            main(
                ["convergence", "--preset", "translate", "--levels", "4,8,16",
                 "--T", "1.0", "--out", str(base / "conv.json"),
                 "--csv", str(base / "conv.csv"), "--no-timestamp",
                 "--threads", threads]
            )
            main(
                ["validate", "--preset", "source-only", "--N", "4", "--T", "1.0",
                 "--out", str(base / "val.json"), "--no-timestamp",
                 "--threads", threads]
            )
            results[threads] = {
                name: (base / name).read_bytes()
                for name in ("traj.csv", "traj.csv.summary.json", "conv.json",
                             "conv.csv", "val.json")
            }
        assert results["1"] == results["8"]


TWO_D_ATOM = {"dim": 2, "atoms": [[0.0, 0.0, 1.0]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("config, message", [
    # exited 1 with a ValueError traceback: phi's speed bound was NaN
    ({"initial_measure": ONE_ATOM,
      "pvf": {"kind": "diffusion1d", "phi": [[0.0, math.nan], [1.0, 0.5]]}},
     "bad phi table: phi row must be finite, got nan"),
    ({"initial_measure": ONE_ATOM,
      "pvf": {"kind": "diffusion1d", "phi": [[-math.inf, -0.5], [1.0, 0.5]]}},
     "bad phi table: phi row must be finite, got -inf"),
    # warned "invalid value encountered in cast", then exited 3 at an atom
    # near -5.8e17: the NaN sat after the speed bound's first component
    ({"initial_measure": TWO_D_ATOM,
      "pvf": {"kind": "deterministic", "velocity": {"type": "constant", "value": [1.0, math.nan]}}},
     "velocity value must be finite, got nan"),
    ({"initial_measure": ONE_ATOM,
      "pvf": {"kind": "deterministic", "velocity": {"type": "scale", "factor": math.nan}}},
     "factor must be finite, got nan"),
], ids=["nan_phi_value", "inf_phi_knot", "nan_constant_velocity", "nan_scale_factor"])
def test_non_finite_field_numbers_exit_2_before_the_run(tmp_path, capsys, command, config,
                                                        message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "custom", "N": 4, "T": 1.0, **config}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("adaptive, code, message", [
    (False, 3, "SupportOverflow: growth envelope radius inf exceeds the extent [-4.0, 4.0]^n"),
    (True, 2, "ConfigError: the growth envelope (r0 + 1) exp(C T) - 1 of the velocity "
              "field is infinite at C=1.0, T=1e+308"),
], ids=["fixed_extent", "adaptive_extent"])
def test_growth_envelope_past_the_float_range(tmp_path, capsys, command, adaptive, code,
                                              message):
    # T = 1e308 under the identity field: math.exp raised OverflowError in
    # predicted_reach, a traceback with exit 1; with the adaptive extent the
    # level check then named a support radius inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "custom", "N": 4, "T": 1e308, "adaptive_extent": adaptive,
        "initial_measure": TWO_D_ATOM,
        "pvf": {"kind": "deterministic", "velocity": {"type": "identity"}},
    }))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("c", [math.inf, 1e308], ids=["inf", "1e308"])
def test_infinite_growth_constant_names_the_envelope(tmp_path, capsys, command, c):
    # a scale field has no velocity bound, so C sets the envelope; with the
    # adaptive extent the level check named a support radius inf
    pvf = {"kind": "deterministic", "velocity": {"type": "scale", "factor": 0.5}, "C": c}
    config = {"problem": "custom", "N": 4, "T": 1.0, "adaptive_extent": True,
              "initial_measure": TWO_D_ATOM, "pvf": pvf}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: ConfigError: the growth envelope (r0 + 1) exp(C T) - 1 of the velocity field "
        f"is infinite at C={c!r}, T=1.0: no extent holds it (give the field a velocity_bound, "
        "or a smaller C or T)\n"
    )
    assert not out.exists()
    # a velocity bound sets the envelope instead, and the run goes through
    cfg.write_text(json.dumps({**config, "pvf": {**pvf, "velocity_bound": 2.0}}))
    assert main([command, "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0


@pytest.mark.parametrize("atom", [[0.0, 10**400], [10**400, 1.0]], ids=["weight", "coordinate"])
def test_measure_number_past_the_float_range_exits_2(tmp_path, capsys, atom):
    # float() raised OverflowError in measures._canonical_atoms: exit 1
    # with a traceback
    config = {"problem": "custom", "N": 4, "T": 1.0, "source": PROPORTIONAL,
              "initial_measure": {"dim": 1, "atoms": [atom]}}
    assert _run_simulate(tmp_path, config) == 2
    assert capsys.readouterr().err == ("error: ConfigError: bad inline measure schema "
                                       "(atom coordinate or weight past the float range)\n")
    a = write_measure(tmp_path / "a.json", [atom])
    assert main(["distance", a, a]) == 2
    assert "past the float range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_step_count_past_2_53_exits_2_upfront(tmp_path, command):
    # the envelope fits, so the run was asked for about 4e308 steps and
    # never ended: run in a child process, so that it fails rather than hangs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "source-only", "N": 4, "T": 1e308}))
    out = tmp_path / "out"
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                               os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "measureflow.cli", command, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == ("error: ConfigError: T=1e+308 at level N=4 needs more than 2^53 "
                           "steps, past which step times k/N are not exact floats\n")
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("simulate", {"problem": "translate", "N": 10**400}),
    ("validate", {"problem": "translate", "N": 10**400}),
    ("convergence", {"problem": "translate", "N_list": [4, 8, 10**400]}),
], ids=["simulate", "validate", "N_list"])
def test_level_past_the_float_range_exits_2(tmp_path, capsys, command, config):
    # float(N) raised OverflowError: exit 1 with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "T": 1.0}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: level N={10**400} is too fine for support radius 0")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("config, message", [
    # OverflowError in measures._ratios: the weights passed the float range
    ({"initial_measure": ONE_ATOM, "source": {**PROPORTIONAL, "rate": 1e308}},
     "a proportional source of rate 1e+308 can grow the mass 1.0 past the float range "
     "in 4 steps at level N=4"),
    # TypeError in PvfSpec.lift: range(2 q) has no length
    ({"initial_measure": ONE_ATOM,
      "pvf": {"kind": "diffusion1d", "phi": [[0.0, 0.0], [1.0, 0.5]], "q": 10**400}},
     f"quadrature points q must be in [1, 2^53), got {10**400}"),
], ids=["rate", "q"])
def test_field_number_past_the_float_range_exits_2_upfront(tmp_path, capsys, command, config,
                                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "custom", "N": 4, "T": 1.0, **config}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not out.exists()


def test_proportional_mass_up_to_the_float_range_runs(tmp_path):
    # (1 + rate / 4)^4 = 2^1020 for rate = 4 (2^255 - 1): below 2^1024
    config = {"problem": "custom", "N": 4, "T": 1.0, "initial_measure": ONE_ATOM,
              "source": {**PROPORTIONAL, "rate": 4 * (2**255 - 1)}}
    assert _run_simulate(tmp_path, config) == 0
    summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
    assert summary["final_mass"] == 2.0**1020


IDENTITY = {"kind": "deterministic", "velocity": {"type": "identity"}, "C": 1.0}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("config, message", [
    # OverflowError from float(total) in run_semigroup's record: exit 1
    ({"initial_measure": {"dim": 2, "atoms": [[0.0, 0.0, 1e308], [0.5, 0.5, 1e308]]},
      "pvf": IDENTITY, "adaptive_extent": True},
     "the initial mass 2.00000e+308 is past the float range"),
    # validate: "intermediate overflow in fsum" in solve_transport, exit 1
    ({"initial_measure": {"dim": 2, "atoms": [[0.0, 0.0, 1e308]]}, "pvf": IDENTITY,
      "source": PROPORTIONAL, "adaptive_extent": True},
     "the initial mass 1e+308 is past the float range"),
    # validate exited 0 and wrote its budget as the non-JSON token Infinity
    ({"initial_measure": ONE_ATOM,
      "pvf": {"kind": "deterministic", "velocity": {"type": "constant", "value": [0.5]}},
      "source": {"kind": "constant", "measure": {"dim": 1, "atoms": [[0.25, 1e308]]}}},
     "a constant source of mass 1e+308 can grow the mass 1.0 past the float range "
     "in 4 steps at level N=4"),
    # (1 + 0.5 / 4)^4 = 1.60: from 1e307 past 2^1020 = 1.12e307
    ({"initial_measure": {"dim": 2, "atoms": [[0.0, 0.0, 1e307]]}, "pvf": IDENTITY,
      "source": PROPORTIONAL, "adaptive_extent": True},
     "a proportional source of rate 0.5 can grow the mass 1e+307 past the float range "
     "in 4 steps at level N=4"),
], ids=["two_weights", "proportional_source", "constant_source", "proportional_envelope"])
def test_mass_past_the_float_range_exits_2_upfront(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "custom", "N": 4, "T": 1.0, **config}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not out.exists()
