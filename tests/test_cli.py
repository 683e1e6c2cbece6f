import json
import math
from pathlib import Path

import pytest

from measureflow.cli import main


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

    def test_single_level_exits_2(self, tmp_path):
        assert (
            main(
                ["convergence", "--preset", "translate", "--levels", "8",
                 "--out", str(tmp_path / "r.json")]
            )
            == 2
        )


class TestValidateCommand:
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
