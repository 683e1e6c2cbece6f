"""scipy is imported by the fiber LPs only: the package, the CLI and the
commands that never call HiGHS leave it unloaded.  Each check runs in a fresh
interpreter, since this test process may already hold scipy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import measureflow

SRC = Path(measureflow.__file__).resolve().parent.parent
HEAVY = ("scipy.optimize", "scipy.sparse")


def run_python(code: str, cwd: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_package_cli_and_non_fiber_commands_leave_scipy_unloaded(tmp_path):
    seen = run_python(f"""
        import json, sys
        heavy = {HEAVY!r}
        loaded = lambda: [m for m in heavy if m in sys.modules]
        import measureflow
        seen = {{"package": loaded()}}
        from measureflow.cli import main
        seen["cli"] = loaded()
        runs = {{
            "simulate": ["simulate", "--preset", "diffusion1d", "--N", "8", "--out", "t.csv"],
            "convergence": ["convergence", "--preset", "translate", "--levels", "4,8,16",
                            "--out", "c.json", "--csv", "c.csv"],
            "validate": ["validate", "--preset", "source-only", "--N", "4", "--out", "v.json"],
        }}
        for name, argv in runs.items():
            assert main([*argv, "--no-timestamp"]) == 0, name
            seen[name] = loaded()
        print(json.dumps(seen))
    """, tmp_path)
    assert seen == dict.fromkeys(["package", "cli", "simulate", "convergence", "validate"], [])


def test_fiber_lp_binds_scipy_as_module_attributes(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({"dim": 1, "atoms": [[0.0, 0.0, 1.0]]}))
    (tmp_path / "b.json").write_text(json.dumps({"dim": 1, "atoms": [[0.5, 1.0, 1.0]]}))
    seen = run_python("""
        import json, sys
        import measureflow.fiber
        from measureflow.cli import main
        before = "linprog" in vars(measureflow.fiber)
        assert main(["distance", "a.json", "b.json", "--metric", "fiber-w",
                     "--out", "d.json"]) == 0
        import scipy.optimize, scipy.sparse
        print(json.dumps({
            "bound_before": before,
            "distance": json.load(open("d.json"))["distance"],
            "linprog": measureflow.fiber.linprog is scipy.optimize.linprog,
            "sparse": measureflow.fiber.sparse is scipy.sparse,
        }))
    """, tmp_path)
    assert seen == {"bound_before": False, "distance": 1.0, "linprog": True, "sparse": True}


def test_replacement_set_before_first_lp_is_the_one_that_runs(tmp_path):
    seen = run_python("""
        import json
        import measureflow.fiber as fiber
        from measureflow.measures import LiftedMeasure

        calls = []

        def spy(*args, **kwargs):
            calls.append(sorted(k for k in ("A_eq", "A_ub") if kwargs.get(k) is not None))
            from scipy.optimize import linprog
            return linprog(*args, **kwargs)

        fiber.linprog = spy  # plain assignment: nothing is loaded yet
        V1 = LiftedMeasure.from_atoms([((0.0,), (0.0,), 1.0)], dim=1)
        V2 = LiftedMeasure.from_atoms([((0.5,), (1.0,), 1.0)], dim=1)
        values = [fiber.fiber_w(V1, V2), fiber.fiber_wg(V1, V2)]
        print(json.dumps({"calls": calls, "values": values,
                          "still_spy": fiber.linprog is spy}))
    """, tmp_path)
    assert seen["calls"] == [["A_eq", "A_ub"], ["A_ub"]] and seen["still_spy"]
    assert seen["values"] == pytest.approx([1.0, 1.0], rel=1e-8)


def test_unknown_attribute_still_raises():
    import measureflow.fiber

    with pytest.raises(AttributeError, match="no_such_name"):
        measureflow.fiber.no_such_name
