"""The experiment scripts run end to end at small sizes."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("n", ["1", "3", "12"])
def test_probe_semigroup_small_levels(monkeypatch, capsys, n):
    # germ times are steps of the 2N run, so no N below 16 is rejected
    out = _run(monkeypatch, capsys, "probe_semigroup.py", "--N", n)
    assert f"germ table from x0=1 at N={2 * int(n)}" in out
    assert "quadratic coefficient" in out


def test_output_digests_match_the_manifest(monkeypatch, capsys):
    # every tiny benchmark op and every preset command writes the bytes the
    # checked-in manifest pins
    with pytest.raises(SystemExit) as done:
        _run(monkeypatch, capsys, "output_digests.py", "--check", "--size", "tiny")
    out = capsys.readouterr().out
    assert done.value.code == 0, out
    assert out.endswith("tiny: 60 outputs, 0 differ from the manifest\n")


def test_output_digests_name_each_difference():
    compare = runpy.run_path(str(SCRIPTS / "output_digests.py"))["compare"]
    want = {"kept": "0", "changed": "1", "gone": "2"}
    got = {"kept": "0", "changed": "3", "added": "4"}
    assert compare(want, got) == ["new: added", "changed: changed", "missing: gone"]
