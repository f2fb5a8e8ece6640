"""The demos must run against the current API, and every equivalence they
print must hold."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    checks = [line for line in out.splitlines() if "identical" in line]
    assert all(line.endswith("True") for line in checks), checks
    if demo.stem == "pruned_forward":
        assert len(checks) == 2
