"""The README's library quick start and experiment config must run as written."""

import json
import pathlib
import re

from pdrop.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "(64, 32, 16, 8)"
    assert f"# {first}" in block  # the printed counts match the README's comment


def test_experiment_config_runs(capsys, tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "experiment.json"
    path.write_text(block)
    assert main(["run", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["strategy"] == "pdrop"
