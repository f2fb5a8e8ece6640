"""The README's library quick start, CLI examples and experiment config
must run as written, the package must need no dependency but numpy,
``pdrop`` must export what the README, the demos and the benchmark import,
and the library must raise one error class."""

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pdrop
from pdrop.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_cli_examples_run(capsys, monkeypatch, tmp_path):
    # every pdrop line of the shell block that shows `pdrop cost`, its
    # continuation lines joined, run beside the README's config
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                if "pdrop cost" in b]
    (config,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    (tmp_path / "experiment.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", "").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["pdrop"]]
    assert len(commands) == 6
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == ""


def test_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports are counted
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, pdrop, pdrop.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"


def test_all_names_what_readme_demos_and_benchmark_import():
    # pdrop exports exactly the names the README's quick start, a demo or
    # a benchmark module takes from it, by ``from pdrop import`` or as a
    # ``pdrop.<name>`` attribute (submodules and dunders aside), and every
    # exported name exists
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    sources = [block] + [path.read_text() for d in ("demos", "perfbench")
                         for path in (ROOT / d).glob("*.py")]
    used = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "pdrop":
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "pdrop" and not node.attr.startswith("__")):
                used.add(node.attr)
    assert used - {"cli", "harness", "layout", "toymodel"} == set(pdrop.__all__)
    assert all(hasattr(pdrop, name) for name in pdrop.__all__)


def test_library_raises_only_config_error():
    # the package defines one exception class, and every raise of a named
    # class raises it, but for the config's number readers, whose errors
    # harness.typed turns into one
    raised = set()
    for path in sorted((ROOT / "src" / "pdrop").glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        assert path.stem != "errors" or classes == ["ConfigError"]
        owner = {}  # each node's innermost function: ast.walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add((path.stem, owner.get(node), ast.unparse(exc)))
    assert {r for r in raised if r[2] != "ConfigError"} == {
        ("harness", "_int", "ValueError"), ("harness", "_float", "ValueError"),
        ("harness", "_ints", "TypeError")}
