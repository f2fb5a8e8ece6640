"""The README's library quick start must run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "(64, 32, 16, 8)"
    assert f"# {first}" in block  # the printed counts match the README's comment
