"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    nbar_sb, success = (float(v) for v in capsys.readouterr().out.split())
    assert 0 < nbar_sb < 0.25
    assert 0 < success <= 1
