"""Every ``python`` code block of README.md runs as written and prints its results."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
# (first line number, source) of each fenced python block
_BLOCKS = [
    (README.read_text()[: match.start(1)].count("\n") + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
]


def test_readme_shows_a_custom_statistic():
    assert len(_BLOCKS) >= 2
    assert any("evaluate_many=" in source for _, source in _BLOCKS)


@pytest.mark.parametrize("line, source", _BLOCKS, ids=[f"line{line}" for line, _ in _BLOCKS])
def test_readme_block_runs(line, source, capsys):
    # blank lines ahead of the block keep a traceback's line numbers those of README.md
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
