"""Every ``python`` block of README.md runs as written.

The blocks show the library as a user calls it, on the default engine
(the ``default_engine`` fixture of ``tests/conftest.py``).
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.M | re.S)


def test_readme_has_its_examples():
    # the quickstart and the hand-drawn graph
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, default_engine, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out
