"""The README's Python examples run as written and print what their comments
say: every ``print(...)  # value`` line's comment is the printed line, or
starts with it and a comma."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_example_prints_its_comments(index):
    block = BLOCKS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
    said = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(") and "# " in line]
    printed = out.getvalue().splitlines()
    assert len(said) == len(printed)
    for comment, line in zip(said, printed):
        assert comment == line or comment.startswith(line + ","), (comment, line)
