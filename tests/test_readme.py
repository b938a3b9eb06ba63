"""The README's library example runs as written, so the docs cannot drift
from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs():
    code = library_example()
    assert "assert" in code
    exec(compile(code, str(README), "exec"), {})
