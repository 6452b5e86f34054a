"""The README's library example runs as written against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title: str) -> str:
    """The one ```python block of the README section headed ``title``."""
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return code


def test_library_quick_start_runs(capsys):
    exec(compile(_section_code("Library quick start"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per pair of Hamming weights of the three-qubit device
    assert len(lines) == 6
    assert all(re.fullmatch(r"\(\d, \d\) \S+ F = \d\.\d{6}", line) for line in lines)
