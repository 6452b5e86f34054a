"""The README's library example runs as written against the current API."""

from __future__ import annotations

import re
import types
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


def test_package_public_names_are_the_modules_all():
    # each module's __all__ is its public API and qparity re-exports every
    # one: the package has no public name of its own, none is left out, and
    # no name is public in two modules
    import qparity
    from qparity import cascade, device, eraser, estimates, fidelity, network

    names = [name for module in (network, device, eraser, fidelity, cascade, estimates)
             for name in module.__all__]
    assert len(names) == len(set(names))
    public = {name for name, value in vars(qparity).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
