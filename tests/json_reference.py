"""Reference JSON writer for tests: the two walks qparity's output files took
before cli._json_text wrote them in one.

json_ready clamps every float outside a PRECISE_KEYS value to 12
significant digits, and reference_json hands the clamped copy to
json.dumps(indent=2, sort_keys=True, allow_nan=False).  It shares no code
with cli._json_text but the key set PRECISE_KEYS.
"""

from __future__ import annotations

import json

from qparity.cli import PRECISE_KEYS


def json_ready(obj, precise: bool = False):
    """Clamp floats to 12 significant digits for byte-stable output."""
    if isinstance(obj, dict):
        return {k: json_ready(v, precise or k in PRECISE_KEYS) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v, precise) for v in obj]
    if isinstance(obj, float):
        return obj if precise else float(f"{obj:.12g}")
    return obj


def reference_json(payload) -> str:
    """The text an output file held before its newline."""
    return json.dumps(json_ready(payload), indent=2, sort_keys=True, allow_nan=False)
