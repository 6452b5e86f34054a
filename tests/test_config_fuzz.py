"""Config fuzzing: one field of an acceptance input replaced by any JSON value.

Every subcommand must end in a documented exit code (0, 2, 3 or 4) with no
traceback, and every exit-2 message must name the field it rejects.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qparity.cli import main

PAPER = {
    "schema_version": "1",
    "n_qubits": 3,
    "modes": [{"f_GHz": 9.99, "C_couple_fF": 10.0},
              {"f_GHz": 10.01, "C_couple_fF": 10.0}],
    "chi_MHz": "solve",
    "Z0_ohms": 50.0,
    "resonator_model": "stub",
}
SWEEP = dict(PAPER, chi_MHz=5.77, band={"f_lo_GHz": 9.4, "f_hi_GHz": 10.6})
FOUR_QUBIT = {
    "schema_version": "1",
    "n_qubits": 4,
    "modes": [{"f_GHz": f, "C_couple_fF": 10.0} for f in (9.97, 10.0, 10.03)],
    "chi_MHz": "solve",
}
CASCADE = {
    "schema_version": "1",
    "kind": "cascade",
    "n_qubits": 3,
    "cavity": {"f_GHz": 10.0, "C_couple_fF": 10.0},
    "chi_MHz": "tune",
}
ESTIMATE_FLAGS = {"--delta-GHz": 5.0, "--kappa-MHz": 5.0, "--chi-MHz": 5.77,
                  "--fp-GHz": 9.804, "--alpha-sq": 5.0, "--T-us": 1.0}

# subcommand -> (its input files by name, its argv with {name} placeholders)
TARGETS = {
    "sweep": ({"cfg": SWEEP}, ["sweep", "{cfg}", "--out", "{out}", "--points", "101"]),
    "solve": ({"cfg": PAPER}, ["solve", "{cfg}", "--out", "{out}"]),
    "solve-free-modes": ({"cfg": FOUR_QUBIT},
                         ["solve", "{cfg}", "--out", "{out}", "--free-modes"]),
    "fidelity": ({"cfg": PAPER, "sol": None},
                 ["fidelity", "{cfg}", "{sol}", "--out-json", "{out}"]),
    "compare": ({"cfg": PAPER, "cas": CASCADE},
                ["compare", "{cfg}", "{cas}", "--out", "{out}"]),
}

EXTREMES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
            0, 0.0, -1, 10 ** 400, "", "solve", "tune", None, True, False, [], {}]
# half of the draws are the extremes themselves, half any JSON document
JSON_VALUES = st.sampled_from(EXTREMES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _field_paths(obj, prefix=()):
    """Every key or index path in a JSON document, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


def _run(argv):
    """(exit code, stderr) of one in-process CLI call; argparse exits too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Scratch directory holding the paper solution file."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "paper.json").write_text(json.dumps(PAPER))
    assert main(["solve", str(root / "paper.json"), "--out", str(root / "sol.json")]) == 0
    return root


FUZZ = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("target", sorted(TARGETS))
@FUZZ
@given(data=st.data())
def test_one_replaced_field_ends_in_a_documented_exit(work, target, data):
    inputs, argv = TARGETS[target]
    docs = {name: doc if doc is not None else json.loads((work / "sol.json").read_text())
            for name, doc in inputs.items()}
    name = data.draw(st.sampled_from(sorted(docs)), label="file")
    path = data.draw(st.sampled_from(list(_field_paths(docs[name]))), label="field")
    docs[name] = _replaced(docs[name], path, data.draw(JSON_VALUES, label="value"))
    files = {}
    for key, doc in docs.items():
        files[key] = work / f"{target}-{key}.json"
        files[key].write_text(json.dumps(doc))
    files["out"] = work / f"{target}-out"
    rc, err = _run([a.format(**files) for a in argv])
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if rc == 2:
        paths = "|".join(re.escape(str(files[key])) for key in docs)
        assert re.match(rf"config error: ({paths})[.\[]\S", err), err


@FUZZ
@given(flag=st.sampled_from(sorted(ESTIMATE_FLAGS)), value=JSON_VALUES)
def test_one_replaced_estimate_flag_ends_in_a_documented_exit(work, flag, value):
    flags = dict(ESTIMATE_FLAGS, **{flag: value})
    argv = ["estimate", "--json", str(work / "estimate.json")]
    for key, v in flags.items():
        argv += [key, v if isinstance(v, str) else json.dumps(v)]
    rc, err = _run(argv)
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if rc == 2:
        assert re.search(r"argument --[\w-]+:", err), err
