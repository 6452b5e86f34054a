#!/usr/bin/env python3
"""One sha256 per benchmark workload, and one over the device corpus.

    python tools/digest_ops.py                        # seed-0 ops 0-59, all 400 devices
    python tools/digest_ops.py --ops 3 --devices 5    # a quick check
    python tools/digest_ops.py --root ../other-checkout

Each op runs in process through cli.main, as perfbench runs it: the inputs
come from perfbench/workloads.py (generate, prepare) and the corpus from
tests/corpus.py, both of this checkout.  qparity is imported from the src/
of ``--root`` (default: this checkout), so two checkouts are compared by
running this one command on each and diffing the lines.  A digest covers
every op's exit code, stdout, stderr and written files, in op order; the
inputs are written with relative paths in a fresh directory, so no message
carries a temporary path.

Each digest line is followed by a precise line, a sha256 of the float.hex
of every float in every JSON payload the run's ops write (each payload
given to qparity.cli._json_text, walked in sorted-key order), taken
before the 12-digit clamp of the written files: it sees last-bit changes
that a digest of clamped outputs cannot.  After the corpus's precise line
four report lines follow, which read the same runs and change no digest:
the exit-4 devices by the reason their message gives, the exit-0 roots by
|delta_theta|, the jets folds per solve (calls of
qparity.device._fold_jets), at the nearest-rank p50 and p90 and at their
maximum, and the n = 3 fixed-gap solves by the source of their
exact-stage seeds (calls of qparity.eraser._seeds): the pole model's roots
alone, or the grid as well, as the fallback where no model root lies in
the box or one fails to verify.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE / "perfbench"), str(HERE / "tests")]

from corpus import SIZE, devices  # noqa: E402
from workloads import PAPER_CONFIG, WORKLOADS, generate, prepare, write_json  # noqa: E402


# exit-4 message text -> its reason, first match wins
NO_SOLUTION_REASONS = ("modes required", "reaches f <= 0", "Newton failed")
# lower edges of the |delta_theta| bins in degrees; the last bin is pi itself
# the seeds of an n = 3 fixed-gap solve: the model roots alone, or the grid too
SEED_SOURCES = ("model roots", "grid fallback")
CONTRAST_BINS = (("<1", -math.inf), ("1-10", 1.0), ("10-45", 10.0), ("45-90", 45.0),
                 ("90-180", 90.0), ("180", 180.0 - 1e-6))


def hash_floats(obj, digest) -> None:
    """float.hex of every float in a JSON payload into digest, dict values
    in sorted-key order."""
    if isinstance(obj, float):
        digest.update(float.hex(obj).encode() + b"\0")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            hash_floats(obj[key], digest)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            hash_floats(value, digest)


@contextlib.contextmanager
def precise_floats(cli):
    """A sha256 fed, inside the block, every JSON payload cli writes, by
    hash_floats, as cli._json_text is given it to clamp and render: only its
    outermost calls, not those it makes on the payload's parts."""
    digest, render, depth = hashlib.sha256(), cli._json_text, [0]

    def hashed_render(obj, *args, **kwargs):
        if not depth[0]:
            hash_floats(obj, digest)
        depth[0] += 1
        try:
            return render(obj, *args, **kwargs)
        finally:
            depth[0] -= 1

    cli._json_text = hashed_render
    try:
        yield digest
    finally:
        cli._json_text = render


def invoke(cli, argv: list, outputs: list, digest) -> tuple[int, str]:
    """cli.main on argv, its exit code, stdout, stderr and outputs digested;
    returns the exit code and stderr."""
    for path in outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    digest.update(f"{rc}\n{out.getvalue()}\0{err.getvalue()}\0".encode())
    for path in outputs:
        if path.exists():
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return rc, err.getvalue()


def workload_digest(cli, workload: str, count: int) -> tuple[str, collections.Counter, list]:
    digest, exits, work = hashlib.sha256(), collections.Counter(), Path(".")
    write_json(work / "paper.json", PAPER_CONFIG)
    if WORKLOADS[workload].fixed_solve:
        invoke(cli, ["solve", "paper.json", "--out", "paper_solution.json"],
               [Path("paper_solution.json")], digest)
    for index, op in enumerate(generate(workload, 0, count)):
        exits[invoke(cli, *prepare(workload, index, op, work), digest)[0]] += 1
    return digest.hexdigest(), exits, []


def nearest_rank(values: list, p: float):
    """The nearest-rank p-th percentile of values, None for none."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1] if ordered else None


def corpus_digest(cli, count: int) -> tuple[str, collections.Counter, list]:
    digest, exits, out = hashlib.sha256(), collections.Counter(), Path("solution.json")
    reasons = collections.Counter({reason: 0 for reason in (*NO_SOLUTION_REASONS, "other")})
    contrast = collections.Counter({label: 0 for label, _ in CONTRAST_BINS})
    sources = collections.Counter({source: 0 for source in SEED_SOURCES})
    device, eraser = (importlib.import_module(f"qparity.{name}") for name in ("device", "eraser"))
    # an older checkout has no _seeds: its square solves seed from the grid alone
    fold, folds, seeds, squares = device._fold_jets, [], getattr(eraser, "_seeds", None), []

    def counted_fold(*args, **kwargs):
        folds[-1] += 1
        return fold(*args, **kwargs)

    def counted_seeds(dev0, band, chi_range, square):
        squares.append(square)
        return seeds(dev0, band, chi_range, square)

    device._fold_jets = counted_fold
    if seeds:
        eraser._seeds = counted_seeds
    try:
        for index, (config, free) in enumerate(devices(count)):
            path = Path(f"device{index}.json")
            write_json(path, config)
            argv = ["solve", str(path), "--out", str(out)] + ["--free-modes"] * free
            folds.append(0)
            squares.clear()
            rc, err = invoke(cli, argv, [out], digest)
            exits[rc] += 1
            if squares and config["n_qubits"] == 3 and not free:
                sources[SEED_SOURCES[False in squares]] += 1
            if rc == 4:
                reasons[next((r for r in NO_SOLUTION_REASONS if r in err), "other")] += 1
            elif rc == 0:
                dth = abs(json.loads(out.read_text())["delta_theta_deg"])
                contrast[[label for label, lo in CONTRAST_BINS if dth >= lo][-1]] += 1
    finally:
        device._fold_jets = fold
        if seeds:
            eraser._seeds = seeds
    report = [
        "  exit 4 by reason: " + ", ".join(f"{r} {k}" for r, k in reasons.items()),
        "  exit 0 by |delta_theta| deg: " + ", ".join(f"{b} {k}" for b, k in contrast.items()),
        "  folds per solve: " + ", ".join(
            f"{name} {nearest_rank(folds, p)}" for name, p in (("p50", 50), ("p90", 90),
                                                               ("max", 100))),
        "  n = 3 fixed-gap seeds: " + (", ".join(f"{s} {k}" for s, k in sources.items())
                                        if seeds else "not counted, no qparity.eraser._seeds"),
    ]
    return digest.hexdigest(), exits, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--ops", type=int, default=60, help="ops per workload, from op 0")
    p.add_argument("--devices", type=int, default=SIZE, help="corpus devices, from 0")
    p.add_argument("--root", type=Path, default=HERE,
                   help="the checkout whose src/ is imported")
    ns = p.parse_args(argv)
    if ns.ops < 1 or ns.devices < 0:
        p.error("--ops must be >= 1 and --devices >= 0")
    sys.path.insert(0, str(ns.root.resolve() / "src"))
    from qparity import cli

    print(f"qparity from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    runs = [(w, f"seed 0 ops 0-{ns.ops - 1}", workload_digest, w, ns.ops) for w in WORKLOADS]
    runs.append(("corpus", f"devices 0-{ns.devices - 1}", corpus_digest, ns.devices))
    cwd = os.getcwd()
    for name, what, run, *args in runs:
        with tempfile.TemporaryDirectory() as work, precise_floats(cli) as precise:
            os.chdir(work)
            try:
                digest, exits, report = run(cli, *args)
            finally:
                os.chdir(cwd)
        tally = ", ".join(f"exit {rc}: {k}" for rc, k in sorted(exits.items()))
        print(f"{name:<20} {what:<18} {digest}  ({tally})")
        print(f"  precise floats: {precise.hexdigest()}")
        for line in report:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
