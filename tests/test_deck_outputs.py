"""Every benchmark deck query prints the same bytes as when the digests were taken.

The frames, decide and models decks of bench/workloads.py (seed 1) are
built into a temporary directory and each query is sent through
lea.cli.main, with and without --json.  The (workload, label, exit code,
stdout, stderr) records of a workload, with the work directory replaced
by a placeholder, hash to the digest below.  A change that means to alter
an output or a deck updates the digest and says why.  bench/ is read,
never modified.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from lea.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

DIGESTS = {
    "frames": "cc3be4f4a685f01a91800872e6a4708d750057ecc1e17dc3fb03bd67b425c282",
    "decide": "188a340fc2c9fb2ae1f86f43338ddae24b9249387fc033f5317937febd0ba705",
    "models": "27f7a4962c9edf33e53e6c7e676bffcf70e8cc390fe636f496e8a28c34d483a4",
}


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracles
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks it up
    spec.loader.exec_module(module)
    return module


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_deck_outputs_are_unchanged(workload, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    work = tmp_path / workload
    work.mkdir()
    deck = workloads.WORKLOADS[workload](random.Random(f"{workload}:1"), str(work))
    digest = hashlib.sha256()
    for query in deck:
        for argv in (query.argv, query.argv + ["--json"]):
            code, out, err = _invoke(list(argv))
            out, err = (s.replace(str(work), "<work>") for s in (out, err))
            record = [workload, query.label, code, out, err]
            digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == DIGESTS[workload], len(deck)
