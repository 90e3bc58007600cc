"""lea benchmark: seeded query workloads through the CLI, answers checked.

    python3 bench/run.py --workload frames|decide|models --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program under test is the `src/lea` next to this
directory.  The run writes its generated inputs under `.bench_work/` at the
repository root and removes them on exit.

Untraced (--trace 0): measure set-up as fresh-interpreter `lea` runs, then
send the workload's deck to `lea.cli.main(argv)` in this process, one query
at a time (a closed loop with one client), in whole passes for about S
seconds and at least two.  Every answer is checked by the benchmark's own
oracles after its pass.  Times are given at a reference speed: a fixed
kernel of the benchmark's own runs between queries, and each pass's wall
times are scaled by the kernel's nominal time over its mean time in that
pass, so that a host whose speed drifts gives steady figures.  Each timing
is the median of its per-pass values.  Traced (--trace 1): the same, with
lea's layers wrapped; per-layer metrics are given per pass, in wall time.

The last stdout line is the JSON result; lines before it are a readable
report.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from oracles import conj, ess, frame_falsified, imp, var  # noqa: E402
from tracer import BUDGET_MESSAGE, Tracer, install, layer_metrics  # noqa: E402
from workloads import OK, UNDECIDED, WORKLOADS  # noqa: E402

SETUP_RUNS = 9
SETUP_ARGV = ["translate", "to-ml", "o o p"]
SETUP_OUTPUT = "(p -> [] p) -> [] (p -> [] p)"

# The reference kernel: the oracle's frame-validity check of KwCon on a
# fixed two-world frame, 16 valuations.  It is the benchmark's own pure
# Python, so no change to lea moves it, while a slower host slows it as it
# slows lea.  REFERENCE_S is its nominal time.  Reported times are wall
# times scaled by REFERENCE_S over the kernel's mean time measured
# alongside them: times at the reference speed.  The host switches between
# a fast and a slow state many times a second, so the kernel's times are
# two clusters; their mean follows the share of time spent in each, as
# lea's times do, while their median jumps from one cluster to the other.
REFERENCE_FRAME = (["u0", "u1"], {("u0", "u0"), ("u0", "u1"), ("u1", "u0")})
REFERENCE_FORMULA = imp(conj(ess(var("p")), ess(var("q"))), ess(conj(var("p"), var("q"))))
REFERENCE_S = 0.0002
# Reference samples taken before and after each set-up run.
SETUP_REFERENCES = 10


def reference() -> float:
    """Wall time of one reference kernel run.  A first, untimed run warms
    the caches, so that what lea left in them does not count; the collector
    is paused, so that the size of lea's heap does not count either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        frame_falsified(*REFERENCE_FRAME, REFERENCE_FORMULA)
        start = perf_counter()
        falsified = frame_falsified(*REFERENCE_FRAME, REFERENCE_FORMULA)
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    assert not falsified
    return elapsed


def trimmed_mean(xs: list[float]) -> float:
    """Mean without the lowest and highest 5%, which drops the samples that
    an interrupt or a preemption stretched."""
    xs = sorted(xs)
    k = len(xs) // 20
    return statistics.fmean(xs[k:len(xs) - k])


def measure_setup() -> list[float]:
    """Times of fresh-interpreter `lea translate to-ml "o o p"` runs, at the
    reference speed measured right before and after each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        before = [reference() for _ in range(SETUP_REFERENCES)]
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "lea.cli", *SETUP_ARGV],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = perf_counter() - start
        after = [reference() for _ in range(SETUP_REFERENCES)]
        times.append(elapsed * REFERENCE_S / trimmed_mean(before + after))
        if done.returncode != 0 or done.stdout.strip() != SETUP_OUTPUT:
            raise RuntimeError(f"set-up command failed: {done.stderr.strip()}")
    return times


def invoke(main, argv: list[str]) -> tuple:
    """One query through lea.cli.main; (exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--json"])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an uncaught exception fails the query
            code, error = None, f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue(), error


class Terminated(BaseException):
    """SIGTERM; a BaseException so that no query handler swallows it."""


def _terminate(*_) -> None:
    raise Terminated


def judge(query, outcome) -> tuple[str, bool]:
    """(status, hit an internal limit); status is OK, UNDECIDED or a failure."""
    code, out, err, error = outcome
    if error is not None:
        return f"uncaught {error}", False
    if code == 2:
        if BUDGET_MESSAGE in err:
            return UNDECIDED, True
        return f"exit 2: {err.strip()}", False
    if code not in (0, 1):
        return f"exit {code}", False
    try:
        payload = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "no JSON verdict on stdout", False
    try:
        return query.check(code, payload), False
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        return f"malformed answer: {type(e).__name__}: {e}", False


def run(deck, seconds: float):
    """Send whole deck passes, at least two, while the next one is expected
    to end within the time.  A reference kernel runs after each query,
    outside its timing, and the pass's latencies are scaled to the
    reference speed by the kernel's mean time over the pass.  Each pass is
    judged as soon as it ends, outside its timing, and only (deck index,
    scaled latency, status, hit a limit, exit code) is kept, so memory
    grows with the number of passes by these records alone.  Returns those
    records, the wall duration and mean reference time of each pass, and
    the start time."""
    import lea.cli

    main = lea.cli.main
    records = []
    passes: list[float] = []
    pass_refs: list[float] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        answers = []
        refs = []
        for index, query in enumerate(deck):
            t0 = perf_counter()
            outcome = invoke(main, query.argv)
            answers.append((index, perf_counter() - t0, outcome))
            refs.append(reference())
        passes.append(perf_counter() - pass_start)
        pass_refs.append(trimmed_mean(refs))
        scale = REFERENCE_S / pass_refs[-1]
        for index, latency, outcome in answers:
            records.append((index, latency * scale, *judge(deck[index], outcome), outcome[0]))
        del answers
        cycle = (perf_counter() - start) / len(passes)
        if len(passes) >= 2 and perf_counter() - start + cycle > seconds:
            return records, passes, pass_refs, start


def report(deck, records, lines: list[str]) -> None:
    by_label: dict[str, list] = {}
    for index, latency, status, _, _ in records:
        by_label.setdefault(deck[index].label, []).append((latency, status))
    lines.append(f"{'category':24} {'n':>6} {'p50_ms':>9} {'max_ms':>9} {'undecided':>9} {'failed':>6}")
    for label in sorted(by_label):
        rows = by_label[label]
        lat = sorted(r[0] * 1000 for r in rows)
        undecided = sum(r[1] == UNDECIDED for r in rows)
        failed = sum(r[1] not in (OK, UNDECIDED) for r in rows)
        lines.append(f"{label:24} {len(rows):6d} {statistics.median(lat):9.2f} {lat[-1]:9.2f} "
                     f"{undecided:9d} {failed:6d}")
    shown = set()
    for index, _, status, _, _ in records:
        if status not in (OK, UNDECIDED) and index not in shown:
            shown.add(index)
            lines.append(f"FAILED {' '.join(deck[index].argv)[:160]}: {status}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Let a terminated run still remove its inputs.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "lea" / "cli.py").is_file():
        print(f"error: no lea sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        return _measure(args, work, work_root)
    except Terminated:
        return 143
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: str, work_root: Path) -> int:
    rng = random.Random(f"{args.workload}:{args.seed}")
    deck = WORKLOADS[args.workload](rng, work)
    setup = None if args.trace else measure_setup()

    tracer = None
    if args.trace:
        import lea.cli

        tracer = Tracer()
        install(tracer, lea)
    try:
        records, passes, pass_refs, origin = run(deck, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    statuses = [r[2] for r in records]
    attempted = len(records)
    failed = sum(s not in (OK, UNDECIDED) for s in statuses)
    decided = sum(s == OK for s in statuses)
    limits = sum(r[3] for r in records)
    elapsed = sum(passes)
    lines = [f"workload {args.workload}, seed {args.seed}: {attempted} queries, "
             f"{len(passes)} passes of {len(deck)}, in {elapsed:.2f} s",
             "per pass, wall s and reference kernel mean ms (nominal "
             f"{REFERENCE_S * 1000:.3f}): "
             + ", ".join(f"{t:.2f} {r * 1000:.4f}" for t, r in zip(passes, pass_refs))]
    report(deck, records, lines)

    # Each timing is taken per pass, over exactly the deck's mix, at the
    # reference speed, and the median over passes is reported.
    n = len(deck)
    per_pass = [[r[1] for r in records[k * n:(k + 1) * n]] for k in range(len(passes))]
    queries_per_s = statistics.median(n / sum(lat) for lat in per_pass)
    if tracer is None:
        p90s = [statistics.quantiles(lat, n=10)[8] for lat in per_pass]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "queries_per_s": (queries_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(statistics.median(lat) for lat in per_pass) * 1000, "ms"),
            "latency_p90_ms": (statistics.median(p90s) * 1000, "ms"),
            "decided_ratio": (decided / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        above = sum(lat > p90s[0] for lat in per_pass[0])
        lines.append(f"latency samples: {n} per pass, {above} above p90 in the first")
        lines.append(f"error_ratio: {failed / attempted:.4f} ratio (lower is better)")
    else:
        metrics = layer_metrics(tracer, limits, len(passes))
        metrics["trace.queries_per_s"] = (queries_per_s, "1/s")
        # The CLI's known double fixpoint: largest_circ_bisimulation calls
        # per affirmative essence-bisimilarity query.
        per_query = tracer.per_query("bisim.largest")
        affirmative = [n for (index, _, _, _, code), n in zip(records, per_query)
                       if deck[index].argv[0] == "bisim" and "--box" not in deck[index].argv
                       and code == 0]
        metrics["bisim.largest_calls_per_affirmative_circ"] = (
            sum(affirmative) / len(affirmative) if affirmative else 0.0, "count")
        path = work_root / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(str(path), origin)
        lines.append(f"{len(tracer.spans)} spans over {len(passes)} passes written to {path}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:34} {value:14.6f} {unit}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
