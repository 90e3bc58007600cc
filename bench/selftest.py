"""Self-checks of the benchmark itself.

    python3 bench/selftest.py

1. Two traced runs of each workload with seed 1 must report every count
   metric identically, and exactly the per-layer metrics of BENCHMARK.json.
2. Whole deck passes of each workload with seed 2 must fail no query, and
   an untraced run must report exactly the end-to-end metrics.
3. Without lea's sources next to it, run.py must exit non-zero and print
   no result.
4. The four-world frame counts that `scan` checks are recomputed from the
   first-order sentences.

Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import CLASSES, in_class  # noqa: E402
from workloads import FRAMES_ON_4, WORKLOADS  # noqa: E402

SEED = 1
OTHER_SEED = 2


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stderr


def names_match(result: dict, key: str) -> list[str]:
    """The reported metrics must be exactly BENCHMARK.json's list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return [] if want == got else [f"{key} metrics differ from BENCHMARK.json: {set(want) ^ set(got)}"]


def counts_repeat(seed: int) -> list[str]:
    problems = []
    for workload in sorted(WORKLOADS):
        runs = [bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                      "--trace", "1") for _ in range(2)]
        if any(code != 0 or result is None for code, result, _ in runs):
            problems.append(f"{workload}: traced run failed: {runs[0][2][-300:]}")
            continue
        problems += names_match(runs[0][1], "per_layer")
        first, second = (r[1]["metrics"] for r in runs)
        for name, metric in first.items():
            if metric["unit"] == "count" and metric["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} {metric['value']} then "
                                f"{second[name]['value']}")
        print(f"{workload}: {sum(m['unit'] == 'count' for m in first.values())} counts "
              f"compared over two traced runs")
    return problems


def second_seed(seed: int) -> list[str]:
    """Whole deck passes of each workload with another seed, then a short
    untraced run for the end-to-end metric names."""
    problems = []
    for workload in sorted(WORKLOADS):
        code, result, err = bench("--workload", workload, "--seed", str(seed),
                                  "--seconds", "0", "--trace", "1")
        if code != 0 or result is None:
            problems.append(f"{workload}: run failed: {err[-300:]}")
        elif result["failed"]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} "
                            f"queries failed with seed {seed}")
        else:
            print(f"{workload}: seed {seed}, {result['attempted']} queries, none failed")
    code, result, err = bench("--workload", "decide", "--seed", str(seed),
                              "--seconds", "2", "--trace", "0")
    if code != 0 or result is None:
        return problems + [f"untraced run failed: {err[-300:]}"]
    return problems + names_match(result, "end_to_end")


def refuses_without_sources() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, result, _ = bench("--workload", "decide", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return ["run.py succeeded or printed a result without lea's sources"]
    print(f"without sources: exit {code}, no result")
    return []


def frame_counts() -> list[str]:
    worlds = [f"w{i}" for i in range(4)]
    pairs = [(a, b) for a in worlds for b in worlds]
    counts = dict.fromkeys(CLASSES, 0)
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
        for cls in CLASSES:
            counts[cls] += in_class(worlds, rel, cls)
    print(f"four-world frames per class: {counts}")
    return [] if counts == FRAMES_ON_4 else [f"FRAMES_ON_4 should be {counts}"]


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    problems = counts_repeat(SEED) + second_seed(OTHER_SEED)
    problems += refuses_without_sources() + frame_counts()
    for line in problems:
        print("PROBLEM", line)
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
