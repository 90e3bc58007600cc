"""Per-layer tracing from outside lea, by wrapping public functions.

Each wrapper replaces a function under the name its caller looks it up
with (a module global or a class attribute), so lea itself is untouched.
Wrapped calls become spans (name, start, end, parent) kept in memory and
written out at the end.  Functions called thousands of times per query
(Prog.run, the class filters, satisfies) are folded into their parent span
as a count and a busy time instead of one span each.

A span's self time is its duration minus the time of its direct children,
folded ones included.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

BUDGET_MESSAGE = "tableau expansion budget exhausted"


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, child time]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)  # name -> total duration
        self.self_time: defaultdict = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of owner.attr as a span called name."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as e:
                if str(e) == BUDGET_MESSAGE:
                    tracer.counts[name + ":budget"] += 1
                raise
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, wrapper)

    def folded(self, owner, attr: str, *names: str, count_true: bool = False) -> None:
        """Count and time calls of owner.attr under each name, without a
        span per call."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                for name in names:
                    tracer.counts[name] += 1
                    tracer.busy[name] += elapsed
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][4] += elapsed
            if count_true and result:
                tracer.counts[names[0] + ":true"] += 1
            return result

        self._replace(owner, attr, wrapper)

    def counted_iter(self, owner, attr: str, name: str) -> None:
        """Count the items a generator function yields."""
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in orig(*args, **kwargs):
                counts[name] += 1
                yield item

        self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        duration = span[2] - span[1]
        self.counts[span[0]] += 1
        self.busy[span[0]] += duration
        self.self_time[span[0]] += duration - span[4]
        if span[3] is not None:
            self.spans[span[3]][4] += duration

    def per_query(self, name: str) -> list[int]:
        """Spans called name under each top-level span, in order."""
        out: list[int] = []
        top: dict[int, int] = {}  # span index -> position of its top-level span
        for index, span in enumerate(self.spans):
            parent = span[3]
            if parent is None:
                top[index] = len(out)
                out.append(0)
            else:
                top[index] = top[parent]
                if span[0] == name:
                    out[top[index]] += 1
        return out

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")


def install(tracer: Tracer, lea) -> None:
    """Wrap lea's layers at the names the CLI and its callees look up."""
    cli, decide, sweep = lea.cli, lea.decide, lea.sweep
    bisim, hilbert, kripke = lea.bisim, lea.hilbert, lea.kripke
    counts = tracer.counts

    def verdict_kind(v) -> None:
        if v.method == "bounded-search":
            counts["decide.bounded_search_verdicts"] += 1
        if v.answer is None:
            counts["decide.unknown_verdicts"] += 1

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "parse", "formula.parse")
    tracer.span(hilbert, "parse", "formula.parse")
    tracer.span(cli, "render", "formula.render")
    tracer.span(cli, "model_from_json", "kripke.model_read")
    tracer.folded(kripke, "ModelIndex", "kripke.index")
    tracer.folded(decide, "in_class", "kripke.in_class", "decide.replay")
    tracer.counted_iter(sweep, "iter_succ_tables", "sweep.frames_enumerated")
    tracer.folded(sweep, "succ_in_class", "sweep.class_filter", count_true=True)
    tracer.folded(sweep, "succ_has_property", "sweep.class_filter", count_true=True)
    tracer.folded(sweep.Prog, "run", "sweep.prog_run")
    tracer.span(sweep, "search_sat", "sweep.search_sat")
    tracer.span(cli, "check_definability", "semantics.definability")
    tracer.folded(cli, "satisfies", "semantics.extension")
    tracer.folded(decide, "satisfies", "semantics.extension", "decide.replay")
    tracer.span(cli, "valid_on_frame", "semantics.valid_on_frame")
    tracer.span(cli, "circ_bisimilar", "bisim.circ")
    tracer.span(cli, "largest_circ_bisimulation", "bisim.largest")
    tracer.span(bisim, "largest_circ_bisimulation", "bisim.largest")
    tracer.span(cli, "box_bisimilar", "bisim.box")
    tracer.span(cli, "contract", "bisim.contract")
    tracer.span(cli, "check_derivation", "hilbert.check_derivation")
    tracer.span(hilbert, "is_tautology", "hilbert.tautology")
    tracer.span(cli, "soundness_scan", "hilbert.scan")
    tracer.span(decide, "valid", "decide.valid")
    tracer.span(decide, "satisfiable", "decide.satisfiable", on_result=verdict_kind)


def layer_metrics(t: Tracer, limit_errors: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per deck pass, as name -> (value, unit).

    Replay is the witness check inside `decide` (its satisfies and in_class
    calls, the in-class check of the extracted tableau model included).
    Class filtering counts succ_in_class and succ_has_property calls.
    """
    c, busy, own = t.counts, t.busy, t.self_time
    enumerated = c["sweep.frames_enumerated"]
    raw = {
        "cli.self_s": (own["cli.main"], "s"),
        "cli.limit_as_input_error": (limit_errors, "count"),
        "formula.parse_s": (busy["formula.parse"], "s"),
        "formula.render_s": (busy["formula.render"], "s"),
        "kripke.model_read_s": (busy["kripke.model_read"], "s"),
        "kripke.index_builds": (c["kripke.index"], "count"),
        "kripke.index_s": (busy["kripke.index"], "s"),
        "kripke.in_class_s": (busy["kripke.in_class"], "s"),
        "sweep.frames_enumerated": (enumerated, "count"),
        "sweep.class_filter_calls": (c["sweep.class_filter"], "count"),
        "sweep.class_filter_s": (busy["sweep.class_filter"], "s"),
        "sweep.prog_runs": (c["sweep.prog_run"], "count"),
        "sweep.prog_run_s": (busy["sweep.prog_run"], "s"),
        "sweep.search_sat_calls": (c["sweep.search_sat"], "count"),
        "sweep.search_sat_s": (busy["sweep.search_sat"], "s"),
        "semantics.definability_self_s": (own["semantics.definability"], "s"),
        "semantics.extension_calls": (c["semantics.extension"], "count"),
        "semantics.extension_s": (busy["semantics.extension"], "s"),
        "bisim.largest_calls": (c["bisim.largest"], "count"),
        "bisim.largest_s": (busy["bisim.largest"], "s"),
        "bisim.box_s": (busy["bisim.box"], "s"),
        "bisim.contract_self_s": (own["bisim.contract"], "s"),
        "hilbert.check_derivation_s": (busy["hilbert.check_derivation"], "s"),
        "hilbert.tautology_calls": (c["hilbert.tautology"], "count"),
        "hilbert.tautology_s": (busy["hilbert.tautology"], "s"),
        "hilbert.scan_self_s": (own["hilbert.scan"], "s"),
        "decide.satisfiable_calls": (c["decide.satisfiable"], "count"),
        "decide.tableau_self_s": (own["decide.satisfiable"], "s"),
        "decide.replay_s": (busy["decide.replay"], "s"),
        "decide.budget_exhausted": (c["decide.satisfiable:budget"], "count"),
        "decide.bounded_search_verdicts": (c["decide.bounded_search_verdicts"], "count"),
        "decide.unknown_verdicts": (c["decide.unknown_verdicts"], "count"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in raw.items()}
    out["sweep.frames_in_class_ratio"] = (
        c["sweep.class_filter:true"] / enumerated if enumerated else 0.0, "ratio")
    return out
