"""Command line front end.

One operation per invocation, verdict on stdout, no state between runs.
Exit codes: 0 for an affirmative verdict (true, valid, sat, bisimilar,
accepted, confirmed, clean scan), 1 for a negative one or a stated limit,
2 for unusable input (an unreadable or non-UTF-8 file, bad syntax or
content, an unknown name, a --max-n outside 1 to sweep.MAX_N).  A limit
prints `unknown: <reason>` (JSON "answer": null): a bounded search that
found no model, a tautology check past its atom limit, a frame sweep past
its valuation limit, or a formula nested too deeply for the recursion
limit.  The tableau's expansion budget is the exception: it still exits 2
with an error.  --json swaps the human line for a machine-readable object.

Formulas are given inline or as @path; models are always files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import decide
# circ_bisimilar and valid_on_frame stay imported: bench/tracer.py wraps them here.
from .bisim import (
    box_bisimilar,
    circ_bisimilar,
    contract,
    largest_circ_bisimulation,
    pairs_to_obj,
)
from .formula import Formula, ParseError, parse, render, to_lea, to_ml
from .hilbert import (
    DerivationSyntaxError,
    System,
    check_derivation,
    gen_conj_derivation,
    parse_derivation,
    render_derivation,
    soundness_scan,
)
from .kripke import (
    FrameClass,
    FrameProperty,
    Model,
    PointedModel,
    disjoint_union,
    model_from_json,
    model_to_obj,
)
from .semantics import (
    check_definability,
    frame_countermodel,
    satisfies,
    valid_on_frame,
)
from .sweep import MAX_N, ValuationLimitError


class _InputError(Exception):
    pass


def _read_file(path: str, kind: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"cannot read {kind} file: {e}") from e


def _read_formula(text: str) -> Formula:
    if text.startswith("@"):
        text = _read_file(text[1:], "formula").strip()
    try:
        return parse(text)
    except ParseError as e:
        raise _InputError(f"formula syntax error: {e}") from e


def _read_model(path: str) -> tuple[Model, str | None]:
    text = _read_file(path, "model")
    try:
        return model_from_json(text)
    except (ValueError, RecursionError) as e:
        raise _InputError(f"bad model in {path}: {e}") from e


# Named inputs: kind -> (case fold of the name, the options by folded name).
_NAMED = {
    "frame class": (str.upper, {c.name: c for c in FrameClass}),
    "property": (str.lower, {p.value: p for p in FrameProperty}),
    "system": (str.upper, {"K": System.K_CIRC, "K4": System.K4_CIRC,
                           "KB": System.KB_CIRC, "KB5": System.KB5_CIRC}),
}


def _named(kind: str, name: str):
    fold, options = _NAMED[kind]
    try:
        return options[fold(name)]
    except KeyError:
        raise _InputError(
            f"unknown {kind} {name!r} (one of: {', '.join(options)})"
        ) from None


def _witness_obj(witness: tuple[Model, str] | None):
    if witness is None:
        return None
    model, point = witness
    return model_to_obj(model, point)


# ---------------------------------------------------------------------------
# Commands.  Each returns (exit code, json payload, human text).


def _cmd_check(ns) -> tuple[int, dict, str]:
    model, file_point = _read_model(ns.model)
    world = ns.world if ns.world is not None else file_point
    if world is None:
        raise _InputError("no world given and the model file has no point")
    f = _read_formula(ns.formula)
    try:
        answer = satisfies(model, world, f)
    except ValueError as e:
        raise _InputError(str(e)) from e
    text = render(f)
    payload = {"answer": answer, "formula": text, "world": world}
    human = f"{'true' if answer else 'false'}: {text} at {world}"
    return (0 if answer else 1), payload, human


def _cmd_valid(ns) -> tuple[int, dict, str]:
    f = _read_formula(ns.formula)
    if ns.frame is not None:
        model, _ = _read_model(ns.frame)
        try:
            witness = frame_countermodel(model, f)
        except ValuationLimitError as e:
            payload = {"answer": None, "method": "frame-sweep", "reason": str(e)}
            return 1, payload, f"unknown: {e}"
        answer = witness is None
        payload = {"answer": answer, "method": "frame-sweep", "witness": _witness_obj(witness)}
        human = "valid on frame" if answer else "not valid on frame"
        return (0 if answer else 1), payload, human
    cls = _named("frame class", ns.frame_class)
    return _verdict_reply(decide.valid(f, cls, ns.max_n))


def _cmd_sat(ns) -> tuple[int, dict, str]:
    f = _read_formula(ns.formula)
    cls = _named("frame class", ns.frame_class)
    return _verdict_reply(decide.satisfiable(f, cls, ns.max_n))


# Human lines per question: (unknown, affirmative, negative).
_VERDICT_LINES = {
    "sat": ("unknown: no model with up to {} worlds",
            "satisfiable in {}", "unsatisfiable in {}"),
    "valid": ("unknown: no countermodel with up to {} worlds",
              "valid in {}", "not valid in {} (countermodel found)"),
}


def _verdict_reply(verdict: decide.Verdict) -> tuple[int, dict, str]:
    payload = {
        "answer": verdict.answer,
        "method": verdict.method,
        "witness": _witness_obj(verdict.witness),
        "stats": dict(verdict.stats),
    }
    if verdict.bound is not None:
        payload["bound"] = verdict.bound
    unknown, yes, no = _VERDICT_LINES[verdict.question]
    if verdict.answer is None:
        human = unknown.format(verdict.bound)
    else:
        human = (yes if verdict.answer else no).format(verdict.frame_class.name)
    return (0 if verdict.answer else 1), payload, human


def _cmd_bisim(ns) -> tuple[int, dict, str]:
    model_a, _ = _read_model(ns.model_a)
    model_b, _ = _read_model(ns.model_b)
    try:
        a = PointedModel(model_a, ns.point_a)
        b = PointedModel(model_b, ns.point_b)
    except ValueError as e:
        raise _InputError(str(e)) from e
    flavor = "box" if ns.box else "circ"
    if ns.box:
        answer = box_bisimilar(a, b)
    else:
        z = largest_circ_bisimulation(disjoint_union(a.model, b.model))
        answer = ("L:" + a.point, "R:" + b.point) in z.pairs
    payload = {"answer": answer, "flavor": flavor}
    if answer and not ns.box:
        payload["certificate"] = pairs_to_obj(z)
    human = f"{'' if answer else 'not '}{flavor}-bisimilar"
    return (0 if answer else 1), payload, human


def _cmd_contract(ns) -> tuple[int, dict, str]:
    model, point = _read_model(ns.model)
    result = contract(model)
    obj = model_to_obj(result.model, result.class_of[point] if point is not None else None)
    obj["classes"] = {w: result.class_of[w] for w in model.worlds}
    human = json.dumps(obj, sort_keys=True)
    return 0, obj, human


def _cmd_translate(ns) -> tuple[int, dict, str]:
    f = _read_formula(ns.formula)
    fn = to_ml if ns.direction == "to-ml" else to_lea
    try:
        out = fn(f)
    except ValueError as e:
        raise _InputError(str(e)) from e
    payload = {"input": render(f), "output": render(out)}
    return 0, payload, render(out)


def _cmd_define(ns) -> tuple[int, dict, str]:
    prop = _named("property", ns.property)
    f = _read_formula(ns.formula)
    verdict = check_definability(prop, f, ns.max_n)
    payload = {
        "answer": verdict.confirmed,
        "max_n": verdict.max_n,
        "direction": verdict.direction,
        "witness": model_to_obj(verdict.witness) if verdict.witness else None,
    }
    if verdict.confirmed:
        human = f"Confirmed up to n={verdict.max_n}"
    else:
        human = f"Refuted: {verdict.direction} (see witness)"
    return (0 if verdict.confirmed else 1), payload, human


def _cmd_prove(ns) -> tuple[int, dict, str]:
    system = _named("system", ns.system)
    text = _read_file(ns.file, "derivation")
    try:
        derivation = parse_derivation(text)
    except DerivationSyntaxError as e:
        raise _InputError(f"derivation syntax: {e}") from e
    report = check_derivation(derivation, system)
    if report.ok:
        payload = {"answer": True, "lines": len(derivation.lines)}
        return 0, payload, f"accepted ({len(derivation.lines)} lines)"
    index, message = report.first_error
    payload = {"answer": report.ok, "line": index, "reason": message}
    if report.ok is None:
        return 1, payload, f"unknown: line {index}: {message}"
    return 1, payload, f"rejected at line {index}: {message}"


def _cmd_scan(ns) -> tuple[int, dict, str]:
    system = _named("system", ns.system)
    cls = _named("frame class", ns.frame_class)
    report = soundness_scan(system, cls, ns.max_n)
    failures = [
        {"axiom": name, "model": model_to_obj(model)}
        for model, name in report.failures[:5]
    ]
    payload = {
        "answer": not report.failures,
        "frames": report.frames_checked,
        "failures": failures,
    }
    if report.failures:
        human = (
            f"{report.failure_count} failures over {report.frames_checked} frames; "
            f"first: {report.failures[0][1]}"
        )
        return 1, payload, human
    return 0, payload, f"no failures ({report.frames_checked} frames)"


def _cmd_genproof(ns) -> tuple[int, dict, str]:
    if ns.n < 2:
        raise _InputError("n must be at least 2")
    derivation = gen_conj_derivation(ns.n)
    text = render_derivation(derivation)
    payload = {"lines": text.splitlines()}
    return 0, payload, text


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lea",
        description="Workbench for the modal logic of essence and accident.",
    )
    # The global flags again for every subcommand, with their defaults
    # suppressed there so that "lea --json sat ..." and "lea sat ... --json"
    # both stick.
    common = argparse.ArgumentParser(add_help=False)
    for flags, json_default, max_n_default in (
        (parser, False, decide.DEFAULT_BOUND),
        (common, argparse.SUPPRESS, argparse.SUPPRESS),
    ):
        flags.add_argument("--json", action="store_true", default=json_default,
                           help="emit a JSON verdict instead of text")
        flags.add_argument("--max-n", type=int, default=max_n_default, metavar="N",
                           help=f"world bound for searches and scans, 1 to {MAX_N} "
                                f"(default {decide.DEFAULT_BOUND})")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("check", parents=[common],
                       help="evaluate a formula at a world of a model")
    p.add_argument("model")
    p.add_argument("world", nargs="?", default=None,
                   help="world name (defaults to the model's point)")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("valid", parents=[common],
                       help="validity over a frame class or on one frame")
    p.add_argument("formula")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="frame_class", metavar="CLS")
    group.add_argument("--frame", metavar="MODELFILE")
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("sat", parents=[common],
                       help="satisfiability over a frame class")
    p.add_argument("formula")
    p.add_argument("--class", dest="frame_class", required=True, metavar="CLS")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("bisim", parents=[common],
                       help="compare two pointed models")
    p.add_argument("model_a")
    p.add_argument("point_a")
    p.add_argument("model_b")
    p.add_argument("point_b")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--circ", action="store_true",
                       help="essence bisimilarity (default)")
    group.add_argument("--box", action="store_true",
                       help="ordinary box bisimilarity")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("contract", parents=[common],
                       help="quotient a model by its largest bisimulation")
    p.add_argument("model")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("translate", parents=[common],
                       help="translate between the essence and box languages")
    p.add_argument("direction", choices=("to-ml", "to-lea"))
    p.add_argument("formula")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("define", parents=[common],
                       help="test whether a formula defines a frame property")
    p.add_argument("property")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_define)

    p = sub.add_parser("prove", parents=[common],
                       help="check a derivation file against a system")
    p.add_argument("system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("scan", parents=[common],
                       help="search small frames for axiom failures")
    p.add_argument("system")
    p.add_argument("--class", dest="frame_class", required=True, metavar="CLS")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("genproof", parents=[common],
                       help="emit a derivation of the n-ary essence conjunction")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_genproof)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    ns = _parser.parse_args(argv)
    try:
        if not 1 <= ns.max_n <= MAX_N:
            raise _InputError(f"--max-n must be between 1 and {MAX_N}, not {ns.max_n}")
        code, payload, human = ns.func(ns)
    except (_InputError, decide.DecideError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        reason = "formula nests too deeply for the recursion limit"
        code, payload, human = 1, {"answer": None, "reason": reason}, f"unknown: {reason}"
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)
    return code


if __name__ == "__main__":
    sys.exit(main())
