"""Command line front end.

One operation per invocation, verdict on stdout, no state between runs.
Each command returns its JSON object and its text line; --json prints the
object instead of the line.  One rule reads the exit code off the object's
"answer": 0 when it is true (valid, sat, bisimilar, accepted, confirmed,
clean scan) or absent (contract, translate, genproof), 1 when it is false
or null.  A null answer is a stated limit, and its line is `unknown:
<reason>`: a bounded search that found no model, a tautology check past its
atom limit, a frame sweep past its valuation limit, or a translation of
more than MAX_TRANSLATION_NODES nodes written out.  Exit 2 is unusable
input (a malformed command line, which also prints a usage line; an
unreadable or non-UTF-8 file, bad syntax or content, an unknown name, a
--max-n outside 1 to MAX_N); the tableau's expansion budget also
exits 2, with an error.
Exit 3, with `internal error: <reason>` and no verdict, is an answer that
failed its own check.

sat, valid, define, prove and scan print one lea.Verdict: its answer,
reason, witness and stats, and for a bounded search the --max-n bound.

The command line is `lea COMMAND ARG...` with flags anywhere, read by the
table `_COMMANDS`: --json and --max-n before or after the command, its own
flags after it.  A long flag may be a unique prefix and take its value as
`--flag value` or `--flag=value`; the last of a repeated flag wins; -3 is
a value; after `--` every token is an ARG.

Formulas are given inline or as @path; models are always files.

A command loads only the modules it runs: at load time this module
imports the formula layer and lea.limits alone.  A handler reads every
other library name as `lib.<name>`, an attribute of this module; the
module `__getattr__` (PEP 562) binds a name on its first read, from the
lazy package's own `__getattr__`, which imports the defining module and
resolves only lea's exports and modules (not its `__path__` or
`__all__`).  A name bound first from outside (bench/tracer.py wraps some)
is kept, so such a wrapper stays the one called.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .formula import Formula, ParseError, parse, render, to_lea, to_ml, tree_size
from .limits import DEFAULT_BOUND, MAX_N, DecideError, SelfCheckError

lib = sys.modules[__name__]  # handlers read library names as lib.<name>


def __getattr__(name: str):
    return globals().setdefault(name, sys.modules[__package__].__getattr__(name))


# `translate` prints a tree, and each o doubles what to-ml writes: past this
# many nodes it answers unknown in place of printing megabytes.
MAX_TRANSLATION_NODES = 1_000_000


class _InputError(Exception):
    pass


def _read_file(path: str, kind: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


def _read_model(path: str) -> tuple[lib.Model, str | None]:
    text = _read_file(path, "model")
    try:
        return lib.model_from_json(text)
    except (ValueError, RecursionError) as e:
        raise _InputError(f"bad model in {path}: {e}") from e


# Named inputs: kind -> (case fold of the name, the options by folded name).
# Each kind's options are built from its library class on first use, which
# imports the class's module then and not before.
_NAMED = {
    "frame class": (str.upper, lambda: {c.name: c for c in lib.FrameClass}),
    "property": (str.lower, lambda: {p.value: p for p in lib.FrameProperty}),
    "system": (str.upper, lambda: {s.name.removesuffix("_CIRC"): s for s in lib.System}),
}
_OPTIONS: dict[str, dict] = {}


def _named(kind: str, name: str):
    fold, build = _NAMED[kind]
    options = _OPTIONS.get(kind)
    if options is None:
        options = _OPTIONS[kind] = build()
    try:
        return options[fold(name)]
    except KeyError:
        raise _InputError(
            f"unknown {kind} {name!r} (one of: {', '.join(options)})"
        ) from None


# ---------------------------------------------------------------------------
# Commands.  Each returns (json payload, text line); main reads the exit code
# off the payload's "answer" and puts `unknown: ` before the line of a null one.


def _cmd_check(ns) -> tuple[dict, str]:
    model, file_point = _read_model(ns.model)
    world = ns.world if ns.world is not None else file_point
    if world is None:
        raise _InputError("no world given and the model file has no point")
    f = _read_formula(ns.formula)
    try:
        answer = lib.satisfies(model, world, f)
    except ValueError as e:
        raise _InputError(str(e)) from e
    text = render(f)
    payload = {"answer": answer, "formula": text, "world": world}
    return payload, f"{'true' if answer else 'false'}: {text} at {world}"


def _cmd_valid(ns) -> tuple[dict, str]:
    f = _read_formula(ns.formula)
    if ns.frame is not None:
        model, _ = _read_model(ns.frame)
        try:
            witness = lib.frame_countermodel(model, f)
        except lib.ValuationLimitError as e:
            return {"answer": None, "method": "frame-sweep", "reason": str(e)}, str(e)
        answer = witness is None
        payload = {"answer": answer, "method": "frame-sweep",
                   "witness": lib.model_to_obj(*witness) if witness else None}
        return payload, "valid on frame" if answer else "not valid on frame"
    cls = _named("frame class", ns.frame_class)
    return _verdict_reply(lib.decide.valid(f, cls, ns.max_n), ns, cls)


def _cmd_sat(ns) -> tuple[dict, str]:
    f = _read_formula(ns.formula)
    cls = _named("frame class", ns.frame_class)
    return _verdict_reply(lib.decide.satisfiable(f, cls, ns.max_n), ns, cls)


# Text lines per question, of the class name: (affirmative, negative).
_VERDICT_LINES = {
    "sat": ("satisfiable in {}", "unsatisfiable in {}"),
    "valid": ("valid in {}", "not valid in {} (countermodel found)"),
}


def _verdict_reply(verdict: lib.Verdict, ns, cls: lib.FrameClass) -> tuple[dict, str]:
    payload = {
        "answer": verdict.answer,
        "method": verdict.method,
        "witness": lib.model_to_obj(*verdict.witness) if verdict.witness else None,
        "stats": dict(verdict.stats),
    }
    if verdict.method == "bounded-search":
        payload["bound"] = ns.max_n
    if verdict.answer is None:
        return payload, verdict.reason
    yes, no = _VERDICT_LINES[ns.command]
    return payload, (yes if verdict.answer else no).format(cls.name)


def _cmd_bisim(ns) -> tuple[dict, str]:
    model_a, _ = _read_model(ns.model_a)
    model_b, _ = _read_model(ns.model_b)
    try:
        a = lib.PointedModel(model_a, ns.point_a)
        b = lib.PointedModel(model_b, ns.point_b)
    except ValueError as e:
        raise _InputError(str(e)) from e
    flavor = "box" if ns.box else "circ"
    z = None if ns.box else lib.circ_certificate(a, b)
    answer = lib.box_bisimilar(a, b) if ns.box else z is not None
    payload = {"answer": answer, "flavor": flavor}
    if z is not None:
        payload["certificate"] = lib.pairs_to_obj(z)
    return payload, f"{'' if answer else 'not '}{flavor}-bisimilar"


def _cmd_contract(ns) -> tuple[dict, str]:
    model, point = _read_model(ns.model)
    result = lib.contract(model)
    obj = lib.model_to_obj(result.model, result.class_of[point] if point is not None else None)
    obj["classes"] = {w: result.class_of[w] for w in model.worlds}
    return obj, json.dumps(obj, sort_keys=True)


def _cmd_translate(ns) -> tuple[dict, str]:
    f = _read_formula(ns.formula)
    fn = to_ml if ns.direction == "to-ml" else to_lea
    try:
        out = fn(f)
    except ValueError as e:
        raise _InputError(str(e)) from e
    size = tree_size(out)
    if size > MAX_TRANSLATION_NODES:
        reason = (f"the translation has {size} nodes written out, more than "
                  f"the limit of {MAX_TRANSLATION_NODES}")
        return {"answer": None, "reason": reason}, reason
    text = render(out)
    return {"input": render(f), "output": text}, text


def _cmd_define(ns) -> tuple[dict, str]:
    prop = _named("property", ns.property)
    f = _read_formula(ns.formula)
    verdict = lib.check_definability(prop, f, ns.max_n)
    payload = {
        "answer": verdict.answer,
        "max_n": ns.max_n,
        "direction": verdict.reason,
        "witness": lib.model_to_obj(verdict.witness) if verdict.witness else None,
    }
    if verdict.answer:
        return payload, f"Confirmed up to n={ns.max_n}"
    return payload, f"Refuted: {verdict.reason} (see witness)"


def _cmd_prove(ns) -> tuple[dict, str]:
    system = _named("system", ns.system)
    text = _read_file(ns.file, "derivation")
    try:
        derivation = lib.parse_derivation(text)
    except lib.DerivationSyntaxError as e:
        raise _InputError(f"derivation syntax: {e}") from e
    verdict = lib.check_derivation(derivation, system)
    if verdict.answer:
        n = len(derivation.lines)
        return {"answer": True, "lines": n}, f"accepted ({n} lines)"
    where = f"line {verdict.witness}: {verdict.reason}"
    payload = {"answer": verdict.answer, "line": verdict.witness, "reason": verdict.reason}
    return payload, where if verdict.answer is None else f"rejected at {where}"


def _cmd_scan(ns) -> tuple[dict, str]:
    system = _named("system", ns.system)
    cls = _named("frame class", ns.frame_class)
    verdict = lib.soundness_scan(system, cls, ns.max_n)
    failures, frames = verdict.witness, verdict.stats["frames"]
    payload = {
        "answer": verdict.answer,
        "frames": frames,
        "failures": [{"axiom": name, "model": lib.model_to_obj(model)}
                     for model, name in failures[:5]],
    }
    if failures:
        return payload, (f"{verdict.stats['failures']} failures over {frames} frames; "
                         f"first: {failures[0][1]}")
    return payload, f"no failures ({frames} frames)"


def _cmd_genproof(ns) -> tuple[dict, str]:
    if ns.n < 2:
        raise _InputError("n must be at least 2")
    derivation = lib.gen_conj_derivation(ns.n)
    text = lib.render_derivation(derivation)
    return {"lines": text.splitlines()}, text


# ---------------------------------------------------------------------------
# The command line: one table, read in one pass.

# Flags: dest, metavar (None for a switch) and help.
_FLAGS = {
    "-h": ("help", None, ""),
    "--help": ("help", None, "show this help and exit"),
    "--json": ("json", None, "emit a JSON verdict instead of text"),
    "--max-n": ("max_n", "N", f"world bound for searches and scans, 1 to {MAX_N} "
                              f"(default {DEFAULT_BOUND})"),
    "--class": ("frame_class", "CLS", "frame class"),
    "--frame": ("frame", "MODELFILE", "one frame, read from a model file"),
    "--circ": ("circ", None, "essence bisimilarity (default)"),
    "--box": ("box", None, "ordinary box bisimilarity"),
}
_GLOBAL = ("-h", "--help", "--json", "--max-n")
# Commands: handler, positionals ("[world]" may be left out), own flags and
# help.  Own flags exclude each other; one of them is required unless they
# are in brackets.
_COMMANDS = {
    "check": (_cmd_check, "model [world] formula", "", "evaluate a formula at a world of a model"),
    "valid": (_cmd_valid, "formula", "--class --frame",
              "validity over a frame class or on one frame"),
    "sat": (_cmd_sat, "formula", "--class", "satisfiability over a frame class"),
    "bisim": (_cmd_bisim, "model_a point_a model_b point_b", "[--circ --box]",
              "compare two pointed models"),
    "contract": (_cmd_contract, "model", "", "quotient a model by its largest bisimulation"),
    "translate": (_cmd_translate, "direction formula", "",
                  "translate between the essence and box languages"),
    "define": (_cmd_define, "property formula", "",
               "test whether a formula defines a frame property"),
    "prove": (_cmd_prove, "system file", "", "check a derivation file against a system"),
    "scan": (_cmd_scan, "system", "--class", "search small frames for axiom failures"),
    "genproof": (_cmd_genproof, "n", "", "emit a derivation of the n-ary essence conjunction"),
}
# Values that are not free text: ints, and the choices of a direction.
_TYPES = {"max_n": int, "n": int, "direction": ("to-ml", "to-lea")}
_ARG_HELP = {"[world]": "world name (defaults to the model's point)",
             "direction": " or ".join(_TYPES["direction"])}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flag(token: str, flags: tuple[str, ...]):
    """None for a positional, else (the flags the token may name, its value
    after "=" or "-h").  As in argparse, a long flag may be a unique prefix,
    and a negative number or a token with a space is a positional."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    value = value if eq else None
    if head in flags:
        return [head], value
    if token[:2] == "-h":  # argparse reads the rest as the value of -h
        return ["-h"], token[2:]
    found = [f for f in flags if f.startswith(head)] if token[1] == "-" else []
    if not found and (_NEGATIVE.match(token) or " " in token):
        return None
    return found, value


def _exit(command: str | None, error: str | None = None):
    """Print the usage line and the error and exit 2, or the help and exit 0."""
    _, positionals, own, text = _COMMANDS.get(command, (
        None, "COMMAND ...", "", "Workbench for the modal logic of essence and accident."))
    flags = " | ".join(f"{f} {_FLAGS[f][1] or ''}".strip() for f in own.strip("[]").split())
    flags = f"[{flags}]" if own[:1] == "[" else f"({flags})" if "|" in flags else flags
    usage = " ".join(filter(None, ("usage: lea", command, "[-h] [--json] [--max-n N]", flags,
                                   positionals.upper())))
    if error is not None:
        print(usage, f"lea: error: {error}", sep="\n", file=sys.stderr)
        raise SystemExit(2)
    rows = [(p.upper(), _ARG_HELP.get(p, "")) for p in positionals.split()] if command else [
        (name, row[3]) for name, row in _COMMANDS.items()]
    rows.append(("-h, --help", _FLAGS["--help"][2]))
    for flag in ("--json", "--max-n", *own.strip("[]").split()):
        rows.append((f"{flag} {_FLAGS[flag][1] or ''}", _FLAGS[flag][2]))
    print(usage, "", text, "", *(f"  {a:18} {b}".rstrip() for a, b in rows), sep="\n")
    raise SystemExit(0)


def _read_argv(argv) -> SimpleNamespace:
    """The command line, read by the table above.  Help (exit 0) and a
    malformed line (exit 2) end in _exit."""
    command, flags, own, words, seen = None, _GLOBAL, (), [], set()
    values = {"json": False, "max_n": DEFAULT_BOUND}
    tail, tokens = 0, iter(argv)  # positionals since the last flag

    def convert(name: str, dest: str, text: str):
        kind = _TYPES.get(dest)
        if kind is int:
            try:
                return int(text)
            except ValueError:
                _exit(command, f"argument {name}: invalid int value {text!r}")
        if kind and text not in kind:
            _exit(command, f"argument {name}: {text!r} is not one of {', '.join(kind)}")
        return text

    for token in tokens:
        if token == "--":  # the rest are positionals
            if command is None:
                _exit(command, "-- before the command")
            rest = list(tokens)
            if not tail + len(rest):  # argparse leaves such a "--" over
                _exit(command, "nothing to read after --")
            words += rest
            break
        read = _flag(token, flags)
        if read is None and command is None:
            if token not in _COMMANDS:
                _exit(command, f"invalid command {token!r} (choose from {', '.join(_COMMANDS)})")
            command = token
            func, positionals, own, _ = _COMMANDS[command]
            required, own = own.startswith("--"), tuple(own.strip("[]").split())
            flags = _GLOBAL + own
        elif read is None:
            words.append(token)
            tail += 1
        elif len(read[0]) != 1:
            _exit(command, f"{'ambiguous' if read[0] else 'unrecognized'} option {token}")
        else:
            (name,), value = read
            dest, metavar, _ = _FLAGS[name]
            if metavar is None and value is not None:
                _exit(command, f"argument {name}: ignored explicit argument {value!r}")
            if dest == "help":
                _exit(command)
            if metavar is not None and value is None:
                value = next(tokens, None)
                if value is None or _flag(value, flags) is not None:  # "--" too
                    _exit(command, f"argument {name}: expected one argument")
            others = set(own) - {name} if name in own else set()
            if not seen.isdisjoint(others):
                _exit(command, f"argument {name}: not allowed with {' or '.join(others)}")
            values[dest] = True if metavar is None else convert(name, dest, value)
            seen.add(name)
            tail = 0
    if command is None:
        _exit(command, "missing COMMAND")
    positionals = positionals.split()
    names = [p for p in positionals if p[0] != "[" or len(words) >= len(positionals)]
    if len(words) != len(names):
        _exit(command, f"unrecognized arguments: {' '.join(words[len(names):])}"
              if len(words) > len(names) else f"missing {' '.join(names[len(words):])}")
    for name in positionals:
        dest = name.strip("[]")
        values[dest] = convert(name, dest, words.pop(0)) if name in names else None
    if required and seen.isdisjoint(own):
        _exit(command, f"{' or '.join(own)} is required")
    values.update({_FLAGS[f][0]: None if _FLAGS[f][1] else False for f in own if f not in seen})
    return SimpleNamespace(command=command, func=func, **values)


def main(argv=None) -> int:
    ns = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        if not 1 <= ns.max_n <= MAX_N:
            raise _InputError(f"--max-n must be between 1 and {MAX_N}, not {ns.max_n}")
        payload, line = ns.func(ns)
    except (_InputError, DecideError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SelfCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    answer = payload.get("answer", True)
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(line if answer is not None else f"unknown: {line}")
    return 0 if answer else 1


if __name__ == "__main__":
    sys.exit(main())
