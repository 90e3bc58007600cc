"""Hilbert-style systems for the essence operator and a derivation checker.

The base system has three axiom schemas on top of propositional logic:

    KwTop   o T
    EquiKw  ~p -> o p
    KwCon   o p & o q -> o (p & q)

with uniform substitution, modus ponens, and the rule

    R       from f -> g infer o f & f -> o g.

Extensions add KwTr (transitive frames), KwB (symmetric frames) and KwEuc
(together with KwB: symmetric-Euclidean frames).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from . import sweep
from .formula import (
    And,
    Box,
    Ess,
    Formula,
    Implies,
    ParseError,
    Top,
    Var,
    children,
    is_lea,
    parse,
    postorder,
    rebuild,
    render,
    substitute,
)
from .kripke import FrameClass, Model, frame_worlds

Substitution = Mapping[str, Formula]

KW_TOP = Ess(Top())
EQUI_KW = parse("~p -> o p")
KW_CON = parse("o p & o q -> o (p & q)")
KW_TR = parse("o p & p -> o o p")
KW_B = parse("p -> o (o ~p -> p)")
KW_EUC = parse("~o ~p -> o (o ~p -> p)")

_BASE = (("KwTop", KW_TOP), ("EquiKw", EQUI_KW), ("KwCon", KW_CON))


class System(Enum):
    K_CIRC = _BASE
    K4_CIRC = _BASE + (("KwTr", KW_TR),)
    KB_CIRC = _BASE + (("KwB", KW_B),)
    KB5_CIRC = _BASE + (("KwB", KW_B), ("KwEuc", KW_EUC))

    @property
    def axioms(self) -> tuple[tuple[str, Formula], ...]:
        return self.value

    def schema(self, name: str) -> Formula:
        for axiom_name, schema in self.value:
            if axiom_name == name:
                return schema
        raise KeyError(f"{self.name} has no axiom {name!r}")


# ---------------------------------------------------------------------------
# Schema matching


def match_schema(schema: Formula, f: Formula) -> Substitution | None:
    """One-sided match: a substitution on the schema's variables giving f.

    Identity bindings are dropped, so a schema matches itself with {}.
    """
    binding: dict[str, Formula] = {}
    if not _match(schema, f, binding):
        return None
    return {v: g for v, g in binding.items() if g != Var(v)}


def _match(schema: Formula, f: Formula, binding: dict[str, Formula]) -> bool:
    pairs = [(schema, f)]
    while pairs:
        s, g = pairs.pop()
        if isinstance(s, Var):
            if binding.setdefault(s.name, g) != g:
                return False
        elif type(s) is not type(g):
            return False
        else:
            pairs += reversed(list(zip(children(s), children(g))))
    return True


def is_axiom_instance(f: Formula, system: System) -> tuple[str, Substitution] | None:
    """First axiom of the system that f instantiates, with the substitution."""
    for name, schema in system.axioms:
        sigma = match_schema(schema, f)
        if sigma is not None:
            return name, sigma
    return None


# ---------------------------------------------------------------------------
# Tautology checking by boolean abstraction

def is_tautology(f: Formula) -> bool:
    """Propositional tautology after abstracting modal subtrees as atoms.

    Maximal o/[] subformulas and variables become atoms (structurally equal
    occurrences share one atom); T and F stay constants.  The abstracted
    formula is a tautology when a one-world sweep, whose bignum holds its
    value under every assignment to the atoms, finds no falsifying hit.
    Raises sweep.ValuationLimitError past sweep.MAX_VALUATION_BITS atoms,
    the frame sweep's valuation limit on one world.
    """
    atoms: dict[Formula, Var] = {}
    new: dict[int, Formula] = {}
    for g in postorder(f, leaves=(Ess, Box)):
        if isinstance(g, (Ess, Box, Var)):
            new[id(g)] = atoms.setdefault(g, Var(str(len(atoms))))
        else:
            new[id(g)] = rebuild(g, lambda c: new[id(c)])
    g = new[id(f)]
    if len(atoms) > sweep.MAX_VALUATION_BITS:
        raise sweep.ValuationLimitError(
            f"tautology check over {len(atoms)} atoms exceeds the limit of "
            f"{sweep.MAX_VALUATION_BITS}"
        )
    return sweep.frame_hit(sweep.Prog(g), 1, (0,), False) is None


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class Premise:
    pass


@dataclass(frozen=True)
class Axiom:
    """An axiom line names its axiom and nothing else; the checker matches the schema."""

    name: str


@dataclass(frozen=True)
class MP:
    antecedent: int  # line holding f
    implication: int  # line holding f -> g


@dataclass(frozen=True)
class Sub:
    source: int
    subst: Substitution


@dataclass(frozen=True)
class R:
    source: int


Justification = Taut | Premise | Axiom | MP | Sub | R


@dataclass(frozen=True)
class Line:
    index: int
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Derivation:
    lines: tuple[Line, ...]

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula

    def premises(self) -> tuple[Formula, ...]:
        return tuple(l.formula for l in self.lines if isinstance(l.just, Premise))


@dataclass(frozen=True)
class CheckReport:
    ok: bool | None  # None: unknown, first_error names a line past a limit
    first_error: tuple[int, str] | None = None

    def __bool__(self) -> bool:
        return self.ok is True


def check_derivation(d: Derivation, system: System) -> CheckReport:
    """Validate every line of d against the rules of the system.

    Reports the first offending line, or the first line past the tautology
    atom limit as unknown.  Premise lines are accepted as given; a
    derivation without them establishes its conclusion outright.
    """
    if not d.lines:
        return CheckReport(False, (0, "empty derivation"))
    by_index: dict[int, Formula] = {}
    for offset, line in enumerate(d.lines):
        if line.index != offset + 1:
            return CheckReport(
                False, (line.index, f"line numbered {line.index}, expected {offset + 1}")
            )
        try:
            reason = _check_line(line, by_index, system)
        except sweep.ValuationLimitError as e:
            return CheckReport(None, (line.index, str(e)))
        if reason is not None:
            return CheckReport(False, (line.index, reason))
        by_index[line.index] = line.formula
    return CheckReport(True)


def _check_line(
    line: Line, earlier: dict[int, Formula], system: System
) -> str | None:
    f = line.formula
    just = line.just
    if not is_lea(f):
        return "formula leaves the essence fragment (contains [])"
    if type(just) not in _KINDS:
        return f"unknown justification {just!r}"
    cited = [earlier.get(getattr(just, field)) for field in _KINDS[type(just)][1]]
    if any(g is None for g in cited):
        return "reference to a line that is not strictly earlier"
    if isinstance(just, Taut) and not is_tautology(f):
        return "not a propositional tautology under boolean abstraction"
    elif isinstance(just, Axiom):
        try:
            schema = system.schema(just.name)
        except KeyError:
            return f"{system.name} has no axiom {just.name!r}"
        if match_schema(schema, f) is None:
            return f"formula does not instantiate {just.name}"
    elif isinstance(just, MP) and cited[1] != Implies(cited[0], f):
        return f"line {just.implication} is not (line {just.antecedent}) -> (this line)"
    elif isinstance(just, Sub) and substitute(cited[0], just.subst) != f:
        return f"formula is not line {just.source} under the given substitution"
    elif isinstance(just, R):
        (source,) = cited
        if not isinstance(source, Implies):
            return f"line {just.source} is not an implication"
        if f != Implies(And(Ess(source.left), source.left), Ess(source.right)):
            return f"formula is not the R image of line {just.source}"
    return None


# ---------------------------------------------------------------------------
# Concrete derivation text:  `3. <formula>   [mp 1 2]`

# Each justification kind once, read by the parser, the printer and the checker:
# its head word and the fields citing earlier lines.  axiom adds a name, sub bindings.
_KINDS: dict[type, tuple[str, tuple[str, ...]]] = {
    Taut: ("taut", ()),
    Premise: ("premise", ()),
    Axiom: ("axiom", ()),
    MP: ("mp", ("antecedent", "implication")),
    Sub: ("sub", ("source",)),
    R: ("r", ("source",)),
}
_BY_HEAD = {head: (kind, fields) for kind, (head, fields) in _KINDS.items()}
_COUNTS = ("no line numbers", "one line number", "two line numbers")

# A line number is ASCII digits: \d and str.isdigit also take "١" and "²".
_NUMBER = "[0-9]+"
_LINE_RE = re.compile(rf"^\s*({_NUMBER})\.\s*(.*?)\s*\[([^\]]*)\]\s*$")
# The first word of a stripped text and the rest, split at any whitespace.
_WORD = re.compile(r"(\S*)\s*(.*)", re.S)


def render_justification(just: Justification) -> str:
    if type(just) not in _KINDS:
        raise TypeError(f"unknown justification {just!r}")
    head, fields = _KINDS[type(just)]
    words = [head, *(str(getattr(just, field)) for field in fields)]
    if isinstance(just, Axiom):
        words.append(just.name)
    elif isinstance(just, Sub):
        words.append(", ".join(f"{v}:={render(g)}" for v, g in sorted(just.subst.items())))
    return " ".join(words)


def render_derivation(d: Derivation) -> str:
    return "\n".join(
        f"{l.index}. {render(l.formula)}   [{render_justification(l.just)}]"
        for l in d.lines
    )


class DerivationSyntaxError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def parse_derivation(text: str) -> Derivation:
    """Parse the numbered text format; blank lines are skipped."""
    lines: list[Line] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        m = _LINE_RE.match(raw)
        if m is None:
            raise DerivationSyntaxError(
                lineno, "expected `N. <formula>   [<justification>]`"
            )
        index = int(m.group(1))
        try:
            f = parse(m.group(2))
        except ParseError as e:
            raise DerivationSyntaxError(lineno, f"bad formula: {e}") from e
        just = _parse_justification(m.group(3).strip(), lineno)
        lines.append(Line(index, f, just))
    return Derivation(tuple(lines))


def _parse_justification(text: str, lineno: int) -> Justification:
    head, rest = _WORD.match(text).groups()
    kind, fields = _BY_HEAD.get(head, (None, ()))
    if kind is Axiom:
        if len(rest.split()) != 1:
            raise DerivationSyntaxError(lineno, "axiom takes exactly one name")
        return Axiom(rest)
    if kind is Sub:
        num, assigns = _WORD.match(rest).groups()
        (source,) = _line_numbers(num, 1, lineno, "sub takes a line number then bindings")
        subst: dict[str, Formula] = {}
        for item in assigns.split(",") if assigns else ():
            var, sep, body = item.partition(":=")
            var = var.strip()
            if not sep or not var:
                raise DerivationSyntaxError(lineno, f"bad binding {item.strip()!r}")
            try:
                subst[var] = parse(body.strip())
            except ParseError as e:
                raise DerivationSyntaxError(lineno, f"bad binding formula: {e}") from e
        return Sub(source, subst)
    if kind is None or (rest and not fields):
        raise DerivationSyntaxError(lineno, f"unknown justification {text!r}")
    message = f"{head} takes {_COUNTS[len(fields)]}"
    return kind(*_line_numbers(rest, len(fields), lineno, message))


def _line_numbers(text: str, count: int, lineno: int, message: str) -> list[int]:
    parts = text.split()
    if len(parts) != count or not all(re.fullmatch(_NUMBER, p) for p in parts):
        raise DerivationSyntaxError(lineno, message)
    return [int(p) for p in parts]


# ---------------------------------------------------------------------------
# Generated derivations


def gen_conj_derivation(n: int) -> Derivation:
    """Derivation of o p1 & ... & o pn -> o (p1 & ... & pn) in the base system.

    Builds up one conjunct at a time: each step is a KwCon instance, a
    propositional chaining tautology, and two modus ponens lines, so the
    length grows linearly with n.
    """
    if n < 2:
        raise ValueError("need at least two conjuncts")
    p = [Var(f"p{i}") for i in range(1, n + 1)]
    lines: list[Line] = []

    def emit(f: Formula, just: Justification) -> int:
        lines.append(Line(len(lines) + 1, f, just))
        return len(lines)

    def conj(parts: list[Formula]) -> Formula:
        out = parts[0]
        for g in parts[1:]:
            out = And(out, g)
        return out

    goal_idx = emit(
        Implies(And(Ess(p[0]), Ess(p[1])), Ess(And(p[0], p[1]))),
        Axiom("KwCon"),
    )
    for k in range(2, n):
        body = conj(list(p[:k]))
        antecedent = conj([Ess(v) for v in p[:k]])
        grown_body = And(body, p[k])
        grown_antecedent = And(antecedent, Ess(p[k]))
        step = Implies(And(Ess(body), Ess(p[k])), Ess(grown_body))
        step_idx = emit(step, Axiom("KwCon"))
        ih = Implies(antecedent, Ess(body))
        goal = Implies(grown_antecedent, Ess(grown_body))
        chain = Implies(ih, Implies(step, goal))
        chain_idx = emit(chain, Taut())
        half_idx = emit(Implies(step, goal), MP(goal_idx, chain_idx))
        goal_idx = emit(goal, MP(step_idx, half_idx))
    return Derivation(tuple(lines))


# ---------------------------------------------------------------------------
# Soundness scanning


class ScanFailures(Sequence):
    """The (frame, axiom name) entries of a soundness scan: a read-only
    sequence kept as (n, index into sweep.frame_orbits(n), axiom name).

    A frame's model is built on the first read of one of its entries and
    shared by that frame's other entries, so reading five entries builds
    at most five models.
    """

    def __init__(self, entries: tuple[tuple[int, int, str], ...]):
        self._entries = entries
        self._frames: dict[tuple[int, int], Model] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        n, orbit, name = self._entries[i]
        frame = self._frames.get((n, orbit))
        if frame is None:
            succ = sweep.frame_orbits(n)[orbit][0]
            frame = self._frames[n, orbit] = sweep.build_model(frame_worlds(n), succ, (), 0)
        return frame, name


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a soundness scan.

    Frames are swept one per isomorphism class.  frames_checked and
    failure_count count labelled frames (each class frame weighted by the
    size of its orbit); failures lists one (frame, axiom) entry per failing
    orbit and axiom, smallest mask first, then in axiom order.
    """

    system: System
    frame_class: FrameClass
    max_n: int
    frames_checked: int
    failures: ScanFailures
    failure_count: int

    def __bool__(self) -> bool:
        return not self.failures


def soundness_scan(system: System, cls: FrameClass, max_n: int) -> ScanReport:
    """Check every axiom of the system on every class frame up to max_n worlds.

    Returns the (frame, axiom name) pairs where validity fails; soundness of
    the system over the class predicts none.  max_n must lie in
    1..sweep.MAX_N (ValueError).  One chunk_hits call per chunk answers
    every axiom, on chunks sized for the union of their variables.
    """
    axioms = system.axioms
    progs = [sweep.Prog(schema) for _, schema in axioms]
    entries: list[tuple[int, int, str]] = []
    checked = failed = 0
    k = len(set().union(*(prog.names for prog in progs)))
    for n, picked in sweep.class_chunks(cls, max_n, k):
        orbits = sweep.frame_orbits(n)
        hits = sweep.chunk_hits(progs, n, picked, False)
        # Frame-major, then in axiom order.
        for i, row in zip(picked, zip(*hits)):
            size = orbits[i][1]
            checked += size
            if any(row):
                names = [name for (name, _), hit in zip(axioms, row) if hit]
                entries += [(n, i, name) for name in names]
                failed += size * len(names)
    return ScanReport(system, cls, max_n, checked, ScanFailures(tuple(entries)), failed)
