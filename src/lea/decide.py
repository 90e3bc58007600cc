"""Satisfiability and validity over frame classes.

For K, D, T, KB, K4, S4 and S5 a labelled tableau decides the question and
returns a concrete witness (model of the formula, or countermodel of a
validity).  The essence operator is handled by rewriting o f as f -> [] f
on the fly, which preserves truth at every world of every model.  Other
classes fall back to exhaustive search over small frames; "no model up to
the bound" is reported as unknown, never as unsatisfiable.

Every witness produced here is replayed through the model checker before
being returned; a witness that fails replay raises instead of lying.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import sweep
from .formula import (
    And,
    Bot,
    Box,
    Ess,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
)
from .kripke import FrameClass, Model, in_class
from .semantics import satisfies

TABLEAU_CLASSES = (
    FrameClass.K,
    FrameClass.D,
    FrameClass.T,
    FrameClass.KB,
    FrameClass.K4,
    FrameClass.S4,
    FrameClass.S5,
)

DEFAULT_BOUND = 3


class DecideError(Exception):
    """Internal failure: budget exhausted or a witness failed replay."""


@dataclass(frozen=True)
class Verdict:
    formula: Formula
    frame_class: FrameClass
    question: str  # "sat" or "valid"
    answer: bool | None  # None: unknown (bounded search exhausted)
    method: str  # "tableau" or "bounded-search"
    witness: tuple[Model, str] | None = None
    bound: int | None = None


# ---------------------------------------------------------------------------
# Negation normal form over tuples:
#   ("lit", name, negated) ("top",) ("bot",)
#   ("and", a, b) ("or", a, b) ("box", a) ("dia", a)


def _nnf(f: Formula, neg: bool):
    if isinstance(f, Var):
        return ("lit", f.name, neg)
    if isinstance(f, Top):
        return ("bot",) if neg else ("top",)
    if isinstance(f, Bot):
        return ("top",) if neg else ("bot",)
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        if neg:
            return ("or", _nnf(f.left, True), _nnf(f.right, True))
        return ("and", _nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Or):
        if neg:
            return ("and", _nnf(f.left, True), _nnf(f.right, True))
        return ("or", _nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Implies):
        if neg:
            return ("and", _nnf(f.left, False), _nnf(f.right, True))
        return ("or", _nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        if neg:
            return (
                "or",
                ("and", _nnf(f.left, False), _nnf(f.right, True)),
                ("and", _nnf(f.left, True), _nnf(f.right, False)),
            )
        return (
            "and",
            ("or", _nnf(f.left, True), _nnf(f.right, False)),
            ("or", _nnf(f.right, True), _nnf(f.left, False)),
        )
    if isinstance(f, Box):
        if neg:
            return ("dia", _nnf(f.sub, True))
        return ("box", _nnf(f.sub, False))
    if isinstance(f, Ess):
        # o g  is  g -> [] g  pointwise.
        if neg:
            return ("and", _nnf(f.sub, False), ("dia", _nnf(f.sub, True)))
        return ("or", _nnf(f.sub, True), ("box", _nnf(f.sub, False)))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Labelled tableau for K, D, T, KB, K4, S4


class _Branch:
    def __init__(self, flags: frozenset[str], budget: list[int]):
        self.flags = flags
        self.budget = budget
        self.contents: list[set] = []
        self.boxes: list[set] = []
        self.parent: list[int | None] = []
        self.edges: set[tuple[int, int]] = set()
        self.alpha: deque = deque()
        self.beta: deque = deque()
        self.pi: deque = deque()
        self.closed = False

    def clone(self) -> "_Branch":
        twin = _Branch(self.flags, self.budget)
        twin.contents = [set(c) for c in self.contents]
        twin.boxes = [set(b) for b in self.boxes]
        twin.parent = list(self.parent)
        twin.edges = set(self.edges)
        twin.alpha = deque(self.alpha)
        twin.beta = deque(self.beta)
        twin.pi = deque(self.pi)
        twin.closed = self.closed
        return twin

    def new_world(self, parent: int | None) -> int:
        self.contents.append(set())
        self.boxes.append(set())
        self.parent.append(parent)
        return len(self.contents) - 1

    def schedule(self, w: int, f) -> None:
        if f in self.contents[w]:
            return
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise DecideError("tableau expansion budget exhausted")
        self.contents[w].add(f)
        tag = f[0]
        if tag == "bot":
            self.closed = True
        elif tag == "lit":
            if ("lit", f[1], not f[2]) in self.contents[w]:
                self.closed = True
        elif tag == "top":
            pass
        elif tag == "or":
            self.beta.append((w, f))
        elif tag == "dia":
            self.pi.append((w, f))
        else:  # and / box
            self.alpha.append((w, f))

    def add_edge(self, x: int, y: int) -> None:
        if (x, y) in self.edges:
            return
        self.edges.add((x, y))
        for body in sorted(self.boxes[x]):
            self._push_box_along(x, y, body)

    def _push_box_along(self, x: int, y: int, body) -> None:
        self.schedule(y, body)
        if "trans" in self.flags:
            self.schedule(y, ("box", body))

    def apply_box(self, w: int, f) -> None:
        body = f[1]
        if body in self.boxes[w]:
            return
        self.boxes[w].add(body)
        if "refl" in self.flags:
            self.schedule(w, body)
        for x, y in sorted(self.edges):
            if x == w:
                self._push_box_along(x, y, body)

    def expand_dia(self, w: int, f) -> None:
        body = f[1]
        if "trans" in self.flags:
            blocker = self._find_blocker(w, body)
            if blocker is not None:
                self.add_edge(w, blocker)
                if "symm" in self.flags:
                    self.add_edge(blocker, w)
                return
        v = self.new_world(w)
        self.schedule(v, body)
        self.add_edge(w, v)
        if "symm" in self.flags:
            self.add_edge(v, w)

    def _find_blocker(self, w: int, body) -> int | None:
        # The fresh world would carry the dia body plus everything w's boxes
        # push along a new edge.  An ancestor already containing all of that
        # can serve as the successor instead; nothing new flows into it.
        wanted = {body}
        for boxed in self.boxes[w]:
            wanted.add(boxed)
            wanted.add(("box", boxed))
        u = self.parent[w]
        while u is not None:
            if wanted <= self.contents[u]:
                return u
            u = self.parent[u]
        if wanted <= self.contents[w]:
            return w
        return None


def _solve(branch: _Branch) -> _Branch | None:
    while True:
        if branch.closed:
            return None
        if branch.alpha:
            w, f = branch.alpha.popleft()
            if f[0] == "and":
                branch.schedule(w, f[1])
                branch.schedule(w, f[2])
            else:
                branch.apply_box(w, f)
            continue
        if branch.beta:
            w, f = branch.beta.popleft()
            for disjunct in (f[1], f[2]):
                twin = branch.clone()
                twin.schedule(w, disjunct)
                result = _solve(twin)
                if result is not None:
                    return result
            return None
        if branch.pi:
            w, f = branch.pi.popleft()
            branch.expand_dia(w, f)
            continue
        if "serial" in branch.flags:
            grew = False
            for w in range(len(branch.contents)):
                if branch.boxes[w] and not any(x == w for x, _ in branch.edges):
                    v = branch.new_world(w)
                    branch.add_edge(w, v)
                    grew = True
                    break
            if grew:
                continue
        return branch


_CLASS_FLAGS = {
    FrameClass.K: frozenset(),
    FrameClass.D: frozenset({"serial"}),
    FrameClass.T: frozenset({"refl"}),
    FrameClass.KB: frozenset({"symm"}),
    FrameClass.K4: frozenset({"trans"}),
    FrameClass.S4: frozenset({"refl", "trans"}),
}


def _extract(branch: _Branch, cls: FrameClass) -> tuple[Model, str]:
    n = len(branch.contents)
    edges = set(branch.edges)
    flags = branch.flags
    if "trans" in flags:
        grew = True
        while grew:
            grew = False
            for x, y in list(edges):
                for y2, z in list(edges):
                    if y2 == y and (x, z) not in edges:
                        edges.add((x, z))
                        grew = True
    if "refl" in flags:
        edges.update((i, i) for i in range(n))
    if "serial" in flags:
        with_succ = {x for x, _ in edges}
        edges.update((i, i) for i in range(n) if i not in with_succ)
    model, point = _model_of(branch.contents, edges)
    if not in_class(model, cls):
        raise DecideError(f"extracted model left class {cls.name}")
    return model, point


def _model_of(contents: list[set], edges) -> tuple[Model, str]:
    """Model on worlds u0.. with the given edges; a variable holds where its
    positive literal was recorded.  Pointed at u0."""
    worlds = tuple(f"u{i}" for i in range(len(contents)))
    rel = frozenset((worlds[x], worlds[y]) for x, y in edges)
    val: dict[str, set[str]] = {}
    for i, content in enumerate(contents):
        for f in content:
            if f[0] == "lit" and not f[2]:
                val.setdefault(f[1], set()).add(worlds[i])
    model = Model(worlds, rel, {p: frozenset(ws) for p, ws in val.items()})
    return model, worlds[0]


def _tableau_sat(f: Formula, cls: FrameClass) -> tuple[Model, str] | None:
    if cls is FrameClass.S5:
        return _s5_sat(f)
    branch = _Branch(_CLASS_FLAGS[cls], budget=[50_000])
    branch.new_world(None)
    branch.schedule(0, _nnf(f, False))
    result = _solve(branch)
    if result is None:
        return None
    return _extract(result, cls)


# ---------------------------------------------------------------------------
# S5: one clique suffices, so worlds share a global box store and each
# distinct dia body gets at most one witness world.


class _Clique:
    def __init__(self, budget: list[int]):
        self.budget = budget
        self.contents: list[set] = []
        self.global_boxes: list = []
        self.fired: set = set()
        self.alpha: deque = deque()
        self.beta: deque = deque()
        self.pi: deque = deque()
        self.closed = False

    def clone(self) -> "_Clique":
        twin = _Clique(self.budget)
        twin.contents = [set(c) for c in self.contents]
        twin.global_boxes = list(self.global_boxes)
        twin.fired = set(self.fired)
        twin.alpha = deque(self.alpha)
        twin.beta = deque(self.beta)
        twin.pi = deque(self.pi)
        twin.closed = self.closed
        return twin

    def new_world(self) -> int:
        self.contents.append(set())
        w = len(self.contents) - 1
        for body in self.global_boxes:
            self.schedule(w, body)
        return w

    def schedule(self, w: int, f) -> None:
        if f in self.contents[w]:
            return
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise DecideError("tableau expansion budget exhausted")
        self.contents[w].add(f)
        tag = f[0]
        if tag == "bot":
            self.closed = True
        elif tag == "lit":
            if ("lit", f[1], not f[2]) in self.contents[w]:
                self.closed = True
        elif tag == "top":
            pass
        elif tag == "or":
            self.beta.append((w, f))
        elif tag == "dia":
            self.pi.append((w, f))
        else:
            self.alpha.append((w, f))

    def apply_box(self, f) -> None:
        body = f[1]
        if body in self.global_boxes:
            return
        self.global_boxes.append(body)
        for w in range(len(self.contents)):
            self.schedule(w, body)


def _s5_solve(state: _Clique) -> _Clique | None:
    while True:
        if state.closed:
            return None
        if state.alpha:
            w, f = state.alpha.popleft()
            if f[0] == "and":
                state.schedule(w, f[1])
                state.schedule(w, f[2])
            else:
                state.apply_box(f)
            continue
        if state.beta:
            w, f = state.beta.popleft()
            for disjunct in (f[1], f[2]):
                twin = state.clone()
                twin.schedule(w, disjunct)
                result = _s5_solve(twin)
                if result is not None:
                    return result
            return None
        if state.pi:
            _, f = state.pi.popleft()
            if f[1] not in state.fired:
                state.fired.add(f[1])
                w = state.new_world()
                state.schedule(w, f[1])
            continue
        return state


def _s5_sat(f: Formula) -> tuple[Model, str] | None:
    state = _Clique(budget=[50_000])
    state.new_world()
    state.schedule(0, _nnf(f, False))
    result = _s5_solve(state)
    if result is None:
        return None
    n = len(result.contents)
    return _model_of(result.contents, [(a, b) for a in range(n) for b in range(n)])


# ---------------------------------------------------------------------------
# Public interface


def satisfiable(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> Verdict:
    """Is f true at some world of some model on a frame of the class?

    Tableau classes get a definitive answer.  Others are searched up to
    max_n worlds: a hit is definitive, exhaustion is answer=None.
    """
    if cls in _CLASS_FLAGS or cls is FrameClass.S5:
        hit = _tableau_sat(f, cls)
        if hit is None:
            return Verdict(f, cls, "sat", False, "tableau")
        _replay(hit, f, cls)
        return Verdict(f, cls, "sat", True, "tableau", hit)
    hit = sweep.search_sat(f, cls, max_n)
    if hit is None:
        return Verdict(f, cls, "sat", None, "bounded-search", None, max_n)
    _replay(hit, f, cls)
    return Verdict(f, cls, "sat", True, "bounded-search", hit, max_n)


def valid(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> Verdict:
    """Is f true everywhere on every model of the class?  Dual of satisfiable."""
    inner = satisfiable(Not(f), cls, max_n)
    answer = None if inner.answer is None else not inner.answer
    return Verdict(f, cls, "valid", answer, inner.method, inner.witness, inner.bound)


def _replay(hit: tuple[Model, str], f: Formula, cls: FrameClass) -> None:
    model, world = hit
    if not in_class(model, cls):
        raise DecideError(f"witness frame is not in {cls.name}")
    if not satisfies(model, world, f):
        raise DecideError("witness failed replay")


@dataclass(frozen=True)
class CrosscheckReport:
    formula: Formula
    frame_class: FrameClass
    verdict: Verdict
    search_hit: tuple[Model, str] | None
    hard_failure: bool
    note: str

    def __bool__(self) -> bool:
        return not self.hard_failure


def crosscheck(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> CrosscheckReport:
    """Pit the decision procedure against brute-force search up to max_n.

    A model found by search while the procedure says unsatisfiable is a hard
    failure.  Search exhaustion proves nothing (the model may just be big).
    """
    verdict = satisfiable(f, cls, max_n)
    hit = sweep.search_sat(f, cls, max_n)
    if hit is not None:
        _replay(hit, f, cls)
    if verdict.answer is False and hit is not None:
        return CrosscheckReport(f, cls, verdict, hit, True, "search refutes unsat")
    if verdict.answer is True and hit is None:
        note = "sat but no model within bound (witness is larger)"
    elif verdict.answer is None and hit is None:
        note = "both unresolved within bound"
    else:
        note = "agree"
    return CrosscheckReport(f, cls, verdict, hit, False, note)
