"""Satisfiability and validity over frame classes.

For the TABLEAU_CLASSES K, D, T, KB, K4, S4 and S5 a tableau decides the
question and returns a concrete witness (model of the formula, or
countermodel of a validity).  S5 has its own one-clique calculus; the
labelled tableau for the other six takes its rules from the class's frame
properties (cls.properties): reflexive, serial, symmetric and transitive
each switch on one rule.  The essence operator is handled by rewriting
o f as f -> [] f on the fly, which preserves truth at every world of every
model.  TB and B5 fall back to exhaustive search over small frames
(sweep.search_sat); "no model up to the bound" is reported as unknown,
never as unsatisfiable.

The tableau search runs on an explicit stack and backjumps over choice
points that a clash does not depend on.  It stores at most 50,000 formulas
per question; past that it raises DecideError.

Every witness produced here is replayed through the model checker before
being returned; a witness that fails replay raises instead of lying.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

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
from .kripke import FrameClass, FrameProperty, Model, in_class
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
    # Tableau cost: formulas stored ("expansions", the budgeted count),
    # choice points opened and choice points skipped by backjumping.
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)


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
# Tableau state shared by both calculi.  Every formula stored at a world maps
# to its dependency mask: bit k is set when the formula rests on the disjunct
# taken at the k-th open choice point.  A clash records the union of the
# masks of its two halves, so a choice point whose bit is missing from it
# played no part and its second disjunct would close the same way.  A
# formula derived again keeps the mask it first came with.

_BUDGET = 50_000


class _Tableau:
    def __init__(self, stats: dict[str, int]):
        self.stats = stats  # shared by every clone: budget and counters
        self.contents: list[dict] = []
        self.alpha: deque = deque()
        self.beta: deque = deque()
        self.pi: deque = deque()
        self.clash: int | None = None

    def clone(self):
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.contents = [dict(c) for c in self.contents]
        twin.alpha = deque(self.alpha)
        twin.beta = deque(self.beta)
        twin.pi = deque(self.pi)
        return twin

    def schedule(self, w: int, f, dep: int) -> None:
        content = self.contents[w]
        if f in content:
            return
        self.stats["expansions"] += 1
        if self.stats["expansions"] > _BUDGET:
            raise DecideError("tableau expansion budget exhausted")
        content[f] = dep
        tag = f[0]
        if tag == "bot":
            self.clash = dep
        elif tag == "lit":
            other = content.get(("lit", f[1], not f[2]))
            if other is not None:
                self.clash = dep | other
        elif tag == "top":
            pass
        elif tag == "or":
            self.beta.append((w, f))
        elif tag == "dia":
            self.pi.append((w, f))
        else:  # and / box
            self.alpha.append((w, f))

    def next_choice(self):
        """Apply the deterministic rules until the branch closes, leaves
        nothing to do (None), or reaches a disjunction, returned as (w, f)."""
        while self.clash is None:
            if self.alpha:
                w, f = self.alpha.popleft()
                if f[0] == "and":
                    dep = self.contents[w][f]
                    self.schedule(w, f[1], dep)
                    self.schedule(w, f[2], dep)
                else:
                    self.apply_box(w, f)
            elif self.beta:
                return self.beta.popleft()
            elif self.pi:
                self.expand_dia(*self.pi.popleft())
            elif not self.grow():
                return None
        return None

    def grow(self) -> bool:
        return False


def _search(state: _Tableau) -> _Tableau | None:
    """Depth-first search over disjunctions with dependency-directed
    backjumping; returns the first open saturated branch, or None.

    The first disjunct of choice point k runs in place with bit k added;
    the stack keeps a copy of the state from before it.  When the branch
    closes, every choice point whose bit is missing from the clash is
    popped unexplored.  The first one that took part resumes from its
    copy with the second disjunct, which depends on what the first
    disjunct's clash depended on instead of on bit k.  Only closed
    subtrees are skipped, so the open branch found is the one plain
    chronological backtracking finds first.
    """
    stats = state.stats
    stack: list[tuple[_Tableau, int, tuple, int]] = []
    while True:
        choice = state.next_choice()
        if state.clash is None:
            if choice is None:
                return state
            w, f = choice
            dep = state.contents[w][f]
            stack.append((state.clone(), w, f, dep))
            stats["choice_points"] += 1
            state.schedule(w, f[1], dep | 1 << (len(stack) - 1))
            continue
        clash = state.clash
        while stack:
            saved, w, f, dep = stack.pop()
            bit = 1 << len(stack)
            if clash & bit:
                state = saved
                state.schedule(w, f[2], dep | (clash & ~bit))
                break
            stats["backjumps"] += 1
        else:
            return None


# ---------------------------------------------------------------------------
# Labelled tableau for K, D, T, KB, K4, S4, with one rule per frame
# property of the class.  Box bodies and edges carry dependency masks too:
# a box pushed along an edge depends on both.


class _Branch(_Tableau):
    def __init__(self, props: tuple[FrameProperty, ...], stats: dict[str, int]):
        super().__init__(stats)
        self.props = props
        self.boxes: list[dict] = []
        self.parent: list[int | None] = []
        self.edges: dict[tuple[int, int], int] = {}

    def clone(self) -> "_Branch":
        twin = super().clone()
        twin.boxes = [dict(b) for b in self.boxes]
        twin.parent = list(self.parent)
        twin.edges = dict(self.edges)
        return twin

    def new_world(self, parent: int | None) -> int:
        self.contents.append({})
        self.boxes.append({})
        self.parent.append(parent)
        return len(self.contents) - 1

    def add_edge(self, x: int, y: int, dep: int) -> None:
        if (x, y) in self.edges:
            return
        self.edges[(x, y)] = dep
        boxes = self.boxes[x]
        for body in sorted(boxes):
            self._push_box_along(y, body, boxes[body] | dep)

    def _push_box_along(self, y: int, body, dep: int) -> None:
        self.schedule(y, body, dep)
        if FrameProperty.TRANSITIVE in self.props:
            self.schedule(y, ("box", body), dep)

    def apply_box(self, w: int, f) -> None:
        body = f[1]
        if body in self.boxes[w]:
            return
        dep = self.contents[w][f]
        self.boxes[w][body] = dep
        if FrameProperty.REFLEXIVE in self.props:
            self.schedule(w, body, dep)
        for (x, y), edge_dep in sorted(self.edges.items()):
            if x == w:
                self._push_box_along(y, body, dep | edge_dep)

    def expand_dia(self, w: int, f) -> None:
        body = f[1]
        dep = self.contents[w][f]
        if FrameProperty.TRANSITIVE in self.props:
            blocked = self._find_blocker(w, body)
            if blocked is not None:
                blocker, wanted_dep = blocked
                self.add_edge(w, blocker, dep | wanted_dep)
                return
        v = self.new_world(w)
        self.schedule(v, body, dep)
        self.add_edge(w, v, dep)
        if FrameProperty.SYMMETRIC in self.props:
            self.add_edge(v, w, dep)

    def _find_blocker(self, w: int, body) -> tuple[int, int] | None:
        # The fresh world would carry the dia body plus everything w's boxes
        # push along a new edge.  An ancestor already containing all of that
        # can serve as the successor instead; nothing new flows into it.
        # The edge then depends on the masks of those formulas there.
        wanted = {body}
        for boxed in self.boxes[w]:
            wanted.add(boxed)
            wanted.add(("box", boxed))
        u = self.parent[w]
        while u is not None and not wanted <= self.contents[u].keys():
            u = self.parent[u]
        if u is None:
            if not wanted <= self.contents[w].keys():
                return None
            u = w
        content = self.contents[u]
        dep = 0
        for g in wanted:
            dep |= content[g]
        return u, dep

    def grow(self) -> bool:
        # Seriality: the first world with boxes and no successor gets one.
        if FrameProperty.SERIAL in self.props:
            for w in range(len(self.contents)):
                if self.boxes[w] and not any(x == w for x, _ in self.edges):
                    self.add_edge(w, self.new_world(w), 0)
                    return True
        return False

    def model(self) -> tuple[Model, str]:
        n = len(self.contents)
        edges = set(self.edges)
        props = self.props
        if FrameProperty.TRANSITIVE in props:
            grew = True
            while grew:
                grew = False
                for x, y in list(edges):
                    for y2, z in list(edges):
                        if y2 == y and (x, z) not in edges:
                            edges.add((x, z))
                            grew = True
        if FrameProperty.REFLEXIVE in props:
            edges.update((i, i) for i in range(n))
        if FrameProperty.SERIAL in props:
            with_succ = {x for x, _ in edges}
            edges.update((i, i) for i in range(n) if i not in with_succ)
        return _model_of(self.contents, edges)


# ---------------------------------------------------------------------------
# S5: one clique suffices, so worlds share a global box store and each
# distinct dia body gets at most one witness world.


class _Clique(_Tableau):
    def __init__(self, stats: dict[str, int]):
        super().__init__(stats)
        self.global_boxes: dict = {}
        self.fired: set = set()

    def clone(self) -> "_Clique":
        twin = super().clone()
        twin.global_boxes = dict(self.global_boxes)
        twin.fired = set(self.fired)
        return twin

    def new_world(self) -> int:
        self.contents.append({})
        w = len(self.contents) - 1
        for body, dep in self.global_boxes.items():
            self.schedule(w, body, dep)
        return w

    def apply_box(self, w: int, f) -> None:
        body = f[1]
        if body in self.global_boxes:
            return
        dep = self.contents[w][f]
        self.global_boxes[body] = dep
        for v in range(len(self.contents)):
            self.schedule(v, body, dep)

    def expand_dia(self, w: int, f) -> None:
        if f[1] not in self.fired:
            self.fired.add(f[1])
            dep = self.contents[w][f]
            self.schedule(self.new_world(), f[1], dep)

    def model(self) -> tuple[Model, str]:
        n = len(self.contents)
        return _model_of(self.contents, [(a, b) for a in range(n) for b in range(n)])


def _model_of(contents: list[dict], edges) -> tuple[Model, str]:
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


def _tableau_sat(f: Formula, cls: FrameClass) -> tuple[tuple[Model, str] | None, dict]:
    stats = {"expansions": 0, "choice_points": 0, "backjumps": 0}
    if cls is FrameClass.S5:
        root: _Tableau = _Clique(stats)
        root.new_world()
    else:
        root = _Branch(cls.properties, stats)
        root.new_world(None)
    root.schedule(0, _nnf(f, False), 0)
    result = _search(root)
    return (None if result is None else result.model()), stats


# ---------------------------------------------------------------------------
# Public interface


def satisfiable(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> Verdict:
    """Is f true at some world of some model on a frame of the class?

    Tableau classes get a definitive answer.  Others are searched up to
    max_n worlds (1..sweep.MAX_N, else ValueError): a hit is definitive,
    exhaustion is answer=None.
    """
    if cls in TABLEAU_CLASSES:
        hit, stats = _tableau_sat(f, cls)
        if hit is None:
            return Verdict(f, cls, "sat", False, "tableau", stats=stats)
        _replay(hit, f, cls)
        return Verdict(f, cls, "sat", True, "tableau", hit, stats=stats)
    hit = sweep.search_sat(f, cls, max_n)
    if hit is None:
        return Verdict(f, cls, "sat", None, "bounded-search", None, max_n)
    _replay(hit, f, cls)
    return Verdict(f, cls, "sat", True, "bounded-search", hit, max_n)


def valid(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> Verdict:
    """Is f true everywhere on every model of the class?  Dual of satisfiable."""
    inner = satisfiable(Not(f), cls, max_n)
    answer = None if inner.answer is None else not inner.answer
    return Verdict(f, cls, "valid", answer, inner.method, inner.witness, inner.bound,
                   inner.stats)


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
