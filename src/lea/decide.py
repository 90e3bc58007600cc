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

The tableau search backtracks by undoing a trail of its writes, and jumps
over choice points that a clash does not depend on.  It stores at most
50,000 formulas per question; past that it raises DecideError.

Every witness produced here is replayed through the model checker before
being returned; a witness that fails replay raises instead of lying.
"""

from __future__ import annotations

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
    """NNF of f, or of ~f when neg.  o and <-> rewrite a child in both
    polarities, so each (node, polarity) is rewritten once per call; nested
    o would otherwise take 2^depth steps.  Shared subtuples change no value."""
    memo: dict[tuple[int, bool], tuple] = {}

    def nnf(f: Formula, neg: bool):
        key = (id(f), neg)
        if key in memo:
            return memo[key]
        if isinstance(f, Var):
            out = ("lit", f.name, neg)
        elif isinstance(f, Top):
            out = ("bot",) if neg else ("top",)
        elif isinstance(f, Bot):
            out = ("top",) if neg else ("bot",)
        elif isinstance(f, Not):
            out = nnf(f.sub, not neg)
        elif isinstance(f, And):
            out = ("or" if neg else "and", nnf(f.left, neg), nnf(f.right, neg))
        elif isinstance(f, Or):
            out = ("and" if neg else "or", nnf(f.left, neg), nnf(f.right, neg))
        elif isinstance(f, Implies):
            out = ("and" if neg else "or", nnf(f.left, not neg), nnf(f.right, neg))
        elif isinstance(f, Iff):
            if neg:
                out = ("or", ("and", nnf(f.left, False), nnf(f.right, True)),
                       ("and", nnf(f.left, True), nnf(f.right, False)))
            else:
                out = ("and", ("or", nnf(f.left, True), nnf(f.right, False)),
                       ("or", nnf(f.right, True), nnf(f.left, False)))
        elif isinstance(f, Box):
            out = ("dia", nnf(f.sub, True)) if neg else ("box", nnf(f.sub, False))
        elif isinstance(f, Ess):
            # o g  is  g -> [] g  pointwise.
            if neg:
                out = ("and", nnf(f.sub, False), ("dia", nnf(f.sub, True)))
            else:
                out = ("or", nnf(f.sub, True), ("box", nnf(f.sub, False)))
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = out
        return out

    return nnf(f, neg)


# ---------------------------------------------------------------------------
# Tableau state shared by both calculi.  Every formula stored at a world maps
# to its dependency mask: bit k is set when the formula rests on the disjunct
# taken at the k-th open choice point.  A clash records the union of the
# masks of its two halves, so a choice point whose bit is missing from it
# played no part and its second disjunct would close the same way.  A formula
# derived again keeps the mask it first came with.  The search keeps one
# state: put and push log each write as (container, key), key -1 for a list
# item, and undo deletes entries newest first.  A choice point saves only the
# trail length and the three queue heads.

_BUDGET = 50_000


class _Tableau:
    def __init__(self, stats: dict[str, int]):
        self.stats = stats  # budget and counters, never undone
        self.trail: list[tuple] = []
        self.contents: list[dict] = []
        self.alpha: list = []
        self.beta: list = []
        self.pi: list = []
        self.heads = [0, 0, 0]  # next unread item of alpha, beta, pi
        self.clash: int | None = None

    def put(self, table: dict, key, value) -> None:
        table[key] = value
        self.trail.append((table, key))

    def push(self, items: list, item) -> None:
        items.append(item)
        self.trail.append((items, -1))

    def undo(self, length: int, heads: tuple[int, int, int]) -> None:
        while len(self.trail) > length:
            container, key = self.trail.pop()
            del container[key]
        self.heads[:] = heads
        self.clash = None

    def schedule(self, w: int, f, dep: int) -> None:
        content = self.contents[w]
        if f in content:
            return
        self.stats["expansions"] += 1
        if self.stats["expansions"] > _BUDGET:
            raise DecideError("tableau expansion budget exhausted")
        self.put(content, f, dep)
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
            self.push(self.beta, (w, f))
        elif tag == "dia":
            self.push(self.pi, (w, f))
        else:  # and / box
            self.push(self.alpha, (w, f))

    def next_choice(self):
        """Apply the deterministic rules until the branch closes, leaves
        nothing to do (None), or reaches a disjunction, returned as (w, f)."""
        heads = self.heads
        while self.clash is None:
            if heads[0] < len(self.alpha):
                w, f = self.alpha[heads[0]]
                heads[0] += 1
                if f[0] == "and":
                    dep = self.contents[w][f]
                    self.schedule(w, f[1], dep)
                    self.schedule(w, f[2], dep)
                else:
                    self.apply_box(w, f)
            elif heads[1] < len(self.beta):
                heads[1] += 1
                return self.beta[heads[1] - 1]
            elif heads[2] < len(self.pi):
                heads[2] += 1
                self.expand_dia(*self.pi[heads[2] - 1])
            elif not self.grow():
                return None
        return None

    def grow(self) -> bool:
        return False


def _search(state: _Tableau) -> bool:
    """Depth-first search over disjunctions with dependency-directed
    backjumping; True once state holds the first open saturated branch.

    The first disjunct of choice point k runs in place with bit k added; the
    stack keeps the trail length from before it.  When the branch closes,
    each choice point whose bit the clash lacks is popped unexplored.  The
    first one that took part undoes the trail to that length and takes the
    second disjunct, which depends on what the clash depended on instead of
    on bit k.  Only closed subtrees are skipped, so the open branch found is
    the one plain chronological backtracking finds first.
    """
    stats = state.stats
    stack: list[tuple[int, tuple[int, int, int], int, tuple, int]] = []
    while True:
        choice = state.next_choice()
        if state.clash is None:
            if choice is None:
                return True
            w, f = choice
            dep = state.contents[w][f]
            stack.append((len(state.trail), tuple(state.heads), w, f, dep))
            stats["choice_points"] += 1
            state.schedule(w, f[1], dep | 1 << (len(stack) - 1))
            continue
        clash = state.clash
        while stack:
            length, heads, w, f, dep = stack.pop()
            bit = 1 << len(stack)
            if clash & bit:
                state.undo(length, heads)
                state.schedule(w, f[2], dep | (clash & ~bit))
                break
            stats["backjumps"] += 1
        else:
            return False


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
        self.succ: list[dict[int, int]] = []  # edge x -> y as succ[x][y] = mask

    def new_world(self, parent: int | None) -> int:
        self.push(self.contents, {})
        self.push(self.boxes, {})
        self.push(self.parent, parent)
        self.push(self.succ, {})
        return len(self.contents) - 1

    def add_edge(self, x: int, y: int, dep: int) -> None:
        if y in self.succ[x]:
            return
        self.put(self.succ[x], y, dep)
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
        self.put(self.boxes[w], body, dep)
        if FrameProperty.REFLEXIVE in self.props:
            self.schedule(w, body, dep)
        for y, edge_dep in sorted(self.succ[w].items()):
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
                if self.boxes[w] and not self.succ[w]:
                    self.add_edge(w, self.new_world(w), 0)
                    return True
        return False

    def model(self) -> tuple[Model, str]:
        n = len(self.contents)
        rows = [sum(1 << y for y in succ) for succ in self.succ]  # bit y: edge to y
        props = self.props
        if FrameProperty.TRANSITIVE in props:
            # Warshall: a world that reaches k reaches all that k reaches.
            for k in range(n):
                if rows[k]:
                    bit = 1 << k
                    for x in range(n):
                        if rows[x] & bit:
                            rows[x] |= rows[k]
        edges = []
        for x, row in enumerate(rows):
            if FrameProperty.REFLEXIVE in props or (FrameProperty.SERIAL in props and not row):
                row |= 1 << x
            while row:
                low = row & -row
                edges.append((x, low.bit_length() - 1))
                row ^= low
        return _model_of(self.contents, edges)


# ---------------------------------------------------------------------------
# S5: one clique suffices, so worlds share a global box store and each
# distinct dia body gets at most one witness world.


class _Clique(_Tableau):
    def __init__(self, stats: dict[str, int]):
        super().__init__(stats)
        self.global_boxes: dict = {}
        self.fired: dict = {}  # dia bodies given a witness; values unused

    def new_world(self) -> int:
        self.push(self.contents, {})
        w = len(self.contents) - 1
        for body, dep in self.global_boxes.items():
            self.schedule(w, body, dep)
        return w

    def apply_box(self, w: int, f) -> None:
        body = f[1]
        if body in self.global_boxes:
            return
        dep = self.contents[w][f]
        self.put(self.global_boxes, body, dep)
        for v in range(len(self.contents)):
            self.schedule(v, body, dep)

    def expand_dia(self, w: int, f) -> None:
        if f[1] not in self.fired:
            self.put(self.fired, f[1], True)
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
    return (root.model() if _search(root) else None), stats


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
