"""Satisfiability and validity over frame classes.

For the TABLEAU_CLASSES K, D, T, KB, K4, S4 and S5 one labelled tableau
decides the question and returns a concrete witness (model of the formula,
or countermodel of a validity).  It takes its rules from the class's frame
properties (cls.properties): reflexive, serial, symmetric and transitive
each switch on one rule.  In a transitive class a diamond gets an edge to
an existing world that holds all a fresh one would get, if there is one:
an ancestor or its own world, or, when the class is also reflexive and
symmetric and so every world sees every world, any world, which then gets
the back edge too.
The essence operator is handled by rewriting o f as f -> [] f on the fly,
which preserves truth at every world of every model.  TB and B5 fall back
to exhaustive search over small frames (sweep.search_sat); "no model up to
the bound" is reported as unknown, never as unsatisfiable.

The tableau works on interned, flattened NNF.  A disjunction opens no
choice point when one of its disjuncts is already present, or when the
complements of all disjuncts but one are (propagation).  A choice point
tries first the disjuncts that make no new world, those with no dia
outside every box; going back to it adds the complement of the disjunct
tried first when that has no modal part (semantic branching).  The search
backtracks by undoing a trail of its writes, and jumps over choice points
that a clash does not depend on.  It stores at most 50,000 formulas per question; past that it
raises DecideError.

Every witness is replayed through the model checker before being
returned; one that fails replay raises SelfCheckError instead of lying.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

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
from .kripke import FrameClass, FrameProperty, Model, bit_positions, in_class
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
    """The tableau's expansion budget is exhausted."""


class SelfCheckError(Exception):
    """Internal fault: a witness is outside its class or failed replay."""


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
    # choice points opened (disjunctions branched on, not those settled by
    # a present disjunct or by propagation) and choice points skipped by
    # backjumping.
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# Negation normal form, interned.  Node i is nodes[i], one of
#   ("lit", name, negated) ("top",) ("bot",)
#   ("and", a, b, ...) ("or", a, b, ...) ("box", a) ("dia", a)
# with children given by id.  Nodes come in complement pairs: node i ^ 1 is
# the NNF of ~(node i), so a complement is one xor.  and / or are n-ary and
# flat: no child of an or is an or, and no child of an and is an and.


_DUAL = {"top": "bot", "bot": "top", "and": "or", "or": "and", "box": "dia", "dia": "box"}


class _Nnf:
    """Hash-consed NNF nodes of the formulas given to of(), shared by every
    formula of one question.  Ids are handed out in traversal order, so they
    depend on the formula alone."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.modal: list[bool] = []  # the node has a box or dia inside
        self.spawns: list[bool] = []  # the node has a dia outside every box
        self.ids: dict[tuple, int] = {}
        self.memo: dict[int, int] = {}  # id(formula) -> node

    def intern(self, node: tuple, modal: bool) -> int:
        i = self.ids.get(node)
        if i is None:
            i = len(self.nodes)
            tag = node[0]
            if tag == "lit":
                dual = ("lit", node[1], not node[2])
            else:
                dual = (_DUAL[tag], *[k ^ 1 for k in node[1:]])
            self.nodes += (node, dual)
            self.modal += (modal, modal)
            if modal and (tag == "and" or tag == "or"):
                # Children, complements included, are interned before parents.
                spawns, kids = self.spawns, node[1:]
                self.spawns += (any(spawns[k] for k in kids), any(spawns[k ^ 1] for k in kids))
            else:
                self.spawns += (tag == "dia", tag == "box")
            self.ids[node] = i
            self.ids[dual] = i + 1
        return i

    def junction(self, tag: str, parts: list[int]) -> int:
        """The and / or of the given ids, flattened: a child with the same
        tag gives its children instead, and repeats go."""
        nodes = self.nodes
        kids: list[int] = []
        for k in parts:
            if nodes[k][0] == tag:
                kids += nodes[k][1:]
            else:
                kids.append(k)
        kids = list(dict.fromkeys(kids))
        if len(kids) == 1:
            return kids[0]
        return self.intern((tag, *kids), any(map(self.modal.__getitem__, kids)))

    def of(self, f: Formula) -> int:
        """The id of f's NNF; ~f's is that id ^ 1.  Each formula node is
        rewritten once, however often o and <-> share it.  The rewrite runs
        on a stack of tasks in the order of a recursive rewrite's calls, so
        ids come out in that order: (g,) leaves g's id on done, (g, parts)
        builds it from its children's, (g, neg, tag, parts, seen) collects a
        run's operands and (None, neg, parts) moves one from done to parts.
        """
        memo, done = self.memo, []
        tasks: list[tuple] = [(f,)]
        while tasks:
            task = tasks.pop()
            g = task[0]
            kind = type(g)
            if len(task) == 2:
                parts = task[1]
            elif len(task) != 1:
                if g is None:
                    task[2].append(done.pop() ^ task[1])
                else:
                    self._operands(tasks, *task)
                continue
            elif id(g) in memo:
                done.append(memo[id(g)])
                continue
            elif kind is And or kind is Or or kind is Implies:
                tag = "and" if kind is And else "or"
                parts, seen = [], set()
                tasks += [(g, parts), (g.right, False, tag, parts, seen),
                          (g.left, kind is Implies, tag, parts, seen)]
                continue
            elif kind is Not or kind is Box or kind is Ess:
                tasks += [(g, None), (g.sub,)]
                continue
            elif kind is Iff:
                tasks += [(g, None), (g.right,), (g.left,)]
                continue
            else:
                parts = None  # a leaf
            # g's children are rewritten: their ids are on done, or in parts.
            if kind is Var:
                i = self.intern(("lit", g.name, False), False)
            elif kind is Not:
                i = done.pop() ^ 1
            elif parts is not None:
                i = self.junction("and" if kind is And else "or", parts)
            elif kind is Box:
                i = self.intern(("box", done.pop()), True)
            elif kind is Ess:
                # o g  is  g -> [] g  pointwise.
                x = done.pop()
                i = self.junction("or", [x ^ 1, self.intern(("box", x), True)])
            elif kind is Iff:
                b, a = done.pop(), done.pop()
                i = self.junction("and", [self.junction("or", [a ^ 1, b]),
                                          self.junction("or", [b ^ 1, a])])
            elif kind is Top or kind is Bot:
                i = self.intern(("top",), False) ^ (kind is Bot)
            else:
                raise TypeError(f"not a formula: {g!r}")
            memo[id(g)] = i
            done.append(i)
        return done.pop()

    def _operands(self, tasks: list, g: Formula, neg: bool, tag: str, parts: list[int],
                  seen: set) -> None:
        # Collect into parts, left to right, the operands of the run of &, |
        # and -> below g (negated when neg) that rewrite to tag.  The run is
        # not interned node by node, so a long chain costs linear time, not
        # one node per prefix; a part shared within the run is walked once.
        while type(g) is Not:
            g, neg = g.sub, not neg
        kind = type(g)
        if kind is And:
            same = tag == ("or" if neg else "and")
        elif kind is Or or kind is Implies:
            same = tag == ("and" if neg else "or")
        else:
            same = False
        if not same or id(g) in self.memo:
            tasks += [(None, neg, parts), (g,)]
        elif (id(g), neg) not in seen:
            seen.add((id(g), neg))
            tasks += [(g.right, neg, tag, parts, seen),
                      (g.left, neg != (kind is Implies), tag, parts, seen)]


# ---------------------------------------------------------------------------
# Labelled tableau, with one rule per frame property of the class.  Every
# formula stored at a world maps to its dependency mask: bit k is set when the
# formula rests on the disjunct taken at the k-th open choice point.  A clash
# records the union of the masks of its two halves, so a choice point whose
# bit is missing from it played no part and its other disjuncts would close
# the same way.  A formula derived again keeps the mask it first came with.
# Boxes and edges carry masks too: a box pushed along an edge depends on both.
# The search keeps one state: put and push log each write as (container,
# key), key -1 for a list item, and undo deletes entries newest first.  A
# choice point saves only the trail length and the three queue heads.
# In a class that is reflexive, symmetric and transitive (universal) every
# world sees every world: each is linked both ways to the world it was made
# for.  So its worlds share one box store, and each box body goes to every
# world, made or yet to be made, with the box's own mask; nothing is copied
# along edges.

_BUDGET = 50_000


class _Branch:
    def __init__(self, props: tuple[FrameProperty, ...], nnf: _Nnf, stats: dict[str, int]):
        self.props = props
        self.universal = {FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC,
                          FrameProperty.TRANSITIVE} <= set(props)
        self.nnf = nnf
        self.nodes = nnf.nodes
        self.stats = stats  # budget and counters, never undone
        self.trail: list[tuple] = []
        self.contents: list[dict[int, int]] = []
        self.boxes: list[dict[int, int]] = []  # box formulas applied at each world
        self.parent: list[int | None] = []
        self.succ: list[dict[int, int]] = []  # edge x -> y as succ[x][y] = mask
        self.alpha: list[tuple[int, int]] = []
        self.beta: list[tuple[int, int]] = []
        self.pi: list[tuple[int, int]] = []
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

    def schedule(self, w: int, f: int, dep: int) -> None:
        content = self.contents[w]
        if f in content:
            return
        self.stats["expansions"] += 1
        if self.stats["expansions"] > _BUDGET:
            raise DecideError("tableau expansion budget exhausted")
        self.put(content, f, dep)
        tag = self.nodes[f][0]
        if tag == "lit":
            other = content.get(f ^ 1)
            if other is not None:
                self.clash = dep | other
        elif tag == "or":
            self.push(self.beta, (w, f))
        elif tag == "dia":
            self.push(self.pi, (w, f))
        elif tag == "bot":
            self.clash = dep
        elif tag == "top":
            pass
        else:  # and / box
            self.push(self.alpha, (w, f))

    def next_choice(self) -> tuple[int, int] | None:
        """Apply the deterministic rules until the branch closes, leaves
        nothing to do (None), or reaches a disjunction, returned as (w, f)."""
        heads = self.heads
        while self.clash is None:
            if heads[0] < len(self.alpha):
                w, f = self.alpha[heads[0]]
                heads[0] += 1
                node = self.nodes[f]
                if node[0] == "and":
                    dep = self.contents[w][f]
                    for g in node[1:]:
                        self.schedule(w, g, dep)
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

    def new_world(self, parent: int | None) -> int:
        v = len(self.contents)
        self.push(self.contents, {})
        self.push(self.boxes, self.boxes[0] if v and self.universal else {})
        self.push(self.parent, parent)
        self.push(self.succ, {})
        for f, dep in self.boxes[v].items():  # only a shared store has any yet
            self.schedule(v, self.nodes[f][1], dep)
        return v

    def add_edge(self, x: int, y: int, dep: int) -> None:
        if y in self.succ[x]:
            return
        self.put(self.succ[x], y, dep)
        if not self.universal:
            boxes = self.boxes[x]
            for f in sorted(boxes):
                self._push_box_along(y, f, boxes[f] | dep)

    def _push_box_along(self, y: int, f: int, dep: int) -> None:
        self.schedule(y, self.nodes[f][1], dep)
        if FrameProperty.TRANSITIVE in self.props:
            self.schedule(y, f, dep)

    def apply_box(self, w: int, f: int) -> None:
        if f in self.boxes[w]:
            return
        dep = self.contents[w][f]
        self.put(self.boxes[w], f, dep)
        if self.universal:
            for v in range(len(self.contents)):
                self.schedule(v, self.nodes[f][1], dep)
            return
        if FrameProperty.REFLEXIVE in self.props:
            self.schedule(w, self.nodes[f][1], dep)
        for y, edge_dep in sorted(self.succ[w].items()):
            self._push_box_along(y, f, dep | edge_dep)

    def expand_dia(self, w: int, f: int) -> None:
        body = self.nodes[f][1]
        dep = self.contents[w][f]
        blocked = None
        if FrameProperty.TRANSITIVE in self.props:
            blocked = self._find_blocker(w, body)
        if blocked is None:
            v = self.new_world(w)
            self.schedule(v, body, dep)
        else:
            v, wanted_dep = blocked
            dep |= wanted_dep
        self.add_edge(w, v, dep)
        if FrameProperty.SYMMETRIC in self.props:
            self.add_edge(v, w, dep)

    def _find_blocker(self, w: int, body: int) -> tuple[int, int] | None:
        # The fresh world would carry the dia body plus everything w's boxes
        # push along a new edge.  A world already containing all of that can
        # serve as the successor instead; nothing new flows into it.  In a
        # transitive class that is an ancestor of w, nearest first, or w
        # itself.  Where every world sees every world, it is the first world
        # in index order that holds the body (each holds every box body),
        # and its back edge brings w nothing new either.  The edge then
        # depends on the masks of those formulas there.
        wanted = {body}
        if self.universal:
            order: list[int] | range = range(len(self.contents))
        else:
            for f in self.boxes[w]:
                wanted.add(f)
                wanted.add(self.nodes[f][1])
            order = []
            u = self.parent[w]
            while u is not None:
                order.append(u)
                u = self.parent[u]
            order.append(w)
        for u in order:
            content = self.contents[u]
            if wanted <= content.keys():
                dep = 0
                for g in wanted:
                    dep |= content[g]
                return u, dep
        return None

    def grow(self) -> bool:
        # Seriality: the first world with boxes and no successor gets one.
        if FrameProperty.SERIAL in self.props:
            for w in range(len(self.contents)):
                if self.boxes[w] and not self.succ[w]:
                    self.add_edge(w, self.new_world(w), 0)
                    return True
        return False

    def model(self) -> tuple[Model, str]:
        """Model on worlds u0.. with the branch's edges, closed under the
        class's properties; a variable holds where its positive literal was
        recorded.  Pointed at u0."""
        n = len(self.contents)
        worlds = tuple(f"u{i}" for i in range(n))
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
        rel = []
        for x, row in enumerate(rows):
            if FrameProperty.REFLEXIVE in props or (FrameProperty.SERIAL in props and not row):
                row |= 1 << x
            rel += [(worlds[x], worlds[y]) for y in bit_positions(row)]
        val: dict[str, set[str]] = {}
        for world, content in zip(worlds, self.contents):
            for f in content:
                node = self.nodes[f]
                if node[0] == "lit" and not node[2]:
                    val.setdefault(node[1], set()).add(world)
        model = Model(worlds, frozenset(rel), {p: frozenset(ws) for p, ws in val.items()})
        return model, worlds[0]


def _search(state: _Branch) -> bool:
    """Depth-first search over disjunctions with dependency-directed
    backjumping; True once state holds the first open saturated branch.

    A disjunction taken at world w is settled without a choice point when
    it can be: skipped when a disjunct is already at w, and, when the
    complements of all its disjuncts but one are at w, that one is added
    with their masks (all of them: a clash).  Otherwise its open disjuncts
    are stably sorted, those that make no new world first, and the first
    runs in place with bit k added, k the choice point's depth; the
    stack keeps the trail length from before it.  When the branch closes,
    each choice point whose bit the clash lacks is popped unexplored.  The
    first one that took part undoes the trail to that length and takes the
    disjunction of its remaining open disjuncts, together with the
    complement of the first one when that has no box or dia inside (a modal
    complement would only spawn worlds).  Both depend on what the clash
    depended on instead of on bit k.
    """
    stats = state.stats
    nodes, modal, spawns = state.nodes, state.nnf.modal, state.nnf.spawns
    stack: list[tuple[int, tuple[int, int, int], int, list[int], int]] = []
    while True:
        choice = state.next_choice()
        if choice is not None:
            w, f = choice
            content = state.contents[w]
            dep = content[f]
            left = []
            for g in nodes[f][1:]:
                if g in content:
                    break
                mask = content.get(g ^ 1)
                if mask is None:
                    left.append(g)
                else:
                    dep |= mask
            else:
                if len(left) > 1:
                    left.sort(key=spawns.__getitem__)
                    stack.append((len(state.trail), tuple(state.heads), w, left, dep))
                    stats["choice_points"] += 1
                    state.schedule(w, left[0], dep | 1 << (len(stack) - 1))
                elif left:
                    state.schedule(w, left[0], dep)
                else:
                    state.clash = dep
            continue
        if state.clash is None:
            return True
        clash = state.clash
        while stack:
            length, heads, w, left, dep = stack.pop()
            bit = 1 << len(stack)
            if clash & bit:
                state.undo(length, heads)
                because = clash & ~bit
                if not modal[left[0]]:
                    state.schedule(w, left[0] ^ 1, because)
                state.schedule(w, state.nnf.junction("or", left[1:]), dep | because)
                break
            stats["backjumps"] += 1
        else:
            return False


def _tableau_sat(f: Formula, cls: FrameClass) -> tuple[tuple[Model, str] | None, dict]:
    stats = {"expansions": 0, "choice_points": 0, "backjumps": 0}
    nnf = _Nnf()
    root = _Branch(cls.properties, nnf, stats)
    root.new_world(None)
    root.schedule(0, nnf.of(f), 0)
    return (root.model() if _search(root) else None), stats


# ---------------------------------------------------------------------------
# Public interface


def satisfiable(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> Verdict:
    """Is f true at some world of some model on a frame of the class?

    Tableau classes get a definitive answer.  Others are searched up to
    max_n worlds (1..sweep.MAX_N, else ValueError): a hit is definitive,
    exhaustion is answer=None.  Either method's hit is replayed before it is
    returned.
    """
    if cls in TABLEAU_CLASSES:
        hit, stats = _tableau_sat(f, cls)
        verdict = Verdict(f, cls, "sat", hit is not None, "tableau", hit, stats=stats)
    else:
        hit = sweep.search_sat(f, cls, max_n)
        verdict = Verdict(f, cls, "sat", True if hit else None, "bounded-search", hit, max_n)
    if hit is not None:
        _replay(hit, f, cls)
    return verdict


def valid(f: Formula, cls: FrameClass, max_n: int = DEFAULT_BOUND) -> Verdict:
    """Is f true everywhere on every model of the class?  Dual of satisfiable."""
    inner = satisfiable(Not(f), cls, max_n)
    answer = None if inner.answer is None else not inner.answer
    return replace(inner, formula=f, question="valid", answer=answer)


def _replay(hit: tuple[Model, str], f: Formula, cls: FrameClass) -> None:
    model, world = hit
    if not in_class(model, cls):
        raise SelfCheckError(f"witness frame is not in {cls.name}")
    if not satisfies(model, world, f):
        raise SelfCheckError("witness failed replay")
