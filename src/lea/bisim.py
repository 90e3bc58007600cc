"""Essence-style bisimulations, model contraction and bounded equivalence.

The forth/back conditions here are weaker than the usual box ones: a
successor t of s only needs a matching successor of s' when the pair (s, t)
is NOT itself in the relation.  Box-bisimilar worlds are always bisimilar
in this sense; the converse fails (a reflexive p-world and an isolated
p-world are related by {(s, t)} even though [] F tells them apart).

One partition-refinement engine, _rounds, serves every question here.  The
essence flavour exempts each world's own block, as the "(s, t) not in Z"
clause does; its final partition is the largest bisimulation (proof at
largest_circ_bisimulation).

Round r is depth r: worlds share a block after r rounds exactly when they
agree on every essence formula of modal depth <= r over the model's
variables (box formulas without the exemption).  By induction, g of depth
r - 1 holds on a union of round-(r - 1) blocks, so o g at x depends only on
x's block and the blocks of x's successors outside it: x's round-r block.
Conversely, each round-r block X has a formula chi_X true exactly on X:
its literals at round 0; then chi of its round-(r - 1) block, ~o ~chi_C
("has a successor in C") for each C in its key and o ~chi_C for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from .formula import And, Ess, Formula, Not, Var
from .kripke import Model, PointedModel, disjoint_union


@dataclass(frozen=True)
class BisimRelation:
    carrier: Model
    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class BisimViolation:
    """First failed condition; falsy so checks read naturally."""

    condition: str  # "empty", "inv", "forth" or "back"
    pair: tuple[str, str] | None = None
    world: str | None = None

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        if self.condition == "empty":
            return "relation is empty"
        s = f"{self.condition} fails at pair {self.pair}"
        if self.world is not None:
            s += f" for successor {self.world!r}"
        return s


def pairs_to_obj(z: BisimRelation) -> dict:
    order = {w: i for i, w in enumerate(z.carrier.worlds)}
    return {
        "pairs": [
            list(p) for p in sorted(z.pairs, key=lambda p: (order[p[0]], order[p[1]]))
        ]
    }


def pairs_from_obj(obj: object) -> list[tuple[str, str]]:
    if not isinstance(obj, dict) or set(obj) != {"pairs"}:
        raise ValueError('expected an object with a single "pairs" key')
    out = []
    for entry in obj["pairs"]:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(x, str) for x in entry)
        ):
            raise ValueError(f"pair entries must be two world ids: {entry!r}")
        out.append((entry[0], entry[1]))
    return out


def is_circ_bisimulation(z: BisimRelation) -> bool | BisimViolation:
    """Check the essence-style bisimulation conditions on z.

    Returns True, or a falsy BisimViolation naming the first failure in
    lexicographic pair order.
    """
    m = z.carrier
    idx = m.index
    pos = idx.pos
    for s, t in z.pairs:
        if s not in pos or t not in pos:
            raise ValueError(f"pair ({s!r}, {t!r}) is not over the carrier's worlds")
    if not z.pairs:
        return BisimViolation("empty")
    zrow, zcol = _pair_masks(idx.n, [(pos[s], pos[t]) for s, t in z.pairs])
    for s, s2 in sorted(z.pairs):
        bad = _pair_violation(idx, zrow, zcol, pos[s], pos[s2])
        if bad is not None:
            condition, world = bad
            return BisimViolation(
                condition, (s, s2), m.worlds[world] if world is not None else None
            )
    return True


def _pair_masks(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    # zrow[s]: partners of s used on the left; zcol[t]: partners of t on the right.
    zrow = [0] * n
    zcol = [0] * n
    for i, j in pairs:
        zrow[i] |= 1 << j
        zcol[j] |= 1 << i
    return zrow, zcol


def _pair_violation(idx, zrow, zcol, i: int, j: int) -> tuple[str, int | None] | None:
    if idx.sig[i] != idx.sig[j]:
        return ("inv", None)
    # forth: each successor t of i with (i, t) outside Z needs a partner
    # among j's successors; back: the same from j, with partners among i's.
    for condition, s, partners, s2 in (("forth", i, zrow, j), ("back", j, zcol, i)):
        pending = idx.succ[s] & ~zrow[s]
        t = 0
        while pending:
            if pending & 1 and not partners[t] & idx.succ[s2]:
                return (condition, t)
            pending >>= 1
            t += 1
    return None


def _rounds(m: Model, exempt: bool) -> Iterator[list[int]]:
    """Block of each world after each round: the valuation signatures at
    round 0, then each round keys a world by its block and its successors'
    blocks, less its own when exempt, until the number of blocks stops
    growing.  Blocks are numbered in the order of their first world."""
    idx = m.index
    succs: list[list[int]] = [[] for _ in range(idx.n)]
    for i, j in idx.edges:
        succs[i].append(j)
    ids: dict[object, int] = {}
    block = [ids.setdefault(sig, len(ids)) for sig in idx.sig]
    while True:
        yield block
        count, ids = len(ids), {}
        keyed = []
        for b, out in zip(block, succs):
            seen = {block[t] for t in out}
            if exempt:
                seen.discard(b)
            keyed.append(ids.setdefault((b, frozenset(seen)), len(ids)))
        if len(ids) == count:
            return
        block = keyed


def _blocks(m: Model, exempt: bool) -> list[int]:
    """The last partition of _rounds."""
    for block in _rounds(m, exempt):
        pass
    return block


def _classes(m: Model, block: Sequence[int] | None = None) -> list[list[str]]:
    members: dict[int, list[str]] = {}
    for w, b in zip(m.worlds, _blocks(m, exempt=True) if block is None else block):
        members.setdefault(b, []).append(w)
    return list(members.values())


def largest_circ_bisimulation(m: Model, block: Sequence[int] | None = None) -> BisimRelation:
    """The union Z of every relation on m passing is_circ_bisimulation.

    Z is exactly "same block" of the partition P = _blocks(m, exempt=True),
    so it is an equivalence relation.  A caller that has P passes it as
    block, and m is not refined again.

    (Z within P) By induction on the rounds.  The signatures split no pair
    of Z, by inv.  Let Z lie within the blocks of one round, (s, t) be in
    Z, and u be a successor of s with P(u) != P(s).  Then (s, u) is not in
    Z, so forth gives a successor v of t with (u, v) in Z, hence
    P(v) = P(u) != P(t).  Back is symmetric, so s and t get one key.

    (P within Z) At the end the worlds of one block share a key.  So if
    P(s) = P(t) and u is a successor of s with P(u) != P(s), P(u) is in
    t's key: some successor v of t has P(v) = P(u), as forth asks of
    "same block".  Back is symmetric and inv holds from the start, so
    "same block" is a bisimulation and lies within Z.
    """
    return BisimRelation(
        m, frozenset((s, t) for ws in _classes(m, block) for s in ws for t in ws)
    )


def _same_block(
    a: PointedModel, b: PointedModel, exempt: bool
) -> tuple[bool, Model, list[int]]:
    """Whether the points share a block of their disjoint union, with the
    union and its partition."""
    union = disjoint_union(a.model, b.model)
    block, pos = _blocks(union, exempt), union.index.pos
    return block[pos["L:" + a.point]] == block[pos["R:" + b.point]], union, block


def circ_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Essence-style bisimilarity of the two points, via the disjoint union."""
    return _same_block(a, b, exempt=True)[0]


def circ_certificate(a: PointedModel, b: PointedModel) -> BisimRelation | None:
    """The largest circ bisimulation of the disjoint union (worlds L:w and
    R:w) when it relates the two points, else None: one refinement either
    way, and pairs only for an affirmative answer."""
    same, union, block = _same_block(a, b, exempt=True)
    return largest_circ_bisimulation(union, block) if same else None


def box_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Ordinary modal bisimilarity of the two points: the same refinement
    without the exemption."""
    return _same_block(a, b, exempt=False)[0]


def bounded_equivalent(
    a: PointedModel, b: PointedModel, names: Sequence[str], depth: int
) -> bool | Formula:
    """Do a and b agree on every essence formula over names up to depth?

    True when they share a block after depth rounds of the essence
    refinement of their union, its valuation cut down to names.  Otherwise a
    separator over names, true at a, false at b and as deep as the first
    round that splits them, so none is shallower (Cleaveland, CAV 1990): a
    literal at round 0, and at round r, ~o ~g where x has a successor t in a
    round-(r - 1) block that no successor of y reaches and g conjoins the
    separators of t from x and from each successor of y.  depth must be at
    least 0 (ValueError).
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, not {depth}")
    union = disjoint_union(a.model, b.model)
    union = Model(union.worlds, union.rel, {p: union.val[p] for p in names if p in union.val})
    idx = union.index
    rounds = list(islice(_rounds(union, exempt=True), depth + 1))
    x, y = idx.pos["L:" + a.point], idx.pos["R:" + b.point]
    if rounds[-1][x] == rounds[-1][y]:
        return True
    succs: list[list[int]] = [[] for _ in range(idx.n)]
    for i, j in idx.edges:
        succs[i].append(j)

    @cache
    def separator(x: int, y: int) -> Formula:
        r = next(r for r, block in enumerate(rounds) if block[x] != block[y])
        if r == 0:
            p = next(p for p, bits in idx.val_bits.items() if (bits >> x ^ bits >> y) & 1)
            return Var(p) if idx.val_bits[p] >> x & 1 else Not(Var(p))
        block = rounds[r - 1]
        reached = {block[t] for t in succs[y]}
        t = next((t for t in succs[x] if block[t] != block[x] and block[t] not in reached), None)
        if t is None:
            return _negate(separator(y, x))
        # One w per round-(r - 1) block: a block agrees on shallower formulas.
        g = [separator(t, w) for w in {block[w]: w for w in (x, *succs[y])}.values()]
        while len(g) > 1:  # balanced: g nests log2 len(g) deep
            g = [And(*g[i : i + 2]) if i + 1 < len(g) else g[i] for i in range(0, len(g), 2)]
        return Not(Ess(_negate(g[0])))

    return separator(x, y)


def _negate(f: Formula) -> Formula:
    return f.sub if isinstance(f, Not) else Not(f)


# ---------------------------------------------------------------------------
# Contraction


@dataclass(frozen=True)
class Contraction:
    model: Model
    class_of: Mapping[str, str]


def contract(m: Model) -> Contraction:
    """Quotient of m by its largest essence-style bisimulation.

    The classes are the blocks of that bisimulation's partition (see
    largest_circ_bisimulation).  Class ids are the bracketed least member,
    classes relate when any of their members do, and a class satisfies p
    when its members do.  Each world of m stays bisimilar to its class in
    the quotient.
    """
    class_of: dict[str, str] = {}
    order: list[str] = []
    for ws in _classes(m):
        cid = "[" + min(ws) + "]"
        order.append(cid)
        for w in ws:
            class_of[w] = cid
    rel = frozenset(
        (class_of[s], class_of[t]) for s, t in m.rel
    )
    val = {p: frozenset(class_of[w] for w in ws) for p, ws in m.val.items()}
    return Contraction(Model(tuple(order), rel, val), class_of)
