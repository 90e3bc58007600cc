"""Bisimulations matched to the essence operator, and model contraction.

The forth/back conditions here are weaker than the usual box ones: a
successor t of s only needs a matching successor of s' when the pair (s, t)
is NOT itself in the relation.  Box-bisimilar worlds are always bisimilar
in this sense; the converse fails (a reflexive p-world and an isolated
p-world are related by {(s, t)} even though [] F tells them apart).

One partition-refinement engine, _blocks, serves both flavours.  For the
essence flavour it exempts each world's own block, as the "(s, t) not in Z"
clause does; its partition is then the largest bisimulation (proof at
largest_circ_bisimulation), from which contract reads its classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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


def _blocks(m: Model, exempt: bool) -> list[int]:
    """Block of each world in the coarsest partition that refines the
    valuation signatures and gives the worlds of a block one key: the set
    of their successors' blocks, less their own block when exempt.

    Each round re-keys every world until the number of blocks stops
    growing.  Blocks are numbered in the order of their first world.
    """
    idx = m.index
    succs: list[list[int]] = [[] for _ in range(idx.n)]
    for i, j in idx.edges:
        succs[i].append(j)
    ids: dict[object, int] = {}
    block = [ids.setdefault(sig, len(ids)) for sig in idx.sig]
    while True:
        count, ids = len(ids), {}
        keyed = []
        for b, out in zip(block, succs):
            seen = {block[t] for t in out}
            if exempt:
                seen.discard(b)
            keyed.append(ids.setdefault((b, frozenset(seen)), len(ids)))
        if len(ids) == count:
            return keyed
        block = keyed


def _classes(m: Model) -> list[list[str]]:
    members: dict[int, list[str]] = {}
    for w, b in zip(m.worlds, _blocks(m, exempt=True)):
        members.setdefault(b, []).append(w)
    return list(members.values())


def largest_circ_bisimulation(m: Model) -> BisimRelation:
    """The union Z of every relation on m passing is_circ_bisimulation.

    Z is exactly "same block" of the partition P = _blocks(m, exempt=True),
    so it is an equivalence relation.

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
        m, frozenset((s, t) for ws in _classes(m) for s in ws for t in ws)
    )


def _same_block(a: PointedModel, b: PointedModel, exempt: bool) -> bool:
    union = disjoint_union(a.model, b.model)
    block, pos = _blocks(union, exempt), union.index.pos
    return block[pos["L:" + a.point]] == block[pos["R:" + b.point]]


def circ_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Essence-style bisimilarity of the two points, via the disjoint union."""
    return _same_block(a, b, exempt=True)


def box_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Ordinary modal bisimilarity of the two points: the same refinement
    without the exemption."""
    return _same_block(a, b, exempt=False)


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
