"""Bisimulations matched to the essence operator, and model contraction.

The forth/back conditions here are weaker than the usual box ones: a
successor t of s only needs a matching successor of s' when the pair (s, t)
is NOT itself in the relation.  Box-bisimilar worlds are always bisimilar
in this sense; the converse fails (a reflexive p-world and an isolated
p-world are related by {(s, t)} even though [] F tells them apart).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .kripke import Model, PointedModel, disjoint_union


@dataclass(frozen=True)
class BisimRelation:
    carrier: Model
    pairs: frozenset[tuple[str, str]]

    @staticmethod
    def make(carrier: Model, pairs: Iterable[tuple[str, str]]) -> "BisimRelation":
        return BisimRelation(carrier, frozenset((s, t) for s, t in pairs))


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


def pairs_from_json(text: str) -> list[tuple[str, str]]:
    return pairs_from_obj(json.loads(text))


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
    # among j's successors.
    pending = idx.succ[i] & ~zrow[i]
    t = 0
    while pending:
        if pending & 1 and not zrow[t] & idx.succ[j]:
            return ("forth", t)
        pending >>= 1
        t += 1
    # back: each successor t2 of j with (j, t2) outside Z needs a partner
    # among i's successors.
    pending = idx.succ[j] & ~zrow[j]
    t2 = 0
    while pending:
        if pending & 1 and not zcol[t2] & idx.succ[i]:
            return ("back", t2)
        pending >>= 1
        t2 += 1
    return None


def largest_circ_bisimulation(m: Model) -> BisimRelation:
    """The union of every relation on m passing is_circ_bisimulation.

    Computed by deleting violating pairs from the full valuation-respecting
    relation until none are left; a pair belonging to any bisimulation never
    violates the conditions against a superset, so nothing is over-deleted.
    Sweeps run in lexicographic pair order.
    """
    idx = m.index
    n = idx.n
    live = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if idx.sig[i] == idx.sig[j]
    ]
    zset = set(live)
    zrow, zcol = _pair_masks(n, live)
    changed = True
    while changed:
        changed = False
        for i, j in sorted(zset):
            if _pair_violation(idx, zrow, zcol, i, j) is not None:
                zset.discard((i, j))
                zrow[i] &= ~(1 << j)
                zcol[j] &= ~(1 << i)
                changed = True
    return BisimRelation(
        m, frozenset((m.worlds[i], m.worlds[j]) for i, j in zset)
    )


def circ_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Essence-style bisimilarity of the two points, via the disjoint union."""
    union = disjoint_union(a.model, b.model)
    largest = largest_circ_bisimulation(union)
    return ("L:" + a.point, "R:" + b.point) in largest.pairs


def box_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Ordinary modal bisimilarity of the two points (partition refinement)."""
    union = disjoint_union(a.model, b.model)
    idx = union.index
    n = idx.n
    block: dict[int, object] = {i: idx.sig[i] for i in range(n)}
    while True:
        ids: dict[object, int] = {}
        for i in range(n):
            ids.setdefault(block[i], len(ids))
        numbered = [ids[block[i]] for i in range(n)]
        refined: dict[int, object] = {}
        for i in range(n):
            succ_blocks = frozenset(
                numbered[t] for t in range(n) if (idx.succ[i] >> t) & 1
            )
            refined[i] = (numbered[i], succ_blocks)
        if len(set(refined.values())) == len(ids):
            break
        block = refined
    return refined[idx.pos["L:" + a.point]] == refined[idx.pos["R:" + b.point]]


# ---------------------------------------------------------------------------
# Contraction


@dataclass(frozen=True)
class Contraction:
    model: Model
    class_of: Mapping[str, str]


def contract(m: Model) -> Contraction:
    """Quotient of m by its largest essence-style bisimulation.

    Class ids are the bracketed least member, classes relate when any of
    their members do, and a class satisfies p when its members do.  Each
    world of m stays bisimilar to its class in the quotient.

    The classes are read off as each world's set of partners, which is only
    a partition when the largest bisimulation is an equivalence relation;
    RuntimeError is raised if two such classes overlap.
    """
    largest = largest_circ_bisimulation(m)
    related: dict[str, set[str]] = {w: {w} for w in m.worlds}
    for s, t in largest.pairs:
        related[s].add(t)
        related[t].add(s)
    class_of: dict[str, str] = {}
    order: list[str] = []
    for w in m.worlds:
        if w in class_of:
            continue
        members = related[w]
        for member in members:
            if related[member] != members:
                raise RuntimeError(
                    f"bisimulation classes of {w!r} and {member!r} overlap"
                )
        cid = "[" + min(members) + "]"
        order.append(cid)
        for member in members:
            class_of[member] = cid
    rel = frozenset(
        (class_of[s], class_of[t]) for s, t in m.rel
    )
    val = {p: frozenset(class_of[w] for w in ws) for p, ws in m.val.items()}
    return Contraction(Model(tuple(order), rel, val), class_of)
