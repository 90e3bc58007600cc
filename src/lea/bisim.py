"""Essence-style bisimulations, model contraction and bounded equivalence.

The forth/back conditions here are weaker than the usual box ones: a
successor t of s only needs a matching successor of s' when the pair (s, t)
is NOT itself in the relation.  Box-bisimilar worlds are always bisimilar
in this sense; the converse fails (a reflexive p-world and an isolated
p-world are related by {(s, t)} even though [] F tells them apart).

One partition-refinement engine, _rounds, serves every question here.  Its
input (_laid) is built once per question from the models asked about, laid
side by side: each world's successors, in world order, and its valuation
signature.  The essence flavour exempts each world's own block, as the
"(s, t) not in Z" clause does; its final partition is the largest
bisimulation (proof at largest_circ_bisimulation).

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

from itertools import islice
from typing import Collection, Iterator, Mapping, Sequence

from .formula import And, Ess, Formula, Not, Var
from .kripke import Model, PointedModel, bit_positions, disjoint_union, record


@record
class BisimRelation:
    carrier: Model
    pairs: frozenset[tuple[str, str]]


@record
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
    for entry in obj["pairs"]:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise ValueError(f"pair entries must be two world ids: {entry!r}")
    return [tuple(entry) for entry in obj["pairs"]]


def is_circ_bisimulation(z: BisimRelation) -> bool | BisimViolation:
    """Check the essence-style bisimulation conditions on z.

    Returns True, or a falsy BisimViolation naming the first failure in
    lexicographic pair order.
    """
    m = z.carrier
    pos = m.index.pos
    # zrow[s]: partners of s used on the left; zcol[t]: partners of t on the right.
    zrow, zcol = [0] * len(pos), [0] * len(pos)
    for s, t in z.pairs:
        if s not in pos or t not in pos:
            raise ValueError(f"pair ({s!r}, {t!r}) is not over the carrier's worlds")
        zrow[pos[s]] |= 1 << pos[t]
        zcol[pos[t]] |= 1 << pos[s]
    if not z.pairs:
        return BisimViolation("empty")
    laid = _laid((m,), m.index.val_bits)
    for s, s2 in sorted(z.pairs):
        bad = _pair_violation(laid, zrow, zcol, pos[s], pos[s2])
        if bad is not None:
            condition, world = bad
            return BisimViolation(
                condition, (s, s2), m.worlds[world] if world is not None else None
            )
    return True


def _pair_violation(laid: _Laid, zrow, zcol, i: int, j: int) -> tuple[str, int | None] | None:
    succs, sigs = laid
    if sigs[i] != sigs[j]:
        return ("inv", None)
    # forth: each successor t of i with (i, t) outside Z needs a partner
    # among j's successors; back: the same from j, with partners among i's.
    for condition, s, partners, s2 in (("forth", i, zrow, j), ("back", j, zcol, i)):
        reach = sum(1 << u for u in succs[s2])
        for t in succs[s]:
            if not (zrow[s] >> t & 1 or partners[t] & reach):
                return (condition, t)
    return None


# Successors of each world in world order, and its valuation signature.
_Laid = tuple[list[list[int]], list[tuple[str, ...]]]


def _laid(models: Sequence[Model], names: Collection[str]) -> _Laid:
    """The engine's input for the worlds of models side by side, each
    model's numbered after the previous ones' as disjoint_union numbers
    them.  Successors come off each model's own succ rows; a signature
    holds the world's digit ("0" or "1") in each of names, in that order."""
    succs: list[list[int]] = []
    sigs: list[tuple[str, ...]] = []
    for m in models:
        idx, base = m.index, len(succs)
        succs += [[base + t for t in bit_positions(row)] for row in idx.succ]
        cols = [format(idx.val_bits.get(p, 0), f"0{idx.n}b")[::-1] for p in names]
        sigs += zip(*cols) if cols else [()] * idx.n
    return succs, sigs


def _rounds(laid: _Laid, exempt: bool) -> Iterator[list[int]]:
    """Block of each world after each round: the valuation signatures at
    round 0, then each round keys a world by its block and its successors'
    blocks, less its own when exempt, until the number of blocks stops
    growing.  Blocks are numbered in the order of their first world."""
    succs, sigs = laid
    ids: dict[object, int] = {}
    block = [ids.setdefault(sig, len(ids)) for sig in sigs]
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


def _blocks(laid: _Laid, exempt: bool) -> list[int]:
    """The last partition of _rounds."""
    for block in _rounds(laid, exempt):
        pass
    return block


def _classes(m: Model, block: Sequence[int] | None = None) -> list[list[str]]:
    members: dict[int, list[str]] = {}
    if block is None:
        block = _blocks(_laid((m,), m.index.val_bits), exempt=True)
    for w, b in zip(m.worlds, block):
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


def _points(a: PointedModel, b: PointedModel) -> tuple[int, int]:
    """The positions of the two points with their models side by side."""
    idx = a.model.index
    return idx.pos[a.point], idx.n + b.model.index.pos[b.point]


def _same_block(a: PointedModel, b: PointedModel, exempt: bool) -> tuple[bool, list[int]]:
    """Whether the points share a block of their models side by side, with
    the partition."""
    names = {**a.model.index.val_bits, **b.model.index.val_bits}
    block = _blocks(_laid((a.model, b.model), names), exempt)
    x, y = _points(a, b)
    return block[x] == block[y], block


def circ_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Essence-style bisimilarity of the two points."""
    return _same_block(a, b, exempt=True)[0]


def circ_certificate(a: PointedModel, b: PointedModel) -> BisimRelation | None:
    """The largest circ bisimulation of the disjoint union when it relates
    the two points, else None: one refinement either way, and the union and
    its pairs only for an affirmative answer."""
    same, block = _same_block(a, b, exempt=True)
    return largest_circ_bisimulation(disjoint_union(a.model, b.model), block) if same else None


def box_bisimilar(a: PointedModel, b: PointedModel) -> bool:
    """Ordinary modal bisimilarity of the two points: the same refinement
    without the exemption."""
    return _same_block(a, b, exempt=False)[0]


def bounded_equivalent(
    a: PointedModel, b: PointedModel, names: Sequence[str], depth: int
) -> bool | Formula:
    """Do a and b agree on every essence formula over names up to depth?

    True when they share a block after depth rounds of the essence
    refinement of their models side by side, with signatures over names.
    Otherwise a separator over names, true at a, false at b and as deep as
    the first round that splits them, so none is shallower (Cleaveland, CAV
    1990): a literal at round 0, and at round r, ~o ~g where x has a
    successor t in a round-(r - 1) block that no successor of y reaches and
    g conjoins the distinct separators of t from x and from each successor
    of y.  Successors are taken in world order, so the separator does not
    depend on the hash seed.  depth must be at least 0 (ValueError).
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, not {depth}")
    succs, sigs = laid = _laid((a.model, b.model), names)
    rounds = list(islice(_rounds(laid, exempt=True), depth + 1))
    x, y = _points(a, b)
    if rounds[-1][x] == rounds[-1][y]:
        return True

    # separator[(x, y)] for each pair the answer needs, on an explicit stack:
    # a pair is built once the pairs it needs are, and then popped.
    separator: dict[tuple[int, int], Formula] = {}
    root = (x, y)
    stack = [root]
    while stack:
        x, y = pair = stack[-1]
        if pair in separator:
            stack.pop()
            continue
        r = next(r for r, block in enumerate(rounds) if block[x] != block[y])
        if r == 0:
            k = next(k for k, (u, v) in enumerate(zip(sigs[x], sigs[y])) if u != v)
            separator[pair] = Var(names[k]) if sigs[x][k] == "1" else Not(Var(names[k]))
            continue
        block = rounds[r - 1]
        reached = {block[t] for t in succs[y]}
        t = next((t for t in succs[x] if block[t] != block[x] and block[t] not in reached), None)
        # One w per round-(r - 1) block: a block agrees on shallower formulas.
        needs = [(y, x)] if t is None else [
            (t, w) for w in {block[w]: w for w in (x, *succs[y])}.values()]
        missing = [q for q in needs if q not in separator]
        if missing:
            stack += missing
            continue
        g = list(dict.fromkeys(separator[q] for q in needs))
        if t is None:
            separator[pair] = _negate(g[0])
            continue
        while len(g) > 1:  # balanced: g nests log2 len(g) deep
            g = [And(*g[i : i + 2]) if i + 1 < len(g) else g[i] for i in range(0, len(g), 2)]
        separator[pair] = Not(Ess(_negate(g[0])))
    return separator[root]


def _negate(f: Formula) -> Formula:
    return f.sub if isinstance(f, Not) else Not(f)


# ---------------------------------------------------------------------------
# Contraction


@record
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
    classes = _classes(m)
    ids = tuple("[" + min(ws) + "]" for ws in classes)
    class_of = {w: cid for cid, ws in zip(ids, classes) for w in ws}
    rel = frozenset((class_of[s], class_of[t]) for s, t in m.rel)
    val = {p: frozenset(class_of[w] for w in ws) for p, ws in m.val.items()}
    return Contraction(Model(ids, rel, val), class_of)
