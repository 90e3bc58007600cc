"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's bitmask machinery: truth
is recursion over successor sets, frame properties are written as the bare
first-order sentences, and the bisimulation oracles enumerate candidate
relations outright or delete violating pairs one at a time.  Agreement
between these and the fast paths is the point of most tests.
"""

import argparse
import random
import re
from functools import lru_cache, reduce
from itertools import permutations
from typing import Iterator, Sequence

from lea import decide, sweep
from lea.cli import (
    _cmd_bisim,
    _cmd_check,
    _cmd_contract,
    _cmd_define,
    _cmd_genproof,
    _cmd_prove,
    _cmd_sat,
    _cmd_scan,
    _cmd_translate,
    _cmd_valid,
)
from lea.bisim import BisimRelation, is_circ_bisimulation
from lea.formula import (
    And,
    Bot,
    Box,
    Ess,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    _CONSTANT,
    _INFIX,
    _LEVEL_IFF,
    _LEVEL_IMP,
    _PREFIX,
    _UNARY_STARTERS,
    _tokenize,
    children,
    is_lea,
    parse,
    rebuild,
    render,
    substitute,
    variables,
)
from lea.hilbert import (
    MP,
    R,
    Axiom,
    CheckReport,
    Derivation,
    DerivationSyntaxError,
    Justification,
    Line,
    Premise,
    Sub,
    System,
    Taut,
    is_tautology,
    match_schema,
)
from lea.kripke import (
    FrameClass,
    FrameProperty,
    Model,
    PointedModel,
    disjoint_union,
    frame_worlds,
)
from lea.semantics import _modal_bits
from lea.sweep import MAX_N


def rand_model(
    rng: random.Random, max_worlds: int = 4, names=("p", "q"), density=(0.15, 0.6)
) -> Model:
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    density = rng.uniform(*density)
    rel = frozenset(
        (a, b) for a in worlds for b in worlds if rng.random() < density
    )
    val = {
        name: frozenset(w for w in worlds if rng.random() < 0.5) for name in names
    }
    return Model(worlds, rel, val)


def rand_sparse_model(rng: random.Random, n: int, names=("p", "q"), degree: float = 1.5) -> Model:
    """A sparse model on worlds w0..w{n-1}, for sizes past one machine word.

    About a tenth of the worlds are dead ends, a tenth carry a self-loop
    and a tenth lie outside every valuation; the rest of the edges leave
    the other worlds at random.
    """
    worlds = tuple(f"w{i}" for i in range(n))
    tenth = max(1, n // 10)
    dead = set(rng.sample(worlds, tenth))
    live = [w for w in worlds if w not in dead]
    rel = {(rng.choice(live), rng.choice(worlds)) for _ in range(int(degree * n))}
    rel |= {(w, w) for w in rng.sample(live, tenth)}
    blank = set(rng.sample(worlds, tenth))
    val = {
        name: frozenset(w for w in worlds if w not in blank and rng.random() < 0.5)
        for name in names
    }
    return Model(worlds, frozenset(rel), val)


def rand_pointed(rng: random.Random, max_worlds: int = 4, names=("p", "q")) -> PointedModel:
    m = rand_model(rng, max_worlds, names)
    return PointedModel(m, rng.choice(m.worlds))


def rand_formula(rng: random.Random, depth: int, names=("p", "q"), lang: str = "lea") -> Formula:
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.7:
            return Var(rng.choice(names))
        return Top() if roll < 0.85 else Bot()
    modal = {"lea": (Ess,), "ml": (Box,), "mixed": (Ess, Box)}[lang]
    ops = (Not,) + modal + (And, Or, Implies, Iff)
    op = rng.choice(ops)
    if op in (Not, Ess, Box):
        return op(rand_formula(rng, depth - 1, names, lang))
    return op(
        rand_formula(rng, depth - 1, names, lang),
        rand_formula(rng, depth - 1, names, lang),
    )


def rand_modal_cnf(rng: random.Random, atoms: Sequence[str], clauses: int, depth: int = 1) -> Formula:
    """Random modal 3-CNF of the given modal depth: each literal is an atom
    or, with probability one half, [] / o of a 3-clause one level shallower,
    negated with probability one half."""

    def clause(d: int) -> Formula:
        lits = []
        for _ in range(3):
            if d > 0 and rng.random() < 0.5:
                g = rng.choice((Box, Ess))(clause(d - 1))
            else:
                g = Var(rng.choice(atoms))
            lits.append(Not(g) if rng.random() < 0.5 else g)
        return Or(Or(lits[0], lits[1]), lits[2])

    out = clause(depth)
    for _ in range(clauses - 1):
        out = And(out, clause(depth))
    return out


# ---------------------------------------------------------------------------
# Truth by plain recursion over successor sets.


def recursive_compile(f: Formula) -> tuple[list[tuple], int]:
    """(ops, root) of sweep.Prog(f) by the recursive postorder compile that
    the explicit-stack one replaced: children left to right, nodes looked
    up by id and then by (node type, child registers)."""
    ops: list[tuple] = []
    by_id: dict[int, int] = {}
    by_shape: dict[tuple, int] = {}

    def emit(g: Formula) -> int:
        reg = by_id.get(id(g))
        if reg is not None:
            return reg
        kind = type(g)
        if kind is Var:
            shape = (Var, g.name)
        elif kind in (Top, Bot, Not, And, Or, Implies, Iff, Ess, Box):
            shape = (kind, *map(emit, children(g)))
        else:
            raise TypeError(f"not a formula: {g!r}")
        reg = by_shape.get(shape)
        if reg is None:
            reg = by_shape[shape] = len(ops)
            ops.append(shape)
        by_id[id(g)] = reg
        return reg

    root = emit(f)
    return ops, root


def naive_satisfies(m: Model, w: str, f: Formula) -> bool:
    if isinstance(f, Var):
        return w in m.val.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not naive_satisfies(m, w, f.sub)
    if isinstance(f, And):
        return naive_satisfies(m, w, f.left) and naive_satisfies(m, w, f.right)
    if isinstance(f, Or):
        return naive_satisfies(m, w, f.left) or naive_satisfies(m, w, f.right)
    if isinstance(f, Implies):
        return not naive_satisfies(m, w, f.left) or naive_satisfies(m, w, f.right)
    if isinstance(f, Iff):
        return naive_satisfies(m, w, f.left) == naive_satisfies(m, w, f.right)
    succs = [t for (s, t) in m.rel if s == w]
    if isinstance(f, Box):
        return all(naive_satisfies(m, t, f.sub) for t in succs)
    if isinstance(f, Ess):
        if not naive_satisfies(m, w, f.sub):
            return True
        return all(naive_satisfies(m, t, f.sub) for t in succs)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# K satisfiability at modal depth one.  Successors matter only through their
# valuations, so a root valuation plus a set of successor valuations covers
# every pointed K-model up to modal equivalence.


def k_depth_one_model(f: Formula, atoms: Sequence[str]) -> tuple[Model, str] | None:
    """A pointed K-model of f at "r", or None when f is unsatisfiable.

    Tries every root valuation with every set of successor valuations, in
    that order; f must have modal depth at most one over the given atoms.
    """
    vals = [
        frozenset(a for j, a in enumerate(atoms) if (v >> j) & 1)
        for v in range(1 << len(atoms))
    ]
    for root in vals:
        for mask in range(1 << len(vals)):
            succs = [s for i, s in enumerate(vals) if (mask >> i) & 1]
            if _depth_one_true(f, root, succs):
                worlds = ("r",) + tuple(f"s{i}" for i in range(len(succs)))
                rel = frozenset(("r", w) for w in worlds[1:])
                val = {
                    a: frozenset(w for w, here in zip(worlds, [root] + succs) if a in here)
                    for a in atoms
                }
                return Model(worlds, rel, val), "r"
    return None


def _depth_one_true(f: Formula, here: frozenset, succs) -> bool:
    """Truth of f at a world with the valuation here whose successors have
    the valuations succs; below a modality succs is None."""
    if isinstance(f, Var):
        return f.name in here
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _depth_one_true(f.sub, here, succs)
    if isinstance(f, And):
        return _depth_one_true(f.left, here, succs) and _depth_one_true(f.right, here, succs)
    if isinstance(f, Or):
        return _depth_one_true(f.left, here, succs) or _depth_one_true(f.right, here, succs)
    if isinstance(f, Implies):
        return not _depth_one_true(f.left, here, succs) or _depth_one_true(f.right, here, succs)
    if isinstance(f, Iff):
        return _depth_one_true(f.left, here, succs) == _depth_one_true(f.right, here, succs)
    if succs is None:
        raise ValueError("modal depth above one")
    everywhere = all(_depth_one_true(f.sub, s, None) for s in succs)
    if isinstance(f, Box):
        return everywhere
    if isinstance(f, Ess):
        return not _depth_one_true(f.sub, here, None) or everywhere
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Frame properties as quantifier loops straight off their first-order forms.


def naive_has_property(m: Model, prop: FrameProperty) -> bool:
    ws = m.worlds
    r = m.rel
    P = FrameProperty
    if prop is P.REFLEXIVE:
        return all((x, x) in r for x in ws)
    if prop is P.SERIAL:
        return all(any((x, y) in r for y in ws) for x in ws)
    if prop is P.SYMMETRIC:
        return all((y, x) in r for (x, y) in r)
    if prop is P.COREFLEXIVE:
        return all(x == y for (x, y) in r)
    if prop is P.TRANSITIVE:
        return all(
            (x, z) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (y, z) in r
        )
    if prop is P.EUCLIDEAN:
        return all(
            (y, z) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (x, z) in r
        )
    if prop is P.WEAKLY_TRANSITIVE:
        return all(
            (x, z) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (y, z) in r and x != z
        )
    if prop is P.WEAKLY_CONNECTED:
        return all(
            (y, z) in r or y == z or (z, y) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (x, z) in r
        )
    if prop is P.WEAK_WEAK_EUCLIDEAN:
        return all(
            (y, z) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (x, z) in r and x != z and y != z
        )
    if prop is P.STRICT_TRANSITIVE3:
        return all(
            (x, z) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (y, z) in r and x != y and y != z and x != z
        )
    if prop is P.STRICT_EUCLIDEAN3:
        return all(
            (y, z) in r
            for x in ws for y in ws for z in ws
            if (x, y) in r and (x, z) in r and x != y and x != z and y != z
        )
    raise ValueError(prop)


# ---------------------------------------------------------------------------
# Valuations, relabelling and labelled frame sweeps, one Model at a time.


def enumerate_frames(n: int) -> Iterator[Model]:
    """All 2^(n*n) relations on worlds w0..w{n-1}, empty valuation, in the
    mask order of sweep.iter_succ_tables: the labelled space, where the
    library's sweeps visit one frame per isomorphism class."""
    worlds = frame_worlds(n)
    pairs = [(s, t) for s in worlds for t in worlds]
    for mask in range(1 << (n * n)):
        yield Model(worlds, frozenset(pairs[k] for k in range(n * n) if (mask >> k) & 1), {})


def enumerate_valuations(m: Model, names: Sequence[str]) -> Iterator[Model]:
    """All models that differ from m only in the valuation of names."""
    n = len(m.worlds)
    for masks in _masks_product(len(names), 1 << n):
        val = dict(m.val)
        for name, mask in zip(names, masks):
            val[name] = frozenset(m.worlds[i] for i in range(n) if (mask >> i) & 1)
        yield Model(m.worlds, m.rel, val)


def _masks_product(k: int, limit: int) -> Iterator[tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for head in range(limit):
        for tail in _masks_product(k - 1, limit):
            yield (head,) + tail


def brute_orbits(n: int) -> dict[int, frozenset[int]]:
    """Isomorphism classes of the frames on n worlds, keyed by smallest mask.

    Mask bit s*n + t stands for the pair (s, t).  Each mask is relabelled by
    every permutation as a set of pairs and filed under its smallest image.
    """
    pairs = [(s, t) for s in range(n) for t in range(n)]
    orbits: dict[int, set[int]] = {}
    for mask in range(1 << (n * n)):
        rel = [pairs[k] for k in range(n * n) if (mask >> k) & 1]
        key = min(
            sum(1 << (perm[s] * n + perm[t]) for s, t in rel)
            for perm in permutations(range(n))
        )
        orbits.setdefault(key, set()).add(mask)
    return {key: frozenset(masks) for key, masks in orbits.items()}


def class_frames(cls: FrameClass, max_n: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """(n, succ, orbit size) for the class frames of sweep.class_chunks, one
    at a time.  Raises ValueError for max_n outside 1..sweep.MAX_N before it
    yields anything."""
    for n, picked in sweep.class_chunks(cls, max_n, 0):
        orbits = sweep.frame_orbits(n)
        for i in picked:
            yield (n, *orbits[i])


def naive_in_class(m: Model, cls: FrameClass) -> bool:
    return all(naive_has_property(m, p) for p in cls.properties)


def close_into(rng: random.Random, m: Model, cls: FrameClass) -> Model:
    """A superset of m's relation in cls: add the edges each of the class's
    conditions asks for (a random successor for a dead end, if serial)
    until naive_in_class holds."""
    ws = m.worlds
    rel = set(m.rel)
    P = FrameProperty
    while not naive_in_class(Model(ws, frozenset(rel), {}), cls):
        props = cls.properties
        if P.REFLEXIVE in props:
            rel |= {(w, w) for w in ws}
        if P.SERIAL in props:
            rel |= {(w, rng.choice(ws)) for w in ws if not any((w, t) in rel for t in ws)}
        if P.SYMMETRIC in props:
            rel |= {(t, s) for s, t in rel}
        if P.TRANSITIVE in props:
            rel |= {(s, u) for s, t in rel for t2, u in rel if t == t2}
        if P.EUCLIDEAN in props:
            rel |= {(t, u) for s, t in rel for s2, u in rel if s == s2}
    return Model(ws, frozenset(rel), m.val)


# KwEuc with a plain negation as antecedent: an axiom of no system, but
# frame-valid on Euclidean frames, which criterion 10 confirms up to n = 4.
KW_EUC_ALT = parse("~p -> o (o ~p -> p)")


def naive_frame_valid(m: Model, f: Formula) -> bool:
    """Truth of f at every world of m under every valuation of its variables."""
    return _naive_frame_valid(m.worlds, m.rel, f)


# Cached because the scan oracle asks the same (frame, axiom) question for
# every system and class that share them.
@lru_cache(maxsize=None)
def _naive_frame_valid(worlds, rel, f: Formula) -> bool:
    frame = Model(worlds, rel, {})
    return all(
        naive_satisfies(m, w, f)
        for m in enumerate_valuations(frame, sorted(variables(f)))
        for w in worlds
    )


def labelled_definability(prop: FrameProperty, f: Formula, max_n: int):
    """(confirmed, direction, witness relation) from the first labelled frame,
    in enumerate_frames order, where prop and the validity of f disagree."""
    for n in range(1, max_n + 1):
        for frame in enumerate_frames(n):
            holds = naive_has_property(frame, prop)
            if holds != naive_frame_valid(frame, f):
                direction = "property-but-invalid" if holds else "valid-but-no-property"
                return False, direction, frame.rel
    return True, None, None


def labelled_scan(system: System, cls: FrameClass, max_n: int):
    """(class frames, failing (frame, axiom) pairs, first failure as
    (relation, axiom name) or None) over every labelled frame."""
    checked = failed = 0
    first = None
    for n in range(1, max_n + 1):
        for frame in enumerate_frames(n):
            if not naive_in_class(frame, cls):
                continue
            checked += 1
            for name, schema in system.axioms:
                if not naive_frame_valid(frame, schema):
                    failed += 1
                    if first is None:
                        first = (frame.rel, name)
    return checked, failed, first


def labelled_search_sat(f: Formula, cls: FrameClass, max_n: int):
    """First (model, world) satisfying f over labelled class frames, in
    (size, frame, valuation number, world) order, or None.

    Valuation number v gives the j-th variable in sorted order the world
    set (v >> (n*j)) & (2^n - 1).
    """
    names = sorted(variables(f))
    for n in range(1, max_n + 1):
        for frame in enumerate_frames(n):
            if not naive_in_class(frame, cls):
                continue
            for v in range(1 << (n * len(names))):
                val = {
                    name: frozenset(
                        w for i, w in enumerate(frame.worlds) if (v >> (n * j + i)) & 1
                    )
                    for j, name in enumerate(names)
                }
                m = Model(frame.worlds, frame.rel, val)
                for w in m.worlds:
                    if naive_satisfies(m, w, f):
                        return m, w
    return None


# ---------------------------------------------------------------------------
# Bisimulation oracles.  Any relation satisfying the bisimulation conditions
# must pair worlds with equal valuations, so only subsets of that candidate
# pool are enumerated; the pruning is checked by its own test.


def inv_pairs(m: Model) -> list[tuple[str, str]]:
    def sig(w):
        return frozenset(p for p, ws in m.val.items() if w in ws)

    return [
        (a, b) for a in m.worlds for b in m.worlds if sig(a) == sig(b)
    ]


def subset_union_oracle(m: Model, pool=None) -> frozenset:
    """Union of every pair set accepted by is_circ_bisimulation.

    The subsets are drawn from pool, which defaults to inv_pairs(m).
    """
    if pool is None:
        pool = inv_pairs(m)
    union = set()
    for mask in range(1, 1 << len(pool)):
        z = frozenset(pool[k] for k in range(len(pool)) if (mask >> k) & 1)
        if z <= union:
            continue
        if is_circ_bisimulation(BisimRelation(m, z)):
            union |= z
    return frozenset(union)


def pair_fixpoint_oracle(m: Model, exempt: bool = True) -> frozenset:
    """Largest bisimulation on m by deleting violating pairs to a fixpoint.

    Starts from inv_pairs(m) and sweeps every pair in lexicographic order
    until a sweep deletes none.  With exempt, a successor u of s needs a
    partner only when (s, u) is outside the relation, the essence clause;
    without it every successor does, the plain box clause.  A pair of any
    bisimulation never violates the clauses against a superset, so nothing
    is over-deleted.
    """
    succs = {w: [t for (s, t) in m.rel if s == w] for w in m.worlds}
    z = set(inv_pairs(m))

    def unmatched(s, t, flip):
        # A successor u of s, outside the exemption, with no partner among
        # t's successors (pairs read right to left when flip).
        for u in succs[s]:
            if exempt and (s, u) in z:
                continue
            if not any(((v, u) if flip else (u, v)) in z for v in succs[t]):
                return True
        return False

    changed = True
    while changed:
        changed = False
        for s, t in sorted(z):
            if unmatched(s, t, False) or unmatched(t, s, True):
                z.discard((s, t))
                changed = True
    return frozenset(z)


def bitparallel_union_oracle(m: Model) -> frozenset:
    """Same union, with one bit position per candidate subset.

    Subset b contains pool pair k exactly when bit k of b is set; the
    bisimulation conditions become bitwise expressions evaluated for all
    subsets at once.  Quadratic blowups stay affordable because the pool
    has at most |worlds|**2 entries.
    """
    pool = inv_pairs(m)
    k = len(pool)
    total = 1 << k
    ones = (1 << total) - 1
    # member[(a, b)]: bitmap over subsets that contain the pair.
    member = {}
    for i, pair in enumerate(pool):
        block = (1 << (1 << i)) - 1
        period = 1 << (i + 1)
        pattern = 0
        for start in range(1 << i, total, period):
            pattern |= block << start
        member[pair] = pattern
    absent = {pair: ones ^ pattern for pair, pattern in member.items()}

    def contains(pair):
        return member.get(pair, 0)

    def lacks(pair):
        return absent.get(pair, ones)

    succs = {w: [t for (s, t) in m.rel if s == w] for w in m.worlds}
    viol = 0
    for (a, b) in pool:
        here = member[(a, b)]
        for t in succs[a]:
            no_witness = ones
            for t2 in succs[b]:
                no_witness &= lacks((t, t2))
            viol |= here & lacks((a, t)) & no_witness
        for t2 in succs[b]:
            no_witness = ones
            for t in succs[a]:
                no_witness &= lacks((t, t2))
            viol |= here & lacks((b, t2)) & no_witness
    passing = ones & ~viol
    union = set()
    for pair in pool:
        if passing & member[pair]:
            union.add(pair)
    return frozenset(union)


# ---------------------------------------------------------------------------
# Layered formula enumeration: every formula up to a modal depth, closed
# under the Boolean connectives and deduplicated by extension.  It is the
# depth-bounded oracle for the refinement rounds of lea.bisim.  Its modal
# step is the library's _modal_bits, which test_satisfies_matches_recursion
# checks against plain recursion.


def _boolean_close(reps: dict[int, Formula], full: int, closed: int = 0) -> None:
    """Grow reps to the closure of its bitmaps under complement and meet.

    The first `closed` entries are closed already: their complements and
    pairwise meets are in reps.  Each round checks only the pairs with a
    newer member, which adds exactly what checking every pair would add,
    in the same order.
    """
    while True:
        grew = False
        for bm, f in list(reps.items())[closed:]:
            nb = full ^ bm
            if nb not in reps:
                reps[nb] = Not(f)
                grew = True
        items = list(reps.items())
        fresh = items[closed:]
        for i, (b1, f1) in enumerate(items):
            for b2, f2 in fresh if i < closed else items[i + 1 :]:
                meet = b1 & b2
                if meet not in reps:
                    reps[meet] = And(f1, f2)
                    grew = True
        if not grew:
            return
        closed = len(items)


_MODAL_OPS = {"ess": (True, Ess), "box": (False, Box)}


def _layered_reps(
    n: int,
    succ: Sequence[int],
    var_bits: list[tuple[str, int]],
    depth: int,
    modal: str = "ess",
) -> dict[int, Formula]:
    """Representatives of every formula over the given variables up to the
    given modal depth, deduplicated by extension bitmap on this model."""
    ess, wrap = _MODAL_OPS[modal]
    full = (1 << n) - 1
    reps: dict[int, Formula] = {full: Top()}
    for name, bits in var_bits:
        reps.setdefault(bits, Var(name))
    _boolean_close(reps, full)
    # Entries before `stepped` took their modal step in an earlier layer.
    stepped = 0
    for _ in range(depth):
        items = list(reps.items())
        for bm, f in items[stepped:]:
            eb = _modal_bits(n, succ, bm, ess)
            if eb not in reps:
                reps[eb] = wrap(f)
        stepped = len(items)
        _boolean_close(reps, full, stepped)
    return reps


def layered_formulas(
    m: Model, names: Sequence[str], depth: int, modal: str = "ess"
) -> list[tuple[Formula, frozenset[str]]]:
    """One formula per distinct extension on m, up to the given modal depth,
    each paired with its extension.

    Every formula over names with modal depth <= depth in the chosen
    language ("ess" or "box") has the same extension on m as exactly one
    formula in the result.
    """
    idx = m.index
    var_bits = [(name, idx.val_bits.get(name, 0)) for name in names]
    reps = _layered_reps(idx.n, idx.succ, var_bits, depth, modal)
    return [(f, frozenset(w for i, w in enumerate(m.worlds) if (bits >> i) & 1))
            for bits, f in reps.items()]


def layered_bounded_equivalent(
    a: PointedModel, b: PointedModel, names: Sequence[str], depth: int
) -> bool | Formula:
    """bounded_equivalent by enumeration: True, or the first enumerated
    formula that separates the points, oriented to hold at a's point."""
    union = disjoint_union(a.model, b.model)
    la, rb = "L:" + a.point, "R:" + b.point
    for f, ext in layered_formulas(union, names, depth):
        if (la in ext) != (rb in ext):
            return f if la in ext else Not(f)
    return True


# ---------------------------------------------------------------------------
# Derivation mutations that no checker should accept.


def mutate_derivation(rng: random.Random, d: Derivation) -> Derivation:
    target = rng.randrange(len(d.lines))
    old = d.lines[target].formula
    kind = rng.randrange(4)
    if kind == 0:
        new = Var("za")
    elif kind == 1:
        new = Not(old)
    elif kind == 2:
        new = And(old, Var("za"))
    elif isinstance(old, Implies):
        new = Implies(old.right, old.left)
    else:
        new = Implies(old, Var("za"))
    lines = list(d.lines)
    lines[target] = Line(lines[target].index, new, lines[target].just)
    return Derivation(tuple(lines))


# ---------------------------------------------------------------------------
# Derivation format oracle: one ladder per job.  _parse_justification,
# render_justification and _check_line test each justification kind in turn,
# as lea.hilbert did before one table of kinds drove all three; they share
# no code with that table.  The two loops around them are hilbert's own.

_NUMBER = "[0-9]+"
_LINE_RE = re.compile(rf"^\s*({_NUMBER})\.\s*(.*?)\s*\[([^\]]*)\]\s*$")


def oracle_parse_derivation(text: str) -> Derivation:
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


def oracle_render_derivation(d: Derivation) -> str:
    return "\n".join(
        f"{l.index}. {render(l.formula)}   [{render_justification(l.just)}]"
        for l in d.lines
    )


def oracle_check_derivation(d: Derivation, system: System) -> CheckReport:
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

    def fetch(i: int) -> Formula | None:
        return earlier.get(i)

    if isinstance(just, Premise):
        return None
    if isinstance(just, Taut):
        if not is_tautology(f):
            return "not a propositional tautology under boolean abstraction"
        return None
    if isinstance(just, Axiom):
        try:
            schema = system.schema(just.name)
        except KeyError:
            return f"{system.name} has no axiom {just.name!r}"
        if match_schema(schema, f) is None:
            return f"formula does not instantiate {just.name}"
        return None
    if isinstance(just, MP):
        antecedent = fetch(just.antecedent)
        implication = fetch(just.implication)
        if antecedent is None or implication is None:
            return "reference to a line that is not strictly earlier"
        if implication != Implies(antecedent, f):
            return (
                f"line {just.implication} is not (line {just.antecedent}) -> (this line)"
            )
        return None
    if isinstance(just, Sub):
        source = fetch(just.source)
        if source is None:
            return "reference to a line that is not strictly earlier"
        if substitute(source, just.subst) != f:
            return f"formula is not line {just.source} under the given substitution"
        return None
    if isinstance(just, R):
        source = fetch(just.source)
        if source is None:
            return "reference to a line that is not strictly earlier"
        if not isinstance(source, Implies):
            return f"line {just.source} is not an implication"
        expected = Implies(And(Ess(source.left), source.left), Ess(source.right))
        if f != expected:
            return f"formula is not the R image of line {just.source}"
        return None
    return f"unknown justification {just!r}"


def render_justification(just: Justification) -> str:
    if isinstance(just, Taut):
        return "taut"
    if isinstance(just, Premise):
        return "premise"
    if isinstance(just, Axiom):
        return f"axiom {just.name}"
    if isinstance(just, MP):
        return f"mp {just.antecedent} {just.implication}"
    if isinstance(just, Sub):
        parts = ", ".join(
            f"{v}:={render(g)}" for v, g in sorted(just.subst.items())
        )
        return f"sub {just.source} {parts}"
    if isinstance(just, R):
        return f"r {just.source}"
    raise TypeError(f"unknown justification {just!r}")


def _parse_justification(text: str, lineno: int) -> Justification:
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "taut" and not rest:
        return Taut()
    if head == "premise" and not rest:
        return Premise()
    if head == "axiom":
        if not rest or " " in rest:
            raise DerivationSyntaxError(lineno, "axiom takes exactly one name")
        return Axiom(rest)
    if head == "mp":
        return MP(*_line_numbers(rest, 2, lineno, "mp takes two line numbers"))
    if head == "r":
        return R(*_line_numbers(rest, 1, lineno, "r takes one line number"))
    if head == "sub":
        num, _, assigns = rest.partition(" ")
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
    raise DerivationSyntaxError(lineno, f"unknown justification {text!r}")


def _line_numbers(text: str, count: int, lineno: int, message: str) -> list[int]:
    parts = text.split()
    if len(parts) != count or not all(re.fullmatch(_NUMBER, p) for p in parts):
        raise DerivationSyntaxError(lineno, message)
    return [int(p) for p in parts]


def reference_cli_parser() -> argparse.ArgumentParser:
    """The argparse parser `lea.cli` used before its table-driven reader,
    kept verbatim as the oracle of the table-driven reader."""
    parser = argparse.ArgumentParser(
        prog="lea",
        description="Workbench for the modal logic of essence and accident.",
    )
    # The global flags again for every subcommand, with their defaults
    # suppressed there so that "lea --json sat ..." and "lea sat ... --json"
    # both stick.
    common = argparse.ArgumentParser(add_help=False)
    for flags, json_default, max_n_default in (
        (parser, False, decide.DEFAULT_BOUND),
        (common, argparse.SUPPRESS, argparse.SUPPRESS),
    ):
        flags.add_argument("--json", action="store_true", default=json_default,
                           help="emit a JSON verdict instead of text")
        flags.add_argument("--max-n", type=int, default=max_n_default, metavar="N",
                           help=f"world bound for searches and scans, 1 to {MAX_N} "
                                f"(default {decide.DEFAULT_BOUND})")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("check", parents=[common],
                       help="evaluate a formula at a world of a model")
    p.add_argument("model")
    p.add_argument("world", nargs="?", default=None,
                   help="world name (defaults to the model's point)")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("valid", parents=[common],
                       help="validity over a frame class or on one frame")
    p.add_argument("formula")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="frame_class", metavar="CLS")
    group.add_argument("--frame", metavar="MODELFILE")
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("sat", parents=[common],
                       help="satisfiability over a frame class")
    p.add_argument("formula")
    p.add_argument("--class", dest="frame_class", required=True, metavar="CLS")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("bisim", parents=[common],
                       help="compare two pointed models")
    p.add_argument("model_a")
    p.add_argument("point_a")
    p.add_argument("model_b")
    p.add_argument("point_b")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--circ", action="store_true",
                       help="essence bisimilarity (default)")
    group.add_argument("--box", action="store_true",
                       help="ordinary box bisimilarity")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("contract", parents=[common],
                       help="quotient a model by its largest bisimulation")
    p.add_argument("model")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("translate", parents=[common],
                       help="translate between the essence and box languages")
    p.add_argument("direction", choices=("to-ml", "to-lea"))
    p.add_argument("formula")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("define", parents=[common],
                       help="test whether a formula defines a frame property")
    p.add_argument("property")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_define)

    p = sub.add_parser("prove", parents=[common],
                       help="check a derivation file against a system")
    p.add_argument("system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("scan", parents=[common],
                       help="search small frames for axiom failures")
    p.add_argument("system")
    p.add_argument("--class", dest="frame_class", required=True, metavar="CLS")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("genproof", parents=[common],
                       help="emit a derivation of the n-ary essence conjunction")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_genproof)

    return parser


# ---------------------------------------------------------------------------
# Concrete syntax oracle: the tokenizer and the printer as lea.formula wrote
# them before three tables drove both, each token spelled where it is used.
# They share no code with those tables; the printer reads the two operands
# by field name in place of `children`.

_ORACLE_UNARY_STARTERS = ("~", "o", "A", "[]", "<>", "T", "F", "identifier", "(")

# Symbol tokens by first character, longest first.
_ORACLE_SYMBOLS = {c: (c,) for c in "()&|~"} | {"-": ("->",), "<": ("<->", "<>"), "[": ("[]",)}

_ORACLE_LEVEL_IMP = 2
_ORACLE_LEVEL_UNARY = 5
_ORACLE_LEVEL_ATOM = 6
_ORACLE_SYMBOL_LEVEL = {And: ("&", 4), Or: ("|", 3), Implies: ("->", 2), Iff: ("<->", 1)}


def oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _ORACLE_SYMBOLS:
            for symbol in _ORACLE_SYMBOLS[c]:
                if text.startswith(symbol, i):
                    break
            else:  # a stray "-" is shown alone, "<" and "[" with what follows
                raise ParseError(i, _ORACLE_SYMBOLS[c], repr(c if c == "-" else text[i : i + 2]))
            tokens.append((symbol, symbol, i))
            i += len(symbol)
        elif c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word in ("T", "F", "A", "o"):
                tokens.append((word, word, i))
            elif word[0].islower() and word[0] != "o":
                tokens.append(("ident", word, i))
            else:
                raise ParseError(i, ("identifier",), repr(word))
            i = j
        else:
            raise ParseError(i, _ORACLE_UNARY_STARTERS, repr(c))
    tokens.append(("eof", "", n))
    return tokens


def oracle_render(f: Formula, sugar: bool = False) -> str:
    return _oracle_render(f, 0, sugar)


def _oracle_render(f: Formula, min_level: int, sugar: bool) -> str:
    text, level = _oracle_render_top(f, sugar)
    if level < min_level:
        return "(" + text + ")"
    return text


def _oracle_render_top(f: Formula, sugar: bool) -> tuple[str, int]:
    infix = _ORACLE_SYMBOL_LEVEL.get(type(f))
    if infix is not None:
        symbol, level = infix
        left, right = f.left, f.right
        # Only the side an operator nests on may hold its level unbracketed.
        left_min, right_min = (
            (level + 1, level) if level <= _ORACLE_LEVEL_IMP else (level, level + 1)
        )
        left_text = _oracle_render(left, left_min, sugar)
        right_text = _oracle_render(right, right_min, sugar)
        return f"{left_text} {symbol} {right_text}", level
    if isinstance(f, Var):
        return f.name, _ORACLE_LEVEL_ATOM
    if isinstance(f, Top):
        return "T", _ORACLE_LEVEL_ATOM
    if isinstance(f, Bot):
        return "F", _ORACLE_LEVEL_ATOM
    if isinstance(f, Not):
        if sugar and isinstance(f.sub, Ess):
            return "A " + _oracle_render(f.sub.sub, _ORACLE_LEVEL_UNARY, sugar), _ORACLE_LEVEL_UNARY
        if sugar and isinstance(f.sub, Box) and isinstance(f.sub.sub, Not):
            return (
                "<> " + _oracle_render(f.sub.sub.sub, _ORACLE_LEVEL_UNARY, sugar),
                _ORACLE_LEVEL_UNARY,
            )
        return "~" + _oracle_render(f.sub, _ORACLE_LEVEL_UNARY, sugar), _ORACLE_LEVEL_UNARY
    if isinstance(f, Ess):
        return "o " + _oracle_render(f.sub, _ORACLE_LEVEL_UNARY, sugar), _ORACLE_LEVEL_UNARY
    if isinstance(f, Box):
        return "[] " + _oracle_render(f.sub, _ORACLE_LEVEL_UNARY, sugar), _ORACLE_LEVEL_UNARY
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# The recursive walks that lea.formula and decide._Nnf replaced with explicit
# stacks, as they were, kept as oracles of the order and shape of what the
# stacks build.  oracle_render above is the recursive printer.


def recursive_parse(text: str) -> Formula:
    """parse by recursive descent: one precedence loop over the tables."""
    tokens = _tokenize(text)
    pos = 0

    def infix(min_level: int) -> Formula:
        nonlocal pos
        f = prefix()
        while (op := _INFIX.get(tokens[pos][0])) is not None and op[1] >= min_level:
            build, level = op
            symbol = tokens[pos][0]
            parts = [f]
            while tokens[pos][0] == symbol:
                pos += 1
                parts.append(infix(level + 1))
            if level <= _LEVEL_IMP:
                f = reduce(lambda right, left: build(left, right), reversed(parts))
            else:
                f = reduce(build, parts)
        return f

    def prefix() -> Formula:
        nonlocal pos
        kind, word, offset = tokens[pos]
        pos += 1
        build = _PREFIX.get(kind)
        if build is not None:
            return build(prefix())
        if kind in _CONSTANT:
            return _CONSTANT[kind]()
        if kind == "ident":
            return Var(word)
        if kind == "(":
            f = infix(_LEVEL_IFF)
            kind, word, offset = tokens[pos]
            pos += 1
            if kind != ")":
                raise ParseError(offset, (")",), word or "end of input")
            return f
        raise ParseError(offset, _UNARY_STARTERS, word or "end of input")

    f = infix(_LEVEL_IFF)
    kind, word, offset = tokens[pos]
    if kind != "eof":
        raise ParseError(offset, ("end of input",), word)
    return f


def recursive_substitute(f: Formula, sub) -> Formula:
    if isinstance(f, Var):
        return sub.get(f.name, f)
    return rebuild(f, lambda g: recursive_substitute(g, sub))


def recursive_to_ml(f: Formula) -> Formula:
    if isinstance(f, Box):
        raise ValueError(f"not an essence-language formula: contains {render(f)}")
    if isinstance(f, Ess):
        g = recursive_to_ml(f.sub)
        return Implies(g, Box(g))
    return rebuild(f, recursive_to_ml)


def recursive_to_lea(f: Formula) -> Formula:
    if isinstance(f, Ess):
        raise ValueError(f"not a box-language formula: contains {render(f)}")
    if isinstance(f, Box):
        g = recursive_to_lea(f.sub)
        return And(Ess(g), g)
    return rebuild(f, recursive_to_lea)


def recursive_modal_depth(f: Formula) -> int:
    depth = max(map(recursive_modal_depth, children(f)), default=0)
    return depth + 1 if isinstance(f, (Ess, Box)) else depth


class RecursiveNnf(decide._Nnf):
    """decide._Nnf with the recursive rewrite its task stack replaced."""

    def of(self, f: Formula) -> int:
        i = self.memo.get(id(f))
        if i is not None:
            return i
        kind = type(f)
        if kind is Var:
            i = self.intern(("lit", f.name, False), False)
        elif kind is Not:
            i = self.of(f.sub) ^ 1
        elif kind is And or kind is Or or kind is Implies:
            tag = "and" if kind is And else "or"
            parts: list[int] = []
            seen: set[tuple[int, bool]] = set()
            self._walk(f.left, kind is Implies, tag, parts, seen)
            self._walk(f.right, False, tag, parts, seen)
            i = self.junction(tag, parts)
        elif kind is Box:
            i = self.intern(("box", self.of(f.sub)), True)
        elif kind is Ess:
            g = self.of(f.sub)
            i = self.junction("or", [g ^ 1, self.intern(("box", g), True)])
        elif kind is Iff:
            a, b = self.of(f.left), self.of(f.right)
            i = self.junction("and", [self.junction("or", [a ^ 1, b]),
                                      self.junction("or", [b ^ 1, a])])
        elif kind is Top or kind is Bot:
            i = self.intern(("top",), False) ^ (kind is Bot)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.memo[id(f)] = i
        return i

    def _walk(self, g: Formula, neg: bool, tag: str, parts: list[int], seen: set) -> None:
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
            parts.append(self.of(g) ^ neg)
        elif (id(g), neg) not in seen:
            seen.add((id(g), neg))
            self._walk(g.left, neg != (kind is Implies), tag, parts, seen)
            self._walk(g.right, neg, tag, parts, seen)
