"""The one evaluator of formulas on bitmaps, and exhaustive frame sweeps.

Prog compiles a formula to a postorder op list (formula.postorder, so
that no nesting depth meets the recursion limit), and runs it through one
table of truth functions on registers.  A register is one int whose bit
v*n + s is the truth at world s (of n) under valuation number v, so
checking a formula against every valuation of a frame costs a handful of
int ops per formula node.  A model is the case of one valuation: bit s is
world s, and every register is an extension bitmap.  Valuation number v
assigns the j-th of the formula's variables in sorted order (Prog.names)
the world set (v >> (n*j)) & (2^n - 1).  A question about one frame is one
frame_hit, the lowest set bit of a register: the smallest (valuation
number, world) where the formula takes a given truth value.  Validity is
no hit for False.

Frame sweeps visit one frame per isomorphism class (frame_orbits): the
frame with the smallest mask, weighted by the size of its orbit.  Frame
validity and every frame property are invariant under relabelling, so the
first hit in (size, mask) order over the representatives is the first hit
over all labelled frames, and orbit sizes keep counts in labelled frames.
Class membership is one pass per size: with the successor rows of every
orbit packed one frame per byte (orbit_rows), each frame property is a
few dozen int ops over all orbits at once (kripke._check_property).  A
sweep takes its class frames a chunk at a time (class_chunks).  Each
frame's register is one block of a wider register, and a chunk's layout
(_chunk_layout) is built once: the all-true register and the variables'
registers repeated in every block, over the union of the variables of the
formulas the sweep asks about, and one mask per edge offset.  Each compiled
formula is then one evaluation over that layout (chunk_hits), and a carry
out of each block gives one 0/1 byte per frame.  A bounded search reads its
(valuation, world) off the lowest set bit of the chunk's register.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import chain, compress, count, permutations
from typing import Callable, Iterator, Mapping, Sequence

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
    children,
    postorder,
)
from .kripke import FrameClass, FrameProperty, Model, _check_property, frame_worlds

# Registers over every valuation of k variables on n worlds hold n * 2^(n*k)
# bits: megabytes past n*k = MAX_VALUATION_BITS, and 2^k times more a world.
MAX_VALUATION_BITS = 20


class ValuationLimitError(ValueError):
    """A sweep over more than 2^MAX_VALUATION_BITS valuations."""


# The truth function of each boolean node type on registers: full is the
# register that is true everywhere, x and y are the children's registers.
_BOOLEAN: dict[type, Callable[..., int]] = {
    Top: lambda full: full,
    Bot: lambda full: 0,
    Not: lambda full, x: full ^ x,
    And: lambda full, x, y: x & y,
    Or: lambda full, x, y: x | y,
    Implies: lambda full, x, y: (full ^ x) | y,
    Iff: lambda full, x, y: full ^ x ^ y,
}

# A modal step: (body's register, ess) -> register of o body, or of [] body.
Step = Callable[[int, bool], int]


class Prog:
    """A formula compiled to a postorder op list over shared registers.

    ops[i] is (node type, *child registers), or (Var, name); root is the
    formula's register and names holds its variables, sorted.  Nodes are
    looked up by id, then by (node type, child registers), so compiling is
    linear in the formula's DAG and equal subterms share one register.
    """

    def __init__(self, f: Formula):
        ops: list[tuple] = []
        by_id: dict[int, int] = {}
        by_shape: dict[tuple, int] = {}
        for g in postorder(f):
            kind = type(g)
            if kind is Var:
                shape = (Var, g.name)
            elif kind in _BOOLEAN or kind is Ess or kind is Box:
                shape = (kind, *map(by_id.__getitem__, map(id, children(g))))
            else:
                raise TypeError(f"not a formula: {g!r}")
            reg = by_shape.get(shape)
            if reg is None:
                reg = by_shape[shape] = len(ops)
                ops.append(shape)
            by_id[id(g)] = reg

        self.ops = ops
        self.root = by_id[id(f)]
        self.names = tuple(sorted({op[1] for op in ops if op[0] is Var}))

    def evaluate(self, full: int, var_regs: Mapping[str, int], step: Step) -> int:
        """The root's register, from the all-true register, the variables'
        registers (a missing one is false everywhere) and the modal step."""
        regs: list[int] = []
        push = regs.append
        for op in self.ops:
            kind = op[0]
            fn = _BOOLEAN.get(kind)
            if kind is Var:
                push(var_regs.get(op[1], 0))
            elif fn is None:
                push(step(regs[op[1]], kind is Ess))
            elif len(op) == 3:
                push(fn(full, regs[op[1]], regs[op[2]]))
            elif len(op) == 2:
                push(fn(full, regs[op[1]]))
            else:
                push(fn(full))
        return regs[self.root]

    def run(self, n: int, succ: Sequence[int]) -> int:
        """The root's register over every valuation of the frame."""
        full, ones, var_regs = _valuation_registers(n, len(self.names))
        lanes = [(n + d, ones * sources) for d, sources in _offsets(succ)]
        return self.evaluate(full, dict(zip(self.names, var_regs)), _frame_step(n, full, lanes))


@lru_cache(maxsize=16)
def _valuation_registers(n: int, k: int) -> tuple[int, int, tuple[int, ...]]:
    """(full, ones, variable registers) for k variables on n worlds.

    full is true everywhere and ones has bit v*n for every valuation v.
    Bit v*n + s of variable j's register is bit n*j + s of v: its truth at
    world s under valuation v.
    """
    regs = [0] * k
    ones = 1
    # Per bit b of v, double the valuations covered: the new half copies the
    # old, with variable b // n also true at world b % n.  Linear in size.
    for b in range(n * k):
        width = n << b
        regs = [reg | reg << width for reg in regs]
        regs[b // n] |= ones << (width + b % n)
        ones |= ones << width
    return ones * ((1 << n) - 1), ones, tuple(regs)


def _offsets(succ: Sequence[int]) -> list[tuple[int, int]]:
    """(d, sources) per offset d = t - s of the frame's edges s -> t, where
    sources is the set of worlds s with an edge at that offset."""
    sources: dict[int, int] = {}
    for s, row in enumerate(succ):
        while row:
            low = row & -row
            d = low.bit_length() - 1 - s
            sources[d] = sources.get(d, 0) | 1 << s
            row ^= low
    return list(sources.items())


def _frame_step(n: int, full: int, lanes: Sequence[tuple[int, int]]) -> Step:
    """The modal step over every valuation of a frame at once, or of every
    frame of a chunk, from (n + d, mask) per offset d = t - s.

    An edge s -> t reads bit v*n + t for bit v*n + s.  Per offset, one shift
    of the body's failures and a mask of the edges' sources mark the worlds
    with a failing successor at that offset, in every valuation.  A mask
    never selects a bit whose successor lies outside its own valuation's
    n bits, so frames side by side in one register stay apart.
    """

    def step(x: int, ess: bool) -> int:
        # Failures are shifted left by n first, so every offset shifts right.
        miss = (full ^ x) << n
        failed = 0
        for shift, mask in lanes:
            failed |= (miss >> shift) & mask
        # [] fails where a successor fails; o only where the body also holds.
        return full ^ (failed & x if ess else failed)

    return step


def iter_succ_tables(n: int) -> Iterator[tuple[int, ...]]:
    """Successor bitmask tuples of every frame on n worlds, mask order.

    Frame number m encodes the pair (s, t) at bit s*n + t.
    """
    width = (1 << n) - 1
    for mask in range(1 << (n * n)):
        yield tuple((mask >> (s * n)) & width for s in range(n))


# Frame sweeps cover 1 to MAX_N worlds.  Beyond this the seen table of
# frame_orbits alone takes 2^(n*n) bytes (64 GiB at six worlds).
MAX_N = 5


@lru_cache(maxsize=None)
def frame_orbits(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(succ, orbit size) for the minimum-mask frame of each isomorphism
    class on n worlds, in mask order.

    One pass over the masks: the first mask not yet seen is the smallest of
    its orbit, and its n! relabellings mark the rest as seen.  Orbit sizes
    sum to 2^(n*n).  Built on first use and kept per n.
    """
    _check_bound(n)
    width = (1 << n) - 1
    # Per permutation: the image of every row bitmask, and the shift that
    # moves the image of row s to row perm[s].
    relabellings = []
    for perm in permutations(range(n)):
        rows = [
            sum(1 << perm[t] for t in range(n) if (row >> t) & 1)
            for row in range(width + 1)
        ]
        relabellings.append((rows, [perm[s] * n for s in range(n)]))
    seen = bytearray(1 << (n * n))
    orbits = []
    for mask in range(1 << (n * n)):
        if seen[mask]:
            continue
        succ = tuple((mask >> (s * n)) & width for s in range(n))
        images = set()
        for rows, shifts in relabellings:
            image = 0
            for s in range(n):
                image |= rows[succ[s]] << shifts[s]
            images.add(image)
        for image in images:
            seen[image] = 1
        orbits.append((succ, len(images)))
    return tuple(orbits)


def _check_bound(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"frame sweeps cover 1 to {MAX_N} worlds, not {n}")


# The frames of a chunk share one register of at most CHUNK_BITS bits
# (16 KiB); a frame whose block alone is wider has a chunk to itself.  The
# n = 4 sweeps of acceptance criteria 4 and 10 take the same time, within
# noise, from 2^15 to 2^19 bits, while every register an evaluation keeps
# (one per op) costs CHUNK_BITS / 8 bytes.
CHUNK_BITS = 1 << 17


@lru_cache(maxsize=None)
def orbit_rows(n: int) -> tuple[int, ...]:
    """The successor rows of every frame of frame_orbits(n), one frame per
    byte: byte i of row s is succ[s] of the i-th frame.  Five worlds and
    the carry bit above them fit a byte.  Built on first use, per n."""
    flat = bytes(chain.from_iterable(succ for succ, _ in frame_orbits(n)))
    return tuple(int.from_bytes(flat[s::n], "little") for s in range(n))


def _orbit_lanes(n: int, test: Callable[..., int], arg) -> bytes:
    """Byte i is lane i of test(n, rows, arg, one), one call over every
    frame of frame_orbits(n) in its lane of orbit_rows(n); one has bit 0
    of every byte."""
    m = len(frame_orbits(n))
    return test(n, orbit_rows(n), arg, _repeat(1, 1, m)).to_bytes(m, "little")


@lru_cache(maxsize=None)
def orbit_offsets(n: int) -> tuple[tuple[int, bytes], ...]:
    """(d, column) per offset d = t - s on n worlds: byte i of the column
    is the set of worlds s with an edge s -> s + d in the i-th frame of
    frame_orbits(n), gathered lane-wise from orbit_rows(n).  Built on first
    use, per n."""
    def sources(n: int, rows: Sequence[int], d: int, one: int) -> int:
        return sum((rows[s] >> s + d & one) << s for s in range(max(0, -d), min(n, n - d)))
    return tuple((d, _orbit_lanes(n, sources, d)) for d in range(1 - n, n))


@lru_cache(maxsize=None)
def orbit_property(n: int, prop: FrameProperty) -> bytes:
    """Byte i is 1 where the i-th frame of frame_orbits(n) has prop, else 0.
    Built on first use, per (n, prop)."""
    return _orbit_lanes(n, succ_has_property, prop)


def class_chunks(cls: FrameClass, max_n: int, k: int) -> Iterator[tuple[int, list[int]]]:
    """(n, indices into frame_orbits(n)) for the class frames on 1 to max_n
    worlds, in (size, mask) order, cut into chunks for chunk_hits with
    formulas of up to k variables.

    Each size goes through succ_in_class once, with every frame of
    frame_orbits(n) in a lane of orbit_rows(n).  Raises ValueError for
    max_n outside 1..MAX_N before it yields anything.
    """
    _check_bound(max_n)
    for n in range(1, max_n + 1):
        per_chunk = max(1, CHUNK_BITS // (8 * _block_bytes(n, k)))
        picked = list(compress(count(), _orbit_lanes(n, succ_in_class, cls)))
        for start in range(0, len(picked), per_chunk):
            yield n, picked[start:start + per_chunk]


def succ_in_class(n: int, succ: Sequence[int], cls: FrameClass, one: int = 1) -> int:
    """The lanes of the frames in cls (see kripke._check_property): with
    one = 1, 1 when the single frame succ is in cls, else 0."""
    return reduce(int.__and__, (_check_property(n, succ, p, one) for p in cls.properties), one)


# One property's lanes, under the name the class sweeps look up.
succ_has_property = _check_property


def _block_bytes(n: int, k: int) -> int:
    """Bytes per frame in a chunk register for k variables on n worlds: the
    frame's n * 2^(n*k) register bits and at least one spare bit above
    them, rounded up to whole bytes."""
    return (n << (n * k)) // 8 + 1


def chunk_hits(progs: Sequence[Prog], n: int, picked: Sequence[int], value: bool) -> list[bytes]:
    """Per compiled formula, one byte per picked frame of frame_orbits(n):
    1 where the formula takes the given truth value on the frame under
    some valuation, else 0.

    One layout over the union of the formulas' variables serves them all.
    Adding all-ones to each block carries into its spare bits exactly where
    the block is non-zero, and byte j*w of the carries shifted down is
    frame j's verdict.
    """
    names = sorted(set().union(*(prog.names for prog in progs)))
    k, m = len(names), len(picked)
    w = _block_bytes(n, k)
    full, var_regs, step = _chunk_layout(n, picked, names)
    spare, one = n << (n * k), _repeat(1, w, m)
    hits = []
    for prog in progs:
        bits = prog.evaluate(full, var_regs, step)
        if not value:
            bits ^= full
        hits.append((((bits + full) >> spare) & one).to_bytes(m * w, "little")[::w])
    return hits


def _repeat(reg: int, w: int, m: int) -> int:
    """m copies of a w-byte block, side by side."""
    return int.from_bytes(reg.to_bytes(w, "little") * m, "little")


def _chunk_layout(
    n: int, picked: Sequence[int], names: Sequence[str]
) -> tuple[int, dict[str, int], Step]:
    """(full, variable registers, modal step) for one evaluation over the
    picked frames of frame_orbits(n) and every valuation of names.

    Frame j's register, laid out as Prog.run lays it out, is the block at
    byte j*w of one register, w = _block_bytes(n, len(names)), and the spare
    bits above each block stay zero.  The all-true and variable registers
    repeat the one-frame ones in every block.  The modal step's mask for an
    offset holds, in frame j's block, the one-frame lane pattern (ones)
    times frame j's sources at that offset (orbit_offsets), so no mask
    reaches across blocks.  Any formula whose variables are among names
    evaluates over it.
    """
    k, m = len(names), len(picked)
    full, ones, var_regs = _valuation_registers(n, k)
    w = _block_bytes(n, k)
    # The lane pattern of each of the 2^n source sets, as one block.
    patterns = [(ones * sources).to_bytes(w, "little") for sources in range(1 << n)]
    # itemgetter of a single index returns the item, not a 1-tuple.
    take = operator.itemgetter(*picked) if m > 1 else lambda column: (column[picked[0]],)
    lanes = []
    for d, column in orbit_offsets(n):
        sources = take(column)
        if any(sources):
            mask = int.from_bytes(b"".join(map(patterns.__getitem__, sources)), "little")
            lanes.append((n + d, mask))
    full = _repeat(full, w, m)
    regs = {name: _repeat(reg, w, m) for name, reg in zip(names, var_regs)}
    return full, regs, _frame_step(n, full, lanes)


def frame_hit(prog: Prog, n: int, succ: Sequence[int], value: bool) -> tuple[int, int] | None:
    """Smallest (valuation number, world) where the compiled formula takes
    the given truth value on the frame, or None where it takes it nowhere.

    The formula is valid on the frame when it has no hit for False.
    """
    bits = prog.run(n, succ)
    if not value:
        bits ^= _valuation_registers(n, len(prog.names))[0]
    if not bits:
        return None
    return divmod((bits & -bits).bit_length() - 1, n)


def build_model(
    worlds: tuple[str, ...], succ: Sequence[int], names: Sequence[str], v: int
) -> Model:
    """Materialize the model picked out by a sweep hit on the given worlds."""
    n = len(worlds)
    rel = frozenset(
        (worlds[s], worlds[t]) for s in range(n) for t in range(n) if (succ[s] >> t) & 1
    )
    width = (1 << n) - 1
    val = {}
    for j, name in enumerate(names):
        mask = (v >> (n * j)) & width
        val[name] = frozenset(worlds[i] for i in range(n) if (mask >> i) & 1)
    return Model(worlds, rel, val)


def search_sat(f: Formula, cls: FrameClass, max_n: int) -> tuple[Model, str] | None:
    """Exhaustively look for a pointed model of f on class frames up to max_n.

    Returns (model, world) for the first hit in (size, frame, valuation,
    world) order, or None when no model with at most max_n worlds exists.
    One-way evidence: None never means unsatisfiable.  The lowest set bit
    of a chunk's register lies in the block of its first frame with a hit,
    at the place frame_hit would find in that frame alone.
    """
    prog = Prog(f)
    k = len(prog.names)
    for n, picked in class_chunks(cls, max_n, k):
        bits = prog.evaluate(*_chunk_layout(n, picked, prog.names))
        if bits:
            j, place = divmod((bits & -bits).bit_length() - 1, 8 * _block_bytes(n, k))
            v, s = divmod(place, n)
            succ = frame_orbits(n)[picked[j]][0]
            m = build_model(frame_worlds(n), succ, prog.names, v)
            return m, m.worlds[s]
    return None
