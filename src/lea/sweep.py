"""Exhaustive frame/valuation sweeps.

The trick used throughout: for a fixed frame with n worlds and k variables,
pack the truth value of a formula at one world across all 2^(n*k) valuations
into a single big integer (bit v = truth under valuation number v).  Boolean
connectives become bitwise operations on those integers, so checking a
formula against every valuation of a frame costs a handful of int ops per
formula node instead of a loop over valuations.

Valuation number v assigns the j-th of the formula's variables in sorted
order (Prog.names) the world set (v >> (n*j)) & (2^n - 1).  Every frame
question is one frame_hit: the smallest (valuation number, world) where the
formula takes a given truth value.  Validity is no hit for False.

Frame sweeps visit one frame per isomorphism class (frame_orbits): the
frame with the smallest mask, weighted by the size of its orbit.  Frame
validity and every frame property are invariant under relabelling, so the
first hit in (size, mask) order over the representatives is the first hit
over all labelled frames, and orbit sizes keep counts in labelled frames.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

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
    variables,
)
from .kripke import FrameClass, Model, _check_property, frame_worlds


@lru_cache(maxsize=None)
def _bit_pattern(total_bits: int, b: int) -> int:
    """Big integer whose v-th bit is (v >> b) & 1, for v < 2^total_bits.

    The bits repeat with period 2^(b+1): 2^b zeros, then 2^b ones.  Start
    from one period and double the covered width until it spans all
    2^total_bits bits, so the cost is linear in the pattern's size.
    """
    out = ((1 << (1 << b)) - 1) << (1 << b)
    width, total = 1 << (b + 1), 1 << total_bits
    while width < total:
        out |= out << width
        width <<= 1
    return out


# Op tag of each node type but Var; an op's operands are the registers of
# the node's children.
_TAGS = {Top: "top", Bot: "bot", Not: "not", Ess: "ess", Box: "box",
         And: "and", Or: "or", Implies: "imp", Iff: "iff"}


class Prog:
    """A formula compiled to a postorder op list over shared registers;
    names holds its variables, sorted."""

    def __init__(self, f: Formula):
        self.names = tuple(sorted(variables(f)))
        self.ops: list[tuple] = []
        self._regs: dict[Formula, int] = {}
        self.root = self._emit(f)

    def _emit(self, f: Formula) -> int:
        if f in self._regs:
            return self._regs[f]
        tag = _TAGS.get(type(f))
        if tag is not None:
            op = (tag, *map(self._emit, children(f)))
        elif isinstance(f, Var):
            op = ("var", self.names.index(f.name))
        else:
            raise TypeError(f"not a formula: {f!r}")
        reg = len(self.ops)
        self.ops.append(op)
        self._regs[f] = reg
        return reg

    def run(self, n: int, succ: Sequence[int]) -> list[int]:
        """Per-world truth bitmaps of the root over all valuations."""
        k = len(self.names)
        total_bits = n * k
        full = (1 << (1 << total_bits)) - 1
        regs: list[list[int]] = []
        for op in self.ops:
            tag = op[0]
            if tag == "var":
                j = op[1]
                regs.append([_bit_pattern(total_bits, n * j + s) for s in range(n)])
            elif tag == "top":
                regs.append([full] * n)
            elif tag == "bot":
                regs.append([0] * n)
            elif tag == "not":
                a = regs[op[1]]
                regs.append([full ^ a[s] for s in range(n)])
            elif tag == "and":
                a, b = regs[op[1]], regs[op[2]]
                regs.append([a[s] & b[s] for s in range(n)])
            elif tag == "or":
                a, b = regs[op[1]], regs[op[2]]
                regs.append([a[s] | b[s] for s in range(n)])
            elif tag == "imp":
                a, b = regs[op[1]], regs[op[2]]
                regs.append([(full ^ a[s]) | b[s] for s in range(n)])
            elif tag == "iff":
                a, b = regs[op[1]], regs[op[2]]
                regs.append([full ^ (a[s] ^ b[s]) for s in range(n)])
            else:  # ess / box
                a = regs[op[1]]
                out = []
                for s in range(n):
                    boxed = full
                    targets = succ[s]
                    t = 0
                    while targets:
                        if targets & 1:
                            boxed &= a[t]
                        targets >>= 1
                        t += 1
                    if tag == "box":
                        out.append(boxed)
                    else:
                        out.append((full ^ a[s]) | boxed)
                regs.append(out)
        return regs[self.root]


def iter_succ_tables(n: int) -> Iterator[tuple[int, ...]]:
    """Successor bitmask tuples of every frame on n worlds, mask order.

    Frame number m encodes the pair (s, t) at bit s*n + t, matching
    kripke.enumerate_frames.
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


def class_frames(cls: FrameClass, max_n: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """(n, succ, orbit size) for the class frames on 1 to max_n worlds, one
    per isomorphism class, in (size, mask) order.

    The one sweep behind search_sat, soundness scans and definability
    checks (the last over FrameClass.K).  Raises ValueError for max_n
    outside 1..MAX_N before it yields anything.
    """
    _check_bound(max_n)
    for n in range(1, max_n + 1):
        for succ, size in frame_orbits(n):
            if succ_in_class(n, succ, cls):
                yield n, succ, size


def succ_in_class(n: int, succ: Sequence[int], cls: FrameClass) -> bool:
    return all(_check_property(n, succ, p) for p in cls.properties)


def succ_has_property(n: int, succ: Sequence[int], prop) -> bool:
    return _check_property(n, succ, prop)


def frame_hit(prog: Prog, n: int, succ: Sequence[int], value: bool) -> tuple[int, int] | None:
    """Smallest (valuation number, world) where the compiled formula takes
    the given truth value on the frame, or None where it takes it nowhere.

    The formula is valid on the frame when it has no hit for False.
    """
    # The bitmap of a world where the formula never takes the value.
    miss = 0 if value else (1 << (1 << (n * len(prog.names)))) - 1
    hit = None
    for s, bits in enumerate(prog.run(n, succ)):
        if bits != miss:
            bits ^= miss
            v = (bits & -bits).bit_length() - 1
            if hit is None or v < hit[0]:
                hit = v, s
    return hit


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
    One-way evidence: None never means unsatisfiable.
    """
    prog = Prog(f)
    for n, succ, _ in class_frames(cls, max_n):
        hit = frame_hit(prog, n, succ, True)
        if hit is not None:
            v, s = hit
            m = build_model(frame_worlds(n), succ, prog.names, v)
            return m, m.worlds[s]
    return None

