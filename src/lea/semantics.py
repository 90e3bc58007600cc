"""Truth at worlds, frame validity and definability checks.

Both modal operators are interpreted here: [] f holds at s when f holds at
every successor, and o f holds at s when f-at-s forces f at every successor
(worlds where f fails satisfy o f vacuously).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from . import sweep
from .formula import Formula
from .kripke import FrameClass, FrameProperty, Model, ModelIndex, frame_worlds


def _modal_bits(n: int, succ: Sequence[int], sub: int, ess: bool) -> int:
    """Worlds where [] f holds, for sub the extension of f; with ess, where
    o f holds: those and, vacuously, every world where f fails.

    One pass over the successor rows against miss, the worlds outside sub:
    a row that meets miss fails [] f, and each other row sets its world's
    bit.
    """
    miss = ((1 << n) - 1) ^ sub
    bits = miss if ess else 0
    s = 0
    for row in succ:
        if not row & miss:
            bits |= 1 << s
        s += 1
    return bits


def _bits(idx: ModelIndex, f: Formula) -> int:
    """Bitmap of the worlds where f holds: f's register under the one
    valuation of the model, with the row-wise modal step."""
    step = partial(_modal_bits, idx.n, idx.succ)
    return sweep.Prog(f).evaluate(idx.all_mask, idx.val_bits, step)


def extension(m: Model, f: Formula) -> frozenset[str]:
    """The set of worlds of m where f holds."""
    bits = _bits(m.index, f)
    return frozenset(w for i, w in enumerate(m.worlds) if (bits >> i) & 1)


def satisfies(m: Model, w: str, f: Formula) -> bool:
    """Truth of f at world w of m."""
    idx = m.index
    if w not in idx.pos:
        raise ValueError(f"unknown world {w!r}")
    return bool(_bits(idx, f) >> idx.pos[w] & 1)


def valid_on_frame(m: Model, f: Formula) -> bool:
    """Truth of f at every world under every valuation of f's variables.

    Only m's worlds and relation matter; its own valuation is ignored.
    Raises sweep.ValuationLimitError past 2^sweep.MAX_VALUATION_BITS.
    """
    return frame_countermodel(m, f) is None


def frame_countermodel(m: Model, f: Formula) -> tuple[Model, str] | None:
    """m's frame with a valuation of f's variables, and a world where f fails.

    The first falsifying (valuation, world) in sweep order, or None when f
    is valid on the frame.  Raises as valid_on_frame does.
    """
    idx = m.index
    prog = sweep.Prog(f)
    k = len(prog.names)
    if idx.n * k > sweep.MAX_VALUATION_BITS:
        raise sweep.ValuationLimitError(
            f"frame sweep over 2^{idx.n * k} valuations ({idx.n} worlds, {k} variables) "
            f"exceeds the limit of 2^{sweep.MAX_VALUATION_BITS}"
        )
    hit = sweep.frame_hit(prog, idx.n, idx.succ, False)
    if hit is None:
        return None
    v, s = hit
    return sweep.build_model(m.worlds, idx.succ, prog.names, v), m.worlds[s]


# ---------------------------------------------------------------------------
# Frame definability


@dataclass(frozen=True)
class DefinabilityVerdict:
    property: FrameProperty
    formula: Formula
    max_n: int
    confirmed: bool
    witness: Model | None = None
    # "property-but-invalid": witness frame has the property, formula fails.
    # "valid-but-no-property": formula valid on the witness frame anyway.
    direction: str | None = None

    def __bool__(self) -> bool:
        return self.confirmed


def check_definability(
    prop: FrameProperty, f: Formula, max_n: int
) -> DefinabilityVerdict:
    """Compare {frames with prop} against {frames validating f}, exhaustively.

    Every frame on up to max_n worlds is checked on both sides, one per
    isomorphism class; the first disagreement (smallest size, then frame
    enumeration order) is reported as a witness.  Confirmation is only as
    strong as max_n, which must lie in 1..sweep.MAX_N (ValueError).
    """
    prog = sweep.Prog(f)
    for n, picked in sweep.class_chunks(FrameClass.K, max_n, len(prog.names)):
        has = sweep.orbit_property(n, prop)
        holds = bytes(map(has.__getitem__, picked))
        (invalid,) = sweep.chunk_hits([prog], n, picked, False)
        # A disagreement is a frame with prop where f fails somewhere, or one
        # without it where f never fails.
        j = bytes(map(operator.eq, holds, invalid)).find(1)
        if j < 0:
            continue
        succ = sweep.frame_orbits(n)[picked[j]][0]
        witness = sweep.build_model(frame_worlds(n), succ, (), 0)
        direction = "property-but-invalid" if holds[j] else "valid-but-no-property"
        return DefinabilityVerdict(prop, f, max_n, False, witness, direction)
    return DefinabilityVerdict(prop, f, max_n, True)
