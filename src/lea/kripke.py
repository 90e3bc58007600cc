"""Kripke models: construction, JSON exchange format, frame properties.

Worlds are strings.  A model is immutable once built; operations that
"modify" a model (adding self-loops, taking disjoint unions, quotients)
return fresh models.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Model:
    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        if not self.worlds:
            raise ValueError("a model needs at least one world")
        seen = set(self.worlds)
        if len(seen) != len(self.worlds):
            raise ValueError("duplicate world ids")
        for s, t in self.rel:
            if s not in seen or t not in seen:
                raise ValueError(f"relation mentions unknown world in ({s!r}, {t!r})")
        for p, ws in self.val.items():
            for w in ws:
                if w not in seen:
                    raise ValueError(f"valuation of {p!r} mentions unknown world {w!r}")

    @staticmethod
    def make(
        worlds: Iterable[str],
        rel: Iterable[tuple[str, str]] = (),
        val: Mapping[str, Iterable[str]] | None = None,
    ) -> "Model":
        """Build a model from plain iterables."""
        return Model(
            tuple(worlds),
            frozenset((s, t) for s, t in rel),
            {p: frozenset(ws) for p, ws in (val or {}).items()},
        )

    @cached_property
    def index(self) -> "ModelIndex":
        """Bitmask index, built on first use and kept in the instance dict."""
        return ModelIndex(self)


@dataclass(frozen=True)
class PointedModel:
    model: Model
    point: str

    def __post_init__(self) -> None:
        if self.point not in self.model.worlds:
            raise ValueError(f"point {self.point!r} is not a world of the model")


# ---------------------------------------------------------------------------
# Model index: bitmask successor sets, used by the evaluators and the
# bisimulation fixpoint.  Worlds map to bit positions in declaration order.


class ModelIndex:
    def __init__(self, m: Model):
        self.n = len(m.worlds)
        self.pos = {w: i for i, w in enumerate(m.worlds)}
        self.all_mask = (1 << self.n) - 1
        self.succ = [0] * self.n
        self.pred = [0] * self.n
        for s, t in m.rel:
            self.succ[self.pos[s]] |= 1 << self.pos[t]
            self.pred[self.pos[t]] |= 1 << self.pos[s]
        self.val_bits: dict[str, int] = {}
        for p, ws in m.val.items():
            bits = 0
            for w in ws:
                bits |= 1 << self.pos[w]
            self.val_bits[p] = bits
        # Per-world valuation fingerprint over the declared variables.
        names = sorted(self.val_bits)
        self.sig = [
            tuple((self.val_bits[p] >> i) & 1 for p in names) for i in range(self.n)
        ]


# ---------------------------------------------------------------------------
# JSON exchange format


def model_to_obj(m: Model, point: str | None = None) -> dict:
    """Plain-dict form of a model, ready for json.dumps."""
    order = {w: i for i, w in enumerate(m.worlds)}
    obj: dict = {
        "worlds": list(m.worlds),
        "rel": [list(p) for p in sorted(m.rel, key=lambda p: (order[p[0]], order[p[1]]))],
        "val": {
            p: sorted(ws, key=order.__getitem__) for p, ws in sorted(m.val.items())
        },
    }
    if point is not None:
        obj["point"] = point
    return obj


def model_from_obj(obj: object) -> tuple[Model, str | None]:
    """Parse the dict form, strictly.  Returns the model and its optional point."""
    if not isinstance(obj, dict):
        raise ValueError("model must be a JSON object")
    unknown = set(obj) - {"worlds", "rel", "val", "point"}
    if unknown:
        raise ValueError(f"unknown keys in model: {sorted(unknown)}")
    for key in ("worlds", "rel", "val"):
        if key not in obj:
            raise ValueError(f"model is missing {key!r}")
    worlds = obj["worlds"]
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ValueError('"worlds" must be a list of strings')
    rel = obj["rel"]
    if not isinstance(rel, list):
        raise ValueError('"rel" must be a list of pairs')
    pairs = []
    for entry in rel:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise ValueError(f'"rel" entry is not a pair of world ids: {entry!r}')
        pairs.append((entry[0], entry[1]))
    val = obj["val"]
    if not isinstance(val, dict):
        raise ValueError('"val" must be an object')
    valuation = {}
    for p, ws in val.items():
        if not (isinstance(ws, list) and all(isinstance(w, str) for w in ws)):
            raise ValueError(f'valuation of {p!r} must be a list of world ids')
        valuation[p] = ws
    point = obj.get("point")
    if point is not None and not isinstance(point, str):
        raise ValueError('"point" must be a world id')
    m = Model.make(worlds, pairs, valuation)
    if point is not None and point not in m.worlds:
        raise ValueError(f'point {point!r} is not in "worlds"')
    return m, point


def model_to_json(m: Model, point: str | None = None) -> str:
    return json.dumps(model_to_obj(m, point))


def model_from_json(text: str) -> tuple[Model, str | None]:
    return model_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Frame properties and classes


class FrameProperty(Enum):
    REFLEXIVE = "reflexive"
    SERIAL = "serial"
    TRANSITIVE = "transitive"
    SYMMETRIC = "symmetric"
    EUCLIDEAN = "euclidean"
    COREFLEXIVE = "coreflexive"
    WEAKLY_TRANSITIVE = "weakly-transitive"
    WEAKLY_CONNECTED = "weakly-connected"
    WEAK_WEAK_EUCLIDEAN = "weak-weak-euclidean"
    STRICT_TRANSITIVE3 = "strict-transitive3"
    STRICT_EUCLIDEAN3 = "strict-euclidean3"


def has_property(m: Model, prop: FrameProperty) -> bool:
    """Evaluate the first-order frame condition on m's relation."""
    idx = m.index
    return _check_property(idx.n, idx.succ, prop)


def _check_property(n: int, succ: Sequence[int], prop: FrameProperty) -> bool:
    P = FrameProperty
    if prop is P.REFLEXIVE:
        return all((succ[i] >> i) & 1 for i in range(n))
    if prop is P.SERIAL:
        return all(succ[i] for i in range(n))
    if prop is P.SYMMETRIC:
        return all(
            (succ[t] >> s) & 1 for s in range(n) for t in range(n) if (succ[s] >> t) & 1
        )
    if prop is P.COREFLEXIVE:
        return all(succ[i] & ~(1 << i) == 0 for i in range(n))
    if prop is P.TRANSITIVE:
        for x in range(n):
            two_step = 0
            ys = succ[x]
            for y in range(n):
                if (ys >> y) & 1:
                    two_step |= succ[y]
            if two_step & ~succ[x]:
                return False
        return True
    if prop is P.EUCLIDEAN:
        for x in range(n):
            s = succ[x]
            for y in range(n):
                if (s >> y) & 1 and s & ~succ[y]:
                    return False
        return True
    if prop is P.WEAKLY_TRANSITIVE:
        for x in range(n):
            two_step = 0
            for y in range(n):
                if (succ[x] >> y) & 1:
                    two_step |= succ[y]
            if two_step & ~succ[x] & ~(1 << x):
                return False
        return True
    if prop is P.WEAKLY_CONNECTED:
        for x in range(n):
            s = succ[x]
            for y in range(n):
                if not (s >> y) & 1:
                    continue
                for z in range(n):
                    if (s >> z) & 1 and y != z:
                        if not ((succ[y] >> z) & 1 or (succ[z] >> y) & 1):
                            return False
        return True
    if prop is P.WEAK_WEAK_EUCLIDEAN:
        for x in range(n):
            s = succ[x]
            for y in range(n):
                if not (s >> y) & 1:
                    continue
                for z in range(n):
                    if (s >> z) & 1 and z != x and z != y:
                        if not (succ[y] >> z) & 1:
                            return False
        return True
    if prop is P.STRICT_TRANSITIVE3:
        for x in range(n):
            for y in range(n):
                if (succ[x] >> y) & 1 and x != y:
                    for z in range(n):
                        if (succ[y] >> z) & 1 and z != x and z != y:
                            if not (succ[x] >> z) & 1:
                                return False
        return True
    if prop is P.STRICT_EUCLIDEAN3:
        for x in range(n):
            s = succ[x]
            for y in range(n):
                if (s >> y) & 1 and x != y:
                    for z in range(n):
                        if (s >> z) & 1 and z != x and z != y:
                            if not (succ[y] >> z) & 1:
                                return False
        return True
    raise ValueError(f"unknown property {prop!r}")


class FrameClass(Enum):
    K = ()
    D = (FrameProperty.SERIAL,)
    T = (FrameProperty.REFLEXIVE,)
    KB = (FrameProperty.SYMMETRIC,)
    TB = (FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC)
    K4 = (FrameProperty.TRANSITIVE,)
    S4 = (FrameProperty.REFLEXIVE, FrameProperty.TRANSITIVE)
    B5 = (FrameProperty.SYMMETRIC, FrameProperty.EUCLIDEAN)
    S5 = (FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE)

    @property
    def properties(self) -> tuple[FrameProperty, ...]:
        return self.value


def in_class(m: Model, cls: FrameClass) -> bool:
    return all(has_property(m, p) for p in cls.properties)


# ---------------------------------------------------------------------------
# Transformations


class SelfLoopMode(Enum):
    ALL = "all"
    ENDPOINTS = "endpoints"
    TWO_CYCLES = "two-cycles"
    HAS_PREDECESSOR = "has-predecessor"


def add_self_loops(m: Model, mode: SelfLoopMode) -> Model:
    """Add w R w for every world selected by mode.

    Whatever the mode, the resulting model satisfies exactly the same
    essence-language formulas at each world as m does.
    """
    idx = m.index
    chosen = []
    for i, w in enumerate(m.worlds):
        if mode is SelfLoopMode.ALL:
            hit = True
        elif mode is SelfLoopMode.ENDPOINTS:
            hit = idx.succ[i] == 0
        elif mode is SelfLoopMode.TWO_CYCLES:
            hit = bool(idx.succ[i] & idx.pred[i])
        elif mode is SelfLoopMode.HAS_PREDECESSOR:
            hit = idx.pred[i] != 0
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if hit:
            chosen.append((w, w))
    return Model(m.worlds, m.rel | frozenset(chosen), m.val)


def disjoint_union(a: Model, b: Model) -> Model:
    """Side-by-side union; worlds get 'L:'/'R:' prefixes."""
    la = {w: "L:" + w for w in a.worlds}
    rb = {w: "R:" + w for w in b.worlds}
    worlds = tuple(la[w] for w in a.worlds) + tuple(rb[w] for w in b.worlds)
    rel = frozenset((la[s], la[t]) for s, t in a.rel) | frozenset(
        (rb[s], rb[t]) for s, t in b.rel
    )
    val: dict[str, frozenset[str]] = {}
    for p in sorted(set(a.val) | set(b.val)):
        val[p] = frozenset(la[w] for w in a.val.get(p, ())) | frozenset(
            rb[w] for w in b.val.get(p, ())
        )
    return Model(worlds, rel, val)


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def frame_worlds(n: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(n))


def enumerate_frames(n: int) -> Iterator[Model]:
    """All 2^(n*n) relations on worlds w0..w{n-1}, empty valuation.

    No isomorphism reduction: callers that quantify over frames get the raw
    labelled space, in the mask order of sweep.iter_succ_tables.  The
    library's own sweeps visit one frame per isomorphism class instead
    (sweep.frame_orbits).  Warns when n exceeds 4 (2^25 frames and up).
    """
    if n < 1:
        raise ValueError("need at least one world")
    if n > 4:
        warnings.warn(f"enumerating 2^{n * n} frames; this will take a while")
    worlds = frame_worlds(n)
    pairs = [(s, t) for s in worlds for t in worlds]
    for mask in range(1 << (n * n)):
        rel = frozenset(pairs[k] for k in range(n * n) if (mask >> k) & 1)
        yield Model(worlds, rel, {})
