"""Kripke models: construction, JSON exchange format, frame properties.

Worlds are strings.  A model is immutable once built; operations that
"modify" a model (adding self-loops, taking disjoint unions, quotients)
return fresh models.

Frame conditions are stated once, here: one table of bitmask tests over
successor rows (_check_property), and FrameClass names the properties each
class imposes.  The tests take rows that hold frames side by side in
lanes, so one pass answers for every lane.  has_property (one frame, one
lane), the class filter of every frame sweep (sweep.succ_in_class, once
per size with every orbit of that size in a lane) and the tableau's rules
(decide reads cls.properties) all go through these two.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Mapping, NoReturn, Sequence


@dataclass(frozen=True)
class Model:
    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: Mapping[str, frozenset[str]]
    # False skips _check_worlds.  Only model_from_obj passes it: it builds
    # the index at once, and a world that the build cannot place rejects
    # the file.
    check_worlds: InitVar[bool] = True

    def __post_init__(self, check_worlds: bool) -> None:
        if check_worlds:
            _check_worlds(self.worlds, self.rel, self.val, min)

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


def _check_worlds(
    worlds: Sequence[str],
    rel: Collection[tuple[str, str]],
    val: Mapping[str, Collection[str]],
    pick: Callable,
) -> None:
    """Raise ValueError unless worlds is non-empty and duplicate-free and
    holds every world that rel and val mention.

    One subset test per collection; only a failing one looks for its
    offenders, and pick names one of them: min for a Model's sets (the
    least offender, whatever the hash seed), next for a file's lists (the
    first in file order).
    """
    seen = set(worlds)
    if not seen:
        raise ValueError("a model needs at least one world")
    if len(seen) != len(worlds):
        raise ValueError("duplicate world ids")
    if not seen.issuperset(chain.from_iterable(rel)):
        s, t = pick(e for e in rel if not seen.issuperset(e))
        raise ValueError(f"relation mentions unknown world in ({s!r}, {t!r})")
    for p, ws in val.items():
        if not seen.issuperset(ws):
            w = pick(w for w in ws if w not in seen)
            raise ValueError(f"valuation of {p!r} mentions unknown world {w!r}")


# ---------------------------------------------------------------------------
# Model index: bitmask successor sets, used by the evaluators and the
# bisimulation fixpoint.  Worlds map to bit positions in declaration order.


class ModelIndex:
    """Eager: n, pos, all_mask, succ and val_bits, which is all that
    evaluation reads.  succ is built straight from the relation, and each
    world name of rel and val is looked up in pos once; a failed lookup
    raises KeyError, which is how model_from_obj finds an unknown world.
    Lazy, built from the succ rows on first use and kept: pred (read by
    add_self_loops)."""

    def __init__(self, m: Model):
        n = self.n = len(m.worlds)
        pos = self.pos = {w: i for i, w in enumerate(m.worlds)}
        self.all_mask = (1 << n) - 1
        succ = self.succ = [0] * n
        for s, t in m.rel:
            succ[pos[s]] |= 1 << pos[t]
        self.val_bits: dict[str, int] = {}
        for p, ws in m.val.items():
            bits = 0
            for w in ws:
                bits |= 1 << pos[w]
            self.val_bits[p] = bits

    @cached_property
    def pred(self) -> list[int]:
        pred = [0] * self.n
        for i, row in enumerate(self.succ):
            for j in bit_positions(row):
                pred[j] |= 1 << i
        return pred


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _all_of(items: Iterable[object], kind: type) -> bool:
    """isinstance(x, kind) for every x, with one test per distinct type."""
    types = set(map(type, items))
    return types <= {kind} or all(issubclass(t, kind) for t in types)


_KEYS = frozenset({"worlds", "rel", "val", "point"})
_REQUIRED = frozenset({"worlds", "rel", "val"})


def model_from_obj(obj: object) -> tuple[Model, str | None]:
    """Parse the dict form, strictly.  Returns the model and its optional point.

    A valid file is read in one pass over its world names: after checks on
    its containers (lists, dicts, pair lengths), building the model's
    ModelIndex is the validation, since a world name that is unknown or not
    a string fails there (its pos lookup, or hashing it).  The model keeps
    that index and skips _check_worlds.  Only a rejected file pays for
    _reject, which runs every check in a fixed order and names the first
    offender in file order.
    """
    loaded = _load(obj)
    if loaded is None:
        _reject(obj)
    return loaded


def _load(obj: object) -> tuple[Model, str | None] | None:
    """The model and point of a valid dict form, or None."""
    if not (isinstance(obj, dict) and _KEYS >= obj.keys() >= _REQUIRED):
        return None
    worlds, rel, val, point = obj["worlds"], obj["rel"], obj["val"], obj.get("point")
    if not (isinstance(worlds, list) and _all_of(worlds, str)
            and isinstance(rel, list) and _all_of(rel, list) and set(map(len, rel)) <= {2}
            and isinstance(val, dict) and _all_of(val.values(), list)
            and (point is None or isinstance(point, str))):
        return None
    try:
        m = Model(
            tuple(worlds),
            frozenset(map(tuple, rel)),
            {p: frozenset(ws) for p, ws in val.items()},
            check_worlds=False,
        )
        pos = m.index.pos
    except (KeyError, TypeError):  # an unknown world, or an unhashable one
        return None
    if not worlds or len(pos) != len(worlds) or not (point is None or point in pos):
        return None
    return m, point


def _reject(obj: object) -> NoReturn:
    """Raise the ValueError that names the first fault of an invalid dict
    form, checking in this order: keys, worlds, each rel entry, each
    valuation, the point's type, the worlds that rel and val mention, and
    the point."""
    if not isinstance(obj, dict):
        raise ValueError("model must be a JSON object")
    unknown = set(obj) - _KEYS
    if unknown:
        raise ValueError(f"unknown keys in model: {sorted(unknown)}")
    for key in ("worlds", "rel", "val"):
        if key not in obj:
            raise ValueError(f"model is missing {key!r}")
    worlds = obj["worlds"]
    if not (isinstance(worlds, list) and _all_of(worlds, str)):
        raise ValueError('"worlds" must be a list of strings')
    rel = obj["rel"]
    if not isinstance(rel, list):
        raise ValueError('"rel" must be a list of pairs')
    for entry in rel:
        if not (isinstance(entry, list) and len(entry) == 2 and _all_of(entry, str)):
            raise ValueError(f'"rel" entry is not a pair of world ids: {entry!r}')
    val = obj["val"]
    if not isinstance(val, dict):
        raise ValueError('"val" must be an object')
    for p, ws in val.items():
        if not (isinstance(ws, list) and _all_of(ws, str)):
            raise ValueError(f'valuation of {p!r} must be a list of world ids')
    point = obj.get("point")
    if point is not None and not isinstance(point, str):
        raise ValueError('"point" must be a world id')
    _check_worlds(worlds, rel, val, next)
    # Every other check holds, so the point is the fault.
    raise ValueError(f'point {point!r} is not in "worlds"')


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
    return bool(_check_property(len(m.worlds), m.index.succ, prop))


def _weakly_connected(succ: Sequence[int], x: int, y: int, one: int) -> int:
    pred_y = sum((succ[z] >> y & one) << z for z in range(len(succ)))
    return succ[x] & ~succ[y] & ~(one << y) & ~pred_y


_POINTWISE = {
    FrameProperty.REFLEXIVE: lambda row, x, one: row & one << x,
    FrameProperty.SERIAL: lambda row, x, one: row,
}
_EDGE_RULES = {
    FrameProperty.TRANSITIVE: lambda succ, x, y, one: succ[y] & ~succ[x],
    FrameProperty.SYMMETRIC: lambda succ, x, y, one: one << x & ~succ[y],
    FrameProperty.EUCLIDEAN: lambda succ, x, y, one: succ[x] & ~succ[y],
    FrameProperty.COREFLEXIVE: lambda succ, x, y, one: one << y & ~(one << x),
    FrameProperty.WEAKLY_CONNECTED: _weakly_connected,
    FrameProperty.WEAKLY_TRANSITIVE: lambda succ, x, y, one: succ[y] & ~succ[x] & ~(one << x),
    FrameProperty.WEAK_WEAK_EUCLIDEAN:
        lambda succ, x, y, one: succ[x] & ~succ[y] & ~(one << x | one << y),
}
_EDGE_RULES[FrameProperty.STRICT_TRANSITIVE3] = _EDGE_RULES[FrameProperty.WEAKLY_TRANSITIVE]
_EDGE_RULES[FrameProperty.STRICT_EUCLIDEAN3] = _EDGE_RULES[FrameProperty.WEAK_WEAK_EUCLIDEAN]


def _check_property(n: int, succ: Sequence[int], prop: FrameProperty, one: int = 1) -> int:
    """The lanes of the frames with the property, as a mask of lane units.

    The rows hold frames side by side in lanes of at least n + 1 bits:
    bit t of lane j of succ[s] is the edge s -> t of frame j, and one has
    bit 0 of every lane.  A single frame is one lane, with one = 1.  A
    mask's lane is non-empty exactly when adding 2^n - 1 to it carries
    into bit n of the lane.

    Reflexive and serial test each world x's row: the part of it that
    must be non-empty (x itself, resp. the whole row).  Every other
    property is an edge rule: for each edge x -> y it returns the worlds z
    that the condition needs the frame to link (xRz for the transitive
    forms, yRz for the Euclidean forms, yRz with z = x for symmetry, yRz
    or zRy for weak connectedness) and that it leaves unlinked, or for
    coreflexivity y itself unless y = x, as a mask within the n world bits
    of each lane; a frame has the property when every mask of its edges
    is empty.  The edge loop visits a pair only where a lane still in the
    running has that edge, and stops when none is left.

    strict-transitive3 shares the rule of weakly-transitive (xRy, yRz,
    x != z => xRz), and strict-euclidean3 that of weak-weak-euclidean (xRy,
    xRz, x != z, y != z => yRz).  Proof: the strict forms also exempt x = y
    and y = z, resp. x = y, and in those cases a premise (yRz or xRy, resp.
    xRz) is the conclusion itself, so they hold on every frame anyway.
    """
    full, lanes = one * ((1 << n) - 1), one
    test = _POINTWISE.get(prop)
    if test is not None:
        for x, row in enumerate(succ):
            lanes &= (test(row, x, one) + full) >> n
        return lanes
    rule = _EDGE_RULES.get(prop)
    if rule is None:
        raise ValueError(f"unknown property {prop!r}")
    for x, row in enumerate(succ):
        for y in range(n):
            edge = row >> y & lanes
            missing = edge and rule(succ, x, y, one)
            if missing:
                lanes &= ~((missing + full) >> n & edge)
                if not lanes:
                    return 0
    return lanes


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
    sides = [({w: tag + w for w in m.worlds}, m) for tag, m in (("L:", a), ("R:", b))]
    rel = frozenset((ren[s], ren[t]) for ren, m in sides for s, t in m.rel)
    val = {p: frozenset(ren[w] for ren, m in sides for w in m.val.get(p, ()))
           for p in sorted({*a.val, *b.val})}
    return Model(tuple(w for ren, _ in sides for w in ren.values()), rel, val)


def frame_worlds(n: int) -> tuple[str, ...]:
    """Worlds w0..w{n-1}, as every frame a sweep builds names them."""
    return tuple(f"w{i}" for i in range(n))

