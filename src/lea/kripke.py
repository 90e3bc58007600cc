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
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, NoReturn, Sequence


class Uncompared:
    """The default of a record field that == and hash leave out, built
    afresh for each instance by factory."""

    def __init__(self, factory: Callable[[], object]) -> None:
        self.factory = factory


def _read_only(self, attr: str, *value: object) -> NoReturn:
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {attr!r}")


def record(cls: type) -> type:
    """Make cls an immutable value over the fields it annotates, in order.

    A class attribute named like a field is its default.  The decorator
    adds each of these that the class body does not define: __init__ (the
    fields by position or keyword), __eq__ and __hash__ over the fields
    whose default is not Uncompared, a repr Name(field=value, ...), a
    __setattr__ and __delattr__ that raise AttributeError, and
    replace(**changes).  Instances keep their __dict__, which holds the
    fields and every cached_property.
    """
    name, fields = cls.__qualname__, tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    compared = [f for f in fields if not isinstance(defaults.get(f), Uncompared)]
    key = attrgetter("__class__", *compared)  # a tuple for any number of fields

    def __init__(self, *args, **kwargs):
        values = dict(zip(fields, args), **kwargs)
        if kwargs or len(args) != len(fields):
            if len(values) < len(args) + len(kwargs) or values.keys() - fields:
                raise TypeError(f"{name}() got too many, repeated or unknown arguments")
            for f in fields[len(args):]:
                if f not in values:
                    if f not in defaults:
                        raise TypeError(f"{name}() missing required argument {f!r}")
                    values[f] = d.factory() if isinstance(d := defaults[f], Uncompared) else d
        self.__dict__.update(values)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{name}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def replace(self, **changes):
        """A copy of this value with the given fields changed."""
        return self.__class__(*[changes.pop(f, getattr(self, f)) for f in fields], **changes)

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": _read_only, "__delattr__": _read_only, "replace": replace}
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    return cls


@record
class Verdict:
    """The answer to one question: sat, valid, define, prove or scan.

    answer is True, False or None (unknown).  reason names the limit behind
    an unknown answer, or what refutes a claim (define's direction, a
    rejected line's message).  method is "tableau" or "bounded-search" for
    sat and valid.  witness is the evidence: a (model, world) pair, the
    separating frame, the first bad line's number, or a scan's
    hilbert.ScanFailures.  stats are counts that == leaves out: the
    tableau's formulas stored ("expansions", the budgeted count), choice
    points opened ("choice_points": disjunctions branched on, not those
    settled by a present disjunct or by propagation) and choice points
    skipped by backjumping ("backjumps"); a scan's labelled frames
    ("frames") and failing (frame, axiom) pairs ("failures").  Verdicts
    compare by answer, reason, method and witness only, so two scans of one
    system over different bounds are equal when they find the same
    failures (two clean scans, say).
    """

    answer: bool | None
    reason: str | None = None
    method: str | None = None
    witness: object = None
    stats: Mapping[str, int] = Uncompared(dict)


@record
class Model:
    """A Kripke model: its worlds in order, a relation and a valuation.

    The constructor copies worlds, rel and val into a tuple, a frozenset
    and a new dict of frozensets, so a later change to what the caller
    passed does not reach the model, and checks the copies (_check_worlds);
    the index is built from them on first use.  A model read by
    model_from_obj skips the constructor: it carries its worlds and the
    ModelIndex the loader built, and builds rel and val from the index
    rows on first read.  Models refuse assignment, and val, a dict, refuses
    writes (_Valuation), so the index always answers for the model's
    fields; models compare by (worlds, rel, val) and are not hashable.
    """

    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: Mapping[str, frozenset[str]]
    __hash__ = None

    def __init__(self, worlds, rel, val) -> None:
        worlds, rel = tuple(worlds), frozenset(rel)
        val = _Valuation({p: frozenset(ws) for p, ws in val.items()})
        _check_worlds(worlds, rel, val, min)
        self.__dict__.update(worlds=worlds, rel=rel, val=val)

    @staticmethod
    def make(worlds: Iterable[str], rel: Iterable[tuple[str, str]] = (),
             val: Mapping[str, Iterable[str]] | None = None) -> Model:
        """Build a model from plain iterables."""
        return Model(worlds, ((s, t) for s, t in rel), val or {})

    @cached_property
    def index(self) -> "ModelIndex":
        """Bitmask index, built on first use."""
        return ModelIndex(self.worlds, self.rel, self.val)

    @cached_property
    def rel(self) -> frozenset[tuple[str, str]]:
        """A loaded model's relation, from its succ rows."""
        ws = self.worlds
        return frozenset((ws[s], ws[t]) for s, row in enumerate(self.index.succ)
                         for t in bit_positions(row))

    @cached_property
    def val(self) -> Mapping[str, frozenset[str]]:
        """A loaded model's valuation, from its val_bits."""
        ws = self.worlds
        return _Valuation({p: frozenset(ws[w] for w in bit_positions(bits))
                           for p, bits in self.index.val_bits.items()})


class _Valuation(dict):
    """A model's valuation: a dict that refuses every write, and that
    copies and pickles as one.  Its copy() is a plain dict."""

    def _refuse(self, *args, **kwargs) -> NoReturn:
        raise TypeError("a model's valuation cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Valuation, (dict(self),)


@record
class PointedModel:
    """A model and one of its worlds, the point.  Immutable, like Model."""

    model: Model
    point: str

    def __init__(self, model: Model, point: str) -> None:
        if point not in model.worlds:
            raise ValueError(f"point {point!r} is not a world of the model")
        self.__dict__.update(model=model, point=point)


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
    evaluation reads.  Built in one pass from the worlds, the relation's
    pairs and the valuation's world lists, whether a Model's sets or a
    model file's lists: each world name of rel and val is looked up in pos
    once, and a failed lookup raises KeyError (an unknown name) or
    TypeError (an unhashable one), which is how model_from_obj finds a bad
    world.  Lazy, built from the succ rows on first use and kept: pred
    (read by add_self_loops)."""

    def __init__(
        self,
        worlds: Sequence[str],
        rel: Iterable[Sequence[str]],
        val: Mapping[str, Iterable[str]],
    ):
        n = self.n = len(worlds)
        pos = self.pos = {w: i for i, w in enumerate(worlds)}
        self.all_mask = (1 << n) - 1
        succ = self.succ = [0] * n
        for s, t in rel:
            succ[pos[s]] |= 1 << pos[t]
        self.val_bits: dict[str, int] = {}
        for p, ws in val.items():
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
    its containers (lists, dicts, pair lengths), building a ModelIndex
    straight from its lists is the validation, since a world name that is
    unknown or not a string fails there (its pos lookup, or hashing it).
    The model carries its worlds and that index, and skips the constructor
    and _check_worlds; its rel and val are built from the index rows when
    something reads them, so a caller that later changes obj does not
    change the model.  Only a rejected file pays for _reject, which runs
    every check in a fixed order and names the first offender in file
    order.
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
        index = ModelIndex(worlds, rel, val)
    except (KeyError, TypeError):  # an unknown world, or an unhashable one
        return None
    if not worlds or len(index.pos) != len(worlds) or not (point is None or point in index.pos):
        return None
    m = object.__new__(Model)
    m.__dict__.update(worlds=tuple(worlds), index=index)
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
    if mode is SelfLoopMode.ALL:
        hits = [True] * idx.n
    elif mode is SelfLoopMode.ENDPOINTS:
        hits = [not row for row in idx.succ]
    elif mode is SelfLoopMode.TWO_CYCLES:
        hits = [row & back for row, back in zip(idx.succ, idx.pred)]
    elif mode is SelfLoopMode.HAS_PREDECESSOR:
        hits = idx.pred
    else:
        raise ValueError(f"unknown mode {mode!r}")
    loops = frozenset((w, w) for w, hit in zip(m.worlds, hits) if hit)
    return Model(m.worlds, m.rel | loops, m.val)


def disjoint_union(a: Model, b: Model) -> Model:
    """Side-by-side union; worlds get 'L:'/'R:' prefixes."""
    sides = [({w: tag + w for w in m.worlds}, m) for tag, m in (("L:", a), ("R:", b))]
    rel = frozenset((ren[s], ren[t]) for ren, m in sides for s, t in m.rel)
    val = {p: frozenset(ren[w] for ren, m in sides for w in m.val.get(p, ()))
           for p in sorted({*a.val, *b.val})}
    return Model((w for ren, _ in sides for w in ren.values()), rel, val)


def frame_worlds(n: int) -> tuple[str, ...]:
    """Worlds w0..w{n-1}, as every frame a sweep builds names them."""
    return tuple(f"w{i}" for i in range(n))

