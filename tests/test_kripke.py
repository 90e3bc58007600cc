import json
import random

import pytest

from helpers import enumerate_valuations, naive_has_property, rand_model, rand_sparse_model
from lea.kripke import (
    FrameClass,
    FrameProperty,
    Model,
    PointedModel,
    SelfLoopMode,
    add_self_loops,
    disjoint_union,
    enumerate_frames,
    has_property,
    in_class,
    model_from_json,
    model_from_obj,
    model_to_json,
    model_to_obj,
)


def m2(rel, p=("s",)):
    return Model(("s", "t"), frozenset(rel), {"p": frozenset(p)})


def test_model_validation():
    with pytest.raises(ValueError):
        Model((), frozenset(), {})
    with pytest.raises(ValueError):
        Model(("s", "s"), frozenset(), {})
    with pytest.raises(ValueError):
        Model(("s",), frozenset({("s", "t")}), {})
    with pytest.raises(ValueError):
        Model(("s",), frozenset(), {"p": frozenset({"x"})})


def test_pointed_model_validation():
    m = m2([("s", "t")])
    assert PointedModel(m, "t").point == "t"
    with pytest.raises(ValueError):
        PointedModel(m, "zz")


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        m = rand_model(rng, 5)
        again, point = model_from_json(model_to_json(m))
        assert again == m
        assert point is None
    m = m2([("s", "t"), ("t", "t")])
    obj = model_to_obj(m, "t")
    assert obj["point"] == "t"
    again, point = model_from_json(json.dumps(obj))
    assert (again, point) == (m, "t")


# Each rejection with its exact message; the ids obj0..obj7 name the
# original cases.
REJECTED = [
    ({"worlds": ["s"], "rel": []}, "model is missing 'val'"),
    ({"worlds": ["s"], "rel": [], "val": {}, "extra": 1}, "unknown keys in model: ['extra']"),
    ({"worlds": ["s"], "rel": [["s", "s", "s"]], "val": {}},
     '"rel" entry is not a pair of world ids: [\'s\', \'s\', \'s\']'),
    ({"worlds": ["s"], "rel": [], "val": {"p": ["zz"]}},
     "valuation of 'p' mentions unknown world 'zz'"),
    ({"worlds": ["s"], "rel": [], "val": {}, "point": "zz"}, 'point \'zz\' is not in "worlds"'),
    ({"worlds": "s", "rel": [], "val": {}}, '"worlds" must be a list of strings'),
    ({"worlds": ["s"], "rel": {}, "val": {}}, '"rel" must be a list of pairs'),
    ({"worlds": ["s"], "rel": [], "val": [["p", []]]}, '"val" must be an object'),
    # The loader names the first offender in file order.
    ({"worlds": ["a"], "rel": [], "val": {"p": ["x", "y", "z", "a"]}},
     "valuation of 'p' mentions unknown world 'x'"),
    ({"worlds": ["a"], "rel": [["a", "z"], ["y", "a"]], "val": {}},
     "relation mentions unknown world in ('a', 'z')"),
    ({"worlds": ["a"], "rel": [["a", "a"], ["a", 1], ["a"]], "val": {}},
     '"rel" entry is not a pair of world ids: [\'a\', 1]'),
    ({"worlds": ["a"], "rel": [], "val": {"p": ["a"], "q": "a", "r": [1]}},
     "valuation of 'q' must be a list of world ids"),
    ({"worlds": [], "rel": [], "val": {}}, "a model needs at least one world"),
    ({"worlds": ["a", "b", "a"], "rel": [], "val": {}}, "duplicate world ids"),
    ({"worlds": ["a"], "rel": [], "val": {}, "point": 0}, '"point" must be a world id'),
]


@pytest.mark.parametrize(
    "obj, message", REJECTED, ids=[f"obj{i}" for i in range(len(REJECTED))]
)
def test_from_obj_rejects(obj, message):
    with pytest.raises(ValueError) as info:
        model_from_obj(obj)
    assert str(info.value) == message


def test_model_names_least_offender():
    with pytest.raises(ValueError) as info:
        Model(("a",), frozenset({("a", "z"), ("y", "a"), ("a", "b")}), {})
    assert str(info.value) == "relation mentions unknown world in ('a', 'b')"
    with pytest.raises(ValueError) as info:
        Model(("a",), frozenset(), {"p": frozenset({"z", "y", "x", "a"})})
    assert str(info.value) == "valuation of 'p' mentions unknown world 'x'"


def test_properties_match_first_order_oracle():
    rng = random.Random(99)
    frames = [m for n in (1, 2, 3) for m in enumerate_frames(n)]
    frames += [rand_model(rng, 5) for _ in range(300)]
    for m in frames:
        for prop in FrameProperty:
            assert has_property(m, prop) == naive_has_property(m, prop), (m, prop)


# Each strict variant only exempts cases whose conclusion is already an edge.
EQUIVALENT_PROPERTIES = [
    (FrameProperty.WEAKLY_TRANSITIVE, FrameProperty.STRICT_TRANSITIVE3),
    (FrameProperty.WEAK_WEAK_EUCLIDEAN, FrameProperty.STRICT_EUCLIDEAN3),
]


def test_equivalent_properties_agree():
    for n in (1, 2, 3):
        for m in enumerate_frames(n):
            for a, b in EQUIVALENT_PROPERTIES:
                assert naive_has_property(m, a) == naive_has_property(m, b), (m, a)
    for n in (1, 2, 3, 4):
        for m in enumerate_frames(n):
            for a, b in EQUIVALENT_PROPERTIES:
                assert has_property(m, a) == has_property(m, b), (m, a)


def test_classes_are_property_conjunctions():
    rng = random.Random(100)
    for _ in range(200):
        m = rand_model(rng, 4)
        for cls in FrameClass:
            expect = all(naive_has_property(m, prop) for prop in cls.properties)
            assert in_class(m, cls) == expect, (m, cls)


def test_s5_is_equivalence():
    m = Model(("a", "b", "c"), frozenset({(x, y) for x in "ab" for y in "ab"} | {("c", "c")}), {})
    assert in_class(m, FrameClass.S5)
    assert not in_class(Model(("a", "b"), frozenset({("a", "b")}), {}), FrameClass.S5)


def test_enumerate_frames_counts():
    for n, count in ((1, 2), (2, 16), (3, 512)):
        frames = list(enumerate_frames(n))
        assert len(frames) == count
        assert len({m.rel for m in frames}) == count
        assert all(m.worlds == tuple(f"w{i}" for i in range(n)) for m in frames)


def test_enumerate_valuations_counts():
    m = Model(("a", "b"), frozenset(), {})
    vals = list(enumerate_valuations(m, ("p", "q")))
    assert len(vals) == 16
    assert len({(v.val["p"], v.val["q"]) for v in vals}) == 16
    assert all(v.rel == m.rel and v.worlds == m.worlds for v in vals)


def test_self_loop_modes():
    #  a -> b -> c,  b <-> d
    m = Model(
        ("a", "b", "c", "d"),
        frozenset({("a", "b"), ("b", "c"), ("b", "d"), ("d", "b")}),
        {},
    )
    loops = {
        SelfLoopMode.ALL: {"a", "b", "c", "d"},
        SelfLoopMode.ENDPOINTS: {"c"},
        SelfLoopMode.TWO_CYCLES: {"b", "d"},
        SelfLoopMode.HAS_PREDECESSOR: {"b", "c", "d"},
    }
    for mode, expected in loops.items():
        out = add_self_loops(m, mode)
        assert out.rel == m.rel | {(w, w) for w in expected}, mode
        assert out.worlds == m.worlds and out.val == m.val


def test_self_loops_only_add_diagonal():
    rng = random.Random(7)
    for _ in range(100):
        m = rand_model(rng, 5)
        for mode in SelfLoopMode:
            out = add_self_loops(m, mode)
            assert m.rel <= out.rel
            assert all(x == y for (x, y) in out.rel - m.rel)
    assert in_class(add_self_loops(m, SelfLoopMode.ALL), FrameClass.T) or m.rel


def test_self_loop_modes_on_large_models():
    # Each mode against its definition on the relation; the first mode to
    # read pred builds it.
    rng = random.Random(8)
    for _ in range(3):
        m = rand_sparse_model(rng, 100)
        has_succ = {s for s, _ in m.rel}
        loops = {
            SelfLoopMode.ALL: set(m.worlds),
            SelfLoopMode.ENDPOINTS: set(m.worlds) - has_succ,
            SelfLoopMode.TWO_CYCLES: {s for s, t in m.rel if (t, s) in m.rel},
            SelfLoopMode.HAS_PREDECESSOR: {t for _, t in m.rel},
        }
        assert "pred" not in m.index.__dict__
        for mode, expected in loops.items():
            out = add_self_loops(m, mode)
            assert out.rel == m.rel | {(w, w) for w in expected}, mode
            assert out.worlds == m.worlds and out.val == m.val
        assert "pred" in m.index.__dict__


def test_disjoint_union():
    a = m2([("s", "t")])
    b = Model(("s",), frozenset({("s", "s")}), {"q": frozenset({"s"})})
    u = disjoint_union(a, b)
    assert u.worlds == ("L:s", "L:t", "R:s")
    assert u.rel == {("L:s", "L:t"), ("R:s", "R:s")}
    assert u.val["p"] == {"L:s"}
    assert u.val["q"] == {"R:s"}


def test_index_cache_identity():
    m = m2([("s", "t")])
    assert m.index is m.index
    twin = m2([("s", "t")])
    idx = twin.index
    assert idx is not m.index
    assert idx.n == 2
    assert idx.succ[idx.pos["s"]] == 1 << idx.pos["t"]
