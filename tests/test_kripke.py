import copy
import json
import pickle
import random

import pytest

import lea.kripke
from helpers import (
    close_into,
    enumerate_frames,
    enumerate_valuations,
    naive_has_property,
    rand_model,
    rand_sparse_model,
)
from lea.cli import main
from lea.formula import parse
from lea.hilbert import System, soundness_scan
from lea.kripke import (
    FrameClass,
    FrameProperty,
    Model,
    ModelIndex,
    PointedModel,
    SelfLoopMode,
    add_self_loops,
    disjoint_union,
    has_property,
    in_class,
    model_from_json,
    model_from_obj,
    model_to_json,
    model_to_obj,
)
from lea.semantics import extension
from lea.sweep import build_model


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
    # Files with several faults: the first check in the loader's order names one.
    ({"worlds": ["a"], "rel": [["a", 1]], "val": []},
     '"rel" entry is not a pair of world ids: [\'a\', 1]'),
    ({"worlds": ["a", "a"], "rel": [["a", "z"]], "val": {}}, "duplicate world ids"),
    ({"worlds": [], "rel": [], "val": {"p": ["z"]}}, "a model needs at least one world"),
    ({"worlds": ["a"], "rel": [["a", "z"]], "val": {"p": ["y"]}},
     "relation mentions unknown world in ('a', 'z')"),
    ({"worlds": ["a"], "rel": [["z", "a"], ["a", 2]], "val": {}},
     '"rel" entry is not a pair of world ids: [\'a\', 2]'),
]


@pytest.mark.parametrize(
    "obj, message", REJECTED, ids=[f"obj{i}" for i in range(len(REJECTED))]
)
def test_from_obj_rejects(obj, message):
    with pytest.raises(ValueError) as info:
        model_from_obj(obj)
    assert str(info.value) == message


def _valid_obj(obj) -> bool:
    """The file format's rules, stated plainly, as the loader's oracle."""
    if not (isinstance(obj, dict) and {"worlds", "rel", "val"} <= set(obj)
            and set(obj) <= {"worlds", "rel", "val", "point"}):
        return False
    worlds, rel, val = obj["worlds"], obj["rel"], obj["val"]
    if not (isinstance(worlds, list) and all(isinstance(w, str) for w in worlds)
            and worlds and len(set(worlds)) == len(worlds)):
        return False

    def known(ws):
        return isinstance(ws, list) and all(isinstance(w, str) and w in worlds for w in ws)

    point = obj.get("point")
    return (isinstance(rel, list) and all(known(e) and len(e) == 2 for e in rel)
            and isinstance(val, dict) and all(known(ws) for ws in val.values())
            and (point is None or isinstance(point, str) and point in worlds))


_ODD_VALUES = [1, 2.5, None, True, "w0", [], ["w0"], {}, {"w0": 1}]


def _mutate(rng: random.Random, obj: dict) -> dict:
    """One seeded fault, or a harmless change, in a valid dict form."""
    obj = copy.deepcopy(obj)
    spots = [("worlds", obj["worlds"])] + [("rel", e) for e in obj["rel"]]
    spots += [("val", ws) for ws in obj["val"].values()]
    kind = rng.randrange(7)
    if kind == 0:  # drop a key, or add one
        if rng.random() < 0.8:
            del obj[rng.choice(sorted(obj))]
        else:
            obj["extra"] = 1
    elif kind == 1:  # swap the type of a top-level value
        obj[rng.choice(("worlds", "rel", "val", "point"))] = rng.choice(_ODD_VALUES)
    elif kind == 2:  # swap the type of a rel entry or a valuation
        if obj["rel"] and rng.random() < 0.5:
            obj["rel"][rng.randrange(len(obj["rel"]))] = rng.choice(_ODD_VALUES)
        elif obj["val"]:
            obj["val"][rng.choice(sorted(obj["val"]))] = rng.choice(_ODD_VALUES)
    elif kind == 3:  # insert an unknown or a non-string world
        _, target = rng.choice(spots)
        target.insert(rng.randrange(len(target) + 1), rng.choice(["zz", ""] + _ODD_VALUES))
    elif kind == 4:  # duplicate a world
        worlds = obj["worlds"]
        worlds.insert(rng.randrange(len(worlds) + 1), rng.choice(worlds))
    elif kind == 5:  # harmless: repeat a rel pair, or a name in a valuation
        lists = [ws for ws in (obj["rel"], *obj["val"].values()) if ws]
        if lists:
            target = rng.choice(lists)
            target.insert(rng.randrange(len(target) + 1), copy.deepcopy(rng.choice(target)))
    else:  # an unknown point, or a rel entry of the wrong length
        if rng.random() < 0.5:
            obj["point"] = rng.choice(["zz", ""])
        elif obj["rel"]:
            entry = obj["rel"][rng.randrange(len(obj["rel"]))]
            if rng.random() < 0.5:
                entry.append(entry[0])
            else:
                entry.pop()
    return obj


def test_bad_files_raise_only_value_error(tmp_path, capsys):
    rng = random.Random(14)
    cases = 0
    for i in range(450):
        m = rand_model(rng, 4)
        obj = _mutate(rng, model_to_obj(m, rng.choice((None,) + m.worlds)))
        if _valid_obj(obj):
            loaded = model_from_obj(obj)[0]
            built = Model.make(obj["worlds"], map(tuple, obj["rel"]), obj["val"])
            assert (loaded.worlds, loaded.rel, loaded.val) == (built.worlds, built.rel, built.val)
            fresh = ModelIndex(obj["worlds"], obj["rel"], obj["val"])
            assert _index_fields(loaded.index) == _index_fields(fresh)
            continue
        cases += 1
        with pytest.raises(ValueError) as info:
            model_from_obj(obj)
        assert type(info.value) is ValueError, obj
        if i % 4 == 0:
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(obj))
            assert main(["check", str(path), "w0", "p"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: bad model in {path}: {info.value}\n"
    assert cases > 300


def _index_fields(idx) -> dict:
    names = ("n", "pos", "all_mask", "succ", "val_bits", "pred")
    return {name: getattr(idx, name) for name in names}


def test_loaded_model_equals_built(monkeypatch):
    rng = random.Random(15)
    models = [Model(("",), frozenset({("", "")}), {}),
              Model(("", "a"), frozenset({("a", ""), ("a", "a")}), {"p": frozenset()})]
    for _ in range(60):
        m = rand_model(rng, 6, names=rng.choice(((), ("p",), ("p", "q", "r"))))
        if rng.random() < 0.3:  # name one world by the empty string
            name = dict(zip(m.worlds, ("",) + m.worlds[1:]))
            m = Model.make(map(name.get, m.worlds), ((name[s], name[t]) for s, t in m.rel),
                           {p: map(name.get, ws) for p, ws in m.val.items()})
        models.append(m)
    models += [rand_sparse_model(rng, n) for n in (70, 200)]
    for m in models:
        point = rng.choice((None,) + m.worlds)
        text = model_to_json(m, point)
        loaded, again = model_from_json(text)
        assert "index" in loaded.__dict__
        assert "rel" not in loaded.__dict__ and "val" not in loaded.__dict__
        assert (loaded, again) == (m, point)
        fresh = _index_fields(ModelIndex(loaded.worlds, loaded.rel, loaded.val))
        assert _index_fields(loaded.index) == fresh
        assert fresh == _index_fields(m.index)

    calls = {"index": 0, "check": 0}

    def counting(name, orig):
        def wrapper(*args):
            calls[name] += 1
            return orig(*args)
        return wrapper

    monkeypatch.setattr(lea.kripke, "ModelIndex", counting("index", ModelIndex))
    monkeypatch.setattr(lea.kripke, "_check_worlds",
                        counting("check", lea.kripke._check_worlds))
    loaded, _ = model_from_json(model_to_json(models[-1]))
    assert loaded.index.pred  # built from the index the loader kept
    assert calls == {"index": 1, "check": 0}


def test_loaded_model_ignores_later_changes_to_its_source():
    # A loaded model builds rel and val from its index rows, so changing the
    # dict it was read from, before or after they are first read, changes
    # neither them nor any answer.
    formulas = [parse(t) for t in ("p", "o p", "[] q", "o (p -> <> q)", "~o ~p")]
    want = Model.make("abc", [("a", "b"), ("b", "c"), ("c", "c")], {"p": "b", "q": "bc"})

    def source():
        return model_to_obj(want, "a")

    for read_first in (False, True):
        obj = source()
        m, _ = model_from_obj(obj)
        if read_first:
            assert (m.rel, m.val) == (want.rel, want.val)
        obj["worlds"].append("d")
        obj["rel"].append(["c", "a"])
        obj["rel"][0][1] = "c"
        obj["val"]["p"].append("c")
        obj["val"]["q"].clear()
        obj["val"]["r"] = ["a"]
        assert (m.worlds, m.rel, m.val) == (want.worlds, want.rel, want.val)
        assert [extension(m, f) for f in formulas] == [extension(want, f) for f in formulas]
        assert model_to_obj(m, "a") == source()


def test_built_model_ignores_later_changes_to_its_arguments():
    # The constructor copies what it is given, so changing the caller's
    # worlds, pairs or valuation afterwards changes neither the model nor
    # any answer, and the model still equals a fresh copy of itself.
    formulas = [parse(t) for t in ("p", "o p", "[] q", "o (p -> <> q)", "~o ~p")]
    want = Model.make("st", [("s", "t")], {"p": "s", "q": "t"})
    worlds, rel, val = ["s", "t"], {("s", "t")}, {"p": {"s"}, "q": {"t"}}
    m = Model(worlds, rel, val)
    answers = [extension(m, f) for f in formulas]
    worlds.append("ghost")
    rel.add(("t", "s"))
    val["p"] = frozenset({"t", "ghost"})
    val["q"].add("s")
    assert (m.worlds, m.rel, m.val) == (want.worlds, want.rel, want.val)
    assert m == want == Model(m.worlds, m.rel, m.val)
    assert [extension(m, f) for f in formulas] == answers


def test_a_model_valuation_refuses_writes():
    # Built or loaded, a model's val refuses every write, so the model keeps
    # equal to a fresh copy of itself and its index answers for its fields;
    # copies and pickles of the model refuse writes too.
    built = Model.make("st", [("s", "t")], {"p": "s"})
    loaded = model_from_json(model_to_json(built))[0]
    p = parse("p")
    for m in (built, loaded):
        answer = extension(m, p)
        for twin in (m, copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            val = twin.val
            writes = [lambda: val.__setitem__("p", frozenset({"ghost"})),
                      lambda: val.__delitem__("p"), val.clear, val.popitem,
                      lambda: val.pop("p"), lambda: val.setdefault("q", frozenset()),
                      lambda: val.update(q=frozenset()), lambda: val.__ior__({"q": frozenset()})]
            for write in writes:
                with pytest.raises(TypeError, match="valuation cannot be changed"):
                    write()
            assert twin == built == Model(twin.worlds, twin.rel, twin.val)
            assert extension(twin, p) == answer == {"s"}
        mine = m.val.copy()
        mine["p"] = frozenset({"t"})
        assert type(mine) is dict and m.val == {"p": {"s"}}


def test_library_models_stay_lazy():
    report = soundness_scan(System.KB_CIRC, FrameClass.K, 2)
    assert report.witness
    frame = report.witness[0][0]
    witness = build_model(("a", "b"), [0b10, 0b11], ("p",), 0b01)
    for m in (frame, witness, Model(("a",), frozenset(), {})):
        assert "index" not in m.__dict__
        assert m.index is m.__dict__["index"]
    assert witness.index.succ == [0b10, 0b11]
    assert witness.index.val_bits == {"p": 0b01}


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
    # On 9 to 40 worlds a row is wider than the byte lanes of the sweeps'
    # packed rows.  Frames closed into each class have the properties that
    # random frames of that size lack.
    frames += [rand_sparse_model(rng, rng.randint(9, 40)) for _ in range(30)]
    for cls in FrameClass:
        for _ in range(3):
            m = rand_sparse_model(rng, rng.randint(9, 40), degree=rng.uniform(0.3, 1.5))
            frames.append(close_into(rng, m, cls))
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
