import random

import pytest

import lea.bisim
from helpers import (
    bitparallel_union_oracle,
    enumerate_valuations,
    naive_satisfies,
    rand_formula,
    rand_model,
    rand_pointed,
    subset_union_oracle,
)
from lea.bisim import (
    BisimRelation,
    BisimViolation,
    box_bisimilar,
    circ_bisimilar,
    contract,
    is_circ_bisimulation,
    largest_circ_bisimulation,
    pairs_from_obj,
    pairs_to_obj,
)
from lea.formula import parse
from lea.kripke import (
    FrameClass,
    Model,
    PointedModel,
    disjoint_union,
    enumerate_frames,
    in_class,
)
from lea.semantics import satisfies

LOOP = PointedModel(
    Model(("s",), frozenset({("s", "s")}), {"p": frozenset({"s"})}), "s"
)
ISOLATED = PointedModel(Model(("t",), frozenset(), {"p": frozenset({"t"})}), "t")


def test_certificate_needs_supporting_pair():
    # The single cross pair fails the forth condition on its own: s has a
    # successor (itself) unmatched on the other side.  Adding the loop pair
    # makes the successor exempt.
    u = disjoint_union(LOOP.model, ISOLATED.model)
    alone = is_circ_bisimulation(BisimRelation(u, frozenset({("L:s", "R:t")})))
    assert isinstance(alone, BisimViolation)
    assert not alone
    assert alone.condition == "forth"
    assert alone.pair == ("L:s", "R:t")
    both = is_circ_bisimulation(
        BisimRelation(u, frozenset({("L:s", "L:s"), ("L:s", "R:t")}))
    )
    assert both is True


def test_empty_relation_rejected():
    out = is_circ_bisimulation(BisimRelation(LOOP.model, frozenset()))
    assert isinstance(out, BisimViolation)
    assert out.condition == "empty"


def test_inv_violation():
    m = Model(("a", "b"), frozenset(), {"p": frozenset({"a"})})
    out = is_circ_bisimulation(BisimRelation(m, frozenset({("a", "b")})))
    assert out.condition == "inv"
    assert out.pair == ("a", "b")


def test_pairs_outside_carrier():
    with pytest.raises(ValueError):
        is_circ_bisimulation(BisimRelation(LOOP.model, frozenset({("s", "zz")})))


def test_diagonal_always_passes():
    rng = random.Random(31)
    for _ in range(50):
        m = rand_model(rng, 5)
        z = BisimRelation(m, frozenset((w, w) for w in m.worlds))
        assert is_circ_bisimulation(z) is True


def test_largest_equals_subset_oracle():
    rng = random.Random(32)
    for _ in range(150):
        m = rand_model(rng, 3, names=("p",))
        assert largest_circ_bisimulation(m).pairs == subset_union_oracle(m)
    for _ in range(50):
        m = rand_model(rng, 4, names=("p",))
        assert largest_circ_bisimulation(m).pairs == bitparallel_union_oracle(m)


def test_largest_is_itself_a_bisimulation():
    rng = random.Random(33)
    for _ in range(100):
        m = rand_model(rng, 5)
        big = largest_circ_bisimulation(m)
        if big.pairs:
            assert is_circ_bisimulation(big) is True
        assert frozenset((w, w) for w in m.worlds) <= big.pairs


def test_loop_vs_dead_end_circ_but_not_box():
    assert circ_bisimilar(LOOP, ISOLATED)
    assert not box_bisimilar(LOOP, ISOLATED)
    assert satisfies(LOOP.model, "s", parse("<> T"))
    assert not satisfies(ISOLATED.model, "t", parse("<> T"))


def test_box_bisimilar_implies_circ():
    rng = random.Random(34)
    agree = 0
    for _ in range(300):
        a = rand_pointed(rng, 3, names=("p",))
        b = rand_pointed(rng, 3, names=("p",))
        if box_bisimilar(a, b):
            agree += 1
            assert circ_bisimilar(a, b), (a, b)
    assert agree > 10


def test_circ_bisimilar_preserves_essence_truth():
    rng = random.Random(35)
    checked = 0
    for _ in range(300):
        a = rand_pointed(rng, 3, names=("p",))
        b = rand_pointed(rng, 3, names=("p",))
        if not circ_bisimilar(a, b):
            continue
        checked += 1
        for _ in range(20):
            f = rand_formula(rng, 3, names=("p",), lang="lea")
            assert naive_satisfies(a.model, a.point, f) == naive_satisfies(
                b.model, b.point, f
            ), (a, b, f)
    assert checked > 20


def test_box_bisimilar_preserves_ml_truth():
    rng = random.Random(36)
    checked = 0
    for _ in range(300):
        a = rand_pointed(rng, 3, names=("p",))
        b = rand_pointed(rng, 3, names=("p",))
        if not box_bisimilar(a, b):
            continue
        checked += 1
        for _ in range(10):
            f = rand_formula(rng, 3, names=("p",), lang="ml")
            assert naive_satisfies(a.model, a.point, f) == naive_satisfies(
                b.model, b.point, f
            )
    assert checked > 20


def test_box_bisimilar_reflexive_and_symmetric():
    rng = random.Random(37)
    for _ in range(50):
        a = rand_pointed(rng, 4)
        b = rand_pointed(rng, 4)
        assert box_bisimilar(a, a)
        assert box_bisimilar(a, b) == box_bisimilar(b, a)


def test_contract_merges_bisimilar_worlds():
    # two p-worlds looping to each other collapse to one
    m = Model(
        ("a", "b"),
        frozenset({("a", "b"), ("b", "a")}),
        {"p": frozenset({"a", "b"})},
    )
    out = contract(m)
    assert len(out.model.worlds) == 1
    assert out.class_of["a"] == out.class_of["b"]
    assert in_class(out.model, FrameClass.T) or out.model.rel


def test_contract_keeps_distinguishable_worlds():
    m = Model(("s", "t"), frozenset({("s", "t"), ("t", "t"), ("t", "s")}),
              {"p": frozenset({"s"})})
    out = contract(m)
    assert len(out.model.worlds) == 2


def test_contract_worlds_bisimilar_to_class():
    rng = random.Random(38)
    for _ in range(60):
        m = rand_model(rng, 4)
        out = contract(m)
        assert set(out.class_of) == set(m.worlds)
        assert set(out.class_of.values()) == set(out.model.worlds)
        for w in m.worlds:
            a = PointedModel(m, w)
            b = PointedModel(out.model, out.class_of[w])
            assert circ_bisimilar(a, b), (m, w)


def test_contract_idempotent():
    rng = random.Random(39)
    for _ in range(60):
        m = rand_model(rng, 5)
        once = contract(m).model
        twice = contract(once).model
        assert len(twice.worlds) == len(once.worlds)


def test_largest_is_equivalence_on_small_models():
    # contract reads classes off the largest bisimulation's partner sets,
    # which is sound only when the relation is an equivalence.
    models = [
        m
        for n in range(1, 4)
        for frame in enumerate_frames(n)
        for m in enumerate_valuations(frame, ("p",))
    ]
    assert len(models) == 4164
    for m in models:
        z = largest_circ_bisimulation(m).pairs
        assert all((w, w) in z for w in m.worlds), m
        assert all((t, s) in z for s, t in z), m
        partners = {}
        for s, t in z:
            partners.setdefault(s, set()).add(t)
        assert all(partners[t] <= partners[s] for s, t in z), m


def test_contract_rejects_overlapping_classes(monkeypatch):
    # a ~ b and b ~ c without a ~ c: the classes of a and c would share b
    m = Model(("a", "b", "c"), frozenset(), {})
    pairs = {(w, w) for w in "abc"} | {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}
    monkeypatch.setattr(
        lea.bisim, "largest_circ_bisimulation", lambda m: BisimRelation.make(m, pairs)
    )
    with pytest.raises(RuntimeError, match="overlap"):
        contract(m)


def test_pairs_json_roundtrip():
    m = disjoint_union(LOOP.model, ISOLATED.model)
    z = largest_circ_bisimulation(m)
    obj = pairs_to_obj(z)
    assert frozenset(pairs_from_obj(obj)) == z.pairs
    with pytest.raises(ValueError):
        pairs_from_obj({"pairs": [], "extra": 1})
    with pytest.raises(ValueError):
        pairs_from_obj({"pairs": [["s", "zz", "q"]]})
