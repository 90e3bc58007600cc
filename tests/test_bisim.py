import random

import pytest

from helpers import (
    bitparallel_union_oracle,
    enumerate_frames,
    enumerate_valuations,
    layered_bounded_equivalent,
    layered_formulas,
    naive_satisfies,
    pair_fixpoint_oracle,
    rand_formula,
    rand_model,
    rand_pointed,
    rand_sparse_model,
    subset_union_oracle,
)
from lea.bisim import (
    BisimRelation,
    BisimViolation,
    _laid,
    _rounds,
    bounded_equivalent,
    box_bisimilar,
    circ_bisimilar,
    contract,
    is_circ_bisimulation,
    largest_circ_bisimulation,
    pairs_from_obj,
    pairs_to_obj,
)
from lea.formula import modal_depth, parse, render, variables
from lea.kripke import (
    FrameClass,
    Model,
    PointedModel,
    disjoint_union,
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


def test_back_violation_when_forth_holds():
    # The isolated point has no successors, so forth holds; the looping
    # point's successor (itself, outside Z) has no partner on the left.
    u = disjoint_union(LOOP.model, ISOLATED.model)
    out = is_circ_bisimulation(BisimRelation(u, frozenset({("R:t", "L:s")})))
    assert isinstance(out, BisimViolation)
    assert out.condition == "back"
    assert out.pair == ("R:t", "L:s")
    assert out.world == "L:s"


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
    # The proof in lea.bisim makes the largest bisimulation an equivalence,
    # which contract's classes rely on; check it on every small model.
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


def test_contract_classes_match_oracle():
    # The classes are the blocks of the refinement engine; the pair-level
    # fixpoint must partition the worlds the same way.
    rng = random.Random(42)
    for _ in range(300):
        m = rand_model(rng, 8, names=rng.choice((("p",), ("p", "q"))),
                       density=(0.1, 0.7))
        z = pair_fixpoint_oracle(m)
        want = {frozenset(t for t in m.worlds if (w, t) in z) for w in m.worlds}
        out = contract(m)
        got: dict[str, set[str]] = {}
        for w, cid in out.class_of.items():
            got.setdefault(cid, set()).add(w)
        assert {frozenset(ws) for ws in got.values()} == want, m
        assert all(cid == "[" + min(ws) + "]" for cid, ws in got.items()), m


def test_engine_matches_pair_fixpoint_oracle():
    rng = random.Random(43)
    for _ in range(2000):
        m = rand_model(rng, 12, names=rng.choice((("p",), ("p", "q"))),
                       density=(0.1, 0.7))
        assert largest_circ_bisimulation(m).pairs == pair_fixpoint_oracle(m), m
        # Two points of one model are bisimilar exactly when the largest
        # bisimulation on that model relates them.  Each unordered pair is
        # asked once; test_box_bisimilar_reflexive_and_symmetric covers the
        # order.
        box = pair_fixpoint_oracle(m, exempt=False)
        for i, a in enumerate(m.worlds):
            for b in m.worlds[i:]:
                got = box_bisimilar(PointedModel(m, a), PointedModel(m, b))
                assert got == ((a, b) in box), (m, a, b)


def _with_shuffled_twin(rng: random.Random, m: Model) -> tuple[Model, dict[str, str]]:
    """m beside an isomorphic copy whose worlds sit at shuffled positions,
    and the isomorphism."""
    order = list(m.worlds)
    rng.shuffle(order)
    iso = dict(zip(m.worlds, order))
    twin = Model(
        m.worlds,
        frozenset((iso[s], iso[t]) for s, t in m.rel),
        {p: frozenset(iso[w] for w in ws) for p, ws in m.val.items()},
    )
    return disjoint_union(m, twin), iso


def test_engine_matches_pair_fixpoint_oracle_on_larger_models():
    # 60-100 worlds: sparse models, each beside a shuffled twin so that
    # blocks span worlds far apart in bit order.
    rng = random.Random(44)
    for n in (30, 40, 50):
        m = rand_sparse_model(rng, n, names=("p",), degree=1.2)
        u, iso = _with_shuffled_twin(rng, m)
        assert "sig" not in u.index.__dict__
        z = pair_fixpoint_oracle(u)
        assert largest_circ_bisimulation(u).pairs == z, n
        box = pair_fixpoint_oracle(u, exempt=False)
        pairs = [("L:" + w, "R:" + iso[w]) for w in m.worlds[::3]]
        assert all(pair in z and pair in box for pair in pairs)
        pairs += [tuple(rng.sample(u.worlds, 2)) for _ in range(10)]
        for a, b in pairs:
            got = box_bisimilar(PointedModel(u, a), PointedModel(u, b))
            assert got == ((a, b) in box), (n, a, b)


def test_long_alternating_chain_twin():
    # Refinement adds one block a round here, 199 rounds in all; every world
    # is bisimilar only to itself and its twin.
    def chain(prefix):
        ws = [f"{prefix}{i}" for i in range(200)]
        return Model.make(ws, zip(ws, ws[1:]), {"p": ws[::2]})

    c, d = chain("c"), chain("d")
    z = largest_circ_bisimulation(disjoint_union(c, d))
    assert len(z.pairs) == 800
    assert is_circ_bisimulation(z) is True
    for same in (circ_bisimilar, box_bisimilar):
        assert same(PointedModel(c, "c0"), PointedModel(d, "d0"))
        assert not same(PointedModel(c, "c0"), PointedModel(d, "d1"))
        assert not same(PointedModel(c, "c0"), PointedModel(d, "d2"))


def test_pairs_json_roundtrip():
    m = disjoint_union(LOOP.model, ISOLATED.model)
    z = largest_circ_bisimulation(m)
    obj = pairs_to_obj(z)
    assert frozenset(pairs_from_obj(obj)) == z.pairs
    with pytest.raises(ValueError):
        pairs_from_obj({"pairs": [], "extra": 1})
    with pytest.raises(ValueError):
        pairs_from_obj({"pairs": [["s", "zz", "q"]]})


def _same_partition(xs, ys) -> bool:
    return len(set(zip(xs, ys))) == len(set(xs)) == len(set(ys))


def test_round_r_is_depth_r():
    # Worlds share a block after d rounds exactly when they agree on every
    # formula over p of modal depth <= d: essence formulas with the
    # exemption, box formulas without it.
    rng = random.Random(5)
    for _ in range(1000):
        m = rand_model(rng, 7, names=("p",))
        for exempt, modal in ((True, "ess"), (False, "box")):
            rounds = list(_rounds(_laid((m,), m.val), exempt))
            for d in range(6):
                exts = [ext for _, ext in layered_formulas(m, ("p",), d, modal)]
                agree = [tuple(w in ext for ext in exts) for w in m.worlds]
                assert _same_partition(rounds[min(d, len(rounds) - 1)], agree), (m, modal, d)


def test_bounded_equivalent_matches_layered_oracle():
    # The separator holds at a and fails at b, is over the given names
    # only, and has the least depth: one round less answers True.
    rng = random.Random(6)
    for _ in range(3000):
        a, b = rand_pointed(rng, 4), rand_pointed(rng, 4)
        for d in range(5):
            sep = bounded_equivalent(a, b, ("p",), d)
            assert (sep is True) == (layered_bounded_equivalent(a, b, ("p",), d) is True), (a, b, d)
            if sep is True:
                continue
            assert naive_satisfies(a.model, a.point, sep), (a, b, sep)
            assert not naive_satisfies(b.model, b.point, sep), (a, b, sep)
            assert variables(sep) <= {"p"} and "~~" not in render(sep)
            k = modal_depth(sep)
            assert k <= d and (k == 0 or bounded_equivalent(a, b, ("p",), k - 1) is True)


def test_bounded_equivalent_rejects_a_negative_depth(monkeypatch):
    # Refused before any refinement: there is no round -1 to read.
    monkeypatch.setattr("lea.bisim._rounds", None)
    a = PointedModel(Model.make(("s",), [], {"p": ["s"]}), "s")
    with pytest.raises(ValueError, match="depth must be at least 0, not -1"):
        bounded_equivalent(a, a, ("p",), -1)


def test_bounded_equivalent_ignores_other_variables():
    a = PointedModel(Model.make(("s",), [], {"p": ["s"], "q": ["s"]}), "s")
    b = PointedModel(Model.make(("s",), [], {"p": ["s"]}), "s")
    assert bounded_equivalent(a, b, ("p",), 3) is True
    assert bounded_equivalent(a, b, ("p", "q"), 0) == parse("q")


def test_separator_repeats_no_conjunct():
    # The successor of r that s cannot match holds p, and p separates it
    # both from r and from z; conjoined as they came, the two parts read
    # ~o ~(p & p).
    m = Model.make(["r", "x1", "x2", "x3", "y"],
                   [("r", "x1"), ("r", "x2"), ("r", "x3"), ("x1", "y"), ("x2", "x2")],
                   {"p": ["x1", "x3"], "q": ["x2", "y"]})
    n = Model.make(["s", "z"], [("s", "z")], {"q": ["z"]})
    sep = bounded_equivalent(PointedModel(m, "r"), PointedModel(n, "s"), ("p", "q"), 3)
    assert sep == parse("~o ~p")


def test_bounded_equivalent_separates_long_chains():
    # c0 and d0 first split at round 50.  The separator shares its parts,
    # keeps its conjunctions balanced and never stacks ~~, so it stays small
    # and shallow enough for satisfies.
    def chain(prefix, n):
        ws = [f"{prefix}{i}" for i in range(n)]
        return Model.make(ws, zip(ws, ws[1:]), {"p": ws[::2]})

    c, d = chain("c", 50), chain("d", 52)
    sep = bounded_equivalent(PointedModel(c, "c0"), PointedModel(d, "d0"), ("p",), 60)
    assert modal_depth(sep) == 50
    assert satisfies(c, "c0", sep) and not satisfies(d, "d0", sep)
    assert "~~" not in render(sep)
    assert bounded_equivalent(PointedModel(c, "c0"), PointedModel(d, "d2"), ("p",), 60) is True


def test_separator_of_250_round_split_replays():
    # c0 and d0 first split at round 250; the separator's nesting is past
    # the recursion limit, and satisfies replays it all the same.
    def chain(prefix, n):
        ws = [f"{prefix}{i}" for i in range(n)]
        return Model.make(ws, zip(ws, ws[1:]), {"p": ws[::2]})

    c, d = chain("c", 250), chain("d", 252)
    sep = bounded_equivalent(PointedModel(c, "c0"), PointedModel(d, "d0"), ("p",), 255)
    assert sep is not True
    assert satisfies(c, "c0", sep) and not satisfies(d, "d0", sep)


def test_separator_of_400_round_split_prints_and_replays():
    # Past 330 rounds the separator's build once met the recursion limit,
    # and render did sooner; now it builds, prints, parses back and replays.
    def chain(prefix, n):
        ws = [f"{prefix}{i}" for i in range(n)]
        return Model.make(ws, zip(ws, ws[1:]), {"p": ws[::2]})

    c, d = chain("c", 400), chain("d", 402)
    sep = bounded_equivalent(PointedModel(c, "c0"), PointedModel(d, "d0"), ("p",), 405)
    assert modal_depth(sep) == 400
    text = render(sep)
    assert parse(text) == sep and "~~" not in text
    assert satisfies(c, "c0", sep) and not satisfies(d, "d0", sep)
