import random

import pytest

from helpers import (
    enumerate_valuations,
    layered_formulas,
    naive_satisfies,
    rand_formula,
    rand_model,
    rand_pointed,
    rand_sparse_model,
)
from lea.bisim import bounded_equivalent
from lea.formula import Formula, Not, Var, modal_depth, parse, variables
from lea.kripke import (
    FrameProperty,
    Model,
    PointedModel,
    has_property,
)
from lea.semantics import (
    check_definability,
    extension,
    frame_countermodel,
    satisfies,
    valid_on_frame,
)


def test_satisfies_matches_recursion():
    rng = random.Random(210)
    for _ in range(300):
        m = rand_model(rng, 5)
        for _ in range(10):
            f = rand_formula(rng, rng.randint(0, 4), lang="mixed")
            for w in m.worlds:
                assert satisfies(m, w, f) == naive_satisfies(m, w, f), (m, w, f)


def test_satisfies_unknown_world():
    m = Model(("s",), frozenset(), {})
    with pytest.raises(ValueError):
        satisfies(m, "zz", parse("p"))


def test_essence_two_world_example():
    # p at both worlds, edge s -> t: o p everywhere; drop p at t and o p
    # fails at s but holds vacuously at t.
    m = Model(("s", "t"), frozenset({("s", "t")}), {"p": frozenset({"s", "t"})})
    assert satisfies(m, "s", parse("o p"))
    m = Model(("s", "t"), frozenset({("s", "t")}), {"p": frozenset({"s"})})
    assert not satisfies(m, "s", parse("o p"))
    assert satisfies(m, "t", parse("o p"))
    assert satisfies(m, "s", parse("A p"))


def test_extension_is_truth_set():
    rng = random.Random(211)
    for _ in range(100):
        m = rand_model(rng, 5)
        f = rand_formula(rng, 3, lang="mixed")
        assert extension(m, f) == frozenset(
            w for w in m.worlds if naive_satisfies(m, w, f)
        )


# Sizes on both sides of the 64- and 128-bit boundaries, and well past them.
LARGE_SIZES = (60, 63, 64, 65, 127, 128, 129, 200, 600)


def test_large_models_match_recursion():
    # Every dead end, self-loop and unvalued world is checked, plus the
    # worlds at the word boundaries and a random sample.
    rng = random.Random(215)
    for n in LARGE_SIZES:
        m = rand_sparse_model(rng, n, names=("p", "q"))
        has_succ = {s for s, _ in m.rel}
        looped = {s for s, t in m.rel if s == t}
        valued = set().union(*m.val.values())
        picked = {w for w in m.worlds if w not in has_succ or w in looped or w not in valued}
        picked |= {m.worlds[i] for i in (0, 63, 64, 127, 128, n - 1) if i < n}
        picked |= set(rng.sample(m.worlds, 10))
        for _ in range(6):
            f = rand_formula(rng, 4, lang="mixed")
            ext = extension(m, f)
            for w in sorted(picked):
                want = naive_satisfies(m, w, f)
                assert (w in ext) == want, (n, w, f)
                assert satisfies(m, w, f) == want, (n, w, f)


def test_valid_on_frame_matches_enumeration():
    rng = random.Random(212)
    for _ in range(60):
        m = rand_model(rng, 3)
        f = rand_formula(rng, 3, names=("p", "q"), lang="lea")
        names = sorted({"p", "q"})
        expect = all(
            satisfies(v, w, f)
            for v in enumerate_valuations(m, names)
            for w in v.worlds
        )
        assert valid_on_frame(m, f) == expect, (m, f)


def test_frame_countermodel_is_the_least_falsifier():
    # The witness is the least (valuation number, world).  Valuation number
    # v gives the j-th sorted variable the worlds in bits n*j .. n*j+n-1 of v.
    rng = random.Random(214)
    refuted = 0
    for _ in range(100):
        frame = rand_model(rng, 3, names=())
        f = rand_formula(rng, 3, names=("p", "q"), lang="mixed")
        names = sorted(variables(f))
        n = len(frame.worlds)
        misses = []
        for m in enumerate_valuations(frame, names):
            v = 0
            for j, name in enumerate(names):
                for i, w in enumerate(m.worlds):
                    if w in m.val[name]:
                        v |= 1 << (n * j + i)
            misses += [(v, i, m) for i, w in enumerate(m.worlds)
                       if not naive_satisfies(m, w, f)]
        got = frame_countermodel(frame, f)
        if not misses:
            assert got is None, (frame, f)
            continue
        refuted += 1
        v, i, want = min(misses, key=lambda miss: miss[:2])
        model, point = got
        assert (model.worlds, model.rel, dict(model.val), point) == (
            want.worlds, want.rel, dict(want.val), want.worlds[i]), (frame, f)
    assert refuted >= 50


def test_valid_on_frame_goldens():
    m = Model(("s", "t"), frozenset({("s", "t")}), {})
    assert valid_on_frame(m, parse("o T"))
    assert not valid_on_frame(m, parse("o p"))
    loop = Model(("s",), frozenset({("s", "s")}), {})
    assert valid_on_frame(loop, parse("o p"))


def test_definability_confirms_symmetry():
    verdict = check_definability(FrameProperty.SYMMETRIC, parse("p -> o (o ~p -> p)"), 3)
    assert verdict.confirmed
    assert bool(verdict)
    assert verdict.witness is None


def test_definability_refutes_reflexive_ess_p():
    verdict = check_definability(FrameProperty.REFLEXIVE, parse("o p"), 3)
    assert not verdict.confirmed
    assert not bool(verdict)
    m = verdict.witness
    assert verdict.direction == "valid-but-no-property"
    assert not has_property(m, FrameProperty.REFLEXIVE)
    assert valid_on_frame(m, parse("o p"))


def test_definability_refutes_transitive_kwtr():
    # The weak form of the transitivity axiom is valid on all weakly
    # transitive frames, strictly more than the transitive ones.
    verdict = check_definability(FrameProperty.TRANSITIVE, parse("o p & p -> o o p"), 3)
    assert not verdict.confirmed
    assert verdict.direction == "valid-but-no-property"


def test_layered_formulas_cover_extensions():
    rng = random.Random(213)
    for _ in range(40):
        m = rand_model(rng, 4, names=("p",))
        reps = layered_formulas(m, ("p",), 2)
        assert all(ext == extension(m, f) for f, ext in reps)
        exts = [ext for _, ext in reps]
        assert len(set(exts)) == len(exts)
        assert all(modal_depth(f) <= 2 for f, _ in reps)
        # every random formula of that depth lands on a known extension
        for _ in range(20):
            f = rand_formula(rng, 2, names=("p",), lang="lea")
            assert extension(m, f) in exts, (m, f)


def test_layered_formulas_box_language():
    rng = random.Random(214)
    for _ in range(40):
        m = rand_model(rng, 4, names=("p",))
        reps = layered_formulas(m, ("p",), 2, modal="box")
        assert all(ext == extension(m, f) for f, ext in reps)
        exts = {ext for _, ext in reps}
        for _ in range(20):
            f = rand_formula(rng, 2, names=("p",), lang="ml")
            assert extension(m, f) in exts, (m, f)


def test_bounded_equivalent_reflexive_point():
    rng = random.Random(215)
    for _ in range(50):
        a = rand_pointed(rng, 4)
        assert bounded_equivalent(a, a, ("p", "q"), 2) is True


def test_bounded_equivalent_orients_distinguisher():
    rng = random.Random(216)
    seen = 0
    for _ in range(200):
        a = rand_pointed(rng, 3, names=("p",))
        b = rand_pointed(rng, 3, names=("p",))
        out = bounded_equivalent(a, b, ("p",), 2)
        if out is True:
            continue
        seen += 1
        assert isinstance(out, Formula)
        assert satisfies(a.model, a.point, out)
        assert not satisfies(b.model, b.point, out)
    assert seen > 50


def test_bounded_equivalent_monotone_in_depth():
    # distinguishable at depth d stays distinguishable at depth d+1
    rng = random.Random(217)
    for _ in range(80):
        a = rand_pointed(rng, 3, names=("p",))
        b = rand_pointed(rng, 3, names=("p",))
        shallow = bounded_equivalent(a, b, ("p",), 1)
        deep = bounded_equivalent(a, b, ("p",), 2)
        if shallow is not True:
            assert deep is not True


def test_bounded_equivalent_trivial_pair():
    a = PointedModel(Model(("s",), frozenset(), {"p": frozenset({"s"})}), "s")
    b = PointedModel(Model(("s",), frozenset(), {"p": frozenset()}), "s")
    out = bounded_equivalent(a, b, ("p",), 0)
    assert out == Var("p") or out == Not(Not(Var("p")))
