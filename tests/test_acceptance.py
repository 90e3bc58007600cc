"""Acceptance checks: one test per headline guarantee, printed as one line each.

Run with -s to see the per-criterion lines; the -v listing carries the same
numbering in the test names.  Everything is seeded, nothing here should take
more than a minute.
"""
import random
from functools import lru_cache

import pytest

from helpers import (
    KW_EUC_ALT,
    bitparallel_union_oracle,
    enumerate_frames,
    enumerate_valuations,
    inv_pairs,
    layered_formulas,
    mutate_derivation,
    naive_satisfies,
    rand_formula,
    rand_model,
    subset_union_oracle,
)
from lea import sweep
from lea.bisim import (
    bounded_equivalent,
    box_bisimilar,
    circ_bisimilar,
    contract,
    largest_circ_bisimulation,
)
from lea.decide import satisfiable
from lea.formula import Bot, Box, modal_depth, parse, render, to_lea, to_ml
from lea.hilbert import (
    System,
    check_derivation,
    gen_conj_derivation,
    is_axiom_instance,
    soundness_scan,
)
from lea.kripke import (
    FrameClass,
    FrameProperty,
    Model,
    PointedModel,
    SelfLoopMode,
    add_self_loops,
    disjoint_union,
    has_property,
    in_class,
)
from lea.semantics import check_definability, extension, satisfies

SEED = 20260825


@lru_cache(maxsize=None)
def _models_le3() -> tuple[Model, ...]:
    """Every model on at most three worlds with a valuation over {p}."""
    return tuple(
        m
        for n in range(1, 4)
        for frame in enumerate_frames(n)
        for m in enumerate_valuations(frame, ("p",))
    )


def test_criterion_01_translation_soundness():
    checked = 0
    for m in _models_le3():
        for f, ext in layered_formulas(m, ("p",), 2):
            assert ext == extension(m, to_ml(f)), render(f)
            checked += 1
    print(f"criterion 1: pass - to_ml truth-preserving on {checked} model/formula pairs")


def test_criterion_02_reflexive_equivalence():
    checked = 0
    for m in _models_le3():
        if not has_property(m, FrameProperty.REFLEXIVE):
            continue
        for f, ext in layered_formulas(m, ("p",), 2, modal="box"):
            assert ext == extension(m, to_lea(f)), render(f)
            checked += 1
    # outside the reflexive class the round trip breaks: a dead-end world
    # satisfies [] F but to_lea([] F) is o F & F, false everywhere
    bare = Model.make(("w",), [], {})
    assert satisfies(bare, "w", Box(Bot()))
    assert not satisfies(bare, "w", to_lea(Box(Bot())))
    print(f"criterion 2: pass - to_lea truth-preserving on {checked} reflexive pairs")


def test_criterion_03_self_loop_invariance():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(1000):
        m = rand_model(rng, max_worlds=5)
        closures = [add_self_loops(m, mode) for mode in SelfLoopMode]
        for _ in range(20):
            f = rand_formula(rng, depth=3)
            base = extension(m, f)
            for closed in closures:
                assert extension(closed, f) == base, render(f)
                checked += 1
    print(f"criterion 3: pass - truth unchanged across {checked} self-loop closures")


DEFINABILITY = [
    (FrameProperty.WEAKLY_TRANSITIVE, "o p & p -> o (o p & p)"),
    (FrameProperty.WEAKLY_CONNECTED, "o (o p & p -> q) | o (o q & q -> p)"),
    (FrameProperty.WEAK_WEAK_EUCLIDEAN, "~o ~p -> o (o ~p -> p)"),
    (FrameProperty.SYMMETRIC, "p -> o (o ~p -> p)"),
    (FrameProperty.COREFLEXIVE, "o p"),
    # the strict three-point variants are pinned down by the same formulas
    (FrameProperty.STRICT_TRANSITIVE3, "o p & p -> o (o p & p)"),
    (FrameProperty.STRICT_EUCLIDEAN3, "~o ~p -> o (o ~p -> p)"),
]


def test_criterion_04_frame_definability():
    for prop, src in DEFINABILITY:
        verdict = check_definability(prop, parse(src), 4)
        assert verdict.confirmed, (prop.name, verdict.direction)
    print(f"criterion 4: pass - {len(DEFINABILITY)} definability results confirmed at n=4")


def test_criterion_05_distinguishing_model_goldens():
    looped = Model.make(("s",), [("s", "s")], {"p": ["s"]})
    bare = Model.make(("t",), [], {"p": ["t"]})
    a, b = PointedModel(looped, "s"), PointedModel(bare, "t")
    assert circ_bisimilar(a, b)
    assert not box_bisimilar(a, b)
    assert bounded_equivalent(a, b, ("p",), 3) is True
    boxbot = Box(Bot())
    assert satisfies(bare, "t", boxbot) and not satisfies(looped, "s", boxbot)

    m2 = Model.make(("s", "t"), [("s", "t"), ("t", "t"), ("t", "s")], {"p": ["s"]})
    n2 = Model.make(("s2", "t2"), [("s2", "t2"), ("t2", "s2")], {"p": ["s2"]})
    a2, b2 = PointedModel(m2, "s"), PointedModel(n2, "s2")
    assert circ_bisimilar(a2, b2)
    assert bounded_equivalent(a2, b2, ("p",), 3) is True
    z = largest_circ_bisimulation(disjoint_union(m2, n2)).pairs
    assert {("L:s", "R:s2"), ("L:t", "R:t2"), ("L:t", "L:t")} <= z
    boxboxp = parse("[] [] p")
    assert satisfies(n2, "s2", boxboxp) and not satisfies(m2, "s", boxboxp)
    print("criterion 5: pass - both distinguishing pairs behave as recorded")


def test_criterion_06_bisimulation_oracle_equivalence():
    for m in _models_le3():
        assert frozenset(subset_union_oracle(m)) == largest_circ_bisimulation(m).pairs
    rng = random.Random(SEED)
    for _ in range(2000):
        m = rand_model(rng, max_worlds=4, names=("p",))
        assert frozenset(bitparallel_union_oracle(m)) == largest_circ_bisimulation(m).pairs
    total = len(_models_le3()) + 2000
    print(f"criterion 6: pass - largest bisimulation = union of passing subsets on {total} models")


# Depth 3 is too shallow for the biconditional of criterion 7: these points
# agree on every essence formula of modal depth <= 3 over p, yet they are not
# bisimilar, and the depth-4 formula below tells them apart.
_W3 = ("w0", "w1", "w2")
SHALLOW_LEFT = PointedModel(
    Model.make(
        _W3,
        [("w0", "w0"), ("w0", "w2"), ("w1", "w0"), ("w1", "w1"),
         ("w1", "w2"), ("w2", "w1"), ("w2", "w2")],
        {"p": ["w1"]},
    ),
    "w0",
)
SHALLOW_RIGHT = PointedModel(
    Model.make(
        _W3,
        [("w0", "w0"), ("w0", "w1"), ("w1", "w1"), ("w1", "w2"),
         ("w2", "w0"), ("w2", "w2")],
        {"p": ["w0"]},
    ),
    "w1",
)
SHALLOW_SEPARATOR = "~o o o o ~p"

# On every union in the sweep, depth 5 adds no extension to depth 4, so
# agreement to depth 4 is agreement on the whole essence language over p.
HM_DEPTH = 4


def _hm_sweep():
    """Model pairs of criterion 7: every pair of sizes (1,1), (1,2), (1,3)
    and (2,2), then 2000 seeded draws from all models on <= 3 worlds."""
    by_size: dict[int, list[Model]] = {1: [], 2: [], 3: []}
    for m in _models_le3():
        by_size[len(m.worlds)].append(m)
    for a, b in ((1, 1), (1, 2), (1, 3), (2, 2)):
        for i, m1 in enumerate(by_size[a]):
            for m2 in by_size[b][i if a == b else 0:]:
                yield m1, m2
    rng = random.Random(SEED)
    pool = _models_le3()
    for _ in range(2000):
        yield rng.choice(pool), rng.choice(pool)


def _disagreements(m1: Model, m2: Model, depth: int):
    """Compare circ-bisimilarity with agreement to a modal depth on m1 + m2.

    Returns the cross-model point pairs (x, y, bisimilar) where being
    bisimilar and agreeing on every essence formula over p of modal depth
    <= depth differ, and whether depth + 1 adds no extension on the union,
    that is, whether agreement to depth is agreement on the whole language.
    One union, one greatest bisimulation and one layered formula table
    serve every point pair, which is what makes a broad sweep affordable.
    """
    u = disjoint_union(m1, m2)
    z = largest_circ_bisimulation(u).pairs
    formulas = layered_formulas(u, ("p",), depth)
    closed = len(layered_formulas(u, ("p",), depth + 1)) == len(formulas)
    exts = [ext for _, ext in formulas]
    out = []
    for x in m1.worlds:
        lx = "L:" + x
        for y in m2.worlds:
            ry = "R:" + y
            bis = (lx, ry) in z
            agree = all((lx in e) == (ry in e) for e in exts)
            if bis != agree:
                out.append((x, y, bis))
    return out, closed


def _show(m: Model) -> str:
    return f"{sorted(m.rel)} p={sorted(m.val.get('p', ()))}"


def test_criterion_07_hennessy_milner_depth3():
    a, b = SHALLOW_LEFT, SHALLOW_RIGHT
    u = disjoint_union(a.model, b.model)
    # A bisimulation on u minus its right-to-left pairs is still one: the
    # conditions on the other pairs only look at pairs inside one side or
    # from left to right.  So the oracle may skip right-to-left pairs
    # (2**15 subsets instead of 2**20) and still find every left-to-right
    # pair of the largest bisimulation.
    pool = [(s, t) for s, t in inv_pairs(u) if not (s[0] == "R" and t[0] == "L")]
    assert ("L:" + a.point, "R:" + b.point) not in subset_union_oracle(u, pool)
    sep = parse(SHALLOW_SEPARATOR)
    assert modal_depth(sep) == HM_DEPTH
    assert naive_satisfies(a.model, a.point, sep)
    assert not naive_satisfies(b.model, b.point, sep)
    assert bounded_equivalent(a, b, ("p",), 3) is True
    assert (a.point, b.point, False) in _disagreements(a.model, b.model, 3)[0]

    pairs = unions = 0
    mism: list[tuple[Model, str, Model, str, bool]] = []
    still_growing: list[tuple[Model, Model]] = []
    for m1, m2 in _hm_sweep():
        unions += 1
        pairs += len(m1.worlds) * len(m2.worlds)
        found, closed = _disagreements(m1, m2, HM_DEPTH)
        mism.extend((m1, x, m2, y, bis) for x, y, bis in found)
        if not closed:
            still_growing.append((m1, m2))

    if mism:
        m1, x, m2, y, bis = mism[0]
        wit = bounded_equivalent(PointedModel(m1, x), PointedModel(m2, y), ("p",), 6)
        wrong_way = sum(1 for rec in mism if rec[4])
        detail = (
            f"{len(mism)} of {pairs} point pairs break the depth-{HM_DEPTH} biconditional "
            f"({wrong_way} are bisimilar yet separated, which would be a soundness bug; "
            f"the rest agree to depth {HM_DEPTH} yet are not bisimilar). "
            f"First: M1={_show(m1)} at {x} vs M2={_show(m2)} at {y}: "
            + ("circ-bisimilar, yet an" if bis else "not circ-bisimilar, yet no")
            + f" essence formula of depth <= {HM_DEPTH} over p separates them; "
            f"the first separating formula is {render(wit) if wit is not True else '(none up to depth 6)'}"
        )
        print(f"criterion 7: FAIL - {detail}")
        pytest.fail(detail)
    if still_growing:
        m1, m2 = still_growing[0]
        detail = (
            f"on {len(still_growing)} of {unions} unions depth {HM_DEPTH + 1} adds extensions "
            f"to depth {HM_DEPTH}, so depth-{HM_DEPTH} agreement is not agreement on the "
            f"whole language. First: M1={_show(m1)} with M2={_show(m2)}"
        )
        print(f"criterion 7: FAIL - {detail}")
        pytest.fail(detail)
    print(
        f"criterion 7: pass - biconditional at depth {HM_DEPTH} holds on {pairs} point pairs; "
        f"the language closes by depth {HM_DEPTH} on all {unions} unions; "
        f"depth 3 is too shallow: M1={_show(a.model)} at {a.point} and M2={_show(b.model)} "
        f"at {b.point} agree to depth 3, yet {SHALLOW_SEPARATOR} separates them"
    )


def _rand_s5_model(rng: random.Random) -> Model:
    n = rng.randint(1, 5)
    worlds = tuple(f"w{i}" for i in range(n))
    block = {w: rng.randrange(1 + n // 2) for w in worlds}
    rel = [(v, w) for v in worlds for w in worlds if block[v] == block[w]]
    val = {"p": [w for w in worlds if rng.random() < 0.5]}
    return Model.make(worlds, rel, val)


def test_criterion_08_contraction():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(500):
        m = rand_model(rng, max_worlds=5)
        quotient = contract(m)
        for w in m.worlds:
            image = PointedModel(quotient.model, quotient.class_of[w])
            assert circ_bisimilar(PointedModel(m, w), image), (m, w)
            checked += 1
    for _ in range(200):
        m = _rand_s5_model(rng)
        assert in_class(m, FrameClass.S5)
        assert in_class(contract(m).model, FrameClass.S5), m
    print(f"criterion 8: pass - quotient bisimilar at {checked} worlds; 200 S5 quotients stay S5")


def test_criterion_09_proof_checking():
    for n in range(2, 7):
        report = check_derivation(gen_conj_derivation(n), System.K_CIRC)
        assert report.ok, (n, report.first_error)
    rng = random.Random(SEED)
    for i in range(100):
        base = gen_conj_derivation(2 + i % 5)
        mutant = mutate_derivation(rng, base)
        assert not check_derivation(mutant, System.K_CIRC).ok
    for system in System:
        for name, schema in system.axioms:
            assert is_axiom_instance(schema, system) == (name, {})
    print("criterion 9: pass - 5 generated proofs accepted, 100 mutations rejected, schemas self-match")


SOUNDNESS = [
    (System.K_CIRC, FrameClass.K),
    (System.K4_CIRC, FrameClass.K4),
    (System.KB_CIRC, FrameClass.KB),
    (System.KB5_CIRC, FrameClass.B5),
]


def test_criterion_10_soundness_scans():
    frames = 0
    for system, cls in SOUNDNESS:
        report = soundness_scan(system, cls, 4)
        assert bool(report), (system.name, report.failures[:1])
        frames += report.frames_checked
    prog = sweep.Prog(KW_EUC_ALT)
    euclidean = 0
    for n in range(1, 5):
        for succ in sweep.iter_succ_tables(n):
            if not sweep.succ_has_property(n, succ, FrameProperty.EUCLIDEAN):
                continue
            euclidean += 1
            assert sweep.frame_hit(prog, n, succ, False) is None, (n, succ)
    assert euclidean == 354
    print(f"criterion 10: pass - 4 systems clean on {frames} frames; KwEuc variant valid on {euclidean} euclidean frames")


def test_criterion_11_decision_coherence():
    # Each verdict against bounded search up to three worlds: no unsat
    # verdict where the search finds a model, and the search hit and the
    # witness both lie in the class and replay.
    rng = random.Random(SEED)
    replayed = 0
    classes = (FrameClass.K, FrameClass.D, FrameClass.T, FrameClass.K4, FrameClass.S4, FrameClass.S5,
               FrameClass.KB)
    for cls in classes:
        for _ in range(300):
            f = rand_formula(rng, depth=3, lang="mixed")
            verdict = satisfiable(f, cls)
            hit = sweep.search_sat(f, cls, 3)
            assert verdict.answer is not False or hit is None, (cls.name, render(f))
            for model, w in filter(None, (hit, verdict.witness)):
                assert in_class(model, cls)
                assert satisfies(model, w, f), (cls.name, render(f))
            replayed += verdict.witness is not None
    print(f"criterion 11: pass - 2100 crosschecks, no hard failures, {replayed} witnesses replayed")
