import hashlib
import json
import random

import pytest

from helpers import (
    k_depth_one_model,
    labelled_search_sat,
    naive_in_class,
    naive_satisfies,
    rand_formula,
    rand_modal_cnf,
)
from lea.decide import (
    DEFAULT_BOUND,
    TABLEAU_CLASSES,
    crosscheck,
    satisfiable,
    valid,
)
from lea.formula import And, Box, Dia, Not, Or, Var, parse
from lea.kripke import FrameClass, in_class, model_to_obj
from lea.semantics import satisfies


@pytest.mark.parametrize(
    "text,cls,expect",
    [
        ("p & ~p", FrameClass.K, False),
        ("[] F", FrameClass.K, True),
        ("[] F", FrameClass.D, False),
        ("[] p", FrameClass.D, True),
        ("<> p & [] ~p", FrameClass.T, False),
        ("p & [] ~p", FrameClass.KB, True),
        ("<> p & [] <> p", FrameClass.K4, True),
        ("<> p & <> ~p", FrameClass.S5, True),
        ("o p & ~p", FrameClass.K, True),
        ("~(o T)", FrameClass.K, False),
        ("p & o ~p", FrameClass.T, True),
        ("o p & p & <> ~p", FrameClass.K, False),
        # the boxes clash only in the world <> p makes, so q must be tried
        ("(<> p | q) & [] r & [] ~r", FrameClass.K, True),
        ("(<> p | q) & [] r & [] ~r", FrameClass.KB, True),
        ("(<> p | q) & [] r & [] ~r", FrameClass.K4, True),
        ("(<> p | q) & [] r & [] ~r", FrameClass.D, False),
        ("(<> p | q) & [] r & [] ~r", FrameClass.S5, False),
    ],
)
def test_satisfiable_cases(text, cls, expect):
    verdict = satisfiable(parse(text), cls)
    assert verdict.answer is expect
    assert verdict.method == "tableau"
    assert (verdict.witness is not None) == expect


@pytest.mark.parametrize(
    "text,cls,expect",
    [
        ("o T", FrameClass.K, True),
        ("[] p -> p", FrameClass.T, True),
        ("[] p -> p", FrameClass.K, False),
        ("o p & p -> o o p", FrameClass.K4, True),
        ("o p & p -> o o p", FrameClass.K, False),
        ("p -> o (o ~p -> p)", FrameClass.KB, True),
        ("p -> [] <> p", FrameClass.KB, True),
        ("<> p -> [] <> p", FrameClass.S5, True),
        ("[] p -> [] [] p", FrameClass.S4, True),
        ("~o ~p -> o (o ~p -> p)", FrameClass.S5, True),
    ],
)
def test_valid_cases(text, cls, expect):
    verdict = valid(parse(text), cls)
    assert verdict.answer is expect


def test_witnesses_replay():
    rng = random.Random(51)
    for cls in TABLEAU_CLASSES:
        for _ in range(60):
            f = rand_formula(rng, 3, lang="mixed")
            verdict = satisfiable(f, cls)
            if verdict.answer:
                model, point = verdict.witness
                assert in_class(model, cls)
                assert satisfies(model, point, f)


def test_countermodel_refutes():
    verdict = valid(parse("[] p -> p"), FrameClass.K)
    assert verdict.answer is False
    model, point = verdict.witness
    assert not satisfies(model, point, parse("[] p -> p"))


def test_crosscheck_agrees():
    rng = random.Random(52)
    for cls in TABLEAU_CLASSES:
        for _ in range(60):
            f = rand_formula(rng, 3, lang="lea")
            report = crosscheck(f, cls, max_n=3)
            assert not report.hard_failure, (cls, f, report.note)
            assert bool(report)


def test_bounded_search_classes():
    never = satisfiable(parse("p & ~p"), FrameClass.B5)
    assert never.answer is None
    assert never.method == "bounded-search"
    assert never.bound == DEFAULT_BOUND
    hit = satisfiable(parse("o p & <> p & <> ~p"), FrameClass.TB, max_n=4)
    assert hit.answer is True
    model, point = hit.witness
    assert in_class(model, FrameClass.TB)
    assert satisfies(model, point, parse("o p & <> p & <> ~p"))
    # a validity can only be bounded-refuted, never bounded-affirmed
    unknown_valid = valid(parse("o T"), FrameClass.B5)
    assert unknown_valid.answer is None
    refuted = valid(parse("p | ~q"), FrameClass.B5)
    assert refuted.answer is False
    assert refuted.witness is not None


def test_deep_formulas_terminate():
    f = parse("<> [] <> [] <> p & [] <> [] q")
    for cls in (FrameClass.K4, FrameClass.S4, FrameClass.S5, FrameClass.KB):
        verdict = satisfiable(f, cls)
        assert verdict.answer in (True, False)


def test_deterministic_witness():
    f = parse("<> p & <> ~p & o q")
    a = satisfiable(f, FrameClass.K)
    b = satisfiable(f, FrameClass.K)
    assert a.witness == b.witness
    assert a.witness is not None


def test_verdict_fields():
    v = satisfiable(parse("o p"), FrameClass.T)
    assert v.question == "sat"
    assert v.frame_class is FrameClass.T
    assert v.formula == parse("o p")
    w = valid(parse("o p"), FrameClass.T)
    assert w.question == "valid"


def test_verdict_stats():
    v = satisfiable(parse("(p | q) & <> ~r & [] r"), FrameClass.K)
    assert v.answer is False
    assert set(v.stats) == {"expansions", "choice_points", "backjumps"}
    assert v.stats["choice_points"] == 1
    assert v.stats["backjumps"] == 1  # the clash under <> is blind to p | q
    assert valid(parse("[] p -> p"), FrameClass.T).stats["expansions"] > 0
    assert satisfiable(parse("p"), FrameClass.TB).stats == {}


def test_depth_one_k_oracle():
    """Modal 3-CNFs of depth one over three atoms with 3 to 28 clauses,
    against an oracle that tries every root valuation with every set of
    successor valuations.  Every answer is definitive."""
    atoms = ("a", "b", "c")
    rng = random.Random(53)
    answers = set()
    for clauses in range(3, 29):
        for _ in range(2):
            f = rand_modal_cnf(rng, atoms, clauses)
            expected = k_depth_one_model(f, atoms)
            if expected is not None:
                assert naive_satisfies(*expected, f)
            verdict = satisfiable(f, FrameClass.K)
            assert verdict.answer is (expected is not None), (clauses, f)
            answers.add(verdict.answer)
            if verdict.answer:
                assert naive_satisfies(*verdict.witness, f)
    assert answers == {True, False}


@pytest.mark.parametrize("cls", TABLEAU_CLASSES, ids=lambda c: c.name)
def test_irrelevant_disjunctions_cost_linear(cls):
    """(a0|b0) & ... & <> x & [] ~x: the clash under <> depends on no
    disjunction, so backjumping closes every choice point without trying
    its second disjunct.  Chronological backtracking needs 2^width
    branches, past the budget from width 14 on."""
    for width in range(2, 41):
        parts = [Or(Var(f"a{i}"), Var(f"b{i}")) for i in range(width)]
        f = parts[0]
        for g in parts[1:] + [Dia(Var("x")), Box(Not(Var("x")))]:
            f = And(f, g)
        verdict = satisfiable(f, cls)
        assert verdict.answer is False
        assert verdict.stats["expansions"] <= 20 * width, (width, verdict.stats)
        assert verdict.stats["backjumps"] == width


@pytest.mark.parametrize("cls", TABLEAU_CLASSES, ids=lambda c: c.name)
def test_depth_two_cnf_against_labelled_search(cls):
    """No unsat verdict where labelled search finds a model on at most three
    worlds; every model found lies in the class and replays."""
    rng = random.Random(f"depth-two {cls.name}")
    for _ in range(10):
        f = rand_modal_cnf(rng, ("p",), rng.randint(4, 14), depth=2)
        verdict = satisfiable(f, cls)
        if verdict.answer:
            model, point = verdict.witness
            assert naive_in_class(model, cls)
            assert naive_satisfies(model, point, f)
        else:
            assert verdict.answer is False
            assert labelled_search_sat(f, cls, 3) is None, f


# sha256 of the sorted-key JSON of (answer, stats, witness) over seeds 0-39,
# computed with the tableau that copied its whole state at every choice point.
# Any later tableau must reproduce these answers, costs and witnesses exactly.
WITNESS_GOLDENS = {
    "K": "63f3d6389ba249f9d414a5dec786c6158c2bc07bf0e50d80ee2400f3b8fec99c",
    "D": "40dd0926210b5a82505d674aa6c3a7480543468cd2b349e0e9d65af24bec0b4c",
    "T": "e5ed417a47ef1a3b0ff9c88b12debc0a456f404dcb9ffca846d030636d4a8aa9",
    "KB": "31d565c93541ed701a8c30d852ed29dc586775b34b194ef290e92e1876129fd0",
    "K4": "e4e1399b0289d8e0b3fb3bdfe292005ea445597354ece8b1e0489f700c28e7df",
    "S4": "a9e4563f1727462925a8c73673a70870366926f294e0e13f5438b6119a764bf9",
    "S5": "d810e8136d7ec80aa6d957b7e017d87745aafac7778f80942bef151f49fb2eb2",
}


def test_witness_goldens():
    digests = {}
    for cls in TABLEAU_CLASSES:
        rows = []
        for seed in range(40):
            f = rand_modal_cnf(random.Random(seed), ["a", "b", "c"], 3 + seed % 7,
                               depth=1 + seed % 2)
            v = satisfiable(f, cls)
            rows.append((v.answer, v.stats, model_to_obj(*v.witness) if v.witness else None))
        digests[cls.name] = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digests == WITNESS_GOLDENS


def test_nested_essence_in_k():
    """o^20 p: each o opens a choice point, so they grow like Fibonacci
    numbers; the search restores by undoing and rewrites each subformula
    into NNF once per polarity, so this takes seconds, not hours."""
    verdict = satisfiable(parse("o " * 20 + "p"), FrameClass.K)
    assert verdict.answer is True
    assert verdict.stats == {"expansions": 39601, "choice_points": 6765, "backjumps": 0}


def test_long_diamond_chain_in_k4():
    """<>^200 p in K4 needs a chain of 201 worlds, and the witness relation
    is its transitive closure: 200 * 201 / 2 edges, closed over bitmask rows
    in well under a second."""
    f = Var("p")
    for _ in range(200):
        f = Dia(f)
    verdict = satisfiable(f, FrameClass.K4)
    assert verdict.answer is True
    model, point = verdict.witness
    assert len(model.worlds) == 201
    assert len(model.rel) == 200 * 201 // 2
    assert in_class(model, FrameClass.K4)
    assert satisfies(model, point, f)
