import hashlib
import json
import random

import pytest

from helpers import (
    k_depth_one_model,
    labelled_search_sat,
    naive_in_class,
    naive_satisfies,
    RecursiveNnf,
    rand_formula,
    rand_modal_cnf,
)
from lea import sweep
from lea.cli import main
from lea.decide import (
    DEFAULT_BOUND,
    TABLEAU_CLASSES,
    DecideError,
    _Branch,
    _Nnf,
    satisfiable,
    valid,
)
from lea.formula import And, Box, Dia, Ess, Iff, Implies, Not, Or, Var, parse, to_ml
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
    # No unsat verdict where bounded search finds a model on at most three
    # worlds; the search hit and the witness both lie in the class and replay.
    rng = random.Random(52)
    for cls in TABLEAU_CLASSES:
        for _ in range(60):
            f = rand_formula(rng, 3, lang="lea")
            verdict = satisfiable(f, cls)
            hit = sweep.search_sat(f, cls, 3)
            assert verdict.answer is not False or hit is None, (cls, f)
            for model, point in filter(None, (hit, verdict.witness)):
                assert in_class(model, cls)
                assert satisfies(model, point, f)


def test_bounded_search_classes():
    never = satisfiable(parse("p & ~p"), FrameClass.B5)
    assert never.answer is None
    assert never.method == "bounded-search"
    assert never.reason == f"no model with up to {DEFAULT_BOUND} worlds"
    hit = satisfiable(parse("o p & <> p & <> ~p"), FrameClass.TB, max_n=4)
    assert hit.answer is True
    model, point = hit.witness
    assert in_class(model, FrameClass.TB)
    assert satisfies(model, point, parse("o p & <> p & <> ~p"))
    # a validity can only be bounded-refuted, never bounded-affirmed
    unknown_valid = valid(parse("o T"), FrameClass.B5)
    assert unknown_valid.answer is None
    assert unknown_valid.reason == f"no countermodel with up to {DEFAULT_BOUND} worlds"
    refuted = valid(parse("p | ~q"), FrameClass.B5)
    assert refuted.answer is False
    assert refuted.witness is not None


def test_deep_formulas_terminate():
    f = parse("<> [] <> [] <> p & [] <> [] q")
    for cls in (FrameClass.K4, FrameClass.S4, FrameClass.S5, FrameClass.KB):
        verdict = satisfiable(f, cls)
        assert verdict.answer in (True, False)


@pytest.mark.parametrize(
    "cls,sizes",
    [(FrameClass.K4, (3, 3, 5)), (FrameClass.S4, (4, 4, 6)), (FrameClass.S5, (3, 3, 4))],
    ids=["K4", "S4", "S5"],
)
def test_blocking_reuses_a_world(cls, sizes, monkeypatch):
    # In a transitive class [] <> p would make worlds without end; each of
    # these formulas is satisfied only because some diamond finds a blocker.
    find = _Branch._find_blocker
    found = []

    def spy(self, w, body):
        found.append(find(self, w, body))
        return found[-1]

    monkeypatch.setattr(_Branch, "_find_blocker", spy)
    for text, size in zip(("<> T & [] <> p", "[] <> p & <> ~p", "<> p & <> ~p & [] <> q"), sizes):
        found.clear()
        verdict = satisfiable(parse(text), cls)
        assert verdict.answer is True, text
        assert any(hit is not None for hit in found), text
        model, point = verdict.witness
        assert len(model.worlds) == size, text
        assert naive_in_class(model, cls)
        assert naive_satisfies(model, point, parse(text))


def test_deterministic_witness():
    f = parse("<> p & <> ~p & o q")
    a = satisfiable(f, FrameClass.K)
    b = satisfiable(f, FrameClass.K)
    assert a.witness == b.witness
    assert a.witness is not None


def test_verdict_fields():
    v = satisfiable(parse("o p"), FrameClass.T)
    assert (v.answer, v.reason, v.method) == (True, None, "tableau")
    w = valid(parse("o p"), FrameClass.T)
    assert (w.answer, w.reason, w.method) == (False, None, "tableau")
    model, point = w.witness
    assert not satisfies(model, point, parse("o p"))


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


def _labelled_crosscheck(f, cls, max_n=3):
    """The tableau verdict on f, after checking it against labelled search:
    no unsat verdict where labelled search finds a model on at most max_n
    worlds; every model found lies in the class and replays."""
    verdict = satisfiable(f, cls)
    if verdict.answer:
        model, point = verdict.witness
        assert naive_in_class(model, cls)
        assert naive_satisfies(model, point, f)
    else:
        assert verdict.answer is False
        assert labelled_search_sat(f, cls, max_n) is None, f
    return verdict


@pytest.mark.parametrize("cls", TABLEAU_CLASSES, ids=lambda c: c.name)
def test_depth_two_cnf_against_labelled_search(cls):
    rng = random.Random(f"depth-two {cls.name}")
    for _ in range(10):
        _labelled_crosscheck(rand_modal_cnf(rng, ("p",), rng.randint(4, 14), depth=2), cls)


@pytest.mark.parametrize("cls", TABLEAU_CLASSES, ids=lambda c: c.name)
def test_present_disjunct_opens_no_choice_point(cls):
    for text in ("p & (q | p)", "(q | p) & p", "[] p & (<> q | [] p | r)"):
        verdict = _labelled_crosscheck(parse(text), cls)
        assert verdict.answer is True
        assert verdict.stats["choice_points"] == 0, text


@pytest.mark.parametrize("cls", TABLEAU_CLASSES, ids=lambda c: c.name)
def test_present_complement_propagates(cls):
    for text, answer in (("~p & (p | q)", True), ("~p & ~q & (p | q)", False),
                         ("<> ~p & ([] p | q)", True), ("~p & (p | q | r) & ~r", True)):
        verdict = _labelled_crosscheck(parse(text), cls)
        assert verdict.answer is answer, text
        assert verdict.stats["choice_points"] == 0, text
    # x is tried first; ~x | q then propagates q, and ~q | z closes because
    # of q and ~z.  The clash reaches the choice point only through the mask
    # q was given, the union of its clause's and x's: without it the search
    # would report unsatisfiable without trying y.
    verdict = _labelled_crosscheck(parse("(x | y) & (~x | q) & (~q | z) & ~z"), cls)
    assert verdict.answer is True
    assert verdict.stats["choice_points"] == 1
    model, point = verdict.witness
    assert naive_satisfies(model, point, parse("~x & y & ~q & ~z"))


@pytest.mark.parametrize("cls", TABLEAU_CLASSES, ids=lambda c: c.name)
def test_second_branch_adds_only_propositional_complements(cls):
    # [] p fails at the world <> T makes; the complement <> ~p would make
    # another world, so the second branch takes q alone.
    verdict = _labelled_crosscheck(parse("([] p | q) & [] ~p & <> T"), cls)
    assert verdict.answer is True
    assert verdict.stats["choice_points"] == 1
    model, _ = verdict.witness
    assert len(model.worlds) == 2
    # p fails, so the second branch takes q and ~p.  ~p settles the second
    # and third clauses and leaves s | t of the last: two choice points, where
    # q alone would leave ~p | r open and need three.
    verdict = _labelled_crosscheck(parse("(p | q) & (~p | r) & (~p | ~r) & (p | s | t)"), cls)
    assert verdict.answer is True
    assert verdict.stats["choice_points"] == 2
    model, point = verdict.witness
    assert naive_satisfies(model, point, parse("~p & q & s"))


def test_depth_one_3cnf_decided_within_budget():
    """Seeded depth-one 3-CNFs over three atoms with 20 to 26 clauses in K.
    Syntactic branching without propagation ran out of budget on two of
    these (seeds 10016 and 10042); every answer agrees with the depth-one
    oracle."""
    exhausted = 0
    for seed in range(10_000, 10_070):
        f = rand_modal_cnf(random.Random(seed), ("a", "b", "c"), 20 + seed % 7)
        try:
            verdict = _labelled_crosscheck(f, FrameClass.K, 2)
        except DecideError:
            exhausted += 1
            continue
        assert verdict.answer is (k_depth_one_model(f, ("a", "b", "c")) is not None), seed
    assert exhausted == 0


def _golden_rows(cls):
    """(answer, stats, witness) over seeds 0-39 of the goldens below."""
    rows = []
    for seed in range(40):
        f = rand_modal_cnf(random.Random(seed), ["a", "b", "c"], 3 + seed % 7,
                           depth=1 + seed % 2)
        v = satisfiable(f, cls)
        rows.append((v.answer, v.stats, model_to_obj(*v.witness) if v.witness else None))
    return rows


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# sha256 of the JSON list of answers over seeds 0-39, computed with the
# tableau that copied its whole state at every choice point and unchanged
# since.  Any later tableau must give these answers.
ANSWER_GOLDENS = {
    "K": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
    "D": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
    "T": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
    "KB": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
    "K4": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
    "S4": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
    "S5": "c6b8a4ec0d4244a2096d88e5fea0c4794d83ccfcd8973f1ce386c2feb6b641b3",
}

# sha256 of the sorted-key JSON of (stats, witness) over the same rows,
# computed with the tableau that settles a disjunction by propagation where
# it can and adds the complement of a first disjunct without box or dia on
# going back.  The costs and witnesses of a later tableau may differ only
# with a stated reason.  S5's changed when the labelled tableau replaced the
# one-clique calculus: a diamond whose body some world already holds now
# gets an edge to that world where the clique made one world per body, and
# the witness is the closure of the branch's edges, so costs and world
# numbering differ (answers do not: see test_s5_keeps_the_clique_answers).
# All seven changed again when a choice point began to try the disjuncts
# that make no new world (no dia outside every box) first: the order of
# the search, and so its costs and the witness it stops at, differ, while
# the answers stay those of ANSWER_GOLDENS.
WITNESS_GOLDENS = {
    "K": "6c4c830abdb03a3b3d77b313cdf20dc02907c1ad415597303b6440ea4e364216",
    "D": "0fd1756b41edc39acb55dfeba1c7a22e48ba65f726ce26d221856ef1103ca7bc",
    "T": "c74eb0d89a47f2c32b7278ae407e19526684c8359032bfd2dc6cff782df71deb",
    "KB": "54d5e124d71f4b4a72ef3caf53125d2b82769342067748947de67d77158872dc",
    "K4": "3a9b62757ead33d9430f5cf71e3a156907499f40a5e6136763f416fbbfd8d6b4",
    "S4": "7a10dd756b2f73478f24d6f57986ba68d2c7c7b944cd8597632f87e6c4b7d9d9",
    "S5": "544de43e0f830611fc16bc933b9bbaf6d7387de58396c30010c63b311e8729ec",
}


def test_answer_goldens():
    digests = {cls.name: _digest([row[0] for row in _golden_rows(cls)])
               for cls in TABLEAU_CLASSES}
    assert digests == ANSWER_GOLDENS


def test_witness_goldens():
    digests = {cls.name: _digest([row[1:] for row in _golden_rows(cls)])
               for cls in TABLEAU_CLASSES}
    assert digests == WITNESS_GOLDENS


def _s5_pin_formulas():
    """3,900 seeded formulas: 600 mixed ones at each depth 1 to 5 over p, q,
    r, 300 at depth 6 over p, q, and modal 3-CNFs over a, b, c of depth one
    or two with 3 to 22 clauses (seeds 0-599)."""
    rng = random.Random(7)
    for depth in range(1, 6):
        for _ in range(600):
            yield rand_formula(rng, depth, ("p", "q", "r"), "mixed")
    rng = random.Random(11)
    for _ in range(300):
        yield rand_formula(rng, 6, ("p", "q"), "mixed")
    for seed in range(600):
        yield rand_modal_cnf(random.Random(seed), ("a", "b", "c"), 3 + seed % 20,
                             depth=1 + seed % 2)


# Computed with the one-clique S5 calculus that the labelled tableau
# replaced: the formulas it gave up on (budget exhausted), the sha256 of the
# JSON list of its answers on the others, and the worlds of its witnesses in
# total over those.
S5_CLIQUE_EXHAUSTED = (3599, 3759)
S5_CLIQUE_ANSWERS = "98fc3f10a3add83ccbdc5a4493b3138f17efee34b2822f57f738b8e62f8661d9"
S5_CLIQUE_WITNESS_WORLDS = 5395


def test_s5_keeps_the_clique_answers():
    """Every formula the clique decided is decided, with its answer and a
    witness that replays (satisfiable checks it), and the witnesses are no
    larger in total."""
    answers, worlds = [], 0
    for i, f in enumerate(_s5_pin_formulas()):
        try:
            verdict = satisfiable(f, FrameClass.S5)
        except DecideError:
            assert i in S5_CLIQUE_EXHAUSTED, i
            continue
        if i in S5_CLIQUE_EXHAUSTED:
            continue
        answers.append(verdict.answer)
        if verdict.witness is not None:
            worlds += len(verdict.witness[0].worlds)
    assert _digest(answers) == S5_CLIQUE_ANSWERS
    assert worlds <= S5_CLIQUE_WITNESS_WORLDS, worlds


def test_nested_essence_in_k():
    """o^20 p is ~o^19 p | [] o^19 p.  The box makes no world, so it is
    tried first and holds at a world without successors: one choice point
    and a one-world witness.  (Tried in NNF order, each ~o opened a world of
    its own, and the choice points grew like Fibonacci numbers: 39,601
    formulas, 6,765 choice points and a 10,946-world witness.)"""
    verdict = satisfiable(parse("o " * 20 + "p"), FrameClass.K)
    assert verdict.answer is True
    assert verdict.stats == {"expansions": 2, "choice_points": 1, "backjumps": 0}
    assert len(verdict.witness[0].worlds) == 1


def test_nested_essence_costs_linear_expansions():
    # Each o offers [] g, which makes no world, beside ~g, so no tableau
    # class should pay more than one choice point a level; in NNF order K
    # ran out of budget at d = 24.
    for d in range(1, 101):
        f = parse("o " * d + "p")
        for cls in TABLEAU_CLASSES:
            verdict = satisfiable(f, cls)
            assert verdict.answer is True
            assert verdict.stats["expansions"] <= 2 * d + 2, (d, cls)


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


def _pigeonhole(pigeons, holes):
    """Each pigeon in some hole, and no two pigeons in one hole."""
    some = [" | ".join(f"p{i}h{j}" for j in range(holes)) for i in range(pigeons)]
    apart = [f"~(p{i}h{j} & p{k}h{j})"
             for j in range(holes) for i in range(pigeons) for k in range(i + 1, pigeons)]
    return " & ".join(f"({c})" for c in some + apart)


def test_pigeonhole_exhausts_the_expansion_budget(capsys):
    """8 pigeons in 7 holes run past the 50,000 expansions; 7 in 6 need
    47,773 and are decided."""
    text = _pigeonhole(8, 7)
    with pytest.raises(DecideError, match="budget exhausted"):
        satisfiable(parse(text), FrameClass.K)
    assert main(["sat", text, "--class", "K"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: tableau expansion budget exhausted\n")
    verdict = satisfiable(parse(_pigeonhole(7, 6)), FrameClass.K)
    assert verdict.answer is False
    assert verdict.stats["expansions"] == 47_773


@pytest.mark.parametrize("depth", [30, 60])
def test_nnf_interns_shared_bodies_once(depth):
    """to_ml of o^depth p names each body twice (g -> [] g), so the formula
    has 2^depth paths; the memo rewrites each node once.  A walk past
    4 * depth calls stops the test instead of running for 2^depth steps."""

    class Counted(_Nnf):
        calls = 0

        def of(self, f):
            self.calls += 1
            assert self.calls <= 4 * depth, "a shared subformula was rewritten again"
            return super().of(f)

    nnf = Counted()
    nnf.of(to_ml(parse("o " * depth + "p")))
    assert len(nnf.nodes) == 4 * depth + 2


def test_nnf_matches_recursive_oracle():
    # The task stack of _Nnf.of hands out the recursive rewrite's ids, in its
    # order, also when formulas of one question share subterms and runs.
    rng = random.Random(1626)
    for i in range(300):
        f = rand_formula(rng, 1 + i % 6, names=("p", "q", "r"), lang="mixed")
        g = rand_modal_cnf(rng, ("p", "q", "r"), 1 + i % 8, depth=i % 3)
        question = [f, g, And(f, Or(g, Not(f))), Iff(g, Implies(f, g)),
                    Ess(And(And(f, g), Not(Or(g, f)))), Or(Or(f, g), Or(f, Not(g)))]
        nnf, oracle = _Nnf(), RecursiveNnf()
        assert [nnf.of(h) for h in question] == [oracle.of(h) for h in question]
        assert (nnf.nodes, nnf.modal, nnf.ids, nnf.memo) == (
            oracle.nodes, oracle.modal, oracle.ids, oracle.memo)
