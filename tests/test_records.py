"""Every library value keeps one contract, whichever module declares it.

A record compares by its fields (Verdict leaves stats out), hashes
consistently with == when its fields are hashable, refuses assignment and
deletion, prints as Name(field=value, ...), and survives copy, deepcopy and
a pickle round trip.  One row per record type, and one per kind of answer
for Verdict, the one answer record: a builder of a value, a builder of an
unequal value (of the same type where the type has fields), its fields in
order, and whether every field is hashable.
"""

import copy
import pickle

import pytest

import lea
from lea.bisim import BisimRelation, BisimViolation, Contraction, contract
from lea.decide import satisfiable, valid
from lea.formula import parse
from lea.hilbert import (
    MP,
    Axiom,
    Derivation,
    Line,
    Premise,
    R,
    Sub,
    System,
    Taut,
    check_derivation,
    gen_conj_derivation,
    soundness_scan,
)
from lea.kripke import FrameClass, FrameProperty, Model, PointedModel, Verdict, model_from_json
from lea.semantics import check_definability


def _model(extra: str = "") -> Model:
    return Model.make(["s", "t", *extra], [("s", "t")], {"p": ["t"]})


_LOADED = '{"worlds": ["s", "t"], "rel": [["s", "t"]], "val": {"p": ["t"]}}'
_VERDICT = ("answer", "reason", "method", "witness", "stats")
# A disjunction of 21 atoms: its tautology check is past the atom limit.
_WIDE = " | ".join(f"x{i}" for i in range(21))


def _checked(f: str, just) -> Verdict:
    return check_derivation(Derivation((Line(1, parse(f), just),)), System.K_CIRC)


RECORDS = {
    "Model": (_model, lambda: _model("u"), ("worlds", "rel", "val"), False),
    "Model-loaded": (lambda: model_from_json(_LOADED)[0], lambda: _model("u"),
                     ("worlds", "rel", "val"), False),
    "PointedModel": (lambda: PointedModel(_model(), "s"), lambda: PointedModel(_model(), "t"),
                     ("model", "point"), False),
    "Verdict": (lambda: satisfiable(parse("o p & <> ~p"), FrameClass.K),
                lambda: valid(parse("o p & <> ~p"), FrameClass.K), _VERDICT, False),
    "Verdict-valid": (lambda: valid(parse("[] p -> p"), FrameClass.T),
                      lambda: valid(parse("[] p -> p"), FrameClass.TB), _VERDICT, True),
    "Verdict-bounded-unknown": (lambda: valid(parse("[] p -> p"), FrameClass.TB),
                                lambda: valid(parse("[] p -> p"), FrameClass.TB, 2),
                                _VERDICT, True),
    "Verdict-define-refuted": (
        lambda: check_definability(FrameProperty.REFLEXIVE, parse("o p"), 2),
        lambda: check_definability(FrameProperty.REFLEXIVE, parse("[] p -> p"), 2),
        _VERDICT, False),
    "BisimRelation": (lambda: BisimRelation(_model(), frozenset({("s", "s")})),
                      lambda: BisimRelation(_model(), frozenset({("t", "t")})),
                      ("carrier", "pairs"), False),
    "BisimViolation": (lambda: BisimViolation("forth", ("s", "t"), "u"),
                       lambda: BisimViolation("back", ("s", "t"), "u"),
                       ("condition", "pair", "world"), True),
    "Contraction": (lambda: contract(_model()), lambda: contract(_model("u")),
                    ("model", "class_of"), False),
    "Taut": (Taut, Premise, (), True),
    "Premise": (Premise, Taut, (), True),
    "Axiom": (lambda: Axiom("KwTop"), lambda: Axiom("KwCon"), ("name",), True),
    "MP": (lambda: MP(1, 2), lambda: MP(2, 1), ("antecedent", "implication"), True),
    "Sub": (lambda: Sub(1, {"p": parse("q")}), lambda: Sub(1, {"p": parse("r")}),
            ("source", "subst"), False),
    "R": (lambda: R(3), lambda: R(4), ("source",), True),
    "Line": (lambda: Line(1, parse("o T"), Axiom("KwTop")),
             lambda: Line(1, parse("o T"), Taut()), ("index", "formula", "just"), True),
    "Derivation": (lambda: gen_conj_derivation(2), lambda: gen_conj_derivation(3),
                   ("lines",), True),
    "Verdict-derivation-rejected": (lambda: _checked("o p", Axiom("KwTop")),
                                    lambda: _checked("o T", Axiom("KwCon")), _VERDICT, True),
    "Verdict-derivation-unknown": (lambda: _checked(_WIDE, Taut()),
                                   lambda: _checked("o p", Axiom("KwTop")), _VERDICT, True),
    "Verdict-scan-clean": (lambda: soundness_scan(System.K_CIRC, FrameClass.K, 2),
                           lambda: soundness_scan(System.K4_CIRC, FrameClass.K, 3),
                           _VERDICT, True),
    "Verdict-scan-failing": (lambda: soundness_scan(System.KB5_CIRC, FrameClass.K, 2),
                             lambda: soundness_scan(System.KB5_CIRC, FrameClass.KB, 2),
                             _VERDICT, True),
}


@pytest.mark.parametrize("make, other, fields, hashable", RECORDS.values(), ids=RECORDS)
def test_record_contract(make, other, fields, hashable):
    a, b, c = make(), make(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != (a,) and a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)

    assert repr(a) == (f"{type(a).__name__}("
                       + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")")

    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b

    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is type(a) and twin is not a
        assert repr(twin) == repr(a)


def test_verdict_equality_ignores_stats():
    a = Verdict(True, method="tableau", stats={"expansions": 1})
    b = Verdict(True, method="tableau", stats={"expansions": 9})
    assert a == b and hash(a) == hash(b)
    assert a != Verdict(False, method="tableau", stats={"expansions": 1})


def test_verdict_default_stats_are_never_shared():
    a = Verdict(True, method="tableau")
    b = Verdict(True, method="tableau")
    assert a.stats == {} and a.stats is not b.stats
    a.stats["expansions"] = 1
    assert b.stats == {}
    assert Verdict(True, method="tableau").stats == {}


# Every function that answers a question, on inputs that reach each answer
# it gives: True, False and, where it has one, unknown.
ANSWERS = {
    "sat-tableau": lambda: satisfiable(parse("o p & <> ~p"), FrameClass.K),
    "unsat-tableau": lambda: satisfiable(parse("p & ~p"), FrameClass.S4),
    "sat-bounded": lambda: satisfiable(parse("o p & <> p & <> ~p"), FrameClass.TB),
    "sat-unknown": lambda: satisfiable(parse("p & ~p"), FrameClass.B5),
    "valid-tableau": lambda: valid(parse("[] p -> p"), FrameClass.T),
    "invalid-tableau": lambda: valid(parse("[] p -> p"), FrameClass.K),
    "invalid-bounded": lambda: valid(parse("p | ~q"), FrameClass.B5),
    "valid-unknown": lambda: valid(parse("o T"), FrameClass.B5, 2),
    "define-confirmed": lambda: check_definability(
        FrameProperty.REFLEXIVE, parse("[] p -> p"), 2),
    "define-refuted": lambda: check_definability(FrameProperty.REFLEXIVE, parse("o p"), 2),
    "prove-accepted": lambda: check_derivation(gen_conj_derivation(2), System.K_CIRC),
    "prove-rejected": lambda: _checked("o p", Axiom("KwTop")),
    "prove-unknown": lambda: _checked(_WIDE, Taut()),
    "scan-clean": lambda: soundness_scan(System.K_CIRC, FrameClass.K, 2),
    "scan-failing": lambda: soundness_scan(System.KB5_CIRC, FrameClass.K, 2),
}


def test_every_question_answers_with_one_verdict():
    answers = {name: ask() for name, ask in ANSWERS.items()}
    assert {type(v) for v in answers.values()} == {lea.Verdict}
    assert {v.answer for v in answers.values()} == {True, False, None}
    for name, v in answers.items():
        assert v.answer is not None or v.reason, name
    assert answers["sat-unknown"].reason == "no model with up to 3 worlds"
    assert answers["valid-unknown"].reason == "no countermodel with up to 2 worlds"
    assert answers["prove-unknown"].reason == (
        "tautology check over 21 atoms exceeds the limit of 20")
    # Two answers never share a stats dict, not even two to one question.
    stats = [v.stats for v in answers.values()] + [ask().stats for ask in ANSWERS.values()]
    assert len(set(map(id, stats))) == len(stats)


def test_records_refuse_missing_extra_and_unknown_arguments():
    with pytest.raises(TypeError):
        MP(1)
    with pytest.raises(TypeError):
        MP(1, 2, 3)
    with pytest.raises(TypeError):
        MP(1, implication=2, line=3)
    with pytest.raises(TypeError):
        MP(1, antecedent=2)
    with pytest.raises(TypeError):
        Taut(1)
    assert MP(implication=2, antecedent=1) == MP(1, 2)
    assert BisimViolation("empty") == BisimViolation("empty", None, None)
    assert Derivation(lines=()) == Derivation(())


def test_replace_changes_only_the_given_fields():
    v = satisfiable(parse("o p & <> ~p"), FrameClass.K)
    w = v.replace(reason="refuted", answer=False)
    assert type(w) is Verdict and (v.reason, v.answer) == (None, True)
    assert (w.answer, w.reason, w.method, w.witness, w.stats) == (
        False, "refuted", v.method, v.witness, v.stats)
    with pytest.raises(TypeError):
        v.replace(verdict=True)
    # A class that writes its own constructor keeps its checks.
    with pytest.raises(ValueError):
        _model().replace(worlds=("s",))
