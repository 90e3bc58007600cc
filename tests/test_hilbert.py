import itertools
import random

import pytest

from helpers import mutate_derivation, rand_formula
from lea.formula import And, Box, Ess, Iff, Implies, Not, Or, Var, parse
from lea.hilbert import (
    EQUI_KW,
    KW_B,
    KW_CON,
    KW_EUC,
    KW_EUC_ALT,
    KW_TOP,
    KW_TR,
    Axiom,
    Derivation,
    DerivationSyntaxError,
    Line,
    MP,
    Premise,
    R,
    Sub,
    System,
    Taut,
    check_derivation,
    gen_conj_derivation,
    is_axiom_instance,
    is_tautology,
    match_schema,
    parse_derivation,
    render_derivation,
    soundness_scan,
)
from lea.kripke import FrameClass
from lea.semantics import valid_on_frame


def test_schemas_match_themselves_empty():
    for schema in (KW_TOP, EQUI_KW, KW_CON, KW_TR, KW_B, KW_EUC, KW_EUC_ALT):
        assert match_schema(schema, schema) == {}


def test_match_schema_instance():
    instance = parse("o (q & r) & o ~q -> o ((q & r) & ~q)")
    subst = match_schema(KW_CON, instance)
    assert subst == {"p": parse("q & r"), "q": parse("~q")}
    assert match_schema(KW_CON, parse("o p & o q -> o (q & p)")) is None


def test_is_axiom_instance():
    assert is_axiom_instance(KW_TOP, System.K_CIRC) == ("KwTop", {})
    hit = is_axiom_instance(parse("~(q -> q) -> o (q -> q)"), System.K_CIRC)
    assert hit == ("EquiKw", {"p": parse("q -> q")})
    assert is_axiom_instance(parse("o p"), System.K_CIRC) is None
    # KwTr is only available once the system includes it
    inst = parse("o q & q -> o o q")
    assert is_axiom_instance(inst, System.K_CIRC) is None
    assert is_axiom_instance(inst, System.K4_CIRC) == ("KwTr", {"p": Var("q")})


def test_system_axiom_sets():
    assert [name for name, _ in System.K_CIRC.axioms] == ["KwTop", "EquiKw", "KwCon"]
    assert [name for name, _ in System.K4_CIRC.axioms][-1] == "KwTr"
    assert [name for name, _ in System.KB5_CIRC.axioms][-2:] == ["KwB", "KwEuc"]


def _brute_tautology(f):
    names = sorted({v for v in _vars_of(f)})
    for row in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, row))
        if not _eval(f, env):
            return False
    return True


def _vars_of(f):
    if isinstance(f, Var):
        yield f.name
    for attr in ("sub", "left", "right"):
        child = getattr(f, attr, None)
        if child is not None:
            yield from _vars_of(child)


def _eval(f, env):
    k = type(f).__name__
    if k == "Var":
        return env[f.name]
    if k == "Top":
        return True
    if k == "Bot":
        return False
    if k == "Not":
        return not _eval(f.sub, env)
    if k == "And":
        return _eval(f.left, env) and _eval(f.right, env)
    if k == "Or":
        return _eval(f.left, env) or _eval(f.right, env)
    if k == "Implies":
        return not _eval(f.left, env) or _eval(f.right, env)
    if k == "Iff":
        return _eval(f.left, env) == _eval(f.right, env)
    raise AssertionError(k)


def test_tautology_boolean_matches_truth_table():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        f = rand_formula(rng, 4, names=("p", "q", "r"), lang="lea")
        if "Ess" in repr(f):
            continue
        checked += 1
        assert is_tautology(f) == _brute_tautology(f), f


def test_tautology_modal_atoms():
    assert is_tautology(parse("o p | ~o p"))
    assert is_tautology(parse("o p & p -> p"))
    assert not is_tautology(parse("o (p | ~p)"))
    assert not is_tautology(parse("o p | o ~p"))


def test_tautology_many_modal_atoms():
    # Abstract each maximal modal subtree and each variable to a fresh
    # variable, as the checker does, then compare with the truth table.
    def abstract(f, atoms):
        if isinstance(f, (Ess, Box, Var)):
            return atoms.setdefault(f, Var(f"a{len(atoms)}"))
        if isinstance(f, Not):
            return Not(abstract(f.sub, atoms))
        if isinstance(f, (And, Or, Implies, Iff)):
            return type(f)(abstract(f.left, atoms), abstract(f.right, atoms))
        return f

    def random_cases(rng):
        names = tuple(f"p{i}" for i in range(12))
        while True:
            parts = [rand_formula(rng, 3, names=names, lang="mixed") for _ in range(6)]
            a, b, c = And(parts[0], parts[1]), Or(parts[2], parts[3]), Iff(parts[4], parts[5])
            # Hypothetical syllogism is a tautology; its variant with c -> b
            # is not in general.
            middle = Implies(b, c) if rng.random() < 0.5 else Implies(c, b)
            yield Implies(Implies(a, b), Implies(middle, Implies(a, c)))

    generated = [
        l.formula for l in gen_conj_derivation(12).lines if isinstance(l.just, Taut)
    ]
    checked = taut = 0
    for f in itertools.chain(generated, random_cases(random.Random(43))):
        atoms = {}
        g = abstract(f, atoms)
        if not 10 <= len(atoms) <= 14 or not any(isinstance(a, Ess) for a in atoms):
            continue
        checked += 1
        expected = _brute_tautology(g)
        taut += expected
        assert is_tautology(f) == expected, f
        if checked == 40:
            break
    assert 0 < taut < checked


def test_tautology_atom_limit():
    f = parse(" | ".join(f"x{i}" for i in range(21)))
    with pytest.raises(ValueError):
        is_tautology(f)
    # A line past the limit is not checked: unknown, not rejected.
    report = check_derivation(Derivation((Line(1, f, Taut()),)), System.K_CIRC)
    assert (report.ok, bool(report)) == (None, False)
    assert report.first_error == (1, "tautology check over 21 atoms exceeds the limit of 20")


def test_gen_conj_accepted():
    for n in range(2, 7):
        d = gen_conj_derivation(n)
        report = check_derivation(d, System.K_CIRC)
        assert report.ok, (n, report.first_error)
        want = parse(
            " & ".join(f"o p{i}" for i in range(1, n + 1))
            + " -> o (" + " & ".join(f"p{i}" for i in range(1, n + 1)) + ")"
        )
        assert d.conclusion == want
        assert len(d.lines) == 1 + 4 * (n - 2) if n > 2 else True


def test_gen_conj_text_roundtrip():
    for n in (2, 4):
        d = gen_conj_derivation(n)
        again = parse_derivation(render_derivation(d))
        report = check_derivation(again, System.K_CIRC)
        assert report.ok
        assert again.conclusion == d.conclusion


def test_mutations_rejected():
    rng = random.Random(42)
    base = [gen_conj_derivation(n) for n in (3, 4, 5)]
    for _ in range(60):
        d = mutate_derivation(rng, rng.choice(base))
        assert not check_derivation(d, System.K_CIRC).ok


def test_premise_and_rules():
    lines = (
        Line(1, parse("p & q -> p"), Taut()),
        Line(2, parse("o (p & q) & (p & q) -> o p"), R(1)),
        Line(3, parse("o r"), Premise()),
        Line(4, parse("o r -> o r | o p"), Taut()),
        Line(5, parse("o r | o p"), MP(3, 4)),
    )
    d = Derivation(lines)
    report = check_derivation(d, System.K_CIRC)
    assert report.ok
    assert d.premises() == (parse("o r"),)
    assert d.conclusion == parse("o r | o p")


def test_sub_rule():
    lines = (
        Line(1, parse("~p -> o p"), Axiom("EquiKw", None)),
        Line(2, parse("~(q & q) -> o (q & q)"), Sub(1, {"p": parse("q & q")})),
    )
    assert check_derivation(Derivation(lines), System.K_CIRC).ok


@pytest.mark.parametrize(
    "lines,fragment",
    [
        ((Line(2, parse("o T"), Axiom("KwTop", None)),), "numbered"),
        ((Line(1, parse("o p"), Axiom("KwTop", None)),), "instantiate"),
        ((Line(1, parse("o T"), Axiom("Zap", None)),), "no axiom 'Zap'"),
        ((Line(1, parse("p -> p"), Taut()), Line(2, parse("q"), MP(1, 1))), "not (line 1) -> (this line)"),
        ((Line(1, parse("p -> p"), Taut()), Line(2, parse("p"), MP(1, 5))), "not strictly earlier"),
        ((Line(1, parse("p | ~p"), Taut()), Line(2, parse("o p & p -> o q"), R(1))), "not an implication"),
        ((Line(1, parse("p"), Taut()),), "not a propositional tautology"),
        ((Line(1, parse("[] p -> [] p"), Taut()),), "essence fragment"),
    ],
)
def test_check_rejections(lines, fragment):
    report = check_derivation(Derivation(lines), System.K4_CIRC)
    assert not report.ok
    assert fragment in report.first_error[1], report.first_error


def test_parse_derivation_errors():
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. o T\n")  # missing justification
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. o T   [zap]\n")
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. o & T   [taut]\n")
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. p   [mp one 2]\n")


def test_parse_derivation_text_forms():
    text = """
1. o p & o q -> o (p & q)   [axiom KwCon]

2. o (r & r) & o q -> o ((r & r) & q)   [sub 1 p := r & r]
"""
    d = parse_derivation(text)
    assert len(d.lines) == 2
    assert check_derivation(d, System.K_CIRC).ok


def test_soundness_scan_clean():
    report = soundness_scan(System.K_CIRC, FrameClass.K, 2)
    assert bool(report)
    assert not report.failures
    assert report.frames_checked == 18


def test_soundness_scan_catches_unsound_pairing():
    # the transitivity axiom is not valid over arbitrary frames
    report = soundness_scan(System.K4_CIRC, FrameClass.K, 3)
    assert not bool(report)
    model, name = report.failures[0]
    assert name == "KwTr"
    assert not valid_on_frame(model, KW_TR)
