import itertools
import random

import pytest

from helpers import (
    KW_EUC_ALT,
    mutate_derivation,
    oracle_check_derivation,
    oracle_parse_derivation,
    oracle_render_derivation,
    rand_formula,
)
from helpers import render_justification as oracle_render_justification
import lea.sweep
from lea.formula import And, Box, Ess, Iff, Implies, Not, Or, Var, is_ml, parse, render, substitute
from lea.hilbert import (
    EQUI_KW,
    KW_B,
    KW_CON,
    KW_EUC,
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
    render_justification,
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
        if not is_ml(f):
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
    assert report.answer is None
    assert (report.witness, report.reason) == (
        1, "tautology check over 21 atoms exceeds the limit of 20")


def test_gen_conj_accepted():
    for n in range(2, 7):
        d = gen_conj_derivation(n)
        report = check_derivation(d, System.K_CIRC)
        assert report.answer, (n, report.witness, report.reason)
        want = parse(
            " & ".join(f"o p{i}" for i in range(1, n + 1))
            + " -> o (" + " & ".join(f"p{i}" for i in range(1, n + 1)) + ")"
        )
        assert d.conclusion == want
        assert len(d.lines) == 1 + 4 * (n - 2) if n > 2 else True


def test_gen_conj_text_roundtrip():
    for n in range(2, 7):
        d = gen_conj_derivation(n)
        again = parse_derivation(render_derivation(d))
        assert again == d
        report = check_derivation(again, System.K_CIRC)
        assert report.answer
        assert again.conclusion == d.conclusion


def test_mutations_rejected():
    rng = random.Random(42)
    base = [gen_conj_derivation(n) for n in (3, 4, 5)]
    for _ in range(60):
        d = mutate_derivation(rng, rng.choice(base))
        assert not check_derivation(d, System.K_CIRC).answer


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
    assert report.answer
    assert d.premises() == (parse("o r"),)
    assert d.conclusion == parse("o r | o p")
    assert parse_derivation(render_derivation(d)) == d


def test_sub_rule():
    lines = (
        Line(1, parse("~p -> o p"), Axiom("EquiKw")),
        Line(2, parse("~(q & q) -> o (q & q)"), Sub(1, {"p": parse("q & q")})),
    )
    assert check_derivation(Derivation(lines), System.K_CIRC).answer
    assert parse_derivation(render_derivation(Derivation(lines))) == Derivation(lines)


@pytest.mark.parametrize(
    "lines,fragment",
    [
        ((Line(2, parse("o T"), Axiom("KwTop")),), "numbered"),
        ((Line(1, parse("o p"), Axiom("KwTop")),), "instantiate"),
        ((Line(1, parse("o T"), Axiom("Zap")),), "no axiom 'Zap'"),
        ((Line(1, parse("p -> p"), Taut()), Line(2, parse("q"), MP(1, 1))), "not (line 1) -> (this line)"),
        ((Line(1, parse("p -> p"), Taut()), Line(2, parse("p"), MP(1, 5))), "not strictly earlier"),
        ((Line(1, parse("p | ~p"), Taut()), Line(2, parse("o p & p -> o q"), R(1))), "not an implication"),
        ((Line(1, parse("p"), Taut()),), "not a propositional tautology"),
        ((Line(1, parse("[] p -> [] p"), Taut()),), "essence fragment"),
        ((), "empty derivation"),
        ((Line(1, parse("q -> q"), Sub(2, {"p": parse("q")})), Line(2, parse("p -> p"), Taut())),
         "not strictly earlier"),
        ((Line(1, parse("o p & p -> o p"), R(2)), Line(2, parse("p -> p"), Taut())),
         "not strictly earlier"),
        ((Line(1, parse("p -> p"), Taut()), Line(2, parse("q -> r"), Sub(1, {"p": parse("q")}))),
         "not line 1 under the given substitution"),
        ((Line(1, parse("p & q -> p"), Taut()), Line(2, parse("o (p & q) -> o p"), R(1))),
         "not the R image of line 1"),
    ],
)
def test_check_rejections(lines, fragment):
    report = check_derivation(Derivation(lines), System.K4_CIRC)
    assert report.answer is False
    assert fragment in report.reason, (report.witness, report.reason)


def test_parse_derivation_errors():
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. o T\n")  # missing justification
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. o T   [zap]\n")
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. o & T   [taut]\n")
    with pytest.raises(DerivationSyntaxError):
        parse_derivation("1. p   [mp one 2]\n")
    for just, message in (
        ("axiom KwTop KwCon", "axiom takes exactly one name"),
        ("axiom KwTop\tKwCon", "axiom takes exactly one name"),
        ("r", "r takes one line number"),
        ("sub", "sub takes a line number then bindings"),
        ("sub 1 p", "bad binding 'p'"),
        ("sub 1 p:=q,", "bad binding ''"),
        ("sub 1 p := q &", "bad binding formula"),
    ):
        with pytest.raises(DerivationSyntaxError, match=f"line 2: {message}"):
            parse_derivation(f"1. p -> p   [taut]\n2. p   [{just}]\n")


@pytest.mark.parametrize("just", ["mp\t1 3", "sub\t1 p:=q", "sub 1\tp:=q", "axiom\tKwTop"],
                         ids=["mp-head", "sub-head", "sub-number", "axiom-head"])
def test_justification_words_split_on_any_whitespace(just):
    def parsed(text: str):
        return parse_derivation(f"1. p   [{text}]").lines[0].just

    assert parsed(just) == parsed(just.replace("\t", " "))


def test_sub_without_bindings_round_trips():
    p = Var("p")
    d = Derivation((Line(1, Implies(p, p), Taut()), Line(2, Implies(p, p), Sub(1, {}))))
    text = render_derivation(d)
    assert text.endswith("[sub 1 ]")
    assert parse_derivation(text) == d
    assert check_derivation(d, System.K_CIRC).answer


@pytest.mark.parametrize(
    "text, message",
    [
        ("1. p -> p   [taut]\n2. p   [mp ² 1]\n", "line 2: mp takes two line numbers"),
        ("1. p -> p   [taut]\n2. o p & p -> o p   [r ³]\n", "line 2: r takes one line number"),
        ("1. p -> p   [taut]\n2. q -> q   [sub ² p:=q]\n", "line 2: sub takes a line number"),
        ("١. p -> p   [taut]\n", "line 1: expected `N. "),
    ],
    ids=["mp", "r", "sub", "line"],
)
def test_line_numbers_are_ascii_digits(text, message):
    with pytest.raises(DerivationSyntaxError, match=message):
        parse_derivation(text)


def test_parse_derivation_text_forms():
    text = """
1. o p & o q -> o (p & q)   [axiom KwCon]

2. o (r & r) & o q -> o ((r & r) & q)   [sub 1 p := r & r]
"""
    d = parse_derivation(text)
    assert len(d.lines) == 2
    assert check_derivation(d, System.K_CIRC).answer


def test_soundness_scan_clean():
    report = soundness_scan(System.K_CIRC, FrameClass.K, 2)
    assert report.answer is True
    assert not report.witness
    assert report.stats == {"frames": 18, "failures": 0}


def test_soundness_scan_catches_unsound_pairing():
    # the transitivity axiom is not valid over arbitrary frames
    report = soundness_scan(System.K4_CIRC, FrameClass.K, 3)
    assert report.answer is False
    model, name = report.witness[0]
    assert name == "KwTr"
    assert not valid_on_frame(model, KW_TR)


def test_soundness_scan_builds_one_model_per_failing_frame(monkeypatch):
    """A frame that fails several axioms is listed once per axiom, frame
    after frame in axiom order, with one shared model; each entry's axiom
    fails on it."""
    built = []
    real = lea.sweep.build_model

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(lea.sweep, "build_model", spy)
    report = soundness_scan(System.KB5_CIRC, FrameClass.K, 3)
    models = [model for model, _ in report.witness]
    assert [m for i, m in enumerate(models) if i == 0 or m is not models[i - 1]] == built
    assert len(report.witness) > len(built)
    order = [name for name, _ in System.KB5_CIRC.axioms]
    for model, name in report.witness:
        assert not valid_on_frame(model, System.KB5_CIRC.schema(name))
    for (m1, a), (m2, b) in zip(report.witness, report.witness[1:]):
        assert m1 is not m2 or order.index(a) < order.index(b)


def test_scan_failures_read_as_a_tuple_of_entries(monkeypatch):
    """Length, truth, indexing, slicing and iteration read the entries in
    order; a read of one entry builds only its frame's model."""
    built = []
    real = lea.sweep.build_model

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(lea.sweep, "build_model", spy)
    report = soundness_scan(System.KB5_CIRC, FrameClass.K, 3)
    assert built == []
    model, name = report.witness[-1]
    assert len(built) == 1
    entries = tuple(report.witness)
    assert len(report.witness) == len(entries) > 11 and bool(report.witness)
    assert entries[-1] == (model, name) and report.witness[-1][0] is model
    assert report.witness[:5] == entries[:5]
    assert report.witness[3:11:2] == entries[3:11:2]
    assert report.witness[::-1] == entries[::-1]
    assert list(reversed(report.witness)) == list(entries[::-1])
    with pytest.raises(IndexError):
        report.witness[len(entries)]


@pytest.mark.parametrize("system, failures", [(System.K_CIRC, 0), (System.KB5_CIRC, 4)])
def test_scans_of_one_input_are_equal(system, failures):
    """Two scans compare, hash and print alike by their entries, whether or
    not a model of a failure has been built."""
    a, b = (soundness_scan(system, FrameClass.K, 2) for _ in range(2))
    assert len(a.witness) == failures
    list(a.witness)
    assert a == b and a.witness == b.witness and hash(a) == hash(b)
    assert repr(a.witness) == repr(b.witness) == f"ScanFailures(entries={a.witness.entries!r})"
    assert a.stats == b.stats != soundness_scan(system, FrameClass.K, 1).stats


# ---------------------------------------------------------------------------
# The table-driven derivation format against the ladder oracle of helpers.

_DIFF_FORMULAS = [
    parse(t)
    for t in (
        "p", "q", "o r", "p -> q", "q -> o q", "p -> p", "p & q -> p",
        "o p -> o p", "(p -> q) -> ~q -> ~p", "o T", "~p -> o p",
        "o p & o q -> o (p & q)", "o p & p -> o o p", "[] p -> p",
        " | ".join(f"x{i}" for i in range(21)) + " | ~x0",
    )
]
_DIFF_BINDINGS = [
    "p:=q", "p := o r, q:=p & q", "q:=~p", "p", "p:=", ":=q", "p:=q &", "",
    "p:=q,,", "p:=o (q",
]
_AXIOM_NAMES = ["KwTop", "EquiKw", "KwCon", "KwTr", "KwB", "KwEuc", "Foo", "KwTop KwCon", ""]
_ODD_NUMBERS = ["0", "²", "١", "01", "x", "-1", "1.5", "９"]


def _diff_number(rng: random.Random, k: int) -> str:
    # Mostly an earlier line; sometimes this line, a later one or no number.
    roll = rng.random()
    if roll < 0.8 and k > 1:
        return str(rng.randrange(1, k))
    if roll < 0.9:
        return str(rng.choice([k, k + 1, k + 3]))
    return rng.choice(_ODD_NUMBERS)


def _diff_just(rng: random.Random, k: int, formulas: list) -> tuple[str, object]:
    """A justification text for line k and a formula it would justify."""
    heads = ["taut", "premise", "axiom", "mp", "sub", "r"]
    head = rng.choice(heads if rng.random() < 0.9 else ["zap", "MP", "taut x", "premise 1"])
    guess = rng.choice(_DIFF_FORMULAS)
    if head == "axiom":
        name = rng.choice(_AXIOM_NAMES)
        schema = dict(System.KB5_CIRC.axioms + System.K4_CIRC.axioms).get(name)
        if schema is not None and rng.random() < 0.6:
            guess = substitute(schema, {"p": rng.choice(_DIFF_FORMULAS[:4])})
        return f"axiom {name}", guess
    if head in ("mp", "r"):
        count = (1, 2)[head == "mp"]
        if rng.random() < 0.1:
            count += rng.choice([-1, 1])
        nums = [_diff_number(rng, k) for _ in range(count)]
        cited = [formulas[int(n) - 1] for n in nums if n.isascii() and n.isdigit()
                 and 0 < int(n) < k]
        fit = rng.random() < 0.7
        if fit and head == "mp" and len(cited) == 2 and isinstance(cited[1], Implies):
            guess = cited[1].right
        elif fit and head == "r" and cited and isinstance(cited[0], Implies):
            src = cited[0]
            guess = Implies(And(Ess(src.left), src.left), Ess(src.right))
        return " ".join([head, *nums]), guess
    if head == "sub":
        num = _diff_number(rng, k)
        bindings = rng.choice(_DIFF_BINDINGS)
        if num.isascii() and num.isdigit() and 0 < int(num) < k and rng.random() < 0.6:
            guess = substitute(formulas[int(num) - 1], {"p": parse("q & r")})
            bindings = "p:=q & r"
        return f"sub {num} {bindings}".rstrip(), guess
    return head, guess


def _diff_text(rng: random.Random) -> str:
    formulas: list = []
    rows = []
    for k in range(1, rng.randint(1, 5) + 1):
        just, f = _diff_just(rng, k, formulas)
        formulas.append(f)
        number = str(k) if rng.random() < 0.95 else rng.choice(["0", str(k + 1), "²"])
        body = render(f) if rng.random() < 0.97 else "o & T"
        sep = rng.choice(["   ", " ", "\t"])
        rows.append(f"{number}. {body}{sep}[{just}]" if rng.random() < 0.98 else f"{k} {body}")
        if rng.random() < 0.05:
            rows.append(rng.choice(["", "   "]))
    return "\n".join(rows)


def _same_outcome(text: str) -> int:
    """Compare parser, printer and checker with the oracle on one text;
    1 when it parsed, 0 when both rejected it with the same message."""
    try:
        want = oracle_parse_derivation(text)
    except DerivationSyntaxError as e:
        with pytest.raises(DerivationSyntaxError) as got:
            parse_derivation(text)
        assert str(got.value) == str(e), text
        return 0
    got = parse_derivation(text)
    assert got == want, text
    _same_checks(got)
    return 1


def _same_checks(d: Derivation) -> None:
    assert render_derivation(d) == oracle_render_derivation(d)
    for system in System:
        got, want = check_derivation(d, system), oracle_check_derivation(d, system)
        assert got == want, (system, d)


def test_derivation_format_matches_ladder_oracle():
    rng = random.Random(20261019)
    parsed = sum(_same_outcome(_diff_text(rng)) for _ in range(20_000))
    assert 5_000 < parsed < 15_000, parsed
    for n in range(2, 13):
        d = gen_conj_derivation(n)
        for case in (d, mutate_derivation(rng, d)):
            _same_checks(case)
            assert _same_outcome(render_derivation(case)) == 1
    odd = Derivation((Line(1, parse("p"), "premise"),))
    _same_checks(Derivation(()))
    assert check_derivation(odd, System.K_CIRC) == oracle_check_derivation(odd, System.K_CIRC)
    for render_one in (render_justification, oracle_render_justification):
        with pytest.raises(TypeError, match="unknown justification 'premise'"):
            render_one("premise")
