import contextlib
import os
import pickle
import random
import subprocess
import sys

import pytest

from helpers import (
    oracle_render,
    oracle_tokenize,
    rand_formula,
    recursive_modal_depth,
    recursive_parse,
    recursive_substitute,
    recursive_to_lea,
    recursive_to_ml,
)
from lea import decide
from lea import formula as formula_module
from lea.formula import (
    Acc,
    And,
    Bot,
    Box,
    Dia,
    Ess,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    _tokenize,
    children,
    is_lea,
    is_ml,
    modal_depth,
    parse,
    rebuild,
    render,
    postorder,
    subformulas,
    substitute,
    to_lea,
    to_ml,
    tree_size,
    variables,
)
from lea.hilbert import is_tautology, match_schema
from lea.kripke import FrameClass, Model
from lea.semantics import extension, satisfies
from lea.sweep import Prog

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_precedence():
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))
    assert parse("p <-> q -> r") == Iff(p, Implies(q, r))
    assert parse("~p & q") == And(Not(p), q)
    assert parse("o p & q") == And(Ess(p), q)
    assert parse("p & q & r") == And(And(p, q), r)
    s, t = Var("s"), Var("t")
    assert parse("p -> q & r -> s") == Implies(p, Implies(And(q, r), s))
    assert parse("p & q -> r | s <-> t") == Iff(Implies(And(p, q), Or(r, s)), t)
    assert parse("p | q | r") == Or(Or(p, q), r)
    assert parse("p -> q <-> r -> s") == Iff(Implies(p, q), Implies(r, s))
    assert parse("p | q & r | s") == Or(Or(p, And(q, r)), s)
    assert parse("p <-> q | r <-> s & t") == Iff(p, Iff(Or(q, r), And(s, t)))


def test_parse_modalities_and_sugar():
    assert parse("o ~ p") == Ess(Not(p))
    assert parse("[] p") == Box(p)
    assert parse("A p") == Not(Ess(p))
    assert parse("<> p") == Not(Box(Not(p)))
    assert parse("A p & <> q") == And(Acc(p), Dia(q))
    assert parse("o o p") == Ess(Ess(p))


def test_parse_constants_and_parens():
    assert parse("T") == Top()
    assert parse("F") == Bot()
    assert parse("(p | q) & r") == And(Or(p, q), r)
    assert parse("  p   ") == p


@pytest.mark.parametrize(
    "text,offset,fragment",
    [
        ("p q", 2, "expected end of input"),
        ("(p", 2, "expected )"),
        ("", 0, "found end of input"),
        ("p &", 3, "found end of input"),
        ("p & & q", 4, "found &"),
        ("p q $", 4, "found '$'"),
        ("p - q", 2, "expected ->, found '-'"),
        ("p < q", 2, "expected <-> or <>, found '< '"),
        ("p [ q", 2, "expected [], found '[ '"),
        ("Foo", 0, "expected identifier, found 'Foo'"),
        ("²", 0, "found '²'"),
        ("(p))", 3, "expected end of input, found )"),
    ],
)
def test_parse_error_offsets(text, offset, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert fragment in str(exc.value)


def test_reserved_names_rejected():
    # Identifiers may not start with the essence symbol or an uppercase
    # letter other than the constants.
    for text in ("op", "oak & p", "Foo", "Tx"):
        with pytest.raises(ParseError):
            parse(text)
    assert parse("q2 & pot") == And(Var("q2"), Var("pot"))


def test_render_minimal_parens():
    assert render(Or(And(p, q), r)) == "p & q | r"
    assert render(And(p, Or(q, r))) == "p & (q | r)"
    assert render(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert render(Ess(And(p, q))) == "o (p & q)"
    assert render(Not(Not(p))) == "~~p"


def test_render_sugar():
    assert render(Not(Ess(p)), sugar=True) == "A p"
    assert render(Not(Box(Not(p))), sugar=True) == "<> p"
    assert render(Not(Ess(p))) == "~o p"


def test_roundtrip_random():
    rng = random.Random(1311)
    for _ in range(1000):
        f = rand_formula(rng, rng.randint(0, 6), names=("p", "q", "r2"), lang="mixed")
        assert parse(render(f)) == f
        assert parse(render(f, sugar=True)) == f


def test_substitute_simultaneous():
    f = parse("p & q -> o p")
    swapped = substitute(f, {"p": q, "q": p})
    assert swapped == parse("q & p -> o q")
    # q must not be rewritten again after landing in p's position
    g = substitute(parse("p"), {"p": q, "q": r})
    assert g == q


def test_subformulas_and_depth():
    f = parse("o (p & [] q)")
    assert Var("q") in subformulas(f)
    assert Box(q) in subformulas(f)
    assert modal_depth(f) == 2
    assert modal_depth(p) == 0
    assert variables(f) == {"p", "q"}


def test_translation_goldens():
    assert render(to_ml(parse("o o p"))) == "(p -> [] p) -> [] (p -> [] p)"
    assert render(to_lea(parse("[] [] p"))) == "o (o p & p) & (o p & p)"
    assert to_ml(parse("o p")) == parse("p -> [] p")
    assert to_lea(parse("[] p")) == parse("o p & p")
    # to_ml(o^k p) shares each level's translation between its two uses:
    # 2k + 1 distinct nodes but 2^k paths to p, which Prog compiles once.
    # The formulas stay out of the asserts: printing one walks every path.
    towers = {0: p}
    for k in range(1, 201):
        towers[k] = Ess(towers[k - 1])
    ops = len(Prog(to_ml(towers[200])).ops)
    assert ops == 401
    m = Model.make(("s", "t", "u"), [("s", "t"), ("t", "u"), ("u", "s")], {"p": ("s", "t")})
    via_ml, direct = extension(m, to_ml(towers[30])), extension(m, towers[30])
    assert via_ml == direct == {"s", "t"}


def test_translation_fragments():
    with pytest.raises(ValueError):
        to_ml(parse("[] p"))
    with pytest.raises(ValueError):
        to_lea(parse("o p"))
    rng = random.Random(77)
    for _ in range(200):
        f = rand_formula(rng, 3, lang="lea")
        assert is_ml(to_ml(f))
        g = rand_formula(rng, 3, lang="ml")
        assert is_lea(to_lea(g))


def test_translation_preserves_depth():
    rng = random.Random(78)
    for _ in range(200):
        f = rand_formula(rng, 3, lang="lea")
        assert modal_depth(to_ml(f)) == modal_depth(f)
        g = rand_formula(rng, 3, lang="ml")
        assert modal_depth(to_lea(g)) == modal_depth(g)


def _node_types() -> list[type]:
    """Every concrete Formula subclass defined in lea.formula."""
    return [
        c
        for c in vars(formula_module).values()
        if isinstance(c, type) and issubclass(c, Formula) and c is not Formula
    ]


def _arity(cls: type) -> int:
    return sum(field != "name" for field in cls.__slots__)


def _node(cls: type, kids) -> Formula:
    """An instance of cls whose declared fields (its __slots__) take kids in
    order, but for a variable's name, which takes "p"."""
    kids = iter(kids)
    return cls(*(next(kids) if field != "name" else "p" for field in cls.__slots__))


def test_connective_tables_cover_every_node_type():
    # A node type missing from the arity map, the parser or printer tables,
    # or Prog's truth table fails here.  Every type is nested in every other,
    # so each pair of binding levels meets once.
    types = _node_types()
    assert {Var, Top, Bot, Not, Ess, Box, And, Or, Implies, Iff} <= set(types)
    for outer in types:
        for inner in types:
            kids = [_node(inner, [Var(x)] * _arity(inner)) for x in ("q", "r")]
            kids = kids[: _arity(outer)]
            f = _node(outer, kids)
            assert children(f) == tuple(kids)
            assert len(children(f)) == _arity(outer)
            assert rebuild(f, lambda g: g) == f
            assert children(rebuild(f, lambda g: Top())) == (Top(),) * _arity(outer)
            for sugar in (False, True):
                assert parse(render(f, sugar=sugar)) == f, (f, sugar)
            prog = Prog(f)
            assert len(prog.ops) == len(set(subformulas(f)))
            if outer is not Var:
                assert len(prog.ops[prog.root]) == 1 + _arity(outer)
    for bad in (object(), And(Var("p"), object())):
        with pytest.raises(TypeError):
            render(bad)
        with pytest.raises(TypeError):
            Prog(bad)


# ---------------------------------------------------------------------------
# The tokenizer and the printer read three token tables; the oracles in
# helpers spell each token where it is used, as lea.formula once did.


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as e:
        return ("error", e.offset, e.expected, e.found, str(e))


def _same_tokens(text: str) -> bool:
    """True when text tokenizes; an error must match the oracle's in full."""
    got = _tokens_or_error(_tokenize, text)
    assert got == _tokens_or_error(oracle_tokenize, text), ascii(text)
    return got[0] != "error"


# Every token, its broken-off first characters, letters that are not all
# identifier starts, digits that are not ASCII, combining marks (U+0345 is
# islower() but not isalpha()), whitespace that is not ASCII, "_" and the
# Greek omicron.
_ALPHABET = [
    "~", "o", "A", "[]", "<>", "T", "F", "&", "|", "->", "<->", "(", ")",
    "-", "<", "[", "]", ">", "p", "q2", "x", "oa", "To", "\u03bf", "\u00e9", "\u00b2",
    "\u00bd", "\u0301", "\u0345", "\u00a0", "\u001c", "_", " ", "\t", "\n",
]


def test_tokenizer_matches_oracle_on_random_strings():
    rng = random.Random(20261020)
    ok = sum(_same_tokens("".join(rng.choices(_ALPHABET, k=rng.randint(0, 8))))
             for _ in range(200_000))
    assert 10_000 < ok < 190_000, ok


def test_tokenizer_matches_oracle_on_every_code_point():
    predicates = (str.isspace, str.isalpha, str.isalnum, str.islower, str.isupper,
                  str.isdecimal, str.isdigit, str.isnumeric)
    classes = {}
    for c in map(chr, range(sys.maxunicode + 1)):
        _same_tokens(f"a{c}b")
        classes.setdefault(tuple(pred(c) for pred in predicates), c)
    assert len(classes) >= 13, classes
    for c in classes.values():
        for text in (c, c + "p", "p" + c, c + c):
            _same_tokens(text)


def _sugared_formula(rng: random.Random, depth: int) -> Formula:
    """A random formula over every node type, with both sugars' shapes common."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([p, q, Top(), Bot()])
    build = rng.choice([Not, Ess, Box, Acc, Dia, And, Or, Implies, Iff])
    if build in (And, Or, Implies, Iff):
        return build(_sugared_formula(rng, depth - 1), _sugared_formula(rng, depth - 1))
    return build(_sugared_formula(rng, depth - 1))


def test_printer_matches_oracle():
    rng = random.Random(20261021)
    for _ in range(20_000):
        f = _sugared_formula(rng, 5)
        for sugar in (False, True):
            assert render(f, sugar=sugar) == oracle_render(f, sugar), (f, sugar)


# ---------------------------------------------------------------------------
# Every walk keeps an explicit stack; the recursive walks it replaced are the
# oracles in helpers.

KW_CON = parse("o p & o q -> o (p & q)")


def _seeded_formulas(seed: int):
    """Random formulas of each language, and shapes that share subterms, so
    the walks meet DAGs as well as trees."""
    rng = random.Random(seed)
    for i in range(300):
        for lang in ("lea", "ml", "mixed"):
            f = rand_formula(rng, 1 + i % 6, names=("p", "q", "r"), lang=lang)
            g = rand_formula(rng, 3, lang=lang)
            yield f
            yield Iff(g, Or(g, Not(f)))
            yield substitute(KW_CON if lang != "ml" else to_ml(KW_CON), {"p": f, "q": g})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ParseError) as e:
        return type(e).__name__, str(e)


def test_walks_match_recursive_oracles():
    for f in _seeded_formulas(2026):
        for sugar in (False, True):
            text = render(f, sugar=sugar)
            assert parse(text) == recursive_parse(text) == f, text
        assert modal_depth(f) == recursive_modal_depth(f)
        sub = {"p": Not(f), "q": Ess(Var("p"))}
        assert substitute(f, sub) == recursive_substitute(f, sub)
        assert _outcome(to_ml, f) == _outcome(recursive_to_ml, f)
        assert _outcome(to_lea, f) == _outcome(recursive_to_lea, f)
        assert tree_size(f) == len(render(f).replace(" ", "").replace("(", "").replace(")", "")
                                   .replace("<->", "=").replace("->", "=").replace("[]", "="))
        order = list(postorder(f))
        place = {id(g): i for i, g in enumerate(order)}
        assert len(place) == len(order) == len({id(g) for g in subformulas(f)})
        assert all(place[id(c)] < place[id(g)] for g in order for c in children(g))


_PARSER_ALPHABET = ["~", "o ", "A ", "[]", "<>", "T", "F", "&", "|", "->", "<->",
                    "(", "(", ")", ")", "p", "q", " "]


def test_parse_errors_match_recursive_oracle():
    rng = random.Random(20261022)
    parsed = 0
    for _ in range(50_000):
        text = "".join(rng.choices(_PARSER_ALPHABET, k=rng.randint(0, 12)))
        got = _outcome(parse, text)
        assert got == _outcome(recursive_parse, text), text
        parsed += isinstance(got, Formula)
    assert 1_000 < parsed < 49_000, parsed


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_no_formula_walk_recurses():
    # Every walk of the library over formulas 10^4 connectives deep, with
    # only 100 frames to spare above this one.
    n = 10_000
    texts = ["~" * n + "p", "(" * n + "p" + ")" * n, "[] " * n + "p", "o " * n + "p",
             "p -> " * n + "p", "A " * n + "<> p", "p & " * n + "p"]
    m = Model.make(("s", "t"), [("s", "t")], {"p": ("s",)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    try:
        for text in texts:
            f = parse(text)
            assert f == parse(text) and hash(f) == hash(parse(text))
            assert parse(render(f)) == f and parse(render(f, sugar=True)) == f
            assert repr(f) == f"parse({str(f)!r})" and tree_size(f) <= 3 * n
            assert len(list(subformulas(f))) == len(list(postorder(f))) <= 3 * n
            assert variables(f) == {"p"} and modal_depth(f) <= n + 1
            assert is_lea(f) or is_ml(f) or text.startswith("A")
            assert substitute(f, {"p": Var("q")}) == parse(text.replace("p", "q"))
            assert match_schema(f, f) == {} and match_schema(Var("x"), f) == {"x": f}
            satisfies(m, "s", f)
            Prog(f)
            # The tableau makes a world per diamond, and its NNF splices each
            # ~o into the next: the A chain costs time, not depth, there.
            if not text.startswith("A"):
                with contextlib.suppress(decide.DecideError):  # the budget, not the depth
                    decide.satisfiable(f, FrameClass.K)
            if is_lea(f):
                assert satisfies(m, "t", to_ml(f)) == satisfies(m, "t", f)
            if is_ml(f):
                to_lea(f)
        assert is_tautology(parse("p -> " * n + "p"))
    finally:
        sys.setrecursionlimit(limit)


def test_deep_formulas_hash_and_compare():
    # Two formulas 10^5 connectives deep, built apart, hash and compare
    # without recursion.
    a, b, c = Var("p"), Var("p"), Var("q")
    for _ in range(50_000):
        a, b, c = Box(Not(a)), Box(Not(b)), Box(Not(c))
    assert a is not b and hash(a) == hash(b) and a == b
    assert a != c and And(a, c) != And(a, b)


def test_pickled_formulas_hash_in_the_reading_process():
    # A node stores its hash, and hashes of names and types differ between
    # processes, so a pickle read elsewhere must hash as that process does.
    f = parse("o (p & ~q) -> [] T | r")
    code = ("import pickle, sys; from lea.formula import parse; f = pickle.loads(sys.stdin.buffer.read()); "
            "g = parse('o (p & ~q) -> [] T | r'); print(hash(f) == hash(g) and f == g and {f: 1}[g])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(formula_module.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="7")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(f), env=env,
                         capture_output=True, timeout=60)
    assert out.stdout.decode().strip() == "1", out.stderr.decode()
