"""Formula ASTs for the language of essence and accident, plus the box language.

The essence operator is written `o` in concrete syntax.  `A` (accident) and
`<>` (diamond) are surface sugar and are desugared at parse time: `A f`
becomes `~o f` and `<> f` becomes `~[] ~f`.  Structural equality on the AST
is therefore equality up to that desugaring.

Each connective's shape is stated once, in this module.  `children` and
`rebuild` are the arity map, which every generic traversal goes through:
the ones here, schema matching and boolean abstraction in `hilbert`, and
the compiler of `sweep.Prog`.  Only code that treats one connective
specially, such as the printer's sugar or the `o` and `[]` cases of the
translations, reads its fields by name.  `_PREFIX` maps each prefix token
to the node it builds, and `_INFIX` maps each infix symbol to its node type
and binding level; the printer reads the same table by node type.  The
parser is one precedence loop over the two tables: the operands of a run
of one infix operator hold only operators that bind tighter, and the run
is folded to the right for -> and <->, to the left for & and |.  Two
places state each connective's meaning on their own instead.
`sweep._BOOLEAN` is the truth table of the one evaluator, `sweep.Prog`,
behind truth on a model and every frame sweep, and `decide._Nnf` rewrites
each connective into negation normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Mapping


class Formula:
    """Base class for all formula nodes."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Ess(Formula):
    """Essence: true at s when truth of the body at s forces it at all successors."""

    sub: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


def Acc(f: Formula) -> Formula:
    """Accident, sugar for ~o f."""
    return Not(Ess(f))


def Dia(f: Formula) -> Formula:
    """Diamond, sugar for ~[] ~f."""
    return Not(Box(Not(f)))


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of f, left to right; () for a leaf."""
    if isinstance(f, (Not, Ess, Box)):
        return (f.sub,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    return ()


def rebuild(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """f with fn applied to each direct subformula, left to right; a leaf
    comes back unchanged."""
    if isinstance(f, (Not, Ess, Box)):
        return type(f)(fn(f.sub))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(fn(f.left), fn(f.right))
    return f


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield every subformula of f, including f itself, parents first."""
    yield f
    for g in children(f):
        yield from subformulas(g)


def variables(f: Formula) -> frozenset[str]:
    """Set of propositional variable names occurring in f."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of o/[] operators."""
    depth = 0
    for g in children(f):
        depth = max(depth, modal_depth(g))
    return depth + 1 if isinstance(f, (Ess, Box)) else depth


def is_lea(f: Formula) -> bool:
    """True when f avoids [] entirely (the essence-only fragment)."""
    return not any(isinstance(g, Box) for g in subformulas(f))


def is_ml(f: Formula) -> bool:
    """True when f avoids o entirely (the box-only fragment)."""
    return not any(isinstance(g, Ess) for g in subformulas(f))


# ---------------------------------------------------------------------------
# Operator tables, shared by the parser and the printer

# Prefix operators: token -> node builder.  Acc and Dia desugar `A` and `<>`.
_PREFIX = {"~": Not, "o": Ess, "A": Acc, "[]": Box, "<>": Dia}

# Binding strength; higher binds tighter.  <-> sits below -> (the grammar
# treats them as separate levels), | below &, and the prefix operators
# tightest of all.
_LEVEL_IFF = 1
_LEVEL_IMP = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UNARY = 5
_LEVEL_ATOM = 6

# Infix operators: symbol -> (node type, level).  -> and <-> nest to the
# right, & and | to the left.
_INFIX = {"&": (And, _LEVEL_AND), "|": (Or, _LEVEL_OR),
          "->": (Implies, _LEVEL_IMP), "<->": (Iff, _LEVEL_IFF)}
# The printer's view of the same table: node type -> (symbol, level).
_SYMBOL_LEVEL = {build: (symbol, level) for symbol, (build, level) in _INFIX.items()}


# ---------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    """Syntax error with the byte offset and the tokens that were expected."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"at offset {offset}: expected {' or '.join(expected)}, found {found}"
        )


_UNARY_STARTERS = ("~", "o", "A", "[]", "<>", "T", "F", "identifier", "(")

# Symbol tokens by first character, longest first.
_SYMBOLS = {c: (c,) for c in "()&|~"} | {"-": ("->",), "<": ("<->", "<>"), "[": ("[]",)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) for each token, ending with ("eof", "", len(text)).
    kind is the symbol itself, T, F, A, o or ident."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            for symbol in _SYMBOLS[c]:
                if text.startswith(symbol, i):
                    break
            else:  # a stray "-" is shown alone, "<" and "[" with what follows
                raise ParseError(i, _SYMBOLS[c], repr(c if c == "-" else text[i : i + 2]))
            tokens.append((symbol, symbol, i))
            i += len(symbol)
        elif c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word in ("T", "F", "A", "o"):
                tokens.append((word, word, i))
            elif word[0].islower() and word[0] != "o":
                tokens.append(("ident", word, i))
            else:
                raise ParseError(i, ("identifier",), repr(word))
            i = j
        else:
            raise ParseError(i, _UNARY_STARTERS, repr(c))
    tokens.append(("eof", "", n))
    return tokens


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula.

    Raises ParseError (carrying a byte offset and the expected tokens) on
    malformed input.
    """
    tokens = _tokenize(text)
    pos = 0

    def infix(min_level: int) -> Formula:
        """A formula whose infix operators bind at min_level or tighter.  A
        run of one operator is read in a loop, so a long chain nests no
        calls."""
        nonlocal pos
        f = prefix()
        while (op := _INFIX.get(tokens[pos][0])) is not None and op[1] >= min_level:
            build, level = op
            symbol = tokens[pos][0]
            parts = [f]
            while tokens[pos][0] == symbol:
                pos += 1
                parts.append(infix(level + 1))
            if level <= _LEVEL_IMP:
                f = reduce(lambda right, left: build(left, right), reversed(parts))
            else:
                f = reduce(build, parts)
        return f

    def prefix() -> Formula:
        nonlocal pos
        kind, word, offset = tokens[pos]
        pos += 1
        build = _PREFIX.get(kind)
        if build is not None:
            return build(prefix())
        if kind == "ident":
            return Var(word)
        if kind == "T":
            return Top()
        if kind == "F":
            return Bot()
        if kind == "(":
            f = infix(_LEVEL_IFF)
            kind, word, offset = tokens[pos]
            pos += 1
            if kind != ")":
                raise ParseError(offset, (")",), word or "end of input")
            return f
        raise ParseError(offset, _UNARY_STARTERS, word or "end of input")

    f = infix(_LEVEL_IFF)
    kind, word, offset = tokens[pos]
    if kind != "eof":
        raise ParseError(offset, ("end of input",), word)
    return f


# ---------------------------------------------------------------------------
# Rendering


def render(f: Formula, sugar: bool = False) -> str:
    """Concrete syntax for f with minimal parentheses.

    With sugar=True the patterns ~o g and ~[] ~g print as `A g` and `<> g`.
    Either way the output parses back to a formula structurally equal to f.
    """
    return _render(f, 0, sugar)


def _render(f: Formula, min_level: int, sugar: bool) -> str:
    text, level = _render_top(f, sugar)
    if level < min_level:
        return "(" + text + ")"
    return text


def _render_top(f: Formula, sugar: bool) -> tuple[str, int]:
    infix = _SYMBOL_LEVEL.get(type(f))
    if infix is not None:
        symbol, level = infix
        left, right = children(f)
        # Only the side an operator nests on may hold its level unbracketed.
        left_min, right_min = (level + 1, level) if level <= _LEVEL_IMP else (level, level + 1)
        left_text, right_text = _render(left, left_min, sugar), _render(right, right_min, sugar)
        return f"{left_text} {symbol} {right_text}", level
    if isinstance(f, Var):
        return f.name, _LEVEL_ATOM
    if isinstance(f, Top):
        return "T", _LEVEL_ATOM
    if isinstance(f, Bot):
        return "F", _LEVEL_ATOM
    if isinstance(f, Not):
        if sugar and isinstance(f.sub, Ess):
            return "A " + _render(f.sub.sub, _LEVEL_UNARY, sugar), _LEVEL_UNARY
        if sugar and isinstance(f.sub, Box) and isinstance(f.sub.sub, Not):
            return "<> " + _render(f.sub.sub.sub, _LEVEL_UNARY, sugar), _LEVEL_UNARY
        return "~" + _render(f.sub, _LEVEL_UNARY, sugar), _LEVEL_UNARY
    if isinstance(f, Ess):
        return "o " + _render(f.sub, _LEVEL_UNARY, sugar), _LEVEL_UNARY
    if isinstance(f, Box):
        return "[] " + _render(f.sub, _LEVEL_UNARY, sugar), _LEVEL_UNARY
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Substitution and translations


def substitute(f: Formula, sub: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace variables by formulas."""

    def go(g: Formula) -> Formula:
        if isinstance(g, Var):
            return sub.get(g.name, g)
        return rebuild(g, go)

    return go(f)


def to_ml(f: Formula) -> Formula:
    """Translate an essence formula into the box language.

    o g maps to t(g) -> [] t(g); boolean structure is kept.  The result is
    true at exactly the same points of any model as f.  Rejects input that
    already contains [].
    """
    if isinstance(f, Box):
        raise ValueError(f"not an essence-language formula: contains {render(f)}")
    if isinstance(f, Ess):
        g = to_ml(f.sub)
        return Implies(g, Box(g))
    return rebuild(f, to_ml)


def to_lea(f: Formula) -> Formula:
    """Translate a box formula into the essence language.

    [] g maps to o t(g) & t(g).  Truth is preserved on reflexive models
    only; on arbitrary models the two sides can diverge.  Rejects input
    that already contains o.
    """
    if isinstance(f, Ess):
        raise ValueError(f"not a box-language formula: contains {render(f)}")
    if isinstance(f, Box):
        g = to_lea(f.sub)
        return And(Ess(g), g)
    return rebuild(f, to_lea)
