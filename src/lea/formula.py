"""Formula ASTs for the language of essence and accident, plus the box language.

Concrete syntax is stated once, in three tables: `_CONSTANT` (`T`, `F`),
`_PREFIX` (`~`, `o` for essence, `[]`, and the sugar `A` and `<>`) and
`_INFIX` (`&`, `|`, `->`, `<->` with their binding levels).  The tokenizer
with its keywords and identifier rule, the parser, the printer and the node
sets behind `children` and `rebuild` read them, so a new prefix operator is
one `_PREFIX` row.  A sugar row is a function: `A f` is parsed as `~o f` and
`<> f` as `~[] ~f`, so structural equality on the AST is equality up to
that desugaring, and with sugar on the printer writes back what it builds.

`children` and `rebuild` are the arity map, which every generic traversal
goes through: the ones here, schema matching and boolean abstraction in
`hilbert`, and the compiler of `sweep.Prog`.  The parser is one precedence
loop over the tables: the operands of a run of one infix operator hold only
operators that bind tighter, and the run is folded to the right for -> and
<->, to the left for & and |.  Each connective's meaning is stated in two
places of its own: `sweep._BOOLEAN`, the truth table of the one evaluator
behind truth on a model and every frame sweep, and `decide._Nnf`, which
rewrites each connective into negation normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import islice
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


# ---------------------------------------------------------------------------
# Concrete syntax: each token is spelled once, in one of these three tables.

# Constants: token -> node type.
_CONSTANT = {"T": Top, "F": Bot}

# Prefix operators: token -> node builder.  A node type is a connective of
# its own; a function is sugar, desugared at parse time (`A` and `<>`).
_PREFIX = {"~": Not, "o": Ess, "A": Acc, "[]": Box, "<>": Dia}

# Binding strength; higher binds tighter.  <-> sits below -> on a level of
# its own, | below &, and the prefix operators bind tightest of all.
_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY, _LEVEL_ATOM = range(1, 7)

# Infix operators: symbol -> (node type, level).  -> and <-> nest to the
# right, & and | to the left.
_INFIX = {"&": (And, _LEVEL_AND), "|": (Or, _LEVEL_OR),
          "->": (Implies, _LEVEL_IMP), "<->": (Iff, _LEVEL_IFF)}

# The node types with one subformula and with two.
_UNARY = tuple(build for build in _PREFIX.values() if isinstance(build, type))
_BINARY = tuple(build for build, _ in _INFIX.values())


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of f, left to right; () for a leaf."""
    if isinstance(f, _UNARY):
        return (f.sub,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    return ()


def rebuild(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """f with fn applied to each direct subformula, left to right; a leaf
    comes back unchanged."""
    if isinstance(f, _UNARY):
        return type(f)(fn(f.sub))
    if isinstance(f, _BINARY):
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
# Parsing


class ParseError(Exception):
    """Syntax error with the character offset and the tokens that were expected."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {' or '.join(expected)}, found {found}")


_UNARY_STARTERS = (*_PREFIX, *_CONSTANT, "identifier", "(")

# Every token in table order, and the symbols among them longest first (<-> before <>).
_TOKENS = dict.fromkeys((*_PREFIX, *_CONSTANT, *_INFIX, "(", ")"))
_SYMBOLS = sorted((t for t in _TOKENS if not t.isalnum()), key=len, reverse=True)
# Whitespace (\s is str.isspace), then a symbol, else a run of str.isalnum
# characters (\w less "_"), else any other character.
_TOKEN = re.compile("(\\s*)(%s|[^\\W_]+|\\S)" % "|".join(map(re.escape, _SYMBOLS)))
# A longer symbol's first character without the rest: the symbols it starts,
# and how much text the error shows (- alone, < and [ with the next character).
_BROKEN = {s[0]: (tuple(t for t in _SYMBOLS if t[0] == s[0]), 1 if s[0] == "-" else 2)
           for s in _SYMBOLS if len(s) > 1}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, then ("eof", "", len(text)); kind is ident or the token."""
    tokens = []
    i = 0
    for space, token in _TOKEN.findall(text):
        i += len(space)
        if token in _TOKENS:
            tokens.append((token, token, i))
        elif token[0].isalpha():  # an identifier: lower-case, and no one-letter keyword first
            if not token[0].islower() or token[0] in _TOKENS:
                raise ParseError(i, ("identifier",), repr(token))
            tokens.append(("ident", token, i))
        elif token in _BROKEN:
            expected, shown = _BROKEN[token]
            raise ParseError(i, expected, repr(text[i : i + shown]))
        else:
            raise ParseError(i, _UNARY_STARTERS, repr(token[0]))
        i += len(token)
    tokens.append(("eof", "", len(text)))
    return tokens


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula.

    Raises ParseError (carrying a character offset and the expected tokens) on
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
        if kind in _CONSTANT:
            return _CONSTANT[kind]()
        if kind == "ident":
            return Var(word)
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

# Infix node type -> (symbol, level); prefix or constant builder -> text, with
# ~ alone glued to its operand; sugar -> the operand's place in what it builds.
_SYMBOL_LEVEL = {build: (symbol, level) for symbol, (build, level) in _INFIX.items()}
_TEXT = {build: token if token == "~" else token + " " for token, build in _PREFIX.items()}
_TEXT |= {build: token for token, build in _CONSTANT.items()}
_HOLE = Formula()
_SUGAR = {build: list(subformulas(build(_HOLE))).index(_HOLE)
          for build in _PREFIX.values() if build not in _UNARY}


def render(f: Formula, sugar: bool = False) -> str:
    """Concrete syntax for f with minimal parentheses.

    With sugar=True the patterns ~o g and ~[] ~g print as `A g` and `<> g`.
    Either way the output parses back to a formula structurally equal to f.
    """
    return _render(f, 0, sugar)


def _render(f: Formula, min_level: int, sugar: bool) -> str:
    text, level = _render_top(f, sugar)
    return "(" + text + ")" if level < min_level else text


def _render_top(f: Formula, sugar: bool) -> tuple[str, int]:
    for build, place in _SUGAR.items() if sugar else ():
        # f is build(g) for some g only if g is at that place in f, parents first.
        g = next(islice(subformulas(f), place, None), None)
        if g is not None and build(g) == f:
            return _TEXT[build] + _render(g, _LEVEL_UNARY, sugar), _LEVEL_UNARY
    infix = _SYMBOL_LEVEL.get(type(f))
    if infix is not None:
        symbol, level = infix
        left, right = children(f)
        # Only the side an operator nests on may hold its level unbracketed.
        left_min, right_min = (level + 1, level) if level <= _LEVEL_IMP else (level, level + 1)
        left_text, right_text = _render(left, left_min, sugar), _render(right, right_min, sugar)
        return f"{left_text} {symbol} {right_text}", level
    if isinstance(f, _UNARY):
        return _TEXT[type(f)] + _render(f.sub, _LEVEL_UNARY, sugar), _LEVEL_UNARY
    text = f.name if isinstance(f, Var) else _TEXT.get(type(f))
    if text is None:
        raise TypeError(f"not a formula: {f!r}")
    return text, _LEVEL_ATOM


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
