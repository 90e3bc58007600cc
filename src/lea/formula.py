"""Formula ASTs for the language of essence and accident, plus the box language.

Concrete syntax is stated once, in three tables: `_CONSTANT` (`T`, `F`),
`_PREFIX` (`~`, `o` for essence, `[]`, and the sugar `A` and `<>`) and
`_INFIX` (`&`, `|`, `->`, `<->` with their binding levels).  The tokenizer
with its keywords and identifier rule, the parser, the printer and the node
sets behind `children` and `rebuild` read them, so a new prefix operator is
one `_PREFIX` row.  A sugar row is a function: `A f` is parsed as `~o f` and
`<> f` as `~[] ~f`, so structural equality on the AST is equality up to
that desugaring, and with sugar on the printer writes back what it builds.

Each node type is one `_node_type` row naming its fields, which are its
`__slots__`.  A node stores its hash when it is built, from its children's,
and equality compares identity, then the hash, then the structure; nodes
are not interned.  `children` and `rebuild` are the arity map, which every generic
traversal goes through: the ones here, schema matching and boolean
abstraction in `hilbert`, and the compiler of `sweep.Prog`.  No walk
recurses, so no nesting depth meets the recursion limit.  `postorder` visits
each distinct node once, children first, so every walk that computes a value
per node costs a formula's size as a DAG, not as a tree.  The parser is one
loop over the tokens with a stack of what is still open: the operands of a
run of one infix operator hold only operators that bind tighter, and the run
is folded to the right for -> and <->, to the left for & and |.
Each connective's meaning is stated in two places of its own:
`sweep._BOOLEAN`, the truth table of the one evaluator behind truth on a
model and every frame sweep, and `decide._Nnf`, which rewrites each
connective into negation normal form.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import islice
from typing import Callable, Iterator, Mapping


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ("_hash",)

    def __str__(self) -> str:
        return render(self)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        try:
            while pairs:
                a, b = pairs.pop()
                if a is b:
                    continue
                kind = type(a)
                if kind is not type(b) or a._hash != b._hash:
                    return False
                if kind in _BINARY:
                    pairs += ((a.left, b.left), (a.right, b.right))
                elif kind in _UNARY:
                    pairs.append((a.sub, b.sub))
                elif kind is Var and a.name != b.name:
                    return False
        except AttributeError:  # a field that is not a formula
            return False
        return True

    def __repr__(self) -> str:
        return f"parse({render(self)!r})"

    def __reduce__(self) -> tuple:
        # Copies and pickles are built anew, so that the hash they store is
        # this process's: string and type hashes differ between processes.
        return type(self), tuple(getattr(self, field) for field in self.__slots__)


# Constructors by fields: each stores the hash, from the fields' own.
def _leaf(self) -> None:
    self._hash = hash(type(self))


def _var(self, name: str) -> None:
    self.name = name
    self._hash = hash((type(self), name))


def _unary(self, sub: Formula) -> None:
    self.sub = sub
    self._hash = hash((type(self), sub))


def _binary(self, left: Formula, right: Formula) -> None:
    self.left = left
    self.right = right
    self._hash = hash((type(self), left, right))


_INIT = {(): _leaf, ("name",): _var, ("sub",): _unary, ("left", "right"): _binary}


def _node_type(name: str, fields: tuple[str, ...], doc: str | None = None) -> type:
    """A node type: its fields are its __slots__, and they pick its constructor."""
    return type(name, (Formula,), {"__slots__": fields, "__init__": _INIT[fields],
                                   "__doc__": doc, "__module__": __name__})


Var = _node_type("Var", ("name",))
Top = _node_type("Top", ())
Bot = _node_type("Bot", ())
Not = _node_type("Not", ("sub",))
Ess = _node_type("Ess", ("sub",), "Essence: true at s when truth of the body at s forces "
                 "it at all successors.")
Box = _node_type("Box", ("sub",))
And = _node_type("And", ("left", "right"))
Or = _node_type("Or", ("left", "right"))
Implies = _node_type("Implies", ("left", "right"))
Iff = _node_type("Iff", ("left", "right"))


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
_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = range(1, 6)

# Infix operators: symbol -> (node type, level).  -> and <-> nest to the
# right, & and | to the left.
_INFIX = {"&": (And, _LEVEL_AND), "|": (Or, _LEVEL_OR),
          "->": (Implies, _LEVEL_IMP), "<->": (Iff, _LEVEL_IFF)}

# The node types with one subformula and with two.
_UNARY = tuple(build for build in _PREFIX.values() if isinstance(build, type))
_BINARY = tuple(build for build, _ in _INFIX.values())


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of f, left to right; () for a leaf."""
    kind = type(f)
    if kind in _BINARY:
        return (f.left, f.right)
    if kind in _UNARY:
        return (f.sub,)
    return ()


def rebuild(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """f with fn applied to each direct subformula, left to right; a leaf
    comes back unchanged."""
    return _same(f, *map(fn, children(f)))


def postorder(f: Formula, leaves: tuple[type, ...] = ()) -> list[Formula]:
    """Each distinct node of f (by identity) once, children before parents
    and left before right, so f comes last.  A node of a type in leaves is
    taken without its children."""
    order: list[Formula] = []
    done: dict[int, bool] = {}  # id -> whether the node is in order yet
    stack = [f]
    while stack:
        g = stack.pop()
        state = done.get(id(g))
        if state is None:
            kind = type(g)
            if kind in leaves or kind not in _BINARY and kind not in _UNARY:
                done[id(g)] = True
                order.append(g)
            else:
                done[id(g)] = False
                stack += (g, g.right, g.left) if kind in _BINARY else (g, g.sub)
        elif not state:
            done[id(g)] = True
            order.append(g)
    return order


def subformulas(f: Formula) -> Iterator[Formula]:
    """Each distinct node of f (by identity) once, parents before children
    and left before right, so f comes first."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            yield g
            stack += reversed(children(g))


def _fold(f: Formula, fn: Callable[..., object]) -> object:
    """fn(g, *values of g's children) for each distinct node g of f, children
    first: the value at f."""
    value: dict[int, object] = {}
    for g in postorder(f):
        value[id(g)] = fn(g, *[value[id(c)] for c in children(g)])
    return value[id(f)]


def _same(g: Formula, *kids: Formula) -> Formula:
    """g's node type over kids, or the leaf g itself."""
    return type(g)(*kids) if kids else g


def variables(f: Formula) -> frozenset[str]:
    """Set of propositional variable names occurring in f."""
    return frozenset(g.name for g in postorder(f) if isinstance(g, Var))


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of o/[] operators."""
    return _fold(f, lambda g, *depths: max(depths, default=0) + isinstance(g, (Ess, Box)))


def tree_size(f: Formula) -> int:
    """The number of nodes of f written out as a tree, where a node shared
    by several parents counts once under each: linear in f's DAG."""
    return _fold(f, lambda g, *sizes: 1 + sum(sizes))


def is_lea(f: Formula) -> bool:
    """True when f avoids [] entirely (the essence-only fragment)."""
    return not any(isinstance(g, Box) for g in postorder(f))


def is_ml(f: Formula) -> bool:
    """True when f avoids o entirely (the box-only fragment)."""
    return not any(isinstance(g, Ess) for g in postorder(f))


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
    malformed input.  The stack holds what is still open, innermost last, as
    [level, node builder, operands]: a prefix operator (no operands), "("
    (level 0, no builder) or a run of one infix operator.  An operand closes
    what binds tighter than the token after it; an infix operator then joins
    or opens a run of its own level, and ) closes its "(".
    """
    tokens = _tokenize(text)
    pos = 0
    stack: list[list] = [[-1, None, None]]  # the bottom, closed by the end of input
    while True:
        kind, word, offset = tokens[pos]
        pos += 1
        if kind in _PREFIX:
            stack.append([_LEVEL_UNARY, _PREFIX[kind], None])
            continue
        if kind == "(":
            stack.append([0, None, None])
            continue
        if kind in _CONSTANT:
            f = _CONSTANT[kind]()
        elif kind == "ident":
            f = Var(word)
        else:
            raise ParseError(offset, _UNARY_STARTERS, word or "end of input")
        while True:
            kind, word, offset = tokens[pos]
            build, level = _INFIX.get(kind, (None, 0))
            while stack[-1][0] > level:
                at, builder, parts = stack.pop()
                f = builder(f) if parts is None else _close(at, builder, parts, f)
            if build is not None:
                break
            if stack.pop()[0] < 0:
                if kind != "eof":
                    raise ParseError(offset, ("end of input",), word)
                return f
            if kind != ")":
                raise ParseError(offset, (")",), word or "end of input")
            pos += 1
        pos += 1
        if stack[-1][0] == level:
            stack[-1][2].append(f)
        else:
            stack.append([level, build, [f]])


def _close(level: int, build: type, parts: list[Formula], last: Formula) -> Formula:
    """The run of build over parts and last, nested to the right for -> and
    <->, to the left for & and |."""
    parts.append(last)
    if level <= _LEVEL_IMP:
        return reduce(lambda right, left: build(left, right), reversed(parts))
    return reduce(build, parts)


# ---------------------------------------------------------------------------
# Rendering

# Infix node type -> (symbol with its spaces, level); prefix or constant
# builder -> text, with ~ alone glued to its operand; sugar -> the operand's
# place in what it builds.
_SYMBOL_LEVEL = {build: (f" {symbol} ", level) for symbol, (build, level) in _INFIX.items()}
_TEXT = {build: token if token == "~" else token + " " for token, build in _PREFIX.items()}
_TEXT |= {build: token for token, build in _CONSTANT.items()}
_HOLE = Var("")  # a name no text can spell
_SUGAR = {build: list(subformulas(build(_HOLE))).index(_HOLE)
          for build in _PREFIX.values() if build not in _UNARY}


def render(f: Formula, sugar: bool = False) -> str:
    """Concrete syntax for f with minimal parentheses.

    With sugar=True the patterns ~o g and ~[] ~g print as `A g` and `<> g`.
    Either way the output parses back to a formula structurally equal to f.
    The text is written left to right off one stack of what is still to
    write: a string, or a node with the least level it may print at
    unbracketed.  Only an infix node can bind below that level: prefix
    operators and leaves bind tightest.
    """
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, min_level = item
        for build, place in _SUGAR.items() if sugar else ():
            # g is build(h) for some h only if h is at that place in g, parents first.
            h = next(islice(subformulas(g), place, None), None)
            if h is not None and build(h) == g:
                out.append(_TEXT[build])
                stack.append((h, _LEVEL_UNARY))
                break
        else:
            infix = _SYMBOL_LEVEL.get(type(g))
            if infix is not None:
                symbol, level = infix
                # Only the side an operator nests on may hold its level unbracketed.
                nest = level <= _LEVEL_IMP
                left_min, right_min = level + nest, level + (not nest)
                if level < min_level:
                    out.append("(")
                    stack.append(")")
                stack += [(g.right, right_min), symbol, (g.left, left_min)]
            elif isinstance(g, _UNARY):
                out.append(_TEXT[type(g)])
                stack.append((g.sub, _LEVEL_UNARY))
            elif isinstance(g, Var):
                out.append(g.name)
            elif type(g) in _TEXT:
                out.append(_TEXT[type(g)])
            else:
                raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Substitution and translations


def substitute(f: Formula, sub: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace variables by formulas."""
    return _fold(f, lambda g, *kids: (
        sub.get(g.name, g) if isinstance(g, Var) else _same(g, *kids)))


def to_ml(f: Formula) -> Formula:
    """Translate an essence formula into the box language.

    o g maps to t(g) -> [] t(g); boolean structure is kept.  The result is
    true at exactly the same points of any model as f.  Rejects input that
    already contains [], naming its first [] subformula in preorder.
    """
    _only(f, Box, "an essence-language")
    return _fold(f, lambda g, *kids: (
        Implies(*kids, Box(*kids)) if isinstance(g, Ess) else _same(g, *kids)))


def to_lea(f: Formula) -> Formula:
    """Translate a box formula into the essence language.

    [] g maps to o t(g) & t(g).  Truth is preserved on reflexive models
    only; on arbitrary models the two sides can diverge.  Rejects input
    that already contains o, naming its first o subformula in preorder.
    """
    _only(f, Ess, "a box-language")
    return _fold(f, lambda g, *kids: (
        And(Ess(*kids), *kids) if isinstance(g, Box) else _same(g, *kids)))


def _only(f: Formula, banned: type, language: str) -> None:
    bad = next((g for g in subformulas(f) if isinstance(g, banned)), None)
    if bad is not None:
        raise ValueError(f"not {language} formula: contains {render(bad)}")
