"""Independent oracles: the benchmark checks lea's answers with these alone.

Nothing here imports lea.  Formulas are nested tuples, models are plain
worlds/relation/valuation structures, truth is recursion over successor
lists, frame properties are the bare first-order sentences, and the
essence-bisimulation check applies its clauses pair by pair.

Formula tuples:
    ("var", name) ("top",) ("bot",) ("not", a) ("ess", a) ("box", a)
    ("and", a, b) ("or", a, b) ("imp", a, b) ("iff", a, b)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

TOP = ("top",)
BOT = ("bot",)


def var(name: str):
    return ("var", name)


def neg(f):
    return ("not", f)


def conj(*parts):
    out = parts[0]
    for g in parts[1:]:
        out = ("and", out, g)
    return out


def disj(*parts):
    out = parts[0]
    for g in parts[1:]:
        out = ("or", out, g)
    return out


def imp(a, b):
    return ("imp", a, b)


def ess(f):
    return ("ess", f)


def box(f):
    return ("box", f)


def dia(f):
    return ("not", ("box", ("not", f)))


_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(f) -> str:
    """lea concrete syntax, every binary node parenthesised."""
    tag = f[0]
    if tag == "var":
        return f[1]
    if tag == "top":
        return "T"
    if tag == "bot":
        return "F"
    if tag == "not":
        return "~" + render(f[1])
    if tag == "ess":
        return "o " + render(f[1])
    if tag == "box":
        return "[] " + render(f[1])
    return f"({render(f[1])} {_BINARY[tag]} {render(f[2])})"


def variables(f) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    out: set[str] = set()
    for sub in f[1:]:
        out |= variables(sub)
    return out


def substitute(f, sub: dict):
    if f[0] == "var":
        return sub.get(f[1], f)
    if f[0] in ("top", "bot"):
        return f
    return (f[0],) + tuple(substitute(g, sub) for g in f[1:])


def modal_depth(f) -> int:
    if f[0] in ("var", "top", "bot"):
        return 0
    inner = max(modal_depth(g) for g in f[1:])
    return inner + 1 if f[0] in ("ess", "box") else inner


# ---------------------------------------------------------------------------
# Models


@dataclass
class Model:
    worlds: list[str]
    rel: set[tuple[str, str]]
    val: dict[str, set[str]]
    succ: dict[str, list[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.succ = {w: [] for w in self.worlds}
        for s, t in sorted(self.rel):
            self.succ[s].append(t)

    def to_obj(self, point: str | None = None) -> dict:
        obj = {
            "worlds": list(self.worlds),
            "rel": [list(p) for p in sorted(self.rel)],
            "val": {p: sorted(ws) for p, ws in sorted(self.val.items())},
        }
        if point is not None:
            obj["point"] = point
        return obj


def model_from_obj(obj: dict) -> Model:
    """Read lea's JSON model form; raises ValueError when it is malformed."""
    worlds = list(obj["worlds"])
    if len(set(worlds)) != len(worlds):
        raise ValueError("duplicate worlds")
    known = set(worlds)
    rel = {(s, t) for s, t in obj["rel"]}
    val = {p: set(ws) for p, ws in obj["val"].items()}
    for s, t in rel:
        if s not in known or t not in known:
            raise ValueError(f"relation leaves the worlds: {(s, t)}")
    for ws in val.values():
        if not ws <= known:
            raise ValueError("valuation leaves the worlds")
    return Model(worlds, rel, val)


def holds(m: Model, w: str, f, memo: dict | None = None) -> bool:
    """Truth of f at w by plain recursion over successor lists."""
    if memo is None:
        memo = {}
    key = (f, w)
    if key in memo:
        return memo[key]
    tag = f[0]
    if tag == "var":
        out = w in m.val.get(f[1], ())
    elif tag == "top":
        out = True
    elif tag == "bot":
        out = False
    elif tag == "not":
        out = not holds(m, w, f[1], memo)
    elif tag == "and":
        out = holds(m, w, f[1], memo) and holds(m, w, f[2], memo)
    elif tag == "or":
        out = holds(m, w, f[1], memo) or holds(m, w, f[2], memo)
    elif tag == "imp":
        out = not holds(m, w, f[1], memo) or holds(m, w, f[2], memo)
    elif tag == "iff":
        out = holds(m, w, f[1], memo) == holds(m, w, f[2], memo)
    elif tag == "box":
        out = all(holds(m, t, f[1], memo) for t in m.succ[w])
    elif tag == "ess":
        out = not holds(m, w, f[1], memo) or all(
            holds(m, t, f[1], memo) for t in m.succ[w]
        )
    else:
        raise ValueError(f"not a formula: {f!r}")
    memo[key] = out
    return out


def valuations(worlds: list[str], names: list[str]):
    """Every valuation of names over worlds."""
    subsets = [
        {w for i, w in enumerate(worlds) if (mask >> i) & 1}
        for mask in range(1 << len(worlds))
    ]
    for choice in itertools.product(subsets, repeat=len(names)):
        yield dict(zip(names, choice))


def frame_falsified(worlds: list[str], rel: set, f) -> bool:
    """Does some valuation of f's variables falsify f at some world?"""
    names = sorted(variables(f))
    for val in valuations(worlds, names):
        m = Model(worlds, rel, val)
        memo: dict = {}
        if not all(holds(m, w, f, memo) for w in worlds):
            return True
    return False


# ---------------------------------------------------------------------------
# Frame properties straight off their first-order sentences


def has_property(worlds, r, prop: str) -> bool:
    ws = worlds
    if prop == "reflexive":
        return all((x, x) in r for x in ws)
    if prop == "serial":
        return all(any((x, y) in r for y in ws) for x in ws)
    if prop == "symmetric":
        return all((y, x) in r for (x, y) in r)
    if prop == "coreflexive":
        return all(x == y for (x, y) in r)
    triples = [(x, y, z) for x in ws for y in ws for z in ws]
    if prop == "transitive":
        return all((x, z) in r for x, y, z in triples if (x, y) in r and (y, z) in r)
    if prop == "euclidean":
        return all((y, z) in r for x, y, z in triples if (x, y) in r and (x, z) in r)
    if prop == "weakly-transitive":
        return all(
            (x, z) in r
            for x, y, z in triples
            if (x, y) in r and (y, z) in r and x != z
        )
    if prop == "weakly-connected":
        return all(
            (y, z) in r or y == z or (z, y) in r
            for x, y, z in triples
            if (x, y) in r and (x, z) in r
        )
    if prop == "weak-weak-euclidean":
        return all(
            (y, z) in r
            for x, y, z in triples
            if (x, y) in r and (x, z) in r and x != z and y != z
        )
    if prop == "strict-transitive3":
        return all(
            (x, z) in r
            for x, y, z in triples
            if (x, y) in r and (y, z) in r and x != y and y != z and x != z
        )
    if prop == "strict-euclidean3":
        return all(
            (y, z) in r
            for x, y, z in triples
            if (x, y) in r and (x, z) in r and x != y and x != z and y != z
        )
    raise ValueError(prop)


CLASSES = {
    "K": (),
    "D": ("serial",),
    "T": ("reflexive",),
    "KB": ("symmetric",),
    "TB": ("reflexive", "symmetric"),
    "K4": ("transitive",),
    "S4": ("reflexive", "transitive"),
    "B5": ("symmetric", "euclidean"),
    "S5": ("reflexive", "symmetric", "transitive"),
}


def in_class(worlds, rel, cls: str) -> bool:
    return all(has_property(worlds, rel, p) for p in CLASSES[cls])


def close_into_class(rng, worlds: list[str], rel: set, cls: str) -> set:
    """Smallest-ish superset of rel lying in the class (random serial fix)."""
    rel = set(rel)
    props = CLASSES[cls]
    while not in_class(worlds, rel, cls):
        if "reflexive" in props:
            rel |= {(w, w) for w in worlds}
        if "serial" in props:
            for w in worlds:
                if not any((w, t) in rel for t in worlds):
                    rel.add((w, rng.choice(worlds)))
        if "symmetric" in props:
            rel |= {(t, s) for s, t in rel}
        if "transitive" in props:
            rel |= {(s, u) for s, t in rel for t2, u in rel if t == t2}
        if "euclidean" in props:
            rel |= {(t, u) for s, t in rel for s2, u in rel if s == s2}
    return rel


# ---------------------------------------------------------------------------
# Essence bisimulation, clause by clause


def circ_violation(m: Model, z: set[tuple[str, str]]) -> str | None:
    """First failed essence-bisimulation clause of z on m, or None."""
    names = sorted(m.val)

    def label(w):
        return tuple(w in m.val[p] for p in names)

    for s, s2 in sorted(z):
        if label(s) != label(s2):
            return f"valuations differ at {(s, s2)}"
        for t in m.succ[s]:
            if (s, t) not in z and not any((t, t2) in z for t2 in m.succ[s2]):
                return f"forth fails at {(s, s2)} for {t}"
        for t2 in m.succ[s2]:
            if (s2, t2) not in z and not any((t, t2) in z for t in m.succ[s]):
                return f"back fails at {(s, s2)} for {t2}"
    return None


def disjoint_union(a: Model, b: Model) -> Model:
    """Side by side with lea's 'L:'/'R:' world prefixes."""
    worlds = ["L:" + w for w in a.worlds] + ["R:" + w for w in b.worlds]
    rel = {("L:" + s, "L:" + t) for s, t in a.rel} | {
        ("R:" + s, "R:" + t) for s, t in b.rel
    }
    val = {}
    for p in set(a.val) | set(b.val):
        val[p] = {"L:" + w for w in a.val.get(p, ())} | {
            "R:" + w for w in b.val.get(p, ())
        }
    return Model(worlds, rel, val)


# ---------------------------------------------------------------------------
# Satisfiability over K for modal depth one


def k_sat_depth1(f, atoms: list[str]) -> Model | None:
    """A pointed K-model of f at world 'r', or None when f is unsatisfiable.

    For modal depth at most one, successors matter only through their
    valuations, so a root valuation plus a set of successor valuations
    covers every model up to modal equivalence: 2^k * 2^(2^k) candidates.
    Modal subformulas are tabulated once over the successor valuations.
    """
    if modal_depth(f) > 1:
        raise ValueError("depth-one oracle given a deeper formula")
    rows = list(valuations(["x"], atoms))  # one dict per successor valuation
    row_models = [Model(["x"], set(), row) for row in rows]
    tables: dict = {}

    def table(body) -> int:
        if body not in tables:
            bits = 0
            for i, m in enumerate(row_models):
                if holds(m, "x", body):
                    bits |= 1 << i
            tables[body] = bits
        return tables[body]

    def ev(g, root: dict, succ_mask: int) -> bool:
        tag = g[0]
        if tag == "var":
            return g[1] in root
        if tag == "top":
            return True
        if tag == "bot":
            return False
        if tag == "not":
            return not ev(g[1], root, succ_mask)
        if tag == "and":
            return ev(g[1], root, succ_mask) and ev(g[2], root, succ_mask)
        if tag == "or":
            return ev(g[1], root, succ_mask) or ev(g[2], root, succ_mask)
        if tag == "imp":
            return not ev(g[1], root, succ_mask) or ev(g[2], root, succ_mask)
        if tag == "iff":
            return ev(g[1], root, succ_mask) == ev(g[2], root, succ_mask)
        boxed = succ_mask & ~table(g[1]) == 0
        if tag == "box":
            return boxed
        return boxed or not ev(g[1], root, succ_mask)  # ess

    for root_val in valuations(["r"], atoms):
        root = {p for p, ws in root_val.items() if ws}
        for succ_mask in range(1 << len(rows)):
            if ev(f, root, succ_mask):
                worlds = ["r"] + [f"x{i}" for i in range(len(rows)) if (succ_mask >> i) & 1]
                rel = {("r", w) for w in worlds[1:]}
                val = {p: ({"r"} if p in root else set()) for p in atoms}
                for i, row in enumerate(rows):
                    if (succ_mask >> i) & 1:
                        for p, ws in row.items():
                            if ws:
                                val[p].add(f"x{i}")
                return Model(worlds, rel, val)
    return None
