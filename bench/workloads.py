"""Seeded query decks for the three workloads, with their answer checks.

Each generator writes every model, formula and derivation file it needs
into the work directory and returns a deck: a list of queries in the order
the run sends them.  A query carries the lea argv and a check that judges
lea's exit code and JSON payload using only the oracles in this package.

Checks return OK, UNDECIDED (a bounded or budget-limited non-answer the
query allows), or a string saying what was wrong; the caller counts an
answer they cannot read as wrong.

Decks interleave their categories evenly, so that a change in host speed
during a pass touches every category alike.  Anchor categories, the
multi-second sweeps and fixpoints, keep one fixed order for every seed; the
seed renames their variables and worlds only, so their cost is the same on
every draw.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from oracles import (
    BOT,
    CLASSES,
    TOP,
    Model,
    box,
    circ_violation,
    close_into_class,
    conj,
    dia,
    disj,
    disjoint_union,
    ess,
    frame_falsified,
    has_property,
    holds,
    imp,
    in_class,
    k_sat_depth1,
    model_from_obj,
    neg,
    render,
    substitute,
    var,
)

OK = "ok"
UNDECIDED = "undecided"

Check = Callable[[int, dict], str]


@dataclass
class Query:
    label: str  # category, for the per-category table
    argv: list[str]
    check: Check


# ---------------------------------------------------------------------------
# Shared pieces


def _names(rng: random.Random, k: int) -> list[str]:
    """k distinct variable names; never the essence letter `o`."""
    picked = rng.sample(list("abcdefghijklmnpqrstuvwxyz"), k)
    return [f"{c}{rng.randrange(10)}" for c in picked]


def _schemas(p, q) -> dict:
    """The essence axioms of the paper, over the given variables."""
    return {
        "KwTop": ess(TOP),
        "EquiKw": imp(neg(p), ess(p)),
        "KwCon": imp(conj(ess(p), ess(q)), ess(conj(p, q))),
        "KwTr": imp(conj(ess(p), p), ess(ess(p))),
        "KwB": imp(p, ess(imp(ess(neg(p)), p))),
        "KwEuc": imp(neg(ess(neg(p))), ess(imp(ess(neg(p)), p))),
    }


# System axioms, as lea's `scan` and `prove` know them.
SYSTEM_AXIOMS = {
    "K": ("KwTop", "EquiKw", "KwCon"),
    "K4": ("KwTop", "EquiKw", "KwCon", "KwTr"),
    "KB": ("KwTop", "EquiKw", "KwCon", "KwB"),
    "KB5": ("KwTop", "EquiKw", "KwCon", "KwB", "KwEuc"),
}

# Labelled frames on exactly four worlds per class; recomputed from the
# first-order sentences by `selftest.py`.
FRAMES_ON_4 = {
    "K": 65536, "D": 50625, "T": 4096, "KB": 1024, "TB": 64,
    "K4": 3994, "S4": 355, "B5": 52, "S5": 15,
}


def _rand_formula(rng, depth: int, names, modal=("ess", "box")):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.8:
            return var(rng.choice(names))
        return TOP if roll < 0.9 else BOT
    op = rng.choice(("not",) + tuple(modal) + ("and", "or", "imp", "iff"))
    if op in ("not", "ess", "box"):
        return (op, _rand_formula(rng, depth - 1, names, modal))
    return (op, _rand_formula(rng, depth - 1, names, modal),
            _rand_formula(rng, depth - 1, names, modal))


def _rand_model(rng, n: int, names, density: float, prefix: str = "w") -> Model:
    worlds = [f"{prefix}{i}" for i in range(n)]
    rel = {(a, b) for a in worlds for b in worlds if rng.random() < density}
    val = {p: {w for w in worlds if rng.random() < 0.5} for p in names}
    return Model(worlds, rel, val)


def _sparse_model(rng, n: int, names, degree: int, prefix: str) -> Model:
    worlds = [f"{prefix}{i}" for i in range(n)]
    rel = {(rng.choice(worlds), rng.choice(worlds)) for _ in range(degree * n)}
    val = {p: {w for w in worlds if rng.random() < 0.5} for p in names}
    return Model(worlds, rel, val)


def _write(work: str, name: str, obj) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, str):
            fh.write(obj)
        else:
            json.dump(obj, fh)
    return path


def _code_fits(code: int, answer) -> str | None:
    want = 0 if answer is True else 1
    if code != want:
        return f"exit {code} for answer {answer!r}"
    return None


def _interleave(rng: random.Random, groups: list[tuple[list[Query], bool]]) -> list[Query]:
    """Spread every group evenly over the deck.

    Item j of a group of c items sits at position (j + offset) / c.  Anchor
    groups keep their order and a fixed offset; other groups are shuffled
    and get a seeded offset.
    """
    placed = []
    for gi, (items, anchor) in enumerate(groups):
        items = list(items)
        if not anchor:
            rng.shuffle(items)
        offset = 0.5 if anchor else rng.random()
        for j, q in enumerate(items):
            placed.append(((j + offset) / len(items), gi, j, q))
    placed.sort(key=lambda t: t[:3])
    return [t[3] for t in placed]


# ---------------------------------------------------------------------------
# Witness replay


def _replay_pointed(obj, f, cls: str, want: bool) -> str | None:
    """Witness model must lie in the class and give f the wanted truth value."""
    if not isinstance(obj, dict):
        return "no witness model"
    m = model_from_obj(obj)
    point = obj.get("point")
    if point not in m.worlds:
        return "witness has no valid point"
    if not in_class(m.worlds, m.rel, cls):
        return f"witness frame is not in {cls}"
    if holds(m, point, f) != want:
        return "witness fails replay"
    return None


def _frame_of(obj) -> tuple[list[str], set]:
    m = model_from_obj(obj)
    return m.worlds, m.rel


# ---------------------------------------------------------------------------
# frames: exhaustive definability, soundness and frame-validity sweeps


def _criterion4(p, q) -> list[tuple[str, object]]:
    wt = imp(conj(ess(p), p), ess(conj(ess(p), p)))
    wc = disj(ess(imp(conj(ess(p), p), q)), ess(imp(conj(ess(q), q), p)))
    wwe = imp(neg(ess(neg(p))), ess(imp(ess(neg(p)), p)))
    sym = imp(p, ess(imp(ess(neg(p)), p)))
    return [
        ("weakly-transitive", wt),
        ("weakly-connected", wc),
        ("weak-weak-euclidean", wwe),
        ("symmetric", sym),
        ("coreflexive", ess(p)),
        ("strict-transitive3", wt),
        ("strict-euclidean3", wwe),
    ]


def _refuted_pairs(p, q) -> list[tuple[str, object]]:
    """Property/formula pairs with a disagreeing frame on at most two worlds."""
    ax = _schemas(p, q)
    wt = imp(conj(ess(p), p), ess(conj(ess(p), p)))
    sym = ax["KwB"]
    return [
        ("transitive", wt),
        ("reflexive", ess(p)),
        ("symmetric", ax["KwTr"]),
        ("euclidean", sym),
        ("serial", ax["KwCon"]),
        ("coreflexive", sym),
        ("weakly-connected", ess(p)),
        ("reflexive", ax["EquiKw"]),
        ("transitive", box(p)),
        ("serial", imp(box(p), p)),
    ]


def _check_define(prop: str, f, expect_confirmed: bool) -> Check:
    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        if answer is True:
            return OK if expect_confirmed else "confirmed a pair known to be refuted"
        if answer is not False:
            return f"define answered {answer!r}"
        worlds, rel = _frame_of(out.get("witness"))
        holds_prop = has_property(worlds, rel, prop)
        valid = not frame_falsified(worlds, rel, f)
        direction = out.get("direction")
        if holds_prop == valid:
            return "witness frame does not separate property and validity"
        wanted = "property-but-invalid" if holds_prop else "valid-but-no-property"
        if direction != wanted:
            return f"direction {direction!r}, witness shows {wanted!r}"
        return OK
    return check


@functools.cache
def _frames_on(cls: str, n: int) -> int:
    """Labelled frames on exactly n worlds that lie in the class."""
    if n == 4:
        return FRAMES_ON_4[cls]
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds]
    count = 0
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
        count += in_class(worlds, rel, cls)
    return count


def _check_scan(system: str, cls: str, max_n: int, sound: bool, schemas: dict) -> Check:
    frames = sum(_frames_on(cls, n) for n in range(1, max_n + 1))

    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        if out.get("frames") != frames:
            return f"scanned {out.get('frames')} frames, the class has {frames}"
        if answer is True:
            return OK if sound else "clean scan of a system known to be unsound"
        if sound:
            return "failures reported for a sound system/class pair"
        failures = out.get("failures") or []
        if not failures:
            return "negative scan without failures"
        for item in failures:
            name = item.get("axiom")
            if name not in SYSTEM_AXIOMS[system]:
                return f"failure names unknown axiom {name!r}"
            worlds, rel = _frame_of(item.get("model"))
            if not in_class(worlds, rel, cls):
                return f"failure frame is not in {cls}"
            if not frame_falsified(worlds, rel, schemas[name]):
                return f"{name} holds on the reported failure frame"
        return OK
    return check


def _check_frame_valid(m: Model, f, expect_valid: bool) -> Check:
    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        if answer is not expect_valid:
            return f"answered {answer!r}, oracle says {expect_valid!r}"
        if answer:
            return OK
        wit = out.get("witness")
        worlds, rel = _frame_of(wit)
        if worlds != m.worlds or rel != m.rel:
            return "witness frame differs from the queried frame"
        return _replay_pointed(wit, f, "K", False) or OK
    return check


SOUND_SCANS = [
    ("K", "K"), ("K4", "K4"), ("KB", "KB"), ("KB5", "B5"), ("K", "S5"),
    ("K4", "S4"), ("KB", "TB"), ("KB5", "S5"), ("K", "D"), ("K4", "S5"),
]
UNSOUND_SCANS = [("K4", "K"), ("KB", "K"), ("KB5", "KB")]
# Anchors: the n=4 scans, in one order for every seed.
N4_SCANS = [("K4", "K", False), ("KB", "KB", True), ("KB5", "B5", True)]


def frames(rng: random.Random, work: str) -> list[Query]:
    pn, qn = _names(rng, 2)
    p, q = var(pn), var(qn)
    # Frame validity ignores variable names, so the renamed schemas also
    # judge the failures `scan` reports for lea's own axioms.
    schemas = _schemas(p, q)

    anchors = []
    for prop, f in _criterion4(p, q):
        anchors.append(Query("define-n4", ["define", prop, render(f), "--max-n", "4"],
                             _check_define(prop, f, True)))
    for system, cls, sound in N4_SCANS:
        anchors.append(Query("scan-n4", ["scan", system, "--class", cls, "--max-n", "4"],
                             _check_scan(system, cls, 4, sound, schemas)))

    confirmed = []
    for _ in range(2):
        for prop, f in _criterion4(p, q):
            confirmed.append(Query("define-n3", ["define", prop, render(f), "--max-n", "3"],
                                   _check_define(prop, f, True)))
    refuted = []
    for prop, f in _refuted_pairs(p, q):
        for n in ("3", "4"):
            refuted.append(Query("define-refuted", ["define", prop, render(f), "--max-n", n],
                                 _check_define(prop, f, False)))
    scans = []
    for system, cls in SOUND_SCANS:
        scans.append(Query("scan-n3", ["scan", system, "--class", cls, "--max-n", "3"],
                           _check_scan(system, cls, 3, True, schemas)))
    for system, cls in UNSOUND_SCANS:
        scans.append(Query("scan-n3", ["scan", system, "--class", cls, "--max-n", "3"],
                           _check_scan(system, cls, 3, False, schemas)))

    # Frame sizes are weighted so that the median and the 90th percentile
    # of the run fall inside the three- and four-world clusters, never on
    # the step between two of them.
    on_frame = []
    classes = list(CLASSES)
    for i in range(600):
        n = (1, 2, 2, 3, 3, 3, 3, 3, 4, 4)[i % 10]
        cls = classes[i % len(classes)]
        base = _rand_model(rng, n, (), rng.uniform(0.2, 0.6))
        rel = close_into_class(rng, base.worlds, base.rel, cls)
        m = Model(base.worlds, rel, {})
        if i % 2:
            f = _rand_formula(rng, 3, [pn, qn])
        else:
            # An axiom of a system sound over the frame's class, under a
            # random substitution: valid on the frame by construction.
            system = {"K4": "K4", "S4": "K4", "KB": "KB", "TB": "KB", "B5": "KB5",
                      "S5": "KB5"}.get(cls, "K")
            name = rng.choice(SYSTEM_AXIOMS[system])
            sub = {pn: _rand_formula(rng, 1, [pn, qn], ("ess",)),
                   qn: _rand_formula(rng, 1, [pn, qn], ("ess",))}
            f = substitute(schemas[name], sub)
        expect = not frame_falsified(m.worlds, m.rel, f)
        path = _write(work, f"frame{i}.json", m.to_obj())
        on_frame.append(Query("valid-frame", ["valid", render(f), "--frame", path],
                              _check_frame_valid(m, f, expect)))

    return _interleave(rng, [(anchors, True), (confirmed, False), (refuted, False),
                             (scans, False), (on_frame, False)])


# ---------------------------------------------------------------------------
# decide: satisfiability and validity verdicts, and proof checking


# Modal schemas valid on every frame of the listed classes.
def _valid_schemas(p, q) -> list[tuple[object, tuple[str, ...]]]:
    ax = _schemas(p, q)
    every = tuple(CLASSES)
    return [
        (ax["KwTop"], every),
        (ax["EquiKw"], every),
        (ax["KwCon"], every),
        (ax["KwTr"], ("K4", "S4", "S5")),
        (ax["KwB"], ("KB", "TB", "B5", "S5")),
        (ax["KwEuc"], ("B5", "S5")),
        (imp(box(imp(p, q)), imp(box(p), box(q))), every),
        (imp(box(p), p), ("T", "TB", "S4", "S5")),
        (imp(box(p), dia(p)), ("D", "T", "TB", "S4", "S5")),
        (imp(box(p), box(box(p))), ("K4", "S4", "S5")),
        (imp(p, box(dia(p))), ("KB", "TB", "B5", "S5")),
        (imp(dia(p), box(dia(p))), ("B5", "S5")),
    ]


BOUNDED = ("TB", "B5")  # classes lea answers by bounded search


def _check_verdict(f, cls: str, question: str, expect) -> Check:
    """Judge a sat/valid verdict.

    expect True/False is the answer known by construction or from the
    depth-one oracle.  A `sat` witness must satisfy f in the class, a
    `valid` countermodel must falsify it.  `unknown` is allowed only where
    the answer is negative for bounded search (no model exists, or the
    formula is valid), since every planted model fits within the bound.
    """
    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        method = out.get("method")
        if method != ("bounded-search" if cls in BOUNDED else "tableau"):
            return f"method {method!r} for class {cls}"
        if answer is None:
            negative_for_search = (expect is False) if question == "sat" else (expect is True)
            if cls in BOUNDED and negative_for_search:
                return UNDECIDED
            return "unknown although a model within the bound exists"
        if answer is not expect:
            return f"answered {answer!r}, expected {expect!r}"
        if question == "sat" and answer:
            return _replay_pointed(out.get("witness"), f, cls, True) or OK
        if question == "valid" and not answer:
            return _replay_pointed(out.get("witness"), f, cls, False) or OK
        return OK
    return check


def _modal_cnf(rng, atoms, clauses: int):
    """Random modal 3-CNF of depth one: literals are atoms or [] / o wrapped
    propositional 3-clauses, each negated with probability one half."""
    def plit():
        a = var(rng.choice(atoms))
        return neg(a) if rng.random() < 0.5 else a

    def lit():
        if rng.random() < 0.5:
            g = (rng.choice(("box", "ess")), disj(plit(), plit(), plit()))
        else:
            g = var(rng.choice(atoms))
        return neg(g) if rng.random() < 0.5 else g

    return conj(*[disj(lit(), lit(), lit()) for _ in range(clauses)])


def _conj_derivation(ps: list) -> list[tuple[object, str]]:
    """Lines of a base-system derivation of o p1 & ... & o pn -> o (p1 & ... & pn).

    Each step is a KwCon instance, a propositional chaining tautology and
    two modus ponens lines.
    """
    lines: list[tuple[object, str]] = []

    def emit(f, just: str) -> int:
        lines.append((f, just))
        return len(lines)

    goal = emit(imp(conj(ess(ps[0]), ess(ps[1])), ess(conj(ps[0], ps[1]))), "axiom KwCon")
    for k in range(2, len(ps)):
        body = conj(*ps[:k])
        antecedent = conj(*[ess(v) for v in ps[:k]])
        step_f = imp(conj(ess(body), ess(ps[k])), ess(conj(body, ps[k])))
        target = imp(conj(antecedent, ess(ps[k])), ess(conj(body, ps[k])))
        ih = imp(antecedent, ess(body))
        step = emit(step_f, "axiom KwCon")
        chain = emit(imp(ih, imp(step_f, target)), "taut")
        half = emit(imp(step_f, target), f"mp {goal} {chain}")
        goal = emit(target, f"mp {step} {half}")
    return lines


def _derivation_text(lines) -> str:
    return "\n".join(f"{i}. {render(f)}   [{just}]" for i, (f, just) in enumerate(lines, 1))


def _mutate(rng, lines, fresh: str) -> tuple[list, int]:
    """Break one line so that the checker must reject exactly there.

    Axiom lines become their negation (no schema is a negation); tautology
    and modus ponens lines gain a conjunct with a fresh variable, which
    neither a tautology nor the consequent of the cited implication has.
    """
    target = rng.randrange(len(lines))
    f, just = lines[target]
    broken = neg(f) if just.startswith("axiom") else conj(f, var(fresh))
    out = list(lines)
    out[target] = (broken, just)
    return out, target + 1


def _check_prove(expect_line: int | None) -> Check:
    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        if expect_line is None:
            return OK if answer is True else f"rejected a valid derivation at line {out.get('line')}"
        if answer is not False:
            return "accepted a broken derivation"
        if out.get("line") != expect_line:
            return f"rejected at line {out.get('line')}, broken line is {expect_line}"
        return OK
    return check


def decide(rng: random.Random, work: str) -> list[Query]:
    a, b, c, x = _names(rng, 4)
    classes = list(CLASSES)

    planted = []
    for i in range(300):
        cls = classes[i % len(classes)]
        question = "sat" if i % 9 < 5 else "valid"
        base = _rand_model(rng, rng.randint(1, 3), [a, b], rng.uniform(0.2, 0.6))
        rel = close_into_class(rng, base.worlds, base.rel, cls)
        m = Model(base.worlds, rel, base.val)
        point = rng.choice(m.worlds)
        f = _rand_formula(rng, 3, [a, b])
        if holds(m, point, f) != (question == "sat"):
            f = neg(f)
        # sat: true at the planted point; valid: false there.
        expect = question == "sat"
        planted.append(Query(f"{question}-planted", [question, render(f), "--class", cls],
                             _check_verdict(f, cls, question, expect)))

    axioms = []
    p, q = var(a), var(b)
    schemas = _valid_schemas(p, q)
    # Every other round asks in TB or B5 where the schema is valid there:
    # bounded search cannot confirm validity and searches every frame up
    # to the bound.  These queries form the band that holds the 90th
    # percentile, above the tableau bulk and below the slow few.
    for i in range(135):
        schema, good = schemas[i % len(schemas)]
        bounded = [c for c in good if c in BOUNDED]
        rnd = i // len(schemas)
        if bounded and rnd % 2 == 0:
            cls = bounded[(rnd // 2) % len(bounded)]
        else:
            cls = good[rnd % len(good)]
        sub = {a: _rand_formula(rng, 2, [a, b, c]), b: _rand_formula(rng, 2, [a, b, c])}
        f = substitute(schema, sub)
        if i % 5 == 4:
            axioms.append(Query("sat-negated-axiom", ["sat", render(neg(f)), "--class", cls],
                                _check_verdict(neg(f), cls, "sat", False)))
        else:
            axioms.append(Query("valid-axiom", ["valid", render(f), "--class", cls],
                                _check_verdict(f, cls, "valid", True)))

    # Clause counts from "decided in milliseconds" (3 to 8) through the
    # transition (10) to "nearly always exhausts the budget" (20 and up).
    # From 8 clauses up, the cost of one draw swings by two orders of
    # magnitude, so those few are anchors: drawn once, over fixed atoms, the
    # same on every seed.
    cnf, hard_cnf = [], []
    fixed = random.Random("decide:cnf")
    for clauses in [3, 4, 5, 6, 7] * 3 + [8, 8, 10, 20, 24, 28]:
        if clauses < 8:
            atoms, group = [a, b, c], cnf
        else:
            atoms, group = ["a1", "b1", "c1"], hard_cnf
        f = _modal_cnf(rng if clauses < 8 else fixed, atoms, clauses)
        expect = k_sat_depth1(f, atoms) is not None
        path = _write(work, f"cnf{len(cnf) + len(hard_cnf)}.txt", render(f))
        group.append(Query("sat-cnf", ["sat", "@" + path, "--class", "K"],
                           _check_verdict(f, "K", "sat", expect)))

    # Unsatisfiable by construction in every class; the tableau splits on
    # every disjunction before it meets the contradiction, and runs out of
    # budget from width 14 on.  Fixed names: the family is the same on
    # every seed.
    family = []
    for cls, widths in (("K", range(2, 17)), ("S5", range(8, 13))):
        for width in widths:
            ds = [disj(var(f"a{i}"), var(f"b{i}")) for i in range(width)]
            f = conj(*ds, dia(var("x")), box(neg(var("x"))))
            family.append(Query("sat-family", ["sat", render(f), "--class", cls],
                                _check_verdict(f, cls, "sat", False)))

    proofs = []
    systems = list(SYSTEM_AXIOMS)
    for n in range(2, 13):
        ps = [var(f"{a}{i}") for i in range(1, n + 1)]
        path = _write(work, f"proof{n}.txt", _derivation_text(_conj_derivation(ps)))
        proofs.append(Query("prove", ["prove", systems[n % len(systems)], path],
                            _check_prove(None)))
    for i in range(8):
        n = 3 + i % 6
        ps = [var(f"{a}{j}") for j in range(1, n + 1)]
        lines, bad_line = _mutate(rng, _conj_derivation(ps), x)
        path = _write(work, f"mutant{i}.txt", _derivation_text(lines))
        proofs.append(Query("prove-mutant", ["prove", "K", path], _check_prove(bad_line)))

    return _interleave(rng, [(proofs, True), (family, True), (hard_cnf, True),
                             (cnf, False), (planted, False), (axioms, False)])


# ---------------------------------------------------------------------------
# models: bisimulation, contraction and model checking on model files


def _chain(n: int, prefix: str, atom: str, cycle: bool) -> Model:
    worlds = [f"{prefix}{i}" for i in range(n)]
    rel = {(worlds[i], worlds[i + 1]) for i in range(n - 1)}
    if cycle:
        rel.add((worlds[-1], worlds[0]))
    return Model(worlds, rel, {atom: {worlds[i] for i in range(0, n, 2)}})


def _renamed(m: Model, prefix: str, rng: random.Random | None) -> tuple[Model, dict]:
    """Isomorphic copy; with rng the world names are permuted as well."""
    order = list(range(len(m.worlds)))
    if rng is not None:
        rng.shuffle(order)
    iso = {w: f"{prefix}{order[i]}" for i, w in enumerate(m.worlds)}
    worlds = [iso[w] for w in m.worlds]
    return Model(worlds, {(iso[s], iso[t]) for s, t in m.rel},
                 {p: {iso[w] for w in ws} for p, ws in m.val.items()}), iso


def _check_bisim(a: Model, pa: str, b: Model, pb: str, flavor: str, expect: bool,
                 separator=None) -> Check:
    """Affirmative circ answers are checked through their certificate;
    negative answers need a separating formula, true at pa and false at pb
    (an atom here, which every bisimulation must respect)."""
    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        if out.get("flavor") != flavor:
            return f"flavor {out.get('flavor')!r}"
        if answer is not expect:
            return f"answered {answer!r}, expected {expect!r}"
        if not answer:
            if holds(a, pa, separator) == holds(b, pb, separator):
                return "separating formula does not separate"
            return OK
        if flavor == "box":
            return OK
        cert = out.get("certificate") or {}
        pairs = {tuple(pair) for pair in cert.get("pairs", ())}
        if ("L:" + pa, "R:" + pb) not in pairs:
            return "certificate omits the queried pair"
        union = disjoint_union(a, b)
        if not all(s in union.succ and t in union.succ for s, t in pairs):
            return "certificate leaves the union's worlds"
        why = circ_violation(union, pairs)
        return f"certificate is no bisimulation: {why}" if why else OK
    return check


def _check_contract(m: Model, point: str | None) -> Check:
    """The quotient must be the image of m, and the equivalence on the
    union that relates each world to its class must be a bisimulation."""
    def check(code: int, out: dict) -> str:
        if code != 0:
            return f"exit {code}"
        classes = out.get("classes") or {}
        if set(classes) != set(m.worlds):
            return "classes do not cover the worlds"
        quotient = model_from_obj({k: out[k] for k in ("worlds", "rel", "val")})
        if set(quotient.worlds) != set(classes.values()):
            return "quotient worlds are not the classes"
        if quotient.rel != {(classes[s], classes[t]) for s, t in m.rel}:
            return "quotient relation is not the image of the relation"
        for atom, ws in m.val.items():
            if quotient.val.get(atom, set()) != {classes[w] for w in ws}:
                return f"quotient valuation of {atom} is not the image"
        if point is not None and out.get("point") != classes[point]:
            return "quotient point is not the class of the point"
        union = disjoint_union(m, quotient)
        cls_of = {"L:" + w: c for w, c in classes.items()}
        cls_of.update({"R:" + c: c for c in quotient.worlds})
        members: dict[str, list[str]] = {}
        for w, c in cls_of.items():
            members.setdefault(c, []).append(w)
        z = {(s, t) for group in members.values() for s in group for t in group}
        why = circ_violation(union, z)
        return f"classes are no bisimulation: {why}" if why else OK
    return check


def _check_check(m: Model, w: str, f) -> Check:
    want = holds(m, w, f)

    def check(code: int, out: dict) -> str:
        answer = out.get("answer")
        bad = _code_fits(code, answer)
        if bad:
            return bad
        return OK if answer is want else f"answered {answer!r}, truth is {want!r}"
    return check


def models(rng: random.Random, work: str) -> list[Query]:
    atom, atom2, atom3 = _names(rng, 3)
    names = [atom, atom2, atom3]
    anchors = []

    def files(m: Model, tag: str) -> str:
        return _write(work, f"{tag}.json", m.to_obj())

    # Anchors: p-alternating chains and cycles, where the fixpoint needs a
    # sweep per world; only names vary with the seed.
    for n in (20, 25, 30, 35):
        ch = _chain(n, "c", atom, cycle=False)
        twin, iso = _renamed(ch, "d", None)
        fa, fb = files(ch, f"chain{n}"), files(twin, f"chain{n}b")
        c0, c1 = ch.worlds[0], ch.worlds[1]
        for flavor in ("circ", "box"):
            flag = ["--box"] if flavor == "box" else []
            anchors.append(Query(f"bisim-{flavor}-chain", ["bisim", fa, c0, fb, iso[c0]] + flag,
                                 _check_bisim(ch, c0, twin, iso[c0], flavor, True)))
            anchors.append(Query(f"bisim-{flavor}-chain", ["bisim", fa, c0, fb, iso[c1]] + flag,
                                 _check_bisim(ch, c0, twin, iso[c1], flavor, False, var(atom))))
        anchors.append(Query("contract-chain", ["contract", fa], _check_contract(ch, None)))
    for n in (40, 60, 80):
        cy = _chain(n, "y", atom, cycle=True)
        fy = files(cy, f"cycle{n}")
        for flavor in ("circ", "box"):
            flag = ["--box"] if flavor == "box" else []
            anchors.append(Query(f"bisim-{flavor}-cycle", ["bisim", fy, cy.worlds[0], fy, cy.worlds[2]] + flag,
                                 _check_bisim(cy, cy.worlds[0], cy, cy.worlds[2], flavor, True)))
        anchors.append(Query("contract-cycle", ["contract", fy], _check_contract(cy, None)))

    sparse = []
    for i in range(24):
        n = (20, 30, 40, 50)[i % 4]
        m = _sparse_model(rng, n, names[:2], rng.choice((1, 2)), "r")
        twin, iso = _renamed(m, "s", rng)
        fa, fb = files(m, f"sparse{i}"), files(twin, f"sparse{i}b")
        pa = rng.choice(m.worlds)
        flavor = "box" if i % 3 == 2 else "circ"
        flag = ["--box"] if flavor == "box" else []
        if i % 2:
            sparse.append(Query(f"bisim-{flavor}-sparse", ["bisim", fa, pa, fb, iso[pa]] + flag,
                                _check_bisim(m, pa, twin, iso[pa], flavor, True)))
        else:
            # A copy whose image of pa has the first atom flipped.
            flipped = Model(twin.worlds, twin.rel, {p: set(ws) for p, ws in twin.val.items()})
            flipped.val[atom] ^= {iso[pa]}
            fc = files(flipped, f"sparse{i}c")
            sep = var(atom) if pa in m.val[atom] else neg(var(atom))
            sparse.append(Query(f"bisim-{flavor}-sparse", ["bisim", fa, pa, fc, iso[pa]] + flag,
                                _check_bisim(m, pa, flipped, iso[pa], flavor, False, sep)))
    contracts = []
    for i in range(12):
        n = (40, 80, 120, 160)[i % 4]
        m = _sparse_model(rng, n, names[:2], rng.choice((1, 2)), "k")
        point = m.worlds[0]
        contracts.append(Query("contract-sparse", ["contract", _write(work, f"contract{i}.json", m.to_obj(point))],
                               _check_contract(m, point)))

    # Sizes step evenly so that `check` costs form a continuum, with no
    # gap between size clusters for a percentile to fall into.
    checks = []
    big = []
    for i, n in enumerate(range(200, 501, 20)):
        m = _sparse_model(rng, n, names, 2, "m")
        big.append((m, files(m, f"big{i}")))
    for i in range(900):
        m, path = big[i % len(big)]
        w = rng.choice(m.worlds)
        f = _rand_formula(rng, 4, names)
        checks.append(Query("check", ["check", path, w, render(f)], _check_check(m, w, f)))

    return _interleave(rng, [(anchors, True), (sparse, False), (contracts, False),
                             (checks, False)])


WORKLOADS = {"frames": frames, "decide": decide, "models": models}
