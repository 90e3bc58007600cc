"""Isomorphism-reduced frame sweeps against brute force and labelled oracles.

The library sweeps one minimum-mask frame per isomorphism class; the
oracles in helpers walk every labelled frame with plain recursive truth and
first-order frame conditions.  Verdicts, counts and first witnesses must
agree exactly.
"""
import random

import pytest

from helpers import (
    brute_orbits,
    class_frames,
    labelled_definability,
    labelled_scan,
    labelled_search_sat,
    naive_has_property,
    naive_in_class,
    rand_formula,
    recursive_compile,
)
from lea import sweep
from lea.decide import satisfiable
from lea.formula import And, Box, Ess, Iff, Or, Var, parse, render, substitute
from lea.hilbert import KW_CON, System, soundness_scan
from lea.kripke import FrameClass, FrameProperty, Model, frame_worlds
from lea.semantics import check_definability, extension, satisfies
from lea.sweep import build_model


def _mask(succ):
    n = len(succ)
    return sum(row << (s * n) for s, row in enumerate(succ))


def test_compile_matches_recursive_oracle():
    # The explicit-stack compile gives the recursive compile's ops, in its
    # order, and its root: on trees, and on DAGs that share subterms by
    # identity as substitution does.
    rng = random.Random(2525)
    for i in range(600):
        f = rand_formula(rng, 1 + i % 5, names=("p", "q", "r"), lang="mixed")
        g = rand_formula(rng, 2, lang="mixed")
        for h in (f, And(f, Ess(f)), Iff(Box(g), Or(g, f)), substitute(KW_CON, {"p": f, "q": g})):
            prog = sweep.Prog(h)
            assert (prog.ops, prog.root) == recursive_compile(h), render(h)


def test_compile_depth_is_not_bounded_by_recursion():
    ws = [f"c{i}" for i in range(10)]
    chain = Model.make(ws, zip(ws, ws[1:]), {"p": ws[::3]})
    boxes = essences = Var("p")
    for _ in range(3000):
        boxes = Box(boxes)
    for _ in range(1200):
        essences = Ess(essences)
    # No path from c0 is 3,000 steps long.
    assert satisfies(chain, "c0", boxes)
    # o f holds where f fails, where f holds at the successor too, and where
    # there is no successor.
    holds = {w for w in ws if w in chain.val["p"]}
    for _ in range(1200):
        holds = {w for w, t in zip(ws, ws[1:] + [None]) if w not in holds or t in holds or t is None}
    assert extension(chain, essences) == frozenset(holds)


def test_frame_orbit_counts():
    for n, count in ((1, 2), (2, 10), (3, 104), (4, 3044)):
        orbits = sweep.frame_orbits(n)
        assert len(orbits) == count
        assert sum(size for _, size in orbits) == 2 ** (n * n)


def test_frame_orbits_match_brute_force():
    for n in (1, 2, 3):
        expect = brute_orbits(n)
        masks = sorted(m for orbit in expect.values() for m in orbit)
        assert masks == list(range(2 ** (n * n)))  # each mask in exactly one orbit
        got = sweep.frame_orbits(n)
        # one representative per orbit, its smallest mask, in mask order
        assert [_mask(succ) for succ, _ in got] == sorted(expect)
        assert [size for _, size in got] == [len(expect[_mask(succ)]) for succ, _ in got]


def test_frame_orbits_reject_sizes_out_of_range():
    with pytest.raises(ValueError):
        sweep.frame_orbits(0)
    with pytest.raises(ValueError):
        sweep.frame_orbits(6)


def test_class_frames_filter_orbits_in_size_then_mask_order():
    for cls in FrameClass:
        expect = [
            (n, succ, size)
            for n in (1, 2, 3)
            for succ, size in sweep.frame_orbits(n)
            if naive_in_class(build_model(frame_worlds(n), succ, (), 0), cls)
        ]
        assert list(class_frames(cls, 3)) == expect, cls.name


def test_orbit_tables_match_first_order_oracle_on_four_worlds():
    frames = [build_model(frame_worlds(4), succ, (), 0) for succ, _ in sweep.frame_orbits(4)]
    assert len(frames) == 3044
    for prop in FrameProperty:
        expect = bytes(naive_has_property(m, prop) for m in frames)
        assert sweep.orbit_property(4, prop) == expect, prop.name
    for cls in FrameClass:
        picked = [i for n, chunk in sweep.class_chunks(cls, 4, 0) if n == 4 for i in chunk]
        expect = [i for i, m in enumerate(frames) if naive_in_class(m, cls)]
        assert picked == expect, cls.name


def test_class_filter_runs_once_per_size(monkeypatch):
    sizes = []
    succ_in_class = sweep.succ_in_class

    def counted(n, *args):
        sizes.append(n)
        return succ_in_class(n, *args)

    monkeypatch.setattr(sweep, "succ_in_class", counted)
    list(sweep.class_chunks(FrameClass.KB, 4, 2))
    # One call per size, not one per orbit (2 + 10 + 104 + 3,044).
    assert sizes == [1, 2, 3, 4]


def test_sweeps_reject_bounds_out_of_range():
    f = parse("o p")
    for bound in (0, 6):
        frames = class_frames(FrameClass.K, bound)
        with pytest.raises(ValueError):
            next(frames)
        with pytest.raises(ValueError):
            next(sweep.class_chunks(FrameClass.K, bound, 1))
        with pytest.raises(ValueError):
            sweep.search_sat(f, FrameClass.TB, bound)
        with pytest.raises(ValueError):
            satisfiable(f, FrameClass.B5, bound)
        with pytest.raises(ValueError):
            soundness_scan(System.K_CIRC, FrameClass.K, bound)
        with pytest.raises(ValueError):
            check_definability(FrameProperty.COREFLEXIVE, f, bound)


DEFINABILITY_PAIRS = [
    # the criterion 4 pairs, all confirmed
    (FrameProperty.WEAKLY_TRANSITIVE, "o p & p -> o (o p & p)"),
    (FrameProperty.WEAKLY_CONNECTED, "o (o p & p -> q) | o (o q & q -> p)"),
    (FrameProperty.WEAK_WEAK_EUCLIDEAN, "~o ~p -> o (o ~p -> p)"),
    (FrameProperty.SYMMETRIC, "p -> o (o ~p -> p)"),
    (FrameProperty.COREFLEXIVE, "o p"),
    (FrameProperty.STRICT_TRANSITIVE3, "o p & p -> o (o p & p)"),
    (FrameProperty.STRICT_EUCLIDEAN3, "~o ~p -> o (o ~p -> p)"),
    # refuted in both directions
    (FrameProperty.REFLEXIVE, "o p"),
    (FrameProperty.TRANSITIVE, "o p & p -> o o p"),
    (FrameProperty.EUCLIDEAN, "~o ~p -> o (o ~p -> p)"),
    (FrameProperty.SERIAL, "o p & p -> o (o p & p)"),
    (FrameProperty.SYMMETRIC, "~p -> o p"),
    (FrameProperty.WEAKLY_CONNECTED, "p -> o (o ~p -> p)"),
    # no variable: a frame's block is narrower than a byte
    (FrameProperty.SERIAL, "<> T"),
    (FrameProperty.REFLEXIVE, "<> T"),
    # three variables: a block of 1,536 bits on three worlds
    (FrameProperty.COREFLEXIVE, "o (p & q | r)"),
    (FrameProperty.TRANSITIVE, "o (p & q | r)"),
]

# A chunk register of 48 bits holds six frames without variables, three
# two-world frames with one variable and a single three-world frame with
# one; a three-world block with two or three variables exceeds it alone.
# Sweeps then cut each size into several chunks and end on a short one.
SMALL_CHUNK_BITS = 48


def test_definability_matches_labelled_sweep():
    _definability_matches_labelled_sweep()


def test_definability_matches_labelled_sweep_in_small_chunks(monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK_BITS", SMALL_CHUNK_BITS)
    _definability_matches_labelled_sweep()


def _definability_matches_labelled_sweep():
    refuted = 0
    for prop, src in DEFINABILITY_PAIRS:
        f = parse(src)
        confirmed, direction, rel = labelled_definability(prop, f, 3)
        verdict = check_definability(prop, f, 3)
        assert verdict.confirmed == confirmed, (prop.name, src)
        assert verdict.direction == direction, (prop.name, src)
        if not confirmed:
            refuted += 1
            assert verdict.witness.rel == rel, (prop.name, src)
    assert refuted == 8


def test_soundness_scan_matches_labelled_sweep():
    _soundness_scan_matches_labelled_sweep()


def test_soundness_scan_matches_labelled_sweep_in_small_chunks(monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK_BITS", SMALL_CHUNK_BITS)
    _soundness_scan_matches_labelled_sweep()


def _soundness_scan_matches_labelled_sweep():
    for system in System:
        for cls in FrameClass:
            checked, failed, first = labelled_scan(system, cls, 3)
            report = soundness_scan(system, cls, 3)
            assert report.frames_checked == checked, (system.name, cls.name)
            assert report.failure_count == failed, (system.name, cls.name)
            got = None
            if report.failures:
                frame, name = report.failures[0]
                got = (frame.rel, name)
            assert got == first, (system.name, cls.name)
            assert bool(report) == (failed == 0)


def test_soundness_scan_lists_failures_frame_major():
    # Every failure, not only the first: frame by frame in (size, mask)
    # order, and within a frame in axiom order, as one frame_hit per
    # (frame, axiom) finds them.  Under KB5 some frames fail two axioms.
    for system in (System.K4_CIRC, System.KB5_CIRC):
        progs = [(name, sweep.Prog(schema)) for name, schema in system.axioms]
        expect, count = [], 0
        for n, succ, size in class_frames(FrameClass.K, 4):
            for name, prog in progs:
                if sweep.frame_hit(prog, n, succ, False) is not None:
                    expect.append((build_model(frame_worlds(n), succ, (), 0), name))
                    count += size
        report = soundness_scan(system, FrameClass.K, 4)
        assert len(expect) > 1000, system.name
        assert list(report.failures) == expect, system.name
        assert report.failure_count == count, system.name
    frames = [frame for frame, _ in report.failures]
    assert any(a == b for a, b in zip(frames, frames[1:]))


# Formulas without a variable, with p, with q and with both: one layout
# over p and q serves them all.
TOGETHER = ["[] F | <> <> T", "o p -> [] p", "<> q & ~o q", "o (p & q) | ~p & <> q"]


def test_chunk_hits_of_formulas_together_match_one_at_a_time(monkeypatch):
    _chunk_hits_together_match_one_at_a_time()
    monkeypatch.setattr(sweep, "CHUNK_BITS", SMALL_CHUNK_BITS)
    _chunk_hits_together_match_one_at_a_time()


def _chunk_hits_together_match_one_at_a_time():
    progs = [sweep.Prog(parse(text)) for text in TOGETHER]
    seen = set()
    for cls in FrameClass:
        for n, picked in sweep.class_chunks(cls, 3, 2):
            orbits = sweep.frame_orbits(n)
            for value in (False, True):
                together = sweep.chunk_hits(progs, n, picked, value)
                assert len(together) == len(progs)
                for text, prog, hits in zip(TOGETHER, progs, together):
                    assert hits == sweep.chunk_hits([prog], n, picked, value)[0], text
                    expect = bytes(
                        sweep.frame_hit(prog, n, orbits[i][0], value) is not None for i in picked
                    )
                    assert hits == expect, (cls.name, n, value, text)
                    seen.update(hits)
    assert seen == {0, 1}


def test_soundness_scan_builds_one_layout_per_chunk(monkeypatch):
    # A deterministic guard on the scan's shape: every axiom of a chunk is
    # evaluated over the one layout built for that chunk.
    layouts, evaluations = [], []
    layout, evaluate = sweep._chunk_layout, sweep.Prog.evaluate

    def counted_layout(*args):
        layouts.append(args[0])
        return layout(*args)

    def counted_evaluate(self, *args):
        evaluations.append(self)
        return evaluate(self, *args)

    monkeypatch.setattr(sweep, "_chunk_layout", counted_layout)
    monkeypatch.setattr(sweep.Prog, "evaluate", counted_evaluate)
    report = soundness_scan(System.K4_CIRC, FrameClass.K, 4)
    chunks = len(list(sweep.class_chunks(FrameClass.K, 4, 2)))
    assert chunks > 4 and report.failures
    assert len(layouts) == chunks
    assert len(evaluations) == chunks * len(System.K4_CIRC.axioms)


# Formulas outside rand_formula's two variables: two without a variable
# (the second has no model on serial frames), and two with three, whose
# first models have three and two worlds.
SEARCH_EXTRA = [
    "<> T & <> <> T",
    "[] F | <> [] F",
    "~p & <> (p & q & ~r) & <> (p & ~q & r)",
    "o (p | q) & ~o r & r",
]


def test_search_sat_matches_labelled_sweep():
    _search_sat_matches_labelled_sweep()


def test_search_sat_matches_labelled_sweep_in_small_chunks(monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK_BITS", SMALL_CHUNK_BITS)
    _search_sat_matches_labelled_sweep()


def _search_sat_matches_labelled_sweep():
    rng = random.Random(4044)
    formulas = [rand_formula(rng, 3, lang="mixed") for _ in range(40)]
    formulas += [parse(src) for src in SEARCH_EXTRA]
    hits = misses = 0
    for f in formulas:
        for cls in FrameClass:
            expect = labelled_search_sat(f, cls, 3)
            assert sweep.search_sat(f, cls, 3) == expect, (cls.name, render(f))
            if expect is None:
                misses += 1
            else:
                hits += 1
    assert hits and misses


def test_search_sat_evaluates_each_chunk_once(monkeypatch):
    # The hit's (valuation, world) comes from the chunk's own register: no
    # frame is evaluated a second time once its chunk has a hit.
    monkeypatch.setattr(sweep, "CHUNK_BITS", SMALL_CHUNK_BITS)
    cases = [("p", FrameClass.TB), ("o p & <> p & <> ~p", FrameClass.TB),
             ("<> p & <> ~p & [] q", FrameClass.B5), ("p & ~p", FrameClass.TB)]
    for text, cls in cases:
        f = parse(text)
        prog = sweep.Prog(f)
        chunks = 0
        for n, picked in sweep.class_chunks(cls, 3, len(prog.names)):
            chunks += 1
            if 1 in sweep.chunk_hits([prog], n, picked, True)[0]:
                break
        calls = []
        evaluate = sweep.Prog.evaluate

        def counting(self, full, var_regs, step):
            calls.append(full)
            return evaluate(self, full, var_regs, step)

        with monkeypatch.context() as patch:
            patch.setattr(sweep.Prog, "evaluate", counting)
            hit = sweep.search_sat(f, cls, 3)
        assert hit == labelled_search_sat(f, cls, 3), text
        assert len(calls) == chunks, text
    assert chunks > 1


def test_definability_evaluates_a_chunk_at_a_time(monkeypatch):
    # A deterministic guard on the sweep's shape, without timing: a change
    # that falls back to one evaluation per frame, or packs every frame
    # into one register, fails here.
    widths = []
    evaluate = sweep.Prog.evaluate

    def counting(self, full, var_regs, step):
        widths.append(full.bit_length())
        return evaluate(self, full, var_regs, step)

    monkeypatch.setattr(sweep.Prog, "evaluate", counting)
    f = parse("o (o p & p -> q) | o (o q & q -> p)")
    assert check_definability(FrameProperty.WEAKLY_CONNECTED, f, 4)
    orbits = sum(len(sweep.frame_orbits(n)) for n in range(1, 5))
    assert orbits == 3160
    assert len(widths) * 50 < orbits
    block = 4 << (4 * 2)  # four worlds, two variables
    assert max(widths) <= sweep.CHUNK_BITS + block


def test_bit_pattern_is_definitional():
    # Bit v*n + s of variable j's register (n worlds, k variables) is bit
    # n*j + s of v: its truth at world s under valuation v.
    for n in range(1, 11):
        for k in range(1, 10 // n + 1):
            full, _, regs = sweep._valuation_registers(n, k)
            assert full == (1 << (n << (n * k))) - 1, (n, k)
            for j, reg in enumerate(regs):
                want = sum(
                    1 << (v * n + s)
                    for v in range(1 << (n * k))
                    for s in range(n)
                    if (v >> (n * j + s)) & 1
                )
                assert reg == want, (n, k, j)
