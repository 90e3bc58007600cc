import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import lea
from helpers import naive_satisfies, reference_cli_parser
from lea.cli import _read_argv, main
from lea.formula import And, Or, Var, parse, render
from lea.hilbert import gen_conj_derivation, render_derivation
from lea.kripke import Model, model_from_obj, model_to_json

LOOP = '{"worlds": ["s"], "rel": [["s", "s"]], "val": {"p": ["s"]}}'
ISOLATED = '{"worlds": ["t"], "rel": [], "val": {"p": ["t"]}}'
SERIAL_A = (
    '{"worlds": ["s", "t"], "rel": [["s", "t"], ["t", "t"], ["t", "s"]],'
    ' "val": {"p": ["s"]}, "point": "s"}'
)
SERIAL_B = (
    '{"worlds": ["s2", "t2"], "rel": [["s2", "t2"], ["t2", "s2"]],'
    ' "val": {"p": ["s2"]}}'
)


@pytest.fixture
def models(tmp_path):
    files = {}
    for name, text in (
        ("loop", LOOP),
        ("isolated", ISOLATED),
        ("serial_a", SERIAL_A),
        ("serial_b", SERIAL_B),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        files[name] = str(path)
    return files


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(models, capsys):
    code, out, _ = run(capsys, "check", models["loop"], "s", "o p")
    assert code == 0
    assert out.strip() == "true: o p at s"
    code, out, _ = run(capsys, "check", models["serial_a"], "s", "o p")
    assert code == 1
    # the point recorded in the file is the default world
    code, out, _ = run(capsys, "check", models["serial_a"], "p")
    assert code == 0


def test_bisim_flavors(models, capsys):
    code, _, _ = run(capsys, "bisim", models["loop"], "s", models["isolated"], "t", "--circ")
    assert code == 0
    code, _, _ = run(capsys, "bisim", models["loop"], "s", models["isolated"], "t", "--box")
    assert code == 1
    code, out, _ = run(capsys, "bisim", models["loop"], "s", models["isolated"], "t", "--json")
    payload = json.loads(out)
    assert payload["answer"] is True
    assert ["L:s", "R:t"] in payload["certificate"]["pairs"]


def test_define_symmetric(capsys):
    code, out, _ = run(capsys, "define", "symmetric", "p -> o (o ~p -> p)", "--max-n", "4")
    assert code == 0
    assert out.strip() == "Confirmed up to n=4"
    code, out, _ = run(capsys, "define", "reflexive", "o p", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["answer"] is False
    assert payload["witness"]["worlds"]


def test_sat_and_valid(capsys):
    code, out, _ = run(capsys, "sat", "o p & ~p", "--class", "K", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["method"] == "tableau"
    assert set(payload["witness"]) == {"worlds", "rel", "val", "point"}

    code, out, _ = run(capsys, "valid", "[] p -> p", "--class", "T")
    assert code == 0
    code, out, _ = run(capsys, "valid", "[] p -> p", "--class", "K", "--json")
    assert code == 1
    assert json.loads(out)["witness"] is not None


def test_unknown_is_negative_exit(capsys):
    code, out, _ = run(capsys, "sat", "p & ~p", "--class", "B5")
    assert code == 1
    assert "unknown" in out
    code, out, _ = run(capsys, "sat", "p & ~p", "--class", "B5", "--json")
    assert json.loads(out)["answer"] is None


def test_sat_reports_stats(capsys):
    code, out, _ = run(capsys, "sat", "(p | q) & ~p", "--class", "S4", "--json")
    assert code == 0
    # ~p settles p | q by propagation: q is added and no choice point opens.
    assert json.loads(out)["stats"] == {"expansions": 4, "choice_points": 0, "backjumps": 0}
    code, out, _ = run(capsys, "valid", "[] p -> p", "--class", "K", "--json")
    assert code == 1
    assert json.loads(out)["stats"]["expansions"] > 0


@pytest.mark.parametrize("cls", ["K", "S5"])
def test_sat_wide_conjunction(cls, capsys):
    """1,500 choice points on one branch: the search keeps them on an
    explicit stack, not on the interpreter's."""

    def balanced(parts):
        if len(parts) == 1:
            return parts[0]
        mid = len(parts) // 2
        return And(balanced(parts[:mid]), balanced(parts[mid:]))

    f = balanced([Or(Var(f"a{i}"), Var(f"b{i}")) for i in range(1500)])
    code, out, _ = run(capsys, "sat", render(f), "--class", cls, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["stats"]["choice_points"] == 1500
    model, point = model_from_obj(payload["witness"])
    assert naive_satisfies(model, point, f)


def test_valid_on_frame(models, capsys):
    code, _, _ = run(capsys, "valid", "[] p -> p", "--frame", models["loop"])
    assert code == 0
    code, out, _ = run(capsys, "valid", "[] p -> p", "--frame", models["isolated"], "--json")
    assert code == 1
    assert json.loads(out)["witness"]["point"] == "t"


def test_valid_on_frame_witness_keeps_frame(tmp_path, capsys):
    frame = {
        "worlds": ["a", "b", "c"],
        "rel": [["a", "b"], ["b", "c"], ["c", "a"], ["c", "c"]],
        "val": {"p": ["a"]},
    }
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame))
    f = parse("o p & o q -> o (p | q) & ([] q -> q)")
    code, out, _ = run(capsys, "valid", "o p & o q -> o (p | q) & ([] q -> q)",
                       "--frame", str(path), "--json")
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["worlds"] == frame["worlds"]
    assert sorted(witness["rel"]) == sorted(frame["rel"])
    model, point = model_from_obj(witness)
    assert set(model.val) == {"p", "q"}
    assert not naive_satisfies(model, point, f)


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "to-ml", "o o p")
    assert code == 0
    assert out.strip() == "(p -> [] p) -> [] (p -> [] p)"
    code, out, _ = run(capsys, "translate", "to-lea", "[] [] p")
    assert out.strip() == "o (o p & p) & (o p & p)"
    code, _, err = run(capsys, "translate", "to-lea", "o p")
    assert code == 2
    assert "error" in err


def test_contract(models, capsys):
    code, out, _ = run(capsys, "contract", models["serial_a"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["worlds"]) == 2
    assert payload["point"] in payload["worlds"]
    assert set(payload["classes"]) == {"s", "t"}


def test_contract_keeps_a_point_named_by_the_empty_string(tmp_path, capsys):
    path = tmp_path / "empty_point.json"
    path.write_text('{"worlds": ["", "a"], "rel": [], "val": {}, "point": ""}')
    code, out, _ = run(capsys, "contract", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == "[]"


def test_prove_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "genproof", "4")
    assert code == 0
    proof = tmp_path / "conj4.txt"
    proof.write_text(out)
    code, out, _ = run(capsys, "prove", "K", str(proof))
    assert code == 0
    assert "accepted" in out

    broken = tmp_path / "broken.txt"
    broken.write_text("1. o p   [axiom KwTop]\n")
    code, out, _ = run(capsys, "prove", "K", str(broken))
    assert code == 1
    assert "rejected at line 1" in out


def test_prove_accepts_genproof_up_to_the_atom_limit(tmp_path, capsys):
    # genproof N needs a tautology over N + 2 atoms: 18 is the largest N
    # within the 20-atom limit.  Past it the line is not checked, so the
    # answer is unknown, not a rejection.
    limit = "tautology check over 21 atoms exceeds the limit of 20"
    for n, want_code, want_text, want_json in (
        (18, 0, "accepted (65 lines)", {"answer": True, "lines": 65}),
        (19, 1, f"unknown: line 67: {limit}",
         {"answer": None, "line": 67, "reason": limit}),
    ):
        code, out, _ = run(capsys, "genproof", str(n))
        assert code == 0
        proof = tmp_path / f"conj{n}.txt"
        proof.write_text(out)
        code, out, _ = run(capsys, "prove", "K", str(proof))
        assert (code, out.strip()) == (want_code, want_text)
        code, out, _ = run(capsys, "prove", "K", str(proof), "--json")
        assert (code, json.loads(out)) == (want_code, want_json)


def test_genproof_bad_n(capsys):
    code, _, err = run(capsys, "genproof", "1")
    assert code == 2
    assert "at least 2" in err


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "K", "--class", "K", "--max-n", "2")
    assert code == 0
    assert "no failures" in out
    code, out, _ = run(capsys, "scan", "K4", "--class", "K", "--max-n", "3", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["answer"] is False
    assert payload["failures"][0]["axiom"] == "KwTr"


# One query per kind of reply: the JSON "answer" it must give (ABSENT for
# the commands that only compute) and its argv, where {name} is a file of
# the reply_files fixture.
ABSENT = "absent"
REPLIES = {
    "check-true": (True, ["check", "{loop}", "s", "o p"]),
    "check-false": (False, ["check", "{serial_a}", "s", "o p"]),
    "valid-true": (True, ["valid", "[] p -> p", "--class", "T"]),
    "valid-false": (False, ["valid", "[] p -> p", "--class", "K"]),
    "valid-frame-true": (True, ["valid", "[] p -> p", "--frame", "{loop}"]),
    "valid-frame-false": (False, ["valid", "[] p -> p", "--frame", "{isolated}"]),
    "sat-true": (True, ["sat", "o p & ~p", "--class", "K"]),
    "sat-false": (False, ["sat", "p & ~p", "--class", "K"]),
    "bisim-true": (True, ["bisim", "{loop}", "s", "{isolated}", "t"]),
    "bisim-false": (False, ["bisim", "{loop}", "s", "{isolated}", "t", "--box"]),
    "define-true": (True, ["define", "symmetric", "p -> o (o ~p -> p)", "--max-n", "3"]),
    "define-false": (False, ["define", "reflexive", "o p"]),
    "prove-true": (True, ["prove", "K", "{conj4}"]),
    "prove-false": (False, ["prove", "K", "{broken}"]),
    "scan-true": (True, ["scan", "K", "--class", "K", "--max-n", "2"]),
    "scan-false": (False, ["scan", "K4", "--class", "K", "--max-n", "3"]),
    "unknown-bounded-search": (None, ["sat", "p & ~p", "--class", "TB"]),
    "unknown-valuation-limit": (None, ["valid", "o p & o q -> o (p & q)", "--frame", "{cycle11}"]),
    "unknown-atom-limit": (None, ["prove", "K", "{conj19}"]),
    "unknown-translation-size": (None, ["translate", "to-ml", "o " * 300 + "p"]),
    "sat-deep-parentheses": (True, ["sat", "(" * 5000 + "p" + ")" * 5000, "--class", "K"]),
    "contract": (ABSENT, ["contract", "{serial_a}"]),
    "translate": (ABSENT, ["translate", "to-ml", "o o p"]),
    "genproof": (ABSENT, ["genproof", "3"]),
}


@pytest.fixture
def reply_files(models, tmp_path):
    ws = [f"c{i}" for i in range(11)]
    texts = {
        "conj4": render_derivation(gen_conj_derivation(4)),
        "conj19": render_derivation(gen_conj_derivation(19)),
        "broken": "1. o p   [axiom KwTop]\n",
        "cycle11": model_to_json(Model.make(ws, zip(ws, ws[1:] + ws[:1]))),
    }
    files = dict(models)
    for name, text in texts.items():
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    return files


@pytest.mark.parametrize("want, argv", REPLIES.values(), ids=REPLIES)
def test_reply_rule(reply_files, capsys, want, argv):
    # Exit 0 exactly when the answer is true or absent, and `unknown: `
    # exactly before the text line of a null answer.
    argv = [a.format(**reply_files) if a.startswith("{") else a for a in argv]
    code, line, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--json")
    answer = json.loads(out).get("answer", ABSENT)
    assert answer is want
    assert code == json_code == (0 if answer in (True, ABSENT) else 1)
    assert line.startswith("unknown: ") == (answer is None)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "nosuch.json", "s", "p"),
        ("sat", "p &", "--class", "K"),
        ("sat", "p", "--class", "Q9"),
        ("define", "shiny", "o p"),
        ("sat", "@nosuch.formula", "--class", "K"),
        ("prove", "Z3", "x.txt"),
    ],
)
def test_input_errors_exit_2(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("bound", ["0", "6"])
@pytest.mark.parametrize(
    "argv",
    [
        ("define", "coreflexive", "o p"),
        ("scan", "K", "--class", "K"),
        ("sat", "p", "--class", "TB"),
    ],
)
def test_max_n_out_of_range_is_input_error(argv, bound, capsys):
    # Rejected before any sweep: at 6 a sweep would run for about 40 s.
    code, out, err = run(capsys, *argv, "--max-n", bound)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-n must be between 1 and 5")


def test_unknown_world_is_input_error(models, capsys):
    code, _, err = run(capsys, "check", models["loop"], "zz", "p")
    assert code == 2
    code, _, err = run(capsys, "bisim", models["loop"], "zz", models["isolated"], "t")
    assert code == 2
    code, _, err = run(capsys, "check", models["loop"], "p")
    assert code == 2
    assert err == "error: no world given and the model file has no point\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sat", "p", "--class", "K", "--frobnicate"])
    assert exc.value.code == 2


def test_global_flag_positions(models, capsys):
    early_code, early_out, _ = run(capsys, "--json", "check", models["loop"], "s", "p")
    late_code, late_out, _ = run(capsys, "check", models["loop"], "s", "p", "--json")
    assert early_code == late_code == 0
    assert early_out == late_out
    assert json.loads(early_out)["answer"] is True
    # Between check's positionals too: they are assigned by count.
    for argv in (
        ("check", models["loop"], "--json", "s", "p"),
        ("check", models["loop"], "s", "--json", "p"),
        ("check", models["loop"], "s", "--max-n", "2", "p", "--json"),
        ("check", models["loop"], "--js", "--max-n=2", "s", "p"),
    ):
        assert run(capsys, *argv) == (0, early_out, ""), argv
    code, out, _ = run(capsys, "check", models["serial_a"], "--json", "p")
    assert code == 0 and json.loads(out)["world"] == "s"


def test_json_deterministic(models, capsys):
    args = ("bisim", models["serial_a"], "s", models["serial_b"], "s2", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_formula_from_file(tmp_path, capsys):
    path = tmp_path / "f.lea"
    path.write_text("o p & A p\n")
    code, _, _ = run(capsys, "sat", f"@{path}", "--class", "K")
    assert code == 1


def test_commands_without_frame_sweeps_build_no_orbits():
    # A fresh interpreter, so that neither importing lea nor a command that
    # sweeps no frames pays for the orbit tables.
    code = (
        "import sys\n"
        "from lea import sweep\n"
        "from lea.cli import main\n"
        "assert 'argparse' not in sys.modules\n"
        "main(['translate', 'to-ml', 'o o p'])\n"
        "print(sweep.frame_orbits.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lea.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout.split()
    assert out[-1] == "0"


def test_one_process_per_command():
    """The console script's path: a fresh interpreter per command line."""
    setup = _cli(["translate", "to-ml", "o o p"], 0)
    assert (setup.returncode, setup.stdout, setup.stderr) == (
        0, "(p -> [] p) -> [] (p -> [] p)\n", "")
    bare = _cli([], 0)
    assert (bare.returncode, bare.stdout) == (2, "")
    assert bare.stderr.startswith("usage: lea") and "lea: error: " in bare.stderr
    top = _cli(["--help"], 0)
    assert top.returncode == 0 and top.stderr == ""
    arguments = {
        "check": ("MODEL", "WORLD", "FORMULA"), "valid": ("FORMULA", "--class", "--frame"),
        "sat": ("FORMULA", "--class"), "bisim": ("MODEL_A", "POINT_A", "MODEL_B", "POINT_B",
                                               "--circ", "--box"),
        "contract": ("MODEL",), "translate": ("to-ml", "to-lea", "FORMULA"),
        "define": ("PROPERTY", "FORMULA"), "prove": ("SYSTEM", "FILE"),
        "scan": ("SYSTEM", "--class"), "genproof": ("N",),
    }
    for command, names in arguments.items():
        assert f"  {command} " in top.stdout
        done = _cli([command, "--help"], 0)
        assert done.returncode == 0 and done.stderr == "", command
        for name in names + ("--json", "--max-n", "--help"):
            assert name in done.stdout, (command, name)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lea", "translate", "to-ml", "o p"])
    assert main() == 0
    assert capsys.readouterr().out == "p -> [] p\n"


def test_no_flag_leaks_between_calls(models, capsys):
    # No flag of one call to main may reach the next.
    formula = "p -> o (o ~p -> p)"
    code, out, _ = run(capsys, "--json", "check", models["loop"], "s", "p")
    assert code == 0 and json.loads(out)["answer"] is True
    code, out, _ = run(capsys, "check", models["loop"], "s", "p")
    assert code == 0 and out.strip() == "true: p at s"
    code, out, _ = run(capsys, "check", models["loop"], "s", "p", "--json")
    assert code == 0 and json.loads(out)["answer"] is True
    code, out, _ = run(capsys, "define", "symmetric", formula, "--max-n", "2", "--json")
    assert code == 0 and json.loads(out)["max_n"] == 2
    code, out, _ = run(capsys, "--max-n", "2", "define", "symmetric", formula)
    assert code == 0 and out.strip() == "Confirmed up to n=2"
    code, out, _ = run(capsys, "define", "symmetric", formula)
    assert code == 0 and out.strip() == "Confirmed up to n=3"
    code, out, _ = run(capsys, "define", "symmetric", formula, "--json")
    assert code == 0 and json.loads(out)["max_n"] == 3
    code, out, _ = run(capsys, "check", models["loop"], "s", "p")
    assert code == 0 and out.strip() == "true: p at s"


def _cli(argv, seed):
    """Run the CLI in a fresh interpreter under the given hash seed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lea.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, "-m", "lea.cli", *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "obj, culprit",
    [
        ({"worlds": ["a"], "rel": [], "val": {"p": ["x", "y", "z", "a"]}}, "unknown world 'x'"),
        ({"worlds": ["a"], "rel": [["a", "a"], ["x", "a"], ["a", "y"], ["z", "z"]], "val": {}},
         "unknown world in ('x', 'a')"),
        ([{"worlds": ["a"], "rel": [], "val": {}}], "model must be a JSON object"),
    ],
    ids=["val", "rel", "list"],
)
def test_loader_errors_do_not_depend_on_hash_seed(tmp_path, obj, culprit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    runs = [_cli(["check", str(path), "a", "p"], seed) for seed in (1, 2, 3)]
    assert [r.returncode for r in runs] == [2, 2, 2]
    assert all(r.stdout == "" for r in runs)
    assert runs[0].stderr == runs[1].stderr == runs[2].stderr
    assert culprit in runs[0].stderr


def test_sat_output_does_not_depend_on_hash_seed():
    """Tableau witnesses and costs are the same in every interpreter: NNF
    ids follow the formula's traversal order, not hashing."""
    formulas = [
        "(a | ~b | o (b | c | ~a)) & (~a | b | [] ~c) & (c | ~o (a | b | c) | ~b) & <> a",
        "(a | b | c) & (~a | ~b) & (~b | ~c) & (~a | ~c) & [] (a | ~c) & <> ~a & <> c",
    ]
    for text in formulas:
        for cls in ("K", "S4", "S5"):
            runs = [_cli(["sat", text, "--class", cls, "--json"], seed) for seed in (1, 2)]
            assert runs[0].returncode in (0, 1)
            assert json.loads(runs[0].stdout)["stats"]["expansions"] > 0
            assert runs[0].stdout == runs[1].stdout, (text, cls)
            assert runs[0].returncode == runs[1].returncode


_SEED_SCRIPT = """
import sys
from lea.bisim import bounded_equivalent
from lea.cli import main
from lea.formula import render
from lea.kripke import Model, PointedModel

# A root with six successors against an isolated world: p and q each
# separate at depth 2, and successor order picks which.
ts = [f"t{i}" for i in range(6)]
a = PointedModel(Model.make(["r", *ts], [("r", t) for t in ts],
                            {"p": ts[0::2], "q": ts[1::2], "s": ts[:2]}), "r")
b = PointedModel(Model.make(["u"]), "u")
print(render(bounded_equivalent(a, b, ("p", "q", "s"), 2)))
cycle, pair = sys.argv[1:]
for argv in (["bisim", cycle, "a0", pair, "b0", "--json"],
             ["bisim", cycle, "a0", pair, "b0", "--box", "--json"],
             ["contract", cycle, "--json"],
             ["sat", "o (p | <> q) & <> ~p & <> (q & <> p)", "--class", "K", "--json"]):
    print(main(argv))
"""


def test_answers_do_not_depend_on_hash_seed(tmp_path):
    # Six fresh interpreters, one hash seed each, print the same bytes:
    # a separator, bisim certificates (circ and box), a quotient and a
    # tableau witness.
    ws = [f"a{i}" for i in range(4)]
    cycle, pair = tmp_path / "cycle.json", tmp_path / "pair.json"
    cycle.write_text(model_to_json(Model.make(ws, zip(ws, ws[1:] + ws[:1]), {"p": ws[::2]})))
    pair.write_text(model_to_json(Model.make(["b0", "b1"], [("b0", "b1"), ("b1", "b0")],
                                             {"p": ["b0"]})))
    src = os.path.dirname(os.path.dirname(os.path.abspath(lea.__file__)))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT, str(cycle), str(pair)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
            capture_output=True, timeout=60,
        )
        for seed in range(6)
    ]
    assert all(r.returncode == 0 and r.stderr == b"" for r in runs), runs[0].stderr
    assert runs[0].stdout.decode().splitlines()[0] == "~o ~p"
    assert all(r.stdout == runs[0].stdout for r in runs)


@pytest.mark.parametrize("bad", ["missing", "directory", "latin-1"])
@pytest.mark.parametrize(
    "argv, kind",
    [
        (["check", "{bad}", "s", "p"], "model"),
        (["contract", "{bad}"], "model"),
        (["bisim", "{bad}", "s", "{good}", "s"], "model"),
        (["bisim", "{good}", "s", "{bad}", "s"], "model"),
        (["valid", "p", "--frame", "{bad}"], "model"),
        (["sat", "@{bad}", "--class", "K"], "formula"),
        (["prove", "K", "{bad}"], "derivation"),
    ],
    ids=["check", "contract", "bisim-a", "bisim-b", "valid-frame", "sat-formula", "prove"],
)
def test_unreadable_file_is_input_error(tmp_path, capsys, argv, kind, bad):
    good = tmp_path / "good.json"
    good.write_text(LOOP)
    paths = {"missing": tmp_path / "nosuch", "directory": tmp_path, "latin-1": tmp_path / "bad"}
    paths["latin-1"].write_bytes(b"o p \xe9\n")
    argv = [a.format(bad=paths[bad], good=good) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {kind} file: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sat", "@{file}", "--class", "K"], "o p & ~p"),
        (["check", "{file}", "s", "o p"], LOOP),
        (["prove", "K", "{file}"], "1. p -> p   [taut]\n2. o T   [axiom KwTop]\n"),
    ],
    ids=["formula", "model", "derivation"],
)
def test_utf8_byte_order_mark_is_skipped(tmp_path, capsys, argv, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    outcomes = [run(capsys, *[a.format(file=path) for a in argv]) for path in (plain, marked)]
    assert outcomes[0][0] == 0
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("just", ["mp ² 1", "r ³", "sub ² p:=q"], ids=["mp", "r", "sub"])
def test_prove_rejects_non_ascii_line_numbers(tmp_path, capsys, just):
    path = tmp_path / "d.txt"
    path.write_text(f"1. p -> p   [taut]\n2. q -> q   [{just}]\n", encoding="utf-8")
    code, out, err = run(capsys, "prove", "K", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: derivation syntax: line 2: ")


def test_refuted_valid_frame_sweeps_once(models, capsys, monkeypatch):
    runs = []
    real = lea.sweep.Prog.run

    def spy(self, n, succ):
        runs.append(n)
        return real(self, n, succ)

    monkeypatch.setattr(lea.sweep.Prog, "run", spy)
    code, out, _ = run(capsys, "valid", "[] p -> p", "--frame", models["isolated"], "--json")
    assert code == 1
    assert json.loads(out)["witness"]["point"] == "t"
    assert runs == [1]


def test_failed_replay_is_an_internal_error(capsys, monkeypatch):
    # A witness that fails its own replay is a fault of lea, not of the
    # input: exit 3, no verdict.
    monkeypatch.setattr(lea.decide, "satisfies", lambda m, w, f: False)
    code, out, err = run(capsys, "sat", "p", "--class", "K")
    assert (code, out) == (3, "")
    assert err == "internal error: witness failed replay\n"


def test_affirmative_circ_bisim_refines_once(models, capsys, monkeypatch):
    calls = []
    real = lea.bisim._blocks

    def spy(m, exempt):
        calls.append(exempt)
        return real(m, exempt)

    monkeypatch.setattr(lea.bisim, "_blocks", spy)
    code, out, _ = run(capsys, "bisim", models["loop"], "s", models["isolated"], "t", "--json")
    assert code == 0
    assert ["L:s", "R:t"] in json.loads(out)["certificate"]["pairs"]
    assert calls == [True]


def test_negative_circ_bisim_refines_once_and_builds_no_pairs(models, capsys, monkeypatch):
    calls = []
    real_blocks, real_classes = lea.bisim._blocks, lea.bisim._classes

    def blocks(m, exempt):
        calls.append(exempt)
        return real_blocks(m, exempt)

    def classes(*args):
        calls.append("classes")
        return real_classes(*args)

    monkeypatch.setattr(lea.bisim, "_blocks", blocks)
    monkeypatch.setattr(lea.bisim, "_classes", classes)
    code, out, _ = run(capsys, "bisim", models["serial_a"], "s", models["isolated"], "t", "--json")
    assert code == 1
    assert json.loads(out) == {"answer": False, "flavor": "circ"}
    assert calls == [True]


def test_check_on_a_5000_world_chain(tmp_path, capsys):
    ws = [f"c{i}" for i in range(5000)]
    m = Model.make(ws, zip(ws, ws[1:]), {"p": ws[::2]})
    path = tmp_path / "chain.json"
    path.write_text(model_to_json(m))
    for world, text in (
        ("c0", "o p"),
        ("c1", "o p"),
        ("c4998", "p & [] ~p & <> T"),
        ("c4999", "[] F & ~p"),
        ("c4996", "<> <> <> ~p"),
        ("c2", "o ~o p"),
    ):
        want = naive_satisfies(m, world, parse(text))
        code, out, _ = run(capsys, "--json", "check", str(path), world, text)
        assert code == (0 if want else 1), (world, text)
        assert json.loads(out)["answer"] is want


def test_check_leaves_lazy_index_fields_unbuilt(tmp_path, capsys, monkeypatch):
    # check reads succ and val_bits; pred and sig wait for a caller that
    # needs them.
    ws = [f"w{i}" for i in range(300)]
    m = Model.make(ws, zip(ws, ws[7:] + ws[:7]), {"p": ws[::3], "q": ws[::5]})
    path = tmp_path / "big.json"
    path.write_text(model_to_json(m))
    seen = []
    real = lea.cli.satisfies

    def spy(model, world, f):
        seen.append(model)
        return real(model, world, f)

    monkeypatch.setattr(lea.cli, "satisfies", spy)
    assert main(["check", str(path), "w3", "o (p -> [] q) | o ~q"]) in (0, 1)
    capsys.readouterr()
    (model,) = seen
    assert "index" in model.__dict__
    assert "pred" not in model.index.__dict__
    assert "sig" not in model.index.__dict__
    # The loaded model carries its index; check never reads rel or val.
    assert "rel" not in model.__dict__ and "val" not in model.__dict__


def test_bisim_refutations_leave_rel_and_val_unbuilt(tmp_path, capsys, monkeypatch):
    # bisim reads succ rows and atom names off each file's index; only an
    # affirmative circ answer builds the union its certificate is over.
    ws = [f"w{i}" for i in range(40)]
    a = Model.make(ws, zip(ws, ws[1:] + ws[:1]), {"p": ws[::2]})
    b = Model.make(ws, zip(ws, ws[1:] + ws[:1]), {"p": ws[::2], "q": ws[:1]})
    paths = []
    for name, m in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(model_to_json(m))
    loaded = []
    real = lea.cli.model_from_json

    def spy(text):
        loaded.append(real(text))
        return loaded[-1]

    monkeypatch.setattr(lea.cli, "model_from_json", spy)
    for flag in ([], ["--box"]):
        argv = ["bisim", str(paths[0]), "w0", str(paths[1]), "w0", *flag]
        assert main(argv) == 1
        assert main(argv + ["--json"]) == 1
    capsys.readouterr()
    assert len(loaded) == 8
    for model, _ in loaded:
        assert "rel" not in model.__dict__ and "val" not in model.__dict__


def test_valid_frame_on_a_ten_world_cycle(tmp_path, capsys):
    # 2^20 valuations of two variables, in patterns of 2^20 bits.
    ws = [f"c{i}" for i in range(10)]
    path = tmp_path / "cycle.json"
    path.write_text(model_to_json(Model.make(ws, zip(ws, ws[1:] + ws[:1]))))
    code, out, _ = run(capsys, "valid", "o p & o q -> o (p & q)", "--frame", str(path))
    assert code == 0 and out.strip() == "valid on frame"
    code, out, _ = run(capsys, "valid", "o p -> p | q", "--frame", str(path))
    assert code == 1


def test_valid_frame_past_the_valuation_limit_is_unknown(tmp_path, capsys):
    # 2^22 valuations of two variables on eleven worlds: a stated limit.
    ws = [f"c{i}" for i in range(11)]
    path = tmp_path / "cycle.json"
    path.write_text(model_to_json(Model.make(ws, zip(ws, ws[1:] + ws[:1]))))
    reason = "frame sweep over 2^22 valuations (11 worlds, 2 variables) exceeds the limit of 2^20"
    argv = ["valid", "o p & o q -> o (p & q)", "--frame", str(path)]
    code, out, _ = run(capsys, *argv)
    assert (code, out.strip()) == (1, f"unknown: {reason}")
    code, out, _ = run(capsys, *argv, "--json")
    assert (code, json.loads(out)) == (1, {"answer": None, "method": "frame-sweep", "reason": reason})


def test_scan_builds_only_the_models_it_prints(monkeypatch, capsys):
    # A scan lists its first five failures; the frames of the other
    # thousands are never built into models.
    built = []
    real = lea.sweep.build_model

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lea.sweep, "build_model", spy)
    code, out, _ = run(capsys, "scan", "K4", "--class", "K", "--max-n", "4", "--json")
    payload = json.loads(out)
    assert code == 1 and len(payload["failures"]) == 5
    assert len(built) <= 5


@pytest.mark.parametrize(
    "argv, line",
    [
        (["sat", "(" * 1000 + "p" + ")" * 1000, "--class", "K"], "satisfiable in K"),
        (["check", "{model}", "s", "~" * 600 + "p"], "true: " + "~" * 600 + "p at s"),
    ],
    ids=["parse", "render"],
)
def test_deep_nesting_is_answered(tmp_path, argv, line):
    # No walk recurses, so nesting past the recursion limit gets an answer.
    path = tmp_path / "one.json"
    path.write_text('{"worlds": ["s"], "rel": [], "val": {"p": ["s"]}}')
    argv = [a.replace("{model}", str(path)) for a in argv]
    text, js = _cli(argv, 0), _cli(argv + ["--json"], 0)
    assert (text.returncode, text.stdout, text.stderr) == (0, line + "\n", "")
    assert (js.returncode, js.stderr, json.loads(js.stdout)["answer"]) == (0, "", True)


DEEP = 100_000


@pytest.mark.parametrize(
    "argv, text, line",
    [
        (["sat", "@{f}", "--class", "K"], "(" * DEEP + "p" + ")" * DEEP, "satisfiable in K"),
        (["sat", "@{f}", "--class", "K"], "[] " * DEEP + "p", "satisfiable in K"),
        (["check", "{model}", "s", "@{f}"], "~" * DEEP + "p", "true: " + "~" * DEEP + "p at s"),
        (["translate", "to-lea", "@{f}"], "q -> " * DEEP + "[] p", "q -> " * DEEP + "o p & p"),
        (["prove", "K", "{f}"], "1. " + "p -> " * DEEP + "p   [taut]\n", "accepted (1 lines)"),
    ],
    ids=["parse", "sat", "check", "translate-to-lea", "prove"],
)
def test_nesting_depth_of_100000(tmp_path, argv, text, line):
    # A formula file, since one argv string holds at most 128 KiB on Linux.
    model, f = tmp_path / "one.json", tmp_path / "deep"
    model.write_text('{"worlds": ["s"], "rel": [], "val": {"p": ["s"]}}')
    f.write_text(text)
    argv = [a.format(model=model, f=f) for a in argv]
    out = _cli(argv, 0)
    assert (out.returncode, out.stdout, out.stderr) == (0, line + "\n", "")


def test_sat_reads_300_nested_parentheses():
    out = _cli(["sat", "(" * 300 + "p" + ")" * 300, "--class", "K"], 0)
    assert (out.returncode, out.stdout, out.stderr) == (0, "satisfiable in K\n", "")


# ---------------------------------------------------------------------------
# The argv reader against the argparse parser it replaced.

# Each command's own flags, beside the global --json and --max-n.
ARGV_FLAGS = {"valid": ("--class", "--frame"), "sat": ("--class",), "scan": ("--class",),
              "bisim": ("--circ", "--box")}
ARGV_VALUES = {  # values each flag reads, and values --max-n cannot read as an int
    "--max-n": (("2", "3", "5", "0", "-3", " 4", "1_0"), ("x", "3.0", "")),
    "--class": (("K", "S4", "t", "-1", "x y", ""), ()),
    "--frame": (("m.json", "-2", "f g"), ()),
}
ARGV_WORDS = ("p", "o p & ~q", "m.json", "s", "K")
ARGV_ODD_WORDS = ("-3", "-1.5", "-", "", "x y", "-p q", "@f.lea", "a=b", "--x y", "-h y")
ARGV_ARITY = {"check": 3, "valid": 1, "sat": 1, "bisim": 4, "contract": 1, "translate": 2,
              "define": 2, "prove": 2, "scan": 1, "genproof": 1}
ARGV_BAD = ("--frob", "-x", "-3.", "--=x", "--json=1", "-hx", "--circ", "--class")


def _spell(rng, flag, context, value=None):
    """One flag as tokens: exact or a unique prefix, its value apart or after "="."""
    shortest = next(k for k in range(3, len(flag) + 1)
                    if [f for f in context if f.startswith(flag[:k])] == [flag])
    name = flag[:rng.randint(shortest, len(flag))]
    if value is None:
        return [name]
    return [f"{name}={value}"] if rng.random() < 0.3 else [name, value]


def _words(rng, command):
    out = [rng.choice(ARGV_ODD_WORDS if rng.random() < 0.2 else ARGV_WORDS)
           for _ in range(ARGV_ARITY[command])]
    if command == "translate":
        out[0] = rng.choice(("to-ml", "to-lea", "to-ml", "to-x"))
    if command == "genproof":
        out[0] = rng.choice(("4", "-3", " 5", "1_0", "x", "2.0"))
    if command == "check" and rng.random() < 0.4:
        out.pop(1)  # no world
    return out


def random_command_line(rng):
    """(tokens before the command, command, items after it); an item is
    ("pos", word), ("flag", tokens) or ("sep",) for "--"."""
    command = rng.choice(list(ARGV_ARITY))
    context = ("--help", "--json", "--max-n") + ARGV_FLAGS.get(command, ())
    flags = []
    for flag in ARGV_FLAGS.get(command, ()):
        if rng.random() < 0.7:
            flags.append(flag)
    if command == "valid" and len(flags) == 2 and rng.random() < 0.8:
        flags.remove(rng.choice(flags))  # both, now and then
    if command in ("sat", "scan") and not flags and rng.random() < 0.8:
        flags.append("--class")
    flags += [f for f in ("--json", "--max-n") if rng.random() < 0.5]
    flags += rng.sample(flags, min(len(flags), rng.randint(0, 1)))  # a repeat
    before, items = [], []
    for flag in flags:
        value = None
        if flag in ARGV_VALUES:
            good, bad = ARGV_VALUES[flag]
            value = rng.choice(bad if bad and rng.random() < 0.15 else good)
        if flag in ("--json", "--max-n") and rng.random() < 0.4:
            before += _spell(rng, flag, ("--help", "--json", "--max-n"), value)
        else:
            items.append(("flag", _spell(rng, flag, context, value)))
    rng.shuffle(items)
    words = _words(rng, command)
    if rng.random() < 0.1:
        words.append("extra")
    elif rng.random() < 0.1:
        words.pop()
    for word in words:  # interleaved with the flags, in order
        slots = [i for i, item in enumerate(items) if item[0] == "pos"]
        items.insert(rng.randint(slots[-1] + 1 if slots else 0, len(items)), ("pos", word))
    if rng.random() < 0.3:  # mostly before a positional after the last flag
        last = max((i + 1 for i, item in enumerate(items) if item[0] == "flag"), default=0)
        spots = [i for i in range(last, len(items))] if rng.random() < 0.7 else []
        items.insert(rng.choice(spots) if spots else rng.randint(0, len(items)), ("sep",))
        if rng.random() < 0.2:
            items.append(("pos", "--"))
    if rng.random() < 0.1:
        items.insert(rng.randint(0, len(items)), ("flag", [rng.choice(ARGV_BAD)]))
    if rng.random() < 0.04:
        items.append(("flag", [rng.choice(("--max-n", "--class"))]))  # no value
    if rng.random() < 0.03:
        before.append(rng.choice(("--", "--class", "-x")))
    if rng.random() < 0.03:
        command = rng.choice(("", "frob", "-3", "chec"))
    return before, command, items


def _flatten(before, command, items):
    argv = list(before) + ([command] if command is not None else [])
    for item in items:
        argv += item[1] if item[0] == "flag" else [item[1]] if item[0] == "pos" else ["--"]
    return argv


def _check_canonical(items):
    """check's items with the flags between its positionals moved before
    the first: argparse binds the optional world too early otherwise.
    Moving them to the front, not the end, keeps them ahead of a "--"."""
    sep = next((i for i, item in enumerate(items) if item[0] == "sep"), len(items))
    words = [i for i, item in enumerate(items) if item[0] == "pos" or i > sep]
    if not words:
        return items
    inner = [i for i in range(words[0], words[-1]) if items[i][0] == "flag" and i < sep]
    return ([items[i] for i in range(words[0])] + [items[i] for i in inner]
            + [items[i] for i in range(words[0], len(items)) if i not in inner])


def _outcome(read, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(read(argv)), out.getvalue(), err.getvalue()
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


def _reference_outcome(reference, before, command, items):
    """The reference's outcome, with a "--" after the first one read as a
    plain word: argparse 3.11 drops it from the value it is given to (a
    positional gets [] or its default), so it is passed under another name
    and named back."""
    sep = next((i for i, item in enumerate(items) if item[0] == "sep"), len(items))
    items = [("pos", "<dashdash>") if i > sep and item == ("pos", "--") else item
             for i, item in enumerate(items)]
    code, out, err = _outcome(reference, _flatten(before, command, items))
    if isinstance(code, dict):
        code = {k: "--" if v == "<dashdash>" else v for k, v in code.items()}
    return code, out, err


def test_reader_matches_reference_parser():
    """3,000 seeded command lines over all ten commands: the reader accepts
    what argparse accepts, with the same values, and exits 2 where it
    exits 2.  Exceptions: check with flags between its positionals is
    compared with those flags moved (argparse rejects some such lines), a
    "--" after the first is a plain word, and -h is added only to lines
    the reference accepts."""
    reference = reference_cli_parser().parse_args
    rng = random.Random(1806)
    seen = {"accepted": set(), "rejected": 0, "help": 0}
    for _ in range(3000):
        before, command, items = random_command_line(rng)
        argv = _flatten(before, command, items)
        if command == "check":
            items = _check_canonical(items)
        want = _reference_outcome(reference, before, command, items)
        if isinstance(want[0], dict) and rng.random() < 0.15:
            spot = rng.randint(0, next((i for i, it in enumerate(items) if it[0] == "sep"),
                                       len(items)))
            items.insert(spot, ("flag", [rng.choice(("-h", "--help", "--he"))]))
            argv = _flatten(before, command, items)
            want = _reference_outcome(reference, before, command, items)
        got = _outcome(_read_argv, argv)
        assert got[0] == want[0], argv
        if got[0] == 0:
            seen["help"] += 1
            assert got[1].startswith("usage: lea"), argv
        elif got[0] == 2:
            seen["rejected"] += 1
            usage, error = got[2].splitlines()
            assert usage.startswith("usage: lea") and error.startswith("lea: error: "), argv
        else:
            seen["accepted"].add(command)
    assert seen["accepted"] == set(ARGV_ARITY)
    assert seen["rejected"] > 500 and seen["help"] > 100
