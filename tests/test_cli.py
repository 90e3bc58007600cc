import json
import os
import subprocess
import sys

import pytest

import lea
from helpers import naive_satisfies
from lea.cli import main
from lea.formula import And, Or, Var, parse, render
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
        "from lea import sweep\n"
        "from lea.cli import main\n"
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


def test_parser_reused_without_leaking_flags(models, capsys):
    # main builds its parser once; no flag of one call may reach the next.
    formula = "p -> o (o ~p -> p)"
    code, out, _ = run(capsys, "--json", "check", models["loop"], "s", "p")
    assert code == 0 and json.loads(out)["answer"] is True
    parser = lea.cli._parser
    assert parser is not None
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
    assert lea.cli._parser is parser


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "(" * 1000 + "p" + ")" * 1000, "--class", "K"],
        ["check", "{model}", "s", "~" * 600 + "p"],
    ],
    ids=["parse", "render"],
)
def test_deep_nesting_is_a_stated_limit(tmp_path, argv):
    # The parser recurses about two frames a parenthesis and render two a
    # connective; past the recursion limit the answer is unknown, exit 1.
    path = tmp_path / "one.json"
    path.write_text('{"worlds": ["s"], "rel": [], "val": {"p": ["s"]}}')
    argv = [a.replace("{model}", str(path)) for a in argv]
    reason = "formula nests too deeply for the recursion limit"
    text, js = _cli(argv, 0), _cli(argv + ["--json"], 0)
    assert (text.returncode, text.stdout, text.stderr) == (1, f"unknown: {reason}\n", "")
    assert (js.returncode, js.stderr) == (1, "")
    assert json.loads(js.stdout) == {"answer": None, "reason": reason}


def test_sat_reads_300_nested_parentheses():
    out = _cli(["sat", "(" * 300 + "p" + ")" * 300, "--class", "K"], 0)
    assert (out.returncode, out.stdout, out.stderr) == (0, "satisfiable in K\n", "")
