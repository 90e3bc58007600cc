"""A command loads only the modules it runs, and the lazy package keeps
its surface.

Every check runs in a fresh interpreter, where no other test has imported
modules already.  None of them times anything: they read which modules an
interpreter loaded, which objects names resolve to and what it printed.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from lea.hilbert import gen_conj_derivation, render_derivation

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
LOOP = '{"worlds": ["s"], "rel": [["s", "s"]], "val": {"p": ["s"]}}'
# Eleven worlds: a frame sweep of two variables over it passes the
# valuation limit (2^22 > 2^20 valuations).
WIDE = json.dumps({"worlds": [f"w{i}" for i in range(11)], "rel": [], "val": {}})

# The names `lea` exported when its __init__ imported every module, by the
# module that defines them, and the two the CLI reads through the package
# since: frame_countermodel and sweep's ValuationLimitError.  The one answer
# record, Verdict, is defined in kripke; DefinabilityVerdict, CheckReport and
# ScanReport, which it replaced, are gone.
EXPORTS = {
    "formula": [
        "Acc", "And", "Bot", "Box", "Dia", "Ess", "Formula", "Iff", "Implies", "Not",
        "Or", "ParseError", "Top", "Var", "modal_depth", "parse", "render",
        "subformulas", "substitute", "to_lea", "to_ml", "variables",
    ],
    "kripke": [
        "FrameClass", "FrameProperty", "Model", "PointedModel", "SelfLoopMode", "Verdict",
        "add_self_loops", "disjoint_union", "has_property", "in_class",
        "model_from_json", "model_from_obj", "model_to_json", "model_to_obj",
    ],
    "semantics": [
        "check_definability", "extension", "frame_countermodel", "satisfies",
        "valid_on_frame",
    ],
    "bisim": [
        "BisimRelation", "BisimViolation", "Contraction", "bounded_equivalent",
        "box_bisimilar", "circ_bisimilar", "circ_certificate", "contract",
        "is_circ_bisimulation", "largest_circ_bisimulation", "pairs_from_obj",
        "pairs_to_obj",
    ],
    "hilbert": [
        "Derivation", "DerivationSyntaxError", "Line", "System", "check_derivation",
        "gen_conj_derivation", "is_axiom_instance", "is_tautology", "match_schema",
        "parse_derivation", "render_derivation", "soundness_scan",
    ],
    "decide": ["DecideError", "satisfiable", "valid"],
    "sweep": ["ValuationLimitError"],
}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.fixture
def inputs(tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(LOOP)
    proof = tmp_path / "conj3.txt"
    proof.write_text(render_derivation(gen_conj_derivation(3)) + "\n")
    bad_proof = tmp_path / "bad.txt"
    bad_proof.write_text("1. p -> p  nonsense\n")
    wide = tmp_path / "wide.json"
    wide.write_text(WIDE)
    return {"loop": str(loop), "proof": str(proof), "bad_proof": str(bad_proof),
            "wide": str(wide)}


# `python -m lea.cli ARGV`, then the names of the loaded modules.
_RUN_AS_MAIN = """
import runpy, sys
try:
    runpy.run_module("lea.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    assert e.code in (0, 1), e.code
print(*sys.modules)
"""


def _loaded(argv: list[str]) -> set[str]:
    """The modules `python -m lea.cli ARGV` leaves loaded."""
    run = _python("-c", _RUN_AS_MAIN, *argv)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def test_translate_loads_the_formula_layer_alone():
    loaded = _loaded(["translate", "to-ml", "o p"])
    assert {m for m in loaded if m.split(".")[0] == "lea"} <= {
        "lea", "lea.cli", "lea.formula", "lea.limits"}
    assert "lea.formula" in loaded


def test_model_and_proof_commands_load_only_their_layers(inputs):
    check = _loaded(["check", inputs["loop"], "s", "o p"])
    assert "lea.semantics" in check
    assert check.isdisjoint({"lea.hilbert", "lea.bisim", "lea.decide"})
    prove = _loaded(["prove", "K", inputs["proof"]])
    assert "lea.hilbert" in prove
    assert prove.isdisjoint({"lea.bisim", "lea.decide"})


_SURFACE = """
import importlib, json, sys
exports = json.loads(sys.argv[1])
import lea
assert not [m for m in sys.modules if m.startswith("lea.")], sorted(sys.modules)
assert lea.__all__ == [name for names in exports.values() for name in names], lea.__all__
for module, names in exports.items():
    owner = importlib.import_module(f"lea.{module}")
    for name in names:
        assert getattr(lea, name) is getattr(owner, name), name
star = {}
exec("from lea import *", star)
assert all(star[name] is getattr(lea, name) for name in lea.__all__)
assert lea.sweep is sys.modules["lea.sweep"] and lea.cli is sys.modules["lea.cli"]
# lea.cli reads library names through the package, not its attributes.
assert not hasattr(lea.cli, "__path__") and not hasattr(lea.cli, "__all__")
"""


def test_the_lazy_package_keeps_its_exports():
    run = _python("-c", _SURFACE, json.dumps(EXPORTS))
    assert run.returncode == 0, run.stderr


_TRACED = """
import importlib.util, json, sys
import lea.cli
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer_mod.install(tracer, lea)
code = lea.cli.main(["check", sys.argv[2], "s", "o p"])
print(json.dumps({"code": code, **tracer.counts}))
"""


def test_tracer_wrappers_are_the_names_a_command_calls(inputs):
    # The tracer reads and wraps lea.cli names before any command has bound
    # them; the first check must call the wrappers, not rebind the originals.
    run = _python("-c", _TRACED, str(TRACER_PATH), inputs["loop"])
    assert run.returncode == 0, run.stderr
    counts = json.loads(run.stdout.splitlines()[-1])
    assert counts["code"] == 0
    assert counts["semantics.extension"] == 1
    assert counts["kripke.index"] == 1


def test_every_name_the_cli_reads_is_a_library_name():
    # Handlers read library names as lib.<name>, through the lazy package,
    # so each must be an export of lea or one of its modules.  Names read
    # only in an except clause are checked here too, not only when their
    # error is raised.
    import lea

    tree = ast.parse((ROOT / "src" / "lea" / "cli.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    assert {"DerivationSyntaxError", "ValuationLimitError", "decide"} <= names
    modules = {module.name for module in pkgutil.iter_modules(lea.__path__)}
    assert names - set(lea.__all__) - modules == set()


# `lea.cli.main(ARGV)`, then the names the run bound in lea.cli.
_BOUND = """
import sys
import lea.cli
before = set(vars(lea.cli))
assert lea.cli.main(sys.argv[1:]) in (0, 1)
print(*sorted(set(vars(lea.cli)) - before))
"""


@pytest.mark.parametrize(("command", "bound"), [
    ("translate", []),
    ("check", ["model_from_json", "satisfies"]),
])
def test_a_command_binds_only_the_names_it_reads(command, bound, inputs):
    run = _python("-c", _BOUND, *[a.format(**inputs) for a in PARITY[command]])
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].split() == bound


PARITY = {
    "check": ["check", "{loop}", "s", "o p"],
    "valid": ["valid", "[] p -> p", "--class", "T"],
    "valid-frame": ["valid", "o p -> p", "--frame", "{loop}"],
    "sat": ["sat", "o p & <> ~p", "--class", "K", "--json"],
    "bisim": ["bisim", "{loop}", "s", "{loop}", "s"],
    "contract": ["contract", "{loop}"],
    "translate": ["translate", "to-lea", "[] p"],
    "define": ["define", "reflexive", "[] p -> p", "--max-n", "2"],
    "prove": ["prove", "K", "{proof}"],
    "prove-malformed": ["prove", "K", "{bad_proof}"],
    "valid-frame-limit": ["valid", "p | ~q", "--frame", "{wide}"],
    "scan": ["scan", "K", "--class", "T", "--max-n", "2"],
    "genproof": ["genproof", "3"],
    "bare": [],
    "help": ["-h"],
    "sat-help": ["sat", "-h"],
    "max-n": ["translate", "--max-n", "9", "to-ml", "p"],
    "unknown-class": ["sat", "p", "--class", "XYZ"],
}


@pytest.mark.parametrize("command", ["check", "valid", "sat", "bisim", "contract", "translate",
                                     "define", "prove", "scan", "genproof"])
def test_command_loads_no_dataclasses(command, inputs):
    # Library values are kripke.record classes, so no command pays for
    # dataclass generation or the inspect import.
    loaded = _loaded([a.format(**inputs) for a in PARITY[command]])
    assert "lea.formula" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("argv", PARITY.values(), ids=PARITY)
def test_entry_points_agree(argv, inputs):
    """`python -m lea.cli` runs this module as __main__, apart from the
    lea.cli that `from lea.cli import main` loads; each binds library
    names in its own globals, so a name that resolves in one and not the
    other (an except clause's included) fails."""
    argv = [a.format(**inputs) for a in argv]
    as_main = _python("-m", "lea.cli", *argv)
    as_library = _python("-c", "import sys\nfrom lea.cli import main\n"
                         "raise SystemExit(main(sys.argv[1:]))", *argv)
    assert "Traceback" not in as_main.stderr, as_main.stderr
    assert as_main.returncode in (0, 1, 2)
    assert (as_main.returncode, as_main.stdout, as_main.stderr) == (
        as_library.returncode, as_library.stdout, as_library.stderr)
