"""The benchmark tracer wraps lea functions by module and name.

Installing it here makes a renamed or moved name fail this fast suite, not
only the benchmark's own self-test.  bench/ is read, never modified.
"""

import importlib.util
from pathlib import Path

import lea
from lea.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
LOOP = '{"worlds": ["s"], "rel": [["s", "s"]], "val": {"p": ["s"]}}'


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path, capsys):
    tracer_mod = _load_tracer()
    originals = {
        (mod, name): getattr(mod, name)
        for mod, name in (
            (lea.cli, "satisfies"),
            (lea.cli, "valid_on_frame"),
            (lea.kripke, "ModelIndex"),
            (lea.hilbert, "is_tautology"),
            (lea.sweep.Prog, "run"),
        )
    }
    path = tmp_path / "loop.json"
    path.write_text(LOOP)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer, lea)
    try:
        assert all(getattr(mod, name) is not orig for (mod, name), orig in originals.items())
        assert main(["check", str(path), "s", "o p"]) == 0
        assert main(["valid", "[] p -> p", "--frame", str(path)]) == 0
        model_counts = dict(tracer.counts)
        assert main(["scan", "K", "--class", "KB", "--max-n", "2"]) == 0
        assert main(["sat", "o p & <> p & <> ~p", "--class", "TB"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(mod, name) is orig for (mod, name), orig in originals.items())
    # Model.index builds through the module-global kripke.ModelIndex, so the
    # wrapped name sees every index build.
    assert model_counts["kripke.index"] == 2
    assert model_counts["semantics.extension"] == 1
    assert model_counts["sweep.prog_run"] == 1
    # Class frame sweeps filter through the module-global
    # sweep.succ_in_class, once per size: the scan on 1 and 2 worlds, and
    # the bounded search on 1 and 2 worlds, where it finds its model.
    assert tracer.counts["sweep.search_sat"] == 1
    assert tracer.counts["sweep.class_filter"] == 2 + 2
    assert tracer.counts["sweep.class_filter:true"] > 0
