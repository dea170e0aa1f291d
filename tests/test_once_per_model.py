"""A model's kind registry, compiler index and preflight are derived once per
model object and kept on it, without changing what callers see."""

import copy
import gc
import json
import pickle

import pytest

from domcalc import analysis, compiler, dsl
from domcalc.analysis import check_wellformed, registry_for_model
from domcalc.cli import main
from domcalc.compiler import compile_model, compile_preflight, graph_to_json, print_process


@pytest.fixture
def counts(monkeypatch):
    """Calls of the index constructor, the registry builder and the preflight."""
    seen = {"index": 0, "registry": 0, "preflight": 0}

    def counted(key, fn):
        def wrapper(*args):
            seen[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(compiler._ModelIndex, "__init__",
                        counted("index", compiler._ModelIndex.__init__))
    monkeypatch.setattr(analysis, "_build_registry",
                        counted("registry", analysis._build_registry))
    monkeypatch.setattr(compiler, "_preflight", counted("preflight", compiler._preflight))
    return seen


@pytest.mark.parametrize("command", ["check", "compile", "simulate"])
def test_one_index_registry_and_preflight_per_command(
        capsys, tmp_path, counts, aircraft_path, aircraft_script_path, command):
    argv = [command, str(aircraft_path)]
    if command == "compile":
        argv += ["--json", str(tmp_path / "graph.json")]
    if command == "simulate":
        argv += ["--script", str(aircraft_script_path), "--steps", "50", "--seed", "0"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"index": 1, "registry": 1, "preflight": 1}


def test_a_dropped_model_leaves_nothing_for_the_cyclic_collector(aircraft_path):
    text = aircraft_path.read_text(encoding="utf-8")

    def use_once():
        model, diagnostics = dsl.parse_model(text, "a.dom")
        assert not diagnostics and not check_wellformed(model)
        graph = compile_model(model)
        print_process(graph)
        graph_to_json(graph)

    use_once()  # first use fills module-level caches outside the measurement
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        use_once()
        assert gc.collect() == 0, gc.garbage[:10]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


_WARNED = """
part RT composite(A, B) { id RTI; mereo empty; }
part A { id AI; mereo BI; attr X : K reactive; }
part B { id BI; mereo AI; attr dX : Temp programmable init 0; }
conversion c2t : K -> Temp = affine(2, 0);
axiom ax { display(B.dX) tracks (A.X via c2t); }
"""


def test_returned_diagnostics_lists_are_fresh():
    model, diagnostics = dsl.parse_model(_WARNED)
    assert not diagnostics
    first = registry_for_model(model)[1]
    assert [d.code for d in first] == ["W210"]
    first.clear()
    assert [d.code for d in registry_for_model(model)[1]] == ["W210"]

    checked = check_wellformed(model)
    checked.append("extra")
    assert "extra" not in check_wellformed(model)

    preflight = compile_preflight(model)
    preflight.append("extra")
    assert compile_preflight(model) == preflight[:-1]


def test_unfit_model_is_refused_by_every_call():
    model, _ = dsl.parse_model(_WARNED.replace("tracks (A.X via c2t)", "tracks (B.dX)"))
    codes = [d.code for d in compile_preflight(model)]
    assert "E305" in codes
    for _ in range(2):
        with pytest.raises(compiler.CompileError) as err:
            compile_model(model)
        assert [d.code for d in err.value.diagnostics] == codes


def test_cached_data_leaves_equality_hash_and_repr_alone(aircraft_path):
    used, _ = dsl.parse_file(str(aircraft_path))
    fresh, _ = dsl.parse_file(str(aircraft_path))
    print_process(compile_model(used))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


@pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy,
                                   lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "copy", "pickle"])
def test_compiled_model_survives_copies(aircraft_path, clone):
    model, _ = dsl.parse_file(str(aircraft_path))
    graph = compile_model(model)
    again = clone(model)
    assert again == model
    assert compile_model(again) == graph
    assert print_process(compile_model(again)) == print_process(graph)
    assert json.dumps(graph_to_json(compile_model(again))) == json.dumps(graph_to_json(graph))
