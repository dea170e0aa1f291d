"""The package's lazy exports: the same names and objects as its submodules,
and a submodule import that loads no more than that submodule needs."""

import importlib
import os
import pathlib
import subprocess
import sys

import domcalc

EXPORTS = {
    "analysis": ["Classification", "DescriptionText", "check_wellformed", "classify",
                 "observe_attributes", "observe_mereology", "observe_part_sorts",
                 "observe_unique_identifier", "registry_for_model"],
    "compiler": ["CompileError", "compile_model", "compile_process", "derive_channels",
                 "derive_signature", "graph_to_json", "print_process"],
    "diagnostics": ["Diagnostic", "SourceSpan"],
    "dsl": ["parse_file", "parse_model", "print_model"],
    "model": ["DomainModel", "EndurantDecl", "ProcessGraph", "id_types_of", "model_lookup"],
    "simulator": ["EnvironmentScript", "Verdict", "check_axioms", "instantiate", "run",
                  "stream"],
    "units": ["Dimension", "KindRegistry", "Quantity", "QuantityKind", "builtin_registry",
              "check_op", "mean", "parse_unit", "rate_of_change", "typecheck_expr"],
}


def test_every_export_is_its_submodule_attribute():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"domcalc.{module}")
        for name in names:
            assert getattr(domcalc, name) is getattr(submodule, name), name


def test_dir_lists_every_export():
    listed = dir(domcalc)
    assert {name for names in EXPORTS.values() for name in names} <= set(listed)
    assert "__version__" in listed


def test_readme_imports_run():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Library entry points", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(block.split("```", 1)[0], namespace)
    assert namespace["compile_model"] is domcalc.compile_model


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(domcalc, "no_such_name")


def _loaded_by(module: str) -> set[str]:
    """The modules a fresh interpreter holds after importing ``module``."""
    src = pathlib.Path(domcalc.__file__).resolve().parent.parent
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    return set(done.stdout.split())


def test_importing_units_loads_neither_compiler_simulator_nor_cli():
    loaded = _loaded_by("domcalc.units")
    assert "domcalc.units" in loaded
    assert not {"domcalc.compiler", "domcalc.simulator", "domcalc.cli"} & loaded


def test_importing_the_cli_leaves_the_simulator_unloaded():
    loaded = _loaded_by("domcalc.cli")
    assert {"domcalc.cli", "domcalc.compiler"} <= loaded
    assert "domcalc.simulator" not in loaded
