"""domcalc: a toolchain that makes domain descriptions explicit semantics.

A small language for declaring endurants (parts, components, materials) with
unique identifiers, mereologies and unit-typed attributes; an analyzer for
classification and well-formedness; a compiler from parts to communicating
behaviours; and a deterministic simulator that checks declared axioms over
execution traces.

The names below are exported lazily (PEP 562): ``from domcalc import
compile_model`` imports ``domcalc.compiler`` on first use, so importing one
submodule, such as ``domcalc.units``, loads only what that submodule needs.
"""

import importlib

_EXPORTS = {
    "analysis": (
        "Classification", "DescriptionText", "check_wellformed", "classify",
        "observe_attributes", "observe_mereology", "observe_part_sorts",
        "observe_unique_identifier", "registry_for_model"),
    "compiler": (
        "CompileError", "compile_model", "compile_process", "derive_channels",
        "derive_signature", "graph_to_json", "print_process"),
    "diagnostics": ("Diagnostic", "SourceSpan"),
    "dsl": ("parse_file", "parse_model", "print_model"),
    "model": ("DomainModel", "EndurantDecl", "ProcessGraph", "id_types_of", "model_lookup"),
    "simulator": (
        "EnvironmentScript", "Verdict", "check_axioms", "instantiate", "run", "stream"),
    "units": (
        "Dimension", "KindRegistry", "Quantity", "QuantityKind", "builtin_registry",
        "check_op", "mean", "parse_unit", "rate_of_change", "typecheck_expr"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
