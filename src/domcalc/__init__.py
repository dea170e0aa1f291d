"""domcalc: a toolchain that makes domain descriptions explicit semantics.

A small language for declaring endurants (parts, components, materials) with
unique identifiers, mereologies and unit-typed attributes; an analyzer for
classification and well-formedness; a compiler from parts to communicating
behaviours; and a deterministic simulator that checks declared axioms over
execution traces.
"""

from .analysis import (
    Classification,
    DescriptionText,
    check_wellformed,
    classify,
    observe_attributes,
    observe_mereology,
    observe_part_sorts,
    observe_unique_identifier,
    registry_for_model,
)
from .compiler import (
    CompileError,
    compile_model,
    compile_process,
    derive_channels,
    derive_signature,
    graph_to_json,
    print_process,
)
from .diagnostics import Diagnostic, SourceSpan
from .dsl import parse_file, parse_model, print_model
from .model import DomainModel, EndurantDecl, ProcessGraph, id_types_of, model_lookup
from .simulator import (
    EnvironmentScript,
    Trace,
    Verdict,
    check_axioms,
    conversion_roundtrip_check,
    instantiate,
    run,
    stream,
)
from .units import (
    Dimension,
    KindRegistry,
    Quantity,
    QuantityKind,
    builtin_registry,
    check_op,
    mean,
    parse_unit,
    rate_of_change,
    typecheck_expr,
)

__version__ = "0.1.0"
