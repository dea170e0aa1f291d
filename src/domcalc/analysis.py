"""Classification predicates, description prompts and model validation.

The prompts are deterministic queries over a parsed model: each one yields a
``DescriptionText`` holding a narrative sentence, the formal observer
declarations, and a self-contained ``.dom`` fragment that re-parses and
re-validates.  ``check_wellformed`` is the single gate before compilation:
an empty diagnostic list guarantees that compilation succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .diagnostics import Diagnostic, error, warning
from .model import (
    CATEGORIES,
    COMPONENT,
    CONTINUOUS,
    DISCRETE,
    MATERIAL,
    PART,
    PROGRAMMABLE,
    AttributeDecl,
    ConversionDecl,
    DomainModel,
    EndurantDecl,
    MereoEmpty,
    MereologyExpr,
    MereoProduct,
    MereoSet,
    UnknownSort,
    id_types_of,
    model_lookup,
)
from .units import (
    KindRegistry,
    Quantity,
    QuantityKind,
    UnitError,
    builtin_registry,
    parse_unit,
)


class NotComposite(ValueError):
    pass


class NoIdentifier(ValueError):
    pass


class NotAPart(ValueError):
    pass


@dataclass(frozen=True)
class Classification:
    """Outcome of the analysis prompts for one declared sort."""

    is_entity: bool
    is_endurant: bool
    is_perdurant: bool
    is_discrete: bool
    is_continuous: bool
    is_part: bool
    is_component: bool
    is_material: bool
    is_atomic: bool
    is_composite: bool


def classify(model: DomainModel, name: str) -> Classification:
    """Classification booleans for a declared sort; raises ``UnknownSort``."""
    decl = model_lookup(model, name)
    is_part = decl.kind == PART
    return Classification(
        is_entity=True,
        is_endurant=True,
        is_perdurant=False,
        is_discrete=decl.discreteness == DISCRETE,
        is_continuous=decl.discreteness == CONTINUOUS,
        is_part=is_part,
        is_component=decl.kind == COMPONENT,
        is_material=decl.kind == MATERIAL,
        is_atomic=is_part and not decl.is_composite,
        is_composite=is_part and decl.is_composite,
    )


# ---------------------------------------------------------------------------
# Description prompts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalDecl:
    kind: str  # "type" or "value"
    text: str


@dataclass(frozen=True)
class DescriptionText:
    """Narrative plus formal declarations produced by a description prompt.

    ``source`` is a closed ``.dom`` fragment covering the declarations the
    prompt speaks about; it re-parses and re-validates on its own.
    """

    narrative: str
    formal: tuple[FormalDecl, ...]
    source: str


def observe_part_sorts(model: DomainModel, name: str) -> DescriptionText:
    decl = model_lookup(model, name)
    if not (decl.kind == PART and decl.is_composite):
        raise NotComposite(name)
    children = decl.children or ()
    formal = [FormalDecl("type", ", ".join(children))]
    for child in children:
        formal.append(FormalDecl("value", f"obs_{child}: {name} → {child}"))
    narrative = (f"{name} is a composite part observed into "
                 f"{len(children)} part sorts: {', '.join(children)}.")
    return DescriptionText(narrative, tuple(formal), _slice_source(model, {name}))


def observe_unique_identifier(model: DomainModel, name: str) -> DescriptionText:
    decl = model_lookup(model, name)
    if decl.kind == MATERIAL:
        raise NoIdentifier(name)
    id_type = decl.id_type or f"{name}I"
    formal = (FormalDecl("type", id_type),
              FormalDecl("value", f"uid_{name}: {name} → {id_type}"))
    narrative = f"{decl.kind.capitalize()} {name} has the unique identifier type {id_type}."
    return DescriptionText(narrative, formal, _slice_source(model, {name}))


def observe_mereology(model: DomainModel, name: str) -> DescriptionText:
    decl = model_lookup(model, name)
    if decl.kind != PART:
        raise NotAPart(name)
    expr = decl.mereology if decl.mereology is not None else MereoEmpty()
    formal = (FormalDecl("value", f"mereo_{name}: {name} → {_math_mereology(expr)}"),)
    related = expr.leaves()
    if related:
        narrative = (f"Part {name} is related to the parts identified by "
                     f"{', '.join(related)}.")
    else:
        narrative = f"Part {name} has the empty mereology."
    return DescriptionText(narrative, formal, _slice_source(model, {name}))


def observe_attributes(model: DomainModel, name: str) -> DescriptionText:
    decl = model_lookup(model, name)
    formal: list[FormalDecl] = []
    if decl.attributes:
        formal.append(FormalDecl("type", ", ".join(a.name for a in decl.attributes)))
    for attr in decl.attributes:
        # Revised observer form: both the attribute type and its value.
        formal.append(FormalDecl(
            "value",
            f"attr_{attr.name}: {name} → AT × AV"
            f"  [AT: {attr.quantity}, {attr.category}]"))
    if decl.attributes:
        narrative = (f"{decl.kind.capitalize()} {name} has attributes "
                     + ", ".join(f"{a.name} ({a.category} {a.quantity})"
                                 for a in decl.attributes) + ".")
    else:
        narrative = f"{decl.kind.capitalize()} {name} has no attributes."
    return DescriptionText(narrative, tuple(formal), _slice_source(model, {name}))


def _math_mereology(expr: MereologyExpr) -> str:
    if isinstance(expr, MereoEmpty):
        return "()"
    if isinstance(expr, MereoProduct):
        return "×".join(expr.factors)
    if isinstance(expr, MereoSet):
        return f"{expr.id_type}-set"
    return str(expr)


def _slice_source(model: DomainModel, roots: set[str]) -> str:
    """Closed .dom fragment: the root sorts plus everything their validity
    depends on (children, mereology partners, kind-defining conversions)."""
    from .dsl import print_model  # local import: dsl depends on model only

    id_owner = {e.id_type: e.name for e in model.endurants if e.id_type}
    sorts: set[str] = set()
    queue = list(roots)
    while queue:
        name = queue.pop()
        if name in sorts:
            continue
        decl = model.endurant(name)
        if decl is None:
            continue
        sorts.add(name)
        queue.extend(decl.children or ())
        if decl.mereology is not None:
            queue.extend(id_owner.get(leaf, leaf) for leaf in decl.mereology.leaves())

    kept = tuple(e for e in model.endurants if e.name in sorts)
    needed = {word for e in kept for a in e.attributes for word in a.quantity.split()}
    conversions: list[ConversionDecl] = []
    by_name = {c.name: c for c in model.conversions}
    while True:
        added = False
        for conv in model.conversions:
            if conv in conversions:
                continue
            partner = by_name.get(conv.inverse_of) if conv.inverse_of else None
            if (conv.to_kind in needed or
                    (partner is not None and partner in conversions)):
                conversions.append(conv)
                needed.update(conv.from_kind.split())
                added = True
        if not added:
            break
    conversions.sort(key=model.conversions.index)
    return print_model(DomainModel(kept, tuple(conversions), (), ()))


# ---------------------------------------------------------------------------
# Kind registry construction
# ---------------------------------------------------------------------------

def registry_for_model(model: DomainModel) -> tuple[KindRegistry, list[Diagnostic]]:
    """Built-in kinds extended with kinds the model declares.

    Conversion declarations mint their target kinds (same dimension as the
    source, scale divided by the affine factor).  Attribute quantities and
    channel kinds are resolved, reporting E205 for anything unknown.
    Model-local declarations shadow built-ins of the same dimension (W210).
    """
    registry = builtin_registry()
    builtin_kinds = builtin_registry()
    diagnostics: list[Diagnostic] = []

    pending = list(model.conversions)
    while pending:
        progressed = False
        for conv in list(pending):
            try:
                from_kind = registry.resolve(conv.from_kind)
            except (UnitError, KeyError):
                continue
            pending.remove(conv)
            progressed = True
            if conv.scale == 0:
                diagnostics.append(error(
                    "E207", f"conversion {conv.name!r} has a degenerate affine scale 0",
                    conv.span))
                continue
            try:
                existing: Optional[QuantityKind] = registry.resolve(conv.to_kind)
            except (UnitError, KeyError):
                existing = None
            derived = QuantityKind(conv.to_kind, from_kind.dimension, from_kind.role,
                                   from_kind.scale / conv.scale)
            if existing is None:
                registry.register(derived)
            elif existing.dimension != from_kind.dimension:
                diagnostics.append(error(
                    "E205",
                    f"conversion {conv.name!r} targets {conv.to_kind!r} "
                    f"of dimension {existing.dimension}, expected {from_kind.dimension}",
                    conv.span))
            elif conv.to_kind in builtin_kinds and existing != derived:
                registry.override(derived)
                diagnostics.append(warning(
                    "W210",
                    f"model-local kind {conv.to_kind!r} shadows the built-in kind",
                    conv.span))
            elif existing != derived:
                diagnostics.append(warning(
                    "W211",
                    f"conversion {conv.name!r} derives {conv.to_kind!r} on a "
                    "different scale than its earlier definition; keeping the first",
                    conv.span))
        if not progressed:
            for conv in pending:
                diagnostics.append(error(
                    "E205", f"conversion {conv.name!r} has unknown source kind "
                            f"{conv.from_kind!r}", conv.span))
            break

    for endurant in model.endurants:
        for attr in endurant.attributes:
            try:
                registry.resolve(attr.quantity)
            except (UnitError, KeyError) as exc:
                diagnostics.append(error(
                    "E205", f"attribute {endurant.name}.{attr.name}: {exc}", attr.span))
    for channel in model.channels:
        for kind in channel.kinds:
            try:
                registry.resolve(kind)
            except (UnitError, KeyError) as exc:
                diagnostics.append(error(
                    "E205", f"channel {channel.name!r}: {exc}", channel.span))
    return registry, diagnostics


def parse_value(text: str, kind: QuantityKind, registry: KindRegistry) -> Quantity:
    """Parse a value literal ('10 deg', '900 km/h', bare '0') against a kind.

    A bare number is a magnitude on the kind's own scale.  With a unit
    expression the magnitude is rescaled exactly into the kind; the dimension
    must match, and affine point kinds only accept their own scale.
    """
    parts = text.strip().split(None, 1)
    if not parts:
        raise ValueError("empty value literal")
    magnitude = Fraction(parts[0])
    if len(parts) == 1:
        return Quantity(magnitude, kind)
    dim, scale = parse_unit(parts[1])
    if dim != kind.dimension:
        raise ValueError(
            f"value unit {parts[1]!r} has dimension {dim}, kind {kind.name!r} "
            f"needs {kind.dimension}")
    if kind.offset != 0 and scale != kind.scale:
        raise ValueError(
            f"affine kind {kind.name!r} only accepts values on its own scale")
    return Quantity(magnitude * scale / kind.scale, kind)


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def check_wellformed(model: DomainModel) -> list[Diagnostic]:
    """Validate a parsed model.

    Empty result means: the endurant quality matrix holds, composite children
    form a tree, every mereology leaf resolves to a declared identifier type,
    all quantity kinds resolve, conversions and axioms type-check end to end,
    and compilation preconditions (message kinds, initial values) hold.
    """
    diagnostics: list[Diagnostic] = []
    id_types = id_types_of(model)
    part_ids = {e.id_type for e in model.parts() if e.id_type}

    for decl in model.endurants:
        diagnostics.extend(_check_matrix(decl))
        for child in decl.children or ():
            child_decl = model.endurant(child)
            if child_decl is None or child_decl.kind != PART:
                diagnostics.append(error(
                    "E103", f"composite {decl.name!r} lists {child!r}, "
                            f"which is not a declared part sort", decl.span))
        if decl.mereology is not None:
            for leaf in decl.mereology.leaves():
                if leaf not in id_types:
                    diagnostics.append(error(
                        "E101", f"mereology of {decl.name!r} references the "
                                f"undeclared identifier type {leaf!r}", decl.span))
                elif leaf not in part_ids:
                    # Mereology is a part relation; component ids cannot appear.
                    diagnostics.append(error(
                        "E119", f"mereology of {decl.name!r} references {leaf!r}, "
                                "which does not identify a part sort", decl.span))
        for attr in decl.attributes:
            if attr.category not in CATEGORIES:
                diagnostics.append(error(
                    "E118", f"attribute {decl.name}.{attr.name} has unknown "
                            f"category {attr.category!r}", attr.span))

    diagnostics.extend(_check_composition_tree(model))

    registry, kind_diags = registry_for_model(model)
    diagnostics.extend(kind_diags)
    if not any(d.is_error for d in kind_diags):
        diagnostics.extend(_check_inits(model, registry))
        diagnostics.extend(_check_conversion_pairs(model))
        diagnostics.extend(_check_axioms(model, registry))
        diagnostics.extend(_check_channels(model))
        if not any(d.is_error for d in diagnostics):
            from .compiler import compile_preflight  # late import, avoids a cycle
            diagnostics.extend(compile_preflight(model))
    return diagnostics


def _check_matrix(decl: EndurantDecl) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if decl.kind == MATERIAL:
        if decl.mereology is not None:
            out.append(error("E104", f"material {decl.name!r} must not declare "
                                     "a mereology", decl.span))
        if decl.discreteness != CONTINUOUS:
            out.append(error("E105", f"material {decl.name!r} must be continuous",
                             decl.span))
        if decl.children is not None:
            out.append(error("E104", f"material {decl.name!r} cannot be composite",
                             decl.span))
    elif decl.kind == COMPONENT:
        if decl.mereology is not None:
            out.append(error("E106", f"component {decl.name!r} must not declare "
                                     "a mereology", decl.span))
        if decl.id_type is None:
            out.append(error("E107", f"component {decl.name!r} needs a unique "
                                     "identifier type", decl.span))
        if decl.discreteness != DISCRETE:
            out.append(error("E105", f"component {decl.name!r} must be discrete",
                             decl.span))
    elif decl.kind == PART:
        if decl.id_type is None:
            out.append(error("E107", f"part {decl.name!r} needs a unique "
                                     "identifier type", decl.span))
        if decl.mereology is None:
            out.append(error("E108", f"part {decl.name!r} needs a mereology "
                                     "(possibly empty)", decl.span))
        if decl.discreteness != DISCRETE:
            out.append(error("E105", f"part {decl.name!r} must be discrete", decl.span))
    else:
        out.append(error("E104", f"{decl.name!r} has unknown endurant kind "
                                 f"{decl.kind!r}", decl.span))
    return out


def _check_composition_tree(model: DomainModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    parent_count: dict[str, int] = {}
    for decl in model.endurants:
        for child in decl.children or ():
            parent_count[child] = parent_count.get(child, 0) + 1
    for child, count in parent_count.items():
        if count > 1:
            out.append(error("E117", f"part {child!r} is a child of {count} "
                                     "composites; composition must form a tree"))

    # Cycle detection over the children relation.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {e.name: WHITE for e in model.endurants}

    def visit(name: str) -> bool:
        colour[name] = GREY
        decl = model.endurant(name)
        for child in (decl.children or ()) if decl else ():
            if colour.get(child) == GREY:
                return True
            if colour.get(child) == WHITE and visit(child):
                return True
        colour[name] = BLACK
        return False

    for decl in model.endurants:
        if colour[decl.name] == WHITE and visit(decl.name):
            out.append(error("E102", f"composite cycle through {decl.name!r}",
                             decl.span))
            break
    return out


def _check_inits(model: DomainModel, registry: KindRegistry) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for decl in model.endurants:
        for attr in decl.attributes:
            if attr.init is None:
                continue
            try:
                parse_value(attr.init, registry.resolve(attr.quantity), registry)
            except (ValueError, UnitError, KeyError) as exc:
                out.append(error(
                    "E206", f"bad init value for {decl.name}.{attr.name}: {exc}",
                    attr.span))
    return out


def _check_conversion_pairs(model: DomainModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for conv in model.conversions:
        if conv.inverse_of is None:
            continue
        partner = model.conversion(conv.inverse_of)
        if partner is None:
            out.append(error("E115", f"conversion {conv.name!r} names unknown "
                                     f"inverse {conv.inverse_of!r}", conv.span))
            continue
        if partner.inverse_of != conv.name:
            out.append(error("E115", f"inverse pairing of {conv.name!r} and "
                                     f"{partner.name!r} is not symmetric", conv.span))
        if (partner.from_kind, partner.to_kind) != (conv.to_kind, conv.from_kind):
            out.append(error("E115", f"inverse {partner.name!r} does not map "
                                     f"{conv.to_kind!r} back to {conv.from_kind!r}",
                             conv.span))
    return out


def _check_axioms(model: DomainModel, registry: KindRegistry) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for axiom in model.axioms:
        target = model.endurant(axiom.target_sort)
        if target is None:
            out.append(error("E112", f"axiom {axiom.name!r} targets unknown sort "
                                     f"{axiom.target_sort!r}", axiom.span))
            continue
        if len(axiom.target_attrs) != len(axiom.sources):
            out.append(error(
                "E112", f"axiom {axiom.name!r} pairs {len(axiom.target_attrs)} "
                        f"display attributes with {len(axiom.sources)} sources",
                axiom.span))
            continue
        for attr_name, source in zip(axiom.target_attrs, axiom.sources):
            attr = target.attribute(attr_name)
            if attr is None:
                out.append(error("E112", f"axiom {axiom.name!r}: unknown attribute "
                                         f"{axiom.target_sort}.{attr_name}", axiom.span))
                continue
            if attr.category != PROGRAMMABLE:
                out.append(error("E110", f"axiom {axiom.name!r}: target "
                                         f"{axiom.target_sort}.{attr_name} must be "
                                         f"programmable, is {attr.category}", axiom.span))
            source_decl = model.endurant(source.sort)
            source_attr = source_decl.attribute(source.attr) if source_decl else None
            if source_attr is None:
                out.append(error("E112", f"axiom {axiom.name!r}: unknown source "
                                         f"{source.sort}.{source.attr}", axiom.span))
                continue
            out.extend(_check_chain(model, registry, axiom.name, source_attr,
                                    attr, source.chain, axiom.span))
    return out


def _check_chain(model: DomainModel, registry: KindRegistry, axiom_name: str,
                 source_attr: AttributeDecl, target_attr: AttributeDecl,
                 chain: tuple[str, ...], span) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    current = source_attr.quantity
    for position, link_name in enumerate(chain):
        link = model.conversion(link_name)
        if link is None:
            out.append(error("E112", f"axiom {axiom_name!r}: unknown conversion "
                                     f"{link_name!r}", span))
            return out
        if _kind_of(registry, link.from_kind) != _kind_of(registry, current):
            out.append(error(
                "E111", f"axiom {axiom_name!r}: conversion {link_name!r} expects "
                        f"{link.from_kind!r}, chain carries {current!r}", span))
            return out
        if position == 0:
            # Actual-to-recorded link: recordings cannot be converted back.
            if link.inverse_of is not None:
                out.append(error(
                    "E113", f"axiom {axiom_name!r}: first-link conversion "
                            f"{link_name!r} must not declare an inverse", span))
        elif link.inverse_of is None:
            out.append(error(
                "E114", f"axiom {axiom_name!r}: conversion {link_name!r} links "
                        "recorded to displayed values and must declare an inverse",
                span))
        current = link.to_kind
    if _kind_of(registry, current) != _kind_of(registry, target_attr.quantity):
        out.append(error(
            "E111", f"axiom {axiom_name!r}: chain produces {current!r}, target "
                    f"attribute has kind {target_attr.quantity!r}", span))
    return out


def _kind_of(registry: KindRegistry, ref: str) -> Optional[QuantityKind]:
    try:
        return registry.resolve(ref)
    except (UnitError, KeyError):
        return None


def _check_channels(model: DomainModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    attr_names = {a.name for e in model.endurants for a in e.attributes}
    for channel in model.channels:
        if channel.is_external:
            base = channel.name[len("attr_"):-len("_ch")]
            if len(channel.kinds) != 1:
                out.append(error(
                    "E304", f"channel {channel.name!r} has external-attribute form "
                            "but a tuple message kind; one channel cannot serve "
                            "both an attribute and a mereology relation",
                    channel.span))
            elif base not in attr_names:
                out.append(error(
                    "E112", f"channel {channel.name!r} names no declared attribute",
                    channel.span))
    return out
