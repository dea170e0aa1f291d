"""Core value types for domain descriptions and compiled behaviour IR.

Everything in this module is an immutable value: models can be shared freely
between threads and compared structurally.  Source spans are carried for
diagnostics but excluded from equality, so a parsed model and its re-parsed
pretty-print compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .diagnostics import SourceSpan
from .units import Quantity

# Endurant kinds.
PART = "part"
COMPONENT = "component"
MATERIAL = "material"
ENDURANT_KINDS = (PART, COMPONENT, MATERIAL)

# Discreteness.
DISCRETE = "discrete"
CONTINUOUS = "continuous"

# Attribute categories (Jackson's taxonomy).
STATIC = "static"
INERT = "inert"
REACTIVE = "reactive"
AUTONOMOUS = "autonomous"
BIDDABLE = "biddable"
PROGRAMMABLE = "programmable"
CATEGORIES = (STATIC, INERT, REACTIVE, AUTONOMOUS, BIDDABLE, PROGRAMMABLE)

# Categories that arrive over an external channel at run time.
EXTERNAL_CATEGORIES = (INERT, REACTIVE, AUTONOMOUS)
# Categories carried as recursion arguments of the part's behaviour.
CONTROLLABLE_CATEGORIES = (BIDDABLE, PROGRAMMABLE)


class UnknownSort(KeyError):
    pass


# ---------------------------------------------------------------------------
# Mereology expressions
# ---------------------------------------------------------------------------

class MereologyExpr:
    """Expression over unique-identifier types: empty, a single id type,
    a product of id types, or a finite set of one id type."""

    def leaves(self) -> tuple[str, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class MereoEmpty(MereologyExpr):
    def leaves(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return "empty"


@dataclass(frozen=True)
class MereoId(MereologyExpr):
    id_type: str

    def leaves(self) -> tuple[str, ...]:
        return (self.id_type,)

    def __str__(self) -> str:
        return self.id_type


@dataclass(frozen=True)
class MereoProduct(MereologyExpr):
    factors: tuple[str, ...]

    def leaves(self) -> tuple[str, ...]:
        return self.factors

    def __str__(self) -> str:
        return " x ".join(self.factors)


@dataclass(frozen=True)
class MereoSet(MereologyExpr):
    id_type: str

    def leaves(self) -> tuple[str, ...]:
        return (self.id_type,)

    def __str__(self) -> str:
        return f"set({self.id_type})"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeDecl:
    """One attribute of an endurant: a name, a quantity-kind reference and a
    category; ``init`` is the textual initial-value literal, required for
    attributes that become recursion arguments."""

    name: str
    quantity: str
    category: str
    init: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)

    @property
    def is_external(self) -> bool:
        return self.category in EXTERNAL_CATEGORIES

    @property
    def is_controllable(self) -> bool:
        return self.category in CONTROLLABLE_CATEGORIES


@dataclass(frozen=True)
class EndurantDecl:
    name: str
    kind: str
    discreteness: str
    children: Optional[tuple[str, ...]] = None  # None = atomic
    id_type: Optional[str] = None
    mereology: Optional[MereologyExpr] = None
    attributes: tuple[AttributeDecl, ...] = ()
    behaviour: Optional[str] = None
    doc: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)

    @property
    def is_composite(self) -> bool:
        return self.children is not None

    @property
    def behaviour_name(self) -> str:
        return self.behaviour or self.name.lower()

    def attribute(self, name: str) -> Optional[AttributeDecl]:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def attributes_in(self, categories) -> tuple[AttributeDecl, ...]:
        return tuple(a for a in self.attributes if a.category in categories)


@dataclass(frozen=True)
class ConversionDecl:
    """A declared affine map between two quantity kinds:
    ``value_to = scale * value_from + offset``."""

    name: str
    from_kind: str
    to_kind: str
    scale: Fraction
    offset: Fraction
    inverse_of: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)

    def apply(self, value: Quantity, to_kind) -> Quantity:
        return Quantity(self.scale * value.magnitude + self.offset, to_kind)


@dataclass(frozen=True)
class ChannelDecl:
    name: str
    kinds: tuple[str, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)

    @property
    def is_external(self) -> bool:
        return self.name.startswith("attr_") and self.name.endswith("_ch")


@dataclass(frozen=True)
class AxiomSource:
    sort: str
    attr: str
    chain: tuple[str, ...]


@dataclass(frozen=True)
class AxiomDecl:
    """Target programmable attributes must always equal the conversion chain
    applied to their source attributes."""

    name: str
    target_sort: str
    target_attrs: tuple[str, ...]
    sources: tuple[AxiomSource, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class DomainModel:
    endurants: tuple[EndurantDecl, ...] = ()
    conversions: tuple[ConversionDecl, ...] = ()
    channels: tuple[ChannelDecl, ...] = ()
    axioms: tuple[AxiomDecl, ...] = ()

    def endurant(self, name: str) -> Optional[EndurantDecl]:
        for decl in self.endurants:
            if decl.name == name:
                return decl
        return None

    def parts(self) -> tuple[EndurantDecl, ...]:
        return tuple(e for e in self.endurants if e.kind == PART)

    def conversion(self, name: str) -> Optional[ConversionDecl]:
        for conv in self.conversions:
            if conv.name == name:
                return conv
        return None

    def channel(self, name: str) -> Optional[ChannelDecl]:
        for ch in self.channels:
            if ch.name == name:
                return ch
        return None

    @property
    def is_empty(self) -> bool:
        return not (self.endurants or self.conversions or self.channels or self.axioms)


def model_lookup(model: DomainModel, name: str) -> EndurantDecl:
    """The unique declaration for a sort name, or ``UnknownSort``."""
    decl = model.endurant(name)
    if decl is None:
        raise UnknownSort(name)
    return decl


def id_types_of(model: DomainModel) -> set[str]:
    """All declared unique-identifier types, one per part or component sort."""
    return {e.id_type for e in model.endurants if e.id_type is not None}


# ---------------------------------------------------------------------------
# Compiled behaviour IR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BehaviourSignature:
    """Signature of a compiled part behaviour.

    Static attributes become body constants, controllables become recursion
    arguments, external attributes appear as input channels, and mereology
    channels are split by direction.  Compiled behaviours never terminate.
    """

    uid_param: str
    mereology_param: Optional[MereologyExpr]
    static_params: tuple[str, ...]
    controllable_params: tuple[str, ...]
    in_channels: tuple[str, ...]
    out_channels: tuple[str, ...]
    never_terminates: bool = True


@dataclass(frozen=True)
class SendSpec:
    """One output message: per tuple slot, the source attribute and the
    conversion applied before sending (None = pass the raw value)."""

    channel: str
    parts: tuple[tuple[str, Optional[str]], ...]


@dataclass(frozen=True)
class UpdateSpec:
    """One controllable update at recursion time: take component ``index`` of
    the last message on ``channel`` and push it through ``chain``."""

    attr: str
    channel: str
    index: int
    chain: tuple[str, ...]


@dataclass(frozen=True)
class CoreStep:
    """Tail-recursive body: read every input channel, emit every output
    message, update controllables, recurse."""

    receives: tuple[str, ...]
    sends: tuple[SendSpec, ...]
    updates: tuple[UpdateSpec, ...]


@dataclass(frozen=True)
class ProcessDef:
    name: str
    part: str
    signature: BehaviourSignature
    static_consts: tuple[tuple[str, Optional[Quantity]], ...]
    init_values: tuple[tuple[str, Quantity], ...]
    body: CoreStep

    @property
    def in_channels(self) -> tuple[str, ...]:
        return self.signature.in_channels

    @property
    def out_channels(self) -> tuple[str, ...]:
        return self.signature.out_channels


@dataclass(frozen=True)
class ResolvedChannel:
    """A channel with its message kinds resolved to registry names."""

    name: str
    kinds: tuple[str, ...]
    external: bool
    sender: str  # process name, or "env" for external-attribute channels
    receivers: tuple[str, ...]


@dataclass(frozen=True)
class ProcessNode:
    """One node of the parallel-composition tree; mirrors the part tree.
    ``process`` is None for composite cores elided from compilation."""

    part: str
    process: Optional[ProcessDef]
    children: tuple["ProcessNode", ...]

    def walk(self) -> Iterator["ProcessNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class ProcessGraph:
    root: Optional[ProcessNode]
    channels: tuple[ResolvedChannel, ...]
    registry: object = field(default=None, compare=False, repr=False)
    model: Optional["DomainModel"] = field(default=None, compare=False, repr=False)

    def processes(self) -> tuple[ProcessDef, ...]:
        if self.root is None:
            return ()
        return tuple(n.process for n in self.root.walk() if n.process is not None)

    def channel(self, name: str) -> Optional[ResolvedChannel]:
        for ch in self.channels:
            if ch.name == name:
                return ch
        return None
