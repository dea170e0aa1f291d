"""Core value types for domain descriptions and compiled behaviour IR.

Everything in this module is an immutable value: models and process graphs,
including the ``KindRegistry`` a graph carries, can be shared freely between
threads, and they compare structurally.  Source spans are carried for
diagnostics but excluded from equality, so a parsed model and its re-parsed
pretty-print compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar

from .diagnostics import SourceSpan
from .units import KindRegistry, Quantity

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


T = TypeVar("T")


class UnknownSort(KeyError):
    pass


def _first_by_name(decls: Iterable) -> dict:
    """Name -> declaration in declaration order; the first of a name wins."""
    index: dict = {}
    for decl in decls:
        index.setdefault(decl.name, decl)
    return index


# ---------------------------------------------------------------------------
# Mereology expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MereologyExpr:
    """Expression over unique-identifier types: empty (no ``ids``), a single
    id type, a product of id types, or, with ``is_set``, a finite set of the
    one id type in ``ids``."""

    ids: tuple[str, ...] = ()
    is_set: bool = False

    def leaves(self) -> tuple[str, ...]:
        return self.ids

    def __str__(self) -> str:
        if self.is_set:
            return f"set({self.ids[0]})"
        return " x ".join(self.ids) or "empty"


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


def attr_channel(attr: str) -> str:
    """The external channel of attribute ``attr``: ``attr_<A>_ch``."""
    return f"attr_{attr}_ch"


def channel_attr(channel: str) -> Optional[str]:
    """The ``<A>`` of a channel named in the ``attr_<A>_ch`` form, else None."""
    is_attr = channel.startswith("attr_") and channel.endswith("_ch")
    return channel[len("attr_"):-len("_ch")] if is_attr else None


@dataclass(frozen=True)
class ChannelDecl:
    name: str
    kinds: tuple[str, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)

    @property
    def is_external(self) -> bool:
        return channel_attr(self.name) is not None


@dataclass(frozen=True)
class AxiomSource:
    sort: str
    attr: str
    chain: tuple[str, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)


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

    # Read-only by-name indexes, built on first use; the first declaration wins.
    @cached_property
    def endurants_by_name(self) -> Mapping[str, EndurantDecl]:
        return _first_by_name(self.endurants)

    @cached_property
    def conversions_by_name(self) -> Mapping[str, ConversionDecl]:
        return _first_by_name(self.conversions)

    @cached_property
    def channels_by_name(self) -> Mapping[str, ChannelDecl]:
        return _first_by_name(self.channels)

    def derived(self, build: Callable[["DomainModel"], T]) -> T:
        """``build(self)``, computed on the first call for this model object.

        The result is kept in the instance dict, as the by-name indexes are,
        so it takes no part in equality, hash or repr; copies and pickles
        leave it behind.  ``build`` must not keep the model in its result:
        the pair would be a reference cycle that only the cyclic collector
        frees.  Threads that race may each build it; the results are equal.
        """
        cache = self.__dict__.setdefault("_derived", {})
        if build not in cache:
            cache[build] = build(self)
        return cache[build]

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def endurant(self, name: str) -> Optional[EndurantDecl]:
        return self.endurants_by_name.get(name)

    def parts(self) -> tuple[EndurantDecl, ...]:
        return tuple(e for e in self.endurants if e.kind == PART)

    def conversion(self, name: str) -> Optional[ConversionDecl]:
        return self.conversions_by_name.get(name)

    def channel(self, name: str) -> Optional[ChannelDecl]:
        return self.channels_by_name.get(name)

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

# The actions of a compiled core cycle; a trace records a read as a receive.
READ = "read"
RECEIVE = "receive"
SEND = "send"


@dataclass(frozen=True)
class BehaviourSignature:
    """Signature of a compiled part behaviour: static attributes become body
    constants and controllables recursion arguments.  ``actions`` is the core
    cycle up to the recursion, as ``(op, channel)`` pairs in the order
    ``derive_signature`` gives; ``in_channels`` and ``out_channels`` are its
    views.  Compiled behaviours never terminate."""

    uid_param: str
    mereology_param: Optional[MereologyExpr]
    static_params: tuple[str, ...]
    controllable_params: tuple[str, ...]
    actions: tuple[tuple[str, str], ...]

    @property
    def in_channels(self) -> tuple[str, ...]:
        return tuple(channel for op, channel in self.actions if op != SEND)

    @property
    def out_channels(self) -> tuple[str, ...]:
        return tuple(channel for op, channel in self.actions if op == SEND)


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
    """Tail-recursive body: the signature's actions, update controllables,
    recurse.  Every send carries ``wire``: per slot, the source attribute and
    the conversion applied before sending (None = pass the raw value)."""

    wire: tuple[tuple[str, Optional[str]], ...]
    updates: tuple[UpdateSpec, ...]


@dataclass(frozen=True)
class ProcessDef:
    name: str
    part: str
    signature: BehaviourSignature
    static_consts: tuple[tuple[str, Optional[Quantity]], ...]
    init_values: tuple[tuple[str, Quantity], ...]
    body: CoreStep


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
    registry: KindRegistry = field(compare=False, repr=False)
    model: Optional["DomainModel"] = field(default=None, compare=False, repr=False)

    def processes(self) -> tuple[ProcessDef, ...]:
        if self.root is None:
            return ()
        return tuple(n.process for n in self.root.walk() if n.process is not None)

    @cached_property
    def _channels_by_name(self) -> Mapping[str, ResolvedChannel]:
        return _first_by_name(self.channels)

    def channel(self, name: str) -> Optional[ResolvedChannel]:
        return self._channels_by_name.get(name)
