"""Translation of parts into behaviour processes.

A composite part compiles to its core behaviour in parallel with the
compilations of its children; an atomic part compiles to a single
tail-recursive core.  Part qualities translate into behaviour arguments:
static attributes become constants, biddable and programmable attributes
become recursion arguments, external dynamic attributes become input
channels, and mereology relations become inter-behaviour channels.

The compiler is pure: equal models produce identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

from .analysis import (NotAPart, _check_wellformed, _math_mereology, parse_value,
                       registry_for_model)
from .diagnostics import Diagnostic, error
from .model import (
    CONTROLLABLE_CATEGORIES,
    EXTERNAL_CATEGORIES,
    READ,
    RECEIVE,
    SEND,
    STATIC,
    AttributeDecl,
    AxiomDecl,
    AxiomSource,
    BehaviourSignature,
    ChannelDecl,
    ConversionDecl,
    CoreStep,
    DomainModel,
    EndurantDecl,
    MereologyExpr,
    ProcessDef,
    ProcessGraph,
    ProcessNode,
    ResolvedChannel,
    UpdateSpec,
    attr_channel,
    channel_attr,
    model_lookup,
)
from .units import KindRegistry, fraction_str


class CompileError(Exception):
    """Compilation refused; carries the diagnostics explaining why."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics) or "compile error")
        self.diagnostics = diagnostics


def behaviour_prefix(behaviour: str, length: int = 1) -> str:
    """Channel prefix: the first ``length`` letters of each word of a
    multi-word name (travel_dynamics -> td), else the first ``length`` + 1
    letters of its one word (position -> po, s_ -> s); a name of
    underscores alone has none.  A longer one is used only where two
    derived channel names would otherwise collide (``_channel_prefixes``).
    No prefix holds ``_``, so a channel name's sender prefix is the text
    before its first ``_`` (``_recv_var``)."""
    words = [w for w in behaviour.split("_") if w]
    if len(words) > 1:
        return "".join(w[:length] for w in words)
    return words[0][:length + 1] if words else ""


def _channel_prefixes(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Each behaviour's prefix over the (sender, receiver) behaviour names
    of the relations: ``behaviour_prefix``, lengthened one letter per word
    at a time for the distinct behaviours on one side of two relations
    whose channel names collide, until the names differ or the prefixes
    can grow no more.  A model with no collision keeps the short prefixes."""
    lengths = {name: 1 for pair in pairs for name in pair}
    while True:
        prefixes = {name: behaviour_prefix(name, n) for name, n in lengths.items()}
        named: dict[str, set[tuple[str, str]]] = {}
        for sender, receiver in pairs:
            named.setdefault(f"{prefixes[sender]}_{prefixes[receiver]}", set()).add(
                (sender, receiver))
        clashing: set[str] = set()
        for group in named.values():
            if len(group) > 1:
                for side in zip(*group):  # the senders, then the receivers
                    if len(set(side)) > 1:
                        clashing.update(side)
        growing = [name for name in clashing
                   if behaviour_prefix(name, lengths[name] + 1) != prefixes[name]]
        if not growing:
            return prefixes
        for name in growing:
            lengths[name] += 1


def _external_attrs(decl: EndurantDecl) -> tuple[AttributeDecl, ...]:
    return decl.attributes_in(EXTERNAL_CATEGORIES)


def _controllable_attrs(decl: EndurantDecl) -> tuple[AttributeDecl, ...]:
    return decl.attributes_in(CONTROLLABLE_CATEGORIES)


def _sent(attr: str, first_link: tuple[str, ...]) -> str:
    return f"{first_link[0]}({attr})" if first_link else attr


@dataclass(frozen=True)
class _Relation:
    """A directed mereology channel: producer part -> consumer part."""

    sender: EndurantDecl
    receiver: EndurantDecl
    channel_name: str


class _ModelIndex:
    """Relations, axiom wiring and the channel table derived from a model,
    built once per model object (``_index``) and shared by the preflight,
    every compile of the model and ``print_process``.  It keeps no reference
    to the model, which holds it: names are looked up on the model, passed
    alongside.

    Parts are related when either mereology names the other's identifier
    type; each relation points at the part with controllable attributes
    (the consumer).
    """

    def __init__(self, model: DomainModel):
        self.parts = model.parts()
        self.id_owner = {p.id_type: p.name for p in self.parts if p.id_type}
        related: set[tuple[str, str]] = set()
        for part in self.parts:
            for leaf in (part.mereology.leaves() if part.mereology else ()):
                other = self.id_owner.get(leaf)
                if other is not None and other != part.name:
                    related.add(tuple(sorted((part.name, other))))
        ends: list[tuple[EndurantDecl, EndurantDecl]] = []
        for left_name, right_name in sorted(related):
            left, right = model_lookup(model, left_name), model_lookup(model, right_name)
            ends += [(sender, receiver) for sender, receiver in ((left, right), (right, left))
                     if _controllable_attrs(receiver)]
        self.prefixes = _channel_prefixes(
            [(sender.behaviour_name, receiver.behaviour_name) for sender, receiver in ends])
        self.relations = [_Relation(sender, receiver, f"{self.prefixes[sender.behaviour_name]}_"
                                                      f"{self.prefixes[receiver.behaviour_name]}_ch")
                          for sender, receiver in ends]
        self.by_channel: dict[str, _Relation] = {}
        self.by_pair: dict[tuple[str, str], _Relation] = {}
        self.outgoing: dict[str, list[_Relation]] = {}
        self.incoming: dict[str, list[_Relation]] = {}
        for relation in self.relations:
            self.by_channel.setdefault(relation.channel_name, relation)
            self.by_pair[relation.sender.name, relation.receiver.name] = relation
            self.outgoing.setdefault(relation.sender.name, []).append(relation)
            self.incoming.setdefault(relation.receiver.name, []).append(relation)

        # One pass wires the axioms: each source attribute's first chain link
        # (the first recorded wins), each target part's updates in declaration
        # order, and a diagnostic for each wiring no channel can carry.
        first_links: dict[tuple[str, str], tuple[str, ...]] = {}
        self.updates: dict[str, list[UpdateSpec]] = {}
        self.axiom_diagnostics: list[Diagnostic] = []
        driven: dict[tuple[str, str], str] = {}

        def refuse(axiom: AxiomDecl, source: AxiomSource, code: str, message: str) -> None:
            self.axiom_diagnostics.append(error(
                code, f"axiom {axiom.name!r}: {message}", source.span or axiom.span))

        for axiom in model.axioms:
            for source in axiom.sources:
                first = source.chain[:1]
                recorded = first_links.setdefault((source.sort, source.attr), first)
                if recorded != first:
                    refuse(axiom, source, "E308",
                           f"source {source.sort}.{source.attr} already goes on the wire as "
                           f"{_sent(source.attr, recorded)}, not {_sent(source.attr, first)}")
            target = model.endurant(axiom.target_sort)
            for attr, source in zip(axiom.target_attrs, axiom.sources) if target else ():
                if (target.name, attr) in driven:
                    refuse(axiom, source, "E307", f"{target.name}.{attr} is already driven "
                           f"by axiom {driven[target.name, attr]!r}")
                    continue
                driven[target.name, attr] = axiom.name
                src = model.endurant(source.sort)
                if src is None:
                    continue
                relation = self.by_pair.get((src.name, target.name))
                slots = [a.name for a in _external_attrs(src)]
                if src is target:
                    refuse(axiom, source, "E305", f"source {source.sort}.{source.attr} and the "
                           "target are the same part; no channel carries it")
                elif relation is None:
                    refuse(axiom, source, "E305", f"source {source.sort} has no channel to "
                           f"target {axiom.target_sort}; relate them in a mereology")
                elif source.attr not in slots:
                    refuse(axiom, source, "E305", f"source {source.sort}.{source.attr} is not "
                           "an external attribute; no channel carries it")
                else:
                    self.updates.setdefault(target.name, []).append(UpdateSpec(
                        attr, relation.channel_name, slots.index(source.attr),
                        source.chain[1:]))

        # One walk over the external attributes.  ``wires[part]`` pairs each
        # with the conversion applied before it goes on the wire: the first
        # chain link of an axiom sourcing it (an empty chain pins the raw
        # value), else the unique conversion from its kind, else none.  The
        # channel table: an attribute channel takes the first part's kind,
        # a relation the kinds its sender's wire carries; declarations win.
        from_kind: dict[str, list[ConversionDecl]] = {}
        for conv in model.conversions:
            from_kind.setdefault(conv.from_kind, []).append(conv)
        self.wires: dict[str, tuple[tuple[AttributeDecl, Optional[ConversionDecl]], ...]] = {}
        self.channel_kinds: dict[str, tuple[str, ...]] = {}
        self.readers: dict[str, list[str]] = {}
        self.kind_diagnostics: list[Diagnostic] = []
        previous: dict[str, tuple[str, str]] = {}
        for part in self.parts:
            wire = []
            for attr in _external_attrs(part):
                first = first_links.get((part.name, attr.name))
                if first is not None:
                    conv = model.conversion(first[0]) if first else None
                else:
                    candidates = from_kind.get(attr.quantity, ())
                    conv = candidates[0] if len(candidates) == 1 else None
                wire.append((attr, conv))
                name = attr_channel(attr.name)
                self.channel_kinds.setdefault(name, (attr.quantity,))
                self.readers.setdefault(name, []).append(part.behaviour_name)
                seen = previous.get(name)
                if seen is not None and seen[1] != attr.quantity:
                    self.kind_diagnostics.append(error(
                        "E306", f"attribute channel '{name}' is shared by {seen[0]!r} "
                                f"and {part.name!r} with different kinds", attr.span))
                previous[name] = (part.name, attr.quantity)
            self.wires[part.name] = tuple(wire)
        for relation in self.relations:
            self.channel_kinds.setdefault(relation.channel_name, tuple(
                conv.to_kind if conv else attr.quantity
                for attr, conv in self.wires[relation.sender.name]))
        for name, declared in model.channels_by_name.items():
            self.channel_kinds[name] = declared.kinds


def _index(model: DomainModel) -> _ModelIndex:
    return model.derived(_ModelIndex)


def derive_channels(model: DomainModel) -> tuple[ChannelDecl, ...]:
    """The model's channel set, a view of the index's channel table: one
    ``attr_<A>_ch`` per external dynamic attribute of a part, plus one channel
    per directed mereology relation.  Declarations override derived kinds."""
    return tuple(ChannelDecl(name, kinds)
                 for name, kinds in _index(model).channel_kinds.items())


def derive_signature(model: DomainModel, part_name: str) -> BehaviourSignature:
    """Behaviour signature for a part sort.  Its ``actions`` state the core
    cycle once: a read of each external attribute's channel in declaration
    order, then a receive on each incoming and a send on each outgoing
    mereology channel, by name."""
    index = _index(model)
    decl = model_lookup(model, part_name)
    if decl.kind != "part":
        raise NotAPart(part_name)
    actions = [(READ, attr_channel(a.name)) for a in _external_attrs(decl)]
    for op, relations in ((RECEIVE, index.incoming), (SEND, index.outgoing)):
        actions += sorted((op, r.channel_name) for r in relations.get(decl.name, ()))
    return BehaviourSignature(
        uid_param=decl.id_type or f"{decl.name}I",
        mereology_param=decl.mereology,
        static_params=tuple(a.name for a in decl.attributes_in((STATIC,))),
        controllable_params=tuple(a.name for a in _controllable_attrs(decl)),
        actions=tuple(actions),
    )


def compile_preflight(model: DomainModel) -> list[Diagnostic]:
    """Compilation preconditions, reported as diagnostics.

    E301 an inter-behaviour channel with nothing derivable to send and no
    declaration, E303 a controllable (biddable or programmable) attribute
    without an initial value, which a run's recursion payload carries,
    E305 an axiom source that no channel carries to its target (no relating
    mereology, the target's own part, or an attribute that is not external),
    E306 name collisions among behaviours or derived channels, or of a
    relation channel with an attribute channel, E307 a display attribute
    that is the target of a second axiom source, E308 a source attribute
    whose first conversion differs from an earlier source's.
    Computed once per model object; each call returns a fresh list.
    """
    return list(model.derived(_preflight))


def _preflight(model: DomainModel) -> tuple[Diagnostic, ...]:
    index = _index(model)
    out: list[Diagnostic] = []
    for part in index.parts:
        for attr in part.attributes:
            if attr.is_controllable and attr.init is None:
                out.append(error(
                    "E303", f"{attr.category} attribute {part.name}.{attr.name} "
                            "has no init value", attr.span))
    for relation in index.relations:
        if (not index.wires[relation.sender.name]
                and model.channel(relation.channel_name) is None):
            out.append(error(
                "E301", f"no derivable message kind for channel "
                        f"{relation.channel_name!r} ({relation.sender.name} -> "
                        f"{relation.receiver.name}) and none is declared",
                relation.sender.span))
    out += index.axiom_diagnostics
    behaviours: dict[str, str] = {}
    for part in index.parts:
        name = part.behaviour_name
        if name in behaviours:
            out.append(error(
                "E306", f"parts {behaviours[name]!r} and {part.name!r} share the "
                        f"behaviour name {name!r}", part.span))
        behaviours[name] = part.name
    out += index.kind_diagnostics
    for relation in index.relations:
        # Each (sender, receiver) pair has one relation, so any other relation
        # holding the name joins a different pair of parts.
        if index.by_channel[relation.channel_name] is not relation:
            out.append(error(
                "E306", f"derived channel name {relation.channel_name!r} is "
                        "ambiguous between two relations", relation.sender.span))
        elif relation.channel_name in index.readers:
            out.append(error("E306", f"derived channel name {relation.channel_name!r} is "
                                     "also an attribute channel", relation.sender.span))
    return tuple(out)


def compile_process(model: DomainModel, part_name: str,
                    always_core: bool = False) -> ProcessGraph:
    """Compile a part sort into its process graph.

    Composite parts become their core behaviour (elided when the part has no
    qualities of its own, unless ``always_core``) in parallel with the
    compilations of their children; atomic parts entail no further
    compilations.  A model that ``check_wellformed`` rejects raises
    ``CompileError`` with its errors.
    """
    registry = _gate(model)
    root = _build_node(model, registry, always_core, part_name)
    process_names = {n.process.name for n in root.walk() if n.process}
    channels = _resolved_channels(model, process_names)
    return ProcessGraph(root, channels, registry, model)


def _gate(model: DomainModel) -> KindRegistry:
    """The kind registry of a model ``check_wellformed`` accepts, else
    ``CompileError`` with its errors (read from the cache, not re-checked)."""
    errors = [d for d in model.derived(_check_wellformed) if d.is_error]
    if errors:
        raise CompileError(errors)
    return registry_for_model(model)[0]


def _build_node(model: DomainModel, registry: KindRegistry, always_core: bool,
                name: str) -> ProcessNode:
    """The process node of part ``name``; the gate refused cycles (E102) and
    deep trees (E120).  A module-level function, so a compile leaves no
    reference cycle for the cyclic collector."""
    decl = model_lookup(model, name)
    children = tuple(_build_node(model, registry, always_core, child)
                     for child in decl.children or ())
    index = _index(model)
    own_channels = name in index.outgoing or name in index.incoming
    wants_core = (not decl.is_composite or always_core
                  or bool(decl.attributes) or own_channels)
    core = _core_process(model, registry, decl) if wants_core else None
    return ProcessNode(name, core, children)


def compile_model(model: DomainModel, always_core: bool = False) -> ProcessGraph:
    """Compile from the root part (the unique part that is nobody's child);
    after the gate, a model without exactly one root is refused (E302)."""
    registry = _gate(model)
    parts = model.parts()
    if not parts:
        return ProcessGraph(None, (), registry, model)
    child_names = {c for p in parts for c in (p.children or ())}
    roots = [p.name for p in parts if p.name not in child_names]
    if len(roots) != 1:
        raise CompileError([error(
            "E302", f"expected one root part, found {roots or 'none'}")])
    return compile_process(model, roots[0], always_core=always_core)


def _core_process(model: DomainModel, registry: KindRegistry,
                  decl: EndurantDecl) -> ProcessDef:
    index = _index(model)
    signature = derive_signature(model, decl.name)
    wire = tuple((attr.name, conv.name if conv else None)
                 for attr, conv in index.wires[decl.name])

    controllable_order = {name: i for i, name in
                          enumerate(signature.controllable_params)}
    updates = sorted(index.updates.get(decl.name, ()),
                     key=lambda u: controllable_order.get(u.attr, len(controllable_order)))

    statics = []
    for attr in decl.attributes_in((STATIC,)):
        value = (parse_value(attr.init, registry.resolve(attr.quantity), registry)
                 if attr.init is not None else None)
        statics.append((attr.name, value))
    inits = []
    for attr in _controllable_attrs(decl):
        if attr.init is not None:
            inits.append((attr.name, parse_value(
                attr.init, registry.resolve(attr.quantity), registry)))

    return ProcessDef(
        name=decl.behaviour_name,
        part=decl.name,
        signature=signature,
        static_consts=tuple(statics),
        init_values=tuple(inits),
        body=CoreStep(wire=wire, updates=tuple(updates)),
    )


def _resolved_channels(model: DomainModel,
                       process_names: set[str]) -> tuple[ResolvedChannel, ...]:
    """The index's channels that a process in ``process_names`` reads or
    sends on, each attribute channel received by those of its readers."""
    index = _index(model)
    kinds = index.channel_kinds
    out = []
    for name, behaviours in index.readers.items():
        receivers = tuple(sorted(b for b in behaviours if b in process_names))
        if receivers:
            out.append(ResolvedChannel(name, kinds[name], True, "env", receivers))
    for relation in index.relations:
        sender, receiver = relation.sender.behaviour_name, relation.receiver.behaviour_name
        if sender in process_names or receiver in process_names:
            out.append(ResolvedChannel(relation.channel_name, kinds[relation.channel_name],
                                       False, sender, (receiver,)))
    return tuple(sorted(out, key=lambda c: (not c.external, c.name)))


# ---------------------------------------------------------------------------
# Pretty printer and JSON document
# ---------------------------------------------------------------------------

def _uid_var(part_name: str) -> str:
    """pi-suffixed variable: trailing 'P' of a sort is the word 'part'
    (PP -> p, DP -> d, TD -> td)."""
    stem = part_name[:-1] if len(part_name) > 1 and part_name.endswith("P") else part_name
    return stem.lower() + "π"


def _mereo_vars(model: DomainModel, decl: EndurantDecl) -> str:
    expr = decl.mereology if decl.mereology is not None else MereologyExpr()
    id_owner = _index(model).id_owner
    names = [_uid_var(id_owner.get(leaf, leaf)) for leaf in expr.leaves()]
    if not names:
        return "()"
    if len(names) == 1:
        return names[0]
    return "(" + ",".join(names) + ")"


def _recv_var(channel: str) -> str:
    attr = channel_attr(channel)
    return channel[:-len("_ch")].split("_")[0] + "_d′" if attr is None else attr.lower()


def print_process(graph: ProcessGraph) -> str:
    """CSP/RSL-flavoured rendering of a compiled process graph."""
    model = _model_of(graph)
    times = " × "
    lines: list[str] = []
    for channel in graph.channels:
        lines.append(f"channel {channel.name} : {times.join(channel.kinds)}")
    if graph.channels:
        lines.append("")
    lines.append("value")
    if graph.root is None:
        return "\n".join(lines) + "\n"

    for node in graph.root.walk():
        process = node.process
        if process is None:
            continue
        lines.extend(_print_definition(model, process))
        lines.append("")

    for node in graph.root.walk():
        if node.process is not None and node.process.init_values:
            values = ",".join(fraction_str(v.magnitude)
                              for _, v in node.process.init_values)
            lines.append(f"init_{node.part} : DA_{node.process.name} = ({values})")
    composition = _composition_text(model, graph.root)
    lines.append(f"compile({graph.root.part}) ≡ {composition}")
    return "\n".join(lines) + "\n"


def _print_definition(model: DomainModel, process: ProcessDef) -> list[str]:
    index = _index(model)
    decl = model_lookup(model, process.part)
    sig = process.signature
    head_args = f"({_uid_var(process.part)},{_mereo_vars(model, decl)})"
    groups: dict[str, list[UpdateSpec]] = {}
    for update in process.body.updates:
        groups.setdefault(update.channel, []).append(update)
    grouped_attrs = {u.attr for updates in groups.values() for u in updates}
    ungrouped = [a for a in sig.controllable_params if a not in grouped_attrs]
    ctrl_head = ""
    type_line = None
    if sig.controllable_params:
        names = [f"{index.prefixes[index.by_channel[ch].sender.behaviour_name]}_da"
                 for ch in groups]
        ctrl_head = "(" + ",".join(names + [a.lower() for a in ungrouped]) + ")"
        grouped = ["(" + "×".join(u.attr for u in us) + ")" for us in groups.values()]
        type_line = f"type DA_{process.name} = " + "×".join(grouped + ungrouped)

    body = ""
    ends = 0
    for name, value in process.static_consts:
        text = fraction_str(value.magnitude) if value is not None else "···"
        body += f"let {name.lower()} = {text} in "
        ends += 1
    # The core cycle: each run of reads and receives binds in one let.
    wire = ",".join(f"{conv}({attr.lower()})" if conv else attr.lower()
                    for attr, conv in process.body.wire)
    ins: list[str] = []
    outs: list[str] = []
    for sends, actions in groupby(sig.actions, lambda action: action[0] == SEND):
        channels = [channel for _, channel in actions]
        (outs if sends else ins).extend(channels)
        if sends:
            body += "".join(f"{channel} ! ({wire}); " for channel in channels)
        else:
            body += (f"let ({','.join(map(_recv_var, channels))}) = "
                     f"({','.join(f'{channel}?' for channel in channels)}) in ")
            ends += 1
    tail_args = [f"conv_{ch[:-len('_ch')]}({_recv_var(ch)})" for ch in groups]
    tail_args += [a.lower() for a in ungrouped]
    tail = f"{process.name}{head_args}"
    if tail_args:
        tail += "(" + ",".join(tail_args) + ")"
    body += tail + " end" * ends

    sig_line = f"{process.name}: {sig.uid_param}"
    mereology = sig.mereology_param
    if mereology is not None and mereology.leaves():
        mer = _math_mereology(mereology)
        sig_line += f" × ({mer})" if len(mereology.leaves()) > 1 else f" × {mer}"
    if sig.controllable_params:
        sig_line += " → DA_" + process.name
    sig_line += " →"
    if ins:
        sig_line += " in " + ",".join(ins)
    if outs:
        sig_line += " out " + ",".join(outs)
    sig_line += " Unit"

    out = [sig_line] if type_line is None else [type_line, sig_line]
    out.append(f"{process.name}{head_args}{ctrl_head} ≡ {body}")
    for channel, updates in groups.items():
        conv_name = f"conv_{channel[:-len('_ch')]}"
        slots = [conv.to_kind.lower() if conv else attr.name.lower()
                 for attr, conv in index.wires[index.by_channel[channel].sender.name]]
        exprs = []
        for update in updates:
            expr = slots[update.index]
            for link in update.chain:
                expr = f"{link}({expr})"
            exprs.append(expr)
        out.append(f"{conv_name}({','.join(slots)}) ≡ ({','.join(exprs)})")
    return out


def _composition_text(model: DomainModel, node: ProcessNode) -> str:
    parts = []
    if node.process is not None:
        decl = model_lookup(model, node.part)
        text = f"{node.process.name}({_uid_var(node.part)},{_mereo_vars(model, decl)})"
        if node.process.signature.controllable_params:
            text += f"(init_{node.part})"
        parts.append(text)
    for child in node.children:
        parts.append(_composition_text(model, child))
    return " ∥ ".join(parts)


def _model_of(graph: ProcessGraph) -> DomainModel:
    if graph.model is None:
        raise ValueError("graph carries no model; compile via compile_process")
    return graph.model


def graph_to_json(graph: ProcessGraph) -> dict:
    """Machine-readable process-graph document with stable field names."""
    processes = []
    for node in graph.root.walk() if graph.root else ():
        process = node.process
        if process is None:
            continue
        sig = process.signature
        processes.append({
            "name": process.name,
            "part": process.part,
            "uid_type": sig.uid_param,
            "mereology": str(sig.mereology_param) if sig.mereology_param else "empty",
            "static": list(sig.static_params),
            "controllable": list(sig.controllable_params),
            "in_channels": list(sig.in_channels),
            "out_channels": list(sig.out_channels),
            "never_terminates": True,
            "init": {name: fraction_str(value.magnitude)
                     for name, value in process.init_values},
        })
    channels = [{
        "name": c.name,
        "kinds": list(c.kinds),
        "external": c.external,
    } for c in graph.channels]
    edges = [{
        "from": c.sender,
        "to": receiver,
        "channel": c.name,
    } for c in graph.channels for receiver in c.receivers]
    return {
        "composition": _node_json(graph.root) if graph.root else None,
        "processes": processes,
        "channels": channels,
        "edges": edges,
    }


def _node_json(node: ProcessNode) -> dict:
    # Module level: a nested recursive function would be a reference cycle.
    return {
        "part": node.part,
        "process": node.process.name if node.process else None,
        "children": [_node_json(c) for c in node.children],
    }
