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
from typing import Optional

from .analysis import NotAPart, parse_value, registry_for_model
from .diagnostics import Diagnostic, error
from .model import (
    CONTROLLABLE_CATEGORIES,
    EXTERNAL_CATEGORIES,
    PROGRAMMABLE,
    STATIC,
    AttributeDecl,
    BehaviourSignature,
    ChannelDecl,
    ConversionDecl,
    CoreStep,
    DomainModel,
    EndurantDecl,
    MereoEmpty,
    ProcessDef,
    ProcessGraph,
    ProcessNode,
    ResolvedChannel,
    SendSpec,
    UnknownSort,
    UpdateSpec,
)
from .units import KindRegistry, fraction_str


class CompileError(Exception):
    """Compilation refused; carries the diagnostics explaining why."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics) or "compile error")
        self.diagnostics = diagnostics


def behaviour_prefix(behaviour: str) -> str:
    """Two-letter channel prefix: word initials for multi-word names
    (travel_dynamics -> td), else the first two letters (position -> po)."""
    words = [w for w in behaviour.split("_") if w]
    if len(words) > 1:
        return "".join(w[0] for w in words)
    return behaviour[:2] or behaviour


def _external_attrs(decl: EndurantDecl) -> tuple[AttributeDecl, ...]:
    return decl.attributes_in(EXTERNAL_CATEGORIES)


def _controllable_attrs(decl: EndurantDecl) -> tuple[AttributeDecl, ...]:
    return decl.attributes_in(CONTROLLABLE_CATEGORIES)


@dataclass(frozen=True)
class _Relation:
    """A directed mereology channel: producer part -> consumer part."""

    sender: EndurantDecl
    receiver: EndurantDecl

    @property
    def channel_name(self) -> str:
        return (f"{behaviour_prefix(self.sender.behaviour_name)}_"
                f"{behaviour_prefix(self.receiver.behaviour_name)}_ch")


class _ModelIndex:
    """Lookups derived once from a model for one compile or print call.

    Names resolve to their first declaration, as in ``DomainModel.endurant``.
    Parts are related when either mereology names the other's identifier
    type; each relation points at the part with controllable attributes
    (the consumer).
    """

    def __init__(self, model: DomainModel):
        self.model = model
        self.endurants: dict[str, EndurantDecl] = {}
        for decl in model.endurants:
            self.endurants.setdefault(decl.name, decl)
        self.conversions: dict[str, ConversionDecl] = {}
        self.from_kind: dict[str, list[ConversionDecl]] = {}
        for conv in model.conversions:
            self.conversions.setdefault(conv.name, conv)
            self.from_kind.setdefault(conv.from_kind, []).append(conv)
        self.channels: dict[str, ChannelDecl] = {}
        for channel in model.channels:
            self.channels.setdefault(channel.name, channel)
        self.source_chains: dict[tuple[str, str], tuple[str, ...]] = {}
        for axiom in model.axioms:
            for source in axiom.sources:
                self.source_chains.setdefault((source.sort, source.attr), source.chain)

        self.parts = model.parts()
        self.id_owner = {p.id_type: p.name for p in self.parts if p.id_type}
        related: set[tuple[str, str]] = set()
        for part in self.parts:
            for leaf in (part.mereology.leaves() if part.mereology else ()):
                other = self.id_owner.get(leaf)
                if other is not None and other != part.name:
                    related.add(tuple(sorted((part.name, other))))
        self.relations: list[_Relation] = []
        for left_name, right_name in sorted(related):
            left, right = self.endurants[left_name], self.endurants[right_name]
            for sender, receiver in ((left, right), (right, left)):
                if _controllable_attrs(receiver):
                    self.relations.append(_Relation(sender, receiver))
        self.by_channel: dict[str, _Relation] = {}
        self.by_pair: dict[tuple[str, str], _Relation] = {}
        self.outgoing: dict[str, list[_Relation]] = {}
        self.incoming: dict[str, list[_Relation]] = {}
        for relation in self.relations:
            self.by_channel.setdefault(relation.channel_name, relation)
            self.by_pair[relation.sender.name, relation.receiver.name] = relation
            self.outgoing.setdefault(relation.sender.name, []).append(relation)
            self.incoming.setdefault(relation.receiver.name, []).append(relation)

    def lookup(self, name: str) -> EndurantDecl:
        decl = self.endurants.get(name)
        if decl is None:
            raise UnknownSort(name)
        return decl

    def wire(self, part: EndurantDecl
             ) -> list[tuple[AttributeDecl, Optional[ConversionDecl]]]:
        """Each external attribute of ``part`` with the conversion applied
        before it goes on the wire: the first chain link of an axiom sourcing
        it (an empty chain pins the raw value), else the unique conversion
        from the attribute's kind, else none."""
        out = []
        for attr in _external_attrs(part):
            chain = self.source_chains.get((part.name, attr.name))
            if chain is not None:
                conv = self.conversions.get(chain[0]) if chain else None
            else:
                candidates = self.from_kind.get(attr.quantity, ())
                conv = candidates[0] if len(candidates) == 1 else None
            out.append((attr, conv))
        return out


def derive_channels(model: DomainModel) -> tuple[ChannelDecl, ...]:
    """The model's channel set: one ``attr_<A>_ch`` per external dynamic
    attribute of a part, plus one channel per directed mereology relation.
    Explicit declarations override the derived message kinds."""
    return _derive_channels(_ModelIndex(model))


def _derive_channels(index: _ModelIndex) -> tuple[ChannelDecl, ...]:
    kinds: dict[str, tuple[str, ...]] = {}
    for part in index.parts:
        for attr in _external_attrs(part):
            kinds.setdefault(f"attr_{attr.name}_ch", (attr.quantity,))
    for relation in index.relations:
        kinds.setdefault(relation.channel_name, tuple(
            conv.to_kind if conv else attr.quantity
            for attr, conv in index.wire(relation.sender)))
    for declared in index.channels.values():
        kinds.setdefault(declared.name, declared.kinds)
    return tuple(ChannelDecl(name, index.channels[name].kinds if name in index.channels else k)
                 for name, k in kinds.items())


def derive_signature(model: DomainModel, part_name: str) -> BehaviourSignature:
    """Behaviour signature for a part sort.

    Input channels list the external-attribute channels in declaration order,
    then incoming mereology channels by name; output channels are the
    outgoing mereology channels.
    """
    return _derive_signature(_ModelIndex(model), part_name)


def _derive_signature(index: _ModelIndex, part_name: str) -> BehaviourSignature:
    decl = index.lookup(part_name)
    if decl.kind != "part":
        raise NotAPart(part_name)
    in_channels = [f"attr_{a.name}_ch" for a in _external_attrs(decl)]
    incoming = sorted(r.channel_name for r in index.incoming.get(decl.name, ()))
    outgoing = sorted(r.channel_name for r in index.outgoing.get(decl.name, ()))
    return BehaviourSignature(
        uid_param=decl.id_type or f"{decl.name}I",
        mereology_param=decl.mereology,
        static_params=tuple(a.name for a in decl.attributes_in((STATIC,))),
        controllable_params=tuple(a.name for a in _controllable_attrs(decl)),
        in_channels=tuple(in_channels + incoming),
        out_channels=tuple(outgoing),
    )


def compile_preflight(model: DomainModel) -> list[Diagnostic]:
    """Compilation preconditions, reported as diagnostics.

    E301 an inter-behaviour channel with nothing derivable to send and no
    declaration, E303 a programmable attribute without an initial value,
    E305 an axiom whose source part has no channel to the target part,
    E306 name collisions among behaviours or derived channels.
    """
    return _preflight(_ModelIndex(model))


def _preflight(index: _ModelIndex) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for part in index.parts:
        for attr in part.attributes:
            if attr.category == PROGRAMMABLE and attr.init is None:
                out.append(error(
                    "E303", f"programmable attribute {part.name}.{attr.name} "
                            "has no init value", attr.span))
    for relation in index.relations:
        if (not _external_attrs(relation.sender)
                and relation.channel_name not in index.channels):
            out.append(error(
                "E301", f"no derivable message kind for channel "
                        f"{relation.channel_name!r} ({relation.sender.name} -> "
                        f"{relation.receiver.name}) and none is declared",
                relation.sender.span))
    for axiom in index.model.axioms:
        target = index.endurants.get(axiom.target_sort)
        if target is None:
            continue
        for source in axiom.sources:
            src = index.endurants.get(source.sort)
            if src is None or src.name == target.name:
                continue
            if (src.name, target.name) not in index.by_pair:
                out.append(error(
                    "E305", f"axiom {axiom.name!r}: source {source.sort} has no "
                            f"channel to target {axiom.target_sort}; relate them "
                            "in a mereology", axiom.span))
    behaviours: dict[str, str] = {}
    for part in index.parts:
        name = part.behaviour_name
        if name in behaviours:
            out.append(error(
                "E306", f"parts {behaviours[name]!r} and {part.name!r} share the "
                        f"behaviour name {name!r}", part.span))
        behaviours[name] = part.name
    attr_kinds: dict[str, tuple[str, str]] = {}
    for part in index.parts:
        for attr in _external_attrs(part):
            seen = attr_kinds.get(attr.name)
            if seen is not None and seen[1] != attr.quantity:
                out.append(error(
                    "E306", f"attribute channel 'attr_{attr.name}_ch' is shared by "
                            f"{seen[0]!r} and {part.name!r} with different kinds",
                    attr.span))
            attr_kinds[attr.name] = (part.name, attr.quantity)
    for relation in index.relations:
        # Each (sender, receiver) pair has one relation, so any other relation
        # holding the name joins a different pair of parts.
        if index.by_channel[relation.channel_name] is not relation:
            out.append(error(
                "E306", f"derived channel name {relation.channel_name!r} is "
                        "ambiguous between two relations", relation.sender.span))
    return out


def compile_process(model: DomainModel, part_name: str,
                    always_core: bool = False) -> ProcessGraph:
    """Compile a part sort into its process graph.

    Composite parts become their core behaviour (elided when the part has no
    qualities of its own, unless ``always_core``) in parallel with the
    compilations of their children; atomic parts entail no further
    compilations.
    """
    registry, reg_diags = registry_for_model(model)
    index = _ModelIndex(model)
    diagnostics = [d for d in reg_diags if d.is_error]
    diagnostics += _preflight(index)
    if any(d.is_error for d in diagnostics):
        raise CompileError([d for d in diagnostics if d.is_error])

    visiting: list[str] = []

    def build(name: str) -> ProcessNode:
        if name in visiting:
            raise CompileError([error("E302", f"composite cycle through {name!r}")])
        decl = index.lookup(name)
        visiting.append(name)
        children = tuple(build(child) for child in decl.children or ())
        visiting.pop()
        own_channels = name in index.outgoing or name in index.incoming
        wants_core = (not decl.is_composite or always_core
                      or bool(decl.attributes) or own_channels)
        core = _core_process(index, registry, decl) if wants_core else None
        return ProcessNode(name, core, children)

    root = build(part_name)
    process_names = {n.process.name for n in root.walk() if n.process}
    channels = _resolved_channels(index, process_names)
    return ProcessGraph(root, channels, registry, model)


def compile_model(model: DomainModel, always_core: bool = False) -> ProcessGraph:
    """Compile from the root part (the unique part that is nobody's child)."""
    parts = model.parts()
    if not parts:
        return ProcessGraph(None, (), registry_for_model(model)[0], model)
    child_names = {c for p in parts for c in (p.children or ())}
    roots = [p.name for p in parts if p.name not in child_names]
    if len(roots) != 1:
        raise CompileError([error(
            "E302", f"expected one root part, found {roots or 'none'}")])
    return compile_process(model, roots[0], always_core=always_core)


def _core_process(index: _ModelIndex, registry: KindRegistry,
                  decl: EndurantDecl) -> ProcessDef:
    signature = _derive_signature(index, decl.name)
    wire = tuple((attr.name, conv.name if conv else None) for attr, conv in index.wire(decl))
    sends = sorted((SendSpec(r.channel_name, wire) for r in index.outgoing.get(decl.name, ())),
                   key=lambda s: s.channel)

    updates = []
    for axiom in index.model.axioms:
        if axiom.target_sort != decl.name:
            continue
        for target_attr, source in zip(axiom.target_attrs, axiom.sources):
            relation = index.by_pair.get((source.sort, decl.name))
            if relation is None:
                continue
            slot = [a.name for a in _external_attrs(relation.sender)].index(source.attr)
            updates.append(UpdateSpec(target_attr, relation.channel_name,
                                      slot, source.chain[1:]))
    controllable_order = {name: i for i, name in
                          enumerate(signature.controllable_params)}
    updates.sort(key=lambda u: controllable_order.get(u.attr, len(controllable_order)))

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
        body=CoreStep(receives=signature.in_channels,
                      sends=tuple(sends), updates=tuple(updates)),
    )


def _resolved_channels(index: _ModelIndex,
                       process_names: set[str]) -> tuple[ResolvedChannel, ...]:
    derived = {c.name: c for c in _derive_channels(index)}
    behaviours = {p.name: p.behaviour_name for p in index.parts}
    env: dict[str, ResolvedChannel] = {}
    for part in index.parts:
        behaviour = behaviours[part.name]
        if behaviour not in process_names:
            continue
        for attr in _external_attrs(part):
            name = f"attr_{attr.name}_ch"
            existing = env.get(name)
            receivers = (tuple(sorted(set(existing.receivers) | {behaviour}))
                         if existing else (behaviour,))
            kinds = existing.kinds if existing else derived[name].kinds
            env[name] = ResolvedChannel(name, kinds, True, "env", receivers)
    out = list(env.values())
    for relation in index.relations:
        sender = behaviours[relation.sender.name]
        receiver = behaviours[relation.receiver.name]
        if sender in process_names or receiver in process_names:
            decl = derived[relation.channel_name]
            out.append(ResolvedChannel(decl.name, decl.kinds, False,
                                       sender, (receiver,)))
    return tuple(sorted(out, key=lambda c: (not c.external, c.name)))


# ---------------------------------------------------------------------------
# Pretty printer and JSON document
# ---------------------------------------------------------------------------

def _uid_var(part_name: str) -> str:
    """pi-suffixed variable: trailing 'P' of a sort is the word 'part'
    (PP -> p, DP -> d, TD -> td)."""
    stem = part_name[:-1] if len(part_name) > 1 and part_name.endswith("P") else part_name
    return stem.lower() + "π"


def _mereo_vars(index: _ModelIndex, decl: EndurantDecl) -> str:
    expr = decl.mereology if decl.mereology is not None else MereoEmpty()
    names = [_uid_var(index.id_owner.get(leaf, leaf)) for leaf in expr.leaves()]
    if not names:
        return "()"
    if len(names) == 1:
        return names[0]
    return "(" + ",".join(names) + ")"


def _recv_var(channel: str) -> str:
    if channel.startswith("attr_") and channel.endswith("_ch"):
        return channel[len("attr_"):-len("_ch")].lower()
    return channel[:-len("_ch")].split("_")[0] + "_d′"


def print_process(graph: ProcessGraph) -> str:
    """CSP/RSL-flavoured rendering of a compiled process graph."""
    index = _ModelIndex(_model_of(graph))
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
        lines.extend(_print_definition(index, process))
        lines.append("")

    for node in graph.root.walk():
        if node.process is not None and node.process.init_values:
            values = ",".join(fraction_str(v.magnitude)
                              for _, v in node.process.init_values)
            lines.append(f"init_{node.part} : DA_{node.process.name} = ({values})")
    composition = _composition_text(index, graph.root)
    lines.append(f"compile({graph.root.part}) ≡ {composition}")
    return "\n".join(lines) + "\n"


def _print_definition(index: _ModelIndex, process: ProcessDef) -> list[str]:
    decl = index.lookup(process.part)
    sig = process.signature
    head_args = f"({_uid_var(process.part)},{_mereo_vars(index, decl)})"
    groups: dict[str, list[UpdateSpec]] = {}
    for update in process.body.updates:
        groups.setdefault(update.channel, []).append(update)
    grouped_attrs = {u.attr for updates in groups.values() for u in updates}
    ungrouped = [a for a in sig.controllable_params if a not in grouped_attrs]
    ctrl_head = ""
    type_line = None
    if sig.controllable_params:
        names = [f"{behaviour_prefix(index.by_channel[ch].sender.behaviour_name)}_da"
                 for ch in groups]
        ctrl_head = "(" + ",".join(names + [a.lower() for a in ungrouped]) + ")"
        grouped = ["(" + "×".join(u.attr for u in us) + ")" for us in groups.values()]
        type_line = f"type DA_{process.name} = " + "×".join(grouped + ungrouped)

    sig_line = f"{process.name}: {sig.uid_param}"
    if sig.mereology_param is not None and sig.mereology_param.leaves():
        leaves = sig.mereology_param.leaves()
        mer = leaves[0] if len(leaves) == 1 else "(" + "×".join(leaves) + ")"
        sig_line += f" × {mer}"
    if sig.controllable_params:
        sig_line += " → DA_" + process.name
    sig_line += " →"
    if sig.in_channels:
        sig_line += " in " + ",".join(sig.in_channels)
    if sig.out_channels:
        sig_line += " out " + ",".join(sig.out_channels)
    sig_line += " Unit"

    body = ""
    ends = 0
    for name, value in process.static_consts:
        text = fraction_str(value.magnitude) if value is not None else "···"
        body += f"let {name.lower()} = {text} in "
        ends += 1
    if process.body.receives:
        vars_ = [_recv_var(ch) for ch in process.body.receives]
        reads = [f"{ch}?" for ch in process.body.receives]
        body += f"let ({','.join(vars_)}) = ({','.join(reads)}) in "
        ends += 1
    for send in process.body.sends:
        payload = ",".join(f"{conv}({attr.lower()})" if conv else attr.lower()
                           for attr, conv in send.parts)
        body += f"{send.channel} ! ({payload}); "
    tail_args = [f"conv_{ch[:-len('_ch')]}({_recv_var(ch)})" for ch in groups]
    tail_args += [a.lower() for a in ungrouped]
    tail = f"{process.name}{head_args}"
    if tail_args:
        tail += "(" + ",".join(tail_args) + ")"
    body += tail + " end" * ends

    out = [sig_line] if type_line is None else [type_line, sig_line]
    out.append(f"{process.name}{head_args}{ctrl_head} ≡ {body}")
    for channel, updates in groups.items():
        conv_name = f"conv_{channel[:-len('_ch')]}"
        slots = [conv.to_kind.lower() if conv else attr.name.lower()
                 for attr, conv in index.wire(index.by_channel[channel].sender)]
        exprs = []
        for update in updates:
            expr = slots[update.index]
            for link in update.chain:
                expr = f"{link}({expr})"
            exprs.append(expr)
        out.append(f"{conv_name}({','.join(slots)}) ≡ ({','.join(exprs)})")
    return out


def _composition_text(index: _ModelIndex, node: ProcessNode) -> str:
    parts = []
    if node.process is not None:
        decl = index.lookup(node.part)
        text = f"{node.process.name}({_uid_var(node.part)},{_mereo_vars(index, decl)})"
        if node.process.signature.controllable_params:
            text += f"(init_{node.part})"
        parts.append(text)
    for child in node.children:
        parts.append(_composition_text(index, child))
    return " ∥ ".join(parts)


def _model_of(graph: ProcessGraph) -> DomainModel:
    if graph.model is None:
        raise ValueError("graph carries no model; compile via compile_process")
    return graph.model


def graph_to_json(graph: ProcessGraph) -> dict:
    """Machine-readable process-graph document with stable field names."""
    def node_json(node: ProcessNode) -> dict:
        return {
            "part": node.part,
            "process": node.process.name if node.process else None,
            "children": [node_json(c) for c in node.children],
        }

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
            "never_terminates": sig.never_terminates,
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
        "composition": node_json(graph.root) if graph.root else None,
        "processes": processes,
        "channels": channels,
        "edges": edges,
    }
