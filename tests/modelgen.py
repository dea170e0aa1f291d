"""Seeded generators for well-formed models and environment scripts.

Generated models are aircraft-shaped but randomized: one composite root over
one to three atomic parts, the first of which produces external attribute
values, optionally a last part consuming them through conversion chains under
a tracking axiom.  Everything is driven by a caller-supplied Random, so a
seed pins the model exactly.
"""

import random
from fractions import Fraction

from domcalc.model import (
    AttributeDecl,
    AxiomDecl,
    AxiomSource,
    ConversionDecl,
    DomainModel,
    EndurantDecl,
    MereologyExpr,
)
from domcalc.simulator import EnvironmentScript, ScriptTrack, TraceEvent
from domcalc.units import Quantity

KIND_POOL = ["m", "kg", "point m", "point deg", "interval s", "interval K",
             "km/h", "Temp"]
EXTERNAL_CATEGORIES = ["inert", "reactive", "autonomous"]
AFFINE_SCALES = [Fraction(1), Fraction(2), Fraction(10), Fraction(1, 2)]
AFFINE_OFFSETS = [Fraction(0), Fraction(1), Fraction(-2)]


def random_model(rng: random.Random) -> DomainModel:
    n_children = rng.randint(1, 3)
    child_names = [f"P{i}" for i in range(n_children)]
    producer = child_names[0]
    consumer = child_names[-1] if n_children >= 2 and rng.random() < 0.85 else None

    producer_kinds = rng.sample(KIND_POOL, rng.randint(1, 3))
    producer_attrs = tuple(
        AttributeDecl(f"A{i}", kind, rng.choice(EXTERNAL_CATEGORIES))
        for i, kind in enumerate(producer_kinds))

    conversions: list[ConversionDecl] = []
    consumer_attrs: list[AttributeDecl] = []
    sources: list[AxiomSource] = []
    if consumer is not None:
        # Parts carry at most three attributes, extras included.
        tracked = rng.sample(producer_attrs,
                             rng.randint(1, min(2, len(producer_attrs))))
        tracked.sort(key=producer_attrs.index)
        for attr in tracked:
            rec, disp = f"r{attr.name}", f"d{attr.name}"
            s2 = rng.choice(AFFINE_SCALES)
            o2 = rng.choice(AFFINE_OFFSETS)
            conversions.append(ConversionDecl(
                f"a2r{attr.name}", attr.quantity, rec,
                rng.choice(AFFINE_SCALES), Fraction(0)))
            conversions.append(ConversionDecl(
                f"r2d{attr.name}", rec, disp, s2, o2, inverse_of=f"d2r{attr.name}"))
            conversions.append(ConversionDecl(
                f"d2r{attr.name}", disp, rec, 1 / s2, -o2 / s2,
                inverse_of=f"r2d{attr.name}"))
            consumer_attrs.append(AttributeDecl(
                f"d{attr.name}", disp, "programmable", init=str(rng.randint(-5, 5))))
            sources.append(AxiomSource(
                producer, attr.name, (f"a2r{attr.name}", f"r2d{attr.name}")))
        if len(consumer_attrs) < 3 and rng.random() < 0.3:
            consumer_attrs.append(AttributeDecl(
                "BID", rng.choice(["m", "kg"]), "biddable", init=str(rng.randint(0, 9))))
        if len(consumer_attrs) < 3 and rng.random() < 0.3:
            consumer_attrs.append(AttributeDecl(
                "SC", "m", "static", init=str(rng.randint(0, 9))))

    middles = child_names[1:-1] if consumer is not None else child_names[1:]
    middle_attrs = {
        name: tuple(AttributeDecl(f"{name}M{i}", rng.choice(["m", "kg"]),
                                  rng.choice(EXTERNAL_CATEGORIES))
                    for i in range(rng.randint(0, 2)))
        for name in middles}

    endurants = [EndurantDecl(
        "RT", "part", "discrete", children=tuple(child_names),
        id_type="RTI", mereology=MereologyExpr())]
    for name in child_names:
        if name == producer:
            attrs = producer_attrs
            mereology = MereologyExpr((f"{consumer}I",)) if consumer else MereologyExpr()
        elif name == consumer:
            attrs = tuple(consumer_attrs)
            mereology = MereologyExpr((f"{producer}I",))
            middle = child_names[1] if n_children == 3 else None
            if middle and middle_attrs[middle] and rng.random() < 0.5:
                mereology = MereologyExpr((f"{producer}I", f"{middle}I"))
        else:
            attrs = middle_attrs[name]
            mereology = MereologyExpr()
        endurants.append(EndurantDecl(
            name, "part", "discrete", id_type=f"{name}I",
            mereology=mereology, attributes=attrs))
    if rng.random() < 0.3:
        endurants.append(EndurantDecl("MAT", "material", "continuous"))
    if rng.random() < 0.3:
        endurants.append(EndurantDecl("CMP", "component", "discrete", id_type="CMPI"))

    axioms = ()
    if consumer is not None and sources:
        axioms = (AxiomDecl(
            "tracks", consumer,
            tuple(a.name for a in consumer_attrs if a.category == "programmable"),
            tuple(sources)),)
    return DomainModel(tuple(endurants), tuple(conversions), (), axioms)


def pairs_model(rng: random.Random, n: int) -> DomainModel:
    """``n`` independent sensor/display pairs under one composite root.

    Each sensor reads one or two external attributes and sends them to its
    display, which tracks them as programmable attributes under an axiom.
    Behaviour names are multi-word (``sensor_a_b``, ``display_a_b``) so the
    word-initial channel prefixes of different pairs never collide (E306).
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    sensors: list[EndurantDecl] = []
    displays: list[EndurantDecl] = []
    conversions: list[ConversionDecl] = []
    axioms: list[AxiomDecl] = []
    for i in range(n):
        tag = f"{letters[i // 26 % 26]}_{letters[i % 26]}"
        sensor, display = f"S{i}", f"D{i}"
        attrs = tuple(
            AttributeDecl(f"A{i}K{k}", kind, rng.choice(EXTERNAL_CATEGORIES))
            for k, kind in enumerate(rng.sample(KIND_POOL, rng.randint(1, 2))))
        targets: list[AttributeDecl] = []
        sources: list[AxiomSource] = []
        for attr in attrs:
            rec, disp = f"r{attr.name}", f"d{attr.name}"
            s2 = rng.choice(AFFINE_SCALES)
            o2 = rng.choice(AFFINE_OFFSETS)
            conversions += [
                ConversionDecl(f"a2r{attr.name}", attr.quantity, rec,
                               rng.choice(AFFINE_SCALES), Fraction(0)),
                ConversionDecl(f"r2d{attr.name}", rec, disp, s2, o2,
                               inverse_of=f"d2r{attr.name}"),
                ConversionDecl(f"d2r{attr.name}", disp, rec, 1 / s2, -o2 / s2,
                               inverse_of=f"r2d{attr.name}")]
            targets.append(AttributeDecl(disp, disp, "programmable",
                                         init=str(rng.randint(-5, 5))))
            sources.append(AxiomSource(sensor, attr.name,
                                       (f"a2r{attr.name}", f"r2d{attr.name}")))
        sensors.append(EndurantDecl(
            sensor, "part", "discrete", id_type=f"{sensor}I",
            mereology=MereologyExpr((f"{display}I",)), attributes=attrs,
            behaviour=f"sensor_{tag}"))
        displays.append(EndurantDecl(
            display, "part", "discrete", id_type=f"{display}I",
            mereology=MereologyExpr((f"{sensor}I",)), attributes=tuple(targets),
            behaviour=f"display_{tag}"))
        axioms.append(AxiomDecl(f"tracks_{i}", display,
                                tuple(a.name for a in targets), tuple(sources)))
    children = tuple(p.name for p in sensors + displays)
    root = EndurantDecl("RT", "part", "discrete", children=children,
                        id_type="RTI", mereology=MereologyExpr())
    return DomainModel((root, *sensors, *displays), tuple(conversions), (), tuple(axioms))


def composite_chain(depth: int) -> DomainModel:
    """``depth`` parts, each the only child of the one before."""
    return DomainModel(tuple(
        EndurantDecl(f"P{i}", "part", "discrete", id_type=f"P{i}I", mereology=MereologyExpr(),
                     children=(f"P{i + 1}",) if i < depth - 1 else None)
        for i in range(depth)))


def random_script(rng: random.Random, graph, horizon: int = 80) -> EnvironmentScript:
    """Script covering every external channel of the graph from step 0
    through at least ``horizon`` steps."""
    registry = graph.registry
    tracks = {}
    for channel in graph.channels:
        if not channel.external:
            continue
        kind = registry.resolve(channel.kinds[0])
        steps = sorted({0} | {rng.randint(1, horizon) for _ in range(rng.randint(0, 4))})
        points = tuple(
            (step, Quantity(Fraction(rng.randint(-1000, 1000), 10 ** rng.randint(0, 2)),
                            kind))
            for step in steps)
        cycle = rng.choice([None, horizon + 1])
        if cycle is None:
            points = points + ((horizon, points[-1][1]),)
        tracks[channel.name] = ScriptTrack(points, cycle)
    return EnvironmentScript(tracks)


def perturb_recursion_payload(trace: tuple[TraceEvent, ...], rng: random.Random,
                              process: str) -> tuple[tuple[TraceEvent, ...], TraceEvent]:
    """Bump one component of one recursion payload of ``process`` by 1,
    returning the tampered trace and the tampered event."""
    candidates = [i for i, e in enumerate(trace)
                  if e.kind == "recursion" and e.process == process and e.payload]
    index = rng.choice(candidates)
    event = trace[index]
    slot = rng.randrange(len(event.payload))
    bumped = Quantity(event.payload[slot].magnitude + 1, event.payload[slot].kind)
    payload = event.payload[:slot] + (bumped,) + event.payload[slot + 1:]
    tampered = TraceEvent(event.step, event.kind, event.channel, event.process, payload)
    return trace[:index] + (tampered,) + trace[index + 1:], tampered
