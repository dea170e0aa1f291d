"""Seeded generators for the benchmark's `.dom` models and scripts.

Every generated model is a composite root over groups of sensor parts that
feed one display part each, the shape of the bundled aircraft model.  A
sensor reads external attributes and sends their recorded form (conversion
``a2r``, scale ``a``) to its display; the display holds each one as a
programmable attribute through ``r2d`` (``c * r + o``) under a tracking
axiom.  The generator knows every coefficient, process name and channel
name, so the checks in ``check.py`` need nothing from domcalc.

Behaviour names are multi-word (``sensor_a_b_0``, ``display_a_b``) because
domcalc derives channel prefixes from word initials and rejects two
behaviours whose prefixes collide (E306).  That is a workaround for the
two-letter prefix limit, not a fix of it.

The seed picks kinds, coefficients and script values; the sizes are fixed
per workload, so every seed asks for the same amount of work.  Same seed,
same bytes.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction

KINDS = ("m", "kg", "point deg", "interval s", "km/h")
A2R_SCALES = (Fraction(1), Fraction(2), Fraction(10), Fraction(1, 2))
R2D_SCALES = (Fraction(1), Fraction(2), Fraction(1, 10), Fraction(1, 2))
R2D_OFFSETS = (Fraction(0), Fraction(1), Fraction(-2))


@dataclass(frozen=True)
class Attr:
    name: str
    kind: str
    a: Fraction  # a2r scale (offset 0)
    c: Fraction  # r2d scale
    o: Fraction  # r2d offset


@dataclass(frozen=True)
class Sensor:
    sort: str
    behaviour: str
    channel: str  # the sensor -> display channel
    attrs: tuple[Attr, ...]


@dataclass(frozen=True)
class Group:
    sort: str  # the display part
    behaviour: str
    sensors: tuple[Sensor, ...]


@dataclass(frozen=True)
class Track:
    points: tuple[tuple[int, Fraction], ...]
    cycle: int

    def value_at(self, step: int) -> Fraction:
        step %= self.cycle
        return [v for s, v in self.points if s <= step][-1]


@dataclass(frozen=True)
class Spec:
    """A model the checks understand: its groups and its script."""

    groups: tuple[Group, ...]
    tracks: dict  # external channel name -> Track

    @property
    def sensors(self) -> tuple[Sensor, ...]:
        return tuple(s for g in self.groups for s in g.sensors)

    def processes(self) -> set[str]:
        return {g.behaviour for g in self.groups} | {s.behaviour for s in self.sensors}

    def channels(self) -> set[str]:
        return ({s.channel for s in self.sensors}
                | {f"attr_{a.name}_ch" for s in self.sensors for a in s.attrs})


def fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _tag(index: int) -> tuple[str, str]:
    letters = string.ascii_lowercase
    return letters[index // 26 % 26], letters[index % 26]


def make_spec(rng: random.Random, shape: list[tuple[int, int]], horizon: int = 60) -> Spec:
    """``shape`` lists (sensors, attributes per sensor) for each group."""
    groups = []
    tracks = {}
    for g, (n_sensors, n_attrs) in enumerate(shape):
        x, y = _tag(g)
        sensors = []
        for j in range(n_sensors):
            attrs = tuple(
                Attr(f"V{x}{y}{j}{k}", rng.choice(KINDS), rng.choice(A2R_SCALES),
                     rng.choice(R2D_SCALES), rng.choice(R2D_OFFSETS))
                for k in range(n_attrs))
            sensors.append(Sensor(f"S{x}{y}{j}", f"sensor_{x}_{y}_{j}",
                                  f"s{x}{y}{j}_d{x}{y}_ch", attrs))
            for attr in attrs:
                cycle = rng.randint(horizon // 2, horizon)
                steps = sorted({0} | {rng.randrange(1, cycle) for _ in range(rng.randint(1, 3))})
                tracks[f"attr_{attr.name}_ch"] = Track(
                    tuple((s, Fraction(rng.randint(-9999, 9999), 100)) for s in steps), cycle)
        groups.append(Group(f"D{x}{y}", f"display_{x}_{y}", tuple(sensors)))
    return Spec(tuple(groups), tracks)


def model_text(spec: Spec) -> str:
    children = [s.sort for s in spec.sensors] + [g.sort for g in spec.groups]
    out = [f"part RT composite({', '.join(children)}) {{", "  id RTI;",
           "  mereo RT -> empty;", "}", ""]
    for group in spec.groups:
        for sensor in group.sensors:
            out += [f"part {sensor.sort} {{", f"  behaviour {sensor.behaviour};",
                    f"  id {sensor.sort}I;", f"  mereo {sensor.sort} -> {group.sort}I;"]
            out += [f"  attr {a.name} : {a.kind} reactive;" for a in sensor.attrs]
            out += ["}", ""]
        ids = " x ".join(f"{s.sort}I" for s in group.sensors)
        out += [f"part {group.sort} {{", f"  behaviour {group.behaviour};",
                f"  id {group.sort}I;", f"  mereo {group.sort} -> {ids};"]
        out += [f"  attr d{a.name} : d{a.name} programmable init 0;"
                for s in group.sensors for a in s.attrs]
        out += ["}", ""]
    for sensor in spec.sensors:
        for a in sensor.attrs:
            out += [
                f"conversion a2r{a.name} : {a.kind} -> r{a.name} = affine({fmt(a.a)}, 0);",
                f"conversion r2d{a.name} : r{a.name} -> d{a.name} inverse d2r{a.name}"
                f" = affine({fmt(a.c)}, {fmt(a.o)});",
                f"conversion d2r{a.name} : d{a.name} -> r{a.name} inverse r2d{a.name}"
                f" = affine({fmt(1 / a.c)}, {fmt(-a.o / a.c)});"]
    out.append("")
    for group in spec.groups:
        attrs = [a for s in group.sensors for a in s.attrs]
        targets = ", ".join(f"{group.sort}.d{a.name}" for a in attrs)
        sources = ";\n    ".join(f"{s.sort}.{a.name} via a2r{a.name}, r2d{a.name}"
                                 for s in group.sensors for a in s.attrs)
        out += [f"axiom tracks_{group.behaviour} {{",
                f"  display({targets}) tracks (\n    {sources}\n  );", "}", ""]
    return "\n".join(out)


def script_json(spec: Spec) -> str:
    return json.dumps({
        name: {"points": [[s, fmt(v)] for s, v in track.points], "cycle": track.cycle}
        for name, track in sorted(spec.tracks.items())}, indent=1, sort_keys=True) + "\n"


def pairs_wide(seed: int, pairs: int) -> Spec:
    """``pairs`` sensor/display pairs (2 * pairs + 1 parts), one attribute each."""
    return make_spec(random.Random(f"pairs_wide/{seed}"), [(1, 1)] * pairs)


def corpus(seed: int, small: int, large: tuple[int, ...]) -> list[Spec]:
    """``small`` aircraft-sized models of a fixed mix of shapes, then one model
    of ``n`` one-attribute pairs for each ``n`` in ``large``.  The seed
    shuffles the small shapes and picks everything but the sizes."""
    rng = random.Random(f"compile_corpus/{seed}")
    shapes = [[(1 + i // 3 % 2, 1 + i // 6 % 3)] * (1 + i % 3) for i in range(small)]
    rng.shuffle(shapes)
    specs = [make_spec(rng, shape) for shape in shapes]
    specs += [make_spec(rng, [(1, 1)] * n) for n in large]
    return specs


# The bundled aircraft corpus as a Spec; its script is read by ``aircraft``.
_AIRCRAFT = (
    ("position", "po_di_ch", (("LO", 10, Fraction(1, 10)), ("LA", 10, Fraction(1, 10)),
                              ("AL", 1, 1))),
    ("travel_dynamics", "td_di_ch", (("VEL", 1, 1), ("ACC", 100, Fraction(1, 100)))),
)


def aircraft(script: dict) -> Spec:
    """The aircraft model's known coefficients and its script, parsed from JSON
    whose values are written in each channel's own unit."""
    sensors = tuple(
        Sensor("", behaviour, channel,
               tuple(Attr(name, "", Fraction(a), Fraction(c), Fraction(0))
                     for name, a, c in attrs))
        for behaviour, channel, attrs in _AIRCRAFT)
    tracks = {name: Track(tuple((int(s), Fraction(text.split()[0])) for s, text in entry["points"]),
                          entry["cycle"])
              for name, entry in script.items()}
    return Spec((Group("DP", "display", sensors),), tracks)
