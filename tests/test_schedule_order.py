"""The scheduler's choice of rendezvous, pinned independently of its code.

Enabled inter-behaviour rendezvous are taken in channel-name order (one
sender per channel) and the list is rotated by the seed, one position per
step.  External channels record ``env`` as their sender, which must never
make a process of that name a party to an external channel.
"""

import json
import random

import pytest

from domcalc import compiler
from domcalc.dsl import parse_model
from domcalc.simulator import EnvironmentScript, TraceEvent, instantiate, run
from modelgen import pairs_model, random_script


@pytest.mark.parametrize("seed", [0, 7, 29])
def test_rotation_over_channel_name_order(seed):
    graph = compiler.compile_model(pairs_model(random.Random(4), 30))
    channels = sorted(c.name for c in graph.channels if not c.external)
    assert len(channels) == 30
    config = instantiate(graph, random_script(random.Random(4), graph), seed=seed)
    sends = [e.channel for e in run(config, 30) if e.kind == "send"]
    # All 30 pairs are enabled at every step, step 0 included: with fewer,
    # seed 29 could not pick the 30th channel first.
    assert sends == [channels[(seed + step) % 30] for step in range(30)]


def _renamed_aircraft_trace(aircraft_path, aircraft_script_path, behaviour):
    text = aircraft_path.read_text(encoding="utf-8")
    assert text.count("behaviour position;") == 1
    model, diagnostics = parse_model(text.replace("behaviour position;",
                                                  f"behaviour {behaviour};"))
    assert not diagnostics, diagnostics
    graph = compiler.compile_model(model)
    assert behaviour in {p.name for p in graph.processes()}
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), graph)
    return run(instantiate(graph, script, seed=3), 200)


def test_process_named_env_is_not_an_external_sender(aircraft_path, aircraft_script_path):
    env = _renamed_aircraft_trace(aircraft_path, aircraft_script_path, "env")
    envoy = _renamed_aircraft_trace(aircraft_path, aircraft_script_path, "envoy")
    assert sum(e.kind == "send" for e in envoy) == 200
    assert env == tuple(
        TraceEvent(e.step, e.kind, e.channel, "env" if e.process == "envoy" else e.process,
                   e.payload)
        for e in envoy)
