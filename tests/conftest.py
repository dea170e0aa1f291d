import pathlib

import pytest
from hypothesis import settings

from domcalc import compiler, dsl

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "domcalc" / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# ``pytest --hypothesis-profile=fuzz`` raises the budget of the oracle tests
# (``oracle_budget``); CI runs the tokenizer and parser oracles under it.
settings.register_profile("fuzz", max_examples=5000)


def oracle_budget(max_examples: int) -> settings:
    """A test's own example budget, or the loaded profile's when that is larger."""
    return settings(max_examples=max(max_examples, settings().max_examples), deadline=None)


@pytest.fixture(scope="session")
def aircraft_path() -> pathlib.Path:
    return CORPUS / "aircraft.dom"


@pytest.fixture(scope="session")
def aircraft_script_path() -> pathlib.Path:
    return CORPUS / "aircraft_script.json"


@pytest.fixture(scope="session")
def aircraft_model(aircraft_path):
    model, diagnostics = dsl.parse_file(str(aircraft_path))
    assert not diagnostics
    return model


@pytest.fixture(scope="session")
def aircraft_graph(aircraft_model):
    return compiler.compile_model(aircraft_model)


def short_id(value) -> str:
    """Test id of a parameter: its text, or its length when the text is long."""
    text = str(value)
    return text if len(text) <= 24 else f"{len(text)}-chars"
