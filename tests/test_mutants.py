import pathlib

import pytest

import mutants

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_edits_one_place_and_names_existing_tests(mutant):
    # The mutation gate runs outside tier-1; a change to a mutated line, or
    # a renamed killing test, shows here first.
    source = (ROOT / "src" / "domcalc" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8")
