import random

import pytest

from domcalc import analysis
from domcalc.model import (
    AttributeDecl,
    ChannelDecl,
    DomainModel,
    EndurantDecl,
    MereologyExpr,
    UnknownSort,
    attr_channel,
    channel_attr,
    id_types_of,
    model_lookup,
)

from modelgen import random_model


def atomic_part(name, id_type=None, mereology=MereologyExpr(), **kw):
    return EndurantDecl(name, "part", "discrete", id_type=id_type or f"{name}I",
                        mereology=mereology, **kw)


@pytest.mark.parametrize("name, attr", [
    ("attr_LO_ch", "LO"), ("attr_VEL_ch", "VEL"), ("attr__ch", ""), ("attr_ch", ""),
    ("po_di_ch", None), ("attr_LO", None), ("xattr_LO_ch", None)])
def test_attribute_channel_names(name, attr):
    assert channel_attr(name) == attr
    assert ChannelDecl(name, ("m",)).is_external == (attr is not None)
    if attr:
        assert attr_channel(attr) == name


def test_lookup_composite_aircraft(aircraft_model):
    decl = model_lookup(aircraft_model, "AC")
    assert decl.is_composite
    assert set(decl.children) == {"PP", "TD", "DP"}


def test_lookup_unknown_sort(aircraft_model):
    with pytest.raises(UnknownSort):
        model_lookup(aircraft_model, "XX")


def test_lookup_single_sort_model():
    decl = atomic_part("PP")
    model = DomainModel((decl,))
    assert model_lookup(model, "PP") is decl


def test_id_types_of_aircraft(aircraft_model):
    assert id_types_of(aircraft_model) == {"ACI", "PPI", "TDI", "DPI"}


def test_id_types_of_empty_model():
    assert id_types_of(DomainModel()) == set()


def test_id_types_of_single_part():
    model = DomainModel((atomic_part("P", id_type="Π"),))
    assert id_types_of(model) == {"Π"}


# The validator rejects each violating combination of the kind matrix.

def test_material_with_mereology_rejected():
    bad = EndurantDecl("M", "material", "continuous", mereology=MereologyExpr(("PI",)))
    model = DomainModel((atomic_part("P"), bad))
    assert "E104" in {d.code for d in analysis.check_wellformed(model)}


def test_discrete_material_rejected():
    bad = EndurantDecl("M", "material", "discrete")
    codes = {d.code for d in analysis.check_wellformed(DomainModel((bad,)))}
    assert "E105" in codes


def test_component_with_mereology_rejected():
    bad = EndurantDecl("C", "component", "discrete", id_type="CI",
                       mereology=MereologyExpr(("PI",)))
    model = DomainModel((atomic_part("P"), bad))
    assert "E106" in {d.code for d in analysis.check_wellformed(model)}


def test_part_without_identifier_rejected():
    bad = EndurantDecl("P", "part", "discrete", mereology=MereologyExpr())
    codes = {d.code for d in analysis.check_wellformed(DomainModel((bad,)))}
    assert "E107" in codes


def test_part_without_mereology_rejected():
    bad = EndurantDecl("P", "part", "discrete", id_type="PI")
    codes = {d.code for d in analysis.check_wellformed(DomainModel((bad,)))}
    assert "E108" in codes


def test_mereology_leaves_closed_under_id_types():
    # Closure: every id type referenced by any mereology is produced by
    # id_types_of, for a spread of generated models.
    for seed in range(60):
        model = random_model(random.Random(seed))
        ids = id_types_of(model)
        for endurant in model.endurants:
            if endurant.mereology is not None:
                assert set(endurant.mereology.leaves()) <= ids


def test_attribute_category_helpers():
    attr = AttributeDecl("A", "m", "reactive")
    assert attr.is_external and not attr.is_controllable
    attr = AttributeDecl("B", "m", "programmable", init="0")
    assert attr.is_controllable and not attr.is_external
