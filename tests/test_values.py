"""The value types outside rootdata.Weight: slotted records that print,
compare, hash, copy and pickle by their fields; Weight and RootDatum are
checked for deepcopy and pickle too."""

import copy
import pickle
from fractions import Fraction

import pytest

from liespectra import (
    build_root_datum, evaluate, freudenthal_multiplicities, is_central, is_regular, torus_element,
)
from liespectra.mult import WeightMultiset
from liespectra.spectra import Spectrum, SpectrumClass, SpectrumKind
from liespectra.torus import StratumSpec, TorusElement, ValueGroupElement
from liespectra.verify import VerificationReport
from liespectra.weights import LevelAssignment

A2 = build_root_datum("A", 2)
HALF = ValueGroupElement(Fraction(1, 2), (1,))
LAM = A2.weight((1, 0))
# One instance of each class, built afresh on each call.
MAKE = {
    "WeightMultiset": lambda: WeightMultiset(LAM, {LAM.coords: 1}, "valid"),
    "Spectrum": lambda: Spectrum(((HALF, 2),), ("s", "lam"), "valid"),
    "SpectrumClass": lambda: SpectrumClass(SpectrumKind.ALMOST_SIMPLE, HALF, 2),
    "ValueGroupElement": lambda: ValueGroupElement(Fraction(1, 2), (1,)),
    "TorusElement": lambda: torus_element(A2, [(Fraction(1, 2), (1,)), (0, (0,))], "s"),
    "StratumSpec": lambda: StratumSpec(A2, (A2.weight((1, -1)),)),
    "VerificationReport": lambda: VerificationReport("x", "Pass"),
    "LevelAssignment": lambda: LevelAssignment(LAM, 3),
}
# The same with one field changed.
VARIANT = {
    "WeightMultiset": lambda: WeightMultiset(LAM, {LAM.coords: 1}, "x"),
    "Spectrum": lambda: Spectrum(((HALF, 2),), ("s", "lam"), "x"),
    "SpectrumClass": lambda: SpectrumClass(SpectrumKind.ALMOST_SIMPLE, HALF, 5),
    "ValueGroupElement": lambda: ValueGroupElement(Fraction(1, 2), (2,)),
    "TorusElement": lambda: torus_element(A2, [(Fraction(1, 2), (1,)), (0, (0,))], "t"),
    "StratumSpec": lambda: StratumSpec(A2, (A2.weight((2, -2)),)),
    "VerificationReport": lambda: VerificationReport("x", "Fail"),
    "LevelAssignment": lambda: LevelAssignment(LAM, 4),
}


def make(name):
    return MAKE[name]()


ALL = list(MAKE)
FROZEN = [n for n in ALL if n != "VerificationReport"]
HASHABLE = ["Spectrum", "SpectrumClass", "ValueGroupElement", "TorusElement", "LevelAssignment"]
# A field of each class, and another value for it.
FIELD = {"WeightMultiset": ("validity", "x"), "Spectrum": ("validity", "x"),
         "SpectrumClass": ("max_multiplicity", 5), "ValueGroupElement": ("free", (2,)),
         "TorusElement": ("label", "t"), "StratumSpec": ("torsion_choices", {0: 1}),
         "LevelAssignment": ("level", 4)}


@pytest.mark.parametrize("name, expected", [
    ("WeightMultiset",
     "WeightMultiset(highest=Weight(coords=(1, 0)), counts={(1, 0): 1}, "
     "validity='valid')"),
    ("Spectrum",
     "Spectrum(entries=((ValueGroupElement(torsion=Fraction(1, 2), free=(1,)), 2),), "
     "source=('s', 'lam'), validity='valid')"),
    ("SpectrumClass",
     "SpectrumClass(kind=<SpectrumKind.ALMOST_SIMPLE: 'almost-simple'>, "
     "heavy_value=ValueGroupElement(torsion=Fraction(1, 2), free=(1,)), max_multiplicity=2)"),
    ("ValueGroupElement", "ValueGroupElement(torsion=Fraction(1, 2), free=(1,))"),
    ("TorusElement",
     "TorusElement(datum=RootDatum('A', 2), assignments=(ValueGroupElement(torsion="
     "Fraction(1, 2), free=(1,)), ValueGroupElement(torsion=Fraction(0, 1), free=(0,))), "
     "label='s', gen_names=('a',), gen_denoms=(1,))"),
    ("StratumSpec",
     "StratumSpec(datum=RootDatum('A', 2), kernel_weights=(Weight(coords=(1, -1)),), "
     "torsion_choices={})"),
    ("VerificationReport",
     "VerificationReport(check_id='x', status='Pass', cases=[], elapsed=0.0, notes=())"),
    ("LevelAssignment", "LevelAssignment(weight=Weight(coords=(1, 0)), level=3)"),
])
def test_repr_is_the_field_form(name, expected):
    assert repr(make(name)) == expected


@pytest.mark.parametrize("name", ALL)
def test_equality_is_by_class_and_fields(name):
    a = make(name)
    assert a == make(name) and not a != make(name)
    assert a != VARIANT[name]()
    assert a.__eq__(object()) is NotImplemented
    assert a.__eq__(make("Spectrum" if name == "ValueGroupElement" else "ValueGroupElement")) \
        is NotImplemented


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_equal(name):
    assert hash(make(name)) == hash(make(name))
    assert len({make(name), make(name)}) == 1


def test_a_value_hashes_as_its_field_tuple_and_differs_from_it():
    v = make("ValueGroupElement")
    assert hash(v) == hash((v.torsion, v.free))
    assert v != (v.torsion, v.free) and (v.torsion, v.free) != v


@pytest.mark.parametrize("name", ["WeightMultiset", "StratumSpec", "VerificationReport"])
def test_values_with_a_mutable_field_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(make(name))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_reject_assignment_and_deletion(name):
    value = make(name)
    field, other = FIELD[name]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_verification_report_accepts_field_assignment():
    report = VerificationReport("x", "Pass")
    report.status = "Fail"
    report.cases.append({"ok": False})
    report.elapsed = 1.5
    assert report == VerificationReport("x", "Fail", [{"ok": False}], 1.5)
    assert VerificationReport("x", "Pass").cases is not VerificationReport("x", "Pass").cases
    with pytest.raises(AttributeError):
        report.extra = 1


def test_constructors_keep_their_keyword_defaults():
    assert Spectrum(()) == Spectrum(entries=(), source=("", ""), validity="")
    spec = StratumSpec(A2, [A2.weight((1, -1))])
    assert spec.kernel_weights == (A2.weight((1, -1)),) and spec.torsion_choices == {}
    s = TorusElement(A2, (HALF, HALF))
    assert s == TorusElement(A2, (HALF, HALF), label="", gen_names=("a",), gen_denoms=(1,))


@pytest.mark.parametrize("name", ALL)
def test_copy_gives_an_equal_value(name):
    value = make(name)
    assert copy.copy(value) == value


@pytest.mark.parametrize("name", [*ALL, "Weight", "RootDatum"])
def test_deepcopy_and_pickle_give_an_equal_value(name):
    # A datum copies as the cached datum itself (a datum equals only
    # itself), so a copied Weight equals the original, whose equality needs
    # the same datum object.
    value = {"Weight": LAM, "RootDatum": A2}.get(name) or make(name)
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_copied_torus_element_evaluates_as_the_original():
    s = make("TorusElement")
    t = copy.copy(s)
    mu = s.datum.weight((1, 2))
    assert evaluate(t, mu) == evaluate(s, mu)
    assert (is_regular(t), is_central(t)) == (is_regular(s), is_central(s))
    ms = freudenthal_multiplicities(LAM)
    assert copy.copy(ms).layout == ms.layout
