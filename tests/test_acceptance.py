"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to watch them live).

The classification sweeps run with pair kernels included (stratum depth 2):
the witness families for the six-dimensional A3 module and the
eight-dimensional D4 modules force two independent vanishing roots, which no
single-root stratum can realize.
"""

import random
import time
from fractions import Fraction

import pytest

from liespectra import (
    Spectrum,
    ValueGroupElement,
    build_root_datum,
    classify,
    freudenthal_multiplicities,
    generic_regular_element,
    is_almost_simple,
    is_central,
    premet_weight_set,
    spectrum_of_multiset,
    tensor_spectrum,
    torus_from_epsilon_text,
    verify_level_table,
    verify_natural_module_regularity,
    verify_witness_elements,
    weyl_dimension,
)
from liespectra import tables
from liespectra.spectra import SpectrumKind
from liespectra.verify import classification_sweep, enumerate_modules, sample_torus_element

SWEEP_GROUPS = [("A", 2, 20), ("A", 3, 40), ("C", 2, 35), ("B", 3, 40), ("G", 2, 30), ("D", 4, 50)]
SWEEP_DEPTH = 2
SWEEP_SEED = 7


def _announce(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_results():
    out = {}
    for fam, rank, bound in SWEEP_GROUPS:
        datum = build_root_datum(fam, rank)
        modules, elements, outcomes = classification_sweep(datum, bound, SWEEP_DEPTH, SWEEP_SEED)
        out[(fam, rank)] = (datum, bound, modules, elements, outcomes)
    return out


def test_criterion_1_level_tables():
    start = time.perf_counter()
    data = (
        [("A", r) for r in (1, 2, 3, 4, 5)]
        + [("B", r) for r in (3, 4, 5)]
        + [("C", r) for r in (2, 3, 4, 5)]
        + [("D", r) for r in (4, 5, 6)]
    )
    failures = []
    for fam, rank in data:
        report = verify_level_table(fam, rank)
        if report.status != "Pass":
            failures.append((fam, rank, [c for c in report.cases if not c["ok"]]))
    elapsed = time.perf_counter() - start
    _announce(
        1,
        not failures and elapsed < 5.0,
        f"level tables for {len(data)} root data match the reference rows "
        f"(elapsed {elapsed:.2f}s < 5s)" if not failures else f"mismatches: {failures}",
    )


def test_criterion_2_witness_spectra():
    start = time.perf_counter()
    report = verify_witness_elements()
    ok = report.status == "Pass"

    def render_map(element, sp):
        return {element.render_value(v): m for v, m in sp.entries}

    a3 = build_root_datum("A", 3)
    s = torus_from_epsilon_text(a3, "a,a,1/a,1/a")
    sp = spectrum_of_multiset(s, freudenthal_multiplicities(a3.fundamental_weight(2)))
    ok &= render_map(s, sp) == {"a^2": 1, "1": 4, "a^-2": 1}

    c2 = build_root_datum("C", 2)
    s = torus_from_epsilon_text(c2, "1,-1")
    sp = spectrum_of_multiset(s, freudenthal_multiplicities(c2.fundamental_weight(2)))
    ok &= render_map(s, sp) == {"-1": 4, "1": 1}

    s = torus_from_epsilon_text(c2, "a,a")
    sp = spectrum_of_multiset(s, freudenthal_multiplicities(c2.fundamental_weight(2)))
    ok &= render_map(s, sp) == {"a^2": 1, "1": 3, "a^-2": 1}

    a2 = build_root_datum("A", 2)
    s = torus_from_epsilon_text(a2, "a,a,1/a^2")
    sp = spectrum_of_multiset(s, freudenthal_multiplicities(a2.weight((1, 1))))
    ok &= render_map(s, sp) == {"1": 4, "a^3": 2, "a^-3": 2}
    ok &= classify(sp).kind is SpectrumKind.NOT_ALMOST_SIMPLE

    elapsed = time.perf_counter() - start
    _announce(
        2,
        ok and elapsed < 1.0,
        f"witness spectra exact ({len(report.cases)} checks, elapsed {elapsed:.2f}s < 1s)",
    )


def test_criterion_3_classification_sweep(sweep_results):
    start = time.perf_counter()
    mismatches = []
    for fam, rank, bound in SWEEP_GROUPS:
        datum, _, modules, elements, outcomes = sweep_results[(fam, rank)]
        hits = {lam.coords for lam in outcomes}
        permitted = {
            coords
            for coords in tables.permitted_almost_simple(datum)
            if weyl_dimension(datum.weight(coords)) <= bound
        }
        if hits != permitted:
            mismatches.append((datum.name, sorted(hits), sorted(permitted)))
    elapsed = time.perf_counter() - start
    _announce(
        3,
        not mismatches and elapsed < 120.0,
        "almost-simple outcomes match the expected module lists exactly "
        f"(depth {SWEEP_DEPTH} strata, seed {SWEEP_SEED}, elapsed {elapsed:.2f}s < 120s)"
        if not mismatches else f"mismatches: {mismatches}",
    )


def test_criterion_4_multiplicity_free_battery(sweep_results):
    start = time.perf_counter()
    violations = []
    checked = 0
    for fam, rank, bound in SWEEP_GROUPS:
        datum, _, modules, elements, outcomes = sweep_results[(fam, rank)]
        multisets = {lam: freudenthal_multiplicities(lam) for lam in modules}
        # Sweep outcomes: almost simple only on multiplicity-free-nonzero modules.
        for lam, pairs in outcomes.items():
            if not multisets[lam].nonzero_multiplicities_all_one():
                violations.append((datum.name, lam.coords, "sweep outcome"))
        # 200 random non-central elements per group, regular and non-regular.
        rng = random.Random(SWEEP_SEED + rank)
        sampled = 0
        while sampled < 200:
            s = sample_torus_element(datum, rng)
            if is_central(s):
                continue
            sampled += 1
            for lam in modules:
                ms = multisets[lam]
                checked += 1
                if is_almost_simple(spectrum_of_multiset(s, ms)):
                    if not ms.nonzero_multiplicities_all_one():
                        violations.append((datum.name, lam.coords, s.label))
        # Converse: every multiplicity-free-nonzero module has an
        # almost-simple generic regular spectrum.
        generic = generic_regular_element(datum)
        for lam in modules:
            if multisets[lam].nonzero_multiplicities_all_one():
                if not is_almost_simple(spectrum_of_multiset(generic, multisets[lam])):
                    violations.append((datum.name, lam.coords, "generic regular"))
    elapsed = time.perf_counter() - start
    _announce(
        4,
        not violations and elapsed < 120.0,
        f"{checked} sampled spectra: almost-simple only on multiplicity-free-nonzero "
        f"modules, converse witnessed (elapsed {elapsed:.2f}s < 120s)"
        if not violations else f"violations: {violations[:5]}",
    )


def test_criterion_5_multiplicity_engine_self_consistency():
    start = time.perf_counter()
    plan = (
        [("A", r) for r in (1, 2, 3, 4, 5)]
        + [("B", r) for r in (2, 3, 4, 5)]
        + [("C", r) for r in (2, 3, 4, 5)]
        + [("D", r) for r in (4, 5)]
    )
    bad = []
    count = 0
    for fam, rank in plan:
        datum = build_root_datum(fam, rank)
        for lam in enumerate_modules(datum, 2000, include_zero=True):
            count += 1
            ms = freudenthal_multiplicities(lam)
            if ms.total != weyl_dimension(lam) or ms.support() != premet_weight_set(lam):
                bad.append(str(lam))
    for fam, rank in [("G", 2), ("F", 4)]:
        datum = build_root_datum(fam, rank)
        for i in range(1, rank + 1):
            lam = datum.fundamental_weight(i)
            count += 1
            ms = freudenthal_multiplicities(lam)
            if ms.total != weyl_dimension(lam) or ms.support() != premet_weight_set(lam):
                bad.append(str(lam))
    elapsed = time.perf_counter() - start
    timing = f"elapsed {elapsed:.2f}s, budget 180s"
    _announce(
        5,
        not bad and elapsed < 180.0,
        f"{count} modules: multiplicity totals equal Weyl dimensions and supports equal "
        f"the saturated weight sets ({timing})"
        if not bad else f"{len(bad)} of {count} modules wrong, first {bad[:5]} ({timing})",
    )


def _random_spectrum(rng, symmetric):
    values = set()
    while len(values) < rng.randrange(2, 5):
        torsion = Fraction(rng.randrange(4), 4) if rng.random() < 0.3 else Fraction(0)
        values.add(ValueGroupElement(torsion, tuple(rng.randrange(-2, 3) for _ in range(2))))
    d = {}
    for v in values:
        m = 1 if rng.random() < 0.8 else rng.randrange(2, 4)
        d[v] = m
        if symmetric:
            d[-v] = m
    if len(d) < 2:
        d[ValueGroupElement(Fraction(0), (1, 0))] = 1
        if symmetric:
            d[ValueGroupElement(Fraction(0), (-1, 0))] = 1
    return Spectrum.from_dict(d)


def test_criterion_6_kronecker_product_properties():
    start = time.perf_counter()
    rng = random.Random(2024)
    violations = 0
    triggered = [0, 0]
    for _ in range(1000):
        s1, s2 = _random_spectrum(rng, False), _random_spectrum(rng, False)
        t = tensor_spectrum(s1, s2)
        if is_almost_simple(t):
            triggered[0] += 1
            if (
                classify(s1).kind is not SpectrumKind.SIMPLE
                or classify(s2).kind is not SpectrumKind.SIMPLE
            ):
                violations += 1
        s1, s2 = _random_spectrum(rng, True), _random_spectrum(rng, True)
        t = tensor_spectrum(s1, s2)
        if is_almost_simple(t):
            triggered[1] += 1
            if classify(t).max_multiplicity > 2:
                violations += 1
    elapsed = time.perf_counter() - start
    _announce(
        6,
        violations == 0 and min(triggered) > 20 and elapsed < 5.0,
        f"1000 random spectrum pairs: {triggered[0]} plain and {triggered[1]} "
        f"inversion-symmetric almost-simple products, 0 violations "
        f"(elapsed {elapsed:.2f}s < 5s)",
    )


def test_criterion_7_natural_module_biconditionals():
    start = time.perf_counter()
    plan = (
        [("B", r) for r in (3, 4, 5)]
        + [("C", r) for r in (2, 3, 4, 5)]
        + [("D", r) for r in (4, 5, 6)]
    )
    failures = []
    for fam, rank in plan:
        report = verify_natural_module_regularity(fam, rank, samples=500, seed=SWEEP_SEED)
        if report.status != "Pass":
            failures.append((fam, rank, [c for c in report.cases if not c["ok"]]))
    elapsed = time.perf_counter() - start
    _announce(
        7,
        not failures and elapsed < 30.0,
        f"500 sampled epsilon tuples per group across {len(plan)} root data, "
        f"0 biconditional violations (elapsed {elapsed:.2f}s < 30s)"
        if not failures else f"failures: {failures}",
    )


def test_criterion_8_multiplicity_caps(sweep_results):
    start = time.perf_counter()
    violations = []
    a3_cap_attained = False
    for fam, rank, bound in SWEEP_GROUPS:
        datum, _, modules, elements, outcomes = sweep_results[(fam, rank)]
        for lam, pairs in outcomes.items():
            dim = weyl_dimension(lam)
            cap = tables.multiplicity_cap(datum, dim)
            for s, cls in pairs:
                if cls.max_multiplicity > cap:
                    violations.append((datum.name, lam.coords, s.label, cls.max_multiplicity, cap))
                if datum.name == "A3" and dim == 6 and cls.max_multiplicity == 4:
                    a3_cap_attained = True
    elapsed = time.perf_counter() - start
    _announce(
        8,
        not violations and a3_cap_attained,
        "all almost-simple outcomes satisfy their multiplicity caps; the A3 cap of 4 "
        f"is attained (elapsed {elapsed:.2f}s)"
        if not violations else f"violations: {violations}",
    )
