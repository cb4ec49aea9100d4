import itertools
import json
from types import MappingProxyType

import pytest

import oracle_helpers as oh
from liespectra import tables, verify
from liespectra.mult import freudenthal_multiplicities, weyl_dimension_of
from liespectra.spectra import spectrum_of_multiset
from liespectra.torus import is_regular, parse_epsilon_shorthand, torus_from_epsilon
from liespectra.exceptions import ResourceLimitError
from liespectra import (
    build_root_datum,
    parse_group,
    run_check,
    verify_classification_sweep,
    verify_level_table,
    verify_multiplicity_bounds,
    verify_natural_module_regularity,
    verify_witness_elements,
)

LEVEL_DATA = [("A", r) for r in (1, 2, 3, 4, 5)] + \
    [("B", r) for r in (3, 4, 5)] + \
    [("C", r) for r in (2, 3, 4, 5)] + \
    [("D", r) for r in (4, 5, 6)]


@pytest.mark.parametrize("family,rank", LEVEL_DATA)
def test_level_tables_pass(family, rank):
    report = verify_level_table(family, rank)
    assert report.status == "Pass", report.cases


def test_level_table_content_spot_checks():
    report = verify_level_table("B", 4)
    by_label = {c["label"]: c for c in report.cases}
    assert "B4:[0,0,0,1]" in by_label["B4:level-1"]["actual"]
    assert by_label["B4:level-3-radical"]["actual"] == "{B4:[0,1,0,0]}"

    report = verify_level_table("C", 2)
    by_label = {c["label"]: c for c in report.cases}
    assert by_label["C2:level-3-radical"]["actual"] == "{C2:[2,0]}"

    report = verify_level_table("D", 5)
    by_label = {c["label"]: c for c in report.cases}
    for text in ("D5:[0,0,0,1,0]", "D5:[0,0,0,0,1]", "D5:[1,0,0,0,0]", "D5:[0,0,0,0,0]"):
        assert text in by_label["D5:level-1"]["actual"]


def test_level_table_rejects_unknown_family():
    with pytest.raises(ValueError, match="families A-D"):
        verify_level_table("E", 6)


def test_witnesses_pass():
    report = verify_witness_elements()
    assert report.status == "Pass", [c for c in report.cases if not c["ok"]]
    assert len(report.cases) > 20


def test_sweep_small_groups_at_depth_one():
    # Single-root strata are enough for the rank-2 groups.
    for fam, rank, bound in [("A", 2, 20), ("C", 2, 30), ("G", 2, 30)]:
        datum = build_root_datum(fam, rank)
        report = verify_classification_sweep(datum, bound, 1, seed=0)
        assert report.status == "Pass", (fam, rank, [c for c in report.cases if not c["ok"]])


def test_sweep_a3_needs_pair_strata():
    # The 6-dimensional module's witnesses force two vanishing roots, so the
    # depth-1 sweep has none, as the check expects there; pair strata supply
    # them.
    a3 = build_root_datum("A", 3)
    shallow = verify_classification_sweep(a3, 40, 1, seed=0)
    assert shallow.status == "Pass", [c for c in shallow.cases if not c["ok"]]
    case = next(c for c in shallow.cases if "[0,1,0]" in c["label"])
    assert case["expected"] == "no witness at depth 1 (root-pair strata only)"
    assert case["actual"] == "no witness"
    deep = verify_classification_sweep(a3, 40, 2, seed=0)
    assert deep.status == "Pass", [c for c in deep.cases if not c["ok"]]
    case = next(c for c in deep.cases if "[0,1,0]" in c["label"])
    assert case["actual"].startswith("almost-simple witness [")


def test_sweep_d4_triality_modules_at_depth_two():
    d4 = build_root_datum("D", 4)
    report = verify_classification_sweep(d4, 50, 2, seed=0)
    assert report.status == "Pass", [c for c in report.cases if not c["ok"]]
    hits = [c for c in report.cases if "almost-simple witness [" in c["actual"]]
    labels = {c["label"].split(" ")[0] for c in hits}
    assert labels == {"D4:[1,0,0,0]", "D4:[0,0,1,0]", "D4:[0,0,0,1]"}


def test_bounds_checks_pass():
    for fam, rank, bound in [("A", 3, 40), ("B", 3, 40), ("C", 2, 35), ("D", 4, 50)]:
        datum = build_root_datum(fam, rank)
        report = verify_multiplicity_bounds(datum, bound, seed=0)
        assert report.status == "Pass", (fam, rank)


@pytest.mark.parametrize("check", ["c99", "bounds"])
@pytest.mark.parametrize("rank,dim_bound", [(6, 100), (7, 200), (8, 300)])
def test_exceptional_sweeps_pass_at_depth_two(check, rank, dim_bound):
    report = run_check(check, family="E", rank=rank, dim_bound=dim_bound, depth=2, seed=0)
    assert report.status == "Pass", [c for c in report.cases if not c["ok"]]


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 2), ("C", 3), ("D", 4), ("D", 5)])
def test_natural_module_regularity_pass(family, rank):
    report = verify_natural_module_regularity(family, rank, samples=80, seed=1)
    assert report.status == "Pass", report.cases


@pytest.mark.parametrize("name,text", [("B3", "-1,a,b"), ("D4", "1,-1,a,b")])
def test_natural_check_lets_the_exempt_values_double(monkeypatch, name, text):
    # Regular elements whose natural-module spectrum doubles -1 (B), or both
    # 1 and -1 (D): the exempt values of each family's regularity rule.
    datum = parse_group(name)
    tokens = parse_epsilon_shorthand(text)
    monkeypatch.setattr(verify, "_sample_epsilon_tokens", lambda d, rng: tokens)
    s = torus_from_epsilon(datum, tokens)
    assert is_regular(s)
    sp = spectrum_of_multiset(s, freudenthal_multiplicities(datum.fundamental_weight(1)))
    assert sorted(m for _, m in sp.entries)[-2:] == ([2, 2] if name == "D4" else [1, 2])
    report = verify_natural_module_regularity(datum.family, datum.rank, samples=1, seed=0)
    assert report.status == "Pass", report.cases
    assert report.cases[0]["label"] == f"{name}: 1 non-central samples, 0 central skipped"


def test_natural_check_draws_past_the_sample_count_until_one_is_non_central():
    # Seed 179's first A2 draw is central, so one draw alone checks nothing.
    report = verify_natural_module_regularity("A", 2, samples=1, seed=179)
    assert report.status == "Pass", report.cases
    assert report.cases[0]["label"] == "A2: 1 non-central samples, 1 central skipped"


def test_reports_are_deterministic_and_json_stable():
    r1 = run_check("c99", family="C", rank=2, dim_bound=30, depth=1, seed=4)
    # Cleared, so that the second report comes from a second sweep, not the slot.
    verify.classification_sweep.cache_clear()
    r2 = run_check("c99", family="C", rank=2, dim_bound=30, depth=1, seed=4)
    j1, j2 = r1.to_json(), r2.to_json()
    assert set(j1) == {"check_id", "status", "notes", "elapsed_seconds", "cases"}
    j1.pop("elapsed_seconds")
    j2.pop("elapsed_seconds")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)
    assert j1["check_id"].startswith("c99:C2")


def test_run_check_dispatch_and_errors():
    report = run_check("level-table", family="C", rank=4)
    assert report.status == "Pass"
    with pytest.raises(ValueError, match="unknown check"):
        run_check("nonsense")


def test_run_check_rejects_an_unknown_option():
    # A misspelt option must not run the check at its default.
    with pytest.raises(TypeError, match="dimbound"):
        run_check("c99", family="A", rank=3, dimbound=10)


@pytest.mark.parametrize("check", ["level-table", "c99", "bounds", "natural"])
@pytest.mark.parametrize("missing", ["family", "rank"])
def test_run_check_names_a_missing_option(check, missing):
    options = {"family": "A", "rank": 3}
    del options[missing]
    with pytest.raises(ValueError, match=f"needs the option '{missing}'"):
        run_check(check, **options)


@pytest.mark.parametrize("check", ["c99", "bounds"])
def test_run_check_rejects_a_stratum_depth_other_than_one_or_two(check):
    with pytest.raises(ValueError, match="stratum depth must be 1 or 2, got 3"):
        run_check(check, family="A", rank=3, dim_bound=10, depth=3)


@pytest.mark.parametrize("check", ["c99", "bounds"])
@pytest.mark.parametrize("depth", [0, 3])
def test_a_bad_stratum_depth_is_rejected_before_any_module_is_listed(monkeypatch, check, depth):
    # A1 at dim <= 999,999 lists about a million candidates, which took
    # seconds before the depth was read.
    calls = []
    monkeypatch.setattr(verify, "enumerate_modules", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=f"stratum depth must be 1 or 2, got {depth}"):
        run_check(check, family="A", rank=1, dim_bound=999_999, depth=depth)
    assert calls == []


def test_deeper_sweeps_only_add_permitted_witnesses():
    # Depth 2 never contradicts depth 1: the almost-simple module set grows
    # monotonically and stays inside the permitted list.
    from liespectra.verify import classification_sweep
    from liespectra import tables

    for fam, rank, bound in [("A", 3, 40), ("B", 3, 40), ("D", 4, 50)]:
        datum = build_root_datum(fam, rank)
        _, _, shallow = classification_sweep(datum, bound, 1)
        _, _, deep = classification_sweep(datum, bound, 2)
        hits1 = {lam.coords for lam in shallow}
        hits2 = {lam.coords for lam in deep}
        assert hits1 <= hits2
        assert hits2 <= tables.permitted_almost_simple(datum)


@pytest.mark.parametrize("family,rank,bound", [("D", 4, 8), ("D", 5, 10), ("D", 6, 12)])
@pytest.mark.parametrize("seed", [0, 8])
def test_depth_one_finds_no_witness_on_the_root_pair_modules(family, rank, bound, seed):
    # Each root-pair module is permitted and witnessed at depth 2 only; c99
    # passes at both depths.
    datum = build_root_datum(family, rank)
    pair_only = tables.root_pair_almost_simple(datum)
    assert pair_only and pair_only <= tables.permitted_almost_simple(datum)
    for depth in (1, 2):
        report = run_check("c99", family=family, rank=rank, dim_bound=bound, depth=depth,
                           seed=seed)
        assert report.status == "Pass", report.cases
        _, _, outcomes = verify.classification_sweep(datum, bound, depth)
        assert {lam.coords for lam in outcomes} & pair_only == (pair_only if depth == 2 else set())
        expected = [c["expected"] for c in report.cases]
        assert expected.count("no witness at depth 1 (root-pair strata only)") == (
            len(pair_only) if depth == 1 else 0)


def test_failed_reports_carry_mismatch_pairs(monkeypatch):
    # Without the root-pair list, depth 1 expects a witness on A3 L(omega2).
    monkeypatch.setattr(tables, "root_pair_almost_simple", lambda datum: set())
    a3 = build_root_datum("A", 3)
    report = verify_classification_sweep(a3, 40, 1, seed=0)
    assert report.status == "Fail"
    bad = [c for c in report.cases if not c["ok"]]
    assert bad and all(c["expected"] != c["actual"] for c in bad)


# -- the shared classification sweep ------------------------------------------------

SHARED = {"family": "A", "rank": 3, "dim_bound": 40, "depth": 2, "seed": 0}


@pytest.fixture
def sweep_work(monkeypatch):
    """Counts the module multisets and element lists the sweep builds, starting
    from an empty slot."""
    counts = {"multisets": 0, "elements": 0}
    multisets, elements = verify.freudenthal_multiplicities, verify.sweep_elements

    def counted_multisets(*args, **kwargs):
        counts["multisets"] += 1
        return multisets(*args, **kwargs)

    def counted_elements(*args, **kwargs):
        counts["elements"] += 1
        return elements(*args, **kwargs)

    monkeypatch.setattr(verify, "freudenthal_multiplicities", counted_multisets)
    monkeypatch.setattr(verify, "sweep_elements", counted_elements)
    verify.classification_sweep.cache_clear()
    yield counts
    verify.classification_sweep.cache_clear()


def _stable_json(report):
    payload = report.to_json()
    del payload["elapsed_seconds"]
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("first,second", [("c99", "bounds"), ("bounds", "c99")])
def test_second_check_on_the_same_input_reads_the_first_ones_sweep(sweep_work, first, second):
    run_check(first, **SHARED)
    built = dict(sweep_work)
    assert built["elements"] == 1 and built["multisets"] > 0
    run_check(second, **SHARED)
    assert sweep_work == built


@pytest.mark.parametrize("first,second", [("c99", "bounds"), ("bounds", "c99")])
def test_a_check_with_another_seed_reads_the_same_sweep(sweep_work, first, second):
    # No sweep element reads the seed, so the seed is not part of the key.
    run_check(first, **SHARED)
    built = dict(sweep_work)
    run_check(second, **{**SHARED, "seed": 1})
    run_check(first, **{**SHARED, "seed": 12345})
    assert sweep_work == built


@pytest.mark.parametrize("change", [
    {"family": "B"}, {"dim_bound": 41}, {"depth": 1},
])
def test_any_other_input_runs_a_fresh_sweep(sweep_work, change):
    run_check("c99", **SHARED)
    built = dict(sweep_work)
    run_check("bounds", **{**SHARED, **change})
    assert sweep_work["elements"] == built["elements"] + 1
    assert sweep_work["multisets"] > built["multisets"]
    # The slot now holds the new input, so the first one is swept again.
    run_check("c99", **SHARED)
    assert sweep_work["elements"] == built["elements"] + 2


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("first,second", [("c99", "bounds"), ("bounds", "c99")])
def test_shared_and_fresh_sweeps_give_the_same_reports(depth, first, second):
    options = {**SHARED, "depth": depth}
    verify.classification_sweep.cache_clear()
    shared = [_stable_json(run_check(check, **options)) for check in (first, second)]
    fresh = []
    for check in (first, second):
        verify.classification_sweep.cache_clear()
        fresh.append(_stable_json(run_check(check, **options)))
    assert shared == fresh


@pytest.mark.parametrize("check", ["c99", "bounds"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("family,rank,bound", [("A", 3, 40), ("G", 2, 60), ("C", 3, 60)])
def test_sweep_reports_are_the_same_for_every_seed(check, depth, family, rank, bound):
    # Every torsion slot of a sweep element takes a decoration value, so the
    # seed only labels the check id.  A fresh sweep per seed.
    reports = []
    for seed in (0, 1, 7, 12345):
        verify.classification_sweep.cache_clear()
        payload = run_check(check, family=family, rank=rank, dim_bound=bound, depth=depth,
                            seed=seed).to_json()
        assert payload.pop("check_id").endswith(f":seed={seed}")
        del payload["elapsed_seconds"]
        reports.append(json.dumps(payload, sort_keys=True))
    assert len(set(reports)) == 1


def test_the_shared_sweep_is_read_only():
    datum = build_root_datum("A", 3)
    modules, elements, outcomes = verify.classification_sweep(datum, 40, 2)
    assert type(modules) is MappingProxyType and type(outcomes) is MappingProxyType
    assert type(elements) is tuple
    assert all(type(pairs) is tuple for pairs in outcomes.values())
    with pytest.raises(TypeError):
        modules[datum.weight((1, 0, 0))] = 0
    with pytest.raises(TypeError):
        outcomes[datum.weight((0, 1, 0))] = ()
    # modules maps each module, in (dimension, coordinates) order, to its dimension.
    assert list(modules.items()) == [
        (lam, dim) for dim, lam in verify.enumerate_modules(datum, 40, with_dimensions=True)
    ]
    assert list(modules) == verify.enumerate_modules(datum, 40)
    assert modules[datum.weight((0, 1, 0))] == 6


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_enumerate_modules_lists_the_box_filtered_by_the_weyl_dimension(name):
    # The modules are listed on running Weyl factors; the oracle computes
    # every dimension of the coordinate box from scratch.  Twice the
    # smallest fundamental dimension, or 300, lists at least one module.
    datum = parse_group(name)
    n = datum.rank
    smallest = min(weyl_dimension_of(datum, [int(i == j) for j in range(n)]) for i in range(n))
    bound = max(300, 2 * smallest)
    box = itertools.product(*(range(cap + 1) for cap in verify._coordinate_caps(datum, bound)))
    expected = sorted((dim, coords) for coords in box if any(coords)
                      for dim in [weyl_dimension_of(datum, coords)] if dim <= bound)
    got = verify.enumerate_modules(datum, bound, with_dimensions=True)
    assert expected and [(dim, lam.coords) for dim, lam in got] == expected


@pytest.mark.parametrize("rejected,error,match", [
    ({"depth": 3}, ValueError, "stratum depth must be 1 or 2"),
    ({"family": "G", "rank": 2, "dim_bound": 1_100_000}, ResourceLimitError,
     "exceeds the largest module dimension"),
    ({"family": "A", "rank": 2, "dim_bound": 1_000_000}, ResourceLimitError,
     "exceeding the enumeration bound"),
])
def test_a_rejected_input_raises_every_time_and_keeps_the_slot(sweep_work, rejected, error, match):
    run_check("c99", **SHARED)
    for check in ("c99", "bounds"):
        with pytest.raises(error, match=match):
            run_check(check, **{**SHARED, **rejected})
    assert verify.classification_sweep.cache_info().currsize == 1
    before = dict(sweep_work)
    run_check("bounds", **SHARED)
    assert sweep_work == before
