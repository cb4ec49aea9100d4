import json

import pytest

from liespectra import (
    build_root_datum,
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
    # depth-1 sweep misses them and the check reports the gap; pair strata
    # close it.
    a3 = build_root_datum("A", 3)
    shallow = verify_classification_sweep(a3, 40, 1, seed=0)
    assert shallow.status == "Fail"
    missing = [c for c in shallow.cases if not c["ok"]]
    assert any("[0,1,0]" in c["label"] for c in missing)
    deep = verify_classification_sweep(a3, 40, 2, seed=0)
    assert deep.status == "Pass", [c for c in deep.cases if not c["ok"]]


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


def test_natural_check_draws_past_the_sample_count_until_one_is_non_central():
    # Seed 179's first A2 draw is central, so one draw alone checks nothing.
    report = verify_natural_module_regularity("A", 2, samples=1, seed=179)
    assert report.status == "Pass", report.cases
    assert report.cases[0]["label"] == "A2: 1 non-central samples, 1 central skipped"


def test_reports_are_deterministic_and_json_stable():
    r1 = run_check("c99", family="C", rank=2, dim_bound=30, depth=1, seed=4)
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


def test_deeper_sweeps_only_add_permitted_witnesses():
    # Depth 2 never contradicts depth 1: the almost-simple module set grows
    # monotonically and stays inside the permitted list.
    from liespectra.verify import classification_sweep
    from liespectra import tables

    for fam, rank, bound in [("A", 3, 40), ("B", 3, 40), ("D", 4, 50)]:
        datum = build_root_datum(fam, rank)
        _, _, shallow = classification_sweep(datum, bound, 1, seed=0)
        _, _, deep = classification_sweep(datum, bound, 2, seed=0)
        hits1 = {lam.coords for lam in shallow}
        hits2 = {lam.coords for lam in deep}
        assert hits1 <= hits2
        assert hits2 <= tables.permitted_almost_simple(datum)


def test_failed_reports_carry_mismatch_pairs():
    a3 = build_root_datum("A", 3)
    report = verify_classification_sweep(a3, 40, 1, seed=0)
    assert report.status == "Fail"
    bad = [c for c in report.cases if not c["ok"]]
    assert bad and all(c["expected"] != c["actual"] for c in bad)
