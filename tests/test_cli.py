import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import liespectra.cli as cli
from liespectra import tables
from liespectra.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_command_text(capsys):
    code, out, _ = invoke(capsys, "weights", "--group", "A2", "--highest", "[1,1]")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [ln for ln in lines if ln.startswith("[")]
    assert len(rows) == 7
    assert "dim 8" in out
    # The validity banner is the final line.
    assert lines[-1].startswith("weight set valid for p=0 or p>e(G)=1")


def test_weights_command_json_matches_text(capsys):
    code, out, _ = invoke(capsys, "weights", "--group", "A2", "--highest", "[1,1]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 8
    assert payload["highest"] == "A2:[1,1]"
    assert len(payload["entries"]) == 7
    assert sum(m for _, m in payload["entries"]) == 8
    assert payload["entries"][0] == ["[1,1]", 1]
    assert "characteristic-0" in payload["validity"]


def test_weights_json_lists_every_weight_in_report_order(capsys):
    # Height deficit below the highest weight first, then lexicographic.
    code, out, _ = invoke(capsys, "weights", "--group", "B2", "--highest", "[1,1]", "--json")
    assert code == 0
    assert json.loads(out)["entries"] == [
        ["[1,1]", 1], ["[-1,3]", 1], ["[2,-1]", 1], ["[0,1]", 2], ["[-2,3]", 1], ["[1,-1]", 2],
        ["[-1,1]", 2], ["[2,-3]", 1], ["[0,-1]", 2], ["[-2,1]", 1], ["[1,-3]", 1], ["[-1,-1]", 1],
    ]


def test_spectrum_command_with_epsilon_shorthand(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "--group", "A3", "--highest", "[0,1,0]",
        "--epsilon", "a,a,1/a,1/a",
    )
    assert code == 0
    assert "classification: almost-simple" in out
    assert "max multiplicity 4" in out
    assert out.strip().splitlines()[-1].startswith("weight set valid")


def test_spectrum_command_with_inline_json_element(capsys):
    element = json.dumps(
        {"omega_values": [
            {"torsion": "0", "free": [1]},
            {"torsion": "0", "free": [2]},
            {"torsion": "1/2", "free": [1]},
        ]}
    )
    code, out, _ = invoke(
        capsys, "spectrum", "--group", "A3", "--highest", "[0,1,0]",
        "--element", element, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["kind"] == "almost-simple"
    assert payload["total"] == 6
    heavy = payload["classification"]["heavy_value"]
    assert heavy == "-1"
    assert payload["classification"]["max_multiplicity"] == 4


def test_spectrum_element_from_file(tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"omega_values": [
        {"torsion": "0", "free": [1]},
        {"torsion": "0", "free": [2]},
        {"torsion": "0", "free": [1]},
    ]}), encoding="utf-8")
    code, out, _ = invoke(
        capsys, "spectrum", "--group", "A3", "--highest", "[0,1,0]",
        "--element", str(path),
    )
    assert code == 0
    assert "classification: almost-simple" in out


def test_levels_command_json_schema(capsys):
    code, out, _ = invoke(capsys, "levels", "--family", "C", "--rank", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "C" and payload["rank"] == 4
    assert set(payload["levels"]) == {"1", "2"}
    assert "[0,0,0,0]" in payload["levels"]["1"]
    assert "[1,0,0,0]" in payload["levels"]["1"]
    assert "[0,1,0,0]" in payload["levels"]["2"]


def test_verify_command_level_table(capsys):
    code, out, _ = invoke(capsys, "verify", "--check", "level-table",
                          "--family", "C", "--rank", "4")
    assert code == 0
    assert "Pass" in out


def test_verify_command_witnesses_json(capsys):
    code, out, _ = invoke(capsys, "verify", "--check", "witnesses", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Pass"


def test_verify_command_exit_one_on_fail(capsys, monkeypatch):
    # A permitted list without A3's modules makes each of their witnesses a
    # mismatch.
    monkeypatch.setattr(tables, "permitted_almost_simple", lambda datum: set())
    code, out, _ = invoke(
        capsys, "verify", "--check", "c99", "--family", "A", "--rank", "3",
        "--dim-bound", "40", "--depth", "2",
    )
    assert code == 1
    assert "MISMATCH" in out


def test_verify_command_sweep_passes_at_depth_two(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--check", "c99", "--family", "C", "--rank", "2",
        "--dim-bound", "35", "--depth", "2",
    )
    assert code == 0


def test_usage_errors_exit_two(capsys):
    code, _, err = invoke(capsys, "weights", "--group", "H9", "--highest", "[1]")
    assert code == 2 and "H9" in err

    code, _, err = invoke(capsys, "weights", "--group", "A2", "--highest", "[1,x]")
    assert code == 2 and "'x'" in err

    code, _, err = invoke(capsys, "weights", "--group", "A2", "--highest", "[1]")
    assert code == 2 and "needs 2" in err

    code, _, err = invoke(capsys, "weights", "--group", "A2", "--highest", "1,1")
    assert code == 2 and "expected coordinates like [1,0,2]" in err

    code, _, err = invoke(capsys, "spectrum", "--group", "G2", "--highest", "[1,0]",
                          "--epsilon", "a,b")
    assert code == 2 and "A-D" in err

    code, _, err = invoke(capsys, "spectrum", "--group", "A2", "--highest", "[1,0]")
    assert code == 2 and "--element" in err

    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize("command,extra", [
    ("weights", ()), ("spectrum", ("--epsilon", "a,1,1/a")),
])
def test_a_highest_weight_prefix_must_name_the_group(capsys, command, extra):
    code, out, err = invoke(capsys, command, "--group", "A2", "--highest", "B2:[1,0]", *extra)
    assert code == 2 and out == ""
    assert "B2" in err and "A2" in err
    code, qualified, _ = invoke(capsys, command, "--group", "A2", "--highest", "A2:[1,1]", *extra)
    assert code == 0
    assert qualified == invoke(capsys, command, "--group", "A2", "--highest", "[1,1]", *extra)[1]


def test_spectrum_rejects_a_bad_inline_element_json(capsys):
    code, out, err = invoke(capsys, "spectrum", "--group", "A3", "--highest", "[0,1,0]",
                            "--element", "{bad")
    assert code == 2 and out == "" and "bad torus element JSON" in err


@pytest.mark.parametrize("argv, message", [
    (["info", "--group", "A\u00b2"], "cannot parse group 'A\u00b2'"),
    (["info", "--group", "A\u0662x"], "cannot parse group"),
    (["weights", "--group", "A1", "--highest", "[\u00b2]"], "bad coordinate token '\u00b2'"),
    (["weights", "--group", "A2", "--highest", "[1,+-1]"], "bad coordinate token '+-1'"),
    (["weights", "--group", "A2", "--highest", "[1,-]"], "bad coordinate token '-'"),
])
def test_non_decimal_digits_are_usage_errors_with_their_message(capsys, argv, message):
    # Superscripts pass str.isdigit but not int(); the parse names the token.
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "invalid literal" not in err


def test_decimal_digits_of_any_script_parse():
    # int() reads every Unicode decimal digit, so str.isdecimal admits them.
    assert cli.parse_weight_text("[\u0661,0]", cli.parse_group("A\u0662")).coords == (1, 0)


def test_importing_the_cli_loads_no_code_generation_modules():
    # A CLI process pays for every module it imports; the value types are
    # plain classes, so the dataclasses chain (inspect, ast, ...) stays out.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import liespectra.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'string'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


# Whole CLI processes that must answer (exit 0), each within its cap in
# seconds; a run with no cap of its own (None) gets 60 s.
SMOKE_RUNS = [
    # Every Dynkin table builds.
    *((["info", "--group", g], None) for g in ("A1", "B2", "C2", "D4", "E6", "E7", "E8", "F4", "G2")),
    # The positive roots are built along root strings: rank 32 takes tens of ms.
    *((["info", "--group", g], 10) for g in ("A32", "B32", "C32", "D32")),
    (["weights", "--group", "E6", "--highest", "[1,0,0,0,0,0]", "--json"], None),
    # More dominant weights per support than orbit-template slots, so the
    # orbits are filled slot by slot.
    (["weights", "--group", "A1", "--highest", "[1999]"], 10),
    (["weights", "--group", "A2", "--highest", "[40,40]", "--json"], 10),
    (["spectrum", "--group", "A3", "--highest", "[0,1,0]", "--epsilon", "a,a,1/a,1/a"], None),
    # The spin weights' half rows (h = 2) of the epsilon-realization.
    (["spectrum", "--group", "D5", "--highest", "[0,0,0,1,0]", "--epsilon", "a,b,c,d,e"], None),
    (["spectrum", "--group", "B4", "--highest", "[0,0,0,1]", "--epsilon=-1,a,b,c"], None),
    # Levels are searched only up to max level + 1, and only coordinate sums
    # up to 1 + 2 (max level - 1) are listed.
    (["levels", "--family", "E", "--rank", "8", "--bound", "8"], 5),
    (["levels", "--family", "A", "--rank", "20", "--max-level", "3", "--bound", "6"], 5),
    # The sweeps run through the strata and Smith forms; A3 at dimension 300
    # is the benchmark's largest sweep group, 71 modules.
    *((["verify", "--check", c, "--family", "D", "--rank", "4", "--dim-bound", "50"], None)
      for c in ("c99", "bounds")),
    *((["verify", "--check", c, "--family", "A", "--rank", "3", "--dim-bound", "300",
        "--depth", "2"], 10) for c in ("c99", "bounds")),
    # Every exempt set of the natural-module rule: none, -1, and 1 and -1.
    *((["verify", "--check", "natural", "--family", f, "--rank", r, "--samples", "100",
        "--seed", "0", "--json"], 10) for f, r in (("A", "3"), ("B", "3"), ("C", "3"), ("D", "4"))),
]


@pytest.mark.parametrize("argv,cap", SMOKE_RUNS, ids=[" ".join(argv) for argv, _ in SMOKE_RUNS])
def test_cli_process_answers_within_its_cap(argv, cap):
    proc = subprocess.run([sys.executable, "-m", "liespectra.cli", *argv], capture_output=True,
                          text=True, timeout=cap or 60)
    assert proc.returncode == 0 and proc.stdout, proc.stderr


def test_resource_rejection_exits_three(capsys):
    code, _, err = invoke(
        capsys, "weights", "--group", "A2", "--highest", "[2,2]", "--dim-bound", "10",
    )
    assert code == 3
    assert "resource limit" in err


def test_levels_rejects_a_negative_bound(capsys):
    code, out, err = invoke(capsys, "levels", "--family", "A", "--rank", "2", "--bound", "-5")
    assert code == 2 and out == "" and "-5" in err


def test_spectrum_rejects_a_zero_torsion_denominator(capsys):
    element = '{"omega_values": [{"torsion": "1/0", "free": []}]}'
    code, out, err = invoke(
        capsys, "spectrum", "--group", "A1", "--highest", "[1]", "--element", element
    )
    assert code == 2 and out == "" and "bad torus element JSON" in err


@pytest.mark.parametrize("element", ['{"omega_values": [1]}', '{"omega_values": "ab"}'])
def test_spectrum_rejects_an_omega_value_that_is_not_an_object(capsys, element):
    code, out, err = invoke(
        capsys, "spectrum", "--group", "A1", "--highest", "[1]", "--element", element
    )
    assert code == 2 and out == "" and "is not an object" in err


@pytest.mark.parametrize("value", ['"torsion": 1e400', '"torsion": Infinity',
                                   '"free": [-Infinity]', '"torsion": NaN'])
def test_spectrum_rejects_a_value_that_is_not_finite(capsys, value):
    # json reads 1e400 and Infinity as float infinities, which Fraction and
    # int reject with OverflowError (NaN with ValueError).
    element = '{"omega_values": [{%s}, {}]}' % value
    code, out, err = invoke(
        capsys, "spectrum", "--group", "C2", "--highest", "[1,0]", "--element", element
    )
    assert code == 2 and out == "" and "bad torus element JSON" in err


def test_spectrum_rejects_a_fractional_free_exponent(capsys):
    element = '{"omega_values": [{"torsion": "0", "free": [1.5]}]}'
    code, out, err = invoke(
        capsys, "spectrum", "--group", "A1", "--highest", "[1]", "--element", element
    )
    assert code == 2 and out == "" and "1.5" in err


def test_verify_rejects_a_nonpositive_sample_count(capsys):
    code, out, err = invoke(
        capsys, "verify", "--check", "natural", "--family", "A", "--rank", "2", "--samples", "-1"
    )
    assert code == 2 and out == "" and "-1" in err


def test_verify_rejects_a_negative_dimension_bound(capsys):
    code, out, err = invoke(
        capsys, "verify", "--check", "c99", "--family", "A", "--rank", "2", "--dim-bound", "-5"
    )
    assert code == 2 and out == "" and "-5" in err


@pytest.mark.parametrize("command,extra", [
    ("weights", ()),
    ("spectrum", ("--epsilon", "a,1/a")),
])
def test_negative_dimension_bound_is_a_usage_error(capsys, command, extra):
    code, out, err = invoke(
        capsys, command, "--group", "A1", "--highest", "[1]", "--dim-bound", "-5", *extra
    )
    assert code == 2 and out == "" and "-5" in err and "resource limit" not in err


def test_verify_with_rank_zero_names_the_rank(capsys):
    code, out, err = invoke(capsys, "verify", "--check", "natural", "--family", "A", "--rank", "0")
    assert code == 2 and out == "" and "A0" in err and "needs --family" not in err


def test_unexpected_exception_exits_four_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("Freudenthal recursion produced a non-integer")

    monkeypatch.setitem(cli._DISPATCH, "weights", broken)
    code, out, err = invoke(capsys, "weights", "--group", "A2", "--highest", "[1,1]")
    assert code == 4 and out == ""
    assert err == "internal error: AssertionError: Freudenthal recursion produced a non-integer\n"


def test_levels_rejects_huge_bound_before_enumerating():
    # A child process, so a regression that enumerates the ~2.6e19 candidates
    # is killed by the timeout instead of hanging the suite.
    script = (
        "import time; from liespectra.cli import run; t = time.perf_counter(); "
        "code = run(['levels', '--family', 'E', '--rank', '8', '--bound', '1000']); "
        "print(code, time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    code, elapsed = proc.stdout.split()
    assert code == "3" and "resource limit" in proc.stderr
    assert float(elapsed) < 1.0


def test_verify_rejects_huge_dim_bound_before_enumerating():
    # A1 has one module per dimension, so --dim-bound 1e8 would list 1e8 of
    # them; the candidate box is counted first.  A child process, so a
    # regression is killed by the timeout instead of hanging the suite.
    script = (
        "import time; from liespectra.cli import run; t = time.perf_counter(); "
        "code = run(['verify', '--check', 'c99', '--family', 'A', '--rank', '1', "
        "'--dim-bound', '100000000', '--depth', '1']); "
        "print(code, time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    code, elapsed = proc.stdout.split()
    assert code == "3" and "resource limit" in proc.stderr and "99999999" in proc.stderr
    assert float(elapsed) < 1.0


@pytest.mark.parametrize("check", ["c99", "bounds"])
@pytest.mark.parametrize("family,rank", [("F", 4), ("G", 2)])
def test_verify_rejects_a_dim_bound_above_the_module_ceiling(check, family, rank):
    # At 1.1e6 both groups have modules above the Freudenthal dimension
    # bound of 1e6 (three on F4, seven on G2); the sweep is rejected before
    # any module is listed rather than passing them unchecked.  A child
    # process, so a regression is killed by the timeout.
    script = (
        "from liespectra.cli import run; "
        f"print(run(['verify', '--check', '{check}', '--family', '{family}', "
        f"'--rank', '{rank}', '--dim-bound', '1100000', '--depth', '1']))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    assert proc.stdout == "3\n"
    assert "resource limit" in proc.stderr and "1000000" in proc.stderr


E8_HALF = json.dumps({"omega_values": [{"torsion": "1/2"}] * 8})


@pytest.mark.parametrize("command,extra", [("weights", ()), ("spectrum", ("--element", E8_HALF))])
def test_a_dim_bound_above_the_ceiling_is_rejected_before_any_kernel(command, extra):
    # E8 at rho has dimension 2^120, so a 41-digit bound admits it and its
    # closure would run until killed.  A child process, so a regression is
    # killed by the timeout instead of hanging the suite.
    argv = [command, "--group", "E8", "--highest", "[1,1,1,1,1,1,1,1]",
            "--dim-bound", "9" * 41, *extra]
    script = f"from liespectra.cli import run; print(run({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    assert proc.stdout == "3\n"
    assert "resource limit" in proc.stderr and "1000000" in proc.stderr


@pytest.mark.parametrize("command,extra", [("weights", ()), ("spectrum", ("--epsilon", "a,1,1/a"))])
def test_a_dim_bound_at_the_ceiling_still_answers(capsys, command, extra):
    code, out, _ = invoke(capsys, command, "--group", "A2", "--highest", "[1,1]",
                          "--dim-bound", str(cli.DEFAULT_DIM_BOUND), *extra)
    assert code == 0 and out


@pytest.mark.parametrize("check,family", [("c99", "A"), ("c99", "D"), ("bounds", "B")])
def test_verify_rejects_a_rank_32_depth_two_sweep_before_the_strata(check, family):
    # Depth-2 strata key every pair of positive roots: 139,656 sets on A32,
    # which took minutes.  A child process, so a regression is killed by the
    # timeout instead of hanging the suite.
    script = (
        "import time; from liespectra.cli import run; t = time.perf_counter(); "
        f"code = run(['verify', '--check', '{check}', '--family', '{family}', "
        "'--rank', '32', '--dim-bound', '60']); "
        "print(code, time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    code, elapsed = proc.stdout.split()
    assert code == "3" and "root generator sets" in proc.stderr
    assert float(elapsed) < 5.0


@pytest.mark.parametrize("family,rank", [("G", 2), ("E", 6), ("F", 4)])
def test_level_table_rejects_a_non_classical_family(capsys, family, rank):
    code, out, err = invoke(capsys, "verify", "--check", "level-table",
                            "--family", family, "--rank", str(rank))
    assert code == 2 and out == ""
    assert f"families A-D, not {family}{rank}" in err


@pytest.mark.parametrize("family,rank", [("D", 2), ("D", 3), ("B", 1), ("C", 1)])
def test_level_table_rejects_an_unsupported_rank_before_the_table(capsys, family, rank):
    # The reference table indexes coordinates the rank may not have.
    code, out, err = invoke(capsys, "verify", "--check", "level-table",
                            "--family", family, "--rank", str(rank))
    assert code == 2 and out == ""
    assert f"{family}{rank} is not supported" in err


def test_info_command(capsys):
    code, out, _ = invoke(capsys, "info", "--group", "G2")
    assert code == 0
    assert "6 positive roots" in out
    assert "e(G) = 3" in out
    code, out, _ = invoke(capsys, "info", "--group", "B3", "--json")
    payload = json.loads(out)
    assert payload["weyl_order"] == 48
    assert payload["highest_short_root"] == "B3:[1,0,0]"


# Ranks of the valid group names drawn below; the invalid names fail to parse
# or name a rank outside the family's range.
CLI_GROUPS = {"A1": 1, "A2": 2, "A4": 4, "B2": 2, "B3": 3, "C3": 3, "D4": 4, "E6": 6,
              "E7": 7, "E8": 8, "F4": 4, "G2": 2}
CLI_BAD_GROUPS = ["A0", "B1", "D3", "E9", "F3", "G3", "H2", "", "A", "2A", "A-1", "A2.0"]
CLI_TIME_CAP_S = 5.0


def answered_or_rejected(argv, codes=(0, 2, 3)):
    """Run argv in process: the exit code must be one of codes, never 4 (an
    internal error), and the answer must come within CLI_TIME_CAP_S."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    elapsed = time.perf_counter() - start
    assert code in codes, (argv, code, err.getvalue())
    assert elapsed < CLI_TIME_CAP_S, (argv, elapsed)


@st.composite
def weights_argv(draw):
    """A `weights` argv: mostly a valid group and a small dominant highest
    weight, else a bad group name, a vector of the wrong length, or one
    negative or huge entry; the dimension bound may be negative."""
    valid = draw(st.integers(0, 3)) > 0
    group = draw(st.sampled_from(sorted(CLI_GROUPS) if valid else CLI_BAD_GROUPS))
    rank = CLI_GROUPS.get(group, 2)
    length = draw(st.sampled_from([rank] * 4 + [0, rank - 1, rank + 1]))
    coords = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    if coords and draw(st.booleans()):
        bad = st.one_of(st.integers(-10**6, -1), st.integers(10**3, 10**30))
        coords[draw(st.integers(0, length - 1))] = draw(bad)
    argv = ["weights", "--group", group, "--highest", f"[{','.join(map(str, coords))}]",
            "--dim-bound", str(draw(st.one_of(st.just(3000), st.integers(-5, 3000))))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(weights_argv())
def test_weights_argv_is_answered_or_rejected_never_crashes(argv):
    # Every input gets an answer (0), a usage error (2) or a resource-limit
    # rejection (3); exit 4 would be an internal error.
    answered_or_rejected(argv)


def test_info_rejects_a_huge_rank_before_the_build(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "info", "--group", "A1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert "valid ranks for A are 1..32" in err


@st.composite
def info_argv(draw):
    """An `info` argv: a family letter (either case) with a rank 0-2000,
    half the time near the ranks the families support, or a junk string;
    with or without --json."""
    if draw(st.integers(0, 4)):
        family = draw(st.sampled_from("ABCDEFGabcdefg"))
        rank = draw(st.one_of(st.integers(0, 40), st.integers(0, 2000)))
        group = f"{family}{rank}"
    else:
        group = draw(st.text(max_size=6))
    argv = ["info", "--group", group]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=80, deadline=None)
@given(info_argv())
def test_info_argv_is_answered_or_rejected_never_crashes(argv):
    # Every group name gets an answer (0) or a usage error (2), ranks above
    # the family's range included; exit 4 would be an internal error.
    answered_or_rejected(argv, codes=(0, 2))


def group_and_rank(draw):
    """Mostly a valid group name from CLI_GROUPS, else a bad one; and the
    rank it names (2 for a bad name)."""
    valid = draw(st.integers(0, 3)) > 0
    group = draw(st.sampled_from(sorted(CLI_GROUPS) if valid else CLI_BAD_GROUPS))
    return group, CLI_GROUPS.get(group, 2)


def small_highest(draw, rank):
    """A bracketed weight: mostly rank entries in 0..2, else a wrong length
    or one negative entry."""
    length = draw(st.sampled_from([rank] * 6 + [0, rank + 1]))
    coords = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    if coords and not draw(st.integers(0, 7)):
        coords[draw(st.integers(0, length - 1))] = -1
    return f"[{','.join(map(str, coords))}]"


EPSILON_ENTRIES = ["1", "-1", "i", "-i", "a", "1/a", "-a", "b", "1/b", "a^2", "-1/b^3", "c^-1"]
BAD_EPSILON_ENTRIES = ["", "x^", "2", "1/i", "a b"]


@st.composite
def spectrum_argv(draw):
    """A `spectrum` argv: a group, a small highest weight, and the element as
    epsilon shorthand (one entry per epsilon) or as JSON omega values (one
    per fundamental weight), else neither or both; one entry of either may be
    bad, and their count may be off by one; any dimension bound."""
    group, rank = group_and_rank(draw)
    argv = ["spectrum", "--group", group, "--highest", small_highest(draw, rank),
            "--dim-bound", str(draw(st.one_of(st.just(3000), st.integers(-5, 3000))))]
    form = draw(st.sampled_from(["epsilon"] * 3 + ["element"] * 3 + ["none", "both"]))
    skew = draw(st.sampled_from([0] * 6 + [-1, 1]))
    if form in ("epsilon", "both"):
        n = rank + (group[:1] == "A") + skew
        entries = draw(st.lists(st.sampled_from(EPSILON_ENTRIES), min_size=n, max_size=n))
        if entries and not draw(st.integers(0, 7)):
            entries[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_EPSILON_ENTRIES))
        argv.append(f"--epsilon={','.join(entries)}")
    if form in ("element", "both"):
        k = draw(st.integers(0, 2))
        values = [{"torsion": f"{draw(st.integers(0, 5))}/{draw(st.integers(1, 4))}",
                   "free": draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))}
                  for _ in range(rank + skew)]
        if values and not draw(st.integers(0, 7)):
            values[0] = draw(st.sampled_from([{"torsion": "1/0"}, {"free": [0.5]}, [1], "1/2"]))
        argv += ["--element", json.dumps({"omega_values": values})]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(spectrum_argv())
def test_spectrum_argv_is_answered_or_rejected_never_crashes(argv):
    answered_or_rejected(argv)


@st.composite
def levels_argv(draw):
    """A `levels` argv: the family and rank of a CLI_GROUPS name (or a bad
    family or rank), any max level from -1 and a bound up to the default 6,
    sometimes negative."""
    group, rank = group_and_rank(draw)
    family = group[:1] or "H"
    if draw(st.integers(0, 5)) == 0:
        rank = draw(st.integers(-1, 40))
    argv = ["levels", "--family", family, "--rank", str(rank),
            "--max-level", str(draw(st.integers(-1, 4))),
            "--bound", str(draw(st.integers(-2, 6)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(levels_argv())
def test_levels_argv_is_answered_or_rejected_never_crashes(argv):
    answered_or_rejected(argv)


@st.composite
def verify_argv(draw):
    """A `verify` argv: each check on a CLI_GROUPS family and rank (or none,
    or a bad one), with --dim-bound <= 60, --samples <= 20 and any depth and
    seed."""
    argv = ["verify", "--check", draw(st.sampled_from(
        ["level-table", "witnesses", "c99", "bounds", "natural"]))]
    if draw(st.integers(0, 5)):
        group, rank = group_and_rank(draw)
        argv += ["--family", group[:1] or "H", "--rank", str(rank)]
    argv += ["--dim-bound", str(draw(st.integers(-2, 60))),
             "--depth", str(draw(st.sampled_from([1, 2, 1, 2, 3]))),
             "--seed", str(draw(st.integers(0, 10**6))),
             "--samples", str(draw(st.integers(-1, 20)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(verify_argv())
# Depth 1 reaches no witness on the 8-dimensional D4 modules, which c99 expects.
@example(["verify", "--check", "c99", "--family", "D", "--rank", "4", "--dim-bound", "8",
          "--depth", "1", "--seed", "0", "--samples", "0"])
def test_verify_argv_is_answered_or_rejected_never_crashes(argv):
    # Exit 1 is a verification Fail, which these checks must not report either.
    answered_or_rejected(argv)
