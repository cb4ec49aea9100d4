"""The package loads each submodule on first use: what ``import liespectra``
and each CLI subcommand execute, and the public names the package exports."""

import argparse
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import liespectra
from liespectra import cli, verify
from liespectra.exceptions import DatumMismatchError

ROOT = Path(__file__).resolve().parents[1]

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "exceptions": ("DatumMismatchError", "ResourceLimitError", "UnsupportedRootSystemError"),
    "rootdata": ("RootDatum", "Weight", "build_root_datum", "e_constant", "epsilon_values",
                 "parse_group", "weight_from_epsilon"),
    "weights": ("Dominance", "LevelAssignment", "dominance_compare", "dominant_representative",
                "is_minuscule", "is_radical", "level_sets", "minimal_nonzero_subdominant",
                "subdominant_weights", "weight_level", "weyl_orbit"),
    "mult": ("WeightMultiset", "freudenthal_multiplicities", "premet_weight_set",
             "validity_note", "weyl_dimension", "zero_weight_multiplicity"),
    "torus": ("StratumSpec", "TorusElement", "ValueGroupElement", "canonical_root_strata",
              "evaluate", "generic_regular_element", "generic_stratum_element", "is_central",
              "is_regular", "separates_weights", "torus_element", "torus_from_epsilon",
              "torus_from_epsilon_text", "torus_from_json"),
    "spectra": ("Spectrum", "SpectrumClass", "SpectrumKind", "classify", "is_almost_simple",
                "spectrum", "spectrum_of_multiset", "tensor_spectrum"),
    "verify": ("VerificationReport", "run_check", "verify_classification_sweep",
               "verify_level_table", "verify_multiplicity_bounds",
               "verify_natural_module_regularity", "verify_witness_elements"),
}
SUBMODULES = ("exceptions", "linalg", "kernels", "rootdata", "weights", "mult", "torus",
              "spectra", "tables", "verify")

# Runs the CLI as ``python -m liespectra.cli`` does, then prints, as the last
# line of standard output, the package files whose code was executed.  The
# "exec" audit event fires for every module body, compiled or cached.
_EXECUTED = """\
import json, runpy, sys
ran = set()
def hook(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if "/liespectra/" in path.replace("\\\\", "/"):
        ran.add(path.replace("\\\\", "/").rpartition("/")[2].removesuffix(".py"))
sys.addaudithook(hook)
argv = sys.argv[1:]
code = 0
if argv:
    sys.argv = ["liespectra", *argv]
    try:
        runpy.run_module("liespectra.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import liespectra
print()
print(json.dumps([code, sorted(ran)]))
"""


def executed_modules(*argv):
    proc = subprocess.run([sys.executable, "-c", _EXECUTED, *argv], capture_output=True,
                          text=True, timeout=60, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_importing_the_package_executes_no_submodule():
    assert executed_modules() == (0, {"__init__"})


@pytest.mark.parametrize("argv,unexecuted", [
    (["info", "--group", "A2"], {"weights", "torus", "spectra", "tables", "verify", "linalg"}),
    (["weights", "--group", "A2", "--highest", "[1,1]"],
     {"weights", "torus", "spectra", "tables", "verify", "linalg"}),
    (["levels", "--family", "A", "--rank", "2"],
     {"mult", "torus", "spectra", "tables", "verify", "linalg"}),
    (["spectrum", "--group", "A3", "--highest", "[0,1,0]", "--epsilon", "a,a,1/a,1/a"],
     {"tables", "verify"}),
])
def test_a_subcommand_executes_only_the_modules_it_uses(argv, unexecuted):
    code, modules = executed_modules(*argv)
    assert code == 0
    assert {"__init__", "cli", "rootdata", "kernels"} <= modules
    assert not modules & unexecuted, sorted(modules & unexecuted)


def test_every_exported_name_is_the_object_its_module_defines():
    for module, names in EXPORTS.items():
        owner = getattr(liespectra, module)
        assert owner is sys.modules[f"liespectra.{module}"]
        for name in names:
            assert getattr(liespectra, name) is getattr(owner, name), name


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from liespectra import *", namespace)
    for module, names in EXPORTS.items():
        for name in names:
            assert namespace[name] is getattr(getattr(liespectra, module), name), name
    for module in SUBMODULES:
        assert namespace[module] is getattr(liespectra, module)


def test_dir_lists_the_exports_and_unknown_names_raise():
    listed = set(dir(liespectra))
    assert {name for names in EXPORTS.values() for name in names} <= listed
    assert set(SUBMODULES) | {"CHECK_IDS", "__version__"} <= listed
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        liespectra.no_such_name
    assert not hasattr(liespectra, "_no_such_private_name")


# Names no answer reads, deleted from the package; the tests that need one
# read it from oracle_helpers.
DELETED = {
    "mult.WeightMultiset": ("nonzero_multiplicities_all_one", "columns_by_multiplicity"),
    "spectra.Spectrum": ("as_dict", "inversion_symmetric"),
    "spectra": ("classify_multiset", "residue_counts"),
    "rootdata.Weight": ("__sub__", "__mul__", "__rmul__"),
    "torus.ValueGroupElement": ("is_identity", "scale", "identity"),
    "weights": ("dominates", "enumerate_dominant_by_sum"),
    "verify": ("sample_torus_element",),
}


def test_deleted_names_stay_deleted():
    for owner, names in DELETED.items():
        module, _, cls = owner.partition(".")
        target = getattr(liespectra, module)
        if cls:
            target = getattr(target, cls)
        for name in names:
            assert not hasattr(target, name), f"{owner}.{name}"
            assert not hasattr(liespectra, name), name
    assert not hasattr(liespectra.build_root_datum("A", 2), "form_matrix")
    assert "include_zero" not in inspect.signature(verify.enumerate_modules).parameters
    # The package exports exactly EXPORTS.
    assert liespectra._EXPORTS == {module: EXPORTS.get(module, ()) for module in SUBMODULES}


def test_check_choices_are_the_ids_run_check_accepts(monkeypatch):
    subcommands = next(a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    choices = next(a for a in subcommands.choices["verify"]._actions if a.dest == "check").choices
    checks = ("verify_level_table", "verify_witness_elements", "verify_classification_sweep",
              "verify_multiplicity_bounds", "verify_natural_module_regularity")
    for name in checks:
        monkeypatch.setattr(verify, name, lambda *args, _name=name: _name)
    dispatched = [verify.run_check(c, family="A", rank=1) for c in choices]
    assert sorted(dispatched) == sorted(checks)
    with pytest.raises(ValueError) as exc:
        verify.run_check("no-such-check", family="A", rank=1)
    assert str(exc.value).endswith(f"valid checks: {', '.join(choices)}")


def _perfbench_commands():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for argv, code in workloads._COMMANDS if code == 0]


@pytest.mark.parametrize("argv", _perfbench_commands(), ids=lambda argv: " ".join(argv[:4]))
def test_cli_module_writes_nothing_to_stderr(argv):
    # runpy warns on stderr when liespectra.cli is in sys.modules before -m
    # runs it, so the package must not register cli.
    proc = subprocess.run([sys.executable, "-m", "liespectra.cli", *argv], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == ""


_A2, _B2 = liespectra.build_root_datum("A", 2), liespectra.build_root_datum("B", 2)
_ON_A2 = liespectra.torus_element(_A2, [(Fraction(1, 2), (1,)), (0, (0,))], "s")
_B2_WEIGHT, _NOT_DOMINANT = _B2.weight((1, 0)), _A2.weight((1, -1))


# Public entry points reject a weight of another datum, a non-dominant
# highest weight and malformed values before any work.
@pytest.mark.parametrize("call,error,match", [
    (lambda: liespectra.epsilon_values(_A2, _B2_WEIGHT), DatumMismatchError, "different datum"),
    (lambda: liespectra.evaluate(_ON_A2, _B2_WEIGHT), DatumMismatchError, "different datum"),
    (lambda: liespectra.StratumSpec(_A2, (_B2.weight((1, -1)),)), DatumMismatchError,
     "different datum"),
    (lambda: liespectra.spectra.almost_simple_class(
        _ON_A2, liespectra.freudenthal_multiplicities(_B2_WEIGHT)), DatumMismatchError,
     "different datum"),
    (lambda: liespectra.weyl_dimension(_NOT_DOMINANT), ValueError, "Weyl dimension needs"),
    (lambda: liespectra.freudenthal_multiplicities(_NOT_DOMINANT), ValueError,
     "multiplicities need a dominant weight"),
    (lambda: liespectra.premet_weight_set(_NOT_DOMINANT), ValueError, "weight set enumeration"),
    (lambda: liespectra.weight_level(_NOT_DOMINANT), ValueError, "weight level needs"),
    (lambda: liespectra.is_minuscule(_NOT_DOMINANT), ValueError, "minuscule test needs"),
    (lambda: liespectra.TorusElement(_A2, (liespectra.ValueGroupElement(Fraction(0), (1,)),
                                           liespectra.ValueGroupElement(Fraction(0), (1, 2)))),
     ValueError, "different lengths"),
    (lambda: _A2.fundamental_weight(0), ValueError, "out of range"),
], ids=["epsilon_values", "evaluate", "StratumSpec", "almost_simple_class", "weyl_dimension",
        "freudenthal_multiplicities", "premet_weight_set", "weight_level", "is_minuscule",
        "TorusElement", "fundamental_weight"])
def test_public_guards_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
