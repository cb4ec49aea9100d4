"""Exact-arithmetic weight combinatorics for simple root systems: root data,
dominance and levels, characteristic-0 multiplicities, symbolic torus
elements and their eigenvalue spectra.

Submodules run on first attribute use.  Importing the package registers each
of them in ``sys.modules`` through ``importlib.util.LazyLoader`` and executes
none; the names exported here resolve through the module ``__getattr__``.  So
a process compiles and runs only the modules it touches.  ``cli`` is not
registered: ``python -m liespectra.cli`` must find it unimported.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The check ids verify.run_check accepts.  Defined here so that the CLI parser
# can offer them without executing verify.
CHECK_IDS = ("level-table", "witnesses", "c99", "bounds", "natural")

# Every submodule but cli, with the names the package exports from it.
_EXPORTS = {
    "exceptions": (
        "DatumMismatchError",
        "ResourceLimitError",
        "UnsupportedRootSystemError",
    ),
    "linalg": (),
    "kernels": (),
    "rootdata": (
        "RootDatum",
        "Weight",
        "build_root_datum",
        "e_constant",
        "epsilon_values",
        "parse_group",
        "weight_from_epsilon",
    ),
    "weights": (
        "Dominance",
        "LevelAssignment",
        "dominance_compare",
        "dominant_representative",
        "is_minuscule",
        "is_radical",
        "level_sets",
        "minimal_nonzero_subdominant",
        "subdominant_weights",
        "weight_level",
        "weyl_orbit",
    ),
    "mult": (
        "WeightMultiset",
        "freudenthal_multiplicities",
        "premet_weight_set",
        "validity_note",
        "weyl_dimension",
        "zero_weight_multiplicity",
    ),
    "torus": (
        "StratumSpec",
        "TorusElement",
        "ValueGroupElement",
        "canonical_root_strata",
        "evaluate",
        "generic_regular_element",
        "generic_stratum_element",
        "is_central",
        "is_regular",
        "separates_weights",
        "torus_element",
        "torus_from_epsilon",
        "torus_from_epsilon_text",
        "torus_from_json",
    ),
    "spectra": (
        "Spectrum",
        "SpectrumClass",
        "SpectrumKind",
        "classify",
        "is_almost_simple",
        "spectrum",
        "spectrum_of_multiset",
        "tensor_spectrum",
    ),
    "tables": (),
    "verify": (
        "VerificationReport",
        "run_check",
        "verify_classification_sweep",
        "verify_level_table",
        "verify_multiplicity_bounds",
        "verify_natural_module_regularity",
        "verify_witness_elements",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["CHECK_IDS", *_EXPORTS, *_OWNER]

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
