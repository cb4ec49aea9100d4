"""Exact-arithmetic weight combinatorics for simple root systems: root data,
dominance and levels, characteristic-0 multiplicities, symbolic torus
elements and their eigenvalue spectra."""

from .exceptions import (
    DatumMismatchError,
    ResourceLimitError,
    UnsupportedRootSystemError,
)
from .rootdata import (
    RootDatum,
    Weight,
    build_root_datum,
    e_constant,
    epsilon_values,
    parse_group,
    weight_from_epsilon,
)
from .weights import (
    Dominance,
    LevelAssignment,
    dominance_compare,
    dominant_representative,
    is_minuscule,
    is_radical,
    level_sets,
    minimal_nonzero_subdominant,
    subdominant_weights,
    weight_level,
    weyl_orbit,
)
from .mult import (
    WeightMultiset,
    freudenthal_multiplicities,
    premet_weight_set,
    validity_note,
    weyl_dimension,
    zero_weight_multiplicity,
)
from .torus import (
    StratumSpec,
    TorusElement,
    ValueGroupElement,
    canonical_root_strata,
    evaluate,
    generic_regular_element,
    generic_stratum_element,
    is_central,
    is_regular,
    separates_weights,
    torus_element,
    torus_from_epsilon,
    torus_from_epsilon_text,
    torus_from_json,
)
from .spectra import (
    Spectrum,
    SpectrumClass,
    SpectrumKind,
    classify,
    classify_multiset,
    is_almost_simple,
    spectrum,
    spectrum_of_multiset,
    tensor_spectrum,
)
from .verify import (
    VerificationReport,
    run_check,
    verify_classification_sweep,
    verify_level_table,
    verify_multiplicity_bounds,
    verify_natural_module_regularity,
    verify_witness_elements,
)

__version__ = "0.1.0"
