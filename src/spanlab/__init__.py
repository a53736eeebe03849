"""spanlab: exact-arithmetic invariants of vanishing sequences.

Sumset spans and their extremal classification, numerical-semigroup gap
counts and monomial-curve Hilbert data, generation degrees of weighted
relation ideals via a piece-moving game, polynomial jet systems with exact
rank computations, closed-form hypersurface bounds, and the verification
sweeps tying it all together.
"""

from .errors import (
    CountTooLarge,
    DependentSections,
    EmptyGenerators,
    EnumerationTooLarge,
    GcdNotOne,
    HypothesisFailed,
    LengthMismatch,
    NegativeEntry,
    NonPositiveFactor,
    NotLinearOnRange,
    NotStrictlyIncreasing,
    PreconditionViolated,
    PropagationFailed,
    SemigroupTooLarge,
    SpanlabError,
    SumsetTooLarge,
    TooShort,
    UnknownSuite,
)
from .sequences import (
    VanishingSequence,
    from_text,
    inflection_weight,
    normalize,
    reverse,
    scale,
    translate,
    validate,
)
from .span import (
    SpanClassification,
    SumsetTable,
    Verdict,
    chain_values,
    classify,
    power_sumset,
    span,
    span_sequence,
)
from .semigroup import (
    CurveInvariants,
    NumericalSemigroup,
    curve_invariants,
    hilbert_polynomial,
    semigroup_of,
    stabilization_threshold,
)
from .monomial_ideal import (
    BigradedDims,
    EquivalenceReport,
    GenerationScan,
    Monomial,
    Move,
    NonEquivalent,
    apply_move,
    bigraded_dims,
    degree,
    equivalence_report,
    generation_degree,
    generation_scan,
    monomials_of_degree,
    move_trace,
    t_neighbors,
    weight,
    weight_class,
)
from .jets import (
    FiltrationProfile,
    JetSystem,
    PropagationReport,
    adapted_basis,
    check_ideal_propagation,
    degree_genus_estimate,
    filtration_profile,
    is_m_maximal,
    monomial_system,
    perturbed_system,
    reparametrized_system,
    sym_power_dim,
)
from .bounds import (
    check_weight_budget,
    max_hypersurfaces,
    next_hypersurface_bound,
    pluecker_budget,
    quadric_bound,
)
from .verify import (
    SUITE_IDS,
    SuiteReport,
    SweepConfig,
    ap_sequence,
    near_ap_high,
    near_ap_low,
    normalized_sequences,
    run_all,
    run_suite,
)

__version__ = "0.1.0"
