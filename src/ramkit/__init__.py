"""Exact-arithmetic random assignment mechanisms and axiom verification.

Mechanisms (probabilistic serial and the wider simultaneous-eating family,
serial dictatorship, random priority, tabulated mechanisms) map preference
profiles to bistochastic share matrices over exact rationals; the axiom
engines verify incentive and efficiency properties (strategy-proofness,
OBIC and its locally robust variant, elementary monotonicity, neutrality,
invariances, ordinal and ex-post efficiency) by exhaustive enumeration and
report self-certifying witnesses.
"""

from .core import (
    CapExceededError,
    Instance,
    InvalidAssignmentError,
    SwapInfo,
    apply_permutation,
    apply_permutation_profile,
    enumerate_opponent_profiles,
    enumerate_preferences,
    enumerate_profiles,
    fosd,
    fosd_failure,
    lower_contour,
    object_at,
    swap_relation,
    upper_contour,
    validate_assignment,
)
from .mechanisms import (
    EatingSpeedSchedule,
    Mechanism,
    ProbabilisticSerial,
    RandomPriority,
    SerialDictatorship,
    SimultaneousEating,
    TabulatedMechanism,
    constant_mechanism,
    eat,
    tabulate,
)
from .axioms import (
    check_elementary_monotonicity,
    check_equal_treatment_of_equals,
    check_ex_post_efficiency,
    check_lower_invariance,
    check_mechanism_ex_post_efficiency,
    check_mechanism_ordinal_efficiency,
    check_neutrality,
    check_ordinal_efficiency,
    check_strategy_proofness,
    check_upper_invariance,
    check_weak_strategy_proofness,
    lp_dominance_oracle,
    reverify_violation,
    run_axiom_check,
    run_pair_sweep,
    trade_cycle,
)
from .decomp import (
    Decomposition,
    birkhoff_decompose,
    deterministic_pareto_efficient,
    recombine,
)
from .interim import (
    InterimShareVector,
    Prior,
    PriorBallSample,
    SamplingExhaustedError,
    check_interim_elementary_monotonicity,
    check_interim_lower_invariance,
    check_interim_upper_invariance,
    check_obic,
    interim_share_vector,
    lrobic_search,
    obic_decomposition_report,
    rank_vector_report,
    rank_vector_reports,
    reverify_interim_violation,
    sample_prior_in_ball,
    uniform_prior,
)
from .reports import CheckOutcome, ViolationReport

__version__ = "0.1.0"
