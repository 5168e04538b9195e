"""Exact-arithmetic random assignment mechanisms and axiom verification.

Mechanisms (probabilistic serial and the wider simultaneous-eating family,
serial dictatorship, random priority, tabulated mechanisms) map preference
profiles to bistochastic share matrices over exact rationals.  Each ex-post
axiom has one name (``sp``, ``weak-sp``, ``em``, ``ui``, ``li``,
``neutral``, ``ete``, ``oe``, ``ex-post``), checked by exhaustive
enumeration in :func:`run_axiom_check`, or several pair axioms in one pass
by :func:`run_pair_sweep`.  Under a prior, :func:`check_obic`,
:func:`run_interim_sweep` (interim em/ui/li), :func:`obic_decomposition_report`
(all four) and :func:`rank_vector_reports` read one set of interim rows, and
:func:`lrobic_search` samples priors near a center for an OBIC failure.
Every violation is a witness that :func:`reverify_violation` or
:func:`reverify_interim_violation` replays.
"""

from .core import (
    CapExceededError,
    Instance,
    InvalidAssignmentError,
    SwapInfo,
    apply_permutation,
    apply_permutation_profile,
    enumerate_preferences,
    enumerate_profiles,
    fosd,
    fosd_failure,
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
    tabulate,
)
from .axioms import (
    check_mechanism_ordinal_efficiency,
    ex_post_inefficiency_witness,
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
    check_obic,
    interim_share_vector,
    lrobic_search,
    obic_decomposition_report,
    rank_vector_reports,
    reverify_interim_violation,
    run_interim_sweep,
    sample_prior_in_ball,
    uniform_prior,
)
from .reports import CheckOutcome, ViolationReport, Violations

__version__ = "0.1.0"
