"""Exact construction, simulation and verification of threshold recurrence
equations whose bifurcation chain collapses periods down to a fixed point.

The public surface groups into five layers:

  numtheory     scale parameters derived from m (primes, k, h, mu, beta, L's)
  construction  the system family x_i, v_i, y, w(d), z(d) and its index sets
  engine        exact integer simulation plus a dense rational oracle
  cycles        minimal (transient, period) measurement with certificates
  verify        the claim registry run by both the tests and the CLI
"""

from .construction import (
    LAMBDA,
    IndexSets,
    PerturbationPlan,
    RecurrenceSystem,
    build_w,
    build_y,
    build_z,
    chain_perturbation,
    compute_B0,
    destabilized_system,
    gamma,
    index_sets,
    initial_config_v,
    initial_config_x,
    perturbation_plan,
    pos_set,
    q_set,
    shuffle_compose,
    single_system,
    single_weights,
    x_closed_form,
    y_closed_form,
)
from .cycles import (
    CycleReport,
    detect_cycle,
    lane_count,
    verify_predicted,
)
from .engine import (
    CompiledSystem,
    advance_word,
    bits_from_word,
    compile_system,
    dense_oracle_run,
    find_repeat,
    run,
    word_from_bits,
)
from .errors import (
    BudgetExceeded,
    HypothesisUnmet,
    IndexOutOfRange,
    MixedShapes,
    NeurecError,
    PlanInvariantViolated,
    PredictionFailed,
    RhoTooSmall,
    ShapeMismatch,
)
from .numtheory import WindowParams, cycle_lengths, prime_factors, primes_between, window_params
from .verify import (
    ALL_CLAIMS,
    ClaimResult,
    Handoff,
    Member,
    check_basin,
    check_chain,
    check_composition,
    check_phases,
    member,
    predicted_cycle,
    run_claims,
    z_handoff,
)

__version__ = "0.1.0"
