"""Quantized one-player decision problems with imperfect recall.

An entangle / local-SU(2) / disentangle protocol turns a forgetful decision
problem into a quantum one.  This package provides the exact state-vector
simulation, the classical tree models, re-derived closed-form payoffs, the
verification sweeps that pin the closed forms to the simulation, and
deterministic optimizers over the gate parameters.
"""

from .analysis import (
    CrossCheckError,
    Prop1Solution,
    Prop3Certificate,
    classical_max_closed_form,
    formulas_verify,
    prop1_outcome,
    prop1_solve,
    prop1_verify,
    prop2_verify,
    prop3_params,
    prop3_sweep,
    prop3_verify,
    recall_verify,
)
from .decision import (
    BehavioralStrategy,
    DecisionProblem,
    MixedStrategy,
    OutcomeDistribution,
    PureStrategy,
    absentminded_driver,
    behavioral_from_mixed,
    behavioral_gap,
    behavioral_masses,
    expected_payoff_classical,
    has_imperfect_recall,
    mixed_from_behavioral,
    n_tuple_driver,
    n_tuple_outcomes,
    outcome_equivalent,
    outcome_of,
    problem_from_json,
    problem_to_json,
    two_stage_problem,
)
from .ewl import (
    EwlGame,
    UnitaryParams,
    amplitude_one_param,
    amplitudes_one_param,
    block_masses,
    build_gate,
    driver_game,
    eta_symmetry_check,
    ewl_game,
    expected_payoff,
    expected_payoffs,
    final_state,
    final_states,
    gate_stack,
    n_tuple_driver_game,
    n_tuple_outcome_game,
    outcome_distribution_ewl,
    outcome_masses,
    payoff_one_param,
    payoff_three_param,
    payoff_three_param_fn,
    payoff_two_qubit_general,
    two_stage_game,
)
from .optimize import OptResult, maximize_1d, maximize_3d
from .qstate import (
    Gate,
    StateVector,
    apply_entangler,
    apply_single_qubit_gate,
    basis_state,
    hamming_weight,
)

__version__ = "0.1.0"
