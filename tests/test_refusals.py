"""Refusals: each input check raises its own error type and names its invariant.

One case per ``raise`` site that no behaviour test reaches, and one per
count, size, index or seed argument that ``tolerance.whole_number`` refuses.
Each case calls the public entry point with an input that breaks exactly one
invariant.
"""

import numpy as np
import pytest

from mixcomp import blocksim, classical, measures, purify, qmat, rates, sampling, wire
from mixcomp.errors import (
    DimensionMismatch,
    DimensionOverflow,
    DomainError,
    InvalidPovm,
    LengthMismatch,
    ParseError,
    ValidationError,
)

from conftest import diag_state

QUBIT = diag_state(0.5, 0.5)
QUTRIT = diag_state(0.2, 0.3, 0.5)
TWO_QUBITS = diag_state(0.1, 0.2, 0.3, 0.4)
HALF = [0.5, 0.5]


def uniform_ensemble(*states) -> measures.Ensemble:
    return measures.Ensemble.from_lists(np.full(len(states), 1.0 / len(states)), states)


def qubit_source() -> blocksim.BlockSource:
    return blocksim.BlockSource.build(uniform_ensemble(QUBIT, diag_state(0.9, 0.1)), 2)


def write_bad_json(tmp_path) -> str:
    path = tmp_path / "bad.json"
    path.write_text("{\"probs\": [1.0,")
    return str(path)


def two_povm() -> measures.Povm:
    return measures.Povm.from_elements([diag_state(1.0, 0.0), diag_state(0.0, 1.0)])


# (id, call on a tmp_path, error type, fragment of the message that names the invariant)
CASES = [
    # blocksim
    ("block-length", lambda tmp: blocksim.BlockSource.build(uniform_ensemble(QUBIT), 0),
     DomainError, "n_blocks must be a whole number >= 1, got 0"),
    ("retained-count", lambda tmp: blocksim.power_spectrum_top_sum(QUBIT, 2, 5),
     DomainError, "retained count must be a whole number in [1, 4], got 5"),
    ("identity-scheme-budget",
     lambda tmp: blocksim.IdentityScheme(blocksim.DIAGONAL_TABLE_BUDGET + 1),
     DimensionOverflow, "coordinates exceed DIAGONAL_TABLE_BUDGET"),
    ("scoring-mode", lambda tmp: blocksim.project_patch_plan(qubit_source(), "fast", 10),
     DomainError, "mode must be auto|exact|mc, got 'fast'"),
    ("work-budget",
     lambda tmp: blocksim.project_patch_plan(
         blocksim.BlockSource.build(uniform_ensemble(diag_state(0.9, 0.1), QUBIT), 22), "exact"),
     DimensionOverflow, "exact sweep work of 4194304 strings x 92536832 steps exceeds "
     f"WORK_BUDGET {blocksim.WORK_BUDGET}"),
    ("workers-below-one",
     lambda tmp: blocksim.global_fidelity_score(
         qubit_source(), blocksim.project_patch_scheme(qubit_source(), 0.5), workers=0),
     DomainError, "workers must be a whole number >= 1, got 0"),
    ("identity-scheme-empty", lambda tmp: blocksim.IdentityScheme(0),
     DomainError, "full_dim must be a whole number >= 1, got 0"),
    ("identity-scheme-fraction", lambda tmp: blocksim.IdentityScheme(2.5),
     DomainError, "full_dim must be a whole number >= 1, got 2.5"),
    ("kron-power-zero", lambda tmp: blocksim.kron_power_vector([0.5, 0.5], 0),
     DomainError, "n must be a whole number >= 1, got 0"),
    ("power-spectrum-zero", lambda tmp: blocksim.power_spectrum_top_sum(QUBIT, 0, 1),
     DomainError, "n must be a whole number >= 1, got 0"),
    ("power-spectrum-negative", lambda tmp: blocksim.power_spectrum_top_sum(QUBIT, -1, 1),
     DomainError, "n must be a whole number >= 1, got -1"),
    ("retained-fraction", lambda tmp: blocksim.power_spectrum_top_sum(QUBIT, 2, 1.5),
     DomainError, "retained count must be a whole number in [1, 4], got 1.5"),
    ("typical-dim-fraction", lambda tmp: blocksim.typical_subspace(QUTRIT, 2.5),
     DomainError, "subspace_dim must be a whole number in [1, 3], got 2.5"),
    ("typical-weights-dim-fraction",
     lambda tmp: blocksim.typical_subspace_from_weights([0.5, 0.5], 1.5),
     DomainError, "subspace_dim must be a whole number in [1, 2], got 1.5"),
    ("samples-fraction",
     lambda tmp: blocksim.global_fidelity_score(
         qubit_source(), blocksim.project_patch_scheme(qubit_source(), 0.5), "mc", 2.5),
     DomainError, "n_samples must be a whole number >= 1, got 2.5"),
    ("workers-fraction",
     lambda tmp: blocksim.local_fidelity_score(
         qubit_source(), blocksim.project_patch_scheme(qubit_source(), 0.5), workers=1.5),
     DomainError, "workers must be a whole number >= 1, got 1.5"),
    ("typical-weights-nan", lambda tmp: blocksim.typical_subspace_from_weights([np.nan, 1.0], 1),
     ValidationError, "typical subspace weights must be finite"),
    ("typical-weights-inf", lambda tmp: blocksim.typical_subspace_from_weights([np.inf, 1.0], 1),
     ValidationError, "typical subspace weights must be finite"),
    # classical
    ("stochastic-negative",
     lambda tmp: classical.StochasticMatrix.from_matrix([[1.5, 0.0], [-0.5, 1.0]]),
     ValidationError, "stochastic matrix has negative entry -5.000e-01"),
    ("coin-field-range", lambda tmp: classical.CoinSource(0.5, 0.5, 1.2, 0.5),
     ValidationError, "coin source field alpha1 = 1.2 outside [0, 1]"),
    ("coin-prior-sum", lambda tmp: classical.CoinSource(0.5, 0.4, 0.2, 0.5),
     ValidationError, "coin priors must sum to 1"),
    ("toss-count",
     lambda tmp: classical.example9_simulate(classical.CoinSource(0.5, 0.5, 0.2, 0.5), 0),
     DomainError, "n_tosses must be a whole number >= 1, got 0"),
    ("toss-count-nan",
     lambda tmp: classical.example9_simulate(classical.CoinSource(0.5, 0.5, 0.2, 0.5), np.nan),
     DomainError, "n_tosses must be a whole number >= 1, got nan"),
    ("toss-count-fraction",
     lambda tmp: classical.example9_simulate(classical.CoinSource(0.5, 0.5, 0.2, 0.5), 10.5),
     DomainError, "n_tosses must be a whole number >= 1, got 10.5"),
    # measures
    ("prob-empty", lambda tmp: measures.as_prob_vector([], "p"),
     ValidationError, "p: must be non-empty"),
    ("prob-negative", lambda tmp: measures.as_prob_vector([1.5, -0.5], "p"),
     ValidationError, "p: entry -5.000e-01 is negative"),
    ("prob-sum", lambda tmp: measures.as_prob_vector([0.5, 0.4], "p"),
     ValidationError, "p: |sum - 1| = 1.000e-01 exceeds 1e-10"),
    ("ensemble-length", lambda tmp: measures.Ensemble.from_lists(HALF, [QUBIT]),
     LengthMismatch, "ensemble has 1 states but 2 probabilities"),
    ("ensemble-dims", lambda tmp: measures.Ensemble.from_lists(HALF, [QUBIT, QUTRIT]),
     DimensionMismatch, "ensemble states have mixed dimensions [2, 3]"),
    ("povm-empty", lambda tmp: measures.Povm.from_elements([]),
     InvalidPovm, "POVM must have at least one element"),
    ("povm-element-dims", lambda tmp: measures.Povm.from_elements([np.eye(2), np.eye(3)]),
     InvalidPovm, "POVM element 1 has dimension 3, expected 2"),
    ("povm-hermitian",
     lambda tmp: measures.Povm.from_elements([[[1.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
     InvalidPovm, "POVM element 0 is not Hermitian within 1e-08"),
    ("povm-state-dims", lambda tmp: two_povm().outcome_probs(QUTRIT),
     DimensionMismatch, "state dimension 3 does not match POVM dimension 2"),
    ("ensemble-pair-lengths",
     lambda tmp: measures.avg_ensemble_fidelity(uniform_ensemble(QUBIT, QUBIT),
                                                uniform_ensemble(QUBIT, QUBIT, QUBIT)),
     LengthMismatch, "ensembles have 2 and 3 states"),
    ("ensemble-pair-dims",
     lambda tmp: measures.avg_ensemble_fidelity(uniform_ensemble(QUBIT, QUBIT),
                                                uniform_ensemble(QUTRIT, QUTRIT)),
     DimensionMismatch, "ensembles have dims 2 and 3"),
    ("measured-state-dims",
     lambda tmp: measures.measured_classical_fidelity(QUBIT, QUTRIT, two_povm()),
     DimensionMismatch, "states have dims 2 and 3"),
    ("measured-povm-dims",
     lambda tmp: measures.measured_classical_fidelity(QUTRIT, QUTRIT, two_povm()),
     InvalidPovm, "POVM dimension 2 does not match state dimension 3"),
    # purify
    ("hole-dim-nan", lambda tmp: purify.photographic_negative_ensemble(np.nan),
     DomainError, "photographic negative ensemble d must be a whole number >= 3, got nan"),
    ("hole-dim-fraction", lambda tmp: purify.photographic_negative_ensemble(4.5),
     DomainError, "photographic negative ensemble d must be a whole number >= 3, got 4.5"),
    ("hole-report-fraction", lambda tmp: purify.photographic_negative_report(4.5),
     DomainError, "photographic negative ensemble d must be a whole number >= 3, got 4.5"),
    # qmat
    ("mixed-empty", lambda tmp: qmat.maximally_mixed(0),
     DomainError, "dim must be a whole number >= 1, got 0"),
    ("mixed-negative", lambda tmp: qmat.maximally_mixed(-1),
     DomainError, "dim must be a whole number >= 1, got -1"),
    ("mixed-fraction", lambda tmp: qmat.maximally_mixed(2.5),
     DomainError, "dim must be a whole number >= 1, got 2.5"),
    ("mixed-dim-cap", lambda tmp: qmat.maximally_mixed(100000),
     DimensionOverflow, f"dim = 100000 exceeds DIM_CAP {qmat.DIM_CAP}"),
    ("keep-index-fraction", lambda tmp: qmat.partial_trace(TWO_QUBITS, [2, 2], 0.5),
     DomainError, "keep index must be a whole number >= 0, got 0.5"),
    ("tensor-empty", lambda tmp: qmat.tensor_many([]),
     ValidationError, "tensor_many: need at least one factor"),
    ("factor-dims-positive", lambda tmp: qmat.partial_trace(TWO_QUBITS, [-2, -2], 0),
     DimensionMismatch, "factor dimensions must be positive, got (-2, -2)"),
    ("keep-index", lambda tmp: qmat.partial_trace(TWO_QUBITS, [2, 2], 2),
     DimensionMismatch, "keep index 2 outside [0, 1]"),
    ("projector-empty", lambda tmp: qmat.projector([]),
     ValidationError, "projector: need at least one basis vector"),
    # rates
    ("block-epsilon",
     lambda tmp: rates.BlockDiagonalEnsemble.build(0.0, [1.0], [QUBIT], [QUBIT]),
     DomainError, "epsilon must lie in (0, 1], got 0.0"),
    ("block-list-lengths",
     lambda tmp: rates.BlockDiagonalEnsemble.build(0.5, HALF, [QUBIT, QUBIT], [QUBIT]),
     ValidationError, "sigma and tau block lists must have equal length"),
    ("block-sigma-dims",
     lambda tmp: rates.BlockDiagonalEnsemble.build(0.5, HALF, [QUBIT, QUTRIT], [QUTRIT] * 2),
     DimensionMismatch, "sigma blocks have mixed dimensions [2, 3]"),
    ("block-tau-dims",
     lambda tmp: rates.BlockDiagonalEnsemble.build(0.5, HALF, [QUBIT] * 2, [QUBIT, QUTRIT]),
     DimensionMismatch, "tau blocks have mixed dimensions [2, 3]"),
    ("block-prior-length",
     lambda tmp: rates.BlockDiagonalEnsemble.build(0.5, [0.2, 0.3, 0.5], [QUBIT] * 2, [QUBIT] * 2),
     ValidationError, "priors length must match the number of states"),
    # sampling: a seed is a Philox key word, a whole number in [0, 2^64)
    *[(f"{name}-{seed}", lambda tmp, make=make, seed=seed: make(seed),
       DomainError, f"seed must be a whole number in [0, {2**64 - 1}], got {seed}")
      for name, make in (("seed", sampling.generator),
                         ("block-seed", lambda seed: sampling.block_generator(seed, 0)))
      for seed in (-1, 2**64, np.nan, 1.5)],
    # wire
    ("matrix-not-object", lambda tmp: wire.matrix_from_json([1, 2], "s"),
     ParseError, "s: expected a JSON object with dim/re/im"),
    ("matrix-dim-positive", lambda tmp: wire.matrix_from_json({"dim": 0, "re": []}, "s"),
     ParseError, "s: 'dim' must be a positive integer, got 0"),
    ("matrix-missing-re", lambda tmp: wire.matrix_from_json({"dim": 2}, "s"),
     ParseError, "s: missing 're' field"),
    ("matrix-not-numeric",
     lambda tmp: wire.matrix_from_json({"dim": 2, "re": [[1, "x"], [0, 0]]}, "s"),
     ParseError, "matrix field 're' is not a numeric grid"),
    ("ensemble-not-object", lambda tmp: wire.ensemble_from_json([1.0]),
     ParseError, "ensemble: expected a JSON object with probs/states"),
    ("file-not-json", lambda tmp: wire.load_ensemble(write_bad_json(tmp)),
     ParseError, "bad.json is not valid JSON"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_refusal_names_its_invariant(tmp_path, call, error, fragment):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert info.type is error
    assert fragment in str(info.value)


# (id, call of a whole number w, w): an integral float gives what its int gives.
WHOLE_FLOATS = [
    ("mixed-dim", lambda w: qmat.maximally_mixed(w).matrix, 2),
    ("kron-power", lambda w: blocksim.kron_power_vector([0.3, 0.7], w), 2),
    ("power-spectrum", lambda w: blocksim.power_spectrum_top_sum(QUTRIT, w, w), 2),
    ("typical-dim", lambda w: blocksim.typical_subspace(QUTRIT, w).coordinates, 2),
    ("typical-weights-dim",
     lambda w: blocksim.typical_subspace_from_weights([0.2, 0.5, 0.3], w).coordinates, 2),
    ("keep-index", lambda w: qmat.partial_trace(TWO_QUBITS, [2, 2], w).matrix, 1),
    ("hole-report", lambda w: purify.photographic_negative_report(w).mixture_spectrum, 4),
    ("hole-report-d", lambda w: repr(purify.photographic_negative_report(w).d), 4),
    ("samples-seed-workers",
     lambda w: blocksim.global_fidelity_score(
         qubit_source(), blocksim.project_patch_scheme(qubit_source(), 0.5), "mc", w, w, w), 2),
]


@pytest.mark.parametrize("call, whole", [case[1:] for case in WHOLE_FLOATS],
                         ids=[case[0] for case in WHOLE_FLOATS])
def test_integral_floats_count_as_whole_numbers(call, whole):
    np.testing.assert_array_equal(call(float(whole)), call(whole))
