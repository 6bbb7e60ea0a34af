import math

import numpy as np
import pytest

from mixcomp import sampling
from mixcomp.errors import (
    DimensionMismatch,
    InvalidPovm,
    LengthMismatch,
    ProbabilityMismatch,
    ValidationError,
)
from mixcomp.measures import (
    CONTINUITY_COEFF,
    CONTINUITY_THRESHOLD,
    Ensemble,
    Povm,
    as_prob_vector,
    avg_ensemble_fidelity,
    avg_entropy_continuity_bound,
    classical_fidelity,
    fidelity,
    holevo,
    holevo_continuity_bound,
    measured_classical_fidelity,
    shannon_entropy,
    sqrt_fidelity,
    vn_entropy,
)
from mixcomp.qmat import maximally_mixed

from conftest import diag_state


def h_bits(*ps) -> float:
    # Scalar-formula oracle, independent of the eigenvalue path.
    return -sum(p * math.log2(p) for p in ps if p > 0)


class TestEntropies:
    def test_pure_state_zero(self, rng):
        psi = sampling.random_pure_state(4, rng)
        assert vn_entropy(psi.projector()) <= 1e-12

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert abs(vn_entropy(maximally_mixed(d)) - math.log2(d)) <= 1e-12

    def test_scalar_oracle(self):
        assert abs(vn_entropy(diag_state(0.75, 0.25)) - h_bits(0.75, 0.25)) <= 1e-12
        assert abs(h_bits(0.75, 0.25) - 0.8112781244591328) <= 1e-15

    def test_shannon_examples(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
        assert abs(shannon_entropy([0.5, 0.5]) - 1.0) <= 1e-15
        assert abs(shannon_entropy([0.5, 0.25, 0.25]) - 1.5) <= 1e-15

    def test_vn_entropy_basis_independent(self, rng):
        rho = sampling.random_density(4, rng)
        u = sampling.random_unitary(4, rng)
        rotated = u @ rho.matrix @ u.conj().T
        assert abs(vn_entropy(rho) - vn_entropy(rotated)) <= 1e-10


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = sampling.random_density(3, rng)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-10

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_swapped_binary_states(self, eps):
        f = fidelity(diag_state(eps, 1 - eps), diag_state(1 - eps, eps))
        assert abs(f - 4 * eps * (1 - eps)) <= 1e-10

    def test_commuting_reduces_to_classical(self, rng):
        r1, r2, basis = sampling.random_commuting_pair(4, rng)
        p = np.real(np.diagonal(basis.conj().T @ r1.matrix @ basis))
        q = np.real(np.diagonal(basis.conj().T @ r2.matrix @ basis))
        assert abs(fidelity(r1, r2) - classical_fidelity(p, q)) <= 1e-8

    def test_symmetry(self, rng):
        for _ in range(20):
            a = sampling.random_density(3, rng)
            b = sampling.random_density(3, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(maximally_mixed(2), maximally_mixed(3))

    def test_range_and_identity_of_equals(self, rng):
        for _ in range(10):
            a = sampling.random_density(4, rng)
            b = sampling.random_density(4, rng)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f < 1.0 - 1e-6  # random pairs almost surely differ


class TestSqrtFidelity:
    def test_self(self, rng):
        rho = sampling.random_density(3, rng)
        assert abs(sqrt_fidelity(rho, rho) - 1.0) <= 1e-10

    def test_commuting_bhattacharyya(self, rng):
        p = sampling.random_prob_vector(4, rng)
        q = sampling.random_prob_vector(4, rng)
        g = sqrt_fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert abs(g - np.sum(np.sqrt(p * q))) <= 1e-10

    def test_square_equals_fidelity(self, rng):
        for _ in range(10):
            a = sampling.random_density(3, rng)
            b = sampling.random_density(3, rng)
            assert abs(sqrt_fidelity(a, b) ** 2 - fidelity(a, b)) <= 1e-9

    def test_double_concavity(self, rng):
        for _ in range(30):
            r1 = sampling.random_density(3, rng)
            r2 = sampling.random_density(3, rng)
            s1 = sampling.random_density(3, rng)
            s2 = sampling.random_density(3, rng)
            g_r = sqrt_fidelity(r1, r2)
            g_s = sqrt_fidelity(s1, s2)
            for lam in np.arange(0.1, 0.95, 0.1):
                mixed = sqrt_fidelity(
                    lam * r1.matrix + (1 - lam) * s1.matrix,
                    lam * r2.matrix + (1 - lam) * s2.matrix,
                )
                assert mixed >= lam * g_r + (1 - lam) * g_s - 1e-8


class TestClassicalFidelity:
    def test_identical(self, rng):
        p = sampling.random_prob_vector(5, rng)
        assert abs(classical_fidelity(p, p) - 1.0) <= 1e-12

    def test_disjoint(self):
        assert classical_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.25, 0.45])
    def test_swapped_coins(self, eps):
        f = classical_fidelity([eps, 1 - eps], [1 - eps, eps])
        assert abs(f - 4 * eps * (1 - eps)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            classical_fidelity([1.0], [0.5, 0.5])


def orthogonally_supported_ensemble(rng, dim=6, parts=(2, 2, 2)):
    u = sampling.random_unitary(dim, rng)
    states = []
    start = 0
    for width in parts:
        block = u[:, start : start + width]
        inner = sampling.random_density(width, rng)
        states.append(block @ inner.matrix @ block.conj().T)
        start += width
    probs = sampling.random_prob_vector(len(parts), rng)
    return Ensemble.from_lists(probs, states)


class TestHolevo:
    def test_single_state(self, rng):
        rho = sampling.random_density(3, rng)
        assert holevo(Ensemble.from_lists([1.0], [rho])) <= 1e-10

    def test_orthogonal_supports(self, rng):
        ens = orthogonally_supported_ensemble(rng)
        assert abs(holevo(ens) - shannon_entropy(ens.probs)) <= 1e-8

    def test_orthogonal_support_entropy_identity(self, rng):
        for _ in range(10):
            ens = orthogonally_supported_ensemble(rng)
            lhs = vn_entropy(ens.average())
            rhs = shannon_entropy(ens.probs) + sum(
                p * vn_entropy(s) for p, s in zip(ens.probs, ens.states)
            )
            assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_hole_pattern_family(self, d):
        from mixcomp.purify import photographic_negative_ensemble

        chi = holevo(photographic_negative_ensemble(d))
        assert abs(chi - (-math.log2(1 - 1 / d))) <= 1e-9

    def test_range(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            ens = sampling.random_ensemble(d, int(rng.integers(1, 5)), rng)
            chi = holevo(ens)
            assert -1e-12 <= chi <= vn_entropy(ens.average()) + 1e-9
            assert chi <= math.log2(d) + 1e-9


class TestNonFiniteInput:
    def test_prob_vector_rejects_nan_and_inf(self):
        for bad in ([np.nan, 1.0], [np.inf, 0.0], [0.5, 0.5, -np.inf]):
            with pytest.raises(ValidationError, match="finite"):
                as_prob_vector(bad)

    def test_entropy_of_nan_state_is_refused(self):
        with pytest.raises(ValidationError, match="finite"):
            vn_entropy(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_nan_priors_are_refused(self):
        with pytest.raises(ValidationError, match="finite"):
            Ensemble.from_lists([np.nan, 1.0], [diag_state(1.0, 0.0), diag_state(0.0, 1.0)])

    def test_nan_povm_element_is_refused(self):
        with pytest.raises(InvalidPovm, match="finite"):
            Povm.from_elements([diag_state(np.nan, 0.0), diag_state(0.0, 1.0)])

    def test_empty_povm_element_is_refused(self):
        with pytest.raises(InvalidPovm, match="empty"):
            Povm.from_elements([np.zeros((0, 0))])


class TestAvgEnsembleFidelity:
    def test_identical(self, rng):
        ens = sampling.random_ensemble(3, 3, rng)
        assert abs(avg_ensemble_fidelity(ens, ens) - 1.0) <= 1e-9

    def test_half_half(self):
        a = Ensemble.from_lists([0.5, 0.5], [diag_state(1, 0), diag_state(1, 0)])
        b = Ensemble.from_lists([0.5, 0.5], [diag_state(1, 0), diag_state(0, 1)])
        assert abs(avg_ensemble_fidelity(a, b) - 0.5) <= 1e-12

    def test_matches_manual_sum(self, rng):
        a = sampling.random_ensemble(3, 4, rng)
        b = Ensemble.from_lists(
            a.probs.copy(), [sampling.random_density(3, rng) for _ in range(4)]
        )
        manual = sum(
            p * fidelity(r, s) for p, r, s in zip(a.probs, a.states, b.states)
        )
        assert abs(avg_ensemble_fidelity(a, b) - manual) <= 1e-12

    def test_probability_mismatch(self, rng):
        a = Ensemble.from_lists([0.5, 0.5], [diag_state(1, 0), diag_state(0, 1)])
        b = Ensemble.from_lists([0.6, 0.4], [diag_state(1, 0), diag_state(0, 1)])
        with pytest.raises(ProbabilityMismatch):
            avg_ensemble_fidelity(a, b)


class TestContinuityBounds:
    def test_identical_ensembles_exact(self):
        # Diagonal states keep the self-fidelity exact, so the bound is exactly 1.
        ens = Ensemble.from_lists([0.3, 0.7], [diag_state(0.2, 0.8), diag_state(0.6, 0.4)])
        res = holevo_continuity_bound(ens, ens)
        assert res.applicable
        assert abs(res.bound - 1.0) <= 1e-9
        assert abs(holevo(ens) - holevo(ens)) <= res.bound

    def test_identical_dense_ensembles(self, rng):
        # Dense self-fidelity carries eigensolver round-off; the bound only
        # inflates by the square root of that error.
        ens = sampling.random_ensemble(2, 3, rng)
        res = holevo_continuity_bound(ens, ens)
        assert res.applicable
        assert abs(res.bound - 1.0) <= 1e-6

    def test_threshold_is_strict(self):
        # Average fidelity exactly at the threshold: weight the identical pair
        # by the threshold itself and an orthogonal pair by the rest.
        thr = CONTINUITY_THRESHOLD
        a = Ensemble.from_lists([thr, 1 - thr], [diag_state(1, 0), diag_state(1, 0)])
        b = Ensemble.from_lists([thr, 1 - thr], [diag_state(1, 0), diag_state(0, 1)])
        res = holevo_continuity_bound(a, b)
        assert res.avg_fidelity == thr
        assert not res.applicable

    def test_random_perturbed_pairs(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 4))
            ens = sampling.random_ensemble(d, int(rng.integers(2, 4)), rng)
            pert = sampling.perturbed_ensemble(ens, 2e-3, rng)
            res = holevo_continuity_bound(ens, pert)
            assert res.applicable
            assert abs(holevo(ens) - holevo(pert)) <= res.bound + 1e-9
            assert abs(res.bound - (
                CONTINUITY_COEFF * math.sqrt(1 - res.avg_fidelity) * math.log2(d) + 1
            )) <= 1e-12

    def test_avg_entropy_bound(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 4))
            ens = sampling.random_ensemble(d, 3, rng)
            pert = sampling.perturbed_ensemble(ens, 1e-3, rng)
            lhs = abs(
                sum(p * vn_entropy(s) for p, s in zip(ens.probs, ens.states))
                - sum(p * vn_entropy(s) for p, s in zip(pert.probs, pert.states))
            )
            assert lhs <= avg_entropy_continuity_bound(ens, pert) + 1e-9

    def test_pure_state_ensembles_trivial_lhs(self, rng):
        states = [sampling.random_pure_state(2, rng).projector() for _ in range(3)]
        ens = Ensemble.from_lists([0.2, 0.3, 0.5], states)
        assert avg_entropy_continuity_bound(ens, ens) >= 0.0


class TestMeasuredClassicalFidelity:
    def test_trivial_povm(self, rng):
        r1 = sampling.random_density(2, rng)
        r2 = sampling.random_density(2, rng)
        m = Povm.from_elements([np.eye(2, dtype=complex)])
        assert abs(measured_classical_fidelity(r1, r2, m) - 1.0) <= 1e-12

    def test_commuting_eigenbasis_equality(self, rng):
        for _ in range(20):
            r1, r2, basis = sampling.random_commuting_pair(3, rng)
            m = Povm.from_elements(
                [np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)]
            )
            measured = measured_classical_fidelity(r1, r2, m)
            assert abs(measured - fidelity(r1, r2)) <= 1e-8

    def test_dominates_fidelity(self, rng):
        for _ in range(100):
            r1 = sampling.random_density(2, rng)
            r2 = sampling.random_density(2, rng)
            m = sampling.random_povm(2, int(rng.integers(2, 5)), rng)
            assert measured_classical_fidelity(r1, r2, m) >= fidelity(r1, r2) - 1e-8

    def test_povm_validation(self):
        with pytest.raises(InvalidPovm):
            Povm.from_elements([np.eye(2) * 0.5])
        with pytest.raises(InvalidPovm):
            Povm.from_elements([diag_state(1.5, 0.0), diag_state(-0.5, 1.0)])
