import math
import warnings

import numpy as np
import pytest

from mixcomp import qmat, sampling
from mixcomp.errors import (
    DimensionMismatch,
    DimensionOverflow,
    NotHermitian,
    NotOrthonormal,
    NotPSD,
    ValidationError,
)
from mixcomp.measures import fidelity, vn_entropy
from mixcomp.qmat import (
    DensityOperator,
    PureState,
    eig_hermitian,
    matrix_sqrt_psd,
    maximally_mixed,
    partial_trace,
    _eig,
    _spectrum_root,
    is_diagonal,
    projector,
    tensor,
    tensor_many,
)

from conftest import diag_state


class TestEigHermitian:
    def test_diagonal_input_sorted(self):
        spec = eig_hermitian(diag_state(0.2, 0.5, 0.3))
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.3, 0.2])

    def test_maximally_mixed(self):
        spec = eig_hermitian(np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5])
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_random_hermitian_reconstructs(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        spec = eig_hermitian(h)
        assert np.max(np.abs(spec.reconstruct() - h)) <= 1e-8

    def test_stable_tie_breaking(self):
        # Degenerate diagonal: equal eigenvalues keep their original index order.
        spec = eig_hermitian(diag_state(0.25, 0.5, 0.25))
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.25, 0.25])
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 1]), [1, 0, 0])
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 2]), [0, 0, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(diag_state(4.0, 9.0)), diag_state(2.0, 3.0), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_random_psd_squares_back(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            p = g @ g.conj().T
            r = matrix_sqrt_psd(p)
            assert np.max(np.abs(r @ r - p)) <= 1e-8

    def test_sqrt_chain_reconstructs(self, rng):
        rho = sampling.random_density(4, rng)
        quarter = matrix_sqrt_psd(matrix_sqrt_psd(rho.matrix))
        back = np.linalg.matrix_power(quarter, 4)
        assert np.max(np.abs(back - rho.matrix)) <= 1e-6

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            matrix_sqrt_psd(diag_state(1.0, -0.5))

    def test_stacked_roots_bitwise_equal_matrix_sqrt_psd(self, rng):
        # Mixed, pure (rank 1), diagonal and tied-spectrum states in one stack.
        for d in (2, 3, 4):
            states = [sampling.random_density(d, rng),
                      sampling.random_pure_state(d, rng).projector(),
                      DensityOperator.from_matrix(np.diag(sampling.random_prob_vector(d, rng))),
                      maximally_mixed(d)]
            stack = np.stack([s.matrix for s in states])
            flags = np.array([is_diagonal(x) for x in stack])
            roots = _spectrum_root(*_eig(stack, flags))
            assert flags.tolist() == [s.is_diagonal for s in states] == [False, False, True, True]
            for root, s in zip(roots, states):
                assert root.tobytes() == matrix_sqrt_psd(s).tobytes()


class TestDensityOperator:
    def test_clamps_tiny_negative_eigenvalue(self):
        rho = DensityOperator.from_matrix(diag_state(1.0 + 5e-10, -5e-10))
        vals = eig_hermitian(rho.matrix).eigenvalues
        assert vals.min() >= 0.0
        assert abs(np.real(np.trace(rho.matrix)) - 1.0) <= 1e-10
        # The clamped eigenvalue becomes exactly 0, not |lambda|.
        assert rho.matrix[1, 1] == 0.0

    def test_clamp_rebuilds_a_rotated_state_from_its_clipped_spectrum(self, rng):
        # V max(lambda, 0) V^dag, renormalised: the eigenvalue in [-PSD_TOL, 0)
        # is set to 0, and the others are kept.
        u = sampling.random_unitary(3, rng)
        raw = u @ diag_state(0.6, 0.4 + 5e-10, -5e-10) @ u.conj().T
        lam, v = np.linalg.eigh((raw + raw.conj().T) / 2.0)
        want = (v * np.maximum(lam, 0.0)) @ v.conj().T
        want /= np.real(np.trace(want))
        rho = DensityOperator.from_matrix(raw)
        assert not rho.is_diagonal
        assert np.max(np.abs(rho.matrix - want)) <= 1e-15

    def test_rejects_clearly_negative(self):
        with pytest.raises(NotPSD):
            DensityOperator.from_matrix(diag_state(1.01, -0.01))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_matrix(diag_state(0.6, 0.6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError, match="finite"):
            DensityOperator.from_matrix(m)
        with pytest.raises(ValidationError, match="finite"):
            eig_hermitian(m)
        with pytest.raises(ValidationError):
            PureState.from_vector([bad, 1.0])
        with pytest.raises(ValidationError):
            projector([np.array([bad, 0.0])])

    def test_projector_checks_finiteness_before_the_gram_matrix(self):
        # inf * 0 in the Gram matrix would be NaN, with a numpy RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                projector([np.array([np.inf, 0.0])])

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValidationError, match="non-empty"):
            DensityOperator.from_matrix(np.zeros((0, 0)))

    def test_validated_state_is_not_checked_again(self, rng, monkeypatch):
        rho, sigma = sampling.random_density(3, rng), sampling.random_density(3, rng)
        diagonal = DensityOperator.from_matrix(diag_state(0.5, 0.3, 0.2))
        checks = []
        for name in ("_as_square_complex", "_hermitian_part", "is_diagonal"):
            original = getattr(qmat, name)
            monkeypatch.setattr(qmat, name, lambda *a, f=original, n=name: checks.append(n) or f(*a))
        fidelity(rho, sigma)
        fidelity(diagonal, diagonal)
        vn_entropy(rho)
        matrix_sqrt_psd(sigma)
        # Each state ran its checks, the diagonal test included, when it was built.
        assert checks == []

    def test_validated_state_keeps_its_check_read_only(self, rng):
        rho = sampling.random_density(3, rng)
        vals, vecs = rho.eigenpairs()
        for stored in (vals, vecs):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0
        assert rho.eigenvalues() is vals and rho.eigenpairs()[1] is vecs
        assert eig_hermitian(rho).eigenvalues.tobytes() == vals.tobytes()

    def test_diagonal_wrapped_and_clamped_states_keep_nothing(self, rng):
        diagonal = DensityOperator.from_matrix(diag_state(0.5, 0.3, 0.2))
        wrapped = DensityOperator._wrap(sampling.random_density(3, rng).matrix)
        u = sampling.random_unitary(3, rng)
        clamped = DensityOperator.from_matrix(u @ diag_state(0.6, 0.4 + 5e-10, -5e-10)
                                              @ u.conj().T)
        for rho in (diagonal, wrapped, clamped):
            assert rho._spectrum is None
            # Nothing kept, so each call solves afresh: a new array every time.
            assert rho.eigenpairs()[0] is not rho.eigenpairs()[0]
        assert diagonal.eigenvalues().tolist() == [0.5, 0.3, 0.2]

    def test_eigenvalues_sum_to_one(self, rng):
        for _ in range(10):
            rho = sampling.random_density(int(rng.integers(2, 8)), rng)
            assert abs(eig_hermitian(rho.matrix).eigenvalues.sum() - 1.0) <= 1e-8


class TestTensor:
    def test_mixed_pair(self):
        out = tensor(maximally_mixed(2), maximally_mixed(2))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-14)

    def test_basis_product(self):
        out = tensor(diag_state(1.0, 0.0), diag_state(0.0, 1.0))
        np.testing.assert_allclose(out.matrix, diag_state(0.0, 1.0, 0.0, 0.0), atol=1e-14)

    def test_trace_multiplicative(self, rng):
        for _ in range(5):
            a = sampling.random_density(3, rng)
            b = sampling.random_density(2, rng)
            assert abs(np.real(np.trace(tensor(a, b).matrix)) - 1.0) <= 1e-12

    def test_dimension_cap(self):
        # 65 * 64 = 4160 > DIM_CAP = 4096.
        with pytest.raises(DimensionOverflow, match="DIM_CAP"):
            tensor(maximally_mixed(65), maximally_mixed(64))


class TestPartialTrace:
    def test_bell_marginals(self, bell_state):
        for keep in (0, 1):
            out = partial_trace(bell_state, [2, 2], keep=keep)
            np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_exact(self, rng):
        a = sampling.random_density(3, rng)
        b = sampling.random_density(2, rng)
        out = partial_trace(tensor(a, b), [3, 2], keep=0)
        assert np.max(np.abs(out.matrix - a.matrix)) <= 1e-10
        out = partial_trace(tensor(a, b), [3, 2], keep=1)
        assert np.max(np.abs(out.matrix - b.matrix)) <= 1e-10

    def test_three_qubit_marginal_valid(self, rng):
        rho = sampling.random_density(8, rng)
        out = partial_trace(rho, [2, 2, 2], keep=1)
        assert abs(np.real(np.trace(out.matrix)) - 1.0) <= 1e-10
        assert eig_hermitian(out.matrix).eigenvalues.min() >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(maximally_mixed(4), [3, 2], keep=0)


class TestProjector:
    def test_single_basis_vector(self):
        pi = projector([np.eye(3)[0]])
        np.testing.assert_allclose(pi, diag_state(1.0, 0.0, 0.0), atol=1e-14)

    def test_full_basis(self):
        pi = projector(list(np.eye(3)))
        np.testing.assert_allclose(pi, np.eye(3), atol=1e-14)

    def test_spectral_weight(self, rng):
        rho = sampling.random_density(5, rng)
        spec = eig_hermitian(rho.matrix)
        pi = projector([spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]])
        weight = float(np.real(np.trace(pi @ rho.matrix)))
        assert abs(weight - spec.eigenvalues[:2].sum()) <= 1e-10

    def test_idempotent(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d + 1))
            basis = sampling.random_subspace(d, k, rng)
            pi = projector([basis[:, j] for j in range(k)])
            assert np.max(np.abs(pi @ pi - pi)) <= 1e-8
            assert np.linalg.matrix_rank(pi, tol=1e-8) == k

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            projector([np.array([1.0, 0.0]), np.array([1.0, 1e-3])])


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            PureState.from_vector([1.0, 0.5])

    def test_projector_is_density(self):
        rho = PureState.from_vector([1.0, 1.0j] / np.sqrt(2)).projector()
        assert abs(np.real(np.trace(rho.matrix)) - 1.0) <= 1e-12
        assert math.isclose(
            float(np.max(np.abs(rho.matrix - rho.matrix.conj().T))), 0.0, abs_tol=1e-12
        )
