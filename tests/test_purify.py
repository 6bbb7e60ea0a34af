import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling
from mixcomp.errors import DomainError, NotCommuting
from mixcomp.measures import Ensemble, classical_fidelity, fidelity, vn_entropy
from mixcomp.purify import (
    canonical_overlap,
    canonical_purification,
    photographic_negative_ensemble,
    photographic_negative_report,
    two_state_purification_rate,
    upsilon_rate,
)
from mixcomp.qmat import maximally_mixed, partial_trace

from conftest import diag_state


def h_bits(*ps) -> float:
    return -sum(p * math.log2(p) for p in ps if p > 0)


class TestCanonicalPurification:
    def test_pure_state(self):
        pur = canonical_purification(diag_state(1.0, 0.0))
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(pur.state.amplitudes, expected, atol=1e-12)

    def test_maximally_mixed_qubit(self):
        pur = canonical_purification(maximally_mixed(2))
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(pur.state.amplitudes, expected, atol=1e-12)

    def test_diagonal_round_trip(self, rng):
        for _ in range(10):
            p = sampling.random_prob_vector(4, rng)
            rho = np.diag(p).astype(complex)
            pur = canonical_purification(rho)
            for keep in (0, 1):
                reduced = partial_trace(pur.state.projector(), [4, 4], keep=keep)
                assert np.max(np.abs(reduced.matrix - rho)) <= 1e-8

    def test_dense_round_trip(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = sampling.random_density(d, rng)
            pur = canonical_purification(rho)
            reduced = partial_trace(pur.state.projector(), [d, d], keep=0)
            assert np.max(np.abs(reduced.matrix - rho.matrix)) <= 1e-8

    def test_both_factors_share_spectrum(self, rng):
        rho = sampling.random_density(3, rng)
        pur = canonical_purification(rho)
        from mixcomp.qmat import eig_hermitian

        for keep in (0, 1):
            reduced = partial_trace(pur.state.projector(), [3, 3], keep=keep)
            np.testing.assert_allclose(
                eig_hermitian(reduced.matrix).eigenvalues,
                eig_hermitian(rho.matrix).eigenvalues,
                atol=1e-8,
            )


class TestCanonicalOverlap:
    def test_identical(self, rng):
        p = sampling.random_prob_vector(3, rng)
        rho = np.diag(p).astype(complex)
        assert abs(canonical_overlap(rho, rho) - 1.0) <= 1e-10

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.4])
    def test_swapped_binary_pair(self, eps):
        overlap = canonical_overlap(diag_state(eps, 1 - eps), diag_state(1 - eps, eps))
        assert abs(overlap - 4 * eps * (1 - eps)) <= 1e-10

    def test_equals_classical_fidelity(self, rng):
        for _ in range(10):
            r1, r2, basis = sampling.random_commuting_pair(4, rng)
            p = np.real(np.diagonal(basis.conj().T @ r1.matrix @ basis))
            q = np.real(np.diagonal(basis.conj().T @ r2.matrix @ basis))
            overlap = canonical_overlap(r1, r2)
            assert abs(overlap - classical_fidelity(p, q)) <= 1e-8

    def test_equals_bures_uhlmann_limit(self, rng):
        for _ in range(10):
            r1, r2, _ = sampling.random_commuting_pair(3, rng)
            assert abs(canonical_overlap(r1, r2) - fidelity(r1, r2)) <= 1e-8

    def test_simultaneous_pairwise_parallelism(self, rng):
        # Three or more simultaneously diagonal states: every pair of canonical
        # purifications hits its own optimal overlap at once.
        states = [np.diag(sampling.random_prob_vector(5, rng)).astype(complex) for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                overlap = canonical_overlap(states[i], states[j])
                assert abs(overlap - fidelity(states[i], states[j])) <= 1e-8

    def test_rejects_noncommuting(self, rng):
        r1 = sampling.random_density(3, rng)
        r2 = sampling.random_density(3, rng)
        with pytest.raises(NotCommuting):
            canonical_overlap(r1, r2)

    def test_degenerate_state_needs_no_basis(self, rng):
        # I/2 is diagonal in every basis; the overlap is the same in all of them.
        u = sampling.random_unitary(2, rng)
        sigma = u @ np.diag([0.8, 0.2]).astype(complex) @ u.conj().T
        overlap = canonical_overlap(maximally_mixed(2), sigma)
        assert abs(overlap - (math.sqrt(0.4) + math.sqrt(0.1)) ** 2) <= 1e-12
        assert abs(overlap - fidelity(maximally_mixed(2), sigma)) <= 1e-8


def closed_form_two_state_rate(w1, w2, p, q) -> float:
    """The 2x2 Gram-matrix closed form on the diagonals of a common eigenbasis."""
    c = float(np.sum(np.sqrt(p * q)))
    disc = math.sqrt(max(0.0, (w1 - w2) ** 2 + 4.0 * w1 * w2 * c * c))
    return h_bits((1.0 + disc) / 2.0, max(0.0, (1.0 - disc) / 2.0))


@st.composite
def commuting_pairs(draw):
    """(w1, p, q, U): states U diag(p) U^dag and U diag(q) U^dag with prior w1.

    Small integer weights make ties, i.e. degenerate spectra, common.  Zero
    eigenvalues are drawn only when U = I: at a zero eigenvalue the square root
    turns eigensolver rounding of 1e-17 into 3e-9, beyond the 1e-12 checked here.
    """
    d = draw(st.integers(2, 5))
    rotated = draw(st.booleans())
    weights = st.lists(st.integers(1 if rotated else 0, 4), min_size=d, max_size=d)
    diags = []
    for _ in range(2):
        w = np.array(draw(weights), dtype=float)
        w[0] += w.sum() == 0
        diags.append(w / w.sum())
    if rotated:
        u = sampling.random_unitary(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        u = np.eye(d, dtype=complex)
    return draw(st.floats(0.05, 0.95)), diags[0], diags[1], u


class TestGramPurificationRate:
    """Purification rates and overlaps from tr(sqrt(rho1) sqrt(rho2)) against closed forms."""

    @settings(max_examples=80)
    @given(commuting_pairs())
    def test_matches_common_eigenbasis_closed_form(self, pair):
        w1, p, q, u = pair
        r1 = u @ np.diag(p).astype(complex) @ u.conj().T
        r2 = u @ np.diag(q).astype(complex) @ u.conj().T
        ens = Ensemble.from_lists([w1, 1.0 - w1], [r1, r2])
        want = closed_form_two_state_rate(w1, 1.0 - w1, p, q)
        assert abs(two_state_purification_rate(ens) - want) <= 1e-12
        overlap = float(np.sum(np.sqrt(p * q))) ** 2
        assert abs(canonical_overlap(r1, r2) - overlap) <= 1e-12

    def test_rejects_other_sizes_and_noncommuting_pairs(self, rng):
        with pytest.raises(DomainError):
            two_state_purification_rate(photographic_negative_ensemble(3))
        pair = [sampling.random_density(3, rng) for _ in range(2)]
        with pytest.raises(NotCommuting):
            two_state_purification_rate(Ensemble.from_lists([0.5, 0.5], pair))


class TestUpsilonRate:
    def test_endpoints(self):
        assert abs(upsilon_rate(0.0) - 1.0) <= 1e-12
        assert upsilon_rate(0.5) == 0.0

    def test_quarter_oracle(self):
        s = math.sqrt(0.25 * 0.75)
        expected = h_bits(0.5 + s, 0.5 - s)
        assert abs(upsilon_rate(0.25) - expected) <= 1e-12
        assert abs(expected - 0.35457890266527) <= 1e-12

    def test_bounded_by_one(self):
        grid = np.linspace(0.0, 0.5, 51)
        values = [upsilon_rate(float(e)) for e in grid]
        assert all(v <= 1.0 + 1e-12 for v in values)
        assert all(v < 1.0 for v in values[1:])

    def test_domain(self):
        with pytest.raises(DomainError):
            upsilon_rate(-0.01)
        with pytest.raises(DomainError):
            upsilon_rate(0.51)

    def test_matches_two_state_rate(self, rng):
        for eps in (0.1, 0.3, 0.45):
            ens = Ensemble.from_lists(
                [0.5, 0.5], [diag_state(eps, 1 - eps), diag_state(1 - eps, eps)]
            )
            assert abs(two_state_purification_rate(ens) - upsilon_rate(eps)) <= 1e-10


class TestPhotographicNegative:
    def test_d3_states(self):
        ens = photographic_negative_ensemble(3)
        np.testing.assert_allclose(ens.states[0].matrix, diag_state(0.0, 0.5, 0.5), atol=1e-14)
        np.testing.assert_allclose(ens.probs, [1 / 3] * 3)

    @pytest.mark.parametrize("d", [3, 4, 7, 10])
    def test_average_is_maximally_mixed(self, d):
        ens = photographic_negative_ensemble(d)
        np.testing.assert_allclose(ens.average().matrix, np.eye(d) / d, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_state_entropies(self, d):
        ens = photographic_negative_ensemble(d)
        for s in ens.states:
            assert abs(vn_entropy(s) - math.log2(d - 1)) <= 1e-10

    def test_rejects_small_d(self):
        with pytest.raises(DomainError):
            photographic_negative_ensemble(2)

    @pytest.mark.parametrize("d", range(3, 17))
    def test_built_states_equal_the_validated_build(self, d):
        # The ensemble is wrapped without validation; validating the same
        # diagonals must change no bit of a state or of the prior.
        diagonals = [np.where(np.arange(d) == i, 0.0, 1.0 / (d - 1)) for i in range(d)]
        ref = Ensemble.from_lists(np.full(d, 1.0 / d),
                                  [np.diag(x).astype(complex) for x in diagonals])
        ens = photographic_negative_ensemble(d)
        assert ens.probs.tobytes() == ref.probs.tobytes() and not ens.probs.flags.writeable
        assert len(ens.states) == d
        for s, r in zip(ens.states, ref.states):
            assert s.matrix.tobytes() == r.matrix.tobytes() and not s.matrix.flags.writeable
            assert s.is_diagonal

    def test_d3_report(self):
        rep = photographic_negative_report(3)
        np.testing.assert_allclose(rep.mixture_spectrum, [2 / 3, 1 / 6, 1 / 6], atol=1e-10)
        assert abs(rep.chi - math.log2(1.5)) <= 1e-10
        assert abs(rep.q - (2 / 3 + math.log2(1.5))) <= 1e-8

    @pytest.mark.parametrize("d", range(3, 17))
    def test_entropy_two_ways(self, d):
        # Constructed-mixture entropy against the closed form.
        rep = photographic_negative_report(d)
        closed = (2.0 / d) * math.log2(d - 1) - math.log2(1 - 1 / d)
        assert abs(rep.q - closed) <= 1e-8
        assert abs(rep.gap - (2.0 / d) * math.log2(d - 1)) <= 1e-9

    def test_report_builds_no_stack_of_the_states(self):
        # The d states take 32 MiB at d = 128, and a stack of them as much again:
        # the Gram matrix and chi are read from the diagonals instead.
        tracemalloc.start()
        try:
            photographic_negative_report(128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_gap_vanishes_for_large_d(self):
        assert photographic_negative_report(64).gap < 0.2
        assert photographic_negative_report(256).gap < 0.07

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_mixture_matches_displayed_form(self, d):
        # The mixture equals (d-2)/(d-1) |psi><psi| + 1/(d-1) I/d on the
        # symmetric subspace, with |psi> the uniform superposition.
        ens = photographic_negative_ensemble(d)
        # Canonical purifications of diagonal states, in the {|k> x |k>} subspace.
        vectors = np.column_stack([np.sqrt(np.real(np.diagonal(s.matrix))) for s in ens.states])
        mixture = (vectors * ens.probs) @ vectors.T
        psi = np.full(d, 1 / math.sqrt(d))
        displayed = (d - 2) / (d - 1) * np.outer(psi, psi) + np.eye(d) / (d * (d - 1))
        assert np.max(np.abs(mixture - displayed)) <= 1e-10
        spectrum = photographic_negative_report(d).mixture_spectrum
        np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(displayed)[::-1], atol=1e-12)
