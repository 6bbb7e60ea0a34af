import math

import numpy as np
import pytest

from mixcomp import qmat, sampling
from mixcomp.classical import CoinSource, xi_rate
from mixcomp.errors import TauMismatch, ValidationError
from mixcomp.measures import Ensemble, holevo, shannon_entropy, vn_entropy
from mixcomp.purify import photographic_negative_ensemble, photographic_negative_report, upsilon_rate
from mixcomp.qmat import maximally_mixed
from mixcomp.rates import (
    BlockDiagonalEnsemble,
    RateEntry,
    RateReport,
    example11_rate,
    lower_bound_rate,
    rate_report,
    upper_bound_rate,
)

from conftest import diag_state
from test_measures import orthogonally_supported_ensemble


def block_states(epsilons, sigmas, tau) -> list[np.ndarray]:
    """The 4x4 states diag(eps_i sigma_i, (1 - eps_i) tau) of 2x2 blocks."""
    states = []
    for eps, sigma in zip(epsilons, sigmas):
        full = np.zeros((4, 4), dtype=complex)
        full[:2, :2] = eps * sigma.matrix
        full[2:, 2:] = (1 - eps) * tau.matrix
        states.append(full)
    return states


class TestBounds:
    def test_single_maximally_mixed(self):
        ens = Ensemble.from_lists([1.0], [maximally_mixed(2)])
        assert abs(upper_bound_rate(ens) - 1.0) <= 1e-12
        assert lower_bound_rate(ens) <= 1e-12

    def test_single_pure_state(self, rng):
        psi = sampling.random_pure_state(3, rng).projector()
        ens = Ensemble.from_lists([1.0], [psi])
        assert upper_bound_rate(ens) <= 1e-9
        assert lower_bound_rate(ens) <= 1e-9

    def test_orthogonal_supports(self, rng):
        ens = orthogonally_supported_ensemble(rng)
        assert abs(lower_bound_rate(ens) - shannon_entropy(ens.probs)) <= 1e-8
        expected_upper = shannon_entropy(ens.probs) + sum(
            p * vn_entropy(s) for p, s in zip(ens.probs, ens.states)
        )
        assert abs(upper_bound_rate(ens) - expected_upper) <= 1e-8

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_hole_pattern_bounds(self, d):
        ens = photographic_negative_ensemble(d)
        assert abs(upper_bound_rate(ens) - math.log2(d)) <= 1e-10
        assert abs(lower_bound_rate(ens) - (-math.log2(1 - 1 / d))) <= 1e-9

    def test_ordering_on_random_ensembles(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            ens = sampling.random_ensemble(d, int(rng.integers(1, 6)), rng)
            lo, hi = lower_bound_rate(ens), upper_bound_rate(ens)
            assert 0.0 <= lo <= hi + 1e-8
            assert hi <= math.log2(d) + 1e-9

    def test_pure_state_ensemble_collapse(self, rng):
        states = [sampling.random_pure_state(3, rng).projector() for _ in range(4)]
        ens = Ensemble.from_lists(sampling.random_prob_vector(4, rng), states)
        assert abs(lower_bound_rate(ens) - upper_bound_rate(ens)) <= 1e-8


class TestExample11:
    def test_no_tau_block(self, rng):
        sigma = [sampling.random_density(2, rng) for _ in range(2)]
        tau = [maximally_mixed(2)] * 2
        block = BlockDiagonalEnsemble.build(1.0, [0.5, 0.5], sigma, tau)
        result = example11_rate(block)
        sigma_bar = Ensemble.from_lists([0.5, 0.5], sigma).average()
        assert abs(result.scheme_rate - vn_entropy(sigma_bar)) <= 1e-9
        assert result.saving == 0.0

    def test_half_half_split(self):
        sigma = [diag_state(1.0, 0.0), diag_state(0.0, 1.0)]
        tau = [maximally_mixed(2)] * 2
        block = BlockDiagonalEnsemble.build(0.5, [0.5, 0.5], sigma, tau)
        result = example11_rate(block)
        assert abs(result.s_rho_bar - 2.0) <= 1e-10
        assert abs(result.scheme_rate - 1.5) <= 1e-10
        assert abs(result.saving - 0.5) <= 1e-10

    def test_entropy_decomposition_random(self, rng):
        for _ in range(30):
            eps = float(rng.uniform(0.05, 0.95))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(2, 4))
            sigma = [sampling.random_density(m, rng) for _ in range(k)]
            tau_shared = sampling.random_density(n, rng)
            block = BlockDiagonalEnsemble.build(
                eps, sampling.random_prob_vector(k, rng), sigma, [tau_shared] * k
            )
            result = example11_rate(block)
            assert abs(result.scheme_rate + result.saving - result.s_rho_bar) <= 1e-8

    def test_tau_mismatch(self, rng):
        sigma = [sampling.random_density(2, rng) for _ in range(2)]
        tau = [sampling.random_density(2, rng) for _ in range(2)]
        block = BlockDiagonalEnsemble.build(0.4, [0.5, 0.5], sigma, tau)
        with pytest.raises(TauMismatch):
            example11_rate(block)


class TestRateReport:
    def test_symmetric_pair_entries(self):
        eps = 0.25
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(eps, 1 - eps), diag_state(1 - eps, eps)]
        )
        report = rate_report(ens)
        rates = {e.name: (e.rate, e.kind) for e in report.entries}
        assert abs(rates["mean-state entropy S"][0] - 1.0) <= 1e-10
        assert abs(rates["visible state-identity coding H(p)"][0] - 1.0) <= 1e-12
        assert abs(rates["three-message protocol Xi"][0] - 1.5) <= 1e-10
        assert abs(rates["canonical purification scheme"][0] - upsilon_rate(eps)) <= 1e-8
        assert rates["Holevo quantity chi"][1] == "lower_bound"
        lo, hi = report.bracket()
        assert abs(lo - holevo(ens)) <= 1e-12
        assert hi <= upsilon_rate(eps) + 1e-8

    def test_orthogonal_ensemble(self, rng):
        ens = orthogonally_supported_ensemble(rng)
        report = rate_report(ens)
        rates = {e.name: e.rate for e in report.entries}
        assert abs(rates["Holevo quantity chi"] - shannon_entropy(ens.probs)) <= 1e-8

    def test_single_state(self, rng):
        rho = sampling.random_density(3, rng)
        report = rate_report(Ensemble.from_lists([1.0], [rho]))
        rates = {e.name: e.rate for e in report.entries}
        assert abs(rates["mean-state entropy S"] - vn_entropy(rho)) <= 1e-10
        assert rates["Holevo quantity chi"] <= 1e-10
        assert rates["visible state-identity coding H(p)"] == 0.0

    def test_generic_ensemble_bounds_only_plus_identity(self, rng):
        ens = sampling.random_ensemble(3, 3, rng)
        report = rate_report(ens)
        kinds = {e.name: e.kind for e in report.entries}
        assert set(kinds.values()) == {"upper_bound", "lower_bound", "scheme_rate"}
        scheme_names = [e.name for e in report.scheme_rates()]
        assert scheme_names == ["visible state-identity coding H(p)"]

    def test_block_diagonal_recognised(self, rng):
        sigma = [sampling.random_density(2, rng) for _ in range(2)]
        tau_shared = sampling.random_density(2, rng)
        block = BlockDiagonalEnsemble.build(0.3, [0.5, 0.5], sigma, [tau_shared] * 2)
        report = rate_report(block.as_ensemble())
        names = [e.name for e in report.entries]
        assert "block-diagonal scheme (shared tau)" in names
        rates = {e.name: e.rate for e in report.entries}
        assert abs(
            rates["block-diagonal scheme (shared tau)"] - example11_rate(block).scheme_rate
        ) <= 1e-9

    def test_photographic_negative_recognised(self, rng):
        ens = photographic_negative_ensemble(5)
        report = rate_report(ens)
        rates = {e.name: e.rate for e in report.entries}
        assert abs(
            rates["photographic-negative purification mixture"]
            - photographic_negative_report(5).q
        ) <= 1e-10
        # Shuffled hole patterns at d = 3..16 against the closed form.
        for d in range(3, 17):
            states = photographic_negative_ensemble(d).states
            order = rng.permutation(d)
            shuffled = Ensemble.from_lists(np.full(d, 1 / d), [states[i] for i in order])
            rates = {e.name: e.rate for e in rate_report(shuffled).entries}
            closed = (2.0 / d) * math.log2(d - 1) - math.log2(1 - 1 / d)
            assert abs(rates["photographic-negative purification mixture"] - closed) <= 1e-12

    def test_degenerate_commuting_pair_gets_purification_entry(self, rng):
        # I/2 has no preferred eigenbasis; the purification rate needs none.
        u = sampling.random_unitary(2, rng)
        sigma = u @ np.diag([0.8, 0.2]).astype(complex) @ u.conj().T
        ens = Ensemble.from_lists([0.3, 0.7], [maximally_mixed(2), sigma])
        rates = {e.name: e.rate for e in rate_report(ens).entries}
        c = math.sqrt(0.4) + math.sqrt(0.1)
        disc = math.sqrt((0.3 - 0.7) ** 2 + 4 * 0.3 * 0.7 * c * c)
        want = shannon_entropy([(1 + disc) / 2, (1 - disc) / 2])
        assert abs(rates["canonical purification scheme"] - want) <= 1e-12
        xi = xi_rate(CoinSource(0.3, 0.7, 0.5, 0.8))
        assert abs(rates["three-message protocol Xi"] - xi) <= 1e-12

    def test_two_state_report_computes_one_commutator(self, monkeypatch):
        calls = []
        original = qmat.commutator_norm
        monkeypatch.setattr(qmat, "commutator_norm", lambda a, b: calls.append(1) or original(a, b))
        ens = Ensemble.from_lists([0.4, 0.6], [diag_state(0.2, 0.8), diag_state(0.7, 0.3)])
        names = [e.name for e in rate_report(ens).entries]
        assert "three-message protocol Xi" in names and "canonical purification scheme" in names
        assert len(calls) == 1

    def test_block_report_builds_each_block_once(self, rng, monkeypatch):
        # 3 states, d = 4: only the 2 + 2 split is recognised.  Its six sigma and
        # tau blocks are the only states validated, and example11_rate runs once.
        eps, tau = 0.4, sampling.random_density(2, rng)
        states = []
        for _ in range(3):
            full = np.zeros((4, 4), dtype=complex)
            full[:2, :2] = eps * sampling.random_density(2, rng).matrix
            full[2:, 2:] = (1 - eps) * tau.matrix
            states.append(full)
        ens = Ensemble.from_lists([0.2, 0.3, 0.5], states)
        built, ranked = [], []
        original_build = qmat.DensityOperator.from_matrix.__func__
        monkeypatch.setattr(qmat.DensityOperator, "from_matrix", classmethod(
            lambda cls, *a, **k: built.append(1) or original_build(cls, *a, **k)))
        monkeypatch.setattr("mixcomp.rates.example11_rate",
                            lambda block: ranked.append(1) or example11_rate(block))
        names = [e.name for e in rate_report(ens).entries]
        assert "block-diagonal scheme (shared tau)" in names
        assert len(built) <= 6
        assert len(ranked) == 1

    def test_block_report_validates_no_block(self, rng, monkeypatch):
        # The ensemble of the test above: its blocks are cut from validated
        # states, so rate_report validates none of them again.
        eps, tau = 0.4, sampling.random_density(2, rng)
        ens = Ensemble.from_lists([0.2, 0.3, 0.5], block_states(
            [eps] * 3, [sampling.random_density(2, rng) for _ in range(3)], tau))
        built = []
        original_build = qmat.DensityOperator.from_matrix.__func__
        monkeypatch.setattr(qmat.DensityOperator, "from_matrix", classmethod(
            lambda cls, *a, **k: built.append(1) or original_build(cls, *a, **k)))
        names = [e.name for e in rate_report(ens).entries]
        assert "block-diagonal scheme (shared tau)" in names
        assert built == []

    def test_block_split_admits_trace_spread_within_structure_tol(self, rng):
        # Upper-block traces 0.4 and 0.4 + delta: each block is normalised by
        # its own trace, so the split stays while delta is within STRUCTURE_TOL.
        tau = sampling.random_density(2, rng)
        sigmas = [sampling.random_density(2, rng) for _ in range(2)]
        name = "block-diagonal scheme (shared tau)"

        def block_rate(delta):
            ens = Ensemble.from_lists([0.3, 0.7], block_states([0.4, 0.4 + delta], sigmas, tau))
            return {e.name: e.rate for e in rate_report(ens).entries}.get(name)

        want = block_rate(0.0)
        assert want is not None
        for delta in (5e-11, 5e-10, 5e-9):
            got = block_rate(delta)
            assert got is not None and abs(got - want) <= 1e-8
        assert block_rate(2e-8) is None

    def test_scheme_rates_respect_lower_bound(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 7))
            ens = sampling.random_ensemble(d, int(rng.integers(1, 6)), rng)
            report = rate_report(ens)
            lo = lower_bound_rate(ens)
            for entry in report.scheme_rates():
                assert entry.rate >= lo - 1e-8

    def test_report_invariant_enforced(self):
        with pytest.raises(ValidationError):
            RateReport.from_entries(
                "bad",
                [
                    RateEntry("lower", 1.0, "lower_bound"),
                    RateEntry("scheme", 0.5, "scheme_rate"),
                ],
            )
