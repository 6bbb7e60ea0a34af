import math

import numpy as np
import pytest

from mixcomp import sampling
from mixcomp.classical import (
    M0,
    M1,
    M2,
    CoinSource,
    ProtocolTrace,
    StochasticMatrix,
    analytic_output_law,
    apply_channel,
    example9_message_distribution,
    example9_simulate,
    orient_coins,
    xi_rate,
)
from mixcomp.errors import DimensionMismatch, ValidationError
from mixcomp.measures import shannon_entropy, vn_entropy
from mixcomp.purify import two_state_purification_rate, upsilon_rate
from mixcomp.rates import rate_report


def h_bits(*ps) -> float:
    return -sum(p * math.log2(p) for p in ps if p > 0)


class TestStochasticChannel:
    def test_identity(self, rng):
        p = sampling.random_prob_vector(4, rng)
        a = StochasticMatrix.from_matrix(np.eye(4))
        np.testing.assert_allclose(apply_channel(a, p), p, atol=1e-15)

    def test_point_mass_columns(self):
        a = StochasticMatrix.from_matrix([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(apply_channel(a, [0.3, 0.7]), [1.0, 0.0], atol=1e-15)

    def test_random_preserves_normalisation(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            raw = rng.random((n, n))
            a = StochasticMatrix.from_matrix(raw / raw.sum(axis=0, keepdims=True))
            out = apply_channel(a, sampling.random_prob_vector(n, rng))
            assert abs(out.sum() - 1.0) <= 1e-12
            assert out.min() >= 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            StochasticMatrix.from_matrix([[0.5, 0.2], [0.4, 0.8]])
        with pytest.raises(DimensionMismatch):
            apply_channel(StochasticMatrix.from_matrix(np.eye(2)), [1.0, 0.0, 0.0])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError, match="finite"):
            StochasticMatrix.from_matrix([[np.nan, 0.5], [1.0, 0.5]])

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_rejects_empty_matrix(self, shape):
        with pytest.raises(ValidationError, match="non-empty"):
            StochasticMatrix.from_matrix(np.zeros(shape))


class TestMessageDistribution:
    def test_identical_coins(self):
        dist = example9_message_distribution(CoinSource(0.5, 0.5, 0.3, 0.3))
        np.testing.assert_allclose(dist, [1.0, 0.0, 0.0], atol=1e-15)

    def test_paper_parameters(self):
        dist = example9_message_distribution(CoinSource(0.5, 0.5, 0.25, 0.75))
        np.testing.assert_allclose(dist, [0.5, 0.25, 0.25], atol=1e-15)

    def test_swap_convention(self):
        # alpha1 > alpha2: coins relabelled internally so the formulas apply.
        src = CoinSource(0.3, 0.7, 0.9, 0.1)
        oriented, swapped = orient_coins(src)
        assert swapped
        assert oriented.alpha2 >= oriented.alpha1
        assert oriented.p1 == src.p2
        dist = example9_message_distribution(src)
        assert abs(dist.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(dist, [0.2, 0.7 * 0.8, 0.3 * 0.8], atol=1e-15)

    def test_near_identical_low_rate(self):
        src = CoinSource(0.5, 0.5, 0.249, 0.251)
        dist = example9_message_distribution(src)
        assert dist[0] > 0.99
        assert xi_rate(src) < 0.05


class TestXiRate:
    def test_identical_coins_zero(self):
        assert xi_rate(CoinSource(0.4, 0.6, 0.7, 0.7)) == 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.35, 0.5])
    def test_symmetric_family_formula(self, eps):
        src = CoinSource(0.5, 0.5, eps, 1 - eps)
        expected = h_bits(2 * eps, 0.5 - eps, 0.5 - eps)
        assert abs(xi_rate(src) - expected) <= 1e-12

    def test_quarter_value(self):
        assert abs(xi_rate(CoinSource(0.5, 0.5, 0.25, 0.75)) - 1.5) <= 1e-12

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(20):
            a1, a2 = rng.random(), rng.random()
            src = CoinSource(0.5, 0.5, float(a1), float(a2))
            xi = xi_rate(src)
            assert xi >= 0.0
            if abs(a1 - a2) > 1e-6:
                assert xi > 0.0


class TestSimulation:
    def test_all_heads(self):
        trace = example9_simulate(CoinSource(0.5, 0.5, 1.0, 1.0), 500, seed=1)
        assert np.all(trace.output_sequence == 1)

    def test_analytic_law_exact(self, rng):
        for _ in range(25):
            src = CoinSource(
                p1=(p1 := float(rng.random())), p2=1 - p1,
                alpha1=float(rng.random()), alpha2=float(rng.random()),
            )
            law = analytic_output_law(src)
            assert abs(law[0, 0] - src.alpha1) <= 1e-12
            assert abs(law[1, 0] - src.alpha2) <= 1e-12
            np.testing.assert_allclose(law.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_monte_carlo_matches_coin_laws(self):
        n = 100_000
        src = CoinSource(0.5, 0.5, 0.25, 0.75)
        trace = example9_simulate(src, n, seed=0)
        emp = trace.empirical_heads_given_coin()
        for coin, alpha in ((1, 0.25), (2, 0.75)):
            count = int(np.sum(trace.coin_sequence == coin))
            stderr = math.sqrt(alpha * (1 - alpha) / count)
            assert abs(emp[coin] - alpha) <= 4 * stderr

    def test_reproducible(self):
        src = CoinSource(0.3, 0.7, 0.2, 0.9)
        t1 = example9_simulate(src, 5000, seed=42)
        t2 = example9_simulate(src, 5000, seed=42)
        np.testing.assert_array_equal(t1.coin_sequence, t2.coin_sequence)
        np.testing.assert_array_equal(t1.message_sequence, t2.message_sequence)
        np.testing.assert_array_equal(t1.output_sequence, t2.output_sequence)
        t3 = example9_simulate(src, 5000, seed=43)
        assert not np.array_equal(t1.output_sequence, t3.output_sequence)

    def test_messages_consistent_with_coins(self):
        trace = example9_simulate(CoinSource(0.5, 0.5, 0.25, 0.75), 2000, seed=3)
        assert np.all(trace.coin_sequence[trace.message_sequence == M1] == 1)
        assert np.all(trace.coin_sequence[trace.message_sequence == M2] == 2)
        assert np.all(trace.output_sequence[trace.message_sequence == M1] == 0)
        assert np.all(trace.output_sequence[trace.message_sequence == M2] == 1)

    def test_degenerate_runs_on_identity_branch(self):
        src = CoinSource(0.5, 0.5, 0.0, 1.0)
        trace = example9_simulate(src, 1000, seed=5)
        assert not np.any(trace.message_sequence == M0)
        law = analytic_output_law(src)
        np.testing.assert_allclose(law[:, 0], [0.0, 1.0], atol=1e-15)

    def test_swapped_source_relabels_its_coins_back(self):
        # alpha1 > alpha2: the protocol runs on the relabelled source and the
        # coin sequence comes back in the caller's labels; messages and
        # outputs are those of the relabelled run.
        src = CoinSource(0.7, 0.3, 0.9, 0.2)
        oriented, swapped = orient_coins(src)
        assert swapped
        trace = example9_simulate(src, 20_000, seed=7)
        ref = example9_simulate(oriented, 20_000, seed=7)
        assert trace.swapped and not ref.swapped
        np.testing.assert_array_equal(trace.coin_sequence, 3 - ref.coin_sequence)
        np.testing.assert_array_equal(trace.message_sequence, ref.message_sequence)
        np.testing.assert_array_equal(trace.output_sequence, ref.output_sequence)
        emp = trace.empirical_heads_given_coin()
        for coin, alpha in ((1, 0.9), (2, 0.2)):
            count = int(np.sum(trace.coin_sequence == coin))
            assert abs(emp[coin] - alpha) <= 4 * math.sqrt(alpha * (1 - alpha) / count)

    def test_trace_length_invariant(self):
        with pytest.raises(ValidationError):
            ProtocolTrace(
                np.array([1, 2]), np.array([0]), np.array([1, 0]), seed=0, swapped=False
            )


class TestRateComparison:
    """A coin source's one rate report: ``rate_report`` of its ensemble."""

    @staticmethod
    def rates(src: CoinSource) -> dict:
        return {e.name: e.rate for e in rate_report(src.as_ensemble()).entries}

    def test_beats_both_bounds_near_quarter(self):
        rates = self.rates(CoinSource(0.5, 0.5, 0.24, 0.26))
        xi = rates["three-message protocol Xi"]
        assert xi < rates["visible state-identity coding H(p)"]
        assert xi < rates["mean-state entropy S"]
        assert abs(rates["mean-state entropy S"] - h_bits(0.25, 0.75)) <= 1e-12

    def test_identical_coins(self):
        rates = self.rates(CoinSource(0.5, 0.5, 0.3, 0.3))
        assert rates["three-message protocol Xi"] == 0.0
        assert rates["Holevo quantity chi"] <= 1e-12

    def test_holevo_equals_mutual_information(self, rng):
        for _ in range(10):
            src = CoinSource(
                p1=(p1 := float(rng.random())), p2=1 - p1,
                alpha1=float(rng.random()), alpha2=float(rng.random()),
            )
            abar = src.average_heads()
            mutual_information = shannon_entropy([abar, 1 - abar]) - (
                src.p1 * shannon_entropy([src.alpha1, 1 - src.alpha1])
                + src.p2 * shannon_entropy([src.alpha2, 1 - src.alpha2])
            )
            assert abs(self.rates(src)["Holevo quantity chi"] - mutual_information) <= 1e-9

    def test_conjectured_rate_below_everything(self, rng):
        # chi, the conjectured optimal rate of this commuting source, lies
        # below every upper bound and scheme rate the report carries.
        for _ in range(20):
            src = CoinSource(
                p1=(p1 := float(rng.random())), p2=1 - p1,
                alpha1=float(rng.random()), alpha2=float(rng.random()),
            )
            report = rate_report(src.as_ensemble())
            chi = {e.name: e.rate for e in report.entries}["Holevo quantity chi"]
            uppers = [e.rate for e in report.entries if e.kind in ("upper_bound", "scheme_rate")]
            assert len(uppers) >= 4  # S, H(p), Xi and the purification rate
            bound = min(
                vn_entropy(src.as_ensemble().average()),
                shannon_entropy([src.p1, src.p2]),
                xi_rate(src),
                *uppers,
            )
            assert chi <= bound + 1e-9

    @pytest.mark.parametrize("eps", np.round(np.arange(0.0, 0.501, 0.01), 10))
    def test_xi_dominates_upsilon(self, eps):
        src = CoinSource(0.5, 0.5, float(eps), 1.0 - float(eps))
        gap = xi_rate(src) - upsilon_rate(float(eps))
        assert gap >= -1e-9
        if eps in (0.0, 0.5):
            assert abs(gap) <= 1e-9

    def test_symmetric_family_gets_upsilon_entry(self):
        for eps in (0.0, 0.1, 0.25, 0.4, 0.49, 0.5):
            for src in (CoinSource(0.5, 0.5, eps, 1.0 - eps), CoinSource(0.5, 0.5, 1.0 - eps, eps)):
                rates = self.rates(src)
                assert abs(rates["canonical purification scheme"] - upsilon_rate(eps)) <= 1e-12

    def test_off_family_gets_the_pair_rate(self):
        src = CoinSource(0.3, 0.7, 0.6, 0.1)
        rate = self.rates(src)["canonical purification scheme"]
        assert rate == two_state_purification_rate(src.as_ensemble())
        assert 0.0 < rate < 1.0
