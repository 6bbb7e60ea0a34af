import concurrent.futures
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mixcomp import blocksim, qmat, sampling
from mixcomp.blocksim import (
    BlockSource,
    FixedOutputScheme,
    IdentityScheme,
    ceiling_subspace_dim,
    global_fidelity_score,
    lemma_a1_ceiling,
    local_fidelity_score,
    power_spectrum_top_sum,
    project_and_patch,
    project_patch_scheme,
    scheme_subspace_dim,
    theorem7_demo,
    typical_subspace,
    typical_subspace_from_weights,
)
from mixcomp.errors import DimensionMismatch, DimensionOverflow, DomainError
from mixcomp.measures import Ensemble, fidelity, vn_entropy
from mixcomp.qmat import DensityOperator, eig_hermitian, maximally_mixed, partial_trace

from conftest import diag_state, top_product_sum_oracle


def two_coin_base(a=0.9) -> Ensemble:
    return Ensemble.from_lists(
        [0.5, 0.5], [diag_state(a, 1 - a), diag_state(1 - a, a)]
    )


def over_budget_diagonal_source():
    """Ten diagonal qubit states at N = 12: tables of 2 * 10^12 elements, over the budget."""
    diags = [diag_state(a, 1 - a) for a in np.linspace(0.05, 0.95, 10)]
    source = BlockSource.build(Ensemble.from_lists(np.full(10, 0.1), diags), 12)
    return source, project_patch_scheme(source, 0.8)


class TestRateQuantisation:
    def test_scheme_uses_whole_qubits(self):
        assert scheme_subspace_dim(0.85, 4, 16) == 16  # ceil(3.4) = 4 qubits
        assert scheme_subspace_dim(0.85, 8, 256) == 128
        assert scheme_subspace_dim(1.15, 12, 4096) == 4096  # capped at full space

    def test_ceiling_uses_raw_dimension(self):
        assert ceiling_subspace_dim(0.85, 4, 16) == 11  # ceil(2^3.4)
        assert ceiling_subspace_dim(0.85, 8, 256) == 112
        assert ceiling_subspace_dim(0.85, 12, 4096) == 1177

    def test_integer_rate_products_are_exact(self):
        # 0.9 * 10 = 9.000000000000002 in floats; both roundings must not slip.
        assert scheme_subspace_dim(0.9, 10, 2048) == 512
        assert ceiling_subspace_dim(0.9, 10, 2048) == 512
        assert scheme_subspace_dim(1.0, 12, 4096) == 4096

    def test_rate_zero(self):
        assert scheme_subspace_dim(0.0, 8, 256) == 1
        assert ceiling_subspace_dim(0.0, 8, 256) == 1

    @pytest.mark.parametrize("rate", [100.0, 1e308])
    def test_rates_past_log2_d_keep_the_whole_space(self, rate):
        # q N >= log2(d^N): both counts are d^N, and 2^(qN) is never formed
        # (at 1e308, q N is inf).
        for n, full_dim in ((12, 4096), (7, 3**7)):
            assert scheme_subspace_dim(rate, n, full_dim) == full_dim
            assert ceiling_subspace_dim(rate, n, full_dim) == full_dim

    def test_ceiling_past_a_float_is_counted_then_refused_by_the_budget(self):
        # 2^(0.6 * 2000) = 2^1200 is past the largest float, not past d^N = 2^2000.
        k = ceiling_subspace_dim(0.6, 2000, 2**2000)
        assert abs(k / 2**1200 - (1.0 - 1e-9)) <= 1e-15
        assert scheme_subspace_dim(0.6, 2000, 2**2000) == 2**1200
        with pytest.raises(DimensionOverflow, match=r"2\^2000 weights exceed DIAGONAL_TABLE"):
            lemma_a1_ceiling(BlockSource.build(two_coin_base(), 2000), 0.6)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_non_finite_and_negative_rates(self, rate):
        for dim in (scheme_subspace_dim, ceiling_subspace_dim):
            with pytest.raises(DomainError, match="finite and nonnegative"):
                dim(rate, 8, 256)


class TestTypicalSubspace:
    def test_stable_tie_breaking(self):
        sub = typical_subspace_from_weights(np.array([0.25, 0.5, 0.25]), 2)
        np.testing.assert_array_equal(sub.coordinates, [1, 0])
        assert abs(sub.eta - 0.25) <= 1e-15

    def test_dense_matches_spectrum(self, rng):
        rho = sampling.random_density(5, rng)
        sub = typical_subspace(rho, 3)
        from mixcomp.qmat import eig_hermitian

        vals = eig_hermitian(rho.matrix).eigenvalues
        assert abs(sub.eta - (1 - vals[:3].sum())) <= 1e-10
        pi = sub.projector()
        assert np.max(np.abs(pi @ pi - pi)) <= 1e-10

    def test_projector_in_the_computational_basis(self):
        # A diagonal reference has no frame: the projector is the diagonal 0/1
        # matrix of the kept coordinates, for one factor and for a block.
        sub = typical_subspace(diag_state(0.2, 0.5, 0.3), 2)
        assert sub.frame is None
        np.testing.assert_array_equal(sub.projector(), np.diag([0, 1, 1]).astype(complex))
        block = typical_subspace_from_weights(np.array([0.49, 0.21, 0.21, 0.09]), 3)
        np.testing.assert_array_equal(block.projector(), np.diag([1, 1, 1, 0]).astype(complex))

    def test_domain(self, rng):
        rho = sampling.random_density(3, rng)
        with pytest.raises(DomainError):
            typical_subspace(rho, 0)
        with pytest.raises(DomainError):
            typical_subspace(rho, 4)


class TestProjectAndPatch:
    def test_supported_state_unchanged(self):
        rho = diag_state(0.6, 0.4, 0.0)
        sub = typical_subspace(rho, 2)
        out = project_and_patch(rho, sub)
        assert np.max(np.abs(out.matrix - rho)) <= 1e-12

    def test_worked_example(self):
        # rho = diag(0.5, 0.3, 0.2) truncated to its top-2 eigenspace with the
        # lost mass patched onto the top eigenvector.
        rho = diag_state(0.5, 0.3, 0.2)
        sub = typical_subspace(rho, 2)
        out = project_and_patch(rho, sub)
        np.testing.assert_allclose(out.matrix, diag_state(0.7, 0.3, 0.0), atol=1e-12)
        f = fidelity(rho, out)
        expected = (math.sqrt(0.5 * 0.7) + math.sqrt(0.3 * 0.3)) ** 2
        assert abs(f - expected) <= 1e-10
        assert abs(expected - 0.7949647869859768) <= 1e-12
        assert f >= (1 - sub.eta) ** 2

    def test_lemma_a2_random(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 9))
            rho = sampling.random_density(d, rng)
            k = int(rng.integers(1, d + 1))
            sub = typical_subspace(rho, k)
            out = project_and_patch(rho, sub)
            f = fidelity(rho, out)
            assert f >= (1 - sub.eta) ** 2 - 1e-8
            assert f >= 1 - 2 * sub.eta - 1e-8

    def test_dimension_mismatch(self, rng):
        rho = sampling.random_density(3, rng)
        sub = typical_subspace(sampling.random_density(4, rng), 2)
        with pytest.raises(DimensionMismatch):
            project_and_patch(rho, sub)

    def test_dense_state_matches_eigenvector_columns(self, rng):
        # Oracle: B B^dag rho B B^dag + tail b0 b0^dag with B the top-k eigenvectors.
        for d in (2, 3, 5, 8):
            rho = sampling.random_density(d, rng)
            b = eig_hermitian(rho.matrix).eigenvectors
            for k in range(1, d + 1):
                sub = typical_subspace(rho, k)
                bk = b[:, :k]
                pi = bk @ bk.conj().T
                kept = pi @ rho.matrix @ pi
                tail = 1.0 - np.real(np.trace(kept))
                want = kept + tail * np.outer(bk[:, 0], bk[:, 0].conj())
                assert sub.frame is not None and sub.dim == k
                assert np.max(np.abs(project_and_patch(rho, sub).matrix - want)) <= 1e-12


class TestLemmaA1Bound:
    def test_full_dimension(self, rng):
        rho = sampling.random_density(4, rng)
        assert abs(power_spectrum_top_sum(rho, 1, 4) - 1.0) <= 1e-10

    def test_flat_spectrum(self):
        assert abs(power_spectrum_top_sum(maximally_mixed(4), 1, 1) - 0.25) <= 1e-12

    def test_random_supported_states(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 9))
            rho = sampling.random_density(d, rng)
            k = int(rng.integers(1, d + 1))
            basis = sampling.random_subspace(d, k, rng)
            supported = sampling.random_state_on_subspace(basis, rng)
            assert fidelity(rho, supported) <= power_spectrum_top_sum(rho, 1, k) + 1e-8


class TestScores:
    def test_identity_scheme(self):
        source = BlockSource.build(two_coin_base(), 6)
        assert abs(global_fidelity_score(source, IdentityScheme(source.full_dim)).value - 1.0) <= 1e-12
        assert abs(local_fidelity_score(source, IdentityScheme(source.full_dim)).value - 1.0) <= 1e-12

    def test_identity_scheme_on_dense_source(self, rng):
        base = Ensemble.from_lists([0.4, 0.6], [sampling.random_density(2, rng) for _ in range(2)])
        source = BlockSource.build(base, 3)
        scheme = IdentityScheme(source.full_dim)
        assert scheme.subspace.eta == 0.0 and scheme.channel_dim == 8
        for score in (global_fidelity_score, local_fidelity_score):
            result = score(source, scheme, mode="exact")
            assert result.method == "exact-dense"
            assert abs(result.value - 1.0) <= 1e-12

    def test_entangled_decoding_of_uncorrelated_source(self, bell_state):
        # The maximally mixed pair decoded to an entangled pure state: perfect
        # marginals (local score 1) but whole-block fidelity only 1/4.
        base = Ensemble.from_lists([1.0], [maximally_mixed(2)])
        source = BlockSource.build(base, 2)
        scheme = FixedOutputScheme(bell_state)
        assert abs(local_fidelity_score(source, scheme).value - 1.0) <= 1e-10
        assert abs(global_fidelity_score(source, scheme).value - 0.25) <= 1e-10

    def test_commuting_exact_sweep_high_rate(self):
        base = two_coin_base(0.9)
        source = BlockSource.build(base, 10)
        s_bar = vn_entropy(base.average())
        scheme = project_patch_scheme(source, s_bar + 0.25)
        score = global_fidelity_score(source, scheme, mode="exact")
        assert score.method == "exact-diagonal"
        assert score.n_terms == 2**10
        assert score.value > 0.9

    def test_local_dominates_global_on_commuting(self):
        base = two_coin_base(0.8)
        source = BlockSource.build(base, 5)
        for rate in (0.4, 0.8, 1.1):
            scheme = project_patch_scheme(source, rate)
            g = global_fidelity_score(source, scheme).value
            loc = local_fidelity_score(source, scheme).value
            assert loc >= g - 1e-8

    def test_local_dominates_global_per_string(self):
        # A single-state base has exactly one string, so the sweep value IS the
        # per-string value: block fidelity never beats the marginal product.
        for diag in ([0.7, 0.3], [0.55, 0.45], [0.9, 0.1]):
            base = Ensemble.from_lists([1.0], [diag_state(*diag)])
            for n in (3, 5):
                source = BlockSource.build(base, n)
                for rate in (0.2, 0.5, 0.9):
                    scheme = project_patch_scheme(source, rate)
                    g = global_fidelity_score(source, scheme).value
                    loc = local_fidelity_score(source, scheme).value
                    assert loc >= g - 1e-8

    def test_scores_within_unit_interval(self, rng):
        base = two_coin_base(0.7)
        source = BlockSource.build(base, 4)
        for rate in (0.2, 0.6, 1.0):
            scheme = project_patch_scheme(source, rate)
            g = global_fidelity_score(source, scheme).value
            loc = local_fidelity_score(source, scheme).value
            assert 0.0 <= g <= 1.0
            assert 0.0 <= loc <= 1.0

    def test_monte_carlo_matches_exact(self):
        # Rate 0.6 keeps 2^4 of 64 dimensions; at 0.9 the scheme would keep
        # all 64, every string would score 1 and the spread would be zero.
        base = two_coin_base(0.85)
        source = BlockSource.build(base, 6)
        scheme = project_patch_scheme(source, 0.6)
        exact = global_fidelity_score(source, scheme, mode="exact").value
        mc = global_fidelity_score(source, scheme, mode="mc", n_samples=3000, seed=11)
        assert mc.method == "monte-carlo"
        assert mc.stderr is not None and mc.stderr > 0
        assert abs(mc.value - exact) <= 5 * mc.stderr + 1e-6

    def test_monte_carlo_worker_count_invariance(self):
        base = two_coin_base(0.85)
        source = BlockSource.build(base, 6)
        scheme = project_patch_scheme(source, 0.9)
        serial = global_fidelity_score(source, scheme, mode="mc", n_samples=1500, seed=7, workers=1)
        threaded = global_fidelity_score(source, scheme, mode="mc", n_samples=1500, seed=7, workers=4)
        assert serial.value == threaded.value
        assert serial.stderr == threaded.stderr

    def test_exact_mode_rejects_large_sweeps(self, rng):
        # Non-diagonal three-state base: no fast path, too many strings.
        states = [sampling.random_density(2, rng) for _ in range(3)]
        base = Ensemble.from_lists([0.3, 0.3, 0.4], states)
        source = BlockSource.build(base, 8)
        scheme = project_patch_scheme(source, 1.2)
        with pytest.raises(DimensionOverflow):
            global_fidelity_score(source, scheme, mode="exact")

    def test_exact_mode_rejects_diagonal_sweep_over_budget(self):
        # 10^12 strings: the tables would need 2 * 10^12 elements, so the
        # request must fail before any sweep starts, and Monte Carlo must call
        # the engine with one row per position: no m^N table is built.
        source, scheme = over_budget_diagonal_source()
        with pytest.raises(DimensionOverflow, match="budget"):
            global_fidelity_score(source, scheme, mode="exact")
        engine = blocksim._diagonal_tables
        rows = []

        def recording(factors, *args):
            rows.append([len(f) for f in factors])
            return engine(factors, *args)

        with mock.patch.object(blocksim, "_diagonal_tables", recording):
            mc = global_fidelity_score(source, scheme, n_samples=200, seed=1)
        assert mc.method == "monte-carlo" and mc.n_terms == 200
        assert rows == [[1] * 12] * 200

    def test_over_budget_monte_carlo_is_pinned(self):
        # Values of the per-string classical-fidelity code the engine replaced.
        source, scheme = over_budget_diagonal_source()
        g = global_fidelity_score(source, scheme, n_samples=200, seed=1)
        loc = local_fidelity_score(source, scheme, n_samples=200, seed=1)
        for score, value, stderr in ((g, 0.12257822773655787, 0.012257135644293413),
                                     (loc, 0.09163044002681824, 0.01223862252317034)):
            assert score.method == "monte-carlo" and score.n_terms == 200
            assert abs(score.value - value) <= 1e-12
            assert abs(score.stderr - stderr) <= 1e-12

    @pytest.mark.parametrize("mode", ["exact", "mc", "auto"])
    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_non_positive_sample_counts(self, mode, n_samples):
        source = BlockSource.build(two_coin_base(0.85), 4)
        scheme = project_patch_scheme(source, 0.6)
        for score in (global_fidelity_score, local_fidelity_score):
            with pytest.raises(DomainError, match="n_samples"):
                score(source, scheme, mode=mode, n_samples=n_samples)

    def test_four_state_diagonal_source_sweeps_exactly(self):
        diags = [diag_state(a, 1 - a) for a in (0.9, 0.6, 0.3, 0.05)]
        base = Ensemble.from_lists([0.1, 0.2, 0.3, 0.4], diags)
        source = BlockSource.build(base, 10)
        scheme = project_patch_scheme(source, 0.8)
        g = global_fidelity_score(source, scheme)
        loc = local_fidelity_score(source, scheme)
        assert g.method == loc.method == "exact-diagonal"
        assert g.n_terms == loc.n_terms == 4**10
        assert 0.0 < g.value <= loc.value <= 1.0

    @pytest.mark.parametrize(
        "workers, cpus, n_samples, expected",
        [(10_000, 3, 1500, 3), (1000, 64, 300, 8), (8, None, 1500, None), (4, 8, 256, 4),
         (4, 8, 1, None)],
    )
    def test_monte_carlo_worker_clamp(self, monkeypatch, rng, workers, cpus, n_samples,
                                      expected):
        # Pool size is min(workers, cores, distinct strings); no pool below two.
        # The pool splits the strings scored one at a time, so the source is dense:
        # 2^3 strings, all drawn in 256 samples.
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(blocksim.os, "cpu_count", lambda: cpus)
        source = dense_pair(rng, n=3)
        scheme = project_patch_scheme(source, 0.6)
        score = global_fidelity_score(source, scheme, mode="mc", n_samples=n_samples,
                                      seed=7, workers=workers)
        assert score.n_terms == n_samples
        assert created == ([] if expected is None else [expected])

    def test_dense_mc_on_noncommuting(self, rng):
        states = [sampling.random_density(2, rng) for _ in range(2)]
        base = Ensemble.from_lists([0.5, 0.5], states)
        source = BlockSource.build(base, 3)
        scheme = project_patch_scheme(source, vn_entropy(base.average()) + 0.4)
        score = global_fidelity_score(source, scheme, mode="mc", n_samples=300, seed=2)
        assert 0.0 <= score.value <= 1.0


def dense_basis_oracle(source: BlockSource, rate: float):
    """Eta and per-string (global, local) scores from a dense D x k basis.

    This is the representation the eigenframe coordinates replaced: the kept
    columns are Kronecker products of the mean state's eigenvectors, and every
    string is projected and patched in the computational basis.
    """
    base, n, d = source.base, source.n_blocks, source.base.dim
    spec = eig_hermitian(base.average().matrix)
    w = blocksim.kron_power_vector(spec.eigenvalues, n)
    k = scheme_subspace_dim(rate, n, source.full_dim)
    order = np.argsort(-w, kind="stable")[:k]
    b = np.column_stack([
        reduce(np.kron, [spec.eigenvectors[:, j] for j in np.unravel_index(flat, (d,) * n)])
        for flat in order
    ])
    # Keeping the whole space loses nothing: eta is 0, not the sum's rounding.
    eta = 0.0 if k == w.size else float(max(0.0, 1.0 - w[order].sum()))
    scores = {}
    for string in itertools.product(range(len(base)), repeat=n):
        sigma = reduce(np.kron, [base.states[i].matrix for i in string])
        inner = b.conj().T @ sigma @ b
        tail = max(0.0, 1.0 - float(np.real(np.trace(inner))))
        out = b @ inner @ b.conj().T + tail * np.outer(b[:, 0], b[:, 0].conj())
        out = (out + out.conj().T) / 2.0
        loc = math.prod(fidelity(base.states[i], partial_trace(out, [d] * n, keep=pos))
                        for pos, i in enumerate(string))
        scores[string] = (fidelity(sigma, out), loc)
    return eta, scores


def engine_scores(source: BlockSource, scheme, string=None):
    """The diagonal engine's (global, local) tables, or one string's one-row call."""
    P, mask, x0 = blocksim._diagonal_inputs(source, scheme)
    factors = [P] * source.n_blocks if string is None else [P[s:s + 1] for s in string]
    return blocksim._diagonal_tables(factors, mask, x0, True)


def assert_engine_matches_dense(source: BlockSource, scheme):
    """Engine tables and one-row calls against the dense per-string scorer, within 1e-12.

    ``source`` is written in the scheme's frame.  The dense scorer is separate
    code: Kronecker matrices, project_and_patch, partial_trace and fidelity.
    """
    g_table, l_table = engine_scores(source, scheme)
    for string in itertools.product(range(len(source.base)), repeat=source.n_blocks):
        g, loc = blocksim._score_string(source, scheme, string, True)
        g_row, l_row = engine_scores(source, scheme, string)
        for got_g, got_l in ((g_table[string], l_table[string]), (g_row.item(), l_row.item())):
            assert abs(got_g - g) <= 1e-12
            assert abs(got_l - loc) <= 1e-12
    return g_table, l_table


def _program_per_string(source: BlockSource, scheme):
    """Whether the diagonal engine applies, and the program's per-string scores."""
    framed = blocksim._in_frame(source, scheme.frame)
    strings = list(itertools.product(range(len(source.base)), repeat=source.n_blocks))
    diagonal, _, _ = blocksim.project_patch_plan(source, "exact")
    if diagonal:
        g_table, l_table = assert_engine_matches_dense(framed, scheme)
        return True, {s: (g_table[s], l_table[s]) for s in strings}
    return False, {s: blocksim._score_string(framed, scheme, s, True) for s in strings}


class TestEigenframeSubspace:
    """Kept coordinates in the mean state's eigenframe against the dense basis oracle."""

    @pytest.mark.parametrize("d, m, n", [
        (2, 1, 4), (2, 2, 4), (2, 3, 3), (3, 1, 2), (3, 2, 3), (3, 3, 2),
    ])
    def test_dense_sources_match_basis_oracle(self, rng, d, m, n):
        for rate in (0.0, 0.5, 0.9, 1.4):
            base = Ensemble.from_lists(sampling.random_prob_vector(m, rng),
                                       [sampling.random_density(d, rng) for _ in range(m)])
            source = BlockSource.build(base, n)
            scheme = project_patch_scheme(source, rate)
            eta, want = dense_basis_oracle(source, rate)
            assert scheme.subspace.eta == eta
            # One state is diagonal in its own eigenframe; several dense ones are not.
            diagonal, got = _program_per_string(source, scheme)
            assert diagonal == (m == 1)
            for string, (g, loc) in want.items():
                assert abs(got[string][0] - g) <= 1e-6
                assert abs(got[string][1] - loc) <= 1e-6
            weights = {s: source.string_prob(s) for s in want}
            for score, field in ((global_fidelity_score, 0), (local_fidelity_score, 1)):
                exact = score(source, scheme, mode="exact").value
                assert abs(exact - sum(weights[s] * want[s][field] for s in want)) <= 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    def test_rotated_commuting_pair_takes_diagonal_path(self, rng, d):
        r1, r2, _ = sampling.random_commuting_pair(d, rng)
        base = Ensemble.from_lists([0.35, 0.65], [r1, r2])
        assert np.min(np.diff(eig_hermitian(base.average().matrix).eigenvalues)) < -1e-3
        source = BlockSource.build(base, 3)
        for rate in (0.4, 1.0):
            scheme = project_patch_scheme(source, rate)
            eta, want = dense_basis_oracle(source, rate)
            assert scheme.subspace.eta == eta
            g = global_fidelity_score(source, scheme, mode="exact")
            loc = local_fidelity_score(source, scheme, mode="exact")
            assert g.method == loc.method == "exact-diagonal"
            weights = {s: source.string_prob(s) for s in want}
            assert abs(g.value - sum(weights[s] * want[s][0] for s in want)) <= 1e-6
            assert abs(loc.value - sum(weights[s] * want[s][1] for s in want)) <= 1e-6

    def test_full_rate_dense_scheme_at_dimension_cap(self, rng):
        # 4096 kept dimensions: a dense basis would be a 4096 x 4096 complex
        # matrix (256 MiB); the coordinates take 32 KiB.
        base = Ensemble.from_lists([0.5, 0.5], [sampling.random_density(2, rng) for _ in range(2)])
        source = BlockSource.build(base, 12)
        tracemalloc.start()
        try:
            scheme = project_patch_scheme(source, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        assert scheme.channel_dim == 4096
        assert scheme.frame.shape == (2, 2)
        np.testing.assert_array_equal(np.sort(scheme.subspace.coordinates), np.arange(4096))
        assert scheme.subspace.eta <= 1e-12


class TestWholeSpaceEta:
    """Keeping every coordinate leaves no tail: eta is exactly 0, not the rounding of a sum."""

    @pytest.mark.parametrize("first", [[[0.9, 0.2], [0.2, 0.1]], diag_state(0.9, 0.1)],
                             ids=["dense", "diagonal"])
    def test_whole_space_rate(self, first):
        base = Ensemble.from_lists([0.5, 0.5], [first, diag_state(0.3, 0.7)])
        scheme = project_patch_scheme(BlockSource.build(base, 6), 100.0)
        assert scheme.channel_dim == 64
        assert scheme.subspace.eta == 0.0

    def test_all_weights_kept(self):
        # 0.6 + 0.3 + 0.1 sums to 0.9999999999999999 in floating point.
        assert typical_subspace_from_weights([0.6, 0.3, 0.1], 3).eta == 0.0
        assert typical_subspace_from_weights([0.6, 0.3, 0.1], 2).eta > 0.0


class TestBlockLength:
    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -math.inf, 0, 0.5, np.float64(1.5)])
    def test_build_refuses_a_length_not_whole_finite_and_positive(self, n):
        with pytest.raises(DomainError, match="n_blocks must be a whole number >= 1"):
            BlockSource.build(two_coin_base(0.9), n)

    @pytest.mark.parametrize("n", [3, np.int64(3), np.uint8(3), 3.0])
    def test_build_accepts_whole_lengths(self, n):
        source = BlockSource.build(two_coin_base(0.9), n)
        assert source.n_blocks == 3 and type(source.n_blocks) is int

    def test_theorem7_demo_refuses_a_fractional_length(self):
        with pytest.raises(DomainError, match="got 2.7"):
            theorem7_demo(two_coin_base(0.9), 0.1, [2.7])


class TestTheorem7Demo:
    def test_ceiling_sequence_matches_binomial_oracle(self):
        base = two_coin_base(0.9)  # mean state diag(0.5, 0.5)
        rows = theorem7_demo(base, 0.15, [4, 8, 12, 16, 20])
        for row in rows:
            oracle = top_product_sum_oracle(
                (0.5, 0.5), row.n_blocks,
                ceiling_subspace_dim(row.rate_down, row.n_blocks, 2**row.n_blocks),
            )
            assert abs(row.ceiling - oracle) <= 1e-12

    def test_skewed_mean_state_oracle(self):
        base = Ensemble.from_lists([1.0], [diag_state(0.7, 0.3)])
        rows = theorem7_demo(base, 0.1, [4, 8])
        for row in rows:
            oracle = top_product_sum_oracle((0.7, 0.3), row.n_blocks, row.ceiling_dim)
            assert abs(row.ceiling - oracle) <= 1e-12

    def test_ceiling_strictly_decreasing(self):
        rows = theorem7_demo(two_coin_base(0.9), 0.15, [4, 8, 12, 16, 20])
        ceilings = [r.ceiling for r in rows]
        assert all(a > b for a, b in zip(ceilings, ceilings[1:]))
        assert ceilings[2] < 0.8

    def test_achieved_fidelity_above_patch_bounds(self):
        rows = theorem7_demo(two_coin_base(0.9), 0.15, [4, 8, 12])
        for row in rows:
            assert row.achieved >= 1 - 2 * row.eta_plus - 1e-9
            assert row.achieved >= (1 - row.eta_plus) ** 2 - 1e-9

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_non_finite_and_non_positive_delta(self, delta):
        with pytest.raises(DomainError, match="delta"):
            theorem7_demo(two_coin_base(0.9), delta, [4])

    def test_single_pure_state_ceiling_one(self):
        base = Ensemble.from_lists([1.0], [diag_state(1.0, 0.0)])
        rows = theorem7_demo(base, 0.25, [3, 6])
        for row in rows:
            assert row.rate_down == 0.0
            assert abs(row.ceiling - 1.0) <= 1e-12
            assert abs(row.achieved - 1.0) <= 1e-10

    def test_maximally_mixed_binomial_tail(self):
        # At 0.9 qubits/signal on a flat mean state the retained fraction is
        # ceil(2^(0.9 N)) / 2^N, which drops below one half from N = 12 on.
        base = Ensemble.from_lists([1.0], [maximally_mixed(2)])
        source = BlockSource.build(base, 12)
        ceiling, retained = lemma_a1_ceiling(source, 0.9)
        assert retained == math.ceil(2 ** (0.9 * 12))  # 1783
        assert abs(ceiling - retained / 4096) <= 1e-12
        assert ceiling < 0.5

    def test_monotone_tail_at_fixed_rate(self):
        base = two_coin_base(0.9)
        for n in (4, 6):
            c_n, _ = lemma_a1_ceiling(BlockSource.build(base, n), 0.8)
            c_2n, _ = lemma_a1_ceiling(BlockSource.build(base, 2 * n), 0.8)
            assert c_2n <= c_n + 1e-9

    def test_block_source_cap(self):
        # 2^23 weights exceed DIAGONAL_TABLE_BUDGET: the scheme and the ceiling
        # refuse together, before any d^N array is built.
        source = BlockSource.build(two_coin_base(), 23)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverflow, match="DIAGONAL_TABLE_BUDGET"):
                project_patch_scheme(source, 0.8)
            with pytest.raises(DimensionOverflow, match="DIAGONAL_TABLE_BUDGET"):
                lemma_a1_ceiling(source, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_projector_over_dim_cap_refused(self):
        scheme = project_patch_scheme(BlockSource.build(two_coin_base(), 13), 0.8)
        with pytest.raises(DimensionOverflow, match="DIM_CAP"):
            scheme.subspace.projector()

    @pytest.mark.parametrize("mode", ["exact", "mc", "auto"])
    def test_dense_block_over_dim_cap_refused_before_scoring(self, rng, mode):
        # D = 2^13 = 8192 > DIM_CAP: one dense string's 8 D^3 steps alone are
        # over WORK_BUDGET, so every dense path refuses before any string.
        base = Ensemble.from_lists([0.5, 0.5], [sampling.random_density(2, rng) for _ in range(2)])
        source = BlockSource.build(base, 13)
        scheme = project_patch_scheme(source, 0.8)
        with mock.patch.object(blocksim, "_score_string") as score:
            with pytest.raises(DimensionOverflow, match="x 4398046773248 steps exceeds WORK_BUDGET"):
                global_fidelity_score(source, scheme, mode=mode, n_samples=10)
            with pytest.raises(DimensionOverflow, match="x 4398046773248 steps exceeds WORK_BUDGET"):
                local_fidelity_score(source, scheme, mode=mode, n_samples=10)
        score.assert_not_called()

    def test_one_dense_string_at_dim_cap_over_the_work_budget(self, rng):
        # The dense path needs no DIM_CAP check of its own: one string at
        # D = DIM_CAP is over WORK_BUDGET, and so is one at DIM_CAP / 2.  The
        # largest qubit block that one sampled string may have is D = 1024.
        n = round(math.log2(qmat.DIM_CAP))
        for mode in ("mc", "auto"):
            for m in (n, n - 1):
                with pytest.raises(DimensionOverflow, match="work of 1 strings x .* WORK_BUDGET"):
                    blocksim.project_patch_plan(dense_pair(rng, n=m), mode, 1)
            assert blocksim.project_patch_plan(dense_pair(rng, n=n - 2), mode, 1) == (
                False, False, False)


@st.composite
def diagonal_sources(draw):
    """Diagonal ensembles from small integer weights, so ties and zeros are common."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    diags = []
    for _ in range(m):
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=d, max_size=d)), dtype=float)
        w[0] += w.sum() == 0
        diags.append(diag_state(*(w / w.sum())))
    priors = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=float)
    priors[0] += priors.sum() == 0
    source = BlockSource.build(Ensemble.from_lists(priors / priors.sum(), diags), n)
    rate = draw(st.one_of(st.just(0.0), st.just(math.log2(d)), st.floats(0.0, 2.0)))
    return source, rate


def _pinned(priors, diags, n: int, rate: float):
    base = Ensemble.from_lists(priors, [diag_state(*w) for w in diags])
    return BlockSource.build(base, n), rate


def untabled_plan():
    """Patch _plan so that nothing is tabled: the diagonal engine scores one string per call."""
    plan = blocksim._plan

    def untabled(*args):
        diagonal, _, exact, *counts = plan(*args)
        return diagonal, False, exact, *counts

    return mock.patch.object(blocksim, "_plan", untabled)


# Mirrored coins tie the mean diagonal; the middle state has a zero prior.
_TIED = ([0.5, 0.0, 0.5], [(0.75, 0.25), (1.0, 0.0), (0.25, 0.75)])


class TestDiagonalTablesOracle:
    """The diagonal engine against the dense per-string scorer."""

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(diagonal_sources(), st.booleans())
    @example(_pinned(*_TIED, 4, 0.0), False)
    @example(_pinned(*_TIED, 3, 1.0), False)
    @example(_pinned(*_TIED, 5, 0.5), True)
    @example(_pinned([0.3, 0.7], [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5)], 3, 0.9), False)
    def test_tables_match_per_string_scorer(self, source_rate, identity):
        source, rate = source_rate
        if identity:
            scheme = IdentityScheme(source.full_dim)
        else:
            scheme = project_patch_scheme(source, rate)
        assert_engine_matches_dense(source, scheme)

        kwargs = dict(n_samples=300, seed=5)
        fast = [score(source, scheme, mode=mode, **kwargs)
                for score in (global_fidelity_score, local_fidelity_score)
                for mode in ("exact", "mc")]
        with untabled_plan():
            slow = [score(source, scheme, mode=mode, **kwargs)
                    for score in (global_fidelity_score, local_fidelity_score)
                    for mode in ("exact", "mc")]
        for a, b in zip(fast, slow):
            assert (a.method, a.n_terms) == (b.method, b.n_terms)
            assert a.method in ("exact-diagonal", "monte-carlo")
            assert abs(a.value - b.value) <= 1e-12
            assert (a.stderr is None) == (b.stderr is None)
            if a.stderr is not None:
                assert abs(a.stderr - b.stderr) <= 1e-12

    def test_fixed_output_scheme_takes_dense_path(self, bell_state):
        base = Ensemble.from_lists([1.0], [maximally_mixed(2)])
        source = BlockSource.build(base, 2)
        score = global_fidelity_score(source, FixedOutputScheme(bell_state), mode="exact")
        assert score.method == "exact-dense"


def classical_string_oracle(source: BlockSource, scheme, string):
    """Global and local score of one string of a diagonal source, from its d^N diagonal.

    The output is the string's diagonal on the kept coordinates plus the tail
    at the patch coordinate; the global score is the classical fidelity of the
    two diagonals, the local one the product of the Bhattacharyya overlaps of
    each base diagonal with the output's normalised marginal there.
    """
    d, n = source.base.dim, source.n_blocks
    diags = [np.real(np.diagonal(source.base.states[i].matrix)) for i in string]
    sigma = reduce(np.kron, diags)
    kept = scheme.subspace.coordinates
    out = np.zeros_like(sigma)
    out[kept] = sigma[kept]
    out[kept[0]] += max(0.0, 1.0 - out.sum())
    g = min(1.0, np.sum(np.sqrt(sigma * out)) ** 2)
    cube = out.reshape((d,) * n)
    loc = 1.0
    for j, p in enumerate(diags):
        marg = cube.sum(axis=tuple(i for i in range(n) if i != j))
        loc *= min(1.0, np.sum(np.sqrt(p * marg / marg.sum())) ** 2)
    return g, loc


class TestOneStringDiagonalBound:
    """Diagonal sources scored one string at a time are bounded by their d^N mask."""

    def test_ten_state_source_past_dim_cap_scores_by_monte_carlo(self):
        # d^N = 8192 > DIM_CAP, but the engine's one-row calls build only the
        # 8192-element kept-set mask, inside DIAGONAL_TABLE_BUDGET.
        diags = [diag_state(a, 1 - a) for a in np.linspace(0.05, 0.95, 10)]
        source = BlockSource.build(Ensemble.from_lists(np.full(10, 0.1), diags), 13)
        scheme = project_patch_scheme(source, 0.8)
        n_samples, seed = 20, 3
        g = global_fidelity_score(source, scheme, mode="mc", n_samples=n_samples, seed=seed)
        loc = local_fidelity_score(source, scheme, mode="mc", n_samples=n_samples, seed=seed)
        picks = sampling.block_generator(seed, 0).choice(10, size=(n_samples, 13),
                                                         p=source.base.probs)
        want = np.array([classical_string_oracle(source, scheme, row) for row in picks])
        for score, column in ((g, want[:, 0]), (loc, want[:, 1])):
            assert score.method == "monte-carlo" and score.n_terms == n_samples
            assert abs(score.value - column.mean()) <= 1e-12
            assert abs(score.stderr - column.std(ddof=1) / math.sqrt(n_samples)) <= 1e-12

    def test_mask_over_budget_refused(self):
        # 2^23 mask elements exceed the budget: refused in every mode.
        source = BlockSource.build(two_coin_base(), 23)
        for mode in ("exact", "mc", "auto"):
            with pytest.raises(DimensionOverflow, match="kept-set mask"):
                blocksim.project_patch_plan(source, mode)


def kron_scheme_coordinates(source: BlockSource, rate: float) -> np.ndarray:
    """Kept coordinates as the scheme built them with reduce(np.kron, ...) weights."""
    rho = source.base.average()
    if all(s.is_diagonal for s in source.base.states):
        w = np.clip(np.real(np.diagonal(rho.matrix)), 0.0, None)
    else:
        w = eig_hermitian(rho).eigenvalues
    w = reduce(np.kron, [w] * source.n_blocks)
    k = scheme_subspace_dim(rate, source.n_blocks, source.full_dim)
    return np.argsort(-w, kind="stable")[:k]


class TestKronPowerVector:
    """The outer-product Kronecker power against reduce(np.kron, ...), bit for bit.

    The kept set's tie order depends on these exact bits, so equal values are
    not enough.
    """

    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5]),
                              st.floats(0.0, 1.0)), min_size=1, max_size=5),
           st.integers(1, 8))
    def test_bitwise_equal_to_reduce_kron(self, entries, n):
        v = np.array(entries)
        got = blocksim.kron_power_vector(v, n)
        want = reduce(np.kron, [v] * n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(diagonal_sources())
    def test_scheme_coordinates_unchanged(self, source_rate):
        source, rate = source_rate
        np.testing.assert_array_equal(project_patch_scheme(source, rate).subspace.coordinates,
                                      kron_scheme_coordinates(source, rate))

    def test_dense_scheme_coordinates_unchanged(self, rng):
        for d, n in ((2, 8), (3, 5), (4, 4)):
            base = Ensemble.from_lists([0.4, 0.6], [sampling.random_density(d, rng)
                                                    for _ in range(2)])
            source = BlockSource.build(base, n)
            for rate in (0.3, 0.8, 1.2):
                np.testing.assert_array_equal(
                    project_patch_scheme(source, rate).subspace.coordinates,
                    kron_scheme_coordinates(source, rate))


class TestLargeBlockScores:
    """Exact diagonal scores at large N, pinned to the values of the engine that
    opened s_j before contracting the later positions."""

    @pytest.mark.parametrize("n, global_fid, local_fid", [
        (16, 0.1730186581988517, 0.152325790139048),
        (18, 0.18795115792690695, 0.15309109702131316),
    ])
    def test_qubit_pair_at_rate_0_8(self, n, global_fid, local_fid):
        base = Ensemble.from_lists([0.3, 0.7], [diag_state(0.9, 0.1), diag_state(0.2, 0.8)])
        source = BlockSource.build(base, n)
        scheme = project_patch_scheme(source, 0.8)
        g = global_fidelity_score(source, scheme, mode="exact")
        loc = local_fidelity_score(source, scheme, mode="exact")
        assert g.method == loc.method == "exact-diagonal"
        assert abs(g.value - global_fid) <= 1e-12
        assert abs(loc.value - local_fid) <= 1e-12


def per_position_tables(factors, mask, x0):
    """Global and local tables of the per-position loop the balanced split replaced.

    For each j it contracts the later positions onto a running prefix with
    x_j left open, then scores position j on strided views.
    """
    step = blocksim._contract_step
    mass = reduce(step, factors, mask)
    sig0 = reduce(np.multiply.outer, [f[:, x] for f, x in zip(factors, x0)])
    tail = np.maximum(0.0, 1.0 - mass)
    g = np.minimum(1.0, (mass - sig0 + np.sqrt(sig0 * (sig0 + tail))) ** 2)
    n = len(factors)
    total = mass + tail
    local = np.ones_like(mass)
    prefix = mask
    for j, f in enumerate(factors):
        t = reduce(step, factors[j + 1:], np.moveaxis(prefix, 0, -1))
        root = np.sqrt(t)
        at_x0 = (slice(None),) * j + (slice(x0[j], x0[j] + 1),)
        t0, r0 = t[at_x0], root[at_x0]
        p0 = f[:, x0[j]].reshape((1,) * j + (len(f),) + (1,) * (n - j - 1))
        s = np.moveaxis(step(np.moveaxis(root, j, 0), f), -1, j)
        s -= p0 * r0
        s += np.sqrt(p0 * (p0 * t0 + tail))
        local *= np.minimum(1.0, s**2 / total)
        prefix = step(prefix, f)
    return g, local


@st.composite
def engine_inputs(draw):
    """Factors, kept-set mask and patch coordinate, for tables of at most 2^16 elements.

    Base diagonals come from small integer weights, so zero entries, f[s, x0]
    = 0 among them, are common; x0 is any coordinate, kept by the mask.
    """
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, max(k for k in range(1, 11) if m**k * d <= 2**16)))
    rows = []
    for _ in range(m):
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)), dtype=float)
        w[draw(st.integers(0, d - 1))] += w.sum() == 0
        rows.append(w / w.sum())
    P = np.array(rows)
    x0 = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    kept = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    mask = (np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((d,) * n)
            < kept).astype(float)
    mask[x0] = 1.0
    if draw(st.booleans()):
        factors = [P] * n
    else:
        factors = [P[s:s + 1] for s in draw(st.lists(st.integers(0, m - 1),
                                                      min_size=n, max_size=n))]
    return factors, mask, x0


# f[s, x0] = 0 in the first row, at every position.
_ZERO_AT_X0 = ([np.array([[0.0, 1.0], [0.5, 0.5]])] * 3,
               (np.arange(8).reshape(2, 2, 2) % 3 == 0).astype(float), (0, 0, 0))


class TestBalancedLeaveOneOut:
    """The diagonal engine's leave-one-out split against the per-position loop."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(engine_inputs())
    @example(_ZERO_AT_X0)
    def test_tables_match_per_position_loop(self, inputs):
        factors, mask, x0 = inputs
        g, loc = blocksim._diagonal_tables(factors, mask, x0, True)
        want_g, want_loc = per_position_tables(factors, mask, x0)
        assert g.tobytes() == want_g.tobytes()
        assert loc.shape == want_loc.shape
        assert np.max(np.abs(loc - want_loc)) <= 1e-12

    @pytest.mark.parametrize("n", [7, 12, 16])
    def test_contraction_steps_are_n_log_n(self, n):
        # N for the mass, at most N ceil(log2 N) for the split.
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        mask = np.zeros((2,) * n)
        mask.reshape(-1)[:2 ** (n - 2)] = 1.0
        calls = []
        with recording("_contract_step", calls):
            blocksim._diagonal_tables([P] * n, mask, (0,) * n, True)
        assert len(calls) <= n + n * math.ceil(math.log2(n))
        calls.clear()
        with recording("_contract_step", calls):
            blocksim._diagonal_tables([P] * n, mask, (0,) * n, False)
        assert len(calls) == n


def dense_pair(rng, d: int = 2, n: int = 4) -> BlockSource:
    base = Ensemble.from_lists([0.35, 0.65], [sampling.random_density(d, rng) for _ in range(2)])
    return BlockSource.build(base, n)


def drawn_strings(source: BlockSource, n_samples: int, seed: int) -> list[tuple[int, ...]]:
    """The Monte Carlo strings in sample order: block b of MC_BLOCK from stream (seed, b)."""
    rows = []
    for b in range(math.ceil(n_samples / blocksim.MC_BLOCK)):
        m = min(blocksim.MC_BLOCK, n_samples - b * blocksim.MC_BLOCK)
        rows += sampling.block_generator(seed, b).choice(
            len(source.base), size=(m, source.n_blocks), p=source.base.probs).tolist()
    return [tuple(r) for r in rows]


def per_sample_oracle(source: BlockSource, n_samples: int, seed: int, score):
    """(value, stderr) of the global and the local score, scoring every sample in order.

    This is the per-sample loop that scoring each distinct string once replaced.
    """
    scores = np.empty((n_samples, 2))
    for r, string in enumerate(drawn_strings(source, n_samples, seed)):
        scores[r] = score(string)
    return [(float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))) for x in scores.T]


def recording(target: str, calls: list):
    """Patch a blocksim function so every call records its arguments and goes through."""
    original = getattr(blocksim, target)

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    return mock.patch.object(blocksim, target, record)


class TestMonteCarloDistinctStrings:
    """Monte Carlo scores each distinct drawn string once, and equals the per-sample loop."""

    N_SAMPLES, SEED = 700, 5

    def _check(self, source, scheme, target, string_of, oracle_score):
        want = per_sample_oracle(source, self.N_SAMPLES, self.SEED, oracle_score)
        distinct = set(drawn_strings(source, self.N_SAMPLES, self.SEED))
        assert len(distinct) < self.N_SAMPLES
        for score, (value, stderr) in zip((global_fidelity_score, local_fidelity_score), want):
            calls = []
            with recording(target, calls):
                got = score(source, scheme, mode="mc", n_samples=self.N_SAMPLES, seed=self.SEED)
            scored = [string_of(args) for args in calls]
            assert len(scored) == len(distinct) and set(scored) == distinct
            assert (got.method, got.n_terms) == ("monte-carlo", self.N_SAMPLES)
            assert got.value == value and got.stderr == stderr

    def test_dense_path(self, rng):
        source = dense_pair(rng)
        scheme = project_patch_scheme(source, 0.6)
        framed = blocksim._in_frame(source, scheme.frame)
        self._check(source, scheme, "_score_string", lambda args: tuple(args[2]),
                    lambda s: blocksim._score_string(framed, scheme, s, True))

    def test_one_row_diagonal_path(self):
        source = BlockSource.build(two_coin_base(0.8), 5)
        scheme = project_patch_scheme(source, 0.6)
        P, _, _ = blocksim._diagonal_inputs(source, scheme)

        def string_of(args):
            rows = args[0]
            assert [len(f) for f in rows] == [1] * source.n_blocks
            return tuple(int(np.flatnonzero((P == f).all(axis=1))[0]) for f in rows)

        with untabled_plan():
            self._check(source, scheme, "_diagonal_tables", string_of,
                        lambda s: tuple(t.item() for t in engine_scores(source, scheme, s)))

    def test_non_commuting_source_is_worker_invariant(self, rng, monkeypatch):
        # Four sample blocks and four cores: workers=3 makes a pool of three.
        created = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                created.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(blocksim.os, "cpu_count", lambda: 4)
        source = dense_pair(rng, n=3)
        scheme = project_patch_scheme(source, 0.6)
        kwargs = dict(mode="mc", n_samples=4 * blocksim.MC_BLOCK, seed=9)
        for score in (global_fidelity_score, local_fidelity_score):
            serial = score(source, scheme, workers=1, **kwargs)
            threaded = score(source, scheme, workers=3, **kwargs)
            assert (serial.value, serial.stderr) == (threaded.value, threaded.stderr)
        assert created == [3, 3]


class TestMonteCarloDrawBound:
    """The n_samples x N picks are bounded by DIAGONAL_TABLE_BUDGET before any draw."""

    @pytest.mark.parametrize("dense", [True, False])
    def test_refused_over_the_budget_in_monte_carlo_only(self, rng, dense):
        n = 4
        source = dense_pair(rng, n=n) if dense else BlockSource.build(two_coin_base(), n)
        most = blocksim.DIAGONAL_TABLE_BUDGET // n
        assert blocksim.project_patch_plan(source, "mc", most)[2] is False
        with pytest.raises(DimensionOverflow, match="Monte Carlo draws"):
            blocksim.project_patch_plan(source, "mc", most + 1)
        # An exact sweep draws nothing: the sample count is not bounded there.
        for mode in ("exact", "auto"):
            assert blocksim.project_patch_plan(source, mode, most + 1)[2] is True

    def test_score_functions_refuse_before_drawing(self, rng):
        source = dense_pair(rng, n=3)
        scheme = project_patch_scheme(source, 0.6)
        with mock.patch.object(blocksim, "block_generator") as draw, \
                mock.patch.object(blocksim, "_score_string") as score_string:
            for score in (global_fidelity_score, local_fidelity_score):
                with pytest.raises(DimensionOverflow, match="Monte Carlo draws"):
                    score(source, scheme, mode="mc",
                          n_samples=blocksim.DIAGONAL_TABLE_BUDGET // 3 + 1)
        draw.assert_not_called()
        score_string.assert_not_called()


def per_marginal_local(framed: BlockSource, scheme, string) -> float:
    """Local score of one string from partial_trace and fidelity, one marginal at a time."""
    d, n = framed.base.dim, framed.n_blocks
    states = [framed.base.states[i] for i in string]
    out = scheme.apply(DensityOperator._wrap(reduce(np.kron, [s.matrix for s in states])))
    return math.prod(fidelity(s, partial_trace(out, [d] * n, keep=j))
                     for j, s in enumerate(states))


class TestStackedLocalStep:
    """The (N, d, d) stacked local step against the per-marginal oracle."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("pure", [False, True])
    def test_matches_per_marginal_oracle(self, rng, d, n, pure):
        for rate in (0.0, 0.5, 1.0):
            if pure:
                states = [sampling.random_pure_state(d, rng).projector() for _ in range(2)]
            else:
                states = [sampling.random_density(d, rng) for _ in range(2)]
            source = BlockSource.build(Ensemble.from_lists([0.4, 0.6], states), n)
            scheme = project_patch_scheme(source, rate)
            framed = blocksim._in_frame(source, scheme.frame)
            base_eig = framed.base._eigenpairs()
            for string in itertools.product(range(2), repeat=n):
                _, loc = blocksim._score_string(framed, scheme, string, True, base_eig)
                assert abs(loc - per_marginal_local(framed, scheme, string)) <= 1e-12

    def test_bell_output(self, rng, bell_state):
        scheme = FixedOutputScheme(bell_state)
        for states in ([maximally_mixed(2)],
                       [sampling.random_density(2, rng) for _ in range(2)]):
            base = Ensemble.from_lists(np.full(len(states), 1 / len(states)), states)
            source = BlockSource.build(base, 2)
            for string in itertools.product(range(len(states)), repeat=2):
                _, loc = blocksim._score_string(source, scheme, string, True)
                assert abs(loc - per_marginal_local(source, scheme, string)) <= 1e-12
        # Demo 04: perfect marginals from an entangled output.
        source = BlockSource.build(Ensemble.from_lists([1.0], [maximally_mixed(2)]), 2)
        assert abs(local_fidelity_score(source, scheme, mode="exact").value - 1.0) <= 1e-12

    @pytest.mark.parametrize("d, n", [(1, 3), (2, 1), (2, 5), (3, 4)])
    def test_string_state_bitwise_equal_to_reduce_kron(self, rng, d, n):
        # A string state is qmat.kron of its matrices; vectors and unequal factors too.
        mats = [sampling.random_density(d, rng).matrix for _ in range(n)]
        vecs = [rng.standard_normal(d + j) + 1j * rng.standard_normal(d + j) for j in range(n)]
        uneven = [sampling.random_density(d + j, rng).matrix for j in range(n)]
        for factors in (mats, vecs, uneven):
            got, want = qmat.kron(factors), reduce(np.kron, factors)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 4), (3, 3)])
    def test_marginals_bitwise_equal_to_partial_trace(self, rng, d, n):
        # Equal and unequal factors; partial_trace is one of the marginals.
        for dims in ((d,) * n, tuple(range(d, d + n))):
            out = sampling.random_density(math.prod(dims), rng)
            got = qmat._marginals(out.matrix, dims)
            assert len(got) == n
            for j, marginal in enumerate(got):
                want = trace_all_but(out.matrix, dims, j)
                assert marginal.shape == want.shape and marginal.tobytes() == want.tobytes()
                assert partial_trace(out, dims, keep=j).matrix.tobytes() == want.tobytes()


def trace_all_but(m: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """One marginal: trace out every other factor, last first, one np.trace at a time."""
    n = len(dims)
    t = m.reshape(dims + dims)
    for i in reversed([j for j in range(n) if j != keep]):
        t = np.trace(t, axis1=i, axis2=t.ndim // 2 + i)
    return t


def per_string_sweep(source: BlockSource, scheme, score) -> tuple[float, float, int]:
    """(global, local, strings) of an exact sweep, summed one string at a time in order.

    This is the per-string loop that the shared distinct-string scorer replaced.
    """
    total_g = total_l = 0.0
    count = 0
    for string in itertools.product(range(len(source.base)), repeat=source.n_blocks):
        p = source.string_prob(string)
        if p == 0.0:
            continue
        g, loc = score(string)
        total_g += p * g
        total_l += p * loc
        count += 1
    return total_g, total_l, count


class TestExactSweep:
    """Exact sweeps one string at a time share the Monte Carlo distinct-string scorer, bit for bit."""

    def _sources(self, rng):
        # A zero prior: its strings are skipped, as the loop skips them.
        dense = BlockSource.build(Ensemble.from_lists(
            [0.35, 0.0, 0.65], [sampling.random_density(2, rng) for _ in range(3)]), 4)
        probs, diags = _TIED
        diags = [diag_state(*x) for x in diags]
        diagonal = BlockSource.build(Ensemble.from_lists(probs, diags), 5)
        return [(dense, "exact-dense"), (diagonal, "exact-diagonal")]

    @staticmethod
    def _score(source, scheme, method):
        """One string's (global, local) from the per-string code of the path."""
        if method == "exact-diagonal":
            return lambda s: tuple(t.item() for t in engine_scores(source, scheme, s))
        framed = blocksim._in_frame(source, scheme.frame)
        base_eig = framed.base._eigenpairs()
        return lambda s: blocksim._score_string(framed, scheme, s, True, base_eig)

    def test_equals_per_string_loop(self, rng):
        for source, method in self._sources(rng):
            for rate in (0.3, 0.6):
                scheme = project_patch_scheme(source, rate)
                oracle = self._score(source, scheme, method)
                g, loc, count = per_string_sweep(source, scheme, oracle)
                with untabled_plan():
                    got = [score(source, scheme, mode="exact")
                           for score in (global_fidelity_score, local_fidelity_score)]
                for result, want in zip(got, (g, loc)):
                    assert (result.method, result.n_terms) == (method, count)
                    assert result.value == min(1.0, max(0.0, want))

    def test_more_than_1024_cheap_strings_swept_exactly(self, rng):
        # 11 dense qubit states at N = 3: 1331 strings at D = 8, well inside
        # WORK_BUDGET, so auto sweeps them all exactly.
        probs = rng.uniform(0.2, 1.0, 11)
        base = Ensemble.from_lists(probs / probs.sum(),
                                   [sampling.random_density(2, rng) for _ in range(11)])
        source = BlockSource.build(base, 3)
        scheme = project_patch_scheme(source, 0.6)
        g, loc, count = per_string_sweep(source, scheme,
                                         self._score(source, scheme, "exact-dense"))
        assert count == 1331
        for score, want in ((global_fidelity_score, g), (local_fidelity_score, loc)):
            result = score(source, scheme)
            assert (result.method, result.n_terms) == ("exact-dense", count)
            assert result.value == min(1.0, max(0.0, want))

    def test_workers_give_equal_scores_and_a_pool(self, rng, monkeypatch):
        created = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                created.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(blocksim.os, "cpu_count", lambda: 2)
        source, _ = self._sources(rng)[0]
        scheme = project_patch_scheme(source, 0.6)
        for score in (global_fidelity_score, local_fidelity_score):
            serial = score(source, scheme, mode="exact", workers=1)
            threaded = score(source, scheme, mode="exact", workers=2)
            assert serial == threaded and serial.method == "exact-dense"
        assert created == [2, 2]
