import itertools
import math
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mixcomp import blocksim, sampling
from mixcomp.blocksim import (
    BlockSource,
    FixedOutputScheme,
    IdentityScheme,
    ceiling_subspace_dim,
    fidelity_subspace_upper_bound,
    global_fidelity_score,
    lemma_a1_ceiling,
    local_fidelity_score,
    project_and_patch,
    project_patch_scheme,
    scheme_subspace_dim,
    theorem7_demo,
    typical_subspace,
    typical_subspace_from_weights,
)
from mixcomp.errors import DimensionMismatch, DimensionOverflow, DomainError
from mixcomp.measures import Ensemble, fidelity, vn_entropy
from mixcomp.qmat import eig_hermitian, maximally_mixed, partial_trace

from conftest import diag_state


def two_coin_base(a=0.9) -> Ensemble:
    return Ensemble.from_lists(
        [0.5, 0.5], [diag_state(a, 1 - a), diag_state(1 - a, a)]
    )


def top_product_sum_oracle(mu, n, retained) -> float:
    """Independent ceiling oracle: class enumeration with binomial counts (d = 2)."""
    p, q = mu
    classes = sorted(
        ((p**a) * (q ** (n - a)), math.comb(n, a)) for a in range(n + 1)
    )[::-1]
    total, left = 0.0, retained
    for value, count in classes:
        take = min(count, left)
        total += take * value
        left -= take
        if left == 0:
            break
    return total


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
        assert abs(fidelity_subspace_upper_bound(rho, 4) - 1.0) <= 1e-10

    def test_flat_spectrum(self):
        assert abs(fidelity_subspace_upper_bound(maximally_mixed(4), 1) - 0.25) <= 1e-12

    def test_random_supported_states(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 9))
            rho = sampling.random_density(d, rng)
            k = int(rng.integers(1, d + 1))
            basis = sampling.random_subspace(d, k, rng)
            supported = sampling.random_state_on_subspace(basis, rng)
            assert fidelity(rho, supported) <= fidelity_subspace_upper_bound(rho, k) + 1e-8


class TestScores:
    def test_identity_scheme(self):
        source = BlockSource.build(two_coin_base(), 6)
        assert abs(global_fidelity_score(source, IdentityScheme(source.full_dim)).value - 1.0) <= 1e-12
        assert abs(local_fidelity_score(source, IdentityScheme(source.full_dim)).value - 1.0) <= 1e-12

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
            global_fidelity_score(source, scheme, mode="exact", exact_cap=1000)

    def test_exact_mode_rejects_diagonal_sweep_over_budget(self):
        # 10^12 strings: the tables would need 2 * 10^12 elements, so the
        # request must fail before any sweep starts.
        diags = [diag_state(a, 1 - a) for a in np.linspace(0.05, 0.95, 10)]
        base = Ensemble.from_lists(np.full(10, 0.1), diags)
        source = BlockSource.build(base, 12)
        scheme = project_patch_scheme(source, 0.8)
        with pytest.raises(DimensionOverflow, match="budget"):
            global_fidelity_score(source, scheme, mode="exact")
        with mock.patch.object(blocksim, "_diagonal_tables") as tables:
            mc = global_fidelity_score(source, scheme, n_samples=200, seed=1)
        tables.assert_not_called()
        assert mc.method == "monte-carlo" and mc.n_terms == 200

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
        [(10_000, 3, 1500, 3), (1000, 64, 300, 2), (8, None, 1500, None), (4, 8, 256, None)],
    )
    def test_monte_carlo_worker_clamp(self, monkeypatch, workers, cpus, n_samples, expected):
        # Pool size is min(workers, cores, sample blocks); no pool below two.
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

        monkeypatch.setattr(blocksim, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(blocksim.os, "cpu_count", lambda: cpus)
        source = BlockSource.build(two_coin_base(0.85), 6)
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
    eta = float(max(0.0, 1.0 - w[order].sum()))
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


def _program_per_string(source: BlockSource, scheme):
    framed = blocksim._in_frame(source, scheme)
    diagonal = blocksim._diagonal_path_available(framed, scheme)
    return diagonal, {
        string: blocksim._score_string(framed, scheme, string, diagonal, True)
        for string in itertools.product(range(len(source.base)), repeat=source.n_blocks)
    }


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


class TestTheorem7Demo:
    def test_ceiling_sequence_matches_binomial_oracle(self):
        base = two_coin_base(0.9)  # mean state diag(0.5, 0.5)
        rows = theorem7_demo(base, 0.15, [4, 8, 12])
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
        rows = theorem7_demo(two_coin_base(0.9), 0.15, [4, 8, 12])
        ceilings = [r.ceiling for r in rows]
        assert ceilings[0] > ceilings[1] > ceilings[2]
        assert ceilings[2] < 0.8

    def test_achieved_fidelity_above_patch_bounds(self):
        rows = theorem7_demo(two_coin_base(0.9), 0.15, [4, 8, 12])
        for row in rows:
            assert row.achieved >= 1 - 2 * row.eta_plus - 1e-9
            assert row.achieved >= (1 - row.eta_plus) ** 2 - 1e-9

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
        with pytest.raises(DimensionOverflow):
            BlockSource.build(two_coin_base(), 13)


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


# Mirrored coins tie the mean diagonal; the middle state has a zero prior.
_TIED = ([0.5, 0.0, 0.5], [(0.75, 0.25), (1.0, 0.0), (0.25, 0.75)])


class TestDiagonalTablesOracle:
    """The vectorised diagonal tables against the per-string scorer they replace."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
        assert blocksim._diagonal_path_available(source, scheme)
        g_table, l_table = blocksim._diagonal_tables(source, scheme, want_local=True)
        for string in itertools.product(range(len(source.base)), repeat=source.n_blocks):
            g, loc = blocksim._score_string(source, scheme, string, True, True)
            assert abs(g_table[string] - g) <= 1e-12
            assert abs(l_table[string] - loc) <= 1e-12

        kwargs = dict(n_samples=300, seed=5)
        fast = [score(source, scheme, mode=mode, **kwargs)
                for score in (global_fidelity_score, local_fidelity_score)
                for mode in ("exact", "mc")]
        # A zero budget sends every call through the per-string loop.
        with mock.patch.object(blocksim, "DIAGONAL_TABLE_BUDGET", 0):
            slow = [score(source, scheme, mode=mode, **kwargs)
                    for score in (global_fidelity_score, local_fidelity_score)
                    for mode in ("exact", "mc")]
        for a, b in zip(fast, slow):
            assert (a.method, a.n_terms) == (b.method, b.n_terms)
            assert abs(a.value - b.value) <= 1e-12
            assert (a.stderr is None) == (b.stderr is None)
            if a.stderr is not None:
                assert abs(a.stderr - b.stderr) <= 1e-12

    def test_fixed_output_scheme_takes_dense_path(self, bell_state):
        base = Ensemble.from_lists([1.0], [maximally_mixed(2)])
        source = BlockSource.build(base, 2)
        assert not blocksim._diagonal_path_available(source, FixedOutputScheme(bell_state))
