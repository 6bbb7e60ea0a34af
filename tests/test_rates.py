import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import qmat, sampling
from mixcomp.classical import CoinSource, xi_rate
from mixcomp.errors import DomainError, TauMismatch, ValidationError
from mixcomp.measures import Ensemble, entropy_of_spectrum, holevo, shannon_entropy, vn_entropy
from mixcomp.purify import (
    _purification_spectrum,
    photographic_negative_ensemble,
    photographic_negative_report,
    upsilon_rate,
)
from mixcomp.qmat import maximally_mixed
from mixcomp.rates import (
    BlockDiagonalEnsemble,
    RateEntry,
    RateReport,
    _detect_block_split,
    _zero_block_splits,
    example11_rate,
    lower_bound_rate,
    rate_report,
    upper_bound_rate,
)
from mixcomp.tolerance import STRUCTURE_TOL

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
        # 3 states, d = 4: only the 2 + 2 split is recognised.  At most its six
        # sigma and tau blocks are validated, and its entry is Example 11's closed
        # form on the blocks cut from the validated states, bit for bit.
        eps, tau = 0.4, sampling.random_density(2, rng)
        states = []
        for _ in range(3):
            full = np.zeros((4, 4), dtype=complex)
            full[:2, :2] = eps * sampling.random_density(2, rng).matrix
            full[2:, 2:] = (1 - eps) * tau.matrix
            states.append(full)
        ens = Ensemble.from_lists([0.2, 0.3, 0.5], states)
        traces = [float(np.real(np.trace(s.matrix[:2, :2]))) for s in ens.states]
        closed = example11_rate(BlockDiagonalEnsemble.build(
            traces[0], ens.probs, [s.matrix[:2, :2] / w for s, w in zip(ens.states, traces)],
            [s.matrix[2:, 2:] / (1 - w) for s, w in zip(ens.states, traces)])).scheme_rate
        built = []
        original_build = qmat.DensityOperator.from_matrix.__func__
        monkeypatch.setattr(qmat.DensityOperator, "from_matrix", classmethod(
            lambda cls, *a, **k: built.append(1) or original_build(cls, *a, **k)))
        rates = {e.name: e.rate for e in rate_report(ens).entries}
        assert rates["block-diagonal scheme (shared tau)"] == closed
        assert len(built) <= 6

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


# The recognisers as they stood before they became gates on the stack: the
# block-split search built each candidate and let Example 11's checks reject
# it, and the hole test walked the states one at a time.  Kept as oracles.
BLOCK = "block-diagonal scheme (shared tau)"
HOLE = "photographic-negative purification mixture"
# Deviations on both sides of STRUCTURE_TOL (1e-8), and far from it.
DEVIATIONS = (0.0, 5e-10, 5e-9, 2e-8, 1e-3)


def searched_block_rate(ensemble: Ensemble) -> float | None:
    best = None
    mats = np.stack([s.matrix for s in ensemble.states])
    for m in range(1, ensemble.dim):
        if not STRUCTURE_TOL.admits(np.abs(mats[:, :m, m:])):
            continue
        eps_each = np.real(np.trace(mats[:, :m, :m], axis1=-2, axis2=-1))
        eps = float(eps_each[0])
        if not (STRUCTURE_TOL < eps < 1.0 - STRUCTURE_TOL):
            continue
        if not STRUCTURE_TOL.admits(np.abs(eps_each - eps)):
            continue
        w = eps_each[:, None, None]
        sigma = [qmat.DensityOperator._wrap(b) for b in mats[:, :m, :m] / w]
        tau = [qmat.DensityOperator._wrap(b) for b in mats[:, m:, m:] / (1.0 - w)]
        try:
            block = BlockDiagonalEnsemble.build(eps, ensemble.probs.copy(), sigma, tau)
            rate = searched_example11_rate(block)
        except (TauMismatch, ValidationError, DomainError):
            continue
        if best is None or rate < best:
            best = rate
    return best


def searched_example11_rate(block: BlockDiagonalEnsemble) -> float:
    tau0 = block.tau_states[0].matrix
    for i, t in enumerate(block.tau_states[1:], start=1):
        if not STRUCTURE_TOL.admits(float(np.max(np.abs(t.matrix - tau0)))):
            raise TauMismatch(f"state {i}")
    eps = block.epsilon
    sigma_bar = Ensemble.from_lists(block.probs.copy(), block.sigma_states).average()
    tau_bar = Ensemble.from_lists(block.probs.copy(), block.tau_states).average()
    h_split = shannon_entropy([eps, 1.0 - eps])
    s_sigma = vn_entropy(sigma_bar)
    s_tau = vn_entropy(tau_bar)
    s_rho_bar = vn_entropy(qmat.DensityOperator._wrap(block._full(sigma_bar, tau_bar)))
    if not STRUCTURE_TOL.admits(abs(s_rho_bar - (h_split + eps * s_sigma + (1.0 - eps) * s_tau))):
        raise ValidationError("decomposition")
    return h_split + eps * s_sigma


def walked_hole_pattern(ensemble: Ensemble) -> bool:
    d = ensemble.dim
    if len(ensemble) != d or d < 3:
        return False
    if not STRUCTURE_TOL.admits(np.abs(ensemble.probs - 1.0 / d)):
        return False
    seen = set()
    for s in ensemble.states:
        if not s.is_diagonal:
            return False
        diag = np.real(np.diagonal(s.matrix))
        holes = np.flatnonzero(np.abs(diag) <= STRUCTURE_TOL)
        if holes.size != 1:
            return False
        i = int(holes[0])
        expected = np.full(d, 1.0 / (d - 1))
        expected[i] = 0.0
        if not STRUCTURE_TOL.admits(np.abs(diag - expected)):
            return False
        seen.add(i)
    return len(seen) == d


@st.composite
def block_candidates(draw) -> Ensemble:
    """diag(eps_i sigma_i, (1 - eps_i) tau_i), with tau_i and eps_i off by a deviation each."""
    a, b, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = sampling.generator(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.one_of(st.floats(0.05, 0.95), st.sampled_from([5e-9, 2e-8, 1.0 - 2e-8])))
    tau_shift, eps_spread = draw(st.sampled_from(DEVIATIONS)), draw(st.sampled_from(DEVIATIONS))
    tau = sampling.random_density(b, rng).matrix
    states = []
    for i in range(k):
        e = min(eps + eps_spread * (i % 2), 1.0)
        t = (1.0 - tau_shift) * tau + tau_shift * sampling.random_density(b, rng).matrix
        full = np.zeros((a + b, a + b), dtype=complex)
        full[:a, :a] = e * sampling.random_density(a, rng).matrix
        full[a:, a:] = (1.0 - e) * (tau if i == 0 else t)
        states.append(full)
    if draw(st.booleans()):
        u = sampling.random_unitary(a + b, rng)
        states = [u @ s @ u.conj().T for s in states]
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    return Ensemble.from_lists(weights / weights.sum(), states)


@st.composite
def hole_candidates(draw) -> Ensemble:
    """The hole pattern in any order, broken by at most one defect of each kind."""
    d = draw(st.integers(3, 7))
    holes = list(draw(st.permutations(range(d))))
    if draw(st.booleans()):
        holes[1] = holes[0]
    diags = np.full((d, d), 1.0 / (d - 1))
    diags[np.arange(d), holes] = 0.0
    # Move mass between two entries of one state: off-uniform, or into its hole.
    shift, row = draw(st.sampled_from(DEVIATIONS)), draw(st.integers(0, d - 1))
    dst = holes[row] if draw(st.booleans()) else (holes[row] + 2) % d
    diags[row, (holes[row] + 1) % d] -= shift
    diags[row, dst] += shift
    states = [np.diag(x).astype(complex) for x in diags]
    # An off-diagonal pair below, or above, the one diagonal threshold.
    coherence = draw(st.sampled_from([0.0, 1e-13, 1e-6]))
    i, j = (holes[0] + 1) % d, (holes[0] + 2) % d
    states[0][i, j] = states[0][j, i] = coherence
    probs = np.full(d, 1.0 / d)
    skew = draw(st.sampled_from(DEVIATIONS))
    probs[0] += skew
    probs[1] -= skew
    return Ensemble.from_lists(probs, states)


def report_rate(ensemble: Ensemble, name: str) -> float | None:
    return {e.name: e.rate for e in rate_report(ensemble).entries}.get(name)


class TestRecognisersAgainstTheOldSearch:
    """Each gate fires exactly where the old code did, with the same rate bit for bit."""

    def test_block_split_gate(self):
        seen = set()

        @settings(max_examples=200)
        @given(block_candidates())
        def check(ens):
            want = searched_block_rate(ens)
            assert repr(report_rate(ens, BLOCK)) == repr(want)
            seen.add(want is not None)

        check()
        assert seen == {True, False}

    def test_hole_pattern_gate(self):
        seen = set()

        @settings(max_examples=200)
        @given(hole_candidates())
        def check(ens):
            want = (entropy_of_spectrum(_purification_spectrum(ens))
                    if walked_hole_pattern(ens) else None)
            assert repr(report_rate(ens, HOLE)) == repr(want)
            seen.add(want is not None)

        check()
        assert seen == {True, False}


def sliced_block_search(ensemble: Ensemble) -> tuple[list[int], float | None]:
    """The block-split search with a slice |rho_i[:k, k:]| per split index, as it stood
    before the zero-pattern pass: the split indices it admits, and its rate."""
    mats = np.stack([s.matrix for s in ensemble.states])
    admitted, best = [], None
    for m in range(1, ensemble.dim):
        if not STRUCTURE_TOL.admits(np.abs(mats[:, :m, m:])):
            continue
        admitted.append(m)
        eps_each = np.real(np.trace(mats[:, :m, :m], axis1=-2, axis2=-1))
        eps = float(eps_each[0])
        if not (STRUCTURE_TOL < eps < 1.0 - STRUCTURE_TOL
                and STRUCTURE_TOL.admits(np.abs(eps_each - eps))):
            continue
        w = eps_each[:, None, None]
        tau = mats[:, m:, m:] / (1.0 - w)
        if not STRUCTURE_TOL.admits(np.abs(tau[1:] - tau[0])):
            continue
        sigma = Ensemble._of(ensemble.probs, mats[:, :m, :m] / w)
        rate = shannon_entropy([eps, 1.0 - eps]) + eps * vn_entropy(sigma.average())
        if best is None or rate < best:
            best = rate
    return admitted, best


@st.composite
def split_candidates(draw) -> Ensemble:
    """Block-diagonal states at one or several cuts (1 x 1 blocks at every cut: diagonal).

    Shared blocks after the first pass the trace and tau gates.  One entry
    across two blocks may sit at 1/2 or 2 times STRUCTURE_TOL, and the basis
    may be permuted or rotated by a random unitary (generic states).
    """
    d, k = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    rng = sampling.generator(draw(st.integers(0, 2**32 - 1)))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=1)))
    edges = [0, *cuts, d]
    sizes = np.diff(edges)
    shared = draw(st.booleans())
    common = ([sampling.random_density(int(b), rng).matrix for b in sizes],
              sampling.random_prob_vector(len(sizes), rng))
    states = []
    for i in range(k):
        blocks, weights = ([sampling.random_density(int(b), rng).matrix for b in sizes],
                           sampling.random_prob_vector(len(sizes), rng))
        if shared:
            blocks, weights = blocks[:1] + common[0][1:], common[1]
        full = np.zeros((d, d), dtype=complex)
        for a, b, block, w in zip(edges, edges[1:], blocks, weights):
            full[a:b, a:b] = w * block
        states.append(full)
    scale = draw(st.sampled_from([None, 0.5, 2.0]))
    if scale is not None:
        row, col = draw(st.integers(0, cuts[0] - 1)), draw(st.integers(cuts[0], d - 1))
        member = draw(st.integers(0, k - 1))
        states[member][row, col] = states[member][col, row] = scale * STRUCTURE_TOL
    basis = draw(st.sampled_from(["computational", "permuted", "generic"]))
    if basis == "permuted":
        order = list(draw(st.permutations(range(d))))
        states = [s[np.ix_(order, order)] for s in states]
    elif basis == "generic":
        u = sampling.random_unitary(d, rng)
        states = [u @ s @ u.conj().T for s in states]
    return Ensemble.from_lists(sampling.random_prob_vector(k, rng), states)


def test_zero_pattern_search_admits_the_sliced_splits():
    # The admitted splits and the rate equal the sliced search's; no split,
    # splits without a rate, and a rate all occur.
    seen = set()

    @settings(max_examples=300)
    @given(split_candidates())
    def check(ens):
        admitted, want = sliced_block_search(ens)
        members = ens.matrices
        assert _zero_block_splits(members).tolist() == admitted
        assert repr(_detect_block_split(members, ens.probs)) == repr(want)
        assert repr(report_rate(ens, BLOCK)) == repr(want)
        seen.add((bool(admitted), want is not None))

    check()
    assert seen == {(False, False), (True, False), (True, True)}
