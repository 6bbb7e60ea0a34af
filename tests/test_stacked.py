"""Stacked ensemble measures against their per-state definitions.

Each ensemble-level measure solves all of an ensemble's states as one
(m, d, d) stack.  The oracles here are the per-state versions: a sum of
pairwise fidelities, entropies from one ``eig_hermitian`` per state, and
overlaps from one ``matrix_sqrt_psd`` per state.  The solver-count tests pin
the stacking itself by counting ``np.linalg.eigh`` and ``eigvalsh`` calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling
from mixcomp.blocksim import power_spectrum_top_sum, project_and_patch, typical_subspace
from mixcomp.measures import (
    Ensemble,
    avg_ensemble_fidelity,
    avg_entropy_continuity_bound,
    fidelity,
    holevo,
    holevo_continuity_bound,
    vn_entropy,
)
from mixcomp.purify import (
    _root_overlaps,
    canonical_overlap,
    canonical_purification,
    photographic_negative_ensemble,
)
from mixcomp.qmat import DensityOperator, _stack, eig_hermitian, is_diagonal, matrix_sqrt_psd
from mixcomp.rates import rate_report
from mixcomp.tolerance import DIAGONAL_TOL, LOG_FLOOR, STRUCTURE_TOL, max_abs

from conftest import diag_state

AGREE = 1e-12
LEVELS = (0.0, 0.1, 0.25, 0.5, 1.0)


@st.composite
def members(draw, dim: int) -> DensityOperator:
    """A diagonal, pure or mixed member; mixed spectra drawn from LEVELS are often rank-deficient."""
    kind = draw(st.sampled_from(("diagonal", "pure", "mixed")))
    rng = sampling.generator(draw(st.integers(0, 2**32 - 1)))
    if kind == "pure":
        return sampling.random_pure_state(dim, rng).projector()
    spectrum = np.array(draw(st.lists(st.sampled_from(LEVELS), min_size=dim, max_size=dim)))
    if spectrum.sum() == 0.0:
        spectrum[0] = 1.0
    m = np.diag(spectrum / spectrum.sum()).astype(complex)
    if kind == "mixed":
        u = sampling.random_unitary(dim, rng)
        m = u @ m @ u.conj().T
    return DensityOperator.from_matrix(m)


@st.composite
def ensemble_pairs(draw) -> tuple[Ensemble, Ensemble]:
    """Two ensembles with d <= 6 and m <= 5 sharing one prior."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.sampled_from(LEVELS[1:]), min_size=n, max_size=n)))
    probs = weights / weights.sum()
    return tuple(Ensemble.from_lists(probs, [draw(members(dim)) for _ in range(n)])
                 for _ in range(2))


def entropy_oracle(rho) -> float:
    """S(rho) from one eig_hermitian solve, as the per-state code computed it."""
    v = eig_hermitian(rho).eigenvalues
    v = v[v > LOG_FLOOR]
    return float(-np.sum(v * np.log2(v))) + 0.0 if v.size else 0.0


@settings(max_examples=80)
@given(ensemble_pairs())
def test_avg_ensemble_fidelity_equals_the_sum_of_pairwise_fidelities(pair):
    a, b = pair
    oracle = sum(p * fidelity(r, s) for p, r, s in zip(a.probs, a.states, b.states))
    assert abs(avg_ensemble_fidelity(a, b) - oracle) <= AGREE
    assert abs(holevo_continuity_bound(a, b).avg_fidelity - oracle) <= AGREE


@settings(max_examples=80)
@given(ensemble_pairs())
def test_holevo_and_the_report_bracket_equal_per_state_entropies(pair):
    ensemble = pair[0]
    s_bar = entropy_oracle(ensemble.average())
    chi = max(0.0, s_bar - sum(p * entropy_oracle(s)
                               for p, s in zip(ensemble.probs, ensemble.states)))
    assert abs(holevo(ensemble) - chi) <= AGREE
    rates = {e.name: e.rate for e in rate_report(ensemble).entries}
    assert abs(rates["mean-state entropy S"] - s_bar) <= AGREE
    assert abs(rates["Holevo quantity chi"] - chi) <= AGREE
    for s in ensemble.states:
        assert abs(vn_entropy(s) - entropy_oracle(s)) <= AGREE


@settings(max_examples=80)
@given(ensemble_pairs())
def test_root_overlaps_equal_per_state_square_roots(pair):
    states = pair[0].states
    roots = [matrix_sqrt_psd(s) for s in states]
    oracle = np.array([[np.real(np.trace(x @ y)) for y in roots] for x in roots])
    assert max_abs(_root_overlaps(*_stack(states)) - oracle) <= AGREE


def admits_oracle(tol, defect) -> bool:
    """Tolerance.admits as it was first written: one array comparison for every defect."""
    return bool(np.all(np.asarray(defect) <= tol))


SPECIAL = (0.0, -0.0, 1e-8, 1.0000000000000002e-8, 2e-8, -1.0, math.nan, math.inf, -math.inf)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
DEFECTS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    FLOATS.map(np.array),
    st.integers(-3, 3),
    st.lists(FLOATS, max_size=4),
    st.lists(FLOATS, max_size=6).map(np.array),
    st.lists(FLOATS, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)),
)


@settings(max_examples=300)
@given(DEFECTS)
def test_admits_equals_the_array_comparison(defect):
    assert STRUCTURE_TOL.admits(defect) is admits_oracle(STRUCTURE_TOL, defect)


def is_diagonal_oracle(m) -> bool:
    """The diagonal test as it was first written: m - diag(diag(m)), which NaN or inf fails."""
    with np.errstate(invalid="ignore"):
        return DIAGONAL_TOL.admits(max_abs(m - np.diag(np.diagonal(m))))


ENTRIES = st.sampled_from((0.0, 1e-13, -1e-12, 1e-12, 1.0000000000000002e-12, 2e-12, 0.5, 1.0,
                           1e-13j, 2e-12j, 1.0 + 1e-12j, math.nan, math.inf, -math.inf,
                           complex(math.nan, 0.0), complex(0.0, math.inf), 1e308))


@st.composite
def square_matrices(draw) -> np.ndarray:
    d = draw(st.integers(0, 5))
    dtype = draw(st.sampled_from((complex, float)))
    m = np.diag(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))).astype(dtype)
    for _ in range(draw(st.integers(0, 3)) if d else 0):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        v = draw(ENTRIES)
        m[i, j] = v if dtype is complex else np.real(v)
    layout = draw(st.sampled_from(("c", "transpose", "reversed")))
    return {"c": m, "transpose": m.T, "reversed": m[::-1, ::-1]}[layout]


@settings(max_examples=400)
@given(square_matrices())
def test_is_diagonal_equals_the_subtraction_formula(m):
    assert is_diagonal(m) is is_diagonal_oracle(m)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1), (1, 0)])
def test_is_diagonal_fails_on_any_non_finite_entry(bad, where):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[where] = bad
    assert not is_diagonal(m) and not is_diagonal_oracle(m)


class SolverCounter:
    """Counts np.linalg.eigh and eigvalsh calls and keeps their inputs."""

    def __init__(self, monkeypatch):
        self.calls = {"eigh": 0, "eigvalsh": 0}
        self.inputs = []
        for name in self.calls:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def counted(a, *args, **kwargs):
            self.calls[name] += 1
            self.inputs.append(np.asarray(a))
            return fn(a, *args, **kwargs)
        return counted

    @property
    def total(self) -> int:
        return self.calls["eigh"] + self.calls["eigvalsh"]

    def calls_with(self, matrix: np.ndarray) -> int:
        """How many solver calls had ``matrix``, bit for bit, among their inputs."""
        return sum(any(np.array_equal(x, matrix) for x in a.reshape(-1, *a.shape[-2:]))
                   for a in self.inputs)


def dense_ensemble(rng, d: int, m: int) -> Ensemble:
    return Ensemble.from_lists(sampling.random_prob_vector(m, rng),
                               [sampling.random_density(d, rng) for _ in range(m)])


def diagonal_ensemble(rng, d: int, m: int) -> Ensemble:
    return Ensemble.from_lists(sampling.random_prob_vector(m, rng),
                               [diag_state(*sampling.random_prob_vector(d, rng)) for _ in range(m)])


def test_holevo_is_one_solver_call_or_none(monkeypatch, rng):
    dense, diagonal = dense_ensemble(rng, 4, 6), diagonal_ensemble(rng, 4, 6)
    counter = SolverCounter(monkeypatch)
    holevo(dense)
    assert counter.total == 1
    holevo(diagonal)
    assert counter.total == 1


@pytest.mark.parametrize("m", [1, 3, 8])
def test_avg_ensemble_fidelity_is_two_eigh_and_two_eigvalsh_calls(monkeypatch, rng, m):
    a, b = dense_ensemble(rng, 3, m), dense_ensemble(rng, 3, m)
    b = Ensemble.from_lists(a.probs, b.states)
    counter = SolverCounter(monkeypatch)
    avg_ensemble_fidelity(a, b)
    assert counter.calls == {"eigh": 2, "eigvalsh": 2}
    holevo_continuity_bound(a, b)
    avg_entropy_continuity_bound(a, b)
    assert counter.calls == {"eigh": 6, "eigvalsh": 6}


def test_rate_report_solves_the_mean_state_once(monkeypatch, rng):
    # A generic ensemble, and a commuting non-diagonal qubit pair, which also
    # takes the coin and canonical purification paths.
    # A diagonal mean state takes the shortcut and enters none.
    u = sampling.random_unitary(2, rng)
    pair = Ensemble.from_lists([0.3, 0.7], [u @ diag_state(a, 1.0 - a) @ u.conj().T
                                           for a in (0.2, 0.9)])
    counter = SolverCounter(monkeypatch)
    for ensemble, solves in ((dense_ensemble(rng, 3, 4), 1), (pair, 1),
                             (diagonal_ensemble(rng, 3, 4), 0)):
        counter.inputs.clear()
        rate_report(ensemble)
        assert counter.calls_with(ensemble.average().matrix) == solves


def test_rate_report_stacks_its_members_once(monkeypatch, rng):
    # A generic ensemble, a commuting non-diagonal qubit pair (coin and canonical
    # purification entries), a block ensemble and a hole pattern: each report
    # stacks the members once, for the bracket and every recogniser.
    u = sampling.random_unitary(2, rng)
    pair = Ensemble.from_lists([0.3, 0.7], [u @ diag_state(a, 1.0 - a) @ u.conj().T
                                           for a in (0.2, 0.9)])
    tau = sampling.random_density(2, rng).matrix
    blocks = []
    for _ in range(3):
        full = np.zeros((4, 4), dtype=complex)
        full[:2, :2] = 0.4 * sampling.random_density(2, rng).matrix
        full[2:, 2:] = 0.6 * tau
        blocks.append(full)
    block = Ensemble.from_lists([0.2, 0.3, 0.5], blocks)
    stacked = []
    original = np.stack
    monkeypatch.setattr(np, "stack", lambda arrays, *a, **k: (
        stacked.append([id(x) for x in arrays]) or original(arrays, *a, **k)))
    for ensemble, entry in ((dense_ensemble(rng, 3, 4), None),
                            (pair, "three-message protocol Xi"),
                            (block, "block-diagonal scheme (shared tau)"),
                            (photographic_negative_ensemble(5),
                             "photographic-negative purification mixture")):
        stacked.clear()
        names = [e.name for e in rate_report(ensemble).entries]
        assert entry is None or entry in names
        first = id(ensemble.states[0].matrix)
        assert sum(first in ids for ids in stacked) == 1


def raw_operands(rng, d: int = 4):
    """A generic raw pair, a commuting non-diagonal raw pair, and a raw matrix
    whose lowest eigenvalue lies in [-PSD_TOL, 0), which validation clamps."""
    a, b = (np.array(sampling.random_density(d, rng).matrix) for _ in range(2))
    u = sampling.random_unitary(d, rng)
    c1, c2 = (u @ np.diag(sampling.random_prob_vector(d, rng)) @ u.conj().T for _ in range(2))
    spectrum = np.linspace(1.0, 0.0, d)
    spectrum[-1] = -1e-11
    clamped = u @ np.diag(spectrum / spectrum.sum()) @ u.conj().T
    return (a, b), (c1, c2), (clamped + clamped.conj().T) / 2.0


@pytest.mark.parametrize("entry, calls", [
    ("fidelity", {"eigh": 2, "eigvalsh": 2}),
    ("vn_entropy", {"eigh": 1, "eigvalsh": 0}),
    ("canonical_purification", {"eigh": 1, "eigvalsh": 0}),
    ("typical_subspace", {"eigh": 1, "eigvalsh": 0}),
    ("power_spectrum_top_sum", {"eigh": 1, "eigvalsh": 0}),
    ("canonical_overlap", {"eigh": 2, "eigvalsh": 0}),
])
def test_raw_operand_is_solved_once(monkeypatch, rng, entry, calls):
    # The measure reuses the eigendecomposition its validation computed: one
    # solve per raw operand fewer than validating and then solving it.
    (a, b), (c1, c2), _ = raw_operands(rng)
    run = {"fidelity": lambda: fidelity(a, b),
           "vn_entropy": lambda: vn_entropy(a),
           "canonical_purification": lambda: canonical_purification(a),
           "typical_subspace": lambda: typical_subspace(a, 2),
           "power_spectrum_top_sum": lambda: power_spectrum_top_sum(a, 2, 3),
           "canonical_overlap": lambda: canonical_overlap(c1, c2)}[entry]
    counter = SolverCounter(monkeypatch)
    run()
    assert counter.calls == calls


def test_clamped_raw_operand_is_solved_again(monkeypatch, rng):
    # The clamp rebuilds the matrix, so its validation's eigenpairs are not
    # the rebuilt matrix's: that one is solved as a DensityOperator is.
    (_, b), _, clamped = raw_operands(rng)
    rebuilt = DensityOperator.from_matrix(clamped).matrix
    assert not np.array_equal(rebuilt, clamped)
    counter = SolverCounter(monkeypatch)
    vn_entropy(clamped)
    assert counter.calls == {"eigh": 1, "eigvalsh": 1}
    assert counter.calls_with(rebuilt) == 1
    counter.inputs.clear()
    fidelity(clamped, b)
    assert counter.calls == {"eigh": 4, "eigvalsh": 3}
    assert counter.calls_with(rebuilt) == 1


def test_validated_operands_are_solved_as_before(monkeypatch, rng):
    # A DensityOperator keeps no spectrum: two cost 2 + 2 in fidelity, and the
    # dense chain's project_and_patch validates its output with one eigh call,
    # five solves per string with the fidelity that scores it.
    rho, sigma = sampling.random_density(4, rng), sampling.random_density(4, rng)
    sub = typical_subspace(rho, 2)
    counter = SolverCounter(monkeypatch)
    fidelity(rho, sigma)
    assert counter.calls == {"eigh": 2, "eigvalsh": 2}
    out = project_and_patch(sigma, sub)
    assert counter.calls == {"eigh": 3, "eigvalsh": 2}
    fidelity(sigma, out)
    assert counter.calls == {"eigh": 5, "eigvalsh": 4}
