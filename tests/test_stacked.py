"""Stacked ensemble measures against their per-state definitions.

Each ensemble-level measure reads its members' kept eigenpairs (diagonal
members their diagonals) and solves only the ensemble's mean state, which it
keeps, and the members that kept nothing.  The oracles here are the per-state
versions: a sum of pairwise fidelities, entropies from one ``eig_hermitian``
per state, and overlaps from one ``matrix_sqrt_psd`` per state.  The
solver-count tests pin what is solved by counting ``np.linalg.eigh`` and
``eigvalsh`` calls.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling, wire
from mixcomp.blocksim import (
    BlockSource,
    lemma_a1_ceiling,
    power_spectrum_top_sum,
    project_and_patch,
    project_patch_scheme,
    typical_subspace,
)
from mixcomp.cli import main
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
from mixcomp.qmat import (
    DensityOperator,
    as_density,
    eig_hermitian,
    is_diagonal,
    matrix_sqrt_psd,
)
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
    ensemble = pair[0]
    roots = [matrix_sqrt_psd(s) for s in ensemble.states]
    oracle = np.array([[np.real(np.trace(x @ y)) for y in roots] for x in roots])
    assert max_abs(_root_overlaps(ensemble) - oracle) <= AGREE


KEPT_KINDS = ("validated", "wrapped", "clamped", "diagonal")


def kept_member(kind: str, d: int, rng):
    """The input of one member of a kind.  Validated is a raw matrix whose check
    keeps its eigenpairs; clamped a raw matrix whose lowest eigenvalue lies in
    [-PSD_TOL, 0), rebuilt by its check, which keeps none; diagonal a raw
    matrix, which needs none; wrapped a DensityOperator that kept none."""
    if kind == "diagonal" or (kind == "clamped" and d == 1):
        return np.diag(sampling.random_prob_vector(d, rng)).astype(complex)
    if kind == "clamped":
        u = sampling.random_unitary(d, rng)
        spectrum = np.append(sampling.random_prob_vector(d - 1, rng) * (1.0 + 5e-10), -5e-10)
        raw = (u * spectrum) @ u.conj().T
        raw = (raw + raw.conj().T) / 2.0
        rho = DensityOperator.from_matrix(raw)
        assert rho._spectrum is None and not rho.is_diagonal  # rebuilt by the clamp
        return raw
    rho = sampling.random_density(d, rng)
    return np.array(rho.matrix) if kind == "validated" else DensityOperator._wrap(rho.matrix)


@st.composite
def kept_ensembles(draw) -> tuple:
    """(d, kinds, checked, seed): members of one kind, or of mixed kinds, d <= 16 and
    m <= 8; ``checked`` passes the raw members as checked DensityOperators."""
    d, m = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(KEPT_KINDS + ("mixed",)))
    kinds = [draw(st.sampled_from(KEPT_KINDS)) if kind == "mixed" else kind for _ in range(m)]
    return d, kinds, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def fresh_inputs(d: int, kinds: list, checked: bool, seed: int) -> tuple:
    """A prior and two member lists of the same kinds, built afresh from the seed."""
    rng = sampling.generator(seed)
    probs = sampling.random_prob_vector(len(kinds), rng)
    inputs = [[kept_member(k, d, rng) for k in kinds] for _ in range(2)]
    return probs, [[as_density(x) for x in xs] if checked else xs for xs in inputs]


def fresh_pair(*drawn) -> tuple[Ensemble, Ensemble]:
    """Two ensembles of the same kinds sharing one prior, built afresh from the seed."""
    probs, inputs = fresh_inputs(*drawn)
    return tuple(Ensemble.from_lists(probs, xs) for xs in inputs)


def spectra_oracle(states) -> np.ndarray:
    """The member spectra as the per-state loop computed them: a kept spectrum
    is read, a diagonal state's sorted diagonal too, the rest is one eigh call."""
    vals = np.empty((len(states), states[0].dim))
    solve = []
    for i, s in enumerate(states):
        if s._spectrum is not None:
            vals[i] = s._spectrum[0]
        elif s.is_diagonal:
            vals[i] = np.sort(np.real(np.diagonal(s.matrix)))[::-1]
        else:
            solve.append(i)
    if solve:
        solved = np.linalg.eigh(np.stack([states[i].matrix for i in solve]))[0]
        vals[solve] = np.sort(solved, axis=-1)[:, ::-1]
    return vals


def eigenpairs_oracle(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of a stack as one eigh call on every matrix computed them,
    with the diagonal ones replaced by their diagonals and the identity."""
    flags = np.array([is_diagonal(m) for m in stack], dtype=bool)
    vals, vecs = np.linalg.eigh(stack)
    if flags.any():
        vals[flags] = np.real(np.diagonal(stack[flags], axis1=-2, axis2=-1))
        vecs[flags] = np.eye(stack.shape[-1])
    order = np.argsort(-vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return vals, vecs


def entry_results(ensemble: Ensemble, other: Ensemble, order) -> dict:
    """The repr of every entry point that reads what the members kept, called in ``order``."""
    source = BlockSource.build(ensemble, 2)
    entries = {
        "holevo": lambda: holevo(ensemble),
        "report": lambda: [(e.name, e.rate) for e in rate_report(ensemble).entries],
        "avg fidelity": lambda: avg_ensemble_fidelity(ensemble, other),
        "holevo bound": lambda: holevo_continuity_bound(ensemble, other),
        "entropy bound": lambda: avg_entropy_continuity_bound(ensemble, other),
        "mean entropy": lambda: vn_entropy(ensemble.average()),
        "ceiling": lambda: lemma_a1_ceiling(source, 1.0),
        "scheme": lambda: (lambda sub: (sub.eta, sub.coordinates.tobytes(),
                                        None if sub.frame is None else sub.frame.tobytes()))(
            project_patch_scheme(source, 1.0).subspace),
    }
    return {name: repr(entries[name]()) for name in order}


def assert_read_only(*arrays) -> None:
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0


@settings(max_examples=100)
@given(kept_ensembles())
def test_member_spectra_and_eigenpairs_read_what_the_members_kept(drawn):
    probs, (inputs, _) = fresh_inputs(*drawn)
    ensemble = Ensemble.from_lists(probs, inputs)
    # The checked members, each from its own from_matrix call (or the wrapped input).
    checked = [as_density(x) for x in inputs]
    m, d = len(checked), checked[0].dim
    assert ensemble.matrices.shape == (m, d, d) and len(ensemble) == m and ensemble.dim == d
    assert_read_only(ensemble.matrices, ensemble.diagonal, ensemble.probs)
    kept = [s._spectrum is not None for s in checked]
    if any(kept):
        assert ensemble.kept.tolist() == kept
        assert ensemble.values.shape == (m, d) and ensemble.vectors.shape == (m, d, d)
        assert_read_only(ensemble.kept, ensemble.values, ensemble.vectors)
    else:
        assert ensemble.kept is ensemble.values is ensemble.vectors is None
    # Each member is a view on its row, with from_matrix's bits, diagonal test
    # and kept eigenpairs; the views are built once.
    assert ensemble.states is ensemble.states and len(ensemble.states) == m
    for i, (view, want) in enumerate(zip(ensemble.states, checked)):
        assert np.shares_memory(view.matrix, ensemble.matrices)
        assert view.matrix.tobytes() == want.matrix.tobytes()
        assert view.is_diagonal is want.is_diagonal is bool(ensemble.diagonal[i])
        if want._spectrum is None:
            assert view._spectrum is None
        else:
            for got, kept, held in zip(view._spectrum, want._spectrum,
                                       (ensemble.values, ensemble.vectors)):
                assert got.tobytes() == kept.tobytes() and np.shares_memory(got, held)
        assert_read_only(view.matrix, *(view._spectrum or ()))
    # Member spectra and eigenpairs: the per-state rule's bits, and one eigh call's.
    mean = ensemble.average()
    spectra, eigenpairs = ensemble._spectra(), ensemble._eigenpairs()
    assert spectra.tobytes() == spectra_oracle((mean, *checked)).tobytes()
    assert spectra[0].tobytes() == mean.eigenvalues().tobytes()
    for row, s in zip(spectra[1:], checked):
        assert max_abs(row - np.linalg.eigvalsh(s.matrix)[::-1]) <= 1e-15
    for got, want in zip(eigenpairs, eigenpairs_oracle(np.stack([s.matrix for s in checked]))):
        assert got.tobytes() == want.tobytes()
    # The ensemble keeps its mean state, and the mean state its eigenpairs.
    assert ensemble.average() is mean and mean.eigenpairs() is mean.eigenpairs()
    assert_read_only(mean.matrix, *mean.eigenpairs())
    # Two fresh copies, the entry points called in two orders: the same bits.
    order = ["holevo", "report", "avg fidelity", "holevo bound", "entropy bound",
             "mean entropy", "ceiling", "scheme"]
    assert entry_results(*fresh_pair(*drawn), order) == entry_results(
        *fresh_pair(*drawn), order[::-1])


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


def test_holevo_solves_only_the_mean_of_a_validated_ensemble(monkeypatch, rng):
    # Validated members kept their check's eigenpairs, so holevo solves only
    # the mean state, which keeps its eigenpairs; wrapped members share one
    # stacked call of their own.
    ensemble = dense_ensemble(rng, 4, 6)
    counter = SolverCounter(monkeypatch)
    holevo(ensemble)
    assert counter.calls == {"eigh": 1, "eigvalsh": 0}
    assert counter.inputs[0].shape == (4, 4)
    assert counter.calls_with(ensemble.average().matrix) == 1
    holevo(ensemble)
    assert counter.calls == {"eigh": 1, "eigvalsh": 0}
    holevo(wrapped_copy(ensemble))
    assert counter.calls == {"eigh": 3, "eigvalsh": 0}
    assert sorted(x.shape for x in counter.inputs[1:]) == [(4, 4), (6, 4, 4)]


def wrapped_copy(ensemble: Ensemble) -> Ensemble:
    """The same stack held without its kept eigenpairs, as a stack valid by construction is."""
    return Ensemble._of(ensemble.probs, ensemble.matrices)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_avg_ensemble_fidelity_solves_only_wrapped_members(monkeypatch, rng, m):
    # Validated members read their kept eigenpairs: only the two
    # orientations are solved.  The wrapped members of an ensemble share one
    # eigh call, on each call, since nothing is kept across calls.
    a, b = dense_ensemble(rng, 3, m), dense_ensemble(rng, 3, m)
    b = Ensemble.from_lists(a.probs, b.states)
    wa, wb = wrapped_copy(a), wrapped_copy(b)
    counter = SolverCounter(monkeypatch)
    avg_ensemble_fidelity(a, b)
    assert counter.calls == {"eigh": 0, "eigvalsh": 2}
    holevo_continuity_bound(a, b)
    avg_entropy_continuity_bound(a, b)
    assert counter.calls == {"eigh": 0, "eigvalsh": 6}
    counter.calls.update(eigh=0, eigvalsh=0)
    counter.inputs.clear()
    avg_ensemble_fidelity(wa, wb)
    assert counter.calls == {"eigh": 2, "eigvalsh": 2}
    assert all(counter.calls_with(x) == 1 for x in (*wa.matrices, *wb.matrices))
    holevo_continuity_bound(wa, wb)
    avg_entropy_continuity_bound(wa, wb)
    assert counter.calls == {"eigh": 6, "eigvalsh": 6}


def test_blocksim_run_solves_the_base_mean_once(monkeypatch, rng, tmp_path):
    # The plan, the scheme and the ceiling each take the base mean state's
    # eigenpairs; the mean state keeps them, so one eigh call serves all three.
    path = tmp_path / "e.json"
    ensemble = dense_ensemble(rng, 2, 3)
    path.write_text(wire.dumps(wire.ensemble_to_json(ensemble)))
    mean = wire.load_ensemble(str(path)).average().matrix
    counter = SolverCounter(monkeypatch)
    assert main(["blocksim", "run", "--ensemble", str(path), "--N", "3", "--rate", "0.6",
                 "--mode", "exact", "--out", str(tmp_path / "out.json")]) == 0
    assert counter.calls_with(mean) == 1


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


def test_rate_report_reads_the_held_stack(monkeypatch, rng):
    # A generic ensemble, a commuting non-diagonal qubit pair (coin and canonical
    # purification entries), a block ensemble and a hole pattern: the bracket
    # and every recogniser read the ensemble's held stack, and no report
    # stacks its members again.
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

    def recording_stack(arrays, *args, **kwargs):
        arrays = list(arrays)
        stacked.extend(arrays)
        return original(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "stack", recording_stack)
    for ensemble, entry in ((dense_ensemble(rng, 3, 4), None),
                            (pair, "three-message protocol Xi"),
                            (block, "block-diagonal scheme (shared tau)"),
                            (photographic_negative_ensemble(5),
                             "photographic-negative purification mixture")):
        stacked.clear()
        names = [e.name for e in rate_report(ensemble).entries]
        assert entry is None or entry in names
        assert not any(np.shares_memory(x, ensemble.matrices) for x in stacked)


def test_hole_pattern_report_copies_no_stack():
    # The ensemble's one (d, d, d) stack takes 256 MiB at d = 256; building it
    # and reporting on it take less than 16 MiB more.
    tracemalloc.start()
    try:
        ensemble = photographic_negative_ensemble(256)
        names = [e.name for e in rate_report(ensemble).entries]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "photographic-negative purification mixture" in names
    assert ensemble.matrices.nbytes == 256 * 2**20
    assert peak - ensemble.matrices.nbytes < 16 * 2**20


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
    assert counter.calls == {"eigh": 2, "eigvalsh": 0}
    assert counter.calls_with(rebuilt) == 1
    counter.inputs.clear()
    fidelity(clamped, b)
    assert counter.calls == {"eigh": 5, "eigvalsh": 2}
    assert counter.calls_with(rebuilt) == 1


@pytest.mark.parametrize("entry, wrapped_calls", [
    ("fidelity", {"eigh": 2, "eigvalsh": 2}),
    ("vn_entropy", {"eigh": 1, "eigvalsh": 0}),
    ("canonical_purification", {"eigh": 1, "eigvalsh": 0}),
    ("typical_subspace", {"eigh": 1, "eigvalsh": 0}),
    ("power_spectrum_top_sum", {"eigh": 1, "eigvalsh": 0}),
])
def test_validated_state_reuses_its_check_and_wrapped_state_is_solved(
        monkeypatch, rng, entry, wrapped_calls):
    # A validated state kept the eigenpairs of its check: only fidelity's two
    # orientations are solved.  A wrapped state kept none, so each of its
    # spectra is solved once, as before.
    validated = [sampling.random_density(4, rng) for _ in range(2)]
    wrapped = [DensityOperator._wrap(r.matrix) for r in validated]
    run = {"fidelity": fidelity,
           "vn_entropy": lambda r, _: vn_entropy(r),
           "canonical_purification": lambda r, _: canonical_purification(r),
           "typical_subspace": lambda r, _: typical_subspace(r, 2),
           "power_spectrum_top_sum": lambda r, _: power_spectrum_top_sum(r, 2, 3)}[entry]
    counter = SolverCounter(monkeypatch)
    run(*validated)
    assert counter.calls == {"eigh": 0, "eigvalsh": 2 if entry == "fidelity" else 0}
    counter.calls.update(eigh=0, eigvalsh=0)
    run(*wrapped)
    assert counter.calls == wrapped_calls


@pytest.mark.parametrize("kept", [2, 4])
def test_dense_chain_costs_five_solves_per_string(monkeypatch, rng, kept):
    # The scorer's block state is wrapped, and project_and_patch drops its
    # check's eigenpairs: one eigh call validates the output, and fidelity
    # solves both eigenpairs and both orientations.  Keeping every coordinate
    # leaves the output full rank, so no clamp is what drops them.
    rho, sigma = sampling.random_density(4, rng), sampling.random_density(4, rng)
    sub = typical_subspace(rho, kept)
    sig = DensityOperator._wrap(sigma.matrix)
    counter = SolverCounter(monkeypatch)
    out = project_and_patch(sig, sub)
    assert counter.calls == {"eigh": 1, "eigvalsh": 0}
    fidelity(sig, out)
    assert counter.calls == {"eigh": 3, "eigvalsh": 2}
