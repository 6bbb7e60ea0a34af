"""A raw array against its validated DensityOperator, at each entry point that decomposes it.

A raw operand's validation computes its eigendecomposition and the measure
uses it; a DensityOperator keeps none, so the measure solves it again.  The
property holds both routes to the same bits, except ``vn_entropy``, whose raw
route reads eigh's eigenvalues where the validated route calls eigvalsh.  The
refusal table holds both routes to the same errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling
from mixcomp.blocksim import power_spectrum_top_sum, typical_subspace
from mixcomp.errors import DimensionMismatch, NotHermitian, NotPSD, ValidationError
from mixcomp.measures import fidelity, sqrt_fidelity, vn_entropy
from mixcomp.purify import canonical_overlap, canonical_purification
from mixcomp.qmat import DensityOperator, eig_hermitian
from mixcomp.tolerance import HERMITIAN_TOL, PSD_TOL, UNIT_TOL

from conftest import diag_state

ENTROPY_AGREE = 1e-15


def bits(value) -> tuple:
    """Everything an entry point returns, as bytes: -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return (np.float64(value).tobytes(),)
    if hasattr(value, "state"):  # Purification
        return (value.state.amplitudes.tobytes(), value.source.matrix.tobytes(), value.factor_dim)
    frame = None if value.frame is None else value.frame.tobytes()  # TypicalSubspace
    return (value.full_dim, np.float64(value.eta).tobytes(), value.coordinates.tobytes(), frame)


def hermitian(u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2.0


@st.composite
def raw_operands(draw):
    """(kind, a, c, pair, k, n, r): a state a, an independent state c, a
    commuting pair, and the arguments of the subspace entry points.

    Kinds: generic; diagonal; one diagonal and one not (a diagonal, c rotated,
    and the commuting pair I/d and c); and clamped, where a is rank-deficient
    with its lowest eigenvalue pushed into [-PSD_TOL, 0) and pairs with a
    state in its eigenbasis.
    """
    d = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("generic", "diagonal", "one diagonal", "clamped")))
    rng = sampling.generator(draw(st.integers(0, 2**32 - 1)))
    p, q, s = (sampling.random_prob_vector(d, rng) for _ in range(3))
    u = np.eye(d) if kind in ("diagonal", "one diagonal") else sampling.random_unitary(d, rng)
    v = np.eye(d) if kind == "diagonal" else sampling.random_unitary(d, rng)
    if kind == "clamped" and d > 1:
        zeros = draw(st.integers(1, d - 1))
        p[d - zeros:] = 0.0
        p /= p.sum()
        push = draw(st.floats(1e-13, 0.5 * PSD_TOL))
        p[-1], p[0] = -push, p[0] + push
    a, c = hermitian(u, p), hermitian(v, s)
    pair = (np.eye(d, dtype=complex) / d, c) if kind == "one diagonal" else (a, hermitian(u, q))
    n = draw(st.integers(1, 2))
    return kind, a, c, pair, draw(st.integers(1, d)), n, draw(st.integers(1, d**n))


def entry_points(a, c, pair, k, n, r) -> dict:
    return {
        "fidelity": lambda f: fidelity(f(a), f(c)),
        "sqrt_fidelity": lambda f: sqrt_fidelity(f(c), f(a)),
        "canonical_purification": lambda f: canonical_purification(f(a)),
        "canonical_overlap": lambda f: canonical_overlap(*map(f, pair)),
        "typical_subspace": lambda f: typical_subspace(f(a), k),
        "power_spectrum_top_sum": lambda f: power_spectrum_top_sum(f(a), n, r),
    }


@settings(max_examples=200)
@given(raw_operands())
def test_raw_operands_give_the_validated_bits(case):
    kind, a, *rest = case
    for name, call in entry_points(a, *rest).items():
        assert bits(call(np.asarray)) == bits(call(DensityOperator.from_matrix)), name
    raw, validated = vn_entropy(a), vn_entropy(DensityOperator.from_matrix(a))
    assert abs(raw - validated) <= ENTROPY_AGREE
    # The roots and clamps read np.maximum(x, 0.0), once np.clip(x, 0.0, None):
    # the same bits on every spectrum drawn, negative and zero entries included.
    vals = np.linalg.eigvalsh(a)
    assert np.maximum(vals, 0.0).tobytes() == np.clip(vals, 0.0, None).tobytes()


def test_the_property_draws_every_kind():
    seen = set()

    @settings(max_examples=200)
    @given(raw_operands())
    def collect(case):
        kind, a = case[0], case[1]
        clamped = kind == "clamped" and a.shape[0] > 1
        assert not clamped or -PSD_TOL <= eig_hermitian(a).eigenvalues[-1] < 0.0
        seen.add(kind)

    collect()
    assert seen == {"generic", "diagonal", "one diagonal", "clamped"}


VALID = np.eye(3, dtype=complex) / 3.0
INVALID = {
    "non-square": np.full((2, 3), 0.5, dtype=complex),
    "non-finite": diag_state(0.5, 0.5, np.nan),
    "non-Hermitian": diag_state(0.5, 0.3, 0.2) + np.triu(np.full((3, 3), 10 * HERMITIAN_TOL), 1),
    "trace": diag_state(0.5, 0.3, 0.2 + 10 * UNIT_TOL),
    "not PSD": diag_state(0.6, 0.4 + 10 * PSD_TOL, -10 * PSD_TOL),
}
ONE_OPERAND = {
    "vn_entropy": vn_entropy,
    "canonical_purification": canonical_purification,
    "typical_subspace": lambda m: typical_subspace(m, 1),
    "power_spectrum_top_sum": lambda m: power_spectrum_top_sum(m, 1, 1),
}
TWO_OPERANDS = {"fidelity": fidelity, "sqrt_fidelity": sqrt_fidelity,
                "canonical_overlap": canonical_overlap}
CALLS = {**ONE_OPERAND,
         **{f"{name}(bad, valid)": (lambda m, f=f: f(m, VALID)) for name, f in TWO_OPERANDS.items()},
         **{f"{name}(valid, bad)": (lambda m, f=f: f(VALID, m)) for name, f in TWO_OPERANDS.items()}}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("operand", INVALID)
def test_invalid_raw_operand_is_refused_as_from_matrix_refuses_it(operand, call):
    m = INVALID[operand]
    with pytest.raises(ValidationError) as expected:
        DensityOperator.from_matrix(m)
    kinds = {"non-square": DimensionMismatch, "non-Hermitian": NotHermitian, "not PSD": NotPSD}
    assert type(expected.value) is kinds.get(operand, ValidationError)
    with pytest.raises(ValidationError) as got:
        CALLS[call](m)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
