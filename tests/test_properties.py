"""Hypothesis properties of fidelity, the Holevo bracket and rate reports.

The state strategy mixes three kinds: diagonal states, near-diagonal states
whose off-diagonal entries lie between 1e-15 and 1e-11 (both sides of the one
diagonal threshold, 1e-12), and states in a random basis.  Spectra are drawn
from a small set of values, so degenerate and rank-deficient spectra are common.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling
from mixcomp.measures import Ensemble, fidelity, holevo, vn_entropy
from mixcomp.qmat import DensityOperator, partial_trace
from mixcomp.rates import rate_report
from mixcomp.tolerance import DIAGONAL_TOL

PROPERTY_SETTINGS = settings(max_examples=60)
LEVELS = (0.0, 0.1, 0.25, 0.5, 1.0)


@st.composite
def states(draw, dim: int) -> DensityOperator:
    spectrum = np.array(draw(st.lists(st.sampled_from(LEVELS), min_size=dim, max_size=dim)))
    if spectrum.sum() == 0.0:
        spectrum[0] = 1.0
    spectrum /= spectrum.sum()
    kind = draw(st.sampled_from(("diagonal", "near-diagonal", "rotated")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = sampling.generator(seed)
    m = np.diag(spectrum).astype(complex)
    if kind == "near-diagonal":
        scale = 10.0 ** draw(st.floats(-15.0, -11.0))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        off = g + g.conj().T
        np.fill_diagonal(off, 0.0)
        m = m + scale * off / max(1.0, float(np.max(np.abs(off))))
    elif kind == "rotated":
        u = sampling.random_unitary(dim, rng)
        m = u @ m @ u.conj().T
    return DensityOperator.from_matrix(m)


@st.composite
def ensembles(draw) -> Ensemble:
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.sampled_from(LEVELS[1:]), min_size=n, max_size=n)))
    return Ensemble.from_lists(weights / weights.sum(), [draw(states(dim)) for _ in range(n)])


def state_pairs(dim: int):
    return st.tuples(states(dim), states(dim))


def test_strategy_reaches_both_sides_of_the_diagonal_threshold():
    seen = set()

    @settings(max_examples=200)
    @given(states(3))
    def collect(rho):
        off = float(np.max(np.abs(rho.matrix - np.diag(np.diagonal(rho.matrix)))))
        if 0.0 < off <= DIAGONAL_TOL:
            seen.add("below")
        elif DIAGONAL_TOL < off < 1e-10:
            seen.add("above")

    collect()
    assert seen == {"below", "above"}


@PROPERTY_SETTINGS
@given(st.integers(2, 4).flatmap(state_pairs))
def test_fidelity_is_symmetric_and_in_unit_interval(pair):
    rho, sigma = pair
    f = fidelity(rho, sigma)
    assert 0.0 <= f <= 1.0
    assert abs(f - fidelity(sigma, rho)) <= 1e-8


@PROPERTY_SETTINGS
@given(st.sampled_from(((2, 2), (2, 3), (3, 2))).flatmap(
    lambda dims: st.tuples(st.just(dims), state_pairs(dims[0] * dims[1]))))
def test_fidelity_does_not_fall_under_partial_trace(case):
    dims, (rho, sigma) = case
    reduced = fidelity(partial_trace(rho, dims, keep=0), partial_trace(sigma, dims, keep=0))
    assert reduced >= fidelity(rho, sigma) - 1e-7


@PROPERTY_SETTINGS
@given(ensembles())
def test_holevo_bracket_orders(ensemble):
    chi = holevo(ensemble)
    s_mean = vn_entropy(ensemble.average())
    assert 0.0 <= chi <= s_mean + 1e-9
    assert s_mean <= math.log2(ensemble.dim) + 1e-9


@PROPERTY_SETTINGS
@given(ensembles())
def test_every_rate_report_builds_with_an_ordered_bracket(ensemble):
    lower, upper = rate_report(ensemble).bracket()
    assert lower <= upper + 1e-8
