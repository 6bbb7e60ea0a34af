"""The pair purification rate against a 40-digit reference and against the Gram route.

``upsilon_rate``, ``two_state_purification_rate`` and ``rate_report``'s pair
entry share one closed form for the entropy of a pair's 2 x 2 Gram spectrum.
The reference (``tests/reference.py``) is computed with mpmath from the
states' float entries: each diagonal and the prior are normalised in 40
digits, so the reference is the rate of the states those entries stand for.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling
from mixcomp.classical import CoinSource
from mixcomp.measures import Ensemble, entropy_of_spectrum, holevo, vn_entropy
from mixcomp.purify import _purification_spectrum, two_state_purification_rate, upsilon_rate
from mixcomp.qmat import DensityOperator
from mixcomp.rates import rate_report

from conftest import diag_state
from reference import reference_bracket, reference_rate

#: Near 1/2 the pair nears one pure state and the rate nears 0.
NEAR_HALF = (0.39, 0.45, 0.49, 0.499, 0.4999, 0.49999)


def entries(ensemble: Ensemble):
    """Priors and the two diagonals, as the ensemble holds them."""
    p, q = (np.real(np.diagonal(s.matrix)) for s in ensemble.states)
    return ensemble.probs, p, q


def pair_entry(ensemble: Ensemble) -> float:
    return {e.name: e.rate for e in rate_report(ensemble).entries}["canonical purification scheme"]


def relative_error(got: float, want: mpmath.mpf) -> float:
    return float(abs(mpmath.mpf(got) - want) / want)


@pytest.mark.parametrize("eps", NEAR_HALF)
def test_upsilon_rate_keeps_relative_accuracy_near_one_half(eps):
    p = [eps, 1.0 - eps]
    assert relative_error(upsilon_rate(eps), reference_rate([0.5, 0.5], p, p[::-1])) <= 1e-15


@pytest.mark.parametrize("eps", NEAR_HALF)
@pytest.mark.parametrize("build", ["from_lists", "coin_source"])
def test_pair_rates_keep_relative_accuracy_near_one_half(eps, build):
    if build == "from_lists":
        ens = Ensemble.from_lists([0.5, 0.5], [diag_state(eps, 1.0 - eps),
                                               diag_state(1.0 - eps, eps)])
    else:
        ens = CoinSource(0.5, 0.5, eps, 1.0 - eps).as_ensemble()
    want = reference_rate(*entries(ens))
    assert relative_error(two_state_purification_rate(ens), want) <= 1e-15
    assert relative_error(pair_entry(ens), want) <= 1e-15


def test_pair_rates_on_random_commuting_qubit_pairs(rng):
    worst = 0.0
    for _ in range(1000):
        w, a, b = rng.random(3)
        ens = Ensemble.from_lists([w, 1.0 - w], [diag_state(a, 1.0 - a), diag_state(b, 1.0 - b)])
        want = reference_rate(*entries(ens))
        for got in (two_state_purification_rate(ens), pair_entry(ens)):
            worst = max(worst, float(abs(mpmath.mpf(got) - want)))
    assert worst <= 1e-15


@st.composite
def commuting_pairs(draw) -> Ensemble:
    """Two states diagonal in one basis: the computational one, or a common random rotation."""
    dim = draw(st.integers(2, 4))
    levels = st.floats(0.0, 1.0, allow_subnormal=False)
    diagonals = []
    for _ in range(2):
        d = np.array(draw(st.lists(levels, min_size=dim, max_size=dim)))
        if d.sum() == 0.0:
            d[0] = 1.0
        diagonals.append(d / d.sum())
    mats = [np.diag(d).astype(complex) for d in diagonals]
    if draw(st.booleans()):
        u = sampling.random_unitary(dim, sampling.generator(draw(st.integers(0, 2**32 - 1))))
        mats = [u @ m @ u.conj().T for m in mats]
    w = draw(st.floats(0.0, 1.0))
    return Ensemble.from_lists([w, 1.0 - w], [DensityOperator.from_matrix(m) for m in mats])


@settings(max_examples=200)
@given(commuting_pairs())
def test_pair_formula_matches_the_gram_route(ens):
    gram = entropy_of_spectrum(_purification_spectrum(ens))
    assert abs(two_state_purification_rate(ens) - gram) <= 1e-14


def rotated(u: np.ndarray, *diagonal) -> np.ndarray:
    return u @ np.diag(diagonal).astype(complex) @ u.conj().T


def bracket_cases():
    """Fixed ensembles at d = 2, 3, 4: dense, diagonal, rank-deficient and clamped members."""
    rng = sampling.generator(2027)
    u2, u3, u4 = (sampling.random_unitary(d, rng) for d in (2, 3, 4))
    # A raw member whose lowest eigenvalue lies in [-PSD_TOL, 0): its check clamps it.
    clamped = rotated(u3, 0.7, 0.3 + 1e-11, -1e-11)
    return {
        "d2-dense": ([0.3, 0.7], [sampling.random_density(2, rng), rotated(u2, 0.9, 0.1)]),
        "d2-pure-and-diagonal": ([0.5, 0.5], [rotated(u2, 1.0, 0.0), diag_state(0.25, 0.75)]),
        "d2-diagonal": ([0.4, 0.6], [diag_state(1.0, 0.0), diag_state(0.2, 0.8)]),
        "d3-clamped": ([0.2, 0.3, 0.5], [(clamped + clamped.conj().T) / 2.0,
                                         diag_state(0.5, 0.5, 0.0), rotated(u3, 0.0, 1.0, 0.0)]),
        "d3-rank-two": ([0.6, 0.4], [rotated(u3, 0.5, 0.5, 0.0), sampling.random_density(3, rng)]),
        "d4-mixed": ([0.1, 0.2, 0.3, 0.4],
                     [rotated(u4, 0.4, 0.3, 0.3, 0.0), diag_state(0.1, 0.2, 0.3, 0.4),
                      rotated(u4, 1.0, 0.0, 0.0, 0.0), sampling.random_density(4, rng)]),
        "d4-one-member": ([1.0], [rotated(u4, 0.5, 0.25, 0.25, 0.0)]),
    }


#: Absolute budget, in bits, for S and chi against the 40-digit reference.
BRACKET_BUDGET = 1e-14


@pytest.mark.parametrize("held", ["checked", "wrapped"])
@pytest.mark.parametrize("case", sorted(bracket_cases()))
def test_entropy_bracket_against_a_40_digit_reference(case, held):
    # Checked members read the eigenpairs their check kept; wrapped ones (a
    # stack valid by construction) are solved by the stacked eigh.
    probs, states = bracket_cases()[case]
    ensemble = Ensemble.from_lists(probs, states)
    if held == "wrapped":
        ensemble = Ensemble._of(ensemble.probs, ensemble.matrices)
    s_want, chi_want = reference_bracket(ensemble)
    report = {e.name: e.rate for e in rate_report(ensemble).entries}
    for got, want in ((holevo(ensemble), chi_want),
                      (report["Holevo quantity chi"], chi_want),
                      (vn_entropy(ensemble.average()), s_want),
                      (report["mean-state entropy S"], s_want)):
        assert float(abs(mpmath.mpf(got) - want)) <= BRACKET_BUDGET
