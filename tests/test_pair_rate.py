"""The pair purification rate against a 40-digit reference and against the Gram route.

``upsilon_rate``, ``two_state_purification_rate`` and ``rate_report``'s pair
entry share one closed form for the entropy of a pair's 2 x 2 Gram spectrum.
The reference is computed with mpmath from the states' float entries: each
diagonal and the prior are normalised in 40 digits, so the reference is the
rate of the states those entries stand for.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import sampling
from mixcomp.classical import CoinSource
from mixcomp.measures import Ensemble, entropy_of_spectrum
from mixcomp.purify import _purification_spectrum, two_state_purification_rate, upsilon_rate
from mixcomp.qmat import DensityOperator
from mixcomp.rates import rate_report

from conftest import diag_state

mpmath.mp.dps = 40

#: Near 1/2 the pair nears one pure state and the rate nears 0.
NEAR_HALF = (0.39, 0.45, 0.49, 0.499, 0.4999, 0.49999)


def reference_rate(w, p, q) -> mpmath.mpf:
    """Entropy in bits of the Gram spectrum of priors w and diagonal states p, q, in 40 digits."""
    w, p, q = ([mpmath.mpf(float(x)) for x in v] for v in (w, p, q))
    w, p, q = ([x / sum(v) for x in v] for v in (w, p, q))
    c = sum(mpmath.sqrt(a * b) for a, b in zip(p, q))
    root = mpmath.sqrt(1 - 4 * w[0] * w[1] * (1 - c * c))
    return -sum(lam * mpmath.log(lam, 2) for lam in ((1 + root) / 2, (1 - root) / 2) if lam > 0)


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
