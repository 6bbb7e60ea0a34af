"""Compression-rate bounds and example-specific scheme rates.

Every report brackets the unknown optimal rate between the Holevo quantity
(lower bound) and the mean-state entropy (upper bound), and attaches scheme
rates for the special ensemble shapes the package knows how to compress
(two commuting states, block-diagonal with a shared lower block, the
photographic-negative family).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .classical import CoinSource, xi_rate
from .errors import DomainError, TauMismatch, ValidationError
from .measures import (
    Ensemble,
    _entropy_bracket,
    entropy_of_spectrum,
    holevo,
    shannon_entropy,
    vn_entropy,
)
from .purify import _purification_spectrum
from .qmat import DensityLike, DensityOperator, _eig, as_density, commuting, is_diagonal
from .tolerance import STRUCTURE_TOL

Kind = Literal["upper_bound", "lower_bound", "scheme_rate", "conjecture"]


@dataclass(frozen=True)
class RateEntry:
    name: str
    rate: float
    kind: Kind


@dataclass(frozen=True, eq=False)
class RateReport:
    """Named rates for one ensemble, bracketing the optimal qubits/signal.

    Construction enforces the ordering invariant: every scheme rate and upper
    bound must be at least every lower bound (within 1e-8).
    """

    ensemble: str
    entries: tuple[RateEntry, ...]

    @classmethod
    def from_entries(cls, ensemble: str, entries: Sequence[RateEntry]) -> "RateReport":
        lowers = [e for e in entries if e.kind == "lower_bound"]
        for lo in lowers:
            for e in entries:
                if e.kind in ("scheme_rate", "upper_bound") and not STRUCTURE_TOL.admits(
                    lo.rate - e.rate
                ):
                    raise ValidationError(
                        f"rate report violates ordering: {e.kind} '{e.name}' = {e.rate:.12g} "
                        f"below lower bound '{lo.name}' = {lo.rate:.12g}"
                    )
        return cls(ensemble, tuple(entries))

    def bracket(self) -> tuple[float, float]:
        """(best lower bound, best upper bound) on the optimal rate."""
        lo = max((e.rate for e in self.entries if e.kind == "lower_bound"), default=0.0)
        hi = min(
            (e.rate for e in self.entries if e.kind in ("upper_bound", "scheme_rate")),
            default=float("inf"),
        )
        return lo, hi

    def scheme_rates(self) -> list[RateEntry]:
        return [e for e in self.entries if e.kind == "scheme_rate"]


def upper_bound_rate(ensemble: Ensemble) -> float:
    """Mean-state entropy S(sum_i p_i rho_i): always achievable, in bits/signal."""
    return vn_entropy(ensemble.average())


def lower_bound_rate(ensemble: Ensemble) -> float:
    """Holevo quantity chi: no scheme can beat it."""
    return holevo(ensemble)


@dataclass(frozen=True, eq=False)
class BlockDiagonalEnsemble:
    """Two-block ensemble: each state is diag(eps * sigma_i, (1-eps) * tau_i)."""

    epsilon: float
    sigma_states: tuple[DensityOperator, ...]
    tau_states: tuple[DensityOperator, ...]
    probs: np.ndarray

    @classmethod
    def build(
        cls, epsilon: float, probs, sigma_states: Sequence[DensityLike],
        tau_states: Sequence[DensityLike],
    ) -> "BlockDiagonalEnsemble":
        # epsilon = 1 is admitted as the degenerate no-tau-block corner.
        if not (0.0 < epsilon <= 1.0):
            raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
        sig = tuple(as_density(s, "sigma block") for s in sigma_states)
        tau = tuple(as_density(t, "tau block") for t in tau_states)
        if len(sig) != len(tau):
            raise ValidationError("sigma and tau block lists must have equal length")
        from .measures import as_prob_vector

        p = as_prob_vector(probs, "block-diagonal priors")
        if p.size != len(sig):
            raise ValidationError("priors length must match the number of states")
        p.setflags(write=False)
        return cls(float(epsilon), sig, tau, p)

    def _full(self, sigma: DensityOperator, tau: DensityOperator) -> np.ndarray:
        """The full state diag(eps * sigma, (1 - eps) * tau)."""
        m, n = sigma.dim, tau.dim
        full = np.zeros((m + n, m + n), dtype=complex)
        full[:m, :m] = self.epsilon * sigma.matrix
        full[m:, m:] = (1.0 - self.epsilon) * tau.matrix
        return full

    def as_ensemble(self) -> Ensemble:
        states = [self._full(s, t) for s, t in zip(self.sigma_states, self.tau_states)]
        return Ensemble.from_lists(self.probs.copy(), states)


@dataclass(frozen=True)
class Example11Rate:
    scheme_rate: float
    s_rho_bar: float
    saving: float


def example11_rate(block: BlockDiagonalEnsemble) -> Example11Rate:
    """Rate of the measure-then-compress scheme when the tau blocks coincide.

    The sender projects onto the block, sends the block name at
    H(eps, 1-eps) bits, and compresses only the sigma-block content; the
    shared tau state is reconstructed by the receiver for free.  The saving
    over the mean-state entropy is (1-eps) * S(mean tau).
    """
    tau0 = block.tau_states[0].matrix
    for i, t in enumerate(block.tau_states[1:], start=1):
        defect = float(np.max(np.abs(t.matrix - tau0)))
        if not STRUCTURE_TOL.admits(defect):
            raise TauMismatch(
                f"tau blocks must coincide: state {i} deviates by {defect:.3e}"
            )
    eps = block.epsilon
    sigma_bar = Ensemble.from_lists(block.probs.copy(), block.sigma_states).average()
    tau_bar = Ensemble.from_lists(block.probs.copy(), block.tau_states).average()
    scheme_rate = _example11_scheme_rate(eps, sigma_bar)
    s_tau = vn_entropy(tau_bar)
    # The mean of the full states, built from the block means: exactly
    # Hermitian and PSD by construction, so it needs no revalidation.
    s_rho_bar = vn_entropy(DensityOperator._wrap(block._full(sigma_bar, tau_bar)))

    decomposition = scheme_rate + (1.0 - eps) * s_tau
    if not STRUCTURE_TOL.admits(abs(s_rho_bar - decomposition)):
        raise ValidationError(
            "block entropy decomposition failed: S(mean) = "
            f"{s_rho_bar:.12g} vs H(eps) + eps*S(sigma) + (1-eps)*S(tau) = {decomposition:.12g}"
        )
    return Example11Rate(
        scheme_rate=scheme_rate,
        s_rho_bar=s_rho_bar,
        saving=(1.0 - eps) * s_tau,
    )


def _example11_scheme_rate(eps: float, sigma_bar: DensityOperator) -> float:
    """H(eps, 1 - eps) + eps * S(sigma_bar): name the block, then compress its sigma part."""
    return shannon_entropy([eps, 1.0 - eps]) + eps * vn_entropy(sigma_bar)


def _zero_block_splits(members: np.ndarray) -> np.ndarray:
    """The split indices k with every |rho_i[:k, k:]| <= STRUCTURE_TOL, from one pass.

    reach[i] is the last column any member holds above STRUCTURE_TOL in rows
    0..i, a running maximum over the members' zero pattern; k passes iff reach[k - 1] < k.
    """
    d = members.shape[-1]
    pattern = np.zeros((d, d), dtype=bool)
    for x in members:  # one member at a time: |entries| of the whole stack would be m d^2 floats
        pattern |= np.abs(x) > STRUCTURE_TOL
    reach = np.maximum.accumulate(np.where(pattern, np.arange(d), 0).max(axis=1))
    return np.flatnonzero(reach[:-1] < np.arange(1, d)) + 1


def _detect_block_split(members: np.ndarray, probs: np.ndarray) -> float | None:
    """The lowest Example 11 rate over the split indices that pass the gates on the members' stack.

    A split that passes has Example 11's shape, whose entropy decomposition is an identity.
    """
    best: float | None = None
    for m in _zero_block_splits(members):
        eps_each = np.real(np.trace(members[:, :m, :m], axis1=-2, axis2=-1))
        eps = float(eps_each[0])
        if not (STRUCTURE_TOL < eps < 1.0 - STRUCTURE_TOL
                and STRUCTURE_TOL.admits(np.abs(eps_each - eps))):
            continue
        # Each block over its own trace: a principal block of a validated
        # state, so exactly Hermitian, PSD by Cauchy interlacing, trace one.
        w = eps_each[:, None, None]
        tau = members[:, m:, m:] / (1.0 - w)
        if not STRUCTURE_TOL.admits(np.abs(tau[1:] - tau[0])):
            continue
        sigma = tuple(DensityOperator._wrap(b) for b in members[:, :m, :m] / w)
        rate = _example11_scheme_rate(eps, Ensemble(sigma, probs).average())
        if best is None or rate < best:
            best = rate
    return best


def _detect_photographic_negative(mats: np.ndarray, flags: np.ndarray, probs: np.ndarray) -> bool:
    """Whether the states are the hole pattern in any order: one hole each, at its argmin."""
    m, d = mats.shape[:2]
    if m != d or d < 3 or not flags.all():
        return False
    diag = np.real(np.diagonal(mats, axis1=-2, axis2=-1))
    holes = np.argmin(diag, axis=1)
    expected = np.full((d, d), 1.0 / (d - 1))
    expected[np.arange(d), holes] = 0.0
    return (STRUCTURE_TOL.admits(np.abs(diag - expected))
            and np.array_equal(np.sort(holes), np.arange(d))
            and STRUCTURE_TOL.admits(np.abs(probs - 1.0 / d)))


def rate_report(ensemble: Ensemble, label: str = "ensemble") -> RateReport:
    """Bounds plus scheme rates for every recognised special ensemble shape.

    Recognition is structural with tolerance 1e-8; anything unrecognised
    degrades gracefully to a bounds-only report.  The ensemble is stacked once
    (``Ensemble.stack``), and every measure and recogniser reads that stack.
    """
    mats, flags = ensemble.stack()
    members, diagonal, probs = mats[1:], flags[1:], ensemble.probs
    s_bar, chi = _entropy_bracket(mats, flags, probs)
    entries = [
        RateEntry("mean-state entropy S", s_bar, "upper_bound"),
        RateEntry("Holevo quantity chi", chi, "lower_bound"),
        # Visible coding can always just name the state at the prior's entropy;
        # the prior was validated when the ensemble was built.
        RateEntry("visible state-identity coding H(p)", entropy_of_spectrum(probs), "scheme_rate"),
    ]

    pair = len(ensemble) == 2 and commuting(ensemble.states)
    if pair and ensemble.dim == 2:
        # The coin source of a commuting qubit pair.  The top eigenvector of
        # rho1 - rho2 is a common eigenvector when rho1 != rho2; when they are equal
        # any vector gives alpha1 = alpha2, and Xi depends only on |alpha2 - alpha1|.
        # The difference of two validated states is exactly Hermitian, so it is
        # solved without the checks a raw array gets.
        diff = members[0] - members[1]
        e = _eig(diff, is_diagonal(diff))[1][:, 0]
        alpha = (float(np.clip(np.real(np.vdot(e, r @ e)), 0.0, 1.0)) for r in members)
        coin = CoinSource(float(probs[0]), float(probs[1]), *alpha)
        entries.append(RateEntry("three-message protocol Xi", xi_rate(coin), "scheme_rate"))
    # A pair's entry is purify.two_state_purification_rate without its second
    # commuting test.  A hole pattern's upper traces differ at every split, so it
    # has no block entry, and the one purification entry precedes that entry either way.
    if pair or _detect_photographic_negative(members, diagonal, probs):
        name = ("canonical purification scheme" if pair
                else "photographic-negative purification mixture")
        entries.append(RateEntry(
            name, entropy_of_spectrum(_purification_spectrum(probs, members, diagonal)),
            "scheme_rate"))

    split = _detect_block_split(members, probs)
    if split is not None:
        entries.append(RateEntry("block-diagonal scheme (shared tau)", split, "scheme_rate"))

    return RateReport.from_entries(label, entries)
