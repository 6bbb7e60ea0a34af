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
from .qmat import DensityLike, DensityOperator, as_density, commuting, eig_hermitian
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
    h_split = shannon_entropy([eps, 1.0 - eps])
    s_sigma = vn_entropy(sigma_bar)
    s_tau = vn_entropy(tau_bar)
    # The mean of the full states, built from the block means: exactly
    # Hermitian and PSD by construction, so it needs no revalidation.
    s_rho_bar = vn_entropy(DensityOperator._wrap(block._full(sigma_bar, tau_bar)))

    decomposition = h_split + eps * s_sigma + (1.0 - eps) * s_tau
    if not STRUCTURE_TOL.admits(abs(s_rho_bar - decomposition)):
        raise ValidationError(
            "block entropy decomposition failed: S(mean) = "
            f"{s_rho_bar:.12g} vs H(eps) + eps*S(sigma) + (1-eps)*S(tau) = {decomposition:.12g}"
        )
    return Example11Rate(
        scheme_rate=h_split + eps * s_sigma,
        s_rho_bar=s_rho_bar,
        saving=(1.0 - eps) * s_tau,
    )


def _detect_block_split(ensemble: Ensemble) -> tuple[BlockDiagonalEnsemble, Example11Rate] | None:
    """Find a block split with identical lower blocks, minimising the scheme rate."""
    d = ensemble.dim
    best: tuple[BlockDiagonalEnsemble, Example11Rate] | None = None
    mats = np.stack([s.matrix for s in ensemble.states])
    for m in range(1, d):
        # One gate over the whole stack per split index.
        if not STRUCTURE_TOL.admits(np.abs(mats[:, :m, m:])):
            continue
        eps_each = np.real(np.trace(mats[:, :m, :m], axis1=-2, axis2=-1))
        eps = float(eps_each[0])
        if not (STRUCTURE_TOL < eps < 1.0 - STRUCTURE_TOL):
            continue
        if not STRUCTURE_TOL.admits(np.abs(eps_each - eps)):
            continue
        try:
            sigma = mats[:, :m, :m] / eps
            tau = mats[:, m:, m:] / (1.0 - eps)
            block = BlockDiagonalEnsemble.build(eps, ensemble.probs.copy(), sigma, tau)
            rate = example11_rate(block)
        except (TauMismatch, ValidationError, DomainError):
            continue
        if best is None or rate.scheme_rate < best[1].scheme_rate:
            best = (block, rate)
    return best


def _detect_photographic_negative(ensemble: Ensemble) -> bool:
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


def _coin_source_from_qubit_pair(ensemble: Ensemble) -> CoinSource | None:
    """The coin source of a commuting pair of qubit states (the caller checks commuting)."""
    if ensemble.dim != 2:
        return None
    r1, r2 = ensemble.states
    # The top eigenvector of rho1 - rho2 is a common eigenvector when rho1 != rho2;
    # when they are equal any vector gives alpha1 = alpha2, and Xi depends only on
    # |alpha2 - alpha1|.
    e = eig_hermitian(r1.matrix - r2.matrix).eigenvectors[:, 0]
    alpha1, alpha2 = (
        float(np.clip(np.real(np.vdot(e, r.matrix @ e)), 0.0, 1.0)) for r in (r1, r2)
    )
    return CoinSource(
        p1=float(ensemble.probs[0]), p2=float(ensemble.probs[1]), alpha1=alpha1, alpha2=alpha2
    )


def rate_report(ensemble: Ensemble, label: str = "ensemble") -> RateReport:
    """Bounds plus scheme rates for every recognised special ensemble shape.

    Recognition is structural with tolerance 1e-8; anything unrecognised
    degrades gracefully to a bounds-only report.
    """
    s_bar, chi = _entropy_bracket(ensemble)
    entries = [
        RateEntry("mean-state entropy S", s_bar, "upper_bound"),
        RateEntry("Holevo quantity chi", chi, "lower_bound"),
        # Visible coding can always just name the state at the prior's entropy.
        RateEntry("visible state-identity coding H(p)",
                  shannon_entropy(ensemble.probs), "scheme_rate"),
    ]

    if len(ensemble) == 2 and commuting(ensemble.states):
        coin = _coin_source_from_qubit_pair(ensemble)
        if coin is not None:
            entries.append(
                RateEntry("three-message protocol Xi", xi_rate(coin), "scheme_rate")
            )
        # purify.two_state_purification_rate without its second commuting test.
        entries.append(
            RateEntry(
                "canonical purification scheme",
                entropy_of_spectrum(_purification_spectrum(ensemble)),
                "scheme_rate",
            )
        )

    split = _detect_block_split(ensemble)
    if split is not None:
        entries.append(
            RateEntry("block-diagonal scheme (shared tau)", split[1].scheme_rate, "scheme_rate")
        )

    if _detect_photographic_negative(ensemble):
        entries.append(
            RateEntry(
                "photographic-negative purification mixture",
                entropy_of_spectrum(_purification_spectrum(ensemble)),
                "scheme_rate",
            )
        )

    return RateReport.from_entries(label, entries)
