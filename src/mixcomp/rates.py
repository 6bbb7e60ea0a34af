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
from .measures import Ensemble, holevo, shannon_entropy, vn_entropy
from .purify import two_state_purification_rate
from .qmat import DensityLike, DensityOperator, as_density, commutator_norm, is_diagonal

ORDER_TOL = 1e-8
SHAPE_TOL = 1e-8

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
                if e.kind in ("scheme_rate", "upper_bound") and e.rate < lo.rate - ORDER_TOL:
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

    def full_states(self) -> list[np.ndarray]:
        m = self.sigma_states[0].dim
        n = self.tau_states[0].dim
        out = []
        for s, t in zip(self.sigma_states, self.tau_states):
            full = np.zeros((m + n, m + n), dtype=complex)
            full[:m, :m] = self.epsilon * s.matrix
            full[m:, m:] = (1.0 - self.epsilon) * t.matrix
            out.append(full)
        return out

    def as_ensemble(self) -> Ensemble:
        return Ensemble.from_lists(self.probs.copy(), self.full_states())


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
        if defect > SHAPE_TOL:
            raise TauMismatch(
                f"tau blocks must coincide: state {i} deviates by {defect:.3e}"
            )
    eps = block.epsilon
    sigma_bar = Ensemble.from_lists(block.probs.copy(), block.sigma_states).average()
    tau_bar = Ensemble.from_lists(block.probs.copy(), block.tau_states).average()
    h_split = shannon_entropy([eps, 1.0 - eps])
    s_sigma = vn_entropy(sigma_bar)
    s_tau = vn_entropy(tau_bar)
    s_rho_bar = upper_bound_rate(block.as_ensemble())

    decomposition = h_split + eps * s_sigma + (1.0 - eps) * s_tau
    if abs(s_rho_bar - decomposition) > SHAPE_TOL:
        raise ValidationError(
            "block entropy decomposition failed: S(mean) = "
            f"{s_rho_bar:.12g} vs H(eps) + eps*S(sigma) + (1-eps)*S(tau) = {decomposition:.12g}"
        )
    return Example11Rate(
        scheme_rate=h_split + eps * s_sigma,
        s_rho_bar=s_rho_bar,
        saving=(1.0 - eps) * s_tau,
    )


def _mutually_commuting(ensemble: Ensemble, tol: float = SHAPE_TOL) -> bool:
    mats = [s.matrix for s in ensemble.states]
    return all(
        commutator_norm(mats[i], mats[j]) <= tol
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    )


def _detect_block_split(ensemble: Ensemble) -> BlockDiagonalEnsemble | None:
    """Find a block split with identical lower blocks, minimising the scheme rate."""
    d = ensemble.dim
    best: tuple[float, BlockDiagonalEnsemble] | None = None
    for m in range(1, d):
        mats = [s.matrix for s in ensemble.states]
        if any(
            np.max(np.abs(s[:m, m:])) > SHAPE_TOL or np.max(np.abs(s[m:, :m])) > SHAPE_TOL
            for s in mats
        ):
            continue
        eps_each = [float(np.real(np.trace(s[:m, :m]))) for s in mats]
        eps = eps_each[0]
        if not (SHAPE_TOL < eps < 1.0 - SHAPE_TOL):
            continue
        if any(abs(e - eps) > SHAPE_TOL for e in eps_each):
            continue
        try:
            sigma = [s[:m, :m] / eps for s in mats]
            tau = [s[m:, m:] / (1.0 - eps) for s in mats]
            block = BlockDiagonalEnsemble.build(eps, ensemble.probs.copy(), sigma, tau)
            rate = example11_rate(block)
        except (TauMismatch, ValidationError, DomainError):
            continue
        if best is None or rate.scheme_rate < best[0]:
            best = (rate.scheme_rate, block)
    return None if best is None else best[1]


def _detect_photographic_negative(ensemble: Ensemble) -> int | None:
    d = ensemble.dim
    if len(ensemble) != d or d < 3:
        return None
    if np.max(np.abs(ensemble.probs - 1.0 / d)) > SHAPE_TOL:
        return None
    seen = set()
    for s in ensemble.states:
        if not is_diagonal(s.matrix, tol=SHAPE_TOL):
            return None
        diag = np.real(np.diagonal(s.matrix))
        holes = np.flatnonzero(np.abs(diag) <= SHAPE_TOL)
        if holes.size != 1:
            return None
        i = int(holes[0])
        expected = np.full(d, 1.0 / (d - 1))
        expected[i] = 0.0
        if np.max(np.abs(diag - expected)) > SHAPE_TOL:
            return None
        seen.add(i)
    return d if len(seen) == d else None


def _coin_source_from_qubit_pair(ensemble: Ensemble) -> CoinSource | None:
    if ensemble.dim != 2 or len(ensemble) != 2 or not _mutually_commuting(ensemble):
        return None
    r1, r2 = ensemble.states
    from .purify import _common_diagonal

    try:
        p, q = _common_diagonal(r1, r2, None)
    except ValidationError:
        # First state may be degenerate; the second state's eigenbasis works
        # just as well for a commuting pair.
        try:
            q, p = _common_diagonal(r2, r1, None)
        except ValidationError:
            return None
    return CoinSource(
        p1=float(ensemble.probs[0]),
        p2=float(ensemble.probs[1]),
        alpha1=float(np.clip(p[0], 0.0, 1.0)),
        alpha2=float(np.clip(q[0], 0.0, 1.0)),
    )


def rate_report(ensemble: Ensemble, label: str = "ensemble") -> RateReport:
    """Bounds plus scheme rates for every recognised special ensemble shape.

    Recognition is structural with tolerance 1e-8; anything unrecognised
    degrades gracefully to a bounds-only report.
    """
    entries = [
        RateEntry("mean-state entropy S", upper_bound_rate(ensemble), "upper_bound"),
        RateEntry("Holevo quantity chi", lower_bound_rate(ensemble), "lower_bound"),
        # Visible coding can always just name the state at the prior's entropy.
        RateEntry("visible state-identity coding H(p)",
                  shannon_entropy(ensemble.probs), "scheme_rate"),
    ]

    if len(ensemble) == 2 and _mutually_commuting(ensemble):
        coin = _coin_source_from_qubit_pair(ensemble)
        if coin is not None:
            entries.append(
                RateEntry("three-message protocol Xi", xi_rate(coin), "scheme_rate")
            )
        try:
            entries.append(
                RateEntry(
                    "canonical purification scheme",
                    two_state_purification_rate(ensemble),
                    "scheme_rate",
                )
            )
        except ValidationError:
            pass

    block = _detect_block_split(ensemble)
    if block is not None:
        entries.append(
            RateEntry(
                "block-diagonal scheme (shared tau)",
                example11_rate(block).scheme_rate,
                "scheme_rate",
            )
        )

    pn_dim = _detect_photographic_negative(ensemble)
    if pn_dim is not None:
        from .purify import photographic_negative_report

        entries.append(
            RateEntry(
                "photographic-negative purification mixture",
                photographic_negative_report(pn_dim).q,
                "scheme_rate",
            )
        )

    return RateReport.from_entries(label, entries)
