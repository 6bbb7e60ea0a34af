"""Classical analogue: probability-vector channels and the two-coin protocol.

A source picks one of two biased coins (heads probabilities alpha1, alpha2
with priors p1, p2), tosses it once, and hands the outcome to the sender.  The
three-message protocol forwards a compressed description whose per-position
output law exactly matches the chosen coin, at a rate Xi that can beat both
the average-coin entropy and the coin-identity entropy.

A source's rate report is ``rates.rate_report(src.as_ensemble())``: the coins
are a commuting qubit pair, whose report carries S, chi, H(p), Xi and the
pair's purification rate.  This module imports neither ``rates`` nor ``purify``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .measures import Ensemble, as_prob_vector, shannon_entropy
from .sampling import block_generator
from .tolerance import UNIT_TOL, whole_number

#: Message codes in protocol traces.
M0, M1, M2 = 0, 1, 2
#: Output codes: tails 0, heads 1.
TAILS, HEADS = 0, 1

#: Positions simulated per independent random stream: block b draws from
#: ``block_generator(seed, b)``, so the trace depends only on the seed.
BLOCK_SIZE = 4096
#: Most positions one simulation runs: its three int8 traces take 30 MB here.
TOSS_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Column-stochastic matrix: a classical channel on probability vectors."""

    entries: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "StochasticMatrix":
        a = np.asarray(m, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValidationError(f"stochastic matrix must be 2-D and non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValidationError("stochastic matrix: entries must be finite")
        if not UNIT_TOL.admits(-np.min(a)):
            raise ValidationError(f"stochastic matrix has negative entry {np.min(a):.3e}")
        col_sums = a.sum(axis=0)
        worst = float(np.max(np.abs(col_sums - 1.0)))
        if not UNIT_TOL.admits(worst):
            raise ValidationError(
                f"stochastic matrix columns must sum to 1 (max deviation {worst:.3e})"
            )
        a = np.clip(a, 0.0, None)
        a.setflags(write=False)
        return cls(a)


def apply_channel(channel: StochasticMatrix, p) -> np.ndarray:
    """p_out = A p_in for a column-stochastic A."""
    vec = as_prob_vector(p, "channel input")
    a = channel.entries
    if a.shape[1] != vec.size:
        raise DimensionMismatch(
            f"channel expects input length {a.shape[1]}, got {vec.size}"
        )
    out = a @ vec
    return out / out.sum()


@dataclass(frozen=True)
class CoinSource:
    """Two biased coins with prior probabilities; heads probabilities alpha1, alpha2."""

    p1: float
    p2: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("p1", "p2", "alpha1", "alpha2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"coin source field {name} = {v} outside [0, 1]")
        if not UNIT_TOL.admits(abs(self.p1 + self.p2 - 1.0)):
            raise ValidationError(
                f"coin priors must sum to 1 (p1 + p2 = {self.p1 + self.p2})"
            )

    def average_heads(self) -> float:
        return self.p1 * self.alpha1 + self.p2 * self.alpha2

    def as_ensemble(self) -> Ensemble:
        """The coins as commuting qubit states diag(alpha_i, 1 - alpha_i)."""
        return Ensemble.from_lists(
            [self.p1, self.p2],
            [
                np.diag([self.alpha1, 1.0 - self.alpha1]).astype(complex),
                np.diag([self.alpha2, 1.0 - self.alpha2]).astype(complex),
            ],
        )


def orient_coins(src: CoinSource) -> tuple[CoinSource, bool]:
    """Relabel so alpha2 >= alpha1 (the protocol's convention); reports the swap."""
    if src.alpha2 >= src.alpha1:
        return src, False
    return (
        replace(src, p1=src.p2, p2=src.p1, alpha1=src.alpha2, alpha2=src.alpha1),
        True,
    )


def example9_message_distribution(src: CoinSource) -> np.ndarray:
    """Distribution over the three messages (shared, coin-1, coin-2).

    The shared message goes out with probability 1 - alpha2 + alpha1 whatever
    the coin; otherwise the coin identity is sent.
    """
    s, _ = orient_coins(src)
    gap = s.alpha2 - s.alpha1
    dist = np.array([1.0 - gap, s.p1 * gap, s.p2 * gap])
    return dist / dist.sum()


def xi_rate(src: CoinSource) -> float:
    """Protocol rate Xi: entropy of the three-message distribution, bits/coin toss."""
    return shannon_entropy(example9_message_distribution(src))


def analytic_output_law(src: CoinSource) -> np.ndarray:
    """Exact per-coin heads probability from the two-branch total-probability sum.

    Row i is (P(heads | coin i), P(tails | coin i)) after coding and decoding,
    in the caller's original coin labelling.  Computed as the literal branch
    sum, so it serves as a closed-form check that the protocol reproduces each
    coin's law exactly.
    """
    s, swapped = orient_coins(src)
    m0 = 1.0 - s.alpha2 + s.alpha1
    identity_prob = s.alpha2 - s.alpha1
    if m0 > 0.0:
        heads_if_m0 = s.alpha1 / m0
    else:
        heads_if_m0 = 0.0  # branch has probability 0; value never used
    # Coin 1: shared branch, else message M1 -> tails.
    h1 = m0 * heads_if_m0 + identity_prob * 0.0
    # Coin 2: shared branch, else message M2 -> heads.
    h2 = m0 * heads_if_m0 + identity_prob * 1.0
    law = np.array([[h1, 1.0 - h1], [h2, 1.0 - h2]])
    return law[::-1] if swapped else law


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Runtime record of one protocol simulation (all arrays share one length)."""

    coin_sequence: np.ndarray  # values 1 / 2, in the caller's original labelling
    message_sequence: np.ndarray  # values M0 / M1 / M2
    output_sequence: np.ndarray  # values HEADS / TAILS
    seed: int
    swapped: bool

    def __post_init__(self):
        n = len(self.coin_sequence)
        if len(self.message_sequence) != n or len(self.output_sequence) != n:
            raise ValidationError("protocol trace sequences must share one length")

    def __len__(self) -> int:
        return len(self.coin_sequence)

    def empirical_heads_given_coin(self) -> dict[int, float]:
        out = {}
        for coin in (1, 2):
            mask = self.coin_sequence == coin
            n = int(mask.sum())
            out[coin] = float(self.output_sequence[mask].sum() / n) if n else float("nan")
        return out


def example9_simulate(src: CoinSource, n_tosses: int, seed: int = 0) -> ProtocolTrace:
    """Simulate the three-message protocol for ``n_tosses`` positions.

    Randomness is drawn from one counter-based stream per position block, so
    the trace depends only on ``seed``.  The degenerate corner alpha1 = 0,
    alpha2 = 1 runs through the identity messages only (the shared message
    has probability zero).
    """
    n_tosses = whole_number(n_tosses, "n_tosses", 1, cap=("TOSS_CAP", TOSS_CAP))
    s, swapped = orient_coins(src)
    m0_prob = 1.0 - s.alpha2 + s.alpha1
    heads_if_m0 = s.alpha1 / m0_prob if m0_prob > 0.0 else 0.0

    coins = np.empty(n_tosses, dtype=np.int8)
    messages = np.empty(n_tosses, dtype=np.int8)
    outputs = np.empty(n_tosses, dtype=np.int8)

    for block_start in range(0, n_tosses, BLOCK_SIZE):
        block = block_start // BLOCK_SIZE
        rng = block_generator(seed, block)
        m = min(BLOCK_SIZE, n_tosses - block_start)
        u_coin = rng.random(m)
        u_msg = rng.random(m)
        u_out = rng.random(m)

        coin = np.where(u_coin < s.p1, 1, 2).astype(np.int8)
        shared = u_msg < m0_prob
        msg = np.where(shared, M0, np.where(coin == 1, M1, M2)).astype(np.int8)
        out = np.where(
            msg == M0,
            np.where(u_out < heads_if_m0, HEADS, TAILS),
            np.where(msg == M2, HEADS, TAILS),
        ).astype(np.int8)

        sl = slice(block_start, block_start + m)
        coins[sl], messages[sl], outputs[sl] = coin, msg, out

    if swapped:
        coins = np.where(coins == 1, 2, 1).astype(np.int8)
    for a in (coins, messages, outputs):
        a.setflags(write=False)
    return ProtocolTrace(coins, messages, outputs, seed=seed, swapped=swapped)
