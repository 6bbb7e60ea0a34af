"""Seeded random generation of states, ensembles, and measurements.

Every sampler takes an explicit ``numpy.random.Generator`` so property suites
and Monte Carlo runs are reproducible and safe to parallelise (one generator
per worker, derived from the run seed).
"""

from __future__ import annotations

import numpy as np

from .measures import Ensemble, Povm
from .qmat import DensityOperator, PureState, dagger


def generator(seed: int) -> np.random.Generator:
    """Generator on the counter-based Philox stream for a run seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def block_generator(seed: int, block: int) -> np.random.Generator:
    """Independent stream for one position block of a simulation.

    Streams are keyed by (seed, block), so the sequence drawn for a block does
    not depend on how many workers consume the blocks.
    """
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
    )


def _ginibre(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    v = _ginibre(dim, 1, rng).reshape(-1)
    return PureState.from_vector(v / np.linalg.norm(v))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Ginibre-induced random mixed state of the given dimension (full rank by default)."""
    r = dim if rank is None else rank
    g = _ginibre(dim, r, rng)
    m = g @ dagger(g)
    return DensityOperator.from_matrix(m / np.real(np.trace(m)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(_ginibre(dim, dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_prob_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    return p / p.sum()


def random_ensemble(
    dim: int, n_states: int, rng: np.random.Generator, rank: int | None = None
) -> Ensemble:
    probs = random_prob_vector(n_states, rng)
    states = [random_density(dim, rng, rank=rank) for _ in range(n_states)]
    return Ensemble.from_lists(probs, states)


def perturbed_ensemble(base: Ensemble, strength: float, rng: np.random.Generator) -> Ensemble:
    """Same probabilities, each state mixed with a random state at weight ``strength``."""
    states = [(1.0 - strength) * x + strength * random_density(base.dim, rng).matrix
              for x in base.matrices]
    return Ensemble.from_lists(base.probs.copy(), states)


def random_commuting_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityOperator, DensityOperator, np.ndarray]:
    """Two states diagonal in one Haar-random basis; returns (rho1, rho2, basis)."""
    u = random_unitary(dim, rng)
    p = random_prob_vector(dim, rng)
    q = random_prob_vector(dim, rng)
    r1 = DensityOperator.from_matrix((u * p) @ dagger(u))
    r2 = DensityOperator.from_matrix((u * q) @ dagger(u))
    return r1, r2, u


def random_povm(dim: int, n_elements: int, rng: np.random.Generator) -> Povm:
    """Random POVM: Ginibre positives normalised so the elements resolve identity."""
    raw = [None] * n_elements
    for i in range(n_elements):
        g = _ginibre(dim, dim, rng)
        raw[i] = g @ dagger(g)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ dagger(vecs)
    elements = [inv_root @ e @ dagger(inv_root) for e in raw]
    return Povm.from_elements(elements)


def random_subspace(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis (columns) of a Haar-random ``rank``-dimensional subspace."""
    return random_unitary(dim, rng)[:, :rank]


def random_state_on_subspace(
    basis: np.ndarray, rng: np.random.Generator
) -> DensityOperator:
    """A random density operator supported on the span of the given columns."""
    k = basis.shape[1]
    inner = random_density(k, rng)
    return DensityOperator.from_matrix(basis @ inner.matrix @ dagger(basis))
