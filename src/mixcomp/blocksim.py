"""Small-block coding simulator: typical subspaces, project-and-patch, scores.

A block source emits length-N product strings from a base ensemble.  The
simulator scores encode/decode schemes under two criteria: global fidelity
(whole-block Bures-Uhlmann fidelity, probability weighted) and local fidelity
(product of per-position marginal fidelities).  It also computes the
subspace-support fidelity ceiling, which is what forces the rate of any
unitary-decoded scheme up to the mean-state entropy.

Rate conventions for a target of q qubits/signal at block length N:

* a realisable coding scheme occupies whole channel qubits, so its subspace
  has 2^ceil(qN) dimensions (capped at the full space);
* the fidelity ceiling is computed against ceil(2^(qN)) retained eigenvalues,
  the integer count closest to the raw dimension budget from above, so the
  bound is never understated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow, DomainError, ValidationError
from .measures import Ensemble, fidelity, sqrt_fidelity_from_roots, vn_entropy
from .qmat import (
    DIM_CAP,
    DensityLike,
    DensityOperator,
    _eig,
    _marginals,
    _readonly,
    _spectrum_root,
    as_density,
    dagger,
    is_diagonal,
    kron,
)
from .sampling import block_generator
from .tolerance import PARAM_EPS

# Work one scoring call may ask for (see _plan), in steps of about 1 ns of
# one call on one core: 2^36 steps, about 70 s.
WORK_BUDGET = 2**36
# Elements in the largest array the diagonal engine builds (see _plan), in any
# Kronecker-power weight vector and in the Monte Carlo draws (n_samples x N
# picks, also checked in _plan): 2^22 values of 8 bytes, 32 MiB.
DIAGONAL_TABLE_BUDGET = 2**22
DEFAULT_MC_SAMPLES = 2000
MC_BLOCK = 256


def _check_rate(rate: float) -> None:
    # Written so that NaN fails, like every check.
    if not 0.0 <= rate < math.inf:
        raise DomainError(f"rate must be finite and nonnegative, got {rate}")


def scheme_subspace_dim(rate: float, n_blocks: int, full_dim: int) -> int:
    """Channel dimension of a scheme using whole qubits: 2^ceil(rate*N), capped."""
    _check_rate(rate)
    qubits = rate * n_blocks - PARAM_EPS
    # 2^ceil(qubits) reaches d^N once ceil(qubits) >= ceil(log2 d^N): the whole space.
    if qubits > (full_dim - 1).bit_length() - 1:
        return int(full_dim)
    return 2 ** max(math.ceil(qubits), 0)


def ceiling_subspace_dim(rate: float, n_blocks: int, full_dim: int) -> int:
    """Retained-eigenvalue count for the fidelity ceiling: ceil(2^(rate*N)), capped."""
    _check_rate(rate)
    bits = rate * n_blocks
    if bits >= math.log2(full_dim):
        return int(full_dim)
    # 2.0 ** bits overflows from 2^1024 on: scale by 2^-s and shift the count back.
    s = max(0, math.floor(bits) - 1023)
    return int(min(max(1, math.ceil(2.0 ** (bits - s) * (1.0 - PARAM_EPS)) << s), full_dim))


@dataclass(frozen=True, eq=False)
class BlockSource:
    """Base ensemble emitted independently at each of ``n_blocks`` positions."""

    base: Ensemble
    n_blocks: int

    @classmethod
    def build(cls, base: Ensemble, n_blocks: int) -> "BlockSource":
        # Written so that NaN and inf fail; 2.0 is a block length, 2.5 is not.
        if not (1 <= n_blocks < math.inf and n_blocks == math.floor(n_blocks)):
            raise DomainError(f"n_blocks must be a whole number >= 1, got {n_blocks}")
        return cls(base, int(n_blocks))

    @property
    def full_dim(self) -> int:
        return self.base.dim**self.n_blocks

    def string_prob(self, string: tuple[int, ...]) -> float:
        return float(np.prod([self.base.probs[i] for i in string]))


def kron_power_vector(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector (qmat.kron), at most DIAGONAL_TABLE_BUDGET elements."""
    v = np.asarray(v, dtype=float)
    if v.size**n > DIAGONAL_TABLE_BUDGET:
        raise DimensionOverflow(
            f"{v.size}^{n} weights exceed DIAGONAL_TABLE_BUDGET {DIAGONAL_TABLE_BUDGET}"
        )
    return kron([v] * n)


@dataclass(frozen=True, eq=False)
class TypicalSubspace:
    """Span of retained product eigenvectors of a reference state, plus its tail weight.

    The subspace is coordinate aligned in a product frame: ``frame`` is the
    d x d unitary applied to each of the n tensor factors of the
    ``full_dim = d^n`` space (``None`` means the computational basis), and
    ``coordinates`` are the retained indices in that frame, heaviest first.
    ``eta`` is the reference state's weight outside the subspace; the patch
    state is the heaviest retained vector.
    """

    full_dim: int
    eta: float
    coordinates: np.ndarray
    frame: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, in the computational basis."""
        if self.full_dim > DIM_CAP:
            raise DimensionOverflow(f"projector dimension {self.full_dim} exceeds DIM_CAP {DIM_CAP}")
        u = _frame_unitary(self)
        if u is None:
            u = np.eye(self.full_dim, dtype=complex)
        cols = u[:, self.coordinates]
        return cols @ dagger(cols)


def _frame_unitary(subspace: TypicalSubspace) -> np.ndarray | None:
    """The n-fold Kronecker power of the frame, or None for the computational basis."""
    u = subspace.frame
    if u is None:
        return None
    n = round(math.log(subspace.full_dim) / math.log(u.shape[0]))
    return kron([u] * n)


def _weights_and_frame(rho: DensityOperator, diagonal) -> tuple[np.ndarray, np.ndarray | None]:
    """Clipped diagonal and no frame if the states are ``diagonal``, else ``rho.eigenpairs()``."""
    if diagonal:
        return np.maximum(np.real(np.diagonal(rho.matrix)), 0.0), None
    vals, vecs = rho.eigenpairs()
    return vals, _readonly(vecs)


def typical_subspace(reference: DensityLike, subspace_dim: int) -> TypicalSubspace:
    """Subspace of the ``subspace_dim`` largest-eigenvalue eigenvectors of a state.

    The frame is the state's eigenbasis, or the computational basis when the
    state is diagonal.  The eigenbasis is the state's ``eigenpairs``: that of
    its validation when the state kept it, a raw array's included.
    """
    rho = as_density(reference)
    w, frame = _weights_and_frame(rho, rho.is_diagonal)
    return replace(typical_subspace_from_weights(w, subspace_dim), frame=frame)


def typical_subspace_from_weights(weights: np.ndarray, subspace_dim: int) -> TypicalSubspace:
    """Coordinate-aligned subspace retaining the heaviest diagonal weights.

    Ties are broken by original index order (stable sort) so the retained set
    is deterministic.
    """
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValidationError("typical subspace weights must be finite")
    if not (1 <= subspace_dim <= w.size):
        raise DomainError(f"subspace_dim must lie in [1, {w.size}], got {subspace_dim}")
    order = np.argsort(-w, kind="stable")
    kept = order[:subspace_dim]
    eta = float(max(0.0, 1.0 - w[kept].sum()))
    kept = np.ascontiguousarray(kept)
    kept.setflags(write=False)
    return TypicalSubspace(full_dim=int(w.size), eta=eta, coordinates=kept)


def project_and_patch(rho: DensityLike, subspace: TypicalSubspace) -> DensityOperator:
    """Compress a state into the subspace: Pi rho Pi plus the lost weight on the patch.

    ``rho`` is given in the computational basis; it is rotated into the
    subspace's frame, projected onto the kept coordinates and rotated back.
    The patched weight is the state's own tail tr((I - Pi) rho), so the output
    has unit trace; its fidelity with the input is at least (1 - tail)^2.
    """
    r = as_density(rho)
    if r.dim != subspace.full_dim:
        raise DimensionMismatch(
            f"state dimension {r.dim} does not match subspace ambient dimension "
            f"{subspace.full_dim}"
        )
    u = _frame_unitary(subspace)
    a = r.matrix if u is None else dagger(u) @ r.matrix @ u
    kept = subspace.coordinates
    out = np.zeros_like(a)
    out[np.ix_(kept, kept)] = a[np.ix_(kept, kept)]
    tail = max(0.0, 1.0 - float(np.real(np.trace(out))))
    out[kept[0], kept[0]] += tail
    if u is not None:
        out = u @ out @ dagger(u)
    # The check's eigendecomposition is dropped, so the scorer solves the output
    # again: the benchmark pins five solves per dense string, and handing the
    # spectrum on belongs with the k x k scorer (ROADMAP item 3).
    return DensityOperator._wrap(DensityOperator.from_matrix((out + dagger(out)) / 2.0).matrix)


def project_and_patch_diagonal(diag: np.ndarray, subspace: TypicalSubspace) -> np.ndarray:
    """Diagonal-vector form of project-and-patch, in the subspace's frame."""
    out = np.zeros_like(diag)
    kept = subspace.coordinates
    out[kept] = diag[kept]
    out[kept[0]] += max(0.0, 1.0 - out.sum())
    return out


def fidelity_subspace_upper_bound(rho: DensityLike, subspace_dim: int) -> float:
    """Largest fidelity any state supported on ``subspace_dim`` dimensions can reach.

    Equals the sum of the state's ``subspace_dim`` largest eigenvalues.
    """
    return power_spectrum_top_sum(rho, 1, subspace_dim)


def power_spectrum_top_sum(base_avg: DensityLike, n_blocks: int, retained: int) -> float:
    """Sum of the ``retained`` largest eigenvalues of the N-fold power of a state.

    The eigenvalues of the power are N-fold products of the base eigenvalues,
    so no block-sized matrix is ever materialised; their d^N vector is bounded
    by DIAGONAL_TABLE_BUDGET, like the scheme's (see kron_power_vector).
    """
    w = kron_power_vector(as_density(base_avg).eigenpairs()[0], n_blocks)
    if not (1 <= retained <= w.size):
        raise DomainError(f"retained count {retained} outside [1, {w.size}]")
    top = np.partition(w, -retained)[-retained:]
    return float(min(1.0, top.sum()))


def lemma_a1_ceiling(source: BlockSource, rate: float) -> tuple[float, int]:
    """Fidelity ceiling (and retained count) at a rate, for the block mean state."""
    k = ceiling_subspace_dim(rate, source.n_blocks, source.full_dim)
    return power_spectrum_top_sum(source.base.average(), source.n_blocks, k), k


class Scheme:
    """Encode/decode pair collapsed to its net action on block states.

    ``frame`` is the d x d unitary in which the scheme reads block states, one
    copy per tensor factor; ``None`` means the computational basis.
    """

    channel_dim: int = 0
    frame: np.ndarray | None = None

    def apply(self, sigma: DensityOperator) -> DensityOperator:
        """Output for a block state written in the scheme's frame."""
        raise NotImplementedError


class FixedOutputScheme(Scheme):
    """Decode every block to one fixed state (nothing need be sent)."""

    def __init__(self, output: DensityLike):
        self.output = as_density(output)
        self.channel_dim = 1

    def apply(self, sigma: DensityOperator) -> DensityOperator:
        return self.output


class ProjectPatchScheme(Scheme):
    """Project into a typical subspace of the block mean state, patching the tail."""

    def __init__(self, subspace: TypicalSubspace):
        self.subspace = subspace
        self.channel_dim = subspace.dim
        self.frame = subspace.frame
        # The same subspace seen from inside its frame: plain coordinates.
        self._kept = replace(subspace, frame=None)

    def apply(self, sigma: DensityOperator) -> DensityOperator:
        return project_and_patch(sigma, self._kept)


class IdentityScheme(ProjectPatchScheme):
    """Transmit the block untouched: project-and-patch keeping every coordinate (eta = 0).

    Its coordinate array is bounded like any scheme's weights (see
    kron_power_vector).
    """

    def __init__(self, full_dim: int):
        full_dim = int(full_dim)
        if full_dim > DIAGONAL_TABLE_BUDGET:
            raise DimensionOverflow(
                f"{full_dim} coordinates exceed DIAGONAL_TABLE_BUDGET {DIAGONAL_TABLE_BUDGET}"
            )
        kept = np.arange(full_dim)
        kept.setflags(write=False)
        super().__init__(TypicalSubspace(full_dim=full_dim, eta=0.0, coordinates=kept))


def project_patch_scheme(source: BlockSource, rate: float) -> ProjectPatchScheme:
    """Project-and-patch scheme at a qubits/signal rate for this source.

    The subspace spans the heaviest product eigenvectors of the block mean
    state, so it is a set of kept coordinates in the frame of the base mean
    state's eigenvectors.  A source of diagonal states keeps the computational
    basis as its frame.  No block-sized matrix is built here.  The base mean
    state keeps its eigenpairs (``Ensemble.average``), so this scheme, its
    plan and its ceiling share one eigh call.
    """
    k = scheme_subspace_dim(rate, source.n_blocks, source.full_dim)
    w, frame = _weights_and_frame(source.base.average(), source.base.diagonal.all())
    sub = typical_subspace_from_weights(kron_power_vector(w, source.n_blocks), k)
    return ProjectPatchScheme(replace(sub, frame=frame))


@dataclass(frozen=True)
class FidelityScore:
    value: float
    stderr: float | None
    method: str
    n_terms: int


def _in_frame(source: BlockSource, frame: np.ndarray | None) -> BlockSource:
    """The source with its base stack rotated once into a scheme's frame, in one product.

    Global and local fidelities are unchanged by a product unitary, so scores
    computed in the frame equal scores in the computational basis.
    """
    if frame is None:
        return source
    rotated = dagger(frame) @ source.base.matrices @ frame
    # Symmetrised: an ensemble's rows are exactly Hermitian.
    return BlockSource(Ensemble._of(source.base.probs, (rotated + dagger(rotated)) / 2.0),
                       source.n_blocks)


def _count(x: int) -> str:
    """A size for a message: in full below 2^64, else as a power of 2 (str refuses 4,300 digits)."""
    return str(x) if x < 2**64 else f"2^{math.log2(x):.10g}"


def _plan(source: BlockSource, keeps_coordinates: bool, mode: str,
          n_samples: int, workers: int) -> tuple[bool, bool, bool]:
    """Scoring path of a source written in the scheme's frame: (diagonal, tabled, exact).

    ``diagonal``: the diagonal engine applies, because every base state is
    diagonal and the scheme keeps coordinates of this source
    (``keeps_coordinates``).  ``tabled``: the engine's tables of all strings,
    the largest max(m, d)^N * d elements, fit the budget.  ``exact``: the
    sweep is exact, not Monte Carlo, which draws all its n_samples x N picks
    first.  Every refusal of a scoring request is made here, before any
    string is drawn or scored: memory (DIAGONAL_TABLE_BUDGET) first, then
    WORK_BUDGET on the strings scored one at a time (every string of nonzero
    probability, or at most n_samples) times 2^18 steps plus N d^N for the
    one-row engine or 8 D^3 for a dense string's five D x D solves.  Tables
    are within it by their memory bound.
    """
    if mode not in ("auto", "exact", "mc"):
        raise DomainError(f"mode must be auto|exact|mc, got {mode!r}")
    if not n_samples >= 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if not workers >= 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    n, D = source.n_blocks, source.full_dim
    elements = max(len(source.base), source.base.dim) ** n * source.base.dim
    diagonal = keeps_coordinates and bool(source.base.diagonal.all())
    tabled = diagonal and elements <= DIAGONAL_TABLE_BUDGET
    reason = lambda: (f"the diagonal tables need {_count(elements)} elements, over the budget "
                      f"{DIAGONAL_TABLE_BUDGET}" if diagonal else "no diagonal fast path applies")
    # The engine builds a d^N kept-set mask (smaller than its tables).
    if diagonal and D > DIAGONAL_TABLE_BUDGET:
        raise DimensionOverflow(
            f"kept-set mask of {_count(D)} elements exceeds DIAGONAL_TABLE_BUDGET "
            f"{DIAGONAL_TABLE_BUDGET} and {reason()}"
        )
    strings = int(np.count_nonzero(source.base.probs)) ** n
    per_string = 2**18 + (n * D if diagonal else 8 * D**3)
    exact = mode == "exact" or (mode == "auto" and (tabled or strings * per_string <= WORK_BUDGET))
    if not exact and n_samples * n > DIAGONAL_TABLE_BUDGET:
        raise DimensionOverflow(
            f"Monte Carlo draws of {n_samples} samples x {n} picks exceed "
            f"DIAGONAL_TABLE_BUDGET {DIAGONAL_TABLE_BUDGET}"
        )
    scored = strings if exact else min(n_samples, strings)
    if not tabled and scored * per_string > WORK_BUDGET:
        raise DimensionOverflow(
            f"{'exact sweep' if exact else 'Monte Carlo'} work of {_count(scored)} strings x "
            f"{_count(per_string)} steps exceeds WORK_BUDGET {WORK_BUDGET} and {reason()}"
        )
    return diagonal, tabled, exact


def project_patch_plan(source: BlockSource, mode: str, n_samples: int = DEFAULT_MC_SAMPLES,
                       workers: int = 1) -> tuple[bool, bool, bool]:
    """How the project-and-patch scheme of this source would be scored in a mode.

    It needs only the base states, so a request over the memory or work
    bounds of ``_plan``, or one with a sample or worker count below 1, is
    refused before the scheme's d^N weights are built.
    """
    _, frame = _weights_and_frame(source.base.average(), source.base.diagonal.all())
    return _plan(_in_frame(source, frame), True, mode, n_samples, workers)


# Global and local score of every string; local is None when not wanted.
_Tables = tuple[np.ndarray, np.ndarray | None]


def _diagonal_inputs(source: BlockSource,
                     scheme: ProjectPatchScheme) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Base diagonals (m x d), kept-set mask (shape (d,)*N) and patch coordinate x0."""
    d, n = source.base.dim, source.n_blocks
    P = np.clip(source.base.matrices.diagonal(0, -2, -1).real, 0.0, None)
    kept = scheme.subspace.coordinates
    mask = np.zeros(source.full_dim)
    mask[kept] = 1.0
    return P, mask.reshape((d,) * n), np.unravel_index(kept[0], (d,) * n)


def _contract_step(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Eat the leading x axis of t against the rows of f and append their axis.

    This is np.tensordot(t, f, axes=([0], [1])), step for step, without its
    argument handling, which costs more than the product on one-row factors.
    """
    return np.dot(t.transpose((*range(1, t.ndim), 0)).reshape(-1, f.shape[1]),
                  f.T).reshape(t.shape[1:] + (len(f),))


def _leave_one_out(factors: list[np.ndarray], t: np.ndarray, lo: int, hi: int):
    """Yield (j, T_j) for each position j in lo..hi-1, the positions open in t.

    t has axes (x_lo..x_{hi-1}, s_hi..s_{N-1}, s_0..s_{lo-1}), 0-based.
    Contracting the lower half of the open positions leaves the tensor open
    at the upper half, and the other way round, both in the same layout;
    each is split again down to one open position.  That is N ceil(log2 N)
    contraction steps at most, and one tensor held per level.
    """
    n = len(factors)
    while hi - lo > 1:
        mid, k = (lo + hi) // 2, hi - lo
        yield from _leave_one_out(factors, reduce(_contract_step, factors[lo:mid], t), mid, hi)
        # Contract mid..hi-1, then move their s axes ahead of the others.
        o = mid - lo
        t = reduce(_contract_step, factors[mid:hi],
                   t.transpose((*range(o, k), *range(o), *range(k, n))))
        t = t.transpose((*range(o), *range(n - k + o, n), *range(o, n - k + o)))
        hi = mid
    yield lo, t


def _diagonal_tables(factors: list[np.ndarray], mask: np.ndarray, x0: tuple,
                     want_local: bool) -> _Tables:
    """Global and local score of every string the factors index, as arrays (s_1..s_N).

    ``factors[j]`` holds the diagonals a string may carry at position j, one
    per row: every base diagonal for the tables of all strings, or the one
    diagonal of a single string.  Contracting the kept-set mask with them one
    position at a time gives each string's mass inside the subspace.  No
    string's d^N vector is built.  Local scores are None unless wanted.

    Local scores: contracting every position but j, with x_j left open,
    gives T_j(s_-j, x_j) = sum over x_-j of mask(x) prod_{i != j} f_i[s_i, x_i].
    They come from ``_leave_one_out``, a balanced split in at most
    N ceil(log2 N) contraction steps, with x_j leading and the s axes rotated
    to (s_{j+1}..s_N, s_1..s_{j-1}): each is scored in that layout and turned
    back to (s_1..s_N) by one transpose.

    The output marginal at j is f_j[s_j, x_j] T_j(s_-j, x_j) plus the tail at
    x0_j, of total mass + tail = max(mass, 1).  Off x0_j, sqrt(f_j T_j f_j) =
    f_j sqrt(T_j), so with p0 = f_j[s_j, x0_j] its Bhattacharyya sum with
    f_j[s_j] is

        S = sum over x != x0_j of f_j[s_j, x] sqrt(T_j(., x))
            + sqrt(p0 (p0 T_j(., x0_j) + tail)),

    one matrix product and a correction, and the factor is
    min(1, S^2 / max(mass, 1)).
    """
    mass = reduce(_contract_step, factors, mask)
    sig0 = reduce(np.multiply.outer, [f[:, x] for f, x in zip(factors, x0)])
    tail = np.maximum(0.0, 1.0 - mass)
    # The output equals the string on the kept set, plus the tail at x0.
    g = np.minimum(1.0, (mass - sig0 + np.sqrt(sig0 * (sig0 + tail))) ** 2)
    del sig0
    if not want_local:
        return g, None
    total = np.maximum(mass, 1.0)
    local = np.ones_like(mass)
    for j, t in _leave_one_out(factors, mask, 0, len(factors)):
        # a counts the strings of the positions before j, whose s axes come last.
        f, x, a = factors[j], x0[j], math.prod(mass.shape[:j])
        off = f.copy()
        off[:, x] = 0.0
        s = np.dot(off, np.sqrt(t, order="C").reshape(len(t), -1))
        p0 = f[:, x:x + 1]
        # tail in the leaf's layout, copied: at j = 0 the reshape is a view.
        at_x0 = tail.reshape(a, -1).T.copy().reshape(s.shape)
        at_x0 += p0 * t[x].reshape(1, -1)
        at_x0 *= p0
        # Leaf-sized arrays go as soon as they are used: 8 MB each at N = 20.
        del t
        s += np.sqrt(at_x0, out=at_x0)
        del at_x0
        s *= s
        s = np.ascontiguousarray(s.reshape(-1, a).T).reshape(mass.shape)
        s /= total
        local *= np.minimum(s, 1.0, out=s)
    return g, local


def _score_string(source: BlockSource, scheme: Scheme, string, want_local: bool,
                  roots: np.ndarray | None = None) -> tuple[float, float]:
    """Global and local score of one string from dense d^N matrices (local 0.0 unless wanted).

    The local score takes the N marginals of the output in one pass and
    scores them against their base states, rows of the base's held stack, as
    one (N, d, d) stack.  ``roots`` are the base states' roots, which a scoring
    call computes once (``Ensemble._roots``); here, when not given.
    """
    sig = DensityOperator._wrap(kron([source.base.matrices[i] for i in string]))
    out = scheme.apply(sig)
    g = fidelity(sig, out)
    if not want_local:
        return g, 0.0
    roots = source.base._roots() if roots is None else roots
    idx = list(string)
    marg = np.stack(_marginals(out.matrix, (source.base.dim,) * source.n_blocks))
    marg_diagonal = np.array([is_diagonal(x) for x in marg])
    marg_roots = _spectrum_root(*_eig(marg, marg_diagonal))
    g_marg = sqrt_fidelity_from_roots(source.base.matrices[idx], roots[idx], marg, marg_roots,
                                      source.base.diagonal[idx] & marg_diagonal)
    return g, math.prod((g_marg**2).tolist())


def _score_distinct(rows: np.ndarray, score: Callable, workers: int) -> np.ndarray:
    """Global and local score of each row's string, as a (2, rows) array.

    Each distinct string is scored once, split over at most
    min(workers, cores, distinct strings) threads, and its scores are
    scattered back in row order.
    """
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    strings = [tuple(int(x) for x in row) for row in distinct]
    workers = min(workers, os.cpu_count() or 1, len(strings))
    if workers > 1:
        # Imported here: the pool's module pulls in logging, which no other path needs.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(score, strings))
    else:
        scored = [score(s) for s in strings]
    return np.ascontiguousarray(np.array(scored)[inverse.reshape(-1)].T)


def _exact_scores(source: BlockSource, method: str, workers: int, tables: _Tables | None,
                  score: Callable) -> tuple[FidelityScore, FidelityScore]:
    """Probability-weighted sums over every string of nonzero probability.

    Without tables, the strings are scored by _score_distinct and p * score is
    summed in string order by a running sum, the rounding of a per-string loop.
    """
    weights = kron_power_vector(source.base.probs, source.n_blocks)
    count = int(np.count_nonzero(weights))
    if tables is not None:
        g_table, l_table = tables
        weights = weights.reshape(g_table.shape)
        total_g = np.sum(weights * g_table)
        total_l = np.sum(weights * l_table) if l_table is not None else 0.0
    else:
        rows = np.argwhere(weights.reshape((len(source.base),) * source.n_blocks))
        scores = weights[weights != 0.0] * _score_distinct(rows, score, workers)
        total_g, total_l = np.cumsum(scores, axis=1)[:, -1]
    clamped = lambda v: FidelityScore(min(1.0, max(0.0, float(v))), None, method, count)
    return clamped(total_g), clamped(total_l)


def _mc_scores(source: BlockSource, n_samples: int, seed: int, workers: int,
               tables: _Tables | None, score: Callable) -> tuple[FidelityScore, FidelityScore]:
    """Seeded Monte Carlo over n_samples strings, drawn in blocks of MC_BLOCK.

    Every block's picks come first, each block from its own stream.  The
    tables are indexed by them; otherwise they are scored by _score_distinct,
    so the estimate equals scoring every sample.
    """
    picks = np.concatenate([
        block_generator(seed, b).choice(len(source.base), p=source.base.probs,
                                        size=(min(MC_BLOCK, n_samples - b * MC_BLOCK),
                                              source.n_blocks))
        for b in range(math.ceil(n_samples / MC_BLOCK))
    ])
    if tables is not None:
        g_table, l_table = tables
        idx = tuple(picks.T)
        gs = g_table[idx]
        ls = l_table[idx] if l_table is not None else np.zeros(n_samples)
    else:
        gs, ls = _score_distinct(picks, score, workers)

    def summarise(xs: np.ndarray) -> FidelityScore:
        mean = float(xs.mean())
        stderr = float(xs.std(ddof=1) / np.sqrt(xs.size)) if xs.size > 1 else 0.0
        return FidelityScore(mean, stderr, "monte-carlo", int(xs.size))

    return summarise(gs), summarise(ls)


def _scores(source: BlockSource, scheme: Scheme, want_local: bool, mode: str,
            n_samples: int, seed: int, workers: int) -> tuple[FidelityScore, FidelityScore]:
    source = _in_frame(source, scheme.frame)
    keeps_coordinates = (isinstance(scheme, ProjectPatchScheme)
                         and scheme.subspace.full_dim == source.full_dim)
    diagonal, tabled, exact = _plan(source, keeps_coordinates, mode, n_samples, workers)
    tables = None
    if diagonal:
        P, mask, x0 = _diagonal_inputs(source, scheme)
        if tabled:
            tables = _diagonal_tables([P] * source.n_blocks, mask, x0, want_local)

        def score(string):
            g, loc = _diagonal_tables([P[s:s + 1] for s in string], mask, x0, want_local)
            return g.item(), (0.0 if loc is None else loc.item())
    else:
        roots = source.base._roots() if want_local else None

        def score(string):
            return _score_string(source, scheme, string, want_local, roots)

    if exact:
        method = "exact-diagonal" if diagonal else "exact-dense"
        return _exact_scores(source, method, workers, tables, score)
    return _mc_scores(source, n_samples, seed, workers, tables, score)


def global_fidelity_score(source: BlockSource, scheme: Scheme, mode: str = "auto",
                          n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
                          workers: int = 1) -> FidelityScore:
    """Probability-weighted whole-block fidelity of the scheme's output.

    A project-and-patch scheme on a source diagonal in its frame is scored by
    one tensor contraction, the diagonal engine: for every string at once
    while its tables fit ``DIAGONAL_TABLE_BUDGET`` elements, otherwise one
    sampled or swept string at a time, which needs its d^N kept-set mask to
    fit the budget.  Other schemes and sources are scored one string at a
    time from its dense d^N state.  Work scored one string at a time is
    bounded by ``WORK_BUDGET`` (see ``_plan``).  Where no exact sweep fits it,
    ``mode="exact"`` raises ``DimensionOverflow`` and ``"auto"`` returns a
    seeded Monte Carlo estimate of ``n_samples`` (at least 1) strings with
    standard error.  Monte Carlo draws all its strings first, at most
    ``DIAGONAL_TABLE_BUDGET`` picks in all.  A path that scores one string at
    a time, exact or Monte Carlo, scores each distinct string once, split
    over ``workers`` (at least 1) threads, with the value of scoring every
    string in order.  Each refusal comes before the first string is drawn or
    scored.
    """
    g, _ = _scores(source, scheme, False, mode, n_samples, seed, workers)
    return g


def local_fidelity_score(source: BlockSource, scheme: Scheme, mode: str = "auto",
                         n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
                         workers: int = 1) -> FidelityScore:
    """Probability-weighted product of per-position marginal fidelities."""
    _, loc = _scores(source, scheme, True, mode, n_samples, seed, workers)
    return loc


@dataclass(frozen=True)
class Theorem7Row:
    n_blocks: int
    rate_down: float
    ceiling_dim: int
    ceiling: float
    rate_up: float
    scheme_dim: int
    eta_plus: float
    achieved: float


def theorem7_demo(base: Ensemble, delta: float, n_list, seed: int = 0) -> list[Theorem7Row]:
    """Both halves of the unitary-decoding rate argument at small block lengths.

    For each N the row reports the fidelity ceiling when the rate sits delta
    below the mean-state entropy (it shrinks with N, so no unitary-decoded
    scheme can stay faithful) and the exact project-and-patch fidelity delta
    above it (it stays above both 1 - 2*eta and (1 - eta)^2).
    """
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be finite and positive, got {delta}")
    s_bar = vn_entropy(base.average())
    rows = []
    for n in n_list:
        source = BlockSource.build(base, n)
        rate_down = max(0.0, s_bar - delta)
        ceiling, k_down = lemma_a1_ceiling(source, rate_down)
        rate_up = s_bar + delta
        scheme = project_patch_scheme(source, rate_up)
        achieved = global_fidelity_score(source, scheme, seed=seed)
        rows.append(
            Theorem7Row(
                n_blocks=source.n_blocks,
                rate_down=rate_down,
                ceiling_dim=k_down,
                ceiling=ceiling,
                rate_up=rate_up,
                scheme_dim=scheme.channel_dim,
                eta_plus=scheme.subspace.eta,
                achieved=achieved.value,
            )
        )
    return rows
