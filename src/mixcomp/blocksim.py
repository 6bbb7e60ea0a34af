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

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow, DomainError
from .measures import Ensemble, classical_fidelity, fidelity, vn_entropy
from .qmat import (
    DEFAULT_DIM_CAP,
    DensityLike,
    DensityOperator,
    as_density,
    dagger,
    eig_hermitian,
    partial_trace,
)
from .sampling import block_generator
from .tolerance import PARAM_EPS

EXACT_SWEEP_CAP = 1024
# Elements in the largest array the vectorised diagonal scorer builds
# (see _table_elements): 2^22 float64 values, 32 MiB.
DIAGONAL_TABLE_BUDGET = 2**22
DEFAULT_MC_SAMPLES = 2000
MC_BLOCK = 256


def scheme_subspace_dim(rate: float, n_blocks: int, full_dim: int) -> int:
    """Channel dimension of a scheme using whole qubits: 2^ceil(rate*N), capped."""
    if rate < 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    qubits = math.ceil(rate * n_blocks - PARAM_EPS)
    return int(min(2 ** max(qubits, 0), full_dim))


def ceiling_subspace_dim(rate: float, n_blocks: int, full_dim: int) -> int:
    """Retained-eigenvalue count for the fidelity ceiling: ceil(2^(rate*N)), capped."""
    if rate < 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    raw = 2.0 ** (rate * n_blocks)
    return int(min(max(1, math.ceil(raw * (1.0 - PARAM_EPS))), full_dim))


@dataclass(frozen=True, eq=False)
class BlockSource:
    """Base ensemble emitted independently at each of ``n_blocks`` positions."""

    base: Ensemble
    n_blocks: int

    @classmethod
    def build(cls, base: Ensemble, n_blocks: int, dim_cap: int = DEFAULT_DIM_CAP) -> "BlockSource":
        if n_blocks < 1:
            raise DomainError(f"n_blocks must be >= 1, got {n_blocks}")
        if base.dim**n_blocks > dim_cap:
            raise DimensionOverflow(
                f"block dimension {base.dim}^{n_blocks} exceeds cap {dim_cap}"
            )
        return cls(base, int(n_blocks))

    @property
    def full_dim(self) -> int:
        return self.base.dim**self.n_blocks

    @property
    def n_strings(self) -> int:
        return len(self.base) ** self.n_blocks

    def string_prob(self, string: tuple[int, ...]) -> float:
        return float(np.prod([self.base.probs[i] for i in string]))


def kron_power_vector(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector."""
    return reduce(np.kron, [np.asarray(v, dtype=float)] * n)


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
    return reduce(np.kron, [u] * n)


def typical_subspace(reference: DensityLike, subspace_dim: int) -> TypicalSubspace:
    """Subspace of the ``subspace_dim`` largest-eigenvalue eigenvectors of a state.

    The frame is the state's eigenbasis, or the computational basis when the
    state is diagonal.
    """
    rho = as_density(reference)
    if rho.is_diagonal:
        w, frame = np.clip(np.real(np.diagonal(rho.matrix)), 0.0, None), None
    else:
        spec = eig_hermitian(rho)
        w, frame = spec.eigenvalues, spec.eigenvectors
    return replace(typical_subspace_from_weights(w, subspace_dim), frame=frame)


def typical_subspace_from_weights(weights: np.ndarray, subspace_dim: int) -> TypicalSubspace:
    """Coordinate-aligned subspace retaining the heaviest diagonal weights.

    Ties are broken by original index order (stable sort) so the retained set
    is deterministic.
    """
    w = np.asarray(weights, dtype=float)
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
    return DensityOperator.from_matrix((out + dagger(out)) / 2.0)


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
    r = as_density(rho)
    if not (1 <= subspace_dim <= r.dim):
        raise DomainError(f"subspace_dim must lie in [1, {r.dim}], got {subspace_dim}")
    vals = eig_hermitian(r).eigenvalues
    return float(min(1.0, np.sum(vals[:subspace_dim])))


def power_spectrum_top_sum(base_avg: DensityLike, n_blocks: int, retained: int,
                           dim_cap: int = DEFAULT_DIM_CAP) -> float:
    """Sum of the ``retained`` largest eigenvalues of the N-fold power of a state.

    The eigenvalues of the power are N-fold products of the base eigenvalues,
    so no block-sized matrix is ever materialised.
    """
    rho = as_density(base_avg)
    if rho.dim**n_blocks > dim_cap:
        raise DimensionOverflow(
            f"power dimension {rho.dim}^{n_blocks} exceeds cap {dim_cap}"
        )
    w = kron_power_vector(eig_hermitian(rho).eigenvalues, n_blocks)
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


class IdentityScheme(Scheme):
    """Transmit the block untouched (channel as large as the source)."""

    def __init__(self, full_dim: int):
        self.channel_dim = int(full_dim)

    def apply(self, sigma: DensityOperator) -> DensityOperator:
        return sigma

    def apply_diagonal(self, diag: np.ndarray) -> np.ndarray:
        return diag


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

    def apply_diagonal(self, diag: np.ndarray) -> np.ndarray:
        return project_and_patch_diagonal(diag, self._kept)


def project_patch_scheme(source: BlockSource, rate: float) -> ProjectPatchScheme:
    """Project-and-patch scheme at a qubits/signal rate for this source.

    The subspace spans the heaviest product eigenvectors of the block mean
    state, so it is a set of kept coordinates in the frame of the base mean
    state's eigenvectors.  A source of diagonal states keeps the computational
    basis as its frame.  No block-sized matrix is built here.
    """
    k = scheme_subspace_dim(rate, source.n_blocks, source.full_dim)
    mean = source.base.average()
    if all(s.is_diagonal for s in source.base.states):
        w, frame = np.clip(np.real(np.diagonal(mean.matrix)), 0.0, None), None
    else:
        spec = eig_hermitian(mean)
        w, frame = spec.eigenvalues, spec.eigenvectors
    sub = typical_subspace_from_weights(kron_power_vector(w, source.n_blocks), k)
    return ProjectPatchScheme(replace(sub, frame=frame))


@dataclass(frozen=True)
class FidelityScore:
    value: float
    stderr: float | None
    method: str
    n_terms: int


def _in_frame(source: BlockSource, scheme: Scheme) -> BlockSource:
    """The source with each base state rotated once into the scheme's frame.

    Global and local fidelities are unchanged by a product unitary, so scores
    computed in the frame equal scores in the computational basis.
    """
    u = scheme.frame
    if u is None:
        return source
    rotated = [dagger(u) @ s.matrix @ u for s in source.base.states]
    # Symmetrised: a DensityOperator's matrix is exactly Hermitian.
    states = tuple(DensityOperator._wrap((r + dagger(r)) / 2.0) for r in rotated)
    return BlockSource(Ensemble(states, source.base.probs), source.n_blocks)


def _diagonal_path_available(source: BlockSource, scheme: Scheme) -> bool:
    """Diagonal base states and a scheme that keeps coordinates, in the scheme's frame."""
    if not all(s.is_diagonal for s in source.base.states):
        return False
    if isinstance(scheme, IdentityScheme):
        return True
    return (
        isinstance(scheme, ProjectPatchScheme)
        and scheme.subspace.full_dim == source.full_dim
    )


def _table_elements(source: BlockSource) -> int:
    """Size of the largest array _diagonal_tables builds: max(m, d)^N * d."""
    return max(len(source.base), source.base.dim) ** source.n_blocks * source.base.dim


# Global and local score of every string; local is None when not wanted.
_Tables = tuple[np.ndarray, np.ndarray | None]


def _diagonal_tables(source: BlockSource, scheme: Scheme, want_local: bool) -> _Tables:
    """Global and local score of every string, as arrays indexed (s_1..s_N).

    Contracting the kept-set mask with the m x d matrix of base diagonals one
    position at a time gives every string's mass inside the subspace at once;
    leaving position k uncontracted gives its output marginal there.  No
    string's d^N vector is built.  Local scores are None unless wanted.
    ``source`` is written in the scheme's frame, like every per-string helper.
    """
    n, d, m = source.n_blocks, source.base.dim, len(source.base)
    P = np.clip(np.real([np.diagonal(s.matrix) for s in source.base.states]), 0.0, None)
    identity = isinstance(scheme, IdentityScheme)
    if identity:
        mask = np.ones((d,) * n)
        x0 = (0,) * n
    else:
        kept = scheme.subspace.coordinates
        mask = np.zeros(source.full_dim)
        mask[kept] = 1.0
        mask = mask.reshape((d,) * n)
        x0 = np.unravel_index(kept[0], (d,) * n)

    def contract(keep: int | None = None) -> np.ndarray:
        # Each step eats the leading x axis and appends s_j; at position ``keep``
        # x_k stays open beside s_k, weighted by P[s_k, x_k].
        t = mask
        for j in range(n):
            if j == keep:
                t = np.moveaxis(t, 0, -1)[..., None, :] * P
            else:
                t = np.tensordot(t, P, axes=([0], [1]))
        return t if keep is None else np.moveaxis(t, keep + 1, -1)

    mass = contract()
    sig0 = reduce(np.multiply.outer, [P[:, x] for x in x0])
    tail = np.zeros_like(mass) if identity else np.maximum(0.0, 1.0 - mass)
    # The output equals the string on the kept set, plus the tail at x0.
    g = np.minimum(1.0, (mass - sig0 + np.sqrt(sig0 * (sig0 + tail))) ** 2)
    if not want_local:
        return g, None
    local = np.ones_like(mass)
    for k in range(n):
        marg = contract(k)
        marg[..., x0[k]] += tail
        marg /= marg.sum(axis=-1, keepdims=True)
        base = P.reshape((1,) * k + (m,) + (1,) * (n - k - 1) + (d,))
        local *= np.minimum(1.0, np.sum(np.sqrt(base * marg), axis=-1) ** 2)
    return g, local


def _string_diag(source: BlockSource, string: tuple[int, ...]) -> np.ndarray:
    diags = [np.clip(np.real(np.diagonal(source.base.states[i].matrix)), 0.0, None) for i in string]
    return reduce(np.kron, diags)


def _string_dense(source: BlockSource, string: tuple[int, ...]) -> DensityOperator:
    mats = [source.base.states[i].matrix for i in string]
    return DensityOperator._wrap(reduce(np.kron, mats))


def _local_product_diag(source: BlockSource, string, out_diag: np.ndarray) -> float:
    d, n = source.base.dim, source.n_blocks
    shaped = out_diag.reshape((d,) * n)
    total = out_diag.sum()
    prod = 1.0
    for k, i in enumerate(string):
        marginal = shaped.sum(axis=tuple(j for j in range(n) if j != k))
        marginal = np.clip(marginal, 0.0, None)
        s = marginal.sum()
        marginal = marginal / s if s > 0 else marginal
        base_diag = np.clip(np.real(np.diagonal(source.base.states[i].matrix)), 0.0, None)
        prod *= classical_fidelity(base_diag, marginal)
    return prod if total > 0 else 0.0


def _local_product_dense(source: BlockSource, string, out: DensityOperator) -> float:
    d, n = source.base.dim, source.n_blocks
    prod = 1.0
    for k, i in enumerate(string):
        marginal = partial_trace(out, [d] * n, keep=k)
        prod *= fidelity(source.base.states[i], marginal)
    return prod


def _score_string(source: BlockSource, scheme: Scheme, string, diagonal: bool,
                  want_local: bool) -> tuple[float, float]:
    if diagonal:
        sig = _string_diag(source, string)
        out = scheme.apply_diagonal(sig)
        g = classical_fidelity(sig, out)
        loc = _local_product_diag(source, string, out) if want_local else 0.0
    else:
        sig = _string_dense(source, string)
        out = scheme.apply(sig)
        g = fidelity(sig, out)
        loc = _local_product_dense(source, string, out) if want_local else 0.0
    return g, loc


def _exact_scores(source: BlockSource, scheme: Scheme, want_local: bool, diagonal: bool,
                  tables: _Tables | None) -> tuple[FidelityScore, FidelityScore]:
    method = "exact-diagonal" if diagonal else "exact-dense"
    clamp = lambda v: min(1.0, max(0.0, float(v)))
    if tables is not None:
        g_table, l_table = tables
        weights = kron_power_vector(source.base.probs, source.n_blocks).reshape(g_table.shape)
        count = int(np.count_nonzero(weights))
        total_l = np.sum(weights * l_table) if l_table is not None else 0.0
        return (
            FidelityScore(clamp(np.sum(weights * g_table)), None, method, count),
            FidelityScore(clamp(total_l), None, method, count),
        )
    n_states = len(source.base)
    total_g = 0.0
    total_l = 0.0
    count = 0
    for string in itertools.product(range(n_states), repeat=source.n_blocks):
        p = source.string_prob(string)
        if p == 0.0:
            continue
        g, loc = _score_string(source, scheme, string, diagonal, want_local)
        total_g += p * g
        total_l += p * loc
        count += 1
    return (
        FidelityScore(clamp(total_g), None, method, count),
        FidelityScore(clamp(total_l), None, method, count),
    )


def _mc_scores(source: BlockSource, scheme: Scheme, want_local: bool, n_samples: int,
               seed: int, workers: int, diagonal: bool,
               tables: _Tables | None) -> tuple[FidelityScore, FidelityScore]:
    n_states = len(source.base)
    probs = source.base.probs

    def run_block(block: int) -> tuple[np.ndarray, np.ndarray]:
        rng = block_generator(seed, block)
        m = min(MC_BLOCK, n_samples - block * MC_BLOCK)
        picks = rng.choice(n_states, size=(m, source.n_blocks), p=probs)
        if tables is not None:
            g_table, l_table = tables
            idx = tuple(picks.T)
            return g_table[idx], (l_table[idx] if l_table is not None else np.zeros(m))
        gs = np.empty(m)
        ls = np.empty(m)
        for row in range(m):
            string = tuple(int(x) for x in picks[row])
            gs[row], ls[row] = _score_string(source, scheme, string, diagonal, want_local)
        return gs, ls

    n_blocks = math.ceil(n_samples / MC_BLOCK)
    workers = min(workers, os.cpu_count() or 1, n_blocks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_block, range(n_blocks)))
    else:
        parts = [run_block(b) for b in range(n_blocks)]
    gs = np.concatenate([p[0] for p in parts])
    ls = np.concatenate([p[1] for p in parts])

    def summarise(xs: np.ndarray) -> FidelityScore:
        mean = float(xs.mean())
        stderr = float(xs.std(ddof=1) / np.sqrt(xs.size)) if xs.size > 1 else 0.0
        return FidelityScore(mean, stderr, "monte-carlo", int(xs.size))

    return summarise(gs), summarise(ls)


def _scores(source: BlockSource, scheme: Scheme, want_local: bool, mode: str,
            n_samples: int, seed: int, workers: int,
            exact_cap: int) -> tuple[FidelityScore, FidelityScore]:
    if mode not in ("auto", "exact", "mc"):
        raise DomainError(f"mode must be auto|exact|mc, got {mode!r}")
    source = _in_frame(source, scheme)
    diagonal = _diagonal_path_available(source, scheme)
    tabled = diagonal and _table_elements(source) <= DIAGONAL_TABLE_BUDGET
    exact_ok = tabled or source.n_strings <= exact_cap
    if mode == "exact" and not exact_ok:
        if diagonal:
            reason = (f"and the diagonal tables need {_table_elements(source)} elements, "
                      f"over the budget {DIAGONAL_TABLE_BUDGET}")
        else:
            reason = "and no diagonal fast path applies"
        raise DimensionOverflow(
            f"exact sweep over {source.n_strings} strings exceeds cap {exact_cap} {reason}"
        )
    tables = _diagonal_tables(source, scheme, want_local) if tabled else None
    if mode == "exact" or (mode == "auto" and exact_ok):
        return _exact_scores(source, scheme, want_local, diagonal, tables)
    return _mc_scores(source, scheme, want_local, n_samples, seed, workers, diagonal, tables)


def global_fidelity_score(source: BlockSource, scheme: Scheme, mode: str = "auto",
                          n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
                          workers: int = 1, exact_cap: int = EXACT_SWEEP_CAP) -> FidelityScore:
    """Probability-weighted whole-block fidelity of the scheme's output.

    Exact when the sweep is feasible: on the diagonal fast path while its
    score tables fit ``DIAGONAL_TABLE_BUDGET`` elements, otherwise while the
    source has at most ``exact_cap`` strings.  Beyond both, ``mode="exact"``
    raises ``DimensionOverflow`` and ``"auto"`` returns a seeded Monte Carlo
    estimate with standard error.
    """
    g, _ = _scores(source, scheme, False, mode, n_samples, seed, workers, exact_cap)
    return g


def local_fidelity_score(source: BlockSource, scheme: Scheme, mode: str = "auto",
                         n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
                         workers: int = 1, exact_cap: int = EXACT_SWEEP_CAP) -> FidelityScore:
    """Probability-weighted product of per-position marginal fidelities."""
    _, loc = _scores(source, scheme, True, mode, n_samples, seed, workers, exact_cap)
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

    @property
    def patch_lower_bound(self) -> float:
        return (1.0 - self.eta_plus) ** 2


def theorem7_demo(base: Ensemble, delta: float, n_list, dim_cap: int = DEFAULT_DIM_CAP,
                  seed: int = 0) -> list[Theorem7Row]:
    """Both halves of the unitary-decoding rate argument at small block lengths.

    For each N the row reports the fidelity ceiling when the rate sits delta
    below the mean-state entropy (it shrinks with N, so no unitary-decoded
    scheme can stay faithful) and the exact project-and-patch fidelity delta
    above it (it stays above both 1 - 2*eta and (1 - eta)^2).
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    s_bar = vn_entropy(base.average())
    rows = []
    for n in n_list:
        source = BlockSource.build(base, int(n), dim_cap=dim_cap)
        rate_down = max(0.0, s_bar - delta)
        ceiling, k_down = lemma_a1_ceiling(source, rate_down)
        rate_up = s_bar + delta
        scheme = project_patch_scheme(source, rate_up)
        achieved = global_fidelity_score(source, scheme, seed=seed)
        rows.append(
            Theorem7Row(
                n_blocks=int(n),
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
