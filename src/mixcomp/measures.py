"""Information measures: entropies, fidelities, Holevo quantity, continuity bounds.

All logarithms are base 2, so entropies and rates come out in bits (qubits per
signal).  The convention 0*log(0) = 0 is implemented by zeroing eigenvalues
below 1e-15 before taking logs.  Ensemble-level measures read the members'
kept eigenpairs and solve the rest in one stacked call (see ``Ensemble``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPovm,
    LengthMismatch,
    ProbabilityMismatch,
    ValidationError,
)
from .qmat import (
    DensityLike,
    DensityOperator,
    _MeanState,
    _eig,
    _kept_pairs,
    _readonly,
    _spectrum_root,
    as_density,
    dagger,
    is_diagonal,
)
from .tolerance import LOG_FLOOR, STRUCTURE_TOL, UNIT_TOL, max_abs

#: Average-fidelity threshold above which the Holevo continuity bound applies.
CONTINUITY_THRESHOLD = float(np.sqrt(35.0 / 36.0))
#: Coefficient of the Holevo continuity bound.
CONTINUITY_COEFF = 2.0 + 2.0 * np.sqrt(2.0)


def as_prob_vector(p, name: str = "probability vector") -> np.ndarray:
    """Validate finiteness, nonnegativity and unit sum (within 1e-10); returns a float array."""
    a = np.asarray(p, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValidationError(f"{name}: must be non-empty")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: entries must be finite")
    if not UNIT_TOL.admits(-np.min(a)):
        raise ValidationError(f"{name}: entry {np.min(a):.3e} is negative")
    defect = abs(float(np.sum(a)) - 1.0)
    if not UNIT_TOL.admits(defect):
        raise ValidationError(f"{name}: |sum - 1| = {defect:.3e} exceeds {UNIT_TOL}")
    return np.clip(a, 0.0, None)


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """Probability-weighted density operators of one dimension, held as one read-only stack.

    ``matrices`` (m, d, d) holds the members, ``diagonal`` their diagonal
    tests and ``probs`` the prior.  Rows marked in ``kept`` hold the
    eigenpairs their check kept in ``values`` (m, d) and ``vectors`` (m, d, d),
    all three None if none did.  Measures read these arrays and solve only the
    mean state (``average``, kept) and the other rows, in one stacked call.
    """

    matrices: np.ndarray
    diagonal: np.ndarray
    probs: np.ndarray
    kept: np.ndarray | None
    values: np.ndarray | None
    vectors: np.ndarray | None

    @classmethod
    def from_lists(cls, probs, states: Sequence[DensityLike]) -> "Ensemble":
        """The one density check of each raw member; a DensityOperator is copied into its row."""
        p = as_prob_vector(probs, "ensemble probabilities")
        rhos = tuple(as_density(s, f"ensemble state {i}") for i, s in enumerate(states))
        if len(rhos) != p.size:
            raise LengthMismatch(
                f"ensemble has {len(rhos)} states but {p.size} probabilities"
            )
        dims = {r.dim for r in rhos}
        if len(dims) > 1:
            raise DimensionMismatch(f"ensemble states have mixed dimensions {sorted(dims)}")
        return cls._of(p, np.stack([r.matrix for r in rhos]),
                       np.array([r.is_diagonal for r in rhos]), *_kept_pairs(rhos))

    @classmethod
    def _of(cls, probs: np.ndarray, matrices: np.ndarray, diagonal: np.ndarray | None = None,
            kept=None, values=None, vectors=None) -> "Ensemble":
        """The ensemble of a stack valid by construction, unchecked: diagonal tests run unless
        given, and no row keeps eigenpairs unless given, as ``qmat._kept_pairs`` writes them."""
        if diagonal is None:
            diagonal = np.array([is_diagonal(x) for x in matrices])
        obj = object.__new__(cls)
        for name, value in zip(("probs", "matrices", "diagonal", "kept", "values", "vectors"),
                               (probs, matrices, diagonal, kept, values, vectors)):
            object.__setattr__(obj, name, None if value is None else _readonly(value))
        return obj

    @cached_property
    def states(self) -> tuple[DensityOperator, ...]:
        """DensityOperator views on the rows, built once, each with the eigenpairs its row kept."""
        kept = [None] * len(self) if self.kept is None else [
            (self.values[i], self.vectors[i]) if k else None for i, k in enumerate(self.kept)]
        return tuple(map(DensityOperator._wrap, self.matrices, kept))

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[-1])

    def __len__(self) -> int:
        return len(self.matrices)

    def average(self) -> DensityOperator:
        """The mean state sum_i p_i rho_i (valid by convexity), built once.

        It keeps the eigenpairs of its first ``eigenpairs`` call, so routines
        that take its eigenbasis share one eigh call; its ``eigenvalues`` are
        one eigvalsh call on each ask, as in ``_entropy_bracket``.
        """
        return self._mean

    @cached_property
    def _mean(self) -> DensityOperator:
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for p, x in zip(self.probs, self.matrices):
            acc += p * x
        acc = (acc + dagger(acc)) / 2.0
        return _MeanState._wrap(acc)

    def _spectra(self) -> np.ndarray:
        """Descending eigenvalues of the mean state (row 0) and each member: one (m + 1, d) array.

        Kept rows read theirs and diagonal ones their sorted diagonals, as
        eig_hermitian does; the other rows share one stacked eigvalsh call.
        """
        mean, vals = self.average(), np.empty((len(self) + 1, self.dim))
        read = np.append(mean.is_diagonal, self.diagonal)
        solve = ~read if self.kept is None else ~(read | np.append(False, self.kept))
        if read.any():
            diagonals = np.vstack((mean.matrix.diagonal(), self.matrices.diagonal(0, -2, -1)))
            vals[read] = np.sort(diagonals[read].real, axis=-1)[:, ::-1]
        if self.kept is not None:
            vals[1:][self.kept] = self.values[self.kept]
        if solve.any():
            rows = np.concatenate((mean.matrix[None][solve[:1]], self.matrices[solve[1:]]))
            vals[solve] = np.sort(np.linalg.eigvalsh(rows), axis=-1)[:, ::-1]
        return vals

    def _roots(self) -> np.ndarray:
        """Each member's matrix_sqrt_psd, bit for bit: kept rows read, the others one ``_eig``."""
        if self.kept is None:
            return _spectrum_root(*_eig(self.matrices, self.diagonal))
        vals, vecs, solve = self.values.copy(), self.vectors.copy(), ~self.kept
        if solve.any():
            vals[solve], vecs[solve] = _eig(self.matrices[solve], self.diagonal[solve])
        return _spectrum_root(vals, vecs)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive-operator-valued measure: PSD elements resolving the identity."""

    elements: tuple[np.ndarray, ...]

    @classmethod
    def from_elements(cls, elements: Sequence) -> "Povm":
        if not len(elements):
            raise InvalidPovm("POVM must have at least one element")
        mats = []
        dim = None
        for i, e in enumerate(elements):
            a = np.asarray(e, dtype=complex)
            if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
                raise InvalidPovm(f"POVM element {i} is not a non-empty square matrix")
            if dim is None:
                dim = a.shape[0]
            elif a.shape[0] != dim:
                raise InvalidPovm(f"POVM element {i} has dimension {a.shape[0]}, expected {dim}")
            if not np.isfinite(a).all():
                raise InvalidPovm(f"POVM element {i}: entries must be finite")
            if not STRUCTURE_TOL.admits(max_abs(a - dagger(a))):
                raise InvalidPovm(f"POVM element {i} is not Hermitian within {STRUCTURE_TOL}")
            a = (a + dagger(a)) / 2.0
            lo = float(np.min(np.linalg.eigvalsh(a)))
            if not STRUCTURE_TOL.admits(-lo):
                raise InvalidPovm(f"POVM element {i} has negative eigenvalue {lo:.3e}")
            a.setflags(write=False)
            mats.append(a)
        total = sum(mats)
        defect = max_abs(total - np.eye(dim))
        if not STRUCTURE_TOL.admits(defect):
            raise InvalidPovm(
                f"POVM elements do not sum to identity: max deviation {defect:.3e} > {STRUCTURE_TOL}"
            )
        return cls(tuple(mats))

    @property
    def dim(self) -> int:
        return int(self.elements[0].shape[0])

    def outcome_probs(self, rho: DensityLike) -> np.ndarray:
        r = as_density(rho)
        if r.dim != self.dim:
            raise DimensionMismatch(
                f"state dimension {r.dim} does not match POVM dimension {self.dim}"
            )
        p = np.array([float(np.real(np.trace(r.matrix @ e))) for e in self.elements])
        p = np.clip(p, 0.0, None)
        s = p.sum()
        return p / s if s > 0 else p


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i in bits."""
    return entropy_of_spectrum(as_prob_vector(p, "shannon_entropy argument"))


def _entropies(vals: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum along the last axis, clamped at 0.

    Entries at or below LOG_FLOOR (NaN too) count as 0 log 0 = 0.  Rounding
    can push -sum v log2 v of a pure spectrum such as [1 + 2e-16] below zero;
    the clamp keeps every entropy nonnegative, and ``+ 0.0`` turns -0.0 into 0.0.
    """
    v = np.where(vals > LOG_FLOOR, vals, 1.0)
    return np.maximum(-np.sum(v * np.log2(v), axis=-1), 0.0) + 0.0


def entropy_of_spectrum(vals: np.ndarray) -> float:
    """Entropy in bits of a nonnegative spectrum (not necessarily validated), at least 0."""
    return float(_entropies(np.asarray(vals, dtype=float)))


def vn_entropy(rho: DensityLike) -> float:
    """Von Neumann entropy -tr(rho log2 rho) in bits, from the state's ``eigenvalues``.

    A state that kept its check's eigenpairs, a raw array's included, costs no
    further solve; any other costs one eigvalsh call.  Diagonal states cost none.
    """
    return float(_entropies(as_density(rho).eigenvalues()))


def _bhattacharyya(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G of diagonal states, from the diagonals of two matrices or stacks (..., d, d)."""
    p = np.maximum(np.real(np.diagonal(a, axis1=-2, axis2=-1)), 0.0)
    q = np.maximum(np.real(np.diagonal(b, axis1=-2, axis2=-1)), 0.0)
    return np.sum(np.sqrt(p * q), axis=-1)


def _sqrt_fid_oriented(root: np.ndarray, other: np.ndarray) -> np.ndarray:
    mid = root @ other @ root
    mid = (mid + dagger(mid)) / 2.0
    return np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(mid), 0.0)), axis=-1)


def sqrt_fidelity_from_roots(a: np.ndarray, root_a: np.ndarray, b: np.ndarray,
                             root_b: np.ndarray, diagonal: np.ndarray | None = None) -> np.ndarray:
    """G(a, b) of two matrices or two stacks (..., d, d), given their square roots.

    The one fidelity formula: tr sqrt(sqrt(a) b sqrt(a)) averaged over both
    orientations (the analytic quantity is symmetric; averaging suppresses
    the asymmetric rounding of the square roots), at most 1.  Each orientation
    is one ``eigvalsh`` call on the whole stack.  Pairs marked in the boolean
    array ``diagonal`` (both pass the one diagonal test) take the classical
    Bhattacharyya sum, which has no rounding from near-zero eigenvalues.
    """
    g = 0.5 * (_sqrt_fid_oriented(root_a, b) + _sqrt_fid_oriented(root_b, a))
    if diagonal is not None and diagonal.any():
        g = np.where(diagonal, _bhattacharyya(a, b), g)
    return np.minimum(g, 1.0)


def sqrt_fidelity(rho1: DensityLike, rho2: DensityLike) -> float:
    """G(rho1, rho2) = tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), symmetrised, at most 1.

    Two diagonal states take the classical Bhattacharyya sum without square
    roots; see ``sqrt_fidelity_from_roots`` for the formula.  Otherwise each
    root comes from the state's ``eigenpairs``, one eigh call unless the state
    kept its check's, and the two orientations cost two eigvalsh calls: two raw
    arrays cost 2 + 2 in all, two validated states 0 + 2.
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"fidelity operands have dims {r1.dim} and {r2.dim}")
    if r1.is_diagonal and r2.is_diagonal:
        return min(float(_bhattacharyya(r1.matrix, r2.matrix)), 1.0)
    root1, root2 = (_spectrum_root(*r.eigenpairs()) for r in (r1, r2))
    return float(sqrt_fidelity_from_roots(r1.matrix, root1, r2.matrix, root2))


def fidelity(rho1: DensityLike, rho2: DensityLike) -> float:
    """Bures-Uhlmann fidelity F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 in [0, 1]."""
    return sqrt_fidelity(rho1, rho2) ** 2


def classical_fidelity(p, q) -> float:
    """Bhattacharyya overlap (sum_i sqrt(p_i q_i))^2; equals 1 iff p = q."""
    a = as_prob_vector(p, "classical_fidelity p")
    b = as_prob_vector(q, "classical_fidelity q")
    if a.size != b.size:
        raise LengthMismatch(f"distributions have lengths {a.size} and {b.size}")
    return min(1.0, float(np.sum(np.sqrt(a * b)) ** 2))


def _entropy_bracket(ensemble: Ensemble) -> tuple[float, float]:
    """(S(mean state), chi): the two ends of the rate bracket, from ``Ensemble._spectra``.

    Its one eigvalsh call solves the mean state once for both ends, with the
    members that kept nothing and are not diagonal; the other members are
    read.  Every entropy is at least 0, so 0 <= chi <= S.
    """
    s = _entropies(ensemble._spectra())
    return float(s[0]), max(0.0, float(s[0] - ensemble.probs @ s[1:]))


def holevo(ensemble: Ensemble) -> float:
    """Holevo quantity chi = S(mean state) - sum_i p_i S(rho_i), in bits.

    It costs one eigvalsh call (see ``_entropy_bracket``), none at all when
    the mean state and every member are diagonal.  A member's entropy is that
    of its ``eigenvalues``, as in ``vn_entropy``.
    """
    return _entropy_bracket(ensemble)[1]


def _check_same_shape(a: Ensemble, b: Ensemble) -> None:
    if len(a) != len(b):
        raise LengthMismatch(f"ensembles have {len(a)} and {len(b)} states")
    if a.dim != b.dim:
        raise DimensionMismatch(f"ensembles have dims {a.dim} and {b.dim}")
    defect = max_abs(a.probs - b.probs)
    if not UNIT_TOL.admits(defect):
        raise ProbabilityMismatch(
            f"ensembles must share one probability vector (max deviation {defect:.3e} > {UNIT_TOL})"
        )


def avg_ensemble_fidelity(a: Ensemble, b: Ensemble) -> float:
    """Average fidelity sum_i p_i F(rho_i, sigma_i) between same-shape ensembles.

    Every pair is scored at once: one ``sqrt_fidelity_from_roots`` call on
    the two held stacks, two eigvalsh calls whatever m is.  The roots come
    from ``Ensemble._roots``: kept and diagonal rows cost no solve, and the
    other rows of each ensemble one eigh call.  Each term is the pairwise
    ``fidelity`` up to rounding.
    """
    _check_same_shape(a, b)
    g = sqrt_fidelity_from_roots(a.matrices, a._roots(), b.matrices, b._roots(),
                                 a.diagonal & b.diagonal)
    return float(a.probs @ (g * g))


@dataclass(frozen=True)
class ContinuityBound:
    bound: float
    applicable: bool
    avg_fidelity: float


def holevo_continuity_bound(a: Ensemble, b: Ensemble) -> ContinuityBound:
    """Bound on |chi(A) - chi(B)| in terms of the average ensemble fidelity.

    The bound (2 + 2*sqrt(2)) * sqrt(1 - Fbar) * log2(d) + 1 applies only when
    Fbar exceeds sqrt(35/36); ``applicable`` reports that gate.
    """
    fbar = avg_ensemble_fidelity(a, b)
    bound = CONTINUITY_COEFF * np.sqrt(max(0.0, 1.0 - fbar)) * np.log2(a.dim) + 1.0
    return ContinuityBound(float(bound), fbar > CONTINUITY_THRESHOLD, fbar)


def avg_entropy_continuity_bound(a: Ensemble, b: Ensemble) -> float:
    """Bound on |sum p_i S(rho_i) - sum p_i S(sigma_i)|: 2 sqrt(1-Fbar) log2 d + 1."""
    fbar = avg_ensemble_fidelity(a, b)
    return float(2.0 * np.sqrt(max(0.0, 1.0 - fbar)) * np.log2(a.dim) + 1.0)


def measured_classical_fidelity(rho1: DensityLike, rho2: DensityLike, povm: Povm) -> float:
    """Classical fidelity of the two outcome distributions induced by a POVM.

    For any measurement this is at least the Bures-Uhlmann fidelity of the
    states; equality is achieved for commuting states measured in a common
    eigenbasis.
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"states have dims {r1.dim} and {r2.dim}")
    if povm.dim != r1.dim:
        raise InvalidPovm(f"POVM dimension {povm.dim} does not match state dimension {r1.dim}")
    return classical_fidelity(povm.outcome_probs(r1), povm.outcome_probs(r2))
