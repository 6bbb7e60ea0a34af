"""Information measures: entropies, fidelities, Holevo quantity, continuity bounds.

All logarithms are base 2, so entropies and rates come out in bits (qubits per
signal).  The convention 0*log(0) = 0 is implemented by zeroing eigenvalues
below 1e-15 before taking logs.  Ensemble-level measures solve all of an
ensemble's states as one (m, d, d) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    _as_density_pairs,
    _eigenpairs,
    _eigenvalues,
    _spectrum_root,
    _stack,
    as_density,
    dagger,
    psd_roots,
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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability-weighted list of same-dimension density operators."""

    states: tuple[DensityOperator, ...]
    probs: np.ndarray

    @classmethod
    def from_lists(cls, probs, states: Sequence[DensityLike]) -> "Ensemble":
        p = as_prob_vector(probs, "ensemble probabilities")
        rhos = tuple(as_density(s, f"ensemble state {i}") for i, s in enumerate(states))
        if len(rhos) != p.size:
            raise LengthMismatch(
                f"ensemble has {len(rhos)} states but {p.size} probabilities"
            )
        dims = {r.dim for r in rhos}
        if len(dims) > 1:
            raise DimensionMismatch(f"ensemble states have mixed dimensions {sorted(dims)}")
        p.setflags(write=False)
        return cls(rhos, p)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)

    def average(self) -> DensityOperator:
        """The mean state sum_i p_i rho_i (valid by convexity)."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for p, rho in zip(self.probs, self.states):
            acc += p * rho.matrix
        acc = (acc + dagger(acc)) / 2.0
        return DensityOperator._wrap(acc)

    def stack(self) -> tuple[np.ndarray, np.ndarray]:
        """(m + 1, d, d) stack of the mean state (row 0) and the members, with diagonal tests."""
        return _stack((self.average(), *self.states))


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
    """Von Neumann entropy -tr(rho log2 rho) in bits.

    A DensityOperator costs one eigvalsh call; a raw array costs the one eigh
    call of its validation, whose eigenvalues give the entropy (a second call
    when the PSD clamp rebuilt it).  Diagonal states cost none.
    """
    r, pairs = _as_density_pairs(rho)
    return float(_entropies(_eigenvalues(*_stack([r]))[0] if pairs is None else pairs[0]))


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
    roots; see ``sqrt_fidelity_from_roots`` for the formula.  Otherwise two
    DensityOperators cost two eigh calls (their roots) and two eigvalsh calls
    (the two orientations); a raw array's root comes from the eigh call of its
    validation, so two raw arrays cost the same 2 + 2 in all.
    """
    (r1, p1), (r2, p2) = _as_density_pairs(rho1), _as_density_pairs(rho2)
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"fidelity operands have dims {r1.dim} and {r2.dim}")
    if r1.is_diagonal and r2.is_diagonal:
        return min(float(_bhattacharyya(r1.matrix, r2.matrix)), 1.0)
    root1, root2 = (_spectrum_root(*_eigenpairs(r, p)) for r, p in ((r1, p1), (r2, p2)))
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


def _entropy_bracket(mats: np.ndarray, flags: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """(S(mean state), chi): the two ends of the rate bracket, from an ensemble's stack.

    The mean state and every member are solved as one stack (see
    ``qmat._eigenvalues``), so the mean state is solved once for both.
    Every entropy is at least 0, so 0 <= chi <= S.
    """
    s = _entropies(_eigenvalues(mats, flags))
    return float(s[0]), max(0.0, float(s[0] - probs @ s[1:]))


def holevo(ensemble: Ensemble) -> float:
    """Holevo quantity chi = S(mean state) - sum_i p_i S(rho_i), in bits.

    The mean state and all m states are solved in one stacked call, none at
    all when every one of them is diagonal.
    """
    return _entropy_bracket(*ensemble.stack(), ensemble.probs)[1]


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

    Every pair is scored at once: one ``psd_roots`` call per ensemble and one
    ``sqrt_fidelity_from_roots`` call on the two stacks, so the cost is two
    eigh and two eigvalsh calls whatever m is.  Each term is the pairwise
    ``fidelity`` up to rounding.
    """
    _check_same_shape(a, b)
    (sa, da), (sb, db) = _stack(a.states), _stack(b.states)
    g = sqrt_fidelity_from_roots(sa, psd_roots(sa, da)[0], sb, psd_roots(sb, db)[0], da & db)
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
