"""Purification constructions and purification-based compression rates.

The canonical purification of a state with spectral decomposition
rho = sum_i lambda_i |e_i><e_i| is |psi> = sum_i sqrt(lambda_i) |e_i> x |e_i>.
Tracing out either tensor factor recovers rho.  For commuting states written
in one common eigenbasis the purifications achieve the Bures-Uhlmann overlap
limit pairwise, which is what makes them useful for visible compression.

Every purification overlap and rate here comes from one formula: the overlap
<psi_i|psi_j> = tr(sqrt(rho_i) sqrt(rho_j)), which for commuting states is the
same in every common eigenbasis, so no code picks one.  A mixture
sum_i p_i |psi_i><psi_i| has the nonzero spectrum of its Gram matrix
G_ij = sqrt(p_i p_j) <psi_i|psi_j>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionOverflow, DomainError, NotCommuting, ValidationError
from .measures import Ensemble, _entropy_bracket, entropy_of_spectrum, shannon_entropy
from .qmat import (
    DensityLike,
    DensityOperator,
    PureState,
    _as_density_pairs,
    _eigenpairs,
    _spectrum_root,
    _stack,
    commuting,
    kron,
    psd_roots,
)
from .tolerance import PHASE_FLOOR, STRUCTURE_TOL, max_abs

#: Largest d of the hole-pattern ensemble: its d states of d x d complex
#: entries take 268 MB at d = 256, and the memory grows as d^3.
HOLE_DIM_CAP = 256


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure state on H_d x H_d whose second-factor partial trace is ``source``."""

    state: PureState
    source: DensityOperator
    factor_dim: int


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero amplitude is real positive.

    Overlaps between purifications are phase sensitive; this pins a
    reproducible representative for every eigenvector.
    """
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > PHASE_FLOOR)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (pivot.conj() / abs(pivot))
    return out


def canonical_purification(rho: DensityLike) -> Purification:
    """Purification built from the state's own eigenbasis on both factors.

    Eigenvalues are taken in descending order with stable ties and eigenvector
    phases fixed, so the construction is deterministic.
    """
    r, pairs = _as_density_pairs(rho)
    vals, vecs = _eigenpairs(r, pairs)
    d = r.dim
    psi = np.zeros(d * d, dtype=complex)
    for lam, col in zip(vals, _fix_phases(vecs).T):
        if lam > 0.0:
            psi += np.sqrt(lam) * kron([col, col])
    nrm = np.linalg.norm(psi)
    return Purification(PureState.from_vector(psi / nrm), r, d)


def _root_overlaps(mats: np.ndarray, flags: np.ndarray, pairs=None) -> np.ndarray:
    """Matrix of tr(sqrt(rho_i) sqrt(rho_j)), the purification overlaps, of a stack (``_stack``).

    For commuting states these are the overlaps of the purifications
    sum_k sqrt(p_k) |k> x |k> written in any common eigenbasis {|k>}: the sum
    sum_k sqrt(p_k q_k) does not depend on which common eigenbasis is used.
    All m roots come from one ``psd_roots`` call on the stack, each bit for bit
    the root ``matrix_sqrt_psd`` gives, or from the stack's eigenpairs ``pairs``.
    """
    if flags.all():
        # Diagonal roots: the trace is sum_k sqrt(p_ik p_jk), with no d x d products.
        roots = np.sqrt(np.maximum(np.real(np.diagonal(mats, axis1=-2, axis2=-1)), 0.0))
        return roots @ roots.T
    roots = psd_roots(mats, flags)[0] if pairs is None else _spectrum_root(*pairs)
    return np.real(np.einsum("iab,jba->ij", roots, roots))


def _purification_spectrum(probs: np.ndarray, mats: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Spectrum of the purification mixture sum_i p_i |psi_i><psi_i| of a stack, descending.

    Its nonzero eigenvalues are those of the m x m Gram matrix
    G_ij = sqrt(p_i p_j) <psi_i|psi_j>, so no d^2-dimensional state is built.
    """
    w = np.sqrt(probs)
    gram = np.outer(w, w) * _root_overlaps(mats, flags)
    return np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)


def _require_commuting(states) -> None:
    if not commuting(states):
        raise NotCommuting(f"states do not commute: max |[rho1, rho2]| > {STRUCTURE_TOL}")


def canonical_overlap(rho1: DensityLike, rho2: DensityLike) -> float:
    """|<psi1|psi2>|^2 for purifications written in a common eigenbasis.

    Equals tr(sqrt(rho1) sqrt(rho2))^2, the same in every common eigenbasis,
    and equals the Bures-Uhlmann fidelity of the two commuting states, i.e. the
    purifications are optimally parallel.  Degenerate spectra need no special
    treatment; two raw arrays' roots come from their validation's eigenpairs.
    """
    (r1, p1), (r2, p2) = _as_density_pairs(rho1), _as_density_pairs(rho2)
    _require_commuting((r1, r2))
    pairs = None if p1 is None or p2 is None else tuple(map(np.stack, zip(p1, p2)))
    c = _root_overlaps(*_stack((r1, r2)), pairs)[0, 1]
    return min(1.0, float(c * c))


def upsilon_rate(epsilon: float) -> float:
    """Purification-scheme rate for the symmetric two-state family.

    For the equiprobable pair diag(eps, 1-eps) / diag(1-eps, eps) the optimal
    purification mixture has entropy
    H(1/2 + sqrt(eps(1-eps)), 1/2 - sqrt(eps(1-eps))) qubits/signal.
    """
    e = float(epsilon)
    if not (0.0 <= e <= 0.5):
        raise DomainError(f"upsilon_rate requires 0 <= epsilon <= 1/2, got {e}")
    s = np.sqrt(e * (1.0 - e))
    return shannon_entropy([0.5 + s, 0.5 - s])


def two_state_purification_rate(ensemble: Ensemble) -> float:
    """Entropy of the purification mixture for a two-state commuting ensemble.

    The mixture p1 |psi1><psi1| + p2 |psi2><psi2| has rank <= 2; its spectrum
    is that of the 2x2 Gram matrix with the purification overlap
    c = tr(sqrt(rho1) sqrt(rho2)) = sum_k sqrt(p_k q_k).
    """
    if len(ensemble) != 2:
        raise DomainError("two_state_purification_rate needs exactly two states")
    _require_commuting(ensemble.states)
    return entropy_of_spectrum(_purification_spectrum(ensemble.probs, *_stack(ensemble.states)))


def photographic_negative_ensemble(d: int) -> Ensemble:
    """Equiprobable ensemble of the d 'hole at position i' diagonal states.

    State i is uniform weight 1/(d-1) on every basis index except i; the mean
    state is maximally mixed.  The states and the prior are valid by
    construction, so they are wrapped without validation; they equal what
    ``Ensemble.from_lists`` builds from them, bit for bit.
    """
    if d < 3:
        raise DomainError(f"photographic negative ensemble needs d >= 3, got {d}")
    if d > HOLE_DIM_CAP:
        raise DimensionOverflow(f"photographic negative ensemble d = {d} exceeds HOLE_DIM_CAP "
                                f"{HOLE_DIM_CAP}")
    states = []
    for i in range(d):
        diag = np.full(d, 1.0 / (d - 1))
        diag[i] = 0.0
        states.append(DensityOperator._wrap(np.diag(diag).astype(complex)))
    probs = np.full(d, 1.0 / d)
    probs.setflags(write=False)
    return Ensemble(tuple(states), probs)


@dataclass(frozen=True)
class PhotographicNegativeReport:
    d: int
    mixture_spectrum: np.ndarray
    q: float
    chi: float

    @property
    def gap(self) -> float:
        return self.q - self.chi


def photographic_negative_report(d: int) -> PhotographicNegativeReport:
    """Spectrum and rates of the equal mixture of canonical purifications.

    The spectrum comes from the d x d Gram matrix of the purification overlaps
    and is verified against the closed form {(d-1)/d, (d-1) copies of
    1/(d(d-1))}; q is its entropy and chi the Holevo quantity of the source
    ensemble, both read from the ensemble's one stack.
    """
    ensemble = photographic_negative_ensemble(d)
    mats, flags = ensemble.stack()
    spec = _purification_spectrum(ensemble.probs, mats[1:], flags[1:])

    expected = np.concatenate([[(d - 1) / d], np.full(d - 1, 1.0 / (d * (d - 1)))])
    defect = max_abs(spec - expected)
    if not STRUCTURE_TOL.admits(defect):
        raise ValidationError(
            f"purification mixture spectrum deviates from closed form by {defect:.3e}"
        )

    spec.setflags(write=False)
    chi = _entropy_bracket(mats, flags, ensemble.probs)[1]
    return PhotographicNegativeReport(d, spec, entropy_of_spectrum(spec), chi)
