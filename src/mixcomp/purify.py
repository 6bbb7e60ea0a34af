"""Purification constructions and purification-based compression rates.

The canonical purification of a state with spectral decomposition
rho = sum_i lambda_i |e_i><e_i| is |psi> = sum_i sqrt(lambda_i) |e_i> x |e_i>.
Tracing out either tensor factor recovers rho.  For commuting states written
in one common eigenbasis the purifications achieve the Bures-Uhlmann overlap
limit pairwise, which is what makes them useful for visible compression.

Every purification overlap and rate here comes from one formula: the overlap
<psi_i|psi_j> = tr(sqrt(rho_i) sqrt(rho_j)), which for commuting states is the
same in every common eigenbasis, so no code picks one.  It is read off the two
eigenbases, sum_kl sqrt(lam_k) |W_kl|^2 sqrt(mu_l) with W = U^dag V for
rho_i = U diag(lam) U^dag and rho_j = V diag(mu) V^dag: no root matrix is built.  A mixture
sum_i p_i |psi_i><psi_i| has the nonzero spectrum of its Gram matrix
G_ij = sqrt(p_i p_j) <psi_i|psi_j>.  A pair's 2 x 2 Gram spectrum has a closed
form (``_pair_entropy``), written without cancelling subtractions, which
every pair rate reads; three or more states take the Gram matrix's spectrum
from ``qmat._eig``, the one eigh route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotCommuting, ValidationError
from .measures import Ensemble, _entropy_bracket, entropy_of_spectrum
from .qmat import DensityLike, DensityOperator, PureState, _eig, as_density, commuting, dagger, kron
from .tolerance import PHASE_FLOOR, STRUCTURE_TOL, max_abs, whole_number

#: Largest d of the hole-pattern ensemble.  What bounds d is the ensemble itself: its
#: one (d, d, d) complex stack takes 256 MiB at d = 256, and its reports copy none of it.
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
    r = as_density(rho)
    vals, vecs = r.eigenpairs()
    d = r.dim
    psi = np.zeros(d * d, dtype=complex)
    for lam, col in zip(vals, _fix_phases(vecs).T):
        if lam > 0.0:
            psi += np.sqrt(lam) * kron([col, col])
    nrm = np.linalg.norm(psi)
    return Purification(PureState.from_vector(psi / nrm), r, d)


def _root_overlaps(ensemble: Ensemble) -> np.ndarray:
    """Matrix of tr(sqrt(rho_i) sqrt(rho_j)), the purification overlaps, of an ensemble's members.

    For commuting states these are the overlaps of the purifications
    sum_k sqrt(p_k) |k> x |k> written in any common eigenbasis {|k>}: the sum
    sum_k sqrt(p_k q_k) does not depend on which common eigenbasis is used.
    Eigenpairs come from ``Ensemble._eigenpairs``; W = V_i^dag V_j is built one member i at a time.
    """
    if ensemble.diagonal.all():
        # Diagonal roots: the trace is sum_k sqrt(p_ik p_jk), read from the
        # stack's diagonals, with no d x d products.
        roots = np.sqrt(np.maximum(ensemble.matrices.diagonal(0, -2, -1).real, 0.0))
        return roots @ roots.T
    vals, vecs = ensemble._eigenpairs()
    roots = np.sqrt(np.maximum(vals, 0.0))
    return np.array([np.einsum("k,jkl,jl->j", r, np.abs(dagger(v) @ vecs) ** 2, roots)
                     for r, v in zip(roots, vecs)])


def _purification_spectrum(ensemble: Ensemble) -> np.ndarray:
    """Spectrum of the purification mixture sum_i p_i |psi_i><psi_i| of an ensemble, descending.

    Its nonzero eigenvalues are those of the m x m Gram matrix
    G_ij = sqrt(p_i p_j) <psi_i|psi_j>, so no d^2-dimensional state is built.
    """
    w = np.sqrt(ensemble.probs)
    gram = np.outer(w, w) * _root_overlaps(ensemble)
    return np.clip(_eig(gram, False)[0], 0.0, None)


def _diagonal_gap(p: np.ndarray, q: np.ndarray) -> float:
    """1 - sum_k sqrt(p_k q_k), as (1/2) sum_k ((p_k - q_k) / (sqrt(p_k) + sqrt(q_k)))^2."""
    s = np.sqrt(p) + np.sqrt(q)
    t = np.divide(p - q, s, out=np.zeros_like(s), where=s > 0.0)
    return 0.5 * float(t @ t)


def _root_gap(pair: Ensemble) -> float:
    """1 - tr(sqrt(rho1) sqrt(rho2)) of a pair, as (1/2) ||sqrt(rho1) - sqrt(rho2)||_F^2, that is
    (1/2) sum_kl |W_kl|^2 (sqrt(lam_k) - sqrt(mu_l))^2: nonnegative terms, none cancelling."""
    if pair.diagonal.all():
        return _diagonal_gap(*np.maximum(pair.matrices.diagonal(0, -2, -1).real, 0.0))
    vals, (v1, v2) = pair._eigenpairs()
    r1, r2 = np.sqrt(np.maximum(vals, 0.0))
    return 0.5 * float(np.sum(np.abs(dagger(v1) @ v2) ** 2 * (r1[:, None] - r2[None, :]) ** 2))


def _pair_entropy(w1: float, w2: float, gap: float) -> float:
    """Entropy in bits of the Gram matrix [[w1, sqrt(w1 w2) c], [sqrt(w1 w2) c, w2]], c = 1 - gap.

    With w1 + w2 = 1 its eigenvalues are big = (1 + sqrt((w1 - w2)^2 + 4 w1 w2 c^2)) / 2
    and small = w1 w2 gap (2 - gap) / big, and log(big) = log1p(-small): no
    subtraction cancels, so the rate keeps its relative accuracy as it nears 0.
    """
    c = 1.0 - gap
    big = 0.5 * (1.0 + np.sqrt((w1 - w2) ** 2 + 4.0 * w1 * w2 * c * c))
    small = w1 * w2 * gap * (2.0 - gap) / big
    if small <= 0.0:
        return 0.0
    return float(-(small * np.log(small) + big * np.log1p(-small)) / np.log(2.0))


def _require_commuting(matrices) -> None:
    if not commuting(matrices):
        raise NotCommuting(f"states do not commute: max |[rho1, rho2]| > {STRUCTURE_TOL}")


def canonical_overlap(rho1: DensityLike, rho2: DensityLike) -> float:
    """|<psi1|psi2>|^2 for purifications written in a common eigenbasis.

    Equals tr(sqrt(rho1) sqrt(rho2))^2, the same in every common eigenbasis,
    and equals the Bures-Uhlmann fidelity of the two commuting states, i.e. the
    purifications are optimally parallel.  Degenerate spectra need no special
    treatment.  Unless both states are diagonal, the overlap reads each
    state's ``eigenpairs``: no solve for a state that kept its check's.
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    _require_commuting((r1.matrix, r2.matrix))
    c = _root_overlaps(Ensemble.from_lists([0.5, 0.5], (r1, r2)))[0, 1]
    return min(1.0, float(c * c))


def upsilon_rate(epsilon: float) -> float:
    """Purification-scheme rate for the symmetric two-state family.

    For the equiprobable pair diag(eps, 1-eps) / diag(1-eps, eps) the optimal
    purification mixture has entropy
    H(1/2 + sqrt(eps(1-eps)), 1/2 - sqrt(eps(1-eps))) qubits/signal, computed
    as every pair rate is (``_pair_entropy``).
    """
    e = float(epsilon)
    if not (0.0 <= e <= 0.5):
        raise DomainError(f"upsilon_rate requires 0 <= epsilon <= 1/2, got {e}")
    p = np.array([e, 1.0 - e])
    return _pair_entropy(0.5, 0.5, _diagonal_gap(p, p[::-1]))


def two_state_purification_rate(ensemble: Ensemble) -> float:
    """Entropy of the purification mixture for a two-state commuting ensemble.

    The mixture p1 |psi1><psi1| + p2 |psi2><psi2| has rank <= 2; its spectrum
    is that of the 2x2 Gram matrix with the purification overlap
    c = tr(sqrt(rho1) sqrt(rho2)) = sum_k sqrt(p_k q_k), in closed form
    (``_pair_entropy``).
    """
    if len(ensemble) != 2:
        raise DomainError("two_state_purification_rate needs exactly two states")
    _require_commuting(ensemble.matrices)
    return _pair_entropy(*ensemble.probs, _root_gap(ensemble))


def photographic_negative_ensemble(d: int) -> Ensemble:
    """Equiprobable ensemble of the d 'hole at position i' diagonal states.

    State i is uniform weight 1/(d-1) on every basis index except i; the mean
    state is maximally mixed.  The states and the prior are valid by
    construction, so their one (d, d, d) stack is held without validation;
    it equals what ``Ensemble.from_lists`` builds from them, bit for bit.
    """
    d = whole_number(d, "photographic negative ensemble d", 3, cap=("HOLE_DIM_CAP", HOLE_DIM_CAP))
    i = np.arange(d)
    stack = np.zeros((d, d, d), dtype=complex)
    stack[:, i, i] = 1.0 / (d - 1)
    stack[i, i, i] = 0.0
    return Ensemble._of(np.full(d, 1.0 / d), stack, np.ones(d, dtype=bool))


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
    ensemble.  The states are diagonal, so the Gram matrix and chi
    (``_entropy_bracket``) read the held stack's diagonals: no eigensolve is
    made but the d x d Gram matrix's.
    """
    ensemble = photographic_negative_ensemble(d)
    d, spec = ensemble.dim, _purification_spectrum(ensemble)

    expected = np.concatenate([[(d - 1) / d], np.full(d - 1, 1.0 / (d * (d - 1)))])
    defect = max_abs(spec - expected)
    if not STRUCTURE_TOL.admits(defect):
        raise ValidationError(
            f"purification mixture spectrum deviates from closed form by {defect:.3e}"
        )

    spec.setflags(write=False)
    chi = _entropy_bracket(ensemble)[1]
    return PhotographicNegativeReport(d, spec, entropy_of_spectrum(spec), chi)
