"""Dense complex linear algebra core and validated quantum-state types.

Everything here is a pure function on immutable values: density operators and
pure states are frozen dataclasses wrapping read-only numpy arrays, so all
operations are safe to call concurrently.  Matrices are always dense; the
dimensions this package targets are small by design and a configurable cap
(default 4096) guards against accidentally materialising huge tensor products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    NoConvergence,
    NotHermitian,
    NotOrthonormal,
    NotPSD,
    ValidationError,
)

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
ORTHO_TOL = 1e-8
RECON_TOL = 1e-8

#: Default ceiling on any constructed operator dimension (tensor products,
#: block simulators).  Callers may pass their own cap.
DEFAULT_DIM_CAP = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def _as_square_complex(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: entries must be finite")
    return a


def is_diagonal(m: np.ndarray, tol: float = 1e-12) -> bool:
    off = m - np.diag(np.diagonal(m))
    return bool(np.max(np.abs(off)) <= tol) if m.size else True


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry norm of [a, b]; zero iff the operators commute."""
    return float(np.max(np.abs(a @ b - b @ a)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Hermitian eigendecomposition with a deterministic ordering.

    ``eigenvalues`` are sorted non-increasing; ties keep the solver's original
    index order (stable sort), which makes "top-k subspace" selections
    reproducible.  ``eigenvectors`` holds the matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def eig_hermitian(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises NotHermitian if the symmetry tolerance is violated and NoConvergence
    if the underlying iterative solver fails.
    """
    a = _as_square_complex(m)
    herm_defect = float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0
    if herm_defect > HERMITIAN_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian: max |A - A^dag| = {herm_defect:.3e} > {HERMITIAN_TOL}"
        )
    a = (a + dagger(a)) / 2.0
    if is_diagonal(a):
        vals = np.real(np.diagonal(a)).copy()
        vecs = np.eye(a.shape[0], dtype=complex)
    else:
        try:
            vals, vecs = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
            raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    return Spectrum(_readonly(vals[order]), _readonly(vecs[:, order]))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, trace-one matrix.

    Construct through :meth:`from_matrix`, which validates the three
    invariants and clamps tiny negative eigenvalues (within -1e-9) to zero;
    fidelity formulas take matrix square roots that are undefined for the
    small negatives floating point produces.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @classmethod
    def _wrap(cls, matrix: np.ndarray) -> "DensityOperator":
        # Internal fast path for matrices valid by construction.
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", _readonly(matrix))
        return obj

    @classmethod
    def from_matrix(cls, m, name: str = "density operator") -> "DensityOperator":
        a = _as_square_complex(m, name)
        herm_defect = float(np.max(np.abs(a - dagger(a))))
        if herm_defect > HERMITIAN_TOL:
            raise NotHermitian(
                f"{name}: max |A - A^dag| = {herm_defect:.3e} exceeds {HERMITIAN_TOL}"
            )
        a = (a + dagger(a)) / 2.0
        tr = float(np.real(np.trace(a)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"{name}: |trace - 1| = {abs(tr - 1.0):.3e} exceeds {TRACE_TOL}")

        if is_diagonal(a):
            vals = np.real(np.diagonal(a))
            vecs = None
        else:
            spec = eig_hermitian(a)
            vals, vecs = spec.eigenvalues, spec.eigenvectors
        lo = float(np.min(vals)) if vals.size else 0.0
        if lo < -PSD_TOL:
            raise NotPSD(f"{name}: eigenvalue {lo:.3e} below PSD tolerance -{PSD_TOL}")
        if lo < 0.0:
            clamped = np.clip(vals, 0.0, None)
            if vecs is None:
                a = np.diag(clamped).astype(complex)
            else:
                a = (vecs * clamped) @ dagger(vecs)
                a = (a + dagger(a)) / 2.0
            tr = float(np.real(np.trace(a)))
            if abs(tr - 1.0) > TRACE_TOL:
                a = a / tr
        return cls._wrap(a)

    def spectrum(self) -> Spectrum:
        return eig_hermitian(self.matrix)

    def entropy_bits(self) -> float:
        # Convenience alias; the canonical entry point is measures.vn_entropy.
        from .measures import vn_entropy

        return vn_entropy(self)


DensityLike = Union[DensityOperator, np.ndarray, Sequence]


def as_density(rho: DensityLike, name: str = "density operator") -> DensityOperator:
    """Coerce an array-like to a validated DensityOperator (pass-through if already one)."""
    if isinstance(rho, DensityOperator):
        return rho
    return DensityOperator.from_matrix(rho, name)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex state vector."""

    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])

    @classmethod
    def from_vector(cls, v, name: str = "pure state") -> "PureState":
        a = np.asarray(v, dtype=complex).reshape(-1)
        nrm2 = float(np.real(np.vdot(a, a)))
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValidationError(
                f"{name}: |norm^2 - 1| = {abs(nrm2 - 1.0):.3e} exceeds {NORM_TOL}"
            )
        return cls(_readonly(a))

    def projector(self) -> DensityOperator:
        return DensityOperator._wrap(np.outer(self.amplitudes, self.amplitudes.conj()))


def matrix_sqrt_psd(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues within -1e-9 of zero are treated as exactly zero; anything
    more negative raises NotPSD.
    """
    spec = eig_hermitian(m)
    vals = spec.eigenvalues
    lo = float(np.min(vals)) if vals.size else 0.0
    if lo < -PSD_TOL:
        raise NotPSD(f"matrix_sqrt_psd: eigenvalue {lo:.3e} below PSD tolerance -{PSD_TOL}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    v = spec.eigenvectors
    r = (v * root) @ dagger(v)
    return (r + dagger(r)) / 2.0


def tensor(a: DensityLike, b: DensityLike, dim_cap: int = DEFAULT_DIM_CAP) -> DensityOperator:
    """Kronecker product of two density operators."""
    da, db = as_density(a), as_density(b)
    out_dim = da.dim * db.dim
    if out_dim > dim_cap:
        raise DimensionOverflow(
            f"tensor product dimension {out_dim} exceeds cap {dim_cap}"
        )
    return DensityOperator._wrap(np.kron(da.matrix, db.matrix))


def tensor_many(states: Sequence[DensityLike], dim_cap: int = DEFAULT_DIM_CAP) -> DensityOperator:
    """Kronecker product of a sequence of density operators, left to right."""
    if not states:
        raise ValidationError("tensor_many: need at least one factor")
    out = as_density(states[0])
    for s in states[1:]:
        out = tensor(out, s, dim_cap=dim_cap)
    return out


def _check_dims(total_dim: int, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != total_dim:
        raise DimensionMismatch(
            f"product of factor dims {dims} is {int(np.prod(dims))}, expected {total_dim}"
        )
    return dims


def partial_trace(s: DensityLike, dims: Sequence[int], keep: int) -> DensityOperator:
    """Reduce a multipartite state to the ``keep``-th factor (zero-based).

    ``dims`` lists the factor dimensions whose product matches dim(s).
    """
    rho = as_density(s)
    dims = _check_dims(rho.dim, dims)
    n = len(dims)
    if not (0 <= keep < n):
        raise DimensionMismatch(f"keep index {keep} outside [0, {n - 1}]")
    t = rho.matrix.reshape(dims + dims)
    # Contract every factor except `keep`: trace out pairs (axis i, axis n+i).
    for i in reversed([j for j in range(n) if j != keep]):
        t = np.trace(t, axis1=i, axis2=t.ndim // 2 + i)
    return DensityOperator._wrap(np.ascontiguousarray(t))


def trace_out(s: DensityLike, dims: Sequence[int], drop: int) -> DensityOperator:
    """Discard one named factor, keeping the rest in order."""
    rho = as_density(s)
    dims = _check_dims(rho.dim, dims)
    n = len(dims)
    if not (0 <= drop < n):
        raise DimensionMismatch(f"drop index {drop} outside [0, {n - 1}]")
    if n == 1:
        raise DimensionMismatch("cannot discard the only factor")
    t = rho.matrix.reshape(dims + dims)
    t = np.trace(t, axis1=drop, axis2=n + drop)
    kept = int(np.prod([d for j, d in enumerate(dims) if j != drop]))
    return DensityOperator._wrap(np.ascontiguousarray(t.reshape(kept, kept)))


def projector(basis_vectors: Sequence[PureState | np.ndarray]) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal vectors."""
    if not len(basis_vectors):
        raise ValidationError("projector: need at least one basis vector")
    cols = []
    for v in basis_vectors:
        a = v.amplitudes if isinstance(v, PureState) else np.asarray(v, dtype=complex).reshape(-1)
        cols.append(a)
    v = np.column_stack(cols)
    gram = dagger(v) @ v
    defect = float(np.max(np.abs(gram - np.eye(v.shape[1]))))
    if defect > ORTHO_TOL:
        raise NotOrthonormal(
            f"basis vectors not orthonormal: max |V^dag V - I| = {defect:.3e} > {ORTHO_TOL}"
        )
    p = v @ dagger(v)
    return (p + dagger(p)) / 2.0


def basis_state(dim: int, index: int) -> PureState:
    """Computational basis vector |index> in the given dimension."""
    if not (0 <= index < dim):
        raise DimensionMismatch(f"basis index {index} outside [0, {dim - 1}]")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(_readonly(v))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator._wrap(np.eye(dim, dtype=complex) / dim)
