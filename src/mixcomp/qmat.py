"""Dense complex linear algebra core and validated quantum-state types.

Everything here is a pure function on immutable values: density operators and
pure states are frozen dataclasses wrapping read-only numpy arrays, so all
operations are safe to call concurrently.  Matrices are always dense; the
dimensions this package targets are small by design, and no dense operator
the package builds exceeds the fixed ``DIM_CAP``.  The one solve routine,
``_eig``, takes a matrix or a stack (..., d, d), such as an ensemble's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
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
from .tolerance import (
    DIAGONAL_TOL,
    HERMITIAN_TOL,
    PSD_TOL,
    STRUCTURE_TOL,
    UNIT_TOL,
    max_abs,
)

#: Largest dimension of any dense operator the package builds: tensor
#: products here, and the per-string block states in ``blocksim``.
DIM_CAP = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., d, d)."""
    return m.conj().swapaxes(-1, -2)


def _as_square_complex(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"{name} must be a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: entries must be finite")
    return a


def _hermitian_part(a: np.ndarray, name: str) -> np.ndarray:
    """(A + A^dag) / 2 of a raw matrix that is Hermitian within HERMITIAN_TOL."""
    h = dagger(a)
    defect = max_abs(a - h)
    if not HERMITIAN_TOL.admits(defect):
        raise NotHermitian(f"{name}: max |A - A^dag| = {defect:.3e} exceeds {HERMITIAN_TOL}")
    return (a + h) / 2.0


def is_diagonal(m: np.ndarray) -> bool:
    """The package's one diagonal test: every off-diagonal |entry| within DIAGONAL_TOL.

    The off-diagonal entries are read through a strided view of |m|: row r of
    the flat entries after the first, cut into rows of d + 1, holds d
    off-diagonal entries and then a diagonal one.  A NaN or inf anywhere, the
    diagonal included, fails the test, as it fails m - diag(m).
    """
    d = m.shape[-1]
    a = np.abs(m).reshape(-1)
    off = a[1:].reshape(d - 1, d + 1)[:, :d]
    return DIAGONAL_TOL.admits(float(off.max(initial=0.0))) and math.isfinite(
        a[:: d + 1].max(initial=0.0))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry norm of [a, b]; zero iff the operators commute."""
    return float(np.max(np.abs(a @ b - b @ a)))


def commuting(matrices: Sequence[np.ndarray]) -> bool:
    """The package's one commuting test: every pair's commutator within STRUCTURE_TOL."""
    return all(
        STRUCTURE_TOL.admits(commutator_norm(a, b))
        for a, b in itertools.combinations(matrices, 2)
    )


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


def _eig(a: np.ndarray, diagonal) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, stable ties) and eigenvectors of a matrix or a stack (..., d, d).

    See Spectrum.  Matrices that pass their ``diagonal`` test read their
    diagonal and the identity; the others share one eigh call.
    """
    d, solve = a.shape[-1], np.logical_not(diagonal)
    try:
        if solve.all():
            vals, vecs = np.linalg.eigh(a)
        else:
            vals, vecs = a.diagonal(0, -2, -1).real.copy(), np.zeros(a.shape, dtype=complex)
            vecs.reshape(-1, d * d)[:, :: d + 1] = 1.0
            if solve.any():
                vals[solve], vecs[solve] = np.linalg.eigh(a[solve])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    order = (-vals).argsort(kind="stable")
    if vals.ndim == 1:
        return vals[order], np.ascontiguousarray(vecs[:, order])
    return (np.take_along_axis(vals, order, axis=-1),
            np.ascontiguousarray(np.take_along_axis(vecs, order[..., None, :], axis=-1)))


def eig_hermitian(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    A raw array is checked (finite, Hermitian within HERMITIAN_TOL, else
    NotHermitian) and symmetrised; a DensityOperator was checked when it was
    built and is used as it is.  Diagonal matrices skip the solver.  Raises
    NoConvergence if the underlying iterative solver fails.
    """
    if isinstance(m, DensityOperator):
        return Spectrum(*map(_readonly, m.eigenpairs()))
    a = _hermitian_part(_as_square_complex(m), "matrix")
    return Spectrum(*map(_readonly, _eig(a, is_diagonal(a))))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, trace-one matrix.

    Construct through :meth:`from_matrix`, which validates the three
    invariants and clamps tiny negative eigenvalues (within -1e-9) to zero;
    fidelity formulas take matrix square roots that are undefined for the
    small negatives floating point produces.  Code gets a state's spectrum
    only from :meth:`eigenpairs` and :meth:`eigenvalues`, which read the
    eigendecomposition the check kept, if any.
    """

    matrix: np.ndarray
    # The read-only (eigenvalues, eigenvectors) of from_matrix's PSD check, kept
    # on non-diagonal states it did not rebuild, or those ``_wrap`` was given;
    # not a field, so not a parameter.
    _spectrum = None

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @classmethod
    def _wrap(cls, matrix: np.ndarray, spectrum=None) -> "DensityOperator":
        # Internal fast path for matrices valid by construction.  Callers keep
        # the matrix exactly Hermitian: nothing downstream symmetrises it again.
        # An ensemble's member views pass the eigenpairs their row kept, and its
        # mean state those of its one ``_eig``.
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", _readonly(matrix))
        object.__setattr__(obj, "_spectrum", spectrum)
        return obj

    @classmethod
    def from_matrix(cls, m, name: str = "density operator") -> "DensityOperator":
        """The one density-operator check of a raw matrix: one eigh call, none if it is diagonal.

        A non-diagonal state keeps the eigenpairs (``_eig``) the PSD check
        solved, so its measures solve it no more.  Clamping eigenvalues in
        [-PSD_TOL, 0) to zero rebuilds the matrix, and that state keeps none.
        """
        a = _hermitian_part(_as_square_complex(m, name), name)
        tr = float(np.real(np.trace(a)))
        if not UNIT_TOL.admits(abs(tr - 1.0)):
            raise ValidationError(f"{name}: |trace - 1| = {abs(tr - 1.0):.3e} exceeds {UNIT_TOL}")
        rho = cls._wrap(a)
        vals, vecs = _eig(a, rho.is_diagonal)
        lo = float(vals[-1])
        if not PSD_TOL.admits(-lo):
            raise NotPSD(f"{name}: eigenvalue {lo:.3e} below PSD tolerance -{PSD_TOL}")
        if lo >= 0.0:
            if not rho.is_diagonal:
                object.__setattr__(rho, "_spectrum", (_readonly(vals), _readonly(vecs)))
            return rho
        a = (vecs * np.maximum(vals, 0.0)) @ dagger(vecs)
        a = (a + dagger(a)) / 2.0
        tr = float(np.real(np.trace(a)))
        if not UNIT_TOL.admits(abs(tr - 1.0)):
            a = a / tr
        return cls._wrap(a)

    @cached_property
    def is_diagonal(self) -> bool:
        """Whether the matrix passes the one diagonal test; computed once per state."""
        return is_diagonal(self.matrix)

    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (descending, stable ties) and eigenvectors: those kept, else one ``_eig``."""
        return _eig(self.matrix, self.is_diagonal) if self._spectrum is None else self._spectrum

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues, descending: those of ``eigenpairs``.

        A diagonal state that kept none reads its sorted diagonal, the values
        ``_eig`` gives, without building the d x d identity of its eigenvectors.
        """
        if self._spectrum is None and self.is_diagonal:
            return np.sort(self.matrix.diagonal().real)[::-1]
        return self.eigenpairs()[0]


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
        if not UNIT_TOL.admits(abs(nrm2 - 1.0)):
            raise ValidationError(
                f"{name}: |norm^2 - 1| = {abs(nrm2 - 1.0):.3e} exceeds {UNIT_TOL}"
            )
        return cls(_readonly(a))

    def projector(self) -> DensityOperator:
        p = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator._wrap((p + dagger(p)) / 2.0)


def matrix_sqrt_psd(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    A raw array is checked like eig_hermitian's, and eigenvalues within -1e-9
    of zero are treated as exactly zero; anything more negative raises NotPSD.
    A DensityOperator is PSD by construction.
    """
    spec = eig_hermitian(m)
    lo = float(spec.eigenvalues[-1])
    if not isinstance(m, DensityOperator) and not PSD_TOL.admits(-lo):
        raise NotPSD(f"matrix_sqrt_psd: eigenvalue {lo:.3e} below PSD tolerance -{PSD_TOL}")
    return _spectrum_root(spec.eigenvalues, spec.eigenvectors)


def _spectrum_root(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """V sqrt(max(vals, 0)) V^dag, symmetrised, of one spectrum or a stack of them."""
    r = (vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]) @ dagger(vecs)
    return (r + dagger(r)) / 2.0


def _kept_pairs(states: Sequence[DensityOperator]) -> tuple:
    """The mask of the states whose check kept eigenpairs, and those pairs as rows of (m, d)
    and (m, d, d) arrays allocated once, as ``measures.Ensemble`` holds them; or three Nones."""
    kept = np.array([s._spectrum is not None for s in states])
    if not kept.any():
        return None, None, None
    m, d = len(states), states[0].dim
    values, vectors = np.zeros((m, d)), np.zeros((m, d, d), dtype=complex)
    values[kept], vectors[kept] = map(np.stack, zip(*(s._spectrum for s in states if s._spectrum)))
    return kept, values, vectors


def kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of vectors, or of square matrices, left to right, by outer products.

    Bitwise equal to numpy's kron folded left to right: each entry is the same
    product, taken in the same order.
    """
    out = reduce(np.multiply.outer, factors)
    if factors[0].ndim == 1:
        return out.reshape(-1)
    n, dim = len(factors), math.prod(f.shape[0] for f in factors)
    # Axes (r_1, c_1, ..., r_N, c_N) to (r_1..r_N, c_1..c_N).
    return out.transpose((*range(0, 2 * n, 2), *range(1, 2 * n, 2))).reshape(dim, dim)


def tensor(a: DensityLike, b: DensityLike) -> DensityOperator:
    """Kronecker product of two density operators, at most DIM_CAP dimensions."""
    return tensor_many([a, b])


def tensor_many(states: Sequence[DensityLike]) -> DensityOperator:
    """Kronecker product of a sequence of density operators, left to right, at most DIM_CAP."""
    if not states:
        raise ValidationError("tensor_many: need at least one factor")
    mats = [as_density(s).matrix for s in states]
    out_dim = math.prod(m.shape[0] for m in mats)
    if out_dim > DIM_CAP:
        raise DimensionOverflow(f"tensor product dimension {out_dim} exceeds DIM_CAP {DIM_CAP}")
    return DensityOperator._wrap(kron(mats))


def _check_dims(total_dim: int, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != total_dim:
        raise DimensionMismatch(
            f"product of factor dims {dims} is {int(np.prod(dims))}, expected {total_dim}"
        )
    return dims


def _marginals(m: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """The single-factor marginals of a matrix on factors of dimensions ``dims``, in order.

    Each marginal traces out the other factors last first, one np.trace at a
    time; marginals share the traces of the later factors.
    """
    n = len(dims)
    t = m.reshape(dims + dims)
    margs = []
    for j in reversed(range(n)):
        # t keeps factors 0..j; trace out those before j, last first.
        r = t
        for i in reversed(range(j)):
            r = np.trace(r, axis1=i, axis2=r.ndim // 2 + i)
        margs.append(r)
        t = np.trace(t, axis1=j, axis2=t.ndim // 2 + j)
    return margs[::-1]


def partial_trace(s: DensityLike, dims: Sequence[int], keep: int) -> DensityOperator:
    """Reduce a multipartite state to the ``keep``-th factor (zero-based).

    ``dims`` lists the factor dimensions whose product matches dim(s).
    """
    rho = as_density(s)
    dims = _check_dims(rho.dim, dims)
    if not (0 <= keep < len(dims)):
        raise DimensionMismatch(f"keep index {keep} outside [0, {len(dims) - 1}]")
    return DensityOperator._wrap(_marginals(rho.matrix, dims)[keep])


def projector(basis_vectors: Sequence[PureState | np.ndarray]) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal vectors."""
    if not len(basis_vectors):
        raise ValidationError("projector: need at least one basis vector")
    cols = []
    for v in basis_vectors:
        a = v.amplitudes if isinstance(v, PureState) else np.asarray(v, dtype=complex).reshape(-1)
        cols.append(a)
    v = np.column_stack(cols)
    if not np.isfinite(v).all():
        raise ValidationError("projector: basis vector entries must be finite")
    gram = dagger(v) @ v
    defect = max_abs(gram - np.eye(v.shape[1]))
    if not STRUCTURE_TOL.admits(defect):
        raise NotOrthonormal(
            f"basis vectors not orthonormal: max |V^dag V - I| = {defect:.3e} > {STRUCTURE_TOL}"
        )
    p = v @ dagger(v)
    return (p + dagger(p)) / 2.0


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator._wrap(np.eye(dim, dtype=complex) / dim)
