"""40-digit references for the numbers the package reports, from mpmath.

Each oracle takes the float inputs exactly as given and computes in 40
significant digits, independently of the package's numerics.  Importing this
module sets mpmath's working precision to 40 digits, so the callers' error
arithmetic on its results runs at that precision too.
"""

import mpmath

from mixcomp.measures import Ensemble

mpmath.mp.dps = 40


def _gram_entropy(w, c) -> mpmath.mpf:
    """Entropy in bits of the pair Gram matrix of prior w (summing to 1) and overlap c."""
    root = mpmath.sqrt(1 - 4 * w[0] * w[1] * (1 - c * c))
    return -sum(lam * mpmath.log(lam, 2) for lam in ((1 + root) / 2, (1 - root) / 2) if lam > 0)


def reference_rate(w, p, q) -> mpmath.mpf:
    """Entropy in bits of the Gram spectrum of priors w and diagonal states p, q, in 40 digits."""
    w, p, q = ([mpmath.mpf(float(x)) for x in v] for v in (w, p, q))
    w, p, q = ([x / sum(v) for x in v] for v in (w, p, q))
    return _gram_entropy(w, sum(mpmath.sqrt(a * b) for a, b in zip(p, q)))


def reference_root(matrix) -> mpmath.matrix:
    """The PSD square root of a Hermitian float matrix from mpmath's eigh, in 40 digits.

    Eigenvalues below 0 count as 0, as the package clamps them.
    """
    values, vectors = mpmath.mp.eigh(mpmath.matrix(matrix.tolist()))
    roots = mpmath.diag([mpmath.sqrt(max(v, 0)) for v in values])
    return vectors * roots * vectors.transpose_conj()


def reference_sqrt_fidelity(a, b) -> mpmath.mpf:
    """G(a, b) = ||sqrt(a) sqrt(b)||_1, the sum of the singular values, in 40 digits."""
    product = reference_root(a) * reference_root(b)
    return sum(mpmath.mp.svd_c(product, compute_uv=False))


def reference_overlap_rate(w, a, b) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(c, rate): the purification overlap c = tr(sqrt(a) sqrt(b)) of two commuting float
    matrices, each normalised to unit trace in 40 digits, and the pair rate of prior w."""
    w = [mpmath.mpf(float(x)) for x in w]
    w = [x / sum(w) for x in w]
    ra, rb = (reference_root(m) / mpmath.sqrt(sum(mpmath.mpf(float(x.real)) for x in m.diagonal()))
              for m in (a, b))
    c = mpmath.re(sum((ra * rb)[k, k] for k in range(len(a))))
    return c, _gram_entropy(w, c)


def reference_entropy(matrix: mpmath.matrix) -> mpmath.mpf:
    """Entropy in bits of a Hermitian matrix from mpmath's eigh, in 40 digits; 0 log 0 = 0."""
    values = mpmath.mp.eigh(matrix, eigvals_only=True)
    return -sum(v * mpmath.log(v, 2) for v in values if v > 0)


def reference_bracket(ensemble: Ensemble) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(S(mean state), chi) of the held prior and members, each float entry taken exactly."""
    probs = [mpmath.mpf(float(p)) for p in ensemble.probs]
    mats = [mpmath.matrix(x.tolist()) for x in ensemble.matrices]
    mean = mpmath.zeros(ensemble.dim)
    for p, x in zip(probs, mats):
        mean += p * x
    s = reference_entropy(mean)
    return s, s - sum(p * reference_entropy(x) for p, x in zip(probs, mats))
