"""The tolerance policy: every numerical threshold the package applies, one per role.

A check measures a *defect*, a magnitude that is zero when the property holds
exactly (max |A - A^dag|, |trace - 1|, minus the lowest eigenvalue, ...), and
asks its role's tolerance whether it ``admits`` that defect.  ``admits`` is
written ``defect <= tolerance``, which NaN fails; the form ``defect > tolerance``
would let NaN through.  A float defect is compared directly and an array
elementwise, so the common scalar gate costs no array round trip.  No
function takes a tolerance argument: a check picks its role here.
"""

from __future__ import annotations

import numpy as np


class Tolerance(float):
    """A threshold on a defect; formats and compares as the plain float."""

    def admits(self, defect) -> bool:
        """True when every defect is at most this tolerance; NaN is never admitted.

        A float (Python or numpy) is compared directly; anything else is taken
        as an array and compared elementwise, and an empty array is admitted.
        """
        if isinstance(defect, float):
            return bool(defect <= self)
        return bool(np.all(np.asarray(defect) <= self))


def max_abs(x) -> float:
    """Largest |entry| (0.0 for no entries); NaN when any entry is NaN."""
    a = np.abs(np.asarray(x))
    return float(np.max(a)) if a.size else 0.0


#: Hermiticity of raw matrices (max |A - A^dag|).  Only the Hermitian part is
#: used afterwards, so this is rounding in the caller's input, not physics.
HERMITIAN_TOL = Tolerance(1e-10)
#: Lowest admitted eigenvalue of a PSD matrix, negated.  Eigenvalues in
#: [-PSD_TOL, 0) are eigensolver rounding and are clamped to zero, because
#: square roots and logs are undefined for them.
PSD_TOL = Tolerance(1e-9)
#: Unit trace, unit norm, unit probability sums, nonnegative probabilities and
#: equal probability vectors: sums of a few raw numbers, so rounding is small.
UNIT_TOL = Tolerance(1e-10)
#: Structure derived by products of validated inputs: orthonormal bases, POVM
#: elements, commuting states, the rate-report recognisers and ordering, and
#: closed-form spectra.  Products and eigensolves carry more rounding.
STRUCTURE_TOL = Tolerance(1e-8)
#: The one diagonal test: off-diagonal entries up to this count as zero.  It
#: selects the eigensolver's diagonal shortcut and the exact-diagonal paths,
#: whose error from dropping them is of the same order.
DIAGONAL_TOL = Tolerance(1e-12)
#: Eigenvalues and probabilities at or below this are dropped before taking
#: logs, implementing 0 log 0 = 0.
LOG_FLOOR = Tolerance(1e-15)
#: An amplitude above this can pin an eigenvector's phase.
PHASE_FLOOR = Tolerance(1e-12)
#: Rounding slack on real parameters a caller gives: the rate 0.1 * 3 at N = 10
#: gives rate * N = 3.0000000000000004, whose ceil must be 3, not 4; and a coin
#: source matches the symmetric family when its parameters do within this.
PARAM_EPS = Tolerance(1e-9)
