"""Small dense solves that run once or more per inner step, straight through
LAPACK.

Each function makes the LAPACK call that the ``scipy.linalg`` function of
the same name makes, with the same arguments, so the answers are
bit-identical; what it skips is scipy's argument handling, which costs more
than the solve at these sizes.  Per call at q = 20 and 180, one BLAS
thread: ``solve_triangular`` 13.6 and 23.4 us in scipy against 3.5 and
14.8 us here with the finiteness check (9.4 and 12.9 against 1.5 and
5.3 us without), ``lu_solve`` 10.7 and 18.0 against 2.2 and 9.6 us.  Both
take a 1-d float64 right-hand side.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgetrf, dgetrs, dtrtrs

__all__ = ["solve_triangular", "lu_factor", "lu_solve"]


def _check_finite(a):
    # scipy's message for the same check; count_nonzero is the cheapest
    # reduction of the mask at these sizes
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("array must not contain infs or NaNs")


def solve_triangular(a, b, trans=False, check_finite=True, overwrite_b=False):
    """x with ``a x = b``, or ``a^T x = b`` with ``trans``, for the upper
    triangle of ``a``.

    As in scipy, ``trtrs`` gets ``a`` itself when it is Fortran-ordered, and
    otherwise ``a^T``, which is, as a lower triangle with ``trans`` flipped
    (the two calls round differently).
    ``overwrite_b`` lets LAPACK solve in ``b``'s memory.  Raises
    ``LinAlgError`` on an exactly zero diagonal entry and, with
    ``check_finite``, ``ValueError`` on a non-finite entry of ``a`` or ``b``.
    """
    if check_finite:
        _check_finite(a)
        _check_finite(b)
    if not b.size:
        return np.empty_like(b, dtype=float)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=0, trans=trans, overwrite_b=overwrite_b)
    else:
        x, info = dtrtrs(a.T, b, lower=1, trans=not trans, overwrite_b=overwrite_b)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def lu_factor(a, what):
    """``scipy.linalg.lu_factor(a)`` of a square float64 ``a``, which is kept;
    raises ``LinAlgError`` "``what`` is singular" when a pivot is at most
    machine epsilon times the largest, a test independent of the scale of ``a``."""
    _check_finite(a)
    if not a.size:
        return a.copy(), np.empty(0, dtype=np.int32)
    lu, piv, _ = dgetrf(a)
    pivots = np.abs(np.diagonal(lu))
    if pivots.min() <= np.finfo(float).eps * pivots.max():
        raise LinAlgError(f"{what} is singular")
    return lu, piv


def lu_solve(lu_and_piv, b, overwrite_b=False):
    """x with ``a x = b`` from ``lu_and_piv = scipy.linalg.lu_factor(a)``.

    A non-finite entry of ``b`` raises ``ValueError`` (scipy checks only
    ``b`` here too).  ``overwrite_b`` lets LAPACK solve in ``b``'s memory.
    """
    lu, piv = lu_and_piv
    _check_finite(b)
    if not b.size:
        return np.empty_like(b, dtype=float)
    x, info = dgetrs(lu, piv, b, overwrite_b=overwrite_b)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x
