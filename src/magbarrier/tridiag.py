"""Symmetric tridiagonal eigentools: Sturm counts, bisection, Richardson.

scipy's eigh_tridiagonal (LAPACK bisection plus inverse iteration) is the
fast path used by the fiber solver. The functions here cover what LAPACK
does not expose: eigenvalue counting at arbitrary shifts with the dtype
chosen by the caller, so the same recurrence runs in float64 for large
counting problems and in longdouble where parity splittings sit below the
float64 noise floor (eps * ||T|| is the measurable limit either way).
"""

import numpy as np

from .errors import NumericalError

# halvings allowed per bisection; the loop stops sooner, at the dtype's
# resolution, for any bracket the callers form
MAX_BISECTIONS = 240


def pivmin(d, e2):
    """Smallest admissible pivot magnitude for the Sturm recurrence on (d, e2)."""
    fi = np.finfo(np.result_type(d[0] if len(d) else 1.0, np.float64))
    scale = max(1.0, float(max(e2))) if len(e2) else 1.0
    return (fi.tiny / fi.eps) * scale


def sturm_count(d, e2, sigma, piv):
    """Number of eigenvalues of T strictly below sigma.

    d: diagonal, e2: squared off-diagonal, as indexable sequences of a common
    scalar type (float, np.longdouble). The LDL^T pivot recurrence counts
    negative pivots; pivots smaller than piv in magnitude are clamped.

    Every pivot is (d[i] - sigma) - e2[i-1] / q, the operation order that
    keeps the count monotone in sigma; the shifted diagonal is formed once as
    a vector, which rounds each entry exactly as the scalar difference does.
    A pivot of at least piv, the common case, costs one comparison; below
    it, the sign both counts the pivot and picks its clamp.
    """
    ds = np.asarray(d) - sigma
    neg_piv = -piv
    q = ds[0]
    count = 0
    for dsi, e2i in zip(ds[1:], e2):
        if q < piv:
            if q < 0:
                count += 1
                if q > neg_piv:
                    q = neg_piv
            else:
                q = piv
        q = dsi - e2i / q
    return count + 1 if q < 0 else count


def bisect_eigenvalue(d, e2, index, lo, hi):
    """Eigenvalue number `index` (ascending, 0-based) of T by Sturm bisection.

    Runs in the dtype of lo/hi and stops when the midpoint is no longer
    representable between the bracket ends, i.e. at the dtype's resolution.
    """
    piv = pivmin(d, e2)
    if sturm_count(d, e2, lo, piv) > index:
        raise NumericalError(f"bisection bracket: {index} eigenvalues not above lo={lo}")
    if sturm_count(d, e2, hi, piv) < index + 1:
        raise NumericalError(f"bisection bracket: eigenvalue {index} not below hi={hi}")
    half = type(lo)(0.5)
    for _ in range(MAX_BISECTIONS):
        mid = half * (lo + hi)
        if mid == lo or mid == hi:
            break
        if sturm_count(d, e2, mid, piv) >= index + 1:
            hi = mid
        else:
            lo = mid
    return half * (lo + hi)


def richardson2(w_h, w_h2):
    """One h^2 extrapolation step for a second-order quantity."""
    return (4.0 * w_h2 - w_h) / 3.0


def richardson3(w_h, w_h2, w_h4):
    """Two-step h^2/h^4 extrapolation over grids {h, h/2, h/4}."""
    return (16.0 * richardson2(w_h2, w_h4) - richardson2(w_h, w_h2)) / 15.0
