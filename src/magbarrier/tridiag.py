"""Symmetric tridiagonal eigentools: Sturm counts, bisection, Richardson.

scipy's eigh_tridiagonal (LAPACK bisection plus inverse iteration) is the
fast path used by the fiber solver. The functions here cover what LAPACK
does not expose: eigenvalue counting and bisection at arbitrary shifts in
the dtype chosen by the caller. The package runs them in longdouble, for the
precise pair solves where parity splittings sit below the float64 noise
floor (eps * ||T|| is the measurable limit); the float64 counts of the
counting problems run in counting.tridiagonal_inertia.
"""

import numpy as np

from .errors import NumericalError

# halvings allowed per bisection; the loop stops sooner, at the dtype's
# resolution, for any bracket the callers form
MAX_BISECTIONS = 240
# factor by which a bracket end whose count does not hold moves out
GROWTH = 256


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


def bisect_eigenvalue(d, e2, index, lo, hi, widest=0.0):
    """Eigenvalue `index` (ascending, 0-based) of T by Sturm bisection.

    Runs in the dtype of lo/hi and stops when the midpoint is no longer
    representable between the bracket ends, i.e. at the dtype's resolution.
    An end whose count does not hold moves out from the centre 1/2(lo + hi),
    GROWTH times as far each time but at most `widest` from it, and raises
    where it can move no further (at once for the default widest = 0). Each
    end is counted once where it is placed.

    The count is monotone in sigma, so every valid bracket ends on the same
    adjacent pair of representable numbers and returns the same bits.
    """
    piv = pivmin(d, e2)
    half = type(lo)(0.5)
    centre = half * (lo + hi)
    while sturm_count(d, e2, lo, piv) > index:
        grown = centre - min(GROWTH * (centre - lo), widest)
        if not grown < lo:
            raise NumericalError(f"bisection bracket: {index} eigenvalues not above lo={lo}")
        lo = grown
    while sturm_count(d, e2, hi, piv) < index + 1:
        grown = centre + min(GROWTH * (hi - centre), widest)
        if not grown > hi:
            raise NumericalError(f"bisection bracket: eigenvalue {index} not below hi={hi}")
        hi = grown
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
