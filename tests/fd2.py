"""fd2: the second-order finite-difference radial operator, as a test oracle.

H_n is discretized on the half-offset grid r_j = (j + 1/2) delta, delta =
r_max / N, which realizes the r = 0 endpoint implicitly for every n: a
symmetric tridiagonal matrix whose eigenvalues scipy's eigh_tridiagonal
gives, and whose Sturm count at x is the number of its levels below x.
The matrix knows nothing of the CP mesh, so its level indices are an
independent check of the shooting's radial index k.  It is meant for
h >= 1e-3, where N stays in the thousands.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal


def operator(n, r_max, points, h, potential):
    """(diag, offdiag): diag_j = h^2 / delta^2 + h^2 n^2 / (2 r_j^2) +
    V(r_j), offdiag_j = -h^2 / (2 delta^2) (j + 1) / sqrt((j + 1/2)(j +
    3/2))."""
    delta = r_max / points
    r = (np.arange(points) + 0.5) * delta
    diag = h * h / delta**2 + 0.5 * h * h * n * n / r**2 + potential.V(r)
    j = np.arange(points - 1)
    off = -(h * h / (2.0 * delta**2)) * (j + 1.0) \
        / np.sqrt((j + 0.5) * (j + 1.5))
    return diag, off


def sturm_count(diag, off, x):
    """Levels strictly below x: the signs of the LDL^T pivots of T - x,
    one Python step per row."""
    shifted = (diag - x).tolist()
    off2 = (off**2).tolist()
    d = shifted[0]
    count = int(d < 0.0)
    for a, b2 in zip(shifted[1:], off2):
        if d == 0.0:
            d = 1e-300
        d = a - b2 / d
        count += d < 0.0
    return count


def window_levels(n, r_max, points, h, potential, lo, hi):
    """(first, E): the levels of fd2 with Richardson on the grids N and 2N
    that the Sturm count of grid 2N puts in [lo, hi), E[i] of index
    first + i, paired by index."""
    fine = operator(n, r_max, 2 * points, h, potential)
    first, stop = (sturm_count(*fine, x) for x in (lo, hi))
    if stop <= first:
        return first, np.empty(0)
    grids = [eigh_tridiagonal(*op, eigvals_only=True, select="i",
                              select_range=(first, stop - 1))
             for op in (operator(n, r_max, points, h, potential), fine)]
    return first, (4.0 * grids[1] - grids[0]) / 3.0
