"""Joint spectrum of the champagne-bottle pair (H, I) by radial reduction.

For each angular quantum number n the operator

    H_n u = -(h^2/2) (u'' - (n^2 - 1/4) u / r^2) + V(r) u

acts on L^2(0, r_max) with a Dirichlet wall at r_max.  It is discretized
on the half-offset grid r_j = (j + 1/2) delta, which realizes the r = 0
endpoint implicitly (no boundary row is needed for any n) and keeps the
scheme second-order accurate; a two-grid Richardson step upgrades every
eigenvalue to fourth order.

default_config sizes the smallest grid its rules allow: the wall where
the WKB barrier above e_max reaches 12 h, and any N whose spacing meets
the error model at GRID_EPS = 2e-9 absolute.  The model is about 8 times
optimistic at E = 0 for h <= 2e-5, which that constant absorbs.  On the
focus window |x| <= 2.5, N passes MAX_GRID_POINTS near h = 4.1e-6.

Levels are computed by bisection (Barth, Martin & Wilkinson) on Sturm
counts from LAPACK dlarrc, which counts at two shifts in one pass over the
matrix and is called through ctypes, so that it runs without the GIL.
The bisection splits at the points of a fixed dyadic grid, so a level's
value depends only on the operator and its index.  The grid-2N counts at
the window's ends give the radial indices of its levels, both grids are
bisected for exactly those indices, in equal index ranges on one thread
per usable CPU, and the two grids pair by index.  Completeness at the
window edges is checked from the measured Richardson correction, and a
correction above RICHARDSON_GAP_BUDGET local gaps raises
ConfigurationError.

Joint eigenvalues are reported as (E1, E2) = (radial eigenvalue, h n)
together with the zoomed coordinate x = E1 / (sqrt(2) h).
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.linalg import cython_lapack
from scipy.optimize import brentq

from .errors import (ConfigurationError, ConvergenceError, _check_keys,
                     _read_json)

SQRT2 = math.sqrt(2.0)
MAX_GRID_POINTS = 1 << 22


# --- potentials ---------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential V(r) = sum_k coefficients[k] * r^(2k)."""

    kind: str
    coefficients: tuple

    @staticmethod
    def champagne_bottle() -> "PotentialSpec":
        return PotentialSpec("champagne_bottle", (0.0, -1.0, 1.0))

    @staticmethod
    def harmonic_test() -> "PotentialSpec":
        return PotentialSpec("harmonic_test", (0.0, 0.5))

    def __post_init__(self):
        if self.kind not in ("champagne_bottle", "harmonic_test"):
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))

    def V(self, r):
        u = np.asarray(r, dtype=float) ** 2
        out = np.zeros_like(u)
        for c in reversed(self.coefficients):
            out *= u
            out += c
        return float(out) if out.ndim == 0 else out

    def _in_u(self) -> tuple:
        """V as a polynomial in u = r^2, and the u at which V may be least:
        0 and the real critical points u > 0, ascending."""
        poly = np.polynomial.Polynomial(self.coefficients).trim()
        roots = np.atleast_1d(poly.deriv().roots())
        return poly, [0.0] + sorted(float(z.real) for z in roots
                                    if z.imag == 0.0 and z.real > 0.0)

    def v_min(self) -> float:
        """Minimum of V over r >= 0."""
        poly, us = self._in_u()
        return float(min(poly(u) for u in us))

    def turning_point(self, level: float) -> float:
        """Outer turning point: the smallest r beyond which V stays at or
        above level, by brentq in u = r^2 past the last critical point of
        V, and V(r) >= level holds at the r returned."""
        poly, us = self._in_u()
        if poly.degree() < 1 or poly.coef[-1] <= 0.0:
            raise ConfigurationError("potential does not confine")
        u0 = us[-1]                         # V increases beyond u0
        if poly(u0) < level:
            u1 = u0 + 1.0
            while poly(u1) < level:
                u1 = 2.0 * u1
            u0 = brentq(lambda u: poly(u) - level, u0, u1)
        r, step = math.sqrt(u0), _ULP * max(math.sqrt(u0), 1.0)
        while self.V(r) < level:            # brentq may stop short of it
            r += step
            step *= 2.0
        return r


# --- discretization -----------------------------------------------------

@dataclass(frozen=True)
class DiscretizationConfig:
    r_max: float
    grid_points: int
    h: float
    e_max: float

    def __post_init__(self):
        if self.grid_points < 64:
            raise ConfigurationError("grid_points must be >= 64")
        if not (self.r_max > 0.0 and self.h > 0.0):
            raise ConfigurationError("r_max and h must be positive")


# the absolute error default_config sizes the grid for
GRID_EPS = 2e-9
# Gauss-Legendre nodes and weights of the barrier integral, on [0, 1]
_GL_S, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_S, _GL_W = 0.5 * (_GL_S + 1.0), 0.5 * _GL_W


def _barrier(potential: PotentialSpec, level: float, r_turn: float,
             r: float) -> float:
    """WKB barrier integral int_{r_turn}^r sqrt(2 (V - level)) dr from the
    outer turning point r_turn of level.  With r = r_turn + (r - r_turn)
    s^2 the integrand is smooth at the turning point, and 32 fixed
    Gauss-Legendre nodes in s resolve it."""
    width = r - r_turn
    v = potential.V(r_turn + width * _GL_S**2)
    root = np.sqrt(2.0 * np.maximum(v - level, 0.0))
    return float(np.dot(_GL_W, root * 2.0 * width * _GL_S))


def default_config(h: float, e_max: float,
                   potential: PotentialSpec | None = None) -> DiscretizationConfig:
    """The smallest grid that the error model of fd2 with Richardson allows.

    Wall: r_max is the smallest radius past the outer turning point of
    2 e_max at which the WKB barrier int sqrt(2 (V - e_max)) dr, from the
    outer turning point of e_max, reaches 12 h, so that truncation shifts
    levels by about exp(-24) relative.  Both turning points and the wall
    are roots found by brentq, the barrier by fixed Gauss-Legendre nodes.
    Grid: N = max(64, ceil(r_max / delta)), any integer, with delta the
    spacing at which the model error delta^4 p^6 / (720 h^4), at p^2 =
    2 (e_max - min V) but at least 2e-3, equals GRID_EPS = 2e-9 absolute.
    The model is about 8 times optimistic at E = 0 for h <= 2e-5, where
    the n = 0 lines are 7.8e-4 (h = 2e-5) and 2.7e-3 (h = 1e-5) local gaps
    from their three-grid values.  With 1e-8 in place of GRID_EPS the gap
    law's error at h = 1e-5 grows from 0.13% to 1.2%, above the 0.22% at
    h = 1e-4, and no longer falls with h.  On the focus window |x| <= 2.5
    N passes MAX_GRID_POINTS near h = 4.1e-6: raises ConfigurationError
    when N would exceed it.
    """
    potential = potential or PotentialSpec.champagne_bottle()
    r_turn = potential.turning_point(e_max)

    def shortfall(r):
        return _barrier(potential, e_max, r_turn, r) - 12.0 * h

    r_max = max(r_turn, potential.turning_point(2.0 * e_max))
    if shortfall(r_max) < 0.0:
        step = max(r_max, 1.0)
        while shortfall(r_max + step) < 0.0:
            step *= 2.0
        r_max = brentq(shortfall, r_max, r_max + step)

    p_max2 = 2.0 * max(e_max - potential.v_min(), 1e-3)
    delta = (720.0 * h**4 * GRID_EPS / p_max2**3) ** 0.25
    n = max(64, math.ceil(r_max / delta))
    if n > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"h={h:g}, e_max={e_max:g} needs {n} grid points, more than "
            f"the {MAX_GRID_POINTS} the fd2 solver allows")
    return DiscretizationConfig(r_max=r_max, grid_points=n, h=h, e_max=e_max)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix: diagonal diag, off-diagonal offdiag.

    Checked once, when it is made: both are C-contiguous 1-d float64
    arrays, finite, with one entry fewer off the diagonal.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        for name, a in (("diag", self.diag), ("offdiag", self.offdiag)):
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.ndim == 1 and a.flags.c_contiguous):
                raise ConfigurationError(
                    f"{name} must be a C-contiguous 1-d float64 array")
        n = len(self.diag)
        if len(self.offdiag) != n - 1:
            raise ConfigurationError(
                f"{n} diagonal entries need {n - 1} off-diagonal ones, not "
                f"{len(self.offdiag)}")
        if not 1 <= n <= _MAX_ORDER:
            raise ConfigurationError(f"order {n} is outside 1..{_MAX_ORDER}")
        if not (np.all(np.isfinite(self.diag))
                and np.all(np.isfinite(self.offdiag))):
            raise ConfigurationError("the tridiagonal matrix is not finite")

    @functools.cached_property
    def gershgorin(self) -> tuple:
        """(lower, upper), an interval that holds every eigenvalue."""
        radius = np.zeros(len(self.diag))
        np.abs(self.offdiag, out=radius[:-1])
        radius[1:] += radius[:-1]           # numpy buffers the overlap
        return (float(np.min(self.diag - radius)),
                float(np.max(self.diag + radius)))


def build_radial_operator(n: int, config: DiscretizationConfig,
                          potential: PotentialSpec | None = None,
                          grid_points: int | None = None) -> TridiagonalOperator:
    """Symmetric tridiagonal matrix for H_n on the half-offset grid.

    diag_j = h^2/delta^2 + h^2 n^2 / (2 r_j^2) + V(r_j) with r_j = (j + 1/2)
    delta, and offdiag_j = -h^2/(2 delta^2) (j + 1) / sqrt((j + 1/2)(j +
    3/2)), built with in-place operations in the order of those formulas:
    the build peaks at about 1.6 times the size of the two results.
    """
    potential = potential or PotentialSpec.champagne_bottle()
    if potential.V(config.r_max) < 2.0 * config.e_max:
        raise ConfigurationError(
            f"V(r_max)={potential.V(config.r_max):g} < 2 e_max="
            f"{2.0 * config.e_max:g}; enlarge r_max")
    N = grid_points or config.grid_points
    h = config.h
    delta = config.r_max / N
    r = np.arange(N, dtype=np.float64)
    r += 0.5
    r *= delta
    diag = potential.V(r)
    r *= r
    np.divide(0.5 * h * h * float(n * n), r, out=r)
    r += (h * h) / (delta * delta)
    diag += r
    del r
    # off = the scale times (j + 1), over sqrt((j + 1/2)(j + 3/2)); every
    # j + 1/2, j + 1 and j + 3/2 below is exact
    off = np.arange(N - 1, dtype=np.float64)
    off += 0.5
    root = off + 1.0
    root *= off
    np.sqrt(root, out=root)
    off += 0.5
    off *= -(h * h / (2.0 * delta * delta))
    off /= root
    return TridiagonalOperator(diag, off)


# --- LAPACK dlarrc Sturm counts and bisection ---------------------------
# dlarrc counts the eigenvalues at or below two shifts in one pass over the
# matrix.  It is called through the function pointer scipy's cython_lapack
# exports, with ctypes, which releases the GIL for the length of the call,
# so that bisections on different threads run at the same time.

def _capsule_address(capsule) -> int:
    # private function objects: setting restype on ctypes.pythonapi's own
    # would change them for every user in the process
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
# DLARRC(JOBT, N, VL, VU, D, E, PIVMIN, EIGCNT, LCNT, RCNT, INFO)
_DLARRC = ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, ctypes.c_void_p,
    ctypes.c_void_p, _DOUBLE, _INT, _INT, _INT, _INT)(
    _capsule_address(cython_lapack.__pyx_capi__["dlarrc"]))
# the largest order a C int indexes
_MAX_ORDER = int(np.iinfo(np.intc).max)
_ULP = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _counts(op: TridiagonalOperator, x: float, y: float) -> tuple:
    """Numbers of eigenvalues at or below x and at or below y, in one
    dlarrc pass: the pivots <= 0 of the LDL^T factorizations of T - x and
    T - y.  Its recurrence has no pivot guard, so a pivot of exactly 0.0
    counts a level twice: it is counted, and so is the -inf pivot after
    it.  _bisect detects that."""
    lcnt, rcnt, eigcnt, info = (ctypes.c_int(), ctypes.c_int(),
                                ctypes.c_int(), ctypes.c_int())
    # op keeps both arrays, checked when it was made, alive until it returns
    _DLARRC(b"T", ctypes.c_int(len(op.diag)), ctypes.c_double(x),
            ctypes.c_double(y), op.diag.ctypes.data, op.offdiag.ctypes.data,
            ctypes.c_double(0.0), eigcnt, lcnt, rcnt, info)
    return lcnt.value, rcnt.value


def _count_all(op: TridiagonalOperator, xs: list) -> list:
    """The counts at every x of xs, two per dlarrc pass."""
    counts = []
    for i in range(0, len(xs), 2):
        counts += _counts(op, xs[i], xs[min(i + 1, len(xs) - 1)])
    return counts[:len(xs)]


def _abs_tol(op: TridiagonalOperator) -> float:
    """dstebz's default absolute tolerance: ULP times the larger
    Gershgorin bound, and at least the smallest normal double."""
    return max(_ULP * max(abs(bound) for bound in op.gershgorin), _TINY)


def _bisect(op: TridiagonalOperator, first: int, stop: int,
            a: float, b: float) -> np.ndarray:
    """The eigenvalues of index first..stop-1 (from 0, ascending) on the
    dyadic grid of step cell, _abs_tol(op) rounded down to a power of two.

    The guess (a, b], clipped to the Gershgorin interval, is covered by
    one or two aligned cells of the finest step 2^j >= cell that allows;
    while the cover's counts miss an index, its end on that side moves
    out by one cell and the step doubles.  Intervals are then halved at
    their midpoints, exact doubles since cell > ULP * max |Gershgorin| / 2,
    until one cell wide, and a level is the midpoint of the cell whose
    counts hold its index: its value depends on op and its index alone.
    One dlarrc pass counts two midpoints.  Raises ConfigurationError on an
    index range outside 0..order, and ConvergenceError on a count past the
    Gershgorin interval other than 0 or the order, on a count outside its
    interval's counts, and on a count made too high by a zero pivot.
    """
    order = len(op.diag)
    if not 0 <= first <= stop <= order:
        raise ConfigurationError(
            f"index range {first}..{stop - 1} is not inside the {order} "
            f"levels of a {order}-point grid; the grid is too coarse")
    lower, upper = op.gershgorin
    cell = math.ldexp(1.0, math.frexp(_abs_tol(op))[1] - 1)
    lo = min(max(a, lower), upper)
    hi, step = min(max(b, lo), upper), cell
    while True:
        lo = math.floor(lo / step) * step
        hi = max(math.ceil(hi / step) * step, lo + step)
        if hi - lo > 2.0 * step:            # more than two cells
            step *= 2.0
            continue
        clo, chi = _counts(op, lo, hi)
        if clo <= first and chi >= stop:
            break
        if (clo > first and lo < lower) or (chi < stop and hi > upper):
            raise ConvergenceError(
                f"Sturm counts {clo}, {chi} at ({lo!r}, {hi!r}], past the "
                f"Gershgorin interval ({lower!r}, {upper!r}], are not 0 "
                f"and {order}")
        lo -= step if clo > first else 0.0
        hi += step if chi < stop else 0.0
        step *= 2.0
    levels = np.empty(stop - first)
    ends = []                               # (b, cb) of each solved interval
    live = [(lo, hi, clo, chi)]
    while live:
        halve = []
        for a, b, ca, cb in live:
            i, j = max(ca, first) - first, min(cb, stop) - first
            if i >= j:                      # holds no level asked for
                continue
            if b - a <= cell:
                levels[i:j] = 0.5 * (a + b)
                ends.append((b, cb))
            else:
                halve.append((a, b, ca, cb))
        mids = [0.5 * (a + b) for a, b, _, _ in halve]
        live = []
        for (a, b, ca, cb), m, cm in zip(halve, mids, _count_all(op, mids)):
            if not ca <= cm <= cb:
                raise ConvergenceError(
                    f"Sturm count {cm} at {m!r} is outside the counts "
                    f"{ca}..{cb} of its interval ({a!r}, {b!r}]")
            live += [(a, m, ca, cm), (m, b, cm, cb)]
    # A count one too high at a point x puts a level of the interval below
    # x at x, in place of the one above it.  That level's interval ends at
    # x, and the count at the next double up is then below x's.
    above = [float(np.nextafter(b, math.inf)) for b, _ in ends]
    for (b, cb), c in zip(ends, _count_all(op, above)):
        if c < cb:
            raise ConvergenceError(
                f"Sturm count {cb} at {b!r} is above the count {c} at the "
                f"next double: a pivot of exactly 0.0 counted a level twice")
    return levels


def eigenvalues_below(op: TridiagonalOperator, e_max: float) -> np.ndarray:
    """All discrete eigenvalues < e_max: those of index below the Sturm
    count at e_max."""
    e_max = float(e_max)
    expected = _count_all(op, [e_max])[0]
    vals = _bisect(op, 0, expected, op.gershgorin[0], e_max)
    vals = vals[vals < e_max]
    if len(vals) != expected:
        raise ConfigurationError(
            f"eigenvalue count {len(vals)} disagrees with Sturm count "
            f"{expected} below {e_max}")
    return vals


# one radial level: index k from the bottom and eigenvalue E1
LEVEL_DTYPE = np.dtype([("k", np.int64), ("E1", np.float64)])

# largest Richardson correction |E_rich - E_2N| allowed, in local gaps
RICHARDSON_GAP_BUDGET = 0.5


def _richardson_ratio(fine: np.ndarray, rich: np.ndarray) -> float:
    """max over levels of |rich - fine| / the gap to the nearer neighbour;
    inf when the extrapolated levels are not increasing."""
    gaps = np.diff(rich)
    if np.any(gaps <= 0.0):
        return math.inf
    local = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    return float(np.max(np.abs(rich - fine) / local, initial=0.0))


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _grid_levels(ops: tuple, a: float, b: float, first: int,
                 stop: int) -> tuple:
    """(E_2N, E_N): the levels of index first..stop-1 on ops = (grid 2N,
    grid N).  first..stop-1 is cut into equal index ranges, one per usable
    CPU, each bisected on both grids from the guess (a, b] on one pool."""
    if stop <= first:
        return np.empty(0), np.empty(0)
    for op in ops:
        op.gershgorin       # cached here, not by every worker at once
    parts = min(_usable_cpus(), stop - first)
    cuts = [first + (stop - first) * j // parts for j in range(parts + 1)]

    def solve(i):
        return [_bisect(op, cuts[i], cuts[i + 1], a, b) for op in ops]

    with ThreadPoolExecutor(max_workers=parts) as pool:
        solved = list(pool.map(solve, range(parts)))
    grids = []
    for i, op in enumerate(ops):
        vals = np.concatenate([levels[i] for levels in solved])
        if len(vals) != stop - first:
            raise ConfigurationError(
                f"bisection returned {len(vals)} levels of index {first}.."
                f"{stop - 1} on {len(op.diag)} points, the Sturm counts "
                f"{stop - first}")
        grids.append(vals)
    return tuple(grids)


def eigenvalues_in_window(n: int, config: DiscretizationConfig,
                          potential: PotentialSpec,
                          lo: float, hi: float) -> np.recarray:
    """Levels in [lo, hi) as records (k, E1), k ascending; k is the radial
    index from the bottom.

    The grid-2N Sturm counts at lo and hi give the indices of the window's
    levels.  Both grids are bisected for exactly those indices and E1 =
    (4 E_2N - E_N) / 3, so the pairing is by index and cannot drop a level.
    A window with fewer than two levels takes its neighbours too, so that
    a correction and a gap are measured.  Completeness comes from the
    measured correction: with c = 2 max |E1 - E_2N|, the levels the grid
    2N has in (lo - c, lo] and (hi, hi + c] are added on both grids, until
    c uncovers no more.  A correction above RICHARDSON_GAP_BUDGET local
    gaps raises ConfigurationError.
    """
    grid = config.grid_points
    ops = (build_radial_operator(n, config, potential, grid_points=2 * grid),
           build_radial_operator(n, config, potential))
    first, stop = _counts(ops[0], lo, hi)
    if stop - first < 2:
        first = max(first - 1, 0)
        stop = first + 2
    e_fine, e_coarse = _grid_levels(ops, lo, hi, first, stop)
    while True:
        e1 = (4.0 * e_fine - e_coarse) / 3.0
        ratio = _richardson_ratio(e_fine, e1)
        if ratio > RICHARDSON_GAP_BUDGET:
            raise ConfigurationError(
                f"line n={n}: the Richardson correction is {ratio:.3g} "
                f"local gaps, above the budget of {RICHARDSON_GAP_BUDGET}; "
                f"N={grid} is too coarse")
        c = 2.0 * float(np.max(np.abs(e1 - e_fine)))
        start, end = _counts(ops[0], lo - c, hi + c)
        start, end = min(first, start), max(stop, end)
        if (start, end) == (first, stop):
            break
        below = _grid_levels(ops, lo - c, lo, start, first)
        above = _grid_levels(ops, hi, hi + c, stop, end)
        e_fine, e_coarse = (np.concatenate(parts)
                            for parts in zip(below, (e_fine, e_coarse), above))
        first, stop = start, end
    keep = (e1 >= lo) & (e1 < hi)
    return np.rec.fromarrays([first + np.flatnonzero(keep), e1[keep]],
                             dtype=LEVEL_DTYPE)


# --- joint spectrum -----------------------------------------------------

# one joint eigenvalue, in the column order of the CSV
POINT_DTYPE = np.dtype([("h", np.float64), ("n", np.int64), ("k", np.int64),
                        ("E1", np.float64), ("E2", np.float64),
                        ("x", np.float64)])


@dataclass
class SpectrumTable:
    """Joint eigenvalues of one h over a window of lines and energies.

    points is a numpy record array of POINT_DTYPE with fields h, n, k, E1,
    E2 = h n and x = E1 / (sqrt 2 h), sorted by (n, E1) when the table is
    built, and read-only.  Columns read as points.E1, rows as
    points[i].E1; the rows of line n are the contiguous slice line(n).
    """

    h: float
    n_range: tuple
    e_window: tuple
    points: np.recarray
    config: DiscretizationConfig
    potential: PotentialSpec
    empty_lines: list = field(default_factory=list)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=POINT_DTYPE)
        self.points = pts[np.lexsort((pts["E1"], pts["n"]))].view(np.recarray)
        # line(n) and line_x(n) are views: keep callers from editing the table
        self.points.flags.writeable = False

    def line(self, n: int) -> np.recarray:
        lo, hi = np.searchsorted(self.points.n, (n, n + 1))
        return self.points[lo:hi]

    def line_x(self, n: int) -> np.ndarray:
        return self.line(n).x

    def n_values(self) -> list:
        return np.unique(self.points.n).tolist()


def joint_spectrum(h: float, n_range: tuple, e_window: tuple,
                   config: DiscretizationConfig | None = None,
                   potential: PotentialSpec | None = None) -> SpectrumTable:
    """Joint eigenvalues (E1, E2=hn) for n in n_range, E1 in e_window.

    The radial operator depends on n only through n^2, so only |n| lines
    are solved, one after another, each on one thread per usable CPU, and
    negative lines are mirrored bit for bit.
    """
    n_min, n_max = int(n_range[0]), int(n_range[1])
    lo, hi = float(e_window[0]), float(e_window[1])
    if n_min > n_max or lo >= hi:
        raise ConfigurationError("empty n_range or e_window")
    potential = potential or PotentialSpec.champagne_bottle()
    config = config or default_config(h, hi, potential)

    results = {m: eigenvalues_in_window(m, config, potential, lo, hi)
               for m in sorted({abs(n) for n in range(n_min, n_max + 1)})}

    ns = np.arange(n_min, n_max + 1)
    lines = [results[abs(n)] for n in ns.tolist()]
    sizes = np.array([len(levels) for levels in lines])
    n = np.repeat(ns, sizes)
    levels = np.concatenate(lines)
    points = np.rec.fromarrays(
        [np.full(len(n), h), n, levels["k"], levels["E1"], h * n,
         levels["E1"] / (SQRT2 * h)], dtype=POINT_DTYPE)
    return SpectrumTable(h=h, n_range=(n_min, n_max), e_window=(lo, hi),
                         points=points, config=config, potential=potential,
                         empty_lines=ns[sizes == 0].tolist())


# --- serialization ------------------------------------------------------

CSV_HEADER = "h,n,k,E1,E2,x"
CSV_FORMAT = "%.17g,%d,%d,%.17g,%.17g,%.17g"


def write_spectrum_csv(table: SpectrumTable, path: str) -> None:
    """CSV with 17 significant digits plus a JSON sidecar <path>.meta.json."""
    np.savetxt(path, table.points, fmt=CSV_FORMAT, header=CSV_HEADER,
               comments="")
    meta = {
        "h": table.h,
        "n_range": list(table.n_range),
        "e_window": list(table.e_window),
        "config": asdict(table.config),
        "potential": {"kind": table.potential.kind,
                      "coefficients": list(table.potential.coefficients)},
        "empty_lines": table.empty_lines,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_sidecar(meta_path: str, meta: dict, points: np.ndarray) -> None:
    """ConfigurationError naming the sidecar and the key unless every row
    has its h, an n in n_range and an E1 in [e_window), and every empty
    line lies in n_range and has no rows."""
    (n_lo, n_hi), (e_lo, e_hi) = meta["n_range"], meta["e_window"]
    n, e1 = points["n"], points["E1"]
    for key, bad in [("h", points["h"] != meta["h"]),
                     ("n_range", (n < n_lo) | (n > n_hi)),
                     ("e_window", (e1 < e_lo) | (e1 >= e_hi))]:
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigurationError(
                f"{meta_path}: {key} is {meta[key]!r}, but data row {i} has "
                f"(h, n, E1) = {points[['h', 'n', 'E1']][i].item()}")
    stray = [m for m in meta["empty_lines"] if not n_lo <= m <= n_hi or m in n]
    if stray:
        raise ConfigurationError(
            f"{meta_path}: empty_lines is {meta['empty_lines']!r}, but lines "
            f"{stray} are outside n_range or have rows")


def read_spectrum_csv(path: str) -> SpectrumTable:
    """Table written by write_spectrum_csv.  Without its .meta.json sidecar
    it warns, and assumes the champagne potential and default_config.  A
    sidecar that is not JSON, has other keys than write_spectrum_csv
    writes, or values not of their types or not true of the rows, and rows
    whose k does not rise strictly with E1 on a line raise
    ConfigurationError naming them."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != CSV_HEADER:
        raise ConfigurationError(f"bad spectrum CSV header: {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # an empty file is raised below
        points = np.loadtxt(path, dtype=POINT_DTYPE, delimiter=",",
                            skiprows=1, ndmin=1)
    if not len(points):
        raise ConfigurationError(f"no rows in {path}")
    h = float(points["h"][0])
    meta_path = path + ".meta.json"
    n_range = (int(points["n"].min()), int(points["n"].max()))
    e_window = (float(points["E1"].min()), float(points["E1"].max()))
    empty = []
    if os.path.exists(meta_path):
        meta = _read_json(meta_path, {
            "h": float, "n_range": tuple[int, int],
            "e_window": tuple[float, float], "config": dict,
            "potential": dict, "empty_lines": list[int]})
        config, potential = (
            cls(**_check_keys(f"{meta_path} {key}", meta[key], cls))
            for key, cls in [("config", DiscretizationConfig),
                             ("potential", PotentialSpec)])
        _check_sidecar(meta_path, meta, points)
        n_range = tuple(meta["n_range"])
        e_window = tuple(meta["e_window"])
        empty = meta["empty_lines"]
    else:
        warnings.warn(f"{meta_path} not found: assuming the champagne "
                      "potential and default_config for the table")
        potential = PotentialSpec.champagne_bottle()
        config = default_config(h, e_window[1], potential)
    table = SpectrumTable(h=h, n_range=n_range, e_window=e_window,
                          points=points, config=config, potential=potential,
                          empty_lines=empty)
    # rows are sorted by (n, E1): k must rise with them on each line
    pts = table.points
    bad = np.flatnonzero((np.diff(pts.n) == 0) & ((np.diff(pts.k) <= 0)
                                                  | (np.diff(pts.E1) <= 0)))
    if len(bad):
        raise ConfigurationError(f"{path}: k does not increase strictly with "
                                 f"E1 on line n={pts.n[bad[0]]}")
    return table
