"""Joint spectrum of the champagne-bottle pair (H, I) by radial reduction.

For each angular quantum number n the operator

    H_n u = -(h^2/2) (u'' - (n^2 - 1/4) u / r^2) + V(r) u

acts on L^2(0, r_max) with a Dirichlet wall at r_max.  It is discretized
on the half-offset grid r_j = (j + 1/2) delta, which realizes the r = 0
endpoint implicitly (no boundary row is needed for any n) and keeps the
scheme second-order accurate; a two-grid Richardson step upgrades every
eigenvalue to fourth order.

Levels are computed by LAPACK bisection, dstebz, called directly through
ctypes so that it runs without the GIL.  Two of its Sturm counts give the
radial index and the number of the levels in a window; the fine grid 2N
is solved on the window while a helper thread solves the coarse grid N
for exactly those indices, so the two grids pair by index.  The lines of
a joint spectrum are solved on one thread per usable CPU.  Completeness
at the window edges is checked from the measured Richardson correction,
not from an error model, and a correction above RICHARDSON_GAP_BUDGET
local gaps raises ConfigurationError.

Joint eigenvalues are reported as (E1, E2) = (radial eigenvalue, h n)
together with the zoomed coordinate x = E1 / (sqrt(2) h).
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np
from scipy.linalg import cython_lapack

from .errors import ConfigurationError, ConvergenceError

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

    @staticmethod
    def custom_polynomial(coefficients) -> "PotentialSpec":
        coefficients = tuple(float(c) for c in coefficients)
        if len(coefficients) < 2 or coefficients[-1] <= 0.0:
            raise ConfigurationError(
                "custom polynomial must be confining (positive leading "
                "coefficient in r^2)")
        return PotentialSpec("custom_polynomial", coefficients)

    def __post_init__(self):
        if self.kind not in ("champagne_bottle", "harmonic_test",
                             "custom_polynomial"):
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))

    def V(self, r):
        u = np.asarray(r, dtype=float) ** 2
        out = np.zeros_like(u)
        for c in reversed(self.coefficients):
            out = out * u + c
        return float(out) if out.ndim == 0 else out

    def v_min(self) -> float:
        """Minimum of V on a 20001-point scan of [0, r_confining(0) + 1];
        exact enough for the grid-size bounds."""
        r = np.linspace(0.0, self.r_confining(0.0) + 1.0, 20001)
        return float(np.min(self.V(r)))

    def r_confining(self, level: float) -> float:
        """Smallest r beyond which V stays >= level."""
        r = 1.0
        while not np.all(self.V(np.linspace(r, 4.0 * r, 256)) >= level):
            r *= 1.25
            if r > 1e6:
                raise ConfigurationError("potential does not confine")
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


def _wkb_tail(potential: PotentialSpec, e_max: float, r_max: float) -> float:
    """Barrier integral int sqrt(2(V - e_max)) dr from the outer turning point."""
    r = np.linspace(0.0, r_max, 4097)
    v = potential.V(r)
    above = v > e_max
    if not above[-1]:
        return 0.0
    i0 = len(r) - int(np.argmin(above[::-1]))  # first index of the final run
    seg = np.sqrt(np.maximum(2.0 * (v[i0:] - e_max), 0.0))
    return float(np.trapezoid(seg, r[i0:]))


def default_config(h: float, e_max: float,
                   potential: PotentialSpec | None = None) -> DiscretizationConfig:
    """Grid sized so the discretization error is far below the mean gap.

    r_max: smallest radius with V >= 2 max(e_max, 0.01), a 25% margin, and
    enough barrier (WKB integral >= 12 h) that truncation shifts levels by
    less than ~1e-10 relative.  delta: from the error model of fd2 with
    Richardson, delta^4 p^6 / (720 h^4).
    Raises ConfigurationError when that takes more than MAX_GRID_POINTS.
    """
    potential = potential or PotentialSpec.champagne_bottle()
    level = 2.0 * max(e_max, 0.01)
    r_hi = potential.r_confining(level)
    rr = np.linspace(0.0, r_hi, 8193)
    vv = potential.V(rr)
    idx = np.nonzero(vv >= level)[0]
    r_v = float(rr[idx[0]]) if len(idx) else r_hi
    r_max = 1.25 * max(r_v, 1e-2)
    while _wkb_tail(potential, e_max, r_max) < 12.0 * h:
        r_max *= 1.1
        if r_max > 1e3:
            raise ConfigurationError("cannot satisfy the barrier condition")

    p_max2 = 2.0 * max(e_max - potential.v_min(), 1e-3)
    gap = 2.0 * math.pi * SQRT2 * h / max(abs(math.log(h)), 1.0)
    eps = min(1e-8, 5e-3 * gap)
    delta = (720.0 * h**4 * eps / p_max2**3) ** 0.25
    n = max(64, 1 << int(math.ceil(math.log2(r_max / delta))))
    if n > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"h={h:g}, e_max={e_max:g} needs {n} grid points, more than "
            f"the {MAX_GRID_POINTS} the fd2 solver allows")
    return DiscretizationConfig(r_max=r_max, grid_points=n, h=h, e_max=e_max)


@dataclass(frozen=True)
class TridiagonalOperator:
    diag: np.ndarray
    offdiag: np.ndarray


def build_radial_operator(n: int, config: DiscretizationConfig,
                          potential: PotentialSpec | None = None,
                          grid_points: int | None = None) -> TridiagonalOperator:
    """Symmetric tridiagonal matrix for H_n on the half-offset grid."""
    potential = potential or PotentialSpec.champagne_bottle()
    if potential.V(config.r_max) < 2.0 * config.e_max:
        raise ConfigurationError(
            f"V(r_max)={potential.V(config.r_max):g} < 2 e_max="
            f"{2.0 * config.e_max:g}; enlarge r_max")
    N = grid_points or config.grid_points
    h = config.h
    delta = config.r_max / N
    j = np.arange(N)
    r = (j + 0.5) * delta
    n2 = float(n * n)
    diag = (h * h) / (delta * delta) + 0.5 * h * h * n2 / (r * r) \
        + potential.V(r)
    jj = np.arange(N - 1)
    off = -(h * h / (2.0 * delta * delta)) * (jj + 1.0) \
        / np.sqrt((jj + 0.5) * (jj + 1.5))
    return TridiagonalOperator(diag, off)


# --- LAPACK dstebz -------------------------------------------------------
# dstebz is called through the function pointer scipy's cython_lapack
# exports, with ctypes, which releases the GIL for the length of the call,
# so that solves on different threads run at the same time.

def _capsule_address(capsule) -> int:
    # private function objects: setting restype on ctypes.pythonapi's own
    # would change them for every user in the process
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


def _vector(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags="C_CONTIGUOUS")


_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
# DSTEBZ(RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W,
#        IBLOCK, ISPLIT, WORK, IWORK, INFO)
_DSTEBZ = ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, _INT,
    _INT, _DOUBLE, _vector(np.float64), _vector(np.float64), _INT, _INT,
    _vector(np.float64), _vector(np.intc), _vector(np.intc),
    _vector(np.float64), _vector(np.intc), _INT)(
    _capsule_address(cython_lapack.__pyx_capi__["dstebz"]))
# WORK has 4 N entries, indexed by a C int
_MAX_ORDER = int(np.iinfo(np.intc).max) // 4


def _stebz(diag: np.ndarray, offdiag: np.ndarray, select: str,
           vl: float = 0.0, vu: float = 0.0, il: int = 1, iu: int = 1,
           abstol: float = 0.0) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal diag and off-diagonal offdiag, by LAPACK dstebz: those in
    (vl, vu] for select "V", those of index il..iu (from 1) for "I".

    abstol 0 is LAPACK's default tolerance, the one eigh_tridiagonal uses.
    Raises ConfigurationError on a malformed matrix or range, before the
    call, and on an illegal argument reported by LAPACK; ConvergenceError
    when bisection fails.
    """
    for name, a in (("diag", diag), ("offdiag", offdiag)):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.ndim == 1 and a.flags.c_contiguous):
            raise ConfigurationError(
                f"{name} must be a C-contiguous 1-d float64 array")
    n = len(diag)
    if len(offdiag) != n - 1:
        raise ConfigurationError(
            f"{n} diagonal entries need {n - 1} off-diagonal ones, not "
            f"{len(offdiag)}")
    if not 1 <= n <= _MAX_ORDER:
        raise ConfigurationError(f"order {n} is outside 1..{_MAX_ORDER}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise ConfigurationError("the tridiagonal matrix is not finite")
    if select == "V":
        if not vl < vu:
            raise ConfigurationError(f"empty value range ({vl}, {vu}]")
    elif select == "I":
        if not 1 <= il <= iu <= n:
            raise ConfigurationError(
                f"index range {il}..{iu} is outside 1..{n}")
    else:
        raise ConfigurationError(f"select must be 'V' or 'I', not {select!r}")
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    # np.empty: the parts dstebz leaves untouched never become resident
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.intc)
    isplit = np.empty(n, dtype=np.intc)
    work = np.empty(4 * n)
    iwork = np.empty(3 * n, dtype=np.intc)
    # every buffer above and the two arrays stay referenced until it returns
    _DSTEBZ(select.encode(), b"E", ctypes.byref(ctypes.c_int(n)),
            ctypes.byref(ctypes.c_double(vl)),
            ctypes.byref(ctypes.c_double(vu)),
            ctypes.byref(ctypes.c_int(il)), ctypes.byref(ctypes.c_int(iu)),
            ctypes.byref(ctypes.c_double(abstol)), diag, offdiag,
            ctypes.byref(m), ctypes.byref(nsplit), w, iblock, isplit, work,
            iwork, ctypes.byref(info))
    if info.value < 0:
        raise ConfigurationError(
            f"dstebz: argument {-info.value} has an illegal value")
    if info.value > 0:
        raise ConvergenceError(f"dstebz failed with info={info.value}")
    # a copy: the levels are a view of a grid-sized buffer
    return w[:m.value].copy()


def _lower_bound(op: TridiagonalOperator) -> float:
    """A value strictly below every eigenvalue (Gershgorin)."""
    return float(np.min(op.diag)) - 2.0 * float(np.max(np.abs(op.offdiag))) \
        - 1.0


def sturm_count(op: TridiagonalOperator, x: float) -> int:
    """Number of eigenvalues at or below x, by LAPACK's own Sturm count.

    It is the count dstebz takes at the ends of a value range, so levels
    solved on (a, b] have the indices sturm_count(a) .. sturm_count(b) - 1.
    abstol = 1e300 stops the bisection before it starts: dstebz returns
    as many levels as the counts at the two ends differ by.
    """
    lo, x = _lower_bound(op), float(x)
    if x <= lo:
        return 0
    return len(_stebz(op.diag, op.offdiag, "V", lo, x, abstol=1e300))


def _eig_range(op: TridiagonalOperator, lo: float, hi: float) -> np.ndarray:
    """Eigenvalues in (lo, hi], the half-open interval of LAPACK stebz."""
    if hi <= lo:
        return np.empty(0)
    return _stebz(op.diag, op.offdiag, "V", lo, hi)


def _eig_index(op: TridiagonalOperator, first: int, stop: int) -> np.ndarray:
    """Eigenvalues of index first..stop-1, counted from the bottom."""
    if stop <= first:
        return np.empty(0)
    vals = _stebz(op.diag, op.offdiag, "I", il=first + 1, iu=stop)
    if len(vals) != stop - first:
        raise ConfigurationError(
            f"dstebz returned {len(vals)} levels for the {stop - first} "
            f"of index {first}..{stop - 1}")
    return vals


def eigenvalues_below(op: TridiagonalOperator, e_max: float) -> np.ndarray:
    """All discrete eigenvalues < e_max, cross-checked against sturm_count."""
    vals = _eig_range(op, _lower_bound(op), e_max)
    vals = vals[vals < e_max]
    expected = sturm_count(op, e_max)
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


def _window_levels(op: TridiagonalOperator, lo: float, hi: float,
                   expected: int) -> np.ndarray:
    """The levels in (lo, hi], which the Sturm counts put at expected."""
    vals = _eig_range(op, lo, hi)
    if len(vals) != expected:
        raise ConfigurationError(
            f"dstebz returned {len(vals)} levels in ({lo}, {hi}], the Sturm "
            f"counts {expected}")
    return vals


def eigenvalues_in_window(n: int, config: DiscretizationConfig,
                          potential: PotentialSpec,
                          lo: float, hi: float) -> np.recarray:
    """Levels in [lo, hi) as records (k, E1), k ascending; k is the radial
    index from the bottom.

    The grid 2N is solved on (lo, hi], and one Sturm count gives the index
    of its first level.  The grid N is solved for exactly those indices and
    E1 = (4 E_2N - E_N) / 3, so the pairing is by index and cannot drop a
    level.  A window with fewer than two levels takes its neighbours too,
    so that a correction and a gap are measured.  Completeness comes from
    the measured correction: with c = 2 max |E1 - E_2N|, the levels the
    fine grid has in (lo - c, lo] and (hi, hi + c] are added on both grids,
    until c uncovers no more.  A correction above RICHARDSON_GAP_BUDGET
    local gaps raises ConfigurationError.
    """
    grid = config.grid_points
    fine = build_radial_operator(n, config, potential, grid_points=2 * grid)
    coarse = build_radial_operator(n, config, potential)
    first = window_first = sturm_count(fine, lo)
    inside = sturm_count(fine, hi) - first
    if inside < 2:
        first = max(first - 1, 0)
    # the coarse grid on a helper thread while this one solves the fine
    # grid: dstebz runs without the GIL
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(_eig_index, coarse, first,
                                first + max(inside, 2))
        e_fine = (_window_levels(fine, lo, hi, inside) if inside >= 2
                  else _eig_index(fine, first, first + 2))
        e_coarse = pending.result()
    while True:
        e1 = (4.0 * e_fine - e_coarse) / 3.0
        ratio = _richardson_ratio(e_fine, e1)
        if ratio > RICHARDSON_GAP_BUDGET:
            raise ConfigurationError(
                f"line n={n}: the Richardson correction is {ratio:.3g} "
                f"local gaps, above the budget of {RICHARDSON_GAP_BUDGET}; "
                f"N={grid} is too coarse")
        # below[j] has index window_first - len(below) + j, and above[j]
        # has index window_first + inside + j
        c = 2.0 * float(np.max(np.abs(e1 - e_fine)))
        below = _eig_range(fine, lo - c, lo)
        above = _eig_range(fine, hi, hi + c)
        known = first + len(e_fine)
        start = min(first, window_first - len(below))
        stop = max(known, window_first + inside + len(above))
        if (start, stop) == (first, known):
            break
        e_fine = np.concatenate((
            below[:first - start], e_fine,
            above[known - window_first - inside:]))
        e_coarse = np.concatenate((
            _eig_index(coarse, start, first), e_coarse,
            _eig_index(coarse, known, stop)))
        first = start
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
    are solved, on one thread per usable CPU, and negative lines are
    mirrored bit for bit.
    """
    n_min, n_max = int(n_range[0]), int(n_range[1])
    lo, hi = float(e_window[0]), float(e_window[1])
    if n_min > n_max or lo >= hi:
        raise ConfigurationError("empty n_range or e_window")
    potential = potential or PotentialSpec.champagne_bottle()
    config = config or default_config(h, hi, potential)

    abs_ns = sorted({abs(n) for n in range(n_min, n_max + 1)})
    with ThreadPoolExecutor(
            max_workers=len(os.sched_getaffinity(0))) as pool:
        results = dict(zip(abs_ns, pool.map(
            lambda m: eigenvalues_in_window(m, config, potential, lo, hi),
            abs_ns)))

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
# keys of older sidecars' config objects, with the one value they may hold
LEGACY_CONFIG_KEYS = {"scheme": "fd2", "richardson": True}


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


def _sidecar_config(meta_config: dict) -> DiscretizationConfig:
    """The DiscretizationConfig of a sidecar.  A legacy key is dropped if it
    holds its one value; any other value, and a key DiscretizationConfig
    does not have or lacks, raise ConfigurationError."""
    kwargs = dict(meta_config)
    for key, value in LEGACY_CONFIG_KEYS.items():
        if kwargs.pop(key, value) != value:
            raise ConfigurationError(f"sidecar config {key} must be {value!r}")
    bad = set(kwargs) ^ {f.name for f in fields(DiscretizationConfig)}
    if bad:
        raise ConfigurationError(
            f"sidecar config keys {sorted(bad)} are unknown or missing")
    return DiscretizationConfig(**kwargs)


def read_spectrum_csv(path: str) -> SpectrumTable:
    """Table written by write_spectrum_csv.  Without its .meta.json sidecar
    it warns, and assumes the champagne potential and default_config."""
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
        with open(meta_path) as fh:
            meta = json.load(fh)
        config = _sidecar_config(meta["config"])
        potential = PotentialSpec(meta["potential"]["kind"],
                                  tuple(meta["potential"]["coefficients"]))
        n_range = tuple(meta["n_range"])
        e_window = tuple(meta["e_window"])
        empty = meta.get("empty_lines", [])
    else:
        warnings.warn(f"{meta_path} not found: assuming the champagne "
                      "potential and default_config for the table")
        potential = PotentialSpec.champagne_bottle()
        config = default_config(h, e_window[1], potential)
    return SpectrumTable(h=h, n_range=n_range, e_window=e_window,
                         points=points, config=config, potential=potential,
                         empty_lines=empty)
