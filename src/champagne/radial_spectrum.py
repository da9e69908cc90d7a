"""Joint spectrum of the champagne-bottle pair (H, I) by radial reduction.

For each angular quantum number n the operator

    H_n u = -(h^2/2) (u'' - (n^2 - 1/4) u / r^2) + V(r) u

acts on L^2(0, r_max) with a Dirichlet wall at r_max.  It is discretized
on the half-offset grid r_j = (j + 1/2) delta, which realizes the r = 0
endpoint implicitly (no boundary row is needed for any n) and keeps the
scheme second-order accurate, with an optional two-grid Richardson step
that upgrades eigenvalues to fourth order.

Joint eigenvalues are reported as (E1, E2) = (radial eigenvalue, h n)
together with the zoomed coordinate x = E1 / (sqrt(2) h).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigurationError, DomainError

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
        """Global minimum of V (scan plus refinement; exact enough for bounds)."""
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
    scheme: str = "fd2"
    richardson: bool = True
    e_max: float | None = None

    def __post_init__(self):
        if self.scheme != "fd2":
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
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
                   potential: PotentialSpec | None = None,
                   richardson: bool = True) -> DiscretizationConfig:
    """Grid sized so the discretization error is far below the mean gap.

    r_max: smallest radius with V >= 2 max(e_max, 0.01), a 25% margin, and
    enough barrier (WKB integral >= 12 h) that truncation shifts levels by
    less than ~1e-10 relative.  delta: from the fd2 error model
    delta^2 p^4 / (24 h^2), or delta^4 p^6 / (720 h^4) with Richardson.
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
    if richardson:
        delta = (720.0 * h**4 * eps / p_max2**3) ** 0.25
    else:
        delta = (24.0 * h**2 * eps / p_max2**2) ** 0.5
    n = max(64, 1 << int(math.ceil(math.log2(r_max / delta))))
    if n > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"h={h:g}, e_max={e_max:g} needs {n} grid points, more than "
            f"the {MAX_GRID_POINTS} the fd2 solver allows")
    return DiscretizationConfig(r_max=r_max, grid_points=n, h=h,
                                richardson=richardson, e_max=e_max)


@dataclass(frozen=True)
class TridiagonalOperator:
    n: int
    diag: np.ndarray
    offdiag: np.ndarray
    config: DiscretizationConfig
    potential: PotentialSpec


def build_radial_operator(n: int, config: DiscretizationConfig,
                          potential: PotentialSpec | None = None,
                          grid_points: int | None = None) -> TridiagonalOperator:
    """Symmetric tridiagonal matrix for H_n on the half-offset grid."""
    potential = potential or PotentialSpec.champagne_bottle()
    if config.e_max is not None and potential.V(config.r_max) < 2.0 * config.e_max:
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
    return TridiagonalOperator(int(n), diag, off, config, potential)


def _sturm_kernel(diag, off, x):
    count = 0
    d = diag[0] - x
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if d == 0.0:
            d = 1e-300
        d = diag[i] - x - off[i - 1] * off[i - 1] / d
        if d < 0.0:
            count += 1
    return count


def sturm_count(op: TridiagonalOperator, x: float) -> int:
    """Number of eigenvalues strictly below x (LDL^T inertia count)."""
    return int(_sturm_kernel(op.diag, op.offdiag, float(x)))


def _eig_range(op: TridiagonalOperator, lo: float, hi: float) -> np.ndarray:
    if hi <= lo:
        return np.empty(0)
    vals = eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True,
                            select="v", select_range=(lo, hi))
    # a copy: the levels are a view of a grid-sized buffer
    return np.array(vals, dtype=float)


def eigenvalues_below(op: TridiagonalOperator, e_max: float) -> np.ndarray:
    """All discrete eigenvalues < e_max, cross-checked against sturm_count."""
    lo = float(np.min(op.diag)) - 2.0 * float(np.max(np.abs(op.offdiag))) - 1.0
    vals = _eig_range(op, lo, e_max)
    vals = vals[vals < e_max]
    expected = sturm_count(op, e_max)
    if len(vals) != expected:
        raise ConfigurationError(
            f"eigenvalue count {len(vals)} disagrees with Sturm count "
            f"{expected} below {e_max}")
    return vals


# one radial level: index k from the bottom and eigenvalue E1
LEVEL_DTYPE = np.dtype([("k", np.int64), ("E1", np.float64)])


def eigenvalues_in_window(n: int, config: DiscretizationConfig,
                          potential: PotentialSpec,
                          lo: float, hi: float) -> np.recarray:
    """Levels in [lo, hi) as records (k, E1), k ascending; k is the radial
    index from the bottom.

    With config.richardson the values are extrapolated from grids N and 2N
    (error O(delta^4)); indices are aligned through Sturm counts so the
    pairing is exact even when a level sits near the window edge.
    """
    op1 = build_radial_operator(n, config, potential)
    delta = config.r_max / config.grid_points
    p2 = 2.0 * max(hi - potential.v_min(), 1e-3)
    err = delta**2 * p2**2 / (24.0 * config.h**2) + 1e-12
    ext_lo, ext_hi = lo - 4.0 * err, hi + 4.0 * err

    def indexed(op):
        return sturm_count(op, ext_lo), _eig_range(op, ext_lo, ext_hi)

    k0, vals = indexed(op1)
    if config.richardson:
        op2 = build_radial_operator(n, config, potential,
                                    grid_points=2 * config.grid_points)
        k2, vals2 = indexed(op2)
        first = max(k0, k2)
        last = max(first, min(k0 + len(vals), k2 + len(vals2)))
        vals = (4.0 * vals2[first - k2:last - k2]
                - vals[first - k0:last - k0]) / 3.0
        k0 = first
    keep = (vals >= lo) & (vals < hi)
    return np.rec.fromarrays([k0 + np.flatnonzero(keep), vals[keep]],
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


def to_epsilon_coords(E1: float, E2: float, h: float) -> tuple[float, int]:
    """Zoomed coordinates (x, n) = (E1/(sqrt 2 h), E2/h); E2/h must be integral."""
    m = E2 / h
    n = round(m)
    if abs(m - n) >= 1e-6:
        raise DomainError(f"E2/h = {m} is not within 1e-6 of an integer")
    return E1 / (SQRT2 * h), int(n)


def _line_payload(args):
    n, cfg_dict, pot_kind, pot_coeffs, lo, hi = args
    config = DiscretizationConfig(**cfg_dict)
    potential = PotentialSpec(pot_kind, pot_coeffs)
    return n, eigenvalues_in_window(n, config, potential, lo, hi)


def joint_spectrum(h: float, n_range: tuple, e_window: tuple,
                   config: DiscretizationConfig | None = None,
                   potential: PotentialSpec | None = None,
                   workers: int | None = None) -> SpectrumTable:
    """Joint eigenvalues (E1, E2=hn) for n in n_range, E1 in e_window.

    The radial operator depends on n only through n^2, so only |n| lines
    are solved and negative lines are mirrored bit for bit.
    """
    n_min, n_max = int(n_range[0]), int(n_range[1])
    lo, hi = float(e_window[0]), float(e_window[1])
    if n_min > n_max or lo >= hi:
        raise ConfigurationError("empty n_range or e_window")
    potential = potential or PotentialSpec.champagne_bottle()
    config = config or default_config(h, hi, potential)
    if workers is None:
        workers = int(os.environ.get("CHAMPAGNE_WORKERS", "1"))

    abs_ns = sorted({abs(n) for n in range(n_min, n_max + 1)})
    cfg_dict = asdict(config)
    jobs = [(n, cfg_dict, potential.kind, potential.coefficients, lo, hi)
            for n in abs_ns]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_line_payload, jobs))
    else:
        results = dict(_line_payload(j) for j in jobs)

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
        config = DiscretizationConfig(**meta["config"])
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
