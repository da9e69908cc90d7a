"""Joint spectrum of the champagne-bottle pair (H, I) by radial reduction.

For each angular quantum number n the operator

    H_n u = -(h^2/2) (u'' - (n^2 - 1/4) u / r^2) + V(r) u

acts on L^2(0, r_max) with a Dirichlet wall at r_max.  Its levels come
from constant-perturbation shooting (Pruess, SIAM J. Numer. Anal. 10,
1973; MATSLISE, ACM TOMS 31, 2005) on a mesh that default_config sizes,
second order, with Richardson on the meshes m and 2m.  A Pruefer phase,
shot from r = 0 and from the wall, counts the levels below any E and
passes (k + 1) pi at level k; all levels of a line are solved at once by
secant steps on a fixed dyadic grid, so that a level depends on the line
and its index alone.  A Richardson correction above RICHARDSON_GAP_BUDGET
local gaps raises ConfigurationError.

Joint eigenvalues are reported as (E1, E2) = (radial eigenvalue, h n)
together with the zoomed coordinate x = E1 / (sqrt(2) h).  Each fact of a
table is stored once: h in its rows, the mesh (r_max, grid_points) in
DiscretizationConfig, V in the kind of PotentialSpec, and the line and
energy windows in the CSV's JSON sidecar.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import brentq

from .errors import (ConfigurationError, ConvergenceError, _check_keys,
                     _read_json, _write_csv, _write_json)

SQRT2 = math.sqrt(2.0)
# the largest mesh m; the finer mesh has 2m intervals
MAX_GRID_POINTS = 1 << 19


# --- potentials ---------------------------------------------------------

# the coefficients c_k of V(r) = sum_k c_k r^(2k), by kind
POTENTIALS = {"champagne_bottle": (0.0, -1.0, 1.0),
              "harmonic_test": (0.0, 0.5)}


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential of one kind of POTENTIALS."""

    kind: str

    @staticmethod
    def champagne_bottle() -> "PotentialSpec":
        return PotentialSpec("champagne_bottle")

    @staticmethod
    def harmonic_test() -> "PotentialSpec":
        return PotentialSpec("harmonic_test")

    def __post_init__(self):
        if self.kind not in POTENTIALS:
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")

    @property
    def coefficients(self) -> tuple:
        return POTENTIALS[self.kind]

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
    """The mesh alone: the wall r_max, and grid_points, the interval count m
    of the shooting mesh; levels are solved on it and on the mesh 2m."""

    r_max: float
    grid_points: int

    def __post_init__(self):
        if self.grid_points < 64:
            raise ConfigurationError("grid_points must be >= 64")


# intervals per local wavelength 2 pi h / p_max, below which CP shooting
# leaves its asymptotic regime, and per sqrt(h), where its error, about
# d^2 W'' / 12, is a small part of the local gap h
INTERVALS_PER_WAVELENGTH = 3.0
INTERVALS_PER_SQRT_H = 16.0
# Gauss-Legendre nodes and weights of the barrier integral, on [0, 1]
_GL_S, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_S, _GL_W = 0.5 * (_GL_S + 1.0), 0.5 * _GL_W
_ULP = float(np.finfo(np.float64).eps)


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


def _split(m: int, h: float, r_max: float, n: int) -> tuple:
    """(r0, m_geo): the Frobenius start 1e-2 sqrt(h (1 + |n|)), at most
    sqrt(h) / 2, and the intervals of the geometric part from r0 to sqrt(h),
    whose spacing then runs on into that of the uniform part."""
    rg = math.sqrt(h)
    r0 = min(1e-2 * math.sqrt(h * (1.0 + abs(n))), 0.5 * rg)
    span = math.log(rg / r0) * rg
    return r0, min(max(1, round(m * span / (span + r_max - rg))), m - 1)


def default_config(h: float, e_max: float,
                   potential: PotentialSpec | None = None) -> DiscretizationConfig:
    """The smallest mesh the error model of CP shooting allows.

    Wall: r_max is the smallest radius past the outer turning point of
    2 e_max at which the WKB barrier int sqrt(2 (V - e_max)) dr, from the
    outer turning point of e_max, reaches 12 h, so that truncation shifts
    levels by about exp(-24) relative.  Both turning points and the wall
    are roots found by brentq, the barrier by fixed Gauss-Legendre nodes.
    Mesh: the fewest intervals m >= 64 whose uniform part is spaced at most
    2 pi h / (INTERVALS_PER_WAVELENGTH p_max), at p_max^2 = 2 (e_max -
    min V) but at least 2e-3, and sqrt(h) / INTERVALS_PER_SQRT_H; raises
    ConfigurationError when m would exceed MAX_GRID_POINTS, and for h that
    is not finite and positive.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigurationError(f"h must be finite and positive, got {h!r}")
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

    p_max = math.sqrt(2.0 * max(e_max - potential.v_min(), 1e-3))
    uniform = (r_max - math.sqrt(h)) / min(
        2.0 * math.pi * h / (INTERVALS_PER_WAVELENGTH * p_max),
        math.sqrt(h) / INTERVALS_PER_SQRT_H)
    m = max(64, math.ceil(uniform))
    while m - _split(m, h, r_max, 0)[1] < uniform:
        m += 1
    if m > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"h={h:g}, e_max={e_max:g} needs a mesh of {m} intervals, more "
            f"than the {MAX_GRID_POINTS} the solver allows")
    return DiscretizationConfig(r_max=r_max, grid_points=m)


# --- constant-perturbation shooting -------------------------------------
# W = V + h^2 (n^2 - 1/4) / (2 r^2) is held at its value at each interval's
# geometric midpoint, and u'' = q u, q = 2 (W - E) / h^2, solved exactly:
# y = (S u, u') maps by [[c, S s], [q s / S, c]], c = cos t or cosh t, t =
# sqrt(|q|) d, s = sin t or sinh t over sqrt(|q|).  A product of maps is
# carried as (m00, m01, m10, m11, w, phi): w pi + phi is the lifted Pruefer
# angle of y for the solution from u = 0, phi in [0, pi] that of its line.

_BLOCK = 1 << 14            # matrix entries multiplied out at once
_GROWTH_MAX = 300.0         # log of the growth a block may reach unscaled
_MAX_STEPS = 60             # phase evaluations per level
_ANCHOR_STEP = 12           # levels per measured mesh shift on a line


def _line_angle(y0, y1):
    """The angle in [0, pi] of the line through (y0, y1)."""
    return np.arctan2(np.abs(y0), np.copysign(1.0, y0) * y1)


def _lift(phi, w, phi_b, dot):
    """w + 1 where phi_b, turned by delta in [0, pi) to the line angle phi,
    passed pi: then phi < phi_b - pi / 2 if dot > 0, else phi < phi_b."""
    return w + ((phi - phi_b + np.copysign(0.25 * math.pi, dot)) < 0.0)


def _leaves(q0, d, e2, scale):
    """The maps of the intervals (q0, d) at q = q0 - e2, rows by energies,
    and the log of how far their product can grow."""
    q = np.subtract.outer(q0, e2)
    t = q * (d * d)[:, None]
    osc = t < 0.0
    t = np.sqrt(np.abs(t))
    growth = float(np.max(np.sum(t, axis=0, where=~osc)))
    # cos t and sin t from tau = tan(t / 2), at a tenth of their cost
    tau = np.tan(0.5 * t)
    inv = 2.0 / (1.0 + tau * tau)
    c = np.where(osc, inv - 1.0, np.cosh(t))
    s = np.where(osc, tau * inv, np.sinh(t)) * (d[:, None]
                                                / np.maximum(t, 1e-300))
    m01 = s * scale
    # j = round(t / pi) half turns on an oscillating interval, less one
    # where m01 and (-1)^j differ in sign
    j = np.round(t * (1.0 / math.pi)) * osc
    w = j - ((m01 < 0.0) != (np.floor(0.5 * j) != 0.5 * j))
    return [c, m01, q * s / scale, c, w, _line_angle(m01, c)], growth


def _compose(a, b):
    """The map b after a, with its lift: the solution from u = 0 leaves a
    on the line of (a01, a11), at phi_a, and b turns it by a delta in
    [0, pi) from b e0, so that the lift is (w_a + w_b) pi + phi_b + delta."""
    a00, a01, a10, a11, wa, _ = a
    b00, b01, b10, b11, wb, phib = b
    p01, p11 = b00 * a01 + b01 * a11, b10 * a01 + b11 * a11
    phi = _line_angle(p01, p11)
    dot = (b01 * p01 + b11 * p11) * np.copysign(1.0, a01)
    return [b00 * a00 + b01 * a10, p01, b10 * a00 + b11 * a10, p11,
            _lift(phi, wa + wb, phib, dot), phi]


def _product(q0, d, e2, scale):
    """The maps of the intervals (q0, d) at e2, multiplied out in order:
    blocks of 2^k rows, bit-reversed and padded with the identity, pair
    their contiguous halves, then are composed and scaled.  A block whose
    growth passes _GROWTH_MAX is halved, down to one interval."""
    rows = 1 << (max(2, _BLOCK // len(e2)).bit_length() - 1)
    rows = min(rows, 1 << (len(q0) - 1).bit_length())
    total, i = None, 0
    while i < len(q0):
        block = np.zeros((2, rows))
        block[0, :len(q0[i:i + rows])] = q0[i:i + rows]
        block[1, :len(d[i:i + rows])] = d[i:i + rows]
        # bit-reversed order: the transpose reverses the bits of an index
        order = np.arange(rows).reshape((2,) * (rows.bit_length() - 1)).T
        maps, growth = _leaves(*block[:, order.ravel()], e2, scale)
        if growth > _GROWTH_MAX:
            if rows == 1:
                raise ConfigurationError(
                    f"an interval grows by exp({growth:.3g}): E is below V")
            rows //= 2
            continue
        while len(maps[0]) > 1:
            half = len(maps[0]) // 2
            maps = _compose([x[:half] for x in maps], [x[half:] for x in maps])
        maps = [x[0] for x in maps]
        total = maps if total is None else _compose(total, maps)
        top = np.max(np.abs(total[:4]), axis=0)    # directions alone count
        total = [x / top for x in total[:4]] + total[4:]
        i += rows
    return total


class _Line:
    """H_n at h on the mesh of config.grid_points intervals cut in refine
    parts each (_split).  The shots from r0 and from the wall meet at the
    uniform node where V + h^2 n^2 / (2 r^2) is least, inside the well."""

    def __init__(self, n: int, h: float, config: DiscretizationConfig,
                 potential: PotentialSpec, refine: int = 1):
        if not (h > 0.0 and config.r_max > math.sqrt(h)):
            raise ConfigurationError("h must be positive, r_max > sqrt(h)")
        r_max, rg = config.r_max, math.sqrt(h)
        self.h, self.nu, self.potential = h, abs(n), potential
        self.r0, m_geo = _split(config.grid_points, h, r_max, n)
        m_uni, m_geo = refine * (config.grid_points - m_geo), refine * m_geo
        nodes = np.concatenate((
            self.r0 * (rg / self.r0) ** (np.arange(m_geo) / m_geo),
            rg + (r_max - rg) * (np.arange(m_uni) / m_uni), [r_max]))
        r2 = nodes[:-1] * nodes[1:]
        # q(E) = q0 - 2 E / h^2 on each interval
        self.q0 = 2.0 / h**2 * potential.V(np.sqrt(r2)) + (n * n - 0.25) / r2
        self.d = np.diff(nodes)
        inner = nodes[m_geo:-1]
        well = potential.V(inner) + 0.5 * (h * n / inner)**2
        self.match = m_geo + int(np.argmin(well))
        self.w_match = float(np.min(well))

    def phase(self, E) -> np.ndarray:
        """F(E) / pi, the sum of the Pruefer angles shot from r0 and from
        the wall, at the match node.  It increases with E, its whole part
        counts the levels at or below E, and level k is where it is k + 1."""
        s = np.sqrt(2.0 * np.maximum(E - self.w_match, 5e-4)) / self.h
        e2, j = 2.0 / self.h**2 * E, self.match
        l00, l01, l10, l11, wl, phil = _product(self.q0[:j], self.d[:j], e2, s)
        right = _product(self.q0[:j - 1:-1], self.d[:j - 1:-1], e2, s)
        # y = (S u, u') of r^(|n| + 1/2) (1 + a1 r^2 + a2 r^4) at r0, at an
        # angle in (0, pi): the left map turns it by [0, pi) from e0's lift
        c0, c1 = (self.potential.coefficients + (0.0,))[:2]
        nu, r2 = self.nu, self.r0**2
        a1 = (c0 - E) / (2.0 * (1.0 + nu)) / self.h**2
        a2 = (4.0 * (1 + nu) * a1**2 + 2.0 * c1 / self.h**2) / (16.0 + 8 * nu)
        series = 1.0 + r2 * (a1 + r2 * a2)
        du = (nu + 0.5) * series + r2 * (2.0 * a1 + 4.0 * a2 * r2)
        y0 = l00 * s * self.r0 * series + l01 * du
        y1 = l10 * s * self.r0 * series + l11 * du
        phi = _line_angle(y0, y1)
        wl = _lift(phi, wl, phil, l01 * y0 + l11 * y1)
        return wl + right[4] + (phi + right[5]) / math.pi


def _cell(h: float) -> float:
    """The step 2^j in (5e-11 h, 1e-10 h] of the grid levels snap to."""
    return math.ldexp(1.0, math.frexp(1e-10 * h)[1] - 1)


@np.errstate(divide="ignore", invalid="ignore")
def _solve(line: _Line, first: int, x1, f1, x2, f2, known=True) -> tuple:
    """The levels of index first, first + 1, ..., each from two samples of
    the phase, the second one evaluated, and the first too if known.
    Returns the levels, the slope of the phase at each, and the span the
    slope was measured over.

    A level is the midpoint of the cell on whose ends the phase passes
    k + 1, on a grid of step 2^j in (5e-11 h, 1e-10 h]: its value depends on
    the line and its index alone.  Each step evaluates, for the levels not
    yet solved, the grid point nearest the secant step of the last two
    samples, or outside the bracket known, its midpoint; once the step's
    error estimate is under a quarter cell, the ends of its cell.
    ConvergenceError after _MAX_STEPS steps, or where the phase falls.
    """
    cell = _cell(line.h)
    x1, f1, x2, f2 = (np.array(v, dtype=np.float64) for v in (x1, f1, x2, f2))
    target = first + 1.0 + np.arange(len(x2))
    # grid indices below the level and at or above it
    ja, jb = np.full(len(x2), -np.inf), np.full(len(x2), np.inf)
    for x, f in [(x2, f2), (x1, f1)][:1 + known]:
        ja = np.where(f < target, np.maximum(ja, np.floor(x / cell)), ja)
        jb = np.where(f < target, jb, np.minimum(jb, np.ceil(x / cell)))
    slope, span = (f2 - f1) / (x2 - x1), np.abs(x2 - x1)
    live = np.arange(len(x2))
    for _ in range(_MAX_STEPS):
        if np.any(ja >= jb):
            i = int(np.argmax(ja >= jb))
            raise ConvergenceError(
                f"line n={line.nu}: the phase reaches {target[i]:g} at "
                f"{jb[i] * cell!r}, not at {ja[i] * cell!r}: it does not rise")
        live = live[jb[live] - ja[live] > 1.0]
        if not len(live):
            break
        a1, b1, a2, b2 = x1[live], f1[live], x2[live], f2[live]
        t, jl, jr = target[live], ja[live] + 1.0, jb[live] - 1.0
        s = (b2 - b1) / (a2 - a1)
        g = (a2 - (b2 - t) / s) / cell
        error = np.abs((g * cell - a2) * (g * cell - a1) * s)
        # out of the bracket: its midpoint, or where it is open, a move
        # toward the level by twice the last step, at least h
        g = np.where((s > 0.0) & (g > jl - 1.0) & (g < jr + 1.0), g, np.where(
            np.isfinite(jl + jr), 0.5 * (jl + jr), (a2 + np.copysign(
                np.maximum(2.0 * np.abs(a2 - a1), line.h), t - b2)) / cell))
        j = np.floor(g)
        snap = (error < 0.25 * cell) | (np.abs(g * cell - a2) < 2.0 * cell)
        pts = np.clip(np.where(snap, j, np.round(g)), jl, jr)
        two = snap & (j >= jl) & (j + 1.0 <= jr)
        idx = np.concatenate((live, live[two]))
        jj = np.concatenate((pts, j[two] + 1.0))
        for i, ji, fi in zip(idx.tolist(), jj.tolist(),
                             line.phase(jj * cell).tolist()):
            if fi < target[i]:
                ja[i] = max(ja[i], ji)
            else:
                jb[i] = min(jb[i], ji)
            x1[i], f1[i], x2[i], f2[i] = x2[i], f2[i], ji * cell, fi
            if abs(x2[i] - x1[i]) >= 1024.0 * cell:
                slope[i] = (f2[i] - f1[i]) / (x2[i] - x1[i])
                span[i] = abs(x2[i] - x1[i])
    else:
        raise ConvergenceError(
            f"line n={line.nu}: levels of index {first + live} not "
            f"resolved to the step {cell:g} in {_MAX_STEPS} evaluations")
    return (ja + 0.5) * cell, slope, span


def _levels(coarse: _Line, fine: _Line, first: int, stop: int,
            a: float, b: float) -> tuple:
    """(E_2m, E_m): the levels of index first..stop-1 on the fine and the
    coarse mesh, from the phases at a and b; ConfigurationError for any
    other number of levels.

    The fine solve starts from the coarse levels moved by the mesh shift
    E_2m - E_m, which varies slowly along a line.  The shift is measured
    by a Newton step on the coarse slope at every _ANCHOR_STEP-th level
    and the last (at every level of a shorter line), and interpolated in
    between.  From the grid point nearest the moved level, a Newton step on
    the coarse slope mostly lands in the level's cell, so that two more
    evaluations close it; at the measured levels the first step is the
    secant through the coarse level.
    """
    if stop <= first:
        return np.empty(0), np.empty(0)
    size = stop - first
    fa, fb = coarse.phase(np.array([a, b]))
    coarse_levels, slope, span = _solve(
        coarse, first, np.full(size, a), np.full(size, fa), np.full(size, b),
        np.full(size, fb))
    _counted(coarse_levels, size)
    anchor = np.zeros(size, dtype=bool)
    anchor[::_ANCHOR_STEP if size > _ANCHOR_STEP else 1] = anchor[-1] = True
    at = coarse_levels[anchor]
    f_at = fine.phase(at)
    shift = (first + 1.0 + np.flatnonzero(anchor) - f_at) / slope[anchor]
    cell = _cell(fine.h)
    x2 = np.round((coarse_levels + np.interp(coarse_levels, at, shift))
                  / cell) * cell
    f2 = fine.phase(x2)
    x1, f1 = x2 - span, f2 - slope * span
    x1[anchor], f1[anchor] = at, f_at
    fine_levels = _counted(
        _solve(fine, first, x1, f1, x2, f2, known=False)[0], size)
    return fine_levels, coarse_levels


def _counted(levels: np.ndarray, size: int) -> np.ndarray:
    """levels, or ConfigurationError unless the phase counted size."""
    if len(levels) != size:
        raise ConfigurationError(f"the solves returned {len(levels)} "
                                 f"levels where the phase counts {size}")
    return levels


# one radial level: index k from the bottom and eigenvalue E1
LEVEL_DTYPE = np.dtype([("k", np.int64), ("E1", np.float64)])

# largest Richardson correction |E_rich - E_2m| allowed, in local gaps
RICHARDSON_GAP_BUDGET = 0.5


def _richardson_ratio(fine: np.ndarray, rich: np.ndarray) -> float:
    """max over levels of |rich - fine| / the gap to the nearer neighbour;
    inf when the extrapolated levels are not increasing."""
    gaps = np.diff(rich)
    if np.any(gaps <= 0.0):
        return math.inf
    local = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    return float(np.max(np.abs(rich - fine) / local, initial=0.0))


def eigenvalues_in_window(n: int, h: float, config: DiscretizationConfig,
                          potential: PotentialSpec,
                          lo: float, hi: float) -> np.recarray:
    """Levels in [lo, hi) of H_n at h as records (k, E1), k ascending; k is
    the radial index from the bottom.  The wall must confine the window:
    V(r_max) >= 2 hi, or ConfigurationError.

    The phase counts on the mesh 2m at lo and hi give the indices of the
    window's levels.  Both meshes are solved for exactly those indices and
    E1 = (4 E_2m - E_m) / 3, so the pairing is by index and cannot drop a
    level.  A window with fewer than two levels takes its neighbours too,
    so that a correction and a gap are measured.  Completeness comes from
    the measured correction: with c = 2 max |E1 - E_2m|, the levels the
    mesh 2m has in (lo - c, lo] and (hi, hi + c] are added on both meshes,
    until c uncovers no more.  A correction above RICHARDSON_GAP_BUDGET
    local gaps raises ConfigurationError.
    """
    if potential.V(config.r_max) < 2.0 * hi:
        raise ConfigurationError(
            f"V(r_max)={potential.V(config.r_max):g} < 2 hi={2.0 * hi:g}; "
            "enlarge r_max")
    coarse, fine = (_Line(n, h, config, potential, r) for r in (1, 2))
    first, stop = (math.floor(f) for f in fine.phase(np.array([lo, hi])))
    if stop - first < 2:
        first = max(first - 1, 0)
        stop = first + 2
    e_fine, e_coarse = _levels(coarse, fine, first, stop, lo, hi)
    while True:
        e1 = (4.0 * e_fine - e_coarse) / 3.0
        ratio = _richardson_ratio(e_fine, e1)
        if ratio > RICHARDSON_GAP_BUDGET:
            raise ConfigurationError(
                f"line n={n}: the Richardson correction is {ratio:.3g} "
                f"local gaps, above the budget of {RICHARDSON_GAP_BUDGET}; "
                f"m={config.grid_points} is too coarse")
        c = 2.0 * float(np.max(np.abs(e1 - e_fine)))
        start, end = (math.floor(f)
                      for f in fine.phase(np.array([lo - c, hi + c])))
        start, end = min(first, start), max(stop, end)
        if (start, end) == (first, stop):
            break
        below = _levels(coarse, fine, start, first, lo - c, lo)
        above = _levels(coarse, fine, stop, end, hi, hi + c)
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
    made, and read-only.  Columns read as points.E1, rows as
    points[i].E1; the rows of line n are the contiguous slice line(n).
    Each row must have the table's h, an n in n_range and an E1 in the
    half-open [e_window), and k and E1 rise strictly on each line; a row
    that does not raises ConfigurationError naming the key, its value,
    and the row's index in the points given and its (h, n, k, E1).
    """

    h: float
    n_range: tuple
    e_window: tuple
    points: np.recarray
    config: DiscretizationConfig
    potential: PotentialSpec

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=POINT_DTYPE)
        (n_lo, n_hi), (e_lo, e_hi) = self.n_range, self.e_window
        n, e1 = pts["n"], pts["E1"]
        named = pts[["h", "n", "k", "E1"]]      # how an error names a row
        for key, ok in [("h", pts["h"] == self.h),
                        ("n_range", (n >= n_lo) & (n <= n_hi)),
                        ("e_window", (e1 >= e_lo) & (e1 < e_hi))]:
            if not ok.all():
                i = int(np.argmin(ok))
                raise ConfigurationError(
                    f"{key} is {getattr(self, key)!r}, but row {i} has "
                    f"(h, n, k, E1) = {named[i].item()}")
        order = np.lexsort((e1, n))
        srt = pts[order]
        bad = np.flatnonzero((np.diff(srt["n"]) == 0)
                             & ((np.diff(srt["k"]) <= 0)
                                | (np.diff(srt["E1"]) <= 0)))
        if len(bad):
            i, j = order[bad[0]], order[bad[0] + 1]
            raise ConfigurationError(
                f"k does not increase strictly with E1 on line n={n[i]}: "
                f"row {i} has (h, n, k, E1) = {named[i].item()} and row {j} "
                f"has {named[j].item()}")
        self.points = srt.view(np.recarray)
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
    """Joint eigenvalues (E1, E2=hn) for n in n_range, E1 in e_window, at
    h on the mesh config, by default default_config(h, e_window top).

    The radial operator depends on n only through n^2, so only |n| lines
    are solved, one after another, and negative lines are mirrored bit for
    bit.  The config is resolved before the windows are checked, so that
    an h that is not finite and positive is reported as such, and not as
    the empty window it scales to in a caller.
    """
    n_min, n_max = int(n_range[0]), int(n_range[1])
    lo, hi = float(e_window[0]), float(e_window[1])
    potential = potential or PotentialSpec.champagne_bottle()
    config = config or default_config(h, hi, potential)
    if n_min > n_max or lo >= hi:
        raise ConfigurationError("empty n_range or e_window")

    results = {m: eigenvalues_in_window(m, h, config, potential, lo, hi)
               for m in sorted({abs(n) for n in range(n_min, n_max + 1)})}

    ns = np.arange(n_min, n_max + 1)
    lines = [results[abs(n)] for n in ns.tolist()]
    n = np.repeat(ns, [len(levels) for levels in lines])
    levels = np.concatenate(lines)
    points = np.rec.fromarrays(
        [np.full(len(n), h), n, levels["k"], levels["E1"], h * n,
         levels["E1"] / (SQRT2 * h)], dtype=POINT_DTYPE)
    return SpectrumTable(h=h, n_range=(n_min, n_max), e_window=(lo, hi),
                         points=points, config=config, potential=potential)


# --- serialization ------------------------------------------------------

def write_spectrum_csv(table: SpectrumTable, path: str) -> None:
    """CSV of the POINT_DTYPE columns, plus a JSON sidecar <path>.meta.json;
    a table without rows, whose h the CSV could not hold, raises."""
    if not len(table.points):
        raise ConfigurationError(f"{path}: a table without rows has no h")
    _write_csv(path, POINT_DTYPE.names, table.points.tolist())
    _write_json(path + ".meta.json", {
        "n_range": list(table.n_range),
        "e_window": list(table.e_window),
        "config": asdict(table.config),
        "potential": asdict(table.potential),
    })


def read_spectrum_csv(path: str) -> SpectrumTable:
    """Table written by write_spectrum_csv, at the h of its first row and
    with its sidecar <path>.meta.json.  A bad header, no rows, and a
    sidecar missing, not JSON, or with other keys than write_spectrum_csv
    writes or values not of their types raise ConfigurationError naming
    the file; SpectrumTable checks the rows, and its error gains the CSV
    and sidecar paths (row i is the file's data row i)."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != ",".join(POINT_DTYPE.names):
        raise ConfigurationError(f"bad spectrum CSV header: {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # an empty file is raised below
        points = np.loadtxt(path, dtype=POINT_DTYPE, delimiter=",",
                            skiprows=1, ndmin=1)
    if not len(points):
        raise ConfigurationError(f"no rows in {path}")
    meta_path = path + ".meta.json"
    if not os.path.exists(meta_path):
        raise ConfigurationError(f"{meta_path} not found: a spectrum CSV is "
                                 "read with the sidecar written beside it")
    meta = _read_json(meta_path, {
        "n_range": tuple[int, int], "e_window": tuple[float, float],
        "config": dict, "potential": dict})
    config, potential = (
        cls(**_check_keys(f"{meta_path} {key}", meta[key], cls))
        for key, cls in [("config", DiscretizationConfig),
                         ("potential", PotentialSpec)])
    try:
        return SpectrumTable(h=float(points["h"][0]),
                             n_range=tuple(meta["n_range"]),
                             e_window=tuple(meta["e_window"]), points=points,
                             config=config, potential=potential)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path} with {meta_path}: {exc}") from None
