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

import collections
import functools
import math
import numbers
import operator
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
# sqrt(|q|) d, s = sin t or sinh t over sqrt(|q|).  Maps are carried as the
# six rows (m00, m01, m10, m11, w, phi) of one stacked array, each row flat
# over intervals by energies: w pi + phi is the lifted Pruefer angle of y
# for the solution from u = 0, phi in [0, pi] that of its line.  Each step
# writes into buffers that _product allocates once per call, and works on
# contiguous rows, where numpy's cost per call is least.

_BLOCK = 1 << 14            # matrix entries multiplied out before a rescale
_BATCH = 1 << 15            # matrix entries whose blocks are paired at once
_MERGE = 1 << 9             # entries of a batch left to pair with others
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


def _leaves(q0, d, e2, scale, out, osc, phi_from) -> bool:
    """Write into out the maps of the intervals (q0, d) at q = q0 - e2, one
    entry for each interval and energy, energies innermost: e2 and scale
    are given for each entry.  m11, which is m00, is left out, phi is
    written from entry phi_from on, and w only where one is not 0, which
    is returned; the rows left serve as scratch, and osc as one of bools."""
    energies = len(e2) // len(q0)
    q, s, t, inv = out[3], out[1], out[4], out[5]
    dd = d * d
    np.subtract(q0.repeat(energies), e2, out=q)
    np.multiply(q, dd.repeat(energies), out=t)
    # on each interval t is largest at the least energy, and -t at the most
    least, most = e2[:energies].min(), e2[:energies].max()
    grows = ((q0 - least) * dd).max() >= 0.0
    widest = ((most - q0) * dd).max()       # the largest oscillating t^2
    if grows:
        np.less(t, 0.0, out=osc)
    np.abs(t, out=t)
    np.sqrt(t, out=t)
    # cos t and sin t from tau = tan(t / 2), at a tenth of their cost
    np.multiply(t, 0.5, out=s)
    np.tan(s, out=s)
    np.multiply(s, s, out=inv)
    np.add(inv, 1.0, out=inv)
    np.divide(2.0, inv, out=inv)
    c = out[0]
    np.subtract(inv, 1.0, out=c)
    np.multiply(s, inv, out=s)
    if grows:
        # cosh and sinh only where they are used
        at = np.flatnonzero(~osc)
        c[at], s[at] = np.cosh(t[at]), np.sinh(t[at])
    np.maximum(t, 1e-300, out=inv)
    np.divide(d.repeat(energies), inv, out=inv)
    np.multiply(s, inv, out=s)
    np.multiply(q, s, out=out[2])
    np.divide(out[2], scale, out=out[2])
    np.multiply(s, scale, out=out[1])
    # j = round(t / pi) half turns on an oscillating interval, less one
    # where m01 and (-1)^j differ in sign: where every oscillating t is
    # below pi, j <= 1 and m01 > 0, so that w = 0
    turns = math.sqrt(max(widest, 0.0)) >= math.pi
    if turns:
        j = np.round(t * (1.0 / math.pi))
        if grows:
            j *= osc
        np.subtract(j, (out[1] < 0.0) != (np.floor(0.5 * j) != 0.5 * j),
                    out=out[4])
    y0, y1 = q[phi_from:], inv[phi_from:]
    np.abs(out[1, phi_from:], out=y0)
    np.copysign(1.0, out[1, phi_from:], out=y1)
    np.multiply(y1, c[phi_from:], out=y1)
    np.arctan2(y0, y1, out=out[5, phi_from:])
    return turns


def _compose(a, b, out, work, lifted):
    """Write into out the maps b after a, all but their w, and into lifted
    where the lift passes pi: the solution from u = 0 leaves a on the line
    of (a01, a11), at phi_a, and b turns it by a delta in [0, pi) from
    b e0, so that the lift is (w_a + w_b + lifted) pi + phi_b + delta.
    work is two scratch rows, which may be the w rows of a, b or out."""
    a00, a01, a10, a11 = a[:4]
    b00, b01, b10, b11, phib = b[0], b[1], b[2], b[3], b[5]
    m00, p01, m10, p11, phi = out[0], out[1], out[2], out[3], out[5]
    s0, s1 = work
    np.multiply(b00, a00, m00)
    np.multiply(b01, a10, s0)
    np.add(m00, s0, m00)
    np.multiply(b00, a01, p01)
    np.multiply(b01, a11, s0)
    np.add(p01, s0, p01)
    np.multiply(b10, a00, m10)
    np.multiply(b11, a10, s0)
    np.add(m10, s0, m10)
    np.multiply(b10, a01, p11)
    np.multiply(b11, a11, s0)
    np.add(p11, s0, p11)
    np.abs(p01, s0)
    np.copysign(1.0, p01, s1)
    np.multiply(s1, p11, s1)
    np.arctan2(s0, s1, phi)
    # dot = (b01 p01 + b11 p11) sign(a01): only its sign is used, and
    # that is the sign of the product with a01
    np.multiply(b01, p01, s0)
    np.multiply(b11, p11, s1)
    np.add(s0, s1, s0)
    np.multiply(s0, a01, s0)
    np.copysign(0.25 * math.pi, s0, s0)
    np.subtract(phi, phib, s1)
    np.add(s1, s0, s1)
    np.less(s1, 0.0, lifted)


def _blocks(q0, d, e2, rows) -> tuple:
    """The first interval and the width of each block that _product
    multiplies out unscaled: 2^k intervals, rows at first, the last block
    cut to the next power of two of the intervals left.  A block whose
    growth passes _GROWTH_MAX is halved, down to one interval, and so are
    the blocks after it.  The growth, the sum of t over the intervals that
    do not oscillate, is largest at the least energy, so it is measured
    there alone."""
    t = (q0 - e2.min()) * (d * d)
    grown = np.concatenate(([0.0], np.sqrt(np.maximum(t, 0.0)).cumsum()))
    starts, widths, i = [], [], 0
    while i < len(q0):
        left = len(q0) - i
        width = rows if left >= rows else 1 << (left - 1).bit_length()
        growth = grown[i + min(width, left)] - grown[i]
        if growth > _GROWTH_MAX:
            if width == 1:
                raise ConfigurationError(
                    f"an interval grows by exp({growth:.3g}): E is below V")
            rows = width // 2
            continue
        starts.append(i)
        widths.append(width)
        i += width
    return np.array(starts), np.array(widths)


@functools.lru_cache(maxsize=None)
def _bit_reversed(width: int) -> np.ndarray:
    """0, ..., width - 1 in bit-reversed order, width a power of two."""
    order = np.arange(width).reshape((2,) * (width.bit_length() - 1)).T
    order = order.ravel()
    order.flags.writeable = False
    return order


def _product(q0, d, match, e2, scale) -> list:
    """The maps of the two shots over the intervals (q0, d) at e2, each
    multiplied out in its order: one stacked array, an entry per energy,
    for the intervals before match, in order, and one for the rest, from
    the last.

    Each shot is cut into _blocks, each multiplied out pairwise,
    unscaled, as the balanced tree of its intervals padded with the
    identity; the blocks are then composed in order and scaled.  A block
    cut short is its first half, a whole tree, then the rest, so that
    only the rest is padded.  The pairings of every block run together:
    the maps are laid out by position in the tree, block and energy,
    positions bit-reversed, so that a pairing composes two contiguous
    halves.  Blocks are paired the widest first, up to _BATCH entries at
    a time, until _MERGE entries are left; those wait for the others of
    their width, and from there on they are paired together.  A block's
    w is the sum of its leaves' and of the lifts of its pairings, so that
    pairings leave w out."""
    energies = len(e2)
    first = 1 << (max(2, _BLOCK // energies).bit_length() - 1)
    length = np.array([match, len(q0) - match])
    plan = []
    for shot in (slice(match), slice(len(q0) - 1, match - 1, -1)):
        n = len(q0[shot])
        starts, widths = _blocks(q0[shot], d[shot], e2,
                                 min(first, 1 << (n - 1).bit_length()))
        rest, last = np.zeros(len(starts), dtype=bool), n - int(starts[-1])
        if last < widths[-1]:       # and so more than half of it
            half = int(widths[-1]) // 2
            starts = np.append(starts, starts[-1] + half)
            widths = np.append(widths[:-1],
                               [half, 1 << (last - half - 1).bit_length()])
            rest = np.append(rest, True)
        plan.append((starts, widths, rest))
    part = np.repeat(np.arange(len(length)), [len(p[0]) for p in plan])
    starts, widths, rest = (np.concatenate(x) for x in zip(*plan))
    size = energies * min(max(_BATCH // energies, int(widths.max())),
                          int(widths.sum()))
    half = (size + 1) // 2
    flat = np.empty(8 * size + 6 * half + size // 8 + 1)
    leaves = flat[:6 * size].reshape(6, size)
    tiles = flat[6 * size:8 * size].reshape(2, size)
    pairs = flat[8 * size:8 * size + 6 * half].reshape(6, half)
    bools = flat[8 * size + 6 * half:].view(bool)[:size]
    tiles[:, :energies] = e2, scale
    filled = energies
    while filled < size:        # e2 and scale once for each interval
        tiles[:, filled:2 * filled] = tiles[:, :min(filled, size - filled)]
        filled *= 2
    fresh = collections.defaultdict(list)
    for k, width in enumerate(widths.tolist()):
        fresh[width].append(k)
    # maps at each width waiting to be paired: (maps, w, blocks)
    waiting = collections.defaultdict(list)
    width = max(fresh)
    while width:
        step = max(1, size // (energies * width))
        for k in range(0, len(fresh[width]), step):
            batch = np.array(fresh[width][k:k + step])
            # the interval at each position and block, or the identity's
            # (0, 0) past the end of a shot
            at = _bit_reversed(width)[:, None] + starts[batch]
            pad = (at >= length[part[batch]]).ravel()
            at = np.where(part[batch], len(q0) - 1 - at, at).ravel()
            at[pad] = 0
            rows = q0[at], d[at]
            for x in rows:
                x[pad] = 0.0
            n, top = len(at) * energies, len(batch) * energies
            if _leaves(*rows, tiles[0, :n], tiles[1, :n],
                       leaves[:, :n], bools[:n],
                       n // 2 if width > 1 else 0):
                w = np.add.reduce(leaves[4, :n].reshape(width, top))
            else:
                w = np.zeros(top)
            # a leaf's m11 is its m00, and pairings need no w, so their
            # w rows are scratch; the lifts of each pairing are kept one
            # after the other and counted at the end
            src, dst = [leaves[k, :n] for k in (0, 1, 2, 0, 4, 5)], pairs
            lifts = 0
            while n > max(top, _MERGE):
                n //= 2
                _compose([x[:n] for x in src], [x[n:2 * n] for x in src],
                         dst[:, :n], (src[4][:n], dst[4, :n]),
                         bools[lifts:lifts + n])
                src, dst = dst, (leaves if dst is pairs else pairs)
                lifts += n
            if lifts:
                w += np.add.reduce(bools[:lifts].reshape(-1, top))
            waiting[n // top].append(
                (np.array([x[:n] for x in src]), w, batch))
        group = waiting.pop(width, [])
        if len(group) > 1:
            # side by side: the blocks of each, at each position
            blocks = np.concatenate([g[2] for g in group])
            maps = np.empty((6, width, len(blocks), energies))
            k = 0
            for m, _, batch in group:
                maps[:, :, k:k + len(batch)] = m.reshape(6, width, -1,
                                                         energies)
                k += len(batch)
            group = [(maps.reshape(6, -1),
                      np.concatenate([g[1] for g in group]), blocks)]
        if group and width > 1:
            maps, w, blocks = group[0]
            n = maps.shape[1] // 2
            out, lifted = np.empty((6, n)), np.empty(n, dtype=bool)
            _compose(maps[:, :n], maps[:, n:], out, (maps[4, :n], out[4]),
                     lifted)
            w += np.add.reduce(lifted.reshape(-1, len(w)))
            waiting[width // 2].append((out, w, blocks))
        width //= 2
    # each block's product, a cut one's from its two pieces, then each
    # part's, its blocks in order
    maps, w, blocks = group[0]
    products = np.empty((6, len(blocks), energies))
    products[:, blocks] = maps.reshape(6, -1, energies)
    products[4, blocks] = w.reshape(-1, energies)
    cut = np.flatnonzero(rest) - 1
    if len(cut):
        a, b = (products[:, k].reshape(6, -1) for k in (cut, cut + 1))
        out, lifted = np.empty_like(a), bools[:a.shape[1]]
        np.add(a[4], b[4], out[4])
        _compose(a, b, out, (a[4], b[4]), lifted)
        np.add(out[4], lifted, out[4])
        products[:, cut] = out.reshape(6, -1, energies)
    totals = []
    for k in range(len(length)):
        mine = np.flatnonzero((part == k) & ~rest)
        total, other = products[:, mine[0]].copy(), np.empty((6, energies))
        for i in mine:
            if i != mine[0]:
                block, lifted = products[:, i], bools[:energies]
                np.add(total[4], block[4], other[4])
                _compose(total, block, other, (total[4], block[4]), lifted)
                np.add(other[4], lifted, other[4])
                total, other = other, total
            np.divide(total[:4], np.abs(total[:4]).max(axis=0), out=total[:4])
        totals.append(total)
    return totals


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
        (l00, l01, l10, l11, wl, phil), right = _product(
            self.q0, self.d, j, e2, s)
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
    error estimate is under a quarter cell, the ends of its cell.  When
    both samples given are known, the second step takes as its other
    sample the nearest one beyond the level of those given and the first
    evaluations of every level, in place of a sample given.
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
    for step in range(_MAX_STEPS):
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
        f = line.phase(np.concatenate((pts, j[two] + 1.0)) * cell)
        # the evaluations in order: each level's first, then the second
        for i, ji, fi in [(live, pts, f[:len(live)]),
                          (live[two], j[two] + 1.0, f[len(live):])]:
            below = fi < target[i]
            ja[i] = np.where(below, np.maximum(ja[i], ji), ja[i])
            jb[i] = np.where(below, jb[i], np.minimum(jb[i], ji))
            x1[i], f1[i], x2[i], f2[i] = x2[i], f2[i], ji * cell, fi
            far = np.abs(x2[i] - x1[i]) >= 1024.0 * cell
            slope[i[far]] = ((f2[i] - f1[i]) / (x2[i] - x1[i]))[far]
            span[i[far]] = np.abs(x2[i] - x1[i])[far]
        if known and not step:
            # the second step's other point: of the two samples given and
            # the first evaluations, the nearest beyond the level
            xs, fs = (np.concatenate(v) for v in ((a1, a2, x2[live]),
                                                  (b1, b2, f2[live])))
            order = np.argsort(xs)
            xs, fs = xs[order], fs[order]
            below = f2[live] < t
            k = np.searchsorted(fs, t)
            k = np.clip(np.where(below, k, k - 1), 0, len(xs) - 1)
            other = (fs[k] < t) != below
            x1[live[other]], f1[live[other]] = xs[k[other]], fs[k[other]]
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
    n_range is kept as two Python ints and e_window as two floats, so
    that a table written is read back equal; other values raise
    ConfigurationError.
    """

    h: float
    n_range: tuple
    e_window: tuple
    points: np.recarray
    config: DiscretizationConfig
    potential: PotentialSpec

    def __post_init__(self):
        n_range, e_window = self.n_range, self.e_window
        try:
            self.n_range = tuple(map(operator.index, n_range))
            self.e_window = tuple(float(e) for e in e_window
                                  if isinstance(e, numbers.Real))
            valid = len(self.n_range) == 2 == len(self.e_window) == len(
                e_window)
        except TypeError:
            valid = False
        if not valid:
            raise ConfigurationError(
                f"n_range is {n_range!r} and e_window {e_window!r}: they "
                "must be two integers and two numbers")
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
