"""Classical actions and rotation numbers for the champagne bottle.

The Hamiltonian is H = (xi^2 + eta^2)/2 - r^2 + r^4 with angular momentum
L = x eta - y xi.  Reduction at fixed L gives the radial momentum

    p_r(r)^2 = (2/s) (s - s0)(s - s_minus)(s_plus - s),   s = r^2,

where s0 <= s_minus <= s_plus are the roots of the cubic
c(s) = -2 s^3 + 2 s^2 + 2 E s - L^2.  This factorization holds for every
admissible (E, L), including L = 0 where one root sits at s = 0.

All one-dimensional integrals (radial action S_r, period T, rotation
number Theta) are regularized by explicit substitutions before Gauss
quadrature, so accuracy is uniform down to very small |L| and |E|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

SQRT2 = math.sqrt(2.0)

# Action of the homoclinic loop (the critical fiber through the origin).
HOMOCLINIC_ACTION = 2.0 * SQRT2 / 3.0

_DEGENERATE_REL = 1e-8


# --- quadrature --------------------------------------------------------

# point x node entries of one evaluation of an integrand
_BATCH = 1 << 16
# _gauss's nodes per point: the first count, the relative change that
# stops the doubling, and the cap
_GAUSS_N0 = 64
_GAUSS_TOL = 1e-9
_GAUSS_MAX_N = 1 << 11


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gauss(f, a, b, *args):
    """Gauss-Legendre of f on [a, b] at every point of a batch, the nodes
    of each point doubled from _GAUSS_N0 until its relative change is at
    most _GAUSS_TOL.

    a, b and the per-point parameters args broadcast to one shape; f
    takes the (k, n) nodes of k points and those points' parameters, each
    a (k, 1) column, and returns the (k, n) values.  At most about _BATCH
    point x node values are evaluated at once.  A point with b <= a gives
    0.  Returns an array of the broadcast shape, a float when it is a
    scalar.  Raises ConvergenceError, naming the first such point, if
    _GAUSS_MAX_N nodes do not get there.  The actions converge by 512 nodes;
    leggauss builds a dense n x n matrix, so the nodes cost O(n^2) memory
    and O(n^3) time (4096 nodes take about 30 s on 2 CPUs).
    """
    a, b, *args = np.broadcast_arrays(a, b, *args)
    shape = a.shape
    a, b = a.astype(float).ravel(), b.astype(float).ravel()
    args = [np.ravel(x)[:, None] for x in args]
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    out = np.zeros(len(a))

    def quad(rows, n):
        xs, ws = _leggauss(n)
        res = np.empty(len(rows))
        step = max(1, _BATCH // n)
        for i in range(0, len(rows), step):
            r = rows[i:i + step]
            x = mid[r, None] + half[r, None] * xs
            res[i:i + step] = half[r] * (f(x, *(c[r] for c in args)) @ ws)
        return res

    live = np.flatnonzero(b > a)
    n = _GAUSS_N0
    prev = quad(live, n)
    change = np.full(len(live), math.inf)
    while len(live) and n < _GAUSS_MAX_N:
        n *= 2
        cur = quad(live, n)
        change = np.abs(cur - prev)
        done = change <= _GAUSS_TOL * np.maximum(np.abs(cur), 1e-300)
        out[live[done]] = cur[done]
        live, prev, change = live[~done], cur[~done], change[~done]
    if len(live):
        i = live[0]
        raise ConvergenceError(
            f"Gauss-Legendre on [{a[i]:g}, {b[i]:g}] still changed by "
            f"{change[0]:.3g} at {n} nodes, above the relative tolerance "
            f"{_GAUSS_TOL:g}")
    return float(out[0]) if shape == () else out.reshape(shape)


# --- turning points ----------------------------------------------------

def _cubic(s, E, L):
    return -2.0 * s**3 + 2.0 * s**2 + 2.0 * E * s - L * L


def _finite(E, L) -> tuple[np.ndarray, np.ndarray]:
    """E and L, scalars or arrays of one shape, as flat float arrays;
    DomainError naming the first point where either is not finite."""
    E, L = (np.atleast_1d(np.asarray(x, dtype=float)).ravel()
            for x in np.broadcast_arrays(E, L))
    bad = np.flatnonzero(~(np.isfinite(E) & np.isfinite(L)))
    if len(bad):
        i = bad[0]
        raise DomainError(f"E={E[i]} and L={L[i]} must both be finite")
    return E, L


def _cubic_roots(E, L) -> np.ndarray:
    """(m, 3) roots s0 <= s_minus <= s_plus of the radial cubic at each of
    the m points of E and L, scalars or arrays of one shape.

    This is the entry of every orbit integral: DomainError names the first
    point where E or L is not finite, or where the cubic has complex
    roots.  Each point's companion matrix is that of np.roots, and all of
    them go to one stacked eigvals; each root is then Newton polished.
    """
    E, L = _finite(E, L)
    # np.roots' companion matrix of the coefficients p: first row
    # -p[1:] / p[0], ones below the diagonal
    p = np.column_stack([np.full_like(E, -2.0), np.full_like(E, 2.0),
                         2.0 * E, -L * L])
    companion = np.zeros((len(E), 3, 3))
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    scale = np.maximum(np.maximum(1.0, np.abs(E)), L * L)
    complex_ = np.flatnonzero(np.any(np.abs(roots.imag)
                                     > 1e-8 * scale[:, None], axis=1))
    if len(complex_):
        i = complex_[0]
        raise DomainError(
            f"empty classically allowed region at E={E[i]}, L={L[i]} "
            "(radial cubic has complex roots)")
    s = np.sort(roots.real, axis=1)
    E, L, scale = E[:, None], L[:, None], scale[:, None]
    live = np.ones(s.shape, dtype=bool)
    for _ in range(3):
        d = -6.0 * s * s + 4.0 * s + 2.0 * E
        live &= np.abs(d) >= 1e-12 * scale
        s = np.where(live, s - _cubic(s, E, L) / np.where(live, d, 1.0), s)
    return np.sort(s, axis=1)


def turning_points(E: float, L: float) -> tuple[float, float]:
    """Radial turning points (r_minus, r_plus) of the reduced motion.

    For L = 0 with E >= 0 the orbit reaches the axis and r_minus = 0.
    Raises DomainError when the classically allowed region is empty, or
    when E or L is not finite.
    """
    if L == 0.0:
        if E < -0.25:
            raise DomainError(f"empty region at E={E}, L=0 (E < -1/4)")
        if 0.0 <= E < math.inf:
            sp = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * E))
            return 0.0, math.sqrt(sp)
    (s0, sm, sp), = _cubic_roots(E, L)
    if sp < 0.0 or sm < -1e-12:
        raise DomainError(f"empty region at E={E}, L={L}")
    sm = max(sm, 0.0)
    return math.sqrt(sm), math.sqrt(sp)


# --- the three basic integrals -----------------------------------------

def _split_integrals(E, L):
    """The map g -> int g(s, Q(s), sm, sp) ds / (s sqrt((s - sm)(sp - s)))
    over s in [s_minus, s_plus] at every point of E and L, all with
    s_minus > 0, where s_minus and s_plus are the turning roots of the
    radial cubic and Q(s) = sqrt(2 (s - s0)).  g takes (k, n) values of
    s and Q and the (k, 1) columns of s_minus and s_plus of k points.

    Substitutions: s = sm cosh^2(tau) on [sm, (sm+sp)/2] (resolves both
    the sqrt(s - sm) turning point and the 1/s weight, uniformly in the
    root ratio sp/sm) and s = m + a cos(phi) on [(sm+sp)/2, sp], phi from
    0 at s_plus to pi at the midpoint.  Each half is one batched _gauss.
    """
    s0, sm, sp = _cubic_roots(E, L).T
    axis = np.flatnonzero(sm <= 0.0)
    if len(axis):
        E, L = np.broadcast_arrays(E, L)
        raise DomainError(
            f"interior turning point at the axis at E={E.flat[axis[0]]}, "
            f"L={L.flat[axis[0]]}; use the r-space path")
    tau_mid = np.arccosh(np.sqrt(0.5 * (sm + sp) / sm))

    def integral(g):
        def f1(tau, s0, sm, sp):
            ch = np.cosh(tau)
            s = sm * ch * ch
            return (g(s, np.sqrt(2.0 * (s - s0)), sm, sp)
                    / (ch * np.sqrt(sp - s)))

        def f2(phi, s0, sm, sp):
            smid = 0.5 * (sm + sp)
            a2 = 0.5 * (sp - smid)
            s = 0.5 * (smid + sp) + a2 * np.cos(phi)
            return (g(s, np.sqrt(2.0 * (s - s0)), sm, sp)
                    * np.sqrt(2.0 * a2) * np.cos(0.5 * phi)
                    / (s * np.sqrt(s - sm)))

        return ((2.0 / np.sqrt(sm)) * _gauss(f1, 0.0, tau_mid, s0, sm, sp)
                + _gauss(f2, 0.0, math.pi, s0, sm, sp))

    return integral


def _axis_integrals(E: float) -> tuple[float, float]:
    """S_r and T for L = 0, E >= 0 (orbit through the axis), via r = r_+ sin(chi)."""
    s0 = 0.5 * (1.0 - math.sqrt(1.0 + 4.0 * E))
    sp = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * E))
    rp2 = sp

    def f_S(chi):
        c = np.cos(chi)
        return c * c * np.sqrt(rp2 * np.sin(chi) ** 2 - s0)

    S_r = 2.0 * SQRT2 * rp2 * _gauss(f_S, 0.0, 0.5 * math.pi)
    if E == 0.0:
        T = math.inf
    else:
        def f_T(chi):
            return 1.0 / np.sqrt(rp2 * np.sin(chi) ** 2 - s0)
        T = SQRT2 * _gauss(f_T, 0.0, 0.5 * math.pi)
    return S_r, T


class RadialAction(NamedTuple):
    S_r: float
    T: float
    degenerate: bool = False


def radial_action(E: float, L: float) -> RadialAction:
    """Radial action S_r = oint p_r dr and radial period T at fixed (E, L).

    Degenerate (circular) orbits return S_r = 0 with T from the harmonic
    approximation at the effective-potential minimum, flagged via the
    `degenerate` field.  At the critical value (0, 0) the period is
    infinite and S_r equals the homoclinic action 2 sqrt(2)/3.
    """
    return _radial_action(E, L, *turning_points(E, L))


def _radial_action(E: float, L: float, r_minus: float,
                   r_plus: float) -> RadialAction:
    """radial_action at the turning points of (E, L)."""
    sm, sp = r_minus * r_minus, r_plus * r_plus
    if sp - sm <= _DEGENERATE_REL * max(1.0, sp):
        r0 = math.sqrt(0.5 * (sm + sp))
        wpp = 12.0 * r0**2 - 2.0 + (3.0 * L * L / r0**4 if L != 0.0 else 0.0)
        if wpp <= 0.0:
            raise DomainError(f"no stable circular orbit at E={E}, L={L}")
        return RadialAction(0.0, 2.0 * math.pi / math.sqrt(wpp), True)
    if L == 0.0 and E >= 0.0:
        S_r, T = _axis_integrals(E)
        return RadialAction(S_r, T, False)
    integral = _split_integrals(E, L)
    (S_r,), (T,) = (integral(lambda s, q, sm, sp: q * (s - sm) * (sp - s)),
                    integral(lambda s, q, sm, sp: s / q))
    return RadialAction(float(S_r), float(T), False)


def _rotation_numbers(E, L) -> np.ndarray:
    """rotation_number at each point of the arrays E and L, none of them
    on L = 0: one batched quadrature for all of them."""
    integral = _split_integrals(E, L)
    return np.asarray(L, dtype=float) * integral(lambda s, q, sm, sp: 1.0 / q)


def rotation_number(E: float, L: float) -> float:
    """Angle Theta swept by the orbit during one radial period.

    Odd in L, with the limit convention Theta(E, 0) = pi for E > 0 (the
    orbit passes through the axis).  (0, 0) is the focus-focus critical
    value and raises DomainError, as does L = 0 with E < 0 where the limit
    branch is ambiguous.
    """
    if L == 0.0:
        if 0.0 < E < math.inf:
            return math.pi
        raise DomainError(f"rotation number undefined at E={E}, L=0")
    (theta,) = _rotation_numbers(E, L)
    return float(theta)


# --- samples -----------------------------------------------------------

@dataclass
class ActionSample:
    E: float
    L: float
    r_minus: float
    r_plus: float
    S_r: float
    T: float
    Theta: float
    A_reg: float


def theta_tilde(E: float, L: float) -> float:
    """Branch of -Theta matching the principal log of e0 = E/sqrt(2) + iL.

    Equal to -Theta for L >= 0 and -Theta - 2 pi for L < 0 (cut on the
    negative-E axis).  Used to close the non-contractible cycle when
    regularizing the loop action.
    """
    if L == 0.0 and E <= 0.0:
        raise DomainError(f"theta_tilde undefined on the cut at E={E}, L=0")
    th = rotation_number(E, L)
    return -th if L >= 0.0 else -th - 2.0 * math.pi


def regularized_action(E: float, L: float) -> float:
    """Loop action with the logarithmic singularity at (0,0) subtracted.

    A_reg = S_r + L Theta_tilde + Re(e0 log e0) - Re(e0) with
    e0 = E/sqrt(2) + iL and the principal log.  Extends continuously
    through the critical value, where it equals 2 sqrt(2)/3.
    """
    return action_sample(E, L).A_reg


def action_sample(E: float, L: float) -> ActionSample:
    """All classical quantities at one (E, L), each orbit integral done
    once.  Theta is NaN where it is undefined on L = 0; anywhere else
    rotation_number's DomainError is raised.  A_reg is regularized_action,
    and reads Theta only off L = 0, where L theta_tilde is 0."""
    r_minus, r_plus = turning_points(E, L)
    act = _radial_action(E, L, r_minus, r_plus)
    try:
        Theta = rotation_number(E, L)
    except DomainError:
        if L != 0.0:
            raise
        Theta = math.nan
    lt = 0.0 if L == 0.0 else L * (-Theta if L > 0.0
                                   else -Theta - 2.0 * math.pi)
    e0 = complex(E / SQRT2, L)
    counter = 0.0 if e0 == 0 else (e0 * np.log(e0)).real - e0.real
    return ActionSample(E, L, r_minus, r_plus, act.S_r, act.T, Theta,
                        act.S_r + lt + counter)


# --- monodromy of the classical torus bundle ----------------------------

def rotation_winding(loop: Sequence[tuple[float, float]]) -> float:
    """Total continuous variation of Theta along a closed (E, L) loop.

    Equals -2 pi (+2 pi) for a simple loop around the critical value
    traversed counterclockwise (clockwise) and 0 for a non-enclosing loop.
    A segment is bisected while Theta jumps by more than 0.5 along it;
    a jump left after 40 bisections raises ConvergenceError.  Theta is
    evaluated at every vertex in one batched call, then at the midpoints
    of each bisection level in one more; a vertex on L = 0 is nudged off
    the axis, across which Theta is continuous.
    """
    pts = np.column_stack(_finite(*np.array(loop, dtype=float).T))
    if not np.array_equal(pts[0], pts[-1]):
        pts = np.vstack([pts, pts[:1]])
    scale = float(np.max(np.abs(pts)))
    if scale <= 0.0:
        raise DomainError("degenerate loop")
    # distance from the critical value (0, 0) to each segment
    a, d = pts[:-1], np.diff(pts, axis=0)
    den = np.einsum("ij,ij->i", d, d)
    t = np.clip(-np.einsum("ij,ij->i", a, d) / np.where(den == 0.0, 1.0, den),
                0.0, 1.0)
    near = a + t[:, None] * d
    if np.any(np.hypot(near[:, 0], near[:, 1]) < 1e-4):
        raise DomainError("loop passes within 1e-4 of the critical value")

    def theta(p):
        return _rotation_numbers(p[:, 0], np.where(p[:, 1] == 0.0,
                                                   1e-12 * scale, p[:, 1]))

    th = theta(pts)
    # the sub-segments p -> q of one bisection level, with Theta at their
    # ends and their places along the loop: segment and start fraction
    p, q, th_p, th_q = pts[:-1], pts[1:], th[:-1], th[1:]
    seg, frac = np.arange(len(p)), np.zeros(len(p))
    steps = []
    for depth in range(41):
        dth = np.array([math.remainder(x, 2.0 * math.pi)
                        for x in (th_q - th_p).tolist()])
        jump = np.abs(dth) > 0.5
        keep = ~jump
        steps += zip(seg[keep].tolist(), frac[keep].tolist(),
                     dth[keep].tolist())
        if not jump.any():
            break
        if depth == 40:
            i = np.flatnonzero(jump)[0]
            raise ConvergenceError(
                f"Theta jumps by {dth[i]:.3g} between {tuple(p[i].tolist())}"
                f" and {tuple(q[i].tolist())} after 40 bisections of the "
                "segment")
        p, q, th_p, th_q = p[jump], q[jump], th_p[jump], th_q[jump]
        seg, frac = seg[jump], frac[jump]
        mid = 0.5 * (p + q)
        th_mid = theta(mid)
        p, q = np.vstack([p, mid]), np.vstack([mid, q])
        th_p, th_q = (np.concatenate([th_p, th_mid]),
                      np.concatenate([th_mid, th_q]))
        seg = np.concatenate([seg, seg])
        frac = np.concatenate([frac, frac + 0.5 ** (depth + 1)])
    # summed in loop order, as a walk along the loop would
    total = 0.0
    for *_, step in sorted(steps):
        total += step
    return total


def classical_monodromy(dth: float) -> np.ndarray:
    """Monodromy of the period lattice around a loop of rotation_winding dth.

    Returns the integer matrix [[1, 0], [w, 1]] in the basis (radial cycle,
    angular cycle); w = +1 for a simple positively-oriented loop around the
    critical value, -1 for the reverse, 0 when the loop does not enclose it.
    Raises DomainError when dth is more than 1e-3 from a multiple of 2 pi.
    """
    w = round(dth / (2.0 * math.pi))
    if abs(dth - 2.0 * math.pi * w) > 1e-3:
        raise DomainError(
            f"rotation winding {dth} is not close to a multiple of 2 pi")
    return np.array([[1, 0], [-w, 1]], dtype=int)


def circle_loop(center_E: float = 0.0, center_L: float = 0.0,
                radius: float = 0.2, segments: int = 64) -> list:
    """Counterclockwise polygonal circle in the (E, L) plane.

    Raises DomainError below 3 segments, which enclose no area.
    """
    if segments < 3:
        raise DomainError(f"a loop needs at least 3 segments, got {segments}")
    phi = np.linspace(0.0, 2.0 * math.pi, segments + 1)
    return [(center_E + radius * math.cos(p),
             center_L + radius * math.sin(p)) for p in phi]
