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

@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gauss(f, a: float, b: float, n0: int = 64, tol: float = 1e-9,
           max_n: int = 1 << 11) -> float:
    """Gauss-Legendre with node doubling until the relative change < tol.

    Raises ConvergenceError if max_n nodes do not get there.  The actions
    converge by 512 nodes; leggauss builds a dense n x n matrix, so the
    nodes cost O(n^2) memory and O(n^3) time (4096 nodes take about 30 s
    on 2 CPUs).
    """
    if b <= a:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    n = n0
    xs, ws = _leggauss(n)
    prev = half * float(np.dot(ws, f(mid + half * xs)))
    change = math.inf
    while n < max_n:
        n *= 2
        xs, ws = _leggauss(n)
        cur = half * float(np.dot(ws, f(mid + half * xs)))
        change = abs(cur - prev)
        if change <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise ConvergenceError(
        f"Gauss-Legendre on [{a:g}, {b:g}] still changed by {change:.3g} "
        f"at {n} nodes, above the relative tolerance {tol:g}")


# --- turning points ----------------------------------------------------

def _cubic(s, E: float, L: float):
    return -2.0 * s**3 + 2.0 * s**2 + 2.0 * E * s - L * L


def _cubic_roots(E: float, L: float) -> tuple[float, float, float]:
    """Roots s0 <= s_minus <= s_plus of the radial cubic, Newton polished."""
    roots = np.roots([-2.0, 2.0, 2.0 * E, -L * L])
    scale = max(1.0, abs(E), L * L)
    real = [r.real for r in roots if abs(r.imag) <= 1e-8 * scale]
    if len(real) != 3:
        raise DomainError(
            f"empty classically allowed region at E={E}, L={L} "
            "(radial cubic has complex roots)")
    real.sort()
    polished = []
    for s in real:
        for _ in range(3):
            d = (-6.0 * s * s + 4.0 * s + 2.0 * E)
            if abs(d) < 1e-12 * scale:
                break
            s -= _cubic(s, E, L) / d
        polished.append(s)
    polished.sort()
    return polished[0], polished[1], polished[2]


def turning_points(E: float, L: float) -> tuple[float, float]:
    """Radial turning points (r_minus, r_plus) of the reduced motion.

    For L = 0 with E >= 0 the orbit reaches the axis and r_minus = 0.
    Raises DomainError when the classically allowed region is empty.
    """
    if L == 0.0:
        if E < -0.25:
            raise DomainError(f"empty region at E={E}, L=0 (E < -1/4)")
        if E >= 0.0:
            sp = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * E))
            return 0.0, math.sqrt(sp)
    s0, sm, sp = _cubic_roots(E, L)
    if sp < 0.0 or sm < -1e-12:
        raise DomainError(f"empty region at E={E}, L={L}")
    sm = max(sm, 0.0)
    return math.sqrt(sm), math.sqrt(sp)


# --- the three basic integrals -----------------------------------------

def _split_integrals(E: float, L: float):
    """Turning roots s_minus, s_plus of the radial cubic, for s_minus > 0,
    and the map g -> int g(s, Q(s)) ds / (s sqrt((s - sm)(sp - s))) over
    s in [s_minus, s_plus], with Q(s) = sqrt(2 (s - s0)).

    Substitutions: s = sm cosh^2(tau) on [sm, (sm+sp)/2] (resolves both
    the sqrt(s - sm) turning point and the 1/s weight, uniformly in the
    root ratio sp/sm) and s = m + a cos(phi) on [(sm+sp)/2, sp], phi from
    0 at s_plus to pi at the midpoint.
    """
    s0, sm, sp = _cubic_roots(E, L)
    if sm <= 0.0:
        raise DomainError("interior turning point at the axis; use the r-space path")

    def Q(s):
        return np.sqrt(2.0 * (s - s0))

    smid = 0.5 * (sm + sp)
    tau_mid = math.acosh(math.sqrt(smid / sm))
    root_sm = math.sqrt(sm)
    m2 = 0.5 * (smid + sp)
    a2 = 0.5 * (sp - smid)
    sq2a = math.sqrt(2.0 * a2)

    def integral(g):
        def f1(tau):
            ch = np.cosh(tau)
            s = sm * ch * ch
            return g(s, Q(s)) / (ch * np.sqrt(sp - s))

        def f2(phi):
            s = m2 + a2 * np.cos(phi)
            return (g(s, Q(s)) * sq2a * np.cos(0.5 * phi)
                    / (s * np.sqrt(s - sm)))

        return ((2.0 / root_sm) * _gauss(f1, 0.0, tau_mid)
                + _gauss(f2, 0.0, math.pi))

    return sm, sp, integral


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
    sm, sp, integral = _split_integrals(E, L)
    return RadialAction(integral(lambda s, q: q * (s - sm) * (sp - s)),
                        integral(lambda s, q: s / q), False)


def rotation_number(E: float, L: float) -> float:
    """Angle Theta swept by the orbit during one radial period.

    Odd in L, with the limit convention Theta(E, 0) = pi for E > 0 (the
    orbit passes through the axis).  (0, 0) is the focus-focus critical
    value and raises DomainError, as does L = 0 with E < 0 where the limit
    branch is ambiguous.
    """
    if L == 0.0:
        if E > 0.0:
            return math.pi
        raise DomainError(f"rotation number undefined at E={E}, L=0")
    _, _, integral = _split_integrals(E, L)
    return L * integral(lambda s, q: 1.0 / q)


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

def _segment_point_distance(a, b, p=(0.0, 0.0)) -> float:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    p = np.asarray(p, float)
    d = b - a
    den = float(d @ d)
    t = 0.0 if den == 0.0 else float(np.clip((p - a) @ d / den, 0.0, 1.0))
    return float(np.hypot(*(a + t * d - p)))


def _theta_continuous(pt, scale: float) -> float:
    E, L = pt
    if L == 0.0:
        L = 1e-12 * scale  # nudge off the axis; Theta is continuous across it
    return rotation_number(E, L)


def rotation_winding(loop: Sequence[tuple[float, float]]) -> float:
    """Total continuous variation of Theta along a closed (E, L) loop.

    Equals -2 pi (+2 pi) for a simple loop around the critical value
    traversed counterclockwise (clockwise) and 0 for a non-enclosing loop.
    A segment is bisected while Theta jumps by more than 0.5 along it;
    a jump left after 40 bisections raises ConvergenceError.
    """
    pts = [tuple(map(float, p)) for p in loop]
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    scale = max(max(abs(E), abs(L)) for E, L in pts)
    if scale <= 0.0:
        raise DomainError("degenerate loop")
    for a, b in zip(pts[:-1], pts[1:]):
        if _segment_point_distance(a, b) < 1e-4:
            raise DomainError("loop passes within 1e-4 of the critical value")

    total = 0.0
    th_prev = _theta_continuous(pts[0], scale)
    stack: list[tuple[tuple, tuple, int]] = []
    for a, b in zip(pts[:-1], pts[1:]):
        stack.append((a, b, 0))
        while stack:
            p, q, depth = stack.pop()
            th_q = _theta_continuous(q, scale)
            dth = math.remainder(th_q - th_prev, 2.0 * math.pi)
            if abs(dth) > 0.5:
                if depth == 40:
                    raise ConvergenceError(
                        f"Theta jumps by {dth:.3g} between {p} and {q} "
                        "after 40 bisections of the segment")
                mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
                stack.append((mid, q, depth + 1))
                stack.append((p, mid, depth + 1))
                continue
            total += dth
            th_prev = th_q
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
