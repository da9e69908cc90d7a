"""orbit_oracle: the scalar radial-cubic roots and orbit quadrature, as a
test oracle for the batched kernel of champagne.classical_actions.

One point at a time: the roots of c(s) = -2 s^3 + 2 s^2 + 2 E s - L^2 from
np.roots, each Newton polished, and the split substitutions of the orbit
integrals, each half done by Gauss-Legendre with node doubling from 64 to
2048 until the relative change is at most 1e-9.  It raises DomainError
where the allowed region is empty or the inner turning point is the axis,
and ConvergenceError where the nodes run out.
"""

import functools
import math

import numpy as np

from champagne.errors import ConvergenceError, DomainError


@functools.cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def gauss(f, a, b, n0=64, tol=1e-9, max_n=1 << 11):
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
    raise ConvergenceError(f"no convergence on [{a:g}, {b:g}] at {n} nodes")


def _cubic(s, E, L):
    return -2.0 * s**3 + 2.0 * s**2 + 2.0 * E * s - L * L


def cubic_roots(E, L):
    """Roots s0 <= s_minus <= s_plus of the radial cubic, Newton polished."""
    roots = np.roots([-2.0, 2.0, 2.0 * E, -L * L])
    scale = max(1.0, abs(E), L * L)
    real = [r.real for r in roots if abs(r.imag) <= 1e-8 * scale]
    if len(real) != 3:
        raise DomainError(f"complex roots at E={E}, L={L}")
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


def split_integrals(E, L):
    """s_minus, s_plus and g -> int g(s, Q(s)) ds / (s sqrt((s - sm)(sp -
    s))) over [s_minus, s_plus], Q(s) = sqrt(2 (s - s0)): s = sm cosh^2
    tau on the inner half and s = m + a cos(phi) on the outer."""
    s0, sm, sp = cubic_roots(E, L)
    if sm <= 0.0:
        raise DomainError("interior turning point at the axis")

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

        return ((2.0 / root_sm) * gauss(f1, 0.0, tau_mid)
                + gauss(f2, 0.0, math.pi))

    return sm, sp, integral


def rotation_number(E, L):
    """Theta at L != 0."""
    _, _, integral = split_integrals(E, L)
    return L * integral(lambda s, q: 1.0 / q)


def radial_action(E, L):
    """(S_r, T) by the split substitutions, for s_minus > 0."""
    sm, sp, integral = split_integrals(E, L)
    return (integral(lambda s, q: q * (s - sm) * (sp - s)),
            integral(lambda s, q: s / q))
