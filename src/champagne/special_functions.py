"""Gamma-function kernel of the singular quantization rules.

Everything downstream (quantization conditions, gap laws, lattice charts)
reduces to the phase

    Psi_n(x) = 2 arg Gamma((i x + 1 + |n|)/2)

and the unit-modulus scattering coefficient C(eps, n) built from it.
This module exposes the few derived quantities with tight accuracy
guarantees, on scipy's principal-branch log-gamma and digamma.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)
LN2 = float(np.log(2.0))


def fourier_constant(eps: float, n: int) -> complex:
    """Unit-modulus coefficient C(eps, n) of the singular transfer at the focus.

    C(eps, n) = i^{-|n|} 2^{i eps} Gamma((i eps + 1 + |n|)/2)
                                  / Gamma((-i eps + 1 + |n|)/2)

    The two gamma factors are conjugates, so |C| = 1 exactly; the value is
    computed in phase form exp(i(eps ln 2 + Psi_|n|(eps) - |n| pi/2)) which
    is well conditioned for all real eps.
    """
    n = abs(int(n))
    phase = eps * LN2 + psi_n(eps, n) - n * np.pi / 2.0
    return complex(np.cos(phase), np.sin(phase))


def psi_n(x, n: int):
    """Gamma phase Psi_n(x) = 2 arg Gamma((i x + 1 + |n|)/2).

    Continuous in x (the argument stays in the right half plane), odd in x,
    Psi_n(0) = 0. Accepts scalars or numpy arrays.
    """
    n = abs(int(n))
    x = np.asarray(x, dtype=float)
    z = (1j * x + 1.0 + n) / 2.0
    out = 2.0 * _sp.loggamma(z).imag
    return float(out) if out.ndim == 0 else out


def psi_n_prime(x, n: int):
    """Derivative Psi_n'(x) = Re psi((i x + 1 + |n|)/2).

    Psi_n'(0) = -(gamma + 2 ln 2) for n = 0; grows like ln(sqrt(x^2+n^2)/2)
    for large |x| or n. Accepts scalars or numpy arrays.
    """
    n = abs(int(n))
    x = np.asarray(x, dtype=float)
    z = (1j * x + 1.0 + n) / 2.0
    out = _sp.psi(z).real
    return float(out) if out.ndim == 0 else out


def mellin_gaussian(s: complex, n: int) -> complex:
    """Mellin transform of f_n(r) = r^n exp(-r^2/2) on (0, inf).

    M f_n(s) = integral r^{s-1} f_n(r) dr = 2^{(s+n)/2 - 1} Gamma((s+n)/2),
    valid for Re(s) > -n.
    """
    n = abs(int(n))
    s = complex(s)
    if s.real <= -n:
        raise DomainError(f"mellin_gaussian needs Re(s) > {-n}, got {s}")
    w = (s + n) / 2.0
    return np.exp((w - 1.0) * LN2 + _sp.loggamma(w))


def verify_mellin_hankel(eps: float, n: int) -> float:
    """Residual of the Hankel intertwining identity on the critical lines.

    Returns |M f_n(i eps + 1) - i^n C(eps, n) M f_n(-i eps + 1)|, which is
    zero in exact arithmetic for every real eps and integer n.
    """
    n = abs(int(n))
    lhs = mellin_gaussian(1j * eps + 1.0, n)
    rhs = (1j ** n) * fourier_constant(eps, n) * mellin_gaussian(-1j * eps + 1.0, n)
    return abs(lhs - rhs)
