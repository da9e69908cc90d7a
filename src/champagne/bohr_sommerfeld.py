"""Singular Bohr-Sommerfeld rules near the focus-focus critical value.

In zoomed coordinates x = E1/(sqrt(2) h), n = E2/h the joint spectrum on
the line n is the solution set of g_n(x) in Z, where

    g_n(x) = ( |n| pi/2 - x ln(h) - Psi_n(x) + B x + C n + offset ) / 2 pi

and Psi_n is the gamma phase from special_functions.  The slope
(B - ln h - Psi_n'(x))/2pi is the local eigenvalue density; its
reciprocal gives the spectral gap law, implemented here in two variants
that differ by a ln 2 in the constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import brentq

from .errors import FitError, ModelRangeError, _read_json, _write_json
from .special_functions import LN2, psi_n, psi_n_prime

TWO_PI = 2.0 * math.pi

# Constant B of the model for the champagne-bottle normal form
# (a = sqrt 2, M = diag(sqrt 2, 1)).
B_REFERENCE = 2.5 * LN2

VARIANT_GENERAL = "paper_general"
VARIANT_CHAMPAGNE = "paper_champagne"

H_MAX = 0.05
X_MAX = 100.0


@dataclass
class QuantizationModel:
    """Parameters of the singular quantization rule at one value of h.

    offset_mod_2pi absorbs every x- and n-independent phase (singular
    action over h, Maslov correction, constant D); it is only defined
    modulo 2 pi and normalized to [0, 2 pi).  C is only defined modulo
    2 pi and is reported in [-pi, pi).
    """

    B: float
    C: float
    offset_mod_2pi: float
    h: float
    residual: float | None = None
    warning: bool = False

    def to_json(self, path: str) -> None:
        _write_json(path, asdict(self))

    @staticmethod
    def from_json(path: str) -> "QuantizationModel":
        """The model to_json wrote; a file with other keys, or a value
        not of its field's type, raises ConfigurationError naming it."""
        return QuantizationModel(**_read_json(path, QuantizationModel))


def _check_range(x, h: float) -> None:
    if not (0.0 < h <= H_MAX):
        raise ModelRangeError(f"h={h} outside (0, {H_MAX}]")
    if np.max(np.abs(x)) > X_MAX:
        raise ModelRangeError(f"|x| > {X_MAX} is outside the zoom regime")


def g_n_slope(x, n: int, model: QuantizationModel):
    """d g_n / dx = (B - ln h - Psi_n'(x)) / 2 pi."""
    _check_range(x, model.h)
    return (model.B - math.log(model.h) - psi_n_prime(x, n)) / TWO_PI


def g_n(x, n: int, model: QuantizationModel):
    """Quantization function; eigenvalues on line n sit at g_n(x) in Z.

    Strictly increasing in x throughout the model range; raises
    ModelRangeError if the slope is not positive there.
    """
    _check_range(x, model.h)
    slope = g_n_slope(x, n, model)
    if np.min(slope) <= 0.0:
        raise ModelRangeError(
            f"non-positive slope at x={x}, n={n}: the model is outside "
            "its range of validity")
    n = int(n)
    val = (abs(n) * math.pi / 2.0 - np.asarray(x, float) * math.log(model.h)
           - psi_n(x, n) + model.B * np.asarray(x, float) + model.C * n
           + model.offset_mod_2pi) / TWO_PI
    return float(val) if np.ndim(x) == 0 else val


def predict_line(n: int, model: QuantizationModel,
                 x_window: tuple) -> list[tuple[int, float]]:
    """All (k, x_k) with g_n(x_k) = k in the window; |g - k| < 1e-12."""
    x_lo, x_hi = float(x_window[0]), float(x_window[1])
    g_lo, g_hi = g_n(x_lo, n, model), g_n(x_hi, n, model)
    out = []
    for k in range(math.ceil(g_lo), math.floor(g_hi) + 1):
        xk = brentq(lambda x: g_n(x, n, model) - k, x_lo, x_hi,
                    xtol=1e-14, rtol=8.9e-16)
        if abs(g_n(xk, n, model) - k) >= 1e-12:
            raise ModelRangeError(f"root polish failed at n={n}, k={k}")
        out.append((k, xk))
    return out


def fit_model(table, n_set=None, x_window=None) -> QuantizationModel:
    """Fit (B, C, offset) to a computed joint spectrum.

    Global least squares, linear in B and in one intercept per line; the
    level labels of a line are its eigenvalues in x order, which matches
    the model labels up to the per-line integer absorbed by the intercept.
    Requires >= 3 eigenvalues per used line; C needs >= 2 lines and is set
    to 0 (with the warning flag) for single-line fits.
    """
    h = table.h
    if n_set is None:
        n_set = table.n_values()
    n_set = sorted(int(n) for n in n_set)
    lines = {}
    for n in n_set:
        x = table.line_x(n)
        if x_window is not None:
            x = x[(x >= x_window[0]) & (x <= x_window[1])]
        if len(x) < 3:
            raise FitError(f"line n={n} has {len(x)} eigenvalues; need >= 3")
        lines[n] = x

    rows = sum(len(x) for x in lines.values())
    A = np.zeros((rows, 1 + len(lines)))
    rhs = np.zeros(rows)
    r = 0
    for j, (n, xs) in enumerate(sorted(lines.items())):
        a = (abs(n) * math.pi / 2.0 - xs * math.log(h)
             - psi_n(xs, n)) / TWO_PI
        ks = np.arange(len(xs), dtype=float)
        sl = slice(r, r + len(xs))
        A[sl, 0] = xs / TWO_PI
        A[sl, 1 + j] = 1.0
        rhs[sl] = ks - a
        r += len(xs)

    sol, _, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
    B = float(sol[0])
    d = {n: float(v) for n, v in zip(sorted(lines), sol[1:])}
    resid = float(np.sqrt(np.mean((A @ sol - rhs) ** 2)))

    warning = resid > 0.05
    if len(lines) >= 2:
        ns = sorted(lines)
        deltas = []
        for n0, n1 in zip(ns[:-1], ns[1:]):
            step = n1 - n0
            deltas.append((d[n1] - d[n0]) / step)
        z = np.mean(np.exp(2j * math.pi * np.array(deltas)))
        C = float(np.angle(z))  # in (-pi, pi]
        if C >= math.pi:
            C -= TWO_PI
    else:
        C = 0.0
        warning = True

    n0 = min(lines, key=abs)
    offset = (TWO_PI * d[n0] - C * n0) % TWO_PI
    return QuantizationModel(B=B, C=C, offset_mod_2pi=offset, h=h,
                             residual=resid, warning=warning)


# --- gap law -------------------------------------------------------------

def gap_denominator(x: float, n: int, h: float, variant: str) -> float:
    """|ln h| + const - Psi_n'(x); the local gap in x is 2 pi over it.

    const is B - ln 2 with the closed-form B for 'paper_general', and
    (5/2) ln 2, one ln 2 larger, for 'paper_champagne', the normal form of
    this potential.  At x = 0, n = 0 the denominators are
    |ln h| + (7/2) ln 2 + gamma and |ln h| + (9/2) ln 2 + gamma.
    """
    if variant == VARIANT_GENERAL:
        const = B_REFERENCE - LN2
    elif variant == VARIANT_CHAMPAGNE:
        const = 2.5 * LN2
    else:
        raise ModelRangeError(f"unknown gap variant {variant!r}")
    return abs(math.log(h)) + const - psi_n_prime(x, n)

