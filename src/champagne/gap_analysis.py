"""Statistical checks of the spectral asymptotics against computed spectra.

Four independent verifications live here: consecutive-gap measurements on
a lattice line against the two gap-law variants, the smallest-gap scaling
in 1/|ln h|, the logarithmic Weyl count over a window, and a Monte Carlo
estimate of the phase-space volume whose leading term carries the same
|ln h| factor.  Everything is deterministic: Monte Carlo seeds are fixed
and scans are order independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bohr_sommerfeld import (VARIANT_CHAMPAGNE, VARIANT_GENERAL,
                              gap_denominator)
from .errors import DomainError, SampleSizeError
from .radial_spectrum import joint_spectrum

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GapRecord:
    """One consecutive gap on a lattice line, in zoomed x units."""

    h: float
    n: int
    x_mid: float
    gap_measured: float
    gap_pred_general: float
    gap_pred_champagne: float
    rel_err_general: float
    rel_err_champagne: float


def measure_gaps(spectrum, n: int, x_window) -> list[GapRecord]:
    """Consecutive eigenvalue gaps on line n with both predictions attached.

    Predictions are evaluated at the midpoint of each gap (the mean value
    theorem only locates the matching x somewhere inside it), the general
    variant with the closed-form B.  Returns records sorted by x_mid; an
    empty line gives [] with a warning.
    """
    h = spectrum.h
    x = spectrum.line_x(n)
    x = x[(x >= x_window[0]) & (x <= x_window[1])]
    if len(x) == 0:
        warnings.warn(f"no eigenvalues on line n={n} in {x_window}")
        return []
    if len(x) < 2:
        raise DomainError(f"need >= 2 eigenvalues on line n={n} in-window")
    out = []
    for a, b in zip(x[:-1], x[1:]):
        mid = 0.5 * (a + b)
        gap = b - a
        pg = TWO_PI / gap_denominator(mid, n, h, VARIANT_GENERAL)
        pc = TWO_PI / gap_denominator(mid, n, h, VARIANT_CHAMPAGNE)
        out.append(GapRecord(h=h, n=int(n), x_mid=float(mid),
                             gap_measured=float(gap),
                             gap_pred_general=pg, gap_pred_champagne=pc,
                             rel_err_general=abs(gap - pg) / pg,
                             rel_err_champagne=abs(gap - pc) / pc))
    return out


def gap_verdict(records_by_h: dict) -> tuple[str, dict]:
    """Which variant fits better, consistently across h.

    records_by_h maps h -> list of GapRecord.  Returns (winner, table)
    where table[h] = (max_rel_err_general, max_rel_err_champagne); the
    winner must be the same for every h, otherwise DomainError (the
    discrepancy would then be unresolved by this data), as is an h
    without records.
    """
    table = {}
    winners = set()
    for h, recs in records_by_h.items():
        if not recs:
            raise DomainError(f"no gap records at h={h!r} for the verdict")
        eg = max(r.rel_err_general for r in recs)
        ec = max(r.rel_err_champagne for r in recs)
        table[h] = (eg, ec)
        winners.add(VARIANT_GENERAL if eg < ec else VARIANT_CHAMPAGNE)
    if len(winners) != 1:
        raise DomainError(f"variant verdict inconsistent across h: {table}")
    return winners.pop(), table


# --- smallest gap scaling --------------------------------------------------

@dataclass(frozen=True)
class SmallestGapRow:
    h: float
    lnh_abs: float
    gap_min_measured: float      # in Delta E / h = sqrt(2) Delta x units
    gap_min_general: float
    gap_min_champagne: float
    x_at_min: float


@dataclass(frozen=True)
class SmallestGapScan:
    rows: list
    slope: float                 # of 1/gap_min_measured vs |ln h|
    intercept: float
    r_squared: float


def _require_two_h(h_list) -> None:
    if len(set(h_list)) < 2:
        raise DomainError("the smallest-gap fit needs at least two distinct "
                          f"h, got {sorted(set(h_list))}")


def smallest_gap_fit(tables, x_half_window: float = 2.5) -> SmallestGapScan:
    """Minimum n = 0 gap of each table and the 1/|ln h| scaling regression.

    Each table holds the n = 0 line of one h over at least |x| <=
    x_half_window; only the gaps inside that window are measured, since
    the smallest gap sits at the center of the spectrum where the level
    density peaks.  Gaps are reported in Delta E / h units; the regression
    of 1/gap_min_measured against |ln h| has slope 1/(2 pi sqrt 2) to
    leading order.  Rows are ordered by decreasing h.  Raises DomainError
    for fewer than two distinct h, through which no line is determined.
    """
    _require_two_h([t.h for t in tables])
    rows = []
    for spec in sorted(tables, key=lambda t: t.h, reverse=True):
        h = spec.h
        recs = measure_gaps(spec, 0, (-x_half_window, x_half_window))
        best = min(recs, key=lambda r: r.gap_measured)
        rows.append(SmallestGapRow(
            h=h, lnh_abs=abs(math.log(h)),
            gap_min_measured=SQRT2 * best.gap_measured,
            gap_min_general=SQRT2 * TWO_PI
            / gap_denominator(0.0, 0, h, VARIANT_GENERAL),
            gap_min_champagne=SQRT2 * TWO_PI
            / gap_denominator(0.0, 0, h, VARIANT_CHAMPAGNE),
            x_at_min=best.x_mid))
    lnh = np.array([r.lnh_abs for r in rows])
    inv = np.array([1.0 / r.gap_min_measured for r in rows])
    slope, intercept = np.polyfit(lnh, inv, 1)
    fitted = slope * lnh + intercept
    ss_res = float(np.sum((inv - fitted) ** 2))
    ss_tot = float(np.sum((inv - np.mean(inv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SmallestGapScan(rows=rows, slope=float(slope),
                           intercept=float(intercept), r_squared=r2)


def smallest_gap_scan(h_list, x_half_window: float = 2.5) -> SmallestGapScan:
    """smallest_gap_fit on the n = 0 lines of h_list, solved on |x| <=
    x_half_window only.  Fewer than two distinct h raise DomainError
    before any line is solved."""
    _require_two_h(h_list)
    tables = []
    for h in sorted(h_list, reverse=True):
        e1 = x_half_window * SQRT2 * h
        tables.append(joint_spectrum(h, (0, 0), (-e1, e1)))
    return smallest_gap_fit(tables, x_half_window)


# --- log-Weyl counting ------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """Rectangle [t1_min, t1_max] x [t2_min, t2_max] in (E1/h, E2/h)."""

    t1_min: float
    t1_max: float
    t2_min: float
    t2_max: float

    def __post_init__(self):
        if self.t1_min > self.t1_max or self.t2_min > self.t2_max:
            raise DomainError("empty-ordered window bounds")

    def area_tilde(self) -> float:
        """Lebesgue area of diag(1/sqrt2, 1) applied to the window."""
        return ((self.t1_max - self.t1_min) / SQRT2
                * (self.t2_max - self.t2_min))

    def n_slices(self) -> range:
        return range(math.ceil(self.t2_min), math.floor(self.t2_max) + 1)

    def slice_length(self) -> float:
        """Length of each integer-height slice after the sqrt2 rescale."""
        return (self.t1_max - self.t1_min) / SQRT2


def weyl_count(spectrum, K: Window) -> tuple[int, float]:
    """Eigenvalue count in the window against the |ln h| leading term.

    The window rescales to x = t1/sqrt2; points with (x, n) inside are
    counted, and the prediction is (|ln h|/2 pi) times the total length
    of the rescaled window's integer-height slices.  Raises DomainError
    when the computed spectrum does not cover the window.
    """
    h = spectrum.h
    x_lo, x_hi = K.t1_min / SQRT2, K.t1_max / SQRT2
    ns = list(K.n_slices())
    if not ns or x_lo >= x_hi:
        return 0, 0.0
    have = set(spectrum.n_values())
    missing = [n for n in ns if n not in have]
    if missing:
        raise DomainError(f"window lines {missing} not in computed spectrum")
    count = 0
    for n in ns:
        x = spectrum.line_x(n)
        if len(x) and (x.min() > x_lo or x.max() < x_hi):
            # the line must extend past the window on both sides,
            # otherwise eigenvalues could be missing from the count
            raise DomainError(
                f"line n={n} computed on [{x.min():.3g}, {x.max():.3g}] "
                f"does not cover the window [{x_lo:.3g}, {x_hi:.3g}]")
        count += int(np.sum((x >= x_lo) & (x <= x_hi)))
    predicted = abs(math.log(h)) / TWO_PI * K.slice_length() * len(ns)
    return count, predicted


# --- symplectic volume ------------------------------------------------------

# inner radius cutoff of dh_volume's r integral, and the largest standard
# error it accepts, relative to the value
R_LOW = 1e-6
SE_MAX = 0.05
# samples dh_volume draws and weighs at once: a few arrays of this length
# stay in cache, and its memory does not grow with the sample count
_CHUNK = 1 << 15

@dataclass(frozen=True)
class VolumeEstimate:
    mu_over_norm: float          # mu(hK) / (2 pi h)^2
    asymptotic: float            # (|ln h| / 2 pi) |K tilde|
    std_error: float             # Monte Carlo SE of mu_over_norm
    samples: int


def dh_volume(K: Window, h: float, samples: int = 10_000_000,
              seed: int = 20260823) -> VolumeEstimate:
    """Phase-space volume of {(H, L) in hK} by stratified Monte Carlo.

    In polar position/momentum coordinates the volume factorizes as
    2 pi Int r dr Int du Int dpsi 1{r sqrt(2u) sin(psi) in h[t2]} with
    u = |momentum|^2/2 restricted exactly to the conditional H window, so
    only the angular-momentum indicator is sampled.  r is drawn
    log-uniformly (the integral diverges logarithmically at r = 0, which
    is the whole point) over 24 strata from R_LOW to the outer turning
    radius; the truncation bias below R_LOW is O(R_LOW^2) and negligible
    against the standard error.  Each stratum takes samples // 24 draws.

    A stratum streams its draws in chunks of _CHUNK samples, and keeps
    only the sums of the integrand and of its square, so the memory used
    is a few chunk-sized arrays, about 3.5 MB at any sample count.  Each
    chunk draws its r, u and psi fractions as one (3, chunk) array from
    the one Generator of seed, stratum after stratum: the value depends
    on (K, h, samples, seed) alone.  Raises DomainError for h that is not
    finite and positive, and for a leading term (|ln h| / 2 pi) |K tilde|
    of 0 (h = 1, or a window of zero area), which the value could not be
    compared with; SampleSizeError for fewer than 1000 samples or a
    standard error above SE_MAX of the value.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"h must be finite and positive, got {h!r}")
    asym = abs(math.log(h)) / TWO_PI * K.area_tilde()
    if asym == 0.0:
        raise DomainError(
            f"the leading term (|ln h| / 2 pi) |K tilde| is 0 at h={h!r}, "
            f"|K tilde| = {K.area_tilde()!r}")
    if samples < 1000:
        raise SampleSizeError("need at least 1000 samples")
    e_lo, e_hi = h * K.t1_min, h * K.t1_max
    l_lo, l_hi = h * K.t2_min, h * K.t2_max
    if e_hi <= -0.25:
        return VolumeEstimate(0.0, asym, 0.0, 0)
    # outer turning radius of the highest energy in the window
    r_hi = math.sqrt((1.0 + math.sqrt(1.0 + 4.0 * max(e_hi, 0.0) + 1e-300))
                     / 2.0) * 1.0000001
    n_strata = 24
    log_edges = np.linspace(math.log(R_LOW), math.log(r_hi),
                            n_strata + 1).tolist()
    per = samples // n_strata
    rng = np.random.default_rng(seed)
    # the draws of a chunk land in one buffer, so that the chunks do not
    # map and fault in fresh pages each time
    draws = np.empty(3 * _CHUNK)
    total = 0.0
    var = 0.0
    for k in range(n_strata):
        lo, z = log_edges[k], log_edges[k + 1] - log_edges[k]
        s1 = s2 = 0.0
        for start in range(0, per, _CHUNK):
            size = min(_CHUNK, per - start)
            p_r, p_u, p_psi = rng.random(
                out=draws[:3 * size].reshape(3, size))
            r = np.exp(lo + z * p_r)
            r2 = r * r
            v = r2 * (r2 - 1.0)
            u_lo = np.maximum(e_lo - v, 0.0)
            w_u = np.maximum(e_hi - v - u_lo, 0.0)
            # sin(psi) of psi = 2 pi p from tau = tan(pi p)
            tau = np.tan(math.pi * p_psi)
            sin_psi = 2.0 * tau / (1.0 + tau * tau)
            ell = r * np.sqrt(2.0 * (u_lo + p_u * w_u)) * sin_psi
            # integrand weight r^2 w_u, times z (log-uniform r) and 2 pi
            # (uniform psi) once per stratum
            f = r2 * w_u * ((ell >= l_lo) & (ell <= l_hi))
            s1 += float(np.sum(f))
            # not np.dot: a BLAS dot of this length runs on a thread pool
            # that spins on the other cores between calls
            s2 += float(np.sum(f * f))
        mean = s1 / per
        total += z * TWO_PI * mean
        var += (z * TWO_PI) ** 2 * max(s2 / per - mean * mean, 0.0) / per
    mu = TWO_PI * total                      # the free theta integral
    se = TWO_PI * math.sqrt(var)
    norm = (TWO_PI * h) ** 2
    value = mu / norm
    if value > 0 and se / mu > SE_MAX:
        raise SampleSizeError(
            f"Monte Carlo SE {se / mu:.1%} exceeds {SE_MAX:.0%}; "
            "increase samples")
    return VolumeEstimate(mu_over_norm=value, asymptotic=asym,
                          std_error=se / norm, samples=n_strata * per)
