"""The paper's headline experiments, each defined once.

Every experiment here reads joint spectra that are already solved, owns
the h values, windows, loops and bounds it is judged by, and returns an
Outcome: whether the claim holds, one line with the measured numbers
against their bounds, and the measurements themselves.  The `champagne
reproduce` pipelines solve the tables an experiment names (its `*_lines`
requests) and write the measurements out; the acceptance tests pass
their shared fixture spectra to the same functions.

    gap law               gap_law            reproduce cusp, cusp-z;
                                             criterion 4
    smallest-gap scaling  smallest_gap       reproduce gaps-formule;
                                             criterion 5
    singular Bohr-        bohr_sommerfeld    reproduce gaps-formule;
      Sommerfeld rule                        criterion 11
    log-Weyl count        weyl               reproduce weyl; criterion 6
    quantum monodromy     quantum_monodromy  criterion 10
      and counting        quantum_loop       reproduce unwinding; each
                                             loop of criterion 10
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bohr_sommerfeld as bs
from . import gap_analysis as ga
from . import monodromy_lattice as ml
from . import radial_spectrum as rs
from .errors import DomainError

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Lines:
    """Lines |n| <= n_max of one h, solved for x = E1 / (sqrt 2 h) in
    x_window."""

    h: float
    n_max: int
    x_window: tuple

    def solve(self) -> rs.SpectrumTable:
        lo, hi = self.x_window
        return rs.joint_spectrum(
            self.h, (-self.n_max, self.n_max),
            (lo * SQRT2 * self.h, hi * SQRT2 * self.h))


@dataclass(frozen=True)
class Outcome:
    """Verdict of one experiment: ok, the measured numbers against their
    bounds in one line, and the measurements (documented per experiment)."""

    ok: bool
    detail: str
    measured: object


def _at(tables, h_list) -> list:
    """The tables in h_list order; DomainError unless their h values are
    exactly h_list."""
    by_h = {t.h: t for t in tables}
    if sorted(by_h) != sorted(h_list) or len(by_h) != len(tables):
        raise DomainError(f"experiment reads h = {list(h_list)}, given "
                          f"{[t.h for t in tables]}")
    return [by_h[h] for h in h_list]


# --- the logarithmic gap law ---------------------------------------------

GAP_LAW_H = (1e-4, 1e-5)
GAP_X_WINDOW = (-10.0, 10.0)
GAP_REL_ERR_MAX = 0.15


def gap_law_lines(h: float) -> Lines:
    """The n = 0 line, half a unit of x past the gap window on each side."""
    return Lines(h, 0, (GAP_X_WINDOW[0] - 0.5, GAP_X_WINDOW[1] + 0.5))


def gap_law(tables) -> Outcome:
    """Consecutive n = 0 gaps on GAP_X_WINDOW against both gap-law variants.

    One table (reproduce cusp) or several h (GAP_LAW_H for reproduce cusp-z
    and criterion 4).  The same variant must fit better at every h
    (gap_verdict raises DomainError otherwise); its largest relative error
    must be at most GAP_REL_ERR_MAX at the largest h and fall strictly as
    h decreases.  measured: (winner, {h: [GapRecord]}).
    """
    tables = sorted(tables, key=lambda t: t.h, reverse=True)
    records = {t.h: ga.measure_gaps(t, 0, GAP_X_WINDOW) for t in tables}
    winner, table = ga.gap_verdict(records)
    errs = [min(table[t.h]) for t in tables]
    ok = (errs[0] <= GAP_REL_ERR_MAX
          and all(b < a for a, b in zip(errs, errs[1:])))
    constant = ("(9/2) ln 2" if winner == bs.VARIANT_CHAMPAGNE
                else "(7/2) ln 2")
    errors = ", ".join(f"{e:.3%} at h={t.h:g}" for e, t in zip(errs, tables))
    falling = ", strictly falling with h" if len(errs) > 1 else ""
    return Outcome(ok, f"winner = {winner} (constant {constant} + gamma), "
                   f"max rel err {errors} (<= {GAP_REL_ERR_MAX:.0%} at "
                   f"h={tables[0].h:g}{falling})", (winner, records))


# --- smallest-gap scaling --------------------------------------------------

SMALLEST_GAP_H = (1e-2, 1e-3, 1e-4, 1e-5)
SMALLEST_GAP_X_HALF = 2.5
SLOPE_TARGET = 1.0 / (TWO_PI * SQRT2)
SLOPE_REL_DEV_MAX = 0.05
R_SQUARED_MIN = 0.995
GAP_MIN_H = 1e-4
GAP_MIN_REL_DEV_MAX = 0.10


def smallest_gap_lines(h: float) -> Lines:
    return Lines(h, 0, (-SMALLEST_GAP_X_HALF, SMALLEST_GAP_X_HALF))


def smallest_gap(tables) -> Outcome:
    """Slope of 1/gap_min against |ln h| over SMALLEST_GAP_H.

    The slope must lie within SLOPE_REL_DEV_MAX of 1/(2 pi sqrt 2) with
    R^2 >= R_SQUARED_MIN, and the smallest gap at GAP_MIN_H within
    GAP_MIN_REL_DEV_MAX of the champagne variant.  The tables need the
    n = 0 line over |x| <= SMALLEST_GAP_X_HALF at least.
    measured: the SmallestGapScan.
    """
    scan = ga.smallest_gap_fit(_at(tables, SMALLEST_GAP_H),
                               x_half_window=SMALLEST_GAP_X_HALF)
    row = next(r for r in scan.rows if r.h == GAP_MIN_H)
    dev = abs(scan.slope - SLOPE_TARGET) / SLOPE_TARGET
    gap_dev = (abs(row.gap_min_measured - row.gap_min_champagne)
               / row.gap_min_champagne)
    ok = (dev <= SLOPE_REL_DEV_MAX and scan.r_squared >= R_SQUARED_MIN
          and gap_dev <= GAP_MIN_REL_DEV_MAX)
    return Outcome(ok, f"slope = {scan.slope:.5f} vs 1/(2 pi sqrt2) = "
                   f"{SLOPE_TARGET:.5f} ({dev:.2%} <= "
                   f"{SLOPE_REL_DEV_MAX:.0%}), R^2 = {scan.r_squared:.5f} "
                   f">= {R_SQUARED_MIN}, h={GAP_MIN_H:g} measured vs "
                   f"champagne variant {gap_dev:.2%} <= "
                   f"{GAP_MIN_REL_DEV_MAX:.0%}", scan)


# --- the singular Bohr-Sommerfeld rule ---------------------------------------

BS_RULE_H = (1e-4, 1e-5)
BS_RESIDUAL_MAX = 2e-4
BS_B_REL_DEV_MAX = 5e-4


def bohr_sommerfeld(tables) -> Outcome:
    """fit_model (B and one intercept, C = 0) on the n = 0 line over |x| <=
    SMALLEST_GAP_X_HALF at each h of BS_RULE_H: the rms residual, in local
    gaps, must be at most BS_RESIDUAL_MAX and B within BS_B_REL_DEV_MAX of
    2.5 ln 2.  measured: [(h, QuantizationModel)] in BS_RULE_H order."""
    x = (-SMALLEST_GAP_X_HALF, SMALLEST_GAP_X_HALF)
    rows = [(t.h, bs.fit_model(t, n_set=[0], x_window=x))
            for t in _at(tables, BS_RULE_H)]
    return Outcome(all(m.residual <= BS_RESIDUAL_MAX and abs(
        m.B / bs.B_REFERENCE - 1.0) <= BS_B_REL_DEV_MAX for _, m in rows),
        "; ".join(f"h={h:g}: rms residual {m.residual:.2e} gaps (<= "
                  f"{BS_RESIDUAL_MAX:g}), B / (2.5 ln 2) - 1 = "
                  f"{m.B / bs.B_REFERENCE - 1.0:+.4%} (|.| <= "
                  f"{BS_B_REL_DEV_MAX:.2%})" for h, m in rows), rows)


# --- log-Weyl count ----------------------------------------------------------

WEYL_H = (1e-3, 1e-4)
WEYL_WINDOW = ga.Window(4.0, 13.0, -2.0, 2.0)
WEYL_RATIO_DEV_MAX = 0.20
# the remainder |N - predicted| stays bounded: the largest over h is at
# most WEYL_RESID_FACTOR times the smallest plus WEYL_RESID_SLACK
WEYL_RESID_FACTOR = 2.0
WEYL_RESID_SLACK = 5.0


def weyl_lines(h: float) -> Lines:
    """The window's lines, one unit of x past the window on each side."""
    K = WEYL_WINDOW
    return Lines(h, max(map(abs, K.n_slices())),
                 (K.t1_min / SQRT2 - 1.0, K.t1_max / SQRT2 + 1.0))


def weyl(tables) -> Outcome:
    """Eigenvalue counts in WEYL_WINDOW at each h of WEYL_H against the
    (|ln h| / 2 pi) leading term.

    N / predicted must be within WEYL_RATIO_DEV_MAX of 1 at every h, and
    the residuals |N - predicted| must stay bounded (see
    WEYL_RESID_FACTOR).  measured: [(h, N, predicted)] in WEYL_H order.
    """
    rows = [(t.h, *ga.weyl_count(t, WEYL_WINDOW))
            for t in _at(tables, WEYL_H)]
    devs = [abs(n / pred - 1.0) for _, n, pred in rows]
    resid = [abs(n - pred) for _, n, pred in rows]
    ok = (max(devs) <= WEYL_RATIO_DEV_MAX
          and max(resid) <= WEYL_RESID_FACTOR * min(resid)
          + WEYL_RESID_SLACK)
    counts = ", ".join(f"N={n} vs {pred:.2f} at h={h:g}"
                       for h, n, pred in rows)
    return Outcome(ok, f"{counts}; N/predicted deviations "
                   + ", ".join(f"{d:.2%}" for d in devs)
                   + f" (<= {WEYL_RATIO_DEV_MAX:.0%}), residuals "
                   + ", ".join(f"{r:.1f}" for r in resid)
                   + f" (max <= {WEYL_RESID_FACTOR:g} min + "
                   f"{WEYL_RESID_SLACK:g})", rows)


# --- quantum monodromy and counting -----------------------------------------

UNWINDING_LINES = Lines(5e-3, 24, (-27.0, 27.0))
UNWINDING_RADIUS = 20.0
MONODROMY_H = (5e-3, 1e-3)
MONODROMY_SEEDS = range(10)
# the loop of polygon seed s has a radius drawn uniformly from
# MONODROMY_RADII by default_rng(MONODROMY_RADIUS_SEED + s)
MONODROMY_RADII = (14.0, 22.0)
MONODROMY_RADIUS_SEED = 1000


def _unipotent(matrix) -> bool:
    """Trace 2, determinant 1 and not the identity: one Jordan block."""
    return (int(np.trace(matrix)) == 2 and ml._det(matrix) == 1
            and not np.array_equal(matrix, np.eye(2, dtype=int)))


def quantum_loop(spec, radius: float, seed: int) -> Outcome:
    """One enclosing loop: unipotent non-identity monodromy, whose fixed
    line (l0_line) holds eigenvalues and all of them on n = 0, the lattice
    line of the S^1 action, and N_spec == N_pick.
    measured: (polygon, UnwindResult, (N_spec, N_pick)).
    """
    poly = ml.make_loop_polygon(spec, radius, seed=seed)
    res = ml.unwind(poly, spec)
    counts = ml.count_in_polygon(spec, poly, res)
    unipotent = _unipotent(res.monodromy.matrix)
    fixed = ml.l0_line(spec, res.charts, res.monodromy)
    on_n0 = len(fixed) > 0 and bool(np.all(fixed.n == 0))
    return Outcome(unipotent and on_n0 and counts[0] == counts[1],
                   f"monodromy {res.monodromy.matrix.tolist()} unipotent "
                   f"non-identity = {unipotent}, fixed line on n = 0 = "
                   f"{on_n0} ({len(fixed)} eigenvalues), counts "
                   f"spec={counts[0]} pick={counts[1]}", (poly, res, counts))


def _loop_radius(seed: int) -> float:
    rng = np.random.default_rng(MONODROMY_RADIUS_SEED + seed)
    return float(rng.uniform(*MONODROMY_RADII))


def quantum_monodromy(tables) -> Outcome:
    """quantum_loop on every polygon seed of MONODROMY_SEEDS at each h of
    MONODROMY_H; every loop must pass.  The line counts the loops that pass
    and quotes each one that fails.  measured: {h: [loop Outcome]}."""
    loops, details = {}, []
    for spec in _at(tables, MONODROMY_H):
        outs = [quantum_loop(spec, _loop_radius(seed), seed)
                for seed in MONODROMY_SEEDS]
        failed = [f"; seed {seed}: {o.detail}"
                  for seed, o in zip(MONODROMY_SEEDS, outs) if not o.ok]
        details.append(f"h={spec.h:g}: unipotent non-identity monodromy, "
                       f"fixed line on n = 0 and N_spec == N_pick on "
                       f"{len(outs) - len(failed)}/{len(outs)} polygons"
                       + "".join(failed))
        loops[spec.h] = outs
    ok = all(o.ok for outs in loops.values() for o in outs)
    return Outcome(ok, "; ".join(details), loops)
