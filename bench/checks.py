"""Correctness checks on the outputs of the benchmark workloads.

Every check compares an output against an independent computation or a
property the method must have: the gap law evaluated here from scipy's
digamma, the exact harmonic-oscillator spectrum, the log-Weyl leading
term, a winding-number lattice count.  None compares against a stored
copy of an earlier run.  Each function returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)
SLOPE = 1.0 / (TWO_PI * SQRT2)          # 1/gap_min against |ln h|
HOMOCLINIC_ACTION = 2.0 * SQRT2 / 3.0


def gap_law_x(x, n: int, h: float):
    """Champagne-variant gap law in zoomed x units:
    2 pi / (|ln h| + (5/2) ln 2 - Re digamma((i x + 1 + |n|)/2))."""
    z = (1j * np.asarray(x, dtype=float) + 1.0 + abs(n)) / 2.0
    return TWO_PI / (abs(math.log(h)) + 2.5 * LN2 - special.psi(z).real)


# --- focus-deep -------------------------------------------------------------

def check_focus_line(h: float, n: int, ks, xs) -> list:
    """Labels consecutive, every gap within [0.5, 2] of the gap law."""
    ks, xs = np.asarray(ks), np.asarray(xs, dtype=float)
    tag = f"line h={h:g} n={n}"
    if len(xs) < 3:
        return [f"{tag}: only {len(xs)} levels"]
    out = []
    if not np.array_equal(np.diff(ks), np.ones(len(ks) - 1, dtype=int)):
        out.append(f"{tag}: labels {ks.tolist()} are not consecutive")
    ratio = np.diff(xs) / gap_law_x(0.5 * (xs[:-1] + xs[1:]), n, h)
    if not (0.5 <= ratio.min() and ratio.max() <= 2.0):
        out.append(f"{tag}: gap / gap law in [{ratio.min():.3f}, "
                   f"{ratio.max():.3f}], outside [0.5, 2]")
    return out


def check_smallest_gap(lines: dict, x_half: float, scan_rows: dict,
                       scan_slope: float) -> list:
    """lines: h -> sorted x of the n = 0 line; scan_rows: h -> gap_min
    as reported by smallest_gap_scan (Delta E / h units)."""
    out = []
    hs = sorted(lines)
    gmin = {}
    for h in hs:
        x = lines[h][np.abs(lines[h]) <= x_half]
        gmin[h] = SQRT2 * float(np.min(np.diff(x)))
        if not math.isclose(gmin[h], scan_rows[h], rel_tol=1e-12):
            out.append(f"gap_min at h={h:g}: scan {scan_rows[h]!r} vs "
                       f"line {gmin[h]!r}")
    lnh = np.array([abs(math.log(h)) for h in hs])
    inv = np.array([1.0 / gmin[h] for h in hs])
    slope, icpt = np.polyfit(lnh, inv, 1)
    r2 = 1.0 - np.sum((inv - slope * lnh - icpt) ** 2) \
        / np.sum((inv - inv.mean()) ** 2)
    if abs(slope - SLOPE) > 0.05 * SLOPE or r2 < 0.995:
        out.append(f"smallest-gap slope {slope:.5f} vs {SLOPE:.5f} (5%), "
                   f"R^2 {r2:.5f} (>= 0.995)")
    if not math.isclose(slope, scan_slope, rel_tol=1e-9):
        out.append(f"scan slope {scan_slope!r} vs refit {slope!r}")
    if 1e-4 in gmin:
        law = SQRT2 * float(gap_law_x(0.0, 0, 1e-4))
        if abs(gmin[1e-4] - law) > 0.10 * law:
            out.append(f"gap_min at h=1e-4 {gmin[1e-4]:.5f} vs champagne "
                       f"variant {law:.5f} (10%)")
    return out


def check_harmonic(h: float, n: int, ks, energies, hi: float) -> list:
    """Labels equal the exact index k, |E - h(2k+|n|+1)| <= 1e-3 * 2h."""
    ks, e = np.asarray(ks), np.asarray(energies, dtype=float)
    want = int(math.ceil((hi / h - abs(n) - 1.0) / 2.0))   # k with E_k < hi
    tag = f"harmonic h={h:g} n={n}"
    if not np.array_equal(ks, np.arange(want)):
        return [f"{tag}: labels {ks.tolist()} != 0..{want - 1}"]
    err = np.abs(e - h * (2.0 * ks + abs(n) + 1.0))
    if err.max() > 1e-3 * 2.0 * h:
        return [f"{tag}: max |E - exact| = {err.max():.3e} > "
                f"{2e-3 * h:.3e}"]
    return []


# --- joint-table ------------------------------------------------------------

def check_joint_table(h: float, n, k, e1, x) -> list:
    """Distinct eigenvalues, factor-2 separations near the focus, and
    mirrored lines -n and n equal bit for bit."""
    n, k = np.asarray(n), np.asarray(k)
    e1, x = np.asarray(e1, dtype=float), np.asarray(x, dtype=float)
    out = []
    order = np.lexsort((e1, n))
    same = (np.diff(n[order]) == 0) & (np.diff(e1[order]) == 0)
    if same.any():
        out.append(f"{int(same.sum())} repeated joint eigenvalues")
    target = TWO_PI * SQRT2 * h / abs(math.log(h))
    ratios = []
    for m in range(-4, 5):
        sel = (n == m) & (np.abs(x) <= 5.0)
        ratios.extend(np.diff(np.sort(e1[sel])) / target)
    if not ratios or not (0.5 <= min(ratios) and max(ratios) <= 2.0):
        out.append("separations on |n|<=4, |x|<=5 outside a factor 2 of "
                   "2 pi sqrt2 h/|ln h|")
    for m in sorted(set(n[n > 0].tolist())):
        a, b = n == m, n == -m
        if not (np.array_equal(e1[a], e1[b]) and np.array_equal(k[a], k[b])):
            out.append(f"lines {-m} and {m} differ")
    return out


def weyl_prediction(h: float, t1, t2) -> float:
    """(|ln h| / 2 pi) times the summed lengths of the rescaled slices."""
    slices = math.floor(t2[1]) - math.ceil(t2[0]) + 1
    return abs(math.log(h)) / TWO_PI * (t1[1] - t1[0]) / SQRT2 * slices


def check_weyl(h: float, n, x, t1, t2, count: int) -> list:
    n, x = np.asarray(n), np.asarray(x, dtype=float)
    inside = ((x >= t1[0] / SQRT2) & (x <= t1[1] / SQRT2)
              & (n >= math.ceil(t2[0])) & (n <= math.floor(t2[1])))
    pred = weyl_prediction(h, t1, t2)
    out = []
    if int(inside.sum()) != count:
        out.append(f"weyl_count {count} vs direct count {int(inside.sum())}")
    if abs(count / pred - 1.0) > 0.20:
        out.append(f"Weyl count {count} vs predicted {pred:.2f} (20%)")
    return out


def check_fit(residual: float, warning: bool) -> list:
    if residual > 0.05 or warning:
        return [f"fit_model residual {residual:.4f} (<= 0.05), "
                f"warning={warning}"]
    return []


def check_prediction(n: int, computed_x, predicted_x) -> list:
    """Every computed level with |x| <= 10 has a predicted root within
    0.1 mean gaps, and no predicted root inside their span is unmatched."""
    x = np.sort(np.asarray(computed_x, dtype=float))
    x = x[np.abs(x) <= 10.0]
    p = np.sort(np.asarray(predicted_x, dtype=float))
    if len(x) < 2 or len(p) == 0:
        return [f"prediction n={n}: {len(x)} levels, {len(p)} roots"]
    tol = 0.1 * float(np.mean(np.diff(x)))
    miss = np.min(np.abs(x[:, None] - p[None, :]), axis=1)
    inner = p[(p >= x[0] - tol) & (p <= x[-1] + tol)]
    extra = np.min(np.abs(inner[:, None] - x[None, :]), axis=1)
    if miss.max() > tol or len(inner) != len(x) or extra.max() > tol:
        return [f"prediction n={n}: worst level miss {miss.max():.4f}, "
                f"{len(inner)} roots for {len(x)} levels (tol {tol:.4f})"]
    return []


def check_volume(h: float, t1, t2, value: float, std_error: float) -> list:
    area = (t1[1] - t1[0]) / SQRT2 * (t2[1] - t2[0])
    asym = abs(math.log(h)) / TWO_PI * area
    if abs(value / asym - 1.0) > 0.15 or std_error > 0.03 * value:
        return [f"dh_volume {value:.3f} vs asymptotic {asym:.3f} (15%), "
                f"SE {std_error / value:.2%} (<= 3%)"]
    return []


def check_csv(path: str, columns: dict) -> list:
    """The CSV parses back to exactly the in-memory columns."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = []
    for j, name in enumerate(("h", "n", "k", "E1", "E2", "x")):
        if not np.array_equal(data[:, j], np.asarray(columns[name], float)):
            out.append(f"CSV column {name} does not read back equal")
    return out


# --- monodromy-loops --------------------------------------------------------

def lattice_count(vertices) -> int:
    """Integer points inside or on an integer polygon, by winding number."""
    v = np.asarray(vertices, dtype=np.int64)
    xs = np.arange(v[:, 0].min(), v[:, 0].max() + 1)
    ys = np.arange(v[:, 1].min(), v[:, 1].max() + 1)
    px, py = (a.ravel() for a in np.meshgrid(xs, ys))
    wind = np.zeros(px.shape, dtype=np.int64)
    edge = np.zeros(px.shape, dtype=bool)
    for (ax, ay), (bx, by) in zip(v, np.roll(v, -1, axis=0)):
        cross = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        edge |= ((cross == 0) & (np.minimum(ax, bx) <= px)
                 & (px <= np.maximum(ax, bx)) & (np.minimum(ay, by) <= py)
                 & (py <= np.maximum(ay, by)))
        wind += (ay <= py) & (by > py) & (cross > 0)
        wind -= (ay > py) & (by <= py) & (cross < 0)
    return int(np.count_nonzero(edge | (wind != 0)))


def check_quantum_loop(tag: str, enclosing: bool, matrix, shift,
                       counts: dict, unwound) -> list:
    m = np.asarray(matrix)
    identity = np.array_equal(m, np.eye(2, dtype=int)) and not np.any(shift)
    out = []
    if enclosing:
        if not (int(np.trace(m)) == 2 and round(np.linalg.det(m)) == 1
                and not identity):
            out.append(f"{tag}: monodromy {m.tolist()} is not unipotent "
                       "non-identity")
    elif not identity:
        out.append(f"{tag}: monodromy {m.tolist()} shift {list(shift)} "
                   "is not the identity")
    if counts["spec"] != counts["pick"]:
        out.append(f"{tag}: N_spec {counts['spec']} != N_pick "
                   f"{counts['pick']}")
    poly = np.asarray(unwound)[:-1]
    brute = lattice_count(poly)
    if brute != counts["pick"]:
        out.append(f"{tag}: pick_count {counts['pick']} vs lattice count "
                   f"{brute}")
    return out


def check_classical_loop(tag: str, enclosing: bool, winding: float,
                         matrix) -> list:
    m = np.asarray(matrix)
    if enclosing:
        ok = (abs(abs(winding) - TWO_PI) <= 1e-3
              and m[0].tolist() == [1, 0] and m[1, 1] == 1
              and abs(m[1, 0]) == 1)
    else:
        ok = abs(winding) <= 1e-3 and np.array_equal(m, np.eye(2))
    if not ok:
        return [f"{tag}: winding {winding:.6f}, matrix {m.tolist()} "
                f"(enclosing={enclosing})"]
    return []


def check_regularized_action(values) -> list:
    dev = max(abs(v - HOMOCLINIC_ACTION) for v in values)
    if dev > 1e-4:
        return [f"regularized action off 2 sqrt2/3 by {dev:.2e} (> 1e-4)"]
    return []
