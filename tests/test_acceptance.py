"""Acceptance gate: one test per criterion, one pass/fail line each.

Each test prints `ACCEPTANCE <k> <name>: PASS/FAIL` with the measured
numbers so the suite output doubles as the verification report.
"""

import math
import time

import numpy as np
import pytest

from champagne import classical_actions as ca
from champagne import experiments as ex
from champagne import gap_analysis as ga
from champagne import monodromy_lattice as ml
from champagne import radial_spectrum as rs
from champagne import special_functions as sf

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_special_function_identities():
    t0 = time.perf_counter()
    worst_mod, worst_res = 0.0, 0.0
    symmetric = True
    for eps in np.arange(-30.0, 30.0 + 0.25, 0.5):
        for n in range(-12, 13):
            c = sf.fourier_constant(eps, n)
            worst_mod = max(worst_mod, abs(abs(c) - 1.0))
            if n > 0:
                symmetric &= c == sf.fourier_constant(eps, -n)
            worst_res = max(worst_res, sf.verify_mellin_hankel(eps, n))
    dt = time.perf_counter() - t0
    ok = worst_mod < 1e-12 and symmetric and worst_res < 1e-9 and dt < 1.0
    report(1, "special-function identities", ok,
           f"max | |C|-1 | = {worst_mod:.2e}, symmetric = {symmetric}, "
           f"max Hankel residual = {worst_res:.2e}, runtime {dt:.2f}s < 1s")


def test_criterion_2_harmonic_eigensolver_oracle():
    t0 = time.perf_counter()
    h = 0.1
    pot = rs.PotentialSpec.harmonic_test()
    e_hi = h * (2 * 10 + 5 + 1) + 0.5 * h
    config = rs.default_config(h, e_hi, pot)
    worst = 0.0
    for n in range(0, 6):
        got = rs.eigenvalues_in_window(n, h, config, pot, 0.0, e_hi)
        assert len(got) >= 11
        for k in range(11):
            exact = h * (2 * k + n + 1)
            worst = max(worst, abs(got[k][1] - exact) / exact)
    # mesh-doubling error ratio of the ground state on one CP mesh, with
    # no Richardson step: the second-order scheme
    errs = []
    for npts in (512, 1024):
        cfg = rs.DiscretizationConfig(r_max=6.0, grid_points=npts)
        coarse, fine = (rs._Line(0, h, cfg, pot, refine)
                        for refine in (1, 2))
        errs.append(abs(rs._levels(coarse, fine, 0, 1, 0.05, 0.2)[1][0] - h))
    ratio = errs[0] / errs[1]
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and 3.5 <= ratio <= 4.5 and dt < 30.0
    report(2, "harmonic-oscillator oracle", ok,
           f"max rel err = {worst:.2e} < 1e-6, doubling ratio = {ratio:.3f} "
           f"in [3.5, 4.5], runtime {dt:.1f}s < 30s")


def test_criterion_3_simplicity_of_the_joint_spectrum():
    details, ok = [], True
    for h in (1e-2, 1e-3):
        t0 = time.perf_counter()
        e1 = 5.5 * SQRT2 * h
        spec = rs.joint_spectrum(h, (-4, 4), (-e1, e1))
        pts = sorted((p.E2, p.E1) for p in spec.points)
        distinct = all(a != b for a, b in zip(pts[:-1], pts[1:]))
        target = TWO_PI * SQRT2 * h / abs(math.log(h))
        ratios = []
        for n in range(-4, 5):
            e = np.sort([p.E1 for p in spec.line(n)
                         if abs(p.x) <= 5.0])
            ratios.extend(np.diff(e) / target)
        in_factor_2 = 0.5 <= min(ratios) and max(ratios) <= 2.0
        dt = time.perf_counter() - t0
        ok &= distinct and in_factor_2 and dt < 120.0
        details.append(f"h={h:g}: distinct={distinct}, separation/target in "
                       f"[{min(ratios):.2f}, {max(ratios):.2f}], {dt:.0f}s")
    report(3, "simplicity near the critical value", ok, "; ".join(details))


def test_criterion_4_gap_law_variants(spec_h1em4, spec_h1em5):
    t0 = time.perf_counter()
    out = ex.gap_law([spec_h1em4, spec_h1em5])
    dt = time.perf_counter() - t0
    report(4, "gap law", out.ok and dt < 600.0,
           f"{out.detail}, analysis {dt:.0f}s < 600s")


def test_criterion_5_smallest_gap_scaling(spec_h1em2, spec_h1em3,
                                          spec_h1em4, spec_h1em5):
    out = ex.smallest_gap([spec_h1em2, spec_h1em3, spec_h1em4, spec_h1em5])
    report(5, "smallest-gap scaling", out.ok, out.detail)


def test_criterion_6_log_weyl_count(spec_h1em3, spec_h1em4):
    out = ex.weyl([spec_h1em3, spec_h1em4])
    report(6, "log-Weyl counting", out.ok, out.detail)


def test_criterion_7_symplectic_volume():
    t0 = time.perf_counter()
    K = ga.Window(18.0, 26.0, -3.0, 3.0)
    est = ga.dh_volume(K, 1e-3, samples=10_000_000)
    ratio = est.mu_over_norm / est.asymptotic
    se = est.std_error / est.mu_over_norm
    dt = time.perf_counter() - t0
    ok = abs(ratio - 1.0) <= 0.15 and se <= 0.03 and dt < 120.0
    report(7, "phase-space volume estimate", ok,
           f"computed/asymptotic = {ratio:.4f} (within 15%), "
           f"MC SE = {se:.2%} <= 3%, runtime {dt:.0f}s < 120s")


def test_criterion_8_classical_monodromy():
    t0 = time.perf_counter()
    enclosing = list(reversed(ca.circle_loop(radius=0.2)))  # positive sense
    w_in = ca.rotation_winding(enclosing)
    w_out = ca.rotation_winding(ca.circle_loop(0.5, 0.0, 0.05))
    m = ca.classical_monodromy(ca.rotation_winding(ca.circle_loop(radius=0.2)))
    eye = np.eye(2, dtype=int)
    unipotent = (np.trace(m) == 2 and round(np.linalg.det(m)) == 1
                 and not np.array_equal(m, eye))
    eps_plus = m[1, 0] == 1
    dt = time.perf_counter() - t0
    ok = (abs(w_in - TWO_PI) <= 1e-3 and abs(w_out) <= 1e-3
          and unipotent and eps_plus and dt < 30.0)
    report(8, "classical monodromy", ok,
           f"winding enclosing = {w_in:.6f} (2 pi +- 1e-3), elsewhere = "
           f"{w_out:.2e} (0 +- 1e-3), matrix {m.tolist()} unipotent with "
           f"eps=+1, runtime {dt:.1f}s < 30s")


def test_criterion_9_regularized_action():
    rays = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)]
    limits = []
    for dE, dL in rays:
        nrm = math.hypot(dE, dL)
        limits.append(ca.regularized_action(1e-6 * dE / nrm,
                                            1e-6 * dL / nrm))
    spread = max(limits) - min(limits)
    dev = max(abs(v - ca.HOMOCLINIC_ACTION) for v in limits)
    # raw action derivative along the L=0 ray grows like |ln t|
    g = [(ca.radial_action(2 * t, 0.0).S_r - ca.radial_action(t, 0.0).S_r)
         / t for t in (1e-3, 1e-4, 1e-5)]
    diverges = g[0] < g[1] < g[2] and \
        abs((g[2] - g[1]) - math.log(10.0) / SQRT2) < 0.05
    ok = spread <= 1e-4 and dev <= 1e-4 and diverges
    report(9, "regularized action", ok,
           f"ray spread = {spread:.2e} <= 1e-4, deviation from 2 sqrt2/3 = "
           f"{dev:.2e} <= 1e-4, raw derivative increments "
           f"{g[1] - g[0]:.3f}, {g[2] - g[1]:.3f} ~ ln10/sqrt2 "
           f"= {math.log(10.0) / SQRT2:.3f}")


def test_criterion_11_singular_bohr_sommerfeld_rule(spec_h1em4, spec_h1em5):
    out = ex.bohr_sommerfeld([spec_h1em4, spec_h1em5])
    report(11, "singular Bohr-Sommerfeld rule", out.ok, out.detail)


def test_criterion_10_quantum_monodromy_and_counting(spec_h5em3,
                                                     spec_h1em3):
    out = ex.quantum_monodromy([spec_h5em3, spec_h1em3])
    ok, details = out.ok, [out.detail]
    # brute-force check of the Pick counter on 100 random polygons
    from test_monodromy_lattice import brute_force_count, random_simple_polygon
    rng = np.random.default_rng(7)
    brute_ok = 0
    for _ in range(100):
        v = random_simple_polygon(rng)
        brute_ok += ml.pick_count(v) == brute_force_count(v)
    ok &= brute_ok == 100
    details.append(f"pick_count == brute force on {brute_ok}/100 polygons")
    report(10, "quantum monodromy and counting", ok, "; ".join(details))
