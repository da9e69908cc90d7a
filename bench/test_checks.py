"""The benchmark's output checks accept correct outputs and reject
perturbed ones.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import math

import numpy as np

import checks
from champagne import monodromy_lattice as ml
from champagne.errors import DomainError
from champagne import radial_spectrum as rs

SQRT2 = math.sqrt(2.0)


def focus_line(h):
    e1 = 2.5 * SQRT2 * h
    line = rs.joint_spectrum(h, (0, 0), (-e1, e1)).line(0)
    return [p.k for p in line], [p.x for p in line]


def test_focus_line_rejects_a_removed_or_repeated_level():
    for h in (1e-2, 1e-3):
        ks, xs = focus_line(h)
        assert checks.check_focus_line(h, 0, ks, xs) == []
        i = len(xs) // 2
        assert checks.check_focus_line(h, 0, ks[:i] + ks[i + 1:],
                                       xs[:i] + xs[i + 1:])
        assert checks.check_focus_line(h, 0, ks[:i + 1] + ks[i:],
                                       xs[:i + 1] + xs[i:])


def test_smallest_gap_rejects_a_removed_level():
    lines = {h: np.array(focus_line(h)[1]) for h in (1e-2, 1e-3)}
    rows = {h: SQRT2 * float(np.min(np.diff(x))) for h, x in lines.items()}
    x = lines[1e-3]
    i = int(np.argmin(np.abs(x)))
    lines[1e-3] = np.delete(x, i)
    assert any("gap_min" in f for f in
               checks.check_smallest_gap(lines, 2.5, rows, 0.0))


def test_harmonic_rejects_a_shifted_eigenvalue():
    h, n = 1e-4, 2
    hi = h * (12 + n)
    pot = rs.PotentialSpec.harmonic_test()
    line = rs.joint_spectrum(h, (n, n), (0.0, hi), potential=pot).line(n)
    ks = [p.k for p in line]
    e = np.array([p.E1 for p in line])
    assert len(ks) == 6 and checks.check_harmonic(h, n, ks, e, hi) == []
    shifted = e.copy()
    shifted[3] += 0.01 * 2.0 * h
    assert checks.check_harmonic(h, n, ks, shifted, hi)
    assert checks.check_harmonic(h, n, ks[:-1], e[:-1], hi)


def test_lattice_count_matches_pick():
    assert checks.lattice_count([(0, 0), (1, 0), (1, 1), (0, 1)]) == 4
    rng = np.random.default_rng(3)
    for _ in range(30):
        pts = rng.integers(-9, 10, (int(rng.integers(3, 8)), 2))
        c = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
        v = [tuple(map(int, pts[i])) for i in order]
        try:
            pick = ml.pick_count(v)
        except DomainError:        # degenerate or self-intersecting
            continue
        assert checks.lattice_count(v) == pick


def test_quantum_loop_rejects_identity_monodromy():
    poly = [(0, 0), (6, 0), (6, 4), (0, 4), (0, 0)]
    pick = checks.lattice_count(poly[:-1])
    counts = {"spec": pick, "pick": pick}
    jordan = [[0, -1], [1, 2]]
    eye = [[1, 0], [0, 1]]
    assert checks.check_quantum_loop("l", True, jordan, [0, 0], counts,
                                     poly) == []
    assert checks.check_quantum_loop("l", True, eye, [0, 0], counts, poly)
    assert checks.check_quantum_loop("l", False, eye, [0, 0], counts,
                                     poly) == []
    assert checks.check_quantum_loop("l", False, jordan, [0, 0], counts,
                                     poly)
    assert checks.check_quantum_loop("l", False, eye, [0, 0],
                                     {"spec": pick - 1, "pick": pick}, poly)
    assert checks.check_quantum_loop("l", False, eye, [0, 0],
                                     {"spec": pick + 1, "pick": pick + 1},
                                     poly)


def test_classical_loop_and_action_checks():
    two_pi = 2.0 * math.pi
    assert checks.check_classical_loop("c", True, -two_pi,
                                       [[1, 0], [1, 1]]) == []
    assert checks.check_classical_loop("c", True, -two_pi, np.eye(2))
    assert checks.check_classical_loop("c", True, 0.0, [[1, 0], [1, 1]])
    assert checks.check_classical_loop("c", False, 1e-12, np.eye(2)) == []
    assert checks.check_classical_loop("c", False, two_pi, np.eye(2))
    a = checks.HOMOCLINIC_ACTION
    assert checks.check_regularized_action([a + 5e-5, a - 5e-5]) == []
    assert checks.check_regularized_action([a, a + 2e-4])
