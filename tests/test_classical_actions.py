"""Action integrals, rotation number, monodromy, regularization."""

import math

import numpy as np
import pytest

from champagne.classical_actions import (HOMOCLINIC_ACTION, _gauss,
                                         action_sample, circle_loop,
                                         classical_monodromy,
                                         radial_action, regularized_action,
                                         rotation_number, rotation_winding,
                                         theta_tilde, turning_points,
                                         write_samples_csv)
from champagne.errors import ConvergenceError, DomainError

SQRT2 = math.sqrt(2.0)


def test_turning_points_bracket_minimum():
    rm, rp = turning_points(0.1, 0.05)
    r0 = 1.0 / SQRT2  # potential minimum
    assert 0.0 < rm < r0 < rp
    # p_r vanishes at the turning points: E = L^2/(2r^2) + V(r)
    for r in (rm, rp):
        assert 0.05**2 / (2 * r * r) + r**4 - r**2 == pytest.approx(0.1,
                                                                    abs=1e-9)


def test_theta_is_action_derivative():
    # Theta = -dS_r/dL at fixed E
    E, L, dL = 0.3, 0.12, 1e-6
    fd = -(radial_action(E, L + dL).S_r - radial_action(E, L - dL).S_r) \
        / (2 * dL)
    assert rotation_number(E, L) == pytest.approx(fd, abs=1e-6)


def test_period_is_action_derivative():
    # T = dS_r/dE at fixed L
    E, L, dE = 0.3, 0.12, 1e-6
    fd = (radial_action(E + dE, L).S_r - radial_action(E - dE, L).S_r) \
        / (2 * dE)
    assert radial_action(E, L).T == pytest.approx(fd, abs=1e-6)


def test_rotation_number_signs_and_axis():
    assert rotation_number(0.3, 0.1) > 0
    assert rotation_number(0.3, -0.1) == pytest.approx(
        -rotation_number(0.3, 0.1), abs=1e-12)
    # L -> 0+ limit at positive energy is pi, returned at L = 0 exactly
    assert rotation_number(0.3, 0.0) == math.pi
    assert rotation_number(0.3, 1e-10) == pytest.approx(math.pi, abs=1e-6)


def test_rotation_number_domain():
    with pytest.raises(DomainError):
        rotation_number(-0.1, 0.0)
    with pytest.raises(DomainError):
        rotation_number(0.0, 0.0)


def test_degenerate_orbit_flagged():
    # at the bottom of the effective well S_r = 0 and T is the libration
    # period of the quadratic approximation
    L = 0.05
    # locate the minimum of L^2/(2r^2) + r^4 - r^2 to machine precision
    from scipy.optimize import brentq
    r0 = brentq(lambda r: -L**2 / r**3 + 4 * r**3 - 2 * r, 0.3, 1.0,
                xtol=1e-15)
    e0 = L**2 / (2 * r0 * r0) + r0**4 - r0**2
    act = radial_action(e0, L)
    assert act.degenerate and act.S_r == 0.0
    assert act.T > 0 and math.isfinite(act.T)


def test_tiny_L_is_stable():
    # the quadrature must survive extreme aspect ratios near the axis
    a = radial_action(0.3, 1e-12)
    b = radial_action(0.3, 0.0)
    assert a.S_r == pytest.approx(b.S_r, rel=1e-8)
    th = rotation_number(0.3, 1e-12)
    assert th == pytest.approx(math.pi, abs=1e-5)


def test_winding_encircling_and_not():
    assert rotation_winding(circle_loop(radius=0.2)) == pytest.approx(
        -2.0 * math.pi, abs=1e-3)
    assert rotation_winding(list(reversed(circle_loop(radius=0.2)))) == \
        pytest.approx(2.0 * math.pi, abs=1e-3)
    away = circle_loop(center_E=0.5, center_L=0.0, radius=0.05)
    assert rotation_winding(away) == pytest.approx(0.0, abs=1e-3)


def test_classical_monodromy_matrices():
    ccw = classical_monodromy(circle_loop(radius=0.2))
    assert ccw.tolist() == [[1, 0], [1, 1]]
    cw = classical_monodromy(list(reversed(circle_loop(radius=0.2))))
    assert cw.tolist() == [[1, 0], [-1, 1]]
    away = classical_monodromy(circle_loop(0.5, 0.0, 0.05))
    assert away.tolist() == [[1, 0], [0, 1]]


def test_loop_through_critical_value_rejected():
    with pytest.raises(DomainError):
        rotation_winding([(0.2, 0.0), (-0.2, 0.0), (0.0, 0.2)])


def test_regularized_action_ray_limits():
    # four rays into the critical value, all converging to the homoclinic
    # action 2 sqrt(2)/3
    rays = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)]
    for dE, dL in rays:
        nrm = math.hypot(dE, dL)
        vals = [regularized_action(t * dE / nrm, t * dL / nrm)
                for t in (1e-4, 1e-5, 1e-6)]
        assert vals[-1] == pytest.approx(HOMOCLINIC_ACTION, abs=1e-4), (dE, dL)


def test_homoclinic_value_is_exact_integral():
    # 2 sqrt(2)/3 = integral of |p_r| over the homoclinic orbit at E=L=0:
    # p_r^2 = 2(r^2 - r^4), S = 2 int_0^1 r sqrt(2(1-r^2)) dr = 2 sqrt2 / 3
    from scipy.integrate import quad
    val, _ = quad(lambda r: 2.0 * r * math.sqrt(2.0 * (1 - r * r)), 0, 1)
    assert HOMOCLINIC_ACTION == pytest.approx(val, abs=1e-12)


def test_quadrature_raises_when_it_does_not_converge():
    # a small cap keeps leggauss's dense n x n companion matrix small
    assert _gauss(np.cos, 0.0, 1.0, max_n=512) == pytest.approx(
        math.sin(1.0), rel=1e-12)
    with pytest.raises(ConvergenceError, match="512 nodes"):
        _gauss(lambda x: np.where(x < 0.3, 0.0, 1.0), 0.0, 1.0, max_n=512)


def test_unregularized_divergence_is_logarithmic():
    # d/dt of the raw loop action grows like |ln t|/sqrt2 along the ray
    def raw(t):
        return radial_action(t, 0.0).S_r

    ts = [1e-3, 1e-4, 1e-5]
    growth = [(raw(2 * t) - raw(t)) / t for t in ts]
    assert growth[0] < growth[1] < growth[2]
    # each decade in t adds ln(10)/sqrt2 to the derivative
    for a, b in zip(growth[:-1], growth[1:]):
        assert b - a == pytest.approx(math.log(10.0) / SQRT2, rel=0.05)


def test_theta_tilde_branches():
    E = 0.1
    assert theta_tilde(E, 0.2) == pytest.approx(-rotation_number(E, 0.2))
    assert theta_tilde(E, -0.2) == pytest.approx(
        -rotation_number(E, -0.2) - 2 * math.pi)
    with pytest.raises(DomainError):
        theta_tilde(-0.1, 0.0)


def test_action_sample_csv(tmp_path):
    s = action_sample(0.2, 0.1)
    path = str(tmp_path / "actions.csv")
    write_samples_csv([s], path)
    header, row = open(path).read().strip().split("\n")
    assert header == "E,L,r_minus,r_plus,S_r,T,Theta,A_reg"
    vals = [float(v) for v in row.split(",")]
    assert vals[0] == 0.2 and vals[5] == pytest.approx(s.T)
