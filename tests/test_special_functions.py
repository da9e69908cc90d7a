"""Gamma-phase constants, Mellin transforms, and the Hankel identity."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from champagne.errors import DomainError
from champagne.special_functions import (EULER_GAMMA, LN2,
                                         fourier_constant, mellin_gaussian,
                                         psi_n, psi_n_prime,
                                         verify_mellin_hankel)


def test_fourier_constant_modulus_one():
    for eps in np.arange(-30.0, 30.0 + 0.25, 0.5):
        for n in range(-12, 13):
            assert abs(abs(fourier_constant(eps, n)) - 1.0) < 1e-12


def test_fourier_constant_even_in_n():
    for eps in (-11.5, -0.5, 0.0, 3.0, 27.5):
        for n in range(0, 13):
            assert fourier_constant(eps, n) == fourier_constant(eps, -n)


def test_fourier_constant_at_zero():
    # C(0, 0) = Gamma(1/2)/Gamma(1/2) = 1
    assert fourier_constant(0.0, 0) == pytest.approx(1.0, abs=1e-15)


def test_fourier_constant_gamma_ratio():
    # direct ratio form, independently of the phase implementation
    from scipy.special import gamma
    for eps, n in [(1.7, 0), (-4.2, 3), (9.1, 7)]:
        z = complex(1 + abs(n), eps) / 2
        ref = (1j ** (-abs(n))) * 2 ** (1j * eps) * gamma(z) \
            / gamma(z.conjugate())
        assert fourier_constant(eps, n) == pytest.approx(ref, abs=1e-12)


def test_gamma_phase_against_30_digit_mpmath():
    # set from float64 before measuring: the phase of C reaches ~200 rad
    # at |x| = 50, n = 10, where an ulp is 2.8e-14; absolute for |C| = 1,
    # relative to max(1, |value|) for Psi_n and Psi_n'
    tol = 1e-12
    xs = np.concatenate((np.linspace(-50.0, 50.0, 101),
                         [-3e-5, 1e-8, 0.37, 49.99]))
    with mpmath.workdps(30):
        for n in range(11):
            for x in xs:
                z = mpmath.mpc(1 + n, x) / 2
                want = 2 * mpmath.im(mpmath.loggamma(z))
                assert abs(psi_n(x, n) - want) <= tol * max(1, abs(want))
                want = mpmath.re(mpmath.digamma(z))
                assert abs(psi_n_prime(x, n) - want) <= \
                    tol * max(1, abs(want))
                # the Gamma-ratio definition, not the phase form
                want = (mpmath.mpc(0, 1) ** -n * mpmath.power(2, 1j * x)
                        * mpmath.gamma(z) / mpmath.gamma(mpmath.conj(z)))
                assert abs(fourier_constant(x, n) - want) <= tol, (x, n)


@given(st.floats(-30, 30), st.integers(-12, 12))
@settings(max_examples=200, deadline=None)
def test_hankel_intertwining_property(eps, n):
    assert verify_mellin_hankel(eps, n) < 1e-9


def test_psi_n_is_phase_of_fourier_constant():
    for x, n in [(0.3, 0), (5.0, 2), (-7.7, 4)]:
        c = fourier_constant(x, n)
        phase = x * LN2 + psi_n(x, n) - abs(n) * math.pi / 2
        assert c == pytest.approx(np.exp(1j * phase), abs=1e-12)


def test_psi_prime_is_derivative():
    dx = 1e-6
    for x, n in [(0.0, 0), (2.5, 1), (-8.0, 5)]:
        fd = (psi_n(x + dx, n) - psi_n(x - dx, n)) / (2 * dx)
        assert psi_n_prime(x, n) == pytest.approx(fd, abs=1e-7)


def test_psi_prime_at_origin():
    # Re psi(1/2) = -gamma - 2 ln 2
    assert psi_n_prime(0.0, 0) == pytest.approx(-(EULER_GAMMA + 2 * LN2),
                                                abs=1e-14)


def test_psi_n_odd_in_x():
    x = np.linspace(-9, 9, 37)
    for n in (0, 3):
        assert np.allclose(psi_n(x, n), -psi_n(-x, n), atol=1e-13)


def test_mellin_gaussian_values():
    from scipy.special import gamma
    # M f_n(s) = 2^{(s+n)/2 - 1} Gamma((s+n)/2)
    for s, n in [(1.0, 0), (2.5, 1), (0.5 + 3j, 2)]:
        ref = 2 ** ((s + n) / 2 - 1) * gamma((s + n) / 2)
        assert mellin_gaussian(s, n) == pytest.approx(ref, rel=1e-12)


def test_mellin_gaussian_domain():
    with pytest.raises(DomainError):
        mellin_gaussian(-3.0, 0)

