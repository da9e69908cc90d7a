"""Session-scoped spectra shared across test modules.

These are the expensive inputs (minutes total); everything downstream is
fast.  Windows are sized so each consumer has margin past its region of
interest.
"""

import pytest

from champagne.experiments import UNWINDING_LINES, Lines


@pytest.fixture(scope="session")
def spec_h1em2():
    """h = 1e-2, lines |n| <= 4, |x| <= 10.5."""
    return Lines(1e-2, 4, (-10.5, 10.5)).solve()


@pytest.fixture(scope="session")
def spec_h1em3():
    """h = 1e-3, lines |n| <= 32, |x| <= 27: the workhorse table."""
    return Lines(1e-3, 32, (-27.0, 27.0)).solve()


@pytest.fixture(scope="session")
def spec_h5em3():
    """h = 5e-3, lines |n| <= 24, |x| <= 27: the unwinding annulus."""
    return UNWINDING_LINES.solve()


@pytest.fixture(scope="session")
def spec_h1em4():
    """h = 1e-4, lines |n| <= 2, |x| <= 10.6."""
    return Lines(1e-4, 2, (-10.6, 10.6)).solve()


@pytest.fixture(scope="session")
def spec_h1em5():
    """h = 1e-5, n = 0 only, |x| <= 10.6 (the slow one)."""
    return Lines(1e-5, 0, (-10.6, 10.6)).solve()
