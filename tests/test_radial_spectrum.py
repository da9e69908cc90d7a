"""Radial eigensolver: harmonic oracle, convergence order, bookkeeping."""

import math
import os

import numpy as np
import pytest

from champagne.errors import ConfigurationError, DomainError
from champagne.radial_spectrum import (DiscretizationConfig, PotentialSpec,
                                       build_radial_operator, default_config,
                                       eigenvalues_below,
                                       eigenvalues_in_window, joint_spectrum,
                                       read_spectrum_csv, sturm_count,
                                       to_epsilon_coords, write_spectrum_csv)

HARMONIC = PotentialSpec.harmonic_test()


def harmonic_levels(h, k_max, n):
    return [h * (2 * k + abs(n) + 1) for k in range(k_max + 1)]


def test_harmonic_oracle_h01():
    h = 0.1
    e_hi = h * (2 * 10 + 5 + 1) + h
    config = default_config(h, e_hi, HARMONIC)
    for n in range(0, 6):
        got = eigenvalues_in_window(n, config, HARMONIC, 0.0, e_hi)
        exact = harmonic_levels(h, 10, n)
        assert len(got) >= 11
        for (k, e), ref in zip(got[:11], exact):
            assert abs(e - ref) / ref < 1e-6, (n, k, e, ref)


def test_grid_doubling_second_order():
    # plain fd2 error must shrink by ~4 per grid doubling
    h = 0.1
    e_ref = h * 1.0  # ground state, n = 0
    errs = []
    for npts in (512, 1024, 2048):
        cfg = DiscretizationConfig(r_max=6.0, grid_points=npts, h=h,
                                   scheme="fd2", richardson=False,
                                   e_max=1.0)
        vals = eigenvalues_below(build_radial_operator(0, cfg, HARMONIC),
                                 0.5)
        errs.append(abs(vals[0] - e_ref))
    for a, b in zip(errs[:-1], errs[1:]):
        assert 3.5 <= a / b <= 4.5


def test_richardson_beats_plain():
    h = 0.1
    base = dict(r_max=6.0, grid_points=1024, h=h, scheme="fd2", e_max=1.0)
    plain = DiscretizationConfig(richardson=False, **base)
    rich = DiscretizationConfig(richardson=True, **base)
    e_ref = h * 3.0  # k = 1, n = 0
    ep = eigenvalues_in_window(0, plain, HARMONIC, 0.2, 0.4)[0][1]
    er = eigenvalues_in_window(0, rich, HARMONIC, 0.2, 0.4)[0][1]
    assert abs(er - e_ref) < 1e-2 * abs(ep - e_ref)


def test_sturm_count_matches_eigensolver():
    cfg = DiscretizationConfig(r_max=6.0, grid_points=512, h=0.1,
                               scheme="fd2", richardson=False, e_max=1.0)
    op = build_radial_operator(2, cfg, HARMONIC)
    vals = eigenvalues_below(op, 1.0)
    assert sturm_count(op, 1.0) == len(vals)
    mid = 0.5 * (vals[1] + vals[2])
    assert sturm_count(op, mid) == 2


def test_truncation_insensitivity():
    # growing r_max further must not move the levels
    h = 0.05
    cfg1 = default_config(h, 0.02)
    cfg2 = DiscretizationConfig(r_max=cfg1.r_max * 1.5,
                                grid_points=2 * cfg1.grid_points, h=h,
                                scheme=cfg1.scheme, richardson=True,
                                e_max=0.02)
    pot = PotentialSpec.champagne_bottle()
    a = eigenvalues_in_window(0, cfg1, pot, -0.01, 0.01)
    b = eigenvalues_in_window(0, cfg2, pot, -0.01, 0.01)
    assert len(a) == len(b)
    for (_, ea), (_, eb) in zip(a, b):
        assert abs(ea - eb) <= 1e-10 * max(abs(ea), h)


def test_negative_n_mirrored_exactly(spec_h1em2):
    for n in (1, 3):
        up = [p.E1 for p in spec_h1em2.line(n)]
        dn = [p.E1 for p in spec_h1em2.line(-n)]
        assert up == dn


def test_joint_eigenvalue_coordinates(spec_h1em2):
    h = spec_h1em2.h
    for p in spec_h1em2.points[:50]:
        assert p.E2 == pytest.approx(h * p.n, abs=0)
        assert p.x == pytest.approx(p.E1 / (math.sqrt(2.0) * h), rel=1e-14)


def test_epsilon_coords_roundtrip():
    x, n = to_epsilon_coords(0.0123, 3e-3, 1e-3)
    assert n == 3 and x == pytest.approx(12.3 / math.sqrt(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        to_epsilon_coords(0.0123, 3.4e-3, 1e-3)


def test_csv_roundtrip(tmp_path, spec_h1em2):
    path = str(tmp_path / "spec.csv")
    write_spectrum_csv(spec_h1em2, path)
    back = read_spectrum_csv(path)
    assert back.h == spec_h1em2.h
    assert len(back.points) == len(spec_h1em2.points)
    for a, b in zip(back.points, spec_h1em2.points):
        assert (a.n, a.k, a.E1) == (b.n, b.k, b.E1)

    # rows in any order read back into the same (n, E1)-sorted lines
    header, *rows = open(path).read().splitlines()
    np.random.default_rng(0).shuffle(rows)
    shuffled = str(tmp_path / "shuffled.csv")
    with open(shuffled, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    with pytest.warns(UserWarning, match="meta.json"):
        back = read_spectrum_csv(shuffled)
    assert back.n_values() == spec_h1em2.n_values()
    for n in spec_h1em2.n_values():
        assert np.array_equal(back.line(n), spec_h1em2.line(n))
        assert np.array_equal(back.line_x(n), spec_h1em2.line_x(n))


def test_csv_without_sidecar_warns(tmp_path):
    table = joint_spectrum(0.1, (0, 1), (0.0, 0.5), potential=HARMONIC)
    path = str(tmp_path / "spec.csv")
    write_spectrum_csv(table, path)
    assert read_spectrum_csv(path).potential == HARMONIC
    os.remove(path + ".meta.json")
    with pytest.warns(UserWarning, match="meta.json not found"):
        back = read_spectrum_csv(path)
    # what the warning says is assumed
    assert back.potential == PotentialSpec.champagne_bottle()
    assert back.config == default_config(0.1, float(np.max(table.points.E1)))


def test_custom_polynomial_potential():
    # the harmonic oscillator, given as a custom polynomial
    custom = PotentialSpec.custom_polynomial((0.0, 0.5))
    assert custom.kind == "custom_polynomial"
    a = joint_spectrum(0.1, (-2, 2), (0.0, 1.2), potential=custom)
    b = joint_spectrum(0.1, (-2, 2), (0.0, 1.2), potential=HARMONIC)
    assert len(a.points) == len(b.points) > 10
    assert a.points.tobytes() == b.points.tobytes()
    for coefficients in ((0.0, 1.0, -1.0), (0.0, -0.5), (1.0,)):
        with pytest.raises(ConfigurationError):
            PotentialSpec.custom_polynomial(coefficients)


def test_grid_size_is_capped_loudly():
    # |x| <= 2.5: h = 1e-6 needs 2^25 points, more than the 2^22 allowed
    x_half = 2.5 * math.sqrt(2.0)
    assert default_config(1e-5, x_half * 1e-5).grid_points == 1 << 21
    with pytest.raises(ConfigurationError, match="grid points"):
        default_config(1e-6, x_half * 1e-6)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DiscretizationConfig(r_max=1.0, grid_points=8, h=0.1,
                             scheme="fd2", richardson=False, e_max=1.0)
    with pytest.raises(ConfigurationError):
        joint_spectrum(1e-2, (2, 1), (-0.1, 0.1))


def test_operator_requires_confining_window():
    cfg = DiscretizationConfig(r_max=1.0, grid_points=256, h=0.1,
                               scheme="fd2", richardson=False, e_max=5.0)
    with pytest.raises(ConfigurationError):
        build_radial_operator(0, cfg, HARMONIC)  # V(1) = 0.5 < 2 * 5
