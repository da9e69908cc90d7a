"""Radial eigensolver: harmonic oracle, convergence order, bookkeeping."""

import functools
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from champagne import radial_spectrum
from champagne.errors import ConfigurationError, ConvergenceError
from champagne.radial_spectrum import (GRID_EPS, RICHARDSON_GAP_BUDGET,
                                       TridiagonalOperator, _abs_tol,
                                       _bisect, _count_all, _counts,
                                       DiscretizationConfig, PotentialSpec,
                                       build_radial_operator, default_config,
                                       eigenvalues_below,
                                       eigenvalues_in_window, joint_spectrum,
                                       read_spectrum_csv, write_spectrum_csv)

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
                                   e_max=1.0)
        vals = eigenvalues_below(build_radial_operator(0, cfg, HARMONIC),
                                 0.5)
        errs.append(abs(vals[0] - e_ref))
    for a, b in zip(errs[:-1], errs[1:]):
        assert 3.5 <= a / b <= 4.5


def test_richardson_beats_plain():
    h = 0.1
    config = DiscretizationConfig(r_max=6.0, grid_points=1024, h=h, e_max=1.0)
    e_ref = h * 3.0  # k = 1, n = 0
    # plain fd2: the grid-N level in [0.2, 0.4)
    plain = eigenvalues_below(build_radial_operator(0, config, HARMONIC), 0.4)
    ep = plain[plain >= 0.2][0]
    er = eigenvalues_in_window(0, config, HARMONIC, 0.2, 0.4)[0][1]
    assert abs(er - e_ref) < 1e-2 * abs(ep - e_ref)


CHAMPAGNE = PotentialSpec.champagne_bottle()


def scipy_levels_below(op, e_top):
    """The levels of op below e_top, by scipy's LAPACK bisection run to
    2 ULP relative: at dstebz's default tolerance its own error reaches
    the 1e-9 local gaps asked of the window solve."""
    vals = eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True,
                            select="v", select_range=(-2.0, e_top),
                            tol=1e-300)
    return vals[vals < e_top]


def brute_force_window(coarse, fine, lo, hi):
    """All levels of grids N and 2N, paired by position, extrapolated,
    then filtered to [lo, hi): (k, E1) pairs."""
    m = min(len(coarse), len(fine))
    rich = (4.0 * fine[:m] - coarse[:m]) / 3.0
    return [(k, e) for k, e in enumerate(rich) if lo <= e < hi]


@pytest.mark.parametrize("potential,n", [(CHAMPAGNE, 0), (CHAMPAGNE, 3),
                                         (HARMONIC, 0), (HARMONIC, 2)])
def test_window_solve_matches_brute_force(potential, n):
    h = 1e-2
    e_top = 0.3
    config = default_config(h, e_top, potential)
    coarse = scipy_levels_below(build_radial_operator(n, config, potential),
                                e_top)
    fine = scipy_levels_below(build_radial_operator(
        n, config, potential, grid_points=2 * config.grid_points), e_top)
    mid = len(fine) // 2
    # between the grid-2N value of a level and its extrapolated value
    split = fine[mid] + (fine[mid] - coarse[mid]) / 6.0
    windows = [(fine[2], fine[12]), (fine[mid], fine[mid + 1]),
               (fine[mid - 1], fine[mid - 1] + 1e-14),
               (0.5 * (fine[mid] + fine[mid + 1]), fine[mid + 4]),
               (fine[mid] - 1e-13, fine[mid] + 1e-13),
               (fine[3], 0.5 * (fine[3] + fine[4])),
               (split, fine[mid + 3]), (fine[mid - 3], split)]
    for lo, hi in windows:
        want = brute_force_window(coarse, fine, lo, hi)
        got = eigenvalues_in_window(n, config, potential, lo, hi)
        assert [k for k, _ in want] == got.k.tolist(), (lo, hi)
        gap = float(np.min(np.diff(fine)))
        for (_, e), g in zip(want, got.E1):
            assert abs(e - g) <= 1e-9 * gap, (lo, hi)


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.2, 0.2), st.floats(0.0, 1.0), st.floats(0.0, 0.1),
       st.sampled_from([CHAMPAGNE, HARMONIC]))
def test_window_solve_is_additive(a, t, width, potential):
    # the levels of [a, c) are those of [a, b) and of [b, c), by (k, E1)
    h = 1e-2
    c = a + width
    b = a + t * width
    config = default_config(h, 0.3, potential)
    whole = eigenvalues_in_window(0, config, potential, a, c)
    left = eigenvalues_in_window(0, config, potential, a, b)
    right = eigenvalues_in_window(0, config, potential, b, c)
    parts = np.concatenate((left, right))
    assert whole.k.tolist() == parts["k"].tolist()
    # a level's value depends on the operator and its index alone
    assert whole.E1.tobytes() == parts["E1"].tobytes()


def test_richardson_budget_rejects_a_coarse_grid():
    # at h = 1e-3 near E = 0 the correction is ~1.1 gaps on N = 1024
    # and ~0.06 gaps on N = 4096, against a budget of 0.5
    h = 1e-3
    r_max = default_config(h, 0.05).r_max

    def window(grid_points):
        config = DiscretizationConfig(r_max=r_max, grid_points=grid_points,
                                      h=h, e_max=0.05)
        return eigenvalues_in_window(0, config, CHAMPAGNE, -0.02, 0.02)

    assert RICHARDSON_GAP_BUDGET == 0.5
    assert len(window(4096)) == 34
    with pytest.raises(ConfigurationError, match="Richardson correction"):
        window(1024)


def test_sturm_count_matches_eigensolver():
    cfg = DiscretizationConfig(r_max=6.0, grid_points=512, h=0.1, e_max=1.0)
    op = build_radial_operator(2, cfg, HARMONIC)
    vals = eigenvalues_below(op, 1.0)
    mid = 0.5 * (vals[1] + vals[2])
    assert _counts(op, 1.0, mid) == (len(vals), 2)


# the operators of the LAPACK reference tests: h = 1e-2, grids N and 2N
REFERENCE_LINES = [(CHAMPAGNE, 0), (CHAMPAGNE, 3), (HARMONIC, 2)]


@functools.cache
def reference_operators(potential, n):
    config = default_config(1e-2, 0.3, potential)
    return [build_radial_operator(n, config, potential, grid_points=g)
            for g in (config.grid_points, 2 * config.grid_points)]


def python_sturm_count(diag, off, x):
    """Eigenvalues strictly below x: the signs of the LDL^T pivots of
    T - x, one Python step per row."""
    shifted = (diag - x).tolist()
    off2 = (off ** 2).tolist()
    d = shifted[0]
    count = int(d < 0.0)
    for a, b2 in zip(shifted[1:], off2):
        if d == 0.0:
            d = 1e-300
        d = a - b2 / d
        count += d < 0.0
    return count


@pytest.mark.parametrize("potential,n", REFERENCE_LINES)
def test_bisection_matches_scipy(potential, n):
    # scipy's select="i" solve is dstebz, which stops at an interval of
    # width at most max(ULP * Gershgorin norm, 2 ULP relative); _bisect
    # stops at a dyadic cell no wider than the first.  Both report the
    # midpoint, so the two agree within the wider width
    ulp = np.finfo(np.float64).eps
    for op in reference_operators(potential, n):
        d, e = op.diag, op.offdiag
        a, b = op.gershgorin[0] - 1.0, op.gershgorin[1] + 1.0
        assert _counts(op, a, b) == (0, len(d))
        for first, stop in [(0, 1), (0, 12), (7, 30), (len(d) - 3, len(d))]:
            want = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                    select_range=(first, stop - 1))
            got = _bisect(op, first, stop, a, b)
            tol = np.maximum(_abs_tol(op), 2.0 * ulp * np.abs(want))
            assert np.all(np.abs(got - want) <= tol), (first, stop)


# guesses near the focus value, far outside the spectrum, and 0
GUESSES = st.one_of(st.floats(-0.3, 0.3), st.floats(-1e300, 1e300),
                    st.just(0.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_LINES), st.integers(0, 1), st.data())
def test_levels_do_not_depend_on_the_guess(line, grid, data):
    # the levels of first..stop-1 from the Gershgorin interval equal, bit
    # for bit, those of any split of the range, each part bisected from
    # any guess: one of zero width, one that holds none of its levels, or
    # one far outside the spectrum
    op = reference_operators(*line)[grid]
    order = len(op.diag)
    first = data.draw(st.one_of(st.integers(0, 60),
                                st.integers(0, order - 1)))
    stop = data.draw(st.integers(first, min(first + 12, order)))
    want = _bisect(op, first, stop, *op.gershgorin)
    cuts = sorted(data.draw(st.lists(st.integers(first, stop), max_size=3)))
    got = []
    for i, j in zip([first] + cuts, cuts + [stop]):
        a = data.draw(GUESSES)
        width = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        got.append(_bisect(op, i, j, a, a + width))
    assert np.concatenate(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("potential,n", REFERENCE_LINES)
def test_sturm_count_matches_the_python_loop(potential, n):
    for op in reference_operators(potential, n):
        vals = eigenvalues_below(op, 0.3)
        # midpoints between levels, below the lowest and above the top
        points = np.concatenate(([vals[0] - 1.0, vals[0] - 1e-3],
                                 0.5 * (vals[:-1] + vals[1:])[::3],
                                 [0.3, 50.0]))
        for x in points:
            want = python_sturm_count(op.diag, op.offdiag, x)
            assert _counts(op, x, x) == (want, want), x
        assert _counts(op, 1e9, 1e9) == (len(op.diag), len(op.diag))


def test_malformed_operator_is_rejected_before_lapack():
    cfg = DiscretizationConfig(r_max=6.0, grid_points=512, h=0.1, e_max=1.0)
    op = build_radial_operator(0, cfg, HARMONIC)
    d, e = op.diag, op.offdiag
    bad = [(d.astype(np.float32), e), (d, e.astype(np.int64)),
           (np.repeat(d, 2)[::2], e), (d, e[:-1]), (d, np.append(e, 1.0)),
           (d[:0], e[:0]), (np.where(d > 50.0, np.nan, d), e)]
    for diag, off in bad:
        with pytest.raises(ConfigurationError):
            TridiagonalOperator(diag, off)
    # index ranges outside the levels of the grid
    a, b = op.gershgorin[0] - 1.0, op.gershgorin[1] + 1.0
    for first, stop in [(-1, 3), (2, 1), (0, len(d) + 1)]:
        with pytest.raises(ConfigurationError, match="not inside"):
            _bisect(op, first, stop, a, b)
    # through the public path: an operator with a short off-diagonal
    with pytest.raises(ConfigurationError, match="off-diagonal"):
        eigenvalues_below(TridiagonalOperator(d, e[:-5]), 1.0)


def test_window_solve_raises_when_a_level_goes_missing(monkeypatch):
    # a solve that disagrees with the Sturm counts is an error, not a
    # table with a level dropped
    inner = radial_spectrum._bisect
    monkeypatch.setattr(radial_spectrum, "_bisect",
                        lambda op, *args: inner(op, *args)[1:])
    config = default_config(1e-2, 0.3)
    with pytest.raises(ConfigurationError, match="Sturm counts"):
        eigenvalues_in_window(0, config, CHAMPAGNE, -0.05, 0.05)


def test_non_monotone_count_raises(monkeypatch):
    # dlarrc has no pivot guard: a pivot of exactly 0.0 counts a level
    # twice.  A count above its interval's upper count is an error, and
    # so is a count past the Gershgorin interval that is not 0 or the
    # order: the cover stops moving out there instead of moving forever
    op = reference_operators(CHAMPAGNE, 0)[0]
    a, b = -0.05, 0.05
    ca, cb = _counts(op, a, b)
    assert cb - ca >= 2
    with monkeypatch.context() as patch:
        patch.setattr(radial_spectrum, "_counts",
                      lambda op, x, y: (cb + 1, cb + 1))
        with pytest.raises(ConvergenceError, match="Gershgorin interval"):
            _bisect(op, ca, cb, a, b)
    # at the first midpoint, a count above the cover's
    monkeypatch.setattr(radial_spectrum, "_count_all",
                        lambda op, xs: [len(op.diag) + 1] * len(xs))
    with pytest.raises(ConvergenceError, match="outside the counts"):
        _bisect(op, ca, cb, a, b)


def test_zero_pivot_is_not_counted_twice():
    # T = [[1, 1], [1, 1]] has the levels 0 and 2.  At x = 1 the first
    # pivot is exactly 0.0, and dlarrc counts it and the -inf after it.
    op = TridiagonalOperator(np.array([1.0, 1.0]), np.array([1.0]))
    assert _counts(op, 1.0, 1.0) == (2, 2)
    # 1 is a point of the dyadic grid: the level 2 would come out as 1
    with pytest.raises(ConvergenceError, match="pivot of exactly 0.0"):
        _bisect(op, 0, 2, -1.0, 3.0)
    # on a radial operator, x = diag[0] makes the first pivot 0.0
    for op in reference_operators(CHAMPAGNE, 0):
        x = op.diag[0]
        want = python_sturm_count(op.diag, op.offdiag, x)
        assert _counts(op, x, x)[0] == want + 1


def test_too_coarse_grid_raises():
    # a window with more levels on grid 2N than grid N has at all is an
    # error, not an endless widening of the grid-N bracket
    config = DiscretizationConfig(r_max=1.1, grid_points=64, h=1e-3,
                                  e_max=0.1)
    with pytest.raises(ConfigurationError, match="too coarse"):
        eigenvalues_in_window(0, config, CHAMPAGNE, -0.3, 0.1)


def test_chunked_bisection_is_bit_identical(monkeypatch):
    # every chunk bisects from the line's one bracket through the same
    # midpoints, so 1 to 5 chunks give the same levels, bit for bit
    h = 1e-4
    e1 = 2.5 * math.sqrt(2.0) * h
    config = default_config(h, e1)
    lines = []
    for chunks in range(1, 6):
        monkeypatch.setattr(radial_spectrum, "_usable_cpus",
                            lambda: chunks)
        lines.append(eigenvalues_in_window(0, config, CHAMPAGNE, -e1, e1))
    assert len(lines[0]) >= 8
    for line in lines[1:]:
        assert line.tobytes() == lines[0].tobytes()


def legacy_radial_operator(n, config, potential, grid_points):
    """build_radial_operator written out as whole-array expressions."""
    N = grid_points
    h = config.h
    delta = config.r_max / N
    j = np.arange(N)
    r = (j + 0.5) * delta
    u = r ** 2
    v = np.zeros_like(u)
    for c in reversed(potential.coefficients):
        v = v * u + c
    diag = (h * h) / (delta * delta) + 0.5 * h * h * float(n * n) \
        / (r * r) + v
    jj = np.arange(N - 1)
    off = -(h * h / (2.0 * delta * delta)) * (jj + 1.0) \
        / np.sqrt((jj + 0.5) * (jj + 1.5))
    return diag, off


@pytest.mark.parametrize("potential,n", [(CHAMPAGNE, 0), (CHAMPAGNE, 5),
                                         (HARMONIC, 2)])
def test_operator_build_is_bit_identical_and_in_place(potential, n):
    config = default_config(1e-3, 0.04, potential)
    grid = 1 << 16
    diag, off = legacy_radial_operator(n, config, potential, grid)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        op = build_radial_operator(n, config, potential, grid_points=grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert op.diag.tobytes() == diag.tobytes()
    assert op.offdiag.tobytes() == off.tobytes()
    assert peak <= 2 * (op.diag.nbytes + op.offdiag.nbytes), peak


def test_threaded_lines_equal_a_serial_solve(monkeypatch):
    # 9 |n| lines, each bisected on one thread per CPU, with the
    # interpreter switching threads as often as it can: every level
    # equals, bit for bit, the one a line-by-line solve in one chunk on
    # one worker thread gives
    h = 1e-2
    window = (-10.5 * math.sqrt(2.0) * h, 10.5 * math.sqrt(2.0) * h)
    config = default_config(h, window[1])
    with monkeypatch.context() as patch:
        patch.setattr(radial_spectrum, "_usable_cpus", lambda: 1)
        serial = {m: eigenvalues_in_window(m, config, CHAMPAGNE, *window)
                  for m in range(9)}
    assert len(serial) > len(os.sched_getaffinity(0))
    got = []
    solver = threading.Thread(target=lambda: got.append(
        joint_spectrum(h, (-8, 8), window)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        solver.start()
        solver.join(timeout=120.0)
        elapsed = time.perf_counter() - t0
    finally:
        sys.setswitchinterval(interval)
    assert not solver.is_alive() and len(got) == 1, elapsed
    table = got[0]
    assert table.config == config
    for n in range(-8, 9):
        line = table.line(n)
        assert line.k.tolist() == serial[abs(n)].k.tolist(), n
        assert line.E1.tobytes() == serial[abs(n)].E1.tobytes(), n
        assert np.all(line.n == n)


def test_truncation_insensitivity():
    # growing r_max further must not move the levels
    h = 0.05
    cfg1 = default_config(h, 0.02)
    cfg2 = DiscretizationConfig(r_max=cfg1.r_max * 1.5,
                                grid_points=2 * cfg1.grid_points, h=h,
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
    rows_in_order = list(rows)
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

    # a sidecar written when the config still had scheme and richardson,
    # a config key the config does not have, a sidecar without potential,
    # top-level values not of their types, and one that is not JSON are
    # rejected, naming the file and the key
    meta_path = path + ".meta.json"
    meta = json.load(open(meta_path))
    without_potential = {k: v for k, v in meta.items() if k != "potential"}
    cases = [(json.dumps({**meta, "config": {**meta["config"], **extra}}),
              repr(named))
             for extra, named in [({"scheme": "fd2", "richardson": True},
                                   "scheme"),
                                  ({"scheme": "fd2", "richardson": False},
                                   "richardson"),
                                  ({"scheme": "pruess"}, "scheme"),
                                  ({"grid_spacing": 0.1}, "grid_spacing")]]
    cases += [(json.dumps({**meta, key: value}), key)
              for key, value in [("n_range", "0,1"), ("empty_lines", "no"),
                                 ("e_window", [1]), ("h", "x")]]
    cases += [(json.dumps(without_potential), "'potential'"),
              ('{"h": 0.01,', "not JSON")]
    # values of their types that do not hold for the rows: another h, a
    # line or an energy outside the ranges (the window is half-open), and
    # an empty line outside n_range or with rows
    e_top = float(np.max(spec_h1em2.points.E1))
    cases += [(json.dumps({**meta, key: value}), error)
              for key, value, error in [
                  ("h", 0.5, r"h is 0.5, but data row 0 has \(h, n, E1\) "
                             r"= \(0.01, -4, "),
                  ("n_range", [-3, 9], r"n_range is \[-3, 9\], but data row "
                                       r"0 has \(h, n, E1\) = \(0.01, -4, "),
                  ("e_window", [3.0, 4.0], r"e_window is \[3.0, 4.0\], but "),
                  ("e_window", [meta["e_window"][0], e_top],
                   re.escape(f", {e_top!r})")),
                  ("empty_lines", [5], r"lines \[5\] are outside n_range"),
                  ("empty_lines", [-4, 5], r"lines \[-4, 5\] are outside "
                                           "n_range or have rows")]]
    for text, error in cases:
        with open(meta_path, "w") as fh:
            fh.write(text)
        with pytest.raises(ConfigurationError, match=error) as exc:
            read_spectrum_csv(path)
        assert meta_path in str(exc.value)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    assert read_spectrum_csv(path).config == spec_h1em2.config
    # the first two rows, of one line, with their k swapped: k no longer
    # rises with E1
    first, second, *rest = (row.split(",") for row in rows_in_order)
    assert first[1] == second[1] and int(first[2]) < int(second[2])
    first[2], second[2] = second[2], first[2]
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [",".join(row) for row in
                                        (first, second, *rest)]) + "\n")
    with pytest.raises(ConfigurationError,
                       match="k does not increase strictly with E1"):
        read_spectrum_csv(path)
    with open(path, "w") as fh:
        fh.write("\n".join([header] + rows_in_order) + "\n")
    assert len(read_spectrum_csv(path).points) == len(spec_h1em2.points)
    # a file that is not a spectrum CSV, and one without rows
    for text, error in [("E1,E2\n0.1,0.0\n", "bad spectrum CSV header"),
                        (header + "\n", "no rows")]:
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ConfigurationError, match=error):
            read_spectrum_csv(path)


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


def test_unknown_potential_kind_raises():
    with pytest.raises(ConfigurationError, match="custom_polynomial"):
        PotentialSpec("custom_polynomial", (0.0, 0.5))


# where V is least, and its value there
WELL = {"champagne_bottle": (math.sqrt(0.5), -0.25),
        "harmonic_test": (0.0, 0.0)}
X_HALF = 2.5 * math.sqrt(2.0)
# the champagne focus windows |x| <= 2.5 of the gap scans, the |x| <= 27
# window of a joint table at h = 1e-3, and harmonic windows, the one at
# h = 1e-2 walled at the turning point of 2 e_max
SIZED_LINES = ([(CHAMPAGNE, h, X_HALF * h)
                for h in (1e-2, 1e-3, 1e-4, 2e-5, 1e-5)]
               + [(CHAMPAGNE, 1e-3, 27.0 * math.sqrt(2.0) * 1e-3),
                  (HARMONIC, 0.1, 2.7), (HARMONIC, 1e-2, 0.3),
                  (HARMONIC, 1e-5, 12e-5)])


def model_delta(h, e_max, potential):
    """The spacing at which the error model of fd2 with Richardson,
    delta^4 p^6 / (720 h^4) with p^2 = 2 (e_max - min V) but at least
    2e-3, equals GRID_EPS."""
    p2 = 2.0 * max(e_max - WELL[potential.kind][1], 1e-3)
    return (720.0 * h**4 * GRID_EPS / p2**3) ** 0.25


@pytest.mark.parametrize("potential,h,e_max", SIZED_LINES)
def test_default_config_is_the_smallest_grid_its_rules_allow(potential, h,
                                                             e_max):
    config = default_config(h, e_max, potential)
    r_max, grid = config.r_max, config.grid_points
    # the wall: V(r_max) >= 2 e_max, and a WKB barrier of 12 h from the
    # outer turning point of e_max, which quad integrates; at the smallest
    # such radius one of the two holds with equality
    r_turn = brentq(lambda r: potential.V(r) - e_max, WELL[potential.kind][0],
                    10.0, xtol=1e-15)
    barrier = quad(lambda r: math.sqrt(max(2.0 * (potential.V(r) - e_max),
                                           0.0)),
                   r_turn, r_max, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    assert potential.V(r_max) >= 2.0 * e_max
    assert barrier >= 12.0 * h * (1.0 - 1e-9)
    assert (math.isclose(barrier, 12.0 * h, rel_tol=1e-9)
            or math.isclose(potential.V(r_max), 2.0 * e_max, rel_tol=1e-9))
    # the grid: the fewest points, at least 64, that meet the model
    delta = model_delta(h, e_max, potential)
    assert r_max / grid <= delta
    assert grid == 64 or r_max / (grid - 1) > delta


@pytest.mark.parametrize("h,delta_max", [(1e-5, 6.019e-7), (2e-5, 1.2038e-6)])
def test_deep_focus_grids_keep_their_spacing(h, delta_max):
    # at E = 0 and h <= 2e-5 the model is about 8 times optimistic: the
    # n = 0 lines are 2.7e-3 (h = 1e-5) and 7.8e-4 (h = 2e-5) local gaps
    # from their three-grid values, and no coarser spacing than 1.2623 /
    # 2^21 and 1.2623 / 2^20 may carry them
    config = default_config(h, X_HALF * h)
    assert config.r_max / config.grid_points <= delta_max


@pytest.mark.parametrize("n,x_half", [(0, 2.5), (10, 27.0)])
def test_default_grid_meets_the_error_target_at_h_1e_3(n, x_half):
    # against the three-grid value (16 R_2N - R_N) / 15 from the Richardson
    # values on N and 2N, each line is within GRID_EPS
    h = 1e-3
    e = x_half * math.sqrt(2.0) * h
    config = default_config(h, e)
    finer = DiscretizationConfig(r_max=config.r_max,
                                 grid_points=2 * config.grid_points, h=h,
                                 e_max=e)
    got = eigenvalues_in_window(n, config, CHAMPAGNE, -e, e)
    ref = eigenvalues_in_window(n, finer, CHAMPAGNE, -e, e)
    assert got.k.tolist() == ref.k.tolist() and len(got) > 5
    three_grid = (16.0 * ref.E1 - got.E1) / 15.0
    assert np.max(np.abs(got.E1 - three_grid)) <= GRID_EPS


def test_grid_size_is_capped_loudly():
    # |x| <= 2.5: h = 1e-5 takes ceil(r_max / delta) < 2^21 points, and
    # h = 1e-6 would take about 1.7e7, more than the 2^22 allowed
    config = default_config(1e-5, X_HALF * 1e-5)
    assert config.grid_points == math.ceil(
        config.r_max / model_delta(1e-5, X_HALF * 1e-5, CHAMPAGNE))
    assert config.grid_points < 1 << 21
    with pytest.raises(ConfigurationError, match="grid points"):
        default_config(1e-6, X_HALF * 1e-6)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DiscretizationConfig(r_max=1.0, grid_points=8, h=0.1, e_max=1.0)
    with pytest.raises(ConfigurationError):
        joint_spectrum(1e-2, (2, 1), (-0.1, 0.1))


def test_operator_requires_confining_window():
    cfg = DiscretizationConfig(r_max=1.0, grid_points=256, h=0.1, e_max=5.0)
    with pytest.raises(ConfigurationError):
        build_radial_operator(0, cfg, HARMONIC)  # V(1) = 0.5 < 2 * 5
