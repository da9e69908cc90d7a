"""Radial eigensolver: harmonic oracle, convergence order, bookkeeping."""

import dataclasses
import functools
import json
import math
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import fd2
from champagne import radial_spectrum as rs
from champagne.errors import (ConfigurationError, ConvergenceError,
                             _write_csv)
from champagne.radial_spectrum import (MAX_GRID_POINTS, RICHARDSON_GAP_BUDGET,
                                       DiscretizationConfig, PotentialSpec,
                                       default_config, eigenvalues_in_window,
                                       joint_spectrum, read_spectrum_csv,
                                       write_spectrum_csv)

HARMONIC = PotentialSpec.harmonic_test()


def harmonic_levels(h, k_max, n):
    return [h * (2 * k + abs(n) + 1) for k in range(k_max + 1)]


def test_harmonic_oracle_h01():
    h = 0.1
    e_hi = h * (2 * 10 + 5 + 1) + h
    config = default_config(h, e_hi, HARMONIC)
    for n in range(0, 6):
        got = eigenvalues_in_window(n, h, config, HARMONIC, 0.0, e_hi)
        exact = harmonic_levels(h, 10, n)
        assert len(got) >= 11
        for (k, e), ref in zip(got[:11], exact):
            assert abs(e - ref) / ref < 1e-6, (n, k, e, ref)


def mesh_levels(line, first, stop, a, b):
    """The levels of index first..stop-1 of one mesh, with no Richardson
    step, solved from the phases at a and b."""
    size = stop - first
    fa, fb = line.phase(np.array([a, b]))
    return rs._solve(line, first, np.full(size, a), np.full(size, fa),
                     np.full(size, b), np.full(size, fb))[0]


def mesh_level(n, h, config, potential, k, lo, hi):
    """Level k on the mesh of config alone."""
    return float(mesh_levels(rs._Line(n, h, config, potential), k, k + 1,
                             lo, hi)[0])


def test_grid_doubling_second_order():
    # the plain CP error must shrink by ~4 per mesh doubling
    h = 0.1
    e_ref = h * 1.0  # ground state, n = 0
    errs = []
    for m in (512, 1024, 2048):
        cfg = DiscretizationConfig(r_max=6.0, grid_points=m)
        errs.append(abs(mesh_level(0, h, cfg, HARMONIC, 0, 0.05, 0.2)
                        - e_ref))
    for a, b in zip(errs[:-1], errs[1:]):
        assert 3.5 <= a / b <= 4.5


def test_richardson_beats_plain():
    h = 0.1
    config = DiscretizationConfig(r_max=6.0, grid_points=1024)
    e_ref = h * 3.0  # k = 1, n = 0
    ep = mesh_level(0, h, config, HARMONIC, 1, 0.2, 0.4)
    er = eigenvalues_in_window(0, h, config, HARMONIC, 0.2, 0.4)[0][1]
    assert abs(er - e_ref) < 1e-2 * abs(ep - e_ref)


CHAMPAGNE = PotentialSpec.champagne_bottle()


# --- an independent route through the same mesh ---------------------------
# The interval maps are written out from their formulas and applied to
# (u, u') one interval at a time, in a Python loop: no pairwise products,
# no Pruefer lift, no dyadic grid.  Levels are the zeros of the Wronskian
# at the match node, found by brentq between the fd2 levels.

def interval_maps(line, E):
    """(c, s, q s) of every interval of line at the energy E: the map
    (u, u') -> (c u + s u', q s u + c u')."""
    q = line.q0 - (2.0 / line.h**2) * E
    a = np.sqrt(np.abs(q))
    t = a * line.d
    c = np.where(q < 0.0, np.cos(t), np.cosh(t))
    s = np.where(q < 0.0, np.sin(t), np.sinh(t)) / np.where(a > 0.0, a, 1.0)
    s = np.where(a > 0.0, s, line.d)
    return c.tolist(), s.tolist(), (q * s).tolist()


def step(u, du, c, s, qs):
    u, du = c * u + s * du, qs * u + c * du
    scale = max(abs(u), abs(du))            # keeps the signs and zeros
    return u / scale, du / scale


def frobenius_start(line, E):
    """(u, u') over r0^(|n| - 1/2) at r0 of r^(|n| + 1/2) sum_j a_j r^(2j),
    a_0 = 1, whose recursion 4 j (j + |n|) a_j = 2 / h^2 ((c_0 - E)
    a_(j-1) + c_1 a_(j-2)) from u'' = ((n^2 - 1/4) / r^2 + 2 (V - E) / h^2)
    u is taken to j = 2."""
    c0, c1 = line.potential.coefficients[:2]
    nu, r = line.nu, line.r0
    a1 = 2.0 / line.h**2 * (c0 - E) / (4.0 * (1 + nu))
    a2 = 2.0 / line.h**2 * ((c0 - E) * a1 + c1) / (8.0 * (2 + nu))
    u = r * (1.0 + a1 * r**2 + a2 * r**4)
    du = (nu + 0.5) * (1.0 + a1 * r**2 + a2 * r**4) \
        + 2.0 * a1 * r**2 + 4.0 * a2 * r**4
    return u, du


def wronskian(line, E):
    """u_L v' + u_L' v at the match node, with u_L shot from the Frobenius
    start and v from the wall (v = 0, v' = 1) inward: it vanishes at the
    levels and changes sign at each."""
    c, s, qs = interval_maps(line, E)
    u, du = frobenius_start(line, E)
    for i in range(line.match):
        u, du = step(u, du, c[i], s[i], qs[i])
    v, dv = 0.0, 1.0
    for i in reversed(range(line.match, len(c))):
        v, dv = step(v, dv, c[i], s[i], qs[i])
    return u * dv + du * v


def zero_count(line, E):
    """Zeros in (r0, r_max) of the solution shot from the Frobenius start:
    sin(a tau + phi) passes its zeros in each oscillating interval, and a
    sign change marks the one zero an interval of cosh and sinh holds."""
    c, s, qs = interval_maps(line, E)
    q = line.q0 - (2.0 / line.h**2) * E
    u, du = frobenius_start(line, E)
    zeros = 0
    for i in range(len(c)):
        if q[i] < 0.0:
            a = math.sqrt(-q[i])
            phi = math.atan2(u, du / a)
            zeros += (math.floor((a * line.d[i] + phi) / math.pi)
                      - math.floor(phi / math.pi))
            u, du = step(u, du, c[i], s[i], qs[i])
        else:
            before = u
            u, du = step(u, du, c[i], s[i], qs[i])
            zeros += before != 0.0 and (u == 0.0 or (u > 0) != (before > 0))
    return zeros


def oracle_levels(line, fd2_levels):
    """The levels of one mesh but the top one, level k between the
    midpoints of fd2 levels k - 1, k and k + 1."""
    mids = 0.5 * (fd2_levels[1:] + fd2_levels[:-1])
    ends = np.concatenate(([2.0 * fd2_levels[0] - mids[0]], mids))
    return np.array([brentq(lambda e: wronskian(line, e), a, b, xtol=1e-15,
                            rtol=4.0 * np.finfo(float).eps)
                     for a, b in zip(ends[:-1], ends[1:])])


@functools.cache
def oracle_window_levels(potential, n, e_top):
    """On h = 1e-2: the config, fd2's levels, and the oracle's levels on
    the meshes m and 2m, of every index whose fd2 level lies below
    e_top + 0.05 but the top one."""
    h = 1e-2
    config = default_config(h, e_top, potential)
    first, ref = fd2.window_levels(n, config.r_max, 4 * config.grid_points,
                                   h, potential, -1.0, e_top + 0.05)
    assert first == 0
    coarse, fine = (oracle_levels(rs._Line(n, h, config, potential, refine),
                                  ref) for refine in (1, 2))
    return config, ref[:-1], coarse, fine


@pytest.mark.parametrize("potential,n", [(CHAMPAGNE, 0), (CHAMPAGNE, 3),
                                         (HARMONIC, 0), (HARMONIC, 2)])
def test_window_solve_matches_brute_force(potential, n):
    # every level of the window solve equals, to 1e-9 local gaps, the
    # brute-force value of the same index: all levels below 0.3 on both
    # meshes by the oracle, extrapolated, then filtered to the window
    e_top = 0.3
    config, _, coarse, fine = oracle_window_levels(potential, n, e_top)
    rich = (4.0 * fine - coarse) / 3.0
    mid = len(fine) // 2
    # between the mesh-2m value of a level and its extrapolated value
    split = fine[mid] + 0.5 * (rich[mid] - fine[mid])
    windows = [(fine[2], fine[12]), (fine[mid], fine[mid + 1]),
               (fine[mid - 1], fine[mid - 1] + 1e-14),
               (0.5 * (fine[mid] + fine[mid + 1]), fine[mid + 4]),
               (fine[mid] - 1e-13, fine[mid] + 1e-13),
               (fine[3], 0.5 * (fine[3] + fine[4])),
               (split, fine[mid + 3]), (fine[mid - 3], split)]
    gap = float(np.min(np.diff(fine)))
    for lo, hi in windows:
        want = [(k, e) for k, e in enumerate(rich) if lo <= e < hi]
        got = eigenvalues_in_window(n, 1e-2, config, potential, lo, hi)
        assert [k for k, _ in want] == got.k.tolist(), (lo, hi)
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
    whole = eigenvalues_in_window(0, h, config, potential, a, c)
    left = eigenvalues_in_window(0, h, config, potential, a, b)
    right = eigenvalues_in_window(0, h, config, potential, b, c)
    parts = np.concatenate((left, right))
    assert whole.k.tolist() == parts["k"].tolist()
    # a level's value depends on the line and its index alone
    assert whole.E1.tobytes() == parts["E1"].tobytes()


def test_richardson_budget_rejects_a_coarse_grid():
    # at h = 1e-4 near E = 0 the correction is ~0.8 local gaps on m = 80
    # and ~0.03 gaps on m = 512, against a budget of 0.5
    h = 1e-4
    r_max = default_config(h, 0.02).r_max

    def window(grid_points):
        config = DiscretizationConfig(r_max=r_max, grid_points=grid_points)
        return eigenvalues_in_window(0, h, config, CHAMPAGNE, -0.002, 0.002)

    assert RICHARDSON_GAP_BUDGET == 0.5
    assert len(window(512)) == 45
    with pytest.raises(ConfigurationError, match="Richardson correction"):
        window(80)


def test_phase_counts_the_levels_the_window_solve_finds():
    # the phase counts the levels the solve finds below 1.0, and 2 below
    # the midpoint of levels 1 and 2
    cfg = DiscretizationConfig(r_max=6.0, grid_points=512)
    line = rs._Line(2, 0.1, cfg, HARMONIC)
    vals = eigenvalues_in_window(2, 0.1, cfg, HARMONIC, -1.0, 1.0).E1
    mid = 0.5 * (vals[1] + vals[2])
    counts = np.floor(line.phase(np.array([1.0, mid])))
    assert counts.tolist() == [len(vals), 2]


# the lines of the oracle tests: h = 1e-2, meshes m and 2m
REFERENCE_LINES = [(CHAMPAGNE, 0), (CHAMPAGNE, 3), (HARMONIC, 2)]


@functools.cache
def reference_line(potential, n, refine):
    return rs._Line(n, 1e-2, default_config(1e-2, 0.3, potential), potential,
                    refine)


@pytest.mark.parametrize("potential,n", REFERENCE_LINES)
def test_phase_count_matches_the_python_zero_count(potential, n):
    # the whole part of the phase is the number of zeros the solution
    # has, counted one interval at a time
    _, ref, _, _ = oracle_window_levels(potential, n, 0.3)
    for refine in (1, 2):
        line = reference_line(potential, n, refine)
        points = np.concatenate(([ref[0] - 1.0, ref[0] - 1e-3],
                                 0.5 * (ref[:-1] + ref[1:])[::3],
                                 [0.3, 3.0]))
        counts = np.floor(line.phase(points)).astype(int).tolist()
        assert counts == [zero_count(line, x) for x in points]
        assert counts[2:-2] == list(range(1, len(ref), 3))


@pytest.mark.parametrize("potential,n", REFERENCE_LINES)
def test_secant_steps_on_the_dyadic_grid_match_scipy(potential, n):
    # on each mesh, the safeguarded secant and bisection steps on the
    # dyadic grid stop in the cell of scipy's brentq root of the oracle's
    # Wronskian: the level is that cell's midpoint, and a cell is at most
    # 1e-10 h wide
    _, _, *meshes = oracle_window_levels(potential, n, 0.3)
    cell = 1e-10 * 1e-2
    for refine, want in zip((1, 2), meshes):
        line = reference_line(potential, n, refine)
        for first, stop in [(0, 1), (0, 12), (7, 14)]:
            got = mesh_levels(line, first, stop, -0.3, 0.3)
            assert np.all(np.abs(got - want[first:stop]) <= cell), first


def test_block_size_leaves_the_levels_bit_identical(monkeypatch):
    # the interval maps are multiplied out in blocks of rows, scaled and
    # composed; blocks of 2^10 to 2^16 entries give the same levels, bit
    # for bit, since each is the midpoint of its cell on the dyadic grid
    h = 1e-4
    e1 = 2.5 * math.sqrt(2.0) * h
    config = default_config(h, e1)
    lines = []
    for size in (1 << 10, 1 << 12, 1 << 14, 1 << 16):
        monkeypatch.setattr(rs, "_BLOCK", size)
        lines.append(eigenvalues_in_window(0, h, config, CHAMPAGNE, -e1, e1))
    assert len(lines[0]) >= 8
    for line in lines[1:]:
        assert line.tobytes() == lines[0].tobytes()


def test_anchor_step_leaves_the_levels_bit_identical(monkeypatch):
    # the fine solve starts from the mesh shift measured every
    # _ANCHOR_STEP levels and interpolated in between; measured at every
    # level, the line |x| <= 27 at h = 1e-3 takes four fine-mesh
    # evaluations a level, and interpolated, at most 200 in all
    h = 1e-3
    e1 = 27.0 * math.sqrt(2.0) * h
    config = default_config(h, e1)
    inner, fine = rs._Line.phase, []

    def phase(line, E):
        if len(line.d) == 2 * config.grid_points:
            fine[-1] += np.size(E)
        return inner(line, E)

    monkeypatch.setattr(rs._Line, "phase", phase)
    lines = []
    for step in (1, rs._ANCHOR_STEP):
        monkeypatch.setattr(rs, "_ANCHOR_STEP", step)
        fine.append(0)
        lines.append(eigenvalues_in_window(0, h, config, CHAMPAGNE, -e1, e1))
    assert len(lines[0]) == 60
    assert lines[1].tobytes() == lines[0].tobytes()
    assert fine[1] <= 200 < fine[0]


def test_the_mesh_m_solve_starts_from_the_neighbouring_levels(monkeypatch):
    # the second secant step of a level takes its other sample from the
    # first evaluations of every level: joint-table's n = 0 line (h = 1e-3,
    # |x| <= 27, 60 levels) takes 346 mesh-m evaluations, and 375 when
    # each level's steps started from the window ends alone
    h = 1e-3
    e1 = 27.0 * math.sqrt(2.0) * h
    config = default_config(h, e1)
    inner, coarse = rs._Line.phase, [0]

    def phase(line, E):
        if len(line.d) == config.grid_points:
            coarse[0] += np.size(E)
        return inner(line, E)

    monkeypatch.setattr(rs._Line, "phase", phase)
    assert len(eigenvalues_in_window(0, h, config, CHAMPAGNE, -e1, e1)) == 60
    assert coarse[0] <= 350


def test_leaves_are_computed_for_the_intervals_alone(monkeypatch):
    # a block cut short is its first half and the rest, and only the rest
    # is padded with the identity: one joint-table solve (h = 1e-3,
    # |n| <= 10, |x| <= 27) computes 1.027 leaf maps for each interval and
    # energy evaluated, and 1.126 when a cut block was padded whole
    inner_leaves, inner_phase = rs._leaves, rs._Line.phase
    leaves, real = [0], [0]

    def count_leaves(q0, d, e2, *args):
        leaves[0] += len(e2)
        return inner_leaves(q0, d, e2, *args)

    def count_phase(line, E):
        real[0] += len(line.d) * np.size(E)
        return inner_phase(line, E)

    monkeypatch.setattr(rs, "_leaves", count_leaves)
    monkeypatch.setattr(rs._Line, "phase", count_phase)
    e1 = 27.0 * math.sqrt(2.0) * 1e-3
    joint_spectrum(1e-3, (-10, 10), (-e1, e1))
    assert 0 < real[0] <= leaves[0] <= 1.05 * real[0]


@pytest.mark.parametrize("h,x_half", [(1e-5, 2.5), (1e-3, 27.0)])
def test_a_phase_alone_equals_its_value_in_a_batch(monkeypatch, h, x_half):
    # an energy alone is multiplied out in other blocks than in a batch of
    # 40 (a block holds about _BLOCK / energies intervals), so its phase
    # may differ by rounding, but never by a lift that slips by 1; on the
    # fine mesh, for every _BLOCK from 2^10 to 2^16
    e1 = x_half * math.sqrt(2.0) * h
    line = rs._Line(0, h, default_config(h, e1), CHAMPAGNE, 2)
    energies = np.linspace(-e1, e1, 40)
    for size in [1 << k for k in range(10, 17)]:
        monkeypatch.setattr(rs, "_BLOCK", size)
        batch = line.phase(energies)
        alone = np.array([line.phase(energies[i:i + 1])[0]
                          for i in range(len(energies))])
        assert np.max(np.abs(alone - batch)) <= 1e-9, size


def test_batches_leave_the_phase_bit_identical(monkeypatch):
    # which blocks are paired together, and from which width on they wait
    # for one another, changes no block's tree: the phase is the same to
    # the bit, down to batches of one block that pair alone to the end
    h = 1e-4
    e1 = 10.0 * math.sqrt(2.0) * h
    line = rs._Line(3, h, default_config(h, e1), CHAMPAGNE, 2)
    energies = np.linspace(-e1, e1, 12)
    want = line.phase(energies).tobytes()
    for batch, merge in [(1 << 12, 1 << 6), (1 << 18, 1 << 14), (1, 1)]:
        monkeypatch.setattr(rs, "_BATCH", batch)
        monkeypatch.setattr(rs, "_MERGE", merge)
        assert line.phase(energies).tobytes() == want, (batch, merge)


def test_blocks_that_grow_too_far_are_halved(monkeypatch):
    # a block whose product could overflow is halved, down to one
    # interval: under a small growth bound many blocks near the wall are
    # halved and the phase moves by rounding alone; an interval that alone
    # grows past the bound raises
    h = 1e-3
    e1 = 27.0 * math.sqrt(2.0) * h
    line = rs._Line(0, h, default_config(h, e1), CHAMPAGNE)
    energies = np.linspace(-e1, e1, 9)
    want = line.phase(energies)
    inner, halved = rs._blocks, []

    def blocks(q0, d, e2, rows):
        starts, widths = inner(q0, d, e2, rows)
        halved.append(bool(np.any(widths[:-1] < rows)))
        return starts, widths

    monkeypatch.setattr(rs, "_blocks", blocks)
    monkeypatch.setattr(rs, "_GROWTH_MAX", 3.0)
    assert np.max(np.abs(line.phase(energies) - want)) <= 1e-9
    assert any(halved)
    monkeypatch.setattr(rs, "_GROWTH_MAX", 1e-3)
    with pytest.raises(ConfigurationError, match="E is below V"):
        line.phase(energies)


# guesses near the focus value, farther out, and 0
GUESSES = st.one_of(st.floats(-0.3, 0.3), st.floats(-1.0, 1.0),
                    st.just(0.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_LINES), st.integers(1, 2), st.data())
def test_levels_do_not_depend_on_the_guess(line, refine, data):
    # the levels of first..stop-1 solved from the window ends equal, bit
    # for bit, those of any split of the range, each part solved from
    # any two guesses: equal ones, ones that hold none of its levels, or
    # ones far from them
    line = reference_line(*line, refine)
    first = data.draw(st.integers(0, 40))
    stop = data.draw(st.integers(first, first + 12))
    want = mesh_levels(line, first, stop, -0.3, 0.3)
    cuts = sorted(data.draw(st.lists(st.integers(first, stop), max_size=3)))
    got = []
    for i, j in zip([first] + cuts, cuts + [stop]):
        a, b = data.draw(GUESSES), data.draw(GUESSES)
        got.append(mesh_levels(line, i, j, a, b))
    assert np.concatenate(got).tobytes() == want.tobytes()


def test_window_solve_raises_when_a_level_goes_missing(monkeypatch):
    # a solve that disagrees with the phase counts is an error, not a
    # table with a level dropped
    inner = rs._solve
    monkeypatch.setattr(rs, "_solve", lambda *args, **kwargs: tuple(
        x[1:] for x in inner(*args, **kwargs)))
    config = default_config(1e-2, 0.3)
    with pytest.raises(ConfigurationError, match="the phase counts"):
        eigenvalues_in_window(0, 1e-2, config, CHAMPAGNE, -0.05, 0.05)


def test_falling_phase_raises(monkeypatch):
    # a phase that falls where it should rise is an error, not a level
    # put between the two samples that show it
    line = rs._Line(0, 1e-2, default_config(1e-2, 0.3), CHAMPAGNE)
    monkeypatch.setattr(line, "phase",
                        lambda E: 11.5 - 100.0 * np.asarray(E))
    with pytest.raises(ConvergenceError, match="does not rise"):
        mesh_levels(line, 10, 12, -0.05, 0.05)


def test_too_coarse_grid_raises():
    # 64 intervals for h = 1e-4 are an error naming the mesh, not a table
    config = DiscretizationConfig(r_max=1.1, grid_points=64)
    with pytest.raises(ConfigurationError, match="too coarse"):
        eigenvalues_in_window(0, 1e-4, config, CHAMPAGNE, -0.003, 0.003)


@pytest.mark.parametrize("n", [0, 8, 16, 24, 32])
def test_radial_index_is_the_fd2_sturm_index(spec_h1em3, n):
    # on the workhorse table, k of every level is the index that fd2's
    # Sturm count gives the level of the same value
    table = spec_h1em3
    line = table.line(n)
    lo, hi = table.e_window
    first, ref = fd2.window_levels(n, table.config.r_max, 1 << 14, table.h,
                                   table.potential, lo, hi)
    assert line.k.tolist() == list(range(first, first + len(ref)))
    gap = float(np.min(np.diff(ref)))
    assert np.max(np.abs(line.E1 - ref)) <= 1e-2 * gap


def test_truncation_insensitivity():
    # growing r_max further must not move the levels
    h = 0.05
    cfg1 = default_config(h, 0.02)
    cfg2 = DiscretizationConfig(r_max=cfg1.r_max * 1.5,
                                grid_points=2 * cfg1.grid_points)
    pot = PotentialSpec.champagne_bottle()
    a = eigenvalues_in_window(0, h, cfg1, pot, -0.01, 0.01)
    b = eigenvalues_in_window(0, h, cfg2, pot, -0.01, 0.01)
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

    # rows in any order, with the sidecar, read back into the same
    # (n, E1)-sorted lines
    header, *rows = open(path).read().splitlines()
    rows_in_order = list(rows)
    np.random.default_rng(0).shuffle(rows)
    shuffled = str(tmp_path / "shuffled.csv")
    with open(shuffled, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    shutil.copy(path + ".meta.json", shuffled + ".meta.json")
    back = read_spectrum_csv(shuffled)
    assert back.n_values() == spec_h1em2.n_values()
    for n in spec_h1em2.n_values():
        assert np.array_equal(back.line(n), spec_h1em2.line(n))
        assert np.array_equal(back.line_x(n), spec_h1em2.line_x(n))

    # a sidecar written when the config still had scheme and richardson,
    # or h and e_max, a config key the config does not have, a sidecar
    # with the top-level h or empty_lines or the potential's coefficients
    # of older tables, one without potential, top-level values not of
    # their types, and one that is not JSON are rejected, naming the file
    # and the key
    meta_path = path + ".meta.json"
    meta = json.load(open(meta_path))
    assert sorted(meta) == ["config", "e_window", "n_range", "potential"]
    without_potential = {k: v for k, v in meta.items() if k != "potential"}
    cases = [(json.dumps({**meta, "config": {**meta["config"], **extra}}),
              repr(named))
             for extra, named in [({"scheme": "fd2", "richardson": True},
                                   "scheme"),
                                  ({"scheme": "fd2", "richardson": False},
                                   "richardson"),
                                  ({"scheme": "pruess"}, "scheme"),
                                  ({"grid_spacing": 0.1}, "grid_spacing"),
                                  ({"h": 0.5}, "h"),
                                  ({"e_max": 0.105}, "e_max")]]
    cases += [(json.dumps({**meta, key: value}), repr(key))
              for key, value in [("h", 0.01), ("empty_lines", [])]]
    cases += [(json.dumps({**meta, "potential": {
        **meta["potential"], "coefficients": [0.0, -1.0, 1.0]}}),
               "'coefficients'")]
    cases += [(json.dumps({**meta, key: value}), key)
              for key, value in [("n_range", "0,1"), ("e_window", [1])]]
    cases += [(json.dumps(without_potential), "'potential'"),
              ('{"h": 0.01,', "not JSON")]
    # values of their types that do not hold for the rows: a line or an
    # energy outside the ranges (the window is half-open)
    e_top = float(np.max(spec_h1em2.points.E1))
    cases += [(json.dumps({**meta, key: value}), error)
              for key, value, error in [
                  ("n_range", [-3, 9], r"n_range is \(-3, 9\), but row 0 "
                                       r"has \(h, n, k, E1\) = \(0.01, -4, "),
                  ("e_window", [3.0, 4.0], r"e_window is \(3.0, 4.0\), but "),
                  ("e_window", [meta["e_window"][0], e_top],
                   re.escape(f", {e_top!r})"))]]
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
    # a row of another h is named, in the file and in any order of its rows
    third = rows_in_order[3].split(",")
    third[0] = "0.02"
    for name in (path, shuffled):
        with open(name, "w") as fh:
            fh.write("\n".join([header] + rows_in_order[:3] + [",".join(third)]
                               + rows_in_order[4:]) + "\n")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{name} with {name}.meta.json: "
                                           "h is 0.01, but row 3 has (h, n, "
                                           "k, E1) = (0.02, ")):
            read_spectrum_csv(name)
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


def test_csv_without_sidecar_raises(tmp_path):
    # the sidecar holds the potential and the mesh: without it a harmonic
    # table is not read as a champagne one
    table = joint_spectrum(0.1, (0, 1), (0.0, 0.5), potential=HARMONIC)
    path = str(tmp_path / "spec.csv")
    write_spectrum_csv(table, path)
    assert read_spectrum_csv(path).potential == HARMONIC
    os.remove(path + ".meta.json")
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}.meta.json not found")):
        read_spectrum_csv(path)


def test_every_written_table_reads_back_equal(tmp_path, spec_h1em2):
    harmonic = joint_spectrum(0.1, (-1, 2), (0.05, 0.65), potential=HARMONIC)
    tables = [spec_h1em2, harmonic,
              dataclasses.replace(harmonic, n_range=(-3, 3),
                                  e_window=(0.0, 1.0),
                                  points=harmonic.points[::2])]
    for i, table in enumerate(tables):
        path = str(tmp_path / f"spec{i}.csv")
        write_spectrum_csv(table, path)
        back = read_spectrum_csv(path)
        assert back.points.tobytes() == table.points.tobytes()
        assert (back.h, back.n_range, back.e_window, back.config,
                back.potential) == (table.h, table.n_range, table.e_window,
                                    table.config, table.potential)
    # a table without rows has no h to write: no file is left to be read
    empty = str(tmp_path / "empty.csv")
    with pytest.raises(ConfigurationError, match="without rows"):
        write_spectrum_csv(dataclasses.replace(harmonic,
                                               points=harmonic.points[:0]),
                           empty)
    assert not os.path.exists(empty)


def test_a_table_of_numpy_numbers_reads_back_equal(tmp_path):
    # numpy integers in n_range and numpy floats in e_window are kept as
    # Python numbers, so that the sidecar holds numbers and the table reads
    # back equal; an n_range of other than two integers raises
    harmonic = joint_spectrum(0.1, (-1, 2), (0.05, 0.65), potential=HARMONIC)
    table = dataclasses.replace(harmonic, n_range=tuple(np.array([-1, 2])),
                                e_window=(np.float32(0.05), np.float64(0.65)))
    assert [type(v) for v in table.n_range + table.e_window] == [
        int, int, float, float]
    path = str(tmp_path / "spec.csv")
    write_spectrum_csv(table, path)
    back = read_spectrum_csv(path)
    assert (back.n_range, back.e_window) == (table.n_range, table.e_window)
    assert back.points.tobytes() == table.points.tobytes()
    for key, value in [("n_range", (0.5, 2)), ("n_range", (1,)),
                       ("e_window", ("0.05", 0.65))]:
        with pytest.raises(ConfigurationError,
                           match="two integers and two numbers"):
            dataclasses.replace(harmonic, **{key: value})


def test_a_potential_is_its_kind():
    # the coefficients come with the kind, and cannot be given apart from it
    assert PotentialSpec("harmonic_test").coefficients == (0.0, 0.5)
    assert PotentialSpec("harmonic_test") == HARMONIC
    with pytest.raises(TypeError):
        PotentialSpec("harmonic_test", (0.0, -1.0, 1.0))


def test_unknown_potential_kind_raises():
    with pytest.raises(ConfigurationError, match="custom_polynomial"):
        PotentialSpec("custom_polynomial")


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


def model_spacing(h, e_max, potential):
    """The largest spacing of the uniform part that the mesh rules allow:
    3 intervals per local wavelength 2 pi h / p_max, with p_max^2 = 2
    (e_max - min V) but at least 2e-3, and 16 per sqrt(h)."""
    p_max = math.sqrt(2.0 * max(e_max - WELL[potential.kind][1], 1e-3))
    return min(2.0 * math.pi * h / (3.0 * p_max), math.sqrt(h) / 16.0)


def uniform_spacing(h, config, potential, m):
    """The widest interval of the uniform part, sqrt(h) to r_max, of the
    n = 0 mesh of m intervals."""
    line = rs._Line(0, h, dataclasses.replace(config, grid_points=m),
                    potential)
    left = line.r0 + np.concatenate(([0.0], np.cumsum(line.d)[:-1]))
    return float(np.max(line.d[left >= math.sqrt(h) * (1 - 1e-9)]))


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
    # the mesh: the fewest intervals, at least 64, whose uniform part
    # meets the model spacing
    delta = model_spacing(h, e_max, potential)
    assert uniform_spacing(h, config, potential, grid) <= delta * (1.0 + 1e-9)
    assert (grid == 64
            or uniform_spacing(h, config, potential, grid - 1) > delta)


@pytest.mark.parametrize("n,x_half", [(0, 2.5), (10, 27.0)])
def test_default_grid_meets_the_error_target_at_h_1e_3(n, x_half):
    # against the three-mesh value (16 R_2m - R_m) / 15 from the Richardson
    # values on m, 2m and 4m, each line is within 1e-5 local gaps
    h = 1e-3
    e = x_half * math.sqrt(2.0) * h
    config = default_config(h, e)
    finer = DiscretizationConfig(r_max=config.r_max,
                                 grid_points=2 * config.grid_points)
    got = eigenvalues_in_window(n, h, config, CHAMPAGNE, -e, e)
    ref = eigenvalues_in_window(n, h, finer, CHAMPAGNE, -e, e)
    assert got.k.tolist() == ref.k.tolist() and len(got) > 5
    three_mesh = (16.0 * ref.E1 - got.E1) / 15.0
    gap = float(np.min(np.diff(three_mesh)))
    assert np.max(np.abs(got.E1 - three_mesh)) <= 1e-5 * gap


def test_mesh_size_is_capped_loudly():
    # |x| <= 2.5: h = 1e-5 takes about 3.4e4 intervals, and h = 1e-7 would
    # take about 3.4e6, more than the 2^19 allowed
    assert default_config(1e-5, X_HALF * 1e-5).grid_points < 1 << 16
    assert MAX_GRID_POINTS == 1 << 19
    with pytest.raises(ConfigurationError, match="intervals"):
        default_config(1e-7, X_HALF * 1e-7)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DiscretizationConfig(r_max=1.0, grid_points=8)
    # h is checked before the wall is sized
    for h in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ConfigurationError,
                           match="h must be finite and positive"):
            default_config(h, 0.1)
        with pytest.raises(ConfigurationError,
                           match="h must be finite and positive"):
            joint_spectrum(h, (0, 0), (-0.1, 0.1))
    with pytest.raises(ConfigurationError):
        joint_spectrum(1e-2, (2, 1), (-0.1, 0.1))
    # the wall must lie past sqrt(h), where the geometric mesh ends
    cfg = DiscretizationConfig(r_max=math.sqrt(0.1), grid_points=64)
    with pytest.raises(ConfigurationError, match=r"r_max > sqrt\(h\)"):
        eigenvalues_in_window(0, 0.1, cfg, HARMONIC, -1.0, 0.0)


def test_operator_requires_confining_window():
    cfg = DiscretizationConfig(r_max=1.0, grid_points=256)
    with pytest.raises(ConfigurationError, match="enlarge r_max"):
        eigenvalues_in_window(0, 0.1, cfg, HARMONIC, 0.0, 1.0)  # V(1) < 2 * 1
    # the wall is checked against the window solved, not the one the mesh
    # was sized for: V(r_max) = 0.642 is below 2 * 0.62
    cfg = default_config(1e-2, 0.05)
    with pytest.raises(ConfigurationError, match="enlarge r_max"):
        eigenvalues_in_window(0, 1e-2, cfg, CHAMPAGNE, 0.55, 0.62)


def test_a_table_holds_rows_of_its_h():
    # the table's h is checked against its rows, not taken on trust
    table = joint_spectrum(0.1, (0, 1), (0.1, 0.4), potential=HARMONIC)
    assert len(table.points) and table.h == 0.1
    with pytest.raises(ConfigurationError, match=re.escape(
            "h is 1.0, but row 0 has (h, n, k, E1) = (0.1, 0, ")):
        dataclasses.replace(table, h=1.0)
    same = dataclasses.replace(table, h=0.1)
    assert same.points.tobytes() == table.points.tobytes()


def test_a_row_fault_raises_the_same_error_however_the_table_is_made(
        tmp_path):
    # a row of another h, an n outside n_range, an E1 at the open top of
    # e_window, and k falling on a line, in a table built, replaced or read
    table = joint_spectrum(0.1, (0, 1), (0.05, 0.65), potential=HARMONIC)
    pts = table.points
    assert pts.n[:2].tolist() == [0, 0] and pts.k[:2].tolist() == [0, 1]
    faults = [
        ("h", 0.2, "h is 0.1, but row 1 has (h, n, k, E1) = (0.2, 0, 1, "),
        ("n", 2, "n_range is (0, 1), but row 1 has (h, n, k, E1) = "
                 "(0.1, 2, 1, "),
        ("E1", 0.65, "e_window is (0.05, 0.65), but row 1 has (h, n, k, "
                     "E1) = (0.1, 0, 1, 0.65)"),
        ("k", 0, "k does not increase strictly with E1 on line n=0: row 0 "
                 "has (h, n, k, E1) = (0.1, 0, 0, "),
    ]
    path = str(tmp_path / "spec.csv")
    write_spectrum_csv(table, path)
    for key, value, error in faults:
        bad = pts.copy()
        bad[key][1] = value
        messages = []
        for make in (lambda: rs.SpectrumTable(
                         h=table.h, n_range=table.n_range,
                         e_window=table.e_window, points=bad,
                         config=table.config, potential=table.potential),
                     lambda: dataclasses.replace(table, points=bad)):
            with pytest.raises(ConfigurationError) as exc:
                make()
            messages.append(str(exc.value))
        _write_csv(path, rs.POINT_DTYPE.names, bad.tolist())
        with pytest.raises(ConfigurationError) as exc:
            read_spectrum_csv(path)
        assert messages[0] == messages[1] and messages[0].startswith(error)
        assert str(exc.value) == f"{path} with {path}.meta.json: " \
            + messages[0]
    # the k fault names both rows of the line
    assert messages[0].endswith(
        f"and row 1 has {bad[['h', 'n', 'k', 'E1']][1].item()}")


def test_a_mesh_is_solved_at_the_h_of_the_call():
    # a mesh sized for h = 1e-2 carries no h: on it the table at h = 1e-3
    # has the rows and labels of the default mesh, at h = 1e-3
    table = joint_spectrum(1e-3, (0, 0), (-0.01, 0.01),
                           config=default_config(1e-2, 0.01))
    ref = joint_spectrum(1e-3, (0, 0), (-0.01, 0.01)).points
    assert len(ref) == 18 and table.points.k.tolist() == ref.k.tolist()
    assert set(table.points.h.tolist()) == {1e-3}
    gap = float(np.min(np.diff(ref.E1)))
    assert np.max(np.abs(table.points.E1 - ref.E1)) <= 0.05 * gap
