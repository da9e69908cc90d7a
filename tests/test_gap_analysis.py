"""Gap statistics, smallest-gap scaling, Weyl counts, volume estimate."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from champagne import gap_analysis
from champagne.bohr_sommerfeld import VARIANT_CHAMPAGNE
from champagne.errors import DomainError, SampleSizeError, _write_csv
from champagne.gap_analysis import (GapRecord, Window, dh_volume, gap_verdict,
                                    measure_gaps, smallest_gap_scan,
                                    weyl_count)

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def test_gap_records_sorted_and_positive(spec_h1em4):
    recs = measure_gaps(spec_h1em4, 0, (-10, 10))
    assert len(recs) > 10
    mids = [r.x_mid for r in recs]
    assert mids == sorted(mids)
    assert all(r.gap_measured > 0 for r in recs)


def test_gap_minimum_sits_at_the_center(spec_h1em4):
    recs = measure_gaps(spec_h1em4, 0, (-10, 10))
    best = min(recs, key=lambda r: r.gap_measured)
    assert abs(best.x_mid) <= best.gap_measured


def test_predictions_even_in_x(spec_h1em4):
    recs = measure_gaps(spec_h1em4, 0, (-10, 10))
    by_mid = {round(r.x_mid, 6): r for r in recs}
    for r in recs:
        mirror = by_mid.get(round(-r.x_mid, 6))
        if mirror is not None:
            assert r.gap_pred_champagne == pytest.approx(
                mirror.gap_pred_champagne, rel=1e-12)


def test_empty_line_warns(spec_h1em4):
    with pytest.warns(UserWarning):
        assert measure_gaps(spec_h1em4, 2, (100.0, 101.0)) == []


def test_verdict_consistent_across_h(spec_h1em3, spec_h1em4):
    verdict, table = gap_verdict({
        1e-3: measure_gaps(spec_h1em3, 0, (-10, 10)),
        1e-4: measure_gaps(spec_h1em4, 0, (-10, 10))})
    assert verdict == VARIANT_CHAMPAGNE
    # the O(1/ln h) correction scale bounds the winner's max error
    for h, (eg, ec) in table.items():
        assert min(eg, ec) <= TWO_PI / abs(math.log(h))


def test_verdict_names_an_h_without_records(spec_h1em3):
    # an empty line at one h is a DomainError naming that h, not a bare
    # ValueError of max()
    with pytest.raises(DomainError, match=re.escape("h=0.0001")):
        gap_verdict({1e-3: measure_gaps(spec_h1em3, 0, (-10, 10)),
                     1e-4: []})


def test_gaps_csv_format(tmp_path, spec_h1em4):
    recs = measure_gaps(spec_h1em4, 0, (-5, 5))
    path = str(tmp_path / "gaps.csv")
    _write_csv(path, GapRecord, recs)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == ("h,n,x_mid,gap_measured,gap_pred_general,"
                       "gap_pred_champagne,rel_err_general,rel_err_champagne")
    assert len(lines) == len(recs) + 1


def test_smallest_gap_scan_two_points():
    scan = smallest_gap_scan([1e-2, 1e-3])
    assert len(scan.rows) == 2
    hs = [r.h for r in scan.rows]
    assert scan.rows[0].gap_min_measured > scan.rows[1].gap_min_measured \
        or hs[0] < hs[1]
    # measured minima close to the champagne formula already at these h
    for r in scan.rows:
        assert r.gap_min_measured == pytest.approx(r.gap_min_champagne,
                                                   rel=0.10)


def test_smallest_gap_scan_rejects_one_h_before_solving(monkeypatch):
    # one distinct h determines no line: the error comes before any solve
    solves = []
    monkeypatch.setattr(gap_analysis, "joint_spectrum",
                        lambda *args, **kwargs: solves.append(args))
    for h_list in ([1e-2, 1e-2], [1e-4], []):
        with pytest.raises(DomainError, match="two distinct h"):
            smallest_gap_scan(h_list)
    assert solves == []


def test_weyl_empty_window(spec_h1em3):
    assert weyl_count(spec_h1em3, Window(1.0, 2.0, 0.3, 0.7)) == (0, 0.0)


def test_weyl_window_must_be_covered(spec_h1em3):
    with pytest.raises(DomainError):
        weyl_count(spec_h1em3, Window(4.0, 14.0, -40.0, 40.0))
    with pytest.raises(DomainError):
        weyl_count(spec_h1em3, Window(4.0, 80.0, -2.0, 2.0))


def test_weyl_single_slice_grows_like_log(spec_h1em2, spec_h1em3,
                                          spec_h1em4):
    K = Window(4.0, 12.5, -0.4, 0.4)  # selects only the n = 0 slice
    lnh, ns = [], []
    for spec in (spec_h1em2, spec_h1em3, spec_h1em4):
        n, pred = weyl_count(spec, K)
        lnh.append(abs(math.log(spec.h)))
        ns.append(n)
    slope, intercept = np.polyfit(lnh, ns, 1)
    fitted = np.polyval([slope, intercept], lnh)
    ss = 1 - np.sum((np.array(ns) - fitted) ** 2) \
        / np.sum((np.array(ns) - np.mean(ns)) ** 2)
    assert ss >= 0.99
    assert slope == pytest.approx(K.slice_length() / TWO_PI, rel=0.15)


def test_volume_scaling_by_two():
    a = Window(-0.1, 0.1, -0.1, 0.1)
    b = Window(-0.2, 0.2, -0.2, 0.2)
    assert b.area_tilde() == pytest.approx(4 * a.area_tilde(), rel=1e-14)


def test_volume_against_period_integral_oracle():
    # mu(hK) = int_{hK} 2 pi T(E, L) dE dL, computed by quadrature;
    # the Monte Carlo route never touches T
    from scipy.integrate import dblquad
    from champagne.classical_actions import radial_action

    h = 1e-3
    K = Window(18.0, 26.0, -3.0, 3.0)
    est = dh_volume(K, h, samples=4_000_000, seed=11)
    ref, _ = dblquad(lambda L, E: 2 * TWO_PI * radial_action(E, L).T,
                     h * K.t1_min, h * K.t1_max, 1e-12, h * K.t2_max,
                     epsabs=1e-14, epsrel=1e-7)
    ref /= (TWO_PI * h) ** 2
    assert est.mu_over_norm == pytest.approx(ref, rel=0.03)
    assert est.std_error / est.mu_over_norm <= 0.03


def test_volume_below_the_well_is_zero():
    est = dh_volume(Window(-300.0, -260.0, -1.0, 1.0), 1e-3,
                    samples=10_000)
    assert est.mu_over_norm == 0.0


def test_volume_sample_size_error():
    with pytest.raises(SampleSizeError):
        dh_volume(Window(18.0, 26.0, -0.001, 0.001), 1e-3, samples=24_000)


def test_volume_memory_does_not_grow_with_the_samples():
    # each stratum streams its draws in chunks and keeps two sums, so the
    # peak is a few chunk-sized arrays at 10^6 and at 10^7 samples alike
    K = Window(18.0, 26.0, -3.0, 3.0)
    peaks = []
    for samples in (1_000_000, 10_000_000):
        tracemalloc.start()
        try:
            dh_volume(K, 1e-3, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 8e6
    assert abs(peaks[1] - peaks[0]) <= 1e6


def test_volume_is_a_function_of_its_inputs():
    # the same (K, h, samples, seed) gives the same estimate; a stratum
    # share that is not a multiple of the chunk ends in a shorter chunk,
    # and the estimate reports the 24 (samples // 24) draws it used
    K = Window(18.0, 26.0, -3.0, 3.0)
    samples = 24 * (2 * gap_analysis._CHUNK + 5) + 7
    assert (samples // 24) % gap_analysis._CHUNK != 0
    est = dh_volume(K, 1e-3, samples=samples, seed=3)
    assert est == dh_volume(K, 1e-3, samples=samples, seed=3)
    assert est != dh_volume(K, 1e-3, samples=samples, seed=4)
    assert est.samples == 24 * (samples // 24)
    assert dh_volume(K, 1e-3).samples == 24 * (10_000_000 // 24)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_volume_rejects_an_h_that_is_not_finite_and_positive(h):
    with pytest.raises(DomainError, match="h must be finite and positive"):
        dh_volume(Window(18.0, 26.0, -3.0, 3.0), h)


def test_volume_rejects_a_leading_term_of_zero(monkeypatch):
    # a window of zero area, or h = 1 where |ln h| = 0: the ratio to the
    # leading term is undefined, and the error comes before any draw
    def no_draws(*args, **kwargs):
        raise AssertionError("dh_volume drew samples")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for K, h in ((Window(18.0, 26.0, 1.0, 1.0), 1e-3),
                 (Window(18.0, 18.0, -3.0, 3.0), 1e-3),
                 (Window(18.0, 26.0, -3.0, 3.0), 1.0)):
        with pytest.raises(DomainError, match="leading term"):
            dh_volume(K, h)
