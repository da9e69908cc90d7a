"""Experiment definitions: the tables they read and the bounds they apply."""

from dataclasses import replace

import numpy as np
import pytest

from champagne import experiments as ex
from champagne.errors import DomainError


def test_experiments_read_only_their_h_values(spec_h1em2, spec_h1em3,
                                              spec_h1em4):
    with pytest.raises(DomainError, match="reads h"):
        ex.weyl([spec_h1em2, spec_h1em3])
    with pytest.raises(DomainError, match="reads h"):
        ex.weyl([spec_h1em3, spec_h1em4, spec_h1em4])


def thinned(spec):
    """spec with every other n = 0 level removed: the gaps there double."""
    pts = spec.points
    return replace(spec, points=np.delete(pts,
                                          np.flatnonzero(pts.n == 0)[::2]))


def test_gap_law_at_one_h(spec_h1em2):
    out = ex.gap_law([spec_h1em2])
    winner, records = out.measured
    assert out.ok and list(records) == [spec_h1em2.h]
    assert not ex.gap_law([thinned(spec_h1em2)]).ok


def test_smallest_gap_rejects_a_thinned_line(spec_h1em2, spec_h1em3,
                                             spec_h1em4, spec_h1em5):
    tables = [spec_h1em2, spec_h1em3, spec_h1em4, spec_h1em5]
    assert ex.smallest_gap(tables).ok
    out = ex.smallest_gap(tables[:2] + [thinned(spec_h1em4), spec_h1em5])
    assert not out.ok
    row = next(r for r in out.measured.rows if r.h == ex.GAP_MIN_H)
    assert row.gap_min_measured > 1.5 * row.gap_min_champagne


def test_unwinding_loop_passes(spec_h5em3):
    out = ex.quantum_loop(spec_h5em3, ex.UNWINDING_RADIUS, seed=0)
    poly, res, (n_spec, n_pick) = out.measured
    assert out.ok and n_spec == n_pick
    assert res.monodromy.matrix.tolist() != [[1, 0], [0, 1]]


def test_unwinding_loop_rejects_a_fixed_line_off_n0(spec_h5em3, monkeypatch):
    # the monodromy's fixed line must be the n = 0 line: one fixed row on
    # n = 1 fails the loop, and so does an empty fixed line
    row = spec_h5em3.line(1)[:1]
    for fixed in (row, row[:0]):
        monkeypatch.setattr(ex.ml, "l0_line", lambda *args: fixed)
        out = ex.quantum_loop(spec_h5em3, ex.UNWINDING_RADIUS, seed=0)
        assert not out.ok
        assert "on n = 0 = False" in out.detail
