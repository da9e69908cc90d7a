"""Lattice charts, transport, unwinding, Pick counting."""

import dataclasses
import math

import numpy as np
import pytest

from champagne import monodromy_lattice as ml
from champagne.errors import ChartError, DomainError, TransportError
from champagne.monodromy_lattice import (ChartTransition, LatticeChart,
                                         _fit_transition, count_in_polygon,
                                         fit_local_chart, l0_line,
                                         lattice_point_in_polygon,
                                         make_loop_polygon, pick_count,
                                         transport_chart, unwind,
                                         winding_around_origin)
from champagne.radial_spectrum import POINT_DTYPE

H = 1e-3


def square_lattice(m=10):
    ij = np.array([[i, j] for i in range(-m, m + 1)
                   for j in range(-m, m + 1)], dtype=float)
    return ij, H * ij


def fit_fixed(pts, center, radius):
    """_fit_chart_fixed on pts in the E2 order _points_array gives them,
    which the private chart helpers assume."""
    return ml._fit_chart_fixed(ml._points_array(pts), center, H, radius)


def test_chart_on_exact_lattice():
    ij, pts = square_lattice()
    chart = fit_fixed(pts, (0, 0), 4 * H)
    assert chart.residual < 1e-12
    # the fitted linear part is h * (an integer unimodular matrix)
    m = chart.linear
    assert np.allclose(m, np.rint(m), atol=1e-10)
    assert abs(round(np.linalg.det(np.rint(m)))) == 1


def test_chart_on_sheared_lattice():
    ij, _ = square_lattice()
    M = np.array([[1.0, 0.3], [0.0, 1.0]])
    pts = (H * ij) @ M.T
    chart = fit_fixed(pts, (0, 0), 4 * H)
    assert chart.residual < 1e-10
    # linear inverts the shear up to a left GL(2, Z) factor
    g = chart.linear @ M
    assert np.allclose(g, np.rint(g), atol=1e-8)
    assert abs(round(np.linalg.det(np.rint(g)))) == 1


def test_chart_tolerates_bounded_noise():
    ij, pts = square_lattice()
    rng = np.random.default_rng(1)
    noisy = pts + 0.02 * H * rng.uniform(-1, 1, pts.shape)
    chart = fit_fixed(noisy, (0, 0), 4 * H)
    assert chart.residual <= 0.05


def test_chart_needs_enough_points():
    _, pts = square_lattice(1)
    with pytest.raises(ChartError):
        fit_fixed(pts[:4], (0, 0), 10 * H)


def test_chart_rejects_large_distortion():
    ij, pts = square_lattice()
    warped = pts + 0.2 * H * np.sin(ij[:, :1] * 2.0)
    with pytest.raises(ChartError):
        fit_fixed(warped, (0, 0), 8 * H)


def test_chart_raises_when_labels_do_not_settle(monkeypatch):
    _, pts = square_lattice()
    solve = np.linalg.lstsq

    def drifting(a, b, rcond=None):
        # every refit moves the offset by h, so every label moves by one
        sol, *rest = solve(a, b, rcond=rcond)
        return (sol + [[0.0, 0.0], [0.0, 0.0], [H, H]], *rest)

    monkeypatch.setattr(np.linalg, "lstsq", drifting)
    with pytest.raises(ChartError, match="still changing"):
        fit_fixed(pts, (0, 0), 4 * H)


def test_transport_keeps_the_frame():
    _, pts = square_lattice()
    chart = fit_fixed(pts, (0, 0), 4 * H)
    moved = transport_chart(chart, (3 * H, H), pts)
    overlap = pts[chart.contains(pts) & moved.contains(pts)]
    assert len(overlap) >= 6
    assert np.array_equal(chart.labels(overlap), moved.labels(overlap))


def test_transport_needs_overlap():
    _, pts = square_lattice()
    chart = fit_fixed(pts, (-8 * H, -8 * H), 3 * H)
    with pytest.raises(TransportError):
        transport_chart(chart, (8 * H, 8 * H), pts)


def test_transport_rejects_a_frame_that_moved(monkeypatch):
    # a refit whose labels moved by one on the overlap is not the old frame
    _, pts = square_lattice()
    chart = fit_fixed(pts, (0, 0), 4 * H)
    fit = ml._fit_chart

    def shifted(*args, **kwargs):
        moved = fit(*args, **kwargs)
        return dataclasses.replace(moved, offset=moved.offset + [H, 0.0])

    monkeypatch.setattr(ml, "_fit_chart", shifted)
    with pytest.raises(TransportError, match="differs from the old one"):
        transport_chart(chart, (3 * H, H), pts)


def test_continuation_halves_a_step_that_fails(monkeypatch):
    _, pts = square_lattice()
    chart = fit_local_chart(pts, (0, 0), H)
    transport = ml.transport_chart
    tried = []

    def short_steps_only(old, center, points):
        tried.append(math.dist(old.center, center))
        if tried[-1] > 0.5 * H:
            raise TransportError("overlap too thin")
        return transport(old, center, points)

    monkeypatch.setattr(ml, "transport_chart", short_steps_only)
    end = ml._continue_chart(chart, (3 * H, 0.0), pts)
    assert end.center == (3 * H, 0.0)
    assert np.array_equal(end.labels(pts), chart.labels(pts))
    # the first step is STEP_FRACTION of the radius, then halved twice
    assert tried[:3] == pytest.approx(
        [ml.STEP_FRACTION * chart.radius / 2 ** i for i in range(3)])

    def never(old, center, points):
        tried.append(center)
        raise TransportError("overlap too thin")

    tried.clear()
    monkeypatch.setattr(ml, "transport_chart", never)
    with pytest.raises(TransportError):
        ml._continue_chart(chart, (3 * H, 0.0), pts)
    assert len(tried) == ml.MAX_STEP_HALVINGS + 1


def test_transition_rejects_a_collinear_overlap():
    # labels on one lattice row fix the transition only along that row
    _, pts = square_lattice()
    chart = fit_fixed(pts, (0, 0), 4 * H)
    row = pts[(pts[:, 1] == 0) & (np.abs(pts[:, 0]) <= 3 * H)]
    assert len(row) == 7
    with pytest.raises(TransportError, match="one lattice line"):
        _fit_transition(chart, chart, row, "on the row")
    assert _fit_transition(chart, chart, ml._points_array(pts),
                           "on the disc").is_identity()


def test_transition_rejects_non_integral_entries():
    with pytest.raises(ChartError, match="integral"):
        ChartTransition(np.array([[1.6, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ChartError, match="integral"):
        ChartTransition(np.eye(2), np.array([0.5, 0.0]))
    # integral, but not invertible over the integers
    with pytest.raises(ChartError, match="det"):
        ChartTransition(np.array([[2, 0], [0, 1]]), np.zeros(2, dtype=int))
    t = ChartTransition(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))
    assert t.matrix.dtype.kind == "i"
    assert t.matrix.tolist() == [[1, 1], [0, 1]]


# --- exact lattice geometry -------------------------------------------------

def test_pick_unit_square():
    assert pick_count([(0, 0), (1, 0), (1, 1), (0, 1)]) == 4


def test_pick_triangle():
    assert pick_count([(0, 0), (2, 0), (0, 2)]) == 6


def test_pick_orientation_independent():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert pick_count(square) == pick_count(list(reversed(square)))


def test_pick_rejects_degenerate():
    with pytest.raises(DomainError):
        pick_count([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DomainError):
        pick_count([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainError):
        pick_count([(0, 0), (3, 1), (3, -1), (0, 2)])  # crossing edges


def test_integer_geometry_rejects_coordinates_from_2_to_the_30():
    # the point lies outside the square, but int64 products of its
    # coordinate differences wrap round
    side = 2 ** 40
    square = [(0, 0), (side, 0), (side, side), (0, side)]
    with pytest.raises(DomainError, match="2\\^30"):
        lattice_point_in_polygon((3 * side, side // 2), square)
    with pytest.raises(DomainError, match="2\\^30"):
        lattice_point_in_polygon((3 * side, side // 2), [(0, 0), (1, 0), (0, 1)])
    for bad in (2 ** 30, -2 ** 30):
        with pytest.raises(DomainError, match="2\\^30"):
            pick_count([(0, 0), (bad, 0), (0, 1)])
    # the triangle's 2^30 points on its long edge and one above it
    top = 2 ** 30 - 1
    assert pick_count([(0, 0), (top, 0), (0, 1)]) == 2 ** 30 + 1
    assert pick_count([(0, 0), (-top, 0), (0, -1)]) == 2 ** 30 + 1
    assert lattice_point_in_polygon((top, 0), [(0, 0), (top, 0), (0, 1)])


def orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def on_segment(a, b, p):
    return (orient(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(a, b, c, d):
    if (orient(a, b, c) != orient(a, b, d)
            and orient(c, d, a) != orient(c, d, b)):
        return True
    return (on_segment(a, b, c) or on_segment(a, b, d)
            or on_segment(c, d, a) or on_segment(c, d, b))


def reference_validate_simple(v):
    """Twice the signed area of the polygon v, in Python integers, testing
    each pair of non-adjacent edges on its own; DomainError as
    pick_count raises it."""
    m = len(v)
    if m < 3:
        raise DomainError("polygon needs at least 3 vertices")
    for i in range(m):
        if v[i] == v[(i + 1) % m]:
            raise DomainError(f"repeated consecutive vertex at {i}")
    area2 = sum(v[i][0] * v[(i + 1) % m][1] - v[(i + 1) % m][0] * v[i][1]
                for i in range(m))
    if area2 == 0:
        raise DomainError("degenerate polygon (zero area)")
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            if segments_intersect(v[i], v[(i + 1) % m], v[j], v[(j + 1) % m]):
                raise DomainError(
                    f"polygon self-intersects: edges {i} and {j}")
    return area2


def reference_pick_count(vertices):
    v = [tuple(p) for p in vertices]
    if len(v) > 1 and v[0] == v[-1]:
        v = v[:-1]
    area2 = abs(reference_validate_simple(v))
    boundary = sum(math.gcd(b[0] - a[0], b[1] - a[1])
                   for a, b in zip(v, v[1:] + v[:1]))
    return (area2 + boundary) // 2 + 1


def outcome(count, vertices):
    try:
        return count(vertices)
    except DomainError as exc:
        return str(exc)


def test_pick_matches_the_pairwise_oracle():
    # small boxes give repeated vertices, collinear and touching edges and
    # crossings; each polygon must get the oracle's count or its error
    rng = np.random.default_rng(2024)
    kinds = ("polygon needs", "repeated", "degenerate", "polygon self")
    seen = set()
    for _ in range(3000):
        v = rng.integers(-3, 4, (int(rng.integers(3, 9)), 2)).tolist()
        if rng.random() < 0.1:
            v.append(v[0])
        want = outcome(reference_pick_count, v)
        assert outcome(pick_count, v) == want, v
        seen.add(next((k for k in kinds if str(want).startswith(k)), "count"))
    assert seen == {*kinds, "count"}


def random_simple_polygon(rng):
    """Star-shaped polygon through random integer points in [-20, 20]^2."""
    while True:
        m = int(rng.integers(3, 9))
        pts = rng.integers(-20, 21, (m, 2))
        if len({tuple(p) for p in pts}) < m:
            continue
        c = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
        v = [tuple(map(int, pts[i])) for i in order]
        try:
            pick_count(v)
        except DomainError:
            continue
        return v


def brute_force_count(v):
    """Points of the bounding box of v that lie inside or on it, each
    tested on its own."""
    xs, ys = zip(*v)
    box = np.mgrid[min(xs):max(xs) + 1, min(ys):max(ys) + 1]
    return int(np.count_nonzero(
        lattice_point_in_polygon(box.reshape(2, -1).T, v)))


def test_pick_against_brute_force_100_polygons():
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = random_simple_polygon(rng)
        assert pick_count(v) == brute_force_count(v), v


def test_point_in_polygon_boundary_inclusive():
    sq = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert lattice_point_in_polygon((0, 2), sq)
    assert lattice_point_in_polygon((2, 2), sq)
    assert not lattice_point_in_polygon((5, 2), sq)
    assert not lattice_point_in_polygon((-1, 0), sq)


def reference_point_in_polygon(p, v):
    """Point by point in Python integers: on an edge, or an odd number of
    edge crossings of the ray to +x."""
    x, y = p
    for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
        if ((bx - ax) * (y - ay) == (x - ax) * (by - ay)
                and min(ax, bx) <= x <= max(ax, bx)
                and min(ay, by) <= y <= max(ay, by)):
            return True
    inside = False
    for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
        if (ay > y) != (by > y):
            lhs = (bx - ax) * (y - ay) - (x - ax) * (by - ay)
            inside ^= lhs > 0 if by > ay else lhs < 0
    return inside


def test_point_in_polygon_on_an_array_of_points():
    # one (m, 2) call gives the point-by-point answers, closed input too
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = random_simple_polygon(rng)
        pts = rng.integers(-21, 22, (300, 2))
        ref = [reference_point_in_polygon(p, v) for p in pts.tolist()]
        assert lattice_point_in_polygon(pts, v).tolist() == ref
        assert lattice_point_in_polygon(pts, v + v[:1]).tolist() == ref
        assert [lattice_point_in_polygon(p, v) for p in pts[:20]] \
            == ref[:20]


# --- real spectra -------------------------------------------------------------

def table_rows(records):
    """A polygon as make_loop_polygon returns it: a POINT_DTYPE record
    array of table rows."""
    return np.asarray(records, dtype=POINT_DTYPE).view(np.recarray)


def exact_line_count(spectrum, polygon):
    """Chart-free oracle: per line, the points between its two vertices."""
    per = {}
    for v in polygon:
        per.setdefault(v.n, []).append(v.x)
    total = 0
    for n, xs in per.items():
        lo, hi = min(xs), max(xs)
        total += sum(1 for p in spectrum.line(n) if lo <= p.x <= hi)
    return total


def test_unwind_enclosing_loop(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 20.0, seed=0)
    res = unwind(poly, spec_h5em3)
    assert res.closed
    M = res.monodromy.matrix
    assert int(np.trace(M)) == 2
    assert round(float(np.linalg.det(M))) == 1
    assert not res.monodromy.is_identity()
    I = np.eye(2, dtype=int)
    assert np.array_equal((M - I) @ (M - I), 0 * I)


def test_unwind_rejects_fewer_than_three_vertices(spec_h5em3):
    # an empty polygon is a DomainError, as two rows are, not an IndexError
    # from reading its first row
    for rows in (0, 1, 2):
        with pytest.raises(DomainError, match="at least 3 vertices"):
            unwind(spec_h5em3.points[:rows], spec_h5em3)


def test_count_matches_a_point_by_point_count(spec_h5em3):
    # the corners are converted once for all the lines; each row placed
    # on its own by lattice_point_in_polygon gives the same N_spec
    for poly in (make_loop_polygon(spec_h5em3, 18.0, seed=7),
                 make_loop_polygon(spec_h5em3, 4.0, n_top=3, seed=2,
                                   center=(-18.0, -5.0), enclosing=False)):
        corners = np.column_stack([poly.k, poly.n])
        rows = spec_h5em3.points[(spec_h5em3.points.n >= poly.n.min())
                                 & (spec_h5em3.points.n <= poly.n.max())]
        one_by_one = sum(lattice_point_in_polygon((int(p.k), int(p.n)),
                                                  corners) for p in rows)
        n_spec, _ = count_in_polygon(spec_h5em3, poly,
                                     unwind(poly, spec_h5em3))
        assert n_spec == one_by_one > 0


def test_unwind_non_enclosing_is_identity(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 4.0, n_top=3, seed=1,
                             center=(18.0, 6.0), enclosing=False)
    res = unwind(poly, spec_h5em3)
    assert res.monodromy.is_identity()
    assert res.closed


def test_count_equality_and_oracle(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 18.0, seed=7)
    n_spec, n_pick = count_in_polygon(spec_h5em3, poly,
                                      unwind(poly, spec_h5em3))
    assert n_spec == n_pick
    assert n_spec == exact_line_count(spec_h5em3, poly)
    # the same loop the other way round: its lower arc comes first
    rev = table_rows(np.concatenate([poly[:1], poly[:0:-1]]))
    assert count_in_polygon(spec_h5em3, rev, unwind(rev, spec_h5em3)) \
        == (n_spec, n_pick)


def test_count_non_enclosing(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 4.0, n_top=3, seed=2,
                             center=(-18.0, -5.0), enclosing=False)
    assert winding_around_origin(ml._plane(poly)) == 0
    n_spec, n_pick = count_in_polygon(spec_h5em3, poly,
                                      unwind(poly, spec_h5em3))
    assert n_spec == n_pick == exact_line_count(spec_h5em3, poly)


def test_enclosing_must_start_on_l0(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 18.0, seed=3)
    shifted = table_rows(np.roll(poly, -5))
    res = unwind(shifted, spec_h5em3)
    with pytest.raises(DomainError):
        count_in_polygon(spec_h5em3, shifted, res)


def test_count_reads_no_chart(spec_h5em3):
    # N_spec is counted on the table's (k, n) labels, so the same unwound
    # polygon without its charts gives the same counts
    for poly in (make_loop_polygon(spec_h5em3, 18.0, seed=7),
                 make_loop_polygon(spec_h5em3, 4.0, n_top=3, seed=2,
                                   center=(-18.0, -5.0), enclosing=False)):
        res = unwind(poly, spec_h5em3)
        assert count_in_polygon(spec_h5em3, poly,
                                dataclasses.replace(res, charts=[])) \
            == count_in_polygon(spec_h5em3, poly, res)


def test_count_rejects_an_edge_that_skips_a_line(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 18.0, seed=7)
    assert poly.n[:3].tolist() == [0, 1, 2]
    skipping = table_rows(np.delete(poly, 1))
    res = unwind(skipping, spec_h5em3)
    with pytest.raises(DomainError, match="skip a line"):
        count_in_polygon(spec_h5em3, skipping, res)


def test_enclosing_needs_two_vertices_on_l0(spec_h5em3):
    # a third n = 0 vertex, the start vertex's neighbour on its line
    poly = make_loop_polygon(spec_h5em3, 18.0, seed=7)
    start = poly[0]
    line = spec_h5em3.line(0)
    inner = line[line.k == start.k - 1]
    third = table_rows(np.concatenate([poly[:1], inner, poly[1:]]))
    res = unwind(third, spec_h5em3)
    with pytest.raises(DomainError,
                       match=r"exactly 2 vertices there, not those at \[0, 1,"):
        count_in_polygon(spec_h5em3, third, res)


def test_l0_line_is_the_n0_line(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 20.0, seed=0)
    res = unwind(poly, spec_h5em3)
    fixed = l0_line(spec_h5em3, res.charts, res.monodromy)
    assert len(fixed) > 0
    assert all(p.n == 0 for p in fixed)


def test_l0_line_identity_monodromy_warns(spec_h5em3):
    poly = make_loop_polygon(spec_h5em3, 4.0, n_top=3, seed=1,
                             center=(18.0, 6.0), enclosing=False)
    res = unwind(poly, spec_h5em3)
    with pytest.warns(UserWarning):
        assert len(l0_line(spec_h5em3, res.charts, res.monodromy)) == 0


@pytest.mark.parametrize("matrix, shift", [([[1, 0], [2, 1]], [0, 1]),
                                           ([[1, 0], [0, 1]], [1, 0])],
                         ids=["odd", "translation"])
def test_l0_line_warns_when_nothing_is_fixed(spec_h5em3, matrix, shift):
    # k -> matrix k + shift fixes no lattice point: 2 k1 = -1, or 0 = -1
    poly = make_loop_polygon(spec_h5em3, 20.0, seed=0)
    res = unwind(poly, spec_h5em3)
    monodromy = ChartTransition(np.array(matrix), np.array(shift))
    with pytest.warns(UserWarning, match="no eigenvalue is fixed"):
        assert len(l0_line(spec_h5em3, res.charts, monodromy)) == 0


def test_transition_rejects_a_non_integral_monodromy(spec_h5em3):
    # a last chart sheared by 0.4 against the first: the end-to-start
    # transition, which unwind takes as the monodromy, rounds to the
    # identity but is not integral
    p = spec_h5em3.line(0)[-1]
    first = fit_local_chart(spec_h5em3, (p.E1, p.E2), spec_h5em3.h)
    shear = np.array([[1.0, 0.4], [0.0, 1.0]])
    last = LatticeChart(center=first.center, linear=shear @ first.linear,
                        offset=shear @ first.offset, radius=first.radius,
                        h=first.h)
    with pytest.raises(TransportError, match="does not hold"):
        _fit_transition(first, last, ml._points_array(spec_h5em3),
                        "of the start and end charts")


def test_disc_and_overlap_rows_are_those_of_a_scan_of_every_row(
        spec_h5em3, monkeypatch):
    # a disc's rows are found in its E2 band, an overlap's in the band of
    # the first disc; a scan of every row finds the same rows in the same
    # order
    pts = ml._points_array(spec_h5em3)
    h = spec_h5em3.h
    seen = []
    labels = LatticeChart.labels

    def recording(chart, p):
        seen.append(p)
        return labels(chart, p)

    monkeypatch.setattr(LatticeChart, "labels", recording)
    frame = fit_local_chart(spec_h5em3, (20 * math.sqrt(2) * h, 5 * h), h)
    rng = np.random.default_rng(2110)
    overlaps = 0
    for _ in range(40):
        center = pts[rng.integers(len(pts))] + h * rng.uniform(-1, 1, 2)
        radius = h * rng.uniform(0.5, 6.0)
        every = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        assert np.array_equal(ml._disc(pts, center, radius),
                              pts[every <= radius])
        # the same frame on two discs: the identity on the overlap
        one, two = (dataclasses.replace(frame, center=tuple(c), radius=radius)
                    for c in (center, center + radius * rng.uniform(-1, 1, 2)))
        want = pts[one.contains(pts) & two.contains(pts)]
        seen.clear()
        try:
            assert _fit_transition(one, two, pts, "here").is_identity()
        except TransportError:
            assert not seen
            continue
        overlaps += 1
        assert np.array_equal(seen[0], want)
    assert overlaps >= 20


def chart_or_error(points, center, h):
    try:
        chart = fit_local_chart(points, center, h)
    except ChartError as exc:
        return str(exc)
    return (chart.center, chart.linear.tolist(), chart.offset.tolist(),
            chart.radius, chart.residual)


def test_a_chart_does_not_depend_on_the_order_of_the_rows(spec_h5em3):
    # an array's rows are sorted on entry as a table's are, so every fit,
    # and every error, is that of the table
    h = spec_h5em3.h
    pts = ml._plane(spec_h5em3.points)
    shuffled = pts[np.random.default_rng(7).permutation(len(pts))]
    centers = pts[np.random.default_rng(8).integers(len(pts), size=20)]
    outcomes = [chart_or_error(spec_h5em3, c, h) for c in centers]
    assert [chart_or_error(shuffled, c, h) for c in centers] == outcomes
    assert sum(isinstance(o, tuple) for o in outcomes) >= 10
    chart = fit_local_chart(spec_h5em3, centers[0], h)
    step = (centers[0][0] + chart.radius / 3, centers[0][1])
    moved = transport_chart(chart, step, spec_h5em3)
    again = transport_chart(chart, step, shuffled)
    assert again.radius == moved.radius
    assert np.array_equal(again.linear, moved.linear)
    assert np.array_equal(again.offset, moved.offset)


def test_unwind_measures_the_local_spacing_once(spec_h5em3, monkeypatch):
    # the first chart measures the spacing of the points; every transported
    # disc takes it from the frame it continues
    calls = []
    spacing = ml.local_spacing
    transport = ml.transport_chart

    def counting(*args):
        calls.append(args)
        return spacing(*args)

    def moved(*args):
        calls.append(None)
        return transport(*args)

    monkeypatch.setattr(ml, "local_spacing", counting)
    monkeypatch.setattr(ml, "transport_chart", moved)
    res = unwind(make_loop_polygon(spec_h5em3, 19.0, seed=3), spec_h5em3)
    assert res.closed
    assert calls.count(None) > 50
    assert len(calls) - calls.count(None) == 1


def test_frame_spacing_is_the_shortest_lattice_vector():
    # columns (2, 0) h and (1, 1) h: |c1 - c2| = sqrt(2) h is the shortest
    basis = H * np.array([[2.0, 1.0], [0.0, 1.0]])
    frame = LatticeChart(center=(0.0, 0.0), linear=H * np.linalg.inv(basis),
                         offset=np.zeros(2), radius=H, h=H)
    assert ml._frame_spacing(frame) == pytest.approx(math.sqrt(2) * H,
                                                     rel=1e-12)


def first_chart_fixed(spectrum, charts, monodromy):
    """The rows the monodromy fixes, each labelled by the first chart
    whose disc holds it, every row tested against every chart."""
    pts = ml._plane(spectrum.points)
    labels = np.zeros((len(pts), 2), dtype=int)
    covered = np.zeros(len(pts), dtype=bool)
    for ch in charts:
        new = ch.contains(pts) & ~covered
        labels[new] = ch.labels(pts[new])
        covered |= new
    N = monodromy.matrix - np.eye(2, dtype=int)
    return spectrum.points[covered & np.all(labels @ N.T == -monodromy.shift,
                                            axis=1)]


def test_l0_line_labels_each_point_by_the_first_chart_that_holds_it(
        spec_h5em3):
    # the disc bands give the fixed rows of a scan of every row per chart,
    # also when each chart labels the rows of its disc its own way
    poly = make_loop_polygon(spec_h5em3, 20.0, seed=0)
    res = unwind(poly, spec_h5em3)
    h = spec_h5em3.h
    moved = [dataclasses.replace(ch, offset=ch.offset + h * (i % 5))
             for i, ch in enumerate(res.charts)]
    for charts in (res.charts, moved):
        want = first_chart_fixed(spec_h5em3, charts, res.monodromy)
        assert len(want) > 0
        assert np.array_equal(l0_line(spec_h5em3, charts, res.monodromy),
                              want)


def test_a_non_enclosing_loop_must_not_wind_around_the_critical_value(
        spec_h5em3):
    with pytest.raises(DomainError, match=r"enclosing=False.*radius 14 "
                       r"around the center \(0, 0\)"):
        make_loop_polygon(spec_h5em3, 14.0, seed=3, enclosing=False)


def test_chain_failure_names_the_segment(spec_h5em3):
    # a polygon with a huge jump cannot be glued; the error says where
    verts = [spec_h5em3.line(0)[0], spec_h5em3.line(20)[-1],
             spec_h5em3.line(-20)[0]]
    poly = table_rows(verts)
    with pytest.raises((ChartError, TransportError), match="segment"):
        unwind(poly, spec_h5em3)


def is_unipotent(transition):
    """Trace 2, determinant 1 and not the identity: one Jordan block."""
    (a, b), (c, d) = transition.matrix.tolist()
    return a + d == 2 and a * d - b * c == 1 and not transition.is_identity()


# loops whose chart chains cross an overlap with all its labels on one
# lattice line, where a least-squares transition was undetermined and
# rounded to a map with |det| != 1
COLLINEAR_OVERLAP_LOOPS = [
    dict(radius=21.998441741015608, seed=534892),
    dict(radius=20.918380696132694, seed=13),
    dict(radius=17.472906328845056, seed=81),
    dict(radius=21.801210145509252, seed=133),
    dict(radius=4.880895862108021, seed=1031959,
         center=(-15.155786870177318, 10), enclosing=False),
    dict(radius=6.875910371385739, seed=128,
         center=(-13.233172866935778, 6), enclosing=False),
    dict(radius=4.791109816588312, seed=130,
         center=(-14.44448689356626, 5), enclosing=False),
]


def check_loop(spectrum, loop):
    """Unwind one loop: unipotent monodromy when it encloses the critical
    value, the identity otherwise, a closed polygon, and
    N_spec == N_pick == the chart-free count."""
    enclosing = loop.get("enclosing", True)
    poly = make_loop_polygon(spectrum, loop["radius"], seed=loop["seed"],
                             center=loop.get("center", (0.0, 0.0)),
                             enclosing=enclosing)
    res = unwind(poly, spectrum)
    if enclosing:
        assert is_unipotent(res.monodromy)
    else:
        assert res.monodromy.is_identity()
    assert res.closed
    n_spec, n_pick = count_in_polygon(spectrum, poly, res)
    assert n_spec == n_pick == exact_line_count(spectrum, poly)


@pytest.mark.parametrize("loop", COLLINEAR_OVERLAP_LOOPS,
                         ids=lambda loop: f"seed{loop['seed']}")
def test_chart_chain_across_a_collinear_overlap(spec_h5em3, loop):
    check_loop(spec_h5em3, loop)


def sweep_loops(count=24, seed=20261018):
    """Seeded loops on the unwinding table, alternately enclosing ones of
    radius in [14, 22] and non-enclosing ones of radius in [4, 7] centred
    at |x| in [12, 16], on both E1 sides, and n in -10..10."""
    rng = np.random.default_rng(seed)
    loops = []
    for i in range(count):
        if i % 2 == 0:
            loops.append(dict(radius=float(rng.uniform(14.0, 22.0)),
                              seed=int(rng.integers(1 << 20))))
        else:
            side = 1.0 if i % 4 == 1 else -1.0
            loops.append(dict(radius=float(rng.uniform(4.0, 7.0)),
                              seed=int(rng.integers(1 << 20)),
                              center=(side * float(rng.uniform(12.0, 16.0)),
                                      int(rng.integers(-10, 11))),
                              enclosing=False))
    return loops


@pytest.mark.parametrize("loop", sweep_loops(),
                         ids=lambda loop: f"seed{loop['seed']}")
def test_seeded_loop_sweep(spec_h5em3, loop):
    check_loop(spec_h5em3, loop)
