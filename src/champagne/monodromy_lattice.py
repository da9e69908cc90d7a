"""Quantum monodromy from computed joint spectra.

Away from the critical value the joint spectrum is locally a deformed
affine image of h Z^2.  This module fits such lattice charts from data,
continues one chart frame along closed polygonal lines through the
spectrum (the developing map), extracts the monodromy as the end-to-start
chart transition, and checks the counting identity N_spec = N_pick: the
eigenvalues of a spectrum polygon, counted on the spectrum by their
(k, n) labels with no chart, against Pick's formula on the developed
polygon.

All integer geometry (point-in-polygon, Pick counts, transitions) is done
in exact arithmetic; floating point only enters through the chart fits,
whose rounding residual is explicitly budgeted (CHART_RESIDUAL_MAX =
0.05).  A transition is read off the two chart frames and must hold
exactly, in integers, on every point of the chart overlap: the identity
for each step of a continued frame, and the monodromy from the last
chart of a loop to the first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartError, DomainError, TransportError

CHART_RESIDUAL_MAX = 0.05
CHART_CONDITION_MAX = 1e3
MIN_CHART_POINTS = 6
# unwind moves a chart at most this fraction of its radius per step, so
# that consecutive discs share a two-dimensional patch of points, and
# halves a step whose overlap is still too thin at most this many times
STEP_FRACTION = 0.5
MAX_STEP_HALVINGS = 4


def _points_array(spectrum) -> np.ndarray:
    """(E1, E2) rows of a SpectrumTable, in table order, or of an (m, 2)
    array, sorted by (E2, E1) unless its E2 column is already
    non-decreasing.  Either way E2 does not decrease down the rows, which
    the private chart helpers assume: the rows of a disc then lie in one
    slice, its _band."""
    if not isinstance(spectrum, np.ndarray):
        # sorted by (n, E1) with E2 = h n
        return _plane(spectrum.points)
    pts = np.asarray(spectrum, dtype=float)
    if np.any(pts[1:, 1] < pts[:-1, 1]):
        pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    return pts


def _plane(records) -> np.ndarray:
    return np.column_stack([records.E1, records.E2])


# --- charts --------------------------------------------------------------

@dataclass(frozen=True)
class LatticeChart:
    """Affine identification P -> (linear P + offset)/h of a spectrum disc
    with the straight integer lattice."""

    center: tuple
    linear: np.ndarray
    offset: np.ndarray
    radius: float
    h: float
    residual: float = 0.0

    def labels(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        real = (pts @ self.linear.T + self.offset) / self.h
        return np.rint(real).astype(int)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - np.asarray(self.center, dtype=float)
        return np.hypot(d[:, 0], d[:, 1]) <= self.radius


def _band(pts: np.ndarray, center, radius: float) -> slice:
    """Rows of pts, sorted by E2, whose E2 lies within radius of the
    center's: a superset of the rows within radius of the center.  The
    bounds are widened by far more than rounding, so that no row a disc
    test accepts is left out."""
    pad = 1e-12 * (abs(center[1]) + radius)
    lo, hi = np.searchsorted(pts[:, 1], (center[1] - radius - pad,
                                         center[1] + radius + pad))
    return slice(lo, hi)


def _disc(pts: np.ndarray, center, radius: float) -> np.ndarray:
    """The rows of pts, sorted by E2, within radius of center, in order;
    only the disc's _band is scanned."""
    band = pts[_band(pts, center, radius)]
    return band[np.hypot(band[:, 0] - center[0],
                         band[:, 1] - center[1]) <= radius]


def _det(m) -> int:
    """Determinant of an integer 2x2 matrix, in Python integers."""
    (a, b), (c, d) = np.asarray(m).tolist()
    return a * d - b * c


def _inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of an invertible 2x2 matrix, by its adjugate."""
    (a, b), (c, d) = m.tolist()
    det = a * d - b * c
    return np.array([[d / det, -b / det], [-c / det, a / det]])


def _condition(m: np.ndarray) -> float:
    """2-norm condition number of a 2x2 matrix, s_max / s_min from the
    closed-form singular values s_max = (|(a + d, b - c)| + |(a - d, b +
    c)|) / 2 and s_min = |det| / s_max; inf when it is singular."""
    (a, b), (c, d) = m.tolist()
    s_max = 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))
    det = abs(a * d - b * c)
    return s_max * s_max / det if det else math.inf


def _affine_fit(pts: np.ndarray, targets: np.ndarray) -> tuple:
    """(linear, offset) of the least-squares affine map pts -> targets,
    both (m, 2): the 2x2 normal equations of the rows minus their mean,
    solved by the adjugate, then the offset that maps the mean of pts to
    that of targets."""
    mean = pts.mean(axis=0)
    p = pts - mean
    # linear^T solves (p^T p) linear^T = p^T targets
    linear = (p.T @ targets).T @ _inverse(p.T @ p)
    return linear, targets.mean(axis=0) - linear @ mean


@dataclass(frozen=True)
class ChartTransition:
    """Integer-affine map k -> matrix k + shift between chart label frames."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=int)
        s = np.asarray(self.shift, dtype=int)
        if not (np.array_equal(m, self.matrix)
                and np.array_equal(s, self.shift)):
            raise ChartError(f"transition {np.asarray(self.matrix).tolist()}"
                             f", {np.asarray(self.shift).tolist()} is not "
                             "integral")
        if abs(_det(m)) != 1:
            raise ChartError(f"transition matrix {m.tolist()} has |det| != 1")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(2, dtype=int))
                    and np.array_equal(self.shift, [0, 0]))


def local_spacing(points: np.ndarray, center) -> float:
    """Median nearest-neighbor distance among the 9 points nearest center."""
    pts = _points_array(points)
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    idx = np.argsort(d)[:9]
    sub = pts[idx]
    diff = sub[:, None, :] - sub[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    return float(np.median(np.min(dist, axis=1)))


def fit_local_chart(points, center, h: float) -> LatticeChart:
    """Fit an affine lattice chart on the disc around center.

    Basis candidates are the two shortest linearly independent
    nearest-neighbor difference vectors; the affine map is then refined by
    least squares against rounded integer labels until the labels are
    stable.  The disc starts at 3.5 local spacings (local_spacing near
    center; a disc transported by transport_chart takes its spacing from
    the old frame's lattice instead) and shrinks until the residual
    budget is met.  Raises ChartError when fewer than 6 points
    fall in the disc, the neighbor geometry is degenerate, the
    infinity-norm rounding residual exceeds CHART_RESIDUAL_MAX,
    or the linear part is ill conditioned.
    """
    return _fit_chart(_points_array(points), center, h)


def _frame_spacing(frame: LatticeChart) -> float:
    """Length of the shortest of c1, c2 and c1 +- c2, where c1 and c2,
    the columns of h inv(frame.linear), span the lattice of points the
    frame labels by Z^2."""
    c1, c2 = (frame.h * _inverse(frame.linear)).T
    return min(math.hypot(*c) for c in (c1, c2, c1 + c2, c1 - c2))


def _fit_chart(pts_all: np.ndarray, center, h: float,
               frame: LatticeChart | None = None) -> LatticeChart:
    """fit_local_chart, refined from frame's (linear, offset) when given
    instead of from a nearest-neighbor basis.  The disc then starts at
    3.5 spacings of the frame's lattice, not of the points near center,
    shrunk by the same steps of 0.75 while frame's residual, scaled by
    the square of the radius ratio as a curved lattice's is, would
    exceed CHART_RESIDUAL_MAX; the smallest of the four radii is always
    tried.  pts_all is sorted as _points_array returns it."""
    center = (float(center[0]), float(center[1]))
    r = 3.5 * (local_spacing(pts_all, center) if frame is None
               else _frame_spacing(frame))
    tries = 4
    while (frame is not None and tries > 1 and frame.residual
           * (r / frame.radius) ** 2 > CHART_RESIDUAL_MAX):
        r *= 0.75
        tries -= 1
    last = None
    for _ in range(tries):
        try:
            return _fit_chart_fixed(pts_all, center, h, r, frame)
        except TransportError:
            # the fit passed at this radius: the frame was not kept
            raise
        except ChartError as exc:
            last = exc
            r *= 0.75
    raise last


def _neighbor_frame(pts: np.ndarray, center, h: float) -> tuple:
    """(linear, offset) of the basis of the two shortest linearly
    independent difference vectors, anchored on the point nearest center."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    flat = np.argsort(dist, axis=None)
    d1 = None
    d2 = None
    for f in flat:
        i, j = np.unravel_index(f, dist.shape)
        v = diff[i, j]
        if d1 is None:
            d1 = v
            continue
        if abs(d1[0] * v[1] - d1[1] * v[0]) > 0.3 * np.hypot(*d1) * np.hypot(*v):
            d2 = v
            break
    if d2 is None:
        raise ChartError(f"degenerate neighbor geometry at {center}")

    basis = np.column_stack([d1, d2])
    linear = h * _inverse(basis)
    # anchor on the point nearest the center: the center itself need not
    # be a lattice point, and a half-integer anchor stalls the rounding
    anchor = pts[np.argmin(np.hypot(pts[:, 0] - center[0],
                                    pts[:, 1] - center[1]))]
    return linear, -linear @ anchor


def _fit_chart_fixed(pts_all: np.ndarray, center, h: float, radius: float,
                     frame: LatticeChart | None = None) -> LatticeChart:
    """The chart of the disc of the given radius around center, its labels
    refitted until they settle, in at most 8 rounds.  When frame is given
    the refit starts from its (linear, offset): the first round labels
    the disc as frame does and the last as the new chart does, and
    _check_overlap requires the identity between the two on frame's
    disc."""
    pts = _disc(pts_all, center, radius)
    if len(pts) < MIN_CHART_POINTS:
        raise ChartError(
            f"only {len(pts)} points in the disc at {center}, radius {radius:g}")
    if frame is None:
        linear, offset = _neighbor_frame(pts, center, h)
    else:
        linear, offset = frame.linear, frame.offset

    k = first = np.rint((pts @ linear.T + offset) / h)
    for _ in range(7):
        # (linear, offset) maps the rows of the disc to h k
        linear, offset = _affine_fit(pts, h * k)
        real = (pts @ linear.T + offset) / h
        k, prev = np.rint(real), k
        if np.array_equal(k, prev):
            break
    else:
        raise ChartError(f"chart labels still changing after 8 rounds "
                         f"at {center}")
    resid = float(np.max(np.abs(real - k)))
    if resid > CHART_RESIDUAL_MAX:
        raise ChartError(
            f"chart residual {resid:.4f} > {CHART_RESIDUAL_MAX} at {center}")
    if _condition(linear) >= CHART_CONDITION_MAX:
        raise ChartError(f"ill-conditioned chart at {center}")
    if frame is not None:
        kept = frame.contains(pts)
        k_old = first[kept]
        _check_overlap(k_old, k[kept], k_old, f"at {center}")
    return LatticeChart(center=center, linear=linear, offset=offset,
                        radius=float(radius), h=float(h), residual=resid)


def _check_overlap(k_from: np.ndarray, k_to: np.ndarray,
                   mapped: np.ndarray, where: str) -> None:
    """TransportError unless a chart transition holds on a chart overlap.

    k_from and k_to, both (m, 2), label the overlap's rows in the two
    frames, and mapped is the transition's image of k_from.  The overlap
    must hold MIN_CHART_POINTS rows whose labels k_from do not all lie on
    one lattice line, so that three of them fix the integer-affine map,
    and k_to must equal mapped on every row.
    """
    m = len(k_from)
    if m < MIN_CHART_POINTS:
        raise TransportError(f"only {m} points in the chart overlap {where}")
    # on one line every two differences from the first label are parallel
    d = k_from - k_from[0]
    if np.array_equal(np.outer(d[:, 0], d[:, 1]), np.outer(d[:, 1], d[:, 0])):
        raise TransportError(
            f"the {m} overlap labels lie on one lattice line {where}")
    moved = np.flatnonzero(np.any(k_to != mapped, axis=1))
    if len(moved):
        i = moved[0]
        raise TransportError(
            f"the chart transition does not hold on {len(moved)} of the {m} "
            f"overlap points {where}: the first is labelled "
            f"{k_to[i].astype(int).tolist()}, not "
            f"{mapped[i].astype(int).tolist()}")


def transport_chart(chart: LatticeChart, new_center, points) -> LatticeChart:
    """Continue a chart frame to a nearby disc.

    Refits the chart at new_center starting from the old frame's
    (linear, offset), so the new chart keeps the old labels, and checks
    that the transition between the two frames is exactly the identity
    on every overlap point (TransportError otherwise): the refit's first
    round labels its disc in the old frame and its last round in the new
    one, and the two must agree on the rows in the old disc.
    """
    return _fit_chart(_points_array(points), new_center, chart.h,
                      frame=chart)


# --- polygons and unwinding ----------------------------------------------

@dataclass
class UnwindResult:
    vertices: np.ndarray          # (l+1, 2) int; last = continued first
    monodromy: ChartTransition
    charts: list
    closed: bool = field(init=False)

    def __post_init__(self):
        self.closed = bool(np.array_equal(self.vertices[0],
                                          self.vertices[-1]))


def winding_around_origin(pts: np.ndarray) -> int:
    pts = np.asarray(pts, dtype=float)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(np.sum(dang) / (2.0 * math.pi)))


def _continue_chart(chart: LatticeChart, target: tuple,
                    pts_all: np.ndarray) -> LatticeChart:
    """Transport chart to the disc at target in straight steps of at most
    STEP_FRACTION of the current chart's radius.  A step whose transport
    raises TransportError (an overlap too thin to check) is halved, up to
    MAX_STEP_HALVINGS times, before the error is passed on."""
    current = chart
    while current.center != target:
        dx = target[0] - current.center[0]
        dy = target[1] - current.center[1]
        frac = min(1.0, STEP_FRACTION * current.radius / math.hypot(dx, dy))
        for halvings in range(MAX_STEP_HALVINGS + 1):
            where = target if frac == 1.0 else (
                current.center[0] + frac * dx, current.center[1] + frac * dy)
            try:
                current = transport_chart(current, where, pts_all)
                break
            except TransportError:
                if halvings == MAX_STEP_HALVINGS:
                    raise
                frac *= 0.5
    return current


def unwind(polygon: np.recarray, spectrum) -> UnwindResult:
    """Develop the polygon onto the integer lattice by continuing one frame.

    polygon holds rows of spectrum.points, a POINT_DTYPE record array, in
    loop order with the first vertex not repeated.

    A chart is fitted at the first vertex and continued along each edge
    in short steps, each checked to keep the labels of the old disc
    exactly; unwound vertex j is the continued frame's label of vertex j.
    The monodromy is the one exact transition from the final continued
    frame back to the starting chart, measured on the starting disc; it
    is the identity for non-enclosing loops and unipotent with one Jordan
    block for loops around the critical value.
    """
    verts = _plane(polygon)
    ell = len(verts)
    if ell < 3:
        raise DomainError("polygon needs at least 3 vertices")
    pts_all = _points_array(spectrum)
    h = float(polygon.h[0])

    try:
        chart0 = fit_local_chart(pts_all, verts[0], h)
    except ChartError as exc:
        raise ChartError(f"chart chain failed at vertex 0: {exc}") from exc
    charts = [chart0]
    labels = [chart0.labels(verts[0])[0]]
    current = chart0
    for j in range(1, ell + 1):
        v = verts[j % ell]
        try:
            current = _continue_chart(current, (float(v[0]), float(v[1])),
                                      pts_all)
        except (ChartError, TransportError) as exc:
            raise type(exc)(
                f"chart chain failed on segment {j - 1} -> {j % ell}: {exc}"
            ) from exc
        charts.append(current)
        labels.append(current.labels(v)[0])

    # monodromy: the continued frame against the first chart, on the rows
    # of the first disc that the last one holds too, its shift read off
    # the first of them
    disc = _disc(pts_all, chart0.center, chart0.radius)
    overlap = disc[current.contains(disc)]
    k_from, k_to = chart0.labels(overlap), current.labels(overlap)
    T = np.rint(current.linear @ _inverse(chart0.linear)).astype(int)
    image = k_from @ T.T
    shift = (k_to - image)[:1]
    _check_overlap(k_from, k_to, image + shift, "of the start and end charts")
    return UnwindResult(vertices=np.array(labels, dtype=int),
                        monodromy=ChartTransition(T, shift[0]), charts=charts)


def l0_line(spectrum, charts, monodromy: ChartTransition):
    """Eigenvalues unwound onto the line fixed pointwise by the monodromy.

    charts and monodromy are those of one UnwindResult.  Returns the fixed
    rows of spectrum.points, in table order; none, with a warning, when
    the monodromy is the identity (every line is then fixed) or no
    covered eigenvalue is fixed.
    """
    if monodromy.is_identity():
        warnings.warn("identity monodromy: fixed line is undefined")
        return spectrum.points[:0]
    # fixed points solve N k = -shift; N is rank one for unipotent monodromy
    N = monodromy.matrix - np.eye(2, dtype=int)
    # each point takes the labels of the first chart whose disc holds it;
    # only the rows of the disc's band can lie in it
    pts = _points_array(spectrum)
    labels = np.zeros((len(pts), 2), dtype=int)
    covered = np.zeros(len(pts), dtype=bool)
    for ch in charts:
        band = _band(pts, ch.center, ch.radius)
        new = ch.contains(pts[band]) & ~covered[band]
        labels[band][new] = ch.labels(pts[band][new])
        covered[band] |= new
    fixed = covered & np.all(labels @ N.T == -monodromy.shift, axis=1)
    if not fixed.any():
        warnings.warn("no eigenvalue is fixed by the monodromy")
    return spectrum.points[fixed]


# --- exact integer geometry ----------------------------------------------

# products of coordinate differences stay exact in int64 below this bound
LATTICE_BOUND = 2 ** 30


def _lattice(a) -> np.ndarray:
    """a as an int64 array; DomainError when a coordinate reaches
    LATTICE_BOUND in magnitude."""
    a = np.asarray(a)
    if a.size and (a.min() <= -LATTICE_BOUND or a.max() >= LATTICE_BOUND):
        raise DomainError(
            f"integer coordinates span {a.min()}..{a.max()}: the int64 "
            "lattice geometry is exact only below 2^30 in magnitude")
    return a.astype(np.int64, copy=False)


def _ring(vertices) -> np.ndarray:
    """(m, 2) int64 vertices of a polygon, a closing repeat of the first
    vertex dropped."""
    v = _lattice(vertices).reshape(-1, 2)
    if len(v) > 1 and (v[0] == v[-1]).all():
        v = v[:-1]
    return v


def _side(ax, ay, bx, by, px, py):
    """(b - a) x (p - a), positive when p lies left of a -> b and zero on
    its line, and whether p lies on the closed segment a b.  The int64
    arrays broadcast against each other."""
    cross = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
    return cross, (cross == 0) & ((px - ax) * (px - bx)
                                  + (py - ay) * (py - by) <= 0)


def _validate_simple(v: np.ndarray) -> int:
    """Twice the signed area of the simple polygon v, (m, 2) int64;
    DomainError when v is degenerate or self-intersecting."""
    m = len(v)
    if m < 3:
        raise DomainError("polygon needs at least 3 vertices")
    x, y = v.T
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    repeated = np.flatnonzero((x == x1) & (y == y1))
    if len(repeated):
        raise DomainError(f"repeated consecutive vertex at {repeated[0]}")
    area2 = sum((x * y1 - x1 * y).tolist())
    if area2 == 0:
        raise DomainError("degenerate polygon (zero area)")
    # edge e = v[e] v[e+1] against vertex p, as [e, p]; then edge i = a b
    # meets edge j = c d when c, d straddle a b and a, b straddle c d, or
    # when an end of one lies on the other
    cross, on = _side(x[:, None], y[:, None], x1[:, None], y1[:, None], x, y)
    side = np.sign(cross)
    side1, on1 = np.roll(side, -1, axis=1), np.roll(on, -1, axis=1)
    meet = ((side != side1) & (side.T != side1.T)) | on | on1 | on.T | on1.T
    # pairs i < j of edges that share no vertex
    meet &= np.triu(np.ones((m, m), dtype=bool), 2)
    meet[0, m - 1] = False
    if meet.any():
        i, j = np.argwhere(meet)[0]
        raise DomainError(f"polygon self-intersects: edges {i} and {j}")
    return area2


def pick_count(vertices) -> int:
    """Lattice points inside or on a simple integer polygon, by Pick.

    N = Area + boundary/2 + 1, all in exact integer arithmetic; raises
    DomainError for degenerate or self-intersecting input, or for a
    coordinate that reaches LATTICE_BOUND in magnitude.
    """
    v = _ring(vertices)
    area2 = abs(_validate_simple(v))
    d = np.roll(v, -1, axis=0) - v
    return (area2 + int(np.gcd(d[:, 0], d[:, 1]).sum())) // 2 + 1


def lattice_point_in_polygon(p, vertices):
    """Exact inside-or-on test of integer points against an integer polygon.

    p is one point, giving a bool, or an (m, 2) array of points, giving an
    (m,) bool array.  The arithmetic is int64 throughout; DomainError when
    a coordinate reaches LATTICE_BOUND in magnitude.
    """
    pts = _lattice(p)
    inside = _inside(pts.reshape(-1, 2), _ring(vertices))
    return bool(inside[0]) if pts.ndim == 1 else inside


def _inside(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """lattice_point_in_polygon on (m, 2) int64 points and a ring v."""
    x, y = pts.T[:, :, None]                     # (m, 1) against the edges
    (ax, ay), (bx, by) = v.T, np.vstack((v[1:], v[:1])).T
    cross, on_edge = _side(ax, ay, bx, by, x, y)
    # edges that straddle the horizontal through the point and pass on its
    # right cross the ray to +x; a straddling edge through the point is
    # already counted by on_edge
    crosses = ((ay > y) != (by > y)) & ((cross > 0) == (by > ay))
    return on_edge.any(axis=1) | (crosses.sum(axis=1) % 2 == 1)


# --- the counting theorem -------------------------------------------------

def count_in_polygon(spectrum, polygon: np.recarray,
                     unwound: UnwindResult) -> tuple[int, int]:
    """Verify the counting identity on one spectrum polygon.

    polygon holds rows of spectrum.points, as for unwind, and unwound is
    unwind(polygon, spectrum), which the caller already holds.
    Returns (N_spec, N_pick).  N_spec counts, with no chart, the rows of
    each line the polygon spans whose (k, n) lies inside or on the polygon
    of the vertices' (k, n).  Consecutive vertices lie on one line or on
    adjacent lines (DomainError otherwise), and k order is E1 order on a
    line, so this exact test places each row as its (E1, E2) would.  A
    loop around the critical value must start on the n = 0 line and hold
    exactly two n = 0 vertices.
    N_pick applies Pick's formula to the unwound vertices.  The theorem
    asserts they are equal.
    """
    n = polygon.n
    if np.any(np.abs(n - np.roll(n, 1)) > 1):
        raise DomainError("consecutive polygon vertices skip a line")
    if winding_around_origin(_plane(polygon)) != 0:
        zeros = np.flatnonzero(n == 0).tolist()
        if n[0] != 0 or len(zeros) != 2:
            raise DomainError(
                "an enclosing polygon must start on the n = 0 line and "
                f"have exactly 2 vertices there, not those at {zeros}")
        if not unwound.closed:
            raise ChartError("enclosing loop anchored on the n = 0 line did "
                             "not unwind to a closed polygon")
    ring = _ring(np.column_stack([polygon.k, n]))     # converted once
    lines = map(spectrum.line, range(int(n.min()), int(n.max()) + 1))
    n_spec = sum(int(np.count_nonzero(_inside(
        _lattice(np.column_stack([line.k, line.n])), ring))) for line in lines)
    return n_spec, pick_count(unwound.vertices[:-1])


# --- polygon construction -------------------------------------------------

def _snap(spectrum, n: int, tx: float) -> int:
    """Row of spectrum.points on line n nearest to x = tx."""
    lo, hi = np.searchsorted(spectrum.points.n, (n, n + 1))
    if lo == hi:
        raise DomainError(f"no eigenvalues on line n={n}")
    return int(lo + np.argmin(np.abs(spectrum.points.x[lo:hi] - tx)))


def make_loop_polygon(spectrum, radius_x: float, seed: int = 0,
                      center=(0.0, 0.0), enclosing: bool = True) -> np.recarray:
    """Polygon through spectrum points with one vertex per line per side.

    Follows an ellipse of half-width radius_x (zoomed x units) and half-
    height n_top = max(1, round(0.75 radius_x)) lines around `center` =
    (x, n), snapping each lattice line to its eigenvalue nearest the
    targeted x; every crossed line gets exactly one vertex on each side,
    so the polygon meets each line in a segment with vertex extremities.  Returns the vertices as rows of
    spectrum.points in loop order.  Enclosing loops start on the n = 0
    line at x > 0 and contain exactly two n = 0 vertices; a non-enclosing
    loop must not wind around the critical value (DomainError otherwise).
    The radial jitter is seeded for reproducibility.  A radius that is
    not finite and positive, a center that is not finite, or a negative
    seed raises DomainError before any vertex is snapped.
    """
    cx, cn = float(center[0]), float(center[1])
    if not (math.isfinite(radius_x) and radius_x > 0.0):
        raise DomainError(f"loop radius {radius_x:g} is not finite and "
                          "positive")
    if not (math.isfinite(cx) and math.isfinite(cn)):
        raise DomainError(f"loop center ({cx:g}, {cn:g}) is not finite")
    if seed < 0:
        raise DomainError(f"loop seed {seed} is negative")
    rng = np.random.default_rng(seed)
    n_top = max(1, int(round(0.75 * radius_x)))
    n0 = int(round(cn))

    def half_width(dn: float) -> float:
        w = radius_x * math.sqrt(max(0.0, 1.0 - (dn / (n_top + 0.5)) ** 2))
        return w * (1.0 + 0.1 * (rng.random() - 0.5))

    # up the right side, then down the left; an enclosing loop starts at
    # the right side's crossing of the anchor line n0
    ns = range(n0 - n_top, n0 + n_top + 1)
    sides = [(n, 1.0) for n in ns] + [(n, -1.0) for n in reversed(ns)]
    if enclosing:
        sides = sides[n_top:] + sides[:n_top]
    chosen = [_snap(spectrum, n, cx + side * half_width(n - cn))
              for n, side in sides]

    dedup = []
    for i in chosen:
        if dedup and i == dedup[-1]:
            continue
        dedup.append(i)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    vertices = spectrum.points[dedup]
    if enclosing:
        zero_count = int(np.count_nonzero(vertices.n == n0))
        if zero_count != 2:
            raise DomainError(
                f"loop construction produced {zero_count} anchor-line "
                "vertices; adjust radius")
    elif winding_around_origin(_plane(vertices)) != 0:
        raise DomainError(
            f"enclosing=False, but the loop of radius {radius_x:g} around "
            f"the center ({cx:g}, {cn:g}) winds around the critical value")
    if len(dedup) < 3:
        raise DomainError("loop construction found too few vertices")
    return vertices
