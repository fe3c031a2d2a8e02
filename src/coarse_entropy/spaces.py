"""Computable metric spaces: points, exact distances, membership, lattice regions.

Every space here is a concrete metric space with closed-form distances.
Unbounded spaces are the normal case; bounded regions only appear when a
caller restricts enumeration by a radius.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidPointError

DEFAULT_POINT_BUDGET = 10_000_000
# what a region can fail with: its budget, a grid index past int64 or a
# malformed centre, a bound that is not finite
REGION_ERRORS = (BudgetExceededError, ValueError, ArithmeticError)
_RAY_BLOCK = 1 << 16  # cone lattice rows measured in one step


@dataclass(frozen=True)
class Point:
    """A point of some space: a chart index plus chart-local coordinates.

    Product-space points instead carry a (left, right) pair in ``parts``.
    """

    chart: int = 0
    coords: Tuple[float, ...] = ()
    parts: Optional[Tuple["Point", "Point"]] = None

    @staticmethod
    def of(*coords: float) -> "Point":
        return Point(0, tuple(float(c) for c in coords))

    @staticmethod
    def in_chart(chart: int, coords: Sequence[float]) -> "Point":
        return Point(chart, tuple(float(c) for c in coords))

    @staticmethod
    def pair(left: "Point", right: "Point") -> "Point":
        return Point(parts=(left, right))

    def to_json(self):
        if self.parts is not None:
            return {"pair": [self.parts[0].to_json(), self.parts[1].to_json()]}
        return [self.chart, *self.coords]

    @staticmethod
    def from_json(obj) -> "Point":
        if isinstance(obj, dict) and "pair" in obj:
            l, r = obj["pair"]
            return Point.pair(Point.from_json(l), Point.from_json(r))
        return Point(int(obj[0]), tuple(float(c) for c in obj[1:]))


def _as_array(p: Point) -> np.ndarray:
    return np.asarray(p.coords, dtype=float)


class Space:
    """Base class; subclasses provide the metric and the discretization.

    A list of points has one array form, its *rows*, which the lattice
    regions, the maps (``apply_rows``) and the orbit steps (``rows_step``)
    share. Here, for spaces of coordinate charts, rows are ``(charts, X)``:
    a chart per row and the coordinates padded with zeros to the widest
    chart. ``rows_of`` and ``points_of`` convert points to rows and back,
    ``take_rows`` gathers rows by index, ``join_rows`` joins row sets in
    order and ``row_charts`` gives each row's chart."""

    def distance(self, p: Point, q: Point) -> float:
        raise NotImplementedError

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def origin(self) -> Point:
        raise NotImplementedError

    def chart_dim(self, chart: int) -> int:
        raise NotImplementedError

    def _check(self, p: Point) -> None:
        if p.parts is not None:
            raise InvalidPointError(f"pair point given to {type(self).__name__}")
        try:
            dim = self.chart_dim(p.chart)
        except (IndexError, ValueError):
            raise InvalidPointError(f"chart {p.chart} invalid for {type(self).__name__}")
        if dim != len(p.coords):
            raise InvalidPointError(
                f"chart {p.chart} expects {dim} coords, got {len(p.coords)}"
            )

    def lattice_region(
        self,
        center: Point,
        radius: float,
        spacing: float,
        budget: int = DEFAULT_POINT_BUDGET,
    ) -> list:
        """Grid points (step ``spacing``, anchored at each chart origin) that lie
        in the space within ``radius`` (+ 1e-9) of ``center``, in (chart,
        coords) order: the rows of ``region_rows`` as points."""
        return self.points_of(self.region_rows(center, radius, spacing, budget))

    def region_rows(self, center: Point, radius: float, spacing: float,
                    budget: int = DEFAULT_POINT_BUDGET):
        """The lattice region around one centre as rows, in ``lattice_rows``
        order; its failure is raised."""
        _check_region(radius, spacing)
        return self._region_at(self.rows_of([center]), 0, radius, spacing, budget)

    def lattice_rows(self, rows, radius: float, spacing: float,
                     budget: int = DEFAULT_POINT_BUDGET):
        """The lattice regions around many centres, given as rows: their
        points region by region, as ``(owner, rows, error)``. Point k lies in
        the region of centre ``owner[k]``. A region lists its points by
        increasing chart, each chart's in lexicographic order.

        The regions are built in order up to the first that fails, whose
        error is returned unraised (``error`` is None if none fails), or up
        to the first after which more than ``budget`` points are held: each
        region keeps to the budget, their union need not. This version
        builds one region per centre (``_region_at``)."""
        parts, sizes, error = [], [], None
        for i in range(len(self.row_charts(rows))):
            try:
                parts.append(self._region_at(rows, i, radius, spacing, budget))
            except REGION_ERRORS as exc:
                error = exc
                break
            sizes.append(len(self.row_charts(parts[-1])))
            if sum(sizes) > budget:
                break
        return np.arange(len(parts)).repeat(sizes), self.join_rows(parts), error

    def _region_at(self, rows, i: int, radius: float, spacing: float, budget: int):
        """The lattice region around centre i of ``rows``, as rows; its
        failure is raised. This version is ``lattice_rows`` of that centre
        alone."""
        _, region, error = self.lattice_rows(self.take_rows(rows, [i]), radius, spacing, budget)
        if error is not None:
            raise error
        return region

    def rows_of(self, points: Sequence[Point]):
        """The rows of points, each checked to fit the space."""
        for p in points:
            self._check(p)
        width = max((len(p.coords) for p in points), default=0)
        X = np.array([p.coords + (0.0,) * (width - len(p.coords)) for p in points],
                     dtype=float).reshape(len(points), width)
        return np.array([p.chart for p in points], dtype=np.int64), X

    def points_of(self, rows) -> List[Point]:
        """The points of rows, in order."""
        charts, X = rows
        dims = {c: self.chart_dim(c) for c in _charts_present(charts)}
        return [Point(c, tuple(row[:dims[c]])) for c, row in zip(charts.tolist(), X.tolist())]

    def take_rows(self, rows, index):
        """The rows at the indices of an index array, in its order."""
        charts, X = rows
        return charts.take(index), X.take(index, axis=0)

    def join_rows(self, parts):
        """The rows of several row sets, in order (one set as it is)."""
        return parts[0] if len(parts) == 1 else _stack_blocks(parts)

    def row_charts(self, rows) -> np.ndarray:
        """The chart of each row."""
        return rows[0]

    def sample_point(self, rng: np.random.Generator, radius: float,
                     center: Optional[Point] = None) -> Point:
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, radius: float, m: int):
        """m points within ``radius`` of the origin, the ones ``m`` calls of
        ``sample_point`` draw in turn, as rows."""
        return self.rows_of([self.sample_point(rng, radius) for _ in range(m)])


class _CoordinateSpace(Space):
    """Spaces whose points are a chart plus coordinates, measured inside a
    chart by a norm of the coordinate differences (spaces of several charts
    add ``_cross`` for points of different charts).

    The metric is written once, over coordinate columns: Python floats for
    one pair (``distance``), arrays for the rows of an orbit step
    (``step_distances``), so both round alike. A step is ``(chart,
    columns)``: one chart shared by every row, or an array of one chart per
    row, and the coordinates as one array per axis; rows of charts narrower
    than the widest are padded with zeros, which add nothing to a norm.
    Every norm is at least the absolute difference of each coordinate: the
    orbit greedy's cell index relies on it."""

    def _norm(self, diffs):
        """The Euclidean norm of coordinate differences given as columns:
        the squares summed in coordinate order, then the square root."""
        sq = diffs[0] * diffs[0]
        for d in diffs[1:]:
            sq = sq + d * d
        return np.sqrt(sq)

    def _between(self, chart_p, a, chart_q, b):
        """The distances between points given as charts and coordinate
        columns a and b: one pair (two charts), or pairs elementwise (two
        arrays of one chart per pair)."""
        if not isinstance(chart_p, np.ndarray):
            if chart_p == chart_q:
                return self._norm([u - v for u, v in zip(a, b)])
            return self._cross(chart_p, a, chart_q, b)
        same, inner = chart_p == chart_q, self._norm([u - v for u, v in zip(a, b)])
        return inner if same.all() else np.where(same, inner, self._cross(chart_p, a, chart_q, b))

    def distance(self, p, q):
        self._check(p); self._check(q)
        return float(self._between(p.chart, p.coords, q.chart, q.coords))

    def _grid_step(self, spacing: float) -> float:
        """The step of the lattice asked for at ``spacing``."""
        return spacing

    def _chart_box(self, chart):
        """The (low, high) bounds of each coordinate of ``chart``: the one
        statement of where a chart's points lie, read by ``contains``, the
        lattice region and the chain sampler."""
        return [(-math.inf, math.inf)] * self.chart_dim(chart)

    def contains(self, p, tol=1e-9):
        """A point of a valid chart whose coordinates are finite and inside
        the chart's box widened by ``tol``."""
        try:
            self._check(p)
        except InvalidPointError:
            return False
        return all(math.isfinite(x) and lo - tol <= x <= hi + tol
                   for x, (lo, hi) in zip(p.coords, self._chart_box(p.chart)))

    def origin(self):
        return Point(0, (0.0,) * self.chart_dim(0))

    def lattice_rows(self, rows, radius, spacing, budget=DEFAULT_POINT_BUDGET):
        # one pass over every centre: the boxes of every region (``_boxes``)
        # are counted and charged at once, then meshed and kept within reach
        # of their own centre, whole regions of about ``_RAY_BLOCK`` points
        # at a time, so that the budget bounds what is built (``compress``
        # keeps each box's lexicographic order, several times faster than a
        # boolean index)
        _check_region(radius, spacing)
        step, reach = self._grid_step(spacing), radius + 1e-9
        charts, C = rows
        valid, error, present = len(charts), None, _charts_present(charts)
        for chart in present:  # the centres before the first that does not fit
            try:
                self._check(Point(chart, (0.0,) * min(self.chart_dim(chart), C.shape[1])))
            except InvalidPointError as exc:
                at = int(np.argmax(charts == chart))
                if at < valid:
                    valid, error = at, exc
        charts, C = charts[:valid], C[:valid]
        region, box_charts, lo, hi = self._boxes(charts, C, reach)
        first, size, failure = _grid_boxes(lo, hi, step, budget, region)
        if failure is not None:  # a failing region keeps none of its boxes
            error = failure
            first = first[:np.searchsorted(region, region[len(first)])]
        # each box's centre as a chart and coordinate columns; charts per
        # point only where the boxes and centres are not all of one chart
        centre_chart, *centre = [a[region] for a in (charts, *C.T)]
        one = len(present) == 1 and not (box_charts != present[0]).any()
        ends = np.cumsum(np.prod(size[:len(first)], axis=1)).tolist()
        parts, held, start = [], 0, 0
        while start < len(ends):
            base = ends[start - 1] if start else 0
            stop = max(bisect.bisect_right(ends, base + _RAY_BLOCK), start + 1)
            stop = int(np.searchsorted(region, region[stop - 1], side="right"))
            box, X = _box_mesh(first[start:stop], size[start:stop], step)
            box += start
            p, q = (present[0],) * 2 if one else (box_charts[box], centre_chart[box])
            keep = self._between(p, list(X.T), q, [c[box] for c in centre]) <= reach
            parts.append((box.compress(keep), X.compress(keep, axis=0)))
            held, start = held + len(parts[-1][0]), stop
            if held > budget:
                error = None  # the regions past the budget are not reached
                break
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, lo.shape[1])))
        box, X = parts[0] if len(parts) == 1 else [np.concatenate(a) for a in zip(*parts, empty)]
        owner = region[box]
        if held > budget:  # up to the centre of the point past the budget
            cut = int(np.searchsorted(owner, owner[budget], side="right"))
            owner, box, X = owner[:cut], box[:cut], X[:cut]
        if not one:  # as wide as the widest chart held (``box`` is nondecreasing)
            kept = set(box_charts[box[np.diff(box, prepend=-1) != 0]].tolist())
            X = X[:, :max((self.chart_dim(c) for c in kept), default=X.shape[1])]
        return owner, (box_charts[box], X), error

    def _box_bounds(self, chart, near: np.ndarray, left):
        """The boxes ``near[i] +- left[i]`` (rows of an (m, d) array, one
        half-width or one per row) cut to the chart's bounds, as (low,
        high) (m, d) arrays."""
        lo, hi = np.array(self._chart_box(chart)).T
        left = np.asarray(left, dtype=float).reshape(-1, 1)
        return np.maximum(near - left, lo), np.minimum(near + left, hi)

    def rows_step(self, rows):
        """One step of an orbit family, the point of every orbit at one
        index, given as rows, in the form ``step_distances`` measures: one
        chart if every row has it, else an array of one chart per row, and
        the coordinates as one array per axis, up to the widest chart
        present."""
        charts, X = rows
        present = _charts_present(charts)
        X = X[:, :max((self.chart_dim(c) for c in present), default=0)]
        if not np.all(np.isfinite(X)):
            raise ValueError("orbit coordinates must be finite")
        return present[0] if len(present) == 1 else charts, list(X.T.copy())

    def step_distances(self, step, p, q):
        """The distances between rows ``p[i]`` and ``q[i]`` of one step, for
        index arrays p and q."""
        chart, columns = step
        if not isinstance(chart, np.ndarray):
            return self._norm([x[p] - x[q] for x in columns])
        return self._between(chart[p], [x[p] for x in columns], chart[q], [x[q] for x in columns])


class _FlatSpace(_CoordinateSpace):
    """A single chart 0 of ``dim`` coordinates with the Euclidean metric."""

    def chart_dim(self, chart):
        if chart != 0:
            raise InvalidPointError(f"{type(self).__name__} has a single chart 0")
        return self.dim

    def _boxes(self, charts, C, reach):
        # one box per centre, in chart 0, around the centre itself
        C = C[:, :self.dim].reshape(len(C), self.dim)
        left = reach - self._norm([c - c for c in C.T])
        return np.arange(len(C)), charts, *self._box_bounds(0, C, left)


def _charts_present(charts: np.ndarray) -> List[int]:
    """The distinct charts of a chart array, in increasing order (one
    chart, the common case, found without a sort). Not ``np.unique``, whose
    first call imports ``numpy.ma``."""
    if len(charts) and charts.min() == charts.max():
        return [int(charts[0])]
    charts = np.sort(charts)
    return charts[np.diff(charts, prepend=charts[:1] - 1) != 0].tolist()


def _check_region(radius: float, spacing: float) -> None:
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not (0 < spacing <= radius):
        raise ValueError("spacing must satisfy 0 < spacing <= radius")


def _axis_size(lo: float, hi: float, spacing: float) -> int:
    """Number of multiples of spacing inside [lo, hi]; a bound not finite
    once divided by the spacing raises ``InvalidPointError``."""
    k_lo, k_hi = lo / spacing - 1e-12, hi / spacing + 1e-12
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)):
        raise InvalidPointError(f"grid bound {hi if math.isfinite(k_lo) else lo:g} of "
                                f"[{lo:g}, {hi:g}] is not finite at spacing {spacing:g}")
    return max(math.floor(k_hi) - math.ceil(k_lo) + 1, 0)


def _axis_range(lo: float, hi: float, spacing: float) -> Tuple[int, int]:
    """The first integer k with k * spacing inside [lo, hi] and the number
    of them; an index past int64 raises ``InvalidPointError``."""
    size, first = _axis_size(lo, hi, spacing), math.ceil(lo / spacing - 1e-12)
    if not -2 ** 63 <= first <= 2 ** 63 - max(size, 1):
        raise InvalidPointError(f"grid index {first} of [{lo:g}, {hi:g}] at spacing "
                                f"{spacing:g} is past int64")
    return first, size


def _axis_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    """Multiples of spacing (anchored at 0) inside [lo, hi]: their int64
    indices times the spacing."""
    first, size = _axis_range(lo, hi, spacing)
    return (first + np.arange(size)) * spacing


def _charge(total: int, budget: int) -> int:
    """``total`` grid points, checked against the budget before they are
    built."""
    if total > budget:
        raise BudgetExceededError(
            f"lattice region of ~{total} points exceeds budget {budget}",
            requested=total, budget=budget)
    return total


_EXACT = 2.0 ** 52  # box sizes up to this many points count exactly in floats


def _grid_boxes(lo: np.ndarray, hi: np.ndarray, spacing: float, budget: int,
                region: Optional[np.ndarray] = None):
    """The spacing grids of the boxes ``[lo[i], hi[i]]`` (bounds as (m, d)
    arrays): each box's first grid index and point count on every axis, as
    int64 (m', d) arrays, for the boxes before the first that fails, with
    that failure unraised (None if none fails). The boxes of one region
    (equal, consecutive entries of ``region``; each box is its own region
    if None) are charged together: a box fails where its size plus those of
    its region's boxes before it exceeds the budget (``_charge``), where a
    bound is not finite, or where a grid index is past int64.

    The boxes are counted at once in floats, with the operations of
    ``_axis_size``. A box that exceeds the budget and a box that floats
    might not count exactly (more than 2^52 points, an index near 2^62, a
    bound not finite), with the boxes of its region after it, are charged
    and indexed by ``_axis_size`` and ``_axis_range`` themselves, so that a
    failure and its message are theirs."""
    with np.errstate(all="ignore"):
        k = np.ceil(lo / spacing - 1e-12)
        n = np.maximum(np.floor(hi / spacing + 1e-12) - k + 1, 0)
        charged = np.maximum(n, 1).prod(axis=1)
        exact = (np.abs(k) + n < 2.0 ** 62).all(axis=1)
        pos = np.zeros(len(lo), dtype=np.int64)  # each box's place in its region
        if region is not None and len(region) > 1:
            pos = np.arange(len(lo)) - np.searchsorted(region, region)
            for j in range(1, int(pos.max()) + 1):
                at = (pos == j).nonzero()[0]
                charged[at] += charged[at - 1]
                exact[at] &= exact[at - 1]
        exact &= charged <= min(budget, _EXACT)
        # the casts of a box not counted exactly are replaced below
        first, size = k.astype(np.int64), n.astype(np.int64)
    for i in (~exact).nonzero()[0].tolist():
        bounds = list(zip(lo[i].tolist(), hi[i].tolist()))
        before = sum(math.prod(max(s, 1) for s in size[j].tolist()) for j in range(i - pos[i], i))
        try:
            _charge(before + math.prod(max(_axis_size(a, b, spacing), 1)
                                       for a, b in bounds), budget)
            first[i], size[i] = zip(*[_axis_range(a, b, spacing) for a, b in bounds])
        except REGION_ERRORS as exc:
            return first[:i], size[:i], exc
    return first, size, None


def _box_mesh(first: np.ndarray, size: np.ndarray, spacing: float):
    """The points of the spacing grids ``_grid_boxes`` gave, box by box,
    each box in lexicographic order: ``(owner, (N, d) coords)``, point k in
    box ``owner[k]``. Each coordinate is its int64 index times the spacing."""
    # axis by axis, each point built so far becomes the n points of its
    # box's next axis, at the grid indices first, first + 1, ...
    owner, index = np.arange(len(size)), []
    for j in range(size.shape[1]):
        n = size[owner, j]
        index = [k.repeat(n) for k in index] + [(first[owner, j] - (n.cumsum() - n)).repeat(n)]
        owner = owner.repeat(n)
        index[-1] += np.arange(len(owner))
    X = np.empty((len(owner), size.shape[1]))
    for j, k in enumerate(index):
        np.multiply(k, spacing, out=X[:, j])
    return owner, X


def _stack_blocks(blocks) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of ``(chart, (m, d) coords)`` blocks in order (a chart for
    the block or one per row), as a chart per row and one coordinate array
    padded with zeros to the widest block."""
    charts = np.concatenate([np.full(len(X), chart, dtype=np.int64) for chart, X in blocks]
                            + [np.zeros(0, dtype=np.int64)])
    X = np.zeros((len(charts), max((b.shape[1] for _, b in blocks), default=0)))
    at = 0
    for _, b in blocks:
        X[at:at + len(b), :b.shape[1]] = b
        at += len(b)
    return charts, X


@dataclass(frozen=True)
class Euclidean(_FlatSpace):
    dim: int

    def sample_point(self, rng, radius, center=None):
        c = _as_array(center) if center is not None else np.zeros(self.dim)
        while True:
            x = c + rng.uniform(-radius, radius, size=self.dim)
            if self._norm(x - c) <= radius:
                return Point(0, tuple(x))

    def sample_block(self, rng, radius, m):
        # rows of one uniform draw follow the draws of single points, so
        # keeping the accepted rows in order repeats sample_point's points;
        # each round draws only the rows still missing, so no row is drawn
        # after the last accepted one
        kept, missing = [np.zeros((0, self.dim))], m
        while missing:
            X = rng.uniform(-radius, radius, size=(missing, self.dim))
            X = X[self._norm(list(X.T)) <= radius]
            kept.append(X)
            missing -= len(X)
        X = np.concatenate(kept)
        return np.zeros(len(X), dtype=np.int64), X


@dataclass(frozen=True)
class IntegerLattice(_FlatSpace):
    """Z^q with the Euclidean metric."""

    dim: int

    def contains(self, p, tol=1e-9):
        return super().contains(p, tol) and all(abs(c - round(c)) <= tol for c in p.coords)

    def _grid_step(self, spacing):
        return float(max(1, round(spacing)))

    def sample_point(self, rng, radius, center=None):
        c = _as_array(center) if center is not None else np.zeros(self.dim)
        while True:
            x = np.round(c + rng.uniform(-radius, radius, size=self.dim))
            if np.linalg.norm(x - c) <= radius:
                return Point(0, tuple(x))


@dataclass(frozen=True)
class HalfLine(_FlatSpace):
    """[low, oo) with the line metric."""

    low: float = 0.0
    dim = 1

    def origin(self):
        return Point(0, (self.low,))

    def _norm(self, diffs):
        return abs(diffs[0])

    def _chart_box(self, chart):
        return [(self.low, math.inf)]

    def sample_point(self, rng, radius, center=None):
        c = center.coords[0] if center is not None else self.low
        lo = max(self.low, c - radius)
        return Point(0, (float(rng.uniform(lo, c + radius)),))


@dataclass(frozen=True)
class Halfplane(_FlatSpace):
    """{(x, y) : y >= 0} with the Euclidean metric."""

    dim = 2

    def _chart_box(self, chart):
        return [(-math.inf, math.inf), (0.0, math.inf)]

    def sample_point(self, rng, radius, center=None):
        c = _as_array(center) if center is not None else np.zeros(2)
        while True:
            x = c + rng.uniform(-radius, radius, size=2)
            if x[1] >= 0 and np.linalg.norm(x - c) <= radius:
                return Point(0, tuple(x))


@dataclass(frozen=True)
class BaseSetSpec:
    """Subset of the unit circle used as the base of a cone.

    kinds: "full_sphere", "finite_angles" (angles in radians),
    "cantor_arc" (middle-thirds set on the arc [0, 1] radian, truncated at
    `levels` refinement steps; representatives are the 2^levels left
    endpoints of the surviving intervals).
    """

    kind: str
    angles: Tuple[float, ...] = ()
    levels: int = 0

    @staticmethod
    def full_sphere() -> "BaseSetSpec":
        return BaseSetSpec("full_sphere")

    @staticmethod
    def finite_angles(angles: Iterable[float]) -> "BaseSetSpec":
        return BaseSetSpec("finite_angles", angles=tuple(float(a) for a in angles))

    @staticmethod
    def cantor_arc(levels: int) -> "BaseSetSpec":
        return BaseSetSpec("cantor_arc", levels=int(levels))

    def base_angles(self) -> np.ndarray:
        if self.kind == "finite_angles":
            return np.asarray(sorted(self.angles), dtype=float)
        if self.kind == "cantor_arc":
            # left endpoints of the level-k middle-thirds intervals, as
            # parameters in [0, 1] mapped to an arc of 1 radian
            lefts = [0.0]
            width = 1.0
            for _ in range(self.levels):
                width /= 3.0
                lefts = [x for l in lefts for x in (l, l + 2 * width)]
            return np.asarray(sorted(lefts), dtype=float)
        raise ValueError(f"no finite representative set for kind {self.kind!r}")

    def base_points(self) -> np.ndarray:
        """Unit vectors in R^2, one per representative angle."""
        th = self.base_angles()
        return np.stack([np.cos(th), np.sin(th)], axis=-1)


@dataclass(frozen=True)
class Cone(_FlatSpace):
    """{t*a : t >= 0, a in base} in R^dim with the ambient Euclidean metric."""

    dim: int
    base: BaseSetSpec

    def __post_init__(self):
        if self.base.kind != "full_sphere" and self.dim != 2:
            raise ValueError("finite base sets are only supported in dimension 2")

    def contains(self, p, tol=1e-9):
        if not super().contains(p, tol):
            return False
        if self.base.kind == "full_sphere":
            return True
        x = _as_array(p)
        r = float(np.linalg.norm(x))
        if r <= tol:
            return True
        rays = self.base.base_points()
        # distance from x to the closed ray {t*a : t >= 0}, computed as the
        # residual norm (no r^2 - proj^2 cancellation)
        proj = np.clip(rays @ x, 0.0, None)
        resid = np.linalg.norm(x[None, :] - proj[:, None] * rays, axis=1)
        return bool(np.min(resid) <= tol * max(1.0, r))

    def lattice_rows(self, rows, radius, spacing, budget=DEFAULT_POINT_BUDGET):
        if self.base.kind == "full_sphere":
            return super().lattice_rows(rows, radius, spacing, budget)
        return Space.lattice_rows(self, rows, radius, spacing, budget)

    def _region_at(self, rows, i, radius, spacing, budget):
        # a finite base: the grid of each ray, not a box
        if self.base.kind == "full_sphere":
            return super()._region_at(rows, i, radius, spacing, budget)
        c = rows[1][i, :self.chart_dim(int(rows[0][i]))]
        self._check(Point(0, tuple(c.tolist())))
        # the ray grid, measured in blocks and copied only if a row drops
        pts = _ray_grid(self.base.base_points(), np.linalg.norm(c) + radius, spacing, budget)
        keep = np.concatenate([self._norm([x - a for x, a in zip(b.T, c)]) <= radius + 1e-9
                               for b in np.split(pts, range(_RAY_BLOCK, len(pts), _RAY_BLOCK))])
        pts = pts if keep.all() else pts[keep]
        # the ray-major rows sorted by the first coordinate, and fully only
        # where first coordinates tie; the sorts are stable, as np.lexsort
        pts = pts.take(np.argsort(pts[:, 0], kind="stable"), axis=0)
        if np.any(pts[1:, 0] == pts[:-1, 0]):
            pts = pts.take(np.lexsort(pts.T[::-1]), axis=0)
        return np.zeros(len(pts), dtype=np.int64), pts

    def sample_point(self, rng, radius, center=None):
        if self.base.kind == "full_sphere":
            return Euclidean(self.dim).sample_point(rng, radius, center)
        rays = self.base.base_points()
        c = _as_array(center) if center is not None else np.zeros(self.dim)
        c_norm = float(np.linalg.norm(c))
        while True:
            a = rays[rng.integers(len(rays))]
            t = rng.uniform(0.0, c_norm + radius)
            x = t * a
            if np.linalg.norm(x - c) <= radius:
                return Point(0, tuple(x))


def _ray_grid(rays: np.ndarray, t_max: float, spacing: float, budget: int) -> np.ndarray:
    """The points t * a for each ray a and each multiple t of the spacing in
    [0, t_max], ray-major, with the shared origin only once: the first
    ray's. The budget is checked before they are built."""
    (k, d), n = rays.shape, _axis_size(0.0, t_max, spacing)
    _charge(n * k, budget)
    ts = np.arange(n) * spacing
    pts = np.empty((n + (k - 1) * len(ts[1:]), d))
    np.multiply(ts[:, None], rays[0], out=pts[:n])
    np.multiply(ts[1:, None], rays[1:, None], out=pts[n:].reshape(k - 1, len(ts[1:]), d))
    return pts


def _gap_sum(n: int, m: int) -> float:
    """(n+1) + (n+2) + ... + m for n < m."""
    return (m * (m + 1) - n * (n + 1)) / 2.0


class _ChainSpace(_CoordinateSpace):
    """Common machinery for block-chain spaces: block n at chart n, anchored
    at c_n, with cross-block distance d(x,c_n) + d(y,c_m) + sum of gaps."""

    max_chart: int = 10_000  # structural sanity bound, not a metric feature

    def chart_dim(self, chart):
        if not (0 <= chart <= self.max_chart):
            raise InvalidPointError(f"chart {chart} out of range")
        return self._block_dim(chart)

    def _block_dim(self, n: int) -> int:
        raise NotImplementedError

    def _cross(self, chart_p, a, chart_q, b):
        """The distances between points of different charts, from their
        offsets a and b as columns: both anchor terms plus the gaps between
        the charts (charts may be arrays)."""
        return (self._norm(a) + self._norm(b)
                + _gap_sum(np.minimum(chart_p, chart_q), np.maximum(chart_p, chart_q)))

    def _boxes(self, charts, C, reach):
        """The boxes of the lattice regions of the given reach around the
        centres ``(charts, C)``, by centre and then by increasing chart: each
        box's centre and chart, and its low and high bounds as (b, w) arrays,
        zeros past the box's chart. A centre has a box in every chart its
        region reaches, around the chart's point nearest the centre, of
        half-width the reach left after that point, cut to the chart's
        bounds."""
        boxes = []
        for i, (chart, row) in enumerate(zip(charts.tolist(), C.tolist())):
            center = Point(chart, tuple(row[:self.chart_dim(chart)]))
            for c in self._lattice_charts(center, reach):
                near = np.array([self._nearest(c, center)], dtype=float)
                left = reach - float(self._between(c, near[0], center.chart, center.coords))
                if not left < 0:  # a centre that is not finite fails in its box
                    boxes.append((i, c, *self._box_bounds(c, near, left)))
        box_charts, lo = _stack_blocks([(c, a) for _, c, a, _ in boxes])
        hi = _stack_blocks([(c, b) for _, c, _, b in boxes])[1]
        return np.array([i for i, *_ in boxes], dtype=np.int64), box_charts, lo, hi

    def _nearest(self, chart, center):
        """The point of ``chart`` nearest the center: the center in its own
        chart, else the chart's anchor."""
        if chart == center.chart:
            return center.coords
        return (0.0,) * self.chart_dim(chart)

    def _lattice_charts(self, center, radius):
        """The charts, in increasing order, that the region of this radius
        around ``center`` may reach (charts it misses are skipped)."""
        # every path to another block crosses the gaps between the blocks,
        # which grow away from the center's block on both sides
        c = center.chart
        lo = hi = c
        while lo > 0 and _gap_sum(lo - 1, c) <= radius:
            lo -= 1
        while hi < self.max_chart and _gap_sum(c, hi + 1) <= radius:
            hi += 1
        return range(lo, hi + 1)

    def sample_point(self, rng, radius, center=None):
        center = center if center is not None else self.origin()
        for _ in range(10_000):
            lo = max(0, center.chart - int(radius))
            n = int(rng.integers(lo, center.chart + int(radius) + 1))
            if n > self.max_chart:
                continue
            a = self._sample_block_offset(rng, n)
            p = Point(n, tuple(a))
            if self.distance(p, center) <= radius:
                return p
        raise RuntimeError("failed to sample a chain point within radius")

    def _sample_block_offset(self, rng, n: int) -> np.ndarray:
        """A uniform point of block n's box, drawn axis by axis."""
        return np.array([rng.uniform(lo, hi) for lo, hi in self._chart_box(n)])


@dataclass(frozen=True)
class ChainRects(_ChainSpace):
    """Disjoint rectangles P_n: P_{2m} is 1 x 2^m, P_{2m+1} is 2^m x 1,
    max metric inside each block, anchors at the centers, triangular gaps."""

    max_chart = 2047  # the last block whose extents, up to 2^1023, are floats

    def extents(self, n: int) -> Tuple[float, float]:
        m, r = divmod(n, 2)
        return (1.0, 2.0 ** m) if r == 0 else (2.0 ** m, 1.0)

    def _block_dim(self, n):
        return 2

    def _norm(self, diffs):
        return np.maximum(abs(diffs[0]), abs(diffs[1]))

    def _chart_box(self, chart):
        w, h = self.extents(chart)
        return [(-w / 2, w / 2), (-h / 2, h / 2)]


def _e3_epoch(n: int) -> int:
    """k with 2^{k^2} <= n < 2^{(k+1)^2}; by convention k=0 for n = 0."""
    if n <= 0:
        return 0
    k = 0
    while 2.0 ** ((k + 1) ** 2) <= n:
        k += 1
    return k


def e3_multiplier(role: str, n: int) -> int:
    """Stretch factor applied when mapping segment n to segment n+1."""
    k = _e3_epoch(n)
    if role == "f":
        return 1 if k % 2 == 0 else 2
    if role == "g":
        return 2 if k % 2 == 0 else 1
    raise ValueError("role must be 'f' or 'g'")


@functools.lru_cache(maxsize=None)
def _last_float_segment(role: str) -> int:
    """The last chart, up to the chain bound, whose segment length
    2^log2_length is a float (log2_length at most 1023). The length doubles
    from chart to chart through the epochs whose multiplier is 2, so
    log2_length(lo + j) = e + j inside such an epoch [lo, hi)."""
    e, lo, k = 0, 0, 0
    while lo < _ChainSpace.max_chart:
        hi = min(2 ** ((k + 1) ** 2), _ChainSpace.max_chart)
        if e3_multiplier(role, lo) == 2:
            if e + hi - lo > 1023:
                return lo + 1023 - e
            e += hi - lo
        lo, k = hi, k + 1
    return _ChainSpace.max_chart


@dataclass(frozen=True)
class ChainSegments(_ChainSpace):
    """Disjoint real segments, anchors at left endpoints, triangular gaps.

    Segment lengths follow the epoch-parity doubling rule for the given
    role ('f' or 'g'); lengths are tracked via exact log2 exponents.
    """

    role: str = "f"

    @property
    def max_chart(self):  # type: ignore[override]
        return _last_float_segment(self.role)

    def log2_length(self, n: int) -> int:
        e = 0
        for i in range(n):
            e += e3_multiplier(self.role, i) - 1  # multiplier 2 adds one bit
        return e

    def length(self, n: int) -> float:
        return 2.0 ** self.log2_length(n)

    def _block_dim(self, n):
        return 1

    def _norm(self, diffs):
        return abs(diffs[0])

    def _chart_box(self, chart):
        return [(0.0, self.length(chart))]


@dataclass(frozen=True)
class SpineBlocks(_ChainSpace):
    """Half-line spine with a Euclidean block R^{2^k} attached at integer k.

    Chart 0 is the spine (1-D coordinate t >= 0); chart k+1 is the block of
    dimension 2^k anchored at spine position k, with distances measured
    along the space: |t - k| + |x|, or |x| + |k - l| + |y| across blocks.
    """

    max_level: int = 12

    @property
    def max_chart(self):  # type: ignore[override]
        return self.max_level + 1

    def _block_dim(self, chart):
        return 1 if chart == 0 else 2 ** (chart - 1)

    def _spine_pos(self, chart):
        return chart - 1.0

    def _cross(self, chart_p, a, chart_q, b):
        # spine to block, block to spine, block to block through the spine
        # (charts may be arrays, the spine's offset is its first column)
        pos_p, pos_q = self._spine_pos(chart_p), self._spine_pos(chart_q)
        return np.where(chart_p == 0, abs(a[0] - pos_q) + self._norm(b),
                        np.where(chart_q == 0, abs(b[0] - pos_p) + self._norm(a),
                                 self._norm(a) + abs(pos_p - pos_q) + self._norm(b)))

    def _lattice_charts(self, center, radius):
        # the spine and the blocks of 1 and 2 coordinates; the blocks above
        # grow in dimension and are only reached through the structured
        # spike construction
        return range(min(self.max_chart, 2) + 1)

    def _nearest(self, chart, center):
        if chart == 0 and center.chart != 0:
            return (self._spine_pos(center.chart),)
        return super()._nearest(chart, center)

    def _chart_box(self, chart):
        if chart == 0:
            return [(0.0, math.inf)]  # the spine is t >= 0
        return super()._chart_box(chart)

    def _sample_block_offset(self, rng, n):
        dim = self._block_dim(n)
        return rng.uniform(-2.0, 2.0, size=dim)

    def sample_point(self, rng, radius, center=None):
        center = center if center is not None else self.origin()
        for _ in range(10_000):
            chart = int(rng.integers(0, min(self.max_chart, 4) + 1))
            a = self._sample_block_offset(rng, chart)
            if chart == 0:
                a = np.abs(a[:1])
            p = Point(chart, tuple(a))
            if self.distance(p, center) <= radius:
                return p
        raise RuntimeError("failed to sample a spine point")


@dataclass(frozen=True)
class Product(Space):
    """Product of two spaces with the max metric. Its rows are its factors'
    rows side by side, a ``(left rows, right rows)`` pair, and every row
    counts as chart 0, as a pair ``Point`` does."""

    left: Space
    right: Space

    def chart_dim(self, chart):
        raise InvalidPointError("product points carry parts, not charts")

    def _check(self, p):
        if p.parts is None:
            raise InvalidPointError("product-space point must carry parts")

    def origin(self):
        return Point.pair(self.left.origin(), self.right.origin())

    def distance(self, p, q):
        self._check(p); self._check(q)
        return max(self.left.distance(p.parts[0], q.parts[0]),
                   self.right.distance(p.parts[1], q.parts[1]))

    def contains(self, p, tol=1e-9):
        return (p.parts is not None
                and self.left.contains(p.parts[0], tol)
                and self.right.contains(p.parts[1], tol))

    def rows_of(self, points):
        for p in points:
            self._check(p)
        return (self.left.rows_of([p.parts[0] for p in points]),
                self.right.rows_of([p.parts[1] for p in points]))

    def points_of(self, rows):
        return [Point.pair(a, b) for a, b in zip(self.left.points_of(rows[0]),
                                                 self.right.points_of(rows[1]))]

    def take_rows(self, rows, index):
        return self.left.take_rows(rows[0], index), self.right.take_rows(rows[1], index)

    def join_rows(self, parts):
        return (self.left.join_rows([p[0] for p in parts]),
                self.right.join_rows([p[1] for p in parts]))

    def row_charts(self, rows):
        return np.zeros(len(self.left.row_charts(rows[0])), dtype=np.int64)

    def rows_step(self, rows):
        return self.left.rows_step(rows[0]), self.right.rows_step(rows[1])

    def step_distances(self, step, p, q):
        return np.maximum(self.left.step_distances(step[0], p, q),
                          self.right.step_distances(step[1], p, q))

    def _region_at(self, rows, i, radius, spacing, budget):
        # max metric: the region is the product of the factor regions,
        # left-major; each factor region keeps to the budget, then the
        # product is charged
        left = self.left._region_at(rows[0], i, radius, spacing, budget)
        right = self.right._region_at(rows[1], i, radius, spacing, budget)
        nl, nr = len(self.left.row_charts(left)), len(self.right.row_charts(right))
        _charge(nl * nr, budget)
        return (self.left.take_rows(left, np.arange(nl).repeat(nr)),
                self.right.take_rows(right, np.tile(np.arange(nr), nl)))

    def sample_point(self, rng, radius, center=None):
        cl = center.parts[0] if center is not None else None
        cr = center.parts[1] if center is not None else None
        return Point.pair(self.left.sample_point(rng, radius, cl),
                          self.right.sample_point(rng, radius, cr))

