"""Computable metric spaces: points, exact distances, membership, lattice regions.

Every space here is a concrete metric space with closed-form distances.
Unbounded spaces are the normal case; bounded regions only appear when a
caller restricts enumeration by a radius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidPointError

DEFAULT_POINT_BUDGET = 10_000_000
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
    """Base class; subclasses provide the metric and the discretization."""

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
        coords) order: the rows of ``lattice_blocks`` as points."""
        return [Point(chart, tuple(row))
                for chart, grid in self.lattice_blocks(center, radius, spacing, budget)
                for row in grid.tolist()]

    def lattice_blocks(
        self,
        center: Point,
        radius: float,
        spacing: float,
        budget: int = DEFAULT_POINT_BUDGET,
    ) -> List[Tuple[int, np.ndarray]]:
        """The region's grid points as ``(chart, (m, d) coords)`` blocks, one
        per chart that holds points, in increasing chart order, each block's
        rows in lexicographic order."""
        _check_region(radius, spacing)
        return [(chart, grid)
                for chart, grid in self._lattice_blocks(center, radius, spacing, budget)
                if len(grid)]

    def _lattice_blocks(self, center, radius, spacing, budget) -> list:
        """The region's ``(chart, coords)`` blocks by increasing chart, each
        block's rows in lexicographic order."""
        raise ValueError(f"{type(self).__name__} has no block lattice")

    def sample_point(self, rng: np.random.Generator, radius: float,
                     center: Optional[Point] = None) -> Point:
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, radius: float, m: int):
        """m points within ``radius`` of the origin, the ones ``m`` calls of
        ``sample_point`` draw in turn: here those points, as a list. Spaces
        with a batched sampler return a ``(chart, (m, d) coords)`` block."""
        return [self.sample_point(rng, radius) for _ in range(m)]


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
        columns a and b."""
        if chart_p == chart_q:
            return self._norm([u - v for u, v in zip(a, b)])
        return self._cross(chart_p, a, chart_q, b)

    def distance(self, p, q):
        self._check(p); self._check(q)
        return float(self._between(p.chart, p.coords, q.chart, q.coords))

    def _lattice_charts(self, center, radius):
        """The charts, in increasing order, that the region of this radius
        around ``center`` may reach (charts it misses are skipped)."""
        return (0,)

    def _nearest(self, chart, center):
        """The point of ``chart`` nearest the center: the center in its own
        chart, else the chart's anchor."""
        if chart == center.chart:
            return center.coords
        return (0.0,) * self.chart_dim(chart)

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

    def _lattice_blocks(self, center, radius, spacing, budget):
        # a chart's part of the region lies in the box around the chart's
        # point nearest the center, of half-width the radius left after
        # reaching that point, cut to the chart's bounds; the budget is
        # charged box by box; the filter keeps the mesh's lexicographic order
        self._check(center)
        reach = radius + 1e-9
        out, charged = [], 0
        for chart in self._lattice_charts(center, reach):
            near = self._nearest(chart, center)
            left = reach - float(self._between(chart, near, center.chart, center.coords))
            if left < 0:
                continue
            bounds = [(max(c - left, lo), min(c + left, hi))
                      for c, (lo, hi) in zip(near, self._chart_box(chart))]
            charged = _charge(charged + math.prod(max(_axis_size(lo, hi, spacing), 1)
                                                  for lo, hi in bounds), budget)
            grid = _mesh([_axis_grid(lo, hi, spacing) for lo, hi in bounds])
            d = self._between(chart, list(grid.T), center.chart, center.coords)
            out.append((chart, grid[d <= reach]))
        return out

    def step(self, points):
        """One step of an orbit family, the point of every orbit at one
        index, in the form ``step_distances`` measures."""
        charts = {p.chart for p in points}
        dims = {self.chart_dim(c) for c in charts}
        coords = [p.coords for p in points]
        if len(dims) > 1:
            width = max(dims)
            coords = [c + (0.0,) * (width - len(c)) for c in coords]
        chart = charts.pop() if len(charts) == 1 else np.array([p.chart for p in points])
        return self.block_step(chart, np.array(coords, dtype=float))

    def block_step(self, chart, X: np.ndarray):
        """The step of the rows of an ``(m, d)`` coordinate array: ``chart``
        holds every row, or is an array of one chart per row."""
        if not np.all(np.isfinite(X)):
            raise ValueError("orbit coordinates must be finite")
        return chart, list(X.T.copy())

    def step_distances(self, step, p, q):
        """The distances between rows ``p[i]`` and ``q[i]`` of one step, for
        index arrays p and q."""
        chart, columns = step
        inner = self._norm([x[p] - x[q] for x in columns])
        if not isinstance(chart, np.ndarray):
            return inner
        cp, cq = chart[p], chart[q]
        cross = self._cross(cp, [x[p] for x in columns], cq, [x[q] for x in columns])
        return np.where(cp == cq, inner, cross)


class _FlatSpace(_CoordinateSpace):
    """A single chart 0 of ``dim`` coordinates with the Euclidean metric."""

    def chart_dim(self, chart):
        if chart != 0:
            raise InvalidPointError(f"{type(self).__name__} has a single chart 0")
        return self.dim


def _check_region(radius: float, spacing: float) -> None:
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not (0 < spacing <= radius):
        raise ValueError("spacing must satisfy 0 < spacing <= radius")


def _axis_size(lo: float, hi: float, spacing: float) -> int:
    """Number of multiples of spacing inside [lo, hi]."""
    k_lo = math.ceil(lo / spacing - 1e-12)
    return max(math.floor(hi / spacing + 1e-12) - k_lo + 1, 0)


def _axis_indices(lo: float, hi: float, spacing: float) -> np.ndarray:
    """The integers k with k * spacing inside [lo, hi]."""
    return math.ceil(lo / spacing - 1e-12) + np.arange(_axis_size(lo, hi, spacing))


def _axis_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    """Multiples of spacing (anchored at 0) inside [lo, hi]."""
    return _axis_indices(lo, hi, spacing) * spacing


def _charge(total: int, budget: int) -> int:
    """``total`` grid points, checked against the budget before they are
    built."""
    if total > budget:
        raise BudgetExceededError(
            f"lattice region of ~{total} points exceeds budget {budget}",
            requested=total, budget=budget)
    return total


def _box_axes(center: np.ndarray, radius, spacing: float,
              budget: int) -> List[np.ndarray]:
    """The grid indices k (points k * spacing) of each axis of the box
    ``center +- radius`` (one radius, or one per axis). The budget is
    checked on the box size, before any axis is built."""
    radii = np.broadcast_to(radius, len(center))
    bounds = [(c - r, c + r) for c, r in zip(center, radii)]
    _charge(math.prod(max(_axis_size(lo, hi, spacing), 1) for lo, hi in bounds), budget)
    return [_axis_indices(lo, hi, spacing) for lo, hi in bounds]


def _mesh(axes: List[np.ndarray]) -> np.ndarray:
    """The points of the grid with these axes, in lexicographic order."""
    d = len(axes)
    grid = np.empty([len(a) for a in axes] + [d])
    for j, a in enumerate(axes):
        grid[..., j] = a.reshape([-1 if i == j else 1 for i in range(d)])
    return grid.reshape(-1, d)


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
        return 0, np.concatenate(kept)


@dataclass(frozen=True)
class IntegerLattice(_FlatSpace):
    """Z^q with the Euclidean metric."""

    dim: int

    def contains(self, p, tol=1e-9):
        return super().contains(p, tol) and all(abs(c - round(c)) <= tol for c in p.coords)

    def _lattice_blocks(self, center, radius, spacing, budget):
        step = float(max(1, round(spacing)))
        return super()._lattice_blocks(center, radius, step, budget)

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

    def _lattice_blocks(self, center, radius, spacing, budget):
        if self.base.kind == "full_sphere":
            return super()._lattice_blocks(center, radius, spacing, budget)
        self._check(center)
        c = _as_array(center)
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
        return [(0, pts)]

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

    def _lattice_charts(self, center, radius):
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
    """Product of two spaces with the max metric."""

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

    def step(self, points):
        return (self.left.step([p.parts[0] for p in points]),
                self.right.step([p.parts[1] for p in points]))

    def step_distances(self, step, p, q):
        return np.maximum(self.left.step_distances(step[0], p, q),
                          self.right.step_distances(step[1], p, q))

    def lattice_region(self, center, radius, spacing, budget=DEFAULT_POINT_BUDGET):
        _check_region(radius, spacing)
        self._check(center)
        # max metric: the region is the product of the factor regions
        lpts = self.left.lattice_region(center.parts[0], radius, spacing, budget)
        rpts = self.right.lattice_region(center.parts[1], radius, spacing, budget)
        _charge(len(lpts) * len(rpts), budget)
        return [Point.pair(a, b) for a in lpts for b in rpts]

    def sample_point(self, rng, radius, center=None):
        cl = center.parts[0] if center is not None else None
        cr = center.parts[1] if center is not None else None
        return Point.pair(self.left.sample_point(rng, radius, cl),
                          self.right.sample_point(rng, radius, cr))

