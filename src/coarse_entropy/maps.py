"""Self-maps and cross-space maps with exact closed-form evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import InvalidPointError, SpaceMismatchError
from .spaces import (ChainRects, ChainSegments, HalfLine, Halfplane, Point,
                     Product, Space, _charts_present, _stack_blocks,
                     e3_multiplier)

PAIR_SAMPLE_CAP = 1_000_000


class MapDescriptor:
    """Base class. ``domain`` and ``codomain`` are Space instances;
    self-maps have codomain == domain."""

    domain: Space
    codomain: Space

    def apply(self, p: Point, check: bool = True) -> Point:
        if check and not self.domain.contains(p):
            raise InvalidPointError(f"point {p} is not in the domain")
        q = self._apply(p)
        return q

    def _apply(self, p: Point) -> Point:
        raise NotImplementedError

    def apply_block(self, chart: int, X: np.ndarray) -> Tuple[int, np.ndarray]:
        """Images of the points ``(chart, row)`` for the rows of an ``(m, d)``
        array, as ``(image chart, (m, d') coords)``, without domain checks.
        Every image must land in one chart; an empty block keeps its chart.
        This base version applies ``_apply`` row by row; maps with a closed
        form override it."""
        images = [self._apply(Point(chart, tuple(row))) for row in X.tolist()]
        charts = {q.chart for q in images}
        if len(charts) > 1:
            raise ValueError(f"{type(self).__name__} sends chart {chart} "
                             f"to charts {sorted(charts)}")
        if not images:
            return chart, X
        return images[0].chart, np.array([q.coords for q in images], dtype=float)

    def apply_rows(self, rows):
        """Images of rows of the domain (``Space.rows_of``), as rows of the
        codomain, without domain checks: the rows of each chart are mapped
        at once by ``apply_block``."""
        charts, X = rows
        present, dim = _charts_present(charts), self.domain.chart_dim
        if len(present) == 1:  # in row order already
            chart, Y = self.apply_block(present[0], X[:, :dim(present[0])])
            return np.full(len(Y), chart, dtype=np.int64), Y
        groups = [(c, np.flatnonzero(charts == c)) for c in present]
        images = _stack_blocks([self.apply_block(c, X[at, :dim(c)]) for c, at in groups])
        # back from chart by chart to row order
        back = np.argsort(np.concatenate([at for _, at in groups] + [np.zeros(0, dtype=np.int64)]))
        return tuple(a[back] for a in images)


@dataclass(frozen=True)
class Identity(MapDescriptor):
    domain: Space

    @property
    def codomain(self):
        return self.domain

    def _apply(self, p):
        return p

    def apply_rows(self, rows):
        return rows


def _image_columns(M: np.ndarray, cols) -> list:
    """The coordinates of M d, for vectors d given as coordinate columns:
    each a sum in column order, elementwise, with no BLAS call, so a vector
    maps alike alone or in a block."""
    out = []
    for row in M:
        y = 0.0
        for m, c in zip(row, cols):
            y = y + m * c
        out.append(y)
    return out


@dataclass(frozen=True)
class Linear(MapDescriptor):
    """x -> M x on a Euclidean-like chart-0 space."""

    domain: Space
    matrix: Tuple[Tuple[float, ...], ...]

    @property
    def codomain(self):
        return self.domain

    def mat(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    def _apply(self, p):
        return Point(0, tuple(_image_columns(self.mat(), p.coords)))

    def apply_block(self, chart, X):
        return 0, np.column_stack(_image_columns(self.mat(), list(X.T)))

    def eigenvalues(self) -> Optional[np.ndarray]:
        """Exact eigenvalues for diagonal/triangular matrices, else None."""
        m = self.mat()
        if np.allclose(m, np.triu(m)) or np.allclose(m, np.tril(m)):
            return np.diagonal(m).copy()
        return None

    def expansion_lambda(self) -> Optional[float]:
        ev = self.eigenvalues()
        if ev is None:
            return None
        return float(np.min(np.abs(ev)))

    def big_lambda(self) -> Optional[float]:
        """|product of eigenvalues of modulus > 1|."""
        ev = self.eigenvalues()
        if ev is None:
            return None
        prod = 1.0
        for v in ev:
            if abs(v) > 1.0:
                prod *= abs(v)
        return prod


def linear_1d(domain: Space, a: float) -> Linear:
    return Linear(domain, ((float(a),),))


@dataclass(frozen=True)
class Homothety(MapDescriptor):
    """x -> lam * x; preserves rays, so cones are closed under it."""

    domain: Space
    lam: float

    @property
    def codomain(self):
        return self.domain

    def _apply(self, p):
        return Point(p.chart, tuple(self.lam * c for c in p.coords))


@dataclass(frozen=True)
class ChainLinear(MapDescriptor):
    """Maps block P_n onto P_{n+1} linearly, preserving axis directions and
    sending anchor to anchor."""

    domain: Space  # ChainRects or ChainSegments

    @property
    def codomain(self):
        return self.domain

    def _scales(self, n: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Per-axis (new, old) extents: block n's offset x goes to
        x * new / old in block n + 1."""
        sp = self.domain
        if not isinstance(sp, (ChainRects, ChainSegments)):
            raise SpaceMismatchError("ChainLinear requires a chain space")
        sp.chart_dim(n + 1)  # the image block exists
        if isinstance(sp, ChainRects):
            return sp.extents(n + 1), sp.extents(n)
        return (float(e3_multiplier(sp.role, n)),), (1.0,)

    def _apply(self, p):
        new, old = self._scales(p.chart)
        return Point(p.chart + 1, tuple(x * a / b for x, a, b in zip(p.coords, new, old)))

    def apply_block(self, chart, X):
        new, old = self._scales(chart)
        return chart + 1, X * np.array(new) / np.array(old)


def _phi_e1(x: float, y: float) -> Tuple[float, float]:
    ey = math.exp(y)
    if -ey <= x <= ey:
        return (x * math.exp(-y), y)
    if x > ey:
        return (x - ey + 1.0, y)
    return (x + ey - 1.0, y)


def _phi_inv_e1(x: float, y: float) -> Tuple[float, float]:
    ey = math.exp(y)
    if -1.0 <= x <= 1.0:
        return (x * ey, y)
    if x > 1.0:
        return (x + ey - 1.0, y)
    return (x - ey + 1.0, y)


@dataclass(frozen=True)
class ConjugatedDoubling(MapDescriptor):
    """g = phi o f o phi^{-1} on the half-plane, where f(x,y) = (2x,y) and
    phi squeezes [-e^y, e^y] x {y} onto [-1, 1] x {y}."""

    domain: Halfplane = field(default_factory=Halfplane)

    @property
    def codomain(self):
        return self.domain

    def _apply(self, p):
        x, y = p.coords
        u, _ = _phi_inv_e1(x, y)
        return Point(0, _phi_e1(2.0 * u, y))

    @staticmethod
    def phi(p: Point) -> Point:
        return Point(0, _phi_e1(p.coords[0], p.coords[1]))

    @staticmethod
    def phi_inv(p: Point) -> Point:
        return Point(0, _phi_inv_e1(p.coords[0], p.coords[1]))


def _power(x: float, e: int) -> float:
    """``x ** e`` of Python floats; a power past the float range raises
    ``InvalidPointError`` naming x."""
    try:
        return x ** e
    except OverflowError:
        raise InvalidPointError(f"x ** {e} is past the float range at x = {x!r}") from None


@dataclass(frozen=True)
class Laurent1D(MapDescriptor):
    """x -> sum of c_e * x^e over the (possibly negative) exponents e."""

    domain: Space
    coeffs: Tuple[Tuple[int, float], ...]  # ((exponent, coefficient), ...)
    codomain_space: Optional[Space] = None

    @staticmethod
    def make(domain: Space, coeffs: Dict[int, float],
             codomain: Optional[Space] = None) -> "Laurent1D":
        items = tuple(sorted((int(e), float(c)) for e, c in coeffs.items()))
        return Laurent1D(domain, items, codomain)

    @property
    def codomain(self):
        return self.codomain_space if self.codomain_space is not None else self.domain

    def _values(self, xs: List[float]) -> List[float]:
        # Python's float ``**``, not numpy's: the two may round apart, and
        # only Python's raises on 0.0 ** -1
        ys = [0.0] * len(xs)
        for e, c in self.coeffs:
            ys = [y + c * _power(x, e) for y, x in zip(ys, xs)]
        return ys

    def _apply(self, p):
        return Point(0, tuple(self._values([p.coords[0]])))

    def apply_block(self, chart, X):
        return 0, np.array(self._values(X[:, 0].tolist()), dtype=float).reshape(-1, 1)


def power_map(exponent: int, low: float = 2.0) -> Laurent1D:
    """x -> x^exponent on [low, oo); low >= 2 keeps the half-line invariant."""
    if low < 2.0:
        raise ValueError("power maps are only provided on half-lines [a, oo), a >= 2")
    return Laurent1D.make(HalfLine(low), {int(exponent): 1.0})


@dataclass(frozen=True)
class Affine1D(MapDescriptor):
    """x -> a x + b, optionally between different 1-D spaces."""

    domain: Space
    a: float
    b: float
    codomain_space: Optional[Space] = None

    @property
    def codomain(self):
        return self.codomain_space if self.codomain_space is not None else self.domain

    def _apply(self, p):
        return Point(0, (self.a * p.coords[0] + self.b,))

    def apply_block(self, chart, X):
        return 0, self.a * X + self.b


@dataclass(frozen=True)
class Iterate(MapDescriptor):
    base: MapDescriptor
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("iteration count must be >= 1")

    @property
    def domain(self):
        return self.base.domain

    @property
    def codomain(self):
        return self.base.codomain

    def _apply(self, p):
        q = p
        for _ in range(self.k):
            q = self.base.apply(q, check=False)
        return q

    def apply_rows(self, rows):
        for _ in range(self.k):
            rows = self.base.apply_rows(rows)
        return rows


@dataclass(frozen=True)
class ProductMap(MapDescriptor):
    left: MapDescriptor
    right: MapDescriptor

    @property
    def domain(self):
        return Product(self.left.domain, self.right.domain)

    @property
    def codomain(self):
        return Product(self.left.codomain, self.right.codomain)

    def _apply(self, p):
        return Point.pair(self.left.apply(p.parts[0], check=False),
                          self.right.apply(p.parts[1], check=False))

    def apply_rows(self, rows):
        return self.left.apply_rows(rows[0]), self.right.apply_rows(rows[1])


@dataclass(frozen=True)
class Compose(MapDescriptor):
    outer: MapDescriptor
    inner: MapDescriptor

    @property
    def domain(self):
        return self.inner.domain

    @property
    def codomain(self):
        return self.outer.codomain

    def _apply(self, p):
        return self.outer.apply(self.inner.apply(p, check=False), check=False)

    def apply_rows(self, rows):
        return self.outer.apply_rows(self.inner.apply_rows(rows))


@dataclass(frozen=True)
class ControlWitness:
    """Declared control data for a map: an increasing control function L
    bounding image distances."""

    L: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class ControlReport:
    violations: Tuple[Tuple[Point, Point, float, float], ...]
    max_ratio: float
    samples: int


def iterate_apply(mapd: MapDescriptor, k: int, p: Point) -> Point:
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p
    for _ in range(k):
        if not mapd.domain.contains(q):
            raise InvalidPointError("intermediate point left the domain")
        q = mapd.apply(q, check=False)
    return q


@dataclass(frozen=True)
class SampledPairs:
    """Seeded pairs (x, x2) of domain points with their distances before and
    after the map, as arrays indexed by pair: ``d_src[i] = d(x, x2)`` and
    ``d_img[i] = d(f x, f x2)``. ``point(k)`` is the k-th point drawn, so
    pair i is points 2i and 2i + 1."""

    d_src: np.ndarray
    d_img: np.ndarray
    point: Callable[[int], Point]

    def tuples(self, mask: np.ndarray) -> List[Tuple[Point, Point, float, float]]:
        """``(x, x2, d_src, d_img)`` of each pair the boolean mask selects."""
        return [(self.point(2 * i), self.point(2 * i + 1),
                 float(self.d_src[i]), float(self.d_img[i]))
                for i in np.flatnonzero(mask).tolist()]


def sampled_pairs(mapd: MapDescriptor, rng: np.random.Generator,
                  region_radius: float, samples: int) -> SampledPairs:
    """``samples`` pairs of domain points within the region around the
    origin, x and x2 drawn in turn from one stream, measured in blocks.
    ``samples`` must be >= 1; at most PAIR_SAMPLE_CAP pairs are drawn."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m = 2 * min(samples, PAIR_SAMPLE_CAP)
    dom, cod = mapd.domain, mapd.codomain
    drawn = dom.sample_block(rng, region_radius, m)
    src, img = dom.rows_step(drawn), cod.rows_step(mapd.apply_rows(drawn))

    def point(k):
        return dom.points_of(dom.take_rows(drawn, [k]))[0]
    p, q = np.arange(0, m, 2), np.arange(1, m, 2)
    return SampledPairs(dom.step_distances(src, p, q),
                        cod.step_distances(img, p, q), point)


def verify_control(mapd: MapDescriptor, witness: ControlWitness,
                   region_radius: float, samples: int, seed: int) -> ControlReport:
    """Sample member pairs within the region and test d(fx, fx') <= L(d(x, x'))."""
    if witness.L is None:
        raise ValueError("witness must declare a control function L")
    pairs = sampled_pairs(mapd, np.random.default_rng(seed), region_radius, samples)
    d_img = pairs.d_img
    L = witness.L
    # a control function has an array form; any other callable is called per float
    from .coarse import ControlFunction  # coarse imports this module
    bound = (L.values(pairs.d_src) if isinstance(L, ControlFunction)
             else np.array([L(t) for t in pairs.d_src.tolist()], dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, d_img / bound, np.where(d_img > 0, math.inf, 0.0))
    return ControlReport(tuple(pairs.tuples(d_img > bound + 1e-9)),
                         float(ratio.max(initial=0.0)), len(d_img))
