"""Construction, validation, enumeration and transforms of delta-pseudoorbits."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidPointError
from .maps import (Homothety, Identity, Iterate, Linear, MapDescriptor,
                   _image_columns)
from .spaces import (Cone, Euclidean, Point, SpineBlocks, _box_mesh, _grid_boxes,
                     _ray_grid)

VALIDATE_TOL = 1e-9
DEFAULT_ORBIT_BUDGET = 10_000_000


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite sequence (x_0, ..., x_n) claimed to satisfy
    d(f(x_i), x_{i+1}) <= delta at every step."""

    points: Tuple[Point, ...]
    delta: float
    map: MapDescriptor

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("a pseudoorbit needs at least one point")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def length(self) -> int:
        return len(self.points) - 1

    def to_json(self):
        return {"delta": self.delta, "points": [p.to_json() for p in self.points]}


@dataclass
class ValidationResult:
    ok: bool
    first_violation_index: Optional[int] = None
    violation_distance: Optional[float] = None

    def __bool__(self):
        return self.ok


def validate(orbit: PseudoOrbit) -> ValidationResult:
    """Check every step of the orbit against its delta bound."""
    space = orbit.map.domain
    pts = orbit.points
    for p in pts:
        if not space.contains(p, tol=1e-7):
            return ValidationResult(False, None)
    for i in range(len(pts) - 1):
        d = space.distance(orbit.map.apply(pts[i], check=False), pts[i + 1])
        if d > orbit.delta + VALIDATE_TOL:
            return ValidationResult(False, i, d)
    return ValidationResult(True)


def orbit_distance(a: PseudoOrbit, b: PseudoOrbit) -> float:
    """Max over indices of the pointwise distance."""
    if len(a.points) != len(b.points):
        raise ValueError("orbits must have equal length")
    space = a.map.domain
    return max(space.distance(p, q) for p, q in zip(a.points, b.points))


def enumerate_pseudoorbits(mapd: MapDescriptor, x0: Point, n: int, delta: float,
                           spacing: float,
                           budget: int = DEFAULT_ORBIT_BUDGET) -> List[PseudoOrbit]:
    """Exhaustive grid family: every successor of x_i is a lattice point
    within delta of f(x_i). Deterministic depth-first order. The orbits of
    ``grid_family``."""
    levels = grid_family(mapd, x0, n, delta, spacing, budget)
    return family_orbits(mapd, x0, delta, levels, np.arange(len(levels[-1][0])))


def grid_family(mapd: MapDescriptor, x0: Point, n: int, delta: float, spacing: float,
                budget: int = DEFAULT_ORBIT_BUDGET) -> list:
    """The grid family of ``enumerate_pseudoorbits``, built level by level:
    entry k - 1 holds the points x_k of every prefix (x_0, ..., x_k), in
    depth-first order, as ``(owner, rows)``: row i extends prefix
    ``owner[i]`` of the level before (x0 alone before the first). Each
    level maps its rows with ``apply_rows`` and expands every image into
    its lattice region with ``lattice_rows``. The length-n family of a
    ``GridFamily``.

    A failing region (over its budget, a grid index past int64) ends its
    level where depth-first order would meet it, and its error is raised
    at the end unless the orbits before it already exceed the budget. More
    than ``budget`` orbits raise the family error. So does a level of more
    than ``budget`` prefixes, which bounds what is built: depth-first order
    would raise it too unless some prefix ends in an empty region. An
    error of the map itself is raised when its level is mapped."""
    return GridFamily(mapd, x0, delta, spacing, budget).levels(n)


class GridFamily:
    """The grid families of every length n from x0, built once: the
    length-n family is the first n levels of every longer one, so levels
    are built in increasing n, as far as the longest family asked for."""

    def __init__(self, mapd: MapDescriptor, x0: Point, delta: float, spacing: float,
                 budget: int = DEFAULT_ORBIT_BUDGET):
        self._more = _grid_levels(mapd, x0, delta, spacing, budget)
        self._built: list = []

    def levels(self, n: int) -> list:
        """The levels of the length-n family, as ``grid_family`` lists
        them; raises the failure pending after level n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._built += itertools.islice(self._more, max(n - len(self._built), 0))
        error = self._built[n - 1][2]
        if error is not None:
            raise error
        return [(owner, rows) for owner, rows, _ in self._built[:n]]


def _grid_levels(mapd, x0, delta, spacing, budget):
    """The levels of the grid family one after another, without end, as
    ``(owner, rows, error)``: ``error`` is the failure pending after the
    level, which the family ending there raises. A level of more than
    ``budget`` prefixes is cut to ``budget + 1``, so longer families go on
    from the prefixes depth-first order reaches first."""
    if spacing > delta:
        raise ValueError("spacing must not exceed delta")
    space = mapd.domain
    rows, error = space.rows_of([x0]), None
    while True:
        with np.errstate(all="ignore"):  # an image past the float range fails in its box
            owner, rows, failure = space.lattice_rows(mapd.apply_rows(rows), delta, spacing,
                                                      budget)
        error = failure or error  # a failure here comes before any pending one
        if len(owner) > budget:
            error = BudgetExceededError("pseudoorbit family exceeds budget",
                                        requested=budget + 1, budget=budget)
            owner = owner[:budget + 1]
            rows = space.take_rows(rows, np.arange(budget + 1))
        yield owner, rows, error


def _orbit_rows(space, levels, at: np.ndarray) -> list:
    """The rows of the orbits at indices ``at`` of ``grid_family`` levels,
    one row set per index 1..n, each orbit's row at an index found by
    following the owners back from its last point."""
    out = []
    for owner, rows in reversed(levels):
        out.append(space.take_rows(rows, at))
        at = owner[at]
    return out[::-1]


def family_steps(space, levels) -> list:
    """The steps of the orbits of ``grid_family`` levels, one per index 1..n
    in ``rows_step`` form."""
    return [space.rows_step(rows)
            for rows in _orbit_rows(space, levels, np.arange(len(levels[-1][0])))]


def family_orbits(mapd: MapDescriptor, x0: Point, delta: float, levels,
                  at: np.ndarray) -> List[PseudoOrbit]:
    """The orbits at indices ``at`` of ``grid_family`` levels from x0, in
    that order, as ``PseudoOrbit``s."""
    steps = [mapd.domain.points_of(rows) for rows in _orbit_rows(mapd.domain, levels, at)]
    return [PseudoOrbit((x0, *points), delta, mapd) for points in zip(*steps)]


@dataclass
class FinalTermSet:
    """Set of final terms of length-n pseudoorbits from x0.

    LOWER sets are realized: ``reconstruct`` rebuilds an explicit valid
    pseudoorbit ending at any listed point. UPPER sets describe a hull that
    provably contains every final term.
    """

    points: List[Point]
    n: int
    delta: float
    provenance: str  # "LOWER" or "UPPER"
    reconstruct: Optional[Callable[[Point], PseudoOrbit]] = None


def _on_ray_grid(mapd: MapDescriptor) -> bool:
    """Whether the map's final-term sets lie on a ray grid: a homothety on a
    cone over a finite base set. Such a grid is not R-separated, so a count
    over it keeps a greedy R-net."""
    space = mapd.domain
    return (isinstance(mapd, Homothety) and isinstance(space, Cone)
            and space.base.kind != "full_sphere")


def _cone_final_terms(mapd: MapDescriptor, x0: Point, n: int, delta: float,
                      spacing: float, budget: int
                      ) -> Tuple[np.ndarray, Callable[[Point], PseudoOrbit]]:
    """The realized final-term set of a homothety on a cone over a finite
    base set, x0 at the apex (see ``_on_ray_grid``): the ray grid of
    B(lam^{n-1} delta), without the last step's widening, as a chart-0
    ``(m, q)`` coordinate array, with the closure that rebuilds a valid
    pseudoorbit from x0 ending at any of its rows (given as a ``Point``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if any(c != 0.0 for c in x0.coords):
        raise ValueError("cone final-term sets require x0 at the apex")
    space = mapd.domain
    lam = mapd.lam
    scale = lam ** (n - 1)
    t_max = scale * delta
    rays = space.base.base_points()

    def rebuild_cone(z: Point) -> PseudoOrbit:
        cz = np.asarray(z.coords)
        t = float(np.linalg.norm(cz))
        a = cz / t if t > 0 else rays[0]
        y = (min(t, t_max) / scale) * a
        chain = [Point(0, tuple((lam ** j) * y)) for j in range(n - 1)]
        return PseudoOrbit((x0, *chain, z), delta, mapd)

    return _ray_grid(rays, t_max, spacing, budget), rebuild_cone


@dataclass
class GridLines:
    """Points of the spacing grid held as lines along the last axis: line i
    holds the points (heads[i], k * spacing) for lo[i] <= k < hi[i] of box
    owner[i]. Box by box, the lines run in lexicographic order of their
    heads, so ``rows`` lists each box's points in lexicographic order."""

    owner: np.ndarray  # (L,) the box of every line
    heads: np.ndarray  # (L, q - 1) coordinates of every axis but the last
    lo: np.ndarray     # (L,) first grid index on the last axis
    hi: np.ndarray     # (L,) one past the last grid index
    spacing: float

    def rows(self) -> np.ndarray:
        """The points as an ``(m, q)`` coordinate array."""
        sizes = self.hi - self.lo
        starts = np.cumsum(sizes) - sizes
        k = np.repeat(self.lo - starts, sizes) + np.arange(int(np.sum(sizes)))
        return np.column_stack([np.repeat(self.heads, sizes, axis=0),
                                k * self.spacing])


def _within(M: np.ndarray, cols, r) -> np.ndarray:
    """The final-term filter ``||M d|| <= r + 1e-9`` for differences d from
    the center given as coordinate columns. It is elementwise (M and r may
    hold a value per point), so a point tests alike alone or in a grid."""
    sq = 0.0
    for y in _image_columns(M, cols):
        sq = sq + y * y
    return np.sqrt(sq) <= r + 1e-9


_BAND = 2  # grid indices tested by ``_within`` on each side of a line's end


def _grid_lines(center: np.ndarray, half: np.ndarray, spacing: float, budget: int,
                M: Optional[np.ndarray] = None, r=None) -> GridLines:
    """The points g of the spacing grid of each box ``center[i] +- half[i]``
    ((B, q) arrays) with ``_within(M[i], g - center[i], r[i])`` (all when M
    is None) as the lines of owner i, without building the boxes: one
    ``_grid_boxes`` call charges them all and raises the first failure.

    On a line of a box the filter holds on one interval of the last
    coordinate, found in closed form. The points more than ``_BAND``
    indices inside it are kept; the ``_BAND`` band at each end (around the
    line's closest approach to the center when the interval is empty) is
    tested with ``_within`` itself, so rounding decides at the boundary as
    the filter does. Every line takes its box's M, center and r, so each
    product and sum is the one its box alone would make."""
    first, size, error = _grid_boxes(center - half, center + half, spacing, budget)
    if error is not None:
        raise error
    # a box with no grid index on the last axis has no lines
    owner, heads = _box_mesh(first[:, :-1], size[:, :-1] * (size[:, -1:] > 0), spacing)
    k_min, k_max = first[owner, -1], first[owner, -1] + size[owner, -1] - 1
    if M is None:
        return GridLines(owner, heads, k_min, k_max + 1, spacing)
    c, m = center[owner], M.transpose(1, 2, 0)[:, :, owner]  # m[i, j]: M[i, j] per line
    dh = [h - cj for h, cj in zip(heads.T, c.T)]
    u = [y + np.zeros(len(owner)) for y in _image_columns(m[:, :-1], dh)]
    aa = np.sum(M[:, :, -1] * M[:, :, -1], axis=1)[owner]
    bb = sum(ui * vi for ui, vi in zip(u, m[:, -1]))
    cc = sum(ui * ui for ui in u) - np.array([(x + 1e-9) ** 2 for x in r.tolist()])[owner]
    disc = bb * bb - aa * cc
    mid = (c[:, -1] - bb / aa) / spacing
    width = np.sqrt(np.maximum(disc, 0.0)) / aa / spacing
    ends = [np.where(disc < 0, np.round(mid), np.ceil(mid - width)),
            np.where(disc < 0, np.round(mid), np.floor(mid + width))]
    band = np.arange(-_BAND, _BAND + 1)
    # clipped to the line's indices, NaN to k_min
    cand = np.concatenate([np.fmin(np.fmax(e, k_min), k_max).astype(np.int64)[:, None]
                           + band for e in ends], axis=1)
    k_min, k_max = k_min[:, None], k_max[:, None]
    ok = ((cand >= k_min) & (cand <= k_max) & _within(
        m[..., None], [d[:, None] for d in dh] + [cand * spacing - c[:, -1:]], r[owner, None]))
    lo = np.where(ok, cand, k_max + 1).min(axis=1)
    hi = np.where(ok, cand + 1, k_min).max(axis=1)
    return GridLines(owner, heads, lo, np.maximum(hi, lo), spacing)


def _final_term_box(mapd: MapDescriptor, x0: Point, n: int, delta: float):
    """The realized final-term set of ``final_terms_lower`` at one n on a
    Euclidean space as a box and its filter (see ``_grid_lines``), with the
    closure that rebuilds a valid pseudoorbit from x0 ending at any of its
    points (given as a ``Point``): ``(center, half, M, r, rebuild)``, M None
    where every grid point of the box ``center +- half`` is realized.

    The orbits go x0, x1, f(x1), ..., f^{n-2}(x1), z with x1 in B(f(x0),
    delta), so z lies in f^{n-1}(B(f(x0), delta)) plus a last delta-step:
    - Identity: the ball B(x0, 2 delta).
    - Linear, 1-D: the image interval widened by delta.
    - Linear, q-D: the image ellipsoid, without the widening. A Homothety
      is the diagonal linear map.
    With n = 1 the orbit is (x0, z), so there is no last step to widen by.
    Any other map or domain raises ``ValueError``; the homothety on a cone
    is ``_cone_final_terms``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    space = mapd.domain
    if not isinstance(space, Euclidean):
        raise ValueError(f"final-term sets of {type(mapd).__name__} are realized "
                         f"only on Euclidean spaces, not on {type(space).__name__}")
    c0 = np.asarray(x0.coords, dtype=float)
    slack = delta if n > 1 else 0.0  # the last step's widening
    if isinstance(mapd, Identity):

        def rebuild_id(z: Point) -> PseudoOrbit:
            cz = np.asarray(z.coords)
            gap = float(np.linalg.norm(cz - c0))
            y = z if gap <= delta else Point(
                z.chart, tuple(c0 + (cz - c0) * (delta / gap)))
            return PseudoOrbit((x0,) + (y,) * (n - 1) + (z,), delta, mapd)

        r = delta + slack
        return c0, np.full(len(c0), r), np.eye(len(c0)), r, rebuild_id

    if isinstance(mapd, Homothety):
        a = np.diag(np.full(len(c0), mapd.lam, dtype=float))
        fwd = np.linalg.matrix_power(a, n - 1)
        inv = np.linalg.inv(fwd)
    elif isinstance(mapd, Linear):
        a, (fwd, inv) = mapd.mat(), mapd.power(n - 1)
    else:
        raise ValueError(f"final-term sets do not support {type(mapd).__name__}")
    center_src = a @ c0  # f(x0), the center of the first-step ball
    center_img = fwd @ center_src

    def rebuild(y: np.ndarray, z: Point) -> PseudoOrbit:
        """The orbit x0, y, f(y), ..., f^{n-2}(y), z."""
        chain = [x0]
        for _ in range(n - 1):
            chain.append(Point(0, tuple(y.tolist())))
            y = a @ y
        return PseudoOrbit((*chain, z), delta, mapd)

    if len(c0) == 1:
        core = abs(fwd[0, 0]) * delta

        def rebuild_1d(z: Point) -> PseudoOrbit:
            w = min(max(z.coords[0], center_img[0] - core), center_img[0] + core)
            return rebuild(inv[0] * w, z)

        return center_img, np.full(1, core + slack), None, 0.0, rebuild_1d

    half = delta * np.linalg.norm(fwd, axis=1) + 1e-12

    def rebuild_nd(z: Point) -> PseudoOrbit:
        return rebuild(inv @ (np.asarray(z.coords) - center_img) + center_src, z)

    return center_img, half, inv, delta, rebuild_nd


def _final_term_lines(mapd: MapDescriptor, x0: Point, ns, delta: float, spacing: float,
                      budget: int) -> Tuple[GridLines, list]:
    """The sets of ``_final_term_box`` at each n of ns in turn as the lines
    of one ``_grid_lines`` pass (owner i for ns[i]), with their rebuild
    closures. The boxes are built up to the first n whose geometry fails
    (a box past the float range fails in ``_grid_lines``), and the first
    failure in n order is raised, as counting each n alone raises it."""
    lines, boxes, error = None, [], None
    with np.errstate(all="ignore"):
        try:
            for n in ns:
                boxes.append(_final_term_box(mapd, x0, n, delta))
        except ValueError as exc:  # raised after the boxes before it
            error = exc
        if boxes:
            center, half, M, r, _ = zip(*boxes)
            lines = _grid_lines(np.array(center), np.array(half), spacing, budget,
                                None if M[0] is None else np.array(M), np.array(r))
    if error is not None:
        raise error
    return lines, [box[-1] for box in boxes]


def final_terms_lower(mapd: MapDescriptor, x0: Point, n: int, delta: float,
                      spacing: float,
                      budget: int = DEFAULT_ORBIT_BUDGET) -> FinalTermSet:
    """Grid discretization of the reachable final-term set
    f^{n-1}(B(f(x0), delta)), each point realized by an explicit pseudoorbit.

    Supported maps: Identity, invertible Linear and Homothety on Euclidean
    spaces, Homothety on cones over a finite base set with x0 at the apex
    (see ``_final_term_box``), and the axis spikes of the identity on
    SpineBlocks, R-separated at R = ``spacing`` (see spine_spikes)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    space = mapd.domain
    if isinstance(mapd, Identity) and isinstance(space, SpineBlocks):
        return spine_spikes(space, mapd, x0, n, delta, R=spacing,
                            materialize_budget=budget)
    if _on_ray_grid(mapd):
        X, reconstruct = _cone_final_terms(mapd, x0, n, delta, spacing, budget)
    else:
        lines, (reconstruct,) = _final_term_lines(mapd, x0, [n], delta, spacing, budget)
        X = lines.rows()
    return FinalTermSet([Point(0, tuple(row)) for row in X.tolist()], n, delta,
                        "LOWER", reconstruct)


def _spike_levels(space: SpineBlocks, n: int, delta: float,
                  R: float) -> List[Tuple[int, float]]:
    """The levels k, with spike radius rho_k = n*delta - k, whose spikes are
    R-separated: rho_k > 0 and rho_k >= R/sqrt(2), so that two spikes are
    sqrt(2) rho_k >= R apart in one block, rho_k + |k - l| + rho_l across."""
    reach = n * delta
    return [(k, reach - k) for k in range(space.max_level + 1)
            if reach - k > 0 and reach - k >= R / math.sqrt(2.0)]


def spine_spikes(space: SpineBlocks, mapd: MapDescriptor, x0: Point, n: int,
                 delta: float, R: float = 0.0,
                 materialize_budget: int = 200_000) -> FinalTermSet:
    """Axis-spike final terms for the identity on a spine-with-blocks space:
    one point per axis direction of each level ``_spike_levels`` keeps at
    separation R (R = 0 keeps all), at the radius n*delta - k it reaches."""
    levels = _spike_levels(space, n, delta, R)
    storage = sum(4 ** k for k, _ in levels)  # coords storage cost
    if storage > materialize_budget:
        raise BudgetExceededError("spine spike materialization exceeds budget",
                                  requested=storage, budget=materialize_budget)
    pts: List[Point] = []
    for k, rho in levels:
        dim = 2 ** k
        for i in range(dim):
            coords = [0.0] * dim
            coords[i] = rho
            pts.append(Point(k + 1, tuple(coords)))

    def rebuild_spike(z: Point) -> PseudoOrbit:
        k = z.chart - 1
        rho = float(np.linalg.norm(np.asarray(z.coords)))
        direction = np.asarray(z.coords) / rho
        chain = [x0]
        for i in range(1, n + 1):
            arc = min(i * delta, k + rho)
            if arc <= k:
                chain.append(Point(0, (arc,)))
            else:
                chain.append(Point(k + 1, tuple((arc - k) * direction)))
        return PseudoOrbit(tuple(chain), delta, mapd)

    return FinalTermSet(pts, n, delta, "LOWER", reconstruct=rebuild_spike)


def spine_spike_count(space: SpineBlocks, n: int, delta: float, R: float) -> int:
    """Closed-form size of the spike set ``spine_spikes`` lists at
    separation R: the 2^k directions of each level ``_spike_levels`` keeps."""
    return sum(2 ** k for k, _ in _spike_levels(space, n, delta, R))


@dataclass
class EllipsoidHull:
    """f^n(B(center_src, r)) for an expanding linear map: every final term of
    a valid delta-pseudoorbit lies inside (shadowing bound r = delta/(lam-1))."""

    center: np.ndarray
    forward: np.ndarray        # A^n
    inverse: np.ndarray        # A^{-n}
    radius: float              # pre-image ball radius delta/(lam-1)
    n: int
    delta: float
    lam: float
    provenance: str = "UPPER"

    def contains(self, p: Point, tol: float = 1e-7) -> bool:
        z = np.asarray(p.coords) - self.center
        return float(np.linalg.norm(self.inverse @ z)) <= self.radius + tol

    def half_widths(self) -> np.ndarray:
        return self.radius * np.linalg.norm(self.forward, axis=1)

    def box_cover_count(self, S: float) -> int:
        """Number of S-boxes needed to cover the hull's bounding box."""
        if S <= 0:
            raise ValueError("box size must be positive")
        return _box_cover(self.half_widths(), S, self.n)


def _box_cover(half: np.ndarray, S: float, n: int) -> int:
    """The S-boxes that cover the box of half-widths ``half`` of the hull at
    n, an exact int; a width past the float range is an invalid point."""
    widths = [2 * h / S for h in half.tolist()]
    if not all(map(math.isfinite, widths)):
        raise InvalidPointError(f"the shadow hull at n = {n} is past the float range: "
                                f"half-widths {half.tolist()}")
    return math.prod(max(1, math.ceil(w)) for w in widths)


def shadow_hull(mapd: MapDescriptor, x0: Point, n: int, delta: float,
                lam: Optional[float] = None) -> EllipsoidHull:
    """Upper-bound hull for final terms of expanding linear maps. The hull
    radius delta/(lam - 1) needs |Av| >= lam |v| for every v, that is
    |A^-1|_2 <= 1/lam; a lam, computed or declared, that this bound does
    not back raises ``ValueError``. For a diagonal A the bound is min
    |a_ii|, checked exactly; otherwise it is A's smallest singular value,
    with a 1e-12 relative margin for its rounding."""
    lam = _hull_lambda(mapd, lam)
    fwd, inv = mapd.power(n)
    center = fwd @ np.asarray(x0.coords)
    return EllipsoidHull(center, fwd, inv, delta / (lam - 1.0), n, delta, lam)


def _hull_lambda(mapd: MapDescriptor, lam: Optional[float]) -> float:
    """The lam of ``shadow_hull``, computed or declared, checked as it says."""
    if not isinstance(mapd, Linear):
        raise ValueError("shadow hulls exist only for linear maps")
    if lam is None:
        lam = mapd.expansion_lambda()
    if lam is None:
        raise ValueError("non-triangular matrix: declare the expansion lambda")
    if lam <= 1.0:
        raise ValueError("map must be expanding (lambda > 1)")
    a = mapd.mat()
    diagonal = np.diagonal(a)
    bound = (float(np.min(np.abs(diagonal))) if np.array_equal(a, np.diag(diagonal))
             else float(np.linalg.svd(a, compute_uv=False)[-1]) * (1.0 + 1e-12))
    if lam > bound:
        raise ValueError(f"lambda {lam:g} is not backed by |A^-1|_2 <= 1/lambda: "
                         f"the largest lambda it allows is {bound:.6g}")
    return lam


def subsample(orbit: PseudoOrbit, k: int, L: Callable[[float], float]) -> PseudoOrbit:
    """Every k-th point as an eta_k-pseudoorbit of the k-th iterate, with
    eta_k = delta + L(delta) + ... + L^{k-1}(delta)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if orbit.length % k != 0:
        raise ValueError("orbit length must be divisible by k")
    if L is None:
        raise ValueError("subsampling requires a control function for the base map")
    eta = 0.0
    t = orbit.delta
    for _ in range(k):
        eta += t
        t = L(t)
    base = orbit.map
    iterated = Iterate(base, k) if k > 1 else base
    return PseudoOrbit(orbit.points[::k], eta, iterated)


def push_forward(orbit: PseudoOrbit, cert) -> PseudoOrbit:
    """Image of the orbit under a controlled map phi that semiconjugates the
    orbit's map f to a codomain map g up to closeness K: the image is an
    (L(delta) + K)-pseudoorbit of g."""
    if cert.K_close is None:
        raise ValueError("certificate declares no closeness budget K_close")
    g = getattr(cert, "conjugated_map", None)
    if g is None:
        raise ValueError("certificate must carry the codomain map (conjugated_map)")
    new_delta = cert.L(orbit.delta) + cert.K_close
    pts = tuple(cert.phi.apply(p, check=False) for p in orbit.points)
    return PseudoOrbit(pts, new_delta, g)
