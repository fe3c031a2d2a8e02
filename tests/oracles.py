"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's enumeration and greedy code paths:
the orbit oracle is an iterative breadth-first product construction, the
separated/spanning oracles solve the exact combinatorial problems (maximum
clique in the >= R graph, minimum covering via integer programming),
``_hashed_greedy`` is the pure-Python cell-hash scan that the vectorized
``entropy._greedy_kept`` must reproduce index for index,
``first_fit_by_lists`` is the victim-list scan that ``entropy._first_fit``
must reproduce,
``euclidean_in_order``, ``chain_distance`` and ``spine_distance`` are the
pair metrics written out that every space's ``distance`` and
``step_distances`` must equal bit for bit, ``_greedy_separated_orbits``
is the orbit-by-orbit first-fit count that ``entropy._greedy_kept_orbits``
must reproduce, and
``enumerate_depth_first`` is the grid family enumerated prefix by prefix
in depth-first order, which the level-by-level family must list orbit for
orbit and fail alike, and ``prefix_level_sizes`` counts its prefixes
level by level;
``lattice_region`` is the library's lattice region with a product's
region built as the cross product of its factors' regions, as
``Product.lattice_region`` built it before products had rows, and a
finite-base cone's region from ``cone_ray_lattice``; the references here
take every region from it.
``flat_lattice_region``, ``chain_lattice_region``, ``spine_lattice_region``
and ``orbit_image_count`` are the point-by-point flat, chain and spine
lattices and ORBIT_IMAGE count that the coordinate-block versions must
reproduce exactly, ``chart_bounds`` and ``contains_by_coordinates`` are
each space's chart bounds and membership written out, which
``_chart_box`` and ``contains`` must equal, ``cone_ray_lattice`` is the
finite-base cone lattice re-sorted after it was built, which the cone's
own sort must equal bit for bit, and
``linear_grid_count`` and ``cone_final_term_count`` are the FINAL_TERM
counts as they were before the count and the realized final-term set
shared one geometry: the count must equal them wherever the set is
realized, ``final_term_rows`` is the Euclidean final-term set as a
materialized, filtered box grid, which the line-by-line set must list row
for row, and ``product_witnesses`` is the product-inequality
witness check as the product runner made it before ``count_product`` took
it over, pair by pair through ``orbit_distance``, and ``_distance_matrix``
is a family's orbit distances as ``count_product`` filled them pair by
pair before it measured steps: its ``< R`` matrix must equal the one
built from the steps bit for bit. ``check_embedding_by_pairs``,
``verify_control_by_pairs``, ``check_density_by_pairs`` and
``closeness_defect_by_points`` are the coarse-map checks as they were before
they measured in blocks: one sampled pair, codomain point or lattice point
per Python iteration, one ``distance`` call per pair; the block checks must
return the same reports field for field. The density reference centres its
codomain lattice on the image of the domain origin, as the check does.
"""

import itertools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

import networkx as nx
from scipy.optimize import LinearConstraint, milp

from coarse_entropy.coarse import DensityReport, EmbeddingReport
from coarse_entropy.errors import BudgetExceededError, InvalidPointError
from coarse_entropy.maps import (PAIR_SAMPLE_CAP, ControlReport, Homothety,
                                 Identity, Linear)
from coarse_entropy.orbits import PseudoOrbit, orbit_distance
from coarse_entropy.spaces import (ChainRects, ChainSegments, Cone, Euclidean,
                                   HalfLine, Halfplane, IntegerLattice, Point,
                                   Product, SpineBlocks, _check_region)


def lattice_region(space, center, radius, spacing, budget):
    """``space.lattice_region``, with the region of a product built as the
    product of its factors' regions, left-major, pair point by pair point,
    as products built it before they had rows: each factor region keeps to
    the budget, then the product is charged. A finite-base cone's region is
    ``cone_ray_lattice``, charged its rays times the multiples of spacing in
    [0, |center| + radius + 1e-9]."""
    if isinstance(space, Cone) and space.base.kind != "full_sphere":
        _check_region(radius, spacing)
        reach = float(np.linalg.norm(center.coords)) + (radius + 1e-9)
        charge(len(space.base.base_angles()) * len(_multiples(0.0, reach, spacing)), budget)
        return [Point(0, tuple(row))
                for row in cone_ray_lattice(space, center, radius, spacing).tolist()]
    if not isinstance(space, Product):
        return space.lattice_region(center, radius, spacing, budget)
    _check_region(radius, spacing)
    if center.parts is None:
        raise InvalidPointError("product-space point must carry parts")
    left = lattice_region(space.left, center.parts[0], radius, spacing, budget)
    right = lattice_region(space.right, center.parts[1], radius, spacing, budget)
    total = len(left) * len(right)
    if total > budget:
        raise BudgetExceededError(f"lattice region of ~{total} points exceeds budget {budget}",
                                  requested=total, budget=budget)
    return [Point.pair(a, b) for a in left for b in right]


def brute_force_pseudoorbits(mapd, x0, n, delta, spacing, budget=1_000_000):
    """All grid delta-pseudoorbits of length n from x0, built breadth-first."""
    space = mapd.domain
    layers = [[(x0,)]]
    for _ in range(n):
        nxt = []
        for prefix in layers[-1]:
            image = mapd.apply(prefix[-1], check=False)
            for succ in lattice_region(space, image, delta, spacing, budget):
                nxt.append(prefix + (succ,))
                if len(nxt) > budget:
                    raise RuntimeError("oracle budget exceeded")
        layers.append(nxt)
    return layers[-1]


def enumerate_depth_first(mapd, x0, n, delta, spacing, budget=10_000_000):
    """The exhaustive grid family as ``enumerate_pseudoorbits`` listed it
    before it was built level by level: depth-first, one ``lattice_region``
    and one ``apply`` per prefix, raising the first failure it meets."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spacing > delta:
        raise ValueError("spacing must not exceed delta")
    space = mapd.domain
    out = []

    def extend(prefix):
        if len(prefix) == n + 1:
            if len(out) >= budget:
                raise BudgetExceededError("pseudoorbit family exceeds budget",
                                          requested=len(out) + 1, budget=budget)
            out.append(PseudoOrbit(tuple(prefix), delta, mapd))
            return
        image = mapd.apply(prefix[-1], check=False)
        for succ in lattice_region(space, image, delta, spacing, budget):
            prefix.append(succ)
            extend(prefix)
            prefix.pop()

    extend([x0])
    return out


def prefix_level_sizes(mapd, x0, n, delta, spacing, budget):
    """The number of prefixes (x_0, ..., x_k) at each level k < n, level by
    level, up to the first region over its budget."""
    space, level, sizes = mapd.domain, [x0], []
    for _ in range(n - 1):
        nxt = []
        for p in level:
            try:
                nxt += lattice_region(space, mapd.apply(p, check=False), delta, spacing,
                                      budget)
            except BudgetExceededError:
                return sizes + [len(nxt)]
        sizes.append(len(nxt))
        level = nxt
    return sizes


def max_separated_exact(items, R, dist):
    """Exact maximum cardinality of an R-separated subset."""
    g = nx.Graph()
    g.add_nodes_from(range(len(items)))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if dist(items[i], items[j]) >= R:
                g.add_edge(i, j)
    clique, _ = nx.max_weight_clique(g, weight=None)
    return len(clique)


def min_spanning_exact(items, R, dist):
    """Exact minimum cardinality of a subset covering every item within < R."""
    m = len(items)
    cover = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            if dist(items[i], items[j]) < R:
                cover[i, j] = cover[j, i] = 1.0
    res = milp(c=np.ones(m),
               constraints=LinearConstraint(cover, lb=np.ones(m)),
               integrality=np.ones(m), bounds=(0, 1))
    assert res.success
    return int(round(res.fun))


def _cell_key(coords: Tuple[float, ...], cell: float) -> Tuple[int, ...]:
    return tuple(int(math.floor(c / cell)) for c in coords)


def _hashed_greedy(coords: Sequence[Tuple[float, ...]], R: float) -> List[int]:
    """Greedy scan for Euclidean point clouds with a cell hash (cell size R:
    any pair closer than R shares or neighbors a cell). Returns kept indices."""
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    kept: List[int] = []
    if not coords:
        return kept
    dim = len(coords[0])
    offsets = [()]
    for _ in range(dim):
        offsets = [o + (d,) for o in offsets for d in (-1, 0, 1)]
    r2 = R * R
    for i, p in enumerate(coords):
        key = _cell_key(p, R)
        ok = True
        for off in offsets:
            nb = tuple(k + d for k, d in zip(key, off))
            for j in buckets.get(nb, ()):
                q = coords[j]
                if sum((a - b) ** 2 for a, b in zip(p, q)) < r2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            buckets.setdefault(key, []).append(i)
    return kept


def euclidean_in_order(a, b):
    """The Euclidean distance of two coordinate tuples: the squared
    differences added left to right, then the square root."""
    total = 0.0
    for u, v in zip(a, b):
        total += (u - v) * (u - v)
    return math.sqrt(total)


def _max_abs(a, b):
    return max(abs(u - v) for u, v in zip(a, b))


def chain_distance(p, q):
    """The distance of ChainRects and ChainSegments points: the largest
    coordinate difference inside a block; across blocks, the distances of
    both points to their block anchors (offset 0) plus the gaps
    (lo+1) + ... + hi between the blocks."""
    if p.chart == q.chart:
        return _max_abs(p.coords, q.coords)
    lo, hi = (p, q) if p.chart < q.chart else (q, p)
    return (_max_abs(lo.coords, (0.0,) * len(lo.coords))
            + _max_abs(hi.coords, (0.0,) * len(hi.coords))
            + (hi.chart * (hi.chart + 1) - lo.chart * (lo.chart + 1)) / 2)


def spine_distance(p, q):
    """The SpineBlocks distance: Euclidean inside a chart; from the spine
    (chart 0) to block chart c, |t - (c - 1)| plus the point's norm; across
    blocks, both norms plus the spine stretch between them."""
    def norm(x):
        return euclidean_in_order(x.coords, (0.0,) * len(x.coords))

    if p.chart == q.chart:
        return euclidean_in_order(p.coords, q.coords)
    if p.chart == 0:
        return abs(p.coords[0] - (q.chart - 1)) + norm(q)
    if q.chart == 0:
        return abs(q.coords[0] - (p.chart - 1)) + norm(p)
    return norm(p) + abs((p.chart - 1) - (q.chart - 1)) + norm(q)


def spine_lattice_region(space, center, radius, spacing, budget=math.inf):
    """The lattice region of SpineBlocks built point by point: in each chart
    of at most 3 coordinates (the gridded ones), every spacing point of the
    chart's bounding box whose ``spine_distance`` to the center is at most
    radius (+ 1e-9), sorted as ``lattice_region`` sorts. A point of another
    block is at least its norm away, and a spine point at least its stretch
    to c - 1 when the center is in block c, so the box is the center's +-
    that radius in its own chart, 0 +- it in other blocks and c - 1 +- it
    on the spine (cut at 0). Each such point ``mid`` that is in reach is
    charged to the budget as ``chain_lattice_region`` charges a block."""
    reach = radius + 1e-9
    out = []
    total = 0
    for chart in range(space.max_chart + 1):
        dim = space.chart_dim(chart)
        if dim > 3:
            continue
        if chart == center.chart:
            mid = center.coords
        elif chart == 0:
            mid = (center.chart - 1.0,)
        else:
            mid = (0.0,) * dim
        left = reach - spine_distance(Point(chart, mid), center)
        if left >= 0:
            total = charge(total + box_charge(mid, left, chart_bounds(space, chart), spacing),
                            budget)
        axes = [_multiples(max(m - reach, 0.0) if chart == 0 else m - reach,
                           m + reach, spacing).tolist() for m in mid]
        for row in itertools.product(*axes):
            p = Point(chart, row)
            if spine_distance(p, center) <= radius + 1e-9:
                out.append(p)
    out.sort(key=lambda p: (p.chart, p.coords))
    return out


def flat_lattice_region(center, radius, spacing, upper=False, low=-math.inf):
    """The lattice region of a flat space built point by point: every
    multiple of spacing in the box ``center +- (radius + spacing)`` whose
    ``euclidean_in_order`` distance to the center is at most radius
    (+ 1e-9), with y >= 0 when ``upper`` (the half-plane) and x >= ``low``
    (the half-line [low, oo), still on the multiples of spacing), sorted as
    ``lattice_region`` sorts."""
    axes = [_multiples(c - radius - spacing, c + radius + spacing, spacing).tolist()
            for c in center.coords]
    rows = [row for row in itertools.product(*axes)
            if euclidean_in_order(row, center.coords) <= radius + 1e-9
            and not (upper and row[1] < 0) and row[0] >= low]
    return [Point(0, row) for row in sorted(rows)]


def cone_ray_lattice(cone, center, radius, spacing):
    """The lattice region of a finite-base cone as it was built before its
    rows came out sorted: multiples of spacing along each base ray,
    ray-major with the origin once, out to |center| + radius + spacing so
    that the filter alone decides, kept where ``np.linalg.norm`` of the row
    minus the center is at most radius (+ 1e-9), then ``np.lexsort``-ed
    (stable, so repeated rows keep their ray order)."""
    c = np.asarray(center.coords, dtype=float)
    rays = cone.base.base_points()
    n_steps = int(math.floor((float(np.linalg.norm(c)) + radius) / spacing)) + 2
    pts = (np.arange(n_steps) * spacing)[None, :, None] * rays[:, None, :]
    rows = np.concatenate([pts[0], pts[1:, 1:].reshape(-1, 2)])
    rows = rows[np.linalg.norm(rows - c, axis=1) <= radius + 1e-9]
    return rows[np.lexsort(rows.T[::-1])]


def chart_bounds(space, chart):
    """The (low, high) bounds of each coordinate of a chart, written out
    space by space from the class docstrings."""
    if isinstance(space, ChainRects):
        w, h = space.extents(chart)
        return [(-w / 2, w / 2), (-h / 2, h / 2)]
    if isinstance(space, ChainSegments):
        return [(0.0, space.length(chart))]
    if isinstance(space, HalfLine):
        return [(space.low, math.inf)]
    if isinstance(space, Halfplane):
        return [(-math.inf, math.inf), (0.0, math.inf)]
    if isinstance(space, SpineBlocks) and chart == 0:
        return [(0.0, math.inf)]
    return [(-math.inf, math.inf)] * space.chart_dim(chart)


def contains_by_coordinates(space, p, tol):
    """Membership of a point of a valid chart, coordinate by coordinate:
    every coordinate finite and within its chart bound +- tol, integral
    within tol on an integer lattice, and within tol * max(1, |x|) of a
    base ray on a finite-base cone (or within tol of the apex)."""
    x = p.coords
    if not all(math.isfinite(c) and lo - tol <= c <= hi + tol
               for c, (lo, hi) in zip(x, chart_bounds(space, p.chart))):
        return False
    if isinstance(space, IntegerLattice):
        return all(abs(c - round(c)) <= tol for c in x)
    if isinstance(space, Cone) and space.base.kind != "full_sphere":
        r = math.hypot(*x)
        if r <= tol:
            return True
        gaps = []
        for a in space.base.base_points().tolist():
            t = max(x[0] * a[0] + x[1] * a[1], 0.0)
            gaps.append(math.hypot(x[0] - t * a[0], x[1] - t * a[1]))
        return min(gaps) <= tol * max(1.0, r)
    return True


def box_charge(near, left, bounds, spacing):
    """The grid points a lattice region is charged for one chart: those of
    the box ``near +- left`` cut to the chart's bounds, counted axis by
    axis, at least one per axis."""
    return math.prod(max(len(_multiples(max(m - left, lo), min(m + left, hi), spacing)), 1)
                     for m, (lo, hi) in zip(near, bounds))


def charge(total, budget):
    """``total``, or the budget error of a region charged that many points."""
    if total > budget:
        raise BudgetExceededError(f"lattice region of ~{total} points exceeds budget {budget}",
                                  requested=total, budget=budget)
    return total


def chain_lattice_region(space, center, radius, spacing, budget):
    """The lattice region of a chain space built point by point: every block
    the region can reach contributes the grid points whose ``chain_distance``
    to the center is at most radius (+ 1e-9), sorted as ``lattice_region``
    sorts. A block is reached when its point nearest the center (the center
    in its own block, else the block's anchor) is; it is charged to the
    budget the grid points of the block within the radius left after that
    point, axis by axis (at least one per axis)."""
    space._check(center)
    reach = radius + 1e-9
    out = []
    total = 0
    for n in range(space.max_chart + 1):
        near = center.coords if n == center.chart else (0.0,) * len(center.coords)
        left = reach - chain_distance(Point(n, near), center)
        if left < 0:
            if n > center.chart:
                break
            continue
        bounds = chart_bounds(space, n)
        total = charge(total + box_charge(near, left, bounds, spacing), budget)
        axes = [_multiples(lo, hi, spacing).tolist() for lo, hi in bounds]
        for row in itertools.product(*axes):
            p = Point(n, row)
            if chain_distance(p, center) <= reach:
                out.append(p)
    out.sort(key=lambda p: (p.chart, p.coords))
    return out


def _orbit_sep_ge(space, a, b, R):
    for p, q in zip(a.points, b.points):
        if space.distance(p, q) >= R:
            return True
    return False


def _greedy_separated_orbits(space, family, R):
    """First-fit R-separated count of a ``PseudoOrbit`` family: an orbit is
    kept iff some step puts it at ``space.distance`` >= R from every kept
    orbit, tested pair by pair with early exit."""
    kept = []
    for orb in family:
        if all(_orbit_sep_ge(space, orb, k, R) for k in kept):
            kept.append(orb)
    return len(kept)


def first_fit_by_lists(count, earlier, later):
    """First-fit scan of ``count`` candidates in order, where candidate
    ``earlier[i]``, once kept, blocks candidate ``later[i]``, with a Python
    list of victims per candidate, as ``entropy._first_fit`` scanned before
    it read packed bit rows. Returns the positions of the kept candidates."""
    victims: List[List[int]] = [[] for _ in range(count)]
    for a, b in zip(earlier.tolist(), later.tolist()):
        victims[a].append(b)
    blocked = [False] * count
    kept: List[int] = []
    for a, hits in enumerate(victims):
        if not blocked[a]:
            kept.append(a)
            for b in hits:
                blocked[b] = True
    return kept


def first_fit_separated(items, R, dist):
    """First-fit greedy R-separated subset: scan in order, keep an item iff
    it is at distance >= R from every kept item."""
    kept = []
    for it in items:
        if all(dist(it, k) >= R for k in kept):
            kept.append(it)
    return kept


def product_witnesses(fam_l, fam_r, R):
    """Constructive checks for the product inequalities: the product of the
    factor greedy-separated sets must be R-separated in the product (max
    metric), and, since a maximal R-separated set is R-spanning, it must
    also cover the whole product family."""
    dist = orbit_distance
    kept_l = first_fit_separated(fam_l, R, dist)
    kept_r = first_fit_separated(fam_r, R, dist)
    pairs = [(a, b) for a in kept_l for b in kept_r]
    sep_ok = True
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            d = max(dist(pairs[i][0], pairs[j][0]), dist(pairs[i][1], pairs[j][1]))
            if d < R:
                sep_ok = False
    span_ok = all(
        any(max(dist(x, u), dist(y, v)) < R for u in kept_l for v in kept_r)
        for x in fam_l for y in fam_r)
    return sep_ok, len(kept_l) * len(kept_r), span_ok, len(kept_l) * len(kept_r)


def _distance_matrix(family):
    """The ``orbit_distance`` of every two orbits of a family, pair by pair
    (0 on the diagonal)."""
    m = np.zeros((len(family), len(family)))
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            m[i, j] = m[j, i] = orbit_distance(family[i], family[j])
    return m


def orbit_image_family(mapd, x0, n, delta, spacing, budget):
    """True orbits of a gridded first-step ball around f(x0), as
    ``PseudoOrbit`` objects built by ``mapd.apply`` one point at a time."""
    space = mapd.domain
    image = mapd.apply(x0, check=False)
    if isinstance(space, (ChainRects, ChainSegments)):
        candidates = chain_lattice_region(space, image, delta, spacing, budget)
    else:
        candidates = lattice_region(space, image, delta, spacing, budget)
    if candidates and any(c.chart != image.chart for c in candidates):
        candidates = [c for c in candidates if c.chart == image.chart]
    fam = []
    for x1 in candidates:
        pts = [x0, x1]
        cur = x1
        for _ in range(n - 1):
            cur = mapd.apply(cur, check=False)
            pts.append(cur)
        fam.append(PseudoOrbit(tuple(pts), delta, mapd))
    return fam


def orbit_image_count(mapd, x0, n, delta, R, spacing, budget=1_000_000):
    """The ORBIT_IMAGE count over ``orbit_image_family``: one orbit at a
    time against the kept orbits, with the max-coordinate distance on chain
    spaces and per-step ``np.linalg.norm`` on Euclidean and half-plane
    spaces when every orbit follows one chart sequence, else
    ``space.distance`` step by step."""
    family = orbit_image_family(mapd, x0, n, delta, spacing, budget)
    if not family:
        return 0
    space = mapd.domain
    charts = [tuple(p.chart for p in orb.points) for orb in family]
    same_track = all(c == charts[0] for c in charts)
    chainlike = isinstance(space, (ChainRects, ChainSegments))
    if same_track and (chainlike or isinstance(space, (Euclidean, Halfplane))):
        mats = np.array([[p.coords for p in orb.points] for orb in family])
        kept = np.empty((0,) + mats.shape[1:])
        count = 0
        for i in range(len(family)):
            if len(kept):
                diff = np.abs(kept - mats[i])
                if chainlike:
                    dmax = diff.reshape(len(kept), -1).max(axis=1)
                else:
                    dmax = np.linalg.norm(diff, axis=2).max(axis=1)
                if not np.all(dmax >= R):
                    continue
            kept = np.concatenate([kept, mats[i:i + 1]])
            count += 1
        return count
    return _greedy_separated_orbits(space, family, R)


def _multiples(lo, hi, spacing):
    """Multiples of spacing inside [lo, hi]."""
    k_lo = math.ceil(lo / spacing - 1e-12)
    k_hi = math.floor(hi / spacing + 1e-12)
    if k_hi < k_lo:
        return np.empty(0)
    return np.arange(k_lo, k_hi + 1) * spacing


def _box_rows(center, half, spacing, budget):
    """The spacing grid of the box ``center +- half`` in lexicographic order,
    the budget checked on the box size before the grid is built."""
    axes = [_multiples(c - h, c + h, spacing)
            for c, h in zip(center, np.broadcast_to(half, len(center)))]
    total = 1
    for ax in axes:
        total *= max(len(ax), 1)
    if total > budget:
        raise BudgetExceededError("final-term grid exceeds budget",
                                  requested=total, budget=budget)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def linear_grid_count(mapd, x0, n, delta, R, budget):
    """Number of spacing-R grid points in the reachable final-term region of
    an invertible linear map (or the B(2 delta) ball for the identity),
    gridded in the ambient Euclidean space whatever the map's domain."""
    space = mapd.domain
    if isinstance(mapd, Identity):
        c = np.asarray(x0.coords)
        grid = _box_rows(c, 2 * delta, R, budget)
        return int(np.sum(np.linalg.norm(grid - c, axis=1) <= 2 * delta + 1e-9))
    if isinstance(mapd, Homothety):
        q = space.chart_dim(0)
        mapd = Linear(space, tuple(tuple(mapd.lam if i == j else 0.0
                                         for j in range(q)) for i in range(q)))
    a = mapd.mat()
    fwd = np.linalg.matrix_power(a, n - 1)
    inv = np.linalg.inv(fwd)
    c0 = np.asarray(x0.coords)
    center_img = fwd @ (a @ c0)
    q = len(c0)
    if q == 1:
        m = abs(fwd[0, 0]) * delta + delta
        lo, hi = center_img[0] - m, center_img[0] + m
        return int(math.floor(hi / R + 1e-12) - math.ceil(lo / R - 1e-12) + 1)
    grid = _box_rows(center_img, delta * np.linalg.norm(fwd, axis=1) + 1e-12, R,
                     budget)
    pre = (grid - center_img) @ inv.T
    return int(np.sum(np.linalg.norm(pre, axis=1) <= delta + 1e-9))


def final_term_rows(mapd, x0, n, delta, spacing, budget):
    """The realized final-term set of the identity, a homothety or an
    invertible linear map on a Euclidean space, materialized: the whole box
    grid around the reachable region, filtered by one ``@ inv.T`` product
    (the identity by its distance to x0), rows in lexicographic order."""
    c0 = np.asarray(x0.coords, dtype=float)
    slack = delta if n > 1 else 0.0  # the last step's widening
    if isinstance(mapd, Identity):
        grid = _box_rows(c0, delta + slack, spacing, budget)
        return grid[np.linalg.norm(grid - c0, axis=1) <= delta + slack + 1e-9]
    q = len(c0)
    a = (np.diag(np.full(q, mapd.lam, dtype=float)) if isinstance(mapd, Homothety)
         else mapd.mat())
    fwd = np.linalg.matrix_power(a, n - 1)
    inv = np.linalg.inv(fwd)
    center = fwd @ (a @ c0)
    if q == 1:
        return _box_rows(center, abs(fwd[0, 0]) * delta + slack, spacing, budget)
    grid = _box_rows(center, delta * np.linalg.norm(fwd, axis=1) + 1e-12, spacing,
                     budget)
    return grid[np.linalg.norm((grid - center) @ inv.T, axis=1) <= delta + 1e-9]


def cone_final_term_count(mapd, x0, n, delta, R, spacing, budget):
    """Greedy R-separated count over a ray-aligned grid of the cone region
    B(lam^{n-1} delta), scanned ray by ray with the shared origin once,
    whatever x0 is."""
    rays = mapd.domain.base.base_points()
    t_max = (mapd.lam ** (n - 1)) * delta
    ts = _multiples(0.0, t_max, spacing if spacing is not None else R / 2.0)
    if len(ts) * len(rays) > budget:
        raise BudgetExceededError("cone final-term grid exceeds budget",
                                  requested=len(ts) * len(rays), budget=budget)
    pts = [(0.0, 0.0)] + [tuple(t * a) for a in rays for t in ts[1:]]
    return len(_hashed_greedy(pts, R))


def check_embedding_by_pairs(cert, region_radius, samples, seed):
    rng = np.random.default_rng(seed)
    dom = cert.phi.domain
    cod = cert.phi.codomain
    n = min(samples, PAIR_SAMPLE_CAP)
    upper, lower = [], []
    for _ in range(n):
        x = dom.sample_point(rng, region_radius)
        x2 = dom.sample_point(rng, region_radius)
        d_src = dom.distance(x, x2)
        d_img = cod.distance(cert.phi.apply(x, check=False),
                             cert.phi.apply(x2, check=False))
        if d_img > cert.L(d_src) + 1e-9:
            upper.append((x, x2, d_src, d_img))
        if d_src > cert.L(d_img) + 1e-9:
            lower.append((x, x2, d_src, d_img))
    return EmbeddingReport(upper, lower, n)


def verify_control_by_pairs(mapd, witness, region_radius, samples, seed):
    rng = np.random.default_rng(seed)
    space = mapd.domain
    cod = mapd.codomain
    violations = []
    max_ratio = 0.0
    for _ in range(samples):
        x = space.sample_point(rng, region_radius)
        x2 = space.sample_point(rng, region_radius)
        d_src = space.distance(x, x2)
        d_img = cod.distance(mapd.apply(x, check=False), mapd.apply(x2, check=False))
        bound = witness.L(d_src)
        if bound > 0:
            max_ratio = max(max_ratio, d_img / bound)
        elif d_img > 0:
            max_ratio = math.inf
        if d_img > bound + 1e-9:
            violations.append((x, x2, d_src, d_img))
    return ControlReport(tuple(violations), max_ratio, samples)


def check_density_by_pairs(cert, codomain_region_radius, grid_spacing,
                           budget=PAIR_SAMPLE_CAP):
    dom, cod = cert.phi.domain, cert.phi.codomain
    dom_radius = codomain_region_radius + cert.M_dense + 2 * grid_spacing
    dom_pts = lattice_region(dom, dom.origin(), dom_radius, grid_spacing, budget)
    images = [cert.phi.apply(p, check=False) for p in dom_pts]
    cod_pts = lattice_region(cod, cert.phi.apply(dom.origin(), check=False),
                             codomain_region_radius, grid_spacing, budget)
    max_gap, witness = 0.0, None
    for y in cod_pts:
        gap = min(cod.distance(y, im) for im in images)
        if gap > max_gap:
            max_gap, witness = gap, y
    return DensityReport(max_gap, witness,
                         flagged=max_gap > cert.M_dense + grid_spacing + 1e-9)


def closeness_defect_by_points(f1, f2, region_radius, grid_spacing,
                               budget=PAIR_SAMPLE_CAP):
    dom, cod = f1.domain, f1.codomain
    pts = lattice_region(dom, dom.origin(), region_radius, grid_spacing, budget)
    sup, arg = 0.0, None
    for p in pts:
        d = cod.distance(f1.apply(p, check=False), f2.apply(p, check=False))
        if d >= sup:
            sup, arg = d, p
    return sup, arg
