import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_entropy import spaces
from coarse_entropy.entropy import bcd_estimate
from coarse_entropy.errors import BudgetExceededError, InvalidPointError
from coarse_entropy.spaces import (BaseSetSpec, ChainRects, ChainSegments,
                                   Cone, Euclidean, HalfLine, Halfplane,
                                   IntegerLattice, Point, Product,
                                   SpineBlocks, _ChainSpace, e3_multiplier)

from oracles import (box_charge, chain_distance, chain_lattice_region, charge,
                     chart_bounds, cone_ray_lattice, contains_by_coordinates,
                     euclidean_in_order, flat_lattice_region, lattice_region,
                     spine_distance, spine_lattice_region)

SPACES = [
    Euclidean(1),
    Euclidean(3),
    IntegerLattice(2),
    HalfLine(2.0),
    Halfplane(),
    ChainRects(),
    ChainSegments("f"),
    SpineBlocks(max_level=3),
    Cone(2, BaseSetSpec.cantor_arc(3)),
    Product(Euclidean(1), HalfLine(0.0)),
]


def _points(space, seed, count=3, radius=50.0):
    rng = np.random.default_rng(seed)
    return [space.sample_point(rng, radius) for _ in range(count)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: type(s).__name__)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metric_axioms(space, seed):
    """Identity, symmetry and the triangle inequality on sampled members."""
    x, y, z = _points(space, seed)
    assert space.distance(x, x) == 0.0
    dxy = space.distance(x, y)
    assert dxy >= 0.0
    assert dxy == pytest.approx(space.distance(y, x))
    assert dxy <= space.distance(x, z) + space.distance(z, y) + 1e-9


@pytest.mark.parametrize("space", SPACES, ids=lambda s: type(s).__name__)
def test_sampled_points_are_members(space):
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert space.contains(space.sample_point(rng, 30.0))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), radius=st.sampled_from([0.5, 1.0, 30.0]),
       m=st.integers(0, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_euclidean_sample_block_repeats_sample_point(dim, radius, m, seed):
    """The batched sampler keeps the points one-by-one draws accept, in
    order, and leaves the stream where they leave it."""
    space = Euclidean(dim)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    charts, X = space.sample_block(a, radius, m)
    singles = [space.sample_point(b, radius) for _ in range(m)]
    assert charts.tolist() == [0] * m and X.shape == (m, dim)
    assert [Point(0, tuple(row)) for row in X] == singles
    assert a.uniform() == b.uniform()


def test_sample_block_falls_back_to_sample_point():
    space = Halfplane()
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    assert space.points_of(space.sample_block(a, 5.0, 9)) == [space.sample_point(b, 5.0)
                                                              for _ in range(9)]


def test_lattice_anchored_at_chart_origin():
    # grid coordinates are multiples of the spacing regardless of the center
    space = Euclidean(1)
    pts = space.lattice_region(Point.of(0.3), 1.0, 0.5, 1000)
    for p in pts:
        assert p.coords[0] / 0.5 == pytest.approx(round(p.coords[0] / 0.5))
    assert pts == sorted(pts, key=lambda p: (p.chart, p.coords))


def test_lattice_regions_nest():
    space = Euclidean(2)
    center = Point.of(1.0, -2.0)
    small = set(space.lattice_region(center, 2.0, 0.5, 10_000))
    large = set(space.lattice_region(center, 4.0, 0.5, 10_000))
    assert small <= large


def test_lattice_region_budget():
    with pytest.raises(BudgetExceededError):
        Euclidean(3).lattice_region(Point.of(0, 0, 0), 50.0, 0.1, 100)


def test_lattice_points_lie_in_region():
    for space in SPACES:
        center = space.origin()
        for p in space.lattice_region(center, 5.0, 1.0, 100_000):
            assert space.contains(p)
            assert space.distance(center, p) <= 5.0 + 1e-9


_ROTATED = BaseSetSpec.finite_angles(BaseSetSpec.cantor_arc(4).base_angles() + 2.0)
SINGLE_CHART = [
    Euclidean(1),
    Euclidean(3),
    IntegerLattice(2),
    HalfLine(2.0),
    Halfplane(),
    Cone(2, BaseSetSpec.cantor_arc(3)),
    Cone(2, BaseSetSpec.full_sphere()),
    Cone(2, _ROTATED),
]


SINGLE_CHART_IDS = ["Euclidean1", "Euclidean3", "IntegerLattice2", "HalfLine",
                    "Halfplane", "Cone-cantor_arc", "Cone-full_sphere",
                    "Cone-rotated_finite_angles"]


def _off_origin(space):
    origin = space.origin().coords
    return Point(0, tuple(c + 0.7 - 0.4 * i for i, c in enumerate(origin)))


LATTICE_SPACES = SINGLE_CHART + [HalfLine(0.3), ChainRects(), ChainSegments("f"),
                                 SpineBlocks(max_level=3)]
LATTICE_IDS = SINGLE_CHART_IDS + ["HalfLine-0.3", "ChainRects", "ChainSegments",
                                  "SpineBlocks"]


@pytest.mark.parametrize("space", LATTICE_SPACES, ids=LATTICE_IDS)
@pytest.mark.parametrize("radius,spacing", [(1.0, 0.25), (3.0, 0.2), (0.5, 0.5)])
def test_lattice_coords_match_lattice_region(space, radius, spacing):
    """``lattice_region`` lists the rows of ``region_rows`` as points, in
    strictly increasing (chart, coords) order, on every coordinate space;
    each row is padded with zeros past its chart to the widest chart
    present."""
    for center in (space.origin(), _off_origin(space)):
        charts, X = space.region_rows(center, radius, spacing, 100_000)
        rows = _row_points(space, (charts, X))
        assert X.shape[1] == max((len(coords) for _, coords in rows), default=X.shape[1])
        assert all(a < b for a, b in zip(rows, rows[1:]))
        pts = space.lattice_region(center, radius, spacing, 100_000)
        assert [(p.chart, p.coords) for p in pts] == rows


def _row_points(space, rows):
    """The (chart, coords) of each row, checking that the coordinates past
    the row's chart are zeros."""
    charts, X = rows
    out = []
    for c, row in zip(charts.tolist(), X.tolist()):
        dim = space.chart_dim(c)
        assert not any(row[dim:])
        out.append((c, tuple(row[:dim])))
    return out


# +-theta rays tie in their first coordinates; past pi, the ray listed
# first (-4.0) holds the larger second coordinate
_SYMMETRIC = BaseSetSpec.finite_angles([0.3, -0.3, 1.1, -1.1, 4.0, -4.0, math.pi / 2])
_REPEATED = BaseSetSpec.finite_angles([0.5, 0.5, 1.25, 2.5, 2.5, 2.5])


@pytest.mark.parametrize("base", [_SYMMETRIC, _REPEATED, _ROTATED,
                                  BaseSetSpec.cantor_arc(3)],
                         ids=["symmetric", "repeated", "rotated", "cantor_arc"])
@pytest.mark.parametrize("radius,spacing", [(1.0, 0.25), (3.0, 0.2), (2.0, 0.07)])
def test_cone_lattice_rows_are_the_lexsorted_ray_grid(base, radius, spacing):
    """A finite-base cone sorts its ray grid itself: its rows equal, bit for
    bit, the ray grid filtered and then ``np.lexsort``-ed, also where first
    coordinates tie (rays at +-theta) and where rows repeat (repeated
    angles)."""
    cone = Cone(2, base)
    for center in (cone.origin(), Point.of(-0.4, 0.3), Point.of(1.3, -0.2)):
        charts, X = cone.region_rows(center, radius, spacing, 100_000)
        assert not charts.any()
        expected = cone_ray_lattice(cone, center, radius, spacing)
        assert X.shape == expected.shape and X.tobytes() == expected.tobytes()
    if base in (_SYMMETRIC, _REPEATED):
        assert (X[1:, 0] == X[:-1, 0]).any()


def test_cone_lattice_measured_in_blocks_is_the_lexsorted_ray_grid():
    # blocks of 7 rows: the radius filter spans many blocks and drops rows
    # from some of them only
    cone = Cone(2, BaseSetSpec.cantor_arc(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_RAY_BLOCK", 7)
        for center in (cone.origin(), Point.of(0.6, 0.2), Point.of(-0.4, 0.3)):
            X = cone.region_rows(center, 1.0, 0.07)[1]
            expected = cone_ray_lattice(cone, center, 1.0, 0.07)
            assert X.shape == expected.shape and X.tobytes() == expected.tobytes()


def test_cone_lattice_is_built_without_full_size_copies():
    # the E6 cone lattice at eps = 3^-5: the ray grid is written into one
    # array, measured a block at a time, and each sort gathers it once; the
    # region's rows add their charts (half the size of the coordinates),
    # and neither the one region nor its owners are copied
    cone = Cone(2, BaseSetSpec.cantor_arc(8))
    tracemalloc.start()
    try:
        charts, X = cone.region_rows(cone.origin(), 1.0, 3.0 ** -5 / 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(X) == 248833 and not charts.any()
    assert peak < 2.8 * X.nbytes


def test_half_line_lattice_is_anchored_at_zero():
    """A half-line's grid holds the multiples of the spacing from its low
    end on, like every flat chart, not ``low`` plus multiples."""
    X = HalfLine(0.3).region_rows(Point.of(0.3), 0.6, 0.25)[1]
    assert X[:, 0].tolist() == [0.5, 0.75]


def test_rotated_cone_lattice_has_negative_coordinates():
    coords = Cone(2, _ROTATED).region_rows(Point.of(-0.3, 0.2), 2.0, 0.25)[1]
    assert (coords < 0).any()


@pytest.mark.parametrize("base", [BaseSetSpec.cantor_arc(3), _ROTATED],
                         ids=lambda b: b.kind)
def test_cone_lattice_has_the_origin_once(base):
    cone = Cone(2, base)
    coords = cone.region_rows(cone.origin(), 1.0, 0.25)[1]
    assert np.sum(np.all(coords == 0.0, axis=1)) == 1
    rays, steps = len(base.base_angles()), 5  # t = 0, 0.25, ..., 1
    assert len(coords) == rays * (steps - 1) + 1


@pytest.mark.parametrize("space,center,requested", [
    (Euclidean(3), Point.of(0, 0, 0), 1001 ** 3),
    (HalfLine(0.0), Point.of(0.0), 501),
    (Cone(2, BaseSetSpec.cantor_arc(3)), Point.of(0.0, 0.0), 8 * 501),
])
def test_lattice_coords_budget_error_matches_lattice_region(space, center, requested):
    errors = []
    for enumerate_region in (space.lattice_region, space.region_rows):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_region(center, 50.0, 0.1, 100)
        errors.append(info.value)
    assert [e.requested for e in errors] == [requested, requested]
    assert [e.budget for e in errors] == [100, 100]


@pytest.mark.parametrize("space", SINGLE_CHART, ids=SINGLE_CHART_IDS)
def test_single_chart_lattice_blocks_are_the_lattice_coords(space):
    """A single-chart region lies in chart 0, with the chart's coordinates,
    or holds no row at all."""
    center = _off_origin(space)
    charts, X = space.region_rows(center, 1.0, 0.25)
    assert len(charts) and not charts.any() and X.shape[1] == space.chart_dim(0)
    far = Point(0, tuple(c - 100.0 for c in center.coords))
    if not space.lattice_region(far, 1.0, 0.25):
        assert len(space.region_rows(far, 1.0, 0.25)[0]) == 0


CHAINS = [ChainRects(), ChainSegments("f"), ChainSegments("g")]


def _chain_point(space, chart, u, v):
    """The point of block ``chart`` at fractions u, v of its extents."""
    if isinstance(space, ChainRects):
        w, h = space.extents(chart)
        return Point(chart, ((u - 0.5) * w, (v - 0.5) * h))
    return Point(chart, (u * space.length(chart),))


@pytest.mark.parametrize("space", CHAINS, ids=["ChainRects", "ChainSegments-f",
                                               "ChainSegments-g"])
@settings(max_examples=60, deadline=None)
@given(chart=st.integers(0, 6), u=st.floats(0, 1), v=st.floats(0, 1),
       radius=st.one_of(st.floats(0.1, 6.0), st.sampled_from([0.5, 1.0, 2.5, 4.0])),
       steps=st.integers(1, 10))
def test_chain_lattice_blocks_match_the_point_by_point_lattice(space, chart, u, v,
                                                               radius, steps):
    center = _chain_point(space, chart, u, v)
    spacing = radius / steps
    expected = chain_lattice_region(space, center, radius, spacing, 10 ** 6)
    rows = space.region_rows(center, radius, spacing, 10 ** 6)
    assert _row_points(space, rows) == [(p.chart, p.coords) for p in expected]
    assert space.lattice_region(center, radius, spacing, 10 ** 6) == expected


@pytest.mark.parametrize("space,center,budget,requested", [
    (ChainRects(), Point(2, (0.0, 0.5)), 500, 882),
    (ChainSegments("g"), Point(3, (1.0,)), 100, 123),
], ids=["ChainRects", "ChainSegments"])
def test_chain_lattice_budget_error_matches_the_point_by_point_lattice(space, center,
                                                                       budget, requested):
    """Each block is charged its grid points in the box around its point
    nearest the center, cut to the block, so the overrun happens at the
    same block with the same count on every path."""
    errors = []
    for enumerate_region in (space.region_rows, space.lattice_region,
                             lambda *a: chain_lattice_region(space, *a)):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_region(center, 6.0, 0.05, budget)
        errors.append(info.value)
    assert errors[0].requested > budget
    assert [e.requested for e in errors] == [errors[0].requested] * 3
    assert [e.budget for e in errors] == [budget] * 3
    assert errors[0].requested == requested
    assert str(errors[0]) == f"lattice region of ~{requested} points exceeds budget {budget}"


def test_halfplane_budget_is_charged_on_the_box_cut_at_y_zero():
    # the box (0, 0) +- 6 holds 241 x 241 grid points, 241 x 121 of them
    # with y >= 0
    space = Halfplane()
    for enumerate_region in (space.region_rows, space.lattice_region):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_region(space.origin(), 6.0, 0.05, 100)
        assert (info.value.requested, info.value.budget) == (29161, 100)


FLAT = [Euclidean(1), Euclidean(2), Euclidean(3), Halfplane(), IntegerLattice(1),
        IntegerLattice(2), Cone(2, BaseSetSpec.full_sphere()), HalfLine(0.3)]


@pytest.mark.parametrize("space", FLAT, ids=lambda s: f"{type(s).__name__}{s.dim}")
@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       radius=st.one_of(st.floats(0.1, 4.0), st.sampled_from([0.4 - 5e-10, 1.0, 2.5])),
       steps=st.integers(1, 6))
def test_flat_lattice_regions_match_the_point_by_point_lattice(space, data, radius, steps):
    """Every flat lattice (the integer lattice at its rounded spacing) lists
    the grid points within radius + 1e-9 of the center, those beyond the
    box edge included; a half-line keeps the multiples of the spacing at or
    above its low end, which is not one of them."""
    center = Point(0, tuple(data.draw(_value(-3.0, 3.0)) for _ in range(space.dim)))
    spacing = radius / steps
    step = float(max(1, round(spacing))) if isinstance(space, IntegerLattice) else spacing
    low = space.low if isinstance(space, HalfLine) else -math.inf
    expected = flat_lattice_region(center, radius, step,
                                   upper=isinstance(space, Halfplane), low=low)
    assert space.lattice_region(center, radius, spacing, 10 ** 6) == expected


BATCHED = [Euclidean(1), Euclidean(2), Euclidean(3), HalfLine(0.3), HalfLine(2.0),
           Halfplane(), IntegerLattice(1), IntegerLattice(2), ChainRects(),
           ChainSegments("f"), ChainSegments("g"), SpineBlocks(max_level=3)]


@st.composite
def _edge_coordinate(draw, space, axis, spacing):
    """A centre coordinate on or within 1e-9 of a grid point or of the edge
    of the chart box (the low end of a half-line, y = 0 on the half-plane),
    or anywhere in [-3, 3]."""
    edges = [lo for lo, _ in space._chart_box(0)[axis:axis + 1] if math.isfinite(lo)]
    base = draw(st.one_of(st.integers(-12, 12).map(lambda k: k * spacing),
                          st.sampled_from(edges or [0.0]), st.floats(-3.0, 3.0)))
    return base + draw(st.sampled_from([0.0, 1e-9, -1e-9]))


@st.composite
def _centre(draw, space, spacing):
    """A centre as (chart, coords): a point of the space (near grid points
    and chart edges on a flat space), or, now and then, one in a chart the
    space does not have."""
    if draw(st.integers(0, 9)) == 0:
        bad = getattr(space, "max_chart", 0) + 1
        return draw(st.sampled_from([-1, bad])), ()
    if isinstance(space, _ChainSpace):
        top = 4 if isinstance(space, SpineBlocks) else 6  # spine chart 4: 8 coordinates
        p = draw(st.integers(0, top).flatmap(lambda c: _member(space, c)))
        return p.chart, p.coords
    return 0, tuple(draw(_edge_coordinate(space, j, spacing)) for j in range(space.dim))


def _reference_region(space, center, radius, spacing, budget):
    """The lattice region around one centre, point by point, from the
    oracles; over its budget, the region's error is raised."""
    if isinstance(space, SpineBlocks):
        return spine_lattice_region(space, center, radius, spacing, budget)
    if isinstance(space, _ChainSpace):
        return chain_lattice_region(space, center, radius, spacing, budget)
    step = float(max(1, round(spacing))) if isinstance(space, IntegerLattice) else spacing
    charge(box_charge(center.coords, radius + 1e-9, chart_bounds(space, 0), step), budget)
    low = space.low if isinstance(space, HalfLine) else -math.inf
    return flat_lattice_region(center, radius, step, upper=isinstance(space, Halfplane),
                               low=low)


@pytest.mark.parametrize("space", BATCHED,
                         ids=lambda s: type(s).__name__ + str(getattr(s, "dim", getattr(s, "role", ""))))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), radius=st.sampled_from([0.4 - 5e-10, 0.5, 1.0, 2.5]),
       steps=st.integers(1, 5), m=st.integers(0, 8),
       budget=st.one_of(st.integers(1, 400), st.just(10 ** 6)),
       block=st.sampled_from([4, 1 << 16]))
def test_lattice_rows_are_the_regions_of_each_centre_in_turn(space, data, radius, steps,
                                                             m, budget, block):
    """The batched pass lists each centre's region (the point-by-point
    oracles) bit for bit, centre by centre, each by increasing chart; it
    stops at the first centre whose region fails, with that centre's error
    (a chart the space lacks, or the budget, charged across the region's
    charts), and after the first centre at which more than ``budget``
    points are held."""
    spacing = radius / steps
    centres = [data.draw(_centre(space, spacing)) for _ in range(m)]
    owners, points, error = [], [], None
    for i, (chart, coords) in enumerate(centres):
        if not coords:
            error = InvalidPointError()
            break
        try:
            region = _reference_region(space, Point(chart, coords), radius, spacing, budget)
        except BudgetExceededError as exc:
            error = exc
            break
        owners += [i] * len(region)
        points += [(p.chart, tuple(x.hex() for x in p.coords)) for p in region]
        if len(points) > budget:
            break
    width = max((len(coords) for _, coords in centres), default=0)
    C = np.array([coords + (0.0,) * (width - len(coords)) for _, coords in centres])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_RAY_BLOCK", block)
        owner, rows, got = space.lattice_rows(
            (np.array([c for c, _ in centres], dtype=np.int64), C.reshape(m, width)),
            radius, spacing, budget)
    assert owner.tolist() == owners
    assert [(c, tuple(x.hex() for x in coords))
            for c, coords in _row_points(space, rows)] == points
    assert type(got) is type(error)
    if isinstance(error, BudgetExceededError):
        assert (str(got), got.requested) == (str(error), error.requested)


@pytest.mark.parametrize("space", [Euclidean(1), HalfLine(0.0)], ids=["line", "halfline"])
def test_grid_indices_past_int64_are_invalid_points(space):
    # at spacing 0.5, 2^62 - 512 is grid index 2^63 - 1024, the last float
    # below 2^63 and an int64; 2^62 is grid index 2^63, which is not
    last, past = Point.of(2.0 ** 62 - 512), Point.of(2.0 ** 62)
    assert space.lattice_region(last, 0.5, 0.5) == [last]
    with pytest.raises(InvalidPointError, match="past int64"):
        space.lattice_region(past, 0.5, 0.5)
    with pytest.raises(InvalidPointError, match="past int64"):
        spaces._axis_grid(-2.0 ** 64, -2.0 ** 64, 1.0)
    C = np.array([last.coords, last.coords, past.coords, last.coords])
    owner, (_, X), error = space.lattice_rows((np.zeros(4, dtype=np.int64), C), 0.5, 0.5)
    assert owner.tolist() == [0, 1] and X.ravel().tolist() == [2.0 ** 62 - 512] * 2
    assert isinstance(error, InvalidPointError) and "past int64" in str(error)


def test_a_box_bound_that_is_not_finite_is_an_invalid_point():
    # ceil(inf) raised OverflowError and ceil(nan) ValueError; 1e308 / 1e-10
    # is past the float range too. The box fails in order, as its own
    # failure, after the boxes before it
    good = [0.0, 0.0], [0.0, 0.0]
    for bad, spacing, message in [
            (([0.0, -math.inf], [1.0, math.inf]), 0.5,
             "grid bound -inf of [-inf, inf] is not finite at spacing 0.5"),
            (([math.nan, 0.0], [1.0, 1.0]), 0.5,
             "grid bound nan of [nan, 1] is not finite at spacing 0.5"),
            (([1e308, 0.0], [1e308, 1.0]), 1e-10,
             "grid bound 1e+308 of [1e+308, 1e+308] is not finite at spacing 1e-10")]:
        lo, hi = (np.array([g, b, g]) for g, b in zip(good, bad))
        first, size, error = spaces._grid_boxes(lo, hi, spacing, 100)
        assert len(first) == 1 and isinstance(error, InvalidPointError)
        assert str(error) == message
    with pytest.raises(InvalidPointError, match="grid bound nan of"):
        spaces._axis_grid(math.nan, 1.0, 1.0)


def test_flat_lattice_keeps_grid_points_up_to_the_edge_tolerance():
    # 0.7 (0.7000000000000001) and -0.1 lie 0.4000000000000001 and 0.4 from
    # 0.3: beyond the radius, within radius + 1e-9, like on a chain segment
    center, radius = Point.of(0.3), 0.4 - 5e-10
    pts = Euclidean(1).lattice_region(center, radius, 0.1)
    assert len(pts) == 9
    assert pts[0].coords == (-0.1,) and pts[-1].coords == pytest.approx((0.7,))
    segment = ChainSegments("f").lattice_region(center, radius, 0.1)
    assert segment == [p for p in pts if p.coords[0] >= 0]


@pytest.mark.parametrize("space", LATTICE_SPACES, ids=LATTICE_IDS)
def test_lattice_rejects_centers_of_the_wrong_shape(space):
    origin = space.origin()
    for center in (Point(origin.chart, origin.coords + (0.0,)),
                   Point(-1, origin.coords)):
        for enumerate_region in (space.region_rows, space.lattice_region):
            with pytest.raises(InvalidPointError):
                enumerate_region(center, 1.0, 0.5)


def test_chain_lattice_skips_blocks_below_beyond_the_anchor_term():
    # block 4 is the gap 5 plus the center's anchor term 2.0 away, beyond
    # radius 6, so its 85 grid points must not count against the budget
    space, center = ChainRects(), Point(5, (2.0, 0.5))
    rows = space.region_rows(center, 6.0, 0.25, budget=100)
    assert rows[0].tolist() == [5] * 85
    expected = chain_lattice_region(space, center, 6.0, 0.25, 100)
    assert [(p.chart, p.coords) for p in expected] == _row_points(space, rows)


def test_a_chain_region_is_charged_across_its_charts():
    # at chart 4's anchor, radius 4 reaches chart 3's anchor (gap 4) with
    # nothing left, 1 point, then chart 4's box of 1 + 85 points overruns
    # budget 85, though no box alone does; the region holds no row of
    # chart 3 and its failure is the error of the pass
    space, center = ChainRects(), Point(4, (0.0, 0.0))
    for enumerate_region in (space.region_rows, space.lattice_region,
                             lambda *a: chain_lattice_region(space, *a)):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_region(center, 4.0, 0.25, 85)
        assert (info.value.requested, info.value.budget) == (86, 85)
        assert str(info.value) == "lattice region of ~86 points exceeds budget 85"
    assert space.region_rows(center, 4.0, 0.25, 86)[0].tolist() == [3] + [4] * 85
    # 1.9 from the anchor, chart 3 is out of reach: 85 points, within budget
    owner, rows, error = space.lattice_rows(space.rows_of([Point(4, (0.0, 1.9)), center]),
                                            4.0, 0.25, 85)
    assert owner.tolist() == [0] * 85 and isinstance(error, BudgetExceededError)
    assert str(error) == "lattice region of ~86 points exceeds budget 85"


@pytest.mark.parametrize("space", [ChainRects(), ChainSegments("f"),
                                   SpineBlocks(max_level=3),
                                   Product(Euclidean(1), HalfLine(0.0))],
                         ids=lambda s: type(s).__name__)
def test_lattice_coords_rejects_multi_chart_spaces(space):
    """A coordinate lattice is one array in one chart. Around the origin these
    spaces spread the region over several charts (product rows are pairs of
    factor rows), so the estimator that reads lattice coordinates rejects
    them."""
    if not isinstance(space, Product):
        assert len(np.unique(space.region_rows(space.origin(), 2.0, 0.5)[0])) > 1
    with pytest.raises(ValueError, match=type(space).__name__):
        bcd_estimate(space, 2.0, [1.0, 0.5])


# ---------------------------------------------------------------------------
# one metric: pair and step forms against the written-out references


def _reference(space):
    """The pair metric of ``space`` from tests/oracles.py."""
    if isinstance(space, Product):
        left, right = _reference(space.left), _reference(space.right)
        return lambda p, q: max(left(p.parts[0], q.parts[0]),
                                right(p.parts[1], q.parts[1]))
    if isinstance(space, (ChainRects, ChainSegments)):
        return chain_distance
    if isinstance(space, SpineBlocks):
        return spine_distance
    if isinstance(space, HalfLine):
        return lambda p, q: abs(p.coords[0] - q.coords[0])
    return lambda p, q: euclidean_in_order(p.coords, q.coords)


@st.composite
def _value(draw, lo, hi):
    """A coordinate in [lo, hi]: often a multiple of a decimal-ish unit, so
    that differences and their squares round and pairs tie exactly."""
    unit = draw(st.sampled_from([0.1, 0.25, 0.3, 1 / 3, 0.7]))
    return draw(st.one_of(
        st.integers(math.ceil(lo / unit), math.floor(hi / unit)).map(lambda k: k * unit),
        st.floats(lo, hi)))


@st.composite
def _member(draw, space, chart):
    """A point of ``space`` (in ``chart`` where the space has several)."""
    if isinstance(space, Product):
        return Point.pair(draw(_member(space.left, chart)),
                          draw(_member(space.right, chart)))
    if isinstance(space, ChainRects):
        w, h = space.extents(chart)
        return Point(chart, (draw(_value(-w / 2, w / 2)), draw(_value(-h / 2, h / 2))))
    if isinstance(space, ChainSegments):
        return Point(chart, (draw(_value(0.0, space.length(chart))),))
    if isinstance(space, SpineBlocks):
        lo = 0.0 if chart == 0 else -3.0
        return Point(chart, tuple(draw(_value(lo, 3.0))
                                  for _ in range(space.chart_dim(chart))))
    if isinstance(space, HalfLine):
        return Point.of(draw(_value(space.low, space.low + 6.0)))
    if isinstance(space, IntegerLattice):
        return Point(0, tuple(float(draw(st.integers(-6, 6))) for _ in range(space.dim)))
    if isinstance(space, Cone):
        a = space.base.base_points()[draw(st.integers(0, 2))]
        return Point(0, tuple(draw(_value(0.0, 6.0)) * a))
    if isinstance(space, Halfplane):
        return Point.of(draw(_value(-6.0, 6.0)), draw(_value(0.0, 6.0)))
    return Point(0, tuple(draw(_value(-6.0, 6.0)) for _ in range(space.dim)))


METRIC_FAMILIES = {
    "euclidean": [Euclidean(1), Euclidean(2), Euclidean(3)],
    "integer_lattice": [IntegerLattice(1), IntegerLattice(3)],
    "halfplane": [Halfplane()],
    "cone": [Cone(2, BaseSetSpec.finite_angles([0.0, 1.0, 2.5]))],
    "halfline": [HalfLine(0.0), HalfLine(2.0)],
    "chain": [ChainRects(), ChainSegments("f"), ChainSegments("g")],
    "spine": [SpineBlocks(max_level=2)],
    "product": [Product(Euclidean(2), ChainSegments("f")),
                Product(ChainRects(), HalfLine(0.0))],
}


@pytest.mark.parametrize("family", sorted(METRIC_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_distance_and_step_distances_equal_the_reference(family, data):
    """``distance`` and ``step_distances`` (on steps in one chart and across
    charts) give the reference's value bit for bit on every ordered pair,
    so every test ``< R`` agrees, also at exact ties."""
    space = data.draw(st.sampled_from(METRIC_FAMILIES[family]))
    one_chart = data.draw(st.booleans())
    charts = st.just(data.draw(st.integers(0, 3))) if one_chart else st.integers(0, 3)
    pts = data.draw(st.lists(charts.flatmap(lambda c: _member(space, c)),
                             min_size=1, max_size=8))
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))  # repeats
    ref = _reference(space)
    p, q = np.divmod(np.arange(len(pts) ** 2), len(pts))
    expected = [ref(pts[i], pts[j]) for i, j in zip(p.tolist(), q.tolist())]
    assert [space.distance(pts[i], pts[j])
            for i, j in zip(p.tolist(), q.tolist())] == expected
    got = space.step_distances(space.rows_step(space.rows_of(pts)), p, q)
    assert got.tolist() == expected
    for R in set(expected) - {0.0}:
        assert np.array_equal(got < R, np.array(expected) < R)


def _point_bits(p):
    """A point with its coordinates as exact bit patterns."""
    if p.parts is not None:
        return tuple(_point_bits(q) for q in p.parts)
    return p.chart, tuple(float.hex(c) for c in p.coords)


@pytest.mark.parametrize("space", METRIC_FAMILIES["product"], ids=lambda s: type(s.left).__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), radius=st.sampled_from([0.5, 1.0, 2.5]), steps=st.integers(1, 3),
       budget=st.sampled_from([1, 5, 30, 200, 10 ** 6]))
def test_product_lattice_rows_are_the_factor_products_of_each_centre_in_turn(
        space, data, radius, steps, budget):
    """Product rows over several centres list, centre by centre, the cross
    product of the factor regions (``oracles.lattice_region``) bit for bit,
    in order and with each point's owner; they stop at the first centre
    whose region fails, with its message and requested size, and after the
    first centre at which more than ``budget`` points are held."""
    spacing = radius / steps
    centres = data.draw(st.lists(st.integers(0, 3).flatmap(lambda c: _member(space, c)),
                                 max_size=5))
    owners, points, error = [], [], None
    for i, centre in enumerate(centres):
        try:
            region = lattice_region(space, centre, radius, spacing, budget)
        except spaces.REGION_ERRORS as exc:
            error = exc
            with pytest.raises(type(exc)) as info:
                space.lattice_region(centre, radius, spacing, budget)
            assert (str(info.value), getattr(info.value, "requested", None)) == \
                (str(exc), getattr(exc, "requested", None))
            break
        owners += [i] * len(region)
        points += region
        if len(points) > budget:
            break
    owner, rows, got = space.lattice_rows(space.rows_of(centres), radius, spacing, budget)
    assert owner.tolist() == owners
    assert [_point_bits(p) for p in space.points_of(rows)] == [_point_bits(p) for p in points]
    assert (type(got), str(got), getattr(got, "requested", None)) == \
        (type(error), str(error), getattr(error, "requested", None))


def test_coordinate_steps_reject_non_finite_coordinates():
    with pytest.raises(ValueError, match="finite"):
        Euclidean(1).rows_step((np.zeros(2, dtype=np.int64), np.array([[0.0], [np.inf]])))


def test_spine_lattice_budget_error_names_its_size():
    """The error names the caller's budget and charges every box built so
    far plus the one that overran it."""
    space = SpineBlocks(max_level=3)
    for budget, requested in (
            (10, 17),               # the spine's box [0, 4]
            (40, 17 + 33),          # then block 1's box [-4, 4], at the center
            (100, 17 + 33 + 625)):  # then block 2's box [-3, 3]^2, 1 along
        for enumerate_region in (space.lattice_region, space.region_rows):
            with pytest.raises(BudgetExceededError) as info:
                enumerate_region(Point.of(0.0), 4.0, 0.25, budget)
            assert info.value.requested > budget
            assert (info.value.requested, info.value.budget) == (requested, budget)


@st.composite
def _spine_case(draw):
    """A SpineBlocks center in charts 0-2, block offsets up to 12 and spine
    positions up to 80, a radius down to 0.05 and a spacing dividing it."""
    space = SpineBlocks(max_level=draw(st.sampled_from([1, 3])))
    chart = draw(st.integers(0, 2))
    if chart == 0:
        coords = (draw(st.one_of(st.floats(0.0, 6.0), st.floats(60.0, 80.0),
                                 st.integers(0, 70).map(float))),)
    else:
        coords = tuple(draw(st.one_of(st.floats(-12.0, 12.0),
                                      st.integers(-12, 12).map(lambda k: k / 4)))
                       for _ in range(space.chart_dim(chart)))
    radius = draw(st.one_of(st.sampled_from([0.05, 0.25, 0.5, 1.0, 2.5]),
                            st.floats(0.05, 3.0)))
    return space, Point(chart, coords), radius, radius / draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(case=_spine_case())
def test_spine_lattice_equals_the_brute_force_reference(case):
    space, center, radius, spacing = case
    expected = spine_lattice_region(space, center, radius, spacing)
    assert space.lattice_region(center, radius, spacing) == expected
    rows = space.region_rows(center, radius, spacing)
    assert _row_points(space, rows) == [(p.chart, p.coords) for p in expected]


@pytest.mark.parametrize("center,radius,spacing,size,member", [
    # the center is a grid point of its own block
    (Point(2, (5.0, 0.0)), 0.25, 0.25, 5, Point(2, (5.0, 0.0))),
    # the spine point under the center's block is at distance 0
    (Point(2, (0.0, 0.0)), 0.05, 0.05, 8, Point(0, (1.0,))),
    # beyond the old block grid [-8, 8] and spine grid [0, 64]
    (Point(2, (10.0, 0.0)), 0.5, 0.25, 13, Point(2, (10.0, 0.5))),
    (Point(0, (70.0,)), 0.5, 0.25, 5, Point(0, (70.5,))),
])
def test_spine_lattice_keeps_every_grid_point_of_the_region(center, radius, spacing,
                                                            size, member):
    space = SpineBlocks(max_level=3)
    pts = space.lattice_region(center, radius, spacing)
    assert pts == spine_lattice_region(space, center, radius, spacing)
    assert len(pts) == size and member in pts


def test_integer_lattice_membership():
    space = IntegerLattice(2)
    assert space.contains(Point.of(3.0, -1.0))
    assert not space.contains(Point.of(0.5, 0.0))


def test_halfline_membership():
    space = HalfLine(2.0)
    assert space.contains(Point.of(2.0))
    assert not space.contains(Point.of(1.0))


def test_product_max_metric():
    space = Product(Euclidean(1), Euclidean(1))
    p = Point.pair(Point.of(0.0), Point.of(0.0))
    q = Point.pair(Point.of(3.0), Point.of(-7.0))
    assert space.distance(p, q) == pytest.approx(7.0)


def test_chain_rects_extents():
    ch = ChainRects()
    # blocks alternate between 1 x 2^m and 2^m x 1
    assert ch.extents(0) == (1.0, 1.0)
    assert ch.extents(2) == (1.0, 2.0)
    assert ch.extents(3) == (2.0, 1.0)
    assert ch.extents(6) == (1.0, 8.0)


def test_chain_blocks_too_large_for_floats_are_not_charts():
    # P_2047 is 2^1023 x 1, the widest block whose extents are floats; the
    # 'f' segments double from chart 512 on and reach 2^1023 at chart 1521
    rects, segments = ChainRects(), ChainSegments("f")
    assert rects.contains(Point.in_chart(2047, (0.0, 0.0)))
    assert segments.contains(Point.in_chart(1521, (0.0,)))
    for space, p in ((rects, Point.in_chart(2048, (0.0, 0.0))),
                     (rects, Point.in_chart(3000, (0.0, 0.0))),
                     (segments, Point.in_chart(1522, (0.0,)))):
        assert not space.contains(p)
        with pytest.raises(InvalidPointError):
            space.chart_dim(p.chart)
    assert segments.log2_length(1521) == 1023
    # the 'g' segments stop doubling at chart 512, well inside the floats
    assert ChainSegments("g").max_chart == 10_000


def test_chain_within_block_is_max_metric():
    ch = ChainRects()
    p = Point.in_chart(4, (0.5, 0.25))
    q = Point.in_chart(4, (-0.5, -0.25))
    assert ch.distance(p, q) == pytest.approx(1.0)


def test_chain_cross_block_distance_grows_with_separation():
    ch = ChainRects()
    anchors = [Point.in_chart(k, (0.0, 0.0)) for k in range(6)]
    gaps = [ch.distance(anchors[0], a) for a in anchors]
    assert gaps == sorted(gaps)
    assert gaps[1] > 0


def test_e3_multiplier_epoch_structure():
    # multiplier is 2 inside a factor's active epochs and 1 outside, and the
    # two roles are never active simultaneously
    for n in range(1, 60):
        mf, mg = e3_multiplier("f", n), e3_multiplier("g", n)
        assert {mf, mg} <= {1, 2}
        assert not (mf == 2 and mg == 2)
    assert any(e3_multiplier("f", n) == 2 for n in range(1, 60))
    assert any(e3_multiplier("g", n) == 2 for n in range(1, 60))


def test_spine_blocks_geometry():
    sp = SpineBlocks(max_level=3)
    # spike tips in different level-k blocks are joined through the spine
    a = Point.in_chart(2, (1.0, 0.0))   # block at spine position 1
    b = Point.in_chart(3, (0.0, 0.0, 0.0, 1.0))  # block at spine position 2
    d = sp.distance(a, b)
    assert d == pytest.approx(1.0 + 1.0 + 1.0)  # down, along, up


def test_cone_same_ray_distance():
    cone = Cone(2, BaseSetSpec.cantor_arc(2))
    a = cone.base.base_points()[0]
    p = Point.of(*(2.0 * a))
    q = Point.of(*(5.0 * a))
    assert cone.distance(p, q) == pytest.approx(3.0)


def test_cone_membership_is_ray_restricted():
    cone = Cone(2, BaseSetSpec.cantor_arc(2))
    a = cone.base.base_points()[0]
    assert cone.contains(Point.of(*(3.0 * a)))
    # rotate off every base direction
    theta = 0.5
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    assert not cone.contains(Point.of(*(3.0 * (rot @ a))))


_NON_FINITE_CASES = (
    [(Euclidean(1), 0, "Euclidean"), (IntegerLattice(1), 0, "IntegerLattice"),
     (HalfLine(0.0), 0, "HalfLine"), (Halfplane(), 0, "Halfplane"),
     (Cone(1, BaseSetSpec.full_sphere()), 0, "full_sphere_cone"),
     (Cone(2, BaseSetSpec.cantor_arc(2)), 0, "finite_base_cone")]
    + [(space, chart, f"{name}-{chart}")
       for space, name in ((ChainRects(), "ChainRects"), (ChainSegments("f"), "ChainSegments"),
                           (SpineBlocks(max_level=3), "SpineBlocks"))
       for chart in range(3)])


@pytest.mark.parametrize("space, chart", [c[:2] for c in _NON_FINITE_CASES],
                         ids=[c[2] for c in _NON_FINITE_CASES])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_flat_spaces_reject_non_finite_coordinates(space, chart, bad):
    """Every coordinate space, flat or not, holds its chart's zero point and
    no point with a non-finite coordinate (the spine's unbounded charts
    included)."""
    dim = space.chart_dim(chart)
    coords = [bad] + [0.0] * (dim - 1)
    assert space.contains(Point.in_chart(chart, [0.0] * dim))
    assert not space.contains(Point.in_chart(chart, coords))
    assert not space.contains(Point.in_chart(chart, coords[::-1]))


# every coordinate space, the number of its charts the property probes, an id
_MEMBERSHIP_SPACES = [
    (Euclidean(2), 1, "Euclidean"), (IntegerLattice(2), 1, "IntegerLattice"),
    (HalfLine(2.0), 1, "HalfLine"), (Halfplane(), 1, "Halfplane"),
    (Cone(2, BaseSetSpec.full_sphere()), 1, "full_sphere_cone"),
    (Cone(2, BaseSetSpec.cantor_arc(2)), 1, "cantor_cone"),
    (Cone(2, BaseSetSpec.finite_angles([0.3, 2.0])), 1, "two_ray_cone"),
    (ChainRects(), 6, "ChainRects"), (ChainSegments("f"), 6, "ChainSegments-f"),
    (ChainSegments("g"), 6, "ChainSegments-g"), (SpineBlocks(max_level=3), 4, "SpineBlocks"),
]


@st.composite
def _membership_case(draw, space, charts):
    """A chart, a tolerance and a point of that chart: each coordinate a
    finite box edge, an integer, any float or a non-finite value, moved by
    0, +-tol/2 or +-2 tol; on a finite-base cone, sometimes a point of a
    base ray moved off it by those amounts times max(1, t)."""
    chart = draw(st.integers(0, charts - 1))
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.25]))
    shift = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])
    coords = []
    for lo, hi in chart_bounds(space, chart):
        edges = [e for e in (lo, hi) if math.isfinite(e)] or [0.0]
        base = draw(st.one_of(st.sampled_from(edges), st.integers(-6, 6).map(float),
                              st.floats(-40.0, 40.0),
                              st.sampled_from([math.nan, math.inf, -math.inf])))
        coords.append(base + draw(shift) * tol)
    if isinstance(space, Cone) and space.base.kind != "full_sphere" and draw(st.booleans()):
        a = draw(st.sampled_from(space.base.base_points().tolist()))
        t = draw(st.floats(0.0, 30.0))
        off = draw(shift) * tol * max(1.0, t)
        coords = [t * a[0] - off * a[1], t * a[1] + off * a[0]]
    return Point.in_chart(chart, coords), tol


@pytest.mark.parametrize("space, charts", [c[:2] for c in _MEMBERSHIP_SPACES],
                         ids=[c[2] for c in _MEMBERSHIP_SPACES])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_contains_is_the_chart_box_widened_by_the_tolerance(space, charts, data):
    """``contains`` is one rule on every coordinate space: a valid chart and
    dimension, every coordinate finite and within the chart's box +- tol,
    plus integrality on the integer lattice and the rays of a finite-base
    cone; the box is the one the lattice region is cut to, and the origin
    is a member."""
    p, tol = data.draw(_membership_case(space, charts))
    assert space._chart_box(p.chart) == chart_bounds(space, p.chart)
    assert space.contains(p, tol) == contains_by_coordinates(space, p, tol)
    assert not space.contains(Point(p.chart, p.coords + (0.0,)), tol)
    assert not space.contains(Point(-1, p.coords), tol)
    assert space.contains(space.origin())


def test_chain_sample_points_are_pinned():
    """The chain samplers draw each block offset uniformly from the block's
    box, one axis after the other; seeded streams (and the digests built
    on them) rest on that order, so a few draws are pinned."""
    def draws(space, center=None):
        rng = np.random.default_rng(11)
        return [(p.chart, p.coords) for p in
                (space.sample_point(rng, 12.0, center) for _ in range(3))]
    assert draws(ChainRects()) == [
        (1, (-0.0007221375598850388, 0.10149835762335746)),
        (1, (-0.47131099162805545, -0.35207391542254407)),
        (4, (-0.2246911842388707, -1.4481277085321786))]
    assert draws(ChainRects(), Point.in_chart(4, (0.0, 0.0))) == [
        (2, (-0.0007221375598850388, 0.20299671524671492)),
        (2, (-0.47131099162805545, -0.7041478308450881)),
        (5, (0.6814423364099351, 0.012382313483160434))]
    assert draws(ChainSegments("f")) == [
        (1, (0.49927786244011496,)), (1, (0.6014983576233575,)),
        (0, (0.9282110229603695,))]
    assert draws(ChainSegments("g"), Point.in_chart(4, (0.0,))) == [
        (2, (1.9971114497604598,)), (2, (2.40599343049343,)),
        (0, (0.9282110229603695,))]


def test_cantor_arc_count_and_spread():
    base = BaseSetSpec.cantor_arc(4)
    pts = base.base_points()
    assert len(pts) == 16
    norms = np.linalg.norm(pts, axis=1)
    assert np.allclose(norms, 1.0)


def test_point_json_round_trip():
    p = Point.in_chart(3, (1.5, -2.0))
    assert Point.from_json(p.to_json()) == p
    pair = Point.pair(Point.of(1.0), p)
    assert Point.from_json(pair.to_json()) == pair
