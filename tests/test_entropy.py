import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from coarse_entropy import entropy, orbits
from coarse_entropy.entropy import (CSV_HEADER, CountRecord, ScheduleCell,
                                    _first_fit, _greedy_kept, _greedy_kept_orbits,
                                    _orbit_image_counts,
                                    _product_witness, bcd_estimate,
                                    count_product,
                                    count_separated, count_spanning,
                                    estimate_entropy, fit_growth_rate,
                                    greedy_separated, greedy_spanning)
from coarse_entropy.errors import BudgetExceededError, InvalidPointError
from coarse_entropy.maps import (Affine1D, ChainLinear, Homothety, Identity,
                                 Iterate, Laurent1D, Linear, MapDescriptor,
                                 ProductMap, linear_1d)
from coarse_entropy.orbits import (enumerate_pseudoorbits, family_steps,
                                   final_terms_lower, grid_family,
                                   orbit_distance, shadow_hull, validate)
from coarse_entropy.presets import run_config
from coarse_entropy.spaces import (BaseSetSpec, ChainRects, ChainSegments,
                                   Cone, Euclidean, HalfLine, Halfplane,
                                   IntegerLattice, Point, Product, SpineBlocks)

from oracles import (_distance_matrix, _greedy_separated_orbits, _hashed_greedy,
                     cone_final_term_count, enumerate_depth_first, final_term_rows,
                     first_fit_by_lists, first_fit_separated, linear_grid_count,
                     max_separated_exact, min_spanning_exact,
                     orbit_image_count, prefix_level_sizes, product_witnesses)


def _orbit_image_count(mapd, x0, n, *args):
    """The ORBIT_IMAGE count at one n."""
    (count,) = _orbit_image_counts(mapd, x0, [n], *args)
    return count


def _euclid(a, b):
    return math.dist(a, b)


def _random_family(rng, size):
    pts = rng.uniform(-50, 50, size=(size, 2))
    return [tuple(p) for p in pts]


# ---------------------------------------------------------------------------
# greedy counters


@pytest.mark.parametrize("seed", range(12))
def test_sandwich_inequalities(seed):
    """separated(2R) <= spanning(R) <= separated(R) on random families."""
    rng = np.random.default_rng(seed)
    items = _random_family(rng, int(rng.integers(5, 300)))
    R = float(rng.uniform(2.0, 25.0))
    s2 = len(greedy_separated(items, 2 * R, _euclid))
    sp = len(greedy_spanning(items, R, _euclid))
    s1 = len(greedy_separated(items, R, _euclid))
    assert s2 <= sp <= s1


@pytest.mark.parametrize("seed", range(6))
def test_greedy_separated_is_maximal(seed):
    rng = np.random.default_rng(seed)
    items = _random_family(rng, 100)
    R = 10.0
    kept = greedy_separated(items, R, _euclid)
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert _euclid(kept[i], kept[j]) >= R
    for it in items:
        assert any(_euclid(it, k) < R for k in kept) or it in kept


@pytest.mark.parametrize("seed", range(6))
def test_greedy_spanning_covers(seed):
    rng = np.random.default_rng(seed)
    items = _random_family(rng, 100)
    R = 10.0
    kept = greedy_spanning(items, R, _euclid)
    for it in items:
        assert any(_euclid(it, k) < R for k in kept)


def test_greedy_bounds_bracket_the_exact_optima():
    rng = np.random.default_rng(5)
    items = _random_family(rng, 40)
    R = 20.0
    greedy_sep = len(greedy_separated(items, R, _euclid))
    greedy_span = len(greedy_spanning(items, R, _euclid))
    assert greedy_sep <= max_separated_exact(items, R, _euclid)
    assert greedy_span >= min_spanning_exact(items, R, _euclid)


def test_greedy_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        greedy_separated([(0.0, 0.0)], 0.0, _euclid)


@st.composite
def _point_sets(draw):
    """Point sets in R^d, d in {1, 2, 3}, that stress the greedy scan: random
    clouds, axis grids of step R/4 (points on cell edges, pairs at distance
    exactly R), subsets of such grids, and repeated rows, optionally shuffled."""
    d = draw(st.sampled_from([1, 2, 3]))
    R = draw(st.floats(0.05, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["cloud", "grid", "grid_subset", "repeats"]))
    m = draw(st.integers(0, 400))
    if kind == "cloud":
        X = rng.uniform(-6 * R, 6 * R, size=(m, d))
    elif kind == "grid":
        side = draw(st.integers(1, {1: 60, 2: 16, 3: 7}[d]))
        axis = (np.arange(side) - side // 2) * (R / 4)
        X = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    elif kind == "grid_subset":
        X = rng.integers(-16, 17, size=(m, d)) * (R / 4)
    else:
        base = rng.uniform(-3 * R, 3 * R, size=(max(m // 4, 1), d))
        X = base[rng.integers(0, len(base), size=m)]
    if draw(st.booleans()):
        X = rng.permutation(X)
    return X, R


@settings(max_examples=200, deadline=None)
@given(case=_point_sets())
@example(case=(np.empty((0, 2)), 1.0))
def test_greedy_kept_matches_hashed_reference(case):
    """The vectorized scan keeps exactly the rows the pure-Python scan keeps."""
    X, R = case
    expected = _hashed_greedy([tuple(row) for row in X.tolist()], R)
    assert _greedy_kept(X, R).tolist() == expected


def test_greedy_kept_squares_like_the_reference_at_distance_R():
    # with R = a the pair sits at distance exactly R, and a ** 2 < a * a
    # makes the reference count it as closer than R; from q = -1e-300,
    # p - q also rounds to a, but the floored cells, -1 and 1, are two
    # apart, so the reference never compares the pair and keeps both: only
    # the window clause of the tie recheck does too
    ties = [a for a in (k / 997 for k in range(500, 4000)) if a ** 2 < a * a][:20]
    if not ties:
        pytest.skip("this libm squares every sample exactly")
    for a in ties:
        for X, kept in ((np.array([[0.0], [a]]), [0]),
                        (np.array([[0.0, 1.0], [a, 1.0]]), [0]),
                        (np.array([[-1e-300], [a]]), [0, 1]),
                        (np.array([[-1e-300, 0.0], [a, 0.0]]), [0, 1])):
            expected = _hashed_greedy([tuple(row) for row in X.tolist()], a)
            assert expected == kept
            assert _greedy_kept(X, a).tolist() == expected


# radii a with a ** 2 < a * a: pairs at distance exactly a are closer than
# a to the reference, so its window clause decides them
_SQUARE_TIES = [a for a in (k / 997 for k in range(500, 4000)) if a ** 2 < a * a][:20]


@st.composite
def _cell_edge_sets(draw):
    """Rows on and next to the edges of the side-R cells in R^d, d in
    {1, 2, 3}: multiples of R/4 (pairs at distance exactly R and 2R), some
    moved one ulp down or up, and some zeros replaced by -1e-300, which p - q
    loses against R although its cell is -1, so pairs at distance R lie two
    cells apart. R is often one of ``_SQUARE_TIES``."""
    d = draw(st.sampled_from([1, 2, 3]))
    radii = st.floats(0.05, 10.0)
    if _SQUARE_TIES:
        radii = st.sampled_from(_SQUARE_TIES) | radii
    R = draw(radii)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.integers(-8, 9, size=(draw(st.integers(1, 300)), d)) * (R / 4)
    nudge = rng.integers(0, 4, size=X.shape)
    X = np.where(nudge == 1, np.nextafter(X, -np.inf), X)
    X = np.where(nudge == 2, np.nextafter(X, np.inf), X)
    return np.where((nudge == 3) & (X == 0.0), -1e-300, X), R


@settings(max_examples=200, deadline=None)
@given(case=_cell_edge_sets(), sizes=st.sampled_from([(3, 8), (8, 16), (64, 1024)]))
def test_greedy_kept_window_from_cell_codes_matches_the_reference(case, sizes):
    """The tie recheck reads the window clause off the cell codes; it keeps
    exactly the rows the reference keeps with its floored cells, for pairs
    decided in a batch and pairs decided by a push alike."""
    X, R = case
    expected = _hashed_greedy([tuple(row) for row in X.tolist()], R)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GREEDY_BATCH", sizes[0])
        mp.setattr(entropy, "_GREEDY_WINDOW", sizes[1])
        assert _greedy_kept(X, R).tolist() == expected


def test_greedy_kept_copies_no_column_of_its_input():
    # the E6 cone lattice at eps = 3^-5: the scan's own arrays (cell codes,
    # the cell order, the marks) stay below twice the rows it is given
    cone = Cone(2, BaseSetSpec.cantor_arc(8))
    eps = 3.0 ** -5
    X = cone.region_rows(cone.origin(), 1.0, eps / 4)[1]
    assert len(X) == 248833
    tracemalloc.start()
    try:
        kept = _greedy_kept(X, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) == 7039
    assert peak < 2.0 * X.nbytes


@pytest.mark.parametrize("X", [np.array([[0.0], [np.nan]]),
                               np.array([[0.0, 0.0], [np.inf, 0.0]]),
                               np.array([[0.0], [1e30]]),
                               np.array([[-1e7, -1e7, -1e7], [1e7, 1e7, 1e7]])],
                         ids=["nan", "inf", "huge", "too_many_cells"])
def test_greedy_kept_rejects_rows_it_cannot_hash(X):
    with pytest.raises(ValueError):
        _greedy_kept(X, 1.0)


def test_greedy_kept_matches_reference_on_a_rotated_cone_lattice():
    base = BaseSetSpec.cantor_arc(6).base_angles() + 2.5
    cone = Cone(2, BaseSetSpec.finite_angles(base))
    # at 3^-4 the lattice has 24736 rows, many windows of the scan
    for eps in (3.0 ** -3, 3.0 ** -4):
        X = cone.region_rows(Point.of(-0.2, 0.1), 1.0, eps / 4)[1]
        assert (X < 0).any()
        expected = _hashed_greedy([tuple(row) for row in X.tolist()], eps)
        assert _greedy_kept(X, eps).tolist() == expected


@pytest.mark.parametrize("shuffled", [False, True], ids=["lexsorted", "shuffled"])
def test_greedy_kept_matches_reference_past_the_batch_and_the_window(shuffled):
    # 3600 rows of an R/4 grid: pairs at distance exactly R, rows on cell
    # edges, and many batches and windows of the scan
    R = 0.7
    axis = (np.arange(60) - 30) * (R / 4)
    X = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    assert len(X) > entropy._GREEDY_WINDOW * 3
    if shuffled:
        X = np.random.default_rng(3).permutation(X)
    expected = _hashed_greedy([tuple(row) for row in X.tolist()], R)
    assert _greedy_kept(X, R).tolist() == expected


def test_greedy_kept_skips_windows_where_every_row_is_blocked():
    # five distinct rows repeated 5000 times: once each is kept, whole
    # windows after the cursor hold no unblocked row
    rng = np.random.default_rng(11)
    base = rng.uniform(-3.0, 3.0, size=(5, 2))
    X = np.concatenate([base[rng.integers(0, 5, size=5000)],
                        rng.uniform(-3.0, 3.0, size=(40, 2))])
    expected = _hashed_greedy([tuple(row) for row in X.tolist()], 1.0)
    assert _greedy_kept(X, 1.0).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(count=st.one_of(st.integers(0, 256), st.sampled_from([0, 1, 63, 64, 65, 255, 256])),
       seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
       repeats=st.integers(0, 3), ordered=st.booleans())
def test_first_fit_on_bit_rows_matches_the_victim_lists(count, seed, density, repeats,
                                                        ordered):
    """The packed-bit first-fit scan keeps the candidates the victim-list
    scan keeps: random subsets of the pairs below the diagonal (the pairs
    the greedies pass), or of all pairs, with pairs repeated."""
    rng = np.random.default_rng(seed)
    if ordered:
        later, earlier = np.tril_indices(count, -1)
        pick = rng.random(len(later)) < density
        earlier, later = earlier[pick], later[pick]
    else:
        earlier, later = rng.integers(0, max(count, 1),
                                      size=(2, int(density * count * count)))
    if repeats and len(earlier):
        again = rng.integers(0, len(earlier), size=repeats * len(earlier) // 2 + 1)
        earlier = np.concatenate([earlier, earlier[again]])
        later = np.concatenate([later, later[again]])
        order = rng.permutation(len(earlier))
        earlier, later = earlier[order], later[order]
    assert _first_fit(count, earlier, later) == first_fit_by_lists(count, earlier, later)



# ---------------------------------------------------------------------------
# ORBIT_IMAGE: coordinate blocks against the point-by-point reference


SPACE_KINDS = ["rects", "segments", "euclidean", "halfplane", "cone", "lattice",
               "halfline", "spine", "product"]


@st.composite
def _self_map(draw, kind):
    """A map of a space of the given kind to itself, with a start point x0."""
    if kind in ("rects", "segments"):
        space = ChainRects() if kind == "rects" else ChainSegments(
            draw(st.sampled_from(["f", "g"])))
        mapd = draw(st.sampled_from([ChainLinear(space), Iterate(ChainLinear(space), 2),
                                     Identity(space)]))
        chart = draw(st.integers(0, 4))
        # at the block anchor, regions reach furthest into the next blocks
        anchor = 0.5 if kind == "rects" else 0.0
        u, v = draw(st.one_of(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                              st.just((anchor, anchor))))
        if kind == "rects":
            w, h = space.extents(chart)
            return mapd, Point(chart, ((u - 0.5) * w, (v - 0.5) * h))
        return mapd, Point(chart, (u * space.length(chart),))
    entry = st.floats(-2.5, 2.5).map(lambda a: round(a, 2))
    if kind in ("euclidean", "halfplane"):
        d = draw(st.sampled_from([1, 2])) if kind == "euclidean" else 2
        space = Euclidean(d) if kind == "euclidean" else Halfplane()
        mapd = Linear(space, tuple(tuple(draw(entry) for _ in range(d))
                                   for _ in range(d)))
        return mapd, Point(0, (draw(st.floats(-3, 3)), draw(st.floats(0, 3)))[:d])
    if kind == "lattice":
        d = draw(st.sampled_from([1, 2]))
        space = IntegerLattice(d)
        mapd = Linear(space, tuple(tuple(float(draw(st.integers(-2, 2)))
                                         for _ in range(d)) for _ in range(d)))
        return mapd, Point(0, tuple(float(draw(st.integers(-3, 3))) for _ in range(d)))
    if kind == "halfline":
        space = HalfLine(draw(st.sampled_from([0.0, 2.0])))
        mapd = Affine1D(space, draw(st.floats(0.5, 2.5)), draw(st.floats(0.0, 2.0)))
        return mapd, Point.of(space.low + draw(st.floats(0.0, 3.0)))
    if kind == "cone":
        space = Cone(2, BaseSetSpec.finite_angles([0.0, 1.0, 2.5]))
        mapd = Homothety(space, draw(st.floats(0.5, 2.0)))
        ray = space.base.base_points()[draw(st.integers(0, 2))]
        return mapd, Point(0, tuple(draw(st.floats(0.0, 3.0)) * ray))
    if kind == "spine":
        space = SpineBlocks(max_level=2)
        chart = draw(st.integers(0, 2))
        lo = 0.0 if chart == 0 else -1.0
        return Identity(space), Point(chart, tuple(
            draw(st.floats(lo, 2.0)) for _ in range(space.chart_dim(chart))))
    left, x_left = draw(_self_map("halfline"))
    right, x_right = draw(_self_map("segments"))
    return ProductMap(left, right), Point.pair(x_left, x_right)


DELTAS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.3, 2.5))


def _scale_cases(draw, divisors, deltas=DELTAS):
    """delta, spacing = delta / k for k in ``divisors``, and R, often a
    multiple of the spacing so that exact ties at R occur."""
    delta = draw(deltas)
    spacing = delta / draw(st.sampled_from(divisors))
    R = draw(st.one_of(st.floats(0.05, 40.0),
                       st.integers(1, 24).map(lambda k: k * spacing / 2),
                       st.floats(1.0, 1.5).map(lambda t: t * spacing)))
    return delta, spacing, R


@st.composite
def _orbit_image_cases(draw):
    """A map, x0 and (n, delta, R, spacing) for an ORBIT_IMAGE count."""
    kind = draw(st.sampled_from(SPACE_KINDS))
    mapd, x0 = draw(_self_map(kind))
    small = kind in ("spine", "product")
    delta, spacing, R = _scale_cases(draw, [1, 2, 3] if small else [1, 2, 3, 4, 5, 6])
    return mapd, x0, draw(st.integers(1, 6)), delta, R, spacing


# (batch, window) sizes of the push scan: small ones make kept orbits of
# earlier batches push into later ones
SCAN_SIZES = st.sampled_from([(3, 8), (8, 16), (64, 1024)])


@settings(max_examples=250, deadline=None)
@given(case=_orbit_image_cases(), sizes=SCAN_SIZES)
def test_orbit_image_count_matches_the_point_by_point_reference(case, sizes):
    mapd, x0, n, delta, R, spacing = case
    expected = orbit_image_count(mapd, x0, n, delta, R, spacing)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GREEDY_BATCH", sizes[0])
        mp.setattr(entropy, "_GREEDY_WINDOW", sizes[1])
        assert _orbit_image_count(mapd, x0, n, delta, R, spacing, 10 ** 6) == expected


@pytest.mark.parametrize("mapd,n", [(ChainLinear(ChainRects()), 9),
                                    (Iterate(ChainLinear(ChainRects()), 2), 5),
                                    (ChainLinear(ChainSegments("g")), 12)],
                         ids=["E2", "E2-squared", "segments"])
def test_orbit_image_count_matches_the_reference_over_many_chunks(mapd, n):
    x0 = mapd.domain.origin()
    for R in (2.0, 8.0, 32.0):
        expected = orbit_image_count(mapd, x0, n, 1.0, R, 1 / 32)
        assert _orbit_image_count(mapd, x0, n, 1.0, R, 1 / 32, 10 ** 6) == expected


def test_orbit_image_count_measures_chain_steps_by_the_largest_coordinate():
    # diagonal grid neighbours differ by 0.25 in each coordinate: closer than
    # R = 0.3 in the max metric of a chain block, not in the Euclidean plane
    mapd = ChainLinear(ChainRects())
    x0 = mapd.domain.origin()
    assert _orbit_image_count(mapd, x0, 1, 0.5, 0.3, 0.25, 10 ** 6) == 9
    assert orbit_image_count(mapd, x0, 1, 0.5, 0.3, 0.25) == 9


def test_orbit_image_count_budget_error_matches_the_reference():
    mapd = ChainLinear(ChainRects())
    errors = []
    for count in (orbit_image_count, _orbit_image_count):
        with pytest.raises(BudgetExceededError) as info:
            count(mapd, mapd.domain.origin(), 4, 4.0, 8.0, 1 / 32, 1000)
        errors.append(info.value)
    assert errors[0].requested > 1000
    assert [e.requested for e in errors] == [errors[0].requested] * 2


@pytest.mark.parametrize("push_slice", [5, 1 << 16])
def test_orbit_image_count_counts_orbits_past_the_indexed_cells(push_slice):
    # the last steps reach 1e18, past 2^26 cells of side R: their column is
    # not indexed, the family is one cell, and each push works through the
    # whole family a slice at a time
    mapd = linear_1d(Euclidean(1), 1e6)
    x0 = Point.of(0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_PUSH_SLICE", push_slice)
        for n in (2, 3, 4):
            for R in (2.0, 3e12):
                expected = orbit_image_count(mapd, x0, n, 1.0, R, 1 / 8)
                assert _orbit_image_count(mapd, x0, n, 1.0, R, 1 / 8, 10 ** 6) == expected


def test_greedy_kept_orbits_indexes_a_wide_spine_block_by_two_columns():
    # block 4 of the spine has 2^3 = 8 coordinates; the scan indexes the
    # last step by its two widest columns only
    space = SpineBlocks(max_level=4)
    rng = np.random.default_rng(4)
    first = rng.integers(-3, 4, size=(400, 8)) * 0.5
    last = first * np.linspace(0.25, 2.0, 8)
    charts = np.full(len(first), 4)
    steps = [space.rows_step((charts, first)), space.rows_step((charts, last))]
    family = [SimpleNamespace(points=(Point(4, tuple(a)), Point(4, tuple(b))))
              for a, b in zip(first.tolist(), last.tolist())]
    axes = []

    def spy(keys, m):
        axes.append(len(keys))
        return cell_codes(keys, m)

    cell_codes = entropy._cell_codes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_cell_codes", spy)
        for R in (0.5, 1.0, 2.5):
            kept = _greedy_kept_orbits(space, steps, len(family), R)
            assert len(kept) == _greedy_separated_orbits(space, family, R)
    assert axes == [2, 2, 2]


@pytest.mark.parametrize("mapd", [linear_1d(Euclidean(1), 2.0),
                                  Linear(Euclidean(2), ((2.0, 1.0), (0.0, 1.0))),
                                  Identity(ChainRects()), ChainLinear(ChainSegments("f")),
                                  Affine1D(HalfLine(0.0), 2.0, 0.0)],
                         ids=["line", "plane", "rects", "segments", "halfline"])
def test_orbit_image_count_decides_ties_at_R_on_cell_boundaries(mapd):
    # spacing R/4 from the origin: coordinates on multiples of R, just below
    # the boundaries of cells of side R (1 + 2^-20), and pairs exactly R apart
    x0 = mapd.domain.origin()
    for R in (0.1, 0.3, 1.0, 1.7):
        for n in (1, 2, 3):
            expected = orbit_image_count(mapd, x0, n, 2 * R, R, R / 4)
            assert _orbit_image_count(mapd, x0, n, 2 * R, R, R / 4, 10 ** 6) == expected


@pytest.mark.parametrize("mapd,x0", [(linear_1d(Euclidean(1), 2.0), Point.of(0.3)),
                                     (Identity(ChainRects()), Point(1, (0.5, 0.0))),
                                     (Identity(SpineBlocks(max_level=2)), Point(0, (1.0,)))],
                         ids=["line", "rects", "spine"])
def test_full_enum_count_of_one_step_matches_the_reference(mapd, x0):
    for R in (0.25, 0.5, 1.0):
        family = enumerate_depth_first(mapd, x0, 1, 1.0, 0.25)
        expected = _greedy_separated_orbits(mapd.domain, family, R)
        assert count_separated(mapd, x0, 1, R, 1.0, "FULL_ENUM", 0.25).separated_lower == expected


def test_greedy_kept_orbits_of_an_empty_family_keeps_none():
    for space in (Euclidean(2), ChainRects(), Product(Euclidean(2), Euclidean(2))):
        assert _greedy_kept_orbits(space, [], 0, 1.0).tolist() == []
    step = Euclidean(2).rows_step((np.zeros(0, dtype=np.int64), np.empty((0, 2))))
    assert _greedy_kept_orbits(Euclidean(2), [step, step], 0, 1.0).tolist() == []


def test_unindexed_orbit_push_works_in_bounded_slices():
    # past 2^26 cells the family is one cell, so each kept orbit's push
    # covers the whole family; the orbits are 2R apart, so every batch keeps
    # 64 of them and pushes 64 x 2048 pairs, gathered 4096 at a time
    space = Euclidean(1)
    X = (2.0 ** 30 + 2.0 * np.arange(2048))[:, None]
    step = space.rows_step((np.zeros(len(X), dtype=np.int64), X))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_PUSH_SLICE", 4096)
        tracemalloc.start()
        kept = _greedy_kept_orbits(space, [step], len(X), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert kept.tolist() == list(range(len(X)))
    assert peak < 1 << 20


def test_orbit_image_count_rejects_orbits_that_overflow():
    mapd = linear_1d(Euclidean(1), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        _orbit_image_count(mapd, Point.of(0.0), 3, 1.0, 2.0, 0.5, 10 ** 6)


@st.composite
def _full_enum_cases(draw):
    """A map, x0 and (n, delta, R, spacing) for a FULL_ENUM count whose grid
    family stays small; on chains, delta >= 1 lets regions reach into
    neighbouring blocks, so orbits follow different chart sequences."""
    kind = draw(st.sampled_from(SPACE_KINDS))
    mapd, x0 = draw(_self_map(kind))
    chain = kind in ("rects", "segments")
    delta, spacing, R = _scale_cases(draw, [1] if kind == "product" else [1, 2],
                                     st.floats(1.0, 2.5) if chain else DELTAS)
    line = kind in ("segments", "halfline") or (
        kind in ("euclidean", "lattice") and len(x0.coords) == 1)
    return mapd, x0, draw(st.integers(1, 3 if line else 2)), delta, R, spacing


@settings(max_examples=200, deadline=None)
@given(case=_full_enum_cases(), sizes=SCAN_SIZES)
def test_full_enum_count_matches_the_orbit_by_orbit_reference(case, sizes):
    mapd, x0, n, delta, R, spacing = case
    try:
        family = enumerate_depth_first(mapd, x0, n, delta, spacing, budget=400)
    except BudgetExceededError:
        reject()
    expected = _greedy_separated_orbits(mapd.domain, family, R)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GREEDY_BATCH", sizes[0])
        mp.setattr(entropy, "_GREEDY_WINDOW", sizes[1])
        lower = count_separated(mapd, x0, n, R, delta, "FULL_ENUM", spacing)
        upper = count_spanning(mapd, x0, n, R, delta, "FULL_ENUM", spacing)
    assert (lower.separated_lower, upper.spanning_upper) == (expected, expected)


def _bits(p):
    """A point with its coordinates as exact bit patterns."""
    if p.parts is not None:
        return tuple(_bits(q) for q in p.parts)
    return p.chart, tuple(float.hex(c) for c in p.coords)


def _step_bits(step):
    """A step's chart and columns as exact bit patterns."""
    if isinstance(step[0], tuple):  # a product: one step per factor
        return tuple(_step_bits(s) for s in step)
    chart, columns = step
    charts = chart.tolist() if isinstance(chart, np.ndarray) else chart
    return charts, [[float.hex(x) for x in col.tolist()] for col in columns]


@settings(max_examples=300, deadline=None)
@given(case=_full_enum_cases(), budget=st.sampled_from([1, 4, 9, 30, 100, 400]))
def test_grid_family_lists_the_depth_first_orbits(case, budget):
    # orbit for orbit, bit for bit and chart for chart, with the steps the
    # count measures; a failure comes with the reference's message and
    # requested count, except where a level of more than ``budget``
    # prefixes ends the family early (the grid family's one declared
    # difference: it needs some prefix to end in an empty region)
    mapd, x0, n, delta, _, spacing = case
    space = mapd.domain
    try:
        expected = enumerate_depth_first(mapd, x0, n, delta, spacing, budget)
    except BudgetExceededError as exc:
        expected = exc
    try:
        levels = grid_family(mapd, x0, n, delta, spacing, budget)
        got = enumerate_pseudoorbits(mapd, x0, n, delta, spacing, budget)
    except BudgetExceededError as exc:
        got = exc
    if isinstance(got, BudgetExceededError):
        if (not isinstance(expected, BudgetExceededError)
                or (str(got), got.requested) != (str(expected), expected.requested)):
            assert (str(got), got.requested) == ("pseudoorbit family exceeds budget",
                                                 budget + 1)
            assert max(prefix_level_sizes(mapd, x0, n, delta, spacing, budget)) > budget
        return
    assert not isinstance(expected, BudgetExceededError)
    assert [[_bits(p) for p in o.points] for o in got] == \
        [[_bits(p) for p in o.points] for o in expected]
    if expected:
        steps = [space.rows_step(space.rows_of(pts))
                 for pts in list(zip(*(o.points for o in expected)))[1:]]
        assert [_step_bits(s) for s in family_steps(space, levels)] == \
            [_step_bits(s) for s in steps]


def test_a_level_over_the_budget_ends_the_grid_family_where_prefixes_die_out():
    # x -> x/2 on [2, oo): the regions of 2 and 2.5 are empty, so the
    # seven prefixes (10, x1, x2) leave two orbits; a budget of six stops
    # the grid family at those seven prefixes, while the depth-first
    # reference reaches the two orbits
    f, x0 = Affine1D(HalfLine(2.0), 0.5, 0.0), Point.of(10.0)
    assert prefix_level_sizes(f, x0, 3, 0.5, 0.5, 6) == [3, 7]
    expected = enumerate_depth_first(f, x0, 3, 0.5, 0.5, 6)
    assert [o.points[-1] for o in expected] == [Point.of(2.0), Point.of(2.0)]
    with pytest.raises(BudgetExceededError, match="pseudoorbit family") as exc:
        enumerate_pseudoorbits(f, x0, 3, 0.5, 0.5, 6)
    assert exc.value.requested == 7
    assert enumerate_pseudoorbits(f, x0, 3, 0.5, 0.5, 7) == expected


def test_a_product_map_error_is_raised_when_its_level_is_mapped():
    # x -> 1/x on the left factor: level 1 lists the left points -2 .. 0
    # left-major, so depth-first order holds 50 orbits over the budget of
    # 30 after two prefixes, before it maps the left point 0; the grid
    # family maps the whole level first, as it does on coordinate spaces
    f = ProductMap(Laurent1D.make(Euclidean(1), {-1: 1.0}), Identity(Euclidean(1)))
    x0 = Point.pair(Point.of(-1.0), Point.of(0.0))
    with pytest.raises(BudgetExceededError, match="pseudoorbit family") as exc:
        enumerate_depth_first(f, x0, 2, 1.0, 0.5, 30)
    assert exc.value.requested == 31
    with pytest.raises(ZeroDivisionError):
        enumerate_pseudoorbits(f, x0, 2, 1.0, 0.5, 30)


def test_full_enum_rejects_an_x0_that_does_not_fit_the_space():
    # the grid family takes x0 as rows, which checks it as the lattice
    # checks a centre; a second coordinate on the line was dropped before
    with pytest.raises(InvalidPointError, match="expects 1 coords, got 2"):
        count_separated(linear_1d(Euclidean(1), 2.0), Point(0, (1.0, 2.0)), 2, 1.0,
                        1.0, "FULL_ENUM")


def test_grid_family_raises_the_first_failure_in_depth_first_order():
    # the identity on [0, oo) from 0: the prefixes 0, 0.5 and 1 have regions
    # of 3, 4 and 5 points. At budget 3 the second region fails before the
    # first region's 3 orbits exceed the budget; at budget 4 the 7 orbits of
    # the first two exceed it before the third region fails
    f, x0 = Identity(HalfLine(0.0)), Point.of(0.0)
    for budget, message, requested in [
            (3, "lattice region of ~4 points exceeds budget 3", 4),
            (4, "pseudoorbit family exceeds budget", 5)]:
        for enumerate_family in (enumerate_depth_first, enumerate_pseudoorbits):
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_family(f, x0, 2, 1.0, 0.5, budget)
            assert (str(exc.value), exc.value.requested) == (message, requested)


def test_full_enum_counts_an_empty_grid_family_as_zero():
    # f(x0) = (0, -1) has no half-plane grid point within delta: the grid
    # family is empty, so the lower count claims no orbit and stays at or
    # below the upper count
    f = Linear(Halfplane(), ((0.0, 0.0), (1.0, 0.0)))
    x0 = Point.of(-1.0, 0.0)
    lower = count_separated(f, x0, 1, 1.0, 0.5, "FULL_ENUM", spacing=0.5)
    upper = count_spanning(f, x0, 1, 1.0, 0.5, "FULL_ENUM", spacing=0.5)
    assert (lower.separated_lower, upper.spanning_upper) == (0, 0)


# ---------------------------------------------------------------------------
# one family for every n of a schedule cell


# n lists: single values, ascending lists with gaps such as [2, 4], long
# runs, and lists in any order, with repeats and n = 0, which configs may
# give (ORBIT_IMAGE counts n = 0 as 1; FULL_ENUM raises)
N_LISTS = st.one_of(
    st.integers(1, 4).map(lambda n: [n]),
    st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True).map(sorted),
    st.tuples(st.integers(1, 3), st.integers(3, 7)).map(lambda t: list(range(t[0], sum(t)))),
    st.lists(st.integers(0, 5), min_size=2, max_size=4))


@st.composite
def _cell_cases(draw):
    """A FULL_ENUM or ORBIT_IMAGE cell at one R: the strategy, a map, x0,
    the n list, (delta, R, spacing) as the one-n cases draw them, and a
    budget."""
    strategy = draw(st.sampled_from(["FULL_ENUM", "ORBIT_IMAGE"]))
    case = draw(_full_enum_cases() if strategy == "FULL_ENUM" else _orbit_image_cases())
    mapd, x0, _, delta, R, spacing = case
    budget = draw(st.one_of(st.integers(1, 400), st.sampled_from([100, 400])))
    return strategy, mapd, x0, draw(N_LISTS), delta, R, spacing, budget


def _outcome(count):
    """What a count returns, or the exception it raises."""
    try:
        return count()
    except (BudgetExceededError, ValueError, ArithmeticError) as exc:
        return exc


def _failure(exc):
    return type(exc), str(exc), getattr(exc, "requested", None)


@settings(max_examples=400, deadline=None)
@given(case=_cell_cases())
@example(case=("ORBIT_IMAGE", ChainLinear(ChainRects()), Point(0, (-0.5, -0.5)), [2, 1],
               0.5, 1.0, 0.5, 4))
def test_a_cell_counts_every_n_on_one_family_as_each_n_alone(case):
    # the records of every n equal the records of each n counted alone and
    # the per-n references; where counting each n in turn fails, the cell
    # fails first in the same way (type, message and requested count)
    strategy, mapd, x0, ns, delta, R, spacing, budget = case
    space = mapd.domain
    alone = _outcome(lambda: [count_separated(mapd, x0, n, R, delta, strategy, spacing, budget)
                              for n in ns])
    got = _outcome(lambda: entropy._lower_counts(mapd, x0, ns, delta, R, strategy,
                                                 spacing, budget))
    if isinstance(alone, Exception):
        assert isinstance(got, Exception) and _failure(got) == _failure(alone)
        return
    assert got == [rec.separated_lower for rec in alone]
    for rec in alone:
        if strategy == "FULL_ENUM":
            family = enumerate_depth_first(mapd, x0, rec.n, delta, spacing, budget)
            expected = _greedy_separated_orbits(space, family, R)
        else:
            expected = max(orbit_image_count(mapd, x0, rec.n, delta, R, spacing, budget), 1)
        assert rec.separated_lower == expected


def _spy_apply_rows(mp):
    """Count the calls of the base ``apply_rows`` from now on."""
    calls = []
    apply_rows = MapDescriptor.apply_rows
    mp.setattr(MapDescriptor, "apply_rows",
               lambda self, rows: calls.append(1) or apply_rows(self, rows))
    return calls


def test_an_orbit_image_cell_maps_each_step_once():
    # n 10..17 counted alone map 9 + ... + 16 = 100 steps; the cell maps
    # the 16 steps after x1 once
    mapd = ChainLinear(ChainRects())
    cell = ScheduleCell(1.0, (2.0,), tuple(range(10, 18)), "ORBIT_IMAGE", spacing=0.25)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_apply_rows(mp)
        est = estimate_entropy(mapd, mapd.domain.origin(), [cell])
    assert len(calls) == 16
    assert est.records == [count_separated(mapd, mapd.domain.origin(), n, 2.0, 1.0,
                                           "ORBIT_IMAGE", 0.25) for n in range(10, 18)]


def test_a_full_enum_cell_maps_the_levels_of_its_largest_n():
    # n 2, 3 and 4 counted alone map 2 + 3 + 4 = 9 levels; the cell maps 4
    f = Linear(Euclidean(2), ((2.0, 1.0), (0.0, 1.5)))
    x0 = Point.of(0.0, 0.0)
    cell = ScheduleCell(1.0, (1.5,), (2, 3, 4), "FULL_ENUM", spacing=1.0,
                        upper_strategy="FULL_ENUM")
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_apply_rows(mp)
        est = estimate_entropy(f, x0, [cell])
    assert len(calls) == 4
    assert [r.separated_lower for r in est.records[:3]] == \
        [count_separated(f, x0, n, 1.5, 1.0, "FULL_ENUM", 1.0).separated_lower
         for n in (2, 3, 4)]


def test_a_final_term_cell_with_a_full_enum_upper_maps_the_levels_of_its_largest_n():
    # n 2, 3 and 4 counted alone map 2 + 3 + 4 = 9 levels per R; the cell
    # maps 4 per R, and FINAL_TERM maps no rows
    f = Linear(Euclidean(2), ((2.0, 1.0), (0.0, 1.5)))
    x0 = Point.of(0.0, 0.0)
    cell = ScheduleCell(1.0, (1.5, 2.5), (2, 3, 4), "FINAL_TERM", spacing=1.0,
                        upper_strategy="FULL_ENUM")
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_apply_rows(mp)
        est = estimate_entropy(f, x0, [cell])
    assert len(calls) == 8
    assert [r for r in est.records if r.spanning_upper is not None] == \
        [count_spanning(f, x0, n, R, 1.0, "FULL_ENUM", 1.0) for R in (1.5, 2.5) for n in (2, 3, 4)]


def test_a_cell_raises_the_first_error_of_its_n_in_turn():
    # from chart 2040 the chain map leaves the last chart, 2047, at the
    # ninth step: n 2 and 4 count, and n 12 raises the map's error
    mapd = ChainLinear(ChainRects())
    x0 = Point(2040, (0.0, 0.0))
    cell = ScheduleCell(1.0, (2.0,), (2, 4, 12), "ORBIT_IMAGE", spacing=0.5)
    with pytest.raises(InvalidPointError, match="chart 2048 out of range"):
        estimate_entropy(mapd, x0, [cell])
    with pytest.raises(InvalidPointError, match="chart 2048 out of range"):
        count_separated(mapd, x0, 12, 2.0, 1.0, "ORBIT_IMAGE", 0.5)
    assert entropy._orbit_image_counts(mapd, x0, [2, 4], 1.0, 2.0, 0.5, 10 ** 6) == \
        [count_separated(mapd, x0, n, 2.0, 1.0, "ORBIT_IMAGE", 0.5).separated_lower
         for n in (2, 4)]
    # x -> 1e200 x leaves the floats at the third step, and the identity
    # on [0, oo) from 0 holds more than 4 orbits from n = 2 on: at R = 0
    # the greedy of the smaller n fails before the larger n is built
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="R must be positive"):
        entropy._orbit_image_counts(linear_1d(Euclidean(1), 1e200), Point.of(0.0), [2, 12],
                                    1.0, 0.0, 0.5, 10 ** 6)
    with pytest.raises(ValueError, match="R must be positive"):
        entropy._full_enum_counts(Identity(HalfLine(0.0)), Point.of(0.0), [1, 5], 1.0, 0.0,
                                  0.5, 4)


# ---------------------------------------------------------------------------
# counting strategies cross-checked


def test_full_enum_counts_trivial_cluster():
    # all orbits stay within spread 2, far below R = 10
    f = Identity(Euclidean(1))
    rec = count_separated(f, Point.of(0.0), 2, 10.0, 1.0, "FULL_ENUM", spacing=1.0)
    assert rec.separated_lower == 1


def test_final_term_matches_literal_greedy_at_small_scale():
    # the spacing-R grid shortcut must agree with greedy over the same points
    f = linear_1d(Euclidean(1), 2.0)
    n, delta, R = 4, 2.0, 4.0
    rec = count_separated(f, Point.of(0.0), n, R, delta, "FINAL_TERM")
    fts = final_terms_lower(f, Point.of(0.0), n, delta, R)
    kept = greedy_separated([p.coords for p in fts.points], R,
                            lambda a, b: abs(a[0] - b[0]))
    assert rec.separated_lower == len(kept) == len(fts.points)


def test_final_term_lower_bound_formula_doubling():
    f = linear_1d(Euclidean(1), 2.0)
    delta = 2.0
    for n in range(3, 9):
        for R in (2.0, 4.0):
            rec = count_separated(f, Point.of(0.0), n, R, delta, "FINAL_TERM")
            assert rec.separated_lower >= (2 ** (n - 1)) * 2 * delta / R - 1


def test_ladder_count_formula():
    from coarse_entropy.maps import ConjugatedDoubling
    from coarse_entropy.spaces import Halfplane
    g = ConjugatedDoubling(Halfplane())
    delta = 2.0
    for n in (3, 5, 7):
        for R in (2.0, 4.0):
            rec = count_separated(g, Point.of(0.0, 0.0), n, R, delta, "LADDER")
            assert rec.separated_lower >= 2 * math.exp((n - 2) * delta) / R - 1


def test_shadow_hull_interval_count():
    f = linear_1d(Euclidean(1), 2.0)
    n, delta, R = 4, 2.0, 10.0
    rec = count_spanning(f, Point.of(0.0), n, R, delta, "SHADOW_HULL")
    S = R - 2 * delta / (2.0 - 1.0)
    assert rec.spanning_upper == math.ceil(2 * (2 ** n) * delta / S)


def test_shadow_hull_rejects_small_R():
    f = linear_1d(Euclidean(1), 2.0)
    with pytest.raises(ValueError):
        count_spanning(f, Point.of(0.0), 4, 3.9, 2.0, "SHADOW_HULL")


def test_lower_counts_never_exceed_upper_counts():
    g = Linear(Euclidean(2), ((2.0, 0.0), (0.0, 3.0)))
    for n in range(4, 9):
        lo = count_separated(g, Point.of(0.0, 0.0), n, 12.0, 2.0, "FINAL_TERM")
        hi = count_spanning(g, Point.of(0.0, 0.0), n, 12.0, 2.0, "SHADOW_HULL")
        assert lo.separated_lower <= hi.spanning_upper


def test_unknown_strategy_rejected():
    f = Identity(Euclidean(1))
    with pytest.raises(ValueError):
        count_separated(f, Point.of(0.0), 2, 1.0, 1.0, "SHADOW_HULL")
    with pytest.raises(ValueError):
        count_spanning(f, Point.of(0.0), 2, 1.0, 1.0, "LADDER")


# ---------------------------------------------------------------------------
# FINAL_TERM counts the realized final-term set

_FINAL_TERM_BUDGET = 20_000


def _nonzero(draw):
    return draw(st.floats(0.5, 2.5)) * draw(st.sampled_from([1.0, -1.0]))


@st.composite
def _final_term_cases(draw):
    """A map, x0, n, delta, R and spacing on which the count is realized."""
    kind = draw(st.sampled_from(["linear", "homothety", "identity", "cone"]))
    n = draw(st.integers(2, 6))
    delta = draw(st.floats(0.5, 4.0))
    R = draw(st.floats(0.25, 4.0))
    spacing = draw(st.none() | st.floats(0.25, 4.0))
    if kind == "cone":
        if draw(st.booleans()):
            base = BaseSetSpec.cantor_arc(draw(st.integers(0, 3)))
        else:
            base = BaseSetSpec.finite_angles(draw(st.lists(
                st.floats(0.0, 6.28), min_size=1, max_size=5, unique=True)))
        cone = Cone(2, base)
        return (Homothety(cone, draw(st.floats(0.75, 2.0))), cone.origin(),
                n, delta, R, spacing)
    q = draw(st.integers(1, 3))
    space = Euclidean(q)
    x0 = Point.of(*draw(st.lists(st.floats(-5.0, 5.0), min_size=q, max_size=q)))
    if kind == "identity":
        mapd = Identity(space)
    elif kind == "homothety":
        mapd = Homothety(space, _nonzero(draw))
    else:
        triangular = draw(st.booleans())
        mapd = Linear(space, tuple(
            tuple(_nonzero(draw) if i == j
                  else draw(st.floats(-2.0, 2.0)) if triangular and j > i else 0.0
                  for j in range(q)) for i in range(q)))
    return mapd, x0, n, delta, R, spacing


@settings(max_examples=300, deadline=None)
@given(case=_final_term_cases())
def test_final_term_count_matches_the_separate_counters(case):
    """Where the realized set is defined, the count over it equals what the
    two separate counters counted, budget overruns included."""
    mapd, x0, n, delta, R, spacing = case
    if isinstance(mapd.domain, Cone):
        reference = lambda: cone_final_term_count(mapd, x0, n, delta, R, spacing,
                                                  _FINAL_TERM_BUDGET)
    else:
        reference = lambda: linear_grid_count(mapd, x0, n, delta, R,
                                              _FINAL_TERM_BUDGET)
    count = lambda: count_separated(mapd, x0, n, R, delta, "FINAL_TERM", spacing,
                                    _FINAL_TERM_BUDGET).separated_lower
    try:
        expected = reference()
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError) as raised:
            count()
        assert raised.value.requested == exc.requested
        return
    assert count() == max(expected, 1)


_HALVES = st.integers(-6, 6).map(lambda k: k / 2.0)


@st.composite
def _euclidean_final_term_cases(draw):
    """A map on Euclidean(q), x0, n, delta, R and a budget, drawn so that grid
    points land on the boundary of the realized set: integer or
    half-integer matrices, integer delta, R in {0.5, 1, 2}. A thin map has
    a last row of entries in {-0.5, 0, 0.5}, so the set is thin along the
    last axis and the tested band covers whole lines."""
    q = draw(st.integers(1, 3))
    space = Euclidean(q)
    kind = draw(st.sampled_from(["identity", "homothety", "linear", "thin"]))
    if kind == "identity":
        mapd = Identity(space)
    elif kind == "homothety":
        mapd = Homothety(space, draw(_HALVES.filter(lambda x: x != 0.0)))
    else:
        rows = [[draw(_HALVES) for _ in range(q)] for _ in range(q)]
        if kind == "thin":
            rows[-1] = [draw(st.sampled_from([-0.5, 0.0, 0.5])) for _ in range(q)]
        if abs(np.linalg.det(rows)) < 0.1:
            reject()
        mapd = Linear(space, tuple(tuple(r) for r in rows))
    R = draw(st.sampled_from([0.5, 1.0, 2.0]))
    on_grid = st.integers(-4, 4).map(lambda k: k * R)
    x0 = Point.of(*draw(st.lists(on_grid | st.floats(-3.0, 3.0),
                                 min_size=q, max_size=q)))
    return (mapd, x0, draw(st.integers(1, 3)), float(draw(st.integers(1, 3))), R,
            draw(st.sampled_from([50, 2000, _FINAL_TERM_BUDGET])))


@settings(max_examples=300, deadline=None)
@given(case=_euclidean_final_term_cases())
def test_final_term_lines_list_the_materialized_grid_rows(case):
    """The line-by-line final-term set lists the rows of the filtered box
    grid, row for row, and the count is their number; over budget, both
    report the box size the grid would have had."""
    mapd, x0, n, delta, R, budget = case
    lower = lambda: final_terms_lower(mapd, x0, n, delta, R, budget)
    count = lambda: count_separated(mapd, x0, n, R, delta, "FINAL_TERM",
                                    budget=budget).separated_lower
    try:
        rows = final_term_rows(mapd, x0, n, delta, R, budget)
    except BudgetExceededError as exc:
        for run in (lower, count):
            with pytest.raises(BudgetExceededError) as raised:
                run()
            assert raised.value.requested == exc.requested
        return
    assert [p.coords for p in lower().points] == [tuple(r) for r in rows.tolist()]
    # x0's true orbit exists, so an empty grid set still counts one orbit
    assert count() == max(len(rows), 1)


def test_final_term_count_does_not_build_the_grid():
    # LINEAR_2D_DIAG23's largest cell: its box grid has 4.5M rows (about
    # 270 MiB to build and filter), of which 3.5M are counted
    f = Linear(Euclidean(2), ((2.0, 0.0), (0.0, 3.0)))
    tracemalloc.start()
    try:
        rec = count_separated(f, Point.of(0.0, 0.0), 10, 12.0, 4.0, "FINAL_TERM")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.separated_lower == 3517771
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("mapd,x0", [
    (Identity(Halfplane()), Point.of(0.0, 0.0)),
    (Identity(HalfLine(2.0)), Point.of(2.0)),
    (Identity(Cone(2, BaseSetSpec.finite_angles([0.0, 1.0]))), Point.of(0.0, 0.0)),
    (Linear(Halfplane(), ((2.0, 0.0), (0.0, 3.0))), Point.of(0.0, 0.0)),
    (Linear(IntegerLattice(1), ((2.0,),)), Point.of(0.0)),
    (Homothety(Cone(2, BaseSetSpec.finite_angles([0.0, 1.0])), 2.0),
     Point.of(1.0, 0.0)),
], ids=["identity-halfplane", "identity-halfline", "identity-cone",
        "linear-halfplane", "linear-integer-lattice", "cone-off-apex"])
def test_final_term_rejects_sets_it_cannot_realize(mapd, x0):
    # a grid of the ambient ball would count points outside the space (the
    # half-plane, half-line and cone counts were 197, 17 and 197), and a cone
    # ray grid around the apex is not reachable from another x0
    with pytest.raises(ValueError):
        count_separated(mapd, x0, 3, 1.0, 4.0, "FINAL_TERM")
    with pytest.raises(ValueError):
        final_terms_lower(mapd, x0, 3, 4.0, 1.0)


@pytest.mark.parametrize("mapd,x0", [
    (Identity(Euclidean(2)), Point.of(0.5, 0.0)),
    (linear_1d(Euclidean(1), 2.0), Point.of(1.0)),
])
def test_final_term_with_one_step_stays_within_delta_of_f_x0(mapd, x0):
    # with n = 1 the orbit is (x0, z): there is no last step to widen by
    fts = final_terms_lower(mapd, x0, 1, 1.0, 0.25)
    image = np.asarray(mapd.apply(x0).coords)
    assert max(np.linalg.norm(np.asarray(z.coords) - image)
               for z in fts.points) <= 1.0 + 1e-9
    for z in fts.points:
        assert validate(fts.reconstruct(z)), z
    rec = count_separated(mapd, x0, 1, 0.25, 1.0, "FINAL_TERM")
    assert rec.separated_lower == len(fts.points)


def test_one_dimensional_final_term_checks_the_budget_before_the_grid():
    f = linear_1d(Euclidean(1), 2.0)
    with pytest.raises(BudgetExceededError) as raised:
        count_separated(f, Point.of(0.0), 60, 1.0, 1.0, "FINAL_TERM", budget=1000)
    assert raised.value.requested > 2 ** 59


@st.composite
def _final_term_cell_cases(draw):
    """A FINAL_TERM cell on Euclidean(q): the identity, a homothety, or a
    diagonal, triangular, dense or singular (zero last row) matrix of
    half-integers; x0, delta, R and a budget; and n values in any order
    with repeats, n = 1 among them, now and then n = 0 or n = 1100, whose
    box passes the float range for most maps."""
    q = draw(st.integers(1, 3))
    space = Euclidean(q)
    kind = draw(st.sampled_from(["identity", "homothety", "diagonal", "triangular",
                                 "dense", "singular"]))
    if kind == "identity":
        mapd = Identity(space)
    elif kind == "homothety":
        mapd = Homothety(space, draw(_HALVES.filter(lambda x: x != 0.0)))
    else:
        rows = [[draw(_HALVES) if (kind in ("dense", "singular") or i == j
                                   or (kind == "triangular" and j > i)) else 0.0
                 for j in range(q)] for i in range(q)]
        if kind == "singular":
            rows[-1] = [0.0] * q
        elif abs(np.linalg.det(rows)) < 0.1:
            reject()
        mapd = Linear(space, tuple(tuple(r) for r in rows))
    x0 = Point.of(*draw(st.lists(st.floats(-3.0, 3.0), min_size=q, max_size=q)))
    ns = draw(st.lists(st.integers(1, 5) | st.sampled_from([0, 1, 1100]),
                       min_size=1, max_size=5))
    return (mapd, x0, ns, float(draw(st.integers(1, 3))),
            draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([50, 2000])))


_DIAG23 = Linear(Euclidean(2), ((2.0, 0.0), (0.0, 3.0)))


@settings(max_examples=300, deadline=None)
@given(case=_final_term_cell_cases())
@example(case=(_DIAG23, Point.of(0.0, 0.0), [3, 700, 2], 1.0, 2.0, 2000))
@example(case=(_DIAG23, Point.of(0.0, 0.0), [2, 9, 1], 1.0, 0.5, 2000))
@example(case=(Linear(Euclidean(2), ((1.0, 2.0), (0.0, 0.0))), Point.of(1.0, 0.0),
               [1, 3, 2], 1.0, 1.0, 2000))
@example(case=(linear_1d(Euclidean(1), 2.0), Point.of(1e308), [1, 2], 1.0, 1.0, 50))
@example(case=(Linear(Euclidean(2), ((3.0, 0.0), (0.0, 2.5))), Point.of(0.0, 0.0),
               [3, 0, 1, 2], 1.0, 2.0, 2000))
@example(case=(Linear(Euclidean(2), ((0.5, 0.0), (0.0, 3.0))), Point.of(0.0, 0.0),
               [2, 1], 1.0, 2.0, 2000))
def test_a_final_term_cell_counts_every_n_as_each_n_alone(case):
    # one pass over the boxes of every n counts each n's realized final-term
    # set, and the SHADOW_HULL boxes of every n are counted in one call;
    # where counting each n in turn fails (a box over budget, a singular
    # power, a box past the float range, n = 0; for the hull R too small, a
    # map that does not expand or is not linear), the cell fails first in
    # the same way (type, message and requested count)
    mapd, x0, ns, delta, R, budget = case
    for each_alone, every_n in [
            (lambda: [max(len(final_terms_lower(mapd, x0, n, delta, R, budget).points), 1)
                      for n in ns],
             lambda: entropy._lower_counts(mapd, x0, ns, delta, R, "FINAL_TERM", None, budget)),
            (lambda: [count_spanning(mapd, x0, n, R, delta, "SHADOW_HULL").spanning_upper
                      for n in ns],
             lambda: entropy._upper_counts(mapd, x0, ns, delta, R, "SHADOW_HULL", None,
                                           budget, None))]:
        alone, got = _outcome(each_alone), _outcome(every_n)
        if isinstance(alone, Exception):
            assert isinstance(got, Exception) and _failure(got) == _failure(alone)
        else:
            assert got == alone


def test_a_final_term_cell_charges_every_box_in_one_call(monkeypatch):
    # n 2..8 counted alone make 7 ``_grid_boxes`` calls; the cell makes one
    calls = []
    grid_boxes = orbits._grid_boxes
    monkeypatch.setattr(orbits, "_grid_boxes",
                        lambda *args: calls.append(1) or grid_boxes(*args))
    cell = ScheduleCell(1.0, (2.0,), tuple(range(2, 9)), "FINAL_TERM")
    est = estimate_entropy(_DIAG23, Point.of(0.5, 0.0), [cell])
    assert len(calls) == 1
    monkeypatch.undo()
    assert est.records == [count_separated(_DIAG23, Point.of(0.5, 0.0), n, 2.0, 1.0,
                                           "FINAL_TERM") for n in range(2, 9)]


# ---------------------------------------------------------------------------
# SHADOW_HULL cells and the powers of A


@pytest.mark.parametrize("n,count", [(6, 2985984008392000005), (7, 17915904031832000014),
                                     (8, 107495424186896000080)])
def test_shadow_hull_counts_past_int64_are_exact(n, count):
    # 2^63 is about 9.2e18, so the counts at n = 7 and 8 pass int64; the
    # half-widths are 4 * 2^n and 4 * 3^n, the box side 8.000001 - 8
    S = 8.000001 - 8.0
    assert count == math.ceil(8.0 * 2 ** n / S) * math.ceil(8.0 * 3 ** n / S)
    rec = count_spanning(_DIAG23, Point.of(0.0, 0.0), n, 8.000001, 4.0, "SHADOW_HULL")
    assert rec.spanning_upper == count
    assert shadow_hull(_DIAG23, Point.of(0.0, 0.0), n, 4.0).box_cover_count(S) == count


def test_a_shadow_hull_past_the_float_range_is_an_invalid_point():
    # 3^700 is past the float range, so that row's width is infinite; 2^700
    # is not, and its row, whose plain norm overflows, keeps its width
    message = ("the shadow hull at n = 700 is past the float range: "
               "half-widths \\[5.260135901548374e\\+210, inf\\]")
    with pytest.raises(InvalidPointError, match=message):
        count_spanning(_DIAG23, Point.of(0.0, 0.0), 700, 8.0, 1.0, "SHADOW_HULL")
    with np.errstate(all="ignore"), pytest.raises(InvalidPointError, match=message):
        shadow_hull(_DIAG23, Point.of(0.0, 0.0), 700, 1.0).box_cover_count(6.0)


def test_a_shadow_hull_row_whose_plain_norm_overflows_keeps_its_width():
    # the plain norm of the row (1e200, 0) squares 1e200 past the float
    # range; scaled by its largest entry first it is 1e200, with no warning
    f = Linear(Euclidean(2), ((1e200, 0.0), (0.0, 2.0)))
    count = math.ceil(2e200) * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hull = shadow_hull(f, Point.of(0.0, 0.0), 1, 1.0)
        assert hull.half_widths().tolist() == [1e200, 2.0]
        assert hull.box_cover_count(1.0) == count
        assert count_spanning(f, Point.of(0.0, 0.0), 1, 3.0, 1.0, "SHADOW_HULL").spanning_upper \
            == count


def _fresh(mapd):
    """The map built anew, with no power of its matrix computed yet."""
    return Linear(mapd.domain, mapd.matrix) if isinstance(mapd, Linear) else mapd


def _cells_alone(mapd, x0, schedule, budget):
    """The records and cell errors ``estimate_entropy`` gives, from each
    (delta, R, n) counted alone on a freshly built map: FINAL_TERM below,
    SHADOW_HULL above."""
    records, errors = [], []
    for cell in schedule:
        for R in cell.r_values:
            try:
                lower = [count_separated(_fresh(mapd), x0, n, R, cell.delta, "FINAL_TERM",
                                         budget=budget) for n in cell.n_values]
                upper = [count_spanning(_fresh(mapd), x0, n, R, cell.delta, "SHADOW_HULL",
                                        budget=budget, lam=cell.lam) for n in cell.n_values]
            except BudgetExceededError as exc:
                errors.append(f"delta={cell.delta} R={R}: {exc}")
                continue
            records += lower + upper
    if not records:
        raise BudgetExceededError("every schedule cell exceeded its budget; " + "; ".join(errors))
    return records, errors


@st.composite
def _hull_cases(draw):
    """An expanding map on Euclidean(q), q 1-3: diagonal, triangular, or
    dense with a declared lam (backed, not backed, or none); now and then a
    homothety, which is not linear, or a contracting diagonal. A schedule
    of 2-3 deltas with 2-3 R values each, FINAL_TERM below SHADOW_HULL, n
    values in any order with repeats; x0 and a budget."""
    q = draw(st.integers(1, 3))
    space = Euclidean(q)
    kind = draw(st.sampled_from(["diagonal", "triangular", "dense"] * 3
                                + ["homothety", "contracting"]))
    lam = None
    if kind == "homothety":
        mapd = Homothety(space, 2.0)
    else:
        diagonal = st.sampled_from([0.5, -0.5] if kind == "contracting"
                                   else [1.5, -2.0, 2.0, 2.5, 3.0])
        rows = [[draw(diagonal) if i == j else
                 draw(_HALVES) / 4 if kind == "dense" or (kind == "triangular" and j > i)
                 else 0.0 for j in range(q)] for i in range(q)]
        mapd = Linear(space, tuple(tuple(r) for r in rows))
        if kind == "dense":
            smallest = float(np.linalg.svd(np.array(rows), compute_uv=False)[-1])
            lam = draw(st.sampled_from([0.99 * smallest] * 3 + [None, 1.5 * smallest]))
    deltas = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=3)))
    ns = draw(st.lists(st.integers(1, 5), min_size=3, max_size=6).filter(
        lambda ns: len(set(ns)) > 1))
    schedule = [ScheduleCell(delta, tuple(sorted(draw(st.sets(
        st.sampled_from([2.5, 6.0, 9.0, 14.0, 20.0, 30.0]), min_size=2, max_size=3)))),
        tuple(ns), "FINAL_TERM", upper_strategy="SHADOW_HULL", lam=lam) for delta in deltas]
    x0 = Point.of(*draw(st.lists(st.floats(-2.0, 2.0), min_size=q, max_size=q)))
    return mapd, x0, schedule, draw(st.sampled_from([300, 3000, 30000]))


_HUGE = Linear(Euclidean(2), ((1e308, 0.0), (0.0, 2.0)))


@settings(max_examples=200, deadline=None)
@given(case=_hull_cases())
@example(case=(_HUGE, Point.of(0.0, 0.0), [  # the hull at n = 1 is 2e308 boxes wide
    ScheduleCell(1.0, (3.0,), (1, 1, 1), "FINAL_TERM", upper_strategy="SHADOW_HULL"),
    ScheduleCell(2.0, (5.0, 6.0), (1, 1, 1), "FINAL_TERM", upper_strategy="SHADOW_HULL")],
    300))
@example(case=(_DIAG23, Point.of(0.0, 0.0), [  # counts past 2^63
    ScheduleCell(4.0, (8.000001, 9.0), (8, 6, 7, 7), "FINAL_TERM", upper_strategy="SHADOW_HULL"),
    ScheduleCell(5.0, (11.0, 12.0), (6, 7, 8), "FINAL_TERM", upper_strategy="SHADOW_HULL")],
    30000))
def test_a_schedule_counts_every_hull_and_power_as_each_cell_alone(case):
    # one hull pass per (delta, R) and powers of A shared across the whole
    # schedule give the records and cell errors of counting each (delta, R,
    # n) alone on a fresh map; where that fails, the schedule fails first in
    # the same way (type, message and requested count)
    mapd, x0, schedule, budget = case
    alone = _outcome(lambda: _cells_alone(mapd, x0, schedule, budget))
    got = _outcome(lambda: estimate_entropy(mapd, x0, schedule, budget))
    if isinstance(alone, Exception):
        assert isinstance(got, Exception) and _failure(got) == _failure(alone)
        return
    assert (got.records, got.errors) == alone
    # each count is the side-S box cover of the hull's bounding box
    lam = schedule[0].lam or float(np.min(np.abs(np.diagonal(mapd.mat()))))
    for r in (r for r in got.records if r.spanning_upper is not None):
        S = r.R - 2 * r.delta / (lam - 1.0)
        half = r.delta / (lam - 1.0) * np.linalg.norm(
            np.linalg.matrix_power(mapd.mat(), r.n), axis=1)
        assert r.spanning_upper == math.prod(max(1, math.ceil(2 * h / S)) for h in half)


def test_each_run_builds_its_own_powers(monkeypatch):
    # A^3..A^6 serve both deltas and both sides of a run once each, and a
    # second run of the same config computes them again
    calls = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda a, k: calls.append(k) or matrix_power(a, k))
    cell = {"r_values": ["12", "16"], "n_values": [4, 5, 6], "strategy": "FINAL_TERM",
            "upper_strategy": "SHADOW_HULL"}
    cfg = {"schema_version": 1, "kind": "entropy", "space": {"type": "euclidean", "dim": 2},
           "map": {"type": "linear", "matrix": [["2", "0"], ["0", "3"]]},
           "x0": {"coords": ["0", "0"]},
           "schedule": [dict(cell, delta="1"), dict(cell, delta="2")]}
    first = run_config(cfg)
    assert sorted(calls) == [3, 4, 5, 6]
    calls.clear()
    second = run_config(cfg)
    assert sorted(calls) == [3, 4, 5, 6]
    assert first.exit_code == second.exit_code == 0
    assert first.csv_lines == second.csv_lines


# ---------------------------------------------------------------------------
# exact-oracle inequalities on exhaustive instances


def _exact_separated_of_family(fam, R):
    return max_separated_exact(fam, R, orbit_distance)


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 1)])
def test_iterate_counts_exact_inequality(k, n):
    """s(f, k*n) >= s(f^k, n) with exact maxima on integer instances."""
    space = IntegerLattice(1)
    f = Linear(space, ((2,),))
    delta, spacing, R = 1.0, 1.0, 2.0
    x0 = space.origin()
    fam_long = enumerate_pseudoorbits(f, x0, k * n, delta, spacing)
    fam_iter = enumerate_pseudoorbits(Iterate(f, k), x0, n, delta, spacing)
    s_long = _exact_separated_of_family(fam_long, R)
    s_iter = _exact_separated_of_family(fam_iter, R)
    assert s_long >= s_iter


@pytest.mark.parametrize("seed", range(10))
def test_product_inequalities_exact(seed):
    """s(F) >= s(f)*s(g) and r(F) <= r(f)*r(g) with exact optima."""
    rng = np.random.default_rng(seed)
    space = IntegerLattice(1)
    a = int(rng.choice([1, 2]))
    b = int(rng.choice([1, 2]))
    f = Linear(space, ((a,),))
    g = Linear(space, ((b,),))
    n = int(rng.integers(1, 3))
    delta, spacing = 1.0, 1.0
    R = float(rng.choice([2.0, 3.0]))
    fam_f = enumerate_pseudoorbits(f, space.origin(), n, delta, spacing)
    fam_g = enumerate_pseudoorbits(g, space.origin(), n, delta, spacing)
    pairs = [(u, v) for u in fam_f for v in fam_g]

    def pdist(x, y):
        return max(orbit_distance(x[0], y[0]), orbit_distance(x[1], y[1]))

    s_f = max_separated_exact(fam_f, R, orbit_distance)
    s_g = max_separated_exact(fam_g, R, orbit_distance)
    s_fg = max_separated_exact(pairs, R, pdist)
    assert s_fg >= s_f * s_g
    r_f = min_spanning_exact(fam_f, R, orbit_distance)
    r_g = min_spanning_exact(fam_g, R, orbit_distance)
    r_fg = min_spanning_exact(pairs, R, pdist)
    assert r_fg <= r_f * r_g


def _factor(family):
    """A ``PseudoOrbit`` family as ``count_product`` takes it: its space,
    its steps 1..n built from its points with ``rows_of`` and ``rows_step``,
    and its size."""
    space = family[0].map.domain
    steps = [space.rows_step(space.rows_of([o.points[s] for o in family]))
             for s in range(1, family[0].length + 1)]
    return space, steps, len(family)


def test_count_product_reports_factor_counts():
    f = Identity(Euclidean(1))
    fam = enumerate_pseudoorbits(f, Point.of(0.0), 2, 1.0, 1.0)
    rec = count_product(_factor(fam), _factor(fam), 2.0)
    assert len(rec.kept_left) == len(rec.kept_right)
    assert rec.separated_lower >= 1
    single = fam[:1]
    rec2 = count_product(_factor(single), _factor(fam), 2.0)
    assert rec2.separated_lower == len(rec2.kept_right)


@st.composite
def _factor_maps(draw):
    """A map of a small factor family: the identity or a linear map on the
    line, or a chain map."""
    kind = draw(st.sampled_from(["identity", "linear", "chain"]))
    if kind == "chain":
        return ChainLinear(ChainSegments(draw(st.sampled_from(["f", "g"]))))
    if kind == "linear":
        a = draw(st.one_of(st.sampled_from([-1.5, 0.5, 2.0]),
                           st.floats(-3.0, 3.0).map(lambda t: round(t, 2))))
        return Linear(Euclidean(1), ((a,),))
    return Identity(Euclidean(1))


# R, often a whole number so that ties at R occur
_PRODUCT_RADII = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.25, 6.0))


@st.composite
def _product_cases(draw):
    """Two small factor families sharing n and delta = 1, each a random
    subset (in enumeration order) of a grid family, and R."""
    n = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from([0.5, 1.0]))

    def factor():
        mapd = draw(_factor_maps())
        fam = enumerate_pseudoorbits(mapd, mapd.domain.origin(), n, 1.0, spacing)
        picks = draw(st.sets(st.integers(0, len(fam) - 1), min_size=1, max_size=8))
        return [fam[i] for i in sorted(picks)]

    return factor(), factor(), draw(_PRODUCT_RADII)


@settings(max_examples=100, deadline=None)
@given(case=_product_cases(), sizes=SCAN_SIZES)
def test_count_product_matches_the_orbit_by_orbit_reference(case, sizes):
    """The counts and witness checks count_product takes from the factors'
    steps equal those measured pair by pair through orbit_distance, also
    where small push-scan batches make kept pairs push into later batches."""
    left, right, R = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GREEDY_BATCH", sizes[0])
        mp.setattr(entropy, "_GREEDY_WINDOW", sizes[1])
        rec = count_product(_factor(left), _factor(right), R)

    def pdist(x, y):
        return max(orbit_distance(x[0], y[0]), orbit_distance(x[1], y[1]))

    pairs = [(u, v) for u in left for v in right]
    assert rec.separated_lower == len(first_fit_separated(pairs, R, pdist))
    assert len(rec.kept_left) == len(first_fit_separated(left, R, orbit_distance))
    assert len(rec.kept_right) == len(first_fit_separated(right, R, orbit_distance))
    size = len(rec.kept_left) * len(rec.kept_right)
    assert product_witnesses(left, right, R) == (
        rec.witness_separated, size, rec.witness_covers, size)


@settings(max_examples=100, deadline=None)
@given(mapd=_factor_maps(), n=st.integers(1, 3), spacing=st.sampled_from([0.5, 1.0]),
       R=_PRODUCT_RADII)
def test_the_near_matrix_of_the_steps_equals_the_pair_by_pair_one(mapd, n, spacing, R):
    """A grid family's ``distance < R`` matrix built from its steps with
    ``step_distances`` equals the one of its orbits measured pair by pair
    through ``orbit_distance``, bit for bit, ties at R included."""
    space, x0 = mapd.domain, mapd.domain.origin()
    levels = grid_family(mapd, x0, n, 1.0, spacing)
    near = entropy._near_matrix(space, family_steps(space, levels), len(levels[-1][0]), R)
    expected = _distance_matrix(enumerate_pseudoorbits(mapd, x0, n, 1.0, spacing)) < R
    assert near.dtype == expected.dtype and np.array_equal(near, expected)


def test_product_witness_fails_for_a_net_that_is_not_separated_or_not_covering():
    # a left factor of three orbits 0, 1, 2 apart along a line, a right
    # factor of one orbit
    dl = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    dr = np.zeros((1, 1))
    near_l, near_r = dl < 2.0, dr < 2.0
    assert _product_witness(near_l, near_r, [0, 2], [0]) == (True, True)
    # 0 and 1 are closer than R
    assert _product_witness(near_l, near_r, [0, 1], [0]) == (False, True)
    # orbit 2 is not within < R of orbit 0
    assert _product_witness(near_l, near_r, [0], [0]) == (True, False)
    # a product member pair closer than R in both factors
    assert _product_witness(near_l, np.array([[0.0, 3.0], [3.0, 0.0]]) < 2.0,
                            [0, 1], [0, 1]) == (False, True)


def test_full_enum_monotonicity_exact():
    """Exact separated maxima: nonincreasing in R, nondecreasing in delta
    and in n, on an exhaustive integer instance. The lower counts need not
    be (``test_separated_lower_counts_can_grow_with_R``)."""
    space = IntegerLattice(1)
    f = Linear(space, ((2,),))
    x0 = space.origin()
    base = _exact_separated_of_family(
        enumerate_pseudoorbits(f, x0, 2, 1.0, 1.0), 2.0)
    wider_R = _exact_separated_of_family(
        enumerate_pseudoorbits(f, x0, 2, 1.0, 1.0), 3.0)
    more_delta = _exact_separated_of_family(
        enumerate_pseudoorbits(f, x0, 2, 2.0, 1.0), 2.0)
    longer = _exact_separated_of_family(
        enumerate_pseudoorbits(f, x0, 3, 1.0, 1.0), 2.0)
    assert wider_R <= base
    assert more_delta >= base
    assert longer >= base


@pytest.mark.parametrize("matrix,x0,n,strategy,counts", [
    (((2, 2), (-2, 1)), (-1.0, 0.0), 2, "FULL_ENUM", {3.17: 3, 3.67: 4}),
    (((3, -1), (0, 2)), (0.031, -1.356), 4, "FINAL_TERM", {3.35: 55, 3.46: 57}),
], ids=["FULL_ENUM", "FINAL_TERM"])
def test_separated_lower_counts_can_grow_with_R(matrix, x0, n, strategy, counts):
    """A separated lower count is the size of one realized R-separated set
    (a greedy net of the grid family, the spacing-R grid of the final-term
    set), not the maximum, so a larger R can count more. Only the exact
    maxima are monotone (``test_full_enum_monotonicity_exact``), so no
    property asks the lower counts to fall as R grows."""
    f = Linear(Euclidean(2), matrix)
    spacing = 1.0 if strategy == "FULL_ENUM" else None
    assert {R: count_separated(f, Point.of(*x0), n, R, 1.0, strategy, spacing).separated_lower
            for R in counts} == counts


# ---------------------------------------------------------------------------
# growth fitting and the schedule runner


def test_fit_growth_rate_exact_geometric():
    slope, resid = fit_growth_rate([1, 2, 3, 4], [2, 4, 8, 16])
    assert slope == pytest.approx(math.log(2.0))
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_growth_rate_constant():
    slope, _ = fit_growth_rate([1, 2, 3], [7, 7, 7])
    assert slope == pytest.approx(0.0)


def test_fit_growth_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_growth_rate([1, 2], [2, 4])


def test_fit_window_recovers_doubling_slope():
    f = linear_1d(Euclidean(1), 2.0)
    recs = [count_separated(f, Point.of(0.0), n, 16.0, 4.0, "FINAL_TERM")
            for n in range(6, 15)]
    slope, _ = fit_growth_rate([r.n for r in recs],
                               [r.separated_lower for r in recs])
    assert abs(slope - math.log(2.0)) < 0.05


def test_estimate_entropy_rejects_bad_schedules():
    f = Identity(Euclidean(1))
    with pytest.raises(ValueError):
        estimate_entropy(f, Point.of(0.0), [
            ScheduleCell(2.0, (4.0,), (2, 3, 4), "FINAL_TERM"),
            ScheduleCell(1.0, (4.0,), (2, 3, 4), "FINAL_TERM")])
    with pytest.raises(ValueError):
        estimate_entropy(f, Point.of(0.0), [
            ScheduleCell(1.0, (8.0, 4.0), (2, 3, 4), "FINAL_TERM")])


def test_estimate_entropy_retains_partial_results_on_budget():
    f = Identity(Euclidean(2))
    est = estimate_entropy(f, Point.of(0.0, 0.0), [
        ScheduleCell(1.0, (4.0,), (2, 3, 4), "FINAL_TERM"),
        ScheduleCell(64.0, (4.0,), (2, 3, 4), "FINAL_TERM")], budget=2000)
    assert est.errors
    assert 1.0 in est.per_delta


def test_estimate_entropy_records_an_upper_count_over_budget_as_a_cell_error():
    f = linear_1d(Euclidean(1), 2.0)
    est = estimate_entropy(f, Point.of(0.0), [
        ScheduleCell(0.5, (4.0,), (2, 3, 4), "FINAL_TERM", spacing=0.5,
                     upper_strategy="FULL_ENUM"),
        ScheduleCell(1.0, (4.0,), (2, 3, 4), "FINAL_TERM", spacing=0.25,
                     upper_strategy="FULL_ENUM")], budget=200)
    assert est.errors == ["delta=1.0 R=4.0: pseudoorbit family exceeds budget"]
    assert list(est.per_delta) == [0.5]
    assert {r.delta for r in est.records} == {0.5}
    assert [c.delta for c in est.grid] == [0.5]


def test_estimate_entropy_counts_a_full_enum_family_once_for_both_sides(monkeypatch):
    f = Linear(Euclidean(2), ((2.0, 1.0), (0.0, 1.5)))
    x0 = Point.of(0.0, 0.0)
    counted = []
    full_enum_counts = entropy._full_enum_counts
    monkeypatch.setattr(entropy, "_full_enum_counts",
                        lambda *args: counted.append(args) or full_enum_counts(*args))
    est = estimate_entropy(f, x0, [ScheduleCell(1.0, (1.5, 2.5), (1, 2, 3), "FULL_ENUM",
                                                spacing=1.0, upper_strategy="FULL_ENUM")])
    # one family per R counts every n, and its counts give both sides
    assert [(args[2], args[4]) for args in counted] == [((1, 2, 3), 1.5), ((1, 2, 3), 2.5)]
    expected = []
    for R in (1.5, 2.5):
        expected += [count_separated(f, x0, n, R, 1.0, "FULL_ENUM", 1.0) for n in (1, 2, 3)]
        expected += [count_spanning(f, x0, n, R, 1.0, "FULL_ENUM", 1.0) for n in (1, 2, 3)]
    assert est.records == expected
    assert len({r.separated_lower for r in expected[:3]}) == 3


def test_csv_emission_format():
    f = linear_1d(Euclidean(1), 2.0)
    est = estimate_entropy(f, Point.of(0.0), [
        ScheduleCell(2.0, (8.0,), (4, 5, 6), "FINAL_TERM")])
    lines = est.csv_lines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "4,2,8,FINAL_TERM,5,"
    assert len(lines) == 4


def test_csv_counts_parse_back_to_the_record():
    assert (CountRecord(7, 3.0, 4.0, "LADDER", separated_lower=1634509).csv_row()
            == "7,3,4,LADDER,1634509,")
    assert (CountRecord(10, 4.0, 12.0, "SHADOW_HULL",
                        spanning_upper=241864704).csv_row()
            == "10,4,12,SHADOW_HULL,,241864704")


# ---------------------------------------------------------------------------
# box-counting dimension


def test_bcd_unit_segment():
    est = bcd_estimate(Euclidean(1), 0.5, [3.0 ** -k for k in range(2, 6)],
                       center=Point.of(0.5))
    assert abs(est.fitted_dimension - 1.0) <= 0.05


def test_bcd_unit_square():
    est = bcd_estimate(Euclidean(2), 0.5, [3.0 ** -k for k in range(1, 5)],
                       center=Point.of(0.5, 0.5))
    assert abs(est.fitted_dimension - 2.0) <= 0.1


def test_bcd_single_point():
    from coarse_entropy.spaces import IntegerLattice
    est = bcd_estimate(IntegerLattice(1), 0.4, [0.2, 0.1, 0.05])
    assert est.fitted_dimension == pytest.approx(0.0)


def test_bcd_requires_decreasing_epsilons():
    with pytest.raises(ValueError):
        bcd_estimate(Euclidean(1), 1.0, [0.1, 0.2])


@pytest.mark.parametrize("space", [Product(Euclidean(1), Euclidean(1)),
                                   ChainRects(), ChainSegments("f"),
                                   SpineBlocks(max_level=3)],
                         ids=lambda s: type(s).__name__)
def test_bcd_rejects_multi_chart_spaces(space):
    # product points carry no coords and chain charts reuse coordinates, so
    # a greedy over raw coordinates would fit a meaningless dimension; the
    # space is rejected, also for a region that lies in one chart
    inside = Point.of(5.0) if isinstance(space, SpineBlocks) else space.origin()
    if not isinstance(space, Product):
        assert len(set(space.region_rows(inside, 0.25, 0.03125)[0].tolist())) == 1
    for radius, center in ((1.0, None), (0.25, inside)):
        with pytest.raises(ValueError, match=type(space).__name__):
            bcd_estimate(space, radius, [0.5, 0.25, 0.125], center=center)
