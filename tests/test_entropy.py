import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from coarse_entropy import entropy
from coarse_entropy.entropy import (CSV_HEADER, CountRecord, ScheduleCell,
                                    _first_fit, _greedy_kept, _greedy_kept_orbits,
                                    _orbit_image_count,
                                    _product_witness, bcd_estimate,
                                    count_product,
                                    count_separated, count_spanning,
                                    estimate_entropy, fit_growth_rate,
                                    greedy_separated, greedy_spanning)
from coarse_entropy.errors import BudgetExceededError
from coarse_entropy.maps import (Affine1D, ChainLinear, Homothety, Identity,
                                 Iterate, Linear, ProductMap, linear_1d)
from coarse_entropy.orbits import (enumerate_pseudoorbits, final_terms_lower,
                                   orbit_distance, validate)
from coarse_entropy.spaces import (BaseSetSpec, ChainRects, ChainSegments,
                                   Cone, Euclidean, HalfLine, Halfplane,
                                   IntegerLattice, Point, Product, SpineBlocks)

from oracles import (_greedy_separated_orbits, _hashed_greedy,
                     cone_final_term_count, final_term_rows,
                     first_fit_by_lists, first_fit_separated, linear_grid_count,
                     max_separated_exact, min_spanning_exact,
                     orbit_image_count, product_witnesses)


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
    [(chart, X)] = cone.lattice_blocks(cone.origin(), 1.0, eps / 4)
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
        [(chart, X)] = cone.lattice_blocks(Point.of(-0.2, 0.1), 1.0, eps / 4)
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
    steps = [space.block_step(4, first), space.block_step(4, last)]
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
        family = enumerate_pseudoorbits(mapd, x0, 1, 1.0, 0.25)
        expected = _greedy_separated_orbits(mapd.domain, family, R)
        assert count_separated(mapd, x0, 1, R, 1.0, "FULL_ENUM", 0.25).separated_lower == expected


def test_greedy_kept_orbits_of_an_empty_family_keeps_none():
    for space in (Euclidean(2), ChainRects(), Product(Euclidean(2), Euclidean(2))):
        assert _greedy_kept_orbits(space, [], 0, 1.0).tolist() == []
    step = Euclidean(2).block_step(0, np.empty((0, 2)))
    assert _greedy_kept_orbits(Euclidean(2), [step, step], 0, 1.0).tolist() == []


def test_unindexed_orbit_push_works_in_bounded_slices():
    # past 2^26 cells the family is one cell, so each kept orbit's push
    # covers the whole family; the orbits are 2R apart, so every batch keeps
    # 64 of them and pushes 64 x 2048 pairs, gathered 4096 at a time
    space = Euclidean(1)
    X = (2.0 ** 30 + 2.0 * np.arange(2048))[:, None]
    step = space.block_step(0, X)
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
        family = enumerate_pseudoorbits(mapd, x0, n, delta, spacing, budget=400)
    except BudgetExceededError:
        reject()
    expected = _greedy_separated_orbits(mapd.domain, family, R)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GREEDY_BATCH", sizes[0])
        mp.setattr(entropy, "_GREEDY_WINDOW", sizes[1])
        lower = count_separated(mapd, x0, n, R, delta, "FULL_ENUM", spacing)
        upper = count_spanning(mapd, x0, n, R, delta, "FULL_ENUM", spacing)
    assert (lower.separated_lower, upper.spanning_upper) == (expected, expected)


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


def test_coded_upper_slope_tracks_lipschitz_constant():
    f = linear_1d(Euclidean(1), 2.0)
    recs = [count_spanning(f, Point.of(0.0), n, 64.0, 1.0, "CODED")
            for n in range(4, 13)]
    slope, _ = fit_growth_rate([r.n for r in recs],
                               [r.spanning_upper for r in recs])
    # the coded bound is loose but its growth rate is finite and >= log 2
    assert math.log(2.0) - 0.05 <= slope <= 4 * math.log(2.0)


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


def test_count_product_reports_factor_counts():
    f = Identity(Euclidean(1))
    fam = enumerate_pseudoorbits(f, Point.of(0.0), 2, 1.0, 1.0)
    rec = count_product(fam, fam, 2.0)
    assert rec.left_separated == rec.right_separated
    assert rec.separated_lower >= 1
    single = [fam[0]]
    rec2 = count_product(single, fam, 2.0)
    assert rec2.separated_lower == rec2.right_separated


@st.composite
def _product_cases(draw):
    """Two small factor families sharing n and delta = 1, each a random
    subset (in enumeration order) of a grid family, and R, often a whole
    number so that ties at R occur."""
    n = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from([0.5, 1.0]))

    def factor():
        kind = draw(st.sampled_from(["identity", "linear", "chain"]))
        if kind == "chain":
            mapd = ChainLinear(ChainSegments(draw(st.sampled_from(["f", "g"]))))
        elif kind == "linear":
            a = draw(st.one_of(st.sampled_from([-1.5, 0.5, 2.0]),
                               st.floats(-3.0, 3.0).map(lambda t: round(t, 2))))
            mapd = Linear(Euclidean(1), ((a,),))
        else:
            mapd = Identity(Euclidean(1))
        fam = enumerate_pseudoorbits(mapd, mapd.domain.origin(), n, 1.0, spacing)
        picks = draw(st.sets(st.integers(0, len(fam) - 1), min_size=1, max_size=8))
        return [fam[i] for i in sorted(picks)]

    left, right = factor(), factor()
    R = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.25, 6.0)))
    return left, right, R


@settings(max_examples=100, deadline=None)
@given(case=_product_cases(), sizes=SCAN_SIZES)
def test_count_product_matches_the_orbit_by_orbit_reference(case, sizes):
    """The counts and witness checks count_product takes from its distance
    matrices equal those measured pair by pair through orbit_distance, also
    where small push-scan batches make kept pairs push into later batches."""
    left, right, R = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GREEDY_BATCH", sizes[0])
        mp.setattr(entropy, "_GREEDY_WINDOW", sizes[1])
        rec = count_product(left, right, R)

    def pdist(x, y):
        return max(orbit_distance(x[0], y[0]), orbit_distance(x[1], y[1]))

    pairs = [(u, v) for u in left for v in right]
    assert rec.separated_lower == len(first_fit_separated(pairs, R, pdist))
    assert rec.left_separated == len(first_fit_separated(left, R, orbit_distance))
    assert rec.right_separated == len(first_fit_separated(right, R, orbit_distance))
    assert product_witnesses(left, right, R) == (
        rec.witness_separated, rec.witness_size, rec.witness_covers,
        rec.witness_size)


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
    and in n, on an exhaustive integer instance."""
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
    full_enum_count = entropy._full_enum_count
    monkeypatch.setattr(entropy, "_full_enum_count",
                        lambda *args: counted.append(args) or full_enum_count(*args))
    est = estimate_entropy(f, x0, [ScheduleCell(1.0, (1.5, 2.5), (1, 2, 3), "FULL_ENUM",
                                                spacing=1.0, upper_strategy="FULL_ENUM")])
    assert len(counted) == 6
    expected = []
    for R in (1.5, 2.5):
        expected += [count_separated(f, x0, n, R, 1.0, "FULL_ENUM", 1.0) for n in (1, 2, 3)]
        expected += [count_spanning(f, x0, n, R, 1.0, "FULL_ENUM", 1.0) for n in (1, 2, 3)]
    assert est.records == expected
    assert len({r.separated_lower for r in expected[:3]}) == 3


def test_coded_bound_beyond_the_float_range_is_a_budget_error():
    g = Linear(Euclidean(2), ((3.0, 0.0), (0.0, 3.0)))
    with pytest.raises(BudgetExceededError, match="CODED"):
        count_spanning(g, Point.of(0.0, 0.0), 400, 64.0, 1.0, "CODED")


def test_estimate_entropy_records_a_coded_overflow_as_a_cell_error():
    f = Identity(Euclidean(2))
    est = estimate_entropy(f, Point.of(0.0, 0.0), [
        ScheduleCell(1.0, (64.0,), (398, 399, 400), "FINAL_TERM",
                     upper_strategy="CODED", lam=3.0),
        ScheduleCell(2.0, (64.0,), (4, 5, 6), "FINAL_TERM",
                     upper_strategy="CODED", lam=3.0)])
    assert est.errors == ["delta=1.0 R=64.0: the CODED bound at n=398 "
                          "exceeds the float range"]
    assert list(est.per_delta) == [2.0]


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
    for coded in (4096.0, 2.0 ** 70, 1234.56789, math.pi / 1000):
        cell = CountRecord(3, 1.0, 8.0, "CODED", spanning_upper=coded).csv_row()
        assert float(cell.split(",")[5]) == coded


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
        assert len(space.lattice_blocks(inside, 0.25, 0.03125)) == 1
    for radius, center in ((1.0, None), (0.25, inside)):
        with pytest.raises(ValueError, match=type(space).__name__):
            bcd_estimate(space, radius, [0.5, 0.25, 0.125], center=center)
