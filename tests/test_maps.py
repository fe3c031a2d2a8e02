import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_entropy.errors import InvalidPointError
from coarse_entropy.maps import (Affine1D, ChainLinear, Compose,
                                 ConjugatedDoubling, ControlWitness, Homothety,
                                 Identity, Iterate, Laurent1D, Linear,
                                 MapDescriptor, ProductMap, iterate_apply,
                                 linear_1d, power_map, verify_control)
from coarse_entropy.spaces import (ChainRects, ChainSegments, Euclidean,
                                   HalfLine, Halfplane, Point, Product,
                                   e3_multiplier)


def test_linear_apply_and_eigen_helpers():
    f = Linear(Euclidean(2), ((2.0, 1.0), (0.0, 3.0)))
    q = f.apply(Point.of(1.0, 1.0))
    assert q.coords == (3.0, 3.0)
    assert list(f.eigenvalues()) == [2.0, 3.0]
    assert f.expansion_lambda() == 2.0
    assert f.big_lambda() == 6.0


def test_big_lambda_ignores_contracting_directions():
    f = Linear(Euclidean(3), ((2.0, 0, 0), (0, 0.5, 0), (0, 0, 1.0)))
    assert f.big_lambda() == 2.0


def test_nontriangular_eigenvalues_declined():
    f = Linear(Euclidean(2), ((0.0, 1.0), (1.0, 0.0)))
    assert f.eigenvalues() is None


def test_apply_rejects_nonmembers():
    f = power_map(2)
    with pytest.raises(InvalidPointError):
        f.apply(Point.of(1.0))


def test_iterate_apply_flags_escape():
    # x - 10 leaves [2, oo) after one step from x = 5
    f = Affine1D(HalfLine(2.0), 1.0, -10.0)
    with pytest.raises(InvalidPointError):
        iterate_apply(f, 2, Point.of(5.0))


def test_iterate_and_compose_agree():
    f = linear_1d(Euclidean(1), 3.0)
    p = Point.of(2.0)
    assert Iterate(f, 2).apply(p) == Compose(f, f).apply(p)


def test_product_map_acts_coordinatewise():
    f = linear_1d(Euclidean(1), 2.0)
    g = Identity(Euclidean(1))
    fg = ProductMap(f, g)
    out = fg.apply(Point.pair(Point.of(3.0), Point.of(5.0)))
    assert out.parts[0].coords == (6.0,)
    assert out.parts[1].coords == (5.0,)


def test_laurent_evaluates_negative_exponents():
    f = Laurent1D.make(HalfLine(2.0), {2: 1.0, -1: 1.0})
    assert f.apply(Point.of(2.0)).coords[0] == pytest.approx(4.5)


def test_chain_linear_maps_block_onto_next():
    ch = ChainRects()
    f = ChainLinear(ch)
    corner = Point.in_chart(2, (0.5, 1.0))     # corner of the 1 x 2 block
    out = f.apply(corner)
    assert out.chart == 3
    w, h = ch.extents(3)
    assert abs(out.coords[0]) == pytest.approx(w / 2)
    assert abs(out.coords[1]) == pytest.approx(h / 2)


def test_chain_linear_has_no_image_past_the_last_block():
    # the image of P_2047 would be 1 x 2^1024, past the floats
    f = ChainLinear(ChainRects())
    with pytest.raises(InvalidPointError, match="chart 2048"):
        f.apply(Point.in_chart(2047, (0.0, 0.0)))
    with pytest.raises(InvalidPointError, match="chart 2048"):
        f.apply_block(2047, np.zeros((3, 2)))


def test_chain_linear_segments_multiplier():
    seg = ChainSegments("f")
    f = ChainLinear(seg)
    p = Point.in_chart(0, (0.5,))
    q = f.apply(p)
    assert q.chart == 1
    assert q.coords[0] in (0.5, 1.0)  # multiplier is 1 or 2 at this epoch


@settings(max_examples=100, deadline=None)
@given(chart=st.integers(0, 40), x=st.floats(-1e6, 1e6), y=st.floats(-1e6, 1e6))
def test_chain_linear_scales_offsets_as_x_times_new_over_old(chart, x, y):
    rects, segs = ChainRects(), ChainSegments("g")
    (w0, h0), (w1, h1) = rects.extents(chart), rects.extents(chart + 1)
    assert ChainLinear(rects).apply(Point(chart, (x, y)), check=False) == \
        Point(chart + 1, (x * w1 / w0, y * h1 / h0))
    assert ChainLinear(segs).apply(Point(chart, (x,)), check=False) == \
        Point(chart + 1, (x * e3_multiplier("g", chart),))


@pytest.mark.parametrize("mapd", [
    ChainLinear(ChainRects()),
    ChainLinear(ChainSegments("f")),
    Iterate(ChainLinear(ChainRects()), 2),
    Iterate(ChainLinear(ChainSegments("g")), 3),
    Linear(Euclidean(2), ((1.5, -0.25), (0.75, 3.0))),
    ConjugatedDoubling(),
], ids=["ChainLinear-rects", "ChainLinear-segments", "Iterate2-rects",
        "Iterate3-segments", "Linear", "ConjugatedDoubling"])
def test_apply_block_matches_apply_row_by_row(mapd):
    space = mapd.domain
    charts = [0, 3, 7] if isinstance(space, (ChainRects, ChainSegments)) else [0]
    for chart in charts:
        center = Point(chart, (0.1,) * space.chart_dim(chart))
        rows = space.region_rows(center, 1.5, 0.125)
        for c in np.unique(rows[0]).tolist():
            X = rows[1][rows[0] == c, :space.chart_dim(c)]
            image_chart, Y = mapd.apply_block(c, X)
            images = [mapd.apply(Point(c, tuple(row)), check=False) for row in X.tolist()]
            assert {q.chart for q in images} == {image_chart}
            assert Y.shape == (len(X), len(images[0].coords))
            assert np.array_equal(Y, np.array([q.coords for q in images]))
            charts, Z = mapd.apply_rows((np.full(len(X), c), X))
            assert charts.tolist() == [image_chart] * len(X) and Z.tobytes() == Y.tobytes()


_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_linear_block_maps_each_row_as_apply_does(dim, data):
    """A point maps bit for bit alike alone and in a block."""
    matrix = data.draw(st.tuples(*[st.tuples(*[_FLOATS] * dim)] * dim))
    rows = data.draw(st.lists(st.tuples(*[_FLOATS] * dim), max_size=20))
    f = Linear(Euclidean(dim), matrix)
    X = np.array(rows, dtype=float).reshape(-1, dim)
    chart, Y = f.apply_block(0, X)
    singles = np.array([f.apply(Point(0, row), check=False).coords for row in rows],
                       dtype=float).reshape(-1, dim)
    assert chart == 0
    assert Y.shape == X.shape and Y.tobytes() == singles.tobytes()


_LAURENT_X = st.one_of(st.floats(-50, 50), st.sampled_from([0.0, -0.0, 0.5, 2.0, -3.0]))


def _row_by_row(mapd, X):
    """The images of the rows of X by ``_apply``, as an (m, 1) array."""
    return np.array([mapd.apply(Point(0, (x,)), check=False).coords for x in X[:, 0].tolist()],
                    dtype=float).reshape(-1, 1)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.dictionaries(st.integers(-3, 3), st.floats(-4, 4), min_size=1, max_size=3),
       a=st.floats(-3, 3), b=st.floats(-3, 3), k=st.integers(1, 3),
       xs=st.lists(_LAURENT_X, max_size=12))
def test_one_dimensional_block_maps_each_row_as_apply_does(coeffs, a, b, k, xs):
    """Laurent, affine, composed, identity and iterated Laurent maps give
    a block bit for bit the images ``_apply`` gives its rows (Python's
    ``x ** e`` on floats), and fail where a row fails (a block maps every
    row one step before the next, so with two failing rows it may raise
    the other row's error)."""
    space = Euclidean(1)
    laurent, affine = Laurent1D.make(space, coeffs), Affine1D(space, a, b)
    X = np.array(xs, dtype=float).reshape(-1, 1)
    for mapd in (laurent, affine, Compose(affine, laurent), Compose(laurent, affine),
                 Identity(space), Iterate(laurent, k)):
        try:
            expected = _row_by_row(mapd, X)
        except (ZeroDivisionError, InvalidPointError):
            with pytest.raises((ZeroDivisionError, InvalidPointError)):
                mapd.apply_block(0, X)
            with pytest.raises((ZeroDivisionError, InvalidPointError)):
                mapd.apply_rows((np.zeros(len(X), dtype=np.int64), X))
            continue
        chart, Y = mapd.apply_block(0, X)
        assert chart == 0 and Y.shape == X.shape and Y.tobytes() == expected.tobytes()
        charts, Y = mapd.apply_rows((np.zeros(len(X), dtype=np.int64), X))
        assert not charts.any() and len(Y) == len(X) and Y.tobytes() == expected.tobytes()


def test_laurent_block_raises_on_zero_to_a_negative_power_as_apply_does():
    f = Laurent1D.make(HalfLine(0.0), {-1: 1.0, 2: 1.0})
    with pytest.raises(ZeroDivisionError):
        f.apply(Point.of(0.0), check=False)
    with pytest.raises(ZeroDivisionError):
        f.apply_block(0, np.array([[1.0], [0.0]]))
    assert f.apply_block(0, np.array([[2.0], [0.5]]))[1].ravel().tolist() == [4.5, 2.25]


def test_a_laurent_power_past_the_float_range_is_an_invalid_point():
    cube = Laurent1D.make(Euclidean(1), {3: 1.0})
    message = r"x \*\* 3 is past the float range at x = 1e\+150"
    with pytest.raises(InvalidPointError, match=message):
        cube.apply(Point.of(1e150), check=False)
    with pytest.raises(InvalidPointError, match=message):
        cube.apply_block(0, np.array([[2.0], [1e150]]))
    inverse = Laurent1D.make(HalfLine(0.0), {-1: 1.0})
    with pytest.raises(InvalidPointError, match=r"x \*\* -1 .* at x = 5e-324"):
        inverse.apply_block(0, np.array([[1.0], [5e-324]]))


class _SplitHalves(MapDescriptor):
    """Sends the left half of the line to chart 1 and the rest to chart 2."""

    domain = codomain = Euclidean(1)

    def _apply(self, p):
        return Point(1 if p.coords[0] < 0 else 2, p.coords)


def test_apply_block_rejects_a_map_that_splits_a_chart():
    f = _SplitHalves()
    assert f.apply_block(0, np.array([[1.0], [2.0]]))[0] == 2
    with pytest.raises(ValueError, match="_SplitHalves sends chart 0 to charts"):
        f.apply_block(0, np.array([[-1.0], [2.0]]))


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-50, 50), y=st.floats(0, 20))
def test_conjugated_doubling_is_phi_f_phi_inverse(x, y):
    hp = Halfplane()
    g = ConjugatedDoubling(hp)
    p = Point.of(x, y)
    u = ConjugatedDoubling.phi_inv(p)
    doubled = Point.of(2.0 * u.coords[0], u.coords[1])
    expected = ConjugatedDoubling.phi(doubled)
    got = g.apply(p, check=False)
    assert got.coords[0] == pytest.approx(expected.coords[0], abs=1e-9)
    assert got.coords[1] == y


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-50, 50), y=st.floats(0, 20))
def test_phi_inverts_phi_inv(x, y):
    p = Point.of(x, y)
    back = ConjugatedDoubling.phi(ConjugatedDoubling.phi_inv(p))
    assert back.coords[0] == pytest.approx(x, abs=1e-7)


def test_verify_control_accepts_true_lipschitz_bound():
    f = Linear(Euclidean(2), ((2.0, 0.0), (0.0, 3.0)))
    rep = verify_control(f, ControlWitness(L=lambda t: 3.0 * t),
                         region_radius=100.0, samples=300, seed=11)
    assert not rep.violations
    assert rep.max_ratio <= 1.0 + 1e-9


def test_verify_control_finds_violations_of_undersized_bound():
    f = Linear(Euclidean(2), ((2.0, 0.0), (0.0, 3.0)))
    rep = verify_control(f, ControlWitness(L=lambda t: 1.5 * t),
                         region_radius=100.0, samples=300, seed=11)
    assert rep.violations
    assert rep.max_ratio > 1.0


def test_verify_control_is_seed_deterministic():
    f = Homothety(Euclidean(2), 2.0)
    a = verify_control(f, ControlWitness(L=lambda t: 2.0 * t), 50.0, 100, 3)
    b = verify_control(f, ControlWitness(L=lambda t: 2.0 * t), 50.0, 100, 3)
    assert a.max_ratio == b.max_ratio


def test_power_map_domain_guard():
    with pytest.raises(ValueError):
        power_map(2, low=1.0)
