import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarse_entropy import maps
from coarse_entropy.coarse import (Affine, CoarseMapCert, Composed, MaxOf,
                                   PowerAffine, Table, check_conjugacy,
                                   check_density, check_embedding,
                                   classify_trend, closeness_defect,
                                   compose_certs, compose_controls,
                                   defect_trend)
from coarse_entropy.errors import BudgetExceededError
from coarse_entropy.maps import (Affine1D, ChainLinear, Compose, ControlWitness,
                                 Homothety, Identity, Iterate, Laurent1D,
                                 Linear, ProductMap, linear_1d, verify_control)
from coarse_entropy.spaces import (BaseSetSpec, ChainRects, ChainSegments, Cone,
                                   Euclidean, HalfLine, Halfplane, Point, Product)

from oracles import (check_density_by_pairs, check_embedding_by_pairs,
                     closeness_defect_by_points, verify_control_by_pairs)


# ---------------------------------------------------------------------------
# control-function algebra


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.5, 5), b=st.floats(0, 5), t=st.floats(0, 100))
def test_affine_inverse(a, b, t):
    f = Affine(a, b)
    assert f.inverse(f(t)) == pytest.approx(t, abs=1e-7)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0, 50))
def test_power_affine_dominates_affine_tail(t):
    assert PowerAffine(1.0, 0.0, 2.0)(t + 2) >= Affine(1.0, 0.0)(t + 2)


def test_affine_composition_is_exact():
    f = compose_controls(Affine(2.0, 1.0), Affine(3.0, 4.0))
    assert isinstance(f, Affine)
    assert (f.a, f.b) == (6.0, 9.0)
    assert f(5.0) == 2.0 * (3.0 * 5.0 + 4.0) + 1.0


def test_table_control_interpolates_and_extends():
    L = Table(((1.0, 2.0), (3.0, 8.0)), tail_slope=4.0)
    assert L(2.0) == pytest.approx(5.0)
    assert L(5.0) == pytest.approx(8.0 + 4.0 * 2.0)
    assert L.inverse(L(2.5)) == pytest.approx(2.5)


def test_maxof_inverse_is_min_of_inverses():
    f = MaxOf(Affine(2.0, 0.0), Affine(1.0, 10.0))
    for s in (5.0, 12.0, 40.0):
        assert f(f.inverse(s)) == pytest.approx(max(s, f(0.0)) if s >= f(0.0) else s)
        assert f.inverse(s) == min(Affine(2.0, 0.0).inverse(s),
                                   Affine(1.0, 10.0).inverse(s))


def test_monotone_controls():
    for L in (Affine(2.0, 1.0), PowerAffine(1.0, 0.5, 2.0),
              Table(((1.0, 1.0), (2.0, 4.0))), Composed(Affine(2.0), Affine(3.0))):
        vals = [L(t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# certificate checks


def test_embedding_check_passes_for_isometry():
    phi = Affine1D(Euclidean(1), 1.0, 5.0)
    cert = CoarseMapCert(phi, Affine(1.0, 0.0))
    rep = check_embedding(cert, 100.0, 500, 1)
    assert rep.ok


def test_embedding_check_catches_expansion_past_the_control():
    phi = linear_1d(Euclidean(1), 3.0)
    cert = CoarseMapCert(phi, Affine(2.0, 0.0))
    rep = check_embedding(cert, 100.0, 500, 1)
    assert rep.upper_violations


def test_embedding_check_catches_collapse():
    # squaring on a half-line stretches distances, so the *lower* bound
    # d(x, x') <= L(d(phi x, phi x')) holds, but an aggressive L fails upper
    phi = Laurent1D.make(HalfLine(2.0), {2: 1.0})
    cert = CoarseMapCert(phi, Affine(1.0, 0.0))
    rep = check_embedding(cert, 50.0, 500, 7)
    assert rep.upper_violations
    assert not rep.lower_violations


def test_density_check_flags_sparse_images():
    # x -> 10x is 1-dense nowhere: image points are 10 apart
    phi = Affine1D(Euclidean(1), 10.0, 0.0)
    bad = CoarseMapCert(phi, Affine(10.0, 0.0), M_dense=1.0)
    rep = check_density(bad, 30.0, 1.0)
    assert rep.flagged
    good = CoarseMapCert(phi, Affine(10.0, 0.0), M_dense=5.0)
    rep2 = check_density(good, 30.0, 1.0)
    assert not rep2.flagged


def test_density_check_centres_the_codomain_lattice_on_the_image_of_the_origin():
    # x -> x + 100 is an isometry onto the line: the codomain lattice around
    # phi(0) = 100 is covered, where one around 0 would lie 67 from the image
    cert = CoarseMapCert(Affine1D(Euclidean(1), 1.0, 100.0), Affine(1.0), M_dense=1.0)
    rep = check_density(cert, 30.0, 1.0)
    assert (rep.max_gap, rep.witness, rep.flagged) == (0.0, None, False)
    assert rep == check_density_by_pairs(cert, 30.0, 1.0)


def test_closeness_defect_exact_value():
    f = Affine1D(Euclidean(1), 1.0, 3.0)
    g = Identity(Euclidean(1))
    sup, witness = closeness_defect(f, g, 10.0, 1.0)
    assert sup == 3.0
    assert witness is not None


def test_classify_trend():
    assert classify_trend([(10, 5.0), (20, 5.0), (40, 5.0)]) == "BOUNDED"
    assert classify_trend([(10, 10.0), (20, 20.0), (40, 40.0)]) == "GROWING"
    assert classify_trend([(10, 5.0), (20, 5.6), (40, 5.0)]) == "UNDETERMINED"
    assert classify_trend([(10, 5.0)]) == "UNDETERMINED"


def test_defect_trend_distinguishes_close_from_drifting():
    E = Euclidean(1)
    close = defect_trend(Affine1D(E, 1.0, 2.0), Identity(E), [8.0, 16.0, 32.0], 1.0)
    assert close.classification == "BOUNDED"
    drift = defect_trend(linear_1d(E, 2.0), Identity(E), [8.0, 16.0, 32.0], 1.0)
    assert drift.classification == "GROWING"


def test_compose_certs_budget_arithmetic():
    inner = CoarseMapCert(Affine1D(Euclidean(1), 1.0, 0.0), Affine(2.0, 1.0),
                          K_close=1.0, M_dense=2.0)
    outer = CoarseMapCert(Affine1D(Euclidean(1), 1.0, 0.0), Affine(3.0, 0.0),
                          K_close=2.0, M_dense=1.0)
    combo = compose_certs(outer, inner)
    assert combo.M_dense == 3.0 * 2.0 + 1.0
    assert combo.K_close == 3.0 * 1.0 + 2.0
    assert combo.L(10.0) >= Affine(3.0, 0.0)(Affine(2.0, 1.0)(10.0))


def test_conjugacy_report_on_translation_conjugacy():
    # f(x) = 2x and g(y) = 2y + 1 are conjugate via phi(x) = x - 1
    E = Euclidean(1)
    f = linear_1d(E, 2.0)
    g = Affine1D(E, 2.0, 1.0)
    phi = CoarseMapCert(Affine1D(E, 1.0, -1.0), Affine(1.0, 0.0))
    psi = CoarseMapCert(Affine1D(E, 1.0, 1.0), Affine(1.0, 0.0))
    rep = check_conjugacy(f, g, phi, psi, 32.0, 1.0)
    assert rep.passes(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the block checks against the pair-by-pair references

_HALVES = st.integers(-6, 6).map(lambda k: k / 2)


@st.composite
def _flat_map(draw, space, dim, compose=True):
    """Linear maps with integer or half-integer matrices, homotheties, 1-D
    affine maps and compositions of two of them."""
    kinds = ["linear", "homothety"] + (["affine"] if dim == 1 else [])
    kind = draw(st.sampled_from(kinds + (["compose"] if compose else [])))
    if kind == "linear":
        entries = st.integers(-3, 3).map(float) if draw(st.booleans()) else _HALVES
        row = st.tuples(*[entries] * dim)
        return Linear(space, draw(st.tuples(*[row] * dim)))
    if kind == "homothety":
        return Homothety(space, draw(_HALVES))
    if kind == "affine":
        return Affine1D(space, draw(_HALVES), draw(_HALVES))
    return Compose(draw(_flat_map(space, dim, False)),
                   draw(_flat_map(space, dim, False)))


# a product with one multi-chart factor: its lattice spreads over the
# segments the gaps let it reach
_PRODUCT = Product(HalfLine(0.0), ChainSegments("f"))
_SPACES = [Euclidean(1), Euclidean(2), Euclidean(3), Halfplane(), ChainRects(), _PRODUCT]


@st.composite
def _self_map(draw, space=None):
    """A self-map of Euclidean(1-3), of the half-plane, of ChainRects or of
    a product of a half-line and chain segments (the last three sample
    point by point); with ``space``, one of that space."""
    if space is None:
        space = draw(st.sampled_from(_SPACES))
    if isinstance(space, Product):
        return ProductMap(draw(_self_map(space.left)), draw(_self_map(space.right)))
    if isinstance(space, (ChainRects, ChainSegments)):
        return draw(st.sampled_from([ChainLinear(space), Identity(space),
                                     Iterate(ChainLinear(space), 2)]))
    return draw(_flat_map(space, len(space.origin().coords)))


_CONTROLS = st.one_of(
    st.builds(Affine, st.sampled_from([0.5, 1.0, 1.5, 3.0]),
              st.sampled_from([0.0, 0.5])),
    st.builds(PowerAffine, st.sampled_from([0.5, 1.0, 2.0]),
              st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 1.5, 2.0])),
    st.just(Table(((0.5, 1.0), (2.0, 3.0), (4.0, 9.0)), tail_slope=2.5)),
    st.just(Table(((1.0, 0.5), (3.0, 2.0)), tail_slope=0.5)),
)


@settings(max_examples=200, deadline=None)
@given(mapd=_self_map(), L=_CONTROLS, radius=st.sampled_from([1.0, 2.5, 10.0]),
       samples=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_checks_match_the_pair_by_pair_reference(mapd, L, radius,
                                                         samples, seed):
    cert = CoarseMapCert(mapd, L)
    assert (check_embedding(cert, radius, samples, seed)
            == check_embedding_by_pairs(cert, radius, samples, seed))
    witness = ControlWitness(L=L)
    assert (verify_control(mapd, witness, radius, samples, seed)
            == verify_control_by_pairs(mapd, witness, radius, samples, seed))


def test_control_ratio_is_infinite_where_a_zero_bound_is_exceeded():
    f = Homothety(Euclidean(2), 2.0)
    zero = ControlWitness(L=lambda t: 0.0 * t)
    rep = verify_control(f, zero, 3.0, 5, 11)
    assert rep == verify_control_by_pairs(f, zero, 3.0, 5, 11)
    assert rep.max_ratio == math.inf and len(rep.violations) == 5
    constant = Homothety(Euclidean(2), 0.0)
    assert verify_control(constant, zero, 3.0, 5, 11).max_ratio == 0.0


@st.composite
def _grid_case(draw):
    """A self-map, a second map of its space (itself for an all-zero
    defect), and a lattice small enough for the references. Spacings and
    half-integer coefficients put many lattice points on exact ties."""
    space = draw(st.sampled_from(_SPACES))
    mapd = draw(_self_map(space))
    other = draw(st.one_of(st.just(mapd), st.just(Identity(space)),
                           _self_map(space)))
    dim = 2 if space is _PRODUCT else len(space.origin().coords)
    spacing = draw(st.sampled_from({1: [0.25, 0.5, 1.0], 2: [0.5, 1.0],
                                    3: [1.0]}[dim]))
    radius = draw(st.sampled_from([1.0, 2.0, 3.0] if dim < 3 else [1.0, 2.0]))
    return mapd, other, spacing, radius, draw(st.sampled_from([0.0, 0.5, 1.0]))


@settings(max_examples=200, deadline=None)
@given(case=_grid_case())
def test_grid_checks_match_the_point_by_point_reference(case):
    mapd, other, spacing, radius, m_dense = case
    cert = CoarseMapCert(mapd, Affine(1.0), M_dense=m_dense)
    assert (check_density(cert, radius, spacing)
            == check_density_by_pairs(cert, radius, spacing))
    assert (closeness_defect(mapd, other, radius, spacing)
            == closeness_defect_by_points(mapd, other, radius, spacing))


@settings(max_examples=100, deadline=None)
@given(L=st.one_of(_CONTROLS, st.builds(Composed, _CONTROLS, _CONTROLS),
                   st.builds(MaxOf, _CONTROLS, _CONTROLS)),
       ts=st.lists(st.one_of(st.floats(0, 100), st.sampled_from([0.0, 0.5, 2.0, 4.0])),
                   max_size=20))
def test_controls_on_arrays_equal_their_scalar_calls(L, ts):
    values = L.values(np.array(ts, dtype=float))
    assert values.dtype == float and values.shape == (len(ts),)
    assert values.tobytes() == np.array([L(t) for t in ts], dtype=float).tobytes()


@pytest.mark.parametrize("f,g", [
    (Laurent1D.make(HalfLine(2.0), {2: 1.0}),
     Laurent1D.make(HalfLine(2.0), {2: 1.0, -1: 1.0})),
    (Iterate(Laurent1D.make(HalfLine(2.0), {2: 1.0, -1: 1.0}), 2),
     Iterate(Laurent1D.make(HalfLine(2.0), {2: 1.0}), 2)),
    (Compose(Affine1D(HalfLine(1.0), 1.0, 1.0, HalfLine(2.0)),
             Laurent1D.make(HalfLine(1.0), {2: 1.0, 1: 2.0})),
     Compose(Laurent1D.make(HalfLine(2.0), {2: 1.0}),
             Affine1D(HalfLine(1.0), 1.0, 1.0, HalfLine(2.0)))),
], ids=["laurent", "iterated", "composed"])
@pytest.mark.parametrize("radius,spacing", [(3.0, 0.5), (25.0, 0.5), (10.0, 0.25)])
def test_laurent_grid_checks_match_the_point_by_point_reference(f, g, radius, spacing):
    # the CO4 and CO9 maps: a block of Python ** images, ties at the sup
    assert closeness_defect(f, g, radius, spacing) == \
        closeness_defect_by_points(f, g, radius, spacing)
    cert = CoarseMapCert(f, Affine(1.0), M_dense=1.0)
    assert (check_density(cert, radius, spacing)
            == check_density_by_pairs(cert, radius, spacing))


def _outcome(run):
    """What a check returns, or the exception it raises."""
    try:
        return run()
    except (BudgetExceededError, ValueError, ArithmeticError) as exc:
        return exc


def _defect_loop(f1, f2, radii, spacing, budget):
    """The defect curve, its witnesses and its class from ``closeness_defect``
    at each radius in turn."""
    curve, witnesses = [], []
    for r in radii:
        sup, arg = closeness_defect(f1, f2, r, spacing, budget)
        curve.append((float(r), float(sup)))
        witnesses.append(arg)
    return curve, witnesses, classify_trend(curve)


_LOW = HalfLine(2.0)
_SEGMENTS = ChainSegments("f")
_RAYS = Cone(2, BaseSetSpec.finite_angles([0.0, 1.0]))
_WITH_RAYS = Product(Euclidean(1), Cone(2, BaseSetSpec.cantor_arc(1)))


def _homotheties(space):
    """The homotheties 2 and 3 of a cone, or of a product's right cone
    factor beside the identity on its left factor."""
    if isinstance(space, Product):
        return [ProductMap(Identity(space.left), Homothety(space.right, lam))
                for lam in (2.0, 3.0)]
    return [Homothety(space, 2.0), Homothety(space, 3.0)]


@st.composite
def _defect_cases(draw):
    """Two maps of one space: Laurent and affine maps of a half-line,
    linear maps of the plane, the chain maps of chain segments, or
    homotheties of a finite-base cone, alone or as a product factor; radii
    in any order with repeats (now and then one at or below 0, below the
    spacing, or 5e-10 below a multiple of it), a spacing and a budget (now
    and then below a region's size)."""
    space = draw(st.sampled_from([_LOW, Euclidean(2), _SEGMENTS, _RAYS, _WITH_RAYS]))
    if space in (_RAYS, _WITH_RAYS):
        maps = st.sampled_from(_homotheties(space))
    elif space is _LOW:
        laurent = st.dictionaries(st.sampled_from([-1, 1, 2, 3]), _HALVES.filter(bool),
                                  min_size=1, max_size=2).map(lambda c: Laurent1D.make(_LOW, c))
        maps = st.one_of(laurent, st.builds(Affine1D, st.just(_LOW), _HALVES, _HALVES),
                         st.just(Identity(_LOW)))
    elif space is _SEGMENTS:
        maps = st.sampled_from([ChainLinear(_SEGMENTS), Identity(_SEGMENTS),
                                Iterate(ChainLinear(_SEGMENTS), 2)])
    else:
        row = st.tuples(_HALVES, _HALVES)
        maps = st.one_of(st.builds(Linear, st.just(space), st.tuples(row, row)),
                         st.just(Identity(space)))
    radii = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5, 8.0] * 5
                                          + [0.0, -1.0, 0.25, 0.9999999995]),
                          min_size=1, max_size=5))
    return (draw(maps), draw(maps), radii, draw(st.sampled_from([0.25, 0.5, 1.0])),
            draw(st.sampled_from([6, 40, 400] + [10 ** 6] * 5)))


@settings(max_examples=300, deadline=None)
@given(case=_defect_cases())
@example(case=(Laurent1D.make(_LOW, {2: 1.0}), Affine1D(_LOW, 1.0, 1.0), [1.0, 2.0, 4.0],
               0.5, 6))  # 3, 5 and 9 points: over the budget at the largest radius only
@example(case=(Laurent1D.make(_LOW, {2: 1.0}), Affine1D(_LOW, 1.0, 1.0), [1.0, 2.0, 4.0],
               0.5, 4))  # over the budget from the middle radius on
@example(case=(Laurent1D.make(_LOW, {400: 1.0}), Identity(_LOW), [2.0, 8.0, 4.0], 0.5,
               10 ** 6))  # 6.0 ** 400 is past the float range
@example(case=(Identity(_LOW), Affine1D(_LOW, 1.0, 1.0), [1.0, 0.0, 2.0], 0.5, 10 ** 6))
@example(case=(Identity(_LOW), Affine1D(_LOW, 1.0, 1.0), [2.0, 0.25, 1.0], 0.5, 10 ** 6))
def test_a_defect_curve_equals_closeness_defect_at_each_radius_in_turn(case):
    # one region at the largest radius gives every radius's sup bit for
    # bit, its witness and the class; where the radii taken in turn fail,
    # the curve fails first in the same way (type and message)
    f1, f2, radii, spacing, budget = case
    alone = _outcome(lambda: _defect_loop(f1, f2, radii, spacing, budget))
    got = _outcome(lambda: defect_trend(f1, f2, radii, spacing, budget))
    if isinstance(alone, Exception):
        assert isinstance(got, Exception)
        assert (type(got), str(got)) == (type(alone), str(alone))
        return
    curve, witnesses, classification = alone
    assert np.array(got.curve).tobytes() == np.array(curve).tobytes()
    assert (got.witnesses, got.classification) == (witnesses, classification)


def test_a_defect_curve_builds_one_region(monkeypatch):
    calls = []
    region_rows = HalfLine.region_rows
    monkeypatch.setattr(HalfLine, "region_rows",
                        lambda *args: calls.append(args[2]) or region_rows(*args))
    curve = defect_trend(Laurent1D.make(_LOW, {2: 1.0}), Identity(_LOW), [2.0, 8.0, 4.0], 0.5)
    assert calls == [8.0]
    monkeypatch.undo()
    assert (curve.curve, curve.witnesses, curve.classification) == _defect_loop(
        Laurent1D.make(_LOW, {2: 1.0}), Identity(_LOW), [2.0, 8.0, 4.0], 0.5, 10 ** 6)


@pytest.mark.parametrize("space", [_RAYS, _WITH_RAYS], ids=["cone", "product"])
def test_a_defect_curve_on_a_ray_grid_builds_one_region(space, monkeypatch):
    # a ray grid reaches r + 1e-9, as its filter does: the points at t = 1
    # lie within 0.9999999995 + 1e-9 of the apex, so they are in the region
    # of that radius, and the region at 2 holds it
    calls = []
    region_rows = type(space).region_rows
    monkeypatch.setattr(type(space), "region_rows",
                        lambda *args: calls.append(args[2]) or region_rows(*args))
    f, g = _homotheties(space)
    got = defect_trend(f, g, [0.9999999995, 2.0], 0.5)
    assert calls == [2.0]
    monkeypatch.undo()
    assert got.curve[0] == (0.9999999995, 1.0)
    assert (got.curve, got.witnesses, got.classification) == _defect_loop(
        f, g, [0.9999999995, 2.0], 0.5, 10 ** 6)


def test_tied_gaps_and_defects_keep_their_witnesses():
    E = Euclidean(1)
    # images 1 apart, codomain points 0.5 apart: every other gap ties at 0.5
    cert = CoarseMapCert(linear_1d(E, 2.0), Affine(2.0), M_dense=1.0)
    rep = check_density(cert, 3.0, 0.5)
    assert (rep.max_gap, rep.witness) == (0.5, Point.of(-2.5))
    assert check_density(CoarseMapCert(Identity(E), Affine(1.0), M_dense=0.0),
                         3.0, 0.5).witness is None
    # a constant defect: the last lattice point witnesses it
    assert closeness_defect(Affine1D(E, 1.0, 2.0), Identity(E), 3.0, 0.5) == \
        (2.0, Point.of(3.0))
    # an all-zero defect: also the last lattice point
    assert closeness_defect(Identity(E), Identity(E), 3.0, 0.5) == (0.0, Point.of(3.0))


def test_density_gap_matrix_is_measured_in_chunks():
    # about 2000 codomain points against about 2000 images: the whole
    # (point, image) matrix would take tens of MiB
    cert = CoarseMapCert(linear_1d(Euclidean(1), 2.0), Affine(2.0), M_dense=1.0)
    tracemalloc.start()
    try:
        rep = check_density(cert, 500.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.max_gap, rep.flagged) == (0.5, False)
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_checks_need_a_positive_sample_count(samples):
    f = linear_1d(Euclidean(1), 2.0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_embedding(CoarseMapCert(f, Affine(2.0)), 50.0, samples, 1)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_control(f, ControlWitness(L=Affine(2.0)), 50.0, samples, 1)


def test_sampled_checks_draw_at_most_the_pair_cap(monkeypatch):
    monkeypatch.setattr(maps, "PAIR_SAMPLE_CAP", 7)
    f = linear_1d(Euclidean(1), 2.0)
    assert check_embedding(CoarseMapCert(f, Affine(2.0)), 50.0, 100, 1).samples == 7
    assert verify_control(f, ControlWitness(L=Affine(2.0)), 50.0, 100, 1).samples == 7
