import math

import numpy as np
import pytest

from coarse_entropy.coarse import Affine, CoarseMapCert
from coarse_entropy.entropy import count_separated, ladder_family
from coarse_entropy.errors import BudgetExceededError
from coarse_entropy.maps import (Affine1D, ConjugatedDoubling, Homothety,
                                 Identity, Iterate, Linear, linear_1d)
from coarse_entropy.orbits import (PseudoOrbit, enumerate_pseudoorbits,
                                   final_terms_lower, orbit_distance,
                                   push_forward, shadow_hull, spine_spikes,
                                   spine_spike_count, subsample, validate)
from coarse_entropy.spaces import (BaseSetSpec, Cone, Euclidean, HalfLine,
                                   Halfplane, IntegerLattice, Point,
                                   SpineBlocks)

from oracles import brute_force_pseudoorbits


def test_validate_accepts_exact_orbit():
    f = linear_1d(Euclidean(1), 2.0)
    orbit = PseudoOrbit((Point.of(1.0), Point.of(2.5), Point.of(5.5)), 0.5, f)
    assert validate(orbit)


def test_validate_reports_first_bad_step():
    f = linear_1d(Euclidean(1), 2.0)
    orbit = PseudoOrbit((Point.of(1.0), Point.of(2.0), Point.of(9.0)), 0.5, f)
    res = validate(orbit)
    assert not res.ok
    assert res.first_violation_index == 1
    assert res.violation_distance == pytest.approx(5.0)


def test_validate_rejects_points_outside_the_space():
    f = Identity(HalfLine(2.0))
    orbit = PseudoOrbit((Point.of(3.0), Point.of(1.0)), 4.0, f)
    assert not validate(orbit)


def test_orbit_distance_is_max_over_steps():
    f = Identity(Euclidean(1))
    a = PseudoOrbit((Point.of(0.0), Point.of(1.0)), 2.0, f)
    b = PseudoOrbit((Point.of(0.5), Point.of(4.0)), 2.0, f)
    assert orbit_distance(a, b) == pytest.approx(3.0)


def test_enumerate_single_point_identity():
    f = Identity(Euclidean(1))
    fam = enumerate_pseudoorbits(f, Point.of(0.0), 2, 1.0, 1.0)
    assert len(fam) == 9  # 3 successors at each of 2 steps
    assert all(validate(o) for o in fam)


def test_enumerate_budget():
    f = Identity(Euclidean(2))
    with pytest.raises(BudgetExceededError):
        enumerate_pseudoorbits(f, Point.of(0.0, 0.0), 4, 2.0, 0.5, budget=50)


@pytest.mark.parametrize("seed", range(8))
def test_enumerate_matches_breadth_first_oracle(seed):
    rng = np.random.default_rng(seed)
    space = [Euclidean(1), IntegerLattice(2), HalfLine(0.0)][seed % 3]
    if isinstance(space, IntegerLattice):
        mapd = Linear(space, ((1, 1), (0, 1)))
        spacing = 1.0
    else:
        mapd = [Identity(space), linear_1d(space, 2.0)][seed % 2]
        spacing = float(rng.choice([0.5, 1.0]))
    delta = float(rng.choice([1.0, 2.0]))
    n = int(rng.integers(1, 4))
    x0 = space.origin()
    fam = enumerate_pseudoorbits(mapd, x0, n, delta, spacing)
    oracle = brute_force_pseudoorbits(mapd, x0, n, delta, spacing)

    def key(orbit):
        return tuple((p.chart, p.coords) for p in orbit)

    ours = sorted((tuple(o.points) for o in fam), key=key)
    theirs = sorted(oracle, key=key)
    assert ours == theirs


# ---------------------------------------------------------------------------
# final-term sets


@pytest.mark.parametrize("mapd,x0", [
    (linear_1d(Euclidean(1), 2.0), Point.of(0.0)),
    (Linear(Euclidean(2), ((2.0, 0.0), (0.0, 3.0))), Point.of(1.0, 0.0)),
    (Homothety(Euclidean(2), 2.0), Point.of(0.0, 1.0)),
    (Identity(Euclidean(2)), Point.of(0.0, 0.0)),
])
def test_final_terms_are_realized(mapd, x0):
    fts = final_terms_lower(mapd, x0, 4, 1.5, 1.0)
    assert fts.provenance == "LOWER"
    assert fts.points
    for z in fts.points[:50]:
        orbit = fts.reconstruct(z)
        assert orbit.length == 4
        assert orbit.points[0] == x0
        assert orbit.points[-1] == z
        assert validate(orbit), z


def test_final_terms_span_the_image_interval():
    # doubling from 0 at n=3: the realized grid fills the image of the
    # first-step ball, [-lam^{n-1} delta - delta, lam^{n-1} delta + delta]
    f = linear_1d(Euclidean(1), 2.0)
    fts = final_terms_lower(f, Point.of(0.0), 3, 1.0, 0.5)
    xs = sorted(p.coords[0] for p in fts.points)
    assert xs[0] == -5.0 and xs[-1] == 5.0
    steps = {round(b - a, 9) for a, b in zip(xs, xs[1:])}
    assert steps == {0.5}


def test_cone_final_terms_realized():
    cone = Cone(2, BaseSetSpec.cantor_arc(3))
    h = Homothety(cone, 2.0)
    fts = final_terms_lower(h, cone.origin(), 3, 2.0, 1.0)
    for z in fts.points[:40]:
        orbit = fts.reconstruct(z)
        assert validate(orbit), z


def test_spine_spikes_realized_and_counted():
    sp = SpineBlocks(max_level=4)
    idm = Identity(sp)
    fts = spine_spikes(sp, idm, sp.origin(), 3, 2.0)
    for z in fts.points:
        assert validate(fts.reconstruct(z)), z
    # closed-form count vs materialized points at matching parameters
    R = 2.0
    kept = [z for z in fts.points]
    n_count = spine_spike_count(sp, 3, 2.0, R)
    # every materialized spike with rho >= R/sqrt(2) participates
    eligible = [z for z in kept
                if np.linalg.norm(z.coords) >= R / math.sqrt(2.0)]
    assert n_count == len(eligible)


def test_spine_spikes_pairwise_separation():
    sp = SpineBlocks(max_level=3)
    idm = Identity(sp)
    n, delta, R = 3, 2.0, 4.0
    fts = spine_spikes(sp, idm, sp.origin(), n, delta, R=R)
    pts = fts.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert sp.distance(pts[i], pts[j]) >= R - 1e-9


def test_spine_spikes_check_their_storage_before_building():
    # levels 0..5 store 4^0 + ... + 4^5 = 1365 coordinates
    sp = SpineBlocks(max_level=6)
    idm = Identity(sp)
    assert len(spine_spikes(sp, idm, sp.origin(), 3, 2.0,
                            materialize_budget=1365).points) == 63
    with pytest.raises(BudgetExceededError):
        spine_spikes(sp, idm, sp.origin(), 3, 2.0, materialize_budget=1364)


def test_spine_final_terms_honour_the_budget():
    # at spacing 0.5 the levels 0..5 store 1365 coordinates
    sp = SpineBlocks(max_level=6)
    with pytest.raises(BudgetExceededError) as info:
        final_terms_lower(Identity(sp), sp.origin(), 3, 2.0, 0.5, budget=10)
    assert (info.value.requested, info.value.budget) == (1365, 10)


@pytest.mark.parametrize("n, delta, R, count", [
    (3, 2.0, 4.0, 15), (3, 2.0, 2.0, 31), (4, 1.0, 4.0, 3), (2, 4.0, 8.0, 7),
    (4, 1.0, 2.0 * math.sqrt(2.0), 7)])
def test_spine_final_terms_list_the_counted_spikes(n, delta, R, count):
    """final_terms_lower(..., spacing=R) on SpineBlocks lists exactly the
    spikes the FINAL_TERM count counts: as many, pairwise >= R apart, each
    rebuilt into a valid orbit. At n = 4, delta = 1, R = 2 sqrt(2) the level
    k = 2 has rho = R/sqrt(2) exactly."""
    sp = SpineBlocks(max_level=6)
    idm = Identity(sp)
    rec = count_separated(idm, sp.origin(), n, R, delta, "FINAL_TERM")
    fts = final_terms_lower(idm, sp.origin(), n, delta, R)
    pts = fts.points
    assert rec.separated_lower == len(pts) == count
    for i in range(len(pts)):
        assert validate(fts.reconstruct(pts[i]))
        for j in range(i + 1, len(pts)):
            assert sp.distance(pts[i], pts[j]) >= R - 1e-9


# ---------------------------------------------------------------------------
# hulls, subsampling, push-forward


def test_shadow_hull_contains_every_enumerated_final_term():
    f = linear_1d(Euclidean(1), 2.0)
    hull = shadow_hull(f, Point.of(1.0), 3, 1.0)
    fam = enumerate_pseudoorbits(f, Point.of(1.0), 3, 1.0, 0.5)
    for o in fam:
        assert hull.contains(o.points[-1])


def test_shadow_hull_interval_cover_count():
    # doubling: the hull is an interval of length 2 * 2^n * delta/(lam-1)
    f = linear_1d(Euclidean(1), 2.0)
    n, delta, S = 4, 2.0, 3.0
    hull = shadow_hull(f, Point.of(0.0), n, delta)
    assert hull.box_cover_count(S) == math.ceil(2 * (2 ** n) * delta / S)


def test_shadow_hull_requires_expansion():
    with pytest.raises(ValueError):
        shadow_hull(linear_1d(Euclidean(1), 0.5), Point.of(0.0), 3, 1.0)


@pytest.mark.parametrize("matrix,lam", [
    (((2.0, 0.0), (0.0, 3.0)), 100.0),
    (((2.0, 0.0), (0.0, 3.0)), math.nextafter(2.0, 3.0)),
    (((2.0, 10.0), (0.0, 3.0)), None),
], ids=["declared", "past_min_diagonal", "non_normal"])
def test_shadow_hull_refuses_a_lam_the_inverse_norm_does_not_back(matrix, lam):
    # [[2, 10], [0, 3]]: the diagonal gives lam 2, but |A^-1|_2 = 1.77 > 1/2
    f = Linear(Euclidean(2), matrix)
    with pytest.raises(ValueError, match=r"\|A\^-1\|_2 <= 1/lambda"):
        shadow_hull(f, Point.of(0.0, 0.0), 5, 4.0, lam)


def test_shadow_hull_accepts_every_lam_the_inverse_norm_backs():
    # diagonal: up to min |a_ii| exactly; twice a rotation: every singular
    # value is 2 up to rounding, which the relative margin absorbs
    diag = Linear(Euclidean(2), ((-2.0, 0.0), (0.0, 3.0)))
    assert shadow_hull(diag, Point.of(0.0, 0.0), 3, 1.0).lam == 2.0
    assert shadow_hull(diag, Point.of(0.0, 0.0), 3, 1.0, 1.5).lam == 1.5
    c, s = 2.0 * math.cos(0.3), 2.0 * math.sin(0.3)
    turn = Linear(Euclidean(2), ((c, -s), (s, c)))
    assert shadow_hull(turn, Point.of(0.0, 0.0), 3, 1.0, 2.0).lam == 2.0


def test_subsample_eta_formula():
    f = linear_1d(Euclidean(1), 2.0)
    pts = (Point.of(0.0), Point.of(1.0), Point.of(2.5), Point.of(5.5),
           Point.of(11.0))
    orbit = PseudoOrbit(pts, 1.0, f)
    assert validate(orbit)
    sub = subsample(orbit, 2, L=Affine(2.0, 0.0))
    assert sub.delta == pytest.approx(1.0 + 2.0)   # delta + L(delta)
    assert sub.points == pts[::2]
    assert isinstance(sub.map, Iterate) and sub.map.k == 2
    assert validate(sub)


def test_subsample_requires_divisible_length():
    f = Identity(Euclidean(1))
    orbit = PseudoOrbit((Point.of(0.0),) * 4, 1.0, f)  # length 3
    with pytest.raises(ValueError):
        subsample(orbit, 2, L=Affine(1.0, 0.0))


def test_push_forward_inflates_delta_and_validates():
    E = Euclidean(1)
    f = linear_1d(E, 2.0)
    g = Affine1D(E, 2.0, 1.0)      # conjugate of f under x -> x - 1
    phi = Affine1D(E, 1.0, -1.0)
    cert = CoarseMapCert(phi, Affine(1.0, 0.0), K_close=0.0, conjugated_map=g)
    fam = enumerate_pseudoorbits(f, Point.of(0.0), 3, 1.0, 1.0)
    for orbit in fam[:20]:
        image = push_forward(orbit, cert)
        assert image.delta == pytest.approx(1.0)
        assert image.map is g
        assert validate(image)


def test_ladder_family_orbits_are_valid():
    hp = Halfplane()
    g = ConjugatedDoubling(hp)
    fam = ladder_family(g, 5, 2.0, 0.25)
    assert fam
    for orbit in fam:
        assert validate(orbit), orbit.points
