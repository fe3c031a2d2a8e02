"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from coarse_entropy.coarse import Affine
from coarse_entropy.entropy import (ScheduleCell, estimate_entropy,
                                    greedy_separated, greedy_spanning)
from coarse_entropy.maps import Identity, Iterate, Linear, linear_1d
from coarse_entropy.orbits import (PseudoOrbit, enumerate_pseudoorbits,
                                   orbit_distance, subsample, validate)
from coarse_entropy.presets import reproduce
from coarse_entropy.spaces import Euclidean, IntegerLattice, Point

from oracles import (brute_force_pseudoorbits, max_separated_exact,
                     min_spanning_exact)

LOG2 = math.log(2.0)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_doubling_slope():
    t0 = time.time()
    result = reproduce("LINEAR_1D_DOUBLING")
    elapsed = time.time() - t0
    ok = result.exit_code == 0 and elapsed < 60.0
    _report(1, ok, f"{result.summary} in {elapsed:.1f}s")


def test_criterion_2_diag23_bracketing():
    t0 = time.time()
    result = reproduce("LINEAR_2D_DIAG23")
    elapsed = time.time() - t0
    ok = result.exit_code == 0 and elapsed < 300.0
    _report(2, ok, f"{result.summary} in {elapsed:.1f}s")


def test_criterion_3_contraction_and_identity():
    result = reproduce("LINEAR_CONTRACTION")
    sched = [ScheduleCell(d, (8.0, 16.0), tuple(range(4, 12)), "FINAL_TERM")
             for d in (2.0, 4.0)]
    est = estimate_entropy(Identity(Euclidean(2)), Point.of(0.0, 0.0), sched)
    ok = (result.exit_code == 0 and not est.infinity_flag
          and est.extrapolated_value <= 0.10)
    _report(3, ok, f"{result.summary}; identity slope "
                   f"{est.extrapolated_value:.4f}")


def test_criterion_4_cone_dimension_and_entropy():
    result = reproduce("E6_CONE_CANTOR")
    _report(4, result.exit_code == 0, result.summary)


def test_criterion_5_sandwich_on_200_random_families():
    failures = 0
    rng = np.random.default_rng(20_240_401)
    for _ in range(200):
        size = int(rng.integers(2, 501))
        pts = [tuple(p) for p in rng.uniform(-100, 100, size=(size, 2))]
        R = float(rng.uniform(1.0, 40.0))
        dist = math.dist
        s2 = len(greedy_separated(pts, 2 * R, dist))
        sp = len(greedy_spanning(pts, R, dist))
        s1 = len(greedy_separated(pts, R, dist))
        if not (s2 <= sp <= s1):
            failures += 1
    _report(5, failures == 0, f"sandwich held on 200/200 families "
                              f"({failures} failures)")


def test_criterion_6_subsampling():
    # part 1: eta_k-validity of 1000 random subsampled pseudoorbits
    rng = np.random.default_rng(7)
    space = Euclidean(1)
    failures = 0
    for _ in range(1000):
        lam = float(rng.choice([1.0, 2.0, 3.0]))
        f = linear_1d(space, lam)
        delta = float(rng.uniform(0.5, 2.0))
        k = int(rng.choice([2, 3]))
        n_steps = k * int(rng.integers(1, 4))
        pts = [Point.of(float(rng.uniform(-5, 5)))]
        for _ in range(n_steps):
            img = f.apply(pts[-1], check=False)
            pts.append(Point.of(img.coords[0] + float(rng.uniform(-delta, delta))))
        orbit = PseudoOrbit(tuple(pts), delta, f)
        sub = subsample(orbit, k, L=Affine(lam, 0.0))
        if not validate(sub):
            failures += 1
    # part 2: exact iterate inequality on exhaustive integer instances
    space = IntegerLattice(1)
    f = Linear(space, ((2,),))
    bad = []
    for k, n in ((2, 1), (2, 2), (3, 1)):
        long_fam = enumerate_pseudoorbits(f, space.origin(), k * n, 1.0, 1.0)
        iter_fam = enumerate_pseudoorbits(Iterate(f, k), space.origin(), n,
                                          1.0, 1.0)
        s_long = max_separated_exact(long_fam, 2.0, orbit_distance)
        s_iter = max_separated_exact(iter_fam, 2.0, orbit_distance)
        if s_long < s_iter:
            bad.append((k, n, s_long, s_iter))
    ok = failures == 0 and not bad
    _report(6, ok, f"1000/1000 subsampled orbits valid; "
                   f"iterate inequality exact on 3 instances {bad or ''}")


def test_criterion_7_product_inequalities():
    rng = np.random.default_rng(99)
    space = IntegerLattice(1)
    failures = []
    for trial in range(50):
        a = int(rng.choice([1, 2]))
        b = int(rng.choice([1, 2]))
        n = int(rng.integers(1, 3))
        R = float(rng.choice([2.0, 3.0]))
        f = Linear(space, ((a,),))
        g = Linear(space, ((b,),))
        fam_f = enumerate_pseudoorbits(f, space.origin(), n, 1.0, 1.0)
        fam_g = enumerate_pseudoorbits(g, space.origin(), n, 1.0, 1.0)
        # each family's orbit distances, computed once; the oracles see
        # orbits by index
        d_f = np.array([[orbit_distance(u, v) for v in fam_f] for u in fam_f])
        d_g = np.array([[orbit_distance(u, v) for v in fam_g] for u in fam_g])
        idx_f, idx_g = list(range(len(fam_f))), list(range(len(fam_g)))
        pairs = [(u, v) for u in idx_f for v in idx_g]

        def dist_f(x, y):
            return d_f[x, y]

        def dist_g(x, y):
            return d_g[x, y]

        def pdist(x, y):
            return max(d_f[x[0], y[0]], d_g[x[1], y[1]])

        s_f = max_separated_exact(idx_f, R, dist_f)
        s_g = max_separated_exact(idx_g, R, dist_g)
        s_fg = max_separated_exact(pairs, R, pdist)
        r_f = min_spanning_exact(idx_f, R, dist_f)
        r_g = min_spanning_exact(idx_g, R, dist_g)
        r_fg = min_spanning_exact(pairs, R, pdist)
        if not (s_fg >= s_f * s_g and r_fg <= r_f * r_g):
            failures.append(trial)
    _report(7, not failures, f"product inequalities exact on 50/50 instances "
                             f"{failures or ''}")


def test_criterion_8_chain_rate_signature():
    r1 = reproduce("E2_CHAIN")
    r2 = reproduce("E2_CHAIN_SQUARED")
    ok = r1.exit_code == 0 and r2.exit_code == 0
    _report(8, ok, f"{r1.summary}; {r2.summary}")


def test_criterion_9_infinity_signatures():
    r1 = reproduce("E1_CONJUGATED")
    r2 = reproduce("E5_IDENTITY_GROWTH")
    flags = (r1.report["entropy"]["infinity_flag"],
             r2.report["entropy"]["infinity_flag"])
    ok = r1.exit_code == 0 and r2.exit_code == 0 and all(flags)
    _report(9, ok, f"{r1.summary}; {r2.summary}; infinity flags {flags}")


def test_criterion_10_coarse_checkers():
    r1 = reproduce("CO4_CONJUGACY")
    r2 = reproduce("CO9_ITERATE_DEFECT")
    ok = r1.exit_code == 0 and r2.exit_code == 0
    _report(10, ok, f"{r1.summary}; {r2.summary}")


def test_criterion_11_enumeration_oracle_equivalence():
    rng = np.random.default_rng(11)
    mismatches = 0
    for case in range(30):
        space = [Euclidean(1), IntegerLattice(2), Euclidean(2)][case % 3]
        dim = space.chart_dim(0)
        if isinstance(space, IntegerLattice):
            mapd = Linear(space, ((1, 1), (0, 1)))
            spacing = 1.0
        elif dim == 2:
            mapd = Identity(space)
            spacing = 1.0
        else:
            mapd = [Identity(space), linear_1d(space, 2.0)][case % 2]
            spacing = float(rng.choice([0.5, 1.0]))
        delta = float(rng.choice([1.0, 1.5]))
        n = int(rng.integers(1, 5))
        if dim > 1 and n > 2:
            n = 2
        fam = enumerate_pseudoorbits(mapd, space.origin(), n, delta, spacing)
        oracle = brute_force_pseudoorbits(mapd, space.origin(), n, delta,
                                          spacing)

        def key(orbit):
            return tuple((p.chart, p.coords) for p in orbit)

        if sorted((tuple(o.points) for o in fam), key=key) != \
                sorted(oracle, key=key):
            mismatches += 1
    _report(11, mismatches == 0,
            f"enumeration matches the breadth-first oracle on 30/30 cases")
