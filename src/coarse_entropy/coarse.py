"""Control-function algebra and empirical coarse-map certificate checking.

Checkers report what happens on a finite region at declared budgets; a PASS
is finite-sample evidence, never a proof. Controls are always declared by
the caller, never fitted from data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import SpaceMismatchError
from .maps import PAIR_SAMPLE_CAP, Compose, Identity, MapDescriptor, sampled_pairs
from .spaces import REGION_ERRORS, Cone, Point, Product, _check_region

DISTANCE_CHUNK = 1 << 13  # (point, image) pairs measured at once by check_density


class ControlFunction:
    """Strictly increasing continuous unbounded function on [0, oo)."""

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def inverse(self, s: float) -> float:
        raise NotImplementedError

    def iterate(self, t: float, k: int) -> float:
        for _ in range(k):
            t = self(t)
        return t

    def values(self, t: np.ndarray) -> np.ndarray:
        """The control at every distance of an array, each as ``self(t)``
        gives it for the float."""
        return np.array([self(x) for x in t.tolist()], dtype=float)


@dataclass(frozen=True)
class Affine(ControlFunction):
    """t -> a t + b with a > 0, b >= 0."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a <= 0 or self.b < 0:
            raise ValueError("need a > 0 and b >= 0")

    def __call__(self, t):
        return self.a * t + self.b

    def values(self, t):
        return self.a * t + self.b

    def inverse(self, s):
        return (s - self.b) / self.a


@dataclass(frozen=True)
class PowerAffine(ControlFunction):
    """t -> a t^p + b with a > 0, p >= 1, b >= 0."""

    a: float
    b: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b < 0 or self.p < 1:
            raise ValueError("need a > 0, b >= 0, p >= 1")

    def __call__(self, t):
        return self.a * t ** self.p + self.b

    def inverse(self, s):
        return ((s - self.b) / self.a) ** (1.0 / self.p)


@dataclass(frozen=True)
class Table(ControlFunction):
    """Piecewise-linear increasing interpolation of (t, L(t)) knots with a
    declared linear tail slope beyond the last knot."""

    knots: Tuple[Tuple[float, float], ...]
    tail_slope: float = 1.0

    def __post_init__(self):
        ts = [k[0] for k in self.knots]
        vs = [k[1] for k in self.knots]
        if sorted(ts) != ts or sorted(vs) != vs or len(set(ts)) != len(ts) \
                or len(set(vs)) != len(vs):
            raise ValueError("knots must be strictly increasing in both coordinates")
        if self.tail_slope <= 0:
            raise ValueError("tail slope must be positive")

    def __call__(self, t):
        ts = [k[0] for k in self.knots]
        vs = [k[1] for k in self.knots]
        if t >= ts[-1]:
            return vs[-1] + self.tail_slope * (t - ts[-1])
        if t <= ts[0]:
            # extend below the first knot toward (0, 0) keeping monotonicity
            return vs[0] * (t / ts[0]) if ts[0] > 0 else vs[0]
        return float(np.interp(t, ts, vs))

    def inverse(self, s):
        ts = [k[0] for k in self.knots]
        vs = [k[1] for k in self.knots]
        if s >= vs[-1]:
            return ts[-1] + (s - vs[-1]) / self.tail_slope
        if s <= vs[0]:
            return ts[0] * (s / vs[0]) if vs[0] > 0 else ts[0]
        return float(np.interp(s, vs, ts))


@dataclass(frozen=True)
class Composed(ControlFunction):
    outer: ControlFunction
    inner: ControlFunction

    def __call__(self, t):
        return self.outer(self.inner(t))

    def inverse(self, s):
        return self.inner.inverse(self.outer.inverse(s))


@dataclass(frozen=True)
class MaxOf(ControlFunction):
    first: ControlFunction
    second: ControlFunction

    def __call__(self, t):
        return max(self.first(t), self.second(t))

    def inverse(self, s):
        # inverse of a pointwise max of increasing functions
        return min(self.first.inverse(s), self.second.inverse(s))


def compose_controls(outer: ControlFunction, inner: ControlFunction) -> ControlFunction:
    if isinstance(outer, Affine) and isinstance(inner, Affine):
        return Affine(outer.a * inner.a, outer.a * inner.b + outer.b)
    return Composed(outer, inner)


@dataclass(frozen=True)
class CoarseMapCert:
    """A map together with its declared coarse budgets.

    ``conjugated_map`` is the codomain self-map g when the certificate also
    asserts that phi o f is K_close-close to g o phi."""

    phi: MapDescriptor
    L: ControlFunction
    K_close: Optional[float] = None
    M_dense: Optional[float] = None
    conjugated_map: Optional[MapDescriptor] = None


@dataclass
class EmbeddingReport:
    upper_violations: List[Tuple[Point, Point, float, float]]
    lower_violations: List[Tuple[Point, Point, float, float]]
    samples: int

    @property
    def ok(self) -> bool:
        return not self.upper_violations and not self.lower_violations


def check_embedding(cert: CoarseMapCert, region_radius: float, samples: int,
                    seed: int) -> EmbeddingReport:
    """Test d(phi x, phi x') <= L(d(x, x')) and d(x, x') <= L(d(phi x, phi x'))
    on seeded random member pairs within the region."""
    pairs = sampled_pairs(cert.phi, np.random.default_rng(seed), region_radius, samples)
    upper, lower = cert.L.values(pairs.d_src), cert.L.values(pairs.d_img)
    return EmbeddingReport(pairs.tuples(pairs.d_img > upper + 1e-9),
                           pairs.tuples(pairs.d_src > lower + 1e-9), len(upper))


@dataclass
class DensityReport:
    max_gap: float
    witness: Optional[Point]
    flagged: bool


def check_density(cert: CoarseMapCert, codomain_region_radius: float,
                  grid_spacing: float, budget: int = PAIR_SAMPLE_CAP) -> DensityReport:
    """Max over codomain lattice points around phi(domain origin) of the
    distance to the image of a domain lattice around the domain origin;
    flagged when it exceeds M_dense plus one grid step."""
    if cert.M_dense is None:
        raise ValueError("certificate declares no density budget M_dense")
    dom, cod = cert.phi.domain, cert.phi.codomain
    dom_radius = codomain_region_radius + cert.M_dense + 2 * grid_spacing
    images = cert.phi.apply_rows(dom.region_rows(dom.origin(), dom_radius, grid_spacing,
                                                 budget))
    cod_pts = cod.region_rows(cert.phi.apply(dom.origin(), check=False),
                              codomain_region_radius, grid_spacing, budget)
    step = cod.rows_step(cod.join_rows([cod_pts, images]))
    m, n_cod = len(cod.row_charts(images)), len(cod.row_charts(cod_pts))
    targets = n_cod + np.arange(m)
    rows = max(1, DISTANCE_CHUNK // m)
    max_gap, witness = 0.0, None
    for lo in range(0, n_cod, rows):
        ys = np.arange(lo, min(lo + rows, n_cod))
        gaps = cod.step_distances(step, np.repeat(ys, m), np.tile(targets, len(ys)))
        gaps = gaps.reshape(len(ys), m).min(axis=1)
        i = int(np.argmax(gaps))
        if gaps[i] > max_gap:
            max_gap, witness = float(gaps[i]), cod.points_of(cod.take_rows(cod_pts, [lo + i]))[0]
    return DensityReport(max_gap, witness,
                         flagged=max_gap > cert.M_dense + grid_spacing + 1e-9)


@dataclass
class DefectCurve:
    curve: List[Tuple[float, float]]  # (radius, sup defect)
    classification: str               # BOUNDED / GROWING / UNDETERMINED
    witnesses: List[Point]

    def to_json(self):
        return {"defect_curve": self.curve, "classification": self.classification,
                "witnesses": [w.to_json() for w in self.witnesses]}


def closeness_defect(f1: MapDescriptor, f2: MapDescriptor, region_radius: float,
                     grid_spacing: float, budget: int = PAIR_SAMPLE_CAP):
    """Sup over the lattice region of d(f1 x, f2 x), with the witnessing point."""
    return _defect_sups(f1, f2, [region_radius], grid_spacing, budget)[0]


def _defect_sups(f1: MapDescriptor, f2: MapDescriptor, radii: Sequence[float],
                 grid_spacing: float, budget: int) -> List[Tuple[float, Point]]:
    """``closeness_defect`` at each radius in turn from one region at the
    largest, mapped and measured once: the region at r is its points within
    r + 1e-9 of the origin as the lattice filter measures them (grid points
    are index times spacing, so box grids nest, in order). Where this fails,
    the radii are taken alone in turn, so the first failure is theirs."""
    if not radii:
        return []
    if f1.domain != f2.domain:
        raise SpaceMismatchError("maps must share a domain")
    if f1.codomain != f2.codomain:
        raise SpaceMismatchError("maps must share a codomain")
    dom, cod = f1.domain, f1.codomain
    # a cone's ray grid reaches r, not the r + 1e-9 its filter allows, so
    # regions of cones, and of products that may hold one, need not nest
    if len(radii) > 1 and isinstance(dom, (Cone, Product)):
        return [_defect_sups(f1, f2, [r], grid_spacing, budget)[0] for r in radii]
    try:
        for r in radii:
            _check_region(r, grid_spacing)
        pts = dom.region_rows(dom.origin(), max(radii), grid_spacing, budget)
        m = len(dom.row_charts(pts))
        step = cod.rows_step(cod.join_rows([f1.apply_rows(pts), f2.apply_rows(pts)]))
        d = cod.step_distances(step, np.arange(m), np.arange(m, 2 * m))
        near = dom.step_distances(dom.rows_step(dom.join_rows(
            [pts, dom.rows_of([dom.origin()])])), np.arange(m), np.full(m, m))
        sups = []
        for r in radii:
            at = np.flatnonzero(near <= r + 1e-9)
            # the last point that reaches the sup witnesses it
            last = int(at[len(at) - 1 - int(np.argmax(d[at][::-1]))])
            sups.append((float(d[last]), dom.points_of(dom.take_rows(pts, [last]))[0]))
        return sups
    except REGION_ERRORS:
        if len(radii) > 1:  # the first failure of the radii in turn
            for r in radii:
                _defect_sups(f1, f2, [r], grid_spacing, budget)
        raise


def classify_trend(curve: Sequence[Tuple[float, float]]) -> str:
    """BOUNDED if the defect plateaus within 1% across the last two radius
    doublings; GROWING if it increases >= 20% per doubling."""
    if len(curve) < 3:
        return "UNDETERMINED"
    vals = [v for _, v in curve[-3:]]
    if vals[0] <= 0:
        ratios = [math.inf if v > 0 else 1.0 for v in vals[1:]]
    else:
        ratios = [vals[i + 1] / vals[i] if vals[i] > 0 else math.inf
                  for i in range(2)]
    if all(r <= 1.01 for r in ratios):
        return "BOUNDED"
    if all(r >= 1.20 for r in ratios):
        return "GROWING"
    return "UNDETERMINED"


def defect_trend(f1: MapDescriptor, f2: MapDescriptor, radii: Sequence[float],
                 grid_spacing: float, budget: int = PAIR_SAMPLE_CAP) -> DefectCurve:
    radii = list(radii)
    sups = _defect_sups(f1, f2, radii, grid_spacing, budget)
    curve = [(float(r), sup) for r, (sup, _) in zip(radii, sups)]
    return DefectCurve(curve, classify_trend(curve), [arg for _, arg in sups])


def compose_certs(outer: CoarseMapCert, inner: CoarseMapCert) -> CoarseMapCert:
    """Certificate for outer.phi o inner.phi (composition rule for controlled
    maps / embeddings / equivalences)."""
    if inner.phi.codomain != outer.phi.domain:
        raise SpaceMismatchError("inner codomain must equal outer domain")
    upper = compose_controls(outer.L, inner.L)
    lower = compose_controls(inner.L, outer.L)
    L = upper if upper == lower else MaxOf(upper, lower)
    m = None
    if inner.M_dense is not None and outer.M_dense is not None:
        m = outer.L(inner.M_dense) + outer.M_dense
    k = None
    if inner.K_close is not None and outer.K_close is not None:
        k = outer.L(inner.K_close) + outer.K_close
    return CoarseMapCert(Compose(outer.phi, inner.phi), L, K_close=k, M_dense=m)


@dataclass
class ConjugacyReport:
    K_phi: float                     # sup d(phi(f x), g(phi x))
    K_psi: float                     # sup d(psi(g y), f(psi y))
    inverse_defects: Tuple[float, float]  # sup d(psi(phi x), x), sup d(phi(psi y), y)
    K_phi_curve: DefectCurve
    K_psi_curve: DefectCurve

    def passes(self, budget_phi: float, budget_psi: float,
               budget_inverse: float) -> bool:
        return (self.K_phi <= budget_phi + 1e-9
                and self.K_psi <= budget_psi + 1e-9
                and max(self.inverse_defects) <= budget_inverse + 1e-9)


def check_conjugacy(f: MapDescriptor, g: MapDescriptor, phi: CoarseMapCert,
                    psi: CoarseMapCert, region_radius: float, grid_spacing: float,
                    budget: int = PAIR_SAMPLE_CAP) -> ConjugacyReport:
    """Empirical sup-defects of the four coarse-conjugacy conditions over
    nested lattice regions (finite-region evidence only)."""
    if phi.phi.domain != f.domain or phi.phi.codomain != g.domain:
        raise SpaceMismatchError("phi must map the domain of f to the domain of g")
    if psi.phi.domain != g.domain or psi.phi.codomain != f.domain:
        raise SpaceMismatchError("psi must map the domain of g to the domain of f")
    radii = [region_radius / 4, region_radius / 2, region_radius]
    phi_curve = defect_trend(Compose(phi.phi, f), Compose(g, phi.phi), radii,
                             grid_spacing, budget)
    psi_curve = defect_trend(Compose(psi.phi, g), Compose(f, psi.phi), radii,
                             grid_spacing, budget)
    d3, _ = closeness_defect(Compose(psi.phi, phi.phi), Identity(f.domain),
                             region_radius, grid_spacing, budget)
    d4, _ = closeness_defect(Compose(phi.phi, psi.phi), Identity(g.domain),
                             region_radius, grid_spacing, budget)
    return ConjugacyReport(phi_curve.curve[-1][1], psi_curve.curve[-1][1],
                           (d3, d4), phi_curve, psi_curve)
