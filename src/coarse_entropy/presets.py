"""JSON experiment configs, the preset catalog, and the config runner.

Configs are plain JSON dicts. Where exactness matters (deltas, radii,
spacings, epsilons) numbers are decimal strings so configs round-trip across
languages without binary float drift; integer counts stay integers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .coarse import (Affine, CoarseMapCert, PowerAffine, check_conjugacy,
                     check_density, check_embedding, defect_trend)
from .entropy import (CSV_HEADER, LOWER_STRATEGIES, UPPER_STRATEGIES, CountRecord,
                      ScheduleCell, bcd_estimate, count_product, estimate_entropy)
from .errors import BudgetExceededError
from .maps import (Affine1D, ChainLinear, Compose, ConjugatedDoubling,
                   ControlWitness, Homothety, Identity, Iterate, Laurent1D,
                   Linear, MapDescriptor, ProductMap, verify_control)
from .orbits import GridFamily, family_orbits, family_steps, orbit_distance, validate
from .spaces import (BaseSetSpec, ChainRects, ChainSegments, Cone, Euclidean,
                     HalfLine, Halfplane, IntegerLattice, Point, Product,
                     Space, SpineBlocks, e3_multiplier)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _num(x) -> float:
    if isinstance(x, bool):
        raise ConfigError(f"not a number: {x!r}")
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            raise ConfigError(f"not a decimal number: {x!r}") from None
    raise ConfigError(f"not a number: {x!r}")


def _finite(x) -> float:
    v = _num(x)
    if not math.isfinite(v):
        raise ConfigError(f"not a finite number: {x!r}")
    return v


def _whole(x) -> int:
    if not (v := _num(x)).is_integer():
        raise ConfigError(f"not a whole number: {x!r}")
    return int(v)


def config_sha256(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# spec -> object builders


def build_space(spec: dict) -> Space:
    try:
        t = spec["type"]
    except (TypeError, KeyError):
        raise ConfigError("space spec needs a 'type'") from None
    if t == "euclidean":
        return Euclidean(int(spec["dim"]))
    if t == "integer_lattice":
        return IntegerLattice(int(spec["dim"]))
    if t == "halfline":
        return HalfLine(_num(spec.get("low", "0")))
    if t == "halfplane":
        return Halfplane()
    if t == "chain_rects":
        return ChainRects()
    if t == "chain_segments":
        return ChainSegments(spec["role"])
    if t == "spine_blocks":
        return SpineBlocks(int(spec.get("max_level", 12)))
    if t == "cone":
        b = spec["base"]
        base = BaseSetSpec(b["kind"], levels=int(b.get("levels", 0)),
                           angles=tuple(_num(a) for a in b.get("angles", ())))
        return Cone(int(spec.get("dim", 2)), base)
    if t == "product":
        return Product(build_space(spec["left"]), build_space(spec["right"]))
    raise ConfigError(f"unknown space type {t!r}")


def build_map(spec: dict, space: Space) -> MapDescriptor:
    try:
        t = spec["type"]
    except (TypeError, KeyError):
        raise ConfigError("map spec needs a 'type'") from None
    if t == "identity":
        return Identity(space)
    if t == "linear":
        matrix = tuple(tuple(_num(v) for v in row) for row in spec["matrix"])
        return Linear(space, matrix)
    if t == "homothety":
        return Homothety(space, _num(spec["lam"]))
    if t == "chain_linear":
        return ChainLinear(space)
    if t == "conjugated_doubling":
        if not isinstance(space, Halfplane):
            raise ConfigError("conjugated_doubling maps need a halfplane space, "
                              f"not {type(space).__name__}")
        return ConjugatedDoubling(space)
    if t in ("laurent", "affine"):
        cod = build_space(spec["codomain"]) if "codomain" in spec else None
        for s in (space, cod):
            if s is not None and not (isinstance(s, (Euclidean, HalfLine)) and s.dim == 1):
                raise ConfigError(f"{t} maps need 1-D single-chart spaces (euclidean "
                                  f"of dim 1 or halfline), not {s}")
        if t == "affine":
            return Affine1D(space, _num(spec["a"]), _num(spec["b"]), cod)
        coeffs = {int(e): _num(c) for e, c in spec["coeffs"].items()}
        return Laurent1D.make(space, coeffs, cod)
    if t == "iterate":
        return Iterate(build_map(spec["base"], space), int(spec["k"]))
    if t == "product":
        if not isinstance(space, Product):
            raise ConfigError("product maps need a product space")
        return ProductMap(build_map(spec["left"], space.left),
                          build_map(spec["right"], space.right))
    raise ConfigError(f"unknown map type {t!r}")


def build_point(spec: dict, space: Space) -> Point:
    if spec is None:
        return space.origin()
    if "pair" in spec:
        if not isinstance(space, Product):
            raise ConfigError("paired points need a product space")
        return Point.pair(build_point(spec["pair"][0], space.left),
                          build_point(spec["pair"][1], space.right))
    p = Point(int(spec.get("chart", 0)), tuple(_num(c) for c in spec["coords"]))
    if not space.contains(p):
        raise ConfigError(f"point {p.to_json()} is not in {type(space).__name__}")
    return p


def build_control(spec: dict):
    t = spec["type"]
    if t == "affine":
        return Affine(_num(spec["a"]), _num(spec.get("b", "0")))
    if t == "power_affine":
        return PowerAffine(_num(spec["a"]), _num(spec.get("b", "0")),
                           _num(spec.get("p", "1")))
    raise ConfigError(f"unknown control type {t!r}")


def build_schedule(spec: Sequence[dict]) -> List[ScheduleCell]:
    if not spec:
        raise ConfigError("schedule has no cells")
    cells = []
    for c in spec:
        cells.append(ScheduleCell(
            delta=_finite(c["delta"]),
            r_values=tuple(_finite(r) for r in c["r_values"]),
            n_values=tuple(_whole(n) for n in c["n_values"]),
            strategy=c["strategy"],
            spacing=_finite(c["spacing"]) if "spacing" in c else None,
            upper_strategy=c.get("upper_strategy"),
            lam=_finite(c["lam"]) if "lam" in c else None,
        ))
        for field in ("r_values", "n_values"):
            if not getattr(cells[-1], field):
                raise ConfigError(f"a schedule cell has no {field}")
        for side, known in (("strategy", LOWER_STRATEGIES),
                            ("upper_strategy", UPPER_STRATEGIES)):
            name = getattr(cells[-1], side)
            if name is not None and name not in known:
                raise ConfigError(f"unknown strategy {name!r} as {side}; "
                                  f"known: {', '.join(known)}")
    return cells


# ---------------------------------------------------------------------------
# the runner


@dataclass
class RunResult:
    exit_code: int
    summary: str
    report: dict
    csv_lines: Optional[List[str]] = None


def run_config(cfg: dict, budget_override: Optional[int] = None) -> RunResult:
    """Execute the pipeline a config declares; deterministic given the seed."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.get('schema_version')!r}")
    kind = cfg.get("kind")
    budget = int(budget_override if budget_override is not None
                 else cfg.get("budget", 10_000_000))
    if budget <= 0:
        raise ConfigError("budget must be positive")
    base = {"schema_version": SCHEMA_VERSION, "kind": kind,
            "config_sha256": config_sha256(cfg)}
    if kind == "entropy":
        return _run_entropy(cfg, budget, base)
    if kind == "bcd":
        return _run_bcd(cfg, budget, base)
    if kind == "product":
        return _run_product(cfg, budget, base)
    if kind == "conjugacy":
        return _run_conjugacy(cfg, budget, base)
    if kind == "iterate_defect":
        return _run_iterate_defect(cfg, budget, base)
    if kind == "check_map":
        return _run_check_map(cfg, budget, base)
    raise ConfigError(f"unknown config kind {kind!r}")


def _run_entropy(cfg, budget, base) -> RunResult:
    space = build_space(cfg["space"])
    mapd = build_map(cfg["map"], space)
    x0 = build_point(cfg.get("x0"), space)
    schedule = build_schedule(cfg["schedule"])
    partial = False
    try:
        est = estimate_entropy(mapd, x0, schedule, budget)
    except BudgetExceededError as exc:
        base["error"] = str(exc)
        return RunResult(3, f"budget exceeded: {exc}", base, [CSV_HEADER])
    base["entropy"] = est.to_json()
    csv = est.csv_lines()
    if est.errors:
        partial = True
    if "bcd" in cfg:
        base["bcd"] = _bcd(cfg["bcd"], space, budget).to_json()
    val = "+INFINITY" if est.infinity_flag else f"{est.extrapolated_value:.4f}"
    expected = cfg.get("expected", "")
    tail = f" (expected {expected})" if expected else ""
    return RunResult(3 if partial else 0, f"h_inf ~= {val}{tail}", base, csv)


def _bcd(spec, space, budget):
    """The box-counting estimate a ``bcd`` spec (a ``bcd`` config, or the
    ``bcd`` block of an entropy config) asks for."""
    divisor = _num(spec.get("spacing_divisor", "4"))
    return bcd_estimate(space, _num(spec["region_radius"]),
                        [_num(e) for e in spec["epsilons"]],
                        spacing_rule=lambda e: e / divisor, budget=budget)


def _run_bcd(cfg, budget, base) -> RunResult:
    space = build_space(cfg["space"])
    dim = _bcd(cfg, space, budget)
    base["bcd"] = dim.to_json()
    return RunResult(0, f"bcd ~= {dim.fitted_dimension:.4f}", base, None)


def _run_product(cfg, budget, base) -> RunResult:
    sides = ("left", "right")
    spaces = [build_space(cfg[side]["space"]) for side in sides]
    maps = [build_map(cfg[side]["map"], s) for side, s in zip(sides, spaces)]
    x0s = [build_point(cfg[side].get("x0"), s) for side, s in zip(sides, spaces)]
    n = _whole(cfg["n"])
    delta = _finite(cfg["delta"])
    spacing = _finite(cfg["spacing"])
    R = _finite(cfg["R"])
    levels = [GridFamily(m, x0, delta, spacing, budget).levels(n) for m, x0 in zip(maps, x0s)]
    rec = count_product(*[(s, family_steps(s, lv), len(lv[-1][0]))
                          for s, lv in zip(spaces, levels)], R, budget)
    # the witnesses the report names, rebuilt as pseudoorbits and checked
    # apart from the matrices: under the max metric the product of the nets
    # is R-separated iff each net is
    nets = [family_orbits(m, x0, delta, lv, kept) for m, x0, lv, kept in
            zip(maps, x0s, levels, (rec.kept_left, rec.kept_right))]
    nets_ok = all(all(validate(o) for o in net)
                  and all(orbit_distance(a, b) >= R for a, b in itertools.combinations(net, 2))
                  for net in nets)
    nl, nr = len(rec.kept_left), len(rec.kept_right)
    # a maximal R-separated set is R-spanning, so each greedy net bounds the
    # spanning count too: the spanning keys repeat the separated values
    base["product"] = {
        "n": n, "delta": delta, "R": R,
        "separated_lower": rec.separated_lower,
        "spanning_upper": rec.separated_lower,
        "left_separated": nl,
        "right_separated": nr,
        "left_spanning": nl,
        "right_spanning": nr,
        "family_sizes": [len(lv[-1][0]) for lv in levels],
        "separated_product_witness": nl * nr,
        "separated_witness_valid": rec.witness_separated and nets_ok,
        "spanning_product_witness": nl * nr,
        "spanning_witness_covers": rec.witness_covers,
    }
    csv = [CSV_HEADER, CountRecord(n, delta, R, "FULL_ENUM",
                                   rec.separated_lower, rec.separated_lower).csv_row()]
    return RunResult(0, f"product counts: separated {rec.separated_lower}, "
                        f"spanning {rec.separated_lower}", base, csv)


def _run_conjugacy(cfg, budget, base) -> RunResult:
    sf = build_space(cfg["space_f"])
    sg = build_space(cfg["space_g"])
    f = build_map(cfg["map_f"], sf)
    g = build_map(cfg["map_g"], sg)
    phi = CoarseMapCert(build_map(cfg["phi"], sf), build_control(cfg["phi_control"]))
    psi = CoarseMapCert(build_map(cfg["psi"], sg), build_control(cfg["psi_control"]))
    radius = _num(cfg["region_radius"])
    spacing = _num(cfg["grid_spacing"])
    rep = check_conjugacy(f, g, phi, psi, radius, spacing, budget)
    base["conjugacy"] = {
        "K_phi": rep.K_phi, "K_psi": rep.K_psi,
        "inverse_defects": list(rep.inverse_defects),
        "phi_curve": rep.K_phi_curve.to_json(),
        "psi_curve": rep.K_psi_curve.to_json(),
    }
    if "alt_psi" in cfg:
        alt = build_map(cfg["alt_psi"], sg)
        alt_radius = _num(cfg.get("alt_region_radius", cfg["region_radius"]))
        curve = defect_trend(Compose(alt, g), Compose(f, alt),
                             [alt_radius / 4, alt_radius / 2, alt_radius],
                             spacing, budget)
        base["conjugacy"]["alt_psi_curve"] = curve.to_json()
        base["conjugacy"]["alt_psi_defect_over_radius"] = (
            curve.curve[-1][1] / alt_radius)
    worst = max(rep.K_phi, rep.K_psi, *rep.inverse_defects)
    return RunResult(0, f"conjugacy defects: max {worst:g}", base, None)


def _run_iterate_defect(cfg, budget, base) -> RunResult:
    space = build_space(cfg["space"])
    f = build_map(cfg["map_f"], space)
    g = build_map(cfg["map_g"], space)
    radii = [_num(r) for r in cfg["radii"]]
    spacing = _num(cfg["grid_spacing"])
    k = int(cfg.get("iterate_k", 2))
    c1 = defect_trend(g, f, radii, spacing, budget)
    ck = defect_trend(Iterate(g, k), Iterate(f, k), radii, spacing, budget)
    base["iterate_defect"] = {
        "base_curve": c1.to_json(),
        "iterate_k": k,
        "iterate_curve": ck.to_json(),
    }
    return RunResult(0, f"defect(base) {c1.classification}, "
                        f"defect(iterate^{k}) {ck.classification}", base, None)


def _run_check_map(cfg, budget, base) -> RunResult:
    space = build_space(cfg["space"])
    mapd = build_map(cfg["map"], space)
    control = build_control(cfg["control"])
    cert = CoarseMapCert(
        mapd, control,
        K_close=_num(cfg["K_close"]) if "K_close" in cfg else None,
        M_dense=_num(cfg["M_dense"]) if "M_dense" in cfg else None)
    radius = _num(cfg["region_radius"])
    seed = int(cfg.get("seed", 0))
    samples = int(cfg.get("samples", 2000))
    out = {}
    ok = True
    for check in cfg.get("checks", ["control"]):
        if check == "control":
            rep = verify_control(mapd, ControlWitness(L=control), radius,
                                 samples, seed)
            out["control"] = {"violations": len(rep.violations),
                              "max_ratio": rep.max_ratio, "samples": rep.samples}
            ok = ok and not rep.violations
        elif check == "embedding":
            rep = check_embedding(cert, radius, samples, seed)
            out["embedding"] = {"upper_violations": len(rep.upper_violations),
                                "lower_violations": len(rep.lower_violations),
                                "samples": rep.samples}
            ok = ok and rep.ok
        elif check == "density":
            rep = check_density(cert, radius, _num(cfg["grid_spacing"]), budget)
            out["density"] = {"max_gap": rep.max_gap, "flagged": rep.flagged}
            ok = ok and not rep.flagged
        else:
            raise ConfigError(f"unknown check {check!r}")
    base["check_map"] = out
    base["check_map"]["ok"] = ok
    return RunResult(0, f"map checks {'pass' if ok else 'FAIL'}", base, None)


# ---------------------------------------------------------------------------
# preset catalog


def _cell(delta, rs, ns, strategy, spacing=None, upper=None):
    c = {"delta": delta, "r_values": list(rs), "n_values": list(ns),
         "strategy": strategy}
    if spacing is not None:
        c["spacing"] = spacing
    if upper is not None:
        c["upper_strategy"] = upper
    return c


PRESETS: Dict[str, dict] = {
    "LINEAR_1D_DOUBLING": {
        "schema_version": 1, "kind": "entropy", "expected": "log 2",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "linear", "matrix": [["2"]]},
        "x0": {"coords": ["0"]},
        "schedule": [
            _cell("4", ["32", "64", "128"], range(8, 17), "FINAL_TERM"),
            _cell("8", ["32", "64", "128"], range(8, 17), "FINAL_TERM"),
        ],
    },
    "LINEAR_2D_DIAG23": {
        "schema_version": 1, "kind": "entropy", "expected": "log 6",
        "space": {"type": "euclidean", "dim": 2},
        "map": {"type": "linear", "matrix": [["2", "0"], ["0", "3"]]},
        "x0": {"coords": ["0", "0"]},
        "schedule": [
            _cell("2", ["12"], range(6, 11), "FINAL_TERM", upper="SHADOW_HULL"),
            _cell("4", ["12"], range(5, 11), "FINAL_TERM", upper="SHADOW_HULL"),
        ],
    },
    "LINEAR_CONTRACTION": {
        "schema_version": 1, "kind": "entropy", "expected": "0",
        "space": {"type": "euclidean", "dim": 2},
        "map": {"type": "linear", "matrix": [["0.5", "0"], ["0", "0.5"]]},
        "x0": {"coords": ["0", "0"]},
        "schedule": [
            _cell("2", ["8", "16"], range(4, 12), "FINAL_TERM"),
            _cell("4", ["8", "16"], range(4, 12), "FINAL_TERM"),
        ],
    },
    "E1_CONJUGATED": {
        "schema_version": 1, "kind": "entropy", "expected": "+INFINITY",
        "space": {"type": "halfplane"},
        "map": {"type": "conjugated_doubling"},
        "x0": {"coords": ["0", "0"]},
        "schedule": [
            _cell("1", ["4", "8"], range(4, 15), "LADDER"),
            _cell("2", ["4", "8"], range(3, 9), "LADDER"),
            _cell("3", ["4", "8"], range(3, 8), "LADDER"),
        ],
    },
    "E2_CHAIN": {
        "schema_version": 1, "kind": "entropy", "expected": ">= 0.55",
        "space": {"type": "chain_rects"},
        "map": {"type": "chain_linear"},
        "x0": {"chart": 0, "coords": ["0", "0"]},
        "schedule": [
            _cell("4", ["8"], range(10, 18), "ORBIT_IMAGE", spacing="0.03125"),
        ],
    },
    "E2_CHAIN_SQUARED": {
        "schema_version": 1, "kind": "entropy", "expected": "<= 0.85",
        "space": {"type": "chain_rects"},
        "map": {"type": "iterate", "base": {"type": "chain_linear"}, "k": 2},
        "x0": {"chart": 0, "coords": ["0", "0"]},
        "schedule": [
            _cell("4", ["8"], range(4, 10), "ORBIT_IMAGE", spacing="0.03125"),
        ],
    },
    "E3_PRODUCT": {
        "schema_version": 1, "kind": "product",
        "left": {"space": {"type": "chain_segments", "role": "f"},
                 "map": {"type": "chain_linear"},
                 "x0": {"chart": 0, "coords": ["0"]}},
        "right": {"space": {"type": "chain_segments", "role": "g"},
                  "map": {"type": "chain_linear"},
                  "x0": {"chart": 0, "coords": ["0"]}},
        "n": 3, "delta": "1", "spacing": "1", "R": "2",
    },
    "E5_IDENTITY_GROWTH": {
        "schema_version": 1, "kind": "entropy", "expected": "+INFINITY",
        "space": {"type": "spine_blocks", "max_level": 12},
        "map": {"type": "identity"},
        "x0": {"chart": 0, "coords": ["0"]},
        "schedule": [
            _cell("1", ["4", "8"], range(4, 15), "FINAL_TERM"),
            _cell("2", ["4", "8"], range(3, 8), "FINAL_TERM"),
            _cell("4", ["4", "8"], range(2, 5), "FINAL_TERM"),
        ],
    },
    "E6_CONE_CANTOR": {
        "schema_version": 1, "kind": "entropy", "expected": "1.6309 * log 2",
        "space": {"type": "cone", "dim": 2,
                  "base": {"kind": "cantor_arc", "levels": 8}},
        "map": {"type": "homothety", "lam": "2"},
        "x0": {"coords": ["0", "0"]},
        "schedule": [
            _cell("8", ["16"], range(4, 10), "FINAL_TERM", spacing="8"),
        ],
        "bcd": {"region_radius": "1", "spacing_divisor": "4",
                "epsilons": [repr(3.0 ** -k) for k in range(2, 7)]},
    },
    "CO4_CONJUGACY": {
        "schema_version": 1, "kind": "conjugacy",
        "space_f": {"type": "halfline", "low": "2"},
        "space_g": {"type": "halfline", "low": "1"},
        "map_f": {"type": "laurent", "coeffs": {"2": "1"}},
        "map_g": {"type": "laurent", "coeffs": {"2": "1", "1": "2"}},
        "phi": {"type": "affine", "a": "1", "b": "-1",
                "codomain": {"type": "halfline", "low": "1"}},
        "phi_control": {"type": "affine", "a": "1"},
        "psi": {"type": "affine", "a": "1", "b": "1",
                "codomain": {"type": "halfline", "low": "2"}},
        "psi_control": {"type": "affine", "a": "1"},
        "alt_psi": {"type": "affine", "a": "1", "b": "0",
                    "codomain": {"type": "halfline", "low": "2"}},
        "alt_region_radius": "100",
        "region_radius": "64", "grid_spacing": "0.5",
    },
    "CO9_ITERATE_DEFECT": {
        "schema_version": 1, "kind": "iterate_defect",
        "space": {"type": "halfline", "low": "2"},
        "map_f": {"type": "laurent", "coeffs": {"2": "1"}},
        "map_g": {"type": "laurent", "coeffs": {"2": "1", "-1": "1"}},
        "radii": ["25", "50", "100"], "grid_spacing": "0.5",
        "iterate_k": 2,
    },
    "LEM_SELF_PRODUCT": {
        "schema_version": 1, "kind": "product",
        "left": {"space": {"type": "euclidean", "dim": 1},
                 "map": {"type": "identity"}, "x0": {"coords": ["0"]}},
        "right": {"space": {"type": "euclidean", "dim": 1},
                  "map": {"type": "identity"}, "x0": {"coords": ["0"]}},
        "n": 2, "delta": "1", "spacing": "1", "R": "2",
    },
}
# materialize the range objects so presets are pure JSON data
for _cfg in PRESETS.values():
    for _c in _cfg.get("schedule", ()):
        _c["n_values"] = list(_c["n_values"])


# ---------------------------------------------------------------------------
# preset assertions


LOG2 = math.log(2.0)
LOG6 = math.log(6.0)


def _assert_doubling(report, _run):
    v = report["entropy"]["extrapolated_value"]
    if v == "+INFINITY":
        return False, "flagged infinite"
    ok = abs(v - LOG2) <= 0.15 * LOG2
    return ok, f"extrapolated {v:.4f} vs log 2 = {LOG2:.4f}"


def _assert_diag23(report, _run):
    cells = [c for c in report["entropy"]["grid"] if c["delta"] == 4.0]
    if not cells:
        return False, "missing delta=4 cell"
    c = cells[-1]
    lo, hi = c["slope_lower"], c["slope_upper"]
    ok = (abs(lo - LOG6) <= 0.15 * LOG6 and abs(hi - LOG6) <= 0.15 * LOG6
          and lo <= hi)
    return ok, f"lower {lo:.4f} <= upper {hi:.4f} vs log 6 = {LOG6:.4f}"


def _assert_contraction(report, _run):
    v = report["entropy"]["extrapolated_value"]
    if v == "+INFINITY":
        return False, "flagged infinite"
    return v <= 0.10, f"extrapolated {v:.4f} <= 0.10"


def _assert_e1(report, _run):
    ent = report["entropy"]
    rates = {float(k): v for k, v in ent["per_delta"].items()}
    ok = ent["infinity_flag"] and all(rates[d] >= 0.8 * d for d in (1.0, 2.0, 3.0))
    return ok, f"rates {rates}, infinity_flag {ent['infinity_flag']}"


def _assert_e2(report, _run):
    rate = list(report["entropy"]["per_delta"].values())[-1]
    return rate >= 0.55, f"rate {rate:.4f} >= 0.55"


def _assert_e2_squared(report, run_config_fn):
    rate2 = list(report["entropy"]["per_delta"].values())[-1]
    base = run_config_fn(PRESETS["E2_CHAIN"])
    rate1 = list(base.report["entropy"]["per_delta"].values())[-1]
    ok = rate2 <= 0.85 and rate2 < 2 * rate1 - 0.3
    return ok, (f"rate(f^2) {rate2:.4f} <= 0.85 and "
                f"< 2*{rate1:.4f} - 0.3 = {2 * rate1 - 0.3:.4f}")


def _assert_e3(report, _run):
    p = report["product"]
    ok = (p["separated_witness_valid"]
          and p["separated_lower"] >= p["left_separated"] * p["right_separated"]
          and p["spanning_witness_covers"]
          and p["spanning_upper"] <= p["left_spanning"] * p["right_spanning"])
    # the growth multiplier of each factor alternates by epoch, out of phase
    ml = [e3_multiplier("f", n) for n in range(1, 20)]
    mr = [e3_multiplier("g", n) for n in range(1, 20)]
    ok = ok and set(ml) == {1, 2} and set(mr) == {1, 2} and ml != mr
    return ok, (f"product {p['separated_lower']}/{p['spanning_upper']} vs "
                f"factors {p['left_separated']}*{p['right_separated']}, "
                f"{p['left_spanning']}*{p['right_spanning']}")


def _assert_e5(report, _run):
    ent = report["entropy"]
    r = {float(k): v for k, v in ent["per_delta"].items()}
    ratios = [r[2.0] / r[1.0], r[4.0] / r[2.0]]
    ok = ent["infinity_flag"] and all(1.6 <= q <= 2.4 for q in ratios)
    return ok, f"rate ratios {ratios}, infinity_flag {ent['infinity_flag']}"


def _assert_cone(report, _run):
    dim = report["bcd"]["fitted_dimension"]
    rate = list(report["entropy"]["per_delta"].values())[-1]
    target = 1.6309 * LOG2
    ok = abs(dim - 1.6309) <= 0.10 and abs(rate - target) <= 0.20 * target
    return ok, f"bcd {dim:.4f} vs 1.6309; rate {rate:.4f} vs {target:.4f}"


def _assert_co4(report, _run):
    c = report["conjugacy"]
    exact = (c["K_phi"] == 0.0 and c["K_psi"] == 0.0
             and c["inverse_defects"] == [0.0, 0.0])
    growing = (c["alt_psi_curve"]["classification"] == "GROWING"
               and abs(c["alt_psi_defect_over_radius"] - 2.0) <= 0.1)
    return exact and growing, (
        f"defects ({c['K_phi']}, {c['K_psi']}, {c['inverse_defects']}); "
        f"alt psi {c['alt_psi_curve']['classification']} "
        f"slope {c['alt_psi_defect_over_radius']:.3f}")


def _assert_co9(report, _run):
    d = report["iterate_defect"]
    base_sup = d["base_curve"]["defect_curve"][-1][1]
    it_final = d["iterate_curve"]["defect_curve"][-1]
    ok = (base_sup <= 0.5 and d["base_curve"]["classification"] == "BOUNDED"
          and d["iterate_curve"]["classification"] == "GROWING"
          and it_final[1] >= 1.9 * it_final[0])
    return ok, (f"base sup {base_sup} ({d['base_curve']['classification']}), "
                f"iterate defect {it_final[1]:.2f} at T={it_final[0]:g} "
                f"({d['iterate_curve']['classification']})")


def _assert_lem(report, _run):
    p = report["product"]
    ok = (p["separated_witness_valid"]
          and p["separated_lower"] >= p["left_separated"] * p["right_separated"]
          and p["spanning_witness_covers"])
    return ok, (f"s(F) = {p['separated_lower']} >= "
                f"{p['left_separated']}^2 = "
                f"{p['left_separated'] * p['right_separated']}")


PRESET_ASSERTIONS = {
    "LINEAR_1D_DOUBLING": _assert_doubling,
    "LINEAR_2D_DIAG23": _assert_diag23,
    "LINEAR_CONTRACTION": _assert_contraction,
    "E1_CONJUGATED": _assert_e1,
    "E2_CHAIN": _assert_e2,
    "E2_CHAIN_SQUARED": _assert_e2_squared,
    "E3_PRODUCT": _assert_e3,
    "E5_IDENTITY_GROWTH": _assert_e5,
    "E6_CONE_CANTOR": _assert_cone,
    "CO4_CONJUGACY": _assert_co4,
    "CO9_ITERATE_DEFECT": _assert_co9,
    "LEM_SELF_PRODUCT": _assert_lem,
}


def reproduce(preset_id: str, budget_override: Optional[int] = None) -> RunResult:
    """Run a preset and evaluate its expected-outcome assertion; exit code 4
    on assertion failure."""
    if preset_id not in PRESETS:
        raise ConfigError(f"unknown preset {preset_id!r}; "
                          f"known: {', '.join(sorted(PRESETS))}")
    result = run_config(PRESETS[preset_id], budget_override)
    if result.exit_code != 0:
        return result
    passed, detail = PRESET_ASSERTIONS[preset_id](
        result.report, lambda c: run_config(c, budget_override))
    result.report["assertion"] = {"passed": passed, "detail": detail}
    status = "PASS" if passed else "FAIL"
    return RunResult(0 if passed else 4,
                     f"{preset_id}: {status} - {detail}",
                     result.report, result.csv_lines)
