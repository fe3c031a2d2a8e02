"""Seeded workload generators and the output checks for each operation.

An operation is one config handed to ``presets.run_config``. A workload is a
list of operations generated from ``--seed``; seed 0 reproduces the preset
catalog exactly wherever a workload is built from presets. The program only
ever receives the generated configs.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

LOG2 = math.log(2.0)
CANTOR_DIM = 1.0 + math.log(2.0) / math.log(3.0)

# A check gets the operation's RunResult and the results of the operations
# that ran before it in the same repetition, keyed by operation name.
Check = Callable[[object, Dict[str, object]], Tuple[bool, str]]


@dataclass
class Op:
    name: str
    config: dict
    check: Check
    reference: Optional[float] = None  # closed-form value of the estimated rate


def _num(x: float) -> str:
    """Decimal string the config schema uses for exact-matters numbers."""
    return repr(float(x))


def _preset_check(presets, pid: str) -> Check:
    """Evaluate the catalog assertion on the report. The E2_CHAIN_SQUARED
    assertion compares against E2_CHAIN: hand it the same-seed E2_CHAIN
    result from this repetition, so the operation never reruns E2."""
    assertion = presets.PRESET_ASSERTIONS[pid]

    def check(result, done):
        def earlier_run(cfg):
            if cfg is not presets.PRESETS["E2_CHAIN"]:
                raise ValueError(f"{pid} asked for an unexpected rerun")
            return done["E2_CHAIN"]
        return assertion(result.report, earlier_run)
    return check


def _preset_op(presets, pid: str, config: dict,
               reference: Optional[float] = None) -> Op:
    return Op(pid, config, _preset_check(presets, pid), reference)


# ---------------------------------------------------------------------------
# cone-cantor


def cone_cantor(presets, spaces, seed: int) -> List[Op]:
    """E6_CONE_CANTOR. Seed k > 0 swaps the Cantor base for `finite_angles`
    holding the same 256 angles, rigidly rotated by a seeded angle."""
    cfg = copy.deepcopy(presets.PRESETS["E6_CONE_CANTOR"])
    if seed:
        theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        levels = cfg["space"]["base"]["levels"]
        angles = spaces.BaseSetSpec.cantor_arc(levels).base_angles()
        cfg["space"]["base"] = {"kind": "finite_angles",
                                "angles": [_num(a + theta) for a in angles]}
    return [_preset_op(presets, "E6_CONE_CANTOR", cfg, CANTOR_DIM * LOG2)]


# ---------------------------------------------------------------------------
# chain-orbits


def chain_orbits(presets, spaces, seed: int) -> List[Op]:
    """E2_CHAIN and E2_CHAIN_SQUARED. Seed k > 0 moves x0 (shared by both)
    uniformly inside block 0, the unit square centred at its anchor."""
    ops = []
    rng = random.Random(seed)
    x0 = [_num(rng.uniform(-0.5, 0.5)), _num(rng.uniform(-0.5, 0.5))]
    for pid in ("E2_CHAIN", "E2_CHAIN_SQUARED"):
        cfg = copy.deepcopy(presets.PRESETS[pid])
        if seed:
            cfg["x0"] = {"chart": 0, "coords": x0}
        ops.append(_preset_op(presets, pid, cfg))
    return ops


# ---------------------------------------------------------------------------
# catalog-rest

REST_PRESETS = ("LINEAR_1D_DOUBLING", "LINEAR_2D_DIAG23", "LINEAR_CONTRACTION",
                "E1_CONJUGATED", "E3_PRODUCT", "E5_IDENTITY_GROWTH",
                "CO4_CONJUGACY", "CO9_ITERATE_DEFECT", "LEM_SELF_PRODUCT")
REST_REFERENCES = {"LINEAR_1D_DOUBLING": LOG2,
                   "LINEAR_2D_DIAG23": math.log(6.0)}

# Sibling sizes. Each is pinned so that the work of a sibling does not
# depend on the seed: the seed moves map coefficients, radii and sampling
# seeds, never family or grid sizes.
DIAG_SIBLINGS = 3
DIAG_GRID_POINTS = 200_000     # bounding-box grid at the largest (n, delta)
DIAG_N = list(range(5, 10))
FULL_ENUM_N = [2, 3, 4]        # 5^n grid pseudoorbits per count
CHECK_MAP_SIBLINGS = 2
CHECK_MAP_SAMPLES = 3000


def _csv_records(csv_lines: Optional[List[str]]):
    """(separated_lower, spanning_upper) per CSV row; blank cells are None."""
    out = []
    for line in (csv_lines or [])[1:]:
        sep, span = line.split(",")[4:6]
        out.append((float(sep) if sep else None, float(span) if span else None))
    return out


def counts_check(result, done=None) -> Tuple[bool, str]:
    """Invariants of every count row: counts >= 1, and lower <= upper where
    a row has both."""
    rows = _csv_records(result.csv_lines)
    if not rows:
        return False, "no count rows"
    for sep, span in rows:
        if sep is not None and sep < 1:
            return False, f"count {sep} < 1"
        if span is not None and span < 1:
            return False, f"count {span} < 1"
        if sep is not None and span is not None and sep > span:
            return False, f"separated_lower {sep} > spanning_upper {span}"
    return True, f"{len(rows)} count rows, lower <= upper"


def _diag_sibling(rng: random.Random, i: int) -> Op:
    a, b = rng.uniform(2.0, 2.5), rng.uniform(2.5, 3.0)
    deltas = (2.0, 4.0)
    # R sets the bounding box at the largest cell to DIAG_GRID_POINTS:
    # box ~ (2 delta a^(n-1) / R) (2 delta b^(n-1) / R)
    R = 2 * deltas[-1] * (a * b) ** ((DIAG_N[-1] - 1) / 2) / math.sqrt(DIAG_GRID_POINTS)
    cfg = {
        "schema_version": 1, "kind": "entropy", "expected": "log(ab)",
        "space": {"type": "euclidean", "dim": 2},
        "map": {"type": "linear", "matrix": [[_num(a), "0"], ["0", _num(b)]]},
        "x0": {"coords": ["0", "0"]},
        "schedule": [{"delta": _num(d), "r_values": [_num(R)],
                      "n_values": DIAG_N, "strategy": "FINAL_TERM",
                      "upper_strategy": "SHADOW_HULL"} for d in deltas],
    }
    ref = math.log(a * b)

    def check(result, done):
        ok, detail = counts_check(result)
        lo = result.report["entropy"]["extrapolated_value"]
        if not ok or lo == "+INFINITY":
            return False, detail if not ok else "flagged infinite"
        ok = abs(lo - ref) <= 0.15 * ref
        return ok, f"rate {lo:.4f} vs log(ab) = {ref:.4f}; {detail}"
    return Op(f"DIAG_{i}", cfg, check, ref)


def _full_enum_sibling(rng: random.Random, k: int) -> Op:
    cfg = {
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "linear", "matrix": [[str(k)]]},
        "x0": {"coords": ["0"]},
        "schedule": [{"delta": "1", "r_values": [_num(rng.uniform(3.0, 4.5))],
                      "n_values": FULL_ENUM_N, "strategy": "FULL_ENUM",
                      "spacing": "0.5", "upper_strategy": "FULL_ENUM"}],
    }
    return Op(f"FULL_ENUM_{k}", cfg, counts_check)


def _product_sibling(rng: random.Random, k_left: int, k_right: int) -> Op:
    def factor(k):
        m = ({"type": "identity"} if k == 1
             else {"type": "linear", "matrix": [[str(k)]]})
        return {"space": {"type": "euclidean", "dim": 1}, "map": m,
                "x0": {"coords": ["0"]}}
    # grid orbit distances are whole numbers here, so any R in (2, 3] keeps
    # the same pairs and the work does not depend on the seed
    cfg = {"schema_version": 1, "kind": "product", "left": factor(k_left),
           "right": factor(k_right), "n": 3, "delta": "1", "spacing": "1",
           "R": _num(rng.uniform(2.25, 3.0))}

    def check(result, done):
        ok, detail = counts_check(result)
        p = result.report["product"]
        ok = (ok and p["separated_witness_valid"] and p["spanning_witness_covers"]
              and p["separated_lower"] >= p["left_separated"] * p["right_separated"])
        return ok, f"witnesses valid and covering; {detail}"
    return Op(f"PRODUCT_{k_left}{k_right}", cfg, check)


def _check_map_sibling(rng: random.Random, i: int) -> Op:
    a = rng.uniform(1.5, 3.0)
    cfg = {
        "schema_version": 1, "kind": "check_map",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "linear", "matrix": [[_num(a)]]},
        "control": {"type": "affine", "a": _num(a)},
        "M_dense": "1", "grid_spacing": "0.5",
        "region_radius": "50", "samples": CHECK_MAP_SAMPLES,
        "seed": rng.randrange(2 ** 31),
        "checks": ["control", "embedding", "density"],
    }

    def check(result, done):
        c = result.report["check_map"]
        emb = c["embedding"]
        return c["ok"], (f"control violations {c['control']['violations']}, "
                         f"embedding violations "
                         f"{emb['upper_violations'] + emb['lower_violations']}, "
                         f"density gap {c['density']['max_gap']:.3f}")
    return Op(f"CHECK_MAP_{i}", cfg, check)


def catalog_rest(presets, spaces, seed: int) -> List[Op]:
    """The nine presets not in the other workloads, unchanged at every seed,
    plus seeded siblings of the same config kinds."""
    ops = [_preset_op(presets, pid, copy.deepcopy(presets.PRESETS[pid]),
                      REST_REFERENCES.get(pid)) for pid in REST_PRESETS]
    rng = random.Random(seed)
    ops += [_diag_sibling(rng, i) for i in range(DIAG_SIBLINGS)]
    ops += [_full_enum_sibling(rng, k) for k in (2, 3)]
    ops += [_product_sibling(rng, 1, 2), _product_sibling(rng, 2, 2)]
    ops += [_check_map_sibling(rng, i) for i in range(CHECK_MAP_SIBLINGS)]
    return ops


WORKLOADS = {
    "cone-cantor": cone_cantor,
    "chain-orbits": chain_orbits,
    "catalog-rest": catalog_rest,
}
