import json

import numpy as np
import pytest

from coarse_entropy.entropy import _greedy_kept, count_separated, estimate_entropy
from coarse_entropy.orbits import _on_ray_grid, final_terms_lower, validate
from coarse_entropy.presets import (PRESET_ASSERTIONS, PRESETS, ConfigError, build_map,
                                    build_point, build_schedule, build_space,
                                    config_sha256, reproduce)


def test_catalog_is_complete_and_json_serializable():
    assert len(PRESETS) == 12
    assert set(PRESETS) == set(PRESET_ASSERTIONS)
    for pid, cfg in PRESETS.items():
        blob = json.dumps(cfg)          # must be pure data
        assert json.loads(blob) == cfg
        assert len(config_sha256(cfg)) == 64


def test_preset_specs_build():
    for cfg in PRESETS.values():
        if cfg["kind"] == "entropy":
            space = build_space(cfg["space"])
            mapd = build_map(cfg["map"], space)
            x0 = build_point(cfg.get("x0"), space)
            assert mapd.domain.contains(x0)


def test_e3_product_preset_passes():
    result = reproduce("E3_PRODUCT")
    assert result.exit_code == 0
    p = result.report["product"]
    assert p["separated_witness_valid"]
    assert p["spanning_witness_covers"]


def test_lem_self_product_preset_passes():
    result = reproduce("LEM_SELF_PRODUCT")
    assert result.exit_code == 0
    assert result.report["assertion"]["passed"]


def _counted_final_terms(mapd, x0, n, delta, R, spacing):
    """The final-term set a FINAL_TERM count realizes, and the points of it
    that the count counts."""
    if _on_ray_grid(mapd):
        fts = final_terms_lower(mapd, x0, n, delta,
                                spacing if spacing is not None else R / 2.0)
        kept = _greedy_kept(np.array([z.coords for z in fts.points]), R)
        return fts, [fts.points[i] for i in kept]
    fts = final_terms_lower(mapd, x0, n, delta, R)
    return fts, fts.points


@pytest.mark.parametrize("pid", [
    pid for pid, cfg in PRESETS.items() if cfg["kind"] == "entropy"
    and any(c["strategy"] == "FINAL_TERM" for c in cfg["schedule"])])
def test_final_term_preset_counts_are_realized(pid):
    """At the smallest n of every FINAL_TERM cell, the count is the size of
    a realized set, and sampled counted points rebuild into valid orbits."""
    cfg = PRESETS[pid]
    space = build_space(cfg["space"])
    mapd = build_map(cfg["map"], space)
    x0 = build_point(cfg.get("x0"), space)
    rng = np.random.default_rng(0)
    for cell in build_schedule(cfg["schedule"]):
        if cell.strategy != "FINAL_TERM":
            continue
        n = min(cell.n_values)
        for R in cell.r_values:
            rec = count_separated(mapd, x0, n, R, cell.delta, "FINAL_TERM",
                                  cell.spacing)
            fts, counted = _counted_final_terms(mapd, x0, n, cell.delta, R,
                                                cell.spacing)
            assert rec.separated_lower == max(len(counted), 1)
            for i in rng.choice(len(counted), min(len(counted), 25), replace=False):
                z = counted[i]
                orbit = fts.reconstruct(z)
                assert orbit.length == n
                assert orbit.points[0] == x0 and orbit.points[-1] == z
                assert validate(orbit), (cell.delta, R, z)


@pytest.mark.parametrize("pid", ["LINEAR_2D_DIAG23", "E1_CONJUGATED"])
def test_preset_csv_counts_parse_back_to_the_records(pid):
    """Each CSV count parses back to the record's value. Both presets have
    counts that six significant digits would round: E1's LADDER count
    1634509 and DIAG23's SHADOW_HULL bound 241864704."""
    cfg = PRESETS[pid]
    space = build_space(cfg["space"])
    mapd = build_map(cfg["map"], space)
    est = estimate_entropy(mapd, build_point(cfg.get("x0"), space),
                           build_schedule(cfg["schedule"]))
    rows = est.csv_lines()[1:]
    assert len(rows) == len(est.records)
    for rec, row in zip(est.records, rows):
        sep, span = row.split(",")[4:]
        assert (float(sep) if sep else None) == rec.separated_lower
        assert (float(span) if span else None) == rec.spanning_upper
    assert max(max(r.separated_lower or 0, r.spanning_upper or 0)
               for r in est.records) >= 10 ** 6


@pytest.mark.parametrize("space_spec,map_spec", [
    ({"type": "euclidean", "dim": 1}, {"type": "conjugated_doubling"}),
    ({"type": "euclidean", "dim": 2}, {"type": "conjugated_doubling"}),
    ({"type": "halfplane"}, {"type": "laurent", "coeffs": {"2": "1"}}),
    ({"type": "euclidean", "dim": 2}, {"type": "affine", "a": "2", "b": "0"}),
    ({"type": "chain_segments", "role": "f"}, {"type": "affine", "a": "2", "b": "0"}),
    ({"type": "halfline", "low": "2"},
     {"type": "affine", "a": "1", "b": "0", "codomain": {"type": "halfplane"}}),
    ({"type": "euclidean", "dim": 2},
     {"type": "iterate", "base": {"type": "laurent", "coeffs": {"2": "1"}}, "k": 2}),
], ids=["doubling-line", "doubling-plane", "laurent-halfplane", "affine-plane",
        "affine-segments", "affine-codomain", "iterated-laurent-plane"])
def test_build_map_rejects_a_map_that_does_not_fit_its_space(space_spec, map_spec):
    with pytest.raises(ConfigError, match="maps need"):
        build_map(map_spec, build_space(space_spec))


def test_build_map_accepts_one_dimensional_laurent_and_affine_maps():
    for spec in ({"type": "euclidean", "dim": 1}, {"type": "halfline", "low": "2"}):
        space = build_space(spec)
        assert build_map({"type": "laurent", "coeffs": {"2": "1"}}, space).domain == space
        assert build_map({"type": "affine", "a": "1", "b": "1"}, space).domain == space
    assert build_map({"type": "conjugated_doubling"}, build_space({"type": "halfplane"}))
