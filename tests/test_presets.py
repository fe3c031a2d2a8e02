import json
import os
import subprocess
import sys

import numpy as np
import pytest

from coarse_entropy import presets
from coarse_entropy.entropy import (_greedy_kept, count_product, count_separated,
                                    estimate_entropy)
from coarse_entropy.orbits import _on_ray_grid, final_terms_lower, validate
from coarse_entropy.presets import (PRESET_ASSERTIONS, PRESETS, ConfigError, build_map,
                                    build_point, build_schedule, build_space,
                                    config_sha256, reproduce, run_config)


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


def test_a_kept_net_closer_than_r_fails_the_witness_recheck(monkeypatch):
    """separated_witness_valid also rechecks the kept factor nets, rebuilt
    as pseudoorbits, through orbit_distance: a left net whose two orbits
    are closer than R reads false though the matrix check passed."""
    def corrupted(left, right, R, budget):
        rec = count_product(left, right, R, budget)
        rec.kept_left = np.array([0, 1])  # (0, -1, -2) and (0, -1, -1), 1 apart
        return rec

    cfg = PRESETS["LEM_SELF_PRODUCT"]
    assert run_config(cfg).report["product"]["separated_witness_valid"] is True
    monkeypatch.setattr(presets, "count_product", corrupted)
    p = run_config(cfg).report["product"]
    assert p["separated_witness_valid"] is False
    assert p["left_separated"] == 2


def test_e3_product_and_e2_chain_leave_numpy_ma_unloaded():
    """The first ``np.unique`` of a process imports ``numpy.ma`` (numpy 2.x),
    about 0.5 MiB resident; the multi-chart rows of the chain presets must
    not need it."""
    import coarse_entropy
    src = os.path.dirname(os.path.dirname(coarse_entropy.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from coarse_entropy.presets import reproduce\n"
            "print('numpy.ma' in sys.modules)\n"
            "for pid in ('E3_PRODUCT', 'E2_CHAIN'):\n"
            "    assert reproduce(pid).exit_code == 0, pid\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    at_import, after = out.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


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
