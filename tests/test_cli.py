import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_entropy.cli import main
from coarse_entropy.presets import (PRESETS, config_sha256, reproduce,
                                    run_config)


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert sorted(out) == out
    assert set(out) == set(PRESETS)


def test_estimate_writes_json_and_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PRESETS["LINEAR_1D_DOUBLING"]))
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    rc = main(["estimate", "--config", str(cfg),
               "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert rc == 0
    assert "h_inf ~=" in capsys.readouterr().out
    report = json.loads(out_json.read_text())
    assert report["config_sha256"] == config_sha256(PRESETS["LINEAR_1D_DOUBLING"])
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,delta,R,strategy,separated_lower,spanning_upper"
    assert len(lines) > 1


def test_csv_is_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PRESETS["LINEAR_2D_DIAG23"]))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["estimate", "--config", str(cfg), "--out-csv", str(a)]) == 0
    assert main(["estimate", "--config", str(cfg), "--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_config_round_trips(tmp_path):
    exported = tmp_path / "exported.json"
    assert main(["reproduce", "E5_IDENTITY_GROWTH",
                 "--export-config", str(exported)]) == 0
    cfg = json.loads(exported.read_text())
    direct = run_config(cfg)
    via_preset = reproduce("E5_IDENTITY_GROWTH")
    assert direct.csv_lines == via_preset.csv_lines
    assert direct.report["entropy"] == via_preset.report["entropy"]


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema_version": 1, "kind": "entropy"}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_decreasing_deltas_exit_2(tmp_path):
    cfg_data = json.loads(json.dumps(PRESETS["LINEAR_1D_DOUBLING"]))
    cfg_data["schedule"] = cfg_data["schedule"][::-1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    assert main(["estimate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("preset, path, x0, space", [
    ("E1_CONJUGATED", ("x0",), {"coords": ["0", "-5"]}, "Halfplane"),
    ("E2_CHAIN", ("x0",), {"chart": 0, "coords": ["3", "0"]}, "ChainRects"),
    ("LINEAR_1D_DOUBLING", ("x0",), {"coords": ["nan"]}, "Euclidean"),
    ("E3_PRODUCT", ("right", "x0"), {"chart": 0, "coords": ["-1"]}, "ChainSegments"),
    ("E2_CHAIN", ("x0",), {"chart": 3000, "coords": ["0", "0"]}, "ChainRects"),
], ids=["halfplane_below", "chain_rects_outside_block", "nan", "product_factor",
        "chain_rects_block_past_the_floats"])
def test_a_starting_point_outside_the_space_exits_2(tmp_path, capsys, preset, path,
                                                    x0, space):
    cfg_data = json.loads(json.dumps(PRESETS[preset]))
    target = cfg_data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = x0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and f"is not in {space}" in err


def test_missing_config_file_exits_2():
    assert main(["estimate", "--config", "/nonexistent/cfg.json"]) == 2


def test_unknown_preset_exits_2(capsys):
    assert main(["reproduce", "NOT_A_PRESET"]) == 2


def test_budget_env_override_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBIT_BUDGET", "10")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PRESETS["E2_CHAIN"]))
    assert main(["estimate", "--config", str(cfg)]) == 3


def _full_enum(space, mapd, x0, delta, spacing, r, ns):
    return {"schema_version": 1, "kind": "entropy", "space": space, "map": mapd,
            "x0": x0,
            "schedule": [{"delta": delta, "spacing": spacing, "r_values": [r],
                          "n_values": ns, "strategy": "FULL_ENUM",
                          "upper_strategy": "FULL_ENUM"}]}


BUDGET_CONFIGS = {
    "chain-orbit-image": {
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "chain_rects"}, "map": {"type": "chain_linear"},
        "x0": {"chart": 0, "coords": ["0", "0"]},
        "schedule": [{"delta": "4", "spacing": "0.125", "r_values": ["8"],
                      "n_values": [6, 7, 8], "strategy": "ORBIT_IMAGE"}]},
    "spine-full-enum": _full_enum(
        {"type": "spine_blocks", "max_level": 3}, {"type": "identity"},
        {"chart": 2, "coords": ["5", "0"]}, "0.25", "0.25", "0.5", [1, 2, 3]),
    "halfplane-full-enum": _full_enum(
        {"type": "halfplane"}, {"type": "linear", "matrix": [["2", "0"], ["0", "3"]]},
        {"coords": ["0", "0"]}, "0.5", "0.5", "1", [1, 2, 3]),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(BUDGET_CONFIGS)),
       budget=st.one_of(st.integers(1, 2000), st.integers(1, 10 ** 7)))
def test_budget_overrides_exit_0_or_3(tmp_path_factory, name, budget):
    """Whatever the budget, a run either completes or stops with the budget
    error: never a config error or a crash."""
    cfg = tmp_path_factory.mktemp("budget") / "cfg.json"
    cfg.write_text(json.dumps(BUDGET_CONFIGS[name]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ORBIT_BUDGET", str(budget))
        assert main(["estimate", "--config", str(cfg)]) in (0, 3)


def test_coded_overflow_is_a_partial_result_exit_3(tmp_path, capsys):
    cell = {"r_values": ["64"], "strategy": "FINAL_TERM",
            "upper_strategy": "CODED", "lam": "3"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": 2}, "map": {"type": "identity"},
        "x0": {"coords": ["0", "0"]},
        "schedule": [dict(cell, delta="1", n_values=[398, 399, 400]),
                     dict(cell, delta="2", n_values=[4, 5, 6])]}))
    out = tmp_path / "r.json"
    assert main(["estimate", "--config", str(cfg), "--out-json", str(out)]) == 3
    errors = json.loads(out.read_text())["entropy"]["errors"]
    assert len(errors) == 1 and "CODED" in errors[0]


@pytest.mark.parametrize("matrix,lam", [([["2", "0"], ["0", "3"]], "100"),
                                        ([["2", "10"], ["0", "3"]], None)],
                         ids=["declared", "non_normal"])
def test_shadow_hull_lam_without_the_inverse_bound_exits_2(tmp_path, capsys, matrix, lam):
    # with lam 100 the hull gives "upper" counts 2, 5, 15 at n = 5, 6, 7,
    # below the 24-separated final terms FINAL_TERM realizes; for the
    # non-normal matrix the hull misses a one-step pseudoorbit
    cell = {"delta": "4", "r_values": ["12"], "n_values": [5, 6, 7],
            "strategy": "FINAL_TERM", "upper_strategy": "SHADOW_HULL"}
    if lam is not None:
        cell["lam"] = lam
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": 2},
        "map": {"type": "linear", "matrix": matrix},
        "x0": {"coords": ["0", "0"]}, "schedule": [cell]}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert "|A^-1|_2 <= 1/lambda" in capsys.readouterr().err


def test_bad_budget_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBIT_BUDGET", "lots")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PRESETS["LINEAR_1D_DOUBLING"]))
    assert main(["estimate", "--config", str(cfg)]) == 2


def test_bcd_command_requires_bcd_kind(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PRESETS["LINEAR_1D_DOUBLING"]))
    assert main(["bcd", "--config", str(cfg)]) == 2


def test_bcd_command_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "bcd",
        "space": {"type": "euclidean", "dim": 1},
        "region_radius": "0.5",
        "epsilons": ["0.111", "0.037", "0.0123"],
    }))
    assert main(["bcd", "--config", str(cfg)]) == 0
    assert "bcd ~=" in capsys.readouterr().out


def test_bcd_command_rejects_a_product_space(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "bcd",
        "space": {"type": "product",
                  "left": {"type": "euclidean", "dim": 1},
                  "right": {"type": "euclidean", "dim": 1}},
        "region_radius": "1",
        "epsilons": ["0.5", "0.25", "0.125"],
    }))
    assert main(["bcd", "--config", str(cfg)]) == 2
    assert "Product" in capsys.readouterr().err


def test_check_map_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "check_map",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "linear", "matrix": [["2"]]},
        "control": {"type": "affine", "a": "2"},
        "region_radius": "50", "samples": 200, "seed": 5,
        "checks": ["control", "embedding"],
    }))
    out = tmp_path / "r.json"
    assert main(["check-map", "--config", str(cfg), "--out-json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["check_map"]["control"]["violations"] == 0


def test_check_map_with_no_samples_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "check_map",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "linear", "matrix": [["2"]]},
        "control": {"type": "affine", "a": "2"},
        "region_radius": "50", "samples": 0, "checks": ["embedding"],
    }))
    assert main(["check-map", "--config", str(cfg)]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


def test_reproduce_assertion_failure_exits_4(monkeypatch):
    from coarse_entropy import presets
    monkeypatch.setitem(presets.PRESET_ASSERTIONS, "LINEAR_1D_DOUBLING",
                        lambda report, run: (False, "forced failure"))
    assert main(["reproduce", "LINEAR_1D_DOUBLING"]) == 4


@pytest.mark.parametrize("pid", ["LINEAR_1D_DOUBLING", "CO4_CONJUGACY",
                                 "LEM_SELF_PRODUCT"])
def test_reproduce_fast_presets_pass(pid, capsys):
    assert main(["reproduce", pid]) == 0
    assert "PASS" in capsys.readouterr().out
