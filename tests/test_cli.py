import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_entropy.cli import main
from coarse_entropy.presets import (PRESETS, ConfigError, build_schedule, config_sha256,
                                    reproduce, run_config)


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


@pytest.mark.parametrize("schedule, message", [
    ([], "schedule has no cells"),
    ([{"delta": "4", "r_values": [], "n_values": [4, 5, 6], "strategy": "LADDER"}],
     "a schedule cell has no r_values"),
    # a cell with no R next to one with an R was dropped, and the run
    # reported h_inf from the other cell alone
    ([{"delta": "4", "r_values": ["32"], "n_values": [4, 5, 6], "strategy": "LADDER"},
      {"delta": "8", "r_values": [], "n_values": [4, 5, 6], "strategy": "LADDER"}],
     "a schedule cell has no r_values"),
    ([{"delta": "4", "r_values": ["32"], "n_values": [], "strategy": "LADDER"}],
     "a schedule cell has no n_values"),
], ids=["no_cells", "no_r", "one_cell_without_r", "no_n"])
def test_a_schedule_without_r_or_n_values_exits_2(tmp_path, capsys, schedule, message):
    cfg_data = json.loads(json.dumps(PRESETS["LINEAR_1D_DOUBLING"]))
    cfg_data["schedule"] = schedule
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


def _with(preset, path, value):
    """A copy of a preset config with the value at ``path`` replaced."""
    cfg = json.loads(json.dumps(PRESETS[preset]))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with(preset, path, x0)))
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


@pytest.mark.parametrize("cfg, message", [
    (_with("LEM_SELF_PRODUCT", ("R",), "nan"), "not a finite number: 'nan'"),
    (_with("LEM_SELF_PRODUCT", ("n",), 2.7), "not a whole number: 2.7"),
    (_with("LEM_SELF_PRODUCT", ("n",), True), "not a number: True"),
    (_full_enum({"type": "euclidean", "dim": 1}, {"type": "identity"}, {"coords": ["0"]},
                "1", "1", "nan", [1, 2, 3]), "not a finite number: 'nan'"),
    (_with("LINEAR_1D_DOUBLING", ("schedule", 0, "n_values"), [2.5, 3, 4]),
     "not a whole number: 2.5"),
], ids=["product_nan_R", "product_fractional_n", "product_bool_n", "full_enum_nan_R",
        "fractional_n_values"])
def test_a_radius_that_is_not_finite_or_an_n_that_is_not_whole_exits_2(tmp_path, capsys,
                                                                      cfg, message):
    """Every d < nan is false, so a NaN radius would count every orbit as
    separated; a fractional n would run a shorter family than asked."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["estimate", "--config", str(path)]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


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


def test_a_cell_over_its_budget_is_a_partial_result_exit_3(tmp_path, capsys):
    # the first cell's final-term grid at n = 38 has ~10^10 points; the
    # second cell is counted and written
    cell = {"r_values": ["64"], "strategy": "FINAL_TERM", "upper_strategy": "SHADOW_HULL"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy", "budget": 100000,
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "linear", "matrix": [["2"]]}, "x0": {"coords": ["0"]},
        "schedule": [dict(cell, delta="1", n_values=[38, 39, 40]),
                     dict(cell, delta="2", n_values=[4, 5, 6])]}))
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["estimate", "--config", str(cfg), "--out-json", str(out),
                 "--out-csv", str(csv)]) == 3
    report = json.loads(out.read_text())["entropy"]
    assert len(report["errors"]) == 1
    assert report["errors"][0].startswith("delta=1.0 R=64.0: lattice region of ~")
    assert list(report["per_delta"]) == ["2.0"]
    assert len(csv.read_text().splitlines()) == 1 + 6


def test_a_laurent_image_past_the_float_range_exits_2(tmp_path, capsys):
    # the level-1 point 1e150 cubes to 1e450
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "laurent", "coeffs": {"3": "1"}}, "x0": {"coords": ["0"]},
        "schedule": [{"delta": "1e150", "r_values": ["1e150"], "n_values": [2, 3, 4],
                      "strategy": "FULL_ENUM", "upper_strategy": "FULL_ENUM"}]}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "invalid config: x ** 3 is past the float range at x = " in err


@pytest.mark.parametrize("matrix,x0,ns,strategy", [
    ([["2", "0"], ["0", "3"]], ["0", "0"], [700, 701, 702], "FINAL_TERM"),
    ([["2"]], ["1e308"], [1, 2, 3], "FINAL_TERM"),
    ([["2"]], ["0"], [1098, 1099, 1100], "FINAL_TERM"),
    ([["2"]], ["1e308"], [1, 2, 3], "FULL_ENUM"),
], ids=["diag23-n700", "final-term-x0-1e308", "n1100", "full-enum-x0-1e308"])
def test_a_grid_box_past_the_float_range_exits_2(tmp_path, capsys, matrix, x0, ns,
                                                 strategy):
    # 3^699 and 2^1099 pass the float range, and so does 2 * 1e308: the box
    # of the first such n fails on its bound, not with an OverflowError, and
    # no numpy warning is printed before
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": len(matrix)},
        "map": {"type": "linear", "matrix": matrix}, "x0": {"coords": x0},
        "schedule": [{"delta": "1", "r_values": ["2"], "n_values": ns,
                      "strategy": strategy}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", "--config", str(cfg)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert re.search(r"invalid config: grid bound (-?inf|nan) of \[.*\] is not finite", err)


def _hull_config(path, matrix, delta, R, ns):
    """An entropy config on the plane: FINAL_TERM below SHADOW_HULL, x0 at 0."""
    path.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy", "space": {"type": "euclidean", "dim": 2},
        "map": {"type": "linear", "matrix": matrix}, "x0": {"coords": ["0", "0"]},
        "schedule": [{"delta": delta, "r_values": [R], "n_values": ns,
                      "strategy": "FINAL_TERM", "upper_strategy": "SHADOW_HULL"}]}))
    return str(path)


def test_shadow_hull_counts_past_2_63_are_written_exactly(tmp_path):
    # the counts at n = 7 and 8 pass 2^63 and are written as exact integers
    cfg = _hull_config(tmp_path / "cfg.json", [["2", "0"], ["0", "3"]], "4", "8.000001",
                       [6, 7, 8])
    csv = tmp_path / "r.csv"
    assert main(["estimate", "--config", cfg, "--out-csv", str(csv)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert {int(r[0]): int(r[5]) for r in rows if r[5]} == {
        6: 2985984008392000005, 7: 17915904031832000014, 8: 107495424186896000080}


def test_a_shadow_hull_past_the_float_range_exits_2(tmp_path, capsys):
    # at n = 1 the final-term set is one point, and the hull, of half-width
    # 1e308, is 2e308 boxes of side 1 wide: past the float range
    cfg = _hull_config(tmp_path / "cfg.json", [["1e308", "0"], ["0", "2"]], "1", "3",
                       [1, 1, 1])
    assert main(["estimate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "invalid config: the shadow hull at n = 1 is past the float range" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
def test_a_shadow_hull_whose_row_norm_overflows_is_counted_exactly(tmp_path):
    # the plain norm of the row (1e200, 0) passes the float range, but the
    # half-width 1e200 does not: the hull is ceil(2e200) by 4 boxes of side 1;
    # at n = 2 the hull is past the float range, so every n is 1 and the fit
    # in n is degenerate
    cfg = _hull_config(tmp_path / "cfg.json", [["1e200", "0"], ["0", "2"]], "1", "3",
                       [1, 1, 1])
    csv = tmp_path / "r.csv"
    assert main(["estimate", "--config", cfg, "--out-csv", str(csv)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [int(r[5]) for r in rows if r[5]] == [math.ceil(2e200) * 4] * 3


def test_a_cone_defect_curve_holds_the_ray_points_at_the_edge_of_its_radius(tmp_path):
    # the points at t = 1 lie within 0.9999999995 + 1e-9 of the apex, so the
    # region of that radius holds them: d(3x, 2x) = |x| reaches 1 there
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "iterate_defect",
        "space": {"type": "cone", "dim": 2,
                  "base": {"kind": "finite_angles", "angles": ["0", "1"]}},
        "map_f": {"type": "homothety", "lam": "2"}, "map_g": {"type": "homothety", "lam": "3"},
        "radii": ["0.9999999995", "2"], "grid_spacing": "0.5", "iterate_k": 1}))
    out = tmp_path / "r.json"
    assert main(["estimate", "--config", str(cfg), "--out-json", str(out)]) == 0
    curve = json.loads(out.read_text())["iterate_defect"]["base_curve"]
    assert curve["defect_curve"] == [[0.9999999995, 1.0], [2.0, 2.0]]
    assert curve["witnesses"] == [[0, 1.0, 0.0], [0, 2.0, 0.0]]


@pytest.mark.parametrize("side,name", [("strategy", "CODED"), ("upper_strategy", "CODED"),
                                       ("strategy", "SHADOW_HULL"),
                                       ("upper_strategy", "LADDER")],
                         ids=["strategy", "upper_strategy", "strategy-SHADOW_HULL",
                              "upper_strategy-LADDER"])
def test_an_unknown_strategy_exits_2_before_any_count(tmp_path, capsys, side, name):
    # CODED, which is gone, gave 3.656e15 as an "upper" count at R = 48 on
    # this config, where FINAL_TERM realizes 2.3e18 pseudoorbits at n = 20
    # that are 96-separated; SHADOW_HULL bounds no lower side and LADDER no
    # upper side, so each is unknown on that side
    cell = {"delta": "8", "r_values": ["48"], "n_values": [18, 19, 20],
            "strategy": "FINAL_TERM", "upper_strategy": "FULL_ENUM", "lam": "3"}
    cell[side] = name
    with pytest.raises(ConfigError, match=f"unknown strategy '{name}' as {side};"):
        build_schedule([cell])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "spine_blocks", "max_level": 60}, "map": {"type": "identity"},
        "x0": {"chart": 0, "coords": ["0"]}, "schedule": [cell]}))
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"invalid config: unknown strategy '{name}'" in err


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


def test_grid_indices_past_int64_exit_2_as_an_invalid_config(tmp_path, capsys):
    # x -> x^2 from 0 on the line: by n = 6 some grid orbits pass 6e20,
    # whose grid indices at spacing 4 do not fit int64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "laurent", "coeffs": {"2": "1"}},
        "x0": {"coords": ["0"]},
        "schedule": [{"delta": "4", "r_values": ["4"], "n_values": [2, 4, 6],
                      "strategy": "FULL_ENUM", "upper_strategy": "FULL_ENUM"}],
    }))
    assert main(["estimate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "past int64" in err


def test_conjugated_doubling_off_the_half_plane_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "entropy",
        "space": {"type": "euclidean", "dim": 1},
        "map": {"type": "conjugated_doubling"},
        "x0": {"coords": ["0"]},
        "schedule": [{"delta": "1", "r_values": ["4"], "n_values": [4, 5, 6],
                      "strategy": "LADDER"}],
    }))
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert "conjugated_doubling maps need a halfplane space" in capsys.readouterr().err
