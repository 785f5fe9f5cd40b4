"""Command-line contract tests: exit codes, messages, and artifacts.

Everything runs in-process through main(argv) so failures carry real
tracebacks; the full-bundle timing and byte-level determinism sweep live
in the acceptance tests.
"""

import json
import math
import subprocess
import sys

import pytest

from torsor.cli import (
    MAX_PROBE_POINTS,
    bundled_scenarios,
    load_scenario,
    load_scenario_file,
    main,
)


def _write_scenario(path, **overrides):
    doc = {
        "schema": 1,
        "name": "local_free",
        "kind": "pointwise_sim",
        "medium": "d0",
        "case": "free_particle",
        "connection": {"type": "uniform"},
        "params": {"dt": 0.01, "t_end": 0.1, "stride": 5},
    }
    doc.update(overrides)
    for key, value in list(doc.items()):
        if value is None:
            del doc[key]
    path.write_text(json.dumps(doc))
    return path


def test_run_local_scenario_passes(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json")
    rc = main(["run", str(scn), "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    assert (tmp_path / "out" / "local_free" / "trajectory.csv").exists()
    summary = json.loads(
        (tmp_path / "out" / "local_free" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["schema"] == 1


def test_run_bundled_name(tmp_path, capsys):
    rc = main(["run", "free_particle", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "free_particle" / "trajectory.csv").read_text()
    assert csv.splitlines()[0].startswith("t,m,x1")


def test_tolerance_scale_forces_failure(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json")
    rc = main(["run", str(scn), "--out-dir", str(tmp_path / "out"),
               "--tolerance-scale", "1e-20"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    summary = json.loads(
        (tmp_path / "out" / "local_free" / "summary.json").read_text())
    assert summary["passed"] is False


def test_missing_connection_names_key(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json", connection=None)
    rc = main(["run", str(scn)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "connection" in err


def test_unknown_param_names_key(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json", params={"dx": 1.0})
    rc = main(["run", str(scn)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "params.dx" in err


def test_wrong_schema_version(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json", schema=2)
    rc = main(["run", str(scn)])
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_medium_incompatible_with_kind(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json", medium="d3_cauchy")
    rc = main(["run", str(scn)])
    assert rc == 2
    assert "medium" in capsys.readouterr().err


def test_case_kind_mismatch(tmp_path, capsys):
    scn = _write_scenario(
        tmp_path / "scn.json", kind="residual_check", medium="d0")
    rc = main(["run", str(scn)])
    assert rc == 2
    assert "kind" in capsys.readouterr().err


def test_unknown_case_named(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "scn.json", case="warp_drive")
    rc = main(["run", str(scn)])
    assert rc == 2
    assert "case" in capsys.readouterr().err


def test_invalid_json_reports_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", str(bad)])
    assert rc == 2
    assert "bad.json" in capsys.readouterr().err


def test_missing_target_is_config_error(capsys):
    rc = main(["run", "no_such_scenario_anywhere"])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_list_names_all_bundled(capsys):
    rc = main(["list"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(bundled_scenarios()) == 19
    assert any(line.startswith("pointwise_coriolis") for line in lines)
    assert any("d3_cosserat" in line for line in lines)


def test_describe_bundled(capsys):
    rc = main(["describe", "pointwise_coriolis"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Coriolis" in out
    assert "rotating_frame" in out


def test_describe_unknown_exits_2(capsys):
    rc = main(["describe", "nope"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORSOR_OUT_DIR", str(tmp_path))
    scn = _write_scenario(tmp_path / "scn.json")
    rc = main(["run", str(scn)])
    assert rc == 0
    assert (tmp_path / "local_free" / "summary.json").exists()


def test_repeat_runs_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        rc = main(["run", "cauchy_manufactured", "--seed", "5",
                   "--out-dir", str(tmp_path / sub)])
        assert rc == 0
    for fname in ("residuals.csv", "summary.json"):
        a = (tmp_path / "a" / "cauchy_manufactured" / fname).read_bytes()
        b = (tmp_path / "b" / "cauchy_manufactured" / fname).read_bytes()
        assert a == b, fname


def test_seed_changes_random_probes(tmp_path, capsys):
    for sub, seed in (("a", "1"), ("b", "2")):
        rc = main(["run", "cauchy_manufactured", "--seed", seed,
                   "--out-dir", str(tmp_path / sub)])
        assert rc == 0
    a = (tmp_path / "a" / "cauchy_manufactured" / "residuals.csv").read_bytes()
    b = (tmp_path / "b" / "cauchy_manufactured" / "residuals.csv").read_bytes()
    assert a != b


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; the flags of one call must
    # not carry over into the next, whose artifacts equal a fresh process's.
    assert main(["run", "cauchy_manufactured", "--seed", "3",
                 "--tolerance-scale", "0", "--out-dir",
                 str(tmp_path / "a")]) == 1
    assert main(["run", "cauchy_manufactured", "--out-dir",
                 str(tmp_path / "b")]) == 0
    out = tmp_path / "b" / "cauchy_manufactured"
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["seed"], summary["tolerance_scale"]) == (0, 1.0)
    subprocess.run([sys.executable, "-m", "torsor.cli", "run",
                    "cauchy_manufactured", "--out-dir", str(tmp_path / "c")],
                   capture_output=True, check=True)
    fresh = tmp_path / "c" / "cauchy_manufactured"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in fresh.iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name


def test_bundled_files_are_valid_scenarios():
    for name, path in bundled_scenarios().items():
        scn = load_scenario_file(str(path))
        assert scn.name == name


def test_run_multiple_targets_aggregates_exit(tmp_path, capsys):
    good = _write_scenario(tmp_path / "good.json")
    rc = main(["run", str(good), "free_particle",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


def test_name_that_escapes_out_dir_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out" / "a" / "b"
    for name in ("../../escape", "sub/dir", "sub\\dir", ".."):
        scn = _write_scenario(tmp_path / "scn.json", name=name)
        rc = main(["run", str(scn), "--out-dir", str(out_dir)])
        assert rc == 2, name
        assert capsys.readouterr().err.startswith("error: name:"), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]


# One malformed param per row: (case, kind, medium, params, named key).
BAD_PARAMS = {
    "dt_string": ("free_particle", "pointwise_sim", "d0",
                  {"dt": "abc"}, "dt"),
    "dt_null": ("free_particle", "pointwise_sim", "d0", {"dt": None}, "dt"),
    "dt_negative": ("free_particle", "pointwise_sim", "d0",
                    {"dt": -1}, "dt"),
    "stride_zero": ("free_particle", "pointwise_sim", "d0",
                    {"stride": 0}, "stride"),
    "t_end_endless": ("free_particle", "pointwise_sim", "d0",
                      {"t_end": 1e300}, "t_end"),
    "n_side_zero": ("hydrostatic", "residual_check", "d3_cauchy",
                    {"n_side": 0}, "n_side"),
    "n_side_bool": ("hydrostatic", "residual_check", "d3_cauchy",
                    {"n_side": True}, "n_side"),
    "t_span_short": ("projectile_residual", "residual_check", "d0",
                     {"t_span": [1]}, "t_span"),
    "steps_repeated": ("cauchy_convergence", "convergence", "d3_cauchy",
                       {"steps": [1e-3, 1e-3, 1e-3]}, "steps"),
    # An observed order needs at least three steps.
    "steps_two": ("cauchy_convergence", "convergence", "d3_cauchy",
                  {"steps": [2e-3, 1e-3]}, "steps"),
    # One probe point above MAX_PROBE_POINTS for each medium family.
    "n_t_over_cap": ("projectile_residual", "residual_check", "d0",
                     {"n_t": 100_001}, "n_t"),
    "n_s_over_cap": ("beam_under_gravity", "residual_check", "d1",
                     {"n_s": 100_001}, "n_s"),
    "n_side_over_cap_d2": ("plate_bending", "residual_check", "d2",
                           {"n_side": 317}, "n_side"),
    "n_side_over_cap_d3": ("hydrostatic", "residual_check", "d3_cauchy",
                           {"n_side": 47}, "n_side"),
    "n_random_over_cap": ("cauchy_manufactured", "residual_check",
                          "d3_cauchy", {"n_side": 3, "n_random": 99_974},
                          "n_random"),
    "rho0_negative_cosserat": ("momentless_hydrostatic", "residual_check",
                               "d3_cosserat", {"rho0": -1}, "rho0"),
    "radius_zero_ring": ("spinning_ring", "residual_check", "d1",
                         {"radius": 0}, "radius"),
    "h_negative_thickness": ("thickness_integrals", "reduction", "d2",
                             {"h": -0.3}, "h"),
    "rho0_negative_disc": ("disc_section_moments", "reduction", "d1",
                           {"rho0": -1}, "rho0"),
    # The probe grid's corners lie outside a sphere this small.
    "radius_small_sphere": ("laplace_sphere", "residual_check", "d2",
                            {"radius": 0.1}, "radius"),
}


@pytest.mark.parametrize("hole", sorted(BAD_PARAMS))
def test_bad_param_exits_2_naming_key(tmp_path, capsys, hole):
    case, kind, medium, params, key = BAD_PARAMS[hole]
    scn = _write_scenario(tmp_path / "scn.json", case=case, kind=kind,
                          medium=medium, params=params)
    rc = main(["run", str(scn), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: params.{key}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, key", [
    ("gravity_top", "g"),
    ("spinning_frame_precession", "Omega"),
])
def test_zero_axis_connection_exits_2_naming_key(tmp_path, capsys, case, key):
    # Each case takes its reference axis from a connection vector, which
    # must not vanish.
    scn = _write_scenario(tmp_path / "scn.json", case=case,
                          connection={"type": "uniform", key: [0, 0, 0]})
    rc = main(["run", str(scn), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: connection.{key}:")
    assert not (tmp_path / "out").exists()


def test_probe_count_at_cap_is_accepted():
    doc = {"schema": 1, "name": "at_cap", "kind": "residual_check",
           "medium": "d3_cauchy", "case": "cauchy_manufactured",
           "connection": {"type": "uniform"},
           "params": {"n_side": 3, "n_random": MAX_PROBE_POINTS - 27}}
    assert load_scenario(doc).params["n_random"] == MAX_PROBE_POINTS - 27


def test_non_monotone_convergence_is_a_failed_check(tmp_path, capsys):
    # Steps this small drown the truncation error in roundoff, so the
    # errors grow under refinement: the order check fails on NaN, the
    # artifacts are written and the exit code is 1.
    scn = _write_scenario(tmp_path / "scn.json", name="rod_tiny_steps",
                          kind="convergence", medium="d1",
                          case="rod_convergence",
                          params={"steps": [1e-7, 1e-8, 1e-9]})
    rc = main(["run", str(scn), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL rod_tiny_steps: observed order minus two: "
                          "value nan")
    out_dir = tmp_path / "out" / "rod_tiny_steps"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["passed"] is False
    assert math.isnan(summary["checks"][0]["value"])
    assert (out_dir / "convergence.csv").read_text().count("\n") == 4
