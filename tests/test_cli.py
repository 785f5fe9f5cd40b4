"""Command-line contract tests: exit codes, messages, and artifacts.

Everything runs in-process through main(argv) so failures carry real
tracebacks; the full-bundle timing and byte-level determinism sweep live
in the acceptance tests.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsor.cli import (
    _CSV_BLOCK_ROWS,
    FLOAT_FORMAT,
    MAX_PROBE_POINTS,
    _table_csv,
    bundled_scenarios,
    load_scenario,
    load_scenario_file,
    main,
)
from torsor.library import CASES, Table


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


@pytest.mark.parametrize("scale", ["inf", "1e400", "-inf", "nan", "-1"])
def test_tolerance_scale_outside_its_domain_exits_2(tmp_path, capsys, scale):
    # An infinite scale passed every check and a negative one failed them
    # all; both exit 2 before any scenario runs.
    rc = main(["run", "projectile_residual", "--out-dir",
               str(tmp_path / "out"), f"--tolerance-scale={scale}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(
        "error: --tolerance-scale: expected a finite number >= 0, got ")
    assert not (tmp_path / "out").exists()


def test_tolerance_scale_zero_is_accepted(tmp_path, capsys):
    rc = main(["run", "projectile_residual", "--out-dir",
               str(tmp_path / "out"), "--tolerance-scale", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL projectile_residual: ") and "(tol 0)" in out
    summary = json.loads((tmp_path / "out" / "projectile_residual"
                          / "summary.json").read_text())
    assert (summary["passed"], summary["tolerance_scale"]) == (False, 0.0)


@pytest.mark.parametrize("blocker", ["out_dir_is_a_file",
                                     "summary_is_a_directory"])
def test_unusable_out_dir_exits_2(tmp_path, capsys, blocker):
    out_dir = tmp_path / "out"
    if blocker == "out_dir_is_a_file":
        out_dir.write_text("")
    else:
        (out_dir / "projectile_residual" / "summary.json").mkdir(parents=True)
    rc = main(["run", "projectile_residual", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --out-dir: cannot write ")
    assert "Traceback" not in err


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
    assert "dt in (0, 1e+06]" in out


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


@pytest.mark.parametrize("argv", [
    ["list"], ["describe", "hydrostatic"],
    ["run", "hydrostatic", "projectile", "--out-dir"],
], ids=["list", "describe", "run"])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, argv):
    # The read end of the pipe is closed before the child starts, so its
    # first write or flush fails, however stdout is buffered.
    if argv[-1] == "--out-dir":
        argv = [*argv, str(tmp_path)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["torsor"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "torsor.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, check=False)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (141, "")


class _ClosedStream:
    """A stdout without a file descriptor whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_without_a_descriptor_exits_141(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStream())
    assert main(["list"]) == 141


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
    # round(t_end / dt) = 0: no RK4 step, and every check read the start.
    "dt_above_t_end": ("projectile", "pointwise_sim", "d0",
                       {"dt": 10.0}, "t_end"),
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
    # Each ended in a traceback: a division by the key, a check that
    # raised on it, or rng.uniform(-half_width, half_width).
    "radius_zero_disc": ("disc_section_moments", "reduction", "d1",
                         {"radius": 0}, "radius"),
    "omega_zero_disc": ("disc_section_moments", "reduction", "d1",
                        {"omega": 0}, "omega"),
    "rho_s_zero_sphere": ("laplace_sphere", "residual_check", "d2",
                          {"rho_s": 0}, "rho_s", {"type": "case"}),
    "radius_zero_drum": ("spinning_drum", "residual_check", "d2",
                         {"radius": 0}, "radius"),
    "rho0_negative_thickness": ("thickness_integrals", "reduction", "d2",
                                {"rho0": -1}, "rho0"),
    "half_width_negative_cauchy": ("cauchy_manufactured", "residual_check",
                                   "d3_cauchy", {"half_width": -1},
                                   "half_width"),
    # Finite but huge: each overflowed a power of the key in a closed form.
    "radius_huge_disc": ("disc_section_moments", "reduction", "d1",
                         {"radius": 1e300}, "radius"),
    "v_max_huge_disc": ("disc_section_moments", "reduction", "d1",
                        {"v_max": 1e300}, "v_max"),
    "half_width_huge_plate": ("plate_bending", "residual_check", "d2",
                              {"half_width": 1e300}, "half_width"),
    "h_huge_thickness": ("thickness_integrals", "reduction", "d2",
                         {"h": 1e300}, "h"),
    # Finite but huge: each ended in FAIL on a NaN residual, with exit 1.
    "radius_huge_drum": ("spinning_drum", "residual_check", "d2",
                         {"radius": 1e300}, "radius"),
    "radius_huge_sphere": ("laplace_sphere", "residual_check", "d2",
                           {"radius": 1e300}, "radius", {"type": "case"}),
    # Each ended in a traceback: radius^4 underflowed to 0 and divided the
    # spin check, or the section's mass defect overflowed to inf.
    "radius_tiny_disc": ("disc_section_moments", "reduction", "d1",
                         {"radius": 1e-300}, "radius"),
    "rho0_huge_disc": ("disc_section_moments", "reduction", "d1",
                       {"rho0": 1e300}, "rho0"),
    # Each printed a numpy RuntimeWarning before its FAIL line.
    "radius_huge_ring": ("spinning_ring", "residual_check", "d1",
                         {"radius": 1e300}, "radius"),
    "half_width_huge_bucket": ("rotating_bucket", "residual_check",
                               "d3_cauchy", {"half_width": 1e300},
                               "half_width",
                               {"type": "rotating_frame",
                                "g": [0.0, 0.0, -9.81],
                                "Omega": [0.0, 0.0, 2.0]}),
    "h_huge_cauchy": ("cauchy_manufactured", "residual_check", "d3_cauchy",
                      {"h": 1e300}, "h"),
}


@pytest.mark.parametrize("hole", sorted(BAD_PARAMS))
def test_bad_param_exits_2_naming_key(tmp_path, capsys, hole):
    # A sixth entry, if any, is the connection the case needs.
    case, kind, medium, params, key, *conn = BAD_PARAMS[hole]
    scn = _write_scenario(tmp_path / "scn.json", case=case, kind=kind,
                          medium=medium, params=params,
                          connection=conn[0] if conn else {"type": "uniform"})
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


# One malformed connection per row, with the case's default params:
# (case, connection, named key).
BAD_CONNECTIONS = {
    # |Omega| dt = 10: RK4 diverged, and a non-finite state raised.
    "Omega_dt_past_rk4": ("coriolis_rotating_frame",
                          {"type": "rotating_frame", "Omega": [0, 0, 1e5]},
                          "Omega"),
    "g_huge": ("projectile", {"type": "uniform", "g": [0, 0, 1e300]}, "g"),
    # An int too large for a float raised OverflowError.
    "g_int_too_large": ("projectile",
                        {"type": "uniform", "g": [10**400, 0, 0]}, "g"),
}


@pytest.mark.parametrize("hole", sorted(BAD_CONNECTIONS))
def test_bad_connection_exits_2_naming_key(tmp_path, capsys, hole):
    case, connection, key = BAD_CONNECTIONS[hole]
    scn = _write_scenario(tmp_path / "scn.json", case=case, params=None,
                          connection=connection)
    rc = main(["run", str(scn), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: connection.{key}:")
    assert not (tmp_path / "out").exists()


def _hostile_variants():
    """(key, scenario) pairs: each bundled scenario with one param, one
    entry of a list param or one entry of connection.g or .Omega set to a
    hostile value.  A count takes only 0 and -1, never more than its
    default."""
    out = []
    for raw in (json.loads(p.read_text())
                for p in bundled_scenarios().values()):
        params = {**CASES[raw["case"]].defaults, **raw.get("params", {})}
        for value in (0, -1, 1e300, -1e300, 1e-300, -1e-300):
            for key, default in params.items():
                if type(default) is int and type(value) is not int:
                    continue
                spots = range(len(default)) if isinstance(default, list) \
                    else [None]
                for i in spots:
                    new = value if i is None else \
                        default[:i] + [value] + default[i + 1:]
                    out.append((f"params.{key}", dict(
                        raw, params={**raw.get("params", {}), key: new})))
            if raw["connection"]["type"] == "case":
                continue
            for key in ("g", "Omega"):
                for i in range(3):
                    vec = list(raw["connection"].get(key, [0.0] * 3))
                    vec[i] = value
                    out.append((f"connection.{key}", dict(
                        raw, connection={**raw["connection"], key: vec})))
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(_hostile_variants()))
def test_hostile_value_exits_cleanly(variant):
    # Exit 2 names the key, or exit 0 or 1 with a FAIL line for each
    # failed check; never a traceback or a numpy warning, and nothing
    # written outside --out-dir.
    key, raw = variant
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "scn.json"), "w") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main(["run", "scn.json", "--out-dir", "out"])
        finally:
            os.chdir(cwd)
        left = sorted(os.listdir(root))
        written = os.listdir(os.path.join(root, "out")) if rc != 2 else []
    assert [str(w.message) for w in caught] == []
    if rc == 2:
        first = err.getvalue().splitlines()[0]
        assert first.startswith(("error: params.", "error: connection."))
        assert re.search(re.escape(key) + r"\b", first)
        assert left == ["scn.json"]
    else:
        assert rc == int(any(line.startswith("FAIL ")
                             for line in out.getvalue().splitlines()))
        assert left == ["out", "scn.json"] and written == [raw["name"]]


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


# Floats of every kind the format must spell: NaN, both infinities, both
# zeros, subnormals, and ordinary values at the extremes of the range.
_CSV_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                     0.1, 1.0 / 3.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


# Floats whose bits differ where their values compare equal or unordered:
# both zeros, and NaNs with and without the sign bit or a payload.
_CSV_LOOKALIKES = [0.0, -0.0, math.nan, -math.nan,
                   float(np.array(0x7FF8000000000001, dtype=np.uint64)
                         .view(np.float64))]


def _per_value_csv(table):
    """The reference spelling: each value formatted on its own."""
    return "\n".join([table.header] + [
        ",".join(FLOAT_FORMAT % v for v in row)
        for row in np.atleast_2d(table.rows).tolist()]) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 3 * _CSV_BLOCK_ROWS), st.integers(1, 6)),
       pool=st.lists(_CSV_VALUES, min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(_CSV_BLOCK_ROWS, 3), pool=[0.1], seed=0)
@example(shape=(_CSV_BLOCK_ROWS + 1, 2), pool=[0.1], seed=1)
def test_table_csv_formats_each_value_with_the_float_format(shape, pool, seed):
    # The writer spells each distinct float of a block once; it must spell
    # the same bytes as formatting value by value and joining with commas,
    # also where a block holds repeats and floats that compare equal, or
    # unordered, but differ in their bits.
    pool = np.array(pool + _CSV_LOOKALIKES)
    rows = pool[np.random.default_rng(seed).integers(len(pool), size=shape)]
    header = ",".join(f"c{j}" for j in range(shape[1]))
    table = Table("t", header, rows)
    assert _table_csv(table) == _per_value_csv(table)


def test_table_csv_matches_the_reference_on_every_bundled_table():
    for name, path in bundled_scenarios().items():
        scn = load_scenario(json.loads(path.read_text()))
        tables = CASES[scn.case].build(dict(scn.params),
                                       np.random.default_rng(7),
                                       scn.conn_spec).tables
        assert tables, name
        for table in tables:
            assert _table_csv(table) == _per_value_csv(table), name


# Probe grids at the sizes of the benchmark's probe_grid workload, the d3
# ones taller than one block of the writer, with repeated coordinates and
# residuals.
@pytest.mark.parametrize("case, params, n_rows", [
    ("hydrostatic", {"n_side": 8}, 512),
    ("cauchy_manufactured", {"n_side": 8, "n_random": 64}, 576),
    ("plate_bending", {"n_side": 15}, 225),
], ids=["hydrostatic", "cauchy_manufactured", "plate_bending"])
def test_table_csv_matches_the_reference_on_a_large_probe_grid(case, params,
                                                               n_rows):
    raw = json.loads(bundled_scenarios()[case].read_text())
    raw["params"] = {**raw.get("params", {}), **params}
    scn = load_scenario(raw)
    table, = CASES[scn.case].build(dict(scn.params), np.random.default_rng(7),
                                   scn.conn_spec).tables
    assert len(table.rows) == n_rows
    assert _table_csv(table) == _per_value_csv(table)
