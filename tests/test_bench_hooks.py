"""The benchmark's tracer must still find the entry points it wraps.

benchmarks/tracing.py swaps module attributes of torsor by name for
counting wrappers, and benchmarks/workloads.py binds the public calls of
torsor.affine by name.  A refactor that moves, renames or binds one of
them elsewhere would make its counter read 0 or break the benchmark rather
than fail, so this runs traced calls and checks the counters.
"""

import os
import shutil
import subprocess
import sys

from torsor.cli import main

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


def _data_rows(path):
    """Rows of a CSV artifact below its header."""
    return len(path.read_text().splitlines()) - 1


def test_tracer_counts_residual_points_and_nodes(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    with tracing.instrument(tracing.Tracer()) as tracer:
        rc = main(["run", "hydrostatic", "thickness_integrals",
                   "projectile_residual", "--out-dir", str(tmp_path)])
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    # The tracer counts calls: one batched call takes the whole 3^3 grid,
    # and one the 9 times of the parabola.
    assert metrics["balance.cauchy.points"] == 1
    assert _data_rows(tmp_path / "hydrostatic" / "residuals.csv") == 27
    assert metrics["balance.d0.points"] == 1
    assert _data_rows(tmp_path / "projectile_residual"
                      / "residuals.csv") == 9
    assert metrics["fd.field_evals"] > 0
    assert metrics["reduction.nodes"] > 0


def test_tracer_counts_shell_points(tmp_path, monkeypatch, capsys):
    # balance.residual_2d must keep calling shell_christoffels through its
    # module global, which the tracer wraps: one batched call of each for
    # the 3 x 3 grid.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    with tracing.instrument(tracing.Tracer()) as tracer:
        rc = main(["run", "plate_bending", "--out-dir", str(tmp_path)])
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["balance.d2.points"] == 1
    assert metrics["fields.christoffel_calls"] == 1
    assert _data_rows(tmp_path / "plate_bending" / "residuals.csv") == 9


def test_tracer_counts_cosserat_points(tmp_path, monkeypatch, capsys):
    # library must keep calling residual_3d_cosserat through its module
    # global, which the tracer wraps: one batched call for the 3^3 grid.
    # Its stencil must keep going through fd.diff, which the tracer also
    # wraps: one stencil for T and J together.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    with tracing.instrument(tracing.Tracer()) as tracer:
        rc = main(["run", "momentless_hydrostatic", "--out-dir",
                   str(tmp_path)])
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["balance.cosserat.points"] == 1
    assert _data_rows(tmp_path / "momentless_hydrostatic"
                      / "residuals.csv") == 27
    assert metrics["fd.stencils"] == 1
    assert metrics["fd.field_evals"] > 0


def test_tracer_counts_rod_points(tmp_path, monkeypatch, capsys):
    # library must keep calling residual_1d through its module global,
    # which the tracer wraps: one batched call for the 8 points.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    with tracing.instrument(tracing.Tracer()) as tracer:
        rc = main(["run", "spinning_ring", "--out-dir", str(tmp_path)])
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["balance.d1.points"] == 1
    assert _data_rows(tmp_path / "spinning_ring" / "residuals.csv") == 8
    assert metrics["fd.field_evals"] > 0


def test_tracer_counts_rk4_steps_and_field_calls(tmp_path, monkeypatch,
                                                 capsys):
    # run_scenario must keep calling step through its module global, and
    # the stages must keep reading g and Omega through the connection's
    # instance attributes, both of which the tracer wraps.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    from torsor.library import CASES

    defaults = CASES["free_particle"].defaults
    with tracing.instrument(tracing.Tracer()) as tracer:
        rc = main(["run", "free_particle", "--out-dir", str(tmp_path)])
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["simulate.steps"] == round(defaults["t_end"]
                                              / defaults["dt"])
    assert metrics["connection.field_calls"] > 0


def test_tracer_counts_affine_ops(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workloads

    tracer = tracing.Tracer()
    api = tracer.wrap_api(workloads.AFFINE_API)
    work = workloads.FrameWorkload(3, 20)
    chunks = [unit() for unit in work.units(api)]
    attempted, failed, errors = work.failures(chunks)
    assert (attempted, failed, errors) == (20, 0, [])
    # 3 constructions, 2 compositions and one each of the other 6 calls.
    assert tracing.layer_metrics(tracer)["affine.ops"] == 20 * 11


def test_benchmark_selftest_passes_on_a_copy_of_the_checkout(tmp_path):
    # The harness runs the package of its own checkout, so a change to the
    # package that breaks it, such as a renamed entry of
    # workloads.AFFINE_API, fails here.  The copy keeps its writes out of
    # this checkout.
    root = os.path.dirname(BENCH_DIR)
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("src", "benchmarks"):
        shutil.copytree(os.path.join(root, part), tmp_path / part,
                        ignore=skip)
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    report = proc.stdout + proc.stderr
    assert proc.returncode == 0, report
    assert not [line for line in proc.stdout.splitlines()
                if line.startswith("FAIL")], report
