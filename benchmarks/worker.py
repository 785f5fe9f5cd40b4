"""One benchmark process: set up a workload, time its passes, check outputs.

Started by run.py in a fresh interpreter, so that set-up time covers the
import of torsor.  Imports torsor from the checkout's src/.  Writes its
findings as JSON to <work-dir>/worker.json and nothing to stdout.

    python3 benchmarks/worker.py --workload bundle --seed 1 --seconds 15 \
        --trace 0 --work-dir .bench_out/bundle-s1-t0/main [--setup-only]
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import torsor  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Pass:
    """One timed pass and what its output check found."""

    timing: calibrate.Timing
    attempted: int
    failed: int
    errors: list
    digests: dict = None
    layers: dict = field(default_factory=dict)


def run_pass(wl, work_dir, clock, tracer=None):
    """Time one pass of `wl`, unit by unit on `clock`; the output check
    runs after the last unit."""
    gc.collect()
    timing = calibrate.Timing()
    if isinstance(wl, workloads.FrameWorkload):
        api = (tracer.wrap_api(workloads.AFFINE_API) if tracer
               else workloads.AFFINE_API)
        outputs = [clock.run(unit, timing) for unit in wl.units(api)]
        layers = tracing.layer_metrics(tracer) if tracer else {}
        return Pass(timing, *wl.failures(outputs), layers=layers)

    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    with tracing.instrument(tracer) if tracer else nullcontext():
        outcomes = [clock.run(unit, timing) for unit in wl.units(out_dir)]
    digests, nbytes = workloads.artifact_digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    layers = tracing.layer_metrics(tracer, nbytes) if tracer else {}
    return Pass(timing, *wl.failures(outcomes), digests, layers)


def run_for(wl, work_dir, seconds, trace, clock):
    """Passes until `seconds` have elapsed, at least one.  With `trace`,
    each untraced pass is followed by a traced one.  Returns the untraced
    and traced passes and the tracer of the last traced pass, whose spans
    are written out."""
    untraced, traced, tracer = [], [], None
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(wl, work_dir, clock))
        if trace:
            tracer = tracing.Tracer()
            traced.append(run_pass(wl, work_dir, clock, tracer))
    return untraced, traced, tracer


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    torsor_path = Path(torsor.__file__).resolve()
    try:
        torsor_path = torsor_path.relative_to(ROOT)
    except ValueError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "torsor": str(torsor_path),
    }


def _check_digests(passes):
    """Artifacts must be byte-identical across passes of one seed; a pass
    that differs from the first counts as one more failure."""
    first = passes[0].digests
    for p in passes[1:]:
        if p.digests != first:
            p.attempted += 1
            p.failed += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.work_dir)
    ready = time.monotonic()
    ready_ref = calibrate.time_reference()
    result = {"ready": ready, "ready_ref": ready_ref}
    if not args.setup_only:
        result.update(measure(wl, args, calibrate.Clock(ready_ref)))
    with open(os.path.join(args.work_dir, "worker.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


def _timings(passes):
    return [vars(p.timing) for p in passes]


def measure(wl, args, clock):
    untraced, traced, tracer = run_for(wl, args.work_dir, args.seconds,
                                       args.trace, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = untraced + traced
    if passes[0].digests is not None:
        _check_digests(passes)

    probe_dir = os.path.join(args.work_dir, "failure_probe")
    probe = workloads.failure_probe(probe_dir, args.seed)
    shutil.rmtree(probe_dir, ignore_errors=True)

    out = {
        "machine": machine_info(),
        "untraced": _timings(untraced),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors],
        "failure_probe": {"attempted": probe[0], "failed": probe[1]},
    }
    if passes[0].digests is not None:
        out["artifacts"] = {
            "sha256": workloads.combined_digest(passes[0].digests),
            "files": passes[0].digests,
        }
    if traced:
        layers = [p.layers for p in traced]
        counts_repeat = all(
            all(lay[name] == layers[0][name]
                for name in tracing.DETERMINISTIC_COUNTS)
            for lay in layers[1:]
        )
        merged = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            if name == "trace.overhead":
                continue
            values = [lay[name] for lay in layers]
            merged[name] = values[-1] if unit == "count" else \
                statistics.median(values)
        wall_u = statistics.median(p.timing.scaled_wall_s for p in untraced)
        wall_t = statistics.median(p.timing.scaled_wall_s for p in traced)
        merged["trace.overhead"] = wall_t / wall_u - 1.0
        out["traced"] = _timings(traced)
        out["layers"] = merged
        out["layer_defs"] = tracing.LAYER_METRICS
        out["counts_repeat"] = counts_repeat
        with open(os.path.join(args.work_dir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracing.spans_record(tracer), fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
