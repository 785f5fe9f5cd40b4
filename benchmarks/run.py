"""Benchmark of the torsor package: one workload, one seed, one JSON line.

    python3 benchmarks/run.py --workload bundle --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; torsor is imported from its src/.  The
workload runs in a fresh worker process (worker.py).  With --trace 0 the
last stdout line holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.  Lines before it give sample counts, the
failure ratio, the machine, and the sha256 of every artifact written.
Everything a run writes goes under .bench_out/ in the checkout.

Times are scaled to one machine speed with the reference computation of
calibrate.py, timed between every two units of work; the report gives the
raw medians next to the scaled ones.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("bundle", "probe_grid", "frame_algebra")

# Fresh interpreters whose set-up time is sampled, the main worker included;
# setup_s reports their median.
SETUP_SAMPLES = 5
# A run must end within this many seconds.
RUN_BUDGET_S = 175.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(args, work_dir, deadline, setup_only=False):
    """Run one worker process; (raw and scaled seconds from launch to
    ready, its report)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    ref_before = calibrate.time_reference()
    launched = time.monotonic()
    timeout = deadline - launched
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded its {timeout:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(work_dir / "worker.json", encoding="utf-8") as fh:
        report = json.load(fh)
    setup = report["ready"] - launched
    return (setup, calibrate.scale_setup(setup, ref_before,
                                         report["ready_ref"])), report


def run_workload(args, deadline):
    """Run one workload; returns the full record of the run."""
    work = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup, rep = _worker(args, work / "main", deadline)
    setups = [setup]
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, work / f"setup{k}", deadline,
                                  setup_only=True)[0])
    raw_setups = [s[0] for s in setups]
    setups = [s[1] for s in setups]

    probe = rep["failure_probe"]
    counts_repeat = rep.get("counts_repeat", True)
    problems = []
    if probe["failed"] == 0:
        problems.append("failure probe at tolerance scale 0 counted no FAIL")
    if not counts_repeat:
        problems.append("work counts differ between traced passes")
    problems += [f"pass raised:\n{e}" for e in rep["errors"]]

    walls = [p["scaled_wall_s"] for p in rep["untraced"]]
    cpus = [p["scaled_cpu_s"] for p in rep["untraced"]]
    if args.trace:
        metrics = {}
        for name, value in rep["layers"].items():
            unit, moves = rep["layer_defs"][name]
            metrics[name] = {"value": value, "unit": unit, "moves": moves,
                             "n": len(rep["traced"])}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s",
                        "n": len(setups)},
            "wall_s": {"value": statistics.median(walls), "unit": "s",
                       "n": len(walls)},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s",
                      "n": len(cpus)},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB",
                            "n": 1},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": rep["machine"],
        "metrics": metrics,
        "samples": {"setup_s": setups, "wall_s": walls, "cpu_s": cpus,
                    "raw_setup_s": raw_setups,
                    "raw_wall_s": [p["wall_s"] for p in rep["untraced"]],
                    "raw_cpu_s": [p["cpu_s"] for p in rep["untraced"]],
                    "traced_wall_s": [p["scaled_wall_s"] for p in
                                      rep.get("traced", [])]},
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "failure_probe": probe,
        "problems": problems,
        "correct": rep["failed"] == 0 and not problems,
    }
    if "artifacts" in rep:
        record["artifacts"] = rep["artifacts"]
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _print_record(rec):
    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"trace {rec['trace']}  seconds {rec['seconds']}")
    print("machine " + json.dumps(rec["machine"], sort_keys=True))
    for name, m in rec["metrics"].items():
        raw = rec["samples"].get("raw_" + name)
        raw = f"  (raw median {statistics.median(raw):.6g})" if raw else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  n={m['n']}{raw}")
    ratio = rec["failed"] / rec["attempted"]
    print(f"  {'fail_ratio':34s} {ratio:.6g} 1  "
          f"n={rec['attempted']} ({rec['failed']} failed)")
    probe = rec["failure_probe"]
    print(f"  failure probe at tolerance scale 0: {probe['failed']} of "
          f"{probe['attempted']} counted as failed")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")
    if "artifacts" in rec:
        print("artifacts " + json.dumps(rec["artifacts"], sort_keys=True))


def _result_line(rec):
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in rec["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torsor" / "__init__.py").is_file():
        sys.stderr.write(f"error: no torsor sources under {ROOT / 'src'}; "
                         "run from the root of a torsor checkout\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    records = []
    try:
        for name in names:
            records.append(run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}),
                deadline))
            _print_record(records[-1])
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(records) == 1:
        line = _result_line(records[0])
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in _result_line(r)["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
