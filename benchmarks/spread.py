"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 benchmarks/spread.py --seeds 1-10 --seconds 15
    python3 benchmarks/spread.py --seeds 1-10 --seconds 15 \
        --baseline benchmarks/baseline.json

Runs run.py once per workload and seed, then prints for every end-to-end
metric the median of the runs, their quartiles, and the spread: the
distance between the first and third quartile as a share of the median.
A spread at or above a third of the metric's bound in BENCHMARK.json is
flagged, except for setup_s, whose median only is compared.  With
--baseline it also makes one traced run per workload and writes every
number, with the machine it came from, to the given file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = (ROOT / ".bench_out" / f"{workload}-s{seed}-t{trace}"
                   / "result.json")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return line, record


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", type=_seeds,
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--baseline", default=None,
                        help="write medians, quartiles and a traced run here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    out = {"settings": {"seeds": args.seeds, "seconds": args.seconds},
           "workloads": {}}
    for workload in args.workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {
            "end_to_end": {},
            "fail_ratio": sum(r[0]["failed"] for r in runs)
            / sum(r[0]["attempted"] for r in runs),
            "correct": all(r[0]["correct"] for r in runs),
            "artifacts_sha256": {str(seed): r[1]["artifacts"]["sha256"]
                                 for seed, r in zip(args.seeds, runs)
                                 if "artifacts" in r[1]},
        }
        out["machine"] = runs[-1][1]["machine"]
        for name, bound in bounds.items():
            stats = summarize([r[0]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] >= bound / 3.0:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"{workload:14s} {name:12s} median {stats['median']:.6g}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
        print(f"{workload:14s} fail_ratio {entry['fail_ratio']:.6g}  "
              f"correct {entry['correct']}")
        if args.baseline:
            line, record = _run(workload, args.seeds[0], args.seconds, 1)
            entry["traced"] = {
                "seed": args.seeds[0],
                "correct": line["correct"],
                "per_layer": record["metrics"],
            }
        out["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
