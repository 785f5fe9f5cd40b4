"""Self-test of the benchmark harness, at reduced workload sizes.

    python3 benchmarks/selftest.py

Checks, for every workload, that
- the work counts of a traced pass repeat exactly across two runs with the
  same seed, and so do the artifact digests;
- runs with a first and a second seed both have fail_ratio 0;
and that the failure counter sees failures: a CLI pass at tolerance scale 0
must count failed checks.  Prints one line per check and exits 1 if any
check fails.  Writes only under .bench_out/selftest/ in the checkout.
"""

import shutil
import sys

from worker import ROOT, run_pass  # first: puts the checkout's src/ on the path

import calibrate
import tracing
import workloads

WORK = ROOT / ".bench_out" / "selftest"


def traced_pass(name, seed):
    work_dir = WORK / f"{name}-s{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    wl = workloads.make(name, seed, str(work_dir), small=True)
    return run_pass(wl, str(work_dir), calibrate.Clock(), tracing.Tracer())


def main():
    ok = True

    def report(passed, what):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    for name in workloads.WORKLOADS:
        a, b, c = traced_pass(name, 1), traced_pass(name, 1), traced_pass(name, 2)
        diff = [k for k in tracing.DETERMINISTIC_COUNTS
                if a.layers[k] != b.layers[k]]
        report(not diff, f"{name}: counts repeat with the same seed"
                         + (f", except {diff}" if diff else ""))
        if a.digests is not None:
            report(a.digests == b.digests,
                   f"{name}: artifacts repeat with the same seed")
        for seed, p in ((1, a), (2, c)):
            report(p.failed == 0 and not p.errors,
                   f"{name}: seed {seed} fails {p.failed} of {p.attempted}")
    attempted, failed = workloads.failure_probe(str(WORK / "probe"), 1)
    report(failed > 0, f"tolerance scale 0 counts {failed} of {attempted} "
                       "as failed")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
