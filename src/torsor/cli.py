"""Command-line runner for the bundled and user-written scenarios.

A scenario is a small JSON file pairing a named analytic case with a
connection block and parameter overrides.  The runner evaluates the case's
checks, prints one PASS/FAIL line per check, and writes the numeric
artifacts (CSV tables plus a summary) under an output directory.  Output
is deterministic for a fixed seed: identical bytes on repeated runs.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
configuration problems (the message names the offending key or flag: a
--tolerance-scale that is not a finite number >= 0, a negative --seed,
or an --out-dir that cannot be written), and 141 when the reader of
stdout closes it early, as `| head` does.
"""

import argparse
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ScenarioError
from .library import CASES, KIND_MEDIA, ConnSpec, _number

SCHEMA_VERSION = 1
FLOAT_FORMAT = "%.17g"
# Cap on round(t_end / dt) for pointwise_sim scenarios.  The bundled ones
# take at most 10**4 steps; the cap stops a mistyped t_end or dt from
# starting a run that would not finish.
MAX_RK4_STEPS = 10**6
# Cap on a residual_check's probe points (the bundled ones take at most 32).
MAX_PROBE_POINTS = 10**5
# Rows per block of the CSV writer, which spells each distinct float of a
# block once.
_CSV_BLOCK_ROWS = 256

_TOP_KEYS = {"schema", "name", "kind", "medium", "case", "connection",
             "params"}
_REQUIRED_KEYS = ("schema", "name", "kind", "medium", "case", "connection")


@dataclass
class Scenario:
    """A validated scenario file, ready to run; params holds every
    parameter of its case, the file's values over the case defaults."""

    name: str
    kind: str
    medium: str
    case: str
    conn_spec: ConnSpec
    params: dict


def _check_param(key, value, default, allowed):
    """Raise ScenarioError unless value has the type of the case default
    and lies in the Range allowed.

    A list default takes a list of the same length of numbers, an int
    default an int and a float default an int or float.  Every Range is
    finite, so it also turns away NaN, infinities and ints too large for
    a float.
    """
    if isinstance(default, list):
        want = f"a list of {len(default)} numbers, each in {allowed}"
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(map(_number, value)))
    elif isinstance(default, int):
        want, ok = f"an integer in {allowed}", type(value) is int
    else:
        want, ok = f"a number in {allowed}", _number(value)
    if not (ok and allowed.admits(value)):
        raise ScenarioError(f"params.{key}: expected {want}, got {value!r}")


def _check_step_count(params, conn_spec):
    """Raise ScenarioError unless the RK4 step count, t_end / dt rounded,
    lies in [1, MAX_RK4_STEPS] (no step would leave every check reading
    the initial state) and |Omega| dt is at most 1, inside RK4's
    stability bound for the frame's rotation (about 1.4)."""
    n_steps = params["t_end"] / params["dt"]
    if not 0 <= n_steps <= MAX_RK4_STEPS or round(n_steps) < 1:
        raise ScenarioError(
            f"params.t_end: t_end / dt = {n_steps:.6g} RK4 steps, outside "
            f"[1, {MAX_RK4_STEPS}] once rounded (check params.t_end and "
            f"params.dt)"
        )
    rate = math.hypot(*conn_spec.Omega.tolist()) * params["dt"]
    if rate > 1.0:
        raise ScenarioError(
            f"connection.Omega: |Omega| dt = {rate:.6g}, above 1, where RK4 "
            f"nears its stability bound (check connection.Omega and "
            f"params.dt)"
        )


def _check_probe_count(medium, params):
    """Raise ScenarioError unless a residual_check evaluates at most
    MAX_PROBE_POINTS points: n_t (d0), n_s (d1), n_side^2 (d2) or
    n_side^3 + n_random (d3)."""
    key, power = {"d0": ("n_t", 1), "d1": ("n_s", 1),
                  "d2": ("n_side", 2)}.get(medium, ("n_side", 3))
    grid = params[key] ** power
    n = grid + params.get("n_random", 0)
    if n > MAX_PROBE_POINTS:
        key = key if grid > MAX_PROBE_POINTS else "n_random"
        raise ScenarioError(f"params.{key}: {n} probe points, above the "
                            f"cap of {MAX_PROBE_POINTS}")


def load_scenario(raw) -> Scenario:
    """Validate a decoded scenario object against the schema and registry.

    Each param, given or default, must fit the type of its case default
    and lie in its declared Range; a pointwise simulation may take at most
    MAX_RK4_STEPS steps and a residual check at most MAX_PROBE_POINTS
    probe points.  Raises ScenarioError naming the offending key on any
    mismatch.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: top level must be an object")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ScenarioError(f"{key}: required key is missing")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"{sorted(unknown)[0]}: unknown key")
    if raw["schema"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema: expected {SCHEMA_VERSION}, got {raw['schema']!r}"
        )
    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: must be a non-empty string")
    if "/" in name or "\\" in name or ".." in name:
        raise ScenarioError(
            f"name: {name!r} must not contain '/', '\\' or '..' (it names "
            f"the scenario's directory under the output root)"
        )
    kind = raw["kind"]
    if kind not in KIND_MEDIA:
        raise ScenarioError(
            f"kind: unknown value {kind!r}, expected one of "
            f"{sorted(KIND_MEDIA)}"
        )
    medium = raw["medium"]
    if medium not in KIND_MEDIA[kind]:
        raise ScenarioError(
            f"medium: {medium!r} is not valid for kind {kind!r}, expected "
            f"one of {sorted(KIND_MEDIA[kind])}"
        )
    case = raw["case"]
    if case not in CASES:
        raise ScenarioError(
            f"case: unknown case {case!r}, expected one of {sorted(CASES)}"
        )
    spec = CASES[case]
    if spec.kind != kind or spec.medium != medium:
        raise ScenarioError(
            f"kind: case {case!r} is registered as "
            f"{spec.kind}/{spec.medium}, not {kind}/{medium}"
        )
    conn_spec = ConnSpec.from_dict(raw["connection"])
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("params: must be an object")
    for key in params:
        if key not in spec.defaults:
            raise ScenarioError(
                f"params.{key}: unknown key (case {case!r} accepts "
                f"{sorted(spec.defaults)})"
            )
    merged = {**spec.defaults, **params}
    for key, value in merged.items():
        _check_param(key, value, spec.defaults[key], spec.ranges[key])
    if kind == "pointwise_sim":
        _check_step_count(merged, conn_spec)
    elif kind == "residual_check":
        _check_probe_count(medium, merged)
    return Scenario(name=name, kind=kind, medium=medium, case=case,
                    conn_spec=conn_spec, params=merged)


def load_scenario_file(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"scenario: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario: {path} is not valid JSON ({exc})")
    return load_scenario(raw)


def bundled_scenarios() -> dict:
    """Name -> packaged path for every scenario JSON shipped in-repo."""
    root = resources.files("torsor") / "scenarios"
    out = {}
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return dict(sorted(out.items()))


def _table_csv(table) -> str:
    """The table as CSV text: its header, then one line per row, each
    value spelled FLOAT_FORMAT % value.

    Probe grids repeat their coordinates and symmetric fields their
    residuals, and a correctly rounded 17-digit spelling costs far more
    than a sort, so each block of rows spells each of its distinct floats
    once.  They are keyed on their bits, which keeps 0.0 ("0") apart from
    -0.0 ("-0"); every NaN spells "nan".  A block at a time bounds the
    memory a large table takes.
    """
    rows = np.atleast_2d(np.asarray(table.rows, dtype=np.float64))
    lines = [table.header]
    for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
        block = np.ascontiguousarray(rows[start:start + _CSV_BLOCK_ROWS])
        bits, inverse = np.unique(block.view(np.uint64),
                                  return_inverse=True)
        words = np.array([FLOAT_FORMAT % v
                          for v in bits.view(np.float64).tolist()],
                         dtype=object)
        # The inverse comes flat from numpy 1.x, shaped as the block from 2.x.
        lines.extend(map(",".join,
                         words[inverse.reshape(block.shape)].tolist()))
    return "\n".join(lines) + "\n"


def run_scenario_obj(scn, out_root, seed=0, tolerance_scale=1.0,
                     stream=None):
    """Run one validated scenario: evaluate, report, write artifacts.

    Returns True when every check passed.  All artifact writing happens
    after the checks are evaluated, so a crash mid-evaluation leaves no
    partial output directory behind.
    """
    stream = stream or sys.stdout
    spec = CASES[scn.case]
    rng = np.random.default_rng(seed)
    result = spec.build(dict(scn.params), rng, scn.conn_spec)

    all_pass = True
    check_rows = []
    for check in result.checks:
        ok = check.passed(tolerance_scale)
        all_pass = all_pass and ok
        tol = check.tol * tolerance_scale
        stream.write(
            f"{'PASS' if ok else 'FAIL'} {scn.name}: {check.name}: "
            f"value {check.value:.6g} (tol {tol:.6g})\n"
        )
        check_rows.append({
            "name": check.name,
            "passed": bool(ok),
            "tolerance": tol,
            "value": float(check.value),
        })

    out_dir = os.path.join(out_root, scn.name)
    table_files = [f"{table.name}.csv" for table in result.tables]
    summary = {
        "case": scn.case,
        "checks": check_rows,
        "kind": scn.kind,
        "medium": scn.medium,
        "name": scn.name,
        "passed": bool(all_pass),
        "schema": SCHEMA_VERSION,
        "seed": int(seed),
        "tables": table_files,
        "tolerance_scale": float(tolerance_scale),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        for table, fname in zip(result.tables, table_files):
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(_table_csv(table))
        with open(os.path.join(out_dir, "summary.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ScenarioError(f"--out-dir: cannot write "
                            f"{exc.filename or out_dir}: "
                            f"{exc.strerror or exc}") from exc
    return all_pass


def _resolve_run_target(target):
    """A run target is a scenario file path or a bundled scenario name."""
    if os.path.exists(target):
        return load_scenario_file(target)
    bundle = bundled_scenarios()
    if target in bundle:
        return load_scenario(json.loads(bundle[target].read_text()))
    raise ScenarioError(
        f"scenario: {target!r} is neither a file nor a bundled scenario "
        f"name (run 'list' to see the bundle)"
    )


def cmd_run(args, stream=None) -> int:
    stream = stream or sys.stdout
    out_root = args.out_dir or os.environ.get("TORSOR_OUT_DIR", ".")
    scale = args.tolerance_scale
    # An infinite scale would pass every check and a negative one fail
    # them all.  0 stays: it fails every check with a nonzero value, which
    # shows that failures are seen.
    if not (math.isfinite(scale) and scale >= 0):
        raise ScenarioError(f"--tolerance-scale: expected a finite number "
                            f">= 0, got {scale!r}")
    scale += 0.0  # -0.0 reads as 0
    if args.seed < 0:
        raise ScenarioError(f"--seed: expected an integer >= 0, got "
                            f"{args.seed}")
    # Targets and out root are checked before any case writes artifacts.
    scenarios = [_resolve_run_target(target) for target in args.scenario]
    if os.path.exists(out_root) and not os.path.isdir(out_root):
        raise ScenarioError(f"--out-dir: cannot write {out_root}: "
                            f"{os.strerror(errno.ENOTDIR)}")
    passed = [run_scenario_obj(scn, out_root, seed=args.seed,
                               tolerance_scale=scale, stream=stream)
              for scn in scenarios]
    return 0 if all(passed) else 1


def cmd_list(args, stream=None) -> int:
    stream = stream or sys.stdout
    for name, path in bundled_scenarios().items():
        scn = load_scenario(json.loads(path.read_text()))
        summary = CASES[scn.case].summary.split(".")[0]
        stream.write(f"{name:28s} {scn.kind}/{scn.medium}: {summary}.\n")
    return 0


def cmd_describe(args, stream=None) -> int:
    stream = stream or sys.stdout
    bundle = bundled_scenarios()
    if args.name not in bundle:
        raise ScenarioError(
            f"scenario: no bundled scenario named {args.name!r} "
            f"(run 'list' to see the bundle)"
        )
    raw = json.loads(bundle[args.name].read_text())
    scn = load_scenario(raw)
    spec = CASES[scn.case]
    stream.write(f"{scn.name} ({scn.kind}, medium {scn.medium})\n")
    stream.write(f"  case: {scn.case}\n")
    stream.write(f"  {spec.summary}\n")
    stream.write(f"  connection: {json.dumps(raw['connection'], sort_keys=True)}\n")
    stream.write(f"  parameters: {json.dumps(scn.params, sort_keys=True)}\n")
    ranges = "; ".join(f"{key} in {spec.ranges[key]}"
                       for key in sorted(spec.ranges))
    stream.write(f"  ranges: {ranges}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsor",
        description="Run balance-law scenarios and write their artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run scenario files or bundled scenario names")
    run.add_argument("scenario", nargs="+",
                     help="scenario JSON path or bundled name")
    run.add_argument("--out-dir", default=None,
                     help="output root (default: $TORSOR_OUT_DIR or '.')")
    run.add_argument("--tolerance-scale", type=float, default=1.0,
                     help="multiply every pass tolerance by this factor")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for randomized probe points")
    run.set_defaults(fn=cmd_run)

    lst = sub.add_parser("list", help="list the bundled scenarios")
    lst.set_defaults(fn=cmd_list)

    desc = sub.add_parser("describe",
                          help="show one bundled scenario in detail")
    desc.add_argument("name", help="bundled scenario name")
    desc.set_defaults(fn=cmd_describe)
    return parser


# parse_args leaves its parser unchanged, so main builds one per process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except ScenarioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull, so that
        # the flush at exit cannot raise again, and exit with the status a
        # shell reports for SIGPIPE.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
