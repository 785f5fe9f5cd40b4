"""Spans and counters around the public entry points of each torsor layer.

Nothing here changes the program: `instrument` swaps module attributes for
wrappers that record a span (name, start, end, parent) or bump a counter,
and restores the originals on exit.  Spans stay in memory; `layer_metrics`
turns one pass's spans and counters into the per-layer metrics.
"""

import time
from collections import Counter
from contextlib import contextmanager

from torsor import balance, cli, fd, library, simulate
from torsor.connection import GalileanConnection
from torsor.reduction import CrossSection, ThicknessRule

BALANCE_OPS = {
    "d0": "residual_pointwise",
    "d1": "residual_1d",
    "d2": "residual_2d",
    "cauchy": "residual_cauchy",
    "cosserat": "residual_3d_cosserat",
}
REDUCE_OPS = ("reduce_3d_to_1d_T", "reduce_3d_to_1d_J",
              "reduce_3d_to_1d_force_mass", "reduce_3d_to_2d")
AFFINE_OPS = ("construct", "compose", "inverse", "transform_point", "torsor",
              "transform_torsor", "transform_stress_mass", "pointwise")

# Per-layer metric -> (unit, the end-to-end metric and workload it moves).
LAYER_METRICS = {
    "simulate.steps": ("count", "wall_s on bundle"),
    "simulate.step_us": ("us", "wall_s on bundle"),
    "simulate.run_self_s": ("s", "wall_s on bundle"),
    "connection.field_calls": ("count", "wall_s on bundle"),
    "connection.g_us": ("us", "wall_s on bundle"),
    **{f"balance.{m}.points": ("count", "wall_s on probe_grid")
       for m in BALANCE_OPS},
    **{f"balance.{m}.point_us": ("us", "wall_s on probe_grid")
       for m in BALANCE_OPS},
    "balance.points": ("count", "wall_s on probe_grid"),
    "fd.stencils": ("count", "wall_s on probe_grid"),
    "fd.field_evals": ("count", "wall_s on probe_grid"),
    "fd.evals_per_point": ("1", "wall_s on probe_grid"),
    "fields.christoffel_calls": ("count", "wall_s on probe_grid"),
    "fields.christoffel_us": ("us", "wall_s on probe_grid"),
    "reduction.calls": ("count", "wall_s on probe_grid"),
    "reduction.nodes": ("count", "wall_s on probe_grid"),
    "reduction.reduce_us": ("us", "wall_s on probe_grid"),
    **{f"reduction.{op}_us": ("us", "wall_s on probe_grid")
       for op in REDUCE_OPS},
    "library.build_self_s": ("s", "wall_s on bundle and probe_grid"),
    "library.checks": ("count", "wall_s on bundle and probe_grid"),
    "library.worst_margin": ("1", "diagnostic only"),
    "cli.load_s": ("s", "wall_s on probe_grid"),
    "cli.report_s": ("s", "wall_s on probe_grid"),
    "cli.bytes_written": ("B", "wall_s on probe_grid"),
    "affine.ops": ("count", "wall_s on frame_algebra"),
    **{f"affine.{op}_us": ("us", "wall_s on frame_algebra")
       for op in AFFINE_OPS},
    "trace.overhead": ("1", "traced wall_s / untraced wall_s - 1"),
}

# Counts that must repeat exactly across two runs with the same seed.
DETERMINISTIC_COUNTS = (
    "simulate.steps", "fd.stencils", "fd.field_evals",
    *(f"balance.{m}.points" for m in BALANCE_OPS),
    "reduction.nodes", "cli.bytes_written", "library.checks", "affine.ops",
)


class Tracer:
    """In-memory spans [name, start_ns, end_ns, parent index] and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.worst_margin = 0.0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def wrap_api(self, api):
        return {op: self.wrap(f"affine.{op}", fn) for op, fn in api.items()}


def _patch(patches, owner, attr, value):
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


@contextmanager
def instrument(tracer):
    """Wrap the CLI-reachable entry points of every layer while active."""
    patches = []
    counts = tracer.counts
    wrap = tracer.wrap
    try:
        _patch(patches, simulate, "step", wrap("simulate.step", simulate.step))
        _patch(patches, library, "run_scenario",
               wrap("simulate.run_scenario", library.run_scenario))

        conn_init = GalileanConnection.__init__

        def traced_init(self, *args, **kwargs):
            conn_init(self, *args, **kwargs)
            self.g = wrap("connection.g", self.g)
            self.Omega = wrap("connection.Omega", self.Omega)

        _patch(patches, GalileanConnection, "__init__", traced_init)

        for medium, fn in BALANCE_OPS.items():
            _patch(patches, library, fn,
                   wrap(f"balance.{medium}", getattr(library, fn)))

        diff = fd.diff

        def counted_diff(f, u, *args, **kwargs):
            counts["fd.stencils"] += 1

            def counted_f(x):
                counts["fd.field_evals"] += 1
                return f(x)

            return diff(counted_f, u, *args, **kwargs)

        _patch(patches, fd, "diff", counted_diff)
        _patch(patches, balance, "shell_christoffels",
               wrap("fields.christoffels", balance.shell_christoffels))

        for op in REDUCE_OPS:
            _patch(patches, library, op,
                   wrap(f"reduction.{op}", getattr(library, op)))
        for cls in (CrossSection, ThicknessRule):
            integrate = cls.integrate

            def counted_integrate(self, f, integrate=integrate):
                def counted_f(x):
                    counts["reduction.nodes"] += 1
                    return f(x)

                return integrate(self, counted_f)

            _patch(patches, cls, "integrate", counted_integrate)

        for spec in library.CASES.values():
            build = wrap("library.build", spec.build)

            def counted_build(*args, build=build):
                result = build(*args)
                counts["library.checks"] += len(result.checks)
                for check in result.checks:
                    if check.tol > 0:
                        tracer.worst_margin = max(tracer.worst_margin,
                                                  check.value / check.tol)
                return result

            _patch(patches, spec, "build", counted_build)

        _patch(patches, cli, "load_scenario",
               wrap("cli.load", cli.load_scenario))
        _patch(patches, cli, "run_scenario_obj",
               wrap("cli.run_scenario_obj", cli.run_scenario_obj))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _span_stats(spans):
    """name -> [count, total ns, self ns]; self = span minus its children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {}
    for i, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += end - start
        s[2] += end - start - child_ns[i]
    return stats


def _self_excluding(spans, outer, layers):
    """Total ns of `outer` spans minus their nearest descendants that belong
    to one of `layers` (module prefixes)."""
    total = sum(end - start for name, start, end, _ in spans if name == outer)
    for name, start, end, parent in spans:
        if not name.startswith(layers):
            continue
        while parent >= 0:
            pname = spans[parent][0]
            if pname.startswith(layers):
                break
            if pname == outer:
                total -= end - start
                break
            parent = spans[parent][3]
    return total


def layer_metrics(tracer, bytes_written=0):
    """Per-layer metrics of one traced pass (trace.overhead excluded)."""
    stats = _span_stats(tracer.spans)
    counts = tracer.counts

    def n(name):
        return stats.get(name, (0, 0, 0))[0]

    def mean_us(*names):
        calls = sum(n(x) for x in names)
        total = sum(stats.get(x, (0, 0, 0))[1] for x in names)
        return total / calls / 1e3 if calls else 0.0

    def total_s(name, col=1):
        return stats.get(name, (0, 0, 0))[col] / 1e9

    out = {
        "simulate.steps": n("simulate.step"),
        "simulate.step_us": mean_us("simulate.step"),
        "simulate.run_self_s": total_s("simulate.run_scenario", col=2),
        "connection.field_calls": n("connection.g") + n("connection.Omega"),
        "connection.g_us": mean_us("connection.g"),
    }
    for medium in BALANCE_OPS:
        out[f"balance.{medium}.points"] = n(f"balance.{medium}")
        out[f"balance.{medium}.point_us"] = mean_us(f"balance.{medium}")
    points = sum(n(f"balance.{m}") for m in BALANCE_OPS)
    out["balance.points"] = points
    out["fd.stencils"] = counts["fd.stencils"]
    out["fd.field_evals"] = counts["fd.field_evals"]
    out["fd.evals_per_point"] = (counts["fd.field_evals"] / points
                                 if points else 0.0)
    out["fields.christoffel_calls"] = n("fields.christoffels")
    out["fields.christoffel_us"] = mean_us("fields.christoffels")
    reduce_names = [f"reduction.{op}" for op in REDUCE_OPS]
    out["reduction.calls"] = sum(n(x) for x in reduce_names)
    out["reduction.nodes"] = counts["reduction.nodes"]
    out["reduction.reduce_us"] = mean_us(*reduce_names)
    for op in REDUCE_OPS:
        out[f"reduction.{op}_us"] = mean_us(f"reduction.{op}")
    out["library.build_self_s"] = _self_excluding(
        tracer.spans, "library.build",
        ("simulate.", "balance.", "reduction.")) / 1e9
    out["library.checks"] = counts["library.checks"]
    out["library.worst_margin"] = tracer.worst_margin
    out["cli.load_s"] = total_s("cli.load")
    out["cli.report_s"] = total_s("cli.run_scenario_obj", col=2)
    out["cli.bytes_written"] = bytes_written
    affine_names = [f"affine.{op}" for op in AFFINE_OPS]
    out["affine.ops"] = sum(n(x) for x in affine_names)
    for op in AFFINE_OPS:
        out[f"affine.{op}_us"] = mean_us(f"affine.{op}")
    return out


def spans_record(tracer):
    """Compact JSON-ready form of the spans: a name table plus rows."""
    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start_ns", "end_ns", "parent"],
        "spans": [[index[s[0]], s[1], s[2], s[3]] for s in tracer.spans],
    }
