"""Input generators and output checks for the three benchmark workloads.

Every generator is a pure function of its seed: the program under test sees
only the scenario files, scenario names and arrays built here.  ``small``
selects the reduced sizes the self-test runs; the bundle has one size.

bundle         the 19 bundled scenarios, the RK4 simulations cut to
               BUNDLE_T_END_SHARE of their shipped length, through the CLI.
probe_grid     the residual and convergence scenarios on enlarged probe
               grids plus a seeded reduction sweep, through the CLI.
frame_algebra  a seeded stream of Galilean frame-change items through the
               public API of ``torsor.affine``, checked against the 5x5
               extended-matrix representation.

A pass is a list of short units (one CLI call per scenario, or one chunk
of frame items), so that calibrate.Clock can time each unit between two
reference calls.
"""

import hashlib
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial

import numpy as np

from torsor import cli
from torsor.affine import (
    GalileanFrameChange,
    PointwiseTorsor,
    Torsor,
    compose,
    transform_point,
    transform_stress_mass,
    transform_torsor,
)
from torsor.library import CASES

WORKLOADS = ("bundle", "probe_grid", "frame_algebra")

# Probe-grid parameters of the enlarged residual scenarios, by medium.
GRID_PARAMS = {
    "d0": {"n_t": 200},
    "d1": {"n_s": 200},
    "d2": {"n_side": 15},
    "d3_cauchy": {"n_side": 8},
    "d3_cosserat": {"n_side": 8},
}
SMALL_GRID_PARAMS = {
    "d0": {"n_t": 12},
    "d1": {"n_s": 12},
    "d2": {"n_side": 4},
    "d3_cauchy": {"n_side": 3},
    "d3_cosserat": {"n_side": 3},
}
RANDOM_POINTS = {"cauchy_manufactured": 64}
SMALL_RANDOM_POINTS = {"cauchy_manufactured": 8}

# Seeded reduction sweep: parameter ranges on which every check passes.
SWEEP_VARIANTS = 4
SWEEP_RANGES = {
    "disc_section_moments": {"radius": (0.2, 0.6), "rho0": (1.0, 3.0),
                             "omega": (0.5, 2.0), "v_max": (1.0, 3.0)},
    "thickness_integrals": {"h": (0.1, 0.5), "rho0": (1.0, 3.0),
                            "kappa0": (1.0, 3.0)},
}

# The pointwise simulations of the bundle run for this share of their
# shipped t_end (810 of the shipped 16,200 RK4 steps), so that no single
# CLI call lasts long enough for the machine's speed to drift within it.
BUNDLE_T_END_SHARE = 0.05

FRAME_ITEMS = 4000
SMALL_FRAME_ITEMS = 200
FRAME_CHUNK = 500
ORACLE_TOL = 1e-12

# Scenarios with nonzero check values, run at tolerance scale 0 to prove
# that the failure counter sees FAIL lines.
FAILING_PROBE = ("projectile_residual", "beam_under_gravity")


def _bundled_raw():
    return {name: json.loads(path.read_text())
            for name, path in cli.bundled_scenarios().items()}


def _write_scenarios(raws, scenario_dir):
    """Write each raw scenario to <dir>/<name>.json, validating it first."""
    os.makedirs(scenario_dir, exist_ok=True)
    paths = []
    for raw in raws:
        cli.load_scenario(raw)
        path = os.path.join(scenario_dir, raw["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)
        paths.append(path)
    return paths


def artifact_digests(out_dir):
    """(relative path -> sha256, total bytes) of every file under out_dir."""
    digests, total = {}, 0
    for root, _, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            digests[rel] = hashlib.sha256(data).hexdigest()
            total += len(data)
    return dict(sorted(digests.items())), total


def combined_digest(digests):
    text = "".join(f"{path} {h}\n" for path, h in digests.items())
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class CliOutcome:
    """What one `torsor run` call left behind: exit code, text, error."""

    rc: int
    text: str
    error: str = None


def run_cli(targets, seed, out_dir, tolerance_scale=1.0):
    """One in-process `torsor run`; the only part of a CLI unit timed."""
    buf = io.StringIO()
    argv = ["run", *targets, "--out-dir", out_dir, "--seed", str(seed),
            "--tolerance-scale", repr(float(tolerance_scale))]
    with redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing scenario is a counted failure
            return CliOutcome(rc=-1, text=buf.getvalue(),
                              error=traceback.format_exc())
    return CliOutcome(rc=rc, text=buf.getvalue())


def count_cli_failures(outcome):
    """(attempted, failed): check lines plus one for the call itself.

    A FAIL line is one failure; an exception or a non-zero exit fails the
    call as well.
    """
    lines = outcome.text.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = sum(line.startswith("FAIL ") for line in lines)
    call_failed = outcome.error is not None or outcome.rc != 0
    return passed + failed + 1, failed + int(call_failed)


class CliWorkload:
    """`torsor run` targets; a pass makes one call per target, all into
    one out-dir, which leaves the same artifacts as a single call."""

    def __init__(self, targets, seed):
        self.targets = targets
        self.seed = seed

    def units(self, out_dir):
        return [partial(run_cli, [target], self.seed, out_dir)
                for target in self.targets]

    def failures(self, outcomes):
        """(attempted, failed, errors) over the outcomes of one pass."""
        counts = [count_cli_failures(o) for o in outcomes]
        return (sum(c[0] for c in counts), sum(c[1] for c in counts),
                [o.error for o in outcomes if o.error])


def make_bundle(seed, work_dir, small=False):
    raws = _bundled_raw()
    for raw in raws.values():
        if raw["kind"] == "pointwise_sim":
            t_end = CASES[raw["case"]].defaults["t_end"]
            raw["params"] = dict(raw.get("params", {}),
                                 t_end=t_end * BUNDLE_T_END_SHARE)
    paths = _write_scenarios(raws.values(), os.path.join(work_dir, "scn"))
    return CliWorkload(paths, seed)


def make_probe_grid(seed, work_dir, small=False):
    grid = SMALL_GRID_PARAMS if small else GRID_PARAMS
    random_points = SMALL_RANDOM_POINTS if small else RANDOM_POINTS
    bundled = _bundled_raw()
    raws = []
    for name, raw in bundled.items():
        if raw["kind"] == "residual_check":
            params = dict(grid[raw["medium"]])
            if name in random_points:
                params["n_random"] = random_points[name]
            raws.append(dict(raw, params=params))
        elif raw["kind"] == "convergence":
            raws.append(raw)
    rng = np.random.default_rng(seed)
    for k in range(1 if small else SWEEP_VARIANTS):
        for case, ranges in SWEEP_RANGES.items():
            raw = dict(bundled[case], name=f"{case}_{k}")
            raw["params"] = {key: float(rng.uniform(lo, hi))
                             for key, (lo, hi) in ranges.items()}
            raws.append(raw)
    paths = _write_scenarios(raws, os.path.join(work_dir, "scn"))
    return CliWorkload(paths, seed)


# ---------------------------------------------------------------------------
# frame_algebra


def _pointwise_round_trip(m, p, q, l):
    return PointwiseTorsor.from_torsor(PointwiseTorsor(m, p, q, l).to_torsor())


# The public calls one item makes, by the name its span is traced under.
AFFINE_API = {
    "construct": GalileanFrameChange,
    "compose": compose,
    "inverse": GalileanFrameChange.inverse,
    "transform_point": transform_point,
    "torsor": Torsor,
    "transform_torsor": transform_torsor,
    "transform_stress_mass": transform_stress_mass,
    "pointwise": _pointwise_round_trip,
}


def _random_rotations(rng, shape):
    """Uniform rotations: QR of Gaussian matrices, signs fixed, det +1."""
    q, r = np.linalg.qr(rng.normal(size=shape + (3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., :, 0] *= np.sign(np.linalg.det(q))[..., None]
    return q


class FrameWorkload:
    """Seeded frame-change items and their extended-matrix oracle."""

    def __init__(self, seed, n_items):
        rng = np.random.default_rng(seed)
        n = n_items
        self.u = rng.uniform(-1.0, 1.0, (n, 3, 3))
        self.R = _random_rotations(rng, (n, 3))
        self.tau0 = rng.uniform(-1.0, 1.0, (n, 3))
        self.k = rng.uniform(-1.0, 1.0, (n, 3, 3))
        self.V = rng.uniform(-1.0, 1.0, (n, 4))
        self.T = rng.uniform(-1.0, 1.0, (n, 4))
        a = rng.uniform(-1.0, 1.0, (n, 4, 4))
        self.J = a - np.swapaxes(a, 1, 2)
        b = rng.uniform(-1.0, 1.0, (n, 4, 4))
        self.S = b + np.swapaxes(b, 1, 2)
        self.m = rng.uniform(0.5, 2.0, n)
        self.pql = rng.uniform(-1.0, 1.0, (n, 3, 3))
        self.items = [
            (
                [(self.u[i, j].copy(), self.R[i, j].copy(),
                  float(self.tau0[i, j]), self.k[i, j].copy())
                 for j in range(3)],
                self.V[i].copy(), self.T[i].copy(), self.J[i].copy(),
                self.S[i].copy(), float(self.m[i]),
                self.pql[i, 0].copy(), self.pql[i, 1].copy(),
                self.pql[i, 2].copy(),
            )
            for i in range(n)
        ]

    def units(self, api, chunk=FRAME_CHUNK):
        return [partial(self.run_items, api, lo, lo + chunk)
                for lo in range(0, len(self.items), chunk)]

    def run_items(self, api, lo, hi):
        construct = api["construct"]
        compose_ = api["compose"]
        inverse = api["inverse"]
        point = api["transform_point"]
        torsor = api["torsor"]
        transform = api["transform_torsor"]
        stress = api["transform_stress_mass"]
        pointwise = api["pointwise"]
        out = []
        for frames, V, T, J, S, m, p, q, l in self.items[lo:hi]:
            f1, f2, f3 = (construct(*a) for a in frames)
            c = compose_(compose_(f1, f2), f3)
            out.append((
                c, inverse(c), point(c, V), transform(c, torsor(T, J)),
                stress(c, S), pointwise(m, p, q, l),
            ))
        return out

    def _extended(self):
        E = np.zeros(self.u.shape[:2] + (5, 5))
        E[..., 0, 0] = 1.0
        E[..., 1, 0] = self.tau0
        E[..., 2:, 0] = self.k
        E[..., 1, 1] = 1.0
        E[..., 2:, 1] = self.u
        E[..., 2:, 2:] = self.R
        return E

    def failures(self, chunks):
        """(attempted, failed, errors): items whose outputs differ from the
        5x5 oracle by more than the tolerance, relative to the oracle's own
        scale, count as failed."""
        outputs = [o for chunk in chunks for o in chunk]
        E = self._extended()
        Ec = E[:, 0] @ E[:, 1] @ E[:, 2]
        Ei = np.linalg.inv(Ec)
        n = len(outputs)
        X = np.zeros((n, 5, 5))
        X[:, 0, 1:] = self.T
        X[:, 1:, 0] = -self.T
        X[:, 1:, 1:] = self.J
        Xp = Ei @ X @ np.swapaxes(Ei, 1, 2)
        P = Ec[:, 1:, 1:]
        Sp = P @ self.S @ np.swapaxes(P, 1, 2)
        Vp = (Ei @ np.concatenate([np.ones((n, 1)), self.V], axis=1)[..., None])
        pairs = [
            (np.array([o[0].extended for o in outputs]), Ec),
            (np.array([o[1].extended for o in outputs]), Ei),
            (np.array([o[2] for o in outputs]), Vp[:, 1:, 0]),
            (np.array([o[3].T for o in outputs]), Xp[:, 0, 1:]),
            (np.array([o[3].J for o in outputs]), Xp[:, 1:, 1:]),
            (np.array([o[4] for o in outputs]), Sp),
            (np.array([o[5].m for o in outputs]), self.m),
            (np.array([np.stack([o[5].p, o[5].q, o[5].l]) for o in outputs]),
             self.pql),
        ]
        bad = np.zeros(n, dtype=bool)
        for got, want in pairs:
            axes = tuple(range(1, want.ndim))
            err = np.abs(got - want).max(axis=axes) if axes else np.abs(got - want)
            scale = np.maximum(1.0, np.abs(want).max(axis=axes) if axes
                               else np.abs(want))
            bad |= ~(err <= ORACLE_TOL * scale)
        return n, int(bad.sum()), []


def make_frame_algebra(seed, work_dir, small=False):
    return FrameWorkload(seed, SMALL_FRAME_ITEMS if small else FRAME_ITEMS)


MAKERS = {
    "bundle": make_bundle,
    "probe_grid": make_probe_grid,
    "frame_algebra": make_frame_algebra,
}


def make(name, seed, work_dir, small=False):
    """Generate the inputs of workload `name`; validates any scenarios."""
    return MAKERS[name](seed, work_dir, small)


def failure_probe(out_dir, seed):
    """(attempted, failed) of a CLI call at tolerance scale 0.

    Both scenarios have nonzero check values, so every check must FAIL;
    a zero failure count means the counter cannot see failures.
    """
    outcome = run_cli(list(FAILING_PROBE), seed, out_dir, tolerance_scale=0.0)
    if outcome.error:
        sys.stderr.write(outcome.error)
    return count_cli_failures(outcome)
