"""Named analytic scenario cases: field bundles with their reference checks.

Each case couples a set of closed-form or manufactured fields to the checks
a scenario run evaluates, so the command-line runner stays a thin dispatch
layer.  The connection enters through a validated ConnSpec parsed from the
scenario file, which keeps the file the single source of truth for frame
numbers; cases derive their reference solutions from those numbers, so an
edited connection changes the physics rather than being ignored.  Every
bundled case is deterministic for a fixed seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fd
from .balance import (
    residual_1d,
    residual_2d,
    residual_3d_cosserat,
    residual_cauchy,
    residual_pointwise,
)
from .connection import PROBE_CHUNK, GalileanConnection
from .errors import NonMonotoneError, ScenarioError
from .fields import (
    CauchyMedium,
    Cosserat1DField,
    Cosserat3DState,
    Curve1D,
    ShellField,
    ShellLoads,
    assemble_cauchy_T,
)
from .reduction import (
    CrossSection,
    ThicknessRule,
    projector_matrix,
    reduce_3d_to_1d_J,
    reduce_3d_to_1d_T,
    reduce_3d_to_1d_force_mass,
    reduce_3d_to_2d,
)
from .simulate import (
    TRAJECTORY_CSV_HEADER,
    IntegratorConfig,
    PointwiseState,
    observed_order,
    run_scenario,
)
from .vecmath import constant_field, cross, cross3, rotation, strict_max

RESIDUAL_COLUMNS = (
    "res_mass,res_lin1,res_lin2,res_lin3,"
    "res_pos1,res_pos2,res_pos3,res_ang1,res_ang2,res_ang3"
)

CONNECTION_TYPES = ("uniform", "rotating_frame", "case")

# Largest magnitude of any float param, and of connection.g and
# connection.Omega: the closed forms raise params to powers (radius^4, h^3,
# v_max^2, half_width^2) and multiply them together, and a finite 1e300
# would overflow them.
MAX_SCALE = 1e6


@dataclass(frozen=True)
class Range:
    """The values a param may take: lo <= value <= hi, and not 0 when
    nonzero.  A list param's range holds for each entry, and its entries
    must differ from each other when distinct."""

    lo: float
    hi: float = MAX_SCALE
    nonzero: bool = False
    distinct: bool = False

    def admits(self, value) -> bool:
        values = value if isinstance(value, list) else [value]
        return (all(self.lo <= v <= self.hi and not (self.nonzero and v == 0)
                    for v in values)
                and not (self.distinct and len(set(values)) < len(values)))

    def __str__(self):
        text = f"[{self.lo:g}, {self.hi:g}]"
        if self.nonzero:
            text = (f"({text[1:]}" if self.lo == 0 else
                    f"{text} without 0")
        return text + (", distinct" if self.distinct else "")


ANY = Range(-MAX_SCALE)
NONZERO = Range(-MAX_SCALE, nonzero=True)
NONNEGATIVE = Range(0.0)
POSITIVE = Range(0.0, nonzero=True)
COUNT = Range(1)
# A length that a closed form divides by or raises to a power.
LENGTH = Range(1.0 / MAX_SCALE)
# A finite-difference step, or the distinct steps of a refinement study.
STEP = Range(0.0, 1.0, nonzero=True)
STEPS = Range(0.0, 1.0, nonzero=True, distinct=True)
# A coordinate of the manufactured fields, which grow like exp(x / 3).
MANUFACTURED = Range(-100.0, 100.0)

# The identity against a batch's point axis: (3, 3, 1).
_EYE3 = np.eye(3)[..., None]


def _dot3(a, x):
    """a . x for a 3-vector a and x of shape (3, m), point by point in
    fixed order, so that no point's value depends on the batch it is in
    (a matrix product may sum in another order by position)."""
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2]


def _number(value) -> bool:
    """True for an int or a float; bool is never a number."""
    return type(value) in (int, float)


@dataclass
class ConnSpec:
    """Connection block of a scenario file: a frame, not yet callables.

    type "uniform" holds constant g and Omega; "rotating_frame" adds the
    centrifugal field -Omega x (Omega x x) on top of g; "case" declares
    that the case supplies its own position-dependent connection (used
    where no constant spec can express it, e.g. a radial pull).
    """

    type: str = "uniform"
    g: np.ndarray = None
    Omega: np.ndarray = None

    def __post_init__(self):
        if self.type not in CONNECTION_TYPES:
            raise ScenarioError(
                f"connection.type: unknown value {self.type!r}, expected "
                f"one of {sorted(CONNECTION_TYPES)}"
            )
        self.g = _vec3_key(self.g, "connection.g")
        self.Omega = _vec3_key(self.Omega, "connection.Omega")

    @classmethod
    def from_dict(cls, d) -> "ConnSpec":
        if not isinstance(d, dict):
            raise ScenarioError("connection: must be an object")
        unknown = set(d) - {"type", "g", "Omega"}
        if unknown:
            raise ScenarioError(
                f"connection.{sorted(unknown)[0]}: unknown key"
            )
        return cls(type=d.get("type", "uniform"), g=d.get("g"),
                   Omega=d.get("Omega"))

    def build(self) -> GalileanConnection:
        if self.type == "case":
            raise ScenarioError(
                "connection.type: 'case' is only valid for scenarios whose "
                "case defines its own connection"
            )
        if self.type == "rotating_frame":
            return GalileanConnection.rotating_frame(self.Omega, g=self.g)
        return GalileanConnection(g=self.g, Omega=self.Omega)


def _vec3_key(value, key):
    """value as a (3,) array of magnitude at most MAX_SCALE, zeros for
    None; a list, as JSON gives, must hold three ints or floats.  Raises
    ScenarioError naming key otherwise."""
    if value is None:
        return np.zeros(3)
    try:
        if type(value) is list and not all(map(_number, value)):
            raise TypeError
        out = np.asarray(value, dtype=float).reshape(3)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{key}: expected 3 numbers, got {value!r}")
    if not np.all(np.isfinite(out)):
        raise ScenarioError(f"{key}: entries must be finite")
    if not math.hypot(*out.tolist()) <= MAX_SCALE:
        raise ScenarioError(
            f"{key}: magnitude must be at most {MAX_SCALE:g}, got {value!r}")
    return out


@dataclass
class Check:
    """One pass/fail line: measured value against its tolerance."""

    name: str
    value: float
    tol: float

    def passed(self, scale: float = 1.0) -> bool:
        return self.value <= self.tol * scale


@dataclass
class Table:
    """A CSV artifact: file stem, comma-joined header, numeric rows."""

    name: str
    header: str
    rows: np.ndarray


@dataclass
class CaseResult:
    checks: list
    tables: list = field(default_factory=list)


@dataclass
class CaseSpec:
    """A registered case: defaults maps each param to its default value,
    ranges each param to the Range its values must lie in."""

    kind: str
    medium: str
    summary: str
    defaults: dict
    ranges: dict
    build: callable


CASES = {}

# kind -> media it may legally pair with
KIND_MEDIA = {
    "pointwise_sim": {"d0"},
    "residual_check": {"d0", "d1", "d2", "d3_cauchy", "d3_cosserat"},
    "reduction": {"d1", "d2"},
    "convergence": {"d1", "d3_cauchy"},
}


def _case(name, kind, medium, summary, params):
    """Register a case; params maps each key to (default, Range)."""
    def wrap(fn):
        CASES[name] = CaseSpec(
            kind=kind, medium=medium, summary=summary,
            defaults={key: d for key, (d, _) in params.items()},
            ranges={key: r for key, (_, r) in params.items()}, build=fn,
        )
        return fn
    return wrap


def _traj_table(traj):
    return Table("trajectory", TRAJECTORY_CSV_HEADER, traj.rows())


def _worst(residuals):
    """The worst |residual| over rows of residuals, NaN if any is NaN."""
    return strict_max(np.max(np.abs(residuals), axis=1).tolist())


def _residual_case(check, tol, header, rows, view, exact=None):
    """A residual_check result over probe rows.

    The rows are cut into blocks of PROBE_CHUNK; view(*columns) returns
    the BalanceResidual of a block from its columns, each of shape (k,),
    and exact(*columns), when given, the (k, 10) rows it should equal.
    The rows lead the residual table under `header`, and each table row
    ends with its max_abs.  The check is the worst max_abs, or the worst
    |residual - exact| when exact is given.
    """
    rows = np.asarray(rows, dtype=float)

    # Each block is a copy, so a view cannot write into the table's rows.
    def over_blocks(fn):
        return np.concatenate([
            np.reshape(fn(*np.array(rows[i:i + PROBE_CHUNK]).T), (-1, 10))
            for i in range(0, len(rows), PROBE_CHUNK)])

    # A non-finite field differences to NaN, which fails the check unwarned.
    with np.errstate(invalid="ignore"):
        residuals = over_blocks(lambda *cols: view(*cols).as_array())
    max_abs = np.max(np.abs(residuals), axis=1)
    value = (strict_max(max_abs.tolist()) if exact is None else
             _worst(residuals - over_blocks(exact)))
    table = np.column_stack([rows, residuals, max_abs])
    return CaseResult([Check(check, value, tol)],
                      [Table("residuals",
                             f"{header},{RESIDUAL_COLUMNS},max_abs", table)])


def _cube_rows(t, half_width, n_side):
    """Rows (t, x1, x2, x3) of a centered cubic probe grid, as one
    (n_side^3, 4) array, x3 varying fastest."""
    side = np.linspace(-half_width, half_width, n_side)
    x = np.meshgrid(side, side, side, indexing="ij")
    return np.column_stack([np.full(x[0].size, float(t)),
                            *(a.ravel() for a in x)])


def _plane_rows(th1s, th2s):
    """Rows (t = 0, theta1, theta2) of a surface probe grid, as floats."""
    return [[0.0, float(a), float(b)] for a in th1s for b in th2s]


def _convergence_case(residual, fields, conn, point, exact, steps):
    """Step-refinement study of residual(fields, conn, *point, h=h).

    The error at each step is the worst |residual - exact|; the check is
    the distance of the observed order from two, NaN (a failure) when the
    errors do not fall under refinement.
    """
    hs = sorted((float(h) for h in steps), reverse=True)
    errs = [float(np.max(np.abs(
        residual(fields, conn, point[0], point[1], h=h).as_array() - exact)))
        for h in hs]
    try:
        slope = observed_order(hs, errs)
        order_err = abs((slope if slope is not None else 2.0) - 2.0)
    except NonMonotoneError:
        order_err = np.nan
    rows = np.array([[h, e] for h, e in zip(hs, errs)])
    checks = [Check("observed order minus two", order_err, 0.2)]
    return CaseResult(checks, [Table("convergence", "h,error", rows)])


# ---------------------------------------------------------------------------
# pointwise trajectories


def _rk4_params(dt, t_end, stride):
    """Params of a pointwise simulation: step, end time and output stride
    with their defaults."""
    return {"dt": (dt, POSITIVE), "t_end": (t_end, NONNEGATIVE),
            "stride": (stride, COUNT)}


def _simulate(init, conn, p):
    """run_scenario from init with the case's dt, t_end and stride."""
    return run_scenario(init, conn, IntegratorConfig(
        dt=p["dt"], t_end=p["t_end"], output_stride=p["stride"]))


@_case(
    "free_particle", "pointwise_sim", "d0",
    "Free point mass in an inertial frame: straight-line motion with every "
    "conserved quantity flat.",
    params=_rk4_params(1e-2, 2.0, 10),
)
def _free_particle(p, rng, conn_spec):
    conn = conn_spec.build()
    init = PointwiseState.from_proper(
        0.0, 2.5, [0.3, -0.2, 0.1], [1.0, 0.4, -0.7], [0.2, 0.0, -0.1]
    )
    traj = _simulate(init, conn, p)
    rep = traj.drift_report()
    err = strict_max(
        np.max(np.abs(s.x - (init.x + init.v * s.t))) for s in traj.states
    )
    fin = traj.final
    checks = [
        Check("straight-line position", err, 1e-12),
        Check("mass drift", rep["mass_drift"], 0.0),
        Check("q - m x drift", rep["pos_q_drift"], 1e-12),
        Check("proper spin drift",
              float(np.max(np.abs(fin.l0 - init.l0))), 1e-12),
    ]
    return CaseResult(checks, [_traj_table(traj)])


@_case(
    "projectile", "pointwise_sim", "d0",
    "Point mass under uniform gravity: the integrator reproduces the "
    "parabola to roundoff and q tracks m x.",
    params=_rk4_params(1e-3, 1.0, 100),
)
def _projectile(p, rng, conn_spec):
    g = conn_spec.g
    conn = conn_spec.build()
    m = 1.3
    x0 = np.array([0.1, -0.4, 2.0])
    v0 = np.array([3.0, 1.0, 5.0])
    init = PointwiseState.from_proper(0.0, m, x0, v0, [0.4, -0.1, 0.2])
    traj = _simulate(init, conn, p)
    fin = traj.final
    t = fin.t
    err_x = float(np.max(np.abs(fin.x - (x0 + v0 * t + 0.5 * g * t * t))))
    err_p = float(np.max(np.abs(fin.p - m * (v0 + g * t))))
    rep = traj.drift_report()
    checks = [
        Check("final position vs parabola", err_x, 1e-12),
        Check("final momentum", err_p, 1e-12),
        Check("mass drift", rep["mass_drift"], 0.0),
        Check("q - m x drift", rep["pos_q_drift"], 1e-10),
    ]
    return CaseResult(checks, [_traj_table(traj)])


@_case(
    "coriolis_rotating_frame", "pointwise_sim", "d0",
    "Free particle watched from a chart spinning about e3 (centrifugal "
    "gravity plus Coriolis force): matches the rotated straight line.",
    params=_rk4_params(1e-4, 1.0, 1000),
)
def _coriolis(p, rng, conn_spec):
    w = conn_spec.Omega[2]
    conn = conn_spec.build()
    m = 1.7
    x0 = np.array([0.5, -0.2, 0.3])
    v0 = np.array([0.4, 1.1, -0.6])
    l00 = np.array([0.3, -0.5, 0.2])
    init = PointwiseState.from_proper(0.0, m, x0, v0, l00)
    traj = _simulate(init, conn, p)
    e3 = np.array([0.0, 0.0, 1.0])
    v_in = v0 + w * cross(e3, x0)
    err = 0.0
    for s in traj.states:
        R = rotation(e3, -w * s.t)
        x_ref = R @ (x0 + v_in * s.t)
        v_ref = R @ v_in - w * cross(e3, x_ref)
        l_ref = cross(x_ref, m * v_ref) + R @ l00
        err = strict_max((
            err,
            np.max(np.abs(s.x - x_ref)),
            np.max(np.abs(s.p - m * v_ref)),
            np.max(np.abs(s.q - m * x_ref)),
            np.max(np.abs(s.l - l_ref)),
        ))
    rep = traj.drift_report()
    checks = [
        Check("state vs transformed inertial line", err, 1e-8),
        Check("mass drift", rep["mass_drift"], 0.0),
        Check("q - m x drift", rep["pos_q_drift"], 1e-8),
    ]
    return CaseResult(checks, [_traj_table(traj)])


@_case(
    "gravity_top", "pointwise_sim", "d0",
    "Spinning point mass falling in uniform gravity: the moment component "
    "along g and the proper spin both stay constant.",
    params=_rk4_params(1e-3, 2.0, 100),
)
def _gravity_top(p, rng, conn_spec):
    g = conn_spec.g
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        raise ScenarioError("connection.g: must be nonzero for this case")
    g_hat = g / g_norm
    conn = conn_spec.build()
    init = PointwiseState.from_proper(
        0.0, 1.2, [0.6, 0.0, 1.0], [0.3, 1.1, 2.0], [0.2, 0.1, 1.5]
    )
    traj = _simulate(init, conn, p)
    lg_err = strict_max(
        abs(float((s.l - init.l) @ g_hat)) for s in traj.states
    )
    l0_err = strict_max(
        np.max(np.abs(s.l0 - init.l0)) for s in traj.states
    )
    rep = traj.drift_report()
    checks = [
        Check("moment along gravity conservation", lg_err, 1e-10),
        Check("proper spin conservation", l0_err, 1e-10),
        Check("mass drift", rep["mass_drift"], 0.0),
    ]
    return CaseResult(checks, [_traj_table(traj)])


@_case(
    "spinning_frame_precession", "pointwise_sim", "d0",
    "Proper spin in a uniformly spinning chart precesses about the axis "
    "at the chart rate, preserving its length and axial component.",
    params=_rk4_params(1e-3, 3.0, 100),
)
def _precession(p, rng, conn_spec):
    Om = conn_spec.Omega
    w = float(np.linalg.norm(Om))
    if w == 0.0:
        raise ScenarioError("connection.Omega: must be nonzero for this case")
    conn = conn_spec.build()
    l00 = np.array([0.5, 0.2, 0.9])
    init = PointwiseState.from_proper(
        0.0, 1.0, [0.2, 0.1, -0.3], [0.4, -0.2, 0.5], l00
    )
    traj = _simulate(init, conn, p)
    cone_err = strict_max(
        np.max(np.abs(s.l0 - rotation(Om, -w * s.t) @ l00))
        for s in traj.states
    )
    norm_err = strict_max(
        abs(float(np.linalg.norm(s.l0)) - float(np.linalg.norm(l00)))
        for s in traj.states
    )
    axis = Om / w
    axial_err = strict_max(
        abs(float((s.l0 - l00) @ axis)) for s in traj.states
    )
    checks = [
        Check("precession cone vs closed form", cone_err, 1e-8),
        Check("spin magnitude conservation", norm_err, 1e-10),
        Check("axial spin conservation", axial_err, 1e-10),
    ]
    return CaseResult(checks, [_traj_table(traj)])


# ---------------------------------------------------------------------------
# residual checks: d0


@_case(
    "projectile_residual", "residual_check", "d0",
    "The four pointwise balance laws evaluated along the closed-form "
    "parabola; every residual vanishes to differencing accuracy.",
    params={"n_t": (9, COUNT), "t_span": ([0.1, 2.0], ANY)},
)
def _projectile_residual(p, rng, conn_spec):
    g = conn_spec.g
    conn = conn_spec.build()
    m = 1.3
    x0 = np.array([0.1, -0.4, 2.0])
    v0 = np.array([3.0, 1.0, 5.0])
    l00 = np.array([0.4, -0.1, 0.2])

    def traj(t):
        x = x0[:, None] + v0[:, None] * t + 0.5 * g[:, None] * t * t
        mom = m * (v0[:, None] + g[:, None] * t)
        return (np.full_like(t, m), mom, m * x,
                l00[:, None] + np.array(cross3(x, mom)))

    ts = np.linspace(p["t_span"][0], p["t_span"][1], p["n_t"])
    return _residual_case(
        "pointwise residual on parabola", 1e-8, "t", [[t] for t in ts],
        lambda t: residual_pointwise(traj, conn, t),
    )


# ---------------------------------------------------------------------------
# residual checks: d3_cauchy


def manufactured_cauchy(g=(0.1, -0.2, 0.3), Omega=(0.2, -0.1, 0.3)):
    """Smooth sin/exp 3D fields with a hand-expanded exact residual.

    Returns (medium, conn, exact) where exact(t, x) is the ten-component
    residual array the evaluator must converge to; g and Omega are the
    uniform frame fields the expansion absorbs.  exact takes a batch too:
    on t of shape (m,) and x of shape (3, m) it returns (10, m).  The
    expansion is verified against an independent symbolic derivation in
    the test suite.
    """
    g = np.asarray(g, dtype=float).reshape(3)
    Om = np.asarray(Omega, dtype=float).reshape(3)
    conn = GalileanConnection(g=g, Omega=Om)

    def rho(t, x):
        return 2.0 + 0.3 * np.sin(x[0] + 2.0 * t)

    def v(t, x):
        return np.array([
            0.4 * np.sin(x[1]),
            0.2 * np.cos(x[0]),
            0.3 * np.sin(x[0] + t),
        ])

    def sigma(t, x):
        x1, x2, x3 = x
        return np.array([
            [0.5 * np.sin(x1 + x2), 0.1 * np.sin(x2 - x3),
             0.2 * np.exp(x3 / 3.0)],
            [0.2 * np.cos(x1), 0.3 * np.sin(x2 + t), 0.1 * np.sin(x3)],
            [0.3 * np.exp(x1 / 4.0), 0.2 * np.cos(x2),
             0.4 * np.cos(x1 + x3)],
        ])

    def exact(t, x):
        x1, x2, x3 = x
        mass = np.cos(x1 + 2.0 * t) * (0.6 + 0.12 * np.sin(x2))
        accel = np.array([
            0.08 * np.cos(x1) * np.cos(x2),
            -0.08 * np.sin(x1) * np.sin(x2),
            0.3 * np.cos(x1 + t) * (1.0 + 0.4 * np.sin(x2)),
        ])
        div_sig = np.array([
            0.5 * np.cos(x1 + x2) + 0.1 * np.cos(x2 - x3)
            + (0.2 / 3.0) * np.exp(x3 / 3.0),
            -0.2 * np.sin(x1) + 0.3 * np.cos(x2 + t) + 0.1 * np.cos(x3),
            0.075 * np.exp(x1 / 4.0) - 0.2 * np.sin(x2)
            - 0.4 * np.sin(x1 + x3),
        ])
        r = rho(t, x)
        vv = v(t, x)
        sig = sigma(t, x)
        # g against a batch's point axis, the last one of x.
        gg = g.reshape((3,) + (1,) * (np.ndim(x) - 1))
        lin = r * accel - div_sig - r * (gg - 2.0 * np.array(cross3(Om, vv)))
        zero = np.zeros_like(mass)
        return np.array([
            mass, *lin, zero, zero, zero,
            sig[1, 2] - sig[2, 1],
            sig[2, 0] - sig[0, 2],
            sig[0, 1] - sig[1, 0],
        ])

    medium = CauchyMedium(rho=rho, v=v, sigma=sigma)
    return medium, conn, exact


@_case(
    "cauchy_manufactured", "residual_check", "d3_cauchy",
    "Manufactured sin/exp classical-medium fields: the evaluated residual "
    "is compared against its exact expansion over a probe grid.",
    params={"h": (1e-5, STEP), "n_side": (3, COUNT), "t": (0.4, ANY),
            "half_width": (0.5, Range(0.0, MANUFACTURED.hi)),
            "n_random": (5, NONNEGATIVE)},
)
def _cauchy_manufactured(p, rng, conn_spec):
    medium, conn, exact = manufactured_cauchy(conn_spec.g, conn_spec.Omega)
    t = p["t"]
    rows = _cube_rows(t, p["half_width"], p["n_side"])
    if p["n_random"] > 0:
        x = rng.uniform(-p["half_width"], p["half_width"],
                        size=(int(p["n_random"]), 3))
        rows = np.vstack([rows, np.column_stack([np.full(len(x), t), x])])
    return _residual_case(
        "residual vs exact expansion", 1e-5, "t,x1,x2,x3", rows,
        lambda t, *x: residual_cauchy(medium, conn, t, x, h=p["h"]),
        exact=lambda t, *x: exact(t, np.array(x)).T,
    )


@_case(
    "hydrostatic", "residual_check", "d3_cauchy",
    "Fluid at rest under uniform gravity with the linear pressure field: "
    "all ten residuals vanish.",
    params={"n_side": (3, COUNT), "half_width": (1.0, NONNEGATIVE),
            "rho0": (2.0, NONNEGATIVE)},
)
def _hydrostatic(p, rng, conn_spec):
    rho0 = p["rho0"]
    g = conn_spec.g
    conn = conn_spec.build()
    medium = CauchyMedium(
        rho=lambda t, x: np.full_like(t, rho0),
        v=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: -rho0 * _dot3(g, x) * _EYE3,
    )
    return _residual_case(
        "hydrostatic residual", 1e-8, "t,x1,x2,x3",
        _cube_rows(0.0, p["half_width"], p["n_side"]),
        lambda t, *x: residual_cauchy(medium, conn, t, x),
    )


@_case(
    "rotating_bucket", "residual_check", "d3_cauchy",
    "Liquid at rest in a spinning chart: quadratic centrifugal pressure "
    "balances gravity plus the frame forces.",
    params={"n_side": (3, COUNT), "half_width": (0.8, NONNEGATIVE),
            "rho0": (1.0, NONNEGATIVE)},
)
def _rotating_bucket(p, rng, conn_spec):
    rho0 = p["rho0"]
    g0 = conn_spec.g
    Om = conn_spec.Omega

    def sigma(t, x):
        w0, w1, w2 = cross3(Om, x)
        pr = rho0 * (_dot3(g0, x) + 0.5 * (w0 * w0 + w1 * w1 + w2 * w2))
        return -pr * _EYE3

    conn = conn_spec.build()
    medium = CauchyMedium(
        rho=lambda t, x: np.full_like(t, rho0),
        v=lambda t, x: np.zeros_like(x), sigma=sigma,
    )
    return _residual_case(
        "spinning-bucket residual", 1e-8, "t,x1,x2,x3",
        _cube_rows(0.0, p["half_width"], p["n_side"]),
        lambda t, *x: residual_cauchy(medium, conn, t, x),
    )


# ---------------------------------------------------------------------------
# residual checks: d1


@_case(
    "beam_under_gravity", "residual_check", "d1",
    "Straight beam loaded by uniform gravity: linear internal force and "
    "quadratic bending moment close all four balance laws.",
    params={"n_s": (9, COUNT), "length": (2.0, POSITIVE),
            "rho_l": (1.6, NONNEGATIVE)},
)
def _beam_under_gravity(p, rng, conn_spec):
    rho_l = p["rho_l"]
    g = conn_spec.g
    conn = conn_spec.build()
    e1 = [1.0, 0.0, 0.0]
    n_cross_g = np.array(cross3(e1, g))[:, None]

    def psi(t, s):
        return np.array([s, np.zeros_like(s), np.zeros_like(s)])

    zero3 = constant_field(np.zeros(3))
    f = Cosserat1DField(
        curve=Curve1D(psi, n=constant_field(e1)),
        rho_l=constant_field(rho_l),
        F=lambda t, s: -rho_l * s * g[:, None],
        q=lambda t, s: rho_l * psi(t, s),
        l=zero3,
        l_star=zero3,
        M_star=lambda t, s: -rho_l * s * s / 2.0 * n_cross_g,
    )
    ss = np.linspace(0.1, p["length"], p["n_s"])
    return _residual_case(
        "beam equilibrium residual", 1e-9, "t,s", [[0.0, s] for s in ss],
        lambda t, s: residual_1d(f, conn, t, s),
    )


@_case(
    "spinning_ring", "residual_check", "d1",
    "Ring of matter circulating along a static circular chart: hoop "
    "tension rho w^2 r^2 supplies the centripetal force.",
    params={"n_s": (8, COUNT), "radius": (1.2, LENGTH), "omega": (0.9, ANY),
            "rho_l": (2.0, NONNEGATIVE)},
)
def _spinning_ring(p, rng, conn_spec):
    r, w, rho_l = p["radius"], p["omega"], p["rho_l"]
    tension = rho_l * w * w * r * r

    def psi(t, s):
        return np.array([r * np.cos(s / r), r * np.sin(s / r),
                         np.zeros_like(s)])

    def n(t, s):
        return np.array([-np.sin(s / r), np.cos(s / r), np.zeros_like(s)])

    ring = Curve1D(psi, v=lambda t, s: w * r * n(t, s), n=n)
    zero3 = constant_field(np.zeros(3))
    f = Cosserat1DField(
        curve=ring,
        rho_l=constant_field(rho_l),
        F=lambda t, s: tension * n(t, s),
        q=lambda t, s: rho_l * psi(t, s),
        l=zero3,
        l_star=lambda t, s: rho_l * (w * r) * psi(t, s),
        M_star=zero3,
    )
    conn = conn_spec.build()
    ss = np.linspace(0.0, 2.0 * np.pi * r, p["n_s"], endpoint=False)
    return _residual_case(
        "hoop-tension residual", 1e-6, "t,s", [[0.0, s] for s in ss],
        lambda t, s: residual_1d(f, conn, t, s),
    )


# ---------------------------------------------------------------------------
# residual checks: d2


def _flat_plate():
    return ShellField(
        lambda t, th1, th2: np.array([th1, th2, np.zeros_like(th1)]),
        pi=constant_field([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )


@_case(
    "plate_bending", "residual_check", "d2",
    "Flat plate carrying a transverse gravity load through shear and a "
    "quadratic bending moment.",
    params={"n_side": (3, COUNT), "half_width": (0.7, NONNEGATIVE),
            "rho_s": (2.0, NONNEGATIVE)},
)
def _plate_bending(p, rng, conn_spec):
    rho_s, half_width = p["rho_s"], p["half_width"]
    g3 = conn_spec.g[2]
    conn = conn_spec.build()
    load = -rho_s * g3

    def Q(t, th1, th2):
        return load * np.array([th1, np.zeros_like(th1)])

    def M(t, th1, th2):
        z = np.zeros_like(th1)
        return load * np.array([[th1 ** 2 / 2.0, z], [z, z]])

    loads = ShellLoads(
        rho_s=constant_field(rho_s),
        N=constant_field([[0.7, 0.2], [0.2, -0.1]]),
        Q=Q, M=M, kappa=constant_field(0.05),
    )
    sf = _flat_plate()
    side = np.linspace(-half_width, half_width, p["n_side"])
    return _residual_case(
        "plate bending residual", 1e-8, "t,th1,th2", _plane_rows(side, side),
        lambda *surface: residual_2d(sf, loads, conn, *surface),
    )


@_case(
    "laplace_sphere", "residual_check", "d2",
    "Uniformly tensioned spherical membrane against the normal pressure "
    "2 T / r: the classical pressure-curvature balance.",
    params={"n_side": (3, COUNT), "half_width": (0.5, NONNEGATIVE),
            "radius": (2.0, LENGTH), "tension": (0.7, ANY),
            "rho_s": (1.0, POSITIVE)},
)
def _laplace_sphere(p, rng, conn_spec):
    # The chart z = sqrt(r^2 - |theta|^2) must be real at every point a
    # stencil reads: the grid's corners, one default step further out.
    reach = abs(p["half_width"]) + fd.default_step(abs(p["half_width"]))
    if not p["radius"] > math.sqrt(2.0) * reach:
        raise ScenarioError(
            f"params.radius: must exceed sqrt(2) (|half_width| + step) = "
            f"{math.sqrt(2.0) * reach!r}, the reach of the probe grid's "
            f"corners, got {p['radius']!r}")
    if conn_spec.type != "case":
        raise ScenarioError(
            "connection.type: laplace_sphere defines its own radial pull; "
            "set type to 'case'"
        )
    r, T0, rho_s = p["radius"], p["tension"], p["rho_s"]
    pr = 2.0 * T0 / r

    def chart(t, th1, th2):
        return np.array([th1, th2, np.sqrt(r * r - th1 ** 2 - th2 ** 2)])

    def pi(t, th1, th2):
        z = np.sqrt(r * r - th1 ** 2 - th2 ** 2)
        one, zero = np.ones_like(z), np.zeros_like(z)
        return np.array([[one, zero, -th1 / z], [zero, one, -th2 / z]])

    def a_inv(th1, th2):
        # a = I + u u^T / z^2 with u = (th1, th2) and z^2 = r^2 - |u|^2, so
        # a^-1 = I - u u^T / r^2 (Sherman-Morrison).
        r2 = r * r
        a12 = -th1 * th2 / r2
        return np.array([[1.0 - th1 * th1 / r2, a12],
                         [a12, 1.0 - th2 * th2 / r2]])

    sphere = ShellField(chart, pi=pi)
    loads = ShellLoads(
        rho_s=constant_field(rho_s),
        N=lambda t, th1, th2: T0 * a_inv(th1, th2),
        Q=constant_field(np.zeros(2)),
        M=constant_field(np.zeros((2, 2))),
        kappa=constant_field(0.01),
    )
    conn = GalileanConnection(
        g=lambda t, x: (pr / rho_s) * x / r
    )
    side = np.linspace(-p["half_width"], p["half_width"], p["n_side"])
    return _residual_case(
        "membrane pressure residual", 1e-7, "t,th1,th2",
        _plane_rows(side, side),
        lambda *surface: residual_2d(sphere, loads, conn, *surface),
    )


@_case(
    "spinning_drum", "residual_check", "d2",
    "Cylindrical shell at rest in its co-rotating chart: hoop membrane "
    "force rho w^2 R^2 carries the centrifugal load.",
    params={"n_side": (3, COUNT), "radius": (1.5, LENGTH),
            "rho_s": (0.8, NONNEGATIVE)},
)
def _spinning_drum(p, rng, conn_spec):
    R, rho_s = p["radius"], p["rho_s"]
    w = conn_spec.Omega[2]

    def chart(t, th1, th2):
        return np.array([R * np.cos(th1 / R), R * np.sin(th1 / R), th2])

    def pi(t, th1, th2):
        one, zero = np.ones_like(th1), np.zeros_like(th1)
        return np.array(
            [[-np.sin(th1 / R), np.cos(th1 / R), zero], [zero, zero, one]]
        )

    drum = ShellField(chart, pi=pi)
    loads = ShellLoads(
        rho_s=constant_field(rho_s),
        N=constant_field([[rho_s * w * w * R * R, 0.0], [0.0, 0.0]]),
        Q=constant_field(np.zeros(2)),
        M=constant_field(np.zeros((2, 2))),
        kappa=constant_field(0.02),
    )
    conn = conn_spec.build()
    return _residual_case(
        "hoop-stress residual", 1e-7, "t,th1,th2",
        _plane_rows(np.linspace(0.0, 2.0, p["n_side"]),
                    np.linspace(-0.5, 0.5, p["n_side"])),
        lambda *surface: residual_2d(drum, loads, conn, *surface),
    )


# ---------------------------------------------------------------------------
# residual checks: d3_cosserat


@_case(
    "momentless_hydrostatic", "residual_check", "d3_cosserat",
    "Space-filling medium with every moment field zero and a symmetric "
    "hydrostatic stress: the ten balance laws degenerate to the classical "
    "four plus six identities.",
    params={"n_side": (3, COUNT), "half_width": (0.8, NONNEGATIVE),
            "rho0": (2.0, NONNEGATIVE)},
)
def _momentless_hydrostatic(p, rng, conn_spec):
    rho0 = float(p["rho0"])
    g = conn_spec.g
    conn = conn_spec.build()
    # T = assemble_cauchy_T(rho0, 0, c I) entry by entry, c = -rho0 (g . x):
    # the time row is rho0 v = r and the stress block r - c I.
    r = rho0 * 0.0

    def T(t, x):
        c = -rho0 * _dot3(g, x)
        d, o = r - c, r - c * 0.0
        rr, z = np.full_like(c, rho0), np.full_like(c, r)
        return np.array([[rr, z, z, z], [z, d, o, o], [z, o, d, o],
                         [z, o, o, d]])

    def zero_v(t, x):
        return np.zeros((3, len(t)))

    def zero_m(t, x):
        return np.zeros((3, 3, len(t)))

    state = Cosserat3DState(T=T, q=zero_v, l=zero_v, l_star=zero_m,
                            M_star=zero_m)
    return _residual_case(
        "momentless degeneration residual", 1e-8, "t,x1,x2,x3",
        _cube_rows(0.0, p["half_width"], p["n_side"]),
        lambda t, *x: residual_3d_cosserat(state, conn, t, x),
    )


# ---------------------------------------------------------------------------
# reductions


@_case(
    "disc_section_moments", "reduction", "d1",
    "Circular cross-section integrals: line density, rigid-spin moment of "
    "momentum, transport moments of a parabolic pipe profile, and the "
    "parity zeros of a centered section.",
    params={"radius": (0.4, LENGTH), "rho0": (2.5, POSITIVE),
            "omega": (1.3, NONZERO), "v_max": (2.0, ANY)},
)
def _disc_section(p, rng, conn_spec):
    R, w, v_max, rho0 = p["radius"], p["omega"], p["v_max"], p["rho0"]
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    n = cs.n
    area = np.pi * R * R

    # T at every node of the section, xb of shape (2, K), node axis last.
    def rigid_T(xb):
        x3 = (cs.origin[:, None] + xb[0] * cs.e1[:, None]
              + xb[1] * cs.e2[:, None])
        return assemble_cauchy_T(rho0, w * np.array(cross3(n, x3)),
                                 np.zeros((3, 3)))

    def pipe_T(xb):
        vt = v_max * (1.0 - (xb[0] ** 2 + xb[1] ** 2) / (R * R))
        return assemble_cauchy_T(rho0, vt * n[:, None], np.zeros((3, 3)))

    M_rigid = reduce_3d_to_1d_T(rigid_T, Pi, cs)
    mom = reduce_3d_to_1d_J(rigid_T, Pi, cs)
    fm = reduce_3d_to_1d_force_mass(pipe_T, Pi, cs)

    rho_l_rel = abs(M_rigid[0, 0] - rho0 * area) / (rho0 * area)
    l_ref = rho0 * w * (np.pi * R ** 4 / 2.0) * n
    l_rel = float(np.max(np.abs(mom.l - l_ref))) / float(
        np.max(np.abs(l_ref)))
    # Parabolic profile: mean tangential speed v_max / 2 and transport
    # force F = -rho0 v_max^2 pi R^2 / 12 n from the velocity fluctuation.
    F_ref = -rho0 * v_max ** 2 * area / 12.0 * n
    F_err = float(np.max(np.abs(fm.F - F_ref)))
    vt_err = abs(fm.v_t - v_max / 2.0)
    parity = strict_max(
        (np.max(np.abs(mom.q)), np.max(np.abs(mom.l_star)))
    )
    rows = np.array([np.concatenate([
        [M_rigid[0, 0]], mom.l, fm.F, [fm.v_t],
    ])])
    table = Table("reduced", "rho_l,l1,l2,l3,F1,F2,F3,v_t", rows)
    checks = [
        Check("line density relative error", rho_l_rel, 1e-10),
        Check("rigid-spin moment relative error", l_rel, 1e-10),
        Check("pipe transport force error", F_err, 1e-9),
        Check("pipe mean tangential speed error", vt_err, 1e-10),
        Check("centered-section parity zeros", parity, 1e-9),
    ]
    return CaseResult(checks, [table])


@_case(
    "thickness_integrals", "reduction", "d2",
    "Through-thickness integrals of a plate: membrane force, shear, the "
    "h^3/12 bending moment of a linear stress, and the surface density.",
    params={"h": (0.3, LENGTH), "rho0": (1.7, NONNEGATIVE),
            "kappa0": (2.4, ANY)},
)
def _thickness(p, rng, conn_spec):
    h, rho0, k0 = p["h"], p["rho0"], p["kappa0"]
    rule = ThicknessRule(h)
    sig_c = np.array([[1.2, 0.4, 0.7], [0.4, -0.8, 0.2], [0.7, 0.2, 0.5]])

    def bending_sigma(z):  # sigma at the offsets z (K,), offset axis last
        sigma = np.zeros((3, 3, len(z)))
        sigma[0, 0] = k0 * z
        return sigma

    uniform = reduce_3d_to_2d(
        lambda z: np.multiply.outer(sig_c, np.ones_like(z)), rho0, rule)
    bending = reduce_3d_to_2d(bending_sigma, rho0, rule)
    n_err = float(np.max(np.abs(uniform.N - h * sig_c[:2, :2])))
    q_err = float(np.max(np.abs(uniform.Q - h * sig_c[:2, 2])))
    m_err = abs(bending.M[0, 0] - k0 * h ** 3 / 12.0)
    rho_err = abs(uniform.rho_s - rho0 * h)
    rows = np.array([np.concatenate([
        uniform.N.ravel(), uniform.Q, bending.M.ravel(), [uniform.rho_s],
    ])])
    table = Table(
        "reduced", "N11,N12,N21,N22,Q1,Q2,M11,M12,M21,M22,rho_s", rows,
    )
    checks = [
        Check("membrane force error", n_err, 1e-12),
        Check("shear force error", q_err, 1e-12),
        Check("pure-bending moment error", m_err, 1e-12),
        Check("surface density error", rho_err, 1e-12),
    ]
    return CaseResult(checks, [table])


# ---------------------------------------------------------------------------
# convergence studies


def manufactured_rod(g=(0.1, -0.3, 0.2), Omega=(0.2, 0.1, -0.3)):
    """Smooth 1D fields on a moving straight chart with the exact residual.

    The chart psi = (s + t/10, 0.3 sin t, t/5) translates and slides along
    its tangent e1 at n . d psi/dt = 0.1, and the matter flows along it at
    v_t = 0.2 sin(s + t), so the fields describe a rod: v = d psi/dt
    + (v_t - 0.1) e1 and q = rho_l psi.  Returns (field, conn, exact) with
    exact(t, s) the ten-component residual array; g and Omega are the
    uniform frame fields the expansion absorbs.  Verified against a
    symbolic derivation in the tests.
    """
    g = np.asarray(g, dtype=float).reshape(3)
    Om = np.asarray(Omega, dtype=float).reshape(3)
    conn = GalileanConnection(g=g, Omega=Om)
    e1 = np.array([1.0, 0.0, 0.0])
    slide = 0.1

    def psi(t, s):
        return np.array([s + t / 10.0, 0.3 * np.sin(t), t / 5.0])

    def v(t, s):
        return np.array([0.2 * np.sin(s + t), 0.3 * np.cos(t),
                         np.full(np.shape(t), 0.2)])

    curve = Curve1D(psi=psi, n=constant_field(e1), v=v)

    def rho(t, s):
        return 1.5 + 0.4 * np.cos(s - t)

    def F(t, s):
        return np.array([
            0.3 * np.sin(s), 0.2 * np.cos(s + t), 0.1 * np.exp(s / 3.0),
        ])

    def l_fn(t, s):
        return np.array([
            0.1 * np.sin(s + t), 0.2 * np.cos(s), 0.1 * np.sin(s),
        ])

    def l_star(t, s):
        return np.array([
            0.2 * np.sin(s), 0.1 * np.cos(s - t), 0.2 * np.sin(s + t),
        ])

    def q_fn(t, s):
        return rho(t, s) * psi(t, s)

    f = Cosserat1DField(
        curve=curve,
        rho_l=rho,
        F=F,
        q=q_fn,
        l=l_fn,
        l_star=l_star,
        M_star=lambda t, s: np.array([
            0.1 * np.cos(s + t), 0.3 * np.sin(s), 0.2 * np.cos(s),
        ]),
    )

    def exact(t, s):
        rho_v = rho(t, s)
        v_v = v(t, s)
        v_t = v_v[0]
        w = v_t - slide
        psi_v = psi(t, s)
        drho_dt = 0.4 * np.sin(s - t)
        drho_ds = -0.4 * np.sin(s - t)
        dvt_ds = 0.2 * np.cos(s + t)
        mass = drho_dt + drho_ds * w + rho_v * dvt_ds

        dv_dt = np.array([0.2 * np.cos(s + t), -0.3 * np.sin(t), 0.0])
        dv_ds = np.array([0.2 * np.cos(s + t), 0.0, 0.0])
        dF_ds = np.array([
            0.3 * np.cos(s), -0.2 * np.sin(s + t),
            (0.1 / 3.0) * np.exp(s / 3.0),
        ])
        lin = rho_v * (dv_dt + w * dv_ds) - dF_ds \
            - rho_v * (g - 2.0 * cross(Om, v_v))

        # q = rho psi: rho d psi/dt - slide rho e1 - rho v = -rho v_t e1.
        dls_ds = np.array([
            0.2 * np.cos(s), -0.1 * np.sin(s - t), 0.2 * np.cos(s + t),
        ])
        pos = (drho_dt - slide * drho_ds) * psi_v + dls_ds \
            - rho_v * v_t * e1

        dl_dt = np.array([0.1 * np.cos(s + t), 0.0, 0.0])
        dl_ds = np.array([
            0.1 * np.cos(s + t), -0.2 * np.sin(s), 0.1 * np.cos(s),
        ])
        dMs_ds = np.array([
            -0.1 * np.sin(s + t), 0.3 * np.cos(s), -0.2 * np.sin(s),
        ])
        ang = dl_dt + cross(Om, l_fn(t, s)) \
            + cross(l_star(t, s) - v_t * q_fn(t, s), cross(Om, e1)) \
            + dMs_ds - slide * dl_ds - cross(e1, F(t, s))
        return np.concatenate([[mass], lin, pos, ang])

    return f, conn, exact


@_case(
    "cauchy_convergence", "convergence", "d3_cauchy",
    "Step-refinement study of the classical-medium residual on "
    "manufactured sin/exp fields: observed order two.",
    params={"steps": ([4e-3, 2e-3, 1e-3], STEPS), "t": (0.4, ANY),
            "x": ([0.3, -0.6, 0.5], MANUFACTURED)},
)
def _cauchy_convergence(p, rng, conn_spec):
    medium, conn, exact = manufactured_cauchy(conn_spec.g, conn_spec.Omega)
    t = p["t"]
    x = np.array(p["x"], dtype=float)
    return _convergence_case(residual_cauchy, medium, conn, (t, x),
                             exact(t, x), p["steps"])


@_case(
    "rod_convergence", "convergence", "d1",
    "Step-refinement study of the slender-medium residual on manufactured "
    "sin/exp fields: observed order two.",
    params={"steps": ([4e-3, 2e-3, 1e-3], STEPS), "t": (0.3, ANY),
            "s": (0.7, MANUFACTURED)},
)
def _rod_convergence(p, rng, conn_spec):
    f, conn, exact = manufactured_rod(conn_spec.g, conn_spec.Omega)
    t, s = p["t"], p["s"]
    return _convergence_case(residual_1d, f, conn, (t, s), exact(t, s),
                             p["steps"])
