"""Pointwise-object dynamics and the shared convergence harness.

Integrates the ten balance equations of a point mass as ODEs with classical
fixed-step RK4: dx/dt = p/m, dp/dt = m (g - 2 Omega x v), dq/dt = p,
dl/dt = x x dp/dt - Omega x l0, with the mass held exactly constant and the
proper part l0 = l - x x p carried as a derived quantity.

A stage runs on float triples, component by component, and is bit-identical
to these formulas evaluated on numpy 3-vectors.  They are the d = 0 rows of
connection.divergence: tests/test_simulate.py's
test_stage_rates_are_the_pointwise_divergence requires the stage's rates to
zero balance.residual_pointwise along the trajectory they define, under g
and Omega that depend on t and x.

A stage reads g and Omega with one GalileanConnection.read, which for a
constant or rotating-frame connection is float arithmetic on the
connection's recorded form.  run_scenario carries the state as the twelve
floats (x, p, q, l), which the RK4 kernel step maps to the next twelve, and
builds a PointwiseState only for each stored sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneError, NonpositiveMass
from .vecmath import cross, strict_max

MASS_TOL = 0.0  # mass must stay bit-identical along a trajectory


def _vec3(a, name):
    out = np.asarray(a, dtype=float).reshape(3)
    if not all(map(math.isfinite, out.tolist())):
        raise ValueError(f"{name} must be finite, got {a!r}")
    return out


@dataclass
class PointwiseState:
    """State of a pointwise object: mass, position, and the three momenta.

    l is the full angular momentum about the frame origin; the proper part
    l0 = l - x x p is derived, not stored.  q = m x whenever the state was
    initialized consistently, and the integrator preserves that identity.
    """

    t: float
    m: float
    x: np.ndarray
    p: np.ndarray
    q: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        self.t = float(self.t)
        self.m = float(self.m)
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if not self.m > 0.0:
            raise NonpositiveMass(f"mass must be positive, got {self.m}")
        if self.m == math.inf:
            raise ValueError(f"m must be finite, got {self.m}")
        self.x = _vec3(self.x, "x")
        self.p = _vec3(self.p, "p")
        self.q = _vec3(self.q, "q")
        self.l = _vec3(self.l, "l")

    @classmethod
    def _from_floats(cls, t, m, y):
        """State from a float t, a positive float m and the twelve finite
        floats y = (x, p, q, l), unchecked.  The four blocks are views of
        one (12,) array."""
        s = cls.__new__(cls)
        a = np.array(y)
        s.t, s.m, s.x, s.p, s.q, s.l = t, m, a[0:3], a[3:6], a[6:9], a[9:12]
        return s

    @classmethod
    def from_proper(cls, t, m, x, v, l0):
        """Build a consistent state from position, velocity and proper spin."""
        x = _vec3(x, "x")
        v = _vec3(v, "v")
        l0 = _vec3(l0, "l0")
        p = float(m) * v
        return cls(t=t, m=m, x=x, p=p, q=float(m) * x, l=l0 + cross(x, p))

    @property
    def v(self):
        return self.p / self.m

    @property
    def l0(self):
        """Proper angular momentum l - x x p."""
        return self.l - cross(self.x, self.p)

    def as_row(self):
        """Flat (t, m, x, p, q, l) row, the trajectory CSV layout."""
        return np.concatenate([[self.t, self.m], self.x, self.p, self.q,
                               self.l])


@dataclass
class IntegratorConfig:
    dt: float
    t_end: float
    output_stride: int = 1

    def __post_init__(self):
        self.dt = float(self.dt)
        self.t_end = float(self.t_end)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        self.output_stride = int(self.output_stride)
        if self.output_stride < 1:
            raise ValueError(
                f"output_stride must be >= 1, got {self.output_stride}"
            )


# On 3-vectors numpy's per-call overhead dwarfs the arithmetic.  Each
# component applies the elementwise operations of the module docstring's
# formulas in the same order, which keeps the trajectory bit-identical.
def _rhs(t, y, m, conn):
    """Stage derivatives (dx/dt, dp/dt, dq/dt, dl/dt) as twelve floats.

    y holds the twelve floats (x, p, q, l); dq/dt is p itself.  g and Omega
    come from one conn.read(t, x1, x2, x3) as six floats.
    """
    x1, x2, x3, p1, p2, p3, _, _, _, l1, l2, l3 = y
    g1, g2, g3, w1, w2, w3 = conn.read(t, x1, x2, x3)
    v1, v2, v3 = p1 / m, p2 / m, p3 / m
    # m (g - 2 Omega x v)
    f1 = m * (g1 - 2.0 * (w2 * v3 - w3 * v2))
    f2 = m * (g2 - 2.0 * (w3 * v1 - w1 * v3))
    f3 = m * (g3 - 2.0 * (w1 * v2 - w2 * v1))
    # proper spin l0 = l - x x p
    s1 = l1 - (x2 * p3 - x3 * p2)
    s2 = l2 - (x3 * p1 - x1 * p3)
    s3 = l3 - (x1 * p2 - x2 * p1)
    # x x force - Omega x l0
    return (v1, v2, v3, f1, f2, f3, p1, p2, p3,
            (x2 * f3 - x3 * f2) - (w2 * s3 - w3 * s2),
            (x3 * f1 - x1 * f3) - (w3 * s1 - w1 * s3),
            (x1 * f2 - x2 * f1) - (w1 * s2 - w2 * s1))


def step(t, y, m, conn, dt):
    """One classical RK4 step of the twelve floats y = (x, p, q, l) from
    time t with mass m: the next twelve, as a list.

    Raises ValueError naming the first block of them that is not finite.
    """
    h = dt / 2.0
    k1 = _rhs(t, y, m, conn)
    k2 = _rhs(t + h, [a + h * b for a, b in zip(y, k1)], m, conn)
    k3 = _rhs(t + h, [a + h * b for a, b in zip(y, k2)], m, conn)
    k4 = _rhs(t + dt, [a + dt * b for a, b in zip(y, k3)], m, conn)
    w = dt / 6.0
    y = [a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    # A sum of finite floats is finite unless it overflows, so only a sum
    # that is not needs the blockwise check.
    if not math.isfinite(sum(y)):
        for k, name in enumerate("xpql"):
            block = y[3 * k:3 * k + 3]
            if not all(map(math.isfinite, block)):
                raise ValueError(f"{name} must be finite, got {block!r}")
    return y


def _pos_q_gaps(m, y):
    """|q - m x|, component by component, of the twelve floats
    y = (x, p, q, l)."""
    x1, x2, x3, _, _, _, q1, q2, q3, _, _, _ = y
    return (abs(q1 - m * x1), abs(q2 - m * x2), abs(q3 - m * x3))


def _drift_dict(mass_drifts, gaps):
    """Worst mass drift and worst |q - m x| gap, NaN if any is NaN."""
    return {"mass_drift": strict_max(mass_drifts),
            "pos_q_drift": strict_max(gaps)}


@dataclass
class Trajectory:
    states: list
    drifts: dict = None

    @property
    def final(self) -> PointwiseState:
        return self.states[-1]

    def rows(self):
        """(n, 14) array in the t,m,x,p,q,l column order."""
        return np.array([s.as_row() for s in self.states])

    def drift_report(self) -> dict:
        """Conservation diagnostics.

        mass_drift is the largest deviation of m from its initial value
        (must be exactly zero) and pos_q_drift the largest |q - m x|.
        run_scenario accumulates these over every step; recomputed from
        the stored samples when the trajectory was assembled by hand.
        """
        if self.drifts is not None:
            return dict(self.drifts)
        m0 = self.states[0].m
        return _drift_dict(
            [abs(s.m - m0) for s in self.states],
            [d for s in self.states
             for d in _pos_q_gaps(s.m, s.as_row()[2:].tolist())])


def run_scenario(init: PointwiseState, conn,
                 cfg: IntegratorConfig) -> Trajectory:
    """Integrate from init to cfg.t_end, sampling every output_stride steps.

    The number of steps is round((t_end - t0) / dt); the final state is
    always included in the samples.  The state is carried as twelve floats
    and built as a PointwiseState only where it is sampled.  Conservation
    drifts are accumulated at every step, not just at the sampled ones.
    """
    span = (cfg.t_end - init.t) / cfg.dt
    if not math.isfinite(span):
        raise ValueError(f"(t_end - t0) / dt must be finite, got {span}")
    n_steps = int(round(span))
    if n_steps < 0:
        raise ValueError("t_end precedes the initial time")
    m = init.m
    if not m > 0.0:
        raise NonpositiveMass(f"mass must be positive, got {m}")
    t, dt, stride = init.t, cfg.dt, cfg.output_stride
    y = init.as_row()[2:].tolist()
    states = [init]
    gaps = list(_pos_q_gaps(m, y))
    for k in range(1, n_steps + 1):
        y = step(t, y, m, conn, dt)
        t = t + dt
        gaps += _pos_q_gaps(m, y)
        if k % stride == 0 or k == n_steps:
            states.append(PointwiseState._from_floats(t, m, y))
    # The mass is copied from step to step, never recomputed, so each
    # state's drift is the initial state's.
    return Trajectory(states=states, drifts=_drift_dict([abs(m - m)], gaps))


TRAJECTORY_CSV_HEADER = "t,m,x1,x2,x3,p1,p2,p3,q1,q2,q3,l1,l2,l3"


CONVERGENCE_FLOOR = 1e-10


def observed_order(hs, errs):
    """Least-squares slope of log(errs) against log(hs), steps decreasing.

    None when every error sits below CONVERGENCE_FLOOR, the roundoff floor
    (exact differentiation of low-degree fields).  Raises NonMonotoneError
    when the errors fail to decrease as h does.
    """
    if strict_max(errs) < CONVERGENCE_FLOOR:
        return None
    for a, b in zip(errs, errs[1:]):
        if not b < a:
            raise NonMonotoneError(
                f"errors do not decrease under refinement: {errs}"
            )
    kept = [(h, e) for h, e in zip(hs, errs) if e > CONVERGENCE_FLOOR]
    if len(kept) < 2:
        return None
    log_h = np.log([h for h, _ in kept])
    log_e = np.log([e for _, e in kept])
    slope = np.polyfit(log_h, log_e, 1)[0]
    return float(slope)
