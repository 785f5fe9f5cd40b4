"""Pointwise-object dynamics and the shared convergence harness.

Integrates the ten balance equations of a point mass as ODEs with classical
fixed-step RK4: dx/dt = p/m, dp/dt = m (g - 2 Omega x v), dq/dt = p,
dl/dt = x x dp/dt - Omega x l0, with the mass held exactly constant and the
proper part l0 = l - x x p carried as a derived quantity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneError, NonpositiveMass
from .vecmath import cross, cross3, strict_max, triple

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
        if not self.m > 0.0:
            raise NonpositiveMass(f"mass must be positive, got {self.m}")
        self.x = _vec3(self.x, "x")
        self.p = _vec3(self.p, "p")
        self.q = _vec3(self.q, "q")
        self.l = _vec3(self.l, "l")

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
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        self.output_stride = int(self.output_stride)
        if self.output_stride < 1:
            raise ValueError(
                f"output_stride must be >= 1, got {self.output_stride}"
            )


# On 3-vectors numpy's per-call overhead dwarfs the arithmetic, so the RK4
# step works block by block (x, p, q, l) on Python float triples.  Each
# block applies the elementwise operations of the formulas in the module
# docstring in the same order, so the trajectory is bit-identical to an
# evaluation on numpy 3-vectors.
def _rhs(t, x, p, l, m, conn):
    """Stage derivatives (dx/dt, dp/dt, dl/dt); dq/dt is p itself."""
    x_arr = np.array(x)
    g = triple(conn.g(t, x_arr))
    Om = triple(conn.Omega(t, x_arr))
    v = [pi / m for pi in p]
    force = [m * (gi - 2.0 * ci) for gi, ci in zip(g, cross3(Om, v))]
    l0 = [li - ci for li, ci in zip(l, cross3(x, p))]
    dl = [a - b for a, b in zip(cross3(x, force), cross3(Om, l0))]
    return v, force, dl


def _axpy(a, dy, y):
    """Stage input y + a dy."""
    return [yi + a * di for yi, di in zip(y, dy)]


def _rk4_sum(y, w, k1, k2, k3, k4):
    """y + w (k1 + 2 k2 + 2 k3 + k4)."""
    return [yi + w * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def step(state: PointwiseState, conn, dt: float) -> PointwiseState:
    """One classical RK4 step; the mass is copied, never recomputed."""
    if not state.m > 0.0:
        raise NonpositiveMass(f"mass must be positive, got {state.m}")
    t, m = state.t, state.m
    x, p, q, l = (state.x.tolist(), state.p.tolist(), state.q.tolist(),
                  state.l.tolist())
    h = dt / 2.0
    v1, f1, d1 = _rhs(t, x, p, l, m, conn)
    p2 = _axpy(h, f1, p)
    v2, f2, d2 = _rhs(t + h, _axpy(h, v1, x), p2, _axpy(h, d1, l), m, conn)
    p3 = _axpy(h, f2, p)
    v3, f3, d3 = _rhs(t + h, _axpy(h, v2, x), p3, _axpy(h, d2, l), m, conn)
    p4 = _axpy(dt, f3, p)
    v4, f4, d4 = _rhs(t + dt, _axpy(dt, v3, x), p4, _axpy(dt, d3, l), m,
                      conn)
    w = dt / 6.0
    return PointwiseState(
        t=t + dt, m=m,
        x=_rk4_sum(x, w, v1, v2, v3, v4),
        p=_rk4_sum(p, w, f1, f2, f3, f4),
        q=_rk4_sum(q, w, p, p2, p3, p4),
        l=_rk4_sum(l, w, d1, d2, d3, d4),
    )


def _state_drifts(s: PointwiseState, m0: float):
    """(|m - m0|, max |q - m x|, max |l - l0 - x x p|) of one state."""
    x, l = s.x.tolist(), s.l.tolist()
    xp = cross3(x, s.p.tolist())
    return (
        abs(s.m - m0),
        strict_max(abs(qi - s.m * xi) for qi, xi in zip(s.q.tolist(), x)),
        # l0 = l - x x p, as the l0 property computes it
        strict_max(abs(li - (li - ci) - ci) for li, ci in zip(l, xp)),
    )


def _drift_dict(rows):
    """Worst of each drift over per-state _state_drifts rows."""
    mass, pos_q, split = (strict_max(col) for col in zip(*rows))
    return {
        "mass_drift": mass,
        "pos_q_drift": pos_q,
        "proper_split_drift": split,
    }


@dataclass
class Trajectory:
    states: list
    drifts: dict = None

    @property
    def final(self) -> PointwiseState:
        return self.states[-1]

    def times(self):
        return np.array([s.t for s in self.states])

    def rows(self):
        """(n, 14) array in the t,m,x,p,q,l column order."""
        return np.array([s.as_row() for s in self.states])

    def drift_report(self) -> dict:
        """Conservation diagnostics.

        mass_drift is the largest deviation of m from its initial value
        (must be exactly zero); pos_q_drift the largest |q - m x|; the
        proper-split drift |l - l0 - x x p| vanishes identically because
        l0 is derived, and is reported to document that.  run_scenario
        accumulates these over every step; recomputed from the stored
        samples when the trajectory was assembled by hand.
        """
        if self.drifts is not None:
            return dict(self.drifts)
        m0 = self.states[0].m
        return _drift_dict([_state_drifts(s, m0) for s in self.states])


def run_scenario(init: PointwiseState, conn,
                 cfg: IntegratorConfig) -> Trajectory:
    """Integrate from init to cfg.t_end, sampling every output_stride steps.

    The number of steps is round((t_end - t0) / dt); the final state is
    always included in the samples.  Conservation drifts are accumulated
    at every step, not just at the sampled ones.
    """
    n_steps = int(round((cfg.t_end - init.t) / cfg.dt))
    if n_steps < 0:
        raise ValueError("t_end precedes the initial time")
    states = [init]
    s = init
    m0 = init.m
    drifts = [_state_drifts(init, m0)]
    for k in range(n_steps):
        s = step(s, conn, cfg.dt)
        drifts.append(_state_drifts(s, m0))
        if (k + 1) % cfg.output_stride == 0 or k + 1 == n_steps:
            states.append(s)
    return Trajectory(states=states, drifts=_drift_dict(drifts))


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
