"""Pointwise dynamics oracles and the convergence harness.

Closed forms: free motion, projectile, the rotating-frame image of an
inertial straight line, and the pure-Coriolis oscillation.  Convergence
slopes are checked against sympy-exact residual expansions.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torsor.affine import GalileanFrameChange, PointwiseTorsor, transform_point, transform_torsor
from torsor.balance import residual_1d, residual_cauchy, residual_pointwise
from torsor.connection import GalileanConnection
from torsor.errors import NonMonotoneError, NonpositiveMass
from torsor.fields import CauchyMedium, Cosserat1DField, Curve1D
from torsor import simulate
from torsor.cli import _table_csv
from torsor.library import _traj_table
from torsor.simulate import (
    TRAJECTORY_CSV_HEADER,
    IntegratorConfig,
    PointwiseState,
    Trajectory,
    observed_order,
    run_scenario,
    step,
)

from per_point import batched

EXACT_TOL = 1e-12
FRAME_TOL = 1e-8
SLOPE_TOL = 0.2
STEPS = [4e-3, 2e-3, 1e-3]


def rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# ---------------------------------------------------------------------------
# closed-form trajectories


def test_free_particle_straight_line():
    conn = GalileanConnection.uniform()
    init = PointwiseState.from_proper(
        t=0.0, m=2.5, x=[0.3, -0.2, 0.1], v=[1.0, 0.4, -0.7],
        l0=[0.2, 0.0, -0.1],
    )
    traj = run_scenario(init, conn, IntegratorConfig(dt=1e-2, t_end=2.0))
    for s in traj.states:
        assert_allclose(s.x, init.x + init.v * s.t, atol=EXACT_TOL, rtol=0)
        assert_allclose(s.p, init.p, atol=0, rtol=0)
        assert_allclose(s.l0, init.l0, atol=EXACT_TOL, rtol=0)
    rep = traj.drift_report()
    assert rep["mass_drift"] == 0.0
    assert rep["pos_q_drift"] < EXACT_TOL


def test_projectile_polynomial_exactness():
    g = np.array([0.0, 0.0, -9.81])
    conn = GalileanConnection.uniform(g=g)
    m = 1.3
    x0 = np.array([0.1, -0.4, 2.0])
    v0 = np.array([3.0, 1.0, 5.0])
    l0 = np.array([0.4, -0.1, 0.2])
    init = PointwiseState.from_proper(t=0.0, m=m, x=x0, v=v0, l0=l0)
    traj = run_scenario(init, conn, IntegratorConfig(dt=1e-3, t_end=1.0))
    fin = traj.final
    t = fin.t
    assert_allclose(fin.x, x0 + v0 * t + 0.5 * g * t * t, atol=EXACT_TOL,
                    rtol=0)
    assert_allclose(fin.p, m * (v0 + g * t), atol=EXACT_TOL, rtol=0)
    # RK4 integrates this polynomial flow exactly, so q stays m x and the
    # proper spin never moves.
    assert traj.drift_report()["pos_q_drift"] < 1e-10
    assert_allclose(fin.l0, l0, atol=EXACT_TOL, rtol=0)
    assert fin.m == m


def test_rotating_frame_matches_transformed_inertial_line():
    # A free particle seen from a chart spinning at omega = 1 about e3:
    # the straight line x0 + v0 t maps to R(-t)(x0 + v0 t), and the
    # connection carries the centrifugal field along with the spin.
    conn = GalileanConnection.rotating_frame(Omega=(0.0, 0.0, 1.0))
    m = 1.7
    x0 = np.array([0.5, -0.2, 0.3])
    v0 = np.array([0.4, 1.1, -0.6])
    l00 = np.array([0.3, -0.5, 0.2])
    init = PointwiseState.from_proper(t=0.0, m=m, x=x0, v=v0, l0=l00)
    traj = run_scenario(
        init, conn, IntegratorConfig(dt=1e-4, t_end=1.0, output_stride=1000)
    )
    e3 = np.array([0.0, 0.0, 1.0])
    # The frames coincide at t = 0, where inertial velocity exceeds the
    # rotating-frame one by Omega cross x.
    v_in = v0 + np.cross(e3, x0)
    for s in traj.states:
        t = s.t
        x_ref = rz(-t) @ (x0 + v_in * t)
        v_ref = rz(-t) @ v_in - np.cross(e3, x_ref)
        l_ref = np.cross(x_ref, m * v_ref) + rz(-t) @ l00
        assert_allclose(s.x, x_ref, atol=FRAME_TOL, rtol=0)
        assert_allclose(s.p, m * v_ref, atol=FRAME_TOL, rtol=0)
        assert_allclose(s.q, m * x_ref, atol=FRAME_TOL, rtol=0)
        assert_allclose(s.l, l_ref, atol=FRAME_TOL, rtol=0)
        assert s.m == m  # bit-identical, not merely close
    assert traj.drift_report()["mass_drift"] == 0.0
    assert traj.drift_report()["pos_q_drift"] < FRAME_TOL


def test_pure_spin_connection_inertial_oscillation():
    # Omega = e3 with g = 0 drops the centrifugal force: the velocity
    # turns at rate 2 omega and the proper spin precesses at omega.
    w = 1.0
    conn = GalileanConnection.uniform(Omega=(0.0, 0.0, w))
    m = 0.8
    x0 = np.array([0.2, 0.5, -0.1])
    v0 = np.array([1.0, -0.3, 0.4])
    l00 = np.array([0.1, 0.6, -0.2])
    init = PointwiseState.from_proper(t=0.0, m=m, x=x0, v=v0, l0=l00)
    traj = run_scenario(
        init, conn, IntegratorConfig(dt=1e-4, t_end=1.0, output_stride=2500)
    )
    for s in traj.states:
        t = s.t
        sin2, cos2 = np.sin(2 * w * t), np.cos(2 * w * t)
        S = np.array([
            [sin2 / (2 * w), (1 - cos2) / (2 * w), 0.0],
            [-(1 - cos2) / (2 * w), sin2 / (2 * w), 0.0],
            [0.0, 0.0, t],
        ])
        assert_allclose(s.v, rz(-2 * w * t) @ v0, atol=FRAME_TOL, rtol=0)
        assert_allclose(s.x, x0 + S @ v0, atol=FRAME_TOL, rtol=0)
        assert_allclose(s.l0, rz(-w * t) @ l00, atol=FRAME_TOL, rtol=0)


def test_proper_spin_constant_for_uniform_time_dependent_g():
    # Position-independent g(t) exerts torque x cross m g that lands
    # entirely in the orbital part, so l0 = l - x cross p stays put.
    conn = GalileanConnection(
        g=lambda t, x: np.array([0.3 * np.sin(t), -0.2, 0.1 * t])
    )
    init = PointwiseState.from_proper(
        t=0.0, m=1.1, x=[0.5, 0.1, -0.3], v=[0.2, 0.7, 0.4],
        l0=[0.3, -0.4, 0.5],
    )
    traj = run_scenario(init, conn, IntegratorConfig(dt=1e-3, t_end=1.0))
    worst = max(
        float(np.max(np.abs(s.l0 - init.l0))) for s in traj.states
    )
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# the RK4 stage against the divergence

coord = st.floats(-2.0, 2.0)
vec3 = st.tuples(coord, coord, coord)
mat3 = st.tuples(*[st.floats(-1.0, 1.0)] * 9)


@settings(max_examples=100, deadline=None)
@given(m=st.floats(0.1, 5.0), t=st.floats(-1.0, 1.0), x=vec3, p=vec3,
       l=vec3, g0=vec3, gx=mat3, w0=vec3, wx=mat3)
def test_stage_rates_are_the_pointwise_divergence(m, t, x, p, l, g0, gx, w0,
                                                  wx):
    # _rhs is the float form of the four pointwise balance laws.  The
    # trajectory linear in t through the state with _rhs's rates must zero
    # every row of residual_pointwise, the d = 0 view of
    # connection.divergence, under g and Omega that depend on t and x.
    G, W = np.reshape(gx, (3, 3)), np.reshape(wx, (3, 3))
    conn = GalileanConnection(g=lambda t, x: g0 + (1.0 + t) * (G @ x),
                              Omega=lambda t, x: w0 + t * (W @ x))
    y = [*x, *p, *(m * np.array(x)).tolist(), *l]  # (x, p, q = m x, l)
    k = np.array(simulate._rhs(t, y, m, conn))
    y = np.array(y)

    def traj(s):
        ys = y + (s - t) * k
        return PointwiseTorsor(m, ys[3:6], ys[6:9], ys[9:12])

    # The stencil of a linear trajectory is exact for any step, and a wide
    # one keeps the differencing roundoff near eps.
    res = residual_pointwise(batched(traj), conn, t, h=0.5).as_array()
    scale = float(np.max(np.abs(np.concatenate([y, k]))))
    assert np.max(np.abs(res)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# frame covariance


def test_frame_covariance_constant_g():
    # Integrate in frame A, then in frame B = (R, u, k) with g' = R g;
    # the B trajectory must be the pointwise transform of the A one.
    R = rz(0.7) @ rx(-0.4)
    u = np.array([0.3, -0.2, 0.5])
    k = np.array([1.0, 2.0, -0.5])
    g_a = np.array([0.2, -0.1, -9.0])
    m = 1.3
    x0 = np.array([0.4, -0.3, 0.2])
    v0 = np.array([1.0, 0.5, -0.2])
    l00 = np.array([0.1, -0.2, 0.3])

    cfg = IntegratorConfig(dt=1e-2, t_end=1.0, output_stride=10)
    traj_a = run_scenario(
        PointwiseState.from_proper(0.0, m, x0, v0, l00),
        GalileanConnection.uniform(g=g_a), cfg,
    )
    traj_b = run_scenario(
        PointwiseState.from_proper(0.0, m, R @ x0 + k, R @ v0 + u, R @ l00),
        GalileanConnection.uniform(g=R @ g_a), cfg,
    )
    for sa, sb in zip(traj_a.states, traj_b.states):
        t = sa.t
        x_exp = R @ sa.x + u * t + k
        p_exp = R @ sa.p + m * u
        l_exp = np.cross(x_exp, p_exp) + R @ sa.l0
        assert_allclose(sb.x, x_exp, atol=EXACT_TOL, rtol=0)
        assert_allclose(sb.p, p_exp, atol=EXACT_TOL, rtol=0)
        assert_allclose(sb.q, m * x_exp, atol=EXACT_TOL, rtol=0)
        assert_allclose(sb.l, l_exp, atol=EXACT_TOL, rtol=0)


def test_frame_covariance_agrees_with_affine_law():
    # Same change of frame expressed as a GalileanFrameChange.  The
    # extended-matrix law acts on the torsor whose moment is taken about
    # the origin event, i.e. with q - t p in the mixed slot, and must
    # reproduce the physical transform of the integrated state.
    R = rz(0.7) @ rx(-0.4)
    u = np.array([0.3, -0.2, 0.5])
    k = np.array([1.0, 2.0, -0.5])
    f = GalileanFrameChange(u=-R.T @ u, R=R.T, k=-R.T @ k)

    m = 1.3
    sa = PointwiseState.from_proper(
        t=0.8, m=m, x=[0.9, -0.6, 0.7], v=[1.2, 0.1, -0.4],
        l0=[0.1, -0.2, 0.3],
    )
    t = sa.t
    v_new = transform_point(f, np.concatenate([[t], sa.x]))
    assert_allclose(v_new[0], t, atol=0, rtol=0)
    assert_allclose(v_new[1:], R @ sa.x + u * t + k, atol=EXACT_TOL, rtol=0)

    tau_a = PointwiseTorsor(m, sa.p, sa.q - t * sa.p, sa.l).to_torsor()
    got = PointwiseTorsor.from_torsor(transform_torsor(f, tau_a))
    x_b = R @ sa.x + u * t + k
    p_b = R @ sa.p + m * u
    l_b = np.cross(x_b, p_b) + R @ sa.l0
    assert got.m == m
    assert_allclose(got.p, p_b, atol=EXACT_TOL, rtol=0)
    assert_allclose(got.q, m * x_b - t * p_b, atol=EXACT_TOL, rtol=0)
    assert_allclose(got.l, l_b, atol=EXACT_TOL, rtol=0)


# ---------------------------------------------------------------------------
# plumbing


def test_nonpositive_mass_rejected():
    with pytest.raises(NonpositiveMass):
        PointwiseState(t=0.0, m=0.0, x=np.zeros(3), p=np.zeros(3),
                       q=np.zeros(3), l=np.zeros(3))
    with pytest.raises(NonpositiveMass):
        PointwiseState.from_proper(0.0, -1.0, np.zeros(3), np.zeros(3),
                                   np.zeros(3))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-2, t_end=1.0, output_stride=0)


def test_run_scenario_stride_includes_final():
    conn = GalileanConnection.uniform()
    init = PointwiseState.from_proper(0.0, 1.0, np.zeros(3),
                                      [1.0, 0.0, 0.0], np.zeros(3))
    traj = run_scenario(init, conn,
                        IntegratorConfig(dt=0.1, t_end=1.0, output_stride=3))
    assert_allclose([s.t for s in traj.states], [0.0, 0.3, 0.6, 0.9, 1.0],
                    atol=1e-14)
    assert traj.rows().shape == (5, 14)
    assert traj.final is traj.states[-1]


def test_run_scenario_drift_keeps_a_late_nan(monkeypatch):
    # Integration keeps every state finite, so a NaN drift is injected past
    # the first step, where Python's max() used to drop it.
    state_drifts = simulate._state_drifts

    def drifts(s, m0):
        mass, pos_q = state_drifts(s, m0)
        return mass, (math.nan if s.t > 0.5 else pos_q)

    monkeypatch.setattr(simulate, "_state_drifts", drifts)
    init = PointwiseState.from_proper(0.0, 1.0, np.zeros(3),
                                      [1.0, 0.0, 0.0], np.zeros(3))
    traj = run_scenario(init, GalileanConnection.uniform(),
                        IntegratorConfig(dt=0.25, t_end=1.0))
    report = traj.drift_report()
    assert np.isnan(report["pos_q_drift"])
    assert report["mass_drift"] == 0.0
    by_hand = Trajectory(states=traj.states).drift_report()
    assert np.isnan(by_hand["pos_q_drift"])


def _spun_state():
    return PointwiseState.from_proper(0.0, 1.3, [0.4, -0.3, 0.2],
                                      [1.0, 0.5, -0.2], [0.1, -0.2, 0.3])


@pytest.mark.parametrize("wrap", [list, tuple, lambda v: np.reshape(v, (1, 3))],
                         ids=["list", "tuple", "row_array"])
def test_connection_callables_may_return_any_three_vector(wrap):
    # A g or Omega callable receives x as a float (3,) array and may return
    # any 3-vector-like value; the trajectory is bit for bit the same.
    def g(t, x):
        assert type(x) is np.ndarray and x.dtype == float and x.shape == (3,)
        return np.array([0.3 * np.sin(t), -0.2 * x[0], 0.1 * t - 9.0])

    def Omega(t, x):
        return np.array([0.1, 0.05 * x[2], 0.2 + 0.1 * t])

    cfg = IntegratorConfig(dt=1e-2, t_end=0.5)
    ref = run_scenario(_spun_state(), GalileanConnection(g=g, Omega=Omega),
                       cfg)
    conn = GalileanConnection(g=lambda t, x: wrap(g(t, x).tolist()),
                              Omega=lambda t, x: wrap(Omega(t, x).tolist()))
    got = run_scenario(_spun_state(), conn, cfg)
    assert got.rows().tobytes() == ref.rows().tobytes()
    assert got.drift_report() == ref.drift_report()


def test_non_finite_gravity_stops_the_run_naming_the_block():
    # Once g turns infinite the step's new state is not finite; the run
    # stops with the error of the first block checked rather than carry
    # inf or NaN on.
    conn = GalileanConnection(
        g=lambda t, x: [0.0, 0.0, math.inf if t > 0.5 else -9.8])
    with pytest.raises(ValueError, match=r"^x must be finite, got \["):
        run_scenario(_spun_state(), conn, IntegratorConfig(dt=0.1, t_end=1.0))


def test_trajectory_csv_format():
    s0 = PointwiseState.from_proper(0.0, 1.5, [0.1, 0.2, 0.3],
                                    [1.0, 0.0, -1.0], [0.0, 0.1, 0.0])
    s1 = step(s0, GalileanConnection.uniform(g=(0.0, 0.0, -1.0)), 0.25)
    text = _table_csv(_traj_table(Trajectory(states=[s0, s1])))
    lines = text.strip().split("\n")
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert lines[0] == "t,m,x1,x2,x3,p1,p2,p3,q1,q2,q3,l1,l2,l3"
    assert len(lines) == 3
    first = np.array([float(v) for v in lines[1].split(",")])
    assert_allclose(first, s0.as_row(), atol=0, rtol=0)
    # round-trip through the fixed format is exact for these values
    again = _table_csv(_traj_table(Trajectory(states=[s0, s1])))
    assert again == text


# ---------------------------------------------------------------------------
# convergence harness

SYMS4 = sp.symbols("t x1 x2 x3")
SYMS2 = sp.symbols("t s")


def lamb4(e):
    f = sp.lambdify(SYMS4, e, "numpy")
    return batched(lambda t, x: float(f(t, *x)))


def lamb4_vec(exprs):
    fs = [sp.lambdify(SYMS4, e, "numpy") for e in exprs]
    return batched(lambda t, x: np.array([f(t, *x) for f in fs], dtype=float))


def lamb4_mat(M):
    fs = [[sp.lambdify(SYMS4, M[i, j], "numpy") for j in range(3)]
          for i in range(3)]
    return batched(lambda t, x: np.array(
        [[fs[i][j](t, *x) for j in range(3)] for i in range(3)], dtype=float
    ))


def lamb2_vec(exprs):
    fs = [sp.lambdify(SYMS2, e, "numpy") for e in exprs]
    return batched(lambda t, s: np.array([f(t, s) for f in fs], dtype=float))


def cross3(a, b):
    return sp.Matrix([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _cauchy_case():
    """Sin/exp manufactured 3D fields plus their sympy-exact residual."""
    t, x1, x2, x3 = SYMS4
    X = [x1, x2, x3]
    g = sp.Matrix([sp.Rational(1, 10), -sp.Rational(1, 5), sp.Rational(3, 10)])
    Om = sp.Matrix([sp.Rational(1, 5), -sp.Rational(1, 10), sp.Rational(3, 10)])

    rho = 2 + sp.sin(x1 + 2 * t) * sp.Rational(3, 10)
    v = sp.Matrix([
        sp.sin(x2) * sp.Rational(2, 5),
        sp.cos(x1) * sp.Rational(1, 5),
        sp.sin(x1 + t) * sp.Rational(3, 10),
    ])
    sig = sp.Matrix([
        [sp.sin(x1 + x2) / 2, sp.sin(x2 - x3) / 10, sp.exp(x3 / 3) / 5],
        [sp.cos(x1) / 5, sp.sin(x2 + t) * sp.Rational(3, 10), sp.sin(x3) / 10],
        [3 * sp.exp(x1 / 4) / 10, sp.cos(x2) / 5, 2 * sp.cos(x1 + x3) / 5],
    ])

    mass_o = sp.diff(rho, t) + sum(sp.diff(rho * v[i], X[i]) for i in range(3))
    grad_v_v = sp.Matrix(
        [sum(sp.diff(v[i], X[j]) * v[j] for j in range(3)) for i in range(3)]
    )
    div_sig = sp.Matrix(
        [sum(sp.diff(sig[i, j], X[j]) for j in range(3)) for i in range(3)]
    )
    lin_o = rho * (sp.diff(v, t) + grad_v_v) - div_sig \
        - rho * (g - 2 * cross3(Om, v))
    ang_o = sp.Matrix([
        sig[1, 2] - sig[2, 1], sig[2, 0] - sig[0, 2], sig[0, 1] - sig[1, 0],
    ])

    medium = CauchyMedium(rho=lamb4(rho), v=lamb4_vec(v), sigma=lamb4_mat(sig))
    conn = GalileanConnection(
        g=np.array([0.1, -0.2, 0.3]), Omega=np.array([0.2, -0.1, 0.3])
    )
    pt = (0.4, np.array([0.3, -0.6, 0.5]))
    subs = dict(zip(SYMS4, (pt[0], *pt[1])))
    exact = np.concatenate([
        [float(mass_o.subs(subs))],
        [float(e.subs(subs)) for e in lin_o],
        np.zeros(3),
        [float(e.subs(subs)) for e in ang_o],
    ])

    def op(fields, point, h):
        res = residual_cauchy(fields, conn, point[0], point[1], h=h)
        return float(np.max(np.abs(res.as_array() - exact)))

    return medium, pt, op


def test_convergence_slope_on_sin_exp_cauchy():
    medium, pt, op = _cauchy_case()
    slope = observed_order(STEPS, [op(medium, pt, h) for h in STEPS])
    assert abs(slope - 2.0) < SLOPE_TOL


def test_convergence_polynomial_floor_returns_none():
    # Quadratic fields: central differences are exact, every error sits
    # at roundoff, and the harness reports the floor case as None.
    t, x1, x2, x3 = SYMS4
    X = [x1, x2, x3]
    rho = 2 + x1 * x2 / 10 + t * x3 / 5
    v = sp.Matrix([x2 / 5, x1 * x3 / 10, t * x1 / 5])
    sig = sp.Matrix(3, 3, lambda i, j: (i - j) * x1 / 10 + (i + j) * x2 / 20)

    mass_o = sp.diff(rho, t) + sum(sp.diff(rho * v[i], X[i]) for i in range(3))
    grad_v_v = sp.Matrix(
        [sum(sp.diff(v[i], X[j]) * v[j] for j in range(3)) for i in range(3)]
    )
    div_sig = sp.Matrix(
        [sum(sp.diff(sig[i, j], X[j]) for j in range(3)) for i in range(3)]
    )
    g = sp.Matrix([0, 0, 0])
    lin_o = rho * (sp.diff(v, t) + grad_v_v) - div_sig - rho * g
    ang_o = sp.Matrix([
        sig[1, 2] - sig[2, 1], sig[2, 0] - sig[0, 2], sig[0, 1] - sig[1, 0],
    ])

    medium = CauchyMedium(rho=lamb4(rho), v=lamb4_vec(v), sigma=lamb4_mat(sig))
    conn = GalileanConnection.uniform()
    pt = (0.3, np.array([0.2, -0.4, 0.5]))
    subs = dict(zip(SYMS4, (pt[0], *pt[1])))
    exact = np.concatenate([
        [float(mass_o.subs(subs))],
        [float(e.subs(subs)) for e in lin_o],
        np.zeros(3),
        [float(e.subs(subs)) for e in ang_o],
    ])

    def op(fields, point, h):
        res = residual_cauchy(fields, conn, point[0], point[1], h=h)
        return float(np.max(np.abs(res.as_array() - exact)))

    assert observed_order(STEPS, [op(medium, pt, h) for h in STEPS]) is None


def test_convergence_non_monotone_raises():
    with pytest.raises(NonMonotoneError):
        observed_order(STEPS, [0.5, 0.5, 0.5])


def test_convergence_nan_error_is_not_read_as_exact():
    # With max() a NaN among sub-floor errors read as exact differentiation
    # (None), which the convergence cases score as a pass.
    errs = {4e-3: 1e-12, 2e-3: math.nan, 1e-3: 1e-13}
    with pytest.raises(NonMonotoneError):
        observed_order(list(errs), list(errs.values()))


def test_convergence_slope_on_1d_rod():
    # A straight chart that translates and slides along itself, with
    # sin/exp fields that describe a rod (v = d psi/dt + w n, q = rho psi);
    # the four slender-medium equations are expanded symbolically at the
    # probe point.
    t, s = SYMS2
    n = sp.Matrix([1, 0, 0])
    psi = sp.Matrix([s + t / 10, 3 * sp.sin(t) / 10, t / 5])
    rho = sp.Rational(3, 2) + 2 * sp.cos(s - t) / 5
    v_t = sp.sin(s + t) / 5
    slide = (n.T * sp.diff(psi, t))[0]
    w = v_t - slide
    v = sp.diff(psi, t) + w * n
    F = sp.Matrix([3 * sp.sin(s) / 10, sp.cos(s + t) / 5, sp.exp(s / 3) / 10])
    q = rho * psi
    l = sp.Matrix([sp.sin(s + t) / 10, sp.cos(s) / 5, sp.sin(s) / 10])
    l_star = sp.Matrix([sp.sin(s) / 5, sp.cos(s - t) / 10, sp.sin(s + t) / 5])
    M_star = sp.Matrix([sp.cos(s + t) / 10, 3 * sp.sin(s) / 10, sp.cos(s) / 5])
    g = sp.Matrix([sp.Rational(1, 10), -sp.Rational(3, 10), sp.Rational(1, 5)])
    Om = sp.Matrix([sp.Rational(1, 5), sp.Rational(1, 10), -sp.Rational(3, 10)])

    mass_o = sp.diff(rho, t) + sp.diff(rho * w, s)
    lin_o = rho * (sp.diff(v, t) + w * sp.diff(v, s)) - sp.diff(F, s) \
        - rho * (g - 2 * cross3(Om, v))
    pos_o = sp.diff(q, t) + sp.diff(l_star - slide * q, s) - rho * v
    ang_o = sp.diff(l, t) + cross3(Om, l) + cross3(l_star - v_t * q, cross3(Om, n)) \
        + sp.diff(M_star - slide * l, s) - cross3(n, F)

    e1 = np.array([1.0, 0.0, 0.0])
    curve = Curve1D(psi=lamb2_vec(psi), n=batched(lambda tt, ss: e1),
                    v=lamb2_vec(v))
    f = Cosserat1DField(
        curve=curve, rho_l=batched(sp.lambdify(SYMS2, rho, "numpy")),
        F=lamb2_vec(F), q=lamb2_vec(q), l=lamb2_vec(l),
        l_star=lamb2_vec(l_star), M_star=lamb2_vec(M_star),
    )
    conn = GalileanConnection(
        g=np.array([0.1, -0.3, 0.2]), Omega=np.array([0.2, 0.1, -0.3])
    )
    pt = (0.3, 0.7)
    subs = dict(zip(SYMS2, pt))
    exact = np.concatenate([
        [float(mass_o.subs(subs))],
        [float(e.subs(subs)) for e in lin_o],
        [float(e.subs(subs)) for e in pos_o],
        [float(e.subs(subs)) for e in ang_o],
    ])

    def op(fields, point, h):
        res = residual_1d(fields, conn, point[0], point[1], h=h)
        return float(np.max(np.abs(res.as_array() - exact)))

    slope = observed_order(STEPS, [op(f, pt, h) for h in STEPS])
    assert abs(slope - 2.0) < SLOPE_TOL
