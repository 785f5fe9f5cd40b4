"""Balance residuals against closed-form solutions and symbolic oracles.

Each operator gets (a) exact solutions of its equations, which must produce
residuals at finite-difference noise level, and (b) manufactured polynomial
fields whose residuals are computed independently in sympy.  The 3D moment
operator is additionally checked against the general covariant divergence,
and the classical operator against its moment specialization.
"""

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from torsor import fd
from torsor.affine import PointwiseTorsor
from torsor.balance import (
    BalanceResidual,
    residual_1d,
    residual_2d,
    residual_3d_cosserat,
    residual_cauchy,
    residual_pointwise,
)
from torsor.connection import (
    GalileanConnection,
    PullbackChristoffels,
    divergence,
)
from torsor.errors import DegenerateTangent, DifferentiationFailure
from torsor.fields import (
    SECOND_DIFF_REL_STEP,
    CauchyMedium,
    Cosserat1DField,
    Cosserat3DState,
    Curve1D,
    ShellField,
    ShellLoads,
    _second_diff,
    assemble_cauchy_T,
    shell_christoffels,
)
from torsor.library import manufactured_rod
from torsor.vecmath import rotation

from per_point import batched

FD_TOL = 1e-8
E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# pointwise


def test_free_particle_zero_residual():
    m = 2.0
    p = np.array([1.0, 2.0, 3.0])
    x0 = np.array([0.5, -1.0, 0.2])
    l0 = np.array([0.3, 0.0, -0.7])

    def traj(t):
        x = x0 + (p / m) * t
        return PointwiseTorsor(m, p, m * x, l0 + np.cross(x, p))

    res = residual_pointwise(batched(traj), GalileanConnection(), 0.7)
    assert res.max_abs() < 1e-9


def test_projectile_zero_residual():
    m = 1.5
    g = np.array([0.0, 0.0, -9.81])
    v0 = np.array([3.0, 1.0, 5.0])
    x0 = np.array([0.0, 0.0, 1.0])
    l0 = np.array([0.2, -0.1, 0.4])
    conn = GalileanConnection(g=g)

    def traj(t):
        x = x0 + v0 * t + 0.5 * g * t * t
        v = v0 + g * t
        return PointwiseTorsor(m, m * v, m * x, l0 + np.cross(x, m * v))

    for t in [0.0, 0.4, 1.1]:
        assert residual_pointwise(batched(traj), conn, t).max_abs() < 1e-8


def test_inertial_oscillation_in_spinning_frame():
    # Pure-spin connection (no gravity): the velocity rotates at -2 Omega,
    # and the moment about the point precesses at -Omega.
    w = 0.8
    m = 1.3
    v0 = np.array([0.5, -0.3, 0.2])
    x0 = np.array([1.0, 0.4, -0.6])
    l00 = np.array([0.1, 0.7, -0.2])
    conn = GalileanConnection(Omega=w * E3)

    def S(t):
        c, s = np.cos(2 * w * t), np.sin(2 * w * t)
        return np.array(
            [
                [s / (2 * w), (1 - c) / (2 * w), 0.0],
                [-(1 - c) / (2 * w), s / (2 * w), 0.0],
                [0.0, 0.0, t],
            ]
        )

    def traj(t):
        v = rotation(E3, -2 * w * t) @ v0
        x = x0 + S(t) @ v0
        l0 = rotation(E3, -w * t) @ l00
        return PointwiseTorsor(m, m * v, m * x, l0 + np.cross(x, m * v))

    for t in [0.0, 0.3, 0.9]:
        assert residual_pointwise(batched(traj), conn, t).max_abs() < 1e-8


def test_pointwise_detects_wrong_force():
    # Dropping the Coriolis term must show up as a momentum residual.
    w, m = 0.6, 1.0
    v0 = np.array([1.0, 0.0, 0.0])
    conn = GalileanConnection(Omega=w * E3)

    def traj(t):
        # Straight motion, which does not solve the spinning-frame laws.
        x = v0 * t
        return PointwiseTorsor(m, m * v0, m * x, np.cross(x, m * v0))

    res = residual_pointwise(batched(traj), conn, 0.5)
    expected = 2.0 * m * np.cross(w * E3, v0)
    assert_allclose(res.lin_mom, expected, atol=1e-8)


def pointwise_oracle(traj, conn, t, h=None):
    """The pointwise laws expanded by hand, with moments about the point.

    dm/dt; dp/dt - force; dq/dt - p; dl/dt + Omega x l0 - x x force, with
    force = m (g - 2 Omega x v) and l0 = l - x x p.
    """
    pt = traj(t)
    x, v = pt.q / pt.m, pt.p / pt.m
    Om = conn.Omega(t, x)
    dot = {k: fd.diff(lambda u: getattr(traj(u), k), t, h=h)
           for k in ("m", "p", "q", "l")}
    force = pt.m * (conn.g(t, x) - 2.0 * np.cross(Om, v))
    l0 = pt.l - np.cross(x, pt.p)
    return np.concatenate([
        [dot["m"]], dot["p"] - force, dot["q"] - pt.p,
        dot["l"] + np.cross(Om, l0) - np.cross(x, force),
    ])


@pytest.mark.parametrize("h", [None, 1e-3])
def test_pointwise_matches_hand_expanded_oracle(h):
    # A trajectory that solves none of the laws (mass, momentum, q and l
    # all perturbed) in a rotating frame with a base gravity, so g depends
    # on position, Omega is nonzero and every row is nonzero.
    Om = np.array([0.3, -0.5, 0.7])
    conn = GalileanConnection.rotating_frame(Om, g=[0.4, -0.2, -9.8])

    def traj(t):
        m = 1.3 + 0.2 * np.sin(t)
        x = np.array([0.4 + t, -0.3 * t * t, 1.1 + 0.5 * np.cos(t)])
        p = m * np.array([1.0, -0.6 * t, -0.5 * np.sin(t)])
        p = p + np.array([0.1 * t, 0.2, -0.3 * t * t])
        q = m * x + np.array([0.05 * t, -0.02, 0.03 * np.sin(t)])
        l = np.array([0.2 * t, -0.4, 0.1 * np.cos(2.0 * t)]) + np.cross(x, p)
        return PointwiseTorsor(m, p, q, l)

    for t in [0.0, 0.4, 1.3]:
        got = residual_pointwise(batched(traj), conn, t, h=h).as_array()
        want = pointwise_oracle(traj, conn, t, h=h)
        assert np.min(np.abs(want)) > 1e-3
        assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# classical 3D medium


def test_hydrostatic_equilibrium():
    rho0 = 2.0
    g = np.array([0.2, -0.4, -9.5])
    conn = GalileanConnection(g=g)
    medium = CauchyMedium(
        rho=batched(lambda t, x: rho0),
        v=batched(lambda t, x: np.zeros(3)),
        sigma=batched(lambda t, x: -rho0 * float(g @ x) * np.eye(3)),
    )
    res = residual_cauchy(medium, conn, 0.0, [0.3, -0.2, 1.4])
    assert res.max_abs() < 1e-9


def test_rotating_bucket_equilibrium():
    # Water at rest in a frame spinning at w about e3, under gravity: the
    # pressure rho (g . x + w^2 (x1^2 + x2^2) / 2) balances both forces.
    rho0, w = 1.0, 2.0
    g0 = np.array([0.0, 0.0, -9.81])

    def g_total(t, x):
        return g0 + w * w * np.array([x[0], x[1], 0.0])

    conn = GalileanConnection(g=g_total, Omega=w * E3)

    def sigma(t, x):
        p = rho0 * (g0 @ x) + 0.5 * rho0 * w * w * (x[0] ** 2 + x[1] ** 2)
        return -p * np.eye(3)

    medium = CauchyMedium(
        rho=batched(lambda t, x: rho0), v=batched(lambda t, x: np.zeros(3)),
        sigma=batched(sigma),
    )
    res = residual_cauchy(medium, conn, 0.0, [0.5, -0.3, 0.8])
    assert res.max_abs() < 1e-8


SYMS4 = sp.symbols("t x1 x2 x3")


def poly4(rng, degree=2):
    t, x1, x2, x3 = SYMS4
    monos = [sp.Integer(1), t, x1, x2, x3]
    if degree >= 2:
        base = [t, x1, x2, x3]
        monos += [a * b for i, a in enumerate(base) for b in base[i:]]
    coeffs = rng.integers(-2, 3, size=len(monos))
    return sum(int(c) * m for c, m in zip(coeffs, monos))


def lamb4(expr):
    f = sp.lambdify(SYMS4, expr, "numpy")
    return batched(lambda t, x: float(f(t, x[0], x[1], x[2])))


def lamb4_vec(exprs):
    fns = [sp.lambdify(SYMS4, e, "numpy") for e in exprs]
    return batched(lambda t, x: np.array(
        [f(t, x[0], x[1], x[2]) for f in fns], dtype=float
    ))


def lamb4_mat(M):
    fns = [[sp.lambdify(SYMS4, M[i, j], "numpy") for j in range(M.shape[1])]
           for i in range(M.shape[0])]
    return batched(lambda t, x: np.array(
        [[f(t, x[0], x[1], x[2]) for f in row] for row in fns], dtype=float
    ))


def cross3(a, b):
    return sp.Matrix(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


G_SYM = sp.Matrix([sp.Rational(1, 5), -sp.Rational(2, 5), sp.Rational(4, 5)])
OM_SYM = sp.Matrix(
    [sp.Rational(3, 10), sp.Rational(1, 10), -sp.Rational(1, 5)]
)
CONN_3D = GalileanConnection(
    g=np.array([0.2, -0.4, 0.8]), Omega=np.array([0.3, 0.1, -0.2])
)


def oracle_rows(rows, pt):
    """Evaluate each sympy row list at pt = (t, x) as a float array."""
    subs = dict(zip(SYMS4, (pt[0], *pt[1])))
    return [np.array([float(e.subs(subs)) for e in row]) for row in rows]


def cauchy_polynomial_case(rng):
    """Random polynomial rho, v and asymmetric sigma in frame CONN_3D.

    Returns the medium and its (mass, lin, ang) rows derived in sympy.
    """
    t, x1, x2, x3 = SYMS4
    X = [x1, x2, x3]
    g, Om = G_SYM, OM_SYM

    rho = 40 + poly4(rng)  # comfortably positive near the origin
    v = sp.Matrix([poly4(rng) for _ in range(3)])
    sig = sp.Matrix(3, 3, lambda i, j: poly4(rng))  # asymmetric on purpose

    mass_o = sp.diff(rho, t) + sum(sp.diff(rho * v[i], X[i]) for i in range(3))
    grad_v_v = sp.Matrix(
        [sum(sp.diff(v[i], X[j]) * v[j] for j in range(3)) for i in range(3)]
    )
    div_sig = sp.Matrix(
        [sum(sp.diff(sig[i, j], X[j]) for j in range(3)) for i in range(3)]
    )
    lin_o = (
        rho * (sp.diff(v, t) + grad_v_v)
        - div_sig
        - rho * (g - 2 * cross3(Om, v))
    )
    ang_o = sp.Matrix(
        [sig[1, 2] - sig[2, 1], sig[2, 0] - sig[0, 2], sig[0, 1] - sig[1, 0]]
    )

    medium = CauchyMedium(rho=lamb4(rho), v=lamb4_vec(v), sigma=lamb4_mat(sig))
    return medium, ([mass_o], lin_o, ang_o)


def test_cauchy_manufactured_polynomial_oracle():
    medium, rows = cauchy_polynomial_case(np.random.default_rng(11))
    pt = (0.4, np.array([0.3, -0.6, 0.5]))
    res = residual_cauchy(medium, CONN_3D, pt[0], pt[1])
    mass_o, lin_o, ang_o = oracle_rows(rows, pt)

    assert_allclose(res.mass, mass_o[0], atol=FD_TOL)
    assert_allclose(res.lin_mom, lin_o, atol=FD_TOL)
    assert_allclose(res.pos_q, np.zeros(3), atol=0)
    assert_allclose(res.ang_mom, ang_o, atol=1e-12)


# ---------------------------------------------------------------------------
# slender medium


def test_static_rod_with_uniform_tension():
    rod = Curve1D(
        batched(lambda t, s: np.array([s, 0.0, 0.0])),
        n=batched(lambda t, s: np.array([1.0, 0.0, 0.0])),
    )
    zero3 = batched(lambda t, s: np.zeros(3))
    f = Cosserat1DField(
        curve=rod,
        rho_l=batched(lambda t, s: 1.2),
        F=batched(lambda t, s: np.array([3.0, 0.0, 0.0])),
        q=zero3,
        l=zero3,
        l_star=zero3,
        M_star=zero3,
    )
    res = residual_1d(f, GalileanConnection(), 0.0, 0.4)
    assert res.max_abs() < 1e-9


def test_hanging_rod_equilibrium():
    # Vertical rod under gravity: tension F = rho_l g0 s e3 balances it.
    rho_l, g0 = 1.5, 9.81
    rod = Curve1D(
        batched(lambda t, s: np.array([0.0, 0.0, s])),
        n=batched(lambda t, s: E3),
    )
    zero3 = batched(lambda t, s: np.zeros(3))
    f = Cosserat1DField(
        curve=rod,
        rho_l=batched(lambda t, s: rho_l),
        F=batched(lambda t, s: np.array([0.0, 0.0, rho_l * g0 * s])),
        q=zero3,
        l=zero3,
        l_star=zero3,
        M_star=zero3,
    )
    conn = GalileanConnection(g=(0.0, 0.0, -g0))
    res = residual_1d(f, conn, 0.0, 0.7)
    assert res.max_abs() < 1e-8


def test_beam_moment_shear_recovery():
    # Statics: the angular residual is dM_star/ds - n x F, the beam relation
    # between moment gradient and shear.
    rod = Curve1D(
        batched(lambda t, s: np.array([s, 0.0, 0.0])),
        n=batched(lambda t, s: np.array([1.0, 0.0, 0.0])),
    )
    zero3 = batched(lambda t, s: np.zeros(3))

    def F(t, s):
        return np.array([0.0, 2.0 * s, 0.0])

    def M_star(t, s):
        return np.array([0.0, 0.0, s ** 2])  # d/ds = (0, 0, 2s) = n x F

    f = Cosserat1DField(
        curve=rod, rho_l=batched(lambda t, s: 1.0),
        F=batched(F), q=zero3, l=zero3, l_star=zero3, M_star=batched(M_star),
    )
    lin_only = residual_1d(f, GalileanConnection(), 0.0, 0.8)
    assert_allclose(lin_only.ang_mom, np.zeros(3), atol=1e-9)
    # Without the moment field the residual exposes n x F itself.
    f_bare = Cosserat1DField(
        curve=rod, rho_l=batched(lambda t, s: 1.0),
        F=batched(F), q=zero3, l=zero3, l_star=zero3, M_star=zero3,
    )
    res = residual_1d(f_bare, GalileanConnection(), 0.0, 0.8)
    assert_allclose(res.ang_mom, -np.array([0.0, 0.0, 1.6]), atol=1e-9)


def spinning_ring_fields(r, w, rho_l):
    """A ring spinning rigidly about its axis, on a chart glued to matter.

    Hoop tension rho_l w^2 r^2 supplies the centripetal force; q and l_star
    are origin-referred (q = rho_l psi, l_star = rho_l v_t psi), while the
    centroid-referred l and M_star vanish for a concentrated section.
    """
    tension = rho_l * w * w * r * r

    def psi(t, s):
        return rotation(E3, w * t) @ np.array(
            [r * np.cos(s / r), r * np.sin(s / r), 0.0]
        )

    def n(t, s):
        return rotation(E3, w * t) @ np.array(
            [-np.sin(s / r), np.cos(s / r), 0.0]
        )

    def v(t, s):
        return np.cross(w * E3, psi(t, s))

    ring = Curve1D(batched(psi), v=batched(v), n=batched(n))
    zero3 = batched(lambda t, s: np.zeros(3))
    return Cosserat1DField(
        curve=ring,
        rho_l=batched(lambda t, s: rho_l),
        F=batched(lambda t, s: tension * n(t, s)),
        q=batched(lambda t, s: rho_l * psi(t, s)),
        l=zero3,
        l_star=batched(lambda t, s: rho_l * (w * r) * psi(t, s)),
        M_star=zero3,
    )


def test_spinning_ring_hoop_tension():
    # All ten residuals vanish on the co-rotating chart, where the chart
    # slides tangentially at v_t and matter does not move past it.
    f = spinning_ring_fields(r=1.2, w=0.9, rho_l=2.0)
    res = residual_1d(f, GalileanConnection(), 0.3, 0.9)
    assert res.max_abs() < 1e-6


def static_ring_fields(r, w, rho_l, k=np.zeros(3)):
    """The spinning ring on the static chart, every position shifted by k.

    Matter slides along the chart at v_t = w r and the fields are
    time-independent; psi, q and l_star carry the shift.
    """
    tension = rho_l * w * w * r * r

    def psi(t, s):
        return np.array([r * np.cos(s / r), r * np.sin(s / r), 0.0]) + k

    def n(t, s):
        return np.array([-np.sin(s / r), np.cos(s / r), 0.0])

    zero3 = batched(lambda t, s: np.zeros(3))
    return Cosserat1DField(
        curve=Curve1D(batched(psi), v=batched(lambda t, s: w * r * n(t, s)),
                      n=batched(n)),
        rho_l=batched(lambda t, s: rho_l),
        F=batched(lambda t, s: tension * n(t, s)),
        q=batched(lambda t, s: rho_l * psi(t, s)),
        l=zero3,
        l_star=batched(lambda t, s: rho_l * (w * r) * psi(t, s)),
        M_star=zero3,
    )


def test_spinning_ring_on_static_chart():
    # The same motion described on the static chart: matter slides at v_t,
    # the fields are time-independent, and the residuals vanish again.
    f = static_ring_fields(r=1.2, w=0.9, rho_l=2.0)
    res = residual_1d(f, GalileanConnection(), 0.3, 0.9)
    assert res.max_abs() < 1e-6


def test_1d_rows_independent_of_frame_origin():
    # The static-chart ring with the frame origin moved by k: psi, q and
    # l_star shift by k, rho_l k and rho_l v_t k.  The angular row is about
    # the centroid, so no row may move, and in a spinning frame where the
    # ring is not in equilibrium the angular rows still vanish.
    conn = GalileanConnection(g=(0.0, 0.0, -1.0), Omega=(0.1, 0.2, 0.3))

    def rows(k):
        f = static_ring_fields(r=1.2, w=0.9, rho_l=2.0, k=k)
        return residual_1d(f, conn, 0.3, 0.9)

    at_0 = rows(np.zeros(3))
    assert_allclose(at_0.ang_mom, np.zeros(3), atol=1e-9)
    for k in ([5.0, 0.0, 0.0], [0.0, 0.0, 5.0]):
        res = rows(np.array(k))
        assert_allclose(res.as_array(), at_0.as_array(), rtol=0, atol=1e-9)
        assert_allclose(res.ang_mom, np.zeros(3), atol=1e-9)


def test_pipe_flow_position_balance():
    # Uniform axial flow in a static straight pipe: the position row closes
    # through the transport flux l_star = rho_l v_t psi, not through dq/dt.
    rho_l, vt = 2.0, 0.7
    e1 = np.array([1.0, 0.0, 0.0])
    pipe = Curve1D(
        batched(lambda t, s: np.array([s, 0.0, 0.0])),
        v=batched(lambda t, s: vt * e1),
        n=batched(lambda t, s: e1),
    )
    zero3 = batched(lambda t, s: np.zeros(3))
    f = Cosserat1DField(
        curve=pipe,
        rho_l=batched(lambda t, s: rho_l),
        F=zero3,
        q=batched(lambda t, s: rho_l * s * e1),
        l=zero3,
        l_star=batched(lambda t, s: rho_l * vt * s * e1),
        M_star=zero3,
    )
    res = residual_1d(f, GalileanConnection(), 0.2, 1.3)
    assert res.max_abs() < 1e-9


def test_residual_1d_rejects_degenerate_tangent():
    cusp = Curve1D(batched(lambda t, s: np.array([s ** 3, 0.0, 0.0])))
    zero3 = batched(lambda t, s: np.zeros(3))
    f = Cosserat1DField(
        curve=cusp, rho_l=batched(lambda t, s: 1.0), F=zero3,
        q=zero3, l=zero3, l_star=zero3, M_star=zero3,
    )
    with pytest.raises(DegenerateTangent):
        residual_1d(f, GalileanConnection(), 0.0, 0.0)


def curve_v_dot(curve, t, s, h=None):
    """Material acceleration d v / dt of a Curve1D at fixed s.

    An analytic v is differenced directly.  The finite-difference defaults
    would otherwise be differenced twice with the small first-order step,
    so the material-chart case uses one second-difference of psi, and the
    sliding case (v_t supplied) differences the composite v with the wider
    second-difference step.
    """
    if curve._v is not None:
        return fd.diff(lambda u: curve.v(u, s), t, h=h)
    if curve._v_t is None:
        return _second_diff(lambda u: curve.psi(u, s), t)
    if h is None:
        h = SECOND_DIFF_REL_STEP * max(1.0, abs(t))
    return fd.diff(lambda u: curve.v(u, s), t, h=h)


def rod_oracle(f, conn, t, s, h=None):
    """The slender-medium laws expanded by hand, as residual_1d documents.

    With slide = n . (d psi/dt), differenced with the wider step, and
    w = v_t - slide: d rho_l/dt + d(rho_l w)/ds; rho_l [dv/dt + (dv/ds) w]
    - dF/ds - rho_l (g - 2 Omega x v); dq/dt + d(l_star - slide q)/ds
    - rho_l v; dl/dt + Omega x l + (l_star - v_t q) x (Omega x n)
    + d(M_star - slide l)/ds - n x F.
    """
    curve = f.curve
    n = curve.n(t, s)
    psi = curve.psi(t, s)
    g, Om = conn.g(t, psi), conn.Omega(t, psi)

    def d(fn, i):
        return fd.partial(fn, (t, s), i, h=h, bounds=curve.domain)

    def slide(tt, ss):
        h_t = SECOND_DIFF_REL_STEP * max(1.0, abs(tt))
        dpsi = fd.diff(lambda u: curve.psi(u, ss), tt, h=h_t)
        return float(curve.n(tt, ss) @ dpsi)

    def vec(fn):
        return lambda tt, ss: np.asarray(fn(tt, ss), dtype=float)

    q, l, l_star, M_star = (vec(fn) for fn in (f.q, f.l, f.l_star, f.M_star))
    rho_l = float(f.rho_l(t, s))
    v, v_t = curve.v(t, s), curve.v_t(t, s)
    mass = d(lambda tt, ss: float(f.rho_l(tt, ss)), 0) + d(
        lambda tt, ss: float(f.rho_l(tt, ss))
        * (curve.v_t(tt, ss) - slide(tt, ss)), 1)
    lin = (rho_l * (curve_v_dot(curve, t, s, h=h) + d(curve.v, 1)
                    * (v_t - slide(t, s)))
           - d(f.F, 1) - rho_l * (g - 2.0 * np.cross(Om, v)))
    pos = (d(q, 0) + d(lambda tt, ss: l_star(tt, ss)
                       - slide(tt, ss) * q(tt, ss), 1) - rho_l * v)
    ang = (d(l, 0) + np.cross(Om, l(t, s))
           + np.cross(l_star(t, s) - v_t * q(t, s), np.cross(Om, n))
           + d(lambda tt, ss: M_star(tt, ss) - slide(tt, ss) * l(tt, ss), 1)
           - np.cross(n, f.F(t, s)))
    return np.concatenate([[mass], lin, pos, ang])


def beam_under_gravity_fields(g, rho_l=1.6):
    """Straight beam whose linear force and quadratic moment carry g."""
    e1 = np.array([1.0, 0.0, 0.0])
    n_cross_g = np.cross(e1, g)
    zero3 = batched(lambda t, s: np.zeros(3))
    return Cosserat1DField(
        curve=Curve1D(batched(lambda t, s: s * e1),
                      n=batched(lambda t, s: e1)),
        rho_l=batched(lambda t, s: rho_l),
        F=batched(lambda t, s: -rho_l * s * np.asarray(g)),
        q=batched(lambda t, s: rho_l * s * e1),
        l=zero3,
        l_star=zero3,
        M_star=batched(lambda t, s: -rho_l * s * s / 2.0 * n_cross_g),
    )


FRAME_1D = GalileanConnection(g=(0.0, 0.0, -1.0), Omega=(0.1, 0.2, 0.3))


@pytest.mark.parametrize("f", [
    pytest.param(static_ring_fields(r=1.2, w=0.9, rho_l=2.0),
                 id="static_ring"),
    pytest.param(spinning_ring_fields(r=1.2, w=0.9, rho_l=2.0),
                 id="co_rotating_ring"),
    pytest.param(manufactured_rod()[0], id="sliding_rod"),
    # The frame's gravity differs from the one the beam carries, so its
    # momentum and angular rows are nonzero.
    pytest.param(beam_under_gravity_fields(g=(0.3, -0.4, -2.0)), id="beam"),
])
def test_1d_matches_hand_expanded_oracle(f):
    # Both rings and the beam are out of equilibrium in the spinning,
    # gravitating frame, so the comparison sees the frame terms as well.
    for t, s in [(0.0, 0.4), (0.3, 0.9), (1.1, 1.7)]:
        got = residual_1d(f, FRAME_1D, t, s).as_array()
        want = rod_oracle(f, FRAME_1D, t, s)
        assert np.max(np.abs(want)) > 1e-2
        assert_allclose(got, want, rtol=0, atol=1e-9)


SYMS2 = sp.symbols("t s")


def poly2(rng, degree=2):
    t, s = SYMS2
    monos = [sp.Integer(1), t, s]
    if degree >= 2:
        monos += [t * t, t * s, s * s]
    coeffs = rng.integers(-2, 3, size=len(monos))
    return sum(int(c) * m for c, m in zip(coeffs, monos))


def lamb2(expr):
    f = sp.lambdify(SYMS2, expr, "numpy")
    return batched(lambda t, s: float(f(t, s)))


def lamb2_vec(exprs):
    fns = [sp.lambdify(SYMS2, e, "numpy") for e in exprs]
    return batched(lambda t, s: np.array([f(t, s) for f in fns], dtype=float))


def test_1d_manufactured_polynomial_oracle():
    # A straight chart psi = (s + a(t), b(t), c(t)) that moves and slides
    # at a'(t), with matter flowing at v_t: v = (v_t, b', c') and
    # q = rho_l psi, so the fields describe a rod.
    rng = np.random.default_rng(23)
    t, s = SYMS2
    e1 = sp.Matrix([1, 0, 0])
    g = sp.Matrix([sp.Rational(1, 5), -sp.Rational(2, 5), sp.Rational(4, 5)])
    Om = sp.Matrix([sp.Rational(3, 10), sp.Rational(1, 10), -sp.Rational(1, 5)])

    rho_l = 30 + poly2(rng)
    v_t = poly2(rng)
    a, b, c = (poly2(rng).subs(s, 0) for _ in range(3))
    psi = sp.Matrix([s + a, b, c])
    v = sp.Matrix([v_t, sp.diff(b, t), sp.diff(c, t)])
    F = sp.Matrix([poly2(rng) for _ in range(3)])
    q = rho_l * psi
    l = sp.Matrix([poly2(rng) for _ in range(3)])
    ls = sp.Matrix([poly2(rng) for _ in range(3)])
    Ms = sp.Matrix([poly2(rng) for _ in range(3)])
    slide = sp.diff(a, t)
    w = v_t - slide

    mass_o = sp.diff(rho_l, t) + sp.diff(rho_l * w, s)
    lin_o = (
        rho_l * (sp.diff(v, t) + sp.diff(v, s) * w)
        - sp.diff(F, s)
        - rho_l * (g - 2 * cross3(Om, v))
    )
    pos_o = sp.diff(q, t) + sp.diff(ls - slide * q, s) - rho_l * v
    ang_o = (
        sp.diff(l, t)
        + cross3(Om, l)
        + cross3(ls - v_t * q, cross3(Om, e1))
        + sp.diff(Ms - slide * l, s)
        - cross3(e1, F)
    )

    curve = Curve1D(
        lamb2_vec(psi),
        v=lamb2_vec(v),
        n=batched(lambda tt, ss: np.array([1.0, 0.0, 0.0])),
    )
    f = Cosserat1DField(
        curve=curve,
        rho_l=lamb2(rho_l),
        F=lamb2_vec(F),
        q=lamb2_vec(q),
        l=lamb2_vec(l),
        l_star=lamb2_vec(ls),
        M_star=lamb2_vec(Ms),
    )
    conn = GalileanConnection(
        g=np.array([0.2, -0.4, 0.8]), Omega=np.array([0.3, 0.1, -0.2])
    )
    pt = (0.6, -0.3)
    res = residual_1d(f, conn, *pt)
    subs = dict(zip(SYMS2, pt))
    assert_allclose(res.mass, float(mass_o.subs(subs)), atol=FD_TOL)
    assert_allclose(
        res.lin_mom, np.array([float(e.subs(subs)) for e in lin_o]), atol=FD_TOL
    )
    assert_allclose(
        res.pos_q, np.array([float(e.subs(subs)) for e in pos_o]), atol=FD_TOL
    )
    assert_allclose(
        res.ang_mom, np.array([float(e.subs(subs)) for e in ang_o]), atol=FD_TOL
    )


# ---------------------------------------------------------------------------
# thin medium


def flat_plate():
    return ShellField(
        batched(lambda t, th1, th2: np.array([th1, th2, 0.0])),
        pi=batched(lambda t, th1, th2: np.array([[1.0, 0.0, 0.0],
                                                 [0.0, 1.0, 0.0]])),
    )


def const_loads(rho_s=1.0, N=None, Q=None, M=None, kappa=0.0):
    z2 = np.zeros(2)
    z22 = np.zeros((2, 2))
    return ShellLoads(
        rho_s=batched(lambda *a: rho_s),
        N=batched(lambda *a: z22 if N is None else np.asarray(N, dtype=float)),
        Q=batched(lambda *a: z2 if Q is None else np.asarray(Q, dtype=float)),
        M=batched(lambda *a: z22 if M is None else np.asarray(M, dtype=float)),
        kappa=batched(lambda *a: kappa),
    )


def test_flat_static_plate_zero_residual():
    loads = const_loads(
        rho_s=2.0, N=[[1.0, 0.3], [0.3, -0.5]], M=[[0.2, 0.1], [0.1, 0.4]]
    )
    res = residual_2d(flat_plate(), loads, GalileanConnection(), 0.0, 0.3, -0.2)
    assert res.max_abs() < 1e-9


def test_plate_bending_equilibrium():
    # Transverse load rho_s g carried by shear, shear by moment gradient:
    # Q = rho_s g0 (th1, 0), M = rho_s g0 diag(th1^2/2, 0).
    rho_s, g0 = 2.0, 9.81
    conn = GalileanConnection(g=(0.0, 0.0, -g0))
    loads = ShellLoads(
        rho_s=batched(lambda *a: rho_s),
        N=batched(lambda *a: np.array([[0.7, 0.2], [0.2, -0.1]])),
        Q=batched(lambda t, th1, th2: rho_s * g0 * np.array([th1, 0.0])),
        M=batched(lambda t, th1, th2: rho_s * g0 * np.array(
            [[th1 ** 2 / 2.0, 0.0], [0.0, 0.0]]
        )),
        kappa=batched(lambda *a: 0.05),
    )
    res = residual_2d(flat_plate(), loads, conn, 0.0, 0.4, -0.7)
    assert res.max_abs() < 1e-8


def test_2d_reads_one_frame_per_stencil_point(monkeypatch):
    # A batch builds the frame and w at its points and once per side of
    # its stencil, for all of its probes, and the frame and w at its
    # points serve their torsor and the Christoffels alike: three of each.
    calls = {}
    for name in ("frame", "_normal_rate"):
        original = getattr(ShellField, name)

        def counted(self, *args, original=original, name=name):
            calls[name] = calls.get(name, 0) + 1
            return original(self, *args)

        monkeypatch.setattr(ShellField, name, counted)
    loads = const_loads(rho_s=2.0, N=[[1.0, 0.3], [0.3, -0.5]], kappa=0.1)
    residual_2d(flat_plate(), loads, GalileanConnection(), np.zeros(3),
                np.array([0.3, -0.4, 0.1]), np.array([-0.2, 0.5, 0.0]))
    assert calls == {"frame": 3, "_normal_rate": 3}


def test_laplace_sphere_membrane():
    # Uniform isotropic tension T0 on a sphere of radius r balances the
    # normal load p = 2 T0 / r (outward-normal upper-sheet chart, where
    # b = -a / r): every residual row vanishes.
    r, T0, rho_s = 2.0, 0.7, 1.0
    p = 2.0 * T0 / r

    def chart(t, th1, th2):
        return np.array([th1, th2, np.sqrt(r * r - th1 ** 2 - th2 ** 2)])

    def pi(t, th1, th2):
        z = np.sqrt(r * r - th1 ** 2 - th2 ** 2)
        return np.array([[1.0, 0.0, -th1 / z], [0.0, 1.0, -th2 / z]])

    def a_inv(th1, th2):
        z2 = r * r - th1 ** 2 - th2 ** 2
        a = np.eye(2) + np.outer([th1, th2], [th1, th2]) / z2
        return np.linalg.inv(a)

    sphere = ShellField(batched(chart), pi=batched(pi))
    loads = ShellLoads(
        rho_s=batched(lambda *a: rho_s),
        N=batched(lambda t, th1, th2: T0 * a_inv(th1, th2)),
        Q=batched(lambda *a: np.zeros(2)),
        M=batched(lambda *a: np.zeros((2, 2))),
        kappa=batched(lambda *a: 0.01),
    )
    conn = GalileanConnection(
        g=lambda t, x: (p / rho_s) * np.asarray(x, dtype=float) / r
    )
    res = residual_2d(sphere, loads, conn, 0.0, 0.3, -0.2)
    assert res.max_abs() < 1e-7


def test_spinning_drum_hoop_stress():
    # Cylinder at rest in its co-rotating frame: centrifugal load w^2 R
    # against the hoop membrane force N_11 = rho_s w^2 R^2.
    R, w, rho_s = 1.5, 1.1, 0.8

    def chart(t, th1, th2):
        return np.array([R * np.cos(th1 / R), R * np.sin(th1 / R), th2])

    def pi(t, th1, th2):
        return np.array(
            [[-np.sin(th1 / R), np.cos(th1 / R), 0.0], [0.0, 0.0, 1.0]]
        )

    drum = ShellField(batched(chart), pi=batched(pi))
    loads = const_loads(
        rho_s=rho_s,
        N=[[rho_s * w * w * R * R, 0.0], [0.0, 0.0]],
        kappa=0.02,
    )
    conn = GalileanConnection.rotating_frame(w * E3)
    res = residual_2d(drum, loads, conn, 0.0, 0.8, -0.3)
    assert res.max_abs() < 1e-7


def test_identity_rows_flat_plate_synthetic_normal_rate():
    # The transport rows: -(kappa w^c)|_c on a flat plate with an in-plane
    # normal-velocity field w = (0.1 th1, 0.2 th2, 0).
    kappa = 0.05
    sf = ShellField(
        batched(lambda t, th1, th2: np.array([th1, th2, 0.0])),
        pi=batched(lambda t, th1, th2: np.array([[1.0, 0.0, 0.0],
                                                 [0.0, 1.0, 0.0]])),
        w=batched(lambda t, th1, th2: np.array([0.1 * th1, 0.2 * th2, 0.0])),
    )
    loads = const_loads(kappa=kappa)
    res = residual_2d(sf, loads, GalileanConnection(), 0.0, 0.4, -0.1)
    assert_allclose(res.pos_q[:2], np.zeros(2), atol=1e-9)
    assert_allclose(res.pos_q[2], -kappa * 0.3, atol=1e-9)


def test_identity_rows_cylinder_synthetic_normal_rate():
    # On a cylinder the curvature couples in: -kappa b^a_c w^c with
    # b = diag(-1/R, 0), so a tangential w = beta pi_1 gives
    # pos_q[0] = kappa beta / R.
    R, beta, kappa = 1.5, 0.3, 0.04

    def chart(t, th1, th2):
        return np.array([R * np.cos(th1 / R), R * np.sin(th1 / R), th2])

    def pi(t, th1, th2):
        return np.array(
            [[-np.sin(th1 / R), np.cos(th1 / R), 0.0], [0.0, 0.0, 1.0]]
        )

    sf = ShellField(
        batched(chart), pi=batched(pi),
        w=batched(lambda t, th1, th2: beta * pi(t, th1, th2)[0]),
    )
    loads = const_loads(kappa=kappa)
    res = residual_2d(sf, loads, GalileanConnection(), 0.0, 0.8, 0.2)
    assert_allclose(res.pos_q[0], kappa * beta / R, atol=1e-8)
    assert_allclose(res.pos_q[1], 0.0, atol=1e-8)
    assert_allclose(res.pos_q[2], 0.0, atol=1e-8)


def test_2d_manufactured_polynomial_oracle():
    # Paraboloid chart with polynomial loads; the five displayed equations
    # are rebuilt symbolically from the chart embedding alone.
    rng = np.random.default_rng(31)
    t, th1, th2 = sp.symbols("t th1 th2")
    TH = (t, th1, th2)

    X = sp.Matrix(
        [
            th1,
            th2,
            sp.Rational(1, 5) * th1 ** 2
            + sp.Rational(1, 10) * th1 * th2
            + sp.Rational(3, 20) * th2 ** 2,
        ]
    )
    pi_rows = [X.diff(th1).T, X.diff(th2).T]
    pi_mat = sp.Matrix([pi_rows[0], pi_rows[1]])  # (2, 3)
    a = pi_mat * pi_mat.T
    a_inv = a.inv()
    c = a_inv * pi_mat
    ncr = cross3(pi_mat.row(0).T, pi_mat.row(1).T)
    n = ncr / sp.sqrt((ncr.T * ncr)[0, 0])
    thetas = (th1, th2)
    D = [[pi_mat.row(b).T.diff(thetas[cc]) for cc in range(2)] for b in range(2)]
    Gamma = [
        [[(c.row(aa) * D[b][cc])[0, 0] for cc in range(2)] for b in range(2)]
        for aa in range(2)
    ]
    b_low = sp.Matrix(2, 2, lambda aa, bb: (n.T * D[bb][aa])[0, 0])
    b_mix = a_inv * b_low
    trG = [sum(Gamma[d][d][cc] for d in range(2)) for cc in range(2)]

    g_vec = sp.Matrix([sp.Rational(1, 5), -sp.Rational(2, 5), sp.Rational(4, 5)])
    Om = sp.Matrix([sp.Rational(3, 10), sp.Rational(1, 10), -sp.Rational(1, 5)])
    Phi = sp.Matrix(
        2, 2, lambda aa, bb: (c.row(aa) * cross3(Om, pi_mat.row(bb).T))[0, 0]
    )

    def spoly():
        monos = [sp.Integer(1), t, th1, th2, th1 * th1, th1 * th2, th2 * th2,
                 t * th1, t * th2, t * t]
        coeffs = rng.integers(-2, 3, size=len(monos))
        return sum(int(cc) * m for cc, m in zip(coeffs, monos))

    rho_s = 20 + spoly()
    N = sp.Matrix(2, 2, lambda i, j: spoly())
    Q = sp.Matrix([spoly(), spoly()])
    M = sp.Matrix(2, 2, lambda i, j: spoly())

    mass_o = sp.diff(rho_s, t) + (Phi[0, 0] + Phi[1, 1]) * rho_s
    accel = rho_s * (c * g_vec)  # static chart: v = 0
    lin_in_o = sp.Matrix(
        [
            sum(sp.diff(N[b, aa], thetas[b]) for b in range(2))
            + sum(Gamma[aa][b][cc] * N[b, cc] for b in range(2) for cc in range(2))
            + sum(trG[b] * N[b, aa] for b in range(2))
            - sum(b_mix[aa, b] * Q[b] for b in range(2))
            + accel[aa]
            for aa in range(2)
        ]
    )
    lin_off_o = (
        sum(b_low[aa, b] * N[b, aa] for aa in range(2) for b in range(2))
        + sum(sp.diff(Q[b], thetas[b]) for b in range(2))
        + sum(trG[b] * Q[b] for b in range(2))
        + rho_s * (n.T * g_vec)[0, 0]
    )
    Y = N - b_mix * M.T
    ang_in_o = Y[0, 1] - Y[1, 0]
    ang_off_o = sp.Matrix(
        [
            sum(sp.diff(M[aa, b], thetas[b]) for b in range(2))
            + sum(Gamma[aa][b][cc] * M[cc, b] for b in range(2) for cc in range(2))
            + sum(trG[cc] * M[aa, cc] for cc in range(2))
            - Q[aa]
            for aa in range(2)
        ]
    )

    pi_num = sp.lambdify(TH, pi_mat, "numpy")
    x_num = sp.lambdify(TH, list(X), "numpy")
    sf = ShellField(
        batched(lambda tt, a1, a2: np.array(x_num(tt, a1, a2), dtype=float)),
        pi=batched(lambda tt, a1, a2: np.asarray(pi_num(tt, a1, a2),
                                                 dtype=float)),
    )

    def lam_s(expr):
        f = sp.lambdify(TH, expr, "numpy")
        return lambda *u: float(f(*u))

    def lam_m(Mx):
        f = sp.lambdify(TH, Mx, "numpy")
        return lambda *u: np.asarray(f(*u), dtype=float).reshape(Mx.shape)

    loads = ShellLoads(
        rho_s=batched(lam_s(rho_s)),
        N=batched(lam_m(N)),
        Q=batched(lambda *u, f=sp.lambdify(TH, list(Q), "numpy"): np.array(
            f(*u), dtype=float
        )),
        M=batched(lam_m(M)),
        kappa=batched(lambda *u: 0.03),
    )
    conn = GalileanConnection(
        g=np.array([0.2, -0.4, 0.8]), Omega=np.array([0.3, 0.1, -0.2])
    )
    pt = (0.2, 0.4, -0.3)
    res = residual_2d(sf, loads, conn, *pt)
    subs = dict(zip(TH, pt))

    assert_allclose(res.mass, float(mass_o.subs(subs)), atol=1e-6)
    assert_allclose(
        res.lin_mom,
        np.array(
            [
                float(lin_in_o[0].subs(subs)),
                float(lin_in_o[1].subs(subs)),
                float(lin_off_o.subs(subs)),
            ]
        ),
        atol=1e-6,
    )
    assert_allclose(
        res.ang_mom,
        np.array(
            [
                float(ang_in_o.subs(subs)),
                float(ang_off_o[0].subs(subs)),
                float(ang_off_o[1].subs(subs)),
            ]
        ),
        atol=1e-6,
    )
    assert_allclose(res.pos_q, np.zeros(3), atol=1e-9)


def numpy_metric(sf, *p):
    pi = sf.pi(*p)
    return pi @ pi.T


def numpy_projector(sf, *p):
    return np.linalg.solve(numpy_metric(sf, *p), sf.pi(*p))


def shell_w_surf_dot(sf, t, th1, th2):
    """d/dt of a ShellField's w^a at fixed theta.

    With an analytic w the composite c w is differenced directly;
    otherwise the product rule splits it into dc/dt w + c d2n/dt2 so the
    finite-difference w is never differenced with the small step again.
    """
    args = (t, th1, th2)
    if sf._w is not None or sf.varpi is not None:
        return fd.partial(sf.w_surf, args, 0)
    c_dot = fd.partial(lambda *u: numpy_projector(sf, *u), args, 0)
    n_acc = _second_diff(lambda tt: sf.n(tt, th1, th2), t)
    return c_dot @ sf.w(*args) + numpy_projector(sf, *args) @ n_acc


def shell_oracle(sf, loads, conn, t, th1, th2, h=None):
    """The thin-medium laws expanded by hand, slot by slot as residual_2d.

    Surface covariant derivatives are written out from the chart blocks of
    shell_christoffels; the acceleration and the spin blocks
    Phi^a_b = c^a . (d pi_b/dt + Omega x pi_b) and
    Phi^a = c^a . (w + Omega x n) are read from sf and conn, and
    d(kappa w)/dt is split into (d kappa/dt) w + kappa shell_w_surf_dot.
    """
    args = (t, th1, th2)
    G = shell_christoffels(sf, conn, *args)
    Gam, b_low = G[1:3, 1:3, 1:3], G[3, 1:3, 1:3]
    trG = np.einsum("ccb->b", Gam)
    b_mix = np.linalg.solve(numpy_metric(sf, *args), b_low)
    c, n, v = numpy_projector(sf, *args), sf.n(*args), sf.v(*args)
    x = sf.x(*args)
    Om = conn.Omega(t, x)
    Phi_ab = c @ (sf.dpi_dt(*args) + np.cross(Om, sf.pi(*args))).T
    Phi_a = c @ (sf.w(*args) + np.cross(Om, n))
    trPhi = np.trace(Phi_ab)
    rho_s, kappa = loads.rho_s(*args), loads.kappa(*args)
    N, Q, M = loads.N(*args), loads.Q(*args), loads.M(*args)
    w = sf.w_surf(*args)
    accel = rho_s * (conn.g(t, x) - 2.0 * np.cross(Om, v) - sf.v_dot(*args))

    def d(fn, i):
        return fd.partial(lambda *u: np.asarray(fn(*u), dtype=float), args, i,
                          h=h)

    def X_f(*u):
        cw = sf.w_surf(*u)
        return loads.N(*u) - loads.kappa(*u) * np.outer(cw, cw)

    def kw_f(*u):
        return loads.kappa(*u) * sf.w_surf(*u)

    dX, dQ, dM, dkw = ([d(fn, i) for i in (1, 2)]
                       for fn in (X_f, loads.Q, loads.M, kw_f))
    X = X_f(*args)
    mass = d(loads.rho_s, 0) + trPhi * rho_s
    lin_in = (dX[0][0] + dX[1][1] + np.einsum("abc,bc->a", Gam, X)
              + trG @ X - b_mix @ Q + c @ accel)
    lin_off = (np.einsum("ab,ba->", b_low, X) + dQ[0][0] + dQ[1][1]
               + trG @ Q + n @ accel)
    Y = N - b_mix @ M.T - kappa * np.outer(Phi_a + w, w)
    ang_off = (dM[0][:, 0] + dM[1][:, 1] + np.einsum("abc,cb->a", Gam, M)
               + M @ trG - Q
               - d(loads.kappa, 0) * w - kappa * shell_w_surf_dot(sf, *args)
               - kappa * (2.0 * Phi_ab @ w + trPhi * w))
    id_03 = -(dkw[0][0] + dkw[1][1] + trG @ (kappa * w))
    return np.concatenate([
        [mass], lin_in, [lin_off], -kappa * (b_mix @ w), [id_03],
        [Y[0, 1] - Y[1, 0]], ang_off,
    ])


def test_2d_matches_hand_expanded_oracle():
    # A tumbling, translating paraboloid with analytic pi and Poisson
    # vector, in a rotating frame with a base gravity; the loads carry a
    # non-symmetric N and M and a time-dependent kappa, so every row and
    # every term of the view is nonzero.
    axis = np.array([1.0, 0.5, 2.0]) / np.sqrt(5.25)
    rate = 0.7

    def X0(th1, th2):
        return np.array([th1, th2, 0.2 * th1 ** 2 + 0.1 * th1 * th2
                         + 0.15 * th2 ** 2])

    def pi0(th1, th2):
        return np.array([[1.0, 0.0, 0.4 * th1 + 0.1 * th2],
                         [0.0, 1.0, 0.1 * th1 + 0.3 * th2]])

    sf = ShellField(
        batched(lambda t, th1, th2: rotation(axis, rate * t) @ X0(th1, th2)
                + np.array([0.3 * t, -0.1 * t * t, 0.2])),
        pi=batched(lambda t, th1, th2: pi0(th1, th2)
                   @ rotation(axis, rate * t).T),
        varpi=batched(lambda t, th1, th2: rate * axis),
    )
    loads = ShellLoads(
        rho_s=batched(lambda t, th1, th2: 1.2 + 0.3 * th1 - 0.2 * t * th2),
        N=batched(lambda t, th1, th2: np.array(
            [[0.7 + th1 * t, 0.3 - th2], [-0.2 + 0.5 * th1, 0.4 * t]])),
        Q=batched(lambda t, th1, th2: np.array([0.4 * th1 * th2 + t,
                                                -0.3 * th2])),
        M=batched(lambda t, th1, th2: np.array(
            [[0.3 * th1 ** 2, 0.2 * t - th2],
             [0.1 * th1 * th2, -0.2 * th2 * t]])),
        kappa=batched(lambda t, th1, th2: 0.5 + 0.3 * t + 0.2 * th1),
    )
    conn = GalileanConnection.rotating_frame([0.3, -0.2, 0.5],
                                             g=[0.1, 0.2, -9.8])
    for pt in [(0.2, 0.4, -0.3), (0.9, -0.5, 0.6)]:
        got = residual_2d(sf, loads, conn, *pt).as_array()
        want = shell_oracle(sf, loads, conn, *pt)
        assert np.min(np.abs(want)) > 1e-3
        assert_allclose(got, want, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# space-filling medium with moments


def zero_state(T_const):
    z3 = batched(lambda t, x: np.zeros(3))
    z33 = batched(lambda t, x: np.zeros((3, 3)))
    return Cosserat3DState(
        T=batched(lambda t, x: np.asarray(T_const, dtype=float)),
        q=z3, l=z3, l_star=z33, M_star=z33,
    )


def test_constant_symmetric_state_zero_residual():
    T0 = assemble_cauchy_T(1.0, np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    res = residual_3d_cosserat(zero_state(T0), GalileanConnection(), 0.0,
                               [0.1, 0.2, 0.3])
    assert res.max_abs() < 1e-12


def cosserat_polynomial_case(rng):
    """Random polynomial T and moment fields in frame CONN_3D.

    Returns the state and its (mass, lin, pos, ang) rows derived in sympy.
    """
    t, x1, x2, x3 = SYMS4
    X = [x1, x2, x3]
    g, Om = G_SYM, OM_SYM
    W = sp.Matrix(
        [[0, -Om[2], Om[1]], [Om[2], 0, -Om[0]], [-Om[1], Om[0], 0]]
    )

    T = sp.Matrix(4, 4, lambda i, j: poly4(rng))
    q = sp.Matrix([poly4(rng) for _ in range(3)])
    l = sp.Matrix([poly4(rng) for _ in range(3)])
    ls = sp.Matrix(3, 3, lambda i, j: poly4(rng))
    Ms = sp.Matrix(3, 3, lambda i, j: poly4(rng))

    mass_o = sp.diff(T[0, 0], t) + sum(sp.diff(T[0, i + 1], X[i]) for i in range(3))
    lin_o = sp.Matrix(
        [
            sp.diff(T[i + 1, 0], t)
            + sum(sp.diff(T[i + 1, j + 1], X[j]) for j in range(3))
            - (
                T[0, 0] * g[i]
                - sum(W[i, j] * (T[0, j + 1] + T[j + 1, 0]) for j in range(3))
            )
            for i in range(3)
        ]
    )
    pos_o = (
        sp.diff(q, t)
        + W * q
        + sp.Matrix([sum(sp.diff(ls[i, r], X[r]) for r in range(3))
                     for i in range(3)])
        + sp.Matrix([T[0, i + 1] - T[i + 1, 0] for i in range(3)])
    )
    cyc = ((1, 2, 0), (2, 0, 1), (0, 1, 2))
    ang_o = (
        sp.diff(l, t)
        + sp.Matrix([sum(sp.diff(Ms[k, m], X[m]) for m in range(3))
                     for k in range(3)])
        - cross3(q, g)
        + cross3(Om, l)
        + sp.Matrix(
            [
                sum(W[j, r] * ls[i, r] - W[i, r] * ls[j, r] for r in range(3))
                for (i, j, _) in cyc
            ]
        )
        + sp.Matrix([T[j + 1, i + 1] - T[i + 1, j + 1] for (i, j, _) in cyc])
    )

    def mat33(Mx):
        return lamb4_mat(Mx)

    state = Cosserat3DState(
        T=lamb4_mat(T), q=lamb4_vec(q), l=lamb4_vec(l),
        l_star=batched(mat33(ls)), M_star=batched(mat33(Ms)),
    )
    return state, ([mass_o], lin_o, pos_o, ang_o)


def test_3d_manufactured_polynomial_oracle():
    state, rows = cosserat_polynomial_case(np.random.default_rng(47))
    pt = (0.5, np.array([0.2, -0.4, 0.6]))
    res = residual_3d_cosserat(state, CONN_3D, pt[0], pt[1])
    mass_o, lin_o, pos_o, ang_o = oracle_rows(rows, pt)
    assert_allclose(res.mass, mass_o[0], atol=FD_TOL)
    assert_allclose(res.lin_mom, lin_o, atol=FD_TOL)
    assert_allclose(res.pos_q, pos_o, atol=FD_TOL)
    assert_allclose(res.ang_mom, ang_o, atol=FD_TOL)


@pytest.mark.parametrize("medium", ["cauchy", "cosserat"])
def test_3d_residual_at_domain_face(medium):
    # On a bounded domain the central stencil may not cross a face, so a
    # probe on the faces t = 0, x1 = 1 and x3 = 0 raises unless one-sided
    # stencils are allowed; those must then reproduce the oracle.
    if medium == "cauchy":
        fields, rows = cauchy_polynomial_case(np.random.default_rng(12))
        residual = residual_cauchy
    else:
        fields, rows = cosserat_polynomial_case(np.random.default_rng(48))
        residual = residual_3d_cosserat
    fields.domain = ((0.0, 1.0),) * 4
    pt = (0.0, np.array([1.0, 0.4, 0.0]))
    with pytest.raises(DifferentiationFailure):
        residual(fields, CONN_3D, pt[0], pt[1])
    res = residual(fields, CONN_3D, pt[0], pt[1], one_sided=True)
    expect = oracle_rows(rows, pt)
    assert_allclose(res.mass, expect[0][0], atol=FD_TOL)
    assert_allclose(res.lin_mom, expect[1], atol=FD_TOL)
    assert_allclose(res.ang_mom, expect[-1], atol=FD_TOL)
    if medium == "cosserat":
        assert_allclose(res.pos_q, expect[2], atol=FD_TOL)


def moment_fields_to_J(q_fn, l_fn, ls_fn, Ms_fn):
    """Pack the engineer moment fields into J^{ab g} (material index last)."""
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # (i, k, l): J^{kl} pairs

    def J_fn(t, x):
        q = q_fn(t, x)
        l = l_fn(t, x)
        ls = ls_fn(t, x)
        Ms = Ms_fn(t, x)
        J = np.zeros((4, 4, 4))
        for i in range(3):
            J[i + 1, 0, 0] = q[i]
            J[0, i + 1, 0] = -q[i]
            for r in range(3):
                J[i + 1, 0, r + 1] = ls[i, r]
                J[0, i + 1, r + 1] = -ls[i, r]
        for (i, k, m) in cyc:
            J[k + 1, m + 1, 0] = l[i]
            J[m + 1, k + 1, 0] = -l[i]
            for r in range(3):
                J[k + 1, m + 1, r + 1] = Ms[i, r]
                J[m + 1, k + 1, r + 1] = -Ms[i, r]
        return J

    return J_fn


def test_3d_residual_matches_general_divergence():
    # Route one: the displayed space-filling equations.  Route two: the
    # general covariant divergence with the identity embedding and the
    # proper origin.  They must agree row by row.
    rng = np.random.default_rng(53)
    T = sp.Matrix(4, 4, lambda i, j: poly4(rng))
    q = sp.Matrix([poly4(rng) for _ in range(3)])
    l = sp.Matrix([poly4(rng) for _ in range(3)])
    ls = sp.Matrix(3, 3, lambda i, j: poly4(rng))
    Ms = sp.Matrix(3, 3, lambda i, j: poly4(rng))

    T_fn = lamb4_mat(T)
    q_fn, l_fn = lamb4_vec(q), lamb4_vec(l)
    ls_fn, Ms_fn = lamb4_mat(ls), lamb4_mat(Ms)
    state = Cosserat3DState(T=T_fn, q=q_fn, l=l_fn, l_star=ls_fn, M_star=Ms_fn)

    J_fn = moment_fields_to_J(q_fn, l_fn, ls_fn, Ms_fn)

    def medium(xi):
        return (np.eye(4), np.array([T_fn(p[0], p[1:]).T for p in xi]),
                np.array([np.moveaxis(J_fn(p[0], p[1:]), -1, 0)
                          for p in xi]))

    conn = GalileanConnection(
        g=np.array([0.2, -0.4, 0.8]), Omega=np.array([0.3, 0.1, -0.2])
    )
    t, x = 0.3, np.array([0.5, -0.2, 0.4])
    res = residual_3d_cosserat(state, conn, t, x)

    chris = PullbackChristoffels.identity_embedding(conn, t, x)
    xi = np.concatenate([[t], x])[None]
    (dT,), (dJ,) = divergence(medium, xi, chris)

    assert_allclose(res.mass, dT[0], atol=1e-9)
    assert_allclose(res.lin_mom, dT[1:], atol=1e-9)
    assert_allclose(
        res.pos_q, np.array([dJ[1, 0], dJ[2, 0], dJ[3, 0]]), atol=1e-9
    )
    assert_allclose(
        res.ang_mom, np.array([dJ[2, 3], dJ[3, 1], dJ[1, 2]]), atol=1e-9
    )


def test_classical_is_momentless_specialization():
    # A classical medium viewed as a moment medium: same mass residual, and
    # the momentum rows differ exactly by v times the mass residual (the
    # conservation form against the advective form).
    rng = np.random.default_rng(61)
    t, x1, x2, x3 = SYMS4
    rho = 30 + poly4(rng)
    v = sp.Matrix([poly4(rng) for _ in range(3)])
    s_sym = sp.Matrix(3, 3, lambda i, j: poly4(rng))
    sig = s_sym + s_sym.T  # symmetric stress

    rho_fn, v_fn, sig_fn = lamb4(rho), lamb4_vec(v), lamb4_mat(sig)
    medium = CauchyMedium(rho=rho_fn, v=v_fn, sigma=sig_fn)

    def T_fn(tt, x):
        return assemble_cauchy_T(rho_fn(tt, x), v_fn(tt, x), sig_fn(tt, x))

    z3 = batched(lambda tt, x: np.zeros(3))
    z33 = batched(lambda tt, x: np.zeros((3, 3)))
    state = Cosserat3DState(T=batched(T_fn), q=z3, l=z3, l_star=z33,
                            M_star=z33)

    conn = GalileanConnection(
        g=np.array([0.2, -0.4, 0.8]), Omega=np.array([0.3, 0.1, -0.2])
    )
    tt, x = 0.4, np.array([0.3, 0.1, -0.5])
    res_c = residual_cauchy(medium, conn, tt, x)
    res_m = residual_3d_cosserat(state, conn, tt, x)

    assert_allclose(res_m.mass, res_c.mass, atol=1e-8)
    v_here = v_fn(tt, x)
    assert_allclose(
        res_m.lin_mom, res_c.lin_mom + v_here * res_c.mass, atol=1e-7
    )
    assert_allclose(res_m.pos_q, np.zeros(3), atol=1e-8)
    assert_allclose(res_m.ang_mom, res_c.ang_mom, atol=1e-8)


def test_residual_as_array_order():
    res = BalanceResidual(
        mass=1.0, lin_mom=[2.0, 3.0, 4.0], pos_q=[5.0, 6.0, 7.0],
        ang_mom=[8.0, 9.0, 10.0],
    )
    assert_allclose(res.as_array(), np.arange(1.0, 11.0), atol=0)
    assert res.max_abs() == 10.0
