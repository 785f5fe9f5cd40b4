"""Kinematics of slender and thin media: tangents, velocities, geometry.

Curve and shell quantities are checked against hand-computed geometry of
standard surfaces (lines, circles, helices, cylinders, spheres, graphs) and
against the defining identities (a unit tangent with v . n = v_t, symmetry
of the second form, dR/dt = skew(varpi) R).
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import torsor
from torsor.affine import GalileanFrameChange, transform_stress_mass
from torsor.connection import GalileanConnection
from torsor.errors import SingularMetric
from torsor.fields import (
    Curve1D,
    ForceMass1D,
    ShellField,
    assemble_cauchy_T,
    shell_christoffels,
)
from torsor.vecmath import rotation, skew

FD_TOL = 1e-8
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# curves


def test_straight_rod_tangent_map():
    rod = Curve1D(lambda t, s: np.array([s, 0.0, 0.0]))
    assert_allclose(rod.n(0.3, 0.7), [1.0, 0.0, 0.0], atol=FD_TOL)
    assert_allclose(rod.v(0.3, 0.7), np.zeros(3), atol=FD_TOL)


def test_translating_rod_tangent_map():
    # Rigid transverse translation: v = (0, 1, 0), no flow along the rod.
    rod = Curve1D(lambda t, s: np.array([s, t, 0.0]))
    assert_allclose(rod.n(0.2, -0.4), [1.0, 0.0, 0.0], atol=FD_TOL)
    assert_allclose(rod.v(0.2, -0.4), [0.0, 1.0, 0.0], atol=FD_TOL)
    assert abs(rod.v_t(0.2, -0.4)) < FD_TOL


def test_flowing_pipe_tangent_map():
    # Static chart, matter flowing along it: v = v_t n.
    pipe = Curve1D(lambda t, s: np.array([s, 0.0, 0.0]), v_t=lambda t, s: 2.0)
    assert_allclose(pipe.n(0.0, 1.2), [1.0, 0.0, 0.0], atol=FD_TOL)
    assert_allclose(pipe.v(0.0, 1.2), [2.0, 0.0, 0.0], atol=FD_TOL)


def test_rotating_circle_projector_identity():
    # Material circle spinning about e3; the chart velocity is tangential,
    # so the defaulted v_t must absorb it: v . n = v_t with a unit n.
    r, w = 1.5, 0.7

    def psi(t, s):
        return rotation(np.array([0.0, 0.0, 1.0]), w * t) @ np.array(
            [r * np.cos(s / r), r * np.sin(s / r), 0.0]
        )

    circle = Curve1D(psi)
    for t, s in [(0.0, 0.0), (0.3, 1.1), (-0.2, 4.0)]:
        n = circle.n(t, s)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-7
        assert abs(circle.v(t, s) @ n - circle.v_t(t, s)) < 1e-7
        assert abs(circle.v_t(t, s) - w * r) < 1e-6


def helix_curve(a, b):
    c = np.hypot(a, b)

    def psi(t, s):
        return np.array(
            [a * np.cos(s / c), a * np.sin(s / c), b * s / c]
        )

    return Curve1D(psi)


def test_helix_unit_tangent_and_projector():
    hel = helix_curve(1.2, 0.8)
    for s in [-1.0, 0.0, 2.5]:
        n = hel.n(0.0, s)
        assert abs(np.linalg.norm(n) - 1.0) < FD_TOL


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.2, 3.0),
    b=st.floats(-2.0, 2.0),
    s=st.floats(-3.0, 3.0),
    v_t=st.floats(-2.0, 2.0),
)
def test_projector_tangent_identity_property(a, b, s, v_t):
    # Matter sliding along a static helix keeps v . n = v_t, n unit.
    hel = Curve1D(helix_curve(a, b).psi, v_t=lambda t, u: v_t)
    n = hel.n(0.0, s)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-6
    assert abs(hel.v(0.0, s) @ n - v_t) < 1e-6


def test_analytic_tangent_matches_default():
    hel_default = helix_curve(1.2, 0.8)
    c = np.hypot(1.2, 0.8)

    def n(t, s):
        return np.array(
            [-1.2 * np.sin(s / c), 1.2 * np.cos(s / c), 0.8]
        ) / c

    hel_analytic = Curve1D(hel_default.psi, n=n)
    for s in [-0.7, 0.4, 1.9]:
        assert_allclose(hel_default.n(0.0, s), hel_analytic.n(0.0, s), atol=FD_TOL)


def test_curve_acceleration_paths():
    # Analytic v, material chart, and sliding chart must all agree with the
    # closed-form acceleration of a rigidly rotating circle point.
    r, w = 2.0, 0.9
    e3 = np.array([0.0, 0.0, 1.0])

    def psi(t, s):
        return rotation(e3, w * t) @ np.array(
            [r * np.cos(s / r), r * np.sin(s / r), 0.0]
        )

    def v(t, s):
        return np.cross(w * e3, psi(t, s))

    t, s = 0.35, 1.4
    acc_exact = np.cross(w * e3, np.cross(w * e3, psi(t, s)))
    assert_allclose(Curve1D(psi, v=v).v_dot(t, s), acc_exact, atol=1e-7)
    assert_allclose(Curve1D(psi).v_dot(t, s), acc_exact, atol=1e-6)
    # Static circle with steady flow: centripetal acceleration v_t^2 / r.
    def psi0(t, s):
        return np.array([r * np.cos(s / r), r * np.sin(s / r), 0.0])

    flow = Curve1D(psi0, v_t=lambda t, s: 1.3)
    acc_flow = flow.v_dot(0.0, s)
    # d/dt at fixed s of a steady field is zero; the convective part lives
    # in the balance operator, so here the time derivative must vanish.
    assert_allclose(acc_flow, np.zeros(3), atol=1e-6)


# ---------------------------------------------------------------------------
# arclength reparameterization


def test_reparameterize_line_exact_target():
    # psi_raw(u) = (u + u^3, 2, -1) has speed 1 + 3u^2, arclength u + u^3;
    # the reparameterized chart must satisfy psi(s) = (s, 2, -1).
    def psi_raw(t, u):
        return np.array([u + u ** 3, 2.0, -1.0])

    line = Curve1D(psi_raw, reparameterize=True, s_range=(0.0, 1.0))
    for s in [0.1, 0.7, 1.3]:
        assert_allclose(line.psi(0.0, s), [s, 2.0, -1.0], atol=1e-8)
    # Out-of-range pulls clamp to the ends of the raw chart.
    assert_allclose(line.psi(0.0, -0.5), [0.0, 2.0, -1.0], atol=EXACT_TOL)
    assert_allclose(line.psi(0.0, 99.0), [2.0, 2.0, -1.0], atol=EXACT_TOL)


def test_reparameterize_ellipse_defect():
    def psi_raw(t, u):
        return np.array([np.cos(u), 2.0 * np.sin(u), 0.0])

    arc = Curve1D(psi_raw, reparameterize=True, s_range=(0.0, np.pi / 2))
    assert arc.arclength_defect(0.0, [0.3, 0.8, 1.5]) < 1e-6


def test_import_leaves_scipy_unloaded():
    # Only the arclength option uses scipy, and it imports it on first use;
    # a module-level import would cost most of every CLI start.
    src = os.path.dirname(os.path.dirname(torsor.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, torsor, torsor.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_arclength_defect_keeps_a_nan():
    def psi(t, u):
        return np.array([u, 0.0, 0.0]) if u < 1.0 else np.full(3, np.nan)

    assert np.isnan(Curve1D(psi).arclength_defect(0.0, [0.5, 2.0]))


def test_reparameterize_requires_range():
    with pytest.raises(ValueError):
        Curve1D(lambda t, u: np.array([u, 0.0, 0.0]), reparameterize=True)


# ---------------------------------------------------------------------------
# force-mass components


def test_force_mass_matrix_layout():
    f = ForceMass1D(rho_l=2.0, v=[1.0, 0.0, 3.0], v_t=0.5, F=[0.1, -0.2, 0.3])
    M = f.matrix
    assert_allclose(M[0], [2.0, 2.0, 0.0, 6.0], atol=EXACT_TOL)
    assert_allclose(M[1, 0], 1.0, atol=EXACT_TOL)
    assert_allclose(M[1, 1:], [0.9, 0.2, 2.7], atol=EXACT_TOL)


def test_force_mass_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = ForceMass1D(
            rho_l=float(rng.uniform(0.1, 3.0)),
            v=rng.normal(size=3),
            v_t=float(rng.normal()),
            F=rng.normal(size=3),
        )
        g = ForceMass1D.from_matrix(f.matrix)
        assert_allclose(g.rho_l, f.rho_l, atol=EXACT_TOL)
        assert_allclose(g.v, f.v, atol=EXACT_TOL)
        assert_allclose(g.v_t, f.v_t, atol=EXACT_TOL)
        assert_allclose(g.F, f.F, atol=1e-13)


def test_force_mass_rejects_nonpositive_density():
    M = np.zeros((2, 4))
    with pytest.raises(ValueError):
        ForceMass1D.from_matrix(M)


# ---------------------------------------------------------------------------
# stress-mass tensor


def test_assemble_cauchy_structure():
    T = assemble_cauchy_T(2.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
    expected = np.zeros((4, 4))
    expected[0, 0] = 2.0
    expected[0, 1] = expected[1, 0] = 2.0
    expected[1, 1] = 2.0
    assert_allclose(T, expected, atol=EXACT_TOL)
    # Hydrostatic stress enters with the opposite sign.
    T = assemble_cauchy_T(1.0, np.zeros(3), -3.0 * np.eye(3))
    assert_allclose(T[1:, 1:], 3.0 * np.eye(3), atol=EXACT_TOL)


def test_assemble_cauchy_validates():
    with pytest.raises(ValueError):
        assemble_cauchy_T(-1.0, np.zeros(3), np.zeros((3, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        assemble_cauchy_T(1.0, np.zeros(3), bad)


def test_assemble_cauchy_T_bits_match_array_packing():
    # The float packing must give the bits of the numpy array expressions.
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = rng.uniform(0.0, 10.0) * 10.0 ** rng.integers(-8, 9)
        v = rng.normal(size=3) * 10.0 ** rng.integers(-8, 9, size=3)
        s = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-8, 9)
        sigma = s + s.T
        ref = np.empty((4, 4))
        ref[0, 0] = rho
        ref[0, 1:] = rho * v
        ref[1:, 0] = rho * v
        ref[1:, 1:] = rho * np.outer(v, v) - sigma
        assert assemble_cauchy_T(rho, v, sigma).tobytes() == ref.tobytes()


def test_comoving_boost_recovers_stress():
    # Boosting into the rest frame of a uniformly moving medium must strip
    # the momentum row and expose -sigma in the spatial block.
    rng = np.random.default_rng(3)
    v = rng.normal(size=3)
    sig = rng.normal(size=(3, 3))
    sig = 0.5 * (sig + sig.T)
    T = assemble_cauchy_T(1.7, v, sig)
    boost = GalileanFrameChange(u=-v)
    Tp = transform_stress_mass(boost, T)
    assert_allclose(Tp[0, 0], 1.7, atol=EXACT_TOL)
    assert_allclose(Tp[0, 1:], np.zeros(3), atol=1e-13)
    assert_allclose(Tp[1:, 0], np.zeros(3), atol=1e-13)
    assert_allclose(Tp[1:, 1:], -sig, atol=1e-13)


# ---------------------------------------------------------------------------
# shells: first and second fundamental forms


def sphere_patch(r, upper=True):
    """Graph chart of a sphere of radius r; upper sheet has outward normal."""
    sign = 1.0 if upper else -1.0

    def x(t, th1, th2):
        return np.array(
            [th1, th2, sign * np.sqrt(r ** 2 - th1 ** 2 - th2 ** 2)]
        )

    def pi(t, th1, th2):
        z = sign * np.sqrt(r ** 2 - th1 ** 2 - th2 ** 2)
        return np.array([[1.0, 0.0, -th1 / z], [0.0, 1.0, -th2 / z]])

    return ShellField(x, pi=pi)


def test_sphere_curvature_both_sheets():
    r = 2.0
    th = (0.3, -0.2)
    up = sphere_patch(r, upper=True)
    a = up.metric(0.0, *th)
    b = up.second_form(0.0, *th)
    assert_allclose(b, -a / r, atol=1e-7)

    low = sphere_patch(r, upper=False)
    a = low.metric(0.0, *th)
    b = low.second_form(0.0, *th)
    assert_allclose(b, a / r, atol=1e-7)


def test_cylinder_geometry():
    R = 1.5

    def x(t, th1, th2):
        return np.array([R * np.cos(th1 / R), R * np.sin(th1 / R), th2])

    cyl = ShellField(x)
    t, th1, th2 = 0.0, 0.8, -0.3
    assert_allclose(cyl.metric(t, th1, th2), np.eye(2), atol=1e-7)
    n = cyl.n(t, th1, th2)
    assert_allclose(n, [np.cos(th1 / R), np.sin(th1 / R), 0.0], atol=1e-7)
    b = cyl.second_form(t, th1, th2)
    assert_allclose(b, [[-1.0 / R, 0.0], [0.0, 0.0]], atol=1e-6)
    # Orthonormal chart of a developable surface: no in-plane Christoffels.
    G = shell_christoffels(cyl, GalileanConnection(), t, th1, th2)
    assert_allclose(G[1:3, 1:3, 1:3], np.zeros((2, 2, 2)), atol=1e-6)
    assert_allclose(G[3, 1:3, 1:3], b, atol=EXACT_TOL)


def test_second_form_symmetry_fd_default():
    # Nontrivial graph surface with all geometry finite-differenced.
    def x(t, th1, th2):
        return np.array([th1, th2, 0.3 * th1 ** 2 * th2 + 0.1 * th2 ** 3])

    sf = ShellField(x)
    b = sf.second_form(0.0, 0.4, -0.6)
    assert abs(b[0, 1] - b[1, 0]) < 1e-8
    G = shell_christoffels(sf, GalileanConnection(), 0.0, 0.4, -0.6)
    Gam = G[1:3, 1:3, 1:3]
    assert_allclose(Gam, np.swapaxes(Gam, 1, 2), atol=1e-8)


def test_singular_metric_raises():
    flatline = ShellField(lambda t, th1, th2: np.array([th1, th1, 0.0]))
    with pytest.raises(SingularMetric):
        flatline.metric(0.0, 0.1, 0.2)


# ---------------------------------------------------------------------------
# shells: chart Christoffels in a spinning frame


def test_flat_static_plate_christoffels_vanish():
    plate = ShellField(lambda t, th1, th2: np.array([th1, th2, 0.0]))
    G = shell_christoffels(plate, GalileanConnection(), 0.0, 0.5, -1.0)
    assert_allclose(G[1:3, 0, 0], np.zeros(2), atol=FD_TOL)
    assert abs(G[3, 0, 0]) < FD_TOL
    assert_allclose(G[1:3, 1:3, 1:3], np.zeros((2, 2, 2)), atol=FD_TOL)
    assert_allclose(G[3, 1:3, 1:3], np.zeros((2, 2)), atol=FD_TOL)
    assert_allclose(G[1:3, 0, 1:3], np.zeros((2, 2)), atol=FD_TOL)
    assert_allclose(G[1:3, 0, 3], np.zeros(2), atol=FD_TOL)
    assert_allclose(G[3, 0, 1:3], np.zeros(2), atol=FD_TOL)


def test_flat_plate_under_gravity():
    plate = ShellField(lambda t, th1, th2: np.array([th1, th2, 0.0]))
    g0 = 9.81
    conn = GalileanConnection(g=(0.0, 0.0, -g0))
    G = shell_christoffels(plate, conn, 0.0, 0.0, 0.0)
    assert_allclose(G[3, 0, 0], g0, atol=EXACT_TOL)
    assert_allclose(G[1:3, 0, 0], np.zeros(2), atol=EXACT_TOL)


def test_spinning_plate_phi_blocks():
    # Plate rotating about e3 at rate w, observed in a frame spinning at
    # rate w_f: Phi^a_b = (w + w_f) * (in-plane rotation generator).
    w, w_f = 0.7, 0.4
    e3 = np.array([0.0, 0.0, 1.0])

    def x(t, th1, th2):
        return rotation(e3, w * t) @ np.array([th1, th2, 0.0])

    def pi(t, th1, th2):
        R = rotation(e3, w * t)
        return np.array([R @ [1.0, 0.0, 0.0], R @ [0.0, 1.0, 0.0]])

    plate = ShellField(x, pi=pi)
    conn = GalileanConnection(Omega=w_f * e3)
    G = shell_christoffels(plate, conn, 0.3, 0.5, -0.2)
    total = w + w_f
    assert_allclose(G[1:3, 0, 1:3], [[0.0, -total], [total, 0.0]], atol=1e-7)
    assert_allclose(G[1:3, 0, 3], np.zeros(2), atol=1e-7)
    assert_allclose(G[3, 0, 1:3], np.zeros(2), atol=1e-7)


def test_poisson_vector_and_normal_velocity():
    # Rigidly tumbling plate about a tilted axis: dR/dt = skew(varpi) R and
    # the defaulted w equals both varpi x n and the finite difference of n.
    axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    w_rate = 0.9

    def R_of_t(t):
        return rotation(axis, w_rate * t)

    def x(t, th1, th2):
        return R_of_t(t) @ np.array([th1, th2, 0.0])

    varpi = lambda t, th1, th2: w_rate * axis
    plate = ShellField(x, varpi=varpi)

    t = 0.4
    dR = (np.asarray(R_of_t(t + 1e-6)) - np.asarray(R_of_t(t - 1e-6))) / 2e-6
    assert_allclose(dR, skew(w_rate * axis) @ R_of_t(t), atol=1e-7)

    n = plate.n(t, 0.2, -0.5)
    assert_allclose(plate.w(t, 0.2, -0.5), np.cross(w_rate * axis, n), atol=EXACT_TOL)
    plain = ShellField(x)
    assert_allclose(
        plain.w(t, 0.2, -0.5), np.cross(w_rate * axis, n), atol=1e-7
    )


def test_shell_velocity_and_acceleration():
    w_rate = 0.8
    e3 = np.array([0.0, 0.0, 1.0])

    def x(t, th1, th2):
        return rotation(e3, w_rate * t) @ np.array([th1, th2, 0.0])

    sf = ShellField(x)
    t, th1, th2 = 0.25, 0.6, -0.1
    pos = sf.x(t, th1, th2)
    om = w_rate * e3
    assert_allclose(sf.v(t, th1, th2), np.cross(om, pos), atol=1e-7)
    assert_allclose(
        sf.v_dot(t, th1, th2), np.cross(om, np.cross(om, pos)), atol=1e-6
    )
