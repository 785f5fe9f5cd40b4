"""Section quadrature and 3D-to-1D / 3D-to-2D reduction against closed forms.

Oracles are hand-integrated monomials and standard profiles: uniform and
parabolic pipe flow, rigid section spin, linear stress gradients, and the
plate-bending thickness moment.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torsor.errors import EmptySection
from torsor.fields import assemble_cauchy_T, shell_torsor
from torsor.reduction import (
    CrossSection,
    ThicknessRule,
    projector_matrix,
    reduce_3d_to_1d_force_mass,
    reduce_3d_to_1d_J,
    reduce_3d_to_1d_T,
    reduce_3d_to_2d,
)

QUAD_TOL = 1e-12


# ---------------------------------------------------------------------------
# quadrature rules


def test_rectangle_polynomial_exactness():
    a, b = 0.7, 1.3
    cs = CrossSection.rectangle(a, b)
    assert_allclose(cs.area(), a * b, rtol=QUAD_TOL)
    got = cs.integrate(lambda xb: xb[0] ** 2 * xb[1] ** 4)
    exact = (a ** 3 / 12.0) * (b ** 5 / 80.0)
    assert_allclose(got, exact, rtol=QUAD_TOL)
    # Odd powers integrate to zero over the centered rectangle.
    assert abs(cs.integrate(lambda xb: xb[0] ** 3)) < QUAD_TOL


def test_disc_polynomial_exactness():
    R = 0.9
    cs = CrossSection.disc(R)
    assert_allclose(cs.area(), np.pi * R ** 2, rtol=QUAD_TOL)
    assert_allclose(
        cs.integrate(lambda xb: xb[0] ** 2 + xb[1] ** 2),
        np.pi * R ** 4 / 2.0,
        rtol=QUAD_TOL,
    )
    assert_allclose(
        cs.integrate(lambda xb: xb[0] ** 2), np.pi * R ** 4 / 4.0, rtol=QUAD_TOL
    )
    assert_allclose(
        cs.integrate(lambda xb: xb[0] ** 4), np.pi * R ** 6 / 8.0, rtol=QUAD_TOL
    )
    # Odd-parity integrands cancel around the uniform angular rule.
    assert abs(cs.integrate(lambda xb: xb[0] ** 3 * xb[1] ** 2)) < 1e-14
    assert abs(cs.integrate(lambda xb: xb[0] * xb[1])) < 1e-14


def test_thickness_rule_moments():
    h = 0.02
    rule = ThicknessRule(h)
    assert_allclose(rule.integrate(lambda z: 1.0), h, rtol=QUAD_TOL)
    assert_allclose(rule.integrate(lambda z: z ** 2), h ** 3 / 12.0, rtol=QUAD_TOL)
    assert_allclose(rule.integrate(lambda z: z ** 4), h ** 5 / 80.0, rtol=QUAD_TOL)
    assert abs(rule.integrate(lambda z: z)) < 1e-18
    with pytest.raises(ValueError):
        ThicknessRule(0.0)


def node_order_sum(rule, f):
    """The weighted sum of f over rule's nodes, one node at a time."""
    total = None
    for k, w in enumerate(rule.weights):
        val = w * np.asarray(f(rule.coords[..., k]), dtype=float)
        total = val if total is None else total + val
    return total


@pytest.mark.parametrize("shape", [(), (2, 4)])
def test_integrate_adds_nodes_in_order(shape):
    # integrate reads f on all 128 nodes at once and must add the terms
    # in node order, bit for bit as a loop over the nodes does; a sum
    # along the node axis adds them pairwise, with other roundoff.
    cs = CrossSection.disc(0.7)
    assert cs.weights.shape == (128,)
    c = np.random.default_rng(4).normal(size=shape + (3,))

    def f(xb):
        # Products only, so one node and all nodes give the same bits.
        x1, x2 = xb[0], xb[1]
        return (np.multiply.outer(c[..., 0], x1 * x1 * x2 + 0.3)
                + np.multiply.outer(c[..., 1], x2 * x2 - x1)
                + np.multiply.outer(c[..., 2], x1 * x2 * x2 * x2))

    got = np.asarray(cs.integrate(f))
    assert got.shape == shape
    assert got.tobytes() == np.asarray(node_order_sum(cs, f)).tobytes()


def test_integrate_requires_the_node_axis_last():
    # Only a 0-d value may leave the node axis out.  A (3, 3) constant on
    # a 3-node rule cannot be told from a (3,) field at each node, so it
    # is weighted along its rows; spread over the nodes it integrates to
    # h c.
    rule = ThicknessRule(0.3, n=3)
    c = np.arange(9.0).reshape(3, 3)
    assert_allclose(rule.integrate(lambda z: 2.0), 0.6, rtol=QUAD_TOL)
    assert_allclose(rule.integrate(constant_on(c)), 0.3 * c, rtol=QUAD_TOL)
    assert_allclose(rule.integrate(lambda z: c), c @ rule.weights,
                    rtol=QUAD_TOL)
    for value in (c[:, :2], c[0, :2], np.ones(4)):
        with pytest.raises(ValueError, match="node axis"):
            rule.integrate(lambda z: value)
    # A section or thickness field must carry the node axis too.
    with pytest.raises(ValueError, match="node axis"):
        reduce_3d_to_2d(lambda z: c, 1.0, rule)
    cs = CrossSection.disc(0.4, n_r=2, n_theta=4)
    with pytest.raises(ValueError, match="node axis"):
        cs.mass_center(lambda xb: 1.0)
    with pytest.raises(ValueError, match="node axis"):
        reduce_3d_to_1d_T(lambda xb: np.eye(4), projector_matrix(cs), cs)


def test_section_validation():
    with pytest.raises(EmptySection):
        CrossSection(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        CrossSection([[0.0, 0.0]], [1.0], e1=(1.0, 0.2, 0.0))
    with pytest.raises(ValueError):
        CrossSection([[0.0, 0.0], [1.0, 0.0]], [1.0])


def test_projector_uses_frame():
    cs = CrossSection(
        [[1.0, 2.0]],
        [1.0],
        origin=(5.0, 0.0, 0.0),
        e1=(0.0, 1.0, 0.0),
        e2=(0.0, 0.0, 1.0),
        n=(1.0, 0.0, 0.0),
    )
    assert_allclose(projector_matrix(cs)[1, 1:], [1.0, 0.0, 0.0], atol=QUAD_TOL)


# ---------------------------------------------------------------------------
# 3D -> 1D force-mass reduction


def uniform_rod_T(rho0, v):
    def T_bar(xb):
        v_nodes = np.multiply.outer(v, np.ones_like(xb[0]))
        return assemble_cauchy_T(rho0, v_nodes, np.zeros((3, 3)))

    return T_bar


def test_line_density_of_uniform_disc():
    R, rho0 = 0.4, 2.5
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    M = reduce_3d_to_1d_T(uniform_rod_T(rho0, [0.0, 0.0, 1.0]), Pi, cs)
    assert_allclose(M[0, 0], rho0 * np.pi * R ** 2, rtol=QUAD_TOL)


def test_force_mass_rejects_nonpositive_line_density():
    # v and v_t divide the reduced momentum by rho_l.
    cs = CrossSection.disc(0.4)
    with pytest.raises(ValueError, match="line density must be positive"):
        reduce_3d_to_1d_force_mass(uniform_rod_T(0.0, [0.0, 0.0, 1.0]),
                                   projector_matrix(cs), cs)


def test_reduction_matches_componentwise_integrals():
    # The reduced matrix rows must equal the four displayed component
    # integrals evaluated independently.
    R = 0.5
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    n = cs.n

    def rho(xb):
        return 1.0 + 0.3 * xb[0] + 0.2 * xb[1] ** 2

    def v_bar(xb):
        return np.array([0.1 * xb[1], -0.2 * xb[0], 1.0 + 0.5 * xb[0]])

    def sigma(xb):
        zero = np.zeros_like(xb[0])
        return np.array(
            [
                [xb[0], 0.2 + zero, 0.1 * xb[1]],
                [0.2 + zero, -0.4 * xb[1], zero],
                [0.1 * xb[1], zero, 0.7 + zero],
            ]
        )

    def T_bar(xb):
        return assemble_cauchy_T(rho(xb), v_bar(xb), sigma(xb))

    M = reduce_3d_to_1d_T(T_bar, Pi, cs)
    assert_allclose(M[0, 0], cs.integrate(rho), rtol=1e-9)
    assert_allclose(
        M[0, 1:], cs.integrate(lambda xb: rho(xb) * v_bar(xb)), atol=1e-9
    )
    assert_allclose(
        M[1, 0],
        cs.integrate(lambda xb: rho(xb) * (n @ v_bar(xb))),
        atol=1e-9,
    )
    assert_allclose(
        M[1, 1:],
        cs.integrate(
            lambda xb: rho(xb) * (n @ v_bar(xb)) * v_bar(xb)
            - np.einsum("ijk,j->ik", sigma(xb), n)
        ),
        atol=1e-9,
    )
    # The force-mass components pack back into the same matrix.
    f = reduce_3d_to_1d_force_mass(T_bar, Pi, cs)
    assert_allclose(f.matrix[0], M[0], rtol=1e-12)
    assert_allclose(f.matrix[1, 0], M[1, 0], rtol=1e-12)
    assert_allclose(f.matrix[1, 1:], M[1, 1:], atol=1e-9)


def section_sigma(xb):
    """The stress at the nodes xb (2, K), node axis last."""
    zero = np.zeros_like(xb[0])
    return np.array(
        [
            [1.0 + xb[0], 0.5 * xb[1], zero],
            [0.5 * xb[1], -2.0 + zero, 0.3 + zero],
            [zero, 0.3 + zero, xb[0] * xb[1]],
        ]
    )


def section_traction(cs):
    """The section integral of sigma n."""
    return cs.integrate(
        lambda xb: np.einsum("ijk,j->ik", section_sigma(xb), cs.n))


def test_uniform_transverse_velocity_fluctuation_exactly_zero():
    # Section-uniform velocity perpendicular to the axis: v_t and every
    # per-node fluctuation factor are exactly zero in floating point, so
    # F equals the stress integral to the last bit.
    R = 0.3
    v = np.array([0.4, -0.2, 0.0])
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)

    def rho(xb):
        return 1.8 * (1.0 + 0.5 * xb[0] ** 2)

    def T_bar(xb):
        return assemble_cauchy_T(rho(xb), np.multiply.outer(v, xb[0] ** 0),
                                 section_sigma(xb))

    f = reduce_3d_to_1d_force_mass(T_bar, Pi, cs)
    F_stress = section_traction(cs)
    assert np.max(np.abs(f.F - F_stress)) == 0.0


def test_uniform_axial_velocity_fluctuation_vanishes():
    # With an axial component the velocity fluctuation factors are a few
    # ulp instead of zero, and recovering sigma from the stress-mass tensor
    # rounds at the rho v v scale; the force still matches the stress
    # integral far below any physical term.
    R, rho0 = 0.3, 1.8
    v = np.array([0.4, -0.2, 1.1])
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)

    def rho(xb):
        return rho0 * (1.0 + 0.5 * xb[0] ** 2)

    def T_bar(xb):
        return assemble_cauchy_T(rho(xb), np.multiply.outer(v, xb[0] ** 0),
                                 section_sigma(xb))

    f = reduce_3d_to_1d_force_mass(T_bar, Pi, cs)
    F_stress = section_traction(cs)
    assert np.max(np.abs(f.F - F_stress)) < 1e-16


def test_parabolic_profile_fluctuation_closed_form():
    # Parabolic pipe flow v_bar = v_max (1 - r^2/R^2) n with zero stress:
    # F = -rho0 v_max^2 pi R^2 / 12 n, entirely from the fluctuation term.
    R, rho0, v_max = 0.6, 2.0, 3.0
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    n = cs.n

    def T_bar(xb):
        prof = v_max * (1.0 - (xb[0] ** 2 + xb[1] ** 2) / R ** 2)
        return assemble_cauchy_T(rho0, np.multiply.outer(n, prof),
                                 np.zeros((3, 3)))

    f = reduce_3d_to_1d_force_mass(T_bar, Pi, cs)
    assert_allclose(f.v_t, v_max / 2.0, rtol=1e-12)
    assert_allclose(
        f.F, -rho0 * v_max ** 2 * np.pi * R ** 2 / 12.0 * n, atol=1e-12
    )


# ---------------------------------------------------------------------------
# 3D -> 1D moment reduction


def test_moments_require_centered_section():
    R = 0.5
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)

    def rho_at(p):
        return 1.0 + 0.8 * p[0] / R

    def T_fn(section):
        def T_bar(xb):
            p = section.origin[:, None] + section.in_plane(xb)
            return assemble_cauchy_T(rho_at(p), np.zeros_like(p),
                                     np.zeros((3, 3)))

        return T_bar

    with pytest.raises(ValueError, match="centered"):
        reduce_3d_to_1d_J(T_fn(cs), Pi, cs)

    centered = cs.centered(
        lambda xb: rho_at(cs.origin[:, None] + cs.in_plane(xb)))
    mom = reduce_3d_to_1d_J(T_fn(centered), Pi, centered)
    M = reduce_3d_to_1d_T(T_fn(centered), Pi, centered)
    diameter = 2.0 * R
    assert np.linalg.norm(mom.q) < 1e-9 * M[0, 0] * diameter


def test_rigid_spin_moment_of_momentum():
    # Section spinning rigidly about its own axis: l = rho0 w pi R^4 / 2 n,
    # with no tangential flow and hence no M_star.
    R, rho0, w = 0.45, 1.4, 2.2
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    n = cs.n

    def T_bar(xb):
        v = w * np.cross(n, cs.in_plane(xb), axisb=0, axisc=0)
        return assemble_cauchy_T(rho0, v, np.zeros((3, 3)))

    mom = reduce_3d_to_1d_J(T_bar, Pi, cs)
    assert_allclose(mom.l, rho0 * w * np.pi * R ** 4 / 2.0 * n, atol=1e-12)
    assert_allclose(mom.q, np.zeros(3), atol=1e-12)
    assert_allclose(mom.l_star, np.zeros(3), atol=1e-12)
    assert_allclose(mom.M_star, np.zeros(3), atol=1e-12)


def test_linear_axial_profile_transport_moment():
    # v_bar = alpha x1 n: l_star = rho0 alpha (pi R^4/4) e1, and the same
    # second moment appears in l = integral of x cross rho v = -(...) e2.
    R, rho0, alpha = 0.5, 1.0, 0.8
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    n = cs.n
    second_moment = rho0 * alpha * np.pi * R ** 4 / 4.0

    def T_bar(xb):
        return assemble_cauchy_T(rho0, np.multiply.outer(n, alpha * xb[0]),
                                 np.zeros((3, 3)))

    mom = reduce_3d_to_1d_J(T_bar, Pi, cs)
    assert_allclose(mom.l_star, second_moment * cs.e1, atol=1e-12)
    assert_allclose(mom.l, -second_moment * cs.e2, atol=1e-12)


def test_linear_stress_gradient_moment_flux():
    # sigma = x1 I: M_star = -(integral of x1 xvec) x (I n) = (pi R^4/4) e2.
    R = 0.7
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)

    def T_bar(xb):
        return assemble_cauchy_T(1.0, np.zeros((3,) + xb[0].shape),
                                 np.multiply.outer(np.eye(3), xb[0]))

    mom = reduce_3d_to_1d_J(T_bar, Pi, cs)
    assert_allclose(mom.M_star, np.pi * R ** 4 / 4.0 * cs.e2, atol=1e-12)
    # The reduced J array stays skew in its component pair.
    assert_allclose(mom.J, -np.swapaxes(mom.J, 1, 2), atol=1e-15)


# ---------------------------------------------------------------------------
# 3D -> 2D reduction and shell torsor assembly


def constant_on(value):
    """The field taking `value` at every node, node axis last."""
    return lambda z: np.multiply.outer(value, np.ones_like(z))


def test_constant_stress_thickness_reduction():
    h, rho0 = 0.01, 2.0
    rule = ThicknessRule(h)
    sig0 = np.array([[3.0, 0.5, 0.2], [0.5, -1.0, 0.4], [0.2, 0.4, 0.9]])
    red = reduce_3d_to_2d(constant_on(sig0), rho0, rule)
    assert_allclose(red.rho_s, rho0 * h, rtol=QUAD_TOL)
    assert_allclose(red.N, h * sig0[:2, :2], rtol=QUAD_TOL)
    assert_allclose(red.Q, h * sig0[:2, 2], rtol=QUAD_TOL)
    assert_allclose(red.M, np.zeros((2, 2)), atol=1e-17)


def test_linear_bending_stress_moment():
    # sigma_11 = kappa0 z across the thickness: M_11 = kappa0 h^3 / 12.
    h, kappa0 = 0.02, 5.0
    rule = ThicknessRule(h)

    def sigma(z):
        s = np.zeros((3, 3) + z.shape)
        s[0, 0] = kappa0 * z
        return s

    red = reduce_3d_to_2d(sigma, 1.0, rule)
    assert_allclose(red.M[0, 0], kappa0 * h ** 3 / 12.0, rtol=QUAD_TOL)
    assert_allclose(red.N, np.zeros((2, 2)), atol=1e-17)


def test_assemble_shell_torsor_blocks():
    h, rho0 = 0.01, 2.0
    rule = ThicknessRule(h)
    sig0 = np.array([[3.0, 0.5, 0.2], [0.5, -1.0, 0.4], [0.2, 0.4, 0.9]])
    red = reduce_3d_to_2d(constant_on(sig0), rho0, rule)
    kappa = rho0 * h ** 3 / 12.0

    T, J = shell_torsor(red.rho_s, red.N, red.Q, red.M, kappa, np.zeros(2))
    assert_allclose(T[0, 0], rho0 * h, rtol=QUAD_TOL)
    assert_allclose(T[1:, 1:3], -red.N, atol=QUAD_TOL)
    assert_allclose(T[1:, 3], -red.Q, atol=QUAD_TOL)
    assert_allclose(T[0, 1:], np.zeros(3), atol=QUAD_TOL)
    # J^{ba3} = M^{ab} along the theta fluxes b.
    assert_allclose(J[1:, 1:3, 3].T, red.M, atol=QUAD_TOL)

    w = np.array([0.3, -0.1])
    T_w, _ = shell_torsor(red.rho_s, red.N, red.Q, red.M, kappa, w)
    assert_allclose(T_w[1:, 1:3], kappa * np.outer(w, w) - red.N,
                    atol=QUAD_TOL)
