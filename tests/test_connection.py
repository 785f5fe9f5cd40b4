"""Connection coefficients and covariant divergence against symbolic oracles.

The divergence oracles build random low-degree polynomial component fields
in sympy, apply the specialized space-filling formulas by symbolic
differentiation, and compare with the finite-difference operators.  Central
differences are exact on quadratics, so agreement is at roundoff level.
"""

import functools

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from torsor import fd
from torsor.connection import (
    GalileanConnection,
    PullbackChristoffels,
    divergence,
    spatial_origin_gamma_A,
)
from torsor.errors import DifferentiationFailure
from torsor.fields import MediumField
from torsor.vecmath import skew

G_CONST = np.array([1.0, -2.0, 0.5])
OMEGA_CONST = np.array([0.3, 0.1, -0.2])

SYMS = sp.symbols("t x1 x2 x3")


def poly_field(rng, degree=2):
    """Random polynomial in (t, x1, x2, x3) with small integer coefficients."""
    monomials = [sp.Integer(1)]
    monomials += list(SYMS)
    if degree >= 2:
        monomials += [a * b for i, a in enumerate(SYMS) for b in SYMS[i:]]
    coeffs = rng.integers(-3, 4, size=len(monomials))
    return sum(int(c) * m for c, m in zip(coeffs, monomials))


def lambdify_vec(exprs):
    fns = [sp.lambdify(SYMS, e, "numpy") for e in exprs]
    return lambda t, x: np.array([f(t, x[0], x[1], x[2]) for f in fns], dtype=float)


def identity_medium(T_mat_fn, J_fn=None, domain=None):
    """Space-filling medium: chart = space-time, U = identity.

    T_mat_fn(t, x) returns T^{bg} at one event as a (4, 4) array; the field
    row form gT^b is its transpose.  J_fn(t, x) returns J^{abg} as
    (4, 4, 4) with the material index last; the field form moves it first.
    The fields read a batch of events xi (k, 4) one event at a time and
    stack their values along a leading point axis.
    """
    def torsor_T(xi):
        return np.array([T_mat_fn(p[0], p[1:]).T for p in xi])

    def torsor_J(xi):
        if J_fn is None:
            return np.zeros((len(xi), 4, 4, 4))
        return np.array([np.moveaxis(J_fn(p[0], p[1:]), -1, 0) for p in xi])

    return MediumField(
        tangent_map=lambda xi: np.eye(4),
        torsor_T=torsor_T,
        torsor_J=torsor_J,
        domain=domain,
    )


# Christoffel structure

def test_christoffels_structure():
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    G = conn.christoffels_at(0.3, [1.0, 2.0, -1.0])
    assert_allclose(G[1:, 0, 0], -G_CONST, atol=0)
    assert_allclose(G[1:, 0, 1:], skew(OMEGA_CONST), atol=0)
    assert_allclose(G[1:, 1:, 0], skew(OMEGA_CONST), atol=0)
    # Time row vanishes, both-spatial lower indices vanish.
    assert np.all(G[0] == 0.0)
    assert np.all(G[:, 1:, 1:] == 0.0)
    # Symmetric in the lower pair and trace-free in (upper, first lower).
    assert_allclose(G, np.swapaxes(G, 1, 2), atol=0)
    assert_allclose(np.einsum("ggr->r", G), np.zeros(4), atol=0)


def test_rotating_frame_carries_centrifugal_gravity():
    Om = np.array([0.0, 0.0, 2.0])
    conn = GalileanConnection.rotating_frame(Om)
    x = np.array([3.0, -1.0, 5.0])
    # -Omega x (Omega x x) = omega^2 x_perp for Omega along e3.
    assert_allclose(conn.g(0.0, x), 4.0 * np.array([3.0, -1.0, 0.0]), atol=1e-14)
    assert_allclose(conn.Omega(0.0, x), Om, atol=0)


# Origin motion

def test_gamma_A_proper_is_identity():
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    chris = PullbackChristoffels.identity_embedding(conn, 0.7,
                                                    [1.0, -2.0, 0.3])
    assert np.all(chris.origin_motion == np.eye(4))


def test_gamma_A_spatial_origin():
    x = np.array([1.0, -2.0, 0.3])
    M = spatial_origin_gamma_A(OMEGA_CONST, x)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    expect[1:, 0] = -np.cross(OMEGA_CONST, x)
    assert_allclose(M, expect, atol=1e-9)
    dX = np.array([2.0, 0.5, -1.0, 0.25])
    assert_allclose(M @ dX, expect @ dX, atol=1e-9)


# div T against the symbolic oracle

def test_div_T_matches_symbolic_oracle():
    rng = np.random.default_rng(21)
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    Gnum = conn.christoffels_at(0.0, np.zeros(3))

    T_sym = [[poly_field(rng) for _ in range(4)] for _ in range(4)]
    div_sym = []
    for b in range(4):
        e = sum(sp.diff(T_sym[b][g], SYMS[g]) for g in range(4))
        e += sum(
            Gnum[b, g, r] * T_sym[r][g] for g in range(4) for r in range(4)
        )
        div_sym.append(sp.expand(e))
    oracle = lambdify_vec(div_sym)

    T_rows = [lambdify_vec(row) for row in T_sym]

    def T_mat(t, x):
        return np.stack([f(t, x) for f in T_rows])

    medium = identity_medium(T_mat)
    for _ in range(5):
        t = rng.uniform(-1, 1)
        x = rng.uniform(-1, 1, size=3)
        xi = np.concatenate(([t], x))[None]
        chris = PullbackChristoffels.identity_embedding(conn, t, x)
        (dT,), _ = divergence(medium, xi, chris)
        assert_allclose(dT, oracle(t, x), atol=1e-9)


def test_div_J_matches_symbolic_oracle():
    rng = np.random.default_rng(22)
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    Gnum = conn.christoffels_at(0.0, np.zeros(3))

    T_sym = [[poly_field(rng) for _ in range(4)] for _ in range(4)]
    J_sym = [[[sp.Integer(0)] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            for g in range(4):
                p = poly_field(rng)
                J_sym[a][b][g] = p
                J_sym[b][a][g] = -p

    div_sym = [[sp.Integer(0)] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            e = sum(sp.diff(J_sym[a][b][g], SYMS[g]) for g in range(4))
            e += sum(
                Gnum[a, g, r] * J_sym[r][b][g] + Gnum[b, g, r] * J_sym[a][r][g]
                for g in range(4)
                for r in range(4)
            )
            # Proper frame: Gamma_A = identity couples the linear part.
            e += T_sym[b][a] - T_sym[a][b]
            div_sym[a][b] = sp.expand(e)

    oracle_rows = [lambdify_vec(row) for row in div_sym]

    def oracle(t, x):
        return np.stack([f(t, x) for f in oracle_rows])

    T_rows = [lambdify_vec(row) for row in T_sym]

    def T_mat(t, x):
        return np.stack([f(t, x) for f in T_rows])

    J_fns = [[lambdify_vec(J_sym[a][b]) for b in range(4)] for a in range(4)]

    def J_arr(t, x):
        out = np.zeros((4, 4, 4))
        for a in range(4):
            for b in range(4):
                out[a, b] = J_fns[a][b](t, x)
        return out

    medium = identity_medium(T_mat, J_arr)
    for _ in range(4):
        t = rng.uniform(-1, 1)
        x = rng.uniform(-1, 1, size=3)
        xi = np.concatenate(([t], x))[None]
        chris = PullbackChristoffels.identity_embedding(conn, t, x)
        _, (out,) = divergence(medium, xi, chris)
        expect = oracle(t, x)
        assert_allclose(out, 0.5 * (expect - expect.T), atol=1e-8)
        assert_allclose(out, expect, atol=1e-8)


def test_div_J_zero_moments_reduces_to_antisymmetry():
    # With J identically zero in a proper frame the divergence must equal
    # T^{ba} - T^{ab} with no differentiation error at all.
    rng = np.random.default_rng(23)
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)

    def T_mat(t, x):
        out = np.outer(np.sin(x), np.cos(x + t))[
            [0, 1, 2, 0], :
        ][:, [0, 1, 2, 0]]
        out[0, 0] = 2.0 + np.cos(t)
        return out

    medium = identity_medium(lambda t, x: T_mat(t, np.asarray(x)))
    for _ in range(10):
        t = rng.uniform(-1, 1)
        x = rng.uniform(-1, 1, size=3)
        xi = np.concatenate(([t], x))[None]
        chris = PullbackChristoffels.identity_embedding(conn, t, x)
        _, (out,) = divergence(medium, xi, chris)
        T = T_mat(t, x)
        assert np.max(np.abs(out - (T.T - T))) < 1e-12


def test_divergence_without_moments_matches_zero_J_bits():
    # torsor_J None skips the moment stencils; the result must be the very
    # bits an explicit all-zero J gives, with a nontrivial Gamma_A.
    rng = np.random.default_rng(25)
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    A = rng.uniform(-1, 1, size=(4, 4))

    def T_mat(t, x):
        return A * np.cos(t + x @ np.array([0.3, -0.5, 0.7]))

    zero_J = identity_medium(T_mat)
    no_J = identity_medium(T_mat)
    no_J.torsor_J = None
    for _ in range(5):
        t = rng.uniform(-1, 1)
        x = rng.uniform(-1, 1, size=3)
        xi = np.concatenate(([t], x))[None]
        G = conn.christoffels_at(t, x)
        chris = PullbackChristoffels(G, G, spatial_origin_gamma_A(
            conn.Omega(t, x), x))
        for a, b in zip(divergence(no_J, xi, chris),
                        divergence(zero_J, xi, chris)):
            assert a.tobytes() == b.tobytes()


def test_divergence_linear_in_fields():
    rng = np.random.default_rng(24)
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)

    def make(seed):
        r = np.random.default_rng(seed)
        A = r.uniform(-1, 1, size=(4, 4))
        B = r.uniform(-1, 1, size=(4, 4, 4))
        B = B - np.swapaxes(B, 0, 1)

        def T_mat(t, x):
            s = np.sin(t + x.sum())
            return A * (1.0 + s)

        def J_arr(t, x):
            return B * np.cos(t - x[0] + 0.5 * x[1])

        return T_mat, J_arr

    T1, J1 = make(1)
    T2, J2 = make(2)
    a, b = 0.7, -1.3
    m1 = identity_medium(T1, J1)
    m2 = identity_medium(T2, J2)
    mc = identity_medium(
        lambda t, x: a * T1(t, x) + b * T2(t, x),
        lambda t, x: a * J1(t, x) + b * J2(t, x),
    )
    t = 0.4
    x = np.array([0.1, -0.2, 0.3])
    xi = np.concatenate(([t], x))[None]
    chris = PullbackChristoffels.identity_embedding(conn, t, x)
    (dT_c,), (dJ_c,) = divergence(mc, xi, chris)
    (dT_1,), (dJ_1,) = divergence(m1, xi, chris)
    (dT_2,), (dJ_2,) = divergence(m2, xi, chris)
    assert_allclose(dT_c, a * dT_1 + b * dT_2, atol=1e-9)
    assert_allclose(dJ_c, a * dJ_1 + b * dJ_2, atol=1e-9)


def test_boundary_raises_and_one_sided_recovers():
    conn = GalileanConnection()
    domain = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

    def T_mat(t, x):
        out = np.zeros((4, 4))
        out[0, 0] = t ** 2 + x[0] ** 2
        return out

    medium = identity_medium(T_mat, domain=domain)
    xi = np.array([[0.5, 1.0 - 1e-9, 0.5, 0.5]])
    chris = PullbackChristoffels.identity_embedding(conn, xi[0, 0],
                                                    xi[0, 1:])
    with pytest.raises(DifferentiationFailure):
        divergence(medium, xi, chris)
    (out,), _ = divergence(medium, xi, chris, one_sided=True)
    # d/dt (t^2) + d/dx1 (x1^2) contributes 2t to the mass row only through
    # the time slot: row structure gives div^0 = d T^{00}/dt = 2t.
    assert_allclose(out[0], 2.0 * xi[0, 0], atol=1e-6)


@pytest.mark.parametrize("one_sided", [False, True])
def test_point_outside_the_bounds_has_no_stencil(one_sided):
    # A point outside [lo, hi] is not differenced at all, not even by the
    # one-sided stencil that would read f only outside the bounds; a batch
    # names its first such point.
    seen = []

    def f(u):
        seen.append(u)
        return u * u

    with pytest.raises(DifferentiationFailure, match=(
            r"^coordinate 1\.5 lies outside the domain \[0\.0, 1\.0\]$")):
        fd.diff(f, 1.5, lo=0.0, hi=1.0, one_sided=one_sided)
    with pytest.raises(DifferentiationFailure, match=(
            r"^coordinate -0\.25 lies outside the domain \[0\.0, inf\]$")):
        fd.diff(f, np.array([0.5, -0.25, 1.5]), lo=0.0, one_sided=one_sided)
    assert seen == []


@pytest.mark.parametrize("u", [0.0, 0.5, 1.0])
def test_single_point_stencils_hand_f_floats(u):
    # A cached f needs hashable probes: one point's central and one-sided
    # stencils alike pass it floats, never 0-d arrays.
    seen = []

    @functools.lru_cache
    def f(w):
        seen.append(w)
        return w ** 3

    got = fd.diff(f, u, lo=0.0, hi=1.0, one_sided=True)
    assert all(isinstance(w, float) for w in seen) and len(seen) == 3 - (u == 0.5)
    assert_allclose(got, 3.0 * u ** 2, atol=1e-9)


def test_divergence_second_order_convergence():
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)

    def T_mat(t, x):
        base = np.outer(np.cos(x + t), np.sin(2.0 * x - t))
        out = np.zeros((4, 4))
        out[1:, 1:] = base
        out[0, 0] = np.exp(0.3 * t + 0.1 * x.sum())
        return out

    medium = identity_medium(T_mat)
    t = 0.2
    x = np.array([0.3, -0.4, 0.1])
    xi = np.concatenate(([t], x))[None]
    chris = PullbackChristoffels.identity_embedding(conn, t, x)
    (ref,), _ = divergence(medium, xi, chris, h=1e-6)
    errs = []
    steps = [1e-2, 1e-3]
    for h in steps:
        (out,), _ = divergence(medium, xi, chris, h=h)
        errs.append(np.max(np.abs(out - ref)))
    rate = np.log(errs[0] / errs[1]) / np.log(steps[0] / steps[1])
    assert 1.8 < rate < 2.2


@pytest.mark.parametrize("shape", [(), (4,), (1, 1, 4)])
def test_divergence_takes_only_a_batch_of_points(shape):
    # One chart point is a batch of one, (1, d+1); xi of any other rank
    # is refused before any field is read.
    seen = []

    def T_mat(t, x):
        seen.append(t)
        return np.zeros((4, 4))

    chris = PullbackChristoffels.identity_embedding(GalileanConnection(),
                                                    0.0, np.zeros(3))
    with pytest.raises(ValueError, match=r"shape \(m, d\+1\)"):
        divergence(identity_medium(T_mat), np.zeros(shape), chris)
    assert seen == []
