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
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torsor import fd
from torsor.connection import (
    GalileanConnection,
    PullbackChristoffels,
    christoffels,
    divergence,
    spatial_origin_gamma_A,
)
from torsor.errors import DifferentiationFailure
from torsor.simulate import IntegratorConfig, PointwiseState, run_scenario
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


def identity_medium(T_mat_fn, J_fn=None, moments=True):
    """The read of a space-filling medium: chart = space-time, U = identity.

    T_mat_fn(t, x) returns T^{bg} at one event as a (4, 4) array; the field
    row form gT^b is its transpose.  J_fn(t, x) returns J^{abg} as
    (4, 4, 4) with the material index last; the field form moves it first.
    J is zero without J_fn, and None (no moments) when moments is False.
    The read takes a batch of events xi (k, 4) one event at a time and
    stacks the values along a leading point axis.
    """
    def read(xi):
        T = np.array([T_mat_fn(p[0], p[1:]).T for p in xi])
        if not moments:
            J = None
        elif J_fn is None:
            J = np.zeros((len(xi), 4, 4, 4))
        else:
            J = np.array([np.moveaxis(J_fn(p[0], p[1:]), -1, 0) for p in xi])
        return np.eye(4), T, J

    return read


# Christoffel structure

def test_christoffels_structure():
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    (G,) = christoffels(*conn.fields_at(0.3, [1.0, 2.0, -1.0]))
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
    (g,), (Omega,) = conn.fields_at(0.0, x)
    assert_allclose(g, 4.0 * np.array([3.0, -1.0, 0.0]), atol=1e-14)
    assert_allclose(Omega, Om, atol=0)


# Recorded forms against the callable path

_num = st.floats(-1e3, 1e3)
_vec = st.tuples(_num, _num, _num)


def _bits(*arrays):
    """The bytes of float arrays, so -0.0 and 0.0 compare unequal."""
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(g=_vec, Omega=_vec, events=st.lists(st.tuples(_num, _vec),
                                           min_size=1, max_size=5))
def test_recorded_forms_read_as_their_callables(g, Omega, events):
    # read of a uniform or rotating-frame connection computes from its six
    # recorded floats, and fields_at calls g and Omega once on the batch;
    # each event's bits must be the same both ways.
    t = np.array([e[0] for e in events])
    x = np.array([e[1] for e in events]).T
    for conn in (GalileanConnection(g=g, Omega=Omega),
                 GalileanConnection.rotating_frame(Omega, g=g)):
        rows = np.concatenate(conn.fields_at(t, x), axis=1)
        for (tp, xp), row in zip(events, rows):
            assert _bits(conn.read(tp, *xp)) == _bits(row)


@pytest.mark.parametrize("form", ["uniform", "rotating_frame"])
@pytest.mark.parametrize("attr", ["g", "Omega"])
def test_assigned_callable_is_honoured(form, attr):
    # A g or Omega assigned after construction replaces the recorded form
    # of the integrator's read, and fields_at calls it too.
    def build():
        if form == "uniform":
            return GalileanConnection(g=(0.1, 0.0, -9.8),
                                      Omega=(0.0, 0.2, 0.5))
        return GalileanConnection.rotating_frame((0.0, 0.2, 0.5),
                                                 g=(0.1, 0.0, -9.8))

    def replacement(t, x):
        return np.array((0.3 * t, -0.2 * x[0], 1.0 + x[2]))

    conn = build()
    setattr(conn, attr, replacement)
    base = build()
    ref = GalileanConnection(g=replacement if attr == "g" else base.g,
                             Omega=replacement if attr == "Omega"
                             else base.Omega)
    init = PointwiseState.from_proper(0.0, 1.3, [0.4, -0.3, 0.2],
                                      [1.0, 0.5, -0.2], [0.1, -0.2, 0.3])
    cfg = IntegratorConfig(dt=1e-2, t_end=0.2)
    got = run_scenario(init, conn, cfg).rows()
    assert got.tobytes() == run_scenario(init, ref, cfg).rows().tobytes()
    assert got.tobytes() != run_scenario(init, build(), cfg).rows().tobytes()
    t = np.array([0.0, 0.5])
    x = np.array([[1.0, -2.0], [0.5, 0.0], [2.0, 3.0]])
    assert _bits(*conn.fields_at(t, x)) == _bits(*ref.fields_at(t, x))
    assert _bits(*conn.fields_at(t, x)) != _bits(*build().fields_at(t, x))


@pytest.mark.parametrize("form", ["callable", "uniform", "rotating_frame"])
def test_fields_at_refuses_x_of_another_batch_size(form):
    # x is read as (3, m) before g or Omega is called, so no connection
    # stops silently at the shorter of t and x.
    conn = {"callable": GalileanConnection(g=lambda t, x: x,
                                           Omega=lambda t, x: x),
            "uniform": GalileanConnection(g=(0.0, 0.0, -1.0)),
            "rotating_frame": GalileanConnection.rotating_frame(
                (0.0, 0.0, 1.0))}[form]
    with pytest.raises(ValueError):
        conn.fields_at(np.zeros(2), np.zeros((3, 5)))


@pytest.mark.parametrize("attr", ["g", "Omega"])
def test_fields_at_names_a_field_of_the_wrong_size(attr):
    # g and Omega take a batch and return (3, m).  A field written for one
    # event returns (3,) whatever the batch: a batch of one still reads
    # it, and a larger batch raises an error naming the field.
    conn = GalileanConnection(**{attr: lambda t, x: np.ones(3)})
    fields = dict(zip(("g", "Omega"), conn.fields_at(0.0, np.zeros(3))))
    assert fields[attr].tolist() == [[1.0, 1.0, 1.0]]
    with pytest.raises(ValueError, match=(
            rf"^GalileanConnection\.{attr} returned values of shape \(3,\) "
            r"for a batch of m = 5 events; expected \(3, m\)$")):
        conn.fields_at(np.zeros(5), np.zeros((3, 5)))


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
    Gnum = christoffels(G_CONST, OMEGA_CONST)

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
    Gnum = christoffels(G_CONST, OMEGA_CONST)

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
    # A read whose J is None differences no moments; the result must be
    # the very bits an explicit all-zero J gives, with a nontrivial Gamma_A.
    rng = np.random.default_rng(25)
    conn = GalileanConnection(g=G_CONST, Omega=OMEGA_CONST)
    A = rng.uniform(-1, 1, size=(4, 4))

    def T_mat(t, x):
        return A * np.cos(t + x @ np.array([0.3, -0.5, 0.7]))

    zero_J = identity_medium(T_mat)
    no_J = identity_medium(T_mat, moments=False)
    for _ in range(5):
        t = rng.uniform(-1, 1)
        x = rng.uniform(-1, 1, size=3)
        xi = np.concatenate(([t], x))[None]
        g, Omega = conn.fields_at(t, x)
        G = christoffels(g, Omega)
        chris = PullbackChristoffels(G, G, spatial_origin_gamma_A(
            Omega[0], x))
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

    medium = identity_medium(T_mat)
    xi = np.array([[0.5, 1.0 - 1e-9, 0.5, 0.5]])
    chris = PullbackChristoffels.identity_embedding(conn, xi[0, 0],
                                                    xi[0, 1:])
    with pytest.raises(DifferentiationFailure):
        divergence(medium, xi, chris, domain=domain)
    (out,), _ = divergence(medium, xi, chris, one_sided=True, domain=domain)
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


@pytest.mark.parametrize("shape", [(), (4,), (1, 1, 4), (0, 4)])
def test_divergence_takes_only_a_batch_of_points(shape):
    # One chart point is a batch of one, (1, d+1); xi of any other rank,
    # or an empty batch, is refused before any field is read.
    seen = []

    def T_mat(t, x):
        seen.append(t)
        return np.zeros((4, 4))

    chris = PullbackChristoffels.identity_embedding(GalileanConnection(),
                                                    0.0, np.zeros(3))
    with pytest.raises(ValueError, match=r"shape \(m, d\+1\)"):
        divergence(identity_medium(T_mat), np.zeros(shape), chris)
    assert seen == []
