"""Frame-change algebra checked against the 5x5 extended-matrix oracle.

The oracle route never calls the component-law implementations: it builds
the 5x5 extended matrices, does plain matrix algebra there, and compares.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torsor.affine import (
    ORTHONORMAL_TOL,
    SKEW_TOL,
    GalileanFrameChange,
    PointwiseTorsor,
    Torsor,
    compose,
    transform_point,
    transform_stress_mass,
    transform_torsor,
)
from torsor.vecmath import rotation, skew

TOL = 1e-12


def random_frame_change(rng) -> GalileanFrameChange:
    return GalileanFrameChange.random(rng)


def random_torsor(rng) -> Torsor:
    A = rng.uniform(-1.0, 1.0, size=(4, 4))
    return Torsor(rng.uniform(-1.0, 1.0, size=4), A - A.T)


def random_form(rng) -> np.ndarray:
    """An affine form chi + Phi V as its 5-row psi~ = (chi, Phi)."""
    return rng.uniform(-1.0, 1.0, size=5)


# Oracle operations on extended representations only.

def oracle_point(f, V):
    Vt = np.concatenate(([1.0], V))
    out = np.linalg.solve(f.extended, Vt)
    return out[1:]


def oracle_torsor(f, tau):
    Pinv = np.linalg.inv(f.extended)
    return Pinv @ tau.extended @ Pinv.T


# vecmath sanity

def test_skew_matches_cross():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)


def test_rotation_is_orthonormal():
    R = rotation([1.0, 2.0, -0.5], 0.7)
    assert_allclose(R.T @ R, np.eye(3), atol=1e-14)
    assert np.linalg.det(R) > 0.0


# Group structure

def test_compose_matches_extended_product():
    rng = np.random.default_rng(1)
    for _ in range(300):
        f1, f2 = random_frame_change(rng), random_frame_change(rng)
        g = compose(f1, f2)
        assert isinstance(g, GalileanFrameChange)
        assert_allclose(g.extended, f1.extended @ f2.extended, atol=TOL)


def test_compose_associative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        f1, f2, f3 = (random_frame_change(rng) for _ in range(3))
        left = compose(compose(f1, f2), f3)
        right = compose(f1, compose(f2, f3))
        assert_allclose(left.extended, right.extended, atol=TOL)


def test_inverse_gives_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = random_frame_change(rng)
        assert_allclose(compose(f, f.inverse()).extended, np.eye(5), atol=TOL)
        assert_allclose(compose(f.inverse(), f).extended, np.eye(5), atol=TOL)


def test_rotation_validation():
    with pytest.raises(ValueError):
        GalileanFrameChange(R=np.eye(3) * 1.01)
    with pytest.raises(ValueError):
        GalileanFrameChange(R=np.diag([1.0, 1.0, -1.0]))


def _rotation_with(bad):
    # A rotation about e3 with a bad R[2, 2]: the zeros of its third row
    # and column turn an inf into NaN entries of R^T R as well.
    R = rotation([0.0, 0.0, 1.0], 0.7)
    R[2, 2] = bad
    return R


@pytest.mark.parametrize("kwargs", [
    {"R": _rotation_with(np.nan)},
    {"R": _rotation_with(np.inf)},
    {"u": [0.1, np.nan, 0.0]},
    {"tau0": np.nan},
    {"k": [0.0, 0.0, np.nan]},
    {"u": [0.1, np.inf, 0.0]},
    {"tau0": -np.inf},
    {"k": [np.inf, 0.0, 0.0]},
], ids=["R_nan", "R_inf", "u_nan", "tau0_nan", "k_nan", "u_inf", "tau0_inf",
        "k_inf"])
@pytest.mark.filterwarnings("error")
def test_galilean_rejects_non_finite(kwargs):
    with pytest.raises(ValueError):
        GalileanFrameChange(**kwargs)


# Validation at the edge of its tolerances.  Each case also asserts the
# matrix form of the check, as the constructors applied it before they ran
# on floats, so the float checks accept and reject exactly where it does.
# Each entry is bent both ways, so a check that dropped either side of
# -tol <= x <= tol fails a case.

EDGE_FACTORS = [(0.5, True), (2.0, False), (-0.5, True), (-2.0, False)]


# Every entry each check reads is bent, today's cases first so that their
# ids stay: the six Gram entries of R^T R, the six pairs and four diagonal
# entries of J + J^T, and the six pairs of S - S^T.
GRAM_ENTRIES = {"stretch": (1, 1), "shear": (0, 2), "stretch00": (0, 0),
                "stretch22": (2, 2), "shear01": (0, 1), "shear12": (1, 2)}
SKEW_ENTRIES = [(1, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3),
                (0, 0), (1, 1), (2, 2)]
SYMMETRY_ENTRIES = [(0, 2), (1, 3), (0, 1), (0, 3), (1, 2), (2, 3)]


@pytest.mark.parametrize("factor, accepted", EDGE_FACTORS)
@pytest.mark.parametrize("bend", list(GRAM_ENTRIES))
def test_orthonormal_check_at_tolerance_edge(factor, accepted, bend):
    # R (I + eps N) moves one entry of R^T R (two, mirrored, off the
    # diagonal) off the identity by eps, up to O(eps^2).
    i, j = GRAM_ENTRIES[bend]
    N = np.zeros((3, 3))
    N[i, j] = 0.5 if i == j else 1.0
    R = rotation([1.0, 2.0, -0.5], 0.7) @ (
        np.eye(3) + factor * ORTHONORMAL_TOL * N)
    assert bool(np.abs(R.T @ R - np.eye(3)).max() <= ORTHONORMAL_TOL) \
        is accepted
    if accepted:
        GalileanFrameChange(R=R)
    else:
        with pytest.raises(ValueError, match="orthonormal"):
            GalileanFrameChange(R=R)


@pytest.mark.parametrize("factor, accepted", EDGE_FACTORS)
@pytest.mark.parametrize("size", [0.25, 40.0])
@pytest.mark.parametrize("where", SKEW_ENTRIES)
def test_skew_check_at_tolerance_edge(factor, accepted, size, where):
    # max |J| = size; the scale of the check is max(1, size).  Where the
    # bend would grow the largest entry it goes to the mirror entry, which
    # it shrinks by as much, so J + J^T moves the same and the scale stays.
    A = np.zeros((4, 4))
    A[np.triu_indices(4, 1)] = [1.0, -0.5, 0.3, 0.6, -0.2, 0.4]
    J = size * (A - A.T)
    scale = max(1.0, size)
    bend = factor * SKEW_TOL * scale
    if abs(J[where] + bend) > size:
        where = where[::-1]
    # A bent diagonal entry counts twice in J + J^T.
    J[where] += bend if where[0] != where[1] else 0.5 * bend
    assert np.abs(J).max() == size
    assert bool(np.abs(J + J.T).max() <= SKEW_TOL * scale) is accepted
    if accepted:
        Torsor(np.zeros(4), J)
    else:
        with pytest.raises(ValueError, match="skew"):
            Torsor(np.zeros(4), J)


@pytest.mark.parametrize("factor, accepted", EDGE_FACTORS)
@pytest.mark.parametrize("size", [0.25, 40.0])
@pytest.mark.parametrize("where", SYMMETRY_ENTRIES)
def test_symmetry_check_at_tolerance_edge(factor, accepted, size, where):
    # max |S| = size; the scale of the check is max(1, size).  Where the
    # bend would grow the largest entry, the mirror entry shrinks instead,
    # so S - S^T moves the same and the scale stays put.
    A = np.zeros((4, 4))
    A[np.triu_indices(4, 1)] = [1.0, -0.5, 0.3, 0.6, -0.2, 0.4]
    S = size * (A + A.T + np.diag([0.5, -0.8, 0.7, 0.1]))
    scale = max(1.0, size)
    bend = factor * SKEW_TOL * scale
    if abs(S[where] + bend) > size:
        S[where[::-1]] -= bend
    else:
        S[where] += bend
    assert np.abs(S).max() == size
    assert bool(np.abs(S - S.T).max() <= SKEW_TOL * scale) is accepted
    if accepted:
        transform_stress_mass(GalileanFrameChange(), S)
    else:
        with pytest.raises(ValueError, match="symmetric"):
            transform_stress_mass(GalileanFrameChange(), S)


@pytest.mark.parametrize("build, message", [
    (lambda: GalileanFrameChange(R=np.diag([1.0, -1.0, 1.0])), "orientation"),
    (lambda: GalileanFrameChange(u=[np.inf, 0.0, 0.0]), "finite"),
    (lambda: GalileanFrameChange(R=_rotation_with(np.inf)), "finite"),
    (lambda: GalileanFrameChange(tau0=np.inf), "finite"),
    (lambda: GalileanFrameChange(k=[0.0, -np.inf, 0.0]), "finite"),
    (lambda: Torsor([0.0, 0.0, np.inf, 0.0], np.zeros((4, 4))),
     "T is not finite"),
    (lambda: Torsor(np.zeros(4), np.diag([0.0, np.inf, 0.0, 0.0])),
     "J is not finite"),
    (lambda: PointwiseTorsor(1.0, [np.nan, 0.0, 0.0], [0.1, 0.2, 0.3],
                             [0.0, 1.0, 0.0]).to_torsor(), "finite"),
], ids=["reflection", "u_inf", "R_inf", "tau0_inf", "k_inf", "T_inf", "J_inf",
        "pointwise_nan"])
def test_constructors_reject_reflection_and_non_finite(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("part", ["T", "J"])
def test_torsor_rejects_nan(part):
    T, J = np.zeros(4), np.zeros((4, 4))
    if part == "T":
        T[2] = np.nan
    else:
        J[1, 2] = np.nan
    with pytest.raises(ValueError):
        Torsor(T, J)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stress_mass_rejects_non_finite(bad):
    T = np.eye(4)
    T[1, 2] = T[2, 1] = bad
    with pytest.raises(ValueError):
        transform_stress_mass(GalileanFrameChange(), T)


def test_torsor_names_T_first_when_both_parts_are_not_finite():
    with pytest.raises(ValueError, match="T is not finite"):
        Torsor([np.nan, 0.0, 0.0, 0.0], np.diag([0.0, np.inf, 0.0, 0.0]))


# Finite entries whose plain sum overflows to inf: the one-sum finiteness
# test must fall back to the entries and accept them.
BIG = 1e308
_J_BIG = np.zeros((4, 4))
_J_BIG[0, 1:3], _J_BIG[1:3, 0] = BIG, -BIG
_S_BIG = np.diag([0.0, BIG, BIG, 0.0])


@pytest.mark.parametrize("build, read, expected", [
    (lambda: GalileanFrameChange(u=[BIG, BIG, 0.0]), lambda f: f.u,
     [BIG, BIG, 0.0]),
    (lambda: Torsor([BIG, BIG, 0.0, 0.0], np.zeros((4, 4))),
     lambda tau: tau.T, [BIG, BIG, 0.0, 0.0]),
    (lambda: Torsor(np.zeros(4), _J_BIG), lambda tau: tau.J, _J_BIG),
    (lambda: transform_stress_mass(GalileanFrameChange(), _S_BIG),
     lambda S: S, _S_BIG),
    (lambda: PointwiseTorsor(1.0, [BIG, BIG, 0.0], np.zeros(3),
                             np.zeros(3)).to_torsor(),
     lambda tau: tau.T, [1.0, BIG, BIG, 0.0]),
], ids=["galilean_u", "torsor_T", "torsor_J", "stress_mass", "pointwise"])
def test_finite_entries_whose_sum_overflows_are_accepted(build, read,
                                                         expected):
    np.testing.assert_array_equal(read(build()), expected)


unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit)
elements = st.builds(
    lambda u, axis, angle, tau0, k: GalileanFrameChange(
        # The axis is shifted off zero, which rotation() rejects.
        u=u, R=rotation(np.add(axis, (0.0, 0.0, 2.0)), angle), tau0=tau0,
        k=k),
    vec3, vec3, st.floats(-3.2, 3.2), unit, vec3)


def _assert_same_bits(a, b, names):
    for name in names:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                   y.tobytes()), name


def _assert_rebuilt_bits(f):
    # Rebuilt from plain lists, so the checked element shares nothing with f.
    assert type(f.tau0) is float
    g = GalileanFrameChange(u=f.u.tolist(), R=f.R.tolist(), tau0=f.tau0,
                            k=f.k.tolist())
    _assert_same_bits(f, g, ("u", "R", "tau0", "k", "extended"))


@given(f1=elements, f2=elements, T=st.tuples(unit, unit, unit, unit),
       J=st.tuples(*[unit] * 6))
@settings(max_examples=100, deadline=None)
def test_trusted_results_match_public_constructors(f1, f2, T, J):
    # compose, inverse and transform_torsor skip the constructor checks;
    # their results must be bit for bit what the checked path builds.
    _assert_rebuilt_bits(compose(f1, f2))
    _assert_rebuilt_bits(f1.inverse())
    A = np.zeros((4, 4))
    A[np.triu_indices(4, 1)] = J
    out = transform_torsor(f1, Torsor(T, A - A.T))
    _assert_same_bits(out, Torsor(out.T.tolist(), out.J.tolist()), ("T", "J"))
    # The public constructor still checks what the trusted path skips.
    with pytest.raises(ValueError, match="orthonormal"):
        GalileanFrameChange(R=f1.R * (1.0 + 1e-6))
    with pytest.raises(ValueError, match="orientation"):
        GalileanFrameChange(R=-f1.R)


# The matrix laws of a general affine frame change (C, P), acting on points
# as V = C + P V'.  The Galilean component laws are their closed forms.

def affine_parts(f):
    """(C, P) of a frame change, read from its extended [[1, 0], [C, P]]."""
    E = f.extended
    return E[1:, 0], E[1:, 1:]


def affine_matrix(C, P):
    """The extended matrix [[1, 0], [C, P]]."""
    E = np.eye(5)
    E[1:, 0], E[1:, 1:] = C, P
    return E


def law_compose(C1, P1, C2, P2):
    return C1 + P1 @ C2, P1 @ P2


def law_inverse(C, P):
    Pinv = np.linalg.inv(P)
    return -Pinv @ C, Pinv


def law_point(C, P, V):
    return np.linalg.inv(P) @ (np.asarray(V, dtype=float) - C)


def law_torsor(C, P, T, J):
    """T' = P^-1 T and J' = P^-1 (J - C T^T + T C^T) P^-T, re-skewed."""
    Pinv = np.linalg.inv(P)
    Jp = Pinv @ (J - np.outer(C, T) + np.outer(T, C)) @ Pinv.T
    return Pinv @ T, 0.5 * (Jp - Jp.T)


def law_stress_mass(C, P, S):
    """P S P^T, re-symmetrized; the translation C does not enter."""
    out = P @ S @ P.T
    return 0.5 * (out + out.T)


# Normwise distance allowed between a Galilean component law and the matrix
# law of the same element, relative to the matrix result's norm floored at
# 1, as the benchmark's oracle scales it.
LAW_TOL = 1e-14


def _assert_law(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert (np.linalg.norm(got - want)
            <= LAW_TOL * max(1.0, np.linalg.norm(want)))


@given(f1=elements, f2=elements, V=st.tuples(*[unit] * 4),
       T=st.tuples(*[unit] * 4), J=st.tuples(*[unit] * 6),
       S=st.tuples(*[unit] * 10))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_galilean_component_laws_match_matrix_laws(f1, f2, V, T, J, S):
    g1, g2 = affine_parts(f1), affine_parts(f2)
    _assert_law(compose(f1, f2).extended,
                affine_matrix(*law_compose(*g1, *g2)))
    _assert_law(f1.inverse().extended, affine_matrix(*law_inverse(*g1)))
    _assert_law(transform_point(f1, V), law_point(*g1, V))
    A = np.zeros((4, 4))
    A[np.triu_indices(4, 1)] = J
    tau = Torsor(T, A - A.T)
    out = transform_torsor(f1, tau)
    law_T, law_J = law_torsor(*g1, tau.T, tau.J)
    _assert_law(out.T, law_T)
    _assert_law(out.J, law_J)
    B = np.zeros((4, 4))
    B[np.triu_indices(4)] = S
    sym = B + np.triu(B, 1).T
    _assert_law(transform_stress_mass(f1, sym), law_stress_mass(*g1, sym))


@given(
    angle=st.floats(-3.0, 3.0),
    ux=st.floats(-2.0, 2.0),
    tau0=st.floats(-1.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_inverse_involutive(angle, ux, tau0):
    f = GalileanFrameChange(
        u=[ux, 0.3, -0.1],
        R=rotation([0.0, 0.0, 1.0], angle),
        tau0=tau0,
        k=[0.5, -0.2, 1.0],
    )
    g = f.inverse().inverse()
    assert_allclose(g.extended, f.extended, atol=TOL)


# Transformation laws against the oracle

def test_transform_point_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = random_frame_change(rng)
        V = rng.uniform(-1.0, 1.0, size=4)
        assert_allclose(transform_point(f, V), oracle_point(f, V), atol=TOL)


def test_transform_torsor_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f, tau = random_frame_change(rng), random_torsor(rng)
        out = transform_torsor(f, tau)
        assert_allclose(out.extended, oracle_torsor(f, tau), atol=TOL)


# An affine form psi~ = (chi, Phi) takes the value psi~ @ (1, V) on a point
# V, and its new-frame components are psi~ @ extended(f).  A torsor is the
# skew bilinear map tau(psi1, psi2) = psi1~ @ extended(tau) @ psi2~ on forms.

def test_form_value_on_point_invariant():
    rng = np.random.default_rng(8)
    for _ in range(100):
        f, psi = random_frame_change(rng), random_form(rng)
        V = rng.uniform(-1.0, 1.0, size=4)
        before = psi @ np.concatenate(([1.0], V))
        after = (psi @ f.extended) @ np.concatenate(
            ([1.0], transform_point(f, V)))
        assert_allclose(after, before, atol=TOL)


def test_pairing_invariant():
    rng = np.random.default_rng(9)
    for _ in range(100):
        f, tau = random_frame_change(rng), random_torsor(rng)
        psi1, psi2 = random_form(rng), random_form(rng)
        before = psi1 @ tau.extended @ psi2
        after = ((psi1 @ f.extended) @ transform_torsor(f, tau).extended
                 @ (psi2 @ f.extended))
        assert_allclose(after, before, atol=TOL)


def test_mass_component_exactly_invariant():
    rng = np.random.default_rng(10)
    for _ in range(200):
        f, tau = random_frame_change(rng), random_torsor(rng)
        out = transform_torsor(f, tau)
        assert out.T[0] == tau.T[0]


def test_transform_functorial():
    # Transforming by f1 then f2 equals transforming by compose(f1, f2).
    rng = np.random.default_rng(11)
    for _ in range(50):
        f1, f2 = random_frame_change(rng), random_frame_change(rng)
        tau = random_torsor(rng)
        two_step = transform_torsor(f2, transform_torsor(f1, tau))
        one_step = transform_torsor(compose(f1, f2), tau)
        assert_allclose(two_step.extended, one_step.extended, atol=1e-11)


# Torsor storage and the mass-point packing

def test_torsor_rejects_non_skew():
    with pytest.raises(ValueError):
        Torsor(np.zeros(4), np.eye(4))


def test_torsor_storage_exactly_skew():
    rng = np.random.default_rng(12)
    A = rng.uniform(-1.0, 1.0, size=(4, 4))
    tau = Torsor(np.zeros(4), A - A.T)
    assert np.all(tau.J == -tau.J.T)
    # T and J's strict upper triangle: the torsor's ten numbers.
    assert len(tau._e) == 10


def test_pointwise_packing_law():
    # A mass point at rest with spin l0, pushed to the frame where it sits
    # at x with velocity v, must show p = m v, q = m x, l = l0 + x cross m v.
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = rng.uniform(0.1, 2.0)
        l0, v, x = (rng.uniform(-1.0, 1.0, size=3) for _ in range(3))
        prop = PointwiseTorsor.proper(m, l0)
        f = GalileanFrameChange(u=v, k=x)
        lab = PointwiseTorsor.from_torsor(
            transform_torsor(f.inverse(), prop.to_torsor())
        )
        assert_allclose(lab.m, m, atol=TOL)
        assert_allclose(lab.p, m * v, atol=TOL)
        assert_allclose(lab.q, m * x, atol=TOL)
        assert_allclose(lab.l, l0 + np.cross(x, m * v), atol=TOL)


def test_pointwise_roundtrip():
    pt = PointwiseTorsor(2.0, [1.0, 0.0, -1.0], [0.5, 0.5, 0.0], [0.0, 1.0, 2.0])
    back = PointwiseTorsor.from_torsor(pt.to_torsor())
    for a, b in ((pt.m, back.m), (pt.p, back.p), (pt.q, back.q), (pt.l, back.l)):
        assert_allclose(a, b, atol=0)


# Stress-mass congruence

def test_stress_mass_boost_structure():
    rng = np.random.default_rng(14)
    for _ in range(100):
        rho = rng.uniform(0.1, 2.0)
        v = rng.uniform(-1.0, 1.0, size=3)
        S = rng.uniform(-1.0, 1.0, size=(3, 3))
        sigma = S + S.T
        proper = np.zeros((4, 4))
        proper[0, 0] = rho
        proper[1:, 1:] = -sigma
        lab = transform_stress_mass(GalileanFrameChange(u=v), proper)
        expect = np.zeros((4, 4))
        expect[0, 0] = rho
        expect[0, 1:] = rho * v
        expect[1:, 0] = rho * v
        expect[1:, 1:] = rho * np.outer(v, v) - sigma
        assert_allclose(lab, expect, atol=TOL)
        # Stripping the boost recovers the proper components.
        back = transform_stress_mass(GalileanFrameChange(u=-v), lab)
        assert_allclose(back, proper, atol=TOL)


def test_stress_mass_rejects_asymmetric():
    T = np.zeros((4, 4))
    T[0, 1] = 1.0
    with pytest.raises(ValueError):
        transform_stress_mass(GalileanFrameChange(), T)


def test_pointwise_torsor_owns_its_arrays():
    p, q, l = (np.array([1.0, 2.0, 3.0]) for _ in range(3))
    pt = PointwiseTorsor(1.0, p, q, l)
    p[0] = q[0] = l[0] = 99.0
    for v in (pt.p, pt.q, pt.l):
        assert v.tolist() == [1.0, 2.0, 3.0]
    tau = pt.to_torsor()
    T, J = tau.T.copy(), tau.J.copy()
    back = PointwiseTorsor.from_torsor(tau)
    back.p[0] = back.q[0] = back.l[0] = 99.0
    assert np.array_equal(tau.T, T) and np.array_equal(tau.J, J)
    assert type(back.m) is float


def test_component_reads_are_fresh_float_arrays():
    rng = np.random.default_rng(23)
    tau = random_torsor(rng)
    pw = PointwiseTorsor(1.5, *rng.uniform(-1.0, 1.0, (3, 3)))
    before = (tau.extended.tobytes(), repr(tau), repr(pw))
    for obj, name, shape in ((tau, "T", (4,)), (tau, "J", (4, 4)),
                             (tau, "extended", (5, 5)), (pw, "p", (3,)),
                             (pw, "q", (3,)), (pw, "l", (3,))):
        a, b = getattr(obj, name), getattr(obj, name)
        assert a is not b and not np.shares_memory(a, b)
        assert (type(a), a.dtype, a.shape) == (np.ndarray, np.dtype(float),
                                               shape)
        a[...] = np.nan
    assert (tau.extended.tobytes(), repr(tau), repr(pw)) == before
    assert type(pw.m) is float


class _CountingNumpy:
    """Stands in for numpy in a module and counts the calls of its
    functions that return an ndarray; classes and constants pass through."""

    def __init__(self):
        self.arrays = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.arrays += isinstance(out, np.ndarray)
            return out
        return counted


def test_torsor_algebra_builds_no_array_until_read(monkeypatch):
    # Inputs are float arrays made before numpy is swapped, as a caller
    # holds them; reading them costs no numpy call.  vecmath reads the
    # triples of a PointwiseTorsor, so its numpy is counted too.
    import torsor.affine
    import torsor.vecmath

    rng = np.random.default_rng(24)
    f = GalileanFrameChange.random(rng)
    A = rng.uniform(-1.0, 1.0, (4, 4))
    T, J, p, q, l = rng.uniform(-1.0, 1.0, 4), A - A.T, *rng.uniform(
        -1.0, 1.0, (3, 3))
    counting = _CountingNumpy()
    monkeypatch.setattr(torsor.affine, "np", counting)
    monkeypatch.setattr(torsor.vecmath, "np", counting)
    out = transform_torsor(f, Torsor(T, J))
    back = PointwiseTorsor.from_torsor(
        transform_torsor(f, PointwiseTorsor(1.5, p, q, l).to_torsor()))
    proper = PointwiseTorsor.proper(2.0, l).to_torsor()
    assert counting.arrays == 0
    assert type(back.m) is float and back.m == 1.5
    assert [a.shape for a in (out.J, back.q, proper.T)] == [(4, 4), (3,),
                                                            (4,)]
    assert counting.arrays == 3


# The float kernels, pinned bit for bit.  Rotations come from quaternions by
# + - * / and sqrt only, so the inputs are the same floats on every platform.

def _quaternion_rotation(w, x, y, z):
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array((
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z),
        2.0 * (x * z + w * y), 2.0 * (x * y + w * z),
        1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x),
        1.0 - 2.0 * (x * x + y * y))).reshape(3, 3)


# sha256 of every output byte of the 200 items below, recorded before the
# component laws were written out entry by entry (which changed no bit).  Any
# reordered sum or product changes it.
FRAME_ITEMS_SHA256 = (
    "f2fb28c4d9ec8ddca0398cff9c8223ba372557c6902d220d661ef0358064c837")


def test_frame_items_are_bit_for_bit_pinned():
    # The calls of one benchmark frame_algebra item: 3 constructions,
    # 2 composes, inverse, transform_point, Torsor + transform_torsor,
    # transform_stress_mass and the pointwise round trip.
    rng = np.random.default_rng(21)
    digest = hashlib.sha256()
    for _ in range(200):
        frames = [GalileanFrameChange(
            rng.uniform(-1.0, 1.0, 3),
            _quaternion_rotation(*rng.uniform(-1.0, 1.0, 4).tolist()),
            float(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, 3))
            for _ in range(3)]
        V, T = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)
        A, B = rng.uniform(-1.0, 1.0, (2, 4, 4))
        m = float(rng.uniform(0.5, 2.0))
        p, q, l = rng.uniform(-1.0, 1.0, (3, 3))
        c12 = compose(frames[0], frames[1])
        c = compose(c12, frames[2])
        tau = Torsor(T, A - A.T)
        pw = PointwiseTorsor(m, p, q, l)
        back = PointwiseTorsor.from_torsor(pw.to_torsor())
        out = transform_torsor(c, tau)
        for a in (*(f.extended for f in frames), c12.extended, c.extended,
                  c.inverse().extended, transform_point(c, V), tau.T, tau.J,
                  out.T, out.J, transform_stress_mass(c, B + B.T),
                  pw.to_torsor().T, pw.to_torsor().J, back.m, back.p,
                  back.q, back.l):
            digest.update(np.asarray(a, dtype=float).tobytes())
    assert digest.hexdigest() == FRAME_ITEMS_SHA256


# Signed zeros, pinned bit for bit.  Every T and strict upper triangle of J
# drawn from +-0.0, and every (p, q, l) likewise, go through each read, the
# pointwise round trip, and transform_torsor by the identity and by one fixed
# element followed by from_torsor.  A mirrored entry of J read as -j where
# it should be 0.0 - j turns a +0.0 into -0.0 and moves the digest.
SIGNED_ZERO_SHA256 = (
    "c9b580d84412924a42a157d92901fd31702fa78edf58e7d637cb1c379c791986")


def _signs(n, bits):
    return [-0.0 if bits >> i & 1 else 0.0 for i in range(n)]


def test_signed_zeros_are_bit_for_bit_pinned():
    frames = (GalileanFrameChange(), GalileanFrameChange(
        (0.5, -0.25, 0.125), _quaternion_rotation(0.5, -0.25, 0.75, 0.125),
        0.375, (-0.5, 0.25, 1.0)))
    torsors = []
    for bits in range(1 << 10):
        z = _signs(10, bits)
        J = np.zeros((4, 4))
        J[np.triu_indices(4, 1)] = z[4:]
        torsors.append(Torsor(z[:4], J))
    pointwise = [PointwiseTorsor(m, *np.reshape(_signs(9, bits), (3, 3)))
                 for m in (1.5, -0.0) for bits in range(1 << 9)]
    torsors += [pw.to_torsor() for pw in pointwise]
    pointwise += [PointwiseTorsor.from_torsor(tau) for tau in torsors]
    digest = hashlib.sha256()
    for tau in torsors:
        outs = [transform_torsor(f, tau) for f in frames]
        pointwise += [PointwiseTorsor.from_torsor(out) for out in outs]
        for a in (tau, *outs):
            for part in (a.T, a.J, a.extended):
                digest.update(part.tobytes())
            digest.update(repr(a).encode())
    for pw in pointwise:
        digest.update(np.array((pw.m, *pw.p, *pw.q, *pw.l)).tobytes())
        digest.update(repr(pw).encode())
    assert digest.hexdigest() == SIGNED_ZERO_SHA256


# The chained checks against the float form they replaced: each constructor
# accepts exactly when max |entry| <= tolerance does on that form.

def _gram_within(R, tol):
    r = R.tolist()
    return max(abs(r[0][i] * r[0][j] + r[1][i] * r[1][j] + r[2][i] * r[2][j]
                   - (1.0 if i == j else 0.0))
               for i in range(3) for j in range(3)) <= tol


def _mirror_within(M, sign):
    m = M.tolist()
    scale = max(1.0, max(abs(x) for row in m for x in row))
    return max(abs(m[i][j] + sign * m[j][i])
               for i in range(4) for j in range(4)) <= SKEW_TOL * scale


def _accepts(build):
    try:
        build()
    except ValueError:
        return False
    return True


@given(axis=vec3, angle=st.floats(-3.2, 3.2),
       size=st.sampled_from([0.25, 40.0]), eps=st.floats(0.5, 2.0),
       N=st.tuples(*[unit] * 16), A=st.tuples(*[unit] * 16))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_checks_accept_exactly_where_the_float_form_does(axis, angle, size,
                                                          eps, N, A):
    N, A = np.reshape(N, (4, 4)), size * np.reshape(A, (4, 4))
    R = rotation(np.add(axis, (0.0, 0.0, 2.0)), angle) \
        + eps * ORTHONORMAL_TOL * N[1:, 1:]
    assert _accepts(lambda: GalileanFrameChange(R=R)) \
        is _gram_within(R, ORTHONORMAL_TOL)
    bend = eps * SKEW_TOL * max(1.0, size) * N
    J = A - A.T + bend
    assert _accepts(lambda: Torsor(np.zeros(4), J)) is _mirror_within(J, 1.0)
    S = A + A.T + bend
    assert _accepts(lambda: transform_stress_mass(GalileanFrameChange(), S)) \
        is _mirror_within(S, -1.0)
