"""Frame-change algebra checked against the 5x5 extended-matrix oracle.

The oracle route never calls the component-law implementations: it builds
the 5x5 extended matrices, does plain matrix algebra there, and compares.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torsor.affine import (
    AffineForm,
    AffineFrameChange,
    GalileanFrameChange,
    PointwiseTorsor,
    Torsor,
    compose,
    transform_form,
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


def random_form(rng) -> AffineForm:
    return AffineForm(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, size=4))


# Oracle operations on extended representations only.

def oracle_point(f, V):
    Vt = np.concatenate(([1.0], V))
    out = np.linalg.solve(f.extended, Vt)
    return out[1:]


def oracle_form(f, psi):
    out = psi.extended @ f.extended
    return out[0], out[1:]


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


def test_generic_affine_compose_and_inverse():
    rng = np.random.default_rng(4)
    for _ in range(50):
        P = rng.uniform(-1.0, 1.0, size=(4, 4)) + 2.0 * np.eye(4)
        f = AffineFrameChange(rng.uniform(-1.0, 1.0, size=4), P)
        g = compose(f, f.inverse())
        assert_allclose(g.extended, np.eye(5), atol=1e-10)


def test_rotation_validation():
    with pytest.raises(ValueError):
        GalileanFrameChange(R=np.eye(3) * 1.01)
    with pytest.raises(ValueError):
        GalileanFrameChange(R=np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        AffineFrameChange(np.zeros(4), np.zeros((4, 4)))


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
], ids=["R_nan", "R_inf", "u_nan", "tau0_nan", "k_nan"])
@pytest.mark.filterwarnings("error")
def test_galilean_rejects_non_finite(kwargs):
    with pytest.raises(ValueError):
        GalileanFrameChange(**kwargs)


def test_affine_rejects_non_finite_P():
    P = np.eye(4)
    P[2, 1] = np.nan
    with pytest.raises(ValueError):
        AffineFrameChange(np.zeros(4), P)


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
    _assert_same_bits(f, g, ("u", "R", "tau0", "k", "C", "P", "extended"))


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


def test_transform_form_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        f, psi = random_frame_change(rng), random_form(rng)
        out = transform_form(f, psi)
        chi, Phi = oracle_form(f, psi)
        assert_allclose(out.chi, chi, atol=TOL)
        assert_allclose(out.Phi, Phi, atol=TOL)


def test_transform_torsor_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f, tau = random_frame_change(rng), random_torsor(rng)
        out = transform_torsor(f, tau)
        assert_allclose(out.extended, oracle_torsor(f, tau), atol=TOL)


def test_form_value_on_point_invariant():
    rng = np.random.default_rng(8)
    for _ in range(100):
        f, psi = random_frame_change(rng), random_form(rng)
        V = rng.uniform(-1.0, 1.0, size=4)
        before = psi(V)
        after = transform_form(f, psi)(transform_point(f, V))
        assert_allclose(after, before, atol=TOL)


def test_pairing_invariant():
    rng = np.random.default_rng(9)
    for _ in range(100):
        f, tau = random_frame_change(rng), random_torsor(rng)
        psi1, psi2 = random_form(rng), random_form(rng)
        before = tau.pairing(psi1, psi2)
        after = transform_torsor(f, tau).pairing(
            transform_form(f, psi1), transform_form(f, psi2)
        )
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


# Serialization

def test_serialization_roundtrips():
    rng = np.random.default_rng(15)
    f = random_frame_change(rng)
    g = GalileanFrameChange.from_dict(f.to_dict())
    assert_allclose(g.extended, f.extended, atol=0)

    a = AffineFrameChange(rng.uniform(-1, 1, 4), np.eye(4) + 0.1)
    b = AffineFrameChange.from_dict(a.to_dict())
    assert_allclose(b.extended, a.extended, atol=0)

    tau = random_torsor(rng)
    tau2 = Torsor.from_dict(tau.to_dict())
    assert_allclose(tau2.extended, tau.extended, atol=0)

    psi = random_form(rng)
    psi2 = AffineForm.from_dict(psi.to_dict())
    assert_allclose(psi2.extended, psi.extended, atol=0)

    pt = PointwiseTorsor(1.0, [1, 2, 3], [4, 5, 6], [7, 8, 9])
    pt2 = PointwiseTorsor.from_dict(pt.to_dict())
    assert pt2.to_dict() == pt.to_dict()
