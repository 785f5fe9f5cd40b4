"""Vector helpers: the written-out cross product, the moment packing, the
NaN-keeping max and the Rodrigues rotation, each against an independent
reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from torsor.affine import Torsor
from torsor.vecmath import (
    cross,
    moment_matrix,
    moments,
    rotation,
    skew,
    strict_max,
    triple,
)

# Magnitudes from 1e-30 to 1e30 with either sign, signed zeros, and the
# whole finite double range (subnormals and overflowing products included).
_decades = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(1.0, 10.0),
    st.integers(-30, 30),
)
_component = st.one_of(
    _decades,
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_vector = st.lists(_component, min_size=3, max_size=3)


def _assert_same_bits(actual, expected):
    assert actual.dtype == np.float64 and actual.shape == (3,)
    assert_array_equal(actual, expected)
    assert_array_equal(np.signbit(actual), np.signbit(expected))


@settings(max_examples=400, deadline=None)
@given(a=_vector, b=_vector)
def test_cross_is_bit_identical_to_np_cross(a, b):
    with np.errstate(all="ignore"):  # overflowing products are in range
        expected = np.cross(np.array(a), np.array(b))
    _assert_same_bits(cross(np.array(a), np.array(b)), expected)
    _assert_same_bits(cross(a, b), expected)
    _assert_same_bits(cross(np.array(a), b), expected)


@settings(max_examples=200, deadline=None)
@given(q=_vector, l=_vector)
def test_moment_matrix_round_trip_and_torsor_storage(q, l):
    J = moment_matrix(q, l)
    assert_array_equal(J, -J.T)
    assert_array_equal(J[1:, 1:], -skew(l))
    q_back, l_back = moments(J)
    _assert_same_bits(q_back, np.array(q))
    _assert_same_bits(l_back, np.array(l))
    # Torsor storage keeps the strict upper triangle, which is bit for bit
    # that of the packing J[0, 1:] = -q, J[1:, 1:] = -skew(l).
    written = np.zeros((4, 4))
    written[1:, 0] = q
    written[0, 1:] = -np.array(q)
    written[1:, 1:] = -skew(l)
    T = np.zeros(4)
    assert Torsor(T, J).J.tobytes() == Torsor(T, written).J.tobytes()


def test_cross_accepts_integer_lists():
    assert_array_equal(cross([1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0])


def test_cross_rejects_non_3_vectors():
    with pytest.raises(ValueError):
        cross(np.eye(3), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cross([1.0, 2.0], [1.0, 2.0, 3.0])


def test_triple_reads_every_three_vector_alike():
    # A float (3,) array takes a shortcut; it must read the same floats as
    # the general path does for views, other shapes, dtypes and sequences.
    base = np.array([[0.1, -2.5, 3.0], [7.0, 8.0, 9.0]])
    want = [0.1, -2.5, 3.0]
    for value in (base[0], base.T[:, 0], base[0].reshape(1, 3),
                  base[0].reshape(3, 1), want, tuple(want)):
        got = triple(value)
        assert got == want and all(type(v) is float for v in got)
    got = triple(np.array([1, -2, 3]))
    assert got == [1.0, -2.0, 3.0] and all(type(v) is float for v in got)


def test_strict_max_keeps_nan_anywhere():
    assert max(0.0, math.nan) == 0.0  # the hole strict_max closes
    assert math.isnan(strict_max([0.0, math.nan]))
    assert math.isnan(strict_max([math.nan, 0.0]))
    assert math.isnan(strict_max(iter([1.0, 2.0, np.float64(np.nan)])))


def test_strict_max_matches_max_without_nan():
    values = [0.5, np.float64(2.0), 2.0, 1e-300, math.inf]
    assert strict_max(values) == max(float(v) for v in values)
    assert strict_max([0.25, 3]) == 3.0
    with pytest.raises(ValueError):
        strict_max([])


def test_rotation_normalises_by_the_same_norm():
    """rotation(Om) and Rodrigues on Om / |Om| share every bit."""
    Om = np.array([0.3, -1.7, 2.2])
    unit = Om / float(np.linalg.norm(Om))
    K = skew(unit)
    for angle in (0.0, -0.4, 2.9):
        expected = (np.eye(3) + np.sin(angle) * K
                    + (1.0 - np.cos(angle)) * (K @ K))
        assert_array_equal(rotation(Om, angle), expected)
