"""Small vector/matrix helpers used throughout the package."""

import math

import numpy as np


def as_field(value, shape=None):
    """A callable as it is, or a constant (reshaped to `shape` when given)
    as a callable that returns it for any arguments."""
    if callable(value):
        return value
    const = np.asarray(value, dtype=float)
    const = const if shape is None else const.reshape(shape)
    return lambda *args: const


def skew(v) -> np.ndarray:
    """Skew matrix j(v) with j(v) @ b == np.cross(v, b)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross3(a, b) -> tuple:
    """Cross product of two float triples, as a tuple of three floats.

    The products and differences are those np.cross evaluates, in the same
    order, so the result is bit-identical to it.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, bit-identical to np.cross.

    Spares np.cross's broadcasting machinery, which costs about 20x the
    arithmetic on 3-vectors.  Inputs must hold exactly three numbers each;
    the result is a float (3,) array.
    """
    return np.array(cross3(triple(a), triple(b)))


_F64 = np.dtype(float)


def triple(value) -> list:
    """A 3-vector as a list of three Python floats.

    A float (3,) array, the common case, is read with one tolist, which
    skips asarray's and reshape's per-call cost and gives the same floats.
    """
    if (type(value) is np.ndarray and value.dtype is _F64
            and value.shape == (3,)):
        return value.tolist()
    return np.asarray(value, dtype=float).reshape(3).tolist()


def moment_matrix(q, l) -> np.ndarray:
    """Skew (4, 4) J with J[1:, 0] = q and (J[2, 3], J[3, 1], J[1, 2]) = l,
    or one J per pair of a batch: q and l (..., 3) give J (..., 4, 4)."""
    q, l = np.asarray(q, dtype=float), np.asarray(l, dtype=float)
    J = np.zeros(q.shape[:-1] + (4, 4))
    J[..., 1:, 0], J[..., 0, 1:] = q, -q
    l1, l2, l3 = l[..., 0], l[..., 1], l[..., 2]
    J[..., 2, 3], J[..., 3, 1], J[..., 1, 2] = l1, l2, l3
    J[..., 3, 2], J[..., 1, 3], J[..., 2, 1] = -l1, -l2, -l3
    return J


def moments(J):
    """Inverse of moment_matrix: copies of (q, l) read from a skew J, or
    from each J of a batch (..., 4, 4)."""
    ang = np.array([J[..., 2, 3], J[..., 3, 1], J[..., 1, 2]])
    return np.array(J[..., 1:, 0]), ang.T


def strict_max(values) -> float:
    """Largest of `values` as Python's max() picks it, but NaN if any is NaN.

    max() drops a NaN that is not in first place (max(0.0, nan) == 0.0), so
    a check reduced with it would pass on a NaN residual.
    """
    values = list(map(float, values))
    if any(map(math.isnan, values)):
        return math.nan
    return max(values)


def rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about `axis` (normalized here) by `angle`."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    K = skew(axis / n)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation from a random axis and angle."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-8:
        axis = rng.normal(size=3)
    return rotation(axis, rng.uniform(0.0, 2.0 * np.pi))
