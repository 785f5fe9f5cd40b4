"""Affine frame changes on classical space-time and the objects they act on.

Space-time points live in R^4 with coordinate 0 the date and 1..3 the spatial
position.  A change of affine frame is a pair (C, P): a translation column C
and an invertible linear part P, acting on points as V = C + P V'.  Affine
forms (chi, Phi) and torsors (T, J) carry the dual and bilinear laws.  The
whole algebra embeds in a 5x5 matrix representation which the tests use as an
independent oracle.

Values are validated once, where they enter from outside: the public
constructors reject non-finite input, a singular P, a non-orthonormal or
orientation-reversing R and a J that is not skew.  Results of the group
algebra are valid by construction, so compose and inverse of Galilean
elements build through the private GalileanFrameChange._trusted, and
transform_torsor stores its exactly skew J' through Torsor._trusted.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .vecmath import moment_matrix, moments

# Constructor validation tolerances (absolute, on unit-scale entries).
ORTHONORMAL_TOL = 1e-9
SKEW_TOL = 1e-9

_I3 = np.eye(3)
# Entries at and below the diagonal: where np.triu(J, 1) puts its zeros.
_LOWER = np.tri(4, 4, 0, dtype=bool)


def _finite(numbers) -> bool:
    """Whether every number of a flat sequence of floats is finite."""
    return all(map(math.isfinite, numbers))


def _max_abs(a, what: str) -> float:
    """Largest |entry| of a; ValueError naming `what` if any is NaN or inf."""
    m = np.abs(a).max()
    if not m < math.inf:
        raise ValueError(f"{what} is not finite")
    return m


class AffineFrameChange:
    """Change of affine frame (C, P) on R^4.

    C is the 4-column translation (new origin in old coordinates) and P the
    invertible 4x4 linear part (new basis in old coordinates).  Points with
    components V' in the new frame have components V = C + P V' in the old.
    """

    def __init__(self, C, P):
        self.C = np.asarray(C, dtype=float).reshape(4)
        self.P = np.asarray(P, dtype=float).reshape(4, 4)
        if not _finite([*self.C.tolist(), *self.P.ravel().tolist()]):
            raise ValueError("C and P must be finite")
        if not abs(np.linalg.det(self.P)) >= 1e-12:
            raise ValueError("linear part P is singular")

    @classmethod
    def identity(cls) -> "AffineFrameChange":
        return cls(np.zeros(4), np.eye(4))

    @property
    def extended(self) -> np.ndarray:
        """5x5 matrix [[1, 0], [C, P]] of the affine action."""
        M = np.zeros((5, 5))
        M[0, 0] = 1.0
        M[1:, 0] = self.C
        M[1:, 1:] = self.P
        return M

    def P_inverse(self) -> np.ndarray:
        """Inverse of the linear part; exact blockwise form for subclasses."""
        return np.linalg.inv(self.P)

    def inverse(self) -> "AffineFrameChange":
        Pinv = self.P_inverse()
        return AffineFrameChange(-Pinv @ self.C, Pinv)

    def __repr__(self):
        return f"AffineFrameChange(C={self.C.tolist()}, P={self.P.tolist()})"


class GalileanFrameChange(AffineFrameChange):
    """Affine frame change restricted to the Galilei group.

    P = [[1, 0], [u, R]] with R a rotation and u a boost velocity; the
    translation C = (tau0, k) collects a clock change and a spatial shift.
    """

    def __init__(self, u=None, R=None, tau0: float = 0.0, k=None):
        u = np.zeros(3) if u is None else np.asarray(u, dtype=float).reshape(3)
        R = np.eye(3) if R is None else np.asarray(R, dtype=float).reshape(3, 3)
        k = np.zeros(3) if k is None else np.asarray(k, dtype=float).reshape(3)
        tau0 = float(tau0)
        # Checked before the product R^T R, which an inf would make warn.
        rows = R.tolist()
        if not _finite([tau0, *u.tolist(), *k.tolist(), *rows[0], *rows[1],
                        *rows[2]]):
            raise ValueError("u, R, tau0 and k must be finite")
        if not np.abs(R.T @ R - _I3).max() <= ORTHONORMAL_TOL:
            raise ValueError("R is not orthonormal")
        # R is orthonormal here, so det R = r0 . (r1 x r2) is +-1 and its
        # sign is safe to read from the closed form.
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        if a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) \
                + a2 * (b0 * c1 - b1 * c0) < 0.0:
            raise ValueError("R reverses orientation")
        self._assign(u, R, tau0, k)

    @classmethod
    def _trusted(cls, u, R, tau0: float, k) -> "GalileanFrameChange":
        """Element from float arrays u, R, k and a float tau0 that are
        already known valid, such as results of the group algebra."""
        f = cls.__new__(cls)
        f._assign(u, R, tau0, k)
        return f

    def _assign(self, u, R, tau0, k):
        self.u = u
        self.R = R
        self.tau0 = tau0
        self.k = k

    # C and P are built on first use: most elements are only composed or
    # inverted, which reads u, R, tau0 and k.
    @cached_property
    def C(self) -> np.ndarray:
        return np.concatenate(([self.tau0], self.k))

    @cached_property
    def P(self) -> np.ndarray:
        P = np.eye(4)
        P[1:, 0] = self.u
        P[1:, 1:] = self.R
        return P

    @classmethod
    def identity(cls) -> "GalileanFrameChange":
        return cls()

    def P_inverse(self) -> np.ndarray:
        return self._P_inverse

    # Built once, like C and P: each transform of a point or torsor reads it.
    @cached_property
    def _P_inverse(self) -> np.ndarray:
        # Blockwise exact: [[1, 0], [-R^T u, R^T]].  Keeps the time row of
        # transformed objects bit-identical instead of roundoff-close.
        Pinv = np.eye(4)
        Pinv[1:, 0] = -self.R.T @ self.u
        Pinv[1:, 1:] = self.R.T
        return Pinv

    def inverse(self) -> "GalileanFrameChange":
        # P^-1 = [[1, 0], [-R^T u, R^T]]; C' = -P^-1 C.
        Rt = self.R.T
        return GalileanFrameChange._trusted(
            -Rt @ self.u, Rt, -self.tau0, Rt @ (self.u * self.tau0 - self.k))

    @classmethod
    def random(cls, rng) -> "GalileanFrameChange":
        """Random group element with unit-scale boost and translations."""
        from .vecmath import random_rotation

        return cls(
            u=rng.uniform(-1.0, 1.0, size=3),
            R=random_rotation(rng),
            tau0=rng.uniform(-1.0, 1.0),
            k=rng.uniform(-1.0, 1.0, size=3),
        )

    def __repr__(self):
        return (
            f"GalileanFrameChange(u={self.u.tolist()}, R={self.R.tolist()}, "
            f"tau0={self.tau0}, k={self.k.tolist()})"
        )


def compose(f1: AffineFrameChange, f2: AffineFrameChange) -> AffineFrameChange:
    """Composition with extended(compose(f1, f2)) = extended(f1) @ extended(f2).

    Two Galilean elements compose to a Galilean element; mixed input falls
    back to a generic AffineFrameChange.
    """
    if isinstance(f1, GalileanFrameChange) and isinstance(f2, GalileanFrameChange):
        return GalileanFrameChange._trusted(
            f1.u + f1.R @ f2.u,
            f1.R @ f2.R,
            f1.tau0 + f2.tau0,
            f1.k + f1.u * f2.tau0 + f1.R @ f2.k,
        )
    return AffineFrameChange(f1.C + f1.P @ f2.C, f1.P @ f2.P)


@dataclass
class AffineForm:
    """Affine form Psi = (chi, Phi): a constant chi plus a linear form Phi.

    Evaluates on a point V as chi + Phi V.  The extended representation is
    the 5-row (chi, Phi).
    """

    chi: float
    Phi: np.ndarray

    def __post_init__(self):
        self.chi = float(self.chi)
        self.Phi = np.asarray(self.Phi, dtype=float).reshape(4)

    @property
    def extended(self) -> np.ndarray:
        return np.concatenate(([self.chi], self.Phi))

    def __call__(self, V) -> float:
        return self.chi + float(self.Phi @ np.asarray(V, dtype=float).reshape(4))


class Torsor:
    """Skew bilinear object with components (T, J).

    T is a 4-column and J a skew 4x4 matrix.  Storage keeps J skew exactly:
    the strict upper triangle is canonical and the lower triangle is its
    negative.  Input T and J must be finite and J skew within SKEW_TOL of
    its own scale.
    """

    def __init__(self, T, J):
        T = np.asarray(T, dtype=float).reshape(4)
        J = np.asarray(J, dtype=float).reshape(4, 4)
        if not _finite(T.tolist()):
            raise ValueError("T is not finite")
        scale = max(1.0, _max_abs(J, "J"))
        if not np.abs(J + J.T).max() <= SKEW_TOL * scale:
            raise ValueError("J is not skew-symmetric")
        upper = np.where(_LOWER, 0.0, J)  # np.triu(J, 1), without its setup
        self.T = T
        self.J = upper - upper.T

    @classmethod
    def _trusted(cls, T, J) -> "Torsor":
        """Torsor storing a float 4-array T and a float 4x4 J as they are;
        J must already be in the canonical storage, signed zeros included."""
        tau = cls.__new__(cls)
        tau.T = T
        tau.J = J
        return tau

    @property
    def extended(self) -> np.ndarray:
        """5x5 skew matrix [[0, T^T], [-T, J]]."""
        M = np.zeros((5, 5))
        M[0, 1:] = self.T
        M[1:, 0] = -self.T
        M[1:, 1:] = self.J
        return M

    def pairing(self, psi1: AffineForm, psi2: AffineForm) -> float:
        """Bilinear value tau(psi1, psi2) = psi1~ @ extended @ psi2~."""
        return float(psi1.extended @ self.extended @ psi2.extended)

    def __repr__(self):
        return f"Torsor(T={self.T.tolist()}, J={self.J.tolist()})"


class PointwiseTorsor:
    """Torsor of a mass point: mass m, momentum p, mass position q, moment l.

    Packs into (T, J) as T = (m, p) and J = vecmath.moment_matrix(q, l):
    q in the mixed block, J[1:, 0] = q, and l in the spatial block.
    """

    def __init__(self, m: float, p, q, l):
        self.m = float(m)
        self.p = np.asarray(p, dtype=float).reshape(3)
        self.q = np.asarray(q, dtype=float).reshape(3)
        self.l = np.asarray(l, dtype=float).reshape(3)

    @classmethod
    def proper(cls, m: float, l0) -> "PointwiseTorsor":
        """Components in the proper frame: at rest at the origin with spin l0."""
        return cls(m, np.zeros(3), np.zeros(3), l0)

    def to_torsor(self) -> Torsor:
        return Torsor(np.concatenate(([self.m], self.p)),
                      moment_matrix(self.q, self.l))

    @classmethod
    def from_torsor(cls, tau: Torsor) -> "PointwiseTorsor":
        q, l = moments(tau.J)
        return cls(m=tau.T[0], p=tau.T[1:], q=q, l=l)

    def __repr__(self):
        return (
            f"PointwiseTorsor(m={self.m}, p={self.p.tolist()}, "
            f"q={self.q.tolist()}, l={self.l.tolist()})"
        )


def transform_point(f: AffineFrameChange, V) -> np.ndarray:
    """Components in the new frame of the point with old components V.

    V' = P^-1 (V - C), the inverse of the defining action V = C + P V'.
    """
    V = np.asarray(V, dtype=float).reshape(4)
    return f.P_inverse() @ (V - f.C)


def transform_form(f: AffineFrameChange, psi: AffineForm) -> AffineForm:
    """New-frame components (chi + Phi C, Phi P) of an affine form."""
    return AffineForm(chi=psi.chi + float(psi.Phi @ f.C), Phi=psi.Phi @ f.P)


def transform_torsor(f: AffineFrameChange, tau: Torsor) -> Torsor:
    """New-frame components of a torsor.

    T' = P^-1 T and J' = P^-1 (J - C T^T + T C^T) P^-T, the expansion of the
    compact law tau~' = P~^-1 tau~ P~^-T on extended matrices; equivalently
    J' = P^-1 J P^-T + C' T'^T - T' C'^T with C' = -P^-1 C.  The result is
    re-skewed by (J' - J'^T)/2 to clear roundoff, which leaves it exactly
    in the canonical storage of Torsor, so it is stored as it is.  For a
    GalileanFrameChange the time component T'[0] equals T[0] bit for bit
    because the blockwise P^-1 has an exact (1, 0, 0, 0) time row.
    """
    Pinv = f.P_inverse()
    Tp = Pinv @ tau.T
    M = tau.J - np.outer(f.C, tau.T) + np.outer(tau.T, f.C)
    Jp = Pinv @ M @ Pinv.T
    return Torsor._trusted(Tp, 0.5 * (Jp - Jp.T))


def transform_stress_mass(f: GalileanFrameChange, T) -> np.ndarray:
    """Congruence P T P^T of a symmetric 4x4 stress-mass tensor.

    Applies the linear part of f directly, the law by which a proper-frame
    stress-mass block diag(rho, -sigma) acquires its boost terms.  Note the
    direction: this pushes components forward with P, so stripping a boost v
    uses the frame change with u = -v.  Result is re-symmetrized.
    """
    T = np.asarray(T, dtype=float).reshape(4, 4)
    scale = max(1.0, _max_abs(T, "stress-mass tensor"))
    if not np.abs(T - T.T).max() <= SKEW_TOL * scale:
        raise ValueError("stress-mass tensor is not symmetric")
    out = f.P @ T @ f.P.T
    return 0.5 * (out + out.T)
