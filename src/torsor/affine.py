"""Galilean frame changes on classical space-time and the objects they act on.

Space-time points live in R^4 with coordinate 0 the date and 1..3 the spatial
position.  A Galilean frame change is a boost velocity u, a rotation R, a
clock change tau0 and a spatial shift k.  It acts on points as V = C + P V'
with C = (tau0, k) and P = [[1, 0], [u, R]], and on torsors (T, J) by the
bilinear law.  The whole algebra embeds in 5x5 matrices: a frame change is
[[1, 0], [C, P]] and a torsor the skew [[0, T^T], [-T, J]].  The tests use
that representation as an independent oracle.

A GalileanFrameChange stores its 16 numbers (u, R, tau0, k) once, as one
tuple of Python floats, and builds the arrays u, R, k and extended only
when they are read.  Its validation and its laws run as closed forms on
those floats, each entry one explicit sum.  With d = V_0 - tau0, T = (m, p)
and J = vecmath.moment_matrix(q, l), the laws are:

    transform_point        V' = (d, R^T (V_s - k - u d))
    transform_torsor       m' = m (exactly),  p' = R^T (p - m u),
                           q' = R^T (q - m k + tau0 p),
                           l' = R^T (l - k x p) + (R^T u) x q'
    transform_stress_mass  with S = [[rho, a^T], [a, B]] and b = rho u + R a,
                           P S P^T = [[rho, b^T], [b, b u^T + u (R a)^T
                           + R B R^T]], then symmetrized

A Torsor stores its 10 numbers, T and the strict upper triangle of J, as
one tuple, and a PointwiseTorsor its 10 numbers (m, p, q, l); the arrays
T, J, extended, p, q and l are built fresh on each read.  Each mirrored
entry of J is read as 0.0 - its partner and the diagonal as +0.0, so every
J read is exactly skew.  Torsor construction, transform_torsor and the
PointwiseTorsor conversions read and write these tuples and build no array.

Values are validated once, where they enter from outside: the public
constructors reject non-finite input, a non-orthonormal or
orientation-reversing R and a J that is not skew.  Results of the group
algebra are valid by construction, so compose and inverse build through the
private GalileanFrameChange._trusted, and the transforms store their
(T', J') through Torsor._trusted.

The checks run as float arithmetic.  Finiteness is one sum: any inf or NaN
makes a sum non-finite, and a sum of finite floats is finite unless it
overflows, so the entries are scanned one by one only when the sum is not
finite, to tell an overflow from a bad entry or to name the bad part.  A
tolerance check is the chained -tol <= x <= tol, and a scale is
max(1, max(entries), -min(entries)).  They accept exactly what an
entrywise isfinite and |x| <= tol accept: both forms reject NaN and +-inf.
"""

import math

import numpy as np

from .vecmath import _F64, random_rotation, triple

# Constructor validation tolerances (absolute, on unit-scale entries).
ORTHONORMAL_TOL = 1e-9
SKEW_TOL = 1e-9

_IDENTITY3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _finite(numbers) -> bool:
    """Whether every number of a flat sequence of floats is finite.

    Any inf or NaN makes the sum non-finite, so the entries are scanned
    only when it is, to tell a bad entry from a sum that overflowed.
    """
    return math.isfinite(sum(numbers)) or all(map(math.isfinite, numbers))


def _floats(value, n: int) -> list:
    """The n numbers of an array-like, row by row, as Python floats."""
    if type(value) is np.ndarray and value.dtype is _F64 and value.size == n:
        return value.ravel().tolist()
    return np.asarray(value, dtype=float).reshape(n).tolist()


def _scale(entries) -> float:
    """max(1, largest |entry|) of finite entries."""
    return max(1.0, max(entries), -min(entries))


class GalileanFrameChange:
    """Change of frame in the Galilei group.

    R is a rotation and u a boost velocity, tau0 a clock change and k a
    spatial shift.  Points with components V' in the new frame have
    components V = C + P V' in the old, with C = (tau0, k) and
    P = [[1, 0], [u, R]].  The 16 floats (u, R row by row, tau0, k) are
    stored as the tuple _e.
    """

    __slots__ = ("_e",)

    def __init__(self, u=None, R=None, tau0: float = 0.0, k=None):
        u = (0.0, 0.0, 0.0) if u is None else triple(u)
        r = _IDENTITY3 if R is None else _floats(R, 9)
        k = (0.0, 0.0, 0.0) if k is None else triple(k)
        e = (*u, *r, float(tau0), *k)
        if not _finite(e):
            raise ValueError("u, R, tau0 and k must be finite")
        # Entry (i, j) of R^T R is column i of R dotted with column j; the
        # products commute, so entries (i, j) and (j, i) are bitwise equal
        # and six entries decide the check.
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = r
        tol = ORTHONORMAL_TOL
        if not (-tol <= a0 * a0 + b0 * b0 + c0 * c0 - 1.0 <= tol
                and -tol <= a1 * a1 + b1 * b1 + c1 * c1 - 1.0 <= tol
                and -tol <= a2 * a2 + b2 * b2 + c2 * c2 - 1.0 <= tol
                and -tol <= a0 * a1 + b0 * b1 + c0 * c1 <= tol
                and -tol <= a0 * a2 + b0 * b2 + c0 * c2 <= tol
                and -tol <= a1 * a2 + b1 * b2 + c1 * c2 <= tol):
            raise ValueError("R is not orthonormal")
        # R is orthonormal here, so det R = r0 . (r1 x r2) is +-1 and its
        # sign is safe to read from the closed form.
        if a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) \
                + a2 * (b0 * c1 - b1 * c0) < 0.0:
            raise ValueError("R reverses orientation")
        self._e = e

    @classmethod
    def _trusted(cls, e) -> "GalileanFrameChange":
        """Element from 16 floats (u, R, tau0, k) that are already known
        valid, such as results of the group algebra."""
        f = cls.__new__(cls)
        f._e = e
        return f

    @property
    def u(self) -> np.ndarray:
        return np.array(self._e[0:3])

    @property
    def R(self) -> np.ndarray:
        return np.array(self._e[3:12]).reshape(3, 3)

    @property
    def tau0(self) -> float:
        return self._e[12]

    @property
    def k(self) -> np.ndarray:
        return np.array(self._e[13:16])

    @property
    def extended(self) -> np.ndarray:
        """5x5 matrix [[1, 0], [C, P]] of the affine action."""
        u0, u1, u2, r0, r1, r2, r3, r4, r5, r6, r7, r8, tau0, k0, k1, k2 = \
            self._e
        return np.array((1.0, 0.0, 0.0, 0.0, 0.0,
                         tau0, 1.0, 0.0, 0.0, 0.0,
                         k0, u0, r0, r1, r2,
                         k1, u1, r3, r4, r5,
                         k2, u2, r6, r7, r8)).reshape(5, 5)

    def inverse(self) -> "GalileanFrameChange":
        # u' = -R^T u, R' = R^T, tau0' = -tau0, k' = R^T (u tau0 - k).
        u0, u1, u2, r0, r1, r2, r3, r4, r5, r6, r7, r8, tau0, k0, k1, k2 = \
            self._e
        y0, y1, y2 = u0 * tau0 - k0, u1 * tau0 - k1, u2 * tau0 - k2
        return GalileanFrameChange._trusted((
            -(r0 * u0 + r3 * u1 + r6 * u2), -(r1 * u0 + r4 * u1 + r7 * u2),
            -(r2 * u0 + r5 * u1 + r8 * u2),
            r0, r3, r6, r1, r4, r7, r2, r5, r8,
            -tau0,
            r0 * y0 + r3 * y1 + r6 * y2, r1 * y0 + r4 * y1 + r7 * y2,
            r2 * y0 + r5 * y1 + r8 * y2,
        ))

    @classmethod
    def random(cls, rng) -> "GalileanFrameChange":
        """Random group element with unit-scale boost and translations."""
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


def compose(f1: GalileanFrameChange,
            f2: GalileanFrameChange) -> GalileanFrameChange:
    """Composition with extended(compose(f1, f2)) = extended(f1) @ extended(f2).

    Written out, u = u1 + R1 u2, R = R1 R2, tau0 = tau01 + tau02 and
    k = k1 + u1 tau02 + R1 k2.
    """
    # f1 = (u, rows a, b, c of R1, t1, k), f2 = (v, rows d, e, g, t2, h).
    u0, u1, u2, a0, a1, a2, b0, b1, b2, c0, c1, c2, t1, k0, k1, k2 = f1._e
    v0, v1, v2, d0, d1, d2, e0, e1, e2, g0, g1, g2, t2, h0, h1, h2 = f2._e
    return GalileanFrameChange._trusted((
        u0 + (a0 * v0 + a1 * v1 + a2 * v2),
        u1 + (b0 * v0 + b1 * v1 + b2 * v2),
        u2 + (c0 * v0 + c1 * v1 + c2 * v2),
        a0 * d0 + a1 * e0 + a2 * g0, a0 * d1 + a1 * e1 + a2 * g1,
        a0 * d2 + a1 * e2 + a2 * g2,
        b0 * d0 + b1 * e0 + b2 * g0, b0 * d1 + b1 * e1 + b2 * g1,
        b0 * d2 + b1 * e2 + b2 * g2,
        c0 * d0 + c1 * e0 + c2 * g0, c0 * d1 + c1 * e1 + c2 * g1,
        c0 * d2 + c1 * e2 + c2 * g2,
        t1 + t2,
        k0 + u0 * t2 + (a0 * h0 + a1 * h1 + a2 * h2),
        k1 + u1 * t2 + (b0 * h0 + b1 * h1 + b2 * h2),
        k2 + u2 * t2 + (c0 * h0 + c1 * h1 + c2 * h2),
    ))


def _j_entries(j01, j02, j03, j12, j13, j23) -> tuple:
    """The 16 entries, row by row, of the skew J with the given strict upper
    triangle: each mirrored entry is 0.0 - its partner, the diagonal +0.0."""
    return (0.0, j01, j02, j03,
            0.0 - j01, 0.0, j12, j13,
            0.0 - j02, 0.0 - j12, 0.0, j23,
            0.0 - j03, 0.0 - j13, 0.0 - j23, 0.0)


class Torsor:
    """Skew bilinear object with components (T, J).

    T is a 4-column and J a skew 4x4 matrix.  The 10 floats, T then J's
    strict upper triangle (j01, j02, j03, j12, j13, j23), are stored as the
    tuple _e; T, J and extended are fresh arrays built on each read, J
    exactly skew.  Input T and J must be finite and J skew within SKEW_TOL
    of its own scale; the constructor keeps J's strict upper triangle.
    """

    # No per-instance dict: a frame-change pass holds thousands of these.
    __slots__ = ("_e",)

    def __init__(self, T, J):
        t = _floats(T, 4)
        j = _floats(J, 16)
        if not _finite(t + j):
            raise ValueError("J is not finite" if _finite(t)
                             else "T is not finite")
        tol = SKEW_TOL * _scale(j)
        (j00, j01, j02, j03, j10, j11, j12, j13,
         j20, j21, j22, j23, j30, j31, j32, j33) = j
        if not (-tol <= j00 + j00 <= tol and -tol <= j11 + j11 <= tol
                and -tol <= j22 + j22 <= tol and -tol <= j33 + j33 <= tol
                and -tol <= j01 + j10 <= tol and -tol <= j02 + j20 <= tol
                and -tol <= j03 + j30 <= tol and -tol <= j12 + j21 <= tol
                and -tol <= j13 + j31 <= tol and -tol <= j23 + j32 <= tol):
            raise ValueError("J is not skew-symmetric")
        self._e = (*t, j01, j02, j03, j12, j13, j23)

    @classmethod
    def _trusted(cls, e) -> "Torsor":
        """Torsor storing 10 floats (T, J's strict upper triangle) as they
        are."""
        tau = cls.__new__(cls)
        tau._e = e
        return tau

    @property
    def T(self) -> np.ndarray:
        return np.array(self._e[0:4])

    @property
    def J(self) -> np.ndarray:
        return np.array(_j_entries(*self._e[4:10])).reshape(4, 4)

    @property
    def extended(self) -> np.ndarray:
        """5x5 skew matrix [[0, T^T], [-T, J]]."""
        t0, t1, t2, t3 = self._e[0:4]
        j = _j_entries(*self._e[4:10])
        return np.array((0.0, t0, t1, t2, t3, -t0, *j[0:4], -t1, *j[4:8],
                         -t2, *j[8:12], -t3, *j[12:16])).reshape(5, 5)

    def __repr__(self):
        return f"Torsor(T={self.T.tolist()}, J={self.J.tolist()})"


class PointwiseTorsor:
    """Torsor of a mass point: mass m, momentum p, mass position q, moment l.

    Packs into (T, J) as T = (m, p) and J = vecmath.moment_matrix(q, l):
    q in the mixed block, J[1:, 0] = q, and l in the spatial block.  The
    10 floats (m, p, q, l) are stored as the tuple _e; m is a float and p,
    q and l are fresh arrays built on each read, never views of the
    caller's arrays.
    """

    __slots__ = ("_e",)

    def __init__(self, m: float, p, q, l):
        self._e = (float(m), *triple(p), *triple(q), *triple(l))

    @classmethod
    def proper(cls, m: float, l0) -> "PointwiseTorsor":
        """Components in the proper frame: at rest at the origin with spin l0."""
        pw = cls.__new__(cls)
        pw._e = (float(m), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, *triple(l0))
        return pw

    @property
    def m(self) -> float:
        return self._e[0]

    @property
    def p(self) -> np.ndarray:
        return np.array(self._e[1:4])

    @property
    def q(self) -> np.ndarray:
        return np.array(self._e[4:7])

    @property
    def l(self) -> np.ndarray:
        return np.array(self._e[7:10])

    def to_torsor(self) -> Torsor:
        e = self._e
        if not _finite(e):
            raise ValueError("m, p, q and l must be finite")
        m, p0, p1, p2, q0, q1, q2, l0, l1, l2 = e
        # The strict upper triangle of moment_matrix(q, l).
        return Torsor._trusted((m, p0, p1, p2, -q0, -q1, -q2, l2, -l1, l0))

    @classmethod
    def from_torsor(cls, tau: Torsor) -> "PointwiseTorsor":
        # q = J[1:, 0] and l = (J[2, 3], J[3, 1], J[1, 2]), as in moments.
        m, p0, p1, p2, j01, j02, j03, j12, j13, j23 = tau._e
        pw = cls.__new__(cls)
        pw._e = (m, p0, p1, p2, 0.0 - j01, 0.0 - j02, 0.0 - j03, j23,
                 0.0 - j13, j12)
        return pw

    def __repr__(self):
        return (
            f"PointwiseTorsor(m={self.m}, p={self.p.tolist()}, "
            f"q={self.q.tolist()}, l={self.l.tolist()})"
        )


def transform_point(f: GalileanFrameChange, V) -> np.ndarray:
    """Components in the new frame of the point with old components V.

    V' = P^-1 (V - C), the inverse of the defining action V = C + P V';
    written out, V' = (d, R^T (V_s - k - u d)) with d = V_0 - tau0.
    """
    u0, u1, u2, r0, r1, r2, r3, r4, r5, r6, r7, r8, tau0, k0, k1, k2 = f._e
    v0, v1, v2, v3 = _floats(V, 4)
    d = v0 - tau0
    y0, y1, y2 = v1 - k0 - u0 * d, v2 - k1 - u1 * d, v3 - k2 - u2 * d
    return np.array((d, r0 * y0 + r3 * y1 + r6 * y2,
                     r1 * y0 + r4 * y1 + r7 * y2,
                     r2 * y0 + r5 * y1 + r8 * y2))


def transform_torsor(f: GalileanFrameChange, tau: Torsor) -> Torsor:
    """New-frame components of a torsor.

    The law is tau~' = P~^-1 tau~ P~^-T on the extended matrices, that is
    T' = P^-1 T and J' = P^-1 (J - C T^T + T C^T) P^-T.  It runs as the
    component laws of the module docstring and stores J's strict upper
    triangle; T'[0] = m is T[0] bit for bit.
    """
    u0, u1, u2, r0, r1, r2, r3, r4, r5, r6, r7, r8, tau0, k0, k1, k2 = f._e
    m, p0, p1, p2, j01, j02, j03, j12, j13, j23 = tau._e
    x0, x1, x2 = p0 - m * u0, p1 - m * u1, p2 - m * u2
    # q = J[1:, 0] and l = (J[2, 3], J[3, 1], J[1, 2]) as from_torsor reads
    # them; y = q - m k + tau0 p and q' = R^T y.
    y0 = (0.0 - j01) - m * k0 + tau0 * p0
    y1 = (0.0 - j02) - m * k1 + tau0 * p1
    y2 = (0.0 - j03) - m * k2 + tau0 * p2
    q0 = r0 * y0 + r3 * y1 + r6 * y2
    q1 = r1 * y0 + r4 * y1 + r7 * y2
    q2 = r2 * y0 + r5 * y1 + r8 * y2
    # z = l - k x p, w = R^T u and l' = R^T z + w x q'.
    z0 = j23 - (k1 * p2 - k2 * p1)
    z1 = (0.0 - j13) - (k2 * p0 - k0 * p2)
    z2 = j12 - (k0 * p1 - k1 * p0)
    w0 = r0 * u0 + r3 * u1 + r6 * u2
    w1 = r1 * u0 + r4 * u1 + r7 * u2
    w2 = r2 * u0 + r5 * u1 + r8 * u2
    return Torsor._trusted((
        m, r0 * x0 + r3 * x1 + r6 * x2, r1 * x0 + r4 * x1 + r7 * x2,
        r2 * x0 + r5 * x1 + r8 * x2,
        -q0, -q1, -q2,
        r2 * z0 + r5 * z1 + r8 * z2 + (w0 * q1 - w1 * q0),
        -(r1 * z0 + r4 * z1 + r7 * z2 + (w2 * q0 - w0 * q2)),
        r0 * z0 + r3 * z1 + r6 * z2 + (w1 * q2 - w2 * q1)))


def transform_stress_mass(f: GalileanFrameChange, T) -> np.ndarray:
    """Congruence P T P^T of a symmetric 4x4 stress-mass tensor.

    Applies the linear part of f directly, the law by which a proper-frame
    stress-mass block diag(rho, -sigma) acquires its boost terms.  Note the
    direction: this pushes components forward with P, so stripping a boost v
    uses the frame change with u = -v.  The blocks follow the component law
    of the module docstring, with a the mean of T's mixed row and column,
    and the result is symmetric.
    """
    s = _floats(T, 16)
    if not _finite(s):
        raise ValueError("stress-mass tensor is not finite")
    tol = SKEW_TOL * _scale(s)
    (rho, s01, s02, s03, s10, s11, s12, s13,
     s20, s21, s22, s23, s30, s31, s32, s33) = s
    if not (-tol <= s01 - s10 <= tol and -tol <= s02 - s20 <= tol
            and -tol <= s03 - s30 <= tol and -tol <= s12 - s21 <= tol
            and -tol <= s13 - s31 <= tol and -tol <= s23 - s32 <= tol):
        raise ValueError("stress-mass tensor is not symmetric")
    u0, u1, u2, r0, r1, r2, r3, r4, r5, r6, r7, r8 = f._e[0:12]
    h0, h1, h2 = 0.5 * (s01 + s10), 0.5 * (s02 + s20), 0.5 * (s03 + s30)
    a0 = r0 * h0 + r1 * h1 + r2 * h2
    a1 = r3 * h0 + r4 * h1 + r5 * h2
    a2 = r6 * h0 + r7 * h1 + r8 * h2
    b0, b1, b2 = rho * u0 + a0, rho * u1 + a1, rho * u2 + a2
    # Rows c, d, g of R B, with B = T[1:, 1:]; n_ij = (R B R^T)_ij.
    c0 = r0 * s11 + r1 * s21 + r2 * s31
    c1 = r0 * s12 + r1 * s22 + r2 * s32
    c2 = r0 * s13 + r1 * s23 + r2 * s33
    d0 = r3 * s11 + r4 * s21 + r5 * s31
    d1 = r3 * s12 + r4 * s22 + r5 * s32
    d2 = r3 * s13 + r4 * s23 + r5 * s33
    g0 = r6 * s11 + r7 * s21 + r8 * s31
    g1 = r6 * s12 + r7 * s22 + r8 * s32
    g2 = r6 * s13 + r7 * s23 + r8 * s33
    # Entries of M = b u^T + u (R a)^T + R B R^T, symmetrized.
    m00 = b0 * u0 + u0 * a0 + (r0 * c0 + r1 * c1 + r2 * c2)
    m11 = b1 * u1 + u1 * a1 + (r3 * d0 + r4 * d1 + r5 * d2)
    m22 = b2 * u2 + u2 * a2 + (r6 * g0 + r7 * g1 + r8 * g2)
    m01 = 0.5 * ((b0 * u1 + u0 * a1 + (r3 * c0 + r4 * c1 + r5 * c2))
                 + (b1 * u0 + u1 * a0 + (r0 * d0 + r1 * d1 + r2 * d2)))
    m02 = 0.5 * ((b0 * u2 + u0 * a2 + (r6 * c0 + r7 * c1 + r8 * c2))
                 + (b2 * u0 + u2 * a0 + (r0 * g0 + r1 * g1 + r2 * g2)))
    m12 = 0.5 * ((b1 * u2 + u1 * a2 + (r6 * d0 + r7 * d1 + r8 * d2))
                 + (b2 * u1 + u2 * a1 + (r3 * g0 + r4 * g1 + r5 * g2)))
    return np.array((rho, b0, b1, b2,
                     b0, m00, m01, m02,
                     b1, m01, m11, m12,
                     b2, m02, m12, m22)).reshape(4, 4)
