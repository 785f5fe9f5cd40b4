"""Galilean connections, origin motion, and covariant divergence of torsors.

A Galilean connection is determined by two spatial fields on space-time:
the gravity g(t, x) and the spin Omega(t, x).  Its only nonzero Christoffel
symbols are Gamma^i_00 = -g^i and Gamma^i_0j = Gamma^i_j0 = skew(Omega)^i_j.

Covariant divergence of a torsor field living on a d-dimensional medium
needs three coefficient blocks: the material-chart Christoffels, the
space-time Christoffels, and the origin-motion matrix Gamma_A built from the
C field that fixes where the affine origin sits.
"""

from dataclasses import dataclass

import numpy as np

from . import fd
from .vecmath import as_field, cross, cross3, skew, triple

# The identity, read-only since every caller shares it: Gamma_A of the
# proper origin, and U of a medium filling space.
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


class GalileanConnection:
    """Connection fields g(t, x) and Omega(t, x); constants accepted."""

    def __init__(self, g=(0.0, 0.0, 0.0), Omega=(0.0, 0.0, 0.0)):
        self.g = as_field(g, 3)
        self.Omega = as_field(Omega, 3)

    @classmethod
    def uniform(cls, g=(0.0, 0.0, 0.0), Omega=(0.0, 0.0, 0.0)):
        return cls(g=g, Omega=Omega)

    @classmethod
    def rotating_frame(cls, Omega, g=(0.0, 0.0, 0.0)):
        """Chart spinning rigidly at constant Omega inside an inertial world.

        Carries the centrifugal gravity -Omega x (Omega x x) on top of the
        constant base gravity g, in addition to the spin; Coriolis terms
        enter through Omega itself.  g is evaluated on float triples with
        vecmath.cross3, bit-identical to the numpy form g - Om x (Om x x),
        and returned as a float (3,) array.
        """
        Om = np.array(Omega, dtype=float).reshape(3)
        om = Om.tolist()
        g1, g2, g3 = triple(g)

        def g_total(t, x):
            c1, c2, c3 = cross3(om, cross3(om, triple(x)))
            return np.array((g1 - c1, g2 - c2, g3 - c3))

        return cls(g=g_total, Omega=Om)

    def christoffels_at(self, t: float, x) -> np.ndarray:
        """(4, 4, 4) array G[a, m, b] = Gamma^a_mb at the event (t, x)."""
        x = np.asarray(x, dtype=float).reshape(3)
        return christoffels(self.g(t, x), self.Omega(t, x))


def christoffels(g, Omega) -> np.ndarray:
    """(4, 4, 4) Christoffels G[a, m, b] of gravity g and spin Omega."""
    G = np.zeros((4, 4, 4))
    G[1:, 0, 0] = -np.asarray(g)
    W = skew(Omega)
    G[1:, 0, 1:] = W
    G[1:, 1:, 0] = W
    return G


class OriginMotion:
    """Motion of the affine origin as a C field (t, x) -> 4-column.

    C identically zero keeps the origin glued to the point itself (proper
    choice); C = (0, x) puts it at the spatial origin of the chart.
    """

    def __init__(self, C_field, label: str = "custom"):
        self.C = C_field
        self.label = label

    @classmethod
    def proper(cls) -> "OriginMotion":
        return cls(lambda t, x: np.zeros(4), label="proper")

    @classmethod
    def spatial_origin(cls) -> "OriginMotion":
        return cls(lambda t, x: np.append(0.0, np.reshape(x, 3)),
                   label="spatial_origin")


def gamma_A_matrix(conn: GalileanConnection, origin: OriginMotion,
                   t: float, x, h: float = None) -> np.ndarray:
    """(4, 4) matrix Gamma_A with Gamma_A(dX) = dX - (dC + Gamma(dX) C).

    Column m holds Gamma_A(e_m).  The proper origin gives the identity
    matrix and the spatial-origin choice first column (1, -Omega x x) and
    zero spatial columns, both exactly; any other C field is differenced.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    if origin.label == "proper":
        return _EYE4
    if origin.label == "spatial_origin":
        return spatial_origin_gamma_A(conn.Omega(t, x), x)

    DC = np.stack([fd.partial(lambda tt, *xs: origin.C(tt, np.array(xs)),
                              (t, *x), i, h=h) for i in range(4)], axis=1)
    GC = np.einsum("amb,b->am", conn.christoffels_at(t, x), origin.C(t, x))
    return np.eye(4) - DC - GC


def spatial_origin_gamma_A(Omega, x) -> np.ndarray:
    """Gamma_A of the spatial origin, C = (0, x), under spin Omega at x:
    first column (1, -Omega x x) and zero spatial columns."""
    GA = np.zeros((4, 4))
    GA[:, 0] = (1.0, *(-cross(Omega, x)))
    return GA


@dataclass
class PullbackChristoffels:
    """Connection coefficients needed by the divergence at one chart point.

    material: (d+1, d+1, d+1) Christoffels of the material chart.
    spacetime: (4, 4, 4) Christoffels of the ambient connection.
    origin_motion: (4, 4) matrix Gamma_A.
    """

    material: np.ndarray
    spacetime: np.ndarray
    origin_motion: np.ndarray

    def __post_init__(self):
        self.material = np.asarray(self.material, dtype=float)
        self.spacetime = np.asarray(self.spacetime, dtype=float)
        self.origin_motion = np.asarray(self.origin_motion, dtype=float)

    @classmethod
    def identity_embedding(cls, conn: GalileanConnection, t: float, x,
                           origin: OriginMotion = None) -> "PullbackChristoffels":
        """Medium filling space: material chart is the space-time chart.

        Default origin is the proper one (Gamma_A = identity).
        """
        G = conn.christoffels_at(t, x)
        GA = _EYE4 if origin is None else gamma_A_matrix(conn, origin, t, x)
        return cls(material=G, spacetime=G, origin_motion=GA)

    @classmethod
    def spatial_origin(cls, conn: GalileanConnection, t: float, x,
                       n: int) -> "PullbackChristoffels":
        """Flat n-coordinate material chart at the event (t, x) with the
        origin at the spatial origin; g and Omega are each read once."""
        g, Omega = conn.g(t, x), conn.Omega(t, x)
        return cls(np.zeros((n, n, n)), christoffels(g, Omega),
                   spatial_origin_gamma_A(Omega, x))


def _sum_row_derivatives(field_fn, xi, h, one_sided, domain):
    """Sum over g of d/dxi^g applied to row g of field_fn(xi)."""
    total = None
    for g in range(len(xi)):
        def slice_fn(u, g=g):
            probe = np.array(xi, dtype=float)
            probe[g] = u
            return np.asarray(field_fn(probe), dtype=float)[g]

        lo = hi = None
        if domain is not None and domain[g] is not None:
            lo, hi = domain[g]
        der = fd.diff(slice_fn, xi[g], h=h, lo=lo, hi=hi, one_sided=one_sided)
        total = der if total is None else total + der
    return total


def divergence(field, xi, chris: PullbackChristoffels, h: float = None,
               one_sided: bool = False):
    """Covariant divergence (div T, div J) of a torsor field at xi.

    div T, a 4-column: d(gT^b)/dxi^g + Gamma^g_gr (rT^b)
    + (gT^r) U^s_g Gamma^b_sr, where the material index g is summed against
    the derivative, the material-chart Christoffels enter through their
    trace, and the last term pulls the space-time Christoffels back through
    the tangent map U.

    div J, a skew (4, 4) matrix: d(gJ^ab)/dxi^g + Gamma^g_gr (rJ^ab) plus
    the pulled-back terms U^s_g (Gamma^a_sr gJ^rb + Gamma^b_sr gJ^ar), plus
    the origin-motion coupling U^s_g Gamma_A[a, s] (gT^b) - (ab swapped),
    which is what makes the moment balance see the linear part.  The skew
    symmetry of J makes each pulled-back pair one matrix and its negative
    transpose.  A field whose torsor_J is None carries no moments and is
    not differenced for them.  The output is re-skewed.
    """
    xi = np.asarray(xi, dtype=float)
    domain = getattr(field, "domain", None)
    T = np.asarray(field.torsor_T(xi), dtype=float)
    U = np.asarray(field.tangent_map(xi), dtype=float)
    G = chris.spacetime.reshape(4, 16)
    trG = np.trace(chris.material, axis1=0, axis2=1)
    UT = U @ T
    dT = (_sum_row_derivatives(field.torsor_T, xi, h, one_sided, domain)
          + trG @ T + G @ UT.reshape(16))
    D = chris.origin_motion @ UT
    out = D - D.T
    if field.torsor_J is not None:
        J = np.asarray(field.torsor_J(xi), dtype=float).reshape(len(xi), 16)
        A = G @ (U @ J).reshape(16, 4)
        out = (_sum_row_derivatives(field.torsor_J, xi, h, one_sided, domain)
               + A - A.T + (trG @ J).reshape(4, 4) + out)
    return dT, 0.5 * (out - out.T)
