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
from .vecmath import as_field, cross, cross3, triple

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

    def christoffels_at(self, t, x) -> np.ndarray:
        """(4, 4, 4) array G[a, m, b] = Gamma^a_mb at the event (t, x).

        For a batch of m events, t of shape (m,) and x of shape (3, m), an
        (m, 4, 4, 4) array: g and Omega take one event each, so they are
        read point by point, and the Christoffels are assembled in one step.
        """
        if np.ndim(t):
            g, Omega = zip(*[(self.g(tp, xp), self.Omega(tp, xp))
                             for tp, xp in zip(t, np.asarray(x).T)])
            return christoffels(np.array(g, dtype=float),
                                np.array(Omega, dtype=float))
        x = np.asarray(x, dtype=float).reshape(3)
        return christoffels(self.g(t, x), self.Omega(t, x))


def christoffels(g, Omega) -> np.ndarray:
    """(4, 4, 4) Christoffels G[a, m, b] of gravity g and spin Omega.

    g and Omega may carry a leading point axis, (m, 3) each; G then has
    shape (m, 4, 4, 4).
    """
    g = np.asarray(g, dtype=float)
    w1, w2, w3 = np.asarray(Omega, dtype=float).T
    G = np.zeros(g.shape[:-1] + (4, 4, 4))
    G[..., 1:, 0, 0] = -g
    W = G[..., 1:, 0, 1:]  # skew(Omega), entry by entry
    W[..., 2, 1], W[..., 0, 2], W[..., 1, 0] = w1, w2, w3
    W[..., 1, 2], W[..., 2, 0], W[..., 0, 1] = -w1, -w2, -w3
    G[..., 1:, 1:, 0] = W
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
    For a batch of points each may carry a leading point axis, or none
    when it is the same at every point.
    """

    material: np.ndarray
    spacetime: np.ndarray
    origin_motion: np.ndarray

    def __post_init__(self):
        self.material = np.asarray(self.material, dtype=float)
        self.spacetime = np.asarray(self.spacetime, dtype=float)
        self.origin_motion = np.asarray(self.origin_motion, dtype=float)

    @classmethod
    def identity_embedding(cls, conn: GalileanConnection, t, x,
                           origin: OriginMotion = None) -> "PullbackChristoffels":
        """Medium filling space: material chart is the space-time chart.

        Default origin is the proper one (Gamma_A = identity).  A batch of
        events, t of shape (m,) and x of shape (3, m), reads the connection
        point by point (GalileanConnection.christoffels_at) and takes the
        proper origin.
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
    """Sum over g of d/dxi^g applied to row g of field_fn(xi).

    xi is one point or a batch with a leading point axis; a batch is
    differenced in one stencil per coordinate.
    """
    total = None
    for g in range(xi.shape[-1]):
        # Coordinate g of every point, and row g of every field array.
        at = (slice(None), g) if xi.ndim == 2 else g

        def slice_fn(u, at=at):
            probe = xi.copy()
            probe[at] = u
            return np.asarray(field_fn(probe), dtype=float)[at]

        lo = hi = None
        if domain is not None and domain[g] is not None:
            lo, hi = domain[g]
        der = fd.diff(slice_fn, xi[at], h=h, lo=lo, hi=hi,
                      one_sided=one_sided)
        total = der if total is None else total + der
    return total


def _check_stencils(xi, h, one_sided, domain):
    """Raise, for a batch xi, the DifferentiationFailure that differencing
    its points one at a time would raise first: that of the first point
    with a coordinate no stencil fits, in its first such coordinate."""
    first = None
    for g, bounds in enumerate(domain):
        if bounds is None:
            continue
        u = xi[:, g]
        _, failure = fd.stencil_sides(u, fd.default_step(u) if h is None
                                      else h, *bounds, one_sided)
        if failure is not None and (first is None or failure[0] < first[0]):
            first = failure
    if first is not None:
        raise first[1]


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

    xi is one chart point (d+1,) or a batch (m, d+1) along a leading point
    axis.  For a batch, the field's callables take the whole (m, d+1)
    batch and return their arrays with the point axis first (or without
    it, when the same at every point, as U may be), chris may carry the
    axis too, and both outputs carry it: (m, 4) and (m, 4, 4).  Each
    coordinate is differenced over the whole batch in one stencil, and the
    algebra runs per point in the products a single point takes, so every
    point's rows are bit for bit those it would get alone.  On a bounded
    domain a batch raises the DifferentiationFailure of its first point
    that no stencil fits, as a loop over its points would.  Memory grows
    with the batch, so callers cut large grids into blocks: the scenario
    cases pass library.PROBE_CHUNK points per call.
    """
    xi = np.asarray(xi, dtype=float)
    domain = getattr(field, "domain", None)
    if domain is not None and xi.ndim == 2:
        _check_stencils(xi, h, one_sided, domain)
    lead = xi.shape[:-1]  # () for one point, (m,) for a batch
    # Contiguous, since numpy's products take another summation order on
    # strided operands.
    T = np.ascontiguousarray(field.torsor_T(xi), dtype=float)
    U = np.ascontiguousarray(field.tangent_map(xi), dtype=float)
    G = chris.spacetime.reshape(chris.spacetime.shape[:-3] + (4, 16))
    trG = np.trace(chris.material, axis1=-3, axis2=-2)[..., None, :]
    UT = U @ T
    dT = (_sum_row_derivatives(field.torsor_T, xi, h, one_sided, domain)
          + (trG @ T)[..., 0, :]
          + (G @ UT.reshape(lead + (16, 1)))[..., 0])
    D = chris.origin_motion @ UT
    out = D - D.swapaxes(-1, -2)
    if field.torsor_J is not None:
        J = np.ascontiguousarray(field.torsor_J(xi), dtype=float)
        J = J.reshape(lead + (-1, 16))
        A = G @ (U @ J).reshape(lead + (16, 4))
        out = (_sum_row_derivatives(field.torsor_J, xi, h, one_sided, domain)
               + A - A.swapaxes(-1, -2)
               + (trG @ J).reshape(lead + (4, 4)) + out)
    return dT, 0.5 * (out - out.swapaxes(-1, -2))
