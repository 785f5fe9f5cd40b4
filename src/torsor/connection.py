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
from .vecmath import _batch, constant_field, cross3, triple

# The identity, read-only since every caller shares it: Gamma_A of the
# proper origin, and U of a medium filling space.
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)

# Probe points per call of a residual view (library), and twice the probes
# per stencil side (divergence): together they bound the memory of one call
# up to cli.MAX_PROBE_POINTS points.
PROBE_CHUNK = 1024


class GalileanConnection:
    """Connection fields g(t, x) and Omega(t, x); constants accepted.

    g and Omega take a batch of events, t of shape (m,) and x of shape
    (3, m), and return their values with the point axis last, (3, m), as
    every field of a medium does.  A connection built from constant g and
    Omega, or by rotating_frame, records its form as six floats: g (the
    base g of a rotating frame) and Omega.  read then computes from those
    floats, bit for bit as the callables would, but only while g and
    Omega are still the callables built here; a callable assigned later
    is always called.
    """

    def __init__(self, g=(0.0, 0.0, 0.0), Omega=(0.0, 0.0, 0.0)):
        self.g = g if callable(g) else constant_field(triple(g))
        self.Omega = Omega if callable(Omega) else constant_field(
            triple(Omega))
        self._own = (self.g, self.Omega)
        self._rotating = False
        self._consts = None
        if not callable(g) and not callable(Omega):
            self._consts = (*triple(g), *triple(Omega))

    @classmethod
    def rotating_frame(cls, Omega, g=(0.0, 0.0, 0.0)):
        """Chart spinning rigidly at constant Omega inside an inertial world.

        Carries the centrifugal gravity -Omega x (Omega x x) on top of the
        constant base gravity g, in addition to the spin; Coriolis terms
        enter through Omega itself.  g is evaluated on the rows of x with
        vecmath.cross3, bit-identical to the numpy form g - Om x (Om x x)
        at each event, and quiet on overflow and inf - inf, as float
        arithmetic is.  The base g and Omega are recorded as the
        connection's form.
        """
        om = triple(Omega)
        g1, g2, g3 = triple(g)

        def g_total(t, x):
            with np.errstate(over="ignore", invalid="ignore"):
                c1, c2, c3 = cross3(om, cross3(om, x))
                return np.array((g1 - c1, g2 - c2, g3 - c3))

        conn = cls(g=g_total, Omega=om)
        conn._rotating = True
        conn._consts = (g1, g2, g3, *om)
        return conn

    def _form(self):
        """The six recorded floats, or None when there are none or g or
        Omega has been replaced since construction."""
        if self.g is self._own[0] and self.Omega is self._own[1]:
            return self._consts
        return None

    def read(self, t, x1, x2, x3):
        """(g1, g2, g3, w1, w2, w3), six floats, at the event (t, x).

        A recorded form is read from its floats, the rotating frame's g
        with the products and differences of its callable in their order.
        Otherwise the event is read through fields_at as a batch of one.
        """
        c = self._form()
        if c is None:
            g, Omega = self.fields_at(t, (x1, x2, x3))
            return (*g[0].tolist(), *Omega[0].tolist())
        if not self._rotating:
            return c
        g1, g2, g3, w1, w2, w3 = c
        # a = Om x x, then g - Om x a, as cross3 writes them
        a1, a2, a3 = w2 * x3 - w3 * x2, w3 * x1 - w1 * x3, w1 * x2 - w2 * x1
        return (g1 - (w2 * a3 - w3 * a2), g2 - (w3 * a1 - w1 * a3),
                g3 - (w1 * a2 - w2 * a1), w1, w2, w3)

    def fields_at(self, t, x):
        """g and Omega, two fresh (m, 3) arrays, at the events t (m,) and x
        (3, m), each field called once on the whole batch; a float t with
        any x of three entries is a batch of one.  For m > 1 an x, or a
        value of g or Omega, of another shape than (3, m) raises
        ValueError naming it, the events as rows of an (m, 3) x too.
        """
        t = np.reshape(np.asarray(t, dtype=float), -1)
        m = len(t)
        x = _batch(x, m, (3,), "GalileanConnection.fields_at x", "events",
                   what="has values")
        g = _batch(self.g(t, x), m, (3,), "GalileanConnection.g", "events")
        Omega = _batch(self.Omega(t, x), m, (3,), "GalileanConnection.Omega",
                       "events")
        return g.T.copy(), Omega.T.copy()


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


def spatial_origin_gamma_A(Omega, x) -> np.ndarray:
    """Gamma_A of the spatial origin, C = (0, x), under spin Omega at x:
    first column (1, -Omega x x) and zero spatial columns; (m, 4, 4) for
    Omega and x of shape (3, m)."""
    c = cross3(np.asarray(Omega, dtype=float), np.asarray(x, dtype=float))
    GA = np.zeros(np.shape(c[0]) + (4, 4))
    GA[..., 0, 0] = 1.0
    GA[..., 1, 0], GA[..., 2, 0], GA[..., 3, 0] = -c[0], -c[1], -c[2]
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
    def identity_embedding(cls, conn: GalileanConnection, t,
                           x) -> "PullbackChristoffels":
        """Medium filling space: material chart is the space-time chart,
        with the proper origin (Gamma_A = identity), at the events t (m,)
        and x (3, m), read by one GalileanConnection.fields_at call; a
        float t with a (3,) x is a batch of one.
        """
        G = christoffels(*conn.fields_at(t, x))
        return cls(material=G, spacetime=G, origin_motion=_EYE4)

    @classmethod
    def spatial_origin(cls, conn: GalileanConnection, t, x,
                       n: int) -> "PullbackChristoffels":
        """Flat n-coordinate material chart at the events t (m,) and x
        (3, m), with the origin at the spatial origin."""
        g, Omega = conn.fields_at(t, x)
        return cls(np.zeros((n, n, n)), christoffels(g, Omega),
                   spatial_origin_gamma_A(Omega.T, x))


def _row_derivatives(read, xi, h, one_sided, domain):
    """The sums over g of d/dxi^g of row g of T and of J at each point of
    a batch xi (m, d+1): (m, 20), T's 4 then J's 16, or (m, 4) for a read
    without moments.

    The stencil is flattened point-major, probe i (d+1) + g being point i
    with coordinate g moved, and each probe keeps only row g of its T and
    J, packed in the same layout, so that T and J are differenced
    together.  On a bounded domain the stencil is checked whole, and only
    then read, in blocks of whole points of at most PROBE_CHUNK // 2
    probes, once per block and side.  An empty batch raises ValueError
    before any read.
    """
    if not len(xi):
        raise ValueError(f"xi must be a batch of chart points of shape "
                         f"(m, d+1) with m >= 1, got shape {xi.shape}")
    n = xi.shape[1]
    u = xi.reshape(-1)
    h = fd.default_step(u) if h is None else np.full(u.shape, float(h))
    lo = hi = None
    if domain is not None:
        lo, hi = zip(*((None, None) if b is None else b for b in domain))
        lo = np.resize([-np.inf if b is None else b for b in lo], u.shape)
        hi = np.resize([np.inf if b is None else b for b in hi], u.shape)
        fd.stencil_sides(u, h, lo, hi, one_sided)
    per = PROBE_CHUNK // 2 // n
    blocks = []
    for s in range(0, len(xi), per):
        rows = xi[s:s + per].repeat(n, axis=0)
        probes = slice(s * n, s * n + len(rows))
        bounds = {} if lo is None else {"lo": lo[probes], "hi": hi[probes]}
        k = np.arange(len(rows))
        row_g = k, k % n  # row g of probes g, g + n, ...

        def f(w):
            probe = rows.copy()
            for g in range(n):  # probes g, g + n, ... move coordinate g
                probe[g::n, g] = w[g::n]
            _, T, J = read(probe)[:3]
            if J is None:
                return T[row_g]
            return np.concatenate([T[row_g], J[row_g].reshape(-1, 16)],
                                  axis=1)

        der = fd.diff(f, u[probes], h[probes], one_sided=one_sided, **bounds)
        total = der[0::n]
        for g in range(1, n):
            total = total + der[g::n]
        blocks.append(total)
    return np.concatenate(blocks)


def _covariant_terms(at, sums, chris):
    """div T and div J of the divergence from at = read(xi), the medium at
    the batch's points, the row derivatives sums of _row_derivatives and
    the PullbackChristoffels chris."""
    U, T, J = at[:3]
    # Contiguous, since numpy's products take another summation order on
    # strided operands.
    T = np.ascontiguousarray(T, dtype=float)
    U = np.ascontiguousarray(U, dtype=float)
    m = len(T)
    G = chris.spacetime.reshape(chris.spacetime.shape[:-3] + (4, 16))
    trG = chris.material.trace(axis1=-3, axis2=-2)[..., None, :]
    UT = U @ T
    dT = (sums[:, :4] + (trG @ T)[:, 0]
          + (G @ UT.reshape(m, 16, 1))[..., 0])
    D = chris.origin_motion @ UT
    out = D - D.swapaxes(-1, -2)
    if J is not None:
        J = np.ascontiguousarray(J, dtype=float).reshape(m, -1, 16)
        A = G @ (U @ J).reshape(m, 16, 4)
        out = (sums[:, 4:].reshape(m, 4, 4) + A - A.swapaxes(-1, -2)
               + (trG @ J).reshape(m, 4, 4) + out)
    return dT, 0.5 * (out - out.swapaxes(-1, -2))


def divergence(read, xi, chris: PullbackChristoffels, h: float = None,
               one_sided: bool = False, domain=None):
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
    transpose.  The output is re-skewed.

    xi is a batch of m chart points (m, d+1), a single point a batch of
    one; any other rank raises ValueError.  The medium is one function,
    read(xi) -> (U, T, J, *extras) on a batch xi (k, d+1): T (k, d+1, 4)
    holds the components gT^b, material index first, J (k, d+1, 4, 4) the
    gJ^ab, skew in the last two indices, or is None for a medium without
    moments, and U (k, 4, d+1) may leave out the point axis when it is
    the same at every point.  chris may carry the point axis too, and
    both outputs carry it: (m, 4) and (m, 4, 4).  domain holds optional
    per-coordinate (lo, hi) bounds.

    read is called once per side of one stencil over every coordinate of
    every point, cut into blocks of PROBE_CHUNK // 2 probes, and then once
    at xi; T and J are differenced together.  The algebra runs per point
    in the products a single point takes, so every point's rows are bit
    for bit those it would get alone.  On a bounded domain the whole
    stencil is checked before any read, and raises the
    DifferentiationFailure of the first point that no stencil fits, as a
    loop over the points would.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2:
        raise ValueError(f"xi must be a batch of chart points of shape "
                         f"(m, d+1), got shape {xi.shape}")
    sums = _row_derivatives(read, xi, h, one_sided, domain)
    return _covariant_terms(read(xi), sums, chris)
