"""Field bundles for media of dimension 0 to 3 and their chart geometry.

A medium of dimension d is described in a material chart xi = (t, chart
coordinates); the tangent map U is the 4 x (d+1) Jacobian of the embedding
into space-time, and the torsor fields give the (d+1)-row component arrays
the divergence operator consumes.

Curves are parameterized by arclength s: the caller's chart psi(t, s) must
have |d psi/ds| = 1.  Shells carry a mid-surface chart (theta^1, theta^2),
its metric and the unit normal; the second fundamental form b is computed
inside shell_christoffels, which stores it as Gamma^3_ab.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import fd
from .errors import SingularMetric
from .connection import christoffels
from .vecmath import cross3, moment_matrix

DEGENERATE_TANGENT_TOL = 1e-9
SINGULAR_METRIC_TOL = 1e-12
SECOND_DIFF_REL_STEP = 1e-4


def _second_diff(f, u, h=None):
    """Second derivative of f at u by the three-point central stencil.

    u is a float, or an (m,) array of points with f's values carrying the
    point axis last; h is a float or one step per point.

    Uses a wider default step than first differences: the h^2 denominator
    amplifies roundoff, and 1e-4 balances that against truncation.
    """
    if h is None:
        h = SECOND_DIFF_REL_STEP * np.maximum(1.0, np.abs(u))
    f0 = np.asarray(f(u), dtype=float)
    fp = np.asarray(f(u + h), dtype=float)
    fm = np.asarray(f(u - h), dtype=float)
    return (fp - 2.0 * f0 + fm) / (h * h)


@dataclass
class MediumField:
    """Torsor fields of a d-dimensional medium over its material chart.

    Each callable takes a batch of k chart points xi (k, d+1) and returns
    its arrays with the point axis first; an array that is the same at
    every point may leave that axis out, as U may.

    tangent_map: xi -> U (k, 4, d+1)
    torsor_T: xi -> (k, d+1, 4) array of components gT^b, material index
      first
    torsor_J: xi -> (k, d+1, 4, 4) array gJ^ab, skew in the last two
      indices
    domain: optional per-coordinate (lo, hi) bounds used by differentiation
    """

    tangent_map: Callable
    torsor_T: Callable
    torsor_J: Optional[Callable] = None
    domain: Optional[tuple] = None


def assemble_cauchy_T(rho, v, sigma) -> np.ndarray:
    """Stress-mass tensor [[rho, rho v^T], [rho v, rho v v^T - sigma]].

    One point's (4, 4), or a batch's (4, 4, K) from v (3, K), rho (K,) and
    sigma (3, 3, K), rho and sigma without the point axis if constant.
    sigma must be symmetric, the largest |sigma^ij - sigma^ji| at most
    1e-9 max(1, max |sigma^ij|), and rho nonnegative.  A sigma holding a
    NaN or an inf is passed through unchecked, to the residual, where the
    check fails on it.
    """
    v = np.asarray(v, dtype=float)
    lead = v.shape[1:]
    rho = np.broadcast_to(np.asarray(rho, dtype=float), lead)
    if np.any(rho < 0.0):
        raise ValueError("density must be nonnegative")
    s = np.asarray(sigma, dtype=float)
    if s.ndim < 2 + len(lead):  # the same at every point
        s = s.reshape((3, 3) + (1,) * len(lead))
    s = np.broadcast_to(s, (3, 3) + lead)
    with np.errstate(invalid="ignore"):
        asym = np.abs(s - s.swapaxes(0, 1)).max(axis=(0, 1))
    big = np.maximum(1.0, np.abs(s).max(axis=(0, 1)))
    if np.any((asym > 1e-9 * big) & np.isfinite(s).all(axis=(0, 1))):
        raise ValueError("stress tensor is not symmetric")
    return _stress_mass(rho, v, s)


def _stress_mass(rho, v, sigma) -> np.ndarray:
    """assemble_cauchy_T's packing without its checks.

    rho, v and sigma are one point's (a float, a triple and three rows) or
    a batch's with the point axis last, rho (m,), v (3, m) and sigma
    (3, 3, m), which give T (4, 4, m).  The products are those numpy
    evaluates for rho * v and rho * outer(v, v), so T is bit-identical to
    the array form.  Given the columns of sigma for its rows, it returns
    the transpose bit for bit, since rho (v^i v^j) = rho (v^j v^i) exactly.
    """
    v0, v1, v2 = v
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = sigma
    r0, r1, r2 = rho * v0, rho * v1, rho * v2
    return np.array([
        [rho, r0, r1, r2],
        [r0, rho * (v0 * v0) - s00, rho * (v0 * v1) - s01,
         rho * (v0 * v2) - s02],
        [r1, rho * (v1 * v0) - s10, rho * (v1 * v1) - s11,
         rho * (v1 * v2) - s12],
        [r2, rho * (v2 * v0) - s20, rho * (v2 * v1) - s21,
         rho * (v2 * v2) - s22],
    ])


@dataclass
class CauchyMedium:
    """Classical 3D medium: fields rho(t, x), v(t, x), sigma(t, x).

    Each field takes a batch of m events, t of shape (m,) and x of shape
    (3, m), and returns its values with the point axis last: (m,), (3, m)
    and (3, 3, m).  A single event is a batch of one.  The residual reads a
    whole probe batch in one call per field and stencil side, in blocks of
    connection.PROBE_CHUNK points.
    """

    rho: Callable
    v: Callable
    sigma: Callable
    domain: Optional[tuple] = None


class Curve1D:
    """Slender medium: position field psi(t, s) with s the arclength.

    Optional analytic overrides for the tangent n, the material velocity v,
    and the tangential flow v_t; anything missing is completed as follows.
    n defaults to the s-derivative of psi.  If v is given, v_t defaults to
    v . n.  If only v_t is given, the matter slides along the moving chart:
    v = d psi/dt + (v_t - n . d psi/dt) n, which keeps v . n = v_t.  With
    neither, the chart is material: v = d psi/dt and v_t = n . d psi/dt.

    Each callable takes a batch, t and s of shape (m,), and returns (3, m)
    (v_t (m,)).  The methods take floats or a batch; floats are read as a
    batch of one, and a batch's values come back point axis last.
    """

    def __init__(self, psi, v=None, n=None, v_t=None, domain=None):
        self._psi = psi
        self._v = v
        self._n = n
        self._v_t = v_t
        self.domain = domain

    def psi(self, t, s) -> np.ndarray:
        return _read(self._psi, (t, s), (3,))

    def n(self, t, s) -> np.ndarray:
        if self._n is not None:
            return _read(self._n, (t, s), (3,))
        return _partial(self.psi, (t, s), 1)

    def v_t(self, t, s, v=None, n=None):
        """Tangential flow: the analytic v_t, else v . n.

        A caller that has read v and n at (t, s) passes them, so they are
        not read again.
        """
        if self._v_t is not None:
            return _read(self._v_t, (t, s), ())[()]
        if v is None:
            v = self.v(t, s)
        return _dot(v, self.n(t, s) if n is None else n)

    def v(self, t, s) -> np.ndarray:
        if self._v is not None:
            return _read(self._v, (t, s), (3,))
        dpsi_dt = _partial(self.psi, (t, s), 0)
        if self._v_t is not None:
            n = self.n(t, s)
            return dpsi_dt + (self.v_t(t, s) - _dot(dpsi_dt, n)) * n
        return dpsi_dt


@dataclass
class ForceMass1D:
    """Force-mass components of a slender medium: rho_l, v, v_t, F."""

    rho_l: float
    v: np.ndarray
    v_t: float
    F: np.ndarray

    def __post_init__(self):
        self.rho_l = float(self.rho_l)
        self.v = np.asarray(self.v, dtype=float).reshape(3)
        self.v_t = float(self.v_t)
        self.F = np.asarray(self.F, dtype=float).reshape(3)

    @property
    def matrix(self) -> np.ndarray:
        """(2, 4) array [[rho_l, rho_l v^T], [rho_l v_t, (rho_l v_t v - F)^T]]."""
        M = np.empty((2, 4))
        M[0, 0] = self.rho_l
        M[0, 1:] = self.rho_l * self.v
        M[1, 0] = self.rho_l * self.v_t
        M[1, 1:] = self.rho_l * self.v_t * self.v - self.F
        return M


def rod_torsor(rho_l, v, w, F, psi, slide, q, l, l_star, M_star):
    """Rod torsor (T, J) on the chart (t, s), moments re-based at the
    frame origin, at m points.

    rho_l, w (the speed of matter past the chart) and slide (n . d psi/dt)
    are (m,); v, F, psi, q, l, l_star and M_star (3, m).  T (m, 2, 4) is
    ForceMass1D(rho_l, v, w, F).matrix at each point; J (m, 2, 4, 4) holds
    J_t = moment_matrix(q, l + psi x rho_l v) and
    J_s = moment_matrix(l_star - slide q,
                        M_star - slide l + psi x (rho_l w v - F)),
    elementwise in the order of those forms, so bit-identical to them.
    """
    p = rho_l * v
    rw = rho_l * w
    flux = rw * v - F
    T = np.array([[rho_l, *p], [rw, *flux]])
    pos = np.array([q, l_star - slide * q])
    ang = np.array([l + np.array(cross3(psi, p)),
                    M_star - slide * l + np.array(cross3(psi, flux))])
    return _to_first(T), moment_matrix(pos.transpose(2, 0, 1),
                                       ang.transpose(2, 0, 1))


class ShellFrame(NamedTuple):
    """Chart geometry of a shell at one point or at a batch of points.

    pi: the rows d x / d theta^a, two triples; a and a_inv: the entries
    (11, 12, 22) of the metric a = pi pi^T and of its inverse; c: the rows
    of the surface projector a^-1 pi; n: the unit normal.  Each entry is a
    float at one point and an (m,) array over a batch of m points.
    """

    pi: tuple
    a: tuple
    a_inv: tuple
    c: tuple
    n: tuple


def _read(fn, coords, shape):
    """Field fn at one point, as an array of `shape`, or at a batch, with
    the point axis last; one point is read as a batch of one."""
    batch = [np.reshape(np.asarray(u, dtype=float), -1) for u in coords]
    value = np.asarray(fn(*batch), dtype=float)
    value = value.reshape(shape + (len(batch[0]),))
    return value if np.ndim(coords[0]) else value[..., 0]


def _dot(a, b):
    """a . b of two 3-vectors, or at each point of two (3, m) batches by
    the product numpy's a @ b takes on one point (not a written-out sum,
    which rounds otherwise)."""
    if np.ndim(a) == 1:
        return a @ b
    return (_stacked(a)[:, None, :] @ _stacked(b)[:, :, None])[:, 0, 0]


def _to_last(a):
    """a with its first (point) axis moved last."""
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def _to_first(a):
    """a with its last (point) axis moved first."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _stacked(a):
    """a with its last (point) axis first, contiguous: numpy's stacked
    products take another summation order on strided operands, and on
    contiguous ones each point's own product."""
    return np.ascontiguousarray(_to_first(a))


def _partial(f, args, i, h=None):
    """fd.partial of f(*args) in args[i], at one point or at a batch
    whose values carry the point axis last."""
    if np.ndim(args[i]) == 0:
        return fd.partial(f, args, i, h)
    return _to_last(fd.partial(
        lambda *u: _to_first(np.asarray(f(*u), dtype=float)), args, i, h))


def _require(ok, what, t, th1, th2):
    """Raise SingularMetric naming the first point where ok is False."""
    if not ok.all():
        i = int(np.argmin(np.reshape(ok, -1)))
        t, th1, th2 = (float(np.reshape(u, -1)[i]) for u in (t, th1, th2))
        raise SingularMetric(f"{what} at (t={t}, theta=({th1}, {th2}))")


class ShellField:
    """Thin medium: mid-surface x(t, theta1, theta2) plus derived geometry.

    Analytic overrides may be supplied for pi (rows d x/d theta^a), the unit
    normal n, the velocity v = d x/dt, and the normal velocity w = d n/dt;
    defaults are finite differences of x.  The normal defaults to
    pi_1 x pi_2 normalized, so its orientation follows the chart order.

    A shell element's rigid spin may be given by its Poisson vector varpi;
    when varpi is given and w is not, w = varpi x n.

    Each callable takes a batch of m points, three arrays (t, theta1,
    theta2) of shape (m,), and returns x, n, v, w or varpi as (3, m) and
    pi as (2, 3, m), point axis last.

    Every method takes one point, as floats, or a batch, as three (m,)
    arrays, and returns the batch's values with the point axis last.  The
    chart geometry (pi, the metric and its inverse, the projector c and
    the normal) is built once per call, elementwise, by `frame`; `w_surf`
    reads it, and `n` and `w` use its normal.  A
    default w differences that normal in t at fd.default_step.  Elementwise
    products round each term, where numpy's matrix products may fuse them,
    so the geometry can differ from the matrix forms in the last bits.
    """

    def __init__(self, x, pi=None, n=None, v=None, w=None, domain=None,
                 varpi=None):
        self._x = x
        self._pi = pi
        self._n = n
        self._v = v
        self._w = w
        self.domain = domain
        self.varpi = varpi

    def x(self, t, th1, th2) -> np.ndarray:
        return _read(self._x, (t, th1, th2), (3,))

    def pi(self, t, th1, th2) -> np.ndarray:
        """(2, 3) array; row a is d x / d theta^a."""
        if self._pi is not None:
            return _read(self._pi, (t, th1, th2), (2, 3))
        args = (t, th1, th2)
        return np.stack([_partial(self.x, args, 1), _partial(self.x, args, 2)])

    def frame(self, t, th1, th2) -> ShellFrame:
        """The chart geometry; raises SingularMetric.

        pi is read once.  The metric is inverted in closed form, and a
        determinant below SINGULAR_METRIC_TOL, or NaN, is singular.
        """
        p, q = self.pi(t, th1, th2)
        p0, p1, p2 = p
        q0, q1, q2 = q
        a11 = p0 * p0 + p1 * p1 + p2 * p2
        a12 = p0 * q0 + p1 * q1 + p2 * q2
        a22 = q0 * q0 + q1 * q1 + q2 * q2
        det = a11 * a22 - a12 * a12
        _require(det >= SINGULAR_METRIC_TOL,
                 f"det(a) < {SINGULAR_METRIC_TOL}", t, th1, th2)
        i11, i12, i22 = a22 / det, -a12 / det, a11 / det
        c = ((i11 * p0 + i12 * q0, i11 * p1 + i12 * q1, i11 * p2 + i12 * q2),
             (i12 * p0 + i22 * q0, i12 * p1 + i22 * q1, i12 * p2 + i22 * q2))
        return ShellFrame((tuple(p), tuple(q)), (a11, a12, a22),
                          (i11, i12, i22), c, self._normal(t, th1, th2, p, q))

    def _normal(self, t, th1, th2, p=None, q=None) -> tuple:
        """Unit normal as a triple; p, q are pi's rows if already read."""
        if self._n is not None:
            return tuple(_read(self._n, (t, th1, th2), (3,)))
        if p is None:
            p, q = self.pi(t, th1, th2)
        m0, m1, m2 = cross3(p, q)
        sq = m0 * m0 + m1 * m1 + m2 * m2
        _require(sq >= SINGULAR_METRIC_TOL, "normal undefined", t, th1, th2)
        norm = np.sqrt(sq)
        return (m0 / norm, m1 / norm, m2 / norm)

    def _normal_rate(self, t, th1, th2, n=None) -> tuple:
        """w = d n / dt as a triple; n is the normal if already read."""
        if self._w is not None:
            return tuple(_read(self._w, (t, th1, th2), (3,)))
        if self.varpi is not None:
            vp = _read(self.varpi, (t, th1, th2), (3,))
            return cross3(vp, self._normal(t, th1, th2) if n is None else n)
        h = fd.default_step(t)
        up, down = self._normal(t + h, th1, th2), self._normal(t - h, th1, th2)
        return tuple((u - d) / (2.0 * h) for u, d in zip(up, down))

    def _w_surf(self, t, th1, th2, fr=None, w=None) -> tuple:
        """w_surf as a pair: (c^1 . w, c^2 . w); fr and w are the frame
        and the normal rate if already read."""
        if fr is None:
            fr = self.frame(t, th1, th2)
        if w is None:
            w = self._normal_rate(t, th1, th2, fr.n)
        w0, w1, w2 = w
        (c0, c1, c2), (d0, d1, d2) = fr.c
        return (c0 * w0 + c1 * w1 + c2 * w2, d0 * w0 + d1 * w1 + d2 * w2)

    def n(self, t, th1, th2) -> np.ndarray:
        return np.array(self._normal(t, th1, th2))

    def dpi_dtheta(self, t, th1, th2) -> np.ndarray:
        """(2, 2, 3) array D[a, c] = d pi_a / d theta^c (= d2 x, symmetric in a, c).

        Without an analytic pi this second-differences x directly: nesting
        two first differences of the small-step tangent would amplify its
        rounding noise, and the cross stencil is symmetric by construction.
        """
        args = (t, th1, th2)
        if self._pi is not None:
            return np.stack([_partial(self.pi, args, 1),
                             _partial(self.pi, args, 2)], axis=1)
        h1 = SECOND_DIFF_REL_STEP * np.maximum(1.0, np.abs(th1))
        h2 = SECOND_DIFF_REL_STEP * np.maximum(1.0, np.abs(th2))
        D = np.empty((2, 2, 3) + np.shape(t))
        D[0, 0] = _second_diff(lambda u: self.x(t, u, th2), th1, h=h1)
        D[1, 1] = _second_diff(lambda u: self.x(t, th1, u), th2, h=h2)
        mixed = (
            self.x(t, th1 + h1, th2 + h2) - self.x(t, th1 + h1, th2 - h2)
            - self.x(t, th1 - h1, th2 + h2) + self.x(t, th1 - h1, th2 - h2)
        ) / (4.0 * h1 * h2)
        D[0, 1] = mixed
        D[1, 0] = mixed
        return D

    def v(self, t, th1, th2) -> np.ndarray:
        if self._v is not None:
            return _read(self._v, (t, th1, th2), (3,))
        return _partial(self.x, (t, th1, th2), 0)

    def w(self, t, th1, th2) -> np.ndarray:
        """Velocity of the unit normal, w = d n / dt."""
        return np.array(self._normal_rate(t, th1, th2))

    def dpi_dt(self, t, th1, th2) -> np.ndarray:
        return _partial(self.pi, (t, th1, th2), 0)

    def v_dot(self, t, th1, th2) -> np.ndarray:
        """Acceleration d v / dt at fixed theta (second-differences x when
        v itself is a finite-difference default)."""
        if self._v is not None:
            return _partial(self.v, (t, th1, th2), 0)
        return _second_diff(lambda tt: self.x(tt, th1, th2), t)

    def w_surf(self, t, th1, th2) -> np.ndarray:
        """Surface components w^a = c^a_i w^i of the normal velocity."""
        return np.array(self._w_surf(t, th1, th2))


def shell_christoffels(sf: ShellField, conn, t, th1, th2, fr=None,
                       w=None) -> np.ndarray:
    """(4, 4, 4) Christoffels G[a, b, c] = Gamma^a_bc of the adapted chart
    (t, theta^1, theta^2, normal) of a moving mid-surface.

    At one point (floats); at a batch of m points, t, th1 and th2 of shape
    (m,), an (m, 4, 4, 4) array.  One point is a batch of one.  Gravity,
    spin, the chart frame (pi, c, a^-1, n) and w are read once per point;
    a caller that has read the frame (sf.frame) and w (a triple) at the
    same points passes them as fr and w.  The in-plane blocks come from
    the chart geometry: Gamma^a_bc = c^a . d pi_b / d theta^c,
    Gamma^3_ab = b_ab and Gamma^a_b3 = Gamma^a_3b = -(a^-1 b)^a_b.  The
    time blocks come from the motion of the surface inside the spinning
    frame: with acc = dv/dt - g + 2 Omega x v, Gamma^a_00 = c^a . acc,
    Gamma^3_00 = n . acc, Phi^a_b = Gamma^a_0b = Gamma^a_b0 =
    c^a . (d pi_b/dt + Omega x pi_b), Gamma^3_0b = Gamma^3_b0 =
    n . (the same) and Gamma^a_03 = Gamma^a_30 = c^a . (w + Omega x n).
    Every other entry, the time row Gamma^0 included, is zero.

    The contractions are numpy's matrix products stacked over the point
    axis, and each point takes the product it would take alone, so its
    Christoffels do not depend on the batch it is read in.  g and Omega
    take one event each, so they are read point by point
    (GalileanConnection.fields_at).
    """
    one = not np.ndim(t)
    if one:
        t, th1, th2 = (np.reshape(np.asarray(u, dtype=float), 1)
                       for u in (t, th1, th2))
    m = len(t)

    def first(a, *shape):
        return _stacked(np.reshape(a, shape + (m,)))

    g, Omega = conn.fields_at(t, sf.x(t, th1, th2))
    # skew(Omega) at each point: the spin block of the space-time
    # Christoffels.
    W = np.ascontiguousarray(christoffels(g, Omega)[:, 1:, 0, 1:])
    g, Omega = g.T, Omega.T
    if fr is None:
        fr = sf.frame(t, th1, th2)
    if w is None:
        w = sf._normal_rate(t, th1, th2, fr.n)
    pi, c, n = first(fr.pi, 2, 3), first(fr.c, 2, 3), first(fr.n, 3)
    i11, i12, i22 = fr.a_inv
    a_inv = first(((i11, i12), (i12, i22)), 2, 2)
    D = first(sf.dpi_dtheta(t, th1, th2), 2, 2, 3)
    acc = first(sf.v_dot(t, th1, th2) - g
                + 2.0 * np.array(cross3(Omega, sf.v(t, th1, th2))), 3)
    # Row b: d pi_b/dt + Omega x pi_b.
    spin = first(sf.dpi_dt(t, th1, th2), 2, 3) + pi @ W.swapaxes(-1, -2)
    turn = first(w, 3) + (W @ n[..., None])[..., 0]

    G = np.zeros((m, 4, 4, 4))
    G[:, 1:3, 0, 0] = (c @ acc[..., None])[..., 0]
    G[:, 3, 0, 0] = (n[:, None] @ acc[..., None])[:, 0, 0]
    G[:, 1:3, 0, 1:3] = G[:, 1:3, 1:3, 0] = c @ spin.swapaxes(-1, -2)
    G[:, 3, 0, 1:3] = G[:, 3, 1:3, 0] = (spin @ n[..., None])[..., 0]
    G[:, 1:3, 0, 3] = G[:, 1:3, 3, 0] = (c @ turn[..., None])[..., 0]
    # D[b, c] holds d pi_b / d theta^c.
    G[:, 1:3, 1:3, 1:3] = np.einsum("pai,pbci->pabc", c, D)
    b = np.einsum("pi,pbai->pab", n, D)
    G[:, 3, 1:3, 1:3] = b
    G[:, 1:3, 1:3, 3] = G[:, 1:3, 3, 1:3] = -(a_inv @ b)
    return G[0] if one else G


@dataclass
class Cosserat1DField:
    """Slender-medium torsor fields over (t, s): density, force, moments.

    rho_l, F are the force-mass components; q, l, l_star, M_star the moment
    components.  Kinematics (v, v_t, n) come from the curve.  The fields
    take a batch (t, s) as the curve's callables do, and return rho_l (m,)
    and the others (3, m).
    """

    curve: Curve1D
    rho_l: Callable
    F: Callable
    q: Callable
    l: Callable
    l_star: Callable
    M_star: Callable


@dataclass
class ShellLoads:
    """Thin-medium torsor fields over (t, theta1, theta2).

    rho_s: surface density; N: (2, 2) membrane forces; Q: (2,) shear;
    M: (2, 2) moments; kappa: transverse inertia rho h^3 / 12.  Each field
    takes a batch of m points, three arrays of shape (m,), and returns its
    values with the point axis last: (m,), (2, 2, m), (2, m), (2, 2, m) and
    (m,).  balance.residual_2d reads a whole probe batch in one call per
    field and stencil side.
    """

    rho_s: Callable
    N: Callable
    Q: Callable
    M: Callable
    kappa: Callable


def shell_torsor(rho_s, N, Q, M, kappa, w):
    """Shell torsor (T, J) on the adapted chart (t, theta^1, theta^2, normal).

    rho_s, N (2, 2), Q (2,), M (2, 2), kappa and the surface normal velocity
    w (2,) at one point, or over a batch of m points with the point axis
    last: rho_s (m,), N (2, 2, m) and so on.  T (3, 4) has rows
    (t, theta^1, theta^2): T^{00} = rho_s, T^{ba} = kappa w^b w^a - N^{ba}
    and T^{b3} = -Q^b.  J (3, 4, 4) is skew in its last two indices:
    J^{0a3} = -kappa w^a along the time flux and, along flux b,
    J^{ba3} = M^{ab} and J^{b30} = kappa w^b.  A batch gives T and J with
    the point axis first, (m, 3, 4) and (m, 3, 4, 4).  Both are packed
    elementwise; each mirrored entry of J is 0 - (its partner), the signed
    zero an array J - J^T gives, except J^{b30} = kappa w^b itself.
    """
    rho_s = np.asarray(rho_s, dtype=float)
    lead = rho_s.shape
    N, M = (np.reshape(a, (2, 2) + lead) for a in (N, M))
    Q, w = (np.reshape(a, (2,) + lead) for a in (Q, w))
    kappa = np.reshape(kappa, lead)
    kw = kappa * w
    T = np.zeros((3, 4) + lead)
    T[0, 0] = rho_s
    T[1:, 1:3] = kappa * (w[:, None] * w[None, :]) - N
    T[1:, 3] = -Q
    J = np.zeros((3, 4, 4) + lead)
    J[0, 1:3, 3] = -kw
    J[1:, 0, 3] = 0.0 - kw
    J[1:, 1:3, 3] = M.swapaxes(0, 1)
    J[:, 3, :3] = 0.0 - J[:, :3, 3]
    J[1:, 3, 0] = kw
    return (_to_first(T), _to_first(J)) if lead else (T, J)


@dataclass
class Cosserat3DState:
    """Space-filling medium with moment fields over (t, x).

    T: (4, 4) stress-mass T^{ab}; q, l: (3,) position and spin densities;
    l_star, M_star: (3, 3) flux tensors, first index the component, second
    the transport direction.  Each field takes a batch of m events, t of
    shape (m,) and x of shape (3, m), and returns its values with the point
    axis last, as CauchyMedium's do.
    """

    T: Callable
    q: Callable
    l: Callable
    l_star: Callable
    M_star: Callable
    domain: Optional[tuple] = None


def cosserat_J(q, l, l_star, M_star) -> np.ndarray:
    """Moment fields of a space-filling medium as J[point, flux, a, b].

    Over a batch of m points, point axis last: q, l (3, m) and l_star,
    M_star (3, 3, m), first index the component, second the flux.  Returns
    (m, 4, 4, 4): J^0 = moment_matrix(q, l) along the time flux and
    J^r = moment_matrix(l_star[:, r], M_star[:, r]) along flux r.
    """
    m = np.shape(q)[-1]
    # pos[p, flux] and ang[p, flux] are the moment pairs along each flux.
    pos = np.concatenate([np.reshape(q, (3, 1, m)), l_star],
                         axis=1).transpose(2, 1, 0)
    ang = np.concatenate([np.reshape(l, (3, 1, m)), M_star],
                         axis=1).transpose(2, 1, 0)
    return moment_matrix(pos, ang)
