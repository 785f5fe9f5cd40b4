"""Field bundles for media of dimension 0 to 3 and their chart geometry.

A medium of dimension d is described in a material chart xi = (t, chart
coordinates); the tangent map U is the 4 x (d+1) Jacobian of the embedding
into space-time, and the torsor fields give the (d+1)-row component arrays
the divergence operator consumes.

Curves are parameterized by arclength s (a constructor option rebuilds that
parameterization by numeric quadrature).  Shells carry a mid-surface chart
(theta^1, theta^2), the unit normal, and both fundamental forms.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import fd
from .errors import SingularMetric
from .vecmath import cross, cross3, moment_entries, skew, strict_max, triple

DEGENERATE_TANGENT_TOL = 1e-9
SINGULAR_METRIC_TOL = 1e-12
ARCLENGTH_QUAD_TOL = 1e-8
SECOND_DIFF_REL_STEP = 1e-4


def _second_diff(f, u: float, h: float = None):
    """Second derivative of f at u by the three-point central stencil.

    Uses a wider default step than first differences: the h^2 denominator
    amplifies roundoff, and 1e-4 balances that against truncation.
    """
    if h is None:
        h = SECOND_DIFF_REL_STEP * max(1.0, abs(u))
    f0 = np.asarray(f(u), dtype=float)
    fp = np.asarray(f(u + h), dtype=float)
    fm = np.asarray(f(u - h), dtype=float)
    return (fp - 2.0 * f0 + fm) / (h * h)


@dataclass
class MediumField:
    """Torsor fields of a d-dimensional medium over its material chart.

    tangent_map: xi (d+1,) -> U (4, d+1)
    torsor_T: xi -> (d+1, 4) array of components gT^b, material index first
    torsor_J: xi -> (d+1, 4, 4) array gJ^ab, skew in the last two indices
    domain: optional per-coordinate (lo, hi) bounds used by differentiation
    """

    tangent_map: Callable
    torsor_T: Callable
    torsor_J: Optional[Callable] = None
    domain: Optional[tuple] = None


def assemble_cauchy_T(rho: float, v, sigma) -> np.ndarray:
    """Stress-mass tensor [[rho, rho v^T], [rho v, rho v v^T - sigma]].

    sigma must be symmetric; rho must be nonnegative.  Both rules are
    checked on floats: the largest |sigma^ij - sigma^ji| may not exceed
    1e-9 max(1, max |sigma^ij|).  A sigma holding a NaN or an inf is
    passed through unchecked, to the residual, where the check fails on it.
    """
    v = triple(v)
    rows = np.asarray(sigma, dtype=float).reshape(3, 3).tolist()
    rho = float(rho)
    if rho < 0.0:
        raise ValueError("density must be nonnegative")
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = rows
    asym = max(abs(s01 - s10), abs(s02 - s20), abs(s12 - s21))
    entries = (s00, s01, s02, s10, s11, s12, s20, s21, s22)
    if (asym > 1e-9 * max(1.0, *map(abs, entries))
            and all(map(math.isfinite, entries))):
        raise ValueError("stress tensor is not symmetric")
    return _stress_mass(rho, v, rows)


def _stress_mass(rho: float, v, sigma) -> np.ndarray:
    """assemble_cauchy_T's packing without its checks.

    rho is a float, v a float triple and sigma three float triples; the
    products are those numpy evaluates for rho * v and rho * outer(v, v),
    so the result is bit-identical to the array form at a fraction of its
    per-call cost.  Given the columns of sigma for its rows, it returns the
    transpose bit for bit, since rho (v^i v^j) = rho (v^j v^i) exactly.
    The same products pack a batch: rho of shape (m,), v (3, m) and sigma
    (3, 3, m) give T with the point axis last, (4, 4, m).
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

    Each field takes one event, a float t and a 3-vector x, and returns a
    scalar, a 3-vector or a (3, 3) array.  With vectorized=True each field
    takes a batch of m events instead, t of shape (m,) and x of shape
    (3, m), and returns its values with the point axis last: (m,), (3, m)
    and (3, 3, m).  The residual then reads a whole probe batch in one call
    per field and stencil offset, in chunks of library.PROBE_CHUNK points
    when it runs a scenario; a field that is not vectorized is read point
    by point.
    """

    rho: Callable
    v: Callable
    sigma: Callable
    domain: Optional[tuple] = None
    vectorized: bool = False


class Curve1D:
    """Slender medium: position field psi(t, s) with s the arclength.

    Optional analytic overrides for the tangent n, the material velocity v,
    and the tangential flow v_t; anything missing is completed as follows.
    n defaults to the s-derivative of psi.  If v is given, v_t defaults to
    v . n.  If only v_t is given, the matter slides along the moving chart:
    v = d psi/dt + (v_t - n . d psi/dt) n, which keeps v . n = v_t.  With
    neither, the chart is material: v = d psi/dt and v_t = n . d psi/dt.
    """

    def __init__(self, psi, v=None, n=None, v_t=None, domain=None,
                 reparameterize: bool = False, s_range=None):
        if reparameterize:
            if s_range is None:
                raise ValueError("reparameterize requires s_range=(s_lo, s_hi)")
            psi = _arclength_wrap(psi, s_range)
        self._psi = psi
        self._v = v
        self._n = n
        self._v_t = v_t
        self.domain = domain

    def psi(self, t: float, s: float) -> np.ndarray:
        return np.asarray(self._psi(t, s), dtype=float).reshape(3)

    def n(self, t: float, s: float) -> np.ndarray:
        if self._n is not None:
            return np.asarray(self._n(t, s), dtype=float).reshape(3)
        return fd.diff(lambda u: self.psi(t, u), s)

    def v_t(self, t: float, s: float, v=None, n=None) -> float:
        """Tangential flow: the analytic v_t, else v . n.

        A caller that has read v and n at (t, s) passes them, so they are
        not read again.
        """
        if self._v_t is not None:
            return float(self._v_t(t, s))
        if v is None:
            v = self.v(t, s)
        return float(v @ (self.n(t, s) if n is None else n))

    def v(self, t: float, s: float) -> np.ndarray:
        if self._v is not None:
            return np.asarray(self._v(t, s), dtype=float).reshape(3)
        dpsi_dt = fd.diff(lambda u: self.psi(u, s), t)
        if self._v_t is not None:
            n = self.n(t, s)
            slide = float(self._v_t(t, s)) - float(dpsi_dt @ n)
            return dpsi_dt + slide * n
        return dpsi_dt

    def arclength_defect(self, t: float, s_samples) -> float:
        """max | |d psi/ds| - 1 | over the samples; 0 for true arclength."""
        return strict_max(
            abs(float(np.linalg.norm(self.n(t, s))) - 1.0) for s in s_samples
        )


def _arclength_wrap(psi_raw, s_range):
    """Reparameterize psi_raw(t, u), u in s_range, to arclength from s_range[0]."""
    # Imported here: scipy costs most of `import torsor`, and only this
    # option needs it.
    from scipy.integrate import quad
    from scipy.optimize import brentq

    u0, u1 = s_range

    def speed(t, u):
        return float(np.linalg.norm(fd.diff(lambda w: np.asarray(psi_raw(t, w), dtype=float), u)))

    def arclen(t, u):
        # Integrate well below the contract tolerance so the inversion,
        # and tangents finite-differenced through it, stay within it.
        return quad(lambda w: speed(t, w), u0, u,
                    epsabs=1e-4 * ARCLENGTH_QUAD_TOL, limit=200)[0]

    def psi(t, s):
        if s <= 0.0:
            return np.asarray(psi_raw(t, u0), dtype=float)
        total = arclen(t, u1)
        if s >= total:
            return np.asarray(psi_raw(t, u1), dtype=float)
        u = brentq(lambda w: arclen(t, w) - s, u0, u1, xtol=1e-12,
                   rtol=8.881784197001252e-16)
        return np.asarray(psi_raw(t, u), dtype=float)

    return psi


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

    @classmethod
    def from_matrix(cls, M) -> "ForceMass1D":
        M = np.asarray(M, dtype=float).reshape(2, 4)
        rho_l = M[0, 0]
        if rho_l <= 0.0:
            raise ValueError("line density must be positive to invert the matrix")
        v = M[0, 1:] / rho_l
        v_t = M[1, 0] / rho_l
        F = rho_l * v_t * v - M[1, 1:]
        return cls(rho_l, v, v_t, F)


def rod_torsor(rho_l: float, v, w: float, F, psi, slide: float, q, l,
               l_star, M_star):
    """Rod torsor (T, J) on the chart (t, s), moments re-based at the
    frame origin.

    rho_l, w (the speed of matter past the chart) and slide (n . d psi/dt)
    are floats; v, F, psi, q, l, l_star and M_star float triples.  T (2, 4)
    is ForceMass1D(rho_l, v, w, F).matrix; J (2, 4, 4) holds
    J_t = moment_matrix(q, l + psi x rho_l v) and
    J_s = moment_matrix(l_star - slide q,
                        M_star - slide l + psi x (rho_l w v - F)).
    Both are packed from floats in one array, with the products and sums
    of those array forms in the same order, so they are bit-identical.
    """
    rho_l, w = float(rho_l), float(w)
    v0, v1, v2 = v
    F0, F1, F2 = F
    p = (rho_l * v0, rho_l * v1, rho_l * v2)
    rw = rho_l * w
    flux = (rw * v0 - F0, rw * v1 - F1, rw * v2 - F2)
    (q0, q1, q2), (l0, l1, l2) = q, l
    (a0, a1, a2), (m0, m1, m2) = l_star, M_star
    c0, c1, c2 = cross3(psi, p)
    d0, d1, d2 = cross3(psi, flux)
    TJ = np.array([
        rho_l, *p, rw, *flux,
        *moment_entries(q, (l0 + c0, l1 + c1, l2 + c2)),
        *moment_entries((a0 - slide * q0, a1 - slide * q1, a2 - slide * q2),
                        (m0 - slide * l0 + d0, m1 - slide * l1 + d1,
                         m2 - slide * l2 + d2)),
    ])
    return TJ[:8].reshape(2, 4), TJ[8:].reshape(2, 4, 4)


class ShellFrame(NamedTuple):
    """Chart geometry of a shell at one point, as Python floats.

    pi: the rows d x / d theta^a, two float triples; a and a_inv: the
    entries (11, 12, 22) of the metric a = pi pi^T and of its inverse;
    c: the rows of the surface projector a^-1 pi; n: the unit normal.
    """

    pi: tuple
    a: tuple
    a_inv: tuple
    c: tuple
    n: tuple


class ShellField:
    """Thin medium: mid-surface x(t, theta1, theta2) plus derived geometry.

    Analytic overrides may be supplied for pi (rows d x/d theta^a), the unit
    normal n, the velocity v = d x/dt, and the normal velocity w = d n/dt;
    defaults are finite differences of x.  The normal defaults to
    pi_1 x pi_2 normalized, so its orientation follows the chart order.

    A shell element's rigid spin may be given by its Poisson vector varpi;
    when varpi is given and w is not, w = varpi x n.

    The chart geometry at a point (pi, the metric and its inverse, the
    projector c and the normal) is built once, on Python floats, by
    `frame`; `metric`, `projector` and `w_surf` read it, and `n` and `w`
    use its float normal.  A default w differences that normal in t at
    fd.default_step.  Float products round each term, where numpy's matrix
    products may fuse them, so the geometry can differ from the array
    forms in the last bits.
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
        return np.asarray(self._x(t, th1, th2), dtype=float).reshape(3)

    def pi(self, t, th1, th2) -> np.ndarray:
        """(2, 3) array; row a is d x / d theta^a."""
        if self._pi is not None:
            return np.asarray(self._pi(t, th1, th2), dtype=float).reshape(2, 3)
        r1 = fd.partial(lambda tt, a, b: self.x(tt, a, b), (t, th1, th2), 1)
        r2 = fd.partial(lambda tt, a, b: self.x(tt, a, b), (t, th1, th2), 2)
        return np.stack([r1, r2])

    def frame(self, t, th1, th2) -> ShellFrame:
        """The chart geometry at one point; raises SingularMetric.

        pi is read once.  The metric is inverted in closed form, and a
        determinant below SINGULAR_METRIC_TOL, or NaN, is singular.
        """
        p, q = self.pi(t, th1, th2).tolist()
        p0, p1, p2 = p
        q0, q1, q2 = q
        a11 = p0 * p0 + p1 * p1 + p2 * p2
        a12 = p0 * q0 + p1 * q1 + p2 * q2
        a22 = q0 * q0 + q1 * q1 + q2 * q2
        det = a11 * a22 - a12 * a12
        if not det >= SINGULAR_METRIC_TOL:
            raise SingularMetric(f"det(a) < {SINGULAR_METRIC_TOL} at (t={t}, theta=({th1}, {th2}))")
        i11, i12, i22 = a22 / det, -a12 / det, a11 / det
        c = ((i11 * p0 + i12 * q0, i11 * p1 + i12 * q1, i11 * p2 + i12 * q2),
             (i12 * p0 + i22 * q0, i12 * p1 + i22 * q1, i12 * p2 + i22 * q2))
        return ShellFrame((tuple(p), tuple(q)), (a11, a12, a22),
                          (i11, i12, i22), c, self._normal(t, th1, th2, p, q))

    def _normal(self, t, th1, th2, p=None, q=None) -> tuple:
        """Unit normal as a float triple; p, q are pi's rows if already read."""
        if self._n is not None:
            return tuple(np.asarray(self._n(t, th1, th2), dtype=float).reshape(3).tolist())
        if p is None:
            p, q = self.pi(t, th1, th2).tolist()
        m0, m1, m2 = cross3(p, q)
        sq = m0 * m0 + m1 * m1 + m2 * m2
        if not sq >= SINGULAR_METRIC_TOL:
            raise SingularMetric(f"normal undefined at (t={t}, theta=({th1}, {th2}))")
        norm = math.sqrt(sq)
        return (m0 / norm, m1 / norm, m2 / norm)

    def _normal_rate(self, t, th1, th2, n=None) -> tuple:
        """w = d n / dt as a float triple; n is the normal if already read."""
        if self._w is not None:
            return tuple(np.asarray(self._w(t, th1, th2), dtype=float).reshape(3).tolist())
        if self.varpi is not None:
            vp = np.asarray(self.varpi(t, th1, th2), dtype=float).reshape(3)
            return cross3(vp.tolist(), self._normal(t, th1, th2) if n is None else n)
        h = fd.default_step(t)
        up, down = self._normal(t + h, th1, th2), self._normal(t - h, th1, th2)
        return tuple((u - d) / (2.0 * h) for u, d in zip(up, down))

    def _w_surf(self, t, th1, th2, fr=None, w=None) -> tuple:
        """w_surf as a float pair: (c^1 . w, c^2 . w); fr and w are the
        frame and the normal rate if already read."""
        if fr is None:
            fr = self.frame(t, th1, th2)
        if w is None:
            w = self._normal_rate(t, th1, th2, fr.n)
        w0, w1, w2 = w
        (c0, c1, c2), (d0, d1, d2) = fr.c
        return (c0 * w0 + c1 * w1 + c2 * w2, d0 * w0 + d1 * w1 + d2 * w2)

    def metric(self, t, th1, th2) -> np.ndarray:
        """First fundamental form a = pi pi^T; raises SingularMetric."""
        a11, a12, a22 = self.frame(t, th1, th2).a
        return np.array([[a11, a12], [a12, a22]])

    def projector(self, t, th1, th2) -> np.ndarray:
        """c = a^-1 pi, the (2, 3) surface projector."""
        return np.array(self.frame(t, th1, th2).c)

    def n(self, t, th1, th2) -> np.ndarray:
        return np.array(self._normal(t, th1, th2))

    def dpi_dtheta(self, t, th1, th2) -> np.ndarray:
        """(2, 2, 3) array D[a, c] = d pi_a / d theta^c (= d2 x, symmetric in a, c).

        Without an analytic pi this second-differences x directly: nesting
        two first differences of the small-step tangent would amplify its
        rounding noise, and the cross stencil is symmetric by construction.
        """
        if self._pi is not None:
            d1 = fd.partial(lambda tt, a, b: self.pi(tt, a, b), (t, th1, th2), 1)
            d2 = fd.partial(lambda tt, a, b: self.pi(tt, a, b), (t, th1, th2), 2)
            return np.stack([d1, d2], axis=-2).reshape(2, 2, 3)
        h1 = SECOND_DIFF_REL_STEP * max(1.0, abs(th1))
        h2 = SECOND_DIFF_REL_STEP * max(1.0, abs(th2))
        D = np.empty((2, 2, 3))
        D[0, 0] = _second_diff(lambda u: self.x(t, u, th2), th1, h=h1)
        D[1, 1] = _second_diff(lambda u: self.x(t, th1, u), th2, h=h2)
        mixed = (
            np.asarray(self.x(t, th1 + h1, th2 + h2), dtype=float)
            - np.asarray(self.x(t, th1 + h1, th2 - h2), dtype=float)
            - np.asarray(self.x(t, th1 - h1, th2 + h2), dtype=float)
            + np.asarray(self.x(t, th1 - h1, th2 - h2), dtype=float)
        ) / (4.0 * h1 * h2)
        D[0, 1] = mixed
        D[1, 0] = mixed
        return D

    def second_form(self, t, th1, th2) -> np.ndarray:
        """b_ab = n . d pi_b / d theta^a."""
        n = self.n(t, th1, th2)
        D = self.dpi_dtheta(t, th1, th2)
        return np.einsum("i,bai->ab", n, D)

    def v(self, t, th1, th2) -> np.ndarray:
        if self._v is not None:
            return np.asarray(self._v(t, th1, th2), dtype=float).reshape(3)
        return fd.partial(lambda tt, a, b: self.x(tt, a, b), (t, th1, th2), 0)

    def w(self, t, th1, th2) -> np.ndarray:
        """Velocity of the unit normal, w = d n / dt."""
        return np.array(self._normal_rate(t, th1, th2))

    def dpi_dt(self, t, th1, th2) -> np.ndarray:
        return fd.partial(lambda tt, a, b: self.pi(tt, a, b), (t, th1, th2), 0)

    def v_dot(self, t, th1, th2) -> np.ndarray:
        """Acceleration d v / dt at fixed theta (second-differences x when
        v itself is a finite-difference default)."""
        if self._v is not None:
            return fd.partial(lambda tt, a, b: self.v(tt, a, b), (t, th1, th2), 0)
        return _second_diff(lambda tt: self.x(tt, th1, th2), t)

    def w_surf(self, t, th1, th2) -> np.ndarray:
        """Surface components w^a = c^a_i w^i of the normal velocity."""
        return np.array(self._w_surf(t, th1, th2))


def shell_christoffels(sf: ShellField, conn, t, th1, th2, fr=None,
                       w=None) -> np.ndarray:
    """(4, 4, 4) Christoffels G[a, b, c] = Gamma^a_bc of the adapted chart
    (t, theta^1, theta^2, normal) of a moving mid-surface.

    Gravity, spin, the chart frame (pi, c, a^-1, n) and w are read once, at
    the mid-surface point; a caller that has read the frame (sf.frame) and
    w (a float triple) there passes them as fr and w.  The in-plane blocks
    come from the chart geometry: Gamma^a_bc = c^a . d pi_b / d theta^c,
    Gamma^3_ab = b_ab and Gamma^a_b3 = Gamma^a_3b = -(a^-1 b)^a_b.  The
    time blocks come from the motion of the surface inside the spinning
    frame: with acc = dv/dt - g + 2 Omega x v, Gamma^a_00 = c^a . acc,
    Gamma^3_00 = n . acc, Phi^a_b = Gamma^a_0b = Gamma^a_b0 =
    c^a . (d pi_b/dt + Omega x pi_b), Gamma^3_0b = Gamma^3_b0 =
    n . (the same) and Gamma^a_03 = Gamma^a_30 = c^a . (w + Omega x n).
    Every other entry, the time row Gamma^0 included, is zero.
    """
    x = sf.x(t, th1, th2)
    g = conn.g(t, x)
    Omega = conn.Omega(t, x)
    W = skew(Omega)
    if fr is None:
        fr = sf.frame(t, th1, th2)
    if w is None:
        w = sf._normal_rate(t, th1, th2, fr.n)
    pi, c, n = np.array(fr.pi), np.array(fr.c), np.array(fr.n)
    i11, i12, i22 = fr.a_inv
    w = np.array(w)
    D = sf.dpi_dtheta(t, th1, th2)
    acc = sf.v_dot(t, th1, th2) - g + 2.0 * cross(Omega, sf.v(t, th1, th2))
    # Row b: d pi_b/dt + Omega x pi_b.
    spin = sf.dpi_dt(t, th1, th2) + pi @ W.T

    G = np.zeros((4, 4, 4))
    G[1:3, 0, 0] = c @ acc
    G[3, 0, 0] = n @ acc
    G[1:3, 0, 1:3] = G[1:3, 1:3, 0] = c @ spin.T
    G[3, 0, 1:3] = G[3, 1:3, 0] = spin @ n
    G[1:3, 0, 3] = G[1:3, 3, 0] = c @ (w + W @ n)
    # D[b, c] holds d pi_b / d theta^c.
    G[1:3, 1:3, 1:3] = np.einsum("ai,bci->abc", c, D)
    b = np.einsum("i,bai->ab", n, D)
    G[3, 1:3, 1:3] = b
    G[1:3, 1:3, 3] = G[1:3, 3, 1:3] = -(np.array([[i11, i12], [i12, i22]]) @ b)
    return G


@dataclass
class Cosserat1DField:
    """Slender-medium torsor fields over (t, s): density, force, moments.

    rho_l, F are the force-mass components; q, l, l_star, M_star the moment
    components.  Kinematics (v, v_t, n) come from the curve.
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
    M: (2, 2) moments; kappa: transverse inertia rho h^3 / 12.
    """

    rho_s: Callable
    N: Callable
    Q: Callable
    M: Callable
    kappa: Callable


def shell_torsor(rho_s: float, N, Q, M, kappa: float, w):
    """Shell torsor (T, J) on the adapted chart (t, theta^1, theta^2, normal).

    rho_s, N (2, 2), Q (2,), M (2, 2), kappa and the surface normal velocity
    w (2,) at one point.  T (3, 4) has rows (t, theta^1, theta^2):
    T^{00} = rho_s, T^{ba} = kappa w^b w^a - N^{ba} and T^{b3} = -Q^b.
    J (3, 4, 4) is skew in its last two indices: J^{0a3} = -kappa w^a
    along the time flux and, along flux b, J^{ba3} = M^{ab} and
    J^{b30} = kappa w^b.  Both are packed from floats; each mirrored entry
    of J is 0 - (its partner), the signed zero an array J - J^T gives.
    """
    (n11, n12), (n21, n22) = np.asarray(N, dtype=float).reshape(2, 2).tolist()
    q1, q2 = np.asarray(Q, dtype=float).reshape(2).tolist()
    (m11, m12), (m21, m22) = np.asarray(M, dtype=float).reshape(2, 2).tolist()
    w1, w2 = np.asarray(w, dtype=float).reshape(2).tolist()
    rho_s, kappa = float(rho_s), float(kappa)
    k1, k2 = kappa * w1, kappa * w2
    nk1, nk2 = -k1, -k2
    z = 0.0
    TJ = np.array([
        rho_s, z, z, z,
        z, kappa * (w1 * w1) - n11, kappa * (w1 * w2) - n12, -q1,
        z, kappa * (w2 * w1) - n21, kappa * (w2 * w2) - n22, -q2,
        # J^0: the time flux.
        z, z, z, z, z, z, z, nk1, z, z, z, nk2, z, z - nk1, z - nk2, z,
        # J^1 and J^2: the theta fluxes.
        z, z, z, z - k1, z, z, z, m11, z, z, z, m21, k1, z - m11, z - m21, z,
        z, z, z, z - k2, z, z, z, m12, z, z, z, m22, k2, z - m12, z - m22, z,
    ])
    return TJ[:12].reshape(3, 4), TJ[12:].reshape(3, 4, 4)


@dataclass
class Cosserat3DState:
    """Space-filling medium with moment fields over (t, x).

    T: (4, 4) stress-mass T^{ab}; q, l: (3,) position and spin densities;
    l_star, M_star: (3, 3) flux tensors, first index the component, second
    the transport direction.  With vectorized=True each field takes a
    batch of m events, t of shape (m,) and x of shape (3, m), and returns
    its values with the point axis last, as CauchyMedium's do.
    """

    T: Callable
    q: Callable
    l: Callable
    l_star: Callable
    M_star: Callable
    domain: Optional[tuple] = None
    vectorized: bool = False


def cosserat_J(q, l, l_star, M_star) -> np.ndarray:
    """Moment fields of a space-filling medium as J[point, flux, a, b].

    Over a batch of m points, point axis last: q, l (3, m) and l_star,
    M_star (3, 3, m), first index the component, second the flux.  Returns
    (m, 4, 4, 4): J^0 = moment_matrix(q, l) along the time flux and
    J^r = moment_matrix(l_star[:, r], M_star[:, r]) along flux r, with the
    entries and signs of moment_entries.
    """
    m = np.shape(q)[-1]
    # pos[p, flux] and ang[p, flux] are the moment pairs along each flux.
    pos = np.concatenate([np.reshape(q, (3, 1, m)), l_star],
                         axis=1).transpose(2, 1, 0)
    ang = np.concatenate([np.reshape(l, (3, 1, m)), M_star],
                         axis=1).transpose(2, 1, 0)
    J = np.zeros((m, 4, 4, 4))
    J[..., 1:, 0] = pos
    J[..., 0, 1:] = -pos
    J[..., (2, 3, 1), (3, 1, 2)] = ang
    J[..., (3, 1, 2), (2, 3, 1)] = -ang
    return J
