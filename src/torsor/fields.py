"""Field bundles for media of dimension 0 to 3 and their chart geometry.

A medium of dimension d is described in a material chart xi = (t, chart
coordinates); the tangent map U is the 4 x (d+1) Jacobian of the embedding
into space-time, and the torsor fields give the (d+1)-row component arrays
the divergence operator consumes.

Curves are parameterized by arclength s (a constructor option rebuilds that
parameterization by numeric quadrature).  Shells carry a mid-surface chart
(theta^1, theta^2), the unit normal, and both fundamental forms.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import SingularMetric
from .vecmath import cross, skew, strict_max

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

    sigma must be symmetric; rho must be nonnegative.
    """
    v = np.asarray(v, dtype=float).reshape(3)
    sigma = np.asarray(sigma, dtype=float).reshape(3, 3)
    if rho < 0.0:
        raise ValueError("density must be nonnegative")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if np.max(np.abs(sigma - sigma.T)) > 1e-9 * scale:
        raise ValueError("stress tensor is not symmetric")
    return _stress_mass(float(rho), v.tolist(), sigma.tolist())


def _stress_mass(rho: float, v, sigma) -> np.ndarray:
    """assemble_cauchy_T's packing without its checks.

    rho is a float, v a float triple and sigma three float triples; the
    products are those numpy evaluates for rho * v and rho * outer(v, v),
    so the result is bit-identical to the array form at a fraction of its
    per-call cost.
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
    """Classical 3D medium: fields rho(t, x), v(t, x), sigma(t, x)."""

    rho: Callable
    v: Callable
    sigma: Callable
    domain: Optional[tuple] = None

    def T(self, t: float, x) -> np.ndarray:
        return assemble_cauchy_T(self.rho(t, x), self.v(t, x), self.sigma(t, x))


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

    def v_t(self, t: float, s: float) -> float:
        if self._v_t is not None:
            return float(self._v_t(t, s))
        if self._v is not None:
            return float(self.v(t, s) @ self.n(t, s))
        dpsi_dt = fd.diff(lambda u: self.psi(u, s), t)
        return float(dpsi_dt @ self.n(t, s))

    def v(self, t: float, s: float) -> np.ndarray:
        if self._v is not None:
            return np.asarray(self._v(t, s), dtype=float).reshape(3)
        dpsi_dt = fd.diff(lambda u: self.psi(u, s), t)
        if self._v_t is not None:
            n = self.n(t, s)
            slide = float(self._v_t(t, s)) - float(dpsi_dt @ n)
            return dpsi_dt + slide * n
        return dpsi_dt

    def v_dot(self, t: float, s: float, h: float = None) -> np.ndarray:
        """Material acceleration d v / dt at fixed s.

        An analytic v is differenced directly.  The finite-difference
        defaults would otherwise be differenced twice with the small
        first-order step, so the material-chart case uses one
        second-difference of psi, and the sliding case (v_t supplied)
        differences the composite v with the wider second-difference step.
        """
        if self._v is not None:
            return fd.diff(lambda u: self.v(u, s), t, h=h)
        if self._v_t is None:
            return _second_diff(lambda u: self.psi(u, s), t)
        if h is None:
            h = SECOND_DIFF_REL_STEP * max(1.0, abs(t))
        return fd.diff(lambda u: self.v(u, s), t, h=h)

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


class ShellField:
    """Thin medium: mid-surface x(t, theta1, theta2) plus derived geometry.

    Analytic overrides may be supplied for pi (rows d x/d theta^a), the unit
    normal n, the velocity v = d x/dt, and the normal velocity w = d n/dt;
    defaults are finite differences of x.  The normal defaults to
    pi_1 x pi_2 normalized, so its orientation follows the chart order.

    A shell element's rigid spin may be given by its Poisson vector varpi;
    when varpi is given and w is not, w = varpi x n.
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

    def metric(self, t, th1, th2) -> np.ndarray:
        """First fundamental form a = pi pi^T; raises SingularMetric."""
        pi = self.pi(t, th1, th2)
        a = pi @ pi.T
        if np.linalg.det(a) < SINGULAR_METRIC_TOL:
            raise SingularMetric(f"det(a) < {SINGULAR_METRIC_TOL} at (t={t}, theta=({th1}, {th2}))")
        return a

    def projector(self, t, th1, th2) -> np.ndarray:
        """c = a^-1 pi, the (2, 3) surface projector."""
        return np.linalg.solve(self.metric(t, th1, th2), self.pi(t, th1, th2))

    def n(self, t, th1, th2) -> np.ndarray:
        if self._n is not None:
            return np.asarray(self._n(t, th1, th2), dtype=float).reshape(3)
        pi = self.pi(t, th1, th2)
        normal = cross(pi[0], pi[1])
        norm = np.linalg.norm(normal)
        if norm ** 2 < SINGULAR_METRIC_TOL:
            raise SingularMetric(f"normal undefined at (t={t}, theta=({th1}, {th2}))")
        return normal / norm

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
        if self._w is not None:
            return np.asarray(self._w(t, th1, th2), dtype=float).reshape(3)
        if self.varpi is not None:
            vp = np.asarray(self.varpi(t, th1, th2), dtype=float).reshape(3)
            return cross(vp, self.n(t, th1, th2))
        return fd.partial(lambda tt, a, b: self.n(tt, a, b), (t, th1, th2), 0)

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
        return self.projector(t, th1, th2) @ self.w(t, th1, th2)

    def w_surf_dot(self, t, th1, th2) -> np.ndarray:
        """d/dt of w^a at fixed theta.

        With an analytic w the composite c w is differenced directly;
        otherwise the product rule splits it into dc/dt w + c d2n/dt2 so the
        finite-difference w is never differenced with the small step again.
        """
        if self._w is not None or self.varpi is not None:
            return fd.partial(
                lambda tt, a, b: self.w_surf(tt, a, b), (t, th1, th2), 0
            )
        c_dot = fd.partial(
            lambda tt, a, b: self.projector(tt, a, b), (t, th1, th2), 0
        )
        w_here = self.w(t, th1, th2)
        n_acc = _second_diff(lambda tt: self.n(tt, th1, th2), t)
        return c_dot @ w_here + self.projector(t, th1, th2) @ n_acc


def shell_christoffels(sf: ShellField, conn, t, th1, th2) -> np.ndarray:
    """(4, 4, 4) Christoffels G[a, b, c] = Gamma^a_bc of the adapted chart
    (t, theta^1, theta^2, normal) of a moving mid-surface.

    Gravity and spin are read once, at the mid-surface point.  The in-plane
    blocks come from the chart geometry: Gamma^a_bc = c^a . d pi_b /
    d theta^c, Gamma^3_ab = b_ab and Gamma^a_b3 = Gamma^a_3b = -(a^-1 b)^a_b.
    The time blocks come from the motion of the surface inside the spinning
    frame: with acc = dv/dt - g + 2 Omega x v, Gamma^a_00 = c^a . acc,
    Gamma^3_00 = n . acc, Phi^a_b = Gamma^a_0b = Gamma^a_b0 =
    c^a . (d pi_b/dt + Omega x pi_b), Gamma^3_0b = Gamma^3_b0 = n . (the
    same) and Gamma^a_03 = Gamma^a_30 = c^a . (w + Omega x n).  Every other
    entry, the time row Gamma^0 included, is zero.
    """
    x = sf.x(t, th1, th2)
    g = conn.g(t, x)
    Omega = conn.Omega(t, x)
    W = skew(Omega)
    pi = sf.pi(t, th1, th2)
    a = sf.metric(t, th1, th2)
    c = np.linalg.solve(a, pi)
    n = sf.n(t, th1, th2)
    D = sf.dpi_dtheta(t, th1, th2)
    acc = sf.v_dot(t, th1, th2) - g + 2.0 * cross(Omega, sf.v(t, th1, th2))
    # Row b: d pi_b/dt + Omega x pi_b.
    spin = sf.dpi_dt(t, th1, th2) + pi @ W.T

    G = np.zeros((4, 4, 4))
    G[1:3, 0, 0] = c @ acc
    G[3, 0, 0] = n @ acc
    G[1:3, 0, 1:3] = G[1:3, 1:3, 0] = c @ spin.T
    G[3, 0, 1:3] = G[3, 1:3, 0] = spin @ n
    G[1:3, 0, 3] = G[1:3, 3, 0] = c @ (sf.w(t, th1, th2) + W @ n)
    # D[b, c] holds d pi_b / d theta^c.
    G[1:3, 1:3, 1:3] = np.einsum("ai,bci->abc", c, D)
    b = np.einsum("i,bai->ab", n, D)
    G[3, 1:3, 1:3] = b
    G[1:3, 1:3, 3] = G[1:3, 3, 1:3] = -np.linalg.solve(a, b)
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
    J^{b30} = kappa w^b.
    """
    kw = kappa * w
    T = np.zeros((3, 4))
    T[0, 0] = rho_s
    T[1:, 1:3] = kappa * np.outer(w, w) - N
    T[1:, 3] = -Q
    J = np.zeros((3, 4, 4))
    J[0, 1:3, 3] = -kw
    J[1:, 1:3, 3] = M.T
    J[1:, 3, 0] = kw
    return T, J - np.swapaxes(J, 1, 2)


@dataclass
class Cosserat3DState:
    """Space-filling medium with moment fields over (t, x).

    T: (4, 4) stress-mass T^{ab}; q, l: (3,) position and spin densities;
    l_star, M_star: (3, 3) flux tensors, first index the component, second
    the transport direction.
    """

    T: Callable
    q: Callable
    l: Callable
    l_star: Callable
    M_star: Callable
    domain: Optional[tuple] = None
