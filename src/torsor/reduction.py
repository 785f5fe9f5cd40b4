"""Dimensional reduction of a 3D medium to curve and shell torsor fields.

A plane cross-section carries a quadrature rule (tensor Gauss-Legendre on
rectangles, radial Gauss-Legendre times a uniform angular rule on discs) in
its own 2D coordinates, plus an orthonormal frame (e1, e2, n) placing it in
space.  Thickness integrals through a shell use Gauss-Legendre across
[-h/2, h/2].  A rule reads its integrand, and a reduction its field, once
on all nodes, node axis last, and adds the terms in node order.  Moment
reductions are only offered about the section mass center; off-center
moments are a bookkeeping hazard and deliberately unsupported.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptySection
from .fields import ForceMass1D, _stacked, _to_last
from .vecmath import _batch, moments

FRAME_ORTHO_TOL = 1e-9
CENTERING_TOL = 1e-8


class _QuadratureRule:
    """Nodes and weights with the weighted sum both rules share; coords
    holds the nodes node axis last, (2, K) or (K,)."""

    def integrate(self, f):
        """Quadrature of f: the sum of weight * f over the nodes.

        f is called once, on coords, and returns its values node axis last;
        only a 0-d value, the same at every node, may leave that axis out.
        The terms add in node order (np.sum would add them pairwise).
        """
        vals = np.asarray(f(self.coords), dtype=float)
        if vals.ndim and vals.shape[-1:] != self.weights.shape:
            raise ValueError(f"integrand {vals.shape} lacks the node axis")
        return np.cumsum(vals * self.weights, axis=-1)[..., -1]

    def on_nodes(self, field, shape, name):
        """field read once on coords, as its checked (*shape, K) values."""
        return _batch(field(self.coords), len(self.weights), shape, name,
                      "nodes, node axis last")


class CrossSection(_QuadratureRule):
    """Quadrature rule over a plane section with an orthonormal frame.

    nodes: (K, 2) in-plane coordinates relative to the section origin;
    weights: (K,); origin: (3,) point in space; e1, e2: in-plane unit
    vectors; n: unit normal (the curve tangent after reduction).
    integrate(f) sums f over the in-plane nodes, xb of shape (2, K).
    """

    def __init__(self, nodes, weights, origin=(0.0, 0.0, 0.0),
                 e1=(1.0, 0.0, 0.0), e2=(0.0, 1.0, 0.0), n=(0.0, 0.0, 1.0)):
        self.nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.coords = np.ascontiguousarray(self.nodes.T)
        if self.nodes.shape[0] == 0 or self.weights.shape[0] == 0:
            raise EmptySection("cross-section rule has no nodes")
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights length mismatch")
        self.origin = np.asarray(origin, dtype=float).reshape(3)
        self.e1 = np.asarray(e1, dtype=float).reshape(3)
        self.e2 = np.asarray(e2, dtype=float).reshape(3)
        self.n = np.asarray(n, dtype=float).reshape(3)
        F = np.stack([self.e1, self.e2, self.n])
        if np.max(np.abs(F @ F.T - np.eye(3))) > FRAME_ORTHO_TOL:
            raise ValueError("section frame (e1, e2, n) is not orthonormal")

    @classmethod
    def rectangle(cls, a: float, b: float, n1: int = 8, n2: int = 8, **frame):
        """Centered a x b rectangle with tensor Gauss-Legendre nodes."""
        (x1, w1), (x2, w2) = (
            0.5 * side * np.array(np.polynomial.legendre.leggauss(k))
            for side, k in ((a, n1), (b, n2)))
        return cls(np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1),
                   np.outer(w1, w2), **frame)

    @classmethod
    def disc(cls, radius: float, n_r: int = 8, n_theta: int = 16, **frame):
        """Centered disc: radial Gauss-Legendre times uniform angles.

        Exact for polynomials of total degree up to min(2 n_r - 2,
        n_theta - 1); the uniform angular rule also makes all odd-parity
        integrals vanish identically.
        """
        xr, wr = np.polynomial.legendre.leggauss(n_r)
        r = 0.5 * radius * (xr + 1.0)
        wr = 0.5 * radius * wr * r
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        nodes = [np.outer(r, np.cos(theta)), np.outer(r, np.sin(theta))]
        return cls(np.stack(nodes, axis=-1),
                   np.repeat(wr * (2.0 * np.pi / n_theta), n_theta), **frame)

    def area(self) -> float:
        return float(np.sum(self.weights))

    def in_plane(self, node) -> np.ndarray:
        """Lift a (2,) node, or nodes (2, K), to its (3,) offset from the
        section origin, or their (3, K)."""
        return (np.multiply.outer(self.e1, node[0])
                + np.multiply.outer(self.e2, node[1]))

    def mass_center(self, rho_bar) -> np.ndarray:
        """(2,) in-plane mass center of the density field rho_bar(xb),
        read on all nodes: xb (2, K) to (K,)."""
        rho = self.on_nodes(rho_bar, (), "CrossSection.mass_center rho_bar")
        m, c1, c2 = self.integrate(
            lambda xb: np.array([rho, rho * xb[0], rho * xb[1]]))
        if m <= 0.0:
            raise ValueError("section mass must be positive to center")
        return np.array([c1, c2]) / m

    def centered(self, rho_bar) -> "CrossSection":
        """Same rule with the origin moved to the mass center of rho_bar."""
        c = self.mass_center(rho_bar)
        return CrossSection(
            self.nodes - c,
            self.weights,
            origin=self.origin + c[0] * self.e1 + c[1] * self.e2,
            e1=self.e1,
            e2=self.e2,
            n=self.n,
        )


class ThicknessRule(_QuadratureRule):
    """Gauss-Legendre rule across the shell thickness [-h/2, h/2].

    integrate(f) sums f over the offsets z along the normal, z (K,).
    """

    def __init__(self, h: float, n: int = 8):
        if h <= 0.0:
            raise ValueError("thickness must be positive")
        self.h = float(h)
        x, w = np.polynomial.legendre.leggauss(n)
        self.nodes = self.coords = 0.5 * h * x
        self.weights = 0.5 * h * w


def projector_matrix(cs: CrossSection) -> np.ndarray:
    """Pi = [[1, 0], [0, n^T]] built from the section normal."""
    Pi = np.zeros((2, 4))
    Pi[0, 0] = 1.0
    Pi[1, 1:] = cs.n
    return Pi


def reduce_3d_to_1d_T(T_bar, Pi, cs: CrossSection) -> np.ndarray:
    """Section integral of Pi @ T_bar: the (2, 4) force-mass matrix.

    T_bar(xb) returns the 4x4 stress-mass at the in-plane nodes xb (2, K),
    components in the ambient space-time frame, as (4, 4, K); it is read
    once, on all nodes, and the reductions below read it the same way.
    """
    Pi = np.asarray(Pi, dtype=float).reshape(2, 4)
    T = cs.on_nodes(T_bar, (4, 4), "reduce_3d_to_1d_T T_bar")
    return cs.integrate(lambda xb: _to_last(Pi @ _stacked(T)))


def _decompose_stress_mass(T):
    """rho, v and sigma of T (4, 4), or of each node of T (4, 4, K)."""
    rho = T[0, 0]
    if np.any(rho <= 0.0):
        raise ValueError("stress-mass decomposition needs T[0, 0] > 0")
    v = T[0, 1:] / rho
    sigma = rho * (v[:, None] * v[None, :]) - T[1:, 1:]
    return rho, v, sigma


def reduce_3d_to_1d_force_mass(T_bar, Pi, cs: CrossSection) -> ForceMass1D:
    """Force-mass components with the internal force from its own integral.

    rho_l, v, v_t come from the averaged Pi @ T_bar rows; F is then the
    per-node integral of sigma n - rho (v_t - vbar_t)(v - vbar), which makes
    the fluctuation contribution vanish identically (not just to roundoff
    of large cancelling terms) when vbar is uniform over the section.
    """
    Pi = np.asarray(Pi, dtype=float).reshape(2, 4)
    n = Pi[1, 1:]
    T = cs.on_nodes(T_bar, (4, 4), "reduce_3d_to_1d_force_mass T_bar")
    M = cs.integrate(lambda xb: _to_last(Pi @ _stacked(T)))
    rho_l = M[0, 0]
    if rho_l <= 0.0:
        raise ValueError("section line density must be positive")
    v = M[0, 1:] / rho_l
    v_t = M[1, 0] / rho_l
    rho, v_bar, sigma = _decompose_stress_mass(T)
    # sigma n and vbar . n as each node's own matrix products.
    sigma_n = (_stacked(sigma) @ n).T
    vbar_t = (_stacked(v_bar)[:, None] @ n)[:, 0]
    F = cs.integrate(lambda xb: sigma_n - rho * (v_t - vbar_t)
                     * (v[:, None] - v_bar))
    return ForceMass1D(rho_l=rho_l, v=v, v_t=v_t, F=F)


@dataclass
class Moments1D:
    """Section moment components about the mass center.

    q: first mass moment (zero for a centered section, kept as a check);
    l: moment of momentum; l_star: tangential-transport moment; M_star:
    moment of the momentum/stress flux.  J is the full (2, 4, 4) reduced
    moment array the engineer components are read from.
    """

    q: np.ndarray
    l: np.ndarray
    l_star: np.ndarray
    M_star: np.ndarray
    J: np.ndarray


def reduce_3d_to_1d_J(T_bar, Pi, cs: CrossSection) -> Moments1D:
    """Section moments: integrate the position-weighted stress-mass.

    With X = (0, x) the node offset and P = T_bar Pi^T, the per-node moment
    is J[g, a, b] = X^a P^{bg} - X^b P^{ag}.  One pass integrates
    (1, x) (x) P: its first slice holds the mass integral, and the wedge
    is taken once, on the integral.  Requires a mass-centered section (|q|
    over the integrated T_bar[0, 0] below CENTERING_TOL); build one with
    CrossSection.centered.
    """
    Pi = np.asarray(Pi, dtype=float).reshape(2, 4)
    T = cs.on_nodes(T_bar, (4, 4), "reduce_3d_to_1d_J T_bar")
    P = _to_last(_stacked(T) @ Pi.T)

    def integrand(xb):
        X = np.concatenate([np.ones((1, xb.shape[1])), cs.in_plane(xb)])
        return X[:, None, None] * P

    B = cs.integrate(integrand)
    mass = B[0, 0, 0]
    B[0] = 0.0
    J = np.moveaxis(B - B.swapaxes(0, 1), 2, 0)
    (q, l), (l_star, M_star) = moments(J[0]), moments(J[1])
    defect = float(np.linalg.norm(q) / mass)
    scale = max(1.0, float(np.max(np.abs(cs.nodes))))
    if defect > CENTERING_TOL * scale:
        raise ValueError(
            f"section is not mass-centered (defect {defect:.3e}); "
            "call CrossSection.centered(rho) first"
        )
    return Moments1D(q=q, l=l, l_star=l_star, M_star=M_star, J=J)


@dataclass
class Reduced2D:
    """Thickness-integrated shell components in the adapted surface frame."""

    rho_s: float
    N: np.ndarray
    Q: np.ndarray
    M: np.ndarray


def reduce_3d_to_2d(sigma_bar, rho: float, rule: ThicknessRule) -> Reduced2D:
    """Membrane forces, shear, and moments from the through-thickness stress.

    sigma_bar(z) is the 3x3 stress at the offsets z (K,) along the normal,
    components in the adapted frame (indices 0, 1 in-plane, 2 normal), as
    (3, 3, K); it is read once, on all offsets.  rho is the volumetric
    density, assumed uniform through the thickness.
    """
    if rho < 0.0:
        raise ValueError("density must be nonnegative")
    sigma = rule.on_nodes(sigma_bar, (3, 3), "reduce_3d_to_2d sigma_bar")
    S, Sz = rule.integrate(lambda z: np.array([sigma, z * sigma]))
    return Reduced2D(
        rho_s=rho * rule.h,
        N=S[:2, :2].copy(),
        Q=S[:2, 2].copy(),
        M=Sz[:2, :2].copy(),
    )
