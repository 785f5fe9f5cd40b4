"""Dimensional reduction of a 3D medium to curve and shell torsor fields.

A plane cross-section carries a quadrature rule (tensor Gauss-Legendre on
rectangles, radial Gauss-Legendre times a uniform angular rule on discs) in
its own 2D coordinates, plus an orthonormal frame (e1, e2, n) placing it in
space.  Thickness integrals through a shell use Gauss-Legendre across
[-h/2, h/2].  Moment reductions are only offered about the section mass
center; off-center moments are a bookkeeping hazard and deliberately
unsupported.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptySection
from .fields import ForceMass1D
from .vecmath import moments

FRAME_ORTHO_TOL = 1e-9
CENTERING_TOL = 1e-8


class _QuadratureRule:
    """Nodes and weights with the weighted-sum loop both rules share."""

    def integrate(self, f):
        """Quadrature of f(node): the sum of weight * f(node) over nodes."""
        total = None
        for node, w in zip(self.nodes, self.weights):
            val = w * np.asarray(f(node), dtype=float)
            total = val if total is None else total + val
        return total


class CrossSection(_QuadratureRule):
    """Quadrature rule over a plane section with an orthonormal frame.

    nodes: (K, 2) in-plane coordinates relative to the section origin;
    weights: (K,); origin: (3,) point in space; e1, e2: in-plane unit
    vectors; n: unit normal (the curve tangent after reduction).
    integrate(f) sums f(node) at the (2,) in-plane node coordinates.
    """

    def __init__(self, nodes, weights, origin=(0.0, 0.0, 0.0),
                 e1=(1.0, 0.0, 0.0), e2=(0.0, 1.0, 0.0), n=(0.0, 0.0, 1.0)):
        self.nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
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
        x1, w1 = np.polynomial.legendre.leggauss(n1)
        x2, w2 = np.polynomial.legendre.leggauss(n2)
        x1 = 0.5 * a * x1
        w1 = 0.5 * a * w1
        x2 = 0.5 * b * x2
        w2 = 0.5 * b * w2
        nodes = np.array([(u, v) for u in x1 for v in x2])
        weights = np.array([wu * wv for wu in w1 for wv in w2])
        return cls(nodes, weights, **frame)

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
        wt = 2.0 * np.pi / n_theta
        nodes = []
        weights = []
        for ri, wi in zip(r, wr):
            for th in theta:
                nodes.append((ri * np.cos(th), ri * np.sin(th)))
                weights.append(wi * wt)
        return cls(np.array(nodes), np.array(weights), **frame)

    def area(self) -> float:
        return float(np.sum(self.weights))

    def in_plane(self, node) -> np.ndarray:
        """Lift a (2,) node to its (3,) offset from the section origin."""
        return node[0] * self.e1 + node[1] * self.e2

    def mass_center(self, rho_bar) -> np.ndarray:
        """(2,) in-plane mass center of the density field rho_bar(node)."""
        m = self.integrate(lambda xb: rho_bar(xb))
        if m <= 0.0:
            raise ValueError("section mass must be positive to center")
        c = self.integrate(lambda xb: rho_bar(xb) * xb)
        return c / m

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

    integrate(f) sums f(z) at the offsets z along the normal.
    """

    def __init__(self, h: float, n: int = 8):
        if h <= 0.0:
            raise ValueError("thickness must be positive")
        self.h = float(h)
        x, w = np.polynomial.legendre.leggauss(n)
        self.nodes = 0.5 * h * x
        self.weights = 0.5 * h * w


def projector_matrix(cs: CrossSection) -> np.ndarray:
    """Pi = [[1, 0], [0, n^T]] built from the section normal."""
    Pi = np.zeros((2, 4))
    Pi[0, 0] = 1.0
    Pi[1, 1:] = cs.n
    return Pi


def reduce_3d_to_1d_T(T_bar, Pi, cs: CrossSection) -> np.ndarray:
    """Section integral of Pi @ T_bar: the (2, 4) force-mass matrix.

    T_bar(node) returns the 4x4 stress-mass at the in-plane node, components
    in the ambient space-time frame.
    """
    Pi = np.asarray(Pi, dtype=float).reshape(2, 4)
    return cs.integrate(lambda xb: Pi @ T_bar(xb))


def _decompose_stress_mass(T):
    rho = T[0, 0]
    if rho <= 0.0:
        raise ValueError("stress-mass decomposition needs T[0, 0] > 0")
    v = T[0, 1:] / rho
    sigma = rho * np.outer(v, v) - T[1:, 1:]
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
    M = reduce_3d_to_1d_T(T_bar, Pi, cs)
    rho_l = M[0, 0]
    if rho_l <= 0.0:
        raise ValueError("section line density must be positive")
    v = M[0, 1:] / rho_l
    v_t = M[1, 0] / rho_l

    def integrand(xb):
        rho, v_bar, sigma = _decompose_stress_mass(np.asarray(T_bar(xb), dtype=float))
        return sigma @ n - rho * (v_t - v_bar @ n) * (v - v_bar)

    F = cs.integrate(integrand)
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

    def integrand(xb):
        X = np.array([1.0, *cs.in_plane(xb)])
        return np.multiply.outer(X, np.asarray(T_bar(xb), dtype=float) @ Pi.T)

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

    sigma_bar(z) is the 3x3 stress at offset z along the normal, components
    in the adapted frame (indices 0, 1 in-plane, 2 normal); rho is the
    volumetric density, assumed uniform through the thickness.
    """
    if rho < 0.0:
        raise ValueError("density must be nonnegative")
    S = rule.integrate(lambda z: np.asarray(sigma_bar(z), dtype=float))
    Sz = rule.integrate(lambda z: z * np.asarray(sigma_bar(z), dtype=float))
    return Reduced2D(
        rho_s=rho * rule.h,
        N=S[:2, :2].copy(),
        Q=S[:2, 2].copy(),
        M=Sz[:2, :2].copy(),
    )
