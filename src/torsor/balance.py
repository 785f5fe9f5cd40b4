"""Balance-equation residuals for media of dimension 0 to 3.

Each operator evaluates the left-hand sides of the ten balance equations
(mass, linear momentum, position quantity, angular momentum) for one medium
class, in the chart and frame conventions those equations are stated in:
angular balances about the current point, position-quantity balances about
the spatial origin of the chart.  A residual of zero means the field
satisfies the balance law at that chart point.

Every medium is a view of one operator: its residuals are rows of
connection.divergence of the stress-mass T and the moment field J, the
paper's divergence-free-torsor principle itself.  The chart is the
worldline with the origin at the spatial origin (d = 0), the curve chart
(t, s) with the origin at the spatial origin (d = 1), the adapted shell
chart (t, theta^1, theta^2, normal) with the proper origin (d = 2), or the
identity chart with the proper origin (d = 3).

Derivatives are central differences (module fd); every operator accepts an
explicit step h and honors the field's domain bounds.
"""

from dataclasses import dataclass

import numpy as np

from . import fd
from .connection import (
    PullbackChristoffels,
    christoffels,
    divergence,
    spatial_origin_gamma_A,
)
from .errors import DegenerateTangent
from .fields import (
    DEGENERATE_TANGENT_TOL,
    SECOND_DIFF_REL_STEP,
    CauchyMedium,
    Cosserat1DField,
    Cosserat3DState,
    ForceMass1D,
    MediumField,
    ShellField,
    ShellLoads,
    _stress_mass,
    shell_christoffels,
    shell_torsor,
)
from .vecmath import as_field, cross, cross3, moment_matrix, moment_rows, moments


@dataclass
class BalanceResidual:
    """The ten balance residuals: 1 + 3 + 3 + 3 scalars.

    mass: scalar; lin_mom, pos_q, ang_mom: 3-vectors.  Operators with a
    different natural split (the thin-medium one) document how their rows
    map into these slots.
    """

    mass: float
    lin_mom: np.ndarray
    pos_q: np.ndarray
    ang_mom: np.ndarray

    def __post_init__(self):
        self.mass = float(self.mass)
        self.lin_mom = np.asarray(self.lin_mom, dtype=float).reshape(3)
        self.pos_q = np.asarray(self.pos_q, dtype=float).reshape(3)
        self.ang_mom = np.asarray(self.ang_mom, dtype=float).reshape(3)

    def as_array(self) -> np.ndarray:
        """All ten residuals: (mass, lin_mom, pos_q, ang_mom)."""
        return np.concatenate(
            [[self.mass], self.lin_mom, self.pos_q, self.ang_mom]
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.as_array())))

    def to_dict(self) -> dict:
        return {
            "mass": self.mass,
            "linear_momentum": self.lin_mom.tolist(),
            "position_quantity": self.pos_q.tolist(),
            "angular_momentum": self.ang_mom.tolist(),
            "max_abs": self.max_abs(),
        }


def residual_pointwise(traj, conn, t: float, h: float = None) -> BalanceResidual:
    """Residuals of the four pointwise balance laws along a trajectory.

    traj: callable t -> PointwiseTorsor.  The equations: dm/dt = 0;
    dp/dt = m (g - 2 Omega x v); dq/dt = p (moments about the spatial
    origin, so x = q / m); dl/dt + Omega x l0 = x cross the momentum law's
    right side, with l0 = l - x x p the moment about the point itself.

    All rows are read from connection.divergence on the worldline chart
    xi = (t): U = (1, v), T = (m, p), J = moment_matrix(q, l), no material
    Christoffels, and the origin at the spatial origin of the chart.
    """
    def T_of(xi):
        pt = traj(xi[0])
        return np.array([[pt.m, *pt.p]])

    def J_of(xi):
        pt = traj(xi[0])
        return moment_matrix(pt.q, pt.l)[None]

    def U(xi):
        T = T_of(xi)
        return T.T / T[0, 0]

    pt = traj(t)
    x = pt.q / pt.m
    # Each field is read once; the Christoffels and Gamma_A share Omega.
    g, Omega = conn.g(t, x), conn.Omega(t, x)
    chris = PullbackChristoffels(np.zeros((1, 1, 1)), christoffels(g, Omega),
                                 spatial_origin_gamma_A(Omega, x))
    field = MediumField(tangent_map=U, torsor_T=T_of, torsor_J=J_of)
    return _divergence_residual(field, [t], chris, h)


def _divergence_residual(field, xi, chris, h, one_sided=False, v=None):
    """The ten balance rows of connection.divergence of field at xi; with
    v given, the momentum row is dT[1:] - v dT[0] (the advective form)."""
    dT, dJ = divergence(field, xi, chris, h=h, one_sided=one_sided)
    pos, ang = moments(dJ)
    lin = dT[1:] if v is None else dT[1:] - v * dT[0]
    return BalanceResidual(mass=dT[0], lin_mom=lin, pos_q=pos, ang_mom=ang)


def _space_filling_residual(T_of, J_of, conn, t: float, x, domain, h,
                            one_sided, v=None):
    """_divergence_residual of a medium filling space, at (t, x).

    The material chart is the space-time chart (U = I) and the origin is
    the proper one.  T_of(t, x) returns T[component, flux]; J_of(t, x)
    returns J[flux, a, b], skew in (a, b), or J_of is None for a medium
    without moment fields.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    field = MediumField(
        tangent_map=lambda xi: np.eye(4),
        torsor_T=lambda xi: np.asarray(T_of(xi[0], xi[1:]), dtype=float).T,
        torsor_J=None if J_of is None else lambda xi: J_of(xi[0], xi[1:]),
        domain=domain,
    )
    chris = PullbackChristoffels.identity_embedding(conn, t, x)
    return _divergence_residual(field, [t, *x], chris, h, one_sided, v)


def residual_cauchy(medium: CauchyMedium, conn, t: float, x,
                    h: float = None, one_sided: bool = False) -> BalanceResidual:
    """Residuals of the classical continuum equations at (t, x).

    mass: d rho/dt + div(rho v); momentum: rho [dv/dt + (grad v) v]
    - div sigma - rho (g - 2 Omega x v), the advective form obtained after
    subtracting v times the mass balance; position rows vanish structurally
    (both time-row components are rho v); angular rows measure the stress
    asymmetry sigma^{ij} - sigma^{ji} pairwise.

    All rows are read from connection.divergence of the stress-mass
    T = [[rho, rho v^T], [rho v, rho v v^T - sigma]] with no moment fields.
    sigma is not required to be symmetric, since the angular rows exist to
    measure its asymmetry.
    """
    def T_of(tt, xx):
        v = np.asarray(medium.v(tt, xx), dtype=float).reshape(3)
        sigma = np.asarray(medium.sigma(tt, xx), dtype=float).reshape(3, 3)
        return _stress_mass(float(medium.rho(tt, xx)), v.tolist(),
                            sigma.tolist())

    v = np.asarray(medium.v(t, x), dtype=float).reshape(3)
    return _space_filling_residual(T_of, None, conn, t, x, medium.domain, h,
                                   one_sided, v)


def residual_1d(f: Cosserat1DField, conn, t: float, s: float,
                h: float = None, one_sided: bool = False) -> BalanceResidual:
    """Residuals of the four slender-medium balance laws at (t, s).

    All rows are read from connection.divergence on the chart (t, s), with
    the tangent map U = [[1, 0], [d psi/dt, n]] of (t, s) -> (t, psi), no
    material Christoffels, and the origin at the spatial origin (gravity
    and spin read once, at psi).  With w = v_t - n . (d psi/dt) the speed
    of matter past the chart:
      T = [[rho_l, rho_l v], [rho_l w, rho_l w v - F]] (ForceMass1D);
      J_t = moment_matrix(q, l + psi x rho_l v);
      J_s = moment_matrix(l_star - (v_t - w) q,
                          M_star - (v_t - w) l + psi x (rho_l w v - F)).
    q and l_star are moments about the frame origin (q is rho_l times the
    section centroid); l and M_star are about the centroid, as in beam
    theory, and J re-bases them at the frame origin.  The rows:
    mass = dT^0; lin_mom = dT^{1..3} - v dT^0; pos_q the position rows of
    div J; ang_mom its angular rows minus psi x dT^{1..3}, which moves
    them back to the centroid.  n . (d psi/dt) is differenced with the
    wider step SECOND_DIFF_REL_STEP, since w is differenced again in s.

    On fields that describe a rod, q = rho_l psi and
    v = d psi/dt + w n, the rows are the classical ones:
      mass: d rho_l/dt + d(rho_l w)/ds
      momentum: rho_l [dv/dt + (dv/ds) w] - dF/ds - rho_l (g - 2 Omega x v)
      position: dq/dt + d(l_star - (v_t - w) q)/ds - rho_l v
      angular: dl/dt + Omega x l + (l_star - v_t q) x (Omega x n)
        + d(M_star - (v_t - w) l)/ds - n x F
    and no row depends on where the frame origin sits.  Other fields are
    not rejected; their rows are those of the divergence, which differ
    from the classical ones by terms in q - rho_l psi and in
    v - d psi/dt - w n.
    """
    curve = f.curve
    n = curve.n(t, s)
    if np.linalg.norm(n) < DEGENERATE_TANGENT_TOL:
        raise DegenerateTangent(
            f"|d psi/ds| < {DEGENERATE_TANGENT_TOL} at (t={t}, s={s})"
        )
    packed = {}

    def rod(xi):
        # U, T and J share one read of the curve and the loads per point.
        key = tuple(xi.tolist())
        if key not in packed:
            tt, ss = key
            n = curve.n(tt, ss)
            psi = curve.psi(tt, ss)
            dpsi = fd.diff(lambda u: curve.psi(u, ss), tt,
                           h=SECOND_DIFF_REL_STEP * max(1.0, abs(tt)))
            v = curve.v(tt, ss)
            slide = float(n @ dpsi)
            q, l, l_star, M_star = (np.asarray(fn(tt, ss), dtype=float)
                                    for fn in (f.q, f.l, f.l_star, f.M_star))
            T = ForceMass1D(f.rho_l(tt, ss), v, curve.v_t(tt, ss, v, n) - slide,
                            f.F(tt, ss)).matrix
            x, (p, flux) = psi.tolist(), T[:, 1:].tolist()
            J = np.array([
                moment_matrix(q, l + cross3(x, p)),
                moment_matrix(l_star - slide * q,
                              M_star - slide * l + cross3(x, flux)),
            ])
            U = np.array([[1.0, 0.0], *zip(dpsi.tolist(), n.tolist())])
            packed[key] = U, T, J, psi, v
        return packed[key]

    _, _, _, psi, v = rod(np.array([t, s], dtype=float))
    g, Omega = conn.g(t, psi), conn.Omega(t, psi)
    chris = PullbackChristoffels(np.zeros((2, 2, 2)), christoffels(g, Omega),
                                 spatial_origin_gamma_A(Omega, psi))
    field = MediumField(tangent_map=lambda xi: rod(xi)[0],
                        torsor_T=lambda xi: rod(xi)[1],
                        torsor_J=lambda xi: rod(xi)[2], domain=curve.domain)
    dT, dJ = divergence(field, [t, s], chris, h=h, one_sided=one_sided)
    pos, ang = moments(dJ)
    return BalanceResidual(mass=dT[0], lin_mom=dT[1:] - v * dT[0],
                           pos_q=pos, ang_mom=ang - cross(psi, dT[1:]))


# Tangent map of the adapted shell chart (t, theta^1, theta^2) into
# (t, theta^1, theta^2, normal).
_SHELL_U = np.eye(4, 3)


def residual_2d(sf: ShellField, loads: ShellLoads, conn, t: float,
                th1: float, th2: float, h: float = None,
                one_sided: bool = False) -> BalanceResidual:
    """Residuals of the thin-medium balance laws at (t, theta1, theta2).

    Slot layout: mass as usual; lin_mom = (in-plane 1, in-plane 2,
    off-plane); ang_mom = (in-plane scalar, off-plane 1, off-plane 2);
    pos_q holds the two transport identity rows of the rotary-inertia
    block: pos_q[0:2] = -kappa b^a_c w^c and pos_q[2] = -(kappa w^c)|_c.
    Those rows are invisible to the five displayed equations and vanish
    whenever the normal field is steady (w = 0), in statics in particular.

    With acc = dv/dt - g + 2 Omega x v and the blocks of
    fields.shell_christoffels, the in-plane/off-plane equations:
      mass: d rho_s/dt + Phi^a_a rho_s
      in-plane momentum: (N^{ba} - kappa w^a w^b)|_b - b^a_b Q^b
        - rho_s c^a . acc
      off-plane momentum: b_ab (N^{ba} - kappa w^a w^b) + Q^b|_b
        - rho_s n . acc
      in-plane angular: eps_cb (N^{cb} - b^c_a M^{ba}
        - kappa (Phi^c + w^c) w^b)
      off-plane angular: M^{ab}|_b - Q^a - d(kappa w^a)/dt
        - kappa (2 Phi^a_b w^b + Phi^c_c w^a)

    All rows are read from connection.divergence on the adapted chart
    (U = [I3; 0], material Christoffels the (t, theta) block, proper
    origin) of the shell torsor of fields.shell_torsor: mass = dT^0,
    lin_mom = -dT^{1..3}, pos_q = (dJ^{10}, dJ^{20}, -dJ^{30}) and
    ang_mom = (-dJ^{12}, dJ^{13}, dJ^{23}).  Three terms follow from that
    form where a hand expansion might write others: the in-plane angular
    row contracts the curvature with M's flux (second) index, which is the
    same for symmetric M; the off-plane angular rows differentiate kappa w,
    so they carry -(d kappa/dt) w; and the flux J^{b30} = kappa w^b that
    yields the pos_q identity rows adds -kappa Phi^a_b w^b to them.

    Each stencil point reads the loads once and builds the shell's chart
    frame once (ShellField.frame: pi, a^-1, c and n on floats), and
    shell_torsor packs T and J from w_surf = c . w on floats.  The
    Christoffels read one frame and one w at the mid-surface point.

    One limit: when both pi and w of a moving shell are finite-difference
    defaults, d(kappa w)/dt nests three small-step differences, an error of
    1e-3 to 1e-2 on dw/dt on a tumbling paraboloid; supply pi, w or varpi
    analytically for such shells.
    """
    rho_s, N, Q, M, kappa = (as_field(f) for f in (
        loads.rho_s, loads.N, loads.Q, loads.M, loads.kappa))
    packed = {}

    def torsor(xi):
        # T and J share one read of the loads and of w_surf per point.
        u = xi.tolist()
        key = tuple(u)
        if key not in packed:
            packed[key] = shell_torsor(rho_s(*u), N(*u), Q(*u), M(*u),
                                       kappa(*u), sf._w_surf(*u))
        return packed[key]

    field = MediumField(tangent_map=lambda xi: _SHELL_U,
                        torsor_T=lambda xi: torsor(xi)[0],
                        torsor_J=lambda xi: torsor(xi)[1], domain=sf.domain)
    G = shell_christoffels(sf, conn, t, th1, th2)
    chris = PullbackChristoffels(G[:3, :3, :3], G, np.eye(4))
    dT, dJ = divergence(field, [t, th1, th2], chris, h=h, one_sided=one_sided)
    return BalanceResidual(
        mass=dT[0],
        lin_mom=-dT[1:],
        pos_q=(dJ[1, 0], dJ[2, 0], -dJ[3, 0]),
        ang_mom=(-dJ[1, 2], dJ[1, 3], dJ[2, 3]),
    )


def residual_3d_cosserat(state: Cosserat3DState, conn, t: float, x,
                         h: float = None, one_sided: bool = False) -> BalanceResidual:
    """Residuals of the space-filling medium with moment fields at (t, x).

    T is indexed T[component, flux direction].  The equations, moments
    about the current point:
      mass: dT^{00}/dt + dT^{0i}/dx^i
      momentum: dT^{i0}/dt + dT^{ij}/dx^j - (T^{00} g^i
        - Omega^i_j (T^{0j} + T^{j0}))
      position: dq^i/dt + Omega^i_j q^j + d l_star^{ir}/dx^r
        + T^{0i} - T^{i0}
      angular (row k, (ijk) cyclic): dl^k/dt + d M_star^{km}/dx^m
        - (q x g)^k + (Omega x l)^k + Omega^j_r l_star^{ir}
        - Omega^i_r l_star^{jr} + T^{ji} - T^{ij}

    All rows are read from connection.divergence of (T, J), with the moment
    fields packed as J[flux, a, b]: J^{i0} = q^i and J^{jk} = l^i along
    the time flux, J^{i0} = l_star^{ir} and J^{jk} = M_star^{ir} along
    flux r, for (ijk) cyclic.
    """
    def J_of(tt, xx):
        q, l = (np.asarray(fn(tt, xx), dtype=float).reshape(3).tolist()
                for fn in (state.q, state.l))
        # Column r of l_star and M_star is the moment pair along flux r.
        l_star, M_star = (np.asarray(fn(tt, xx), dtype=float).reshape(3, 3).T.tolist()
                          for fn in (state.l_star, state.M_star))
        return np.array([moment_rows(q, l), *map(moment_rows, l_star, M_star)])

    return _space_filling_residual(state.T, J_of, conn, t, x, state.domain,
                                   h, one_sided)
