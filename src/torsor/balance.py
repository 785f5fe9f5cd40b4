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

The space-filling views, residual_cauchy and residual_3d_cosserat, also
take a batch of events, t of shape (m,) and x of shape (3, m), through one
divergence with a leading point axis; their residuals then carry that
axis.  A medium built with vectorized=True is read on the whole batch,
fields of any other medium point by point (the field adapter
_point_axis_last), never inside the divergence.  The scenario cases
bound the batch at library.PROBE_CHUNK points per call.
"""

from dataclasses import dataclass

import numpy as np

from . import fd
from .connection import _EYE4, PullbackChristoffels, divergence
from .errors import DegenerateTangent
from .fields import (
    DEGENERATE_TANGENT_TOL,
    SECOND_DIFF_REL_STEP,
    CauchyMedium,
    Cosserat1DField,
    Cosserat3DState,
    MediumField,
    ShellField,
    ShellLoads,
    _stress_mass,
    cosserat_J,
    rod_torsor,
    shell_christoffels,
    shell_torsor,
)
from .vecmath import as_field, cross, moment_matrix, moments, triple


@dataclass
class BalanceResidual:
    """The ten balance residuals: 1 + 3 + 3 + 3 scalars.

    mass: scalar; lin_mom, pos_q, ang_mom: 3-vectors.  Operators with a
    different natural split (the thin-medium one) document how their rows
    map into these slots.  The residuals of a batch of m points carry a
    leading point axis: mass has shape (m,) and the 3-vectors (m, 3).
    """

    mass: float
    lin_mom: np.ndarray
    pos_q: np.ndarray
    ang_mom: np.ndarray

    def __post_init__(self):
        if isinstance(self.mass, np.ndarray) and self.mass.ndim:
            self.mass = self.mass.astype(float, copy=False)
            shape = (len(self.mass), 3)
        else:
            self.mass = float(self.mass)
            shape = 3
        self.lin_mom = np.asarray(self.lin_mom, dtype=float).reshape(shape)
        self.pos_q = np.asarray(self.pos_q, dtype=float).reshape(shape)
        self.ang_mom = np.asarray(self.ang_mom, dtype=float).reshape(shape)

    def as_array(self) -> np.ndarray:
        """All ten residuals: (mass, lin_mom, pos_q, ang_mom); one row of
        ten per point of a batch."""
        mass = (self.mass[:, None] if isinstance(self.mass, np.ndarray)
                else [self.mass])
        return np.concatenate(
            [mass, self.lin_mom, self.pos_q, self.ang_mom], axis=-1
        )

    def max_abs(self):
        """The largest |residual|: a float, or one per point of a batch."""
        worst = np.max(np.abs(self.as_array()), axis=-1)
        return float(worst) if worst.ndim == 0 else worst

    def to_dict(self) -> dict:
        return {
            "mass": np.asarray(self.mass).tolist(),
            "linear_momentum": self.lin_mom.tolist(),
            "position_quantity": self.pos_q.tolist(),
            "angular_momentum": self.ang_mom.tolist(),
            "max_abs": np.asarray(self.max_abs()).tolist(),
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
    chris = PullbackChristoffels.spatial_origin(conn, t, pt.q / pt.m, 1)
    field = MediumField(tangent_map=U, torsor_T=T_of, torsor_J=J_of)
    dT, dJ = divergence(field, [t], chris, h=h)
    pos, ang = moments(dJ)
    return BalanceResidual(mass=dT[0], lin_mom=dT[1:], pos_q=pos, ang_mom=ang)


def _point_axis_last(medium, xi, *fns):
    """Each field fn(t, x) of a medium at every event of the batch xi
    (m, 4), as an array with the point axis last.

    A field of a vectorized medium is called once, on t of shape (m,) and
    x of shape (3, m).  Any other field is called point by point, on t and
    x as one event gives them, and its values are stacked.
    """
    if medium.vectorized:
        events = np.ascontiguousarray(xi.T)
        t, x = events[0], events[1:]
        return [np.asarray(fn(t, x), dtype=float) for fn in fns]
    return [np.stack([np.asarray(fn(p[0], p[1:]), dtype=float) for p in xi],
                     axis=-1) for fn in fns]


def _space_filling_residual(torsor_T, torsor_J, conn, t, x, domain,
                            h, one_sided, v=None) -> BalanceResidual:
    """The ten balance rows of a medium filling space at (t, x), from
    connection.divergence.

    The events are one (a float t and a 3-vector x), which is a batch of
    one, or a batch of m, t of shape (m,) and x of shape (3, m), whose
    residuals carry a leading point axis.  The material chart is the
    space-time chart (U = I) and the origin is the proper one
    (Gamma_A = I).  torsor_T(xi) returns T[point, flux, component] and
    torsor_J(xi) J[point, flux, a, b], skew in (a, b), at the batch
    xi = (t, x) of shape (m, 4); or torsor_J is None for a medium without
    moment fields.  v(xi), if given, returns the velocity (3, m), and the
    momentum rows take the advective form.
    """
    xi = np.column_stack([np.reshape(np.asarray(t, dtype=float), -1),
                          np.reshape(np.asarray(x, dtype=float), (3, -1)).T])
    field = MediumField(tangent_map=lambda xi: _EYE4, torsor_T=torsor_T,
                        torsor_J=torsor_J, domain=domain)
    chris = PullbackChristoffels.identity_embedding(conn, xi[:, 0],
                                                    xi[:, 1:].T)
    dT, dJ = divergence(field, xi, chris, h=h, one_sided=one_sided)
    pos, ang = moments(dJ)
    lin = dT[:, 1:] if v is None else dT[:, 1:] - v(xi).T * dT[:, :1]
    if np.ndim(t):
        return BalanceResidual(dT[:, 0], lin, pos, ang)
    return BalanceResidual(dT[0, 0], lin[0], pos[0], ang[0])


def residual_cauchy(medium: CauchyMedium, conn, t, x,
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
    measure its asymmetry.  T is packed with its flux index first:
    _stress_mass of the columns of sigma, which is T^T bit for bit.

    (t, x) is one event, or a batch: t of shape (m,) and x of shape (3, m),
    whose residuals carry a leading point axis.  Either way the rows come
    from one divergence of the whole batch.  A vectorized medium is read
    once per stencil offset for the whole batch; any other medium point by
    point.
    """
    def T_of(xi):
        m = len(xi)
        rho, v, sigma = _point_axis_last(medium, xi, medium.rho, medium.v,
                                         medium.sigma)
        T = _stress_mass(rho.reshape(m), v.reshape(3, m),
                         sigma.reshape(3, 3, m).swapaxes(0, 1))
        return T.transpose(2, 0, 1)

    def v_of(xi):
        return _point_axis_last(medium, xi, medium.v)[0].reshape(3, len(xi))

    return _space_filling_residual(T_of, None, conn, t, x, medium.domain, h,
                                   one_sided, v_of)


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
    Each stencil point reads the curve and the loads once, and
    fields.rod_torsor packs T and J from floats.

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
            T, J = rod_torsor(
                f.rho_l(tt, ss), v.tolist(), curve.v_t(tt, ss, v, n) - slide,
                triple(f.F(tt, ss)), psi.tolist(), slide,
                *(triple(fn(tt, ss)) for fn in (f.q, f.l, f.l_star, f.M_star)))
            U = np.array([[1.0, 0.0], *zip(dpsi.tolist(), n.tolist())])
            packed[key] = U, T, J, psi, v
        return packed[key]

    _, _, _, psi, v = rod(np.array([t, s], dtype=float))
    chris = PullbackChristoffels.spatial_origin(conn, t, psi, 2)
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
_SHELL_U.setflags(write=False)


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
    frame and w at the mid-surface point are built once, for its torsor
    and for the Christoffels.

    One limit: when both pi and w of a moving shell are finite-difference
    defaults, d(kappa w)/dt nests three small-step differences, an error of
    1e-3 to 1e-2 on dw/dt on a tumbling paraboloid; supply pi, w or varpi
    analytically for such shells.
    """
    rho_s, N, Q, M, kappa = (as_field(f) for f in (
        loads.rho_s, loads.N, loads.Q, loads.M, loads.kappa))
    packed = {}

    def torsor(xi, fr=None, w=None):
        # T and J share one read of the loads and of w_surf per point.
        u = xi.tolist()
        key = tuple(u)
        if key not in packed:
            packed[key] = shell_torsor(rho_s(*u), N(*u), Q(*u), M(*u),
                                       kappa(*u), sf._w_surf(*u, fr, w))
        return packed[key]

    # The mid-surface frame and w serve the centre torsor and the
    # Christoffels alike.
    xi = np.array([t, th1, th2], dtype=float)
    u = xi.tolist()
    fr = sf.frame(*u)
    w = sf._normal_rate(*u, fr.n)
    torsor(xi, fr, w)
    field = MediumField(tangent_map=lambda xi: _SHELL_U,
                        torsor_T=lambda xi: torsor(xi)[0],
                        torsor_J=lambda xi: torsor(xi)[1], domain=sf.domain)
    G = shell_christoffels(sf, conn, t, th1, th2, fr, w)
    chris = PullbackChristoffels(G[:3, :3, :3], G, _EYE4)
    dT, dJ = divergence(field, xi, chris, h=h, one_sided=one_sided)
    return BalanceResidual(
        mass=dT[0],
        lin_mom=-dT[1:],
        pos_q=(dJ[1, 0], dJ[2, 0], -dJ[3, 0]),
        ang_mom=(-dJ[1, 2], dJ[1, 3], dJ[2, 3]),
    )


def residual_3d_cosserat(state: Cosserat3DState, conn, t, x,
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
    flux r, for (ijk) cyclic, by fields.cosserat_J.

    (t, x) is one event, or a batch: t of shape (m,) and x of shape (3, m),
    whose residuals carry a leading point axis.  A vectorized state is
    read once per stencil offset for the whole batch; any other state
    point by point.
    """
    def T_of(xi):
        (T,) = _point_axis_last(state, xi, state.T)
        return T.reshape(4, 4, len(xi)).transpose(2, 1, 0)

    def J_of(xi):
        m = len(xi)
        q, l, l_star, M_star = _point_axis_last(
            state, xi, state.q, state.l, state.l_star, state.M_star)
        return cosserat_J(q.reshape(3, m), l.reshape(3, m),
                          l_star.reshape(3, 3, m), M_star.reshape(3, 3, m))

    return _space_filling_residual(T_of, J_of, conn, t, x, state.domain, h,
                                   one_sided)
