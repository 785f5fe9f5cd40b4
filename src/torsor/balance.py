"""Balance-equation residuals for media of dimension 0 to 3.

Each operator evaluates the left-hand sides of the ten balance equations
(mass, linear momentum, position quantity, angular momentum) for one medium
class, in the chart and frame conventions those equations are stated in:
angular balances about the current point, position-quantity balances about
the spatial origin of the chart.  A residual of zero means the field
satisfies the balance law at that chart point.

The pointwise medium (d = 0) and the two space-filling media (d = 3) are
views of one operator: their residuals are rows of connection.divergence
of the stress-mass T and the moment field J, the paper's
divergence-free-torsor principle itself, on the worldline chart with the
origin at the spatial origin (d = 0) or on the identity chart with the
proper origin (d = 3).  The slender and thin media (d = 1, 2) keep their
hand-expanded forms.

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
    MediumField,
    ShellField,
    ShellLoads,
    _stress_mass,
    shell_christoffels,
)
from .vecmath import as_field, cross, moment_matrix, moments


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


def _chart_slide(curve, tt, ss):
    """Tangential rate n . (d psi/dt) at which the chart itself slides.

    Zero for static charts and for charts that move only normally to
    themselves; equals v_t on a chart glued to the matter.  The step is
    widened because the result feeds further differences.
    """
    n = curve.n(tt, ss)
    h_t = SECOND_DIFF_REL_STEP * max(1.0, abs(tt))
    dpsi = fd.diff(lambda u: curve.psi(u, ss), tt, h=h_t)
    return float(n @ dpsi)


def residual_1d(f: Cosserat1DField, conn, t: float, s: float,
                h: float = None, one_sided: bool = False) -> BalanceResidual:
    """Residuals of the four slender-medium balance laws at (t, s).

    With the relative tangential speed w = v_t - n . (d psi/dt) of matter
    past the chart:
      mass: d rho_l/dt + d(rho_l w)/ds
      momentum: rho_l [dv/dt + (dv/ds) w] - dF/ds - rho_l (g - 2 Omega x v)
      position: dq/dt + d(l_star - (v_t - w) q)/ds - rho_l v
      angular: dl/dt + Omega x l + l_star x (Omega x n)
        + d(M_star - (v_t - w) l)/ds - n x F
    On a chart that does not slide along itself (any static chart in
    particular) w = v_t and the classical forms are recovered.  The fluxes
    l_star and M_star already carry the advective transport through the
    section, so only the chart's own slide is subtracted.

    Reference points: q and l_star are moments about the frame origin (q is
    rho_l times the section centroid position); l and M_star are moments
    about the section centroid itself, as in beam theory.
    """
    curve = f.curve
    n = curve.n(t, s)
    if np.linalg.norm(n) < DEGENERATE_TANGENT_TOL:
        raise DegenerateTangent(
            f"|d psi/ds| < {DEGENERATE_TANGENT_TOL} at (t={t}, s={s})"
        )
    psi = curve.psi(t, s)
    g = conn.g(t, psi)
    Om = conn.Omega(t, psi)
    args = (t, s)
    bounds = curve.domain

    def d(fn, i):
        return fd.partial(fn, args, i, h=h, bounds=bounds, one_sided=one_sided)

    def slide(tt, ss):
        return _chart_slide(curve, tt, ss)

    rho_l = float(f.rho_l(t, s))
    v = curve.v(t, s)
    mass = d(lambda tt, ss: float(f.rho_l(tt, ss)), 0) + d(
        lambda tt, ss: float(f.rho_l(tt, ss))
        * (curve.v_t(tt, ss) - slide(tt, ss)),
        1,
    )
    v_dot = curve.v_dot(t, s, h=h)
    dv_ds = d(curve.v, 1)
    lin = (
        rho_l * (v_dot + dv_ds * (curve.v_t(t, s) - slide(t, s)))
        - d(f.F, 1)
        - rho_l * (g - 2.0 * cross(Om, v))
    )
    pos = (
        d(f.q, 0)
        + d(lambda tt, ss: np.asarray(f.l_star(tt, ss), dtype=float)
            - slide(tt, ss) * np.asarray(f.q(tt, ss), dtype=float), 1)
        - rho_l * v
    )
    ang = (
        d(f.l, 0)
        + cross(Om, f.l(t, s))
        + cross(f.l_star(t, s), cross(Om, n))
        + d(lambda tt, ss: np.asarray(f.M_star(tt, ss), dtype=float)
            - slide(tt, ss) * np.asarray(f.l(tt, ss), dtype=float), 1)
        - cross(n, f.F(t, s))
    )
    return BalanceResidual(mass=mass, lin_mom=lin, pos_q=pos, ang_mom=ang)


def _surf_div_first(field_fn, args, G, trG, h, bounds, one_sided):
    """out[a] = d_b A[b, a] + Gamma^a_bc A[b, c] + Gamma^c_cb A[b, a]."""
    dA = [fd.partial(field_fn, args, i + 1, h=h, bounds=bounds,
                     one_sided=one_sided) for i in range(2)]
    A = np.asarray(field_fn(*args), dtype=float)
    term1 = sum(dA[b][b, :] for b in range(2))
    return term1 + np.einsum("abc,bc->a", G, A) + trG @ A


def _surf_div_second(field_fn, args, G, trG, h, bounds, one_sided):
    """out[a] = d_b M[a, b] + Gamma^a_bc M[c, b] + Gamma^b_bc M[a, c]."""
    dM = [fd.partial(field_fn, args, i + 1, h=h, bounds=bounds,
                     one_sided=one_sided) for i in range(2)]
    M = np.asarray(field_fn(*args), dtype=float)
    term1 = sum(dM[b][:, b] for b in range(2))
    return term1 + np.einsum("abc,cb->a", G, M) + M @ trG


def _surf_div_vec(field_fn, args, G, h, bounds, one_sided):
    """out = d_b Q[b] + Gamma^c_bc Q[b]."""
    dQ = [fd.partial(field_fn, args, i + 1, h=h, bounds=bounds,
                     one_sided=one_sided) for i in range(2)]
    Q = np.asarray(field_fn(*args), dtype=float)
    term1 = sum(dQ[b][b] for b in range(2))
    return term1 + np.einsum("cbc,b->", G, Q)


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

    The in-plane/off-plane equations:
      mass: d rho_s/dt + Phi^a_a rho_s
      in-plane momentum: (N^{ba} - kappa w^a w^b)|_b - b^a_b Q^b
        + c^a_i (rho_s (g - 2 Omega x v) - rho_s dv/dt)^i
      off-plane momentum: b_ab (N^{ba} - kappa w^a w^b) + Q^b|_b
        + n . (rho_s (g - 2 Omega x v) - rho_s dv/dt)
      in-plane angular: eps_cb (N^{cb} - b^c_a M^{ab}
        - kappa (Phi^c + w^c) w^b)
      off-plane angular: M^{ab}|_b - Q^a - kappa (dw^a/dt + Phi^a_b w^b
        + Phi^c_c w^a)
    """
    args = (t, th1, th2)
    bounds = sf.domain
    ch = shell_christoffels(sf, conn, t, th1, th2)
    a = sf.metric(t, th1, th2)
    c = sf.projector(t, th1, th2)
    n = sf.n(t, th1, th2)
    v = sf.v(t, th1, th2)
    w = sf.w_surf(t, th1, th2)
    x = sf.x(t, th1, th2)
    g = conn.g(t, x)
    Om = conn.Omega(t, x)

    rho_s_f = as_field(loads.rho_s)
    N_f = as_field(loads.N)
    Q_f = as_field(loads.Q)
    M_f = as_field(loads.M)
    kappa_f = as_field(loads.kappa)

    rho_s = float(rho_s_f(*args))
    N = np.asarray(N_f(*args), dtype=float)
    Q = np.asarray(Q_f(*args), dtype=float)
    M = np.asarray(M_f(*args), dtype=float)
    kappa = float(kappa_f(*args))

    G = ch.Gamma_abc
    trG = np.einsum("ccb->b", G)
    b_low = ch.b_ab
    b_mix = np.linalg.solve(a, b_low)

    mass = (
        fd.partial(lambda *u: float(rho_s_f(*u)), args, 0, h=h, bounds=bounds,
                   one_sided=one_sided)
        + np.trace(ch.Phi_ab) * rho_s
    )

    def X_f(*u):
        cw = sf.w_surf(*u)
        return (
            np.asarray(N_f(*u), dtype=float)
            - float(kappa_f(*u)) * np.outer(cw, cw)
        )

    X = X_f(*args)
    accel = rho_s * (g - 2.0 * cross(Om, v)) - rho_s * sf.v_dot(t, th1, th2)
    lin_in = (
        _surf_div_first(X_f, args, G, trG, h, bounds, one_sided)
        - b_mix @ Q
        + c @ accel
    )
    lin_off = (
        np.einsum("ab,ba->", b_low, X)
        + _surf_div_vec(lambda *u: np.asarray(Q_f(*u), dtype=float), args, G,
                        h, bounds, one_sided)
        + n @ accel
    )

    Y = N - b_mix @ M - kappa * np.outer(ch.Phi_a + w, w)
    ang_in = Y[0, 1] - Y[1, 0]
    w_dot = sf.w_surf_dot(t, th1, th2)
    ang_off = (
        _surf_div_second(lambda *u: np.asarray(M_f(*u), dtype=float), args, G,
                         trG, h, bounds, one_sided)
        - Q
        - kappa * (w_dot + ch.Phi_ab @ w + np.trace(ch.Phi_ab) * w)
    )

    def kw_f(*u):
        return float(kappa_f(*u)) * sf.w_surf(*u)

    id_03 = -_surf_div_vec(kw_f, args, G, h, bounds, one_sided)
    id_b0 = -kappa * (b_mix @ w)

    return BalanceResidual(
        mass=mass,
        lin_mom=np.array([lin_in[0], lin_in[1], lin_off]),
        pos_q=np.array([id_b0[0], id_b0[1], id_03]),
        ang_mom=np.array([ang_in, ang_off[0], ang_off[1]]),
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
        l_star = np.asarray(state.l_star(tt, xx), dtype=float)
        M_star = np.asarray(state.M_star(tt, xx), dtype=float)
        return np.array(
            [moment_matrix(state.q(tt, xx), state.l(tt, xx))]
            + [moment_matrix(l_star[:, r], M_star[:, r]) for r in range(3)])

    return _space_filling_residual(state.T, J_of, conn, t, x, state.domain,
                                   h, one_sided)
