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

Every view takes a batch of m points, each coordinate of shape (m,) and
x of shape (3, m), and runs one divergence with a leading point axis,
T of shape (m, d+1, 4), J (m, d+1, 4, 4) and the Christoffels
(m, 4, 4, 4); its residuals carry that axis, and a single point is a
batch of one.  Every medium's fields take a batch and return their values
with the point axis last, so each field is read on a whole batch of
probes at once.  The scenario cases bound the batch at
connection.PROBE_CHUNK points per call.

One private scaffold, _view, runs every view and alone calls the
divergence.  The d = 0, 1 and 2 views take U, T, J and what their
Christoffels and rows need from one read of the medium per probe batch:
the batch's points, and each side of a stencil block (_read_once).  The
d = 3 views read T and J from separate fields, so they keep no memo.
"""

from dataclasses import dataclass

import numpy as np

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
    _dot,
    _partial,
    _stress_mass,
    cosserat_J,
    rod_torsor,
    shell_christoffels,
    shell_torsor,
)
from .vecmath import cross3, moment_matrix, moments


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


def _view(field, coords, chris, rows, h, one_sided) -> BalanceResidual:
    """The residuals of one view at the points coords, from the one call
    of connection.divergence.

    coords are the chart coordinates, floats for one point or (m,) each
    for a batch, stacked into xi (m, d+1).  chris(xi) gives the
    PullbackChristoffels at xi, and rows(dT, dJ, xi) reads (mass, lin_mom,
    pos_q, ang_mom) off the divergence, dT (m, 4) and dJ (m, 4, 4).  Float
    coordinates drop the point axis.
    """
    xi = np.column_stack(coords).astype(float)
    dT, dJ = divergence(field, xi, chris(xi), h=h, one_sided=one_sided)
    out = rows(dT, dJ, xi)
    return BalanceResidual(*(out if np.ndim(coords[0])
                             else (row[0] for row in out)))


def _rows(dT, dJ, xi):
    """The rows as the divergence gives them, slot by slot."""
    return (dT[:, 0], dT[:, 1:], *moments(dJ))


def _read_once(read, domain=None):
    """(field, once): a MediumField whose U, T and J are the first three
    entries of read(xi), and the memo once(xi) that runs read once per
    probe batch, for U, T, J and whatever else a view keeps of it.  It
    keeps the first batch, the view's points, and the last three others:
    the stencil sides T has just read, which J then differences."""
    packed = {}

    def once(xi):
        key = xi.tobytes()
        if key not in packed:
            if len(packed) == 4:
                del packed[list(packed)[1]]
            packed[key] = read(xi)
        return packed[key]

    return MediumField(*(lambda xi, i=i: once(xi)[i] for i in range(3)),
                       domain=domain), once


def residual_pointwise(traj, conn, t, h: float = None) -> BalanceResidual:
    """Residuals of the four pointwise balance laws along a trajectory.

    traj takes a batch of times t (m,) and returns (m, p, q, l) point axis
    last, (m,) and (3, m) each.  The equations: dm/dt = 0;
    dp/dt = m (g - 2 Omega x v); dq/dt = p (moments about the spatial
    origin, so x = q / m); dl/dt + Omega x l0 = x cross the momentum law's
    right side, with l0 = l - x x p the moment about the point itself.

    All rows are read from connection.divergence on the worldline chart
    xi = (t): U = (1, v), T = (m, p), J = moment_matrix(q, l), no material
    Christoffels, and the origin at the spatial origin of the chart.
    """
    def read(xi):
        # U, T and J share one read of the trajectory per probe batch.
        tt = xi[:, 0]
        # a holds (m, p, q, l) at each point, point axis last: (10, k).
        a = np.concatenate([np.reshape(u, (-1, len(tt)))
                            for u in traj(tt)], dtype=float)
        T = a[:4].T[:, None]
        return (T.swapaxes(-1, -2) / a[0, :, None, None], T,
                moment_matrix(a[4:7].T[:, None], a[7:].T[:, None]),
                a[4:7] / a[0])

    field, once = _read_once(read)
    return _view(field, (t,), lambda xi: PullbackChristoffels.spatial_origin(
        conn, xi[:, 0], once(xi)[3], 1), _rows, h, False)


def _at_events(xi, *fns):
    """fns of a medium filling space at the events of a batch xi (m, 4),
    t its first column and x (3, m) the others; point axis last."""
    events = np.ascontiguousarray(xi.T)
    return [np.asarray(fn(events[0], events[1:]), dtype=float) for fn in fns]


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
    """
    def T_of(xi):
        m = len(xi)
        rho, v, sigma = _at_events(xi, medium.rho, medium.v,
                                   medium.sigma)
        T = _stress_mass(rho.reshape(m), v.reshape(3, m),
                         sigma.reshape(3, 3, m).swapaxes(0, 1))
        return T.transpose(2, 0, 1)

    def rows(dT, dJ, xi):
        # The advective form: the momentum rows less v times the mass row.
        (v,) = _at_events(xi, medium.v)
        return (dT[:, 0], dT[:, 1:] - v.reshape(3, len(xi)).T * dT[:, :1],
                *moments(dJ))

    field = MediumField(lambda xi: _EYE4, T_of, None, medium.domain)
    return _view(field, (t, *np.reshape(x, (3, -1))),
                 lambda xi: PullbackChristoffels.identity_embedding(
                     conn, xi[:, 0], xi[:, 1:].T), rows, h, one_sided)


def residual_1d(f: Cosserat1DField, conn, t, s, h: float = None,
                one_sided: bool = False) -> BalanceResidual:
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
    The batch's points and each side of its stencil read the curve and
    the loads once, and fields.rod_torsor packs T and J.

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

    def read(xi):
        # U, T and J share one read of the curve and the loads per batch.
        coords = tt, ss = np.ascontiguousarray(xi.T)
        k = len(tt)
        n, psi, v = curve.n(tt, ss), curve.psi(tt, ss), curve.v(tt, ss)
        dpsi = _partial(curve.psi, coords, 0, SECOND_DIFF_REL_STEP
                        * np.maximum(1.0, np.abs(tt)))
        slide = _dot(n, dpsi)
        rho_l = np.asarray(f.rho_l(*coords), dtype=float).reshape(k)
        F, q, l, l_star, M_star = (
            np.asarray(fn(*coords), dtype=float).reshape(3, k)
            for fn in (f.F, f.q, f.l, f.l_star, f.M_star))
        U = np.zeros((k, 4, 2))
        U[:, 0, 0] = 1.0
        U[:, 1:, 0], U[:, 1:, 1] = dpsi.T, n.T
        return (U, *rod_torsor(
            rho_l, v, curve.v_t(tt, ss, v, n) - slide, F, psi,
            slide, q, l, l_star, M_star), psi, v)

    def chris(xi):
        U, _, _, psi, _ = once(xi)
        bad = np.sqrt(np.sum(U[:, 1:, 1] ** 2, axis=1)) < DEGENERATE_TANGENT_TOL
        if bad.any():
            tt, ss = xi[np.argmax(bad)].tolist()
            raise DegenerateTangent(
                f"|d psi/ds| < {DEGENERATE_TANGENT_TOL} at (t={tt}, s={ss})")
        return PullbackChristoffels.spatial_origin(conn, xi[:, 0], psi, 2)

    def rows(dT, dJ, xi):
        psi, v = once(xi)[3:]
        pos, ang = moments(dJ)
        return (dT[:, 0], dT[:, 1:] - v.T * dT[:, :1], pos,
                ang - np.array(cross3(psi, dT[:, 1:].T)).T)

    field, once = _read_once(read, curve.domain)
    return _view(field, (t, s), chris, rows, h, one_sided)


# Tangent map of the adapted shell chart (t, theta^1, theta^2) into
# (t, theta^1, theta^2, normal).
_SHELL_U = np.eye(4, 3)
_SHELL_U.setflags(write=False)


def residual_2d(sf: ShellField, loads: ShellLoads, conn, t, th1, th2,
                h: float = None, one_sided: bool = False) -> BalanceResidual:
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

    The batch's points and each side of its stencil read the loads once
    and build the shell's chart frame once (ShellField.frame), and
    shell_torsor packs T and J from w_surf = c . w.  The frame and w at the
    batch's own points are built once, for their torsor and for the
    Christoffels.

    One limit: when both pi and w of a moving shell are finite-difference
    defaults, d(kappa w)/dt nests three small-step differences, an error of
    1e-3 to 1e-2 on dw/dt on a tumbling paraboloid; supply pi, w or varpi
    analytically for such shells.
    """
    def read(xi):
        # U, T and J share one read of the loads, the frame and w per batch.
        coords = tuple(np.ascontiguousarray(xi.T))
        fr = sf.frame(*coords)
        w = sf._normal_rate(*coords, fr.n)
        return (_SHELL_U, *shell_torsor(
            *(fn(*coords) for fn in (loads.rho_s, loads.N, loads.Q, loads.M,
                                     loads.kappa)),
            sf._w_surf(*coords, fr, w)), fr, w)

    def chris(xi):
        # The frame and w at the batch's own points, as their torsor's.
        G = shell_christoffels(sf, conn, *np.ascontiguousarray(xi.T),
                               *once(xi)[3:])
        return PullbackChristoffels(G[:, :3, :3, :3], G, _EYE4)

    def rows(dT, dJ, xi):
        return (dT[:, 0], -dT[:, 1:],
                np.stack([dJ[:, 1, 0], dJ[:, 2, 0], -dJ[:, 3, 0]], axis=-1),
                np.stack([-dJ[:, 1, 2], dJ[:, 1, 3], dJ[:, 2, 3]], axis=-1))

    field, once = _read_once(read, sf.domain)
    return _view(field, (t, th1, th2), chris, rows, h, one_sided)


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
    """
    def T_of(xi):
        (T,) = _at_events(xi, state.T)
        return T.reshape(4, 4, len(xi)).transpose(2, 1, 0)

    def J_of(xi):
        m = len(xi)
        q, l, l_star, M_star = _at_events(xi, state.q, state.l,
                                          state.l_star, state.M_star)
        return cosserat_J(q.reshape(3, m), l.reshape(3, m),
                          l_star.reshape(3, 3, m), M_star.reshape(3, 3, m))

    field = MediumField(lambda xi: _EYE4, T_of, J_of, state.domain)
    return _view(field, (t, *np.reshape(x, (3, -1))),
                 lambda xi: PullbackChristoffels.identity_embedding(
                     conn, xi[:, 0], xi[:, 1:].T), _rows, h, one_sided)
