"""End-to-end acceptance suite.

One test per advertised guarantee, each printing a single
"criterion NN PASS/FAIL" line straight to the terminal (bypassing
pytest's capture) with the measured numbers.  The tolerances here are
contract: they are asserted exactly as documented in the README and must
not be loosened to make a failing build pass.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from torsor.affine import (
    GalileanFrameChange,
    PointwiseTorsor,
    Torsor,
    compose,
    transform_point,
    transform_torsor,
)
from torsor.balance import (
    residual_1d,
    residual_2d,
    residual_3d_cosserat,
    residual_cauchy,
)
from torsor.cli import bundled_scenarios, load_scenario
from torsor.connection import (
    GalileanConnection,
    PullbackChristoffels,
    divergence,
)
from torsor.fields import (
    Cosserat1DField,
    Cosserat3DState,
    Curve1D,
    ShellField,
    ShellLoads,
    assemble_cauchy_T,
)
from torsor.library import CASES, manufactured_cauchy
from torsor.reduction import (
    CrossSection,
    ThicknessRule,
    _decompose_stress_mass,
    projector_matrix,
    reduce_3d_to_1d_J,
    reduce_3d_to_1d_T,
    reduce_3d_to_1d_force_mass,
    reduce_3d_to_2d,
)
from torsor.simulate import IntegratorConfig, PointwiseState, run_scenario

from per_point import batched


def _report(capsys, num, name, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# 1. group and representation laws against the extended-matrix oracle


def test_criterion_01_group_representation_oracle(capsys):
    rng = np.random.default_rng(101)
    tol = 1e-12
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        f1 = GalileanFrameChange.random(rng)
        f2 = GalileanFrameChange.random(rng)
        f3 = GalileanFrameChange.random(rng)
        M1, M2 = f1.extended, f2.extended

        dev = np.max(np.abs(compose(f1, f2).extended - M1 @ M2))
        dev = max(dev, np.max(np.abs(
            f1.inverse().extended @ M1 - np.eye(5))))
        dev = max(dev, np.max(np.abs(
            compose(compose(f1, f2), f3).extended
            - compose(f1, compose(f2, f3)).extended)))

        V = rng.uniform(-1.0, 1.0, size=4)
        dev = max(dev, np.max(np.abs(
            transform_point(f1, V)
            - np.linalg.solve(M1, np.concatenate(([1.0], V)))[1:])))

        A = rng.uniform(-1.0, 1.0, size=(4, 4))
        tau = Torsor(rng.uniform(-1.0, 1.0, size=4), A - A.T)
        Minv = np.linalg.inv(M1)
        dev = max(dev, np.max(np.abs(
            transform_torsor(f1, tau).extended
            - Minv @ tau.extended @ Minv.T)))
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 1.0
    line = _report(capsys, 1, "group laws vs 5x5 extended-matrix oracle", ok,
                   f"max dev {worst:.3e} tol {tol:g}, {elapsed:.2f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# 2. pointwise torsor transformation law


def test_criterion_02_pointwise_transformation_law(capsys):
    rng = np.random.default_rng(102)
    tol = 1e-12
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(0.1, 3.0)
        l0, v, x = (rng.uniform(-1.0, 1.0, size=3) for _ in range(3))
        prop = PointwiseTorsor.proper(m, l0)
        f = GalileanFrameChange(u=v, k=x)
        lab = PointwiseTorsor.from_torsor(
            transform_torsor(f.inverse(), prop.to_torsor()))
        worst = max(
            worst,
            abs(lab.m - m),
            float(np.max(np.abs(lab.p - m * v))),
            float(np.max(np.abs(lab.q - m * x))),
            float(np.max(np.abs(lab.l - (l0 + np.cross(x, m * v))))),
        )
    ok = worst < tol
    line = _report(capsys, 2, "boost+translation law p=mv, q=mx, l=l0+x cross mv", ok,
                   f"max dev {worst:.3e} tol {tol:g}")
    assert ok, line


# ---------------------------------------------------------------------------
# 3. mass invariance


def test_criterion_03_mass_invariance(capsys):
    rng = np.random.default_rng(103)
    tol = 1e-12
    worst = 0.0
    for _ in range(1000):
        f = GalileanFrameChange.random(rng)
        A = rng.uniform(-1.0, 1.0, size=(4, 4))
        tau = Torsor(rng.uniform(-1.0, 1.0, size=4), A - A.T)
        worst = max(worst, abs(transform_torsor(f, tau).T[0] - tau.T[0]))
    ok = worst < tol
    line = _report(capsys, 3, "mass component invariant under frame changes", ok,
                   f"max dev {worst:.3e} tol {tol:g}")
    assert ok, line


# ---------------------------------------------------------------------------
# 4. classical-medium residual: accuracy and observed order


def test_criterion_04_cauchy_residual_convergence(capsys):
    t0 = time.perf_counter()
    medium, conn, exact = manufactured_cauchy()
    t, x = 0.4, np.array([0.3, -0.6, 0.5])
    ref = exact(t, x)

    def err_at(h):
        res = residual_cauchy(medium, conn, t, x, h=h)
        return float(np.max(np.abs(res.as_array() - ref)))

    hs = [4e-3, 2e-3, 1e-3]
    errs = [err_at(h) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    fine = err_at(1e-5)
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 2.0) < 0.2 and fine < 1e-5 and elapsed < 5.0
    line = _report(capsys, 4, "manufactured-field residual order and accuracy", ok,
                   f"order {slope:.3f} (2.0+/-0.2), err(h=1e-5) "
                   f"{fine:.3e} < 1e-5, {elapsed:.2f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# 5. stress symmetry recovery from the moment divergence


def _space_filling_read(T_mat_fn):
    """The read of a medium whose chart is space-time: tangent map
    identity, no moment fields; T_mat_fn gives T at one event, and a
    batch of events is read one event at a time."""
    def read(xi):
        T = np.array([np.asarray(T_mat_fn(p[0], p[1:]), dtype=float).T
                      for p in xi])
        return np.eye(4), T, np.zeros((len(xi), 4, 4, 4))

    return read


def test_criterion_05_symmetry_recovery(capsys):
    rng = np.random.default_rng(105)
    tol = 1e-12
    conn = GalileanConnection(
        g=np.array([0.1, -0.2, 0.3]), Omega=np.array([0.2, -0.1, 0.3]))
    worst = 0.0
    for _ in range(20):
        B = rng.uniform(-1.0, 1.0, size=(4, 4))
        C = rng.uniform(-1.0, 1.0, size=(4, 4))
        sh = rng.uniform(0.0, 2.0 * np.pi, size=(4, 4))

        def T_mat(t, x, B=B, C=C, sh=sh):
            return B + C * np.sin(x[0] + x[1] - x[2] + t + sh)

        medium = _space_filling_read(T_mat)
        t = rng.uniform(-1.0, 1.0)
        x = rng.uniform(-1.0, 1.0, size=3)
        xi = np.concatenate(([t], x))[None]
        chris = PullbackChristoffels.identity_embedding(conn, t, x)
        _, (out,) = divergence(medium, xi, chris)
        T = T_mat(t, x)
        worst = max(worst, float(np.max(np.abs(out - (T.T - T)))))
    ok = worst < tol
    line = _report(capsys, 5, "zero-moment divergence equals stress antisymmetry",
                   ok, f"max dev {worst:.3e} tol {tol:g}")
    assert ok, line


# ---------------------------------------------------------------------------
# 6. pointwise dynamics: rotating frame and projectile


def test_criterion_06_pointwise_dynamics(capsys):
    # Rotating chart about e3: compare against the inertial straight line
    # pushed through the frame change at every sample.
    conn = GalileanConnection.rotating_frame(np.array([0.0, 0.0, 1.0]))
    m = 1.7
    x0 = np.array([0.5, -0.2, 0.3])
    v0 = np.array([0.4, 1.1, -0.6])
    l00 = np.array([0.3, -0.5, 0.2])
    init = PointwiseState.from_proper(0.0, m, x0, v0, l00)
    traj = run_scenario(init, conn, IntegratorConfig(
        dt=1e-4, t_end=1.0, output_stride=1000))
    e3 = np.array([0.0, 0.0, 1.0])
    v_in = v0 + np.cross(e3, x0)
    rot_err = 0.0
    for s in traj.states:
        R = _rot_z(-s.t)
        x_ref = R @ (x0 + v_in * s.t)
        v_ref = R @ v_in - np.cross(e3, x_ref)
        l_ref = np.cross(x_ref, m * v_ref) + R @ l00
        rot_err = max(
            rot_err,
            float(np.max(np.abs(s.x - x_ref))),
            float(np.max(np.abs(s.p - m * v_ref))),
            float(np.max(np.abs(s.q - m * x_ref))),
            float(np.max(np.abs(s.l - l_ref))),
        )
    mass_drift = traj.drift_report()["mass_drift"]

    g = np.array([0.0, 0.0, -9.81])
    conn_g = GalileanConnection(g=g)
    init_p = PointwiseState.from_proper(
        0.0, 1.3, [0.1, -0.4, 2.0], [3.0, 1.0, 5.0], [0.4, -0.1, 0.2])
    traj_p = run_scenario(init_p, conn_g, IntegratorConfig(
        dt=1e-3, t_end=1.0, output_stride=100))
    proj_err = 0.0
    for s in traj_p.states:
        x_ref = init_p.x + init_p.v * s.t + 0.5 * g * s.t ** 2
        p_ref = init_p.m * (init_p.v + g * s.t)
        proj_err = max(
            proj_err,
            float(np.max(np.abs(s.x - x_ref))),
            float(np.max(np.abs(s.p - p_ref))),
        )
    mass_drift = max(mass_drift, traj_p.drift_report()["mass_drift"])

    ok = rot_err < 1e-8 and proj_err < 1e-12 and mass_drift == 0.0
    line = _report(capsys, 6, "rotating-frame and projectile trajectories", ok,
                   f"rotating {rot_err:.3e} < 1e-8, projectile "
                   f"{proj_err:.3e} < 1e-12, mass drift {mass_drift:g} == 0")
    assert ok, line


# ---------------------------------------------------------------------------
# 7. 1D statics: moment balance reduces to the shear relation


def test_criterion_07_rod_statics_shear_relation(capsys):
    tol = 1e-9
    e1 = np.array([1.0, 0.0, 0.0])
    conn = GalileanConnection()

    def F(t, s):
        return np.array([
            0.3 * np.sin(s), 0.2 * np.cos(s), 0.1 * np.exp(s / 3.0),
        ])

    def M_star(t, s):
        return np.array([
            0.1 * np.cos(s), 0.3 * np.sin(s), 0.2 * np.cos(s),
        ])

    def dM_star(s):
        return np.array([
            -0.1 * np.sin(s), 0.3 * np.cos(s), -0.2 * np.sin(s),
        ])

    zero3 = batched(lambda t, s: np.zeros(3))
    rod = Cosserat1DField(
        curve=Curve1D(batched(lambda t, s: np.array([s, 0.0, 0.0])),
                      n=batched(lambda t, s: e1), v=zero3),
        rho_l=batched(lambda t, s: 1.4),
        F=batched(F),
        q=zero3,
        l=zero3,
        l_star=zero3,
        M_star=batched(M_star),
    )
    worst = 0.0
    for s in np.linspace(-1.0, 1.5, 11):
        ang = residual_1d(rod, conn, 0.0, float(s)).ang_mom
        expected = dM_star(s) - np.cross(e1, F(0.0, s))
        worst = max(worst, float(np.max(np.abs(ang - expected))))
    ok = worst < tol
    line = _report(capsys, 7, "static rod moment balance = dM*/ds - n x F", ok,
                   f"max term dev {worst:.3e} tol {tol:g}")
    assert ok, line


# ---------------------------------------------------------------------------
# 8. 2D plate recovery and the shell identity rows


def _flat_plate():
    return ShellField(
        batched(lambda t, th1, th2: np.array([th1, th2, 0.0])),
        pi=batched(lambda t, th1, th2: np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    )


def test_criterion_08_plate_recovery_and_identity_rows(capsys):
    tol = 1e-8
    conn = GalileanConnection()
    sf = _flat_plate()

    def loads_with(N_fn):
        return ShellLoads(
            rho_s=batched(lambda *a: 1.1),
            N=batched(N_fn),
            Q=batched(lambda t, th1, th2: np.array([0.4 * th1, -0.2 * th2])),
            M=batched(lambda t, th1, th2: np.array([
                [0.3 * th1 ** 2, 0.1 * th1 * th2],
                [0.1 * th1 * th2, -0.2 * th2 ** 2],
            ])),
            kappa=batched(lambda *a: 0.05),
        )

    def dM_minus_Q(th1, th2):
        dM = np.array([0.6 * th1 + 0.1 * th1, 0.1 * th2 + -0.4 * th2])
        return dM - np.array([0.4 * th1, -0.2 * th2])

    N_asym = lambda *a: np.array([[0.7, 0.3], [-0.1, 0.2]])  # noqa: E731
    N_sym = lambda *a: np.array([[0.7, 0.25], [0.25, 0.2]])  # noqa: E731

    worst_in, worst_off, worst_sym, worst_id = 0.0, 0.0, 0.0, 0.0
    for th1 in (-0.4, 0.1, 0.5):
        for th2 in (-0.3, 0.2, 0.6):
            res_a = residual_2d(sf, loads_with(N_asym), conn, 0.0, th1, th2)
            worst_in = max(worst_in, abs(res_a.ang_mom[0] - (0.3 - (-0.1))))
            worst_off = max(worst_off, float(np.max(np.abs(
                res_a.ang_mom[1:] - dM_minus_Q(th1, th2)))))
            res_s = residual_2d(sf, loads_with(N_sym), conn, 0.0, th1, th2)
            worst_sym = max(worst_sym, abs(res_s.ang_mom[0]))

    # Identity rows over every bundled thin-medium scenario.
    for name, path in bundled_scenarios().items():
        scn = load_scenario(json.loads(path.read_text()))
        if scn.medium != "d2" or scn.kind != "residual_check":
            continue
        spec = CASES[scn.case]
        result = spec.build(dict(spec.defaults), np.random.default_rng(0),
                            scn.conn_spec)
        table = result.tables[0]
        cols = table.header.split(",")
        idx = [cols.index(c) for c in ("res_pos1", "res_pos2", "res_pos3")]
        worst_id = max(worst_id, float(np.max(np.abs(
            np.atleast_2d(table.rows)[:, idx]))))

    ok = (worst_in < tol and worst_off < tol and worst_sym < tol
          and worst_id < tol)
    line = _report(capsys, 8, "plate angular rows and shell identity rows", ok,
                   f"in-plane {worst_in:.3e}, off-plane {worst_off:.3e}, "
                   f"symmetric-N zero {worst_sym:.3e}, identity rows "
                   f"{worst_id:.3e}, tol {tol:g}")
    assert ok, line


# ---------------------------------------------------------------------------
# 9. momentless 3D medium degenerates to the classical laws


def test_criterion_09_momentless_degeneration(capsys):
    tol = 1e-8
    rho0 = 2.0
    g = np.array([0.2, -0.4, -9.5])
    conn = GalileanConnection(g=g)

    def T(t, x):
        sigma = -rho0 * float(g @ np.asarray(x)) * np.eye(3)
        return assemble_cauchy_T(rho0, np.zeros(3), sigma)

    zero_v = batched(lambda t, x: np.zeros(3))
    zero_m = batched(lambda t, x: np.zeros((3, 3)))
    state = Cosserat3DState(T=batched(T), q=zero_v, l=zero_v, l_star=zero_m,
                            M_star=zero_m)
    worst = 0.0
    for a in np.linspace(-0.8, 0.8, 3):
        for b in np.linspace(-0.8, 0.8, 3):
            for c in np.linspace(-0.8, 0.8, 3):
                res = residual_3d_cosserat(
                    state, conn, 0.0, np.array([a, b, c]))
                worst = max(worst, res.max_abs())
    ok = worst < tol
    line = _report(capsys, 9, "zero-moment medium: all ten residuals vanish", ok,
                   f"max residual {worst:.3e} tol {tol:g}")
    assert ok, line


# ---------------------------------------------------------------------------
# 10. reduction suite


def test_criterion_10_reduction_suite(capsys):
    R, rho0, w = 0.4, 2.5, 1.3
    cs = CrossSection.disc(R)
    Pi = projector_matrix(cs)
    n = cs.n
    area = np.pi * R * R

    # Section fields are read on all nodes, xb (2, K), node axis last.
    def rigid_T(xb):
        x3 = cs.origin[:, None] + cs.in_plane(xb)
        return assemble_cauchy_T(rho0, w * np.cross(n, x3, axisb=0, axisc=0),
                                 np.zeros((3, 3)))

    M_rigid = reduce_3d_to_1d_T(rigid_T, Pi, cs)
    mom = reduce_3d_to_1d_J(rigid_T, Pi, cs)
    rho_rel = abs(M_rigid[0, 0] - rho0 * area) / (rho0 * area)
    l_ref = rho0 * w * (np.pi * R ** 4 / 2.0) * n
    l_rel = float(np.max(np.abs(mom.l - l_ref))) / float(
        np.max(np.abs(l_ref)))
    parity = max(float(np.max(np.abs(mom.q))),
                 float(np.max(np.abs(mom.l_star))))

    h, k0 = 0.3, 2.4

    def bending_sigma(z):
        sigma = np.zeros((3, 3) + z.shape)
        sigma[0, 0] = k0 * z
        return sigma

    bending = reduce_3d_to_2d(bending_sigma, 1.0, ThicknessRule(h))
    m_err = abs(bending.M[0, 0] - k0 * h ** 3 / 12.0)

    # Uniform velocity: the fluctuation term must contribute exactly
    # nothing, leaving F bit-identical to the traction quadrature.
    sig = np.array([[0.3, 0.1, -0.2], [0.1, 0.7, 0.05], [-0.2, 0.05, -0.4]])
    v0 = np.array([0.5, -0.25, 1.0])

    def uniform_T(xb):
        return assemble_cauchy_T(2.0, np.multiply.outer(v0, xb[0] ** 0), sig)

    fm = reduce_3d_to_1d_force_mass(uniform_T, Pi, cs)
    # Each node's own sigma @ n, nodes stacked first, then node axis last.
    traction = cs.integrate(
        lambda xb: (np.moveaxis(_decompose_stress_mass(uniform_T(xb))[2],
                                -1, 0) @ n).T)
    exact_F = bool(np.array_equal(fm.F, traction))

    ok = (rho_rel < 1e-10 and l_rel < 1e-10 and m_err < 1e-12
          and parity < 1e-9 and exact_F)
    line = _report(capsys, 10, "cross-section and thickness reductions", ok,
                   f"rho_l rel {rho_rel:.3e} < 1e-10, spin rel "
                   f"{l_rel:.3e} < 1e-10, bending {m_err:.3e} < 1e-12, "
                   f"parity {parity:.3e} < 1e-9, uniform-flow F exact: "
                   f"{exact_F}")
    assert ok, line


# ---------------------------------------------------------------------------
# 11. command-line determinism and bundle runtime


def _run_bundle(out_dir):
    names = sorted(bundled_scenarios())
    cmd = [sys.executable, "-m", "torsor.cli", "run", *names,
           "--out-dir", str(out_dir), "--seed", "0"]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


def _dir_digest(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_11_cli_determinism_and_runtime(tmp_path, capsys):
    t0 = time.perf_counter()
    first = _run_bundle(tmp_path / "a")
    elapsed = time.perf_counter() - t0
    second = _run_bundle(tmp_path / "b")

    ok_exit = first.returncode == 0 and second.returncode == 0
    da, db = _dir_digest(tmp_path / "a"), _dir_digest(tmp_path / "b")
    identical = (first.stdout == second.stdout and da.keys() == db.keys()
                 and all(da[k] == db[k] for k in da))
    n_files = len(da)
    ok = ok_exit and identical and elapsed < 60.0 and n_files > 0
    line = _report(capsys, 11, "bundled scenarios: determinism and runtime", ok,
                   f"exit codes ({first.returncode}, {second.returncode}), "
                   f"{n_files} files byte-identical: {identical}, "
                   f"one run {elapsed:.1f} s < 60 s")
    assert ok, line


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
