"""Kinematics of slender and thin media: tangents, velocities, geometry.

Curve and shell quantities are checked against hand-computed geometry of
standard surfaces (lines, circles, helices, cylinders, spheres, graphs) and
against the defining identities (a unit tangent with v . n = v_t, symmetry
of the second form, dR/dt = skew(varpi) R).
"""

import ast
import glob
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import torsor
from torsor import fd
from torsor.affine import GalileanFrameChange, transform_stress_mass
from torsor.connection import GalileanConnection
from torsor.errors import SingularMetric
from torsor.fields import (
    Curve1D,
    ForceMass1D,
    ShellField,
    _stress_mass,
    assemble_cauchy_T,
    cosserat_J,
    rod_torsor,
    shell_christoffels,
    shell_torsor,
)
from torsor.vecmath import cross3, moment_matrix, rotation, skew

from per_point import batched
from test_balance import curve_v_dot, numpy_metric, numpy_projector

FD_TOL = 1e-8
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# curves


def test_straight_rod_tangent_map():
    rod = Curve1D(batched(lambda t, s: np.array([s, 0.0, 0.0])))
    assert_allclose(rod.n(0.3, 0.7), [1.0, 0.0, 0.0], atol=FD_TOL)
    assert_allclose(rod.v(0.3, 0.7), np.zeros(3), atol=FD_TOL)


def test_translating_rod_tangent_map():
    # Rigid transverse translation: v = (0, 1, 0), no flow along the rod.
    rod = Curve1D(batched(lambda t, s: np.array([s, t, 0.0])))
    assert_allclose(rod.n(0.2, -0.4), [1.0, 0.0, 0.0], atol=FD_TOL)
    assert_allclose(rod.v(0.2, -0.4), [0.0, 1.0, 0.0], atol=FD_TOL)
    assert abs(rod.v_t(0.2, -0.4)) < FD_TOL


def test_flowing_pipe_tangent_map():
    # Static chart, matter flowing along it: v = v_t n.
    pipe = Curve1D(batched(lambda t, s: np.array([s, 0.0, 0.0])),
                   v_t=batched(lambda t, s: 2.0))
    assert_allclose(pipe.n(0.0, 1.2), [1.0, 0.0, 0.0], atol=FD_TOL)
    assert_allclose(pipe.v(0.0, 1.2), [2.0, 0.0, 0.0], atol=FD_TOL)


def test_rotating_circle_projector_identity():
    # Material circle spinning about e3; the chart velocity is tangential,
    # so the defaulted v_t must absorb it: v . n = v_t with a unit n.
    r, w = 1.5, 0.7

    def psi(t, s):
        return rotation(np.array([0.0, 0.0, 1.0]), w * t) @ np.array(
            [r * np.cos(s / r), r * np.sin(s / r), 0.0]
        )

    circle = Curve1D(batched(psi))
    for t, s in [(0.0, 0.0), (0.3, 1.1), (-0.2, 4.0)]:
        n = circle.n(t, s)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-7
        assert abs(circle.v(t, s) @ n - circle.v_t(t, s)) < 1e-7
        assert abs(circle.v_t(t, s) - w * r) < 1e-6


def helix_curve(a, b):
    c = np.hypot(a, b)

    def psi(t, s):
        return np.array(
            [a * np.cos(s / c), a * np.sin(s / c), b * s / c]
        )

    return Curve1D(batched(psi))


def test_helix_unit_tangent_and_projector():
    hel = helix_curve(1.2, 0.8)
    for s in [-1.0, 0.0, 2.5]:
        n = hel.n(0.0, s)
        assert abs(np.linalg.norm(n) - 1.0) < FD_TOL


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.2, 3.0),
    b=st.floats(-2.0, 2.0),
    s=st.floats(-3.0, 3.0),
    v_t=st.floats(-2.0, 2.0),
)
def test_projector_tangent_identity_property(a, b, s, v_t):
    # Matter sliding along a static helix keeps v . n = v_t, n unit.
    hel = Curve1D(helix_curve(a, b).psi, v_t=batched(lambda t, u: v_t))
    n = hel.n(0.0, s)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-6
    assert abs(hel.v(0.0, s) @ n - v_t) < 1e-6


def test_analytic_tangent_matches_default():
    hel_default = helix_curve(1.2, 0.8)
    c = np.hypot(1.2, 0.8)

    def n(t, s):
        return np.array(
            [-1.2 * np.sin(s / c), 1.2 * np.cos(s / c), 0.8]
        ) / c

    hel_analytic = Curve1D(hel_default.psi, n=batched(n))
    for s in [-0.7, 0.4, 1.9]:
        assert_allclose(hel_default.n(0.0, s), hel_analytic.n(0.0, s), atol=FD_TOL)


def test_curve_acceleration_paths():
    # Analytic v, material chart, and sliding chart must all agree with the
    # closed-form acceleration of a rigidly rotating circle point.
    r, w = 2.0, 0.9
    e3 = np.array([0.0, 0.0, 1.0])

    def psi(t, s):
        return rotation(e3, w * t) @ np.array(
            [r * np.cos(s / r), r * np.sin(s / r), 0.0]
        )

    def v(t, s):
        return np.cross(w * e3, psi(t, s))

    t, s = 0.35, 1.4
    acc_exact = np.cross(w * e3, np.cross(w * e3, psi(t, s)))
    assert_allclose(curve_v_dot(Curve1D(batched(psi), v=batched(v)), t, s),
                    acc_exact, atol=1e-7)
    assert_allclose(curve_v_dot(Curve1D(batched(psi)), t, s), acc_exact,
                    atol=1e-6)
    # Static circle with steady flow: centripetal acceleration v_t^2 / r.
    def psi0(t, s):
        return np.array([r * np.cos(s / r), r * np.sin(s / r), 0.0])

    flow = Curve1D(batched(psi0), v_t=batched(lambda t, s: 1.3))
    acc_flow = curve_v_dot(flow, 0.0, s)
    # d/dt at fixed s of a steady field is zero; the convective part lives
    # in the balance operator, so here the time derivative must vanish.
    assert_allclose(acc_flow, np.zeros(3), atol=1e-6)


def test_import_leaves_scipy_unloaded():
    # numpy is the only run-time dependency; scipy would also cost most of
    # every CLI start.  The scan finds imports the CLI path never executes,
    # such as one inside a function.
    pkg = os.path.dirname(torsor.__file__)
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in mods), (
                f"{path}:{node.lineno} imports scipy")
    src = os.path.dirname(pkg)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, torsor, torsor.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def unused_imports(source, path="<module>"):
    """(line, name) of each name a module imports and never reads: not as
    a name, as the base of an attribute, nor as an entry of __all__."""
    tree = ast.parse(source, path)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = (
                    node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import os, sys\nfrom a import b as c\n"
                          "sys.exit(c)\n") == [(1, "os")]
    pkg = os.path.dirname(torsor.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            unused += [f"{os.path.relpath(path, pkg)}:{line} imports {name}"
                       for line, name in unused_imports(fh.read(), path)]
    assert unused == []


def unused_private_helpers(sources):
    """(path, line, name) of each module-level _name that a module of
    `sources` (path -> source) defines without a decorator and that no
    module of `sources` names again: as a name, an attribute or an import."""
    defined, named = [], set()
    for path, source in sources.items():
        tree = ast.parse(source, path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.decorator_list:
                    defined.append((path, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(path, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2].startswith("_")
                  and not d[2].startswith("__") and d[2] not in named)


def test_no_private_helper_goes_unused():
    # Decorated definitions, such as library's @_case builders, register
    # themselves and are exempt.
    assert unused_private_helpers({
        "a.py": "def _f(): pass\n_g = 1\n@dec\ndef _h(): pass\n",
        "b.py": "from a import _g\n",
    }) == [("a.py", 1, "_f")]
    pkg = os.path.dirname(torsor.__file__)
    sources = {}
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.relpath(path, pkg)] = fh.read()
    assert unused_private_helpers(sources) == []


def test_every_export_resolves():
    # A deleted name left in __all__ breaks `from torsor import *`.
    missing = [name for name in torsor.__all__ if not hasattr(torsor, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# force-mass components


def test_force_mass_matrix_layout():
    f = ForceMass1D(rho_l=2.0, v=[1.0, 0.0, 3.0], v_t=0.5, F=[0.1, -0.2, 0.3])
    M = f.matrix
    assert_allclose(M[0], [2.0, 2.0, 0.0, 6.0], atol=EXACT_TOL)
    assert_allclose(M[1, 0], 1.0, atol=EXACT_TOL)
    assert_allclose(M[1, 1:], [0.9, 0.2, 2.7], atol=EXACT_TOL)


# ---------------------------------------------------------------------------
# stress-mass tensor


def test_assemble_cauchy_structure():
    T = assemble_cauchy_T(2.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
    expected = np.zeros((4, 4))
    expected[0, 0] = 2.0
    expected[0, 1] = expected[1, 0] = 2.0
    expected[1, 1] = 2.0
    assert_allclose(T, expected, atol=EXACT_TOL)
    # Hydrostatic stress enters with the opposite sign.
    T = assemble_cauchy_T(1.0, np.zeros(3), -3.0 * np.eye(3))
    assert_allclose(T[1:, 1:], 3.0 * np.eye(3), atol=EXACT_TOL)


def test_assemble_cauchy_validates():
    with pytest.raises(ValueError):
        assemble_cauchy_T(-1.0, np.zeros(3), np.zeros((3, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        assemble_cauchy_T(1.0, np.zeros(3), bad)


def test_assemble_cauchy_T_bits_match_array_packing():
    # The float packing must give the bits of the numpy array expressions.
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = rng.uniform(0.0, 10.0) * 10.0 ** rng.integers(-8, 9)
        v = rng.normal(size=3) * 10.0 ** rng.integers(-8, 9, size=3)
        s = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-8, 9)
        sigma = s + s.T
        ref = np.empty((4, 4))
        ref[0, 0] = rho
        ref[0, 1:] = rho * v
        ref[1:, 0] = rho * v
        ref[1:, 1:] = rho * np.outer(v, v) - sigma
        assert assemble_cauchy_T(rho, v, sigma).tobytes() == ref.tobytes()


def test_assemble_cauchy_T_symmetry_bound():
    # Asymmetry is measured against 1e-9 max(1, max |sigma|).
    for big in (0.5, 3e4):
        tol = 1e-9 * max(1.0, big)
        for i, j in ((0, 1), (0, 2), (1, 2), (2, 1)):
            sigma = np.diag([big, -0.2, 0.1])
            sigma[i, j] = 0.3
            sigma[j, i] = 0.3 + 0.9 * tol
            assemble_cauchy_T(1.0, np.zeros(3), sigma)
            sigma[j, i] = 0.3 + 1.1 * tol
            with pytest.raises(ValueError, match="not symmetric"):
                assemble_cauchy_T(1.0, np.zeros(3), sigma)
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_cauchy_T(-1e-300, np.zeros(3), np.zeros((3, 3)))
    assemble_cauchy_T(0.0, np.zeros(3), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (2, 1)])
def test_assemble_cauchy_T_passes_non_finite_stress_through(bad, where):
    # A NaN or an inf in sigma is not a symmetry error: it reaches T, and
    # the residual check fails on it (test_library).  An asymmetric pair
    # elsewhere does not change that.
    for asym in (0.0, 1.0):
        sigma = np.zeros((3, 3))
        sigma[1, 2] = asym
        sigma[where] = bad
        T = assemble_cauchy_T(1.0, np.zeros(3), sigma)
        assert not np.isfinite(T[1 + where[0], 1 + where[1]])


def _signed_zero_inputs(rng, shapes):
    """Random floats with zeros and negative zeros mixed in."""
    out = []
    for shape in shapes:
        a = np.array(rng.normal(size=shape)
                     * 10.0 ** rng.integers(-6, 7, size=shape))
        a[rng.random(size=shape) < 0.3] = 0.0
        a[rng.random(size=shape) < 0.3] = -0.0
        out.append(a)
    return out


def test_rod_torsor_bits_match_array_forms():
    # rod_torsor packs a batch with the point axis last on its inputs and
    # first on T and J; each point's are those of the array forms.
    rng = np.random.default_rng(7)
    m = 200
    rho_l, w, slide = _signed_zero_inputs(rng, [m] * 3)
    rho_l[1::2] = rng.uniform(0.1, 5.0, size=m // 2)
    w[1::2], slide[1::2] = -0.0, 0.0
    v, F, psi, q, l, l_star, M_star = _signed_zero_inputs(rng, [(3, m)] * 7)
    T, J = rod_torsor(rho_l, v, w, F, psi, slide, q, l, l_star, M_star)
    assert T.shape == (m, 2, 4) and J.shape == (m, 2, 4, 4)
    for k in range(m):
        T_ref = ForceMass1D(rho_l[k], v[:, k], w[k], F[:, k]).matrix
        p, flux = T_ref[:, 1:].tolist()
        x = psi[:, k].tolist()
        J_ref = np.array([
            moment_matrix(q[:, k], l[:, k] + cross3(x, p)),
            moment_matrix(l_star[:, k] - slide[k] * q[:, k],
                          M_star[:, k] - slide[k] * l[:, k]
                          + cross3(x, flux)),
        ])
        assert T[k].tobytes() == T_ref.tobytes()
        assert J[k].tobytes() == J_ref.tobytes()


def test_cosserat_J_bits_match_moment_matrices():
    # cosserat_J packs a batch with the point axis last on its inputs and
    # first on J; each point's J is that of the moment matrices.
    rng = np.random.default_rng(8)
    q, l, l_star, M_star = _signed_zero_inputs(
        rng, [(3, 100), (3, 100), (3, 3, 100), (3, 3, 100)])
    J = cosserat_J(q, l, l_star, M_star)
    assert J.shape == (100, 4, 4, 4)
    for p in range(100):
        ref = np.array([moment_matrix(q[:, p], l[:, p])] + [
            moment_matrix(l_star[:, r, p], M_star[:, r, p])
            for r in range(3)])
        assert J[p].tobytes() == ref.tobytes()


def test_stress_mass_of_sigma_columns_is_its_transpose():
    # residual_cauchy packs T flux-first as _stress_mass of sigma's
    # columns; sigma may be asymmetric there.
    rng = np.random.default_rng(9)
    for _ in range(100):
        rho, v, sigma = _signed_zero_inputs(rng, [(), 3, (3, 3)])
        ref = _stress_mass(float(rho), v.tolist(), sigma.tolist()).T
        cols = _stress_mass(float(rho), v.tolist(), sigma.T.tolist())
        assert cols.tobytes() == ref.tobytes()


def test_comoving_boost_recovers_stress():
    # Boosting into the rest frame of a uniformly moving medium must strip
    # the momentum row and expose -sigma in the spatial block.
    rng = np.random.default_rng(3)
    v = rng.normal(size=3)
    sig = rng.normal(size=(3, 3))
    sig = 0.5 * (sig + sig.T)
    T = assemble_cauchy_T(1.7, v, sig)
    boost = GalileanFrameChange(u=-v)
    Tp = transform_stress_mass(boost, T)
    assert_allclose(Tp[0, 0], 1.7, atol=EXACT_TOL)
    assert_allclose(Tp[0, 1:], np.zeros(3), atol=1e-13)
    assert_allclose(Tp[1:, 0], np.zeros(3), atol=1e-13)
    assert_allclose(Tp[1:, 1:], -sig, atol=1e-13)


# ---------------------------------------------------------------------------
# shells: first and second fundamental forms


def sphere_patch(r, upper=True):
    """Graph chart of a sphere of radius r; upper sheet has outward normal."""
    sign = 1.0 if upper else -1.0

    def x(t, th1, th2):
        return np.array(
            [th1, th2, sign * np.sqrt(r ** 2 - th1 ** 2 - th2 ** 2)]
        )

    def pi(t, th1, th2):
        z = sign * np.sqrt(r ** 2 - th1 ** 2 - th2 ** 2)
        return np.array([[1.0, 0.0, -th1 / z], [0.0, 1.0, -th2 / z]])

    return ShellField(batched(x), pi=batched(pi))


def test_sphere_curvature_both_sheets():
    r = 2.0
    th = (0.3, -0.2)
    up = sphere_patch(r, upper=True)
    a = numpy_metric(up, 0.0, *th)
    b = shell_christoffels(up, GalileanConnection(), 0.0, *th)[3, 1:3, 1:3]
    assert_allclose(b, -a / r, atol=1e-7)

    low = sphere_patch(r, upper=False)
    a = numpy_metric(low, 0.0, *th)
    b = shell_christoffels(low, GalileanConnection(), 0.0, *th)[3, 1:3, 1:3]
    assert_allclose(b, a / r, atol=1e-7)


def test_cylinder_geometry():
    R = 1.5

    def x(t, th1, th2):
        return np.array([R * np.cos(th1 / R), R * np.sin(th1 / R), th2])

    cyl = ShellField(batched(x))
    t, th1, th2 = 0.0, 0.8, -0.3
    assert_allclose(numpy_metric(cyl, t, th1, th2), np.eye(2), atol=1e-7)
    n = cyl.n(t, th1, th2)
    assert_allclose(n, [np.cos(th1 / R), np.sin(th1 / R), 0.0], atol=1e-7)
    G = shell_christoffels(cyl, GalileanConnection(), t, th1, th2)
    assert_allclose(G[3, 1:3, 1:3], [[-1.0 / R, 0.0], [0.0, 0.0]], atol=1e-6)
    # Orthonormal chart of a developable surface: no in-plane Christoffels.
    assert_allclose(G[1:3, 1:3, 1:3], np.zeros((2, 2, 2)), atol=1e-6)


def test_second_form_symmetry_fd_default():
    # Nontrivial graph surface with all geometry finite-differenced.
    def x(t, th1, th2):
        return np.array([th1, th2, 0.3 * th1 ** 2 * th2 + 0.1 * th2 ** 3])

    sf = ShellField(batched(x))
    G = shell_christoffels(sf, GalileanConnection(), 0.0, 0.4, -0.6)
    b = G[3, 1:3, 1:3]
    assert abs(b[0, 1] - b[1, 0]) < 1e-8
    Gam = G[1:3, 1:3, 1:3]
    assert_allclose(Gam, np.swapaxes(Gam, 1, 2), atol=1e-8)


def test_singular_metric_raises():
    flatline = ShellField(
        batched(lambda t, th1, th2: np.array([th1, th1, 0.0])))
    with pytest.raises(SingularMetric):
        flatline.frame(0.0, 0.1, 0.2)


@pytest.mark.parametrize("read", ["frame", "n", "w_surf"])
def test_nan_chart_is_singular(read):
    # det(a) < tol and |pi_1 x pi_2|^2 < tol are both False for NaN, so a
    # NaN in the chart passed as a NaN metric, projector and normal.
    def pi(t, th1, th2):
        return np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]])

    sf = ShellField(batched(lambda t, th1, th2: np.array([th1, th2, 0.0])),
                    pi=batched(pi))
    with pytest.raises(SingularMetric):
        getattr(sf, read)(0.0, 0.1, 0.2)


# ---------------------------------------------------------------------------
# shells: chart Christoffels in a spinning frame


def test_flat_static_plate_christoffels_vanish():
    plate = ShellField(
        batched(lambda t, th1, th2: np.array([th1, th2, 0.0])))
    G = shell_christoffels(plate, GalileanConnection(), 0.0, 0.5, -1.0)
    assert_allclose(G[1:3, 0, 0], np.zeros(2), atol=FD_TOL)
    assert abs(G[3, 0, 0]) < FD_TOL
    assert_allclose(G[1:3, 1:3, 1:3], np.zeros((2, 2, 2)), atol=FD_TOL)
    assert_allclose(G[3, 1:3, 1:3], np.zeros((2, 2)), atol=FD_TOL)
    assert_allclose(G[1:3, 0, 1:3], np.zeros((2, 2)), atol=FD_TOL)
    assert_allclose(G[1:3, 0, 3], np.zeros(2), atol=FD_TOL)
    assert_allclose(G[3, 0, 1:3], np.zeros(2), atol=FD_TOL)


def test_flat_plate_under_gravity():
    plate = ShellField(
        batched(lambda t, th1, th2: np.array([th1, th2, 0.0])))
    g0 = 9.81
    conn = GalileanConnection(g=(0.0, 0.0, -g0))
    G = shell_christoffels(plate, conn, 0.0, 0.0, 0.0)
    assert_allclose(G[3, 0, 0], g0, atol=EXACT_TOL)
    assert_allclose(G[1:3, 0, 0], np.zeros(2), atol=EXACT_TOL)


def test_spinning_plate_phi_blocks():
    # Plate rotating about e3 at rate w, observed in a frame spinning at
    # rate w_f: Phi^a_b = (w + w_f) * (in-plane rotation generator).
    w, w_f = 0.7, 0.4
    e3 = np.array([0.0, 0.0, 1.0])

    def x(t, th1, th2):
        return rotation(e3, w * t) @ np.array([th1, th2, 0.0])

    def pi(t, th1, th2):
        R = rotation(e3, w * t)
        return np.array([R @ [1.0, 0.0, 0.0], R @ [0.0, 1.0, 0.0]])

    plate = ShellField(batched(x), pi=batched(pi))
    conn = GalileanConnection(Omega=w_f * e3)
    G = shell_christoffels(plate, conn, 0.3, 0.5, -0.2)
    total = w + w_f
    assert_allclose(G[1:3, 0, 1:3], [[0.0, -total], [total, 0.0]], atol=1e-7)
    assert_allclose(G[1:3, 0, 3], np.zeros(2), atol=1e-7)
    assert_allclose(G[3, 0, 1:3], np.zeros(2), atol=1e-7)


def test_poisson_vector_and_normal_velocity():
    # Rigidly tumbling plate about a tilted axis: dR/dt = skew(varpi) R and
    # the defaulted w equals both varpi x n and the finite difference of n.
    axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    w_rate = 0.9

    def R_of_t(t):
        return rotation(axis, w_rate * t)

    def x(t, th1, th2):
        return R_of_t(t) @ np.array([th1, th2, 0.0])

    varpi = lambda t, th1, th2: w_rate * axis
    plate = ShellField(batched(x), varpi=batched(varpi))

    t = 0.4
    dR = (np.asarray(R_of_t(t + 1e-6)) - np.asarray(R_of_t(t - 1e-6))) / 2e-6
    assert_allclose(dR, skew(w_rate * axis) @ R_of_t(t), atol=1e-7)

    n = plate.n(t, 0.2, -0.5)
    assert_allclose(plate.w(t, 0.2, -0.5), np.cross(w_rate * axis, n), atol=EXACT_TOL)
    plain = ShellField(batched(x))
    assert_allclose(
        plain.w(t, 0.2, -0.5), np.cross(w_rate * axis, n), atol=1e-7
    )


def test_shell_velocity_and_acceleration():
    w_rate = 0.8
    e3 = np.array([0.0, 0.0, 1.0])

    def x(t, th1, th2):
        return rotation(e3, w_rate * t) @ np.array([th1, th2, 0.0])

    sf = ShellField(batched(x))
    t, th1, th2 = 0.25, 0.6, -0.1
    pos = sf.x(t, th1, th2)
    om = w_rate * e3
    assert_allclose(sf.v(t, th1, th2), np.cross(om, pos), atol=1e-7)
    assert_allclose(
        sf.v_dot(t, th1, th2), np.cross(om, np.cross(om, pos)), atol=1e-6
    )


# ---------------------------------------------------------------------------
# shells: the float chart frame against the numpy array forms


def numpy_n(sf, *p):
    if sf._n is not None:
        return np.asarray(sf._n(*p), dtype=float)
    pi = sf.pi(*p)
    normal = np.cross(pi[0], pi[1])
    return normal / np.linalg.norm(normal)


def numpy_w(sf, *p):
    if sf._w is not None:
        return np.asarray(sf._w(*p), dtype=float)
    if sf.varpi is not None:
        return np.cross(sf.varpi(*p), numpy_n(sf, *p))
    return fd.partial(lambda *u: numpy_n(sf, *u), p, 0)


def numpy_w_surf(sf, *p):
    return numpy_projector(sf, *p) @ numpy_w(sf, *p)


def numpy_shell_torsor(rho_s, N, Q, M, kappa, w):
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


def numpy_shell_christoffels(sf, conn, *p):
    x = sf.x(*p)
    g, Omega = conn.g(p[0], x), conn.Omega(p[0], x)
    W = skew(Omega)
    pi, a = sf.pi(*p), numpy_metric(sf, *p)
    c, n = np.linalg.solve(a, pi), numpy_n(sf, *p)
    D = sf.dpi_dtheta(*p)
    acc = sf.v_dot(*p) - g + 2.0 * np.cross(Omega, sf.v(*p))
    spin = sf.dpi_dt(*p) + pi @ W.T
    G = np.zeros((4, 4, 4))
    G[1:3, 0, 0] = c @ acc
    G[3, 0, 0] = n @ acc
    G[1:3, 0, 1:3] = G[1:3, 1:3, 0] = c @ spin.T
    G[3, 0, 1:3] = G[3, 1:3, 0] = spin @ n
    G[1:3, 0, 3] = G[1:3, 3, 0] = c @ (numpy_w(sf, *p) + W @ n)
    G[1:3, 1:3, 1:3] = np.einsum("ai,bci->abc", c, D)
    b = np.einsum("i,bai->ab", n, D)
    G[3, 1:3, 1:3] = b
    G[1:3, 1:3, 3] = G[1:3, 3, 1:3] = -np.linalg.solve(a, b)
    return G


def shell_reads(sf, conn, p):
    """(name, float form, numpy form) of every shell quantity at p."""
    rng = np.random.default_rng(5)
    N, M = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    Q = np.array([0.0, rng.normal()])
    w = sf.w_surf(*p)
    fr = sf.frame(*p)
    a11, a12, a22 = fr.a
    return [
        ("metric", np.array([[a11, a12], [a12, a22]]), numpy_metric(sf, *p)),
        ("projector", np.array(fr.c), numpy_projector(sf, *p)),
        ("n", sf.n(*p), numpy_n(sf, *p)),
        ("w", sf.w(*p), numpy_w(sf, *p)),
        ("w_surf", w, numpy_w_surf(sf, *p)),
        ("shell_torsor",
         np.concatenate([a.ravel() for a in shell_torsor(
             1.3, N, Q, M, 0.05, w)]),
         np.concatenate([a.ravel() for a in numpy_shell_torsor(
             1.3, N, Q, M, 0.05, w)])),
        ("shell_christoffels", shell_christoffels(sf, conn, *p),
         numpy_shell_christoffels(sf, conn, *p)),
    ]


def tumbling_shell(analytic):
    """A non-orthonormal paraboloid chart, tumbling and translating; with
    analytic pi and Poisson vector, or with every default differenced."""
    axis = np.array([1.0, 0.5, 2.0]) / np.sqrt(5.25)
    rate = 0.7

    def x(t, th1, th2):
        flat = np.array([th1 + 0.3 * th2, th2 - 0.2 * th1,
                         0.2 * th1 ** 2 + 0.1 * th1 * th2 + 0.15 * th2 ** 2])
        return (rotation(axis, rate * t) @ flat
                + np.array([0.3 * t, -0.1 * t * t, 0.2]))

    if not analytic:
        return ShellField(batched(x))

    def pi(t, th1, th2):
        pi0 = np.array([[1.0, -0.2, 0.4 * th1 + 0.1 * th2],
                        [0.3, 1.0, 0.1 * th1 + 0.3 * th2]])
        return pi0 @ rotation(axis, rate * t).T

    return ShellField(batched(x), pi=batched(pi),
                      varpi=batched(lambda t, th1, th2: rate * axis))


@pytest.mark.parametrize("analytic", [False, True], ids=["fd", "analytic"])
def test_float_frame_matches_numpy_forms(analytic):
    sf = tumbling_shell(analytic)
    conn = GalileanConnection.rotating_frame([0.3, -0.2, 0.5],
                                             g=[0.1, 0.2, -9.8])
    for p in [(0.2, 0.4, -0.3), (0.9, -0.5, 0.6), (1.7, 0.1, 0.8)]:
        for name, got, want in shell_reads(sf, conn, p):
            tol = 1e-12 * np.max(np.abs(want))
            if not analytic and name in ("w", "w_surf"):
                # A default w differences n over 2h, so a last-bit
                # difference of the two normals is divided by 2h.
                tol = 16 * np.finfo(float).eps / (2.0 * fd.default_step(p[0]))
            assert_allclose(got, want, rtol=0, atol=tol, err_msg=name)


def bundled_static_shells():
    """The plate_bending, laplace_sphere and spinning_drum shells and
    connections, at their bundled probe grids."""
    r, R = 2.0, 1.5
    plate = ShellField(
        batched(lambda t, th1, th2: np.array([th1, th2, 0.0])),
        pi=batched(lambda t, th1, th2: np.array([[1.0, 0.0, 0.0],
                                                 [0.0, 1.0, 0.0]])))

    def sphere_pi(t, th1, th2):
        z = np.sqrt(r * r - th1 ** 2 - th2 ** 2)
        return np.array([[1.0, 0.0, -th1 / z], [0.0, 1.0, -th2 / z]])

    sphere = ShellField(
        batched(lambda t, th1, th2: np.array(
            [th1, th2, np.sqrt(r * r - th1 ** 2 - th2 ** 2)])),
        pi=batched(sphere_pi))
    drum = ShellField(
        batched(lambda t, th1, th2: np.array(
            [R * np.cos(th1 / R), R * np.sin(th1 / R), th2])),
        pi=batched(lambda t, th1, th2: np.array(
            [[-np.sin(th1 / R), np.cos(th1 / R), 0.0], [0.0, 0.0, 1.0]])))
    return [
        ("plate", plate, GalileanConnection(g=(0.0, 0.0, -9.81)),
         np.linspace(-0.7, 0.7, 3), np.linspace(-0.7, 0.7, 3)),
        ("sphere", sphere,
         GalileanConnection(g=lambda t, x: 0.35 * np.asarray(x, dtype=float)),
         np.linspace(-0.5, 0.5, 3), np.linspace(-0.5, 0.5, 3)),
        ("drum", drum, GalileanConnection.rotating_frame((0.0, 0.0, 1.1)),
         np.linspace(0.0, 2.0, 3), np.linspace(-0.5, 0.5, 3)),
    ]


@pytest.mark.parametrize("case", bundled_static_shells(),
                         ids=lambda case: case[0])
def test_float_frame_bits_on_bundled_shells(case):
    # Bit-equal, signed zeros included, except the sphere's projector and
    # Christoffels: numpy's solve fuses multiply-adds that the closed-form
    # inverse rounds one at a time, so those agree to a few ulps.
    name, sf, conn, side1, side2 = case
    for th1 in side1:
        for th2 in side2:
            p = (0.0, float(th1), float(th2))
            for read, got, want in shell_reads(sf, conn, p):
                if name == "sphere" and read in ("projector",
                                                 "shell_christoffels"):
                    assert_allclose(got, want, rtol=0,
                                    atol=4e-16 * np.max(np.abs(want)))
                else:
                    assert np.array_equal(got, want), read
                    assert np.array_equal(np.signbit(got),
                                          np.signbit(want)), read
