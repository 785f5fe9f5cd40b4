"""Scenario-case registry tests.

The manufactured-field cases carry hand-expanded exact residuals so that
the package has no runtime symbolic dependency; those expansions are
verified here against an independent sympy derivation built straight from
the balance-law definitions.  The remaining tests run every bundled
scenario end to end and pin the registry invariants the runner relies on.
"""

import json
import math
import os

import numpy as np
import pytest
import sympy as sp

from torsor.balance import BalanceResidual, residual_3d_cosserat
from torsor.cli import bundled_scenarios, load_scenario
from torsor.connection import GalileanConnection
from torsor.errors import ScenarioError
from torsor.fields import Cosserat3DState, assemble_cauchy_T
from torsor import library
from torsor.library import (
    CASES,
    KIND_MEDIA,
    RESIDUAL_COLUMNS,
    Check,
    ConnSpec,
    _residual_case,
    _worst,
    manufactured_cauchy,
    manufactured_rod,
)

from per_point import batched

EXACT_TOL = 1e-12
BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)

T, X1, X2, X3 = sp.symbols("t x1 x2 x3")
S = sp.Symbol("s")


def _cross(a, b):
    return sp.Matrix([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _symbolic_cauchy_residual(g, Om):
    """The four classical balance laws, derived symbolically."""
    X = [X1, X2, X3]
    g = sp.Matrix([sp.Float(c, 30) for c in g])
    Om = sp.Matrix([sp.Float(c, 30) for c in Om])
    rho = 2 + sp.sin(X1 + 2 * T) * sp.Rational(3, 10)
    v = sp.Matrix([
        sp.sin(X2) * sp.Rational(2, 5),
        sp.cos(X1) * sp.Rational(1, 5),
        sp.sin(X1 + T) * sp.Rational(3, 10),
    ])
    sig = sp.Matrix([
        [sp.sin(X1 + X2) / 2, sp.sin(X2 - X3) / 10, sp.exp(X3 / 3) / 5],
        [sp.cos(X1) / 5, sp.sin(X2 + T) * sp.Rational(3, 10),
         sp.sin(X3) / 10],
        [3 * sp.exp(X1 / 4) / 10, sp.cos(X2) / 5, 2 * sp.cos(X1 + X3) / 5],
    ])
    mass = sp.diff(rho, T) + sum(sp.diff(rho * v[i], X[i]) for i in range(3))
    grad_v_v = sp.Matrix(
        [sum(sp.diff(v[i], X[j]) * v[j] for j in range(3)) for i in range(3)]
    )
    div_sig = sp.Matrix(
        [sum(sp.diff(sig[i, j], X[j]) for j in range(3)) for i in range(3)]
    )
    lin = rho * (sp.diff(v, T) + grad_v_v) - div_sig \
        - rho * (g - 2 * _cross(Om, v))
    ang = sp.Matrix([
        sig[1, 2] - sig[2, 1], sig[2, 0] - sig[0, 2], sig[0, 1] - sig[1, 0],
    ])

    def at(t, x):
        subs = {T: t, X1: x[0], X2: x[1], X3: x[2]}
        return np.concatenate([
            [float(mass.subs(subs))],
            [float(e.subs(subs)) for e in lin],
            np.zeros(3),
            [float(e.subs(subs)) for e in ang],
        ])

    return at


@pytest.mark.parametrize("g,Om", [
    ((0.1, -0.2, 0.3), (0.2, -0.1, 0.3)),
    ((0.4, 0.2, -0.3), (-0.1, 0.25, 0.15)),
])
def test_manufactured_cauchy_exact_matches_symbolic(g, Om):
    _, _, exact = manufactured_cauchy(g, Om)
    sym = _symbolic_cauchy_residual(g, Om)
    rng = np.random.default_rng(3)
    for _ in range(6):
        t = float(rng.uniform(0.0, 1.5))
        x = rng.uniform(-0.8, 0.8, size=3)
        np.testing.assert_allclose(exact(t, x), sym(t, x), atol=EXACT_TOL)


def _symbolic_rod_residual(g, Om):
    """The four slender-medium laws on a chart that moves and slides."""
    g = sp.Matrix([sp.Float(c, 30) for c in g])
    Om = sp.Matrix([sp.Float(c, 30) for c in Om])
    n = sp.Matrix([1, 0, 0])
    psi = sp.Matrix([S + T / 10, 3 * sp.sin(T) / 10, T / 5])
    rho = sp.Rational(3, 2) + 2 * sp.cos(S - T) / 5
    v_t = sp.sin(S + T) / 5
    slide = (n.T * sp.diff(psi, T))[0]
    w = v_t - slide
    v = sp.diff(psi, T) + w * n
    F = sp.Matrix([3 * sp.sin(S) / 10, sp.cos(S + T) / 5, sp.exp(S / 3) / 10])
    q = rho * psi
    l = sp.Matrix([sp.sin(S + T) / 10, sp.cos(S) / 5, sp.sin(S) / 10])
    l_star = sp.Matrix([sp.sin(S) / 5, sp.cos(S - T) / 10, sp.sin(S + T) / 5])
    M_star = sp.Matrix([sp.cos(S + T) / 10, 3 * sp.sin(S) / 10,
                        sp.cos(S) / 5])
    mass = sp.diff(rho, T) + sp.diff(rho * w, S)
    lin = rho * (sp.diff(v, T) + w * sp.diff(v, S)) - sp.diff(F, S) \
        - rho * (g - 2 * _cross(Om, v))
    pos = sp.diff(q, T) + sp.diff(l_star - slide * q, S) - rho * v
    ang = sp.diff(l, T) + _cross(Om, l) + _cross(l_star - v_t * q, _cross(Om, n)) \
        + sp.diff(M_star - slide * l, S) - _cross(n, F)

    def at(t, s):
        subs = {T: t, S: s}
        return np.concatenate([
            [float(mass.subs(subs))],
            [float(e.subs(subs)) for e in lin],
            [float(e.subs(subs)) for e in pos],
            [float(e.subs(subs)) for e in ang],
        ])

    return at


@pytest.mark.parametrize("g,Om", [
    ((0.1, -0.3, 0.2), (0.2, 0.1, -0.3)),
    ((-0.25, 0.15, 0.35), (0.3, -0.2, 0.1)),
])
def test_manufactured_rod_exact_matches_symbolic(g, Om):
    _, _, exact = manufactured_rod(g, Om)
    sym = _symbolic_rod_residual(g, Om)
    rng = np.random.default_rng(4)
    for _ in range(6):
        t = float(rng.uniform(0.0, 1.5))
        s = float(rng.uniform(-1.0, 1.0))
        np.testing.assert_allclose(exact(t, s), sym(t, s), atol=EXACT_TOL)


# ---------------------------------------------------------------------------
# registry invariants


def test_registry_kind_media_pairs_are_legal():
    for name, spec in CASES.items():
        assert spec.kind in KIND_MEDIA, name
        assert spec.medium in KIND_MEDIA[spec.kind], name
        assert spec.summary, name
        assert isinstance(spec.defaults, dict), name


def test_registry_covers_every_kind_medium_pair():
    covered = {(s.kind, s.medium) for s in CASES.values()}
    wanted = {(k, m) for k, media in KIND_MEDIA.items() for m in media}
    assert covered == wanted


def test_bundled_scenarios_cover_every_case_exactly_once():
    bundle = bundled_scenarios()
    seen = []
    for name, path in bundle.items():
        raw = json.loads(path.read_text())
        scn = load_scenario(raw)
        assert scn.name == name  # file stem matches declared name
        seen.append(scn.case)
    assert sorted(seen) == sorted(CASES)


def test_every_param_declares_a_range_holding_its_bundled_values(
        monkeypatch):
    for name, spec in CASES.items():
        assert spec.ranges.keys() == spec.defaults.keys(), name
    for name, path in bundled_scenarios().items():
        raw = json.loads(path.read_text())
        spec = CASES[raw["case"]]
        for key, value in {**spec.defaults, **raw.get("params", {})}.items():
            assert spec.ranges[key].admits(value), (name, key, value)
    # The benchmark's reduction sweep draws each param from an interval.
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import SWEEP_RANGES

    for case, ranges in SWEEP_RANGES.items():
        for key, bounds in ranges.items():
            assert all(map(CASES[case].ranges[key].admits, bounds)), key


def _run_case(scn, seed=0):
    rng = np.random.default_rng(seed)
    return CASES[scn.case].build(dict(scn.params), rng, scn.conn_spec)


def test_every_bundled_scenario_passes_with_defaults():
    for name, path in bundled_scenarios().items():
        scn = load_scenario(json.loads(path.read_text()))
        result = _run_case(scn)
        for check in result.checks:
            assert check.passed(), (
                f"{name}: {check.name}: {check.value} > {check.tol}"
            )
        for table in result.tables:
            n_cols = len(table.header.split(","))
            rows = np.atleast_2d(table.rows)
            assert rows.shape[1] == n_cols, f"{name}/{table.name}"
            assert np.all(np.isfinite(rows)), f"{name}/{table.name}"


# The residual view of each medium.
VIEWS = {"d0": "residual_pointwise", "d1": "residual_1d", "d2": "residual_2d",
         "d3_cauchy": "residual_cauchy", "d3_cosserat": "residual_3d_cosserat"}


def test_every_residual_case_calls_its_view_once_per_chunk(monkeypatch):
    # A case that evaluated its grid point by point would call its view
    # once per point.
    calls = []
    for name in VIEWS.values():
        view = getattr(library, name)
        monkeypatch.setattr(library, name,
                            lambda *a, name=name, view=view, **kw:
                            calls.append(name) or view(*a, **kw))
    checked = 0
    for path in bundled_scenarios().values():
        scn = load_scenario(json.loads(path.read_text()))
        if scn.kind != "residual_check":
            continue
        calls.clear()
        points = len(_run_case(scn).tables[0].rows)
        chunks = -(-points // library.PROBE_CHUNK)
        assert calls == [VIEWS[scn.medium]] * chunks, scn.name
        checked += 1
    assert checked == 10


@pytest.mark.parametrize("t", [0, 1])
def test_rod_convergence_passes_at_an_integer_time(t):
    # A scenario may give t as a JSON integer; the exact residual must not
    # take its dtype from it.
    raw = json.loads(bundled_scenarios()["rod_convergence"].read_text())
    raw["params"] = {"t": t}
    scn = load_scenario(raw)
    assert any(scn.conn_spec.Omega)
    for check in _run_case(scn).checks:
        assert check.passed(), f"{check.name}: {check.value}"


def test_cauchy_manufactured_seed_determinism():
    scn = load_scenario(json.loads(
        bundled_scenarios()["cauchy_manufactured"].read_text()))
    a = _run_case(scn, seed=11).tables[0].rows
    b = _run_case(scn, seed=11).tables[0].rows
    c = _run_case(scn, seed=12).tables[0].rows
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# connection-spec validation


def test_conn_spec_unknown_type_names_key():
    with pytest.raises(ScenarioError, match="connection.type"):
        ConnSpec.from_dict({"type": "galilean"})


def test_conn_spec_bad_vector_names_key():
    with pytest.raises(ScenarioError, match="connection.g"):
        ConnSpec.from_dict({"g": [1.0, 2.0]})
    with pytest.raises(ScenarioError, match="connection.Omega"):
        ConnSpec.from_dict({"Omega": "fast"})


def test_conn_spec_unknown_key_named():
    with pytest.raises(ScenarioError, match="connection.gee"):
        ConnSpec.from_dict({"gee": [0, 0, 0]})


def test_conn_spec_case_type_cannot_build():
    spec = ConnSpec.from_dict({"type": "case"})
    with pytest.raises(ScenarioError, match="connection.type"):
        spec.build()


def test_conn_spec_rotating_frame_adds_centrifugal():
    spec = ConnSpec.from_dict({
        "type": "rotating_frame", "g": [0.0, 0.0, -9.81],
        "Omega": [0.0, 0.0, 2.0],
    })
    conn = spec.build()
    x = np.array([0.3, -0.4, 1.0])
    expected = np.array([0.0, 0.0, -9.81]) + 4.0 * np.array([0.3, -0.4, 0.0])
    (g,), (Omega,) = conn.fields_at(0.0, x)
    np.testing.assert_allclose(g, expected, atol=1e-14)
    np.testing.assert_allclose(Omega, [0.0, 0.0, 2.0], atol=1e-14)


def test_check_tolerance_scale():
    c = Check("x", value=5e-9, tol=1e-9)
    assert not c.passed()
    assert c.passed(scale=10.0)


def test_worst_residual_keeps_a_nan_past_the_first_point():
    residuals = [np.zeros(10), np.full(10, np.nan)]
    worst = _worst(residuals)
    assert np.isnan(worst)
    assert not Check("residual", worst, 1e-8).passed()
    assert _worst([np.full(3, 2e-9), np.array([1e-9, -3e-9, 0.0])]) == 3e-9


def test_residual_case_table_and_check_read_one_array():
    rng = np.random.default_rng(5)
    rows = [[0.0, 0.1 * k] for k in range(4)]
    values = rng.normal(size=(4, 10)) * 1e-9
    values[2, 3] = -0.0

    def index(t, s):
        # The rows of a block, found from its columns.
        return [rows.index([a, b]) for a, b in zip(t.tolist(), s.tolist())]

    def view(t, s):
        r = values[index(t, s)]
        return BalanceResidual(mass=r[:, 0], lin_mom=r[:, 1:4],
                               pos_q=r[:, 4:7], ang_mom=r[:, 7:])

    result = _residual_case("r", 1e-8, "t,s", rows, view)
    table = result.tables[0]
    assert table.header == f"t,s,{RESIDUAL_COLUMNS},max_abs"
    ref = np.array([np.concatenate([c, r, [np.max(np.abs(r))]])
                    for c, r in zip(rows, values)])
    assert table.rows.tobytes() == ref.tobytes()
    assert result.checks[0].value == np.max(np.abs(values))

    exact = rng.normal(size=(4, 10)) * 1e-9
    result = _residual_case("r", 1e-8, "t,s", rows, view,
                            exact=lambda t, s: exact[index(t, s)])
    assert result.checks[0].value == np.max(np.abs(values - exact))
    assert result.tables[0].rows.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stress_fails_the_residual_check(bad):
    # assemble_cauchy_T passes a non-finite sigma through; the residual at
    # the second point is then non-finite, and the check fails on it.
    def T(t, x):
        scale = bad if x[0] > 0.25 else 1.0
        return assemble_cauchy_T(1.0, np.zeros(3), np.diag([-scale] * 3))

    zero_v = batched(lambda t, x: np.zeros(3))
    zero_m = batched(lambda t, x: np.zeros((3, 3)))
    state = Cosserat3DState(T=batched(T), q=zero_v, l=zero_v, l_star=zero_m,
                            M_star=zero_m)
    conn = GalileanConnection()
    result = _residual_case(
        "r", 1e-8, "t,x1,x2,x3",
        [np.array([0.0, 0.0, 0.1, 0.0]), np.array([0.0, 0.5, 0.1, 0.0])],
        lambda t, *x: residual_3d_cosserat(state, conn, t, x))
    max_abs = result.tables[0].rows[:, -1]
    assert max_abs[0] < 1e-12 and not math.isfinite(max_abs[1])
    assert not math.isfinite(result.checks[0].value)
    assert not result.checks[0].passed()

