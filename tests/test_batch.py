"""Batched probe grids of the space-filling views against point-by-point
evaluation.

residual_cauchy and residual_3d_cosserat take a batch of events through
one connection.divergence with a leading point axis.  Each point's rows
must be those it gets on its own, whether its medium is vectorized or read
point by point, under a uniform and a rotating frame; a scenario's rows
may not depend on how its grid is cut into blocks; and on a bounded domain
a batch must fail, or take its one-sided stencils, as a loop over its
points does.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsor import library
from torsor.balance import residual_3d_cosserat, residual_cauchy
from torsor.cli import bundled_scenarios, load_scenario
from torsor.connection import GalileanConnection
from torsor.errors import DifferentiationFailure
from torsor.fields import CauchyMedium, Cosserat3DState


def smooth(c, shape):
    """A field (t, x) -> array of `shape` with smooth entries, written
    once for one event and for a batch (point axis last)."""
    n = int(np.prod(shape, dtype=int))

    def fn(t, x):
        return np.array([
            c[i % len(c)] * np.sin(x[i % 3] + 0.3 * (i % 5 + 1) * t + i)
            + 0.1 * x[(i + 1) % 3] * x[(i + 2) % 3]
            for i in range(n)
        ]).reshape(shape + np.shape(t))

    return fn


def cauchy_medium(c, vectorized, domain=None):
    rho = smooth(c, ())
    return CauchyMedium(rho=lambda t, x: 2.0 + rho(t, x), v=smooth(c, (3,)),
                        sigma=smooth(c[::-1], (3, 3)), domain=domain,
                        vectorized=vectorized)


def cosserat_state(c, vectorized, domain=None):
    return Cosserat3DState(
        T=smooth(c, (4, 4)), q=smooth(c[1:], (3,)), l=smooth(c[2:], (3,)),
        l_star=smooth(c[::-1], (3, 3)), M_star=smooth(c[::2], (3, 3)),
        domain=domain, vectorized=vectorized)


MEDIA = {
    "cauchy": (cauchy_medium, residual_cauchy),
    "cosserat": (cosserat_state, residual_3d_cosserat),
}


def frame(kind, rng):
    g, Omega = rng.uniform(-1.0, 1.0, size=(2, 3))
    if kind == "rotating":
        return GalileanConnection.rotating_frame(Omega, g=g)
    return GalileanConnection.uniform(g=g, Omega=Omega)


def point_by_point(residual, fields, conn, t, x, **kw):
    """The rows of a loop of one-event calls, (m, 10)."""
    return np.array([residual(fields, conn, t[p], x[:, p], **kw).as_array()
                     for p in range(len(t))])


@pytest.mark.parametrize("kind", ["uniform", "rotating"])
@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("medium", sorted(MEDIA))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9))
def test_batch_rows_match_point_by_point(medium, vectorized, kind, seed, m):
    rng = np.random.default_rng(seed)
    make, residual = MEDIA[medium]
    fields = make(rng.uniform(-1.0, 1.0, size=6), vectorized)
    conn = frame(kind, rng)
    t, x = rng.uniform(-1.0, 1.0, size=m), rng.uniform(-1.0, 1.0, (3, m))
    batch = residual(fields, conn, t, x)
    assert batch.mass.shape == (m,) and batch.ang_mom.shape == (m, 3)
    rows = batch.as_array()
    loop = point_by_point(residual, fields, conn, t, x)
    if vectorized:
        # numpy's functions on a whole array may round unlike on one value.
        assert np.linalg.norm(rows - loop) <= 1e-12 * np.linalg.norm(loop)
    else:
        # The same field values either way, so the same bits.
        assert rows.tobytes() == loop.tobytes()


D3_CASES = ["cauchy_manufactured", "hydrostatic", "rotating_bucket",
            "momentless_hydrostatic"]


@pytest.mark.parametrize("case", D3_CASES)
def test_rows_do_not_depend_on_the_probe_chunk(monkeypatch, case):
    # 4^3 grid points (plus random ones) in one block, then in blocks of 7.
    scn = load_scenario(json.loads(bundled_scenarios()[case].read_text()))
    spec = library.CASES[case]
    params = {**spec.defaults, **scn.params, "n_side": 4}
    calls = []
    for name in ("residual_cauchy", "residual_3d_cosserat"):
        view = getattr(library, name)
        monkeypatch.setattr(library, name,
                            lambda *a, view=view, **kw: calls.append(1)
                            or view(*a, **kw))

    def run():
        calls.clear()
        result = spec.build(params, np.random.default_rng(3), scn.conn_spec)
        return result, len(calls)

    whole, n_whole = run()
    monkeypatch.setattr(library, "PROBE_CHUNK", 7)
    parts, n_parts = run()
    points = len(whole.tables[0].rows)
    assert (n_whole, n_parts) == (1, -(-points // 7))
    assert parts.tables[0].rows.tobytes() == whole.tables[0].rows.tobytes()
    assert parts.checks[0].value == whole.checks[0].value


def first_failure(residual, fields, conn, t, x):
    """The message of the first point whose rows fail, or None."""
    for p in range(len(t)):
        try:
            residual(fields, conn, t[p], x[:, p])
        except DifferentiationFailure as err:
            return str(err)
    return None


@pytest.mark.parametrize("medium", sorted(MEDIA))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8))
def test_bounded_domain_batch_acts_as_a_loop(medium, seed, m):
    # Events in the unit box, each coordinate sometimes on a face, so that
    # different points fail in different coordinates.
    rng = np.random.default_rng(seed)
    make, residual = MEDIA[medium]
    fields = make(rng.uniform(-1.0, 1.0, size=6), True,
                  domain=((0.0, 1.0),) * 4)
    conn = frame("rotating", rng)
    events = rng.uniform(0.2, 0.8, size=(4, m))
    faces = rng.random(size=(4, m)) < 0.15
    events[faces] = rng.integers(0, 2, size=int(faces.sum()))
    t, x = events[0], events[1:]

    expect = first_failure(residual, fields, conn, t, x)
    if expect is None:
        residual(fields, conn, t, x)
    else:
        with pytest.raises(DifferentiationFailure) as err:
            residual(fields, conn, t, x)
        assert str(err.value) == expect
    rows = residual(fields, conn, t, x, one_sided=True).as_array()
    loop = point_by_point(residual, fields, conn, t, x, one_sided=True)
    assert rows.tobytes() == loop.tobytes()


def test_bounded_domain_names_the_first_failing_point():
    # Point 0 leaves the box only in x3, point 1 already in t: a loop over
    # the points stops at point 0's x3, and so must the batch.
    fields = cauchy_medium(np.linspace(-0.5, 0.5, 6), True,
                           domain=((0.0, 1.0),) * 4)
    t = np.array([0.5, 0.0])
    x = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.5]])
    x[2, 0] = 1.0
    with pytest.raises(DifferentiationFailure, match=r"coordinate 1\.0 "):
        residual_cauchy(fields, GalileanConnection(), t, x)
