"""Batched probe grids of the residual views against point-by-point
evaluation.

residual_pointwise, residual_1d, residual_2d, residual_cauchy and
residual_3d_cosserat take a batch of points through one
connection.divergence with a leading point axis.  Each
point's rows must be those it gets on its own, whether its fields are
written in batch form or written for one point and read through the test
adapter per_point.batched, under a uniform and a rotating frame; a
scenario's rows may not depend on how its grid is cut into blocks; and on
a bounded domain a batch must fail, or take its one-sided stencils, as a
loop over its points does.  One point is a batch of one and runs every
line a batch runs, so a fault in that code moves both sides of these
comparisons alike: the batched shell rows are also held to the
hand-expanded shell oracle.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsor import connection, library
from torsor.balance import (
    residual_1d,
    residual_2d,
    residual_3d_cosserat,
    residual_cauchy,
    residual_pointwise,
)
from torsor.cli import bundled_scenarios, load_scenario
from torsor.connection import GalileanConnection
from torsor.errors import DifferentiationFailure
from torsor.fields import (
    CauchyMedium,
    Cosserat1DField,
    Cosserat3DState,
    Curve1D,
    ShellField,
    ShellLoads,
)

from per_point import batched
from test_balance import shell_oracle


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


# Each maker builds its medium from fields written once for one point and
# for a batch; `wrap`, if given, is applied to every field: the test
# adapter `batched`, to read them point by point, or a spy.


def cauchy_medium(c, wrap=lambda fn: fn, domain=None):
    rho = smooth(c, ())
    return CauchyMedium(
        rho=wrap(lambda t, x: 2.0 + rho(t, x)),
        v=wrap(smooth(c, (3,))),
        sigma=wrap(smooth(c[::-1], (3, 3))), domain=domain)


def cosserat_state(c, wrap=lambda fn: fn, domain=None):
    return Cosserat3DState(
        T=wrap(smooth(c, (4, 4))),
        q=wrap(smooth(c[1:], (3,))),
        l=wrap(smooth(c[2:], (3,))),
        l_star=wrap(smooth(c[::-1], (3, 3))),
        M_star=wrap(smooth(c[::2], (3, 3))), domain=domain)


def shell_loads(c, wrap):
    """Polynomial loads with a non-symmetric N and M and a kappa that
    varies in t, so that every row of the view is nonzero; written once
    for one point and for a batch (point axis last)."""
    a, b, d, e, f, g = c

    def N(t, th1, th2):
        return np.array([[0.7 + a * th1 * t, 0.3 - b * th2],
                         [-0.2 + d * th1, e * t]])

    def M(t, th1, th2):
        return np.array([[f * th1 * th1, 0.2 * t - g * th2],
                         [a * th1 * th2, -b * th2 * t]])

    return ShellLoads(
        rho_s=wrap(lambda t, th1, th2: 1.5 + d * th1 - e * t * th2),
        N=wrap(N),
        Q=wrap(lambda t, th1, th2: np.array([f * th1 * th2 + t, g * th2])),
        M=wrap(M),
        kappa=wrap(lambda t, th1, th2: 0.5 + 0.3 * t + 0.2 * a * th1))


def plate(t, th1, th2):
    return np.array([th1, th2, np.zeros_like(th1)])


def plate_pi(t, th1, th2):
    one, zero = np.ones_like(th1), np.zeros_like(th1)
    return np.array([[one, zero, zero], [zero, one, zero]])


def plate_n(t, th1, th2):
    zero = np.zeros_like(th1)
    return np.array([zero, zero, np.ones_like(th1)])


def plate_w(t, th1, th2):
    return np.zeros((3,) + np.shape(th1))


def sphere(t, th1, th2):
    return np.array([th1, th2, np.sqrt(4.0 - th1 * th1 - th2 * th2)])


def sphere_pi(t, th1, th2):
    z = np.sqrt(4.0 - th1 * th1 - th2 * th2)
    one, zero = np.ones_like(z), np.zeros_like(z)
    return np.array([[one, zero, -th1 / z], [zero, one, -th2 / z]])


RATE = 0.7


def spinning(t, th1, th2):
    """A non-orthonormal paraboloid chart, spinning about e3 at RATE and
    translating; written elementwise, so that one point and a batch take
    the same products."""
    f0, f1 = th1 + 0.3 * th2, th2 - 0.2 * th1
    c, s = np.cos(RATE * t), np.sin(RATE * t)
    return np.array([c * f0 - s * f1 + 0.3 * t, s * f0 + c * f1 - 0.1 * t * t,
                     0.2 * th1 * th1 + 0.1 * th1 * th2 + 0.15 * th2 * th2])


def spinning_varpi(t, th1, th2):
    zero = np.zeros_like(t)
    return np.array([zero, zero, RATE + zero])


# The plate reads pi, n and w from its callables; the sphere builds its
# normal from pi and differences it for w; the spinning shell differences
# x for pi and takes w = varpi x n.
SHELLS = {
    "plate": lambda wrap, d: ShellField(
        wrap(plate), pi=wrap(plate_pi), n=wrap(plate_n),
        w=wrap(plate_w), domain=d),
    "sphere": lambda wrap, d: ShellField(wrap(sphere), pi=wrap(sphere_pi),
                                         domain=d),
    "spinning": lambda wrap, d: ShellField(
        wrap(spinning), varpi=wrap(spinning_varpi), domain=d),
}


def shell_medium(geometry):
    def make(c, wrap=lambda fn: fn, domain=None):
        return SHELLS[geometry](wrap, domain), shell_loads(c, wrap)

    return make


def shell_residual(fields, conn, *coords, **kw):
    return residual_2d(*fields, conn, *coords, **kw)


def trajectory(c, wrap=lambda fn: fn, domain=None):
    """A worldline's (m, p, q, l), smooth and written once for one time
    and for a batch (point axis last)."""
    a, b, d, e, f, g = c

    def mplq(t):
        rows = [np.sin(a * t + i) + 0.3 * b * t * t * i for i in range(9)]
        return (2.0 + 0.5 * np.sin(d * t), np.array(rows[:3]),
                np.array(rows[3:6]) * e, np.array(rows[6:]) * f + g * t)

    return wrap(mplq)


def rod(c, wrap=lambda fn: fn, domain=None):
    """A rod whose tangent is differenced from psi and whose velocity
    slides along the chart at the given v_t, with smooth loads, written
    once for one point and for a batch (point axis last)."""
    a, b, d, e, f, g = c

    def vec(k):
        return lambda t, s: np.array([
            c[(k + i) % 6] * np.sin(s + (k + i) * t) + 0.2 * s * t * i
            for i in range(3)])

    curve = Curve1D(
        wrap(lambda t, s: np.array([s + 0.1 * a * t * t,
                                    0.3 * np.sin(b * t + s),
                                    0.2 * d * s * s])),
        v_t=wrap(lambda t, s: e * np.cos(t - s)), domain=domain)
    return Cosserat1DField(
        curve=curve,
        rho_l=wrap(lambda t, s: 1.5 + 0.3 * np.sin(f * t + g * s)),
        F=wrap(vec(0)), q=wrap(vec(1)),
        l=wrap(vec(2)), l_star=wrap(vec(3)),
        M_star=wrap(vec(4)))


def time_events(rng, m, lo=-1.0, hi=1.0):
    """t of shape (m,)."""
    return (rng.uniform(lo, hi, size=m),)


def curve_events(rng, m, lo=-1.0, hi=1.0):
    """t and s, each of shape (m,)."""
    return tuple(rng.uniform(lo, hi, size=(2, m)))


def space_events(rng, m, lo=-1.0, hi=1.0):
    """t of shape (m,) and x of shape (3, m)."""
    return rng.uniform(lo, hi, size=m), rng.uniform(lo, hi, (3, m))


def surface_events(rng, m, lo=-0.6, hi=0.6):
    """t, theta1 and theta2, each of shape (m,)."""
    return tuple(rng.uniform(lo, hi, size=(3, m)))


# medium -> (fields from coefficients, residual view, probe events).
MEDIA = {
    "pointwise": (trajectory, residual_pointwise, time_events),
    "rod": (rod, residual_1d, curve_events),
    "cauchy": (cauchy_medium, residual_cauchy, space_events),
    "cosserat": (cosserat_state, residual_3d_cosserat, space_events),
    **{geometry: (shell_medium(geometry), shell_residual, surface_events)
       for geometry in SHELLS},
}


def frame(kind, rng):
    g, Omega = rng.uniform(-1.0, 1.0, size=(2, 3))
    if kind == "rotating":
        return GalileanConnection.rotating_frame(Omega, g=g)
    return GalileanConnection.uniform(g=g, Omega=Omega)


def point_by_point(residual, fields, conn, coords, **kw):
    """The rows of a loop of one-point calls, (m, 10)."""
    return np.array([
        residual(fields, conn, *(c[..., p] for c in coords), **kw).as_array()
        for p in range(len(coords[0]))])


# Each worldline, rod and space-filling medium under both frames; each
# shell, whose points cost several times as much, under the rotating frame
# with a base gravity alone, whose g and Omega both enter the shell
# Christoffels.
ROW_CASES = [
    (medium, batch_form, kind) for medium in sorted(MEDIA)
    for batch_form in (True, False)
    for kind in (("rotating",) if MEDIA[medium][2] is surface_events
                 else ("uniform", "rotating"))
]


# One point of the rod view costs about 1 ms, several times a point of the
# others, so its batches hold at most this many points.
ROD_POINTS = 4


@pytest.mark.parametrize("medium, batch_form, kind", ROW_CASES)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9))
def test_batch_rows_match_point_by_point(medium, batch_form, kind, seed, m):
    rng = np.random.default_rng(seed)
    make, residual, events = MEDIA[medium]
    m = min(m, ROD_POINTS) if medium == "rod" else m
    c = rng.uniform(-1.0, 1.0, size=6)
    fields = make(c) if batch_form else make(c, batched)
    conn = frame(kind, rng)
    coords = events(rng, m)
    batch = residual(fields, conn, *coords)
    assert batch.mass.shape == (m,) and batch.ang_mom.shape == (m, 3)
    rows = batch.as_array()
    loop = point_by_point(residual, fields, conn, coords)
    if batch_form:
        # numpy's functions on a whole array may round unlike on one value.
        assert np.linalg.norm(rows - loop) <= 1e-12 * np.linalg.norm(loop)
    else:
        # The same field values either way, so the same bits.
        assert rows.tobytes() == loop.tobytes()


def spy(fn):
    """fn, as a field that fails on any call whose coordinates are floats
    or 0-d arrays instead of arrays with a point axis."""
    def read(*coords):
        for c in coords:
            if not (isinstance(c, np.ndarray) and c.ndim >= 1):
                pytest.fail(f"field read on {c!r}, not on a batch")
        return fn(*coords)

    return read


@pytest.mark.parametrize("m", [None, 3], ids=["one_float_point", "batch"])
@pytest.mark.parametrize("medium", sorted(MEDIA))
def test_every_field_read_takes_a_batch(medium, m):
    # Every view reads every field of its medium on a batch, the shell's
    # chart and the curve's psi and v_t too: at a single point given as
    # floats (x a (3,) array) as well, since one point is a batch of one.
    rng = np.random.default_rng(7)
    make, residual, events = MEDIA[medium]
    c = rng.uniform(-1.0, 1.0, size=6)
    conn = frame("rotating", rng)
    coords = events(rng, m or 1)
    if m is None:
        coords = tuple(u[..., 0] if u.ndim > 1 else float(u[0])
                       for u in coords)
    rows = residual(make(c, spy), conn, *coords).as_array()
    want = residual(make(c), conn, *coords).as_array()
    assert rows.shape == ((10,) if m is None else (m, 10))
    assert rows.tobytes() == want.tobytes()


BATCHED_CASES = ["cauchy_manufactured", "hydrostatic", "rotating_bucket",
                 "momentless_hydrostatic", "plate_bending", "laplace_sphere",
                 "spinning_drum", "projectile_residual", "beam_under_gravity",
                 "spinning_ring"]

# The grid param of each medium, set to 4^3 (d = 3, plus random points),
# 4^2 (d = 2) or 16 (d = 1 and d = 0) points.
GRID = {"d0": {"n_t": 16}, "d1": {"n_s": 16}}


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_rows_do_not_depend_on_the_probe_chunk(monkeypatch, case):
    # The grid in one call with each stencil side in one block, then in
    # blocks of at most 7 probes (7 // (d + 1) whole points, the last
    # block holding fewer), then also in calls of 7 points.
    scn = load_scenario(json.loads(bundled_scenarios()[case].read_text()))
    spec = library.CASES[case]
    params = {**spec.defaults, **scn.params,
              **GRID.get(spec.medium, {"n_side": 4})}
    calls = []
    for name in ("residual_cauchy", "residual_3d_cosserat", "residual_2d",
                 "residual_1d", "residual_pointwise"):
        view = getattr(library, name)
        monkeypatch.setattr(library, name,
                            lambda *a, view=view, **kw: calls.append(1)
                            or view(*a, **kw))

    def run():
        calls.clear()
        result = spec.build(params, np.random.default_rng(3), scn.conn_spec)
        return result, len(calls)

    whole, n_whole = run()
    monkeypatch.setattr(connection, "PROBE_CHUNK", 15)
    stencils, n_stencils = run()
    monkeypatch.setattr(library, "PROBE_CHUNK", 7)
    parts, n_parts = run()
    points = len(whole.tables[0].rows)
    assert (n_whole, n_stencils, n_parts) == (1, 1, -(-points // 7))
    for cut in (stencils, parts):
        assert cut.tables[0].rows.tobytes() == whole.tables[0].rows.tobytes()
        assert cut.checks[0].value == whole.checks[0].value


def first_failure(residual, fields, conn, coords):
    """The message of the first point whose rows fail, or None."""
    for p in range(len(coords[0])):
        try:
            residual(fields, conn, *(c[..., p] for c in coords))
        except DifferentiationFailure as err:
            return str(err)
    return None


# The coordinates of a point of each medium's probe events.
DIMS = {space_events: 4, surface_events: 3, curve_events: 2}


@pytest.mark.parametrize("medium", ["cauchy", "cosserat", "plate", "rod"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8))
def test_bounded_domain_batch_acts_as_a_loop(medium, seed, m):
    # Events in the unit box, each coordinate sometimes on a face, so that
    # different points fail in different coordinates.
    rng = np.random.default_rng(seed)
    make, residual, events = MEDIA[medium]
    dims = DIMS[events]
    m = min(m, ROD_POINTS) if medium == "rod" else m
    fields = make(rng.uniform(-1.0, 1.0, size=6), domain=((0.0, 1.0),) * dims)
    conn = frame("rotating", rng)
    points = rng.uniform(0.2, 0.8, size=(dims, m))
    faces = rng.random(size=(dims, m)) < 0.15
    points[faces] = rng.integers(0, 2, size=int(faces.sum()))
    coords = ((points[0], points[1:]) if events is space_events
              else tuple(points))

    expect = first_failure(residual, fields, conn, coords)
    if expect is None:
        residual(fields, conn, *coords)
    else:
        with pytest.raises(DifferentiationFailure) as err:
            residual(fields, conn, *coords)
        assert str(err.value) == expect
    rows = residual(fields, conn, *coords, one_sided=True).as_array()
    loop = point_by_point(residual, fields, conn, coords, one_sided=True)
    assert rows.tobytes() == loop.tobytes()


def test_bounded_domain_names_the_first_failing_point():
    # Point 0 leaves the box only in x3, point 1 already in t: a loop over
    # the points stops at point 0's x3, and so must the batch.
    fields = cauchy_medium(np.linspace(-0.5, 0.5, 6), domain=((0.0, 1.0),) * 4)
    t = np.array([0.5, 0.0])
    x = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.5]])
    x[2, 0] = 1.0
    with pytest.raises(DifferentiationFailure, match=r"coordinate 1\.0 "):
        residual_cauchy(fields, GalileanConnection(), t, x)


@pytest.mark.parametrize("one_sided", [False, True])
def test_point_outside_the_domain_raises(one_sided):
    # x1 = 1.5 lies outside the unit box, so every stencil around it,
    # one-sided ones too, would read the medium only outside its domain.
    fields = cauchy_medium(np.linspace(-0.5, 0.5, 6), domain=((0.0, 1.0),) * 4)
    with pytest.raises(DifferentiationFailure, match=(
            r"^coordinate 1\.5 lies outside the domain \[0\.0, 1\.0\]$")):
        residual_cauchy(fields, GalileanConnection(), 0.5,
                        np.array([1.5, 0.5, 0.5]), one_sided=one_sided)


def counted(fn, calls, name):
    """fn, listing the points of each of its calls in calls[name]."""
    def read(*args):
        calls.setdefault(name, []).append(len(args[0]))
        return fn(*args)

    return read


# (medium, the fields that count_loads counts, the stencil offsets of a
# point: 1 + 2 (d + 1)).
LOAD_CASES = [
    ("pointwise", ("traj",), 3),
    ("rod", ("rho_l", "F", "q", "l", "l_star", "M_star"), 5),
    ("plate", ("rho_s", "N", "Q", "M", "kappa"), 7),
    ("cauchy", ("rho", "v", "sigma"), 9),
    ("cosserat", ("T", "q", "l", "l_star", "M_star"), 9),
]
LOADS = {medium: names for medium, names, _ in LOAD_CASES}


def count_loads(medium, fields, calls):
    """fields, with each of its LOADS[medium] counted in calls."""
    if medium == "pointwise":
        return counted(fields, calls, "traj")
    loads = fields[1] if medium == "plate" else fields
    loads = dataclasses.replace(loads, **{
        name: counted(getattr(loads, name), calls, name)
        for name in LOADS[medium]})
    return (fields[0], loads) if medium == "plate" else loads


@pytest.mark.parametrize("medium, names, offsets", LOAD_CASES)
def test_each_view_reads_its_fields_once_per_stencil_offset(medium, names,
                                                            offsets):
    # A medium's load fields are read three times a call, for
    # the whole batch: at its points, then once per side of the one
    # stencil that moves every coordinate of every point, so that the
    # three reads hold each point at its 1 + 2 (d + 1) offsets once.
    # Every view shares each read among U, T, J, its Christoffels and its
    # rows.
    rng = np.random.default_rng(3)
    make, residual, events = MEDIA[medium]
    calls = {}
    fields = count_loads(medium, make(rng.uniform(-1.0, 1.0, size=6)), calls)
    residual(fields, frame("rotating", rng), *events(rng, 3))
    side = 3 * (offsets - 1) // 2  # 3 points of d + 1 probes each
    assert ({name: sorted(sizes) for name, sizes in calls.items()}
            == dict.fromkeys(names, [3, side, side]))


@pytest.mark.parametrize("medium", ["cauchy", "cosserat", "rod", "plate"])
def test_bad_point_in_a_later_stencil_block_raises_before_any_read(
        monkeypatch, medium):
    # One point per stencil block: only the third point lies on a face,
    # and the whole stencil is checked before any block is read, or any
    # field at the points.
    make, residual, events = MEDIA[medium]
    dims = DIMS[events]
    monkeypatch.setattr(connection, "PROBE_CHUNK", 2 * dims)
    calls = {}
    fields = count_loads(medium, make(np.linspace(-0.5, 0.5, 6),
                                      domain=((0.0, 1.0),) * dims), calls)
    points = np.full((dims, 3), 0.5)

    def run():
        coords = ((points[0], points[1:]) if events is space_events
                  else tuple(points))
        return residual(fields, GalileanConnection(), *coords)

    points[1, 2] = 1.0
    with pytest.raises(DifferentiationFailure, match=r"coordinate 1\.0 "):
        run()
    assert calls == {}
    points[1, 2] = 0.75
    run()
    blocks = [dims] * 6 + [3]  # each block's two sides, then the points
    assert calls == dict.fromkeys(LOADS[medium], blocks)


def test_shell_batch_matches_hand_expanded_oracle():
    # The spinning paraboloid (finite-difference pi, w = varpi x n) with
    # polynomial loads, in batch form, in a rotating frame with a base
    # gravity: every row of a batch against the hand expansion of the
    # thin-medium laws at its point.
    rng = np.random.default_rng(11)
    sf, loads = shell_medium("spinning")(rng.uniform(-1.0, 1.0, size=6))
    conn = GalileanConnection.rotating_frame([0.3, -0.2, 0.5],
                                             g=[0.1, 0.2, -9.8])
    coords = surface_events(rng, 4)
    rows = residual_2d(sf, loads, conn, *coords).as_array()
    want = np.array([shell_oracle(sf, loads, conn, *(c[p] for c in coords))
                     for p in range(4)])
    assert np.min(np.abs(want)) > 1e-4
    np.testing.assert_allclose(rows, want, rtol=0, atol=1e-9)
