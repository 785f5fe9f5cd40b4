"""Finite differences used by the divergence and residual operators.

Central second-order stencils with a per-coordinate default step
h = 1e-5 * max(1, |coordinate|).  Fields may declare domain bounds; a point
within one step of the boundary raises DifferentiationFailure unless the
caller opts into the one-sided second-order fallback.

A stencil runs on one point or on a batch of points along a leading point
axis.  Each point of a batch takes its own step and its own stencil, with
the arithmetic it would take alone, so its derivative is bit for bit the
one it would get on its own.
"""

import numpy as np

from .errors import DifferentiationFailure

DEFAULT_REL_STEP = 1e-5


def default_step(u):
    """DEFAULT_REL_STEP * max(1, |u|), elementwise for an array of points.

    A float takes Python's max: the float kernels of fields call this once
    per derivative, and np.maximum costs several times as much on a float.
    """
    if isinstance(u, np.ndarray):
        return DEFAULT_REL_STEP * np.maximum(1.0, np.abs(u))
    return DEFAULT_REL_STEP * max(1.0, abs(u))


def diff(f, u, h=None, lo=None, hi=None, one_sided: bool = False):
    """Derivative at u of f.

    u is a float and f maps a float to a scalar or an array; or u is an
    (m,) array of points, f maps an (m,) array to an array whose leading
    axis is the point axis, and the result keeps that axis.  h is a float
    or, for a batch, an (m,) array; it defaults to default_step(u).

    Central difference (f(u+h) - f(u-h)) / 2h by default.  If [lo, hi]
    bounds are given and a point's stencil would leave them, that point
    falls back to the one-sided second-order stencil when `one_sided` is
    set; otherwise DifferentiationFailure names the first such point.
    A one-sided batch evaluates f at three shifted batches, each point at
    the offsets of its own stencil.  A batch evaluates f on whole (m,)
    arrays, so its memory grows with m; connection.divergence's callers
    bound m (the scenario cases by library.PROBE_CHUNK).
    """
    if h is None:
        h = default_step(u)
    if lo is not None or hi is not None:
        side, failure = stencil_sides(u, h, lo, hi, one_sided)
        if failure is not None:
            raise failure[1]
        if np.any(side):
            return _one_sided(f, u, h, side)
    a = np.asarray(f(u + h), dtype=float)
    b = np.asarray(f(u - h), dtype=float)
    if isinstance(h, np.ndarray):  # one step per point, against a's rows
        h = h.reshape(h.shape + (1,) * (a.ndim - 1))
    return (a - b) / (2.0 * h)


def stencil_sides(u, h, lo=None, hi=None, one_sided: bool = False):
    """(side, failure) of the stencils of step h around u in [lo, hi].

    side is 0 where the central stencil fits, 1 where the backward
    one-sided stencil replaces it (near hi) and -1 where the forward one
    does (near lo); 0-d for a scalar u, else an (m,) array.  failure is
    None when every point has a stencil, else (index, error): the first
    point with none and the DifferentiationFailure naming it.  Without
    `one_sided`, a point whose central stencil leaves the bounds has none.
    """
    u, h = np.asarray(u), np.asarray(h)
    lo_ok = True if lo is None else u - h >= lo
    hi_ok = True if hi is None else u + h <= hi
    central = np.logical_and(lo_ok, hi_ok)
    back = np.logical_and(np.logical_not(hi_ok),
                          True if lo is None else u - 2.0 * h >= lo)
    fwd = (np.logical_not(back) & np.logical_not(lo_ok)
           & (True if hi is None else u + 2.0 * h <= hi))
    side = np.subtract(back, fwd, dtype=int)
    bad = np.logical_not(central)
    if one_sided:
        bad = bad & np.logical_not(back | fwd)
    if not bad.any():
        return side, None
    i = int(np.argmax(np.reshape(bad, -1)))
    ui = float(np.reshape(u, -1)[i])
    step = float(np.reshape(np.broadcast_to(h, u.shape), -1)[i])
    if one_sided:
        msg = f"domain too narrow around {ui!r} for a second-order stencil"
    else:
        msg = (f"coordinate {ui!r} is within one step ({step!r}) of the "
               "domain boundary; enable one_sided to use the inward stencil")
    return side, (i, DifferentiationFailure(msg))


def _one_sided(f, u, h, side):
    """diff with some points on one-sided stencils (side +-1).

    With s = h on backward and -h on forward points, the stencil is
    (3 f(u) - 4 f(u - s) + f(u - 2s)) / 2s: at s = -h that is the forward
    form (-3 f(u) + 4 f(u + h) - f(u + 2h)) / 2h bit for bit, since
    negation is exact.  The central points of a batch take u + h, u - h
    and u itself, and their own central form.  A single point is a batch
    of one: u, h and side are then 0-d, and f is handed each of its probes
    as a float, as on the central stencil.
    """
    s = np.where(side < 0, -h, h)
    c = side == 0
    # [()] turns a 0-d probe into a float and leaves a batch's array as is.
    f0 = np.asarray(f(np.where(c, u + h, u)[()]), dtype=float)
    f1 = np.asarray(f(np.asarray(u - s)[()]), dtype=float)
    f2 = np.asarray(f(np.where(c, u, u - 2.0 * s)[()]), dtype=float)
    num = np.empty_like(f0)
    num[c] = f0[c] - f1[c]
    o = ~c
    num[o] = 3.0 * f0[o] - 4.0 * f1[o] + f2[o]
    return num / (2.0 * s.reshape(s.shape + (1,) * (num.ndim - 1)))


def partial(f, args, i: int, h: float = None, bounds=None, one_sided: bool = False):
    """Partial derivative of f(*args) in args[i]; args are scalars.

    `bounds` is an optional sequence of (lo, hi) pairs (entries may be None)
    aligned with args.
    """
    args = list(args)
    lo = hi = None
    if bounds is not None and bounds[i] is not None:
        lo, hi = bounds[i]

    def slice_fn(u):
        probe = list(args)
        probe[i] = u
        return f(*probe)

    return diff(slice_fn, args[i], h=h, lo=lo, hi=hi, one_sided=one_sided)
