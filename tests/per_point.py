"""Test scaffolding: fields written for one point, read on a batch.

Every field of torsor takes a batch of points and returns its values with
the point axis last.  Many test fields are written for one point, in the
form of a closed-form solution or a symbolic oracle; `batched` wraps such a
field into the batch form, so that each point's values are those the
one-point form gives, bit for bit.
"""

import numpy as np

from torsor.affine import PointwiseTorsor


def batched(fn):
    """fn, written for one point, as a field that takes a batch.

    The batch's coordinates carry the point axis last: arrays of shape (m,)
    for t, s or theta, and (3, m) for x.  fn is called once per point, on
    floats and on x as a (3,) array, and its values are stacked with the
    point axis last.  A tuple of values is stacked entry by entry, and a
    trajectory's PointwiseTorsor is read as the tuple (m, p, q, l), so
    that it comes back as (m,) and (3, m) arrays, the form
    residual_pointwise reads.  Called on one point, as the hand-expanded
    oracles of the tests read a field, it is fn itself.
    """
    def read(*coords):
        if np.ndim(coords[0]) == 0:
            return fn(*coords)
        points = zip(*(c.tolist() if np.ndim(c) == 1
                       else np.ascontiguousarray(np.transpose(c))
                       for c in coords))
        values = [fn(*p) for p in points]
        if isinstance(values[0], PointwiseTorsor):
            values = [(v.m, v.p, v.q, v.l) for v in values]
        if isinstance(values[0], tuple):
            return tuple(_last(np.array(entry, dtype=float))
                         for entry in zip(*values))
        return _last(np.array(values, dtype=float))

    return read


def _last(a):
    """a with its first (point) axis moved last."""
    return np.moveaxis(a, 0, -1)
