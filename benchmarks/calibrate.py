"""Reference computation that scales measured times to one machine speed.

On a VM that shares its host, the speed of identical work drifts by up to
2x within seconds, in CPU time as much as in wall time.  The benchmark
therefore times its work in short units and runs this fixed reference
computation between every two units.  Each unit's time is multiplied by
REF_S over the mean time of the two reference calls around it: the result
is the time the unit would take on a machine on which the reference takes
REF_S seconds.  The reference mixes interpreter work with small numpy
calls, as the torsor package does, and touches nothing of torsor, so no
change to the program moves it.
"""

import time
from dataclasses import dataclass

import numpy as np

# Iterations of one reference call, and the seconds such a call takes on
# the machine the scaled times refer to (a 2-vCPU Xeon VM at its fastest).
REF_ITERS = 10000
REF_S = 0.025

_ROTATION = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])


def reference(n=REF_ITERS):
    x = np.array([1.0, 2.0, 3.0])
    acc = 0.0
    table = {}
    for i in range(n):
        x = _ROTATION @ x
        acc += float(np.dot(x, x)) * 1e-3
        table[i & 63] = acc
    return acc


def time_reference():
    """(wall s, CPU s) of one reference call."""
    w0, c0 = time.perf_counter(), time.process_time()
    reference()
    return time.perf_counter() - w0, time.process_time() - c0


@dataclass
class Timing:
    """Raw and scaled wall and CPU seconds, summed over units."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0


class Clock:
    """Runs units of work, each between two reference calls."""

    def __init__(self, first_ref=None):
        self.last = first_ref or time_reference()

    def run(self, unit, timing):
        """Call `unit()`, add its raw and scaled times to `timing`, and
        return what it returned."""
        w0, c0 = time.perf_counter(), time.process_time()
        out = unit()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ref = time_reference()
        timing.wall_s += wall
        timing.cpu_s += cpu
        timing.scaled_wall_s += wall * 2.0 * REF_S / (self.last[0] + ref[0])
        timing.scaled_cpu_s += cpu * 2.0 * REF_S / (self.last[1] + ref[1])
        self.last = ref
        return out


def scale_setup(seconds, ref_before, ref_after):
    """Set-up seconds scaled by the reference wall times around them."""
    return seconds * 2.0 * REF_S / (ref_before[0] + ref_after[0])
