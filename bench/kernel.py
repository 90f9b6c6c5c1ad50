"""Reference kernel: a fixed piece of work that measures the machine's speed.

The machine this benchmark runs on is shared, and its speed moves by
tens of percent between processes and within one; CPU time moves with
wall time, so the scheduler is not the cause.  Every operation is
therefore timed next to this kernel, and its time is multiplied by
NOMINAL_MS / (measured kernel time): results read as times on a machine
that runs the kernel in NOMINAL_MS.

The kernel calls nothing in nssol.  It does the kinds of work the
workloads do, in roughly equal shares: interpreter-bound float
arithmetic and number formatting, small numpy calls on short arrays,
and a scipy ``solve_ivp`` with terminal events.
"""

import math
import time

import numpy as np

#: kernel time, in ms, of the nominal machine (the median on the machine
#: the README's reference figures come from)
NOMINAL_MS = 11.0

_MESH = np.linspace(0.0, 1.0, 1001)
_VALUES = np.sin(_MESH)
_SLOPES = np.cos(_MESH)


def _python_part():
    # fixed-step RK4 of a'' = -1/a + 0.1*a'/a**2, the shape of the
    # scaling ODEs, then 17-digit formatting of the trajectory
    a, v, h = 1.0, 0.2, 1e-3
    acc = lambda a, v: -1.0 / a + 0.1 * v / (a * a)
    traj = []
    for _ in range(600):
        k1v = acc(a, v)
        k2a = v + 0.5 * h * k1v
        k2v = acc(a + 0.5 * h * v, k2a)
        k3a = v + 0.5 * h * k2v
        k3v = acc(a + 0.5 * h * k2a, k3a)
        k4a = v + h * k3v
        k4v = acc(a + h * k3a, k4a)
        a += h * (v + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        traj.append((a, v, math.exp(-a * a) / a ** 3))
    text = "\n".join(",".join(f"{x:.17g}" for x in row) for row in traj)
    return len(text) + a


def _numpy_part():
    # per-point cubic Hermite lookups, as a scalar field evaluator does
    total = 0.0
    for k in range(400):
        x = (k * 0.618033988749895) % 1.0
        i = min(max(int(np.searchsorted(_MESH, x, side="right")) - 1, 0), 999)
        h = _MESH[i + 1] - _MESH[i]
        t = (x - _MESH[i]) / h
        total += ((2 * t ** 3 - 3 * t * t + 1) * _VALUES[i]
                  + (t ** 3 - 2 * t * t + t) * h * _SLOPES[i]
                  + (-2 * t ** 3 + 3 * t * t) * _VALUES[i + 1]
                  + (t ** 3 - t * t) * h * _SLOPES[i + 1])
    return total


def _scipy_part():
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[1], -1.0 / y[0] + 0.1 * y[1] / (y[0] * y[0])]

    def low(t, y):
        return y[0] - 1e-3

    low.terminal = True
    sol = solve_ivp(rhs, [0.0, 0.6], [1.0, 0.2], method="RK45", rtol=1e-10,
                    atol=1e-12, dense_output=True, events=[low])
    return float(sol.sol(np.linspace(0.0, sol.t[-1], 50))[0].sum())


def run_kernel():
    """Run the kernel once; return its wall time in ms."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    _scipy_part()
    return (time.perf_counter() - t0) * 1e3
