"""Physical fields rho(t, r) and u(t, r) assembled from a shape and a scaling.

The ansatz is rho = shape(r/a(t))/a(t)**N and u = (a'(t)/a(t))*r; the
mass equation holds for any C1 shape and any positive C1 scaling, while
the momentum equation pins down the family-specific shape/scaling pair.
"""

import numpy as np

from ._interp import BLOCK, unbox
from .errors import DomainError, NonFiniteFieldError, NssolError, refuse

#: bound once: each new time row of a scalar call pays for the lookup
_power = np.power


class SolutionField:
    """Field evaluator (t, r) -> (rho, u) for a shape/scaling pair.

    This is the black-box interface the residual verifier consumes: it
    exposes field values only, never analytic derivatives.  t and r are
    scalars (floats back) or ndarrays that broadcast: the scaling runs once
    on t and the shape once on z = r/a(t), so a grid costs one scaling
    evaluation per time row.  So do scalar calls made row by row: the
    field keeps a, a**N and a'/a of the last nonzero float t the scaling
    accepted, and a call at an equal t reuses them, with the bits a fresh
    call gives.  The kept a**N is a Python float, so a float row with a
    float r and shape value is formed on Python floats and returned as
    is.  An NssolError names the offending (t, r).

    The domain is r >= 0.  It is not checked on each call: an array-safe
    refusal would triple every black-box stencil point at a repeated t
    (1.8 us against 0.6 us a scalar Gaussian field point, best of 9 x
    2000, one Xeon), and eval_grid and verify_window already refuse
    r <= 0 on their inputs.
    """

    def __init__(self, profile, scaling, N):
        self.profile = profile
        self.scaling = scaling
        self.N = N
        # numpy's power casts an integer N to a float, so it is cast once
        self._n = float(N)
        # a float a between these has a normal, finite a**N
        self._a_lo, self._a_hi = 1e-300 ** (1.0 / N), 1e300 ** (1.0 / N)
        # (t, a, float a**N, a'/a) of the last nonzero float t the scaling
        # accepted; a NaN t never equals it, so the first call goes through
        # pair.  A zero is not kept: 0.0 == -0.0, and a' at t = -0.0 can
        # be -0.0 where it is 0.0 at t = 0.0.
        self._row = (np.nan, None, None, None)

    def __call__(self, t, r):
        t_row, a, a_n, rate = self._row
        try:
            # one type test and one compare for a Python float; a np.float64
            # t reuses the row too
            if not (t == t_row if type(t) is float else isinstance(t, float) and t == t_row):
                a, adot = self.scaling.pair(t)
                if type(a) is not float or not self._a_lo < a < self._a_hi:
                    with np.errstate(over="ignore"):  # refused, not warned of
                        a_n = _power(a, self._n)
                    refuse(DomainError, (a_n == 0.0) | (a_n == np.inf),
                           "a(t)**N leaves the float range at t={t!r}", t=t)
                a_n, rate = _power(a, self._n), adot / a
                if isinstance(t, float) and t:
                    a_n = float(a_n)
                    self._row = (float(t), a, a_n, rate)
            shape, _ = self.profile.evaluate(r / a)
        except NssolError as exc:
            if exc.where is None:
                raise
            raise _named(exc, t, r) from exc
        rho, u = shape / a_n, rate * r
        if type(rho) is float and type(u) is float:
            return rho, u
        return unbox(rho), unbox(u)


def _named(exc, t, r):
    """A copy of exc, whose where marks points of the broadcast of t and
    r, naming the first of them, (t, r), in its message."""
    t_all, r_all = np.broadcast_arrays(t, r)
    k = np.argmax(np.broadcast_to(exc.where, t_all.shape))
    return type(exc)(f"field evaluation failed at (t={float(t_all.flat[k])!r}, "
                     f"r={float(r_all.flat[k])!r}): {exc}")


def eval_grid(profile, scaling, N, t_values, r_values):
    """(rho, u) on the grid of strictly increasing t_values and r_values,
    time-major: rho[i, j] and u[i, j] at (t_values[i], r_values[j]), all
    finite, rho >= 0.

    r_values must stay positive (the residual stencils divide by r).
    The scaling is evaluated once on all of t_values first, so a time
    out of its range is refused before any shape value, as on the whole
    grid at once.  The field is then evaluated a block of whole time
    rows, about BLOCK points, at a time, into the preallocated rho and
    u, so the shape's temporaries stay the size of a block whatever the
    grid's.  Every point has the bits of one whole-grid SolutionField
    call.  A failure at any point aborts the whole grid with the first
    offending (t, r) named.
    """
    t_values = np.asarray(t_values, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    for name, values in (("t_values", t_values), ("r_values", r_values)):
        if values.ndim != 1 or len(values) == 0:
            raise ValueError(f"{name} must be a non-empty 1-d array")
        if len(values) > 1 and not np.all(np.diff(values) > 0.0):
            raise ValueError(f"{name} must be strictly increasing")
    if r_values[0] <= 0.0:
        raise ValueError(f"r_min must be > 0, got {r_values[0]}")

    t_rows = t_values[:, None]
    try:
        scaling.pair(t_rows)
    except NssolError as exc:
        if exc.where is None:
            raise
        raise _named(exc, t_rows, r_values) from exc
    field = SolutionField(profile, scaling, N)
    rho = np.empty((t_values.size, r_values.size))
    u = np.empty_like(rho)
    step = max(1, BLOCK // r_values.size)
    # an overflow of rho or u is refused below, by name, once the last
    # block has had its chance to refuse first; no block warns of it
    with np.errstate(over="ignore"):
        for i in range(0, t_values.size, step):
            rho[i:i + step], u[i:i + step] = field(t_rows[i:i + step], r_values)
    if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(u)):
        raise NonFiniteFieldError("grid contains non-finite field values")
    return rho, u
