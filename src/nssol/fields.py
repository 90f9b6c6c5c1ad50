"""Physical fields rho(t, r) and u(t, r) assembled from a shape and a scaling.

The ansatz is rho = shape(r/a(t))/a(t)**N and u = (a'(t)/a(t))*r; the
mass equation holds for any C1 shape and any positive C1 scaling, while
the momentum equation pins down the family-specific shape/scaling pair.
"""

import numpy as np

from ._interp import unbox
from .errors import NonFiniteFieldError, NssolError


class SolutionField:
    """Field evaluator (t, r) -> (rho, u) for a shape/scaling pair.

    This is the black-box interface the residual verifier consumes: it
    exposes field values only, never analytic derivatives.  t and r are
    scalars (floats back) or ndarrays that broadcast: the scaling runs once
    on t and the shape once on z = r/a(t), so a grid costs one scaling
    evaluation per time row.  So do scalar calls made row by row: the
    field keeps a, a**N and a'/a of the last nonzero float t the scaling
    accepted, and a call at an equal t reuses them, with the bits a fresh
    call gives.  An NssolError names the offending (t, r).

    The domain is r >= 0.  It is not checked on each call: an array-safe
    refusal would more than double every black-box stencil point at a
    repeated t (1.3 us against 0.9 us a scalar Gaussian field point, best
    of 9 x 2000, one Xeon), and eval_grid and verify_window already
    refuse r <= 0 on their inputs.
    """

    def __init__(self, profile, scaling, N):
        self.profile = profile
        self.scaling = scaling
        self.N = N
        # (t, a, a**N, a'/a) of the last nonzero float t the scaling
        # accepted; a NaN t never equals it, so the first call goes through
        # pair.  A zero is not kept: 0.0 == -0.0, and a' at t = -0.0 can
        # be -0.0 where it is 0.0 at t = 0.0.
        self._row = (np.nan, None, None, None)

    def __call__(self, t, r):
        t_row, a, a_n, rate = self._row
        try:
            if not (isinstance(t, float) and t == t_row):
                a, adot = self.scaling.pair(t)
                a_n, rate = np.power(a, self.N), adot / a
                if isinstance(t, float) and t:
                    self._row = (t, a, a_n, rate)
            shape, _ = self.profile.evaluate(r / a)
        except NssolError as exc:
            if exc.where is None:
                raise
            t_all, r_all = np.broadcast_arrays(t, r)
            k = np.argmax(np.broadcast_to(exc.where, t_all.shape))
            raise type(exc)(f"field evaluation failed at (t={float(t_all.flat[k])!r}, "
                            f"r={float(r_all.flat[k])!r}): {exc}") from exc
        return unbox(shape / a_n), unbox(rate * r)


def eval_grid(profile, scaling, N, t_values, r_values):
    """(rho, u) on the grid of strictly increasing t_values and r_values,
    time-major: rho[i, j] and u[i, j] at (t_values[i], r_values[j]), all
    finite, rho >= 0.

    r_values must stay positive (the residual stencils divide by r).
    The scaling is evaluated once on t_values and the shape once on the
    (n_t, n_r) array of z; a failure at any point aborts the whole grid
    with an offending (t, r) named.
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

    rho, u = SolutionField(profile, scaling, N)(t_values[:, None], r_values)
    if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(u)):
        raise NonFiniteFieldError("grid contains non-finite field values")
    return rho, u
