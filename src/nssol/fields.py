"""Physical fields rho(t, r) and u(t, r) assembled from a shape and a scaling.

The ansatz is rho = shape(r/a(t))/a(t)**N and u = (a'(t)/a(t))*r; the
mass equation holds for any C1 shape and any positive C1 scaling, while
the momentum equation pins down the family-specific shape/scaling pair.
"""

from dataclasses import dataclass

import numpy as np

from ._interp import unbox
from .errors import NonFiniteFieldError, NssolError


@dataclass(frozen=True)
class FieldGrid:
    """Dense field samples on a rectangular (t, r) grid, time-major.

    rho[i, j] and u[i, j] correspond to (t_values[i], r_values[j]).
    All densities are non-negative and finite; u(t, r)/r is constant
    across r at fixed t (equal to a'(t)/a(t)).
    """

    t_values: np.ndarray
    r_values: np.ndarray
    rho: np.ndarray
    u: np.ndarray


class SolutionField:
    """Field evaluator (t, r) -> (rho, u) for a shape/scaling pair.

    This is the black-box interface the residual verifier consumes: it
    exposes field values only, never analytic derivatives.  t and r are
    scalars (floats back) or ndarrays that broadcast: the scaling runs once
    on t and the shape once on z = r/a(t), so a grid costs one scaling
    evaluation per time row.  An NssolError names the offending (t, r).

    The domain is r >= 0.  It is not checked on each call: an array-safe
    refusal would add about 10% to every black-box stencil point (1.1 us
    against 11.1 us a scalar Gaussian field point, best of 25, one Xeon),
    and eval_grid and verify_window already refuse r <= 0 on their inputs.
    """

    def __init__(self, profile, scaling, N):
        self.profile = profile
        self.scaling = scaling
        self.N = N

    def __call__(self, t, r):
        try:
            a, adot = self.scaling.pair(t)
            shape, _ = self.profile.evaluate(r / a)
        except NssolError as exc:
            if exc.where is None:
                raise
            t_all, r_all = np.broadcast_arrays(t, r)
            k = np.argmax(np.broadcast_to(exc.where, t_all.shape))
            raise type(exc)(f"field evaluation failed at (t={float(t_all.flat[k])!r}, "
                            f"r={float(r_all.flat[k])!r}): {exc}") from exc
        return unbox(shape / np.power(a, self.N)), unbox(adot / a * r)


def eval_grid(profile, scaling, N, t_values, r_values):
    """Dense FieldGrid over strictly increasing t_values and r_values.

    r_values must stay positive (the residual stencils divide by r).
    The scaling is evaluated once on t_values and the shape once on the
    (n_t, n_r) array of z; a failure at any point aborts the whole grid
    with an offending (t, r) named.
    """
    t_values = np.array(t_values, dtype=float)  # a copy: frozen below
    r_values = np.array(r_values, dtype=float)
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
    for arr in (t_values, r_values, rho, u):
        arr.flags.writeable = False
    return FieldGrid(t_values=t_values, r_values=r_values, rho=rho, u=u)
