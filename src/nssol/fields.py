"""Physical fields rho(t, r) and u(t, r) assembled from a shape and a scaling.

The ansatz is rho = shape(r/a(t))/a(t)**N and u = (a'(t)/a(t))*r; the
mass equation holds for any C1 shape and any positive C1 scaling, while
the momentum equation pins down the family-specific shape/scaling pair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFieldError


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
    """Point evaluator (t, r) -> (rho, u) for a shape/scaling pair.

    This is the black-box interface the residual verifier consumes: it
    exposes field values only, never analytic derivatives.
    """

    def __init__(self, profile, scaling, N):
        self.profile = profile
        self.scaling = scaling
        self.N = N

    def __call__(self, t, r):
        a, adot = self.scaling.pair(t)
        shape, _ = self.profile.evaluate(r / a)
        return shape / a ** self.N, adot / a * r


def eval_point(profile, scaling, N, t, r):
    """Fields (rho, u) at one point.

    rho = shape(r/a(t))/a(t)**N and u = (a'(t)/a(t))*r.  Domain errors
    from the scaling (t outside its trajectory) and range errors from the
    shape (r/a beyond its z_max) propagate unchanged.
    """
    if r < 0.0:
        raise ValueError(f"r must be >= 0, got {r}")
    return SolutionField(profile, scaling, N)(t, r)


def eval_grid(profile, scaling, N, t_values, r_values):
    """Dense FieldGrid over strictly increasing t_values and r_values.

    r_values must stay positive (the residual stencils divide by r).
    Grid points are independent pure evaluations, so any evaluation
    order gives bitwise identical matrices; a failure at any point
    aborts the whole grid with the offending (t, r) named.
    """
    t_values = np.asarray(t_values, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    if t_values.ndim != 1 or len(t_values) == 0:
        raise ValueError("t_values must be a non-empty 1-d array")
    if r_values.ndim != 1 or len(r_values) == 0:
        raise ValueError("r_values must be a non-empty 1-d array")
    if len(t_values) > 1 and not np.all(np.diff(t_values) > 0.0):
        raise ValueError("t_values must be strictly increasing")
    if len(r_values) > 1 and not np.all(np.diff(r_values) > 0.0):
        raise ValueError("r_values must be strictly increasing")
    if r_values[0] <= 0.0:
        raise ValueError(f"r_min must be > 0, got {r_values[0]}")

    field = SolutionField(profile, scaling, N)
    rho = np.empty((len(t_values), len(r_values)))
    u = np.empty_like(rho)
    for i, t in enumerate(t_values):
        for j, r in enumerate(r_values):
            try:
                rho[i, j], u[i, j] = field(t, r)
            except Exception as exc:
                raise type(exc)(
                    f"field evaluation failed at (t={float(t)!r}, "
                    f"r={float(r)!r}): {exc}"
                ) from exc
    if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(u)):
        raise NonFiniteFieldError("grid contains non-finite field values")
    for arr in (t_values, r_values, rho, u):
        arr.flags.writeable = False
    return FieldGrid(t_values=t_values, r_values=r_values, rho=rho, u=u)
