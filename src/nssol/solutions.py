"""Assembly of complete solutions (shape + scaling) from a family."""

from dataclasses import dataclass

from .fields import SolutionField
from .model import Family, ModelParams, validate


@dataclass(frozen=True)
class Solution:
    """A constructed solution: density shape and scaling of a family,
    whose pressure switch is ``family.delta``."""

    params: ModelParams
    family: Family
    profile: object
    scaling: object

    def field(self):
        """Black-box field (t, r) -> (rho, u) on scalars or arrays."""
        return SolutionField(self.profile, self.scaling, self.params.N)


def build_shape(params: ModelParams, family: Family):
    """The density shape of a validated family alone: no scaling is built."""
    outcome = validate(params, family)
    if not outcome.ok:
        raise ValueError(
            "invalid parameter/family combination:\n  "
            + "\n  ".join(outcome.violations)
        )
    return family.shape(params)


def build_solution(params: ModelParams, family: Family, t_end: float) -> Solution:
    """Construct the shape/scaling pair for a validated family.

    t_end bounds the scaling trajectory for the families that integrate
    an ODE in a(t); every shape is a closed form on all of z.
    """
    return Solution(params=params, family=family, profile=build_shape(params, family),
                    scaling=family.scale(params, t_end))
