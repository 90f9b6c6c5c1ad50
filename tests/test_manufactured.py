"""The verifier's residuals against a manufactured field, term by term.

Every solution family has u = (a'/a)*r, linear in r, on which u_rr and
(N-1)/r*u_r - (N-1)/r**2*u vanish: no exact solution reads the viscous
Laplacian of the momentum residual.  The field here is no solution, but
u is nonlinear in r, and its mass and momentum residuals are written out
by hand (checked against a computer algebra system once, when written),
so the verifier's centered differences must approach them at order 2.
"""

import math

import numpy as np
import pytest

from nssol import ModelParams
from nssol.residuals import _residuals
from tests import cases


def _field(t, r):
    """rho = (1 + t)*exp(-r**2) + 1/2, u = r*(1 + r**2)*sin(1 + t)."""
    return ((1.0 + t) * np.exp(-r * r) + 0.5,
            r * (1.0 + r * r) * np.sin(1.0 + t))


def _exact(params, t, r):
    """The mass and momentum residuals of _field, derivatives by hand."""
    N, gamma, theta = params.N, params.gamma, params.theta
    K, kappa = params.K, params.kappa
    E, S, C = np.exp(-r * r), np.sin(1.0 + t), np.cos(1.0 + t)
    rho, u = _field(t, r)
    rho_t, rho_r = E, -2.0 * r * (1.0 + t) * E
    u_t, u_r, u_rr = (r + r ** 3) * C, (1.0 + 3.0 * r * r) * S, 6.0 * r * S
    mass = rho_t + u * rho_r + rho * u_r + (N - 1) / r * rho * u
    mom = (rho * (u_t + u * u_r)
           + params.delta * K * gamma * rho ** (gamma - 1.0) * rho_r
           - kappa * theta * rho ** (theta - 1.0) * rho_r * ((N - 1) / r * u + u_r)
           - kappa * rho ** theta * (u_rr + (N - 1) / r * u_r - (N - 1) / (r * r) * u))
    return mass, mom


@pytest.mark.parametrize("N, gamma, theta, delta", [
    (3, 1.4, 0.7, 1), (2, 2.0, 1.5, 1), (1, 1.0, 1.0, 0), (1, 1.4, 2.5, 0)])
def test_residuals_approach_the_manufactured_ones_at_order_two(N, gamma, theta, delta):
    params = ModelParams(N=N, gamma=gamma, theta=theta, K=1.3, kappa=0.7, delta=delta)
    t, r = np.meshgrid(np.linspace(0.1, 0.5, 17), np.linspace(0.2, 2.0, 17),
                       indexing="ij")
    mass, mom = _exact(params, t, r)
    gaps = []
    for h_t, h_r in cases.RESOLUTIONS:
        fd_mass, fd_mom, vacuum = _residuals(_field, params, t, r, _field(t, r), h_t, h_r)
        assert not vacuum.any()
        gaps.append((np.abs(fd_mass - mass).max(), np.abs(fd_mom - mom).max()))
    (coarse, fine), ratio = gaps, cases.RESOLUTIONS[0][0] / cases.RESOLUTIONS[1][0]
    for g_coarse, g_fine in zip(coarse, fine):
        assert g_fine < 1e-4
        assert 1.9 <= math.log(g_coarse / g_fine) / math.log(ratio) <= 2.1
