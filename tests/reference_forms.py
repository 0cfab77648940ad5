"""Scalar per-entity forms of the residuals that ``NlpProblem`` assembles.

They document the equations one segment, compressor or node at a time;
the tests compare the vectorized assembly against them.
"""

import math

import numpy as np

from h2blend.transcription import AssemblyError, ConfigurationError


def cyclic_derivative(x_at_succ, x_at_n, dt: float):
    """Forward-difference rate (x_succ - x_n)/dt; the wrap at the horizon
    end enforces periodicity implicitly."""
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    return (np.asarray(x_at_succ, dtype=float) - np.asarray(x_at_n, dtype=float)) / dt


def pipe_segment_residuals(rho_h2_i, rho_ng_i, rho_h2_j, rho_ng_j,
                           rho_h2_i_succ, rho_ng_i_succ, rho_h2_j_succ, rho_ng_j_succ,
                           eta_i, eta_j, f0, fl,
                           dt_seconds, storage, area_hat, resistance,
                           c_h2, c_ng, smoothing_eps=0.0):
    """Dimensionless H2/NG continuity and momentum residuals of one segment.

    ``storage`` is L_hat*A_hat/kappa (seconds), ``resistance`` the momentum
    coefficient in the stored flow units, ``c_h2``/``c_ng`` the partial
    pressure coefficients a_k^2/a0^2.  Steady state is the dt -> inf limit
    (zero rate), obtained by passing equal states at n and succ.
    """
    rate_h2 = ((rho_h2_i_succ + rho_h2_j_succ) - (rho_h2_i + rho_h2_j)) / (2.0 * dt_seconds)
    rate_ng = ((rho_ng_i_succ + rho_ng_j_succ) - (rho_ng_i + rho_ng_j)) / (2.0 * dt_seconds)
    r_h2 = storage * rate_h2 + (eta_j * fl - eta_i * f0)
    r_ng = storage * rate_ng + ((1.0 - eta_j) * fl - (1.0 - eta_i) * f0)
    p_i = c_h2 * rho_h2_i + c_ng * rho_ng_i
    p_j = c_h2 * rho_h2_j + c_ng * rho_ng_j
    rho_bar = 0.5 * (rho_h2_i + rho_ng_i + rho_h2_j + rho_ng_j)
    if rho_bar <= 0.0:
        raise AssemblyError("average segment density must be positive")
    phi_bar = (f0 + fl) / (2.0 * area_hat)
    abs_phi = math.sqrt(phi_bar ** 2 + smoothing_eps ** 2)
    r_mom = p_j - p_i + resistance * phi_bar * abs_phi / rho_bar
    return r_h2, r_ng, r_mom


def compressor_residual(p_i, p_j, alpha):
    """Squared-pressure boost equality p_j^2 - alpha^2 p_i^2."""
    return p_j ** 2 - alpha ** 2 * p_i ** 2


def nodal_balance_residuals(inflows, outflows, qs, qw, eta_node, eta_supply):
    """Species balances at a node; flows are (flow, concentration) pairs.

    Returns (H2 residual, NG residual).  Their sum is the total mass
    balance.  Positive supply adds mass, positive withdrawal removes it.
    """
    r_h2 = (sum(g * f for f, g in inflows) - sum(g * f for f, g in outflows)
            + eta_supply * qs - eta_node * qw)
    r_ng = (sum((1.0 - g) * f for f, g in inflows) - sum((1.0 - g) * f for f, g in outflows)
            + (1.0 - eta_supply) * qs - (1.0 - eta_node) * qw)
    return r_h2, r_ng


def compatibility_residuals(rho_h2, rho_ng, eta, c_h2, c_ng, p_slack=None):
    """Cleared-denominator concentration definition and, when requested,
    the slack pressure equation."""
    r_conc = eta * (rho_h2 + rho_ng) - rho_h2
    if p_slack is None:
        return (r_conc,)
    return (r_conc, c_h2 * rho_h2 + c_ng * rho_ng - p_slack)


def energy_residual(ge, eta, qw, heat_ratio):
    """Energy definition g_E - (eta*r + (1 - eta)) * q_w with r = R_H2/R_NG."""
    return ge - ((heat_ratio - 1.0) * eta + 1.0) * qw
