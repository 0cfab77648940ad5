"""Ideal-gas thermodynamics for hydrogen / natural-gas blends.

All functions here are pure and stateless.  Quantities are SI unless noted:
sound speeds in m/s, densities in kg/m^3, pressures in Pa, calorific values
in MJ/kg, mass flows in kg/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Sound speeds from a = sqrt(R*T/M) at T = 288.7 K with molar masses
# 2.016 g/mol (H2) and 16.04 g/mol (NG, methane-dominated).
DEFAULT_A_H2 = 1091.4
DEFAULT_A_NG = 386.9

# Higher heating values, MJ/kg.
DEFAULT_R_H2 = 141.8
DEFAULT_R_NG = 44.2

# Nominal scales used for non-dimensionalization.  l0 and p0 only affect
# conditioning of the resulting equations; M is the nominal Mach number
# of the gas velocity.
DEFAULT_L0 = 1000.0
DEFAULT_P0 = 1.0e6
DEFAULT_MACH = 1.0 / 300.0


class DomainError(ValueError):
    """An input is outside the physical domain of an operation."""


@dataclass(frozen=True)
class GasConstants:
    """Sound speeds and calorific values of the two pure components.

    Invariants: a_H2 > a_NG > 0 (hydrogen is much lighter) and
    R_H2 > R_NG > 0.
    """

    a_H2: float = DEFAULT_A_H2
    a_NG: float = DEFAULT_A_NG
    R_H2: float = DEFAULT_R_H2
    R_NG: float = DEFAULT_R_NG

    def __post_init__(self):
        if not (self.a_H2 > self.a_NG > 0.0):
            raise DomainError(
                f"sound speeds must satisfy a_H2 > a_NG > 0, "
                f"got a_H2={self.a_H2}, a_NG={self.a_NG}"
            )
        if not (self.R_H2 > self.R_NG > 0.0):
            raise DomainError(
                f"calorific values must satisfy R_H2 > R_NG > 0, "
                f"got R_H2={self.R_H2}, R_NG={self.R_NG}"
            )


@dataclass(frozen=True)
class NondimScales:
    """Nominal scales for the dimensionless formulation.

    Derived fields are stored for reuse: a0 = sqrt(a_H2*a_NG),
    v0 = a0*M, rho0 = p0/a0^2, phi0 = rho0*v0, kappa = v0/l0.
    """

    l0: float
    p0: float
    M: float
    a0: float
    v0: float
    rho0: float
    phi0: float
    A0: float
    kappa: float

    @property
    def flow0(self) -> float:
        """Mass-flow scale, kg/s (flux scale times nominal area)."""
        return self.phi0 * self.A0


def nondim_scales(
    l0: float = DEFAULT_L0,
    p0: float = DEFAULT_P0,
    M: float = DEFAULT_MACH,
    g: GasConstants = GasConstants(),
) -> NondimScales:
    """Build the full set of nominal scales from l0, p0 and the Mach number."""
    if l0 <= 0.0 or p0 <= 0.0 or M <= 0.0:
        raise DomainError(f"scales must be positive, got l0={l0}, p0={p0}, M={M}")
    # pipe_beta divides by M^2 and the momentum rows multiply by M^4; in this
    # range both stay normal floats (M^4 within 1e-300 to 1e300)
    if not 1e-75 <= M <= 1e75:
        raise DomainError(f"scales: M must lie in [1e-75, 1e75], got {M}")
    a0 = math.sqrt(g.a_H2 * g.a_NG)
    v0 = a0 * M
    rho0 = p0 / a0 ** 2
    phi0 = rho0 * v0
    A0 = 1.0
    kappa = v0 / l0
    return NondimScales(
        l0=l0, p0=p0, M=M, a0=a0, v0=v0, rho0=rho0, phi0=phi0, A0=A0, kappa=kappa
    )


def pipe_beta(lam: float, L: float, D: float, M: float) -> float:
    """Dimensionless pipe resistance (1/M^2) * lam * L / (2 D).

    L/D is scale-free, so the value does not depend on the length scale l0.
    """
    if lam < 0.0:
        raise DomainError(f"friction factor must be non-negative, got {lam}")
    if L <= 0.0 or D <= 0.0 or M <= 0.0:
        raise DomainError(f"L, D, M must be positive, got L={L}, D={D}, M={M}")
    return (1.0 / M ** 2) * lam * L / (2.0 * D)

