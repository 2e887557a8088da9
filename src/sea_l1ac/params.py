"""Physical parameters of the two-mass elastic joint and its environment."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the motor / spring / link chain.

    Attributes
    ----------
    J_m : motor-side inertia [kg m^2]
    J_a : link-side inertia with nominal load [kg m^2]
    K_f : torsional spring stiffness [N m / rad]
    G_0 : load torque at q = 90 deg with the nominal load [N m]
    m_0 : nominal load mass [kg]
    m   : actual load mass [kg]
    K_t : motor torque per unit current [N m / permil of nominal current]
    f_m : viscous friction coefficient on the motor side [N m / (rad/s)]
    """

    J_m: float
    J_a: float
    K_f: float
    G_0: float
    m_0: float
    m: float
    K_t: float
    f_m: float

    def __post_init__(self):
        # written so that nan fails every check; the upper limits reject inf
        for name in ("J_m", "J_a", "K_f", "m_0", "K_t"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        for name in ("f_m", "m"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if not -math.inf < self.G_0 < math.inf:
            raise ValueError("G_0 must be finite")
        if not 0.0 < self.K_f / self.J_a < math.inf:  # under- or overflow
            raise ValueError(f"K_f / J_a = {self.K_f!r} / {self.J_a!r} is not positive and finite")

    @property
    def omega(self) -> float:
        """Natural frequency sqrt(K_f / J_a) [rad/s]."""
        return math.sqrt(self.K_f / self.J_a)

    def with_mass(self, m: float) -> "PlantParams":
        return replace(self, m=m)


def benchmark_params(m: float = 1.5) -> PlantParams:
    """Parameter set of the benchmark actuator (nominal load 1.5 kg)."""
    return PlantParams(
        J_m=0.294,
        J_a=0.345,
        K_f=125.478,
        G_0=8.856,
        m_0=1.5,
        m=m,
        K_t=0.094,
        f_m=4.082,
    )


@dataclass(frozen=True)
class EnvironmentModel:
    """Link-side contact spring of stiffness ``K_e`` engaging at ``q_0``.

    By default it is a one-sided wall (active only for q > q_0);
    ``bilateral=True`` makes it a linear spring for cross-checks against
    linear analysis. The load-mass deviation is ``PlantParams.m - m_0``.
    """

    K_e: float = 0.0
    q_0: float = 0.0
    bilateral: bool = False

    def __post_init__(self):
        if not 0.0 <= self.K_e < math.inf:  # nan fails too
            raise ValueError("contact stiffness K_e must be nonnegative and finite")
        if not -math.inf < self.q_0 < math.inf:
            raise ValueError("contact position q_0 must be finite")
        if not isinstance(self.bilateral, bool):
            raise ValueError("bilateral must be a bool")
