"""Physical constants in eV-based units (CODATA 2018, not configurable)."""

import math

K_B = 8.617333262e-5
"""Boltzmann constant, eV/K."""

H = 4.135667696e-15
"""Planck constant, eV*s."""

HBAR = 6.582119569e-16
"""Reduced Planck constant, eV*s."""


def beta(temperature):
    """Inverse thermal energy 1/k_B*T in 1/eV for a temperature in K.

    Raises ValueError unless the temperature is finite and positive and
    1/k_B*T is finite, which it is not below about 6.5e-305 K.
    """
    kt = K_B * temperature
    if not (0.0 < kt < math.inf and 1.0 / kt < math.inf):
        raise ValueError(
            f"temperature must be positive with 1/(k_B T) finite, got {temperature}"
        )
    return 1.0 / kt
