"""Physical constants in eV-based units (CODATA 2018, not configurable)."""

K_B = 8.617333262e-5
"""Boltzmann constant, eV/K."""

H = 4.135667696e-15
"""Planck constant, eV*s."""

HBAR = 6.582119569e-16
"""Reduced Planck constant, eV*s."""


def beta(temperature):
    """Inverse thermal energy 1/k_B*T in 1/eV for a temperature in K."""
    if not 0.0 < temperature < float("inf"):
        raise ValueError(f"temperature must be positive, got {temperature}")
    return 1.0 / (K_B * temperature)
