"""Fixed-step integration schedule for the zonal thermal network.

The network is stiff-ish (fast air nodes, slow mass nodes), so the
integrator sub-steps each outer step finely enough to keep explicit
Euler inside its stability region, with the bound supplied by
:meth:`repro.simulation.rc_network.RCNetwork.max_stable_dt`.  The Euler
sub-steps themselves run in the ``ThermalIntegrate`` kernels
(:mod:`repro.simulation.kernels`, :mod:`repro.simulation.fleet`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "substep_count",
]

def substep_count(dt: float, max_stable_dt: float, safety: float = 0.8) -> int:
    """Number of equal sub-steps needed to keep Euler stable over ``dt``."""
    if dt <= 0:
        raise SimulationError("dt must be positive")
    if max_stable_dt <= 0:
        raise SimulationError("max_stable_dt must be positive")
    return max(1, int(np.ceil(dt / (safety * max_stable_dt))))
