"""Casimir free energy, entropy and force between two equal perfect-metal spheres.

Three evaluation routes cover the full separation range:

* full multiscattering determinants (any aspect ratio r = R/d < 1/2),
* closed-form large-separation asymptotics (r -> 0),
* the proximity-force approximation (gap << R).

All internal computation is adimensional; SI units attach at the API
boundary through :class:`Geometry` and :class:`ThermalPoint`.
"""

__version__ = "0.1.0"

from .geometry import Geometry, ThermalPoint
from .errors import (BracketingFailureError, CasimirError,
                     GridTooCoarseError, NonConvergenceError,
                     SpectralRadiusError, StepUnderflowError)
from .scattering import dipole_tmatrix
from .translation import (DipoleCouplings, TranslationBlock,
                          dipole_translation_limit, translation_block)
from .roundtrip import dipole_trace
from .matsubara import (DeterminantTable, FreeEnergyResult, free_energy,
                        free_energy_ad, static_term, zero_T_energy,
                        zero_T_energy_ad)
from .asymptotics import (e_ad, e_high_T, e_low_T, f_ad, find_e_ratio_max,
                          find_entropy_zeros, s_ad, s_high_T, s_low_T)
from .pfa import (PfaPoint, pfa_energy_sum, pfa_entropy, pfa_finite_R_integral,
                  pfa_force, plate_energy_density)
from .thermo import (EntropyFeatureReport, ThermoCurve, build_thermo_curve,
                     cross_derivative_check, entropy_numeric,
                     find_disappearance_threshold, force_numeric,
                     scan_entropy_features)

__all__ = [
    "__version__",
    "Geometry", "ThermalPoint",
    "CasimirError", "NonConvergenceError", "SpectralRadiusError",
    "BracketingFailureError", "GridTooCoarseError", "StepUnderflowError",
    "dipole_tmatrix",
    "TranslationBlock", "DipoleCouplings", "translation_block",
    "dipole_translation_limit",
    "dipole_trace",
    "FreeEnergyResult", "DeterminantTable", "free_energy", "zero_T_energy",
    "static_term", "free_energy_ad", "zero_T_energy_ad",
    "e_ad", "s_ad", "f_ad", "e_low_T", "e_high_T", "s_low_T", "s_high_T",
    "find_entropy_zeros", "find_e_ratio_max",
    "PfaPoint", "plate_energy_density", "pfa_energy_sum",
    "pfa_finite_R_integral", "pfa_entropy", "pfa_force",
    "ThermoCurve", "EntropyFeatureReport", "entropy_numeric", "force_numeric",
    "cross_derivative_check", "scan_entropy_features",
    "find_disappearance_threshold", "build_thermo_curve",
]
