"""Numerical laboratory for the quantum champagne bottle.

Joint spectra of the 2-DOF integrable system H = p^2/2 - r^2 + r^4 with
angular momentum L, singular Bohr-Sommerfeld rules near the focus-focus
critical value, spectral-gap and log-Weyl asymptotics, classical actions
with monodromy, and lattice-chart unwinding with exact eigenvalue
counting.
"""

__version__ = "0.1.0"

from .errors import (ChampagneError, ChartError, ConfigurationError,
                     ConvergenceError, DomainError, FitError,
                     ModelRangeError, SampleSizeError, TransportError)
from .special_functions import fourier_constant, psi_n, psi_n_prime
from .radial_spectrum import (DiscretizationConfig, PotentialSpec,
                              SpectrumTable, joint_spectrum)
from .bohr_sommerfeld import (QuantizationModel, fit_model, g_n,
                              predict_line, predicted_gap)
from .classical_actions import (action_sample, classical_monodromy,
                                radial_action, regularized_action,
                                rotation_number, rotation_winding)
from .monodromy_lattice import (ChartTransition, LatticeChart,
                                SpectrumPolygon, count_in_polygon,
                                fit_local_chart, make_loop_polygon,
                                pick_count, transport_chart, unwind)
from .gap_analysis import (GapRecord, Window, dh_volume, measure_gaps,
                           smallest_gap_scan, weyl_count)

__all__ = [
    "ChampagneError", "ChartError", "ConfigurationError",
    "ConvergenceError", "DomainError", "FitError", "ModelRangeError",
    "SampleSizeError", "TransportError",
    "fourier_constant", "psi_n", "psi_n_prime",
    "DiscretizationConfig", "PotentialSpec", "SpectrumTable",
    "joint_spectrum",
    "QuantizationModel", "fit_model", "g_n", "predict_line",
    "predicted_gap",
    "action_sample", "classical_monodromy", "radial_action",
    "regularized_action", "rotation_number", "rotation_winding",
    "ChartTransition", "LatticeChart", "SpectrumPolygon",
    "count_in_polygon", "fit_local_chart", "make_loop_polygon",
    "pick_count", "transport_chart", "unwind",
    "GapRecord", "Window", "dh_volume", "measure_gaps",
    "smallest_gap_scan", "weyl_count",
]
