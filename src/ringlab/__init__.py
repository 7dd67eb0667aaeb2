"""ringlab: simulator and analysis toolkit for thermally tunable coupled
double-ring optical parametric oscillators.

Subpackages: devicemodel (configuration and units), supermodes
(avoided-crossing eigenproblem and coupling efficiency), spectra (bus
transmission and dip extraction), squeezing (intensity-difference noise
spectrum), langevin (stochastic verification), fitters (least-squares
parameter estimation), cli (command-line front end).  The physics
functions of supermodes and squeezing take scalars or numpy arrays, so a
sweep is one array call whose results are columns.
"""

from .devicemodel import DeviceConfig, RingParams, detection_efficiency, load_config
from .errors import ConfigError, DataError, FitError
from .fitters import CrossingDataset, FitResult, fit_avoided_crossing, fit_lorentzian_dip, weighted_linear_fit
from .langevin import LangevinRun, NoiseSpectrum, analytic_psd, output_psd, simulate_difference_quadrature
from .spectra import TransmissionDip, TransmissionTrace, eta_c_from_tmin, find_dips
from .squeezing import infer_onchip, squeezing_level, squeezing_vs_coupling
from .supermodes import SupermodeSolution, effective_rates, eta_c_vs_heater

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CrossingDataset",
    "DataError",
    "DeviceConfig",
    "FitError",
    "FitResult",
    "LangevinRun",
    "NoiseSpectrum",
    "RingParams",
    "SupermodeSolution",
    "TransmissionDip",
    "TransmissionTrace",
    "analytic_psd",
    "detection_efficiency",
    "effective_rates",
    "eta_c_from_tmin",
    "eta_c_vs_heater",
    "find_dips",
    "fit_avoided_crossing",
    "fit_lorentzian_dip",
    "infer_onchip",
    "load_config",
    "output_psd",
    "simulate_difference_quadrature",
    "squeezing_level",
    "squeezing_vs_coupling",
    "weighted_linear_fit",
]
