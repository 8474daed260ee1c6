"""boqsim: squeezed-oscillator (Bogoliubov) theory toolkit.

Closed-form input-output scattering, dispersive-coupling theory, qubit
spectral response under squeezed photons, truncated-Fock Lindblad oracles,
and calibration fitters, with a CSV/JSON-emitting CLI.
"""

from .core import (
    BogoliubovFrame,
    DriveSpec,
    OscillatorParams,
    StabilityError,
    StabilityReport,
    TransmonParams,
    frame_of,
    lambda_coalescence,
    lambda_critical,
    validate,
)
from .dispersive import (
    DISPERSIVE_ETA_MAX,
    DispersiveResult,
    DressedLossRates,
    chi_transmon,
    dressed_losses,
    pump_to_lambda,
)
from .scattering import (
    ComplexSpectrum,
    GainSummary,
    GridTooCoarseError,
    PeakInfo,
    fit_bandwidth,
    gain_summary,
    gamma_coupled,
    gamma_idler,
    gamma_qubit,
    gamma_signal,
    gmax_resonant,
    lambda_for_gain,
    peak_gain,
    qubit_spectrum,
    signal_spectrum,
)
from .spectral import (
    CorrelationCurve,
    Moments,
    SpectralShift,
    anomalous_moment,
    bo_occupation,
    bogoliubov_moments,
    dephasing_from_correlation,
    number_correlation,
    resonant_driven_shift,
    resonant_steady_state,
    shift_driven,
    shift_undriven,
    steady_moments,
)
from .lindblad import (
    AmbiguousSector,
    LiouvillianMatrix,
    OracleShift,
    SteadyStateResult,
    TruncationError,
    UnstableDynamics,
    build_liouvillian,
    chi_exact,
    default_n_fock,
    qubit_shift_dephasing,
    steady_state,
)
from .calibration import (
    CircleModel,
    DegenerateFitError,
    FitReport,
    add_complex_noise,
    fit_chi_enhanced,
    fit_chi_n0,
    fit_circle,
    fit_lambda,
    fit_straddling,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
