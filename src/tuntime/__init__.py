"""Tunnelling-time analysis toolkit for piecewise-constant 1D potentials and
their evanescent-waveguide analogs: stationary scattering, every standard
tunnelling-time definition, flux-weighted time-observable statistics for
wavepackets, the Hartman effect and its two-barrier generalization, and the
associated causality predicates.
"""

from .core import (
    UNITS,
    ContractViolation,
    Grid1D,
    NoSuchFluxError,
    QuadratureError,
    UnitSystem,
    central_difference,
    integrate,
)
from .potential import PiecewisePotential, RegionMarkers, double_rectangular, rectangular
from .scattering import (
    SolutionTable,
    TwoPhase,
    s_matrix,
    solve,
    two_phase,
)
from .stationary_times import (
    bl_time,
    dwell_time_stationary,
    phase_time,
    resonance_delay,
    two_phase_times,
)
from .double_barrier import (
    DoubleBarrierSolution,
    Resonance,
    find_resonances,
    on_resonance,
    opaque_coefficients,
    opaque_phase_time,
    phase_time_total,
    resonance_denominator,
)
from .wavepacket import (
    MASSIVE,
    PHOTON,
    Dispersion,
    FluxSeries,
    Propagator,
    SpectralPacket,
    gaussian_packet,
    propagator,
)
from .flux_times import (
    CausalityResult,
    DurationReport,
    TimeStatistics,
    asymptotic_transmission,
    causality_check,
    duration,
    dwell,
    dwell_decomposition,
    interference_deficit,
    mean_time,
    projected_duration,
)
from .emguide import (
    BarrierMap,
    PhotonTunnellingTime,
    WaveguideSpec,
    cutoff_wavelength,
    map_to_barrier,
    mapped_phase_time,
    photon_phase_time,
    propagation_constant,
)

__version__ = "0.1.0"
