"""fss: simulation and parameter-estimation toolkit for optically driven
quantum-dot electron spins in Faraday geometry.

Subpackages by role: :mod:`fss.core` (Lindblad dynamics), :mod:`fss.models`
(the two/three/four-level systems and derived scalars), :mod:`fss.raman`
(closed-form Raman/Stark/mixing/polarization algebra), :mod:`fss.ensemble`
(inhomogeneous dephasing and intensity-noise broadening), :mod:`fss.sequences`
(pulse protocols), :mod:`fss.fitting` (least squares, model library, spectra),
:mod:`fss.cli` (the ``fss`` command).
"""

__version__ = "0.1.0"

from .core import (
    CollapseChannel,
    DensityMatrix,
    Drive,
    LindbladModel,
    Trajectory,
    evolve,
    expectation,
    lindblad_rhs,
    steady_state,
)
from .ensemble import EnsembleSpec, combined_sigma, gaussian_sigma
from .models import (
    CptParams,
    FaradayParams,
    TwoToneDrive,
    build_cpt_three_level,
    build_faraday_four_level,
    build_two_level,
    cpt_spectrum,
    cyclicity,
    g_factor,
    pi_contrast_and_q,
)
from .raman import (
    HoleMixing,
    JonesVector,
    RamanParams,
    StokesVector,
    differential_stark,
    eta_from_cyclicity,
    eta_from_slope,
    hole_mixing_from_strain,
    jones_through_waveplates,
    raman_coupling_in_plane,
    raman_coupling_with_pi_z,
    stokes,
    two_photon_rabi,
)
from .sequences import (
    Protocol,
    TwoLevelPhysics,
    hahn_echo_protocol,
    esr_scan_protocol,
    rabi_protocol,
    ramsey_protocol,
    simulate_protocol,
    spin_pumping_protocol,
    t1_protocol,
)
from .fitting import (
    FitModel,
    FitResult,
    MODEL_LIBRARY,
    fft_spectrum,
    fit,
    fit_rabi_master_equation,
    larmor_frequencies,
    linewidth_from_t2star,
    t2star_from_linewidth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
