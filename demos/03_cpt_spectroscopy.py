"""Coherent population trapping: the dark-state dip locates the spin splitting.

Two lasers drive both arms of the lambda system; at two-photon resonance the
system is pumped into a dark superposition and the fluorescence dips.  The
dip position measures the bare electron splitting, and refitting the
spectrum with the same steady-state model recovers the generating
parameters.

Run:  python demos/03_cpt_spectroscopy.py      (about a second)
"""

import numpy as np

from fss.fitting import FitModel, fit
from fss.models import CptParams, cpt_spectrum

params = CptParams()  # strong arm 9.3 /ns, weak arm 0.19 /ns, splitting 2.60 GHz
grid = np.linspace(2.40, 2.80, 121)
spectrum = cpt_spectrum(params, grid)
dip = grid[np.argmin(spectrum)]
print(f"dark-state dip at {dip:.3f} GHz (bare splitting {params.omega_e0_ghz} GHz)")
print(f"strong arm in saturation units: {params.saturation_ratio:.2f} Omega_sat")


def model_fn(x, omega_e0, omega_down, omega_up, gamma2):
    p = CptParams(omega_e0_ghz=omega_e0, omega_down=abs(omega_down),
                  omega_up=abs(omega_up), gamma2=abs(gamma2))
    return cpt_spectrum(p, x)


model = FitModel("cpt", ("omega_e0", "omega_down", "omega_up", "gamma2"), model_fn)
result = fit(model, grid, spectrum,
             {"omega_e0": 2.62, "omega_down": 8.0, "omega_up": 0.25, "gamma2": 0.4})
print("refit of the synthetic spectrum:")
for name in model.param_names:
    print(f"  {name:10s} = {result[name]:.4g}")
