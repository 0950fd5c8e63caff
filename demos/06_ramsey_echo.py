"""Phase-resolved control: Ramsey fringes, serrodyne shifts, Hahn echo.

Run:  python demos/06_ramsey_echo.py      (about a second)
"""

import numpy as np

from fss.ensemble import EnsembleSpec
from fss.fitting import MODEL_LIBRARY, fft_spectrum, fit, larmor_frequencies
from fss.sequences import TwoLevelPhysics, hahn_echo_protocol, ramsey_protocol, simulate_protocol

phys = TwoLevelPhysics()

# --- Ramsey fringe with a Gaussian detuning ensemble ---------------------------
tau = np.linspace(0.0, 80.0, 161)
prot = ramsey_protocol(125.0, delta_mhz=100.0, tau_grid_ns=tau)
res = simulate_protocol(prot, phys, EnsembleSpec(t2star_ns=34.0), ideal_pulses=True)
r = fit(MODEL_LIBRARY["damped_ramsey"], tau, res.signal,
        {"amplitude": 0.9, "delta_mhz": 95.0, "phase": 1.4, "t2star_ns": 28.0})
print(f"Ramsey at 100 MHz detuning: fitted T2* = {r['t2star_ns']:.1f} ns, "
      f"fringe = {r['delta_mhz']:.1f} MHz")

# --- serrodyne phase ramp shifts the fringe ------------------------------------
prot = ramsey_protocol(125.0, 12.0, np.linspace(0.0, 60.0, 181), f_serr_mhz=100.0)
res = simulate_protocol(prot, phys, EnsembleSpec(t2star_ns=74.0), ideal_pulses=True)
r = fit(MODEL_LIBRARY["serrodyne_ramsey"], prot.axis("tau_ns"), res.signal,
        {"amplitude": 0.9, "freq_mhz": 108.0, "t2star_ns": 60.0})
print(f"serrodyne 100 MHz on a 12 MHz residual: fringe = {r['freq_mhz']:.1f} MHz")

# --- Hahn echo: static inhomogeneity refocused, coherent modulation survives ----
grid = np.linspace(0.0, 640.0, 161)
quiet = hahn_echo_protocol(125.0, np.linspace(0.0, 1000.0, 9))
res_q = simulate_protocol(quiet, phys, EnsembleSpec(t2star_ns=34.0, nodes=9),
                          ideal_pulses=True)
print(f"echo vs static ensemble: contrast stays >= {res_q.signal.min():.4f}")

modulated = hahn_echo_protocol(125.0, grid, modulation_amp_mhz=3.0, modulation_freq_mhz=47.4)
res_m = simulate_protocol(modulated, phys, ideal_pulses=True)
spec = fft_spectrum(grid, res_m.signal)
larmor = larmor_frequencies(6.5)["75As"]
print(f"echo with 47.4 MHz modulation: FFT peak at {spec.peaks[0][0]:.1f} MHz "
      f"(75-As Larmor at 6.5 T: {larmor:.1f} MHz)")
