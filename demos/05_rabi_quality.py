"""Driven Rabi oscillations: pi-pulse contrast, quality factor, intensity noise.

The pipeline: ensemble-averaged two-level master equation -> pi contrast
f_pi -> Q = -1/ln(2 f_pi - 1).  Laser intensity noise enters as extra
quasi-static detuning spread through the differential Stark shift and
degrades Q.

Run:  python demos/05_rabi_quality.py      (about a second)
"""

import numpy as np

from fss.ensemble import EnsembleSpec
from fss.fitting import fit_rabi_master_equation
from fss.sequences import (
    TwoLevelPhysics,
    rabi_protocol,
    rabi_q_protocol,
    simulate_protocol,
    two_level_pi_contrast,
)

# --- the headline numbers ----------------------------------------------------
r = two_level_pi_contrast(226.8, gamma1_mhz=0.8, gamma2_mhz=3.7, t2star_ns=34.0)
print(f"Omega = 226.8 MHz, Gamma2/2pi = 3.7 MHz, T2* = 34 ns:")
print(f"  pi contrast f_pi = {100 * r.f_pi:.2f}%  ->  Q = {r.q:.1f}")

# --- fitting a trace the way a measurement is analyzed -------------------------
tau = np.linspace(0.0, 66.0, 111)
prot = rabi_protocol(226.8, 0.0, tau)
trace = simulate_protocol(prot, TwoLevelPhysics(gamma1_mhz=0.8, gamma2_mhz=3.7),
                          EnsembleSpec(t2star_ns=34.0, nodes=11))
counts = 480.0 * trace.signal + 60.0  # arbitrary-units readout
fit_result, contrast = fit_rabi_master_equation(
    tau, counts, omega0_mhz=220.0, gamma2_0_mhz=3.0, t2star_ns=34.0, gamma1_mhz=0.8)
print("master-equation refit of the counts trace:")
print(f"  Omega  = {fit_result['omega_mhz']:.1f} MHz")
print(f"  Gamma2 = {fit_result['gamma2_mhz']:.2f} MHz")
print(f"  Q      = {contrast.q:.1f}")

# --- intensity-noise degradation ----------------------------------------------
prot_q = rabi_q_protocol([60.0, 225.0], [0.0, 0.01, 0.02, 0.04])
res = simulate_protocol(prot_q, TwoLevelPhysics())
print("Q versus rms intensity noise dI/I (rows: 60 MHz, 225 MHz):")
for omega, row in zip((60.0, 225.0), res.signal):
    cells = "  ".join(f"{q:5.2f}" for q in row)
    print(f"  Omega {omega:5.0f} MHz: {cells}")
