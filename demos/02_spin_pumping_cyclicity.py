"""Optical spin pumping and cyclicity.

The four-level model pumps the spin through the weak spin-flipping decay of
the driven trion.  The raw emission decay time is slower than 1/gamma_SP by
the quasi-steady trion occupation s/(2(1+s)); correcting for it recovers the
branch rate, which is how a measured pumping time maps onto a cyclicity.

Run:  python demos/02_spin_pumping_cyclicity.py      (about a second)
"""

from fss.models import FaradayParams, cyclicity
from fss.sequences import spin_pumping_analysis
from fss.units import rate_mhz_from_lifetime

# Device-style numbers: trion lifetimes 0.7 ns / 0.27 ns against measured
# pumping times 203 ns / 111 ns.
for label, lifetime, pump in (("device 1 (InGaAs)", 0.7, 203.0),
                              ("device 2 (GaAs)", 0.270, 111.0)):
    c = cyclicity(lifetime, pump)
    print(f"{label}: C = {c.cyclicity:.0f}, branching = {100 * c.branching:.2f}%")

print()
print("simulated pumping at s = P/P_sat = 6, C = 409:")
params = FaradayParams(
    omega_e_ghz=30.0, omega_h_ghz=59.0, delta_ghz=0.0,
    cyclicity=409.0, gamma1_mhz=rate_mhz_from_lifetime(0.270),
)
pa = spin_pumping_analysis(params, s=6.0, duration_ns=1400.0, points=121)
print(f"  raw emission decay time   : {pa.fitted_decay_ns:7.1f} ns")
print(f"  trion occupation factor   : {pa.occupation_factor:7.3f}")
print(f"  occupation-corrected time : {pa.fitted_decay_ns * pa.occupation_factor:7.1f} ns")
print(f"  branch time 1/gamma_SP    : {pa.branch_time_ns:7.1f} ns")
print("the corrected time is the number a pumping measurement quotes")
