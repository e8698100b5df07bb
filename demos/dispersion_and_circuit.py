"""Weak dispersion without dissipation: what part of the energy is
thermodynamically meaningful.

The Lorentz dielectric makes eps frequency dependent; the energy then
splits into w_I (the nondispersive form with eps -> eps(omega), which
carries the force) and the frequency-derivative remainder W_II, which is
cutoff dependent.  The LC-circuit model shows why: the adiabatic energy
change of the oscillating circuit equals the insulated-capacitor value,
with every d/d omega term cancelling.
"""

import math

from casimir.circuit import CircuitSpec, adiabatic_variation_check, circuit_energy, eigenfrequency
from casimir.dispersion import (
    CutoffSpec,
    LorentzModel,
    dispersive_mode_solve,
    eps_imag_axis,
    eps_of_omega,
    w2_density_cutoff,
    w_I_energy,
)
from casimir.matsubara import CavityConfig

model = LorentzModel(eps_bar=2.0, omega0=10.0)

print("Lorentz permittivity, eps_bar=2, omega0=10:")
for w in (0.0, 5.0, 20.0, 100.0):
    print(f"  eps({w:5.1f}) = {eps_of_omega(model, w):+10.6f}", end="")
    print(f"   eps(i*{w:5.1f}) = {eps_imag_axis(model, w):10.6f}")

print()
print("Mode condition n(omega) omega = k (below-resonance branch):")
for k in (0.5, 2.0, 5.0, 9.0):
    w = dispersive_mode_solve(model, k)
    print(f"  k={k:4.1f}: omega = {w:.10f}, residual = {math.sqrt(eps_of_omega(model, w)) * w - k:+.2e}")

print()
print("w_I energy (the force-carrying piece) interpolates between vacuum")
print("and the static-index value as the resonance sweeps through:")
cfg = CavityConfig(a=1.0, T=0.0)
print(f"  vacuum        : {-math.pi**2 / 720:.8e}")
for omega0 in (0.3, 1.0, 3.0, 30.0):
    w = w_I_energy(LorentzModel(eps_bar=2.0, omega0=omega0), cfg).value
    print(f"  omega0 = {omega0:5.1f} : {w:.8e}")
print(f"  static n=sqrt2: {-math.pi**2 / (720 * math.sqrt(2)):.8e}")

print()
print("Cutoff dependence of the frequency-derivative remainder W_II:")
soft = LorentzModel(eps_bar=2.0, omega0=0.2)
res = w2_density_cutoff(soft, cfg, CutoffSpec(omega_max=2.0))
for om, val in res.scan:
    print(f"  omega_max = {om:4.1f}: W_II = {val:+.10e}")

print()
print("LC circuit, L=1, C = eps(omega)/a, eps_bar=2, omega0=10:")
spec = CircuitSpec(L=1.0, eps_model=model)
w_star = eigenfrequency(spec)
energy = circuit_energy(spec)
print(f"  eigenfrequency omega* = {w_star:.12f}")
print(f"  circuit energy        = {energy.value:.12f}  (dC/domega = {spec.dC_domega(w_star):.6e})")
print()
print("Adiabatic plate displacement: invariant route vs insulated capacitor")
print("(the frequency-derivative terms cancel; agreement is first order):")
for delta in (1e-2, 1e-3, 1e-4):
    lhs, rhs = adiabatic_variation_check(spec, delta)
    print(f"  delta = {delta:7.0e}: lhs/rhs - 1 = {lhs / rhs - 1.0:+.3e}")
