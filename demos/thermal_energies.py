"""Free energy and internal energy of the plate cavity across temperature.

Walks the three independent internal-energy routes (hyperbolic sum,
Poisson-dual series, numerical d(beta F)/d beta) over a temperature
sweep and shows the low-temperature expansion taking over as naT -> 0
and the classical -zeta(3) T/(8 pi a^2) term dominating the free energy
at high temperature.  Natural units; energies per unit plate area.
"""

import math

from casimir.matsubara import (
    CavityConfig,
    free_energy,
    free_energy_lowT,
    internal_energy_direct,
    internal_energy_from_F,
    internal_energy_highT_asymptote,
    internal_energy_lowT,
    internal_energy_resummed,
)

print("Three routes to the internal energy U(a=1, n=1)")
print(f"{'T':>6} {'direct sum':>24} {'Poisson dual':>24} {'d(beta F)/d beta':>24}")
for T in (0.1, 0.3, 0.5, 1.0, 2.0):
    cfg = CavityConfig(a=1.0, T=T)
    u1 = internal_energy_direct(cfg).value
    u2 = internal_energy_resummed(cfg).value
    u3 = internal_energy_from_F(cfg).value
    print(f"{T:6.2f} {u1:24.16e} {u2:24.16e} {u3:24.16e}")

print()
print("Low-temperature expansion residual (shrinks exponentially):")
for T in (0.2, 0.1, 0.05):
    cfg = CavityConfig(a=1.0, T=T)
    full = internal_energy_resummed(cfg).value
    low = internal_energy_lowT(cfg).value
    print(f"  naT={T:5.2f}: |U - U_lowT|/|U| = {abs(full - low) / abs(full):9.3e}")

print()
print("High-temperature behaviour U -> -4 pi n^2 T^3 e^(-4 pi naT):")
for T in (1.0, 2.0, 3.0):
    cfg = CavityConfig(a=1.0, T=T)
    u = internal_energy_direct(cfg).value
    asym = internal_energy_highT_asymptote(cfg).value
    print(f"  T={T:4.1f}: U = {u: .6e}, asymptote = {asym: .6e}, ratio = {u / asym:.6f}")

print()
print("Free energy: the classical m=0 term -zeta(3) T/(8 pi a^2) at high T")
zeta3 = 1.2020569031595943
for T in (2.0, 5.0):
    f = free_energy(CavityConfig(a=1.0, T=T)).value
    classical = -zeta3 * T / (8.0 * math.pi)
    print(f"  T={T:4.1f}: F = {f: .12e}, m=0 term = {classical: .12e}")

print()
print("Low-T free energy against its closed expansion:")
for T in (0.05, 0.1):
    cfg = CavityConfig(a=1.0, T=T)
    f = free_energy(cfg).value
    low = free_energy_lowT(cfg).value
    print(f"  T={T:5.2f}: direct = {f: .12e}, expansion = {low: .12e}")
