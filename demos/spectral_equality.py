"""Field-fluctuation route to the plate energy.

Shows the exact equality of the electric and magnetic halves of the
rotated spectral energy density, built from the two component sets of the
Green's dyadic at z = z', and the
zero-temperature energy computed three ways: nested (zeta, k) quadrature,
the polar-coordinate Bose integral, and the closed form -pi^2/(720 n a^3).
Finally checks W(T) = U(T) at finite temperature.
"""

import math

from casimir.engine import Tolerance
from casimir.green_em import (
    em_energy_T0,
    em_energy_T0_polar,
    em_energy_finiteT,
    spectral_energy_density,
)
from casimir.matsubara import CavityConfig, internal_energy_direct

cfg = CavityConfig(a=1.0, T=0.0)

print("Electric half vs magnetic half of the spectral density:")
for k, zeta in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.1)):
    p = spectral_energy_density(k, zeta, cfg)
    print(f"  (k={k:3.1f}, zeta={zeta:3.1f}):  {p.electric_half:+.15e}  {p.magnetic_half:+.15e}")

print()
print("Zero-temperature energy per unit area, three routes:")
closed = -math.pi**2 / 720.0
quad = em_energy_T0(cfg, Tolerance(rel=1e-11, abs=0.0)).value
polar = em_energy_T0_polar(cfg).value
print(f"  nested quadrature : {quad:.15e}")
print(f"  polar Bose route  : {polar:.15e}")
print(f"  closed form       : {closed:.15e}")

print()
print("Medium scaling W = -pi^2/(720 n a^3):")
for n in (1.0, 2.0, 3.0):
    w = em_energy_T0(CavityConfig(a=1.0, T=0.0, n=n)).value
    print(f"  n={n:3.1f}: W = {w:+.12e},  n*W = {n * w:+.12e}")

print()
print("W(T) = U(T) for the closed nondispersive system:")
for T in (0.5, 1.0, 2.0):
    c = CavityConfig(a=1.0, T=T)
    w = em_energy_finiteT(c).value
    u = internal_energy_direct(c).value
    print(f"  T={T:4.1f}: W = {w: .15e},  U = {u: .15e}")
