"""Hyperplane cavities in D spacetime dimensions at T = 0.

Pressure by quadrature against the closed Gamma(D/2) zeta(D) form, the
local energy-density profile whose anomaly term switches on for D > 4
(separation independent, so force free), and the exponentially regulated
raw mode sums, including the dispersive photon relation.
"""

import math

from casimir.dispersion import LorentzModel
from casimir.engine import Tolerance
from casimir.hyperdim import (
    HyperConfig,
    cutoff_mode_energy,
    density_profile,
    dispersive_hyper_energy,
    mode_energy,
    pressure_closed,
    pressure_from_w1,
    pressure_quadrature,
)

print("Pressure between hyperplanes (a = 1, n = 1):")
print(f"{'D':>3} {'quadrature':>22} {'closed form':>22} {'(D-1) w1':>22}")
for D in (4, 5, 6, 7, 8):
    cfg = HyperConfig(dim=D)
    pq = pressure_quadrature(cfg, Tolerance(rel=1e-11, abs=0.0)).value
    pc = pressure_closed(cfg).value
    ident, _ = pressure_from_w1(cfg)
    print(f"{D:>3} {pq:22.15e} {pc:22.15e} {ident.value:22.15e}")
print(f"  (D=4 is the classic -pi^2/240 = {-math.pi**2 / 240:.15e})")

print()
print("Density profile across the gap: the anomaly term w2 appears for D > 4,")
print("diverges towards the walls, and is absent at D = 4:")
grid = [0.05, 0.25, 0.5, 0.75, 0.95]
for D in (4, 6):
    prof = density_profile(HyperConfig(dim=D), grid)
    print(f"  D={D}: w1 = {prof.w1:+.6e}")
    for u, w2 in zip(prof.u_grid, prof.w2_values):
        print(f"      u={u:4.2f}: w2 = {w2:+.6e}")

print()
print("a-independence of the anomaly (a^D w2 at fixed z/a):")
for a in (1.0, 2.0, 4.0):
    w2 = density_profile(HyperConfig(dim=6, a=a), [0.3]).w2_values[0]
    print(f"  a={a:3.1f}: a^6 w2 = {a**6 * w2:+.15e}")

print()
print("Raw regulated mode sum, divergence ~ lambda^-D (D = 4):")
res = cutoff_mode_energy(HyperConfig(dim=4), 0.1)
for lam, val in res.scan:
    print(f"  lambda = {lam:6.3f}: W = {val:.6e}")
r = res.scan[1][1] / res.scan[0][1]
print(f"  halving ratio {r:.3f} ~ 2^D = 16")

print()
print("Dispersive photon relation: the regulated sum walks back to the")
print("vacuum one as the cutoff probes k >> omega0 (eps_bar=2, omega0=1):")
model = LorentzModel(eps_bar=2.0, omega0=1.0)
for lam in (2.0, 1.0, 0.5, 0.25):
    disp = dispersive_hyper_energy(HyperConfig(dim=4), model, lam).value
    vac = mode_energy(HyperConfig(dim=4), lam).value
    print(f"  lambda = {lam:5.2f}: dispersive/vacuum = {disp / vac:.6f}")
