"""Self-verifying numerics for the Casimir effect between two perfectly
conducting parallel plates separated by a homogeneous isotropic medium:
free energy, internal energy, and electromagnetic energy at arbitrary
temperature, weakly dispersive (nondissipative) media, and arbitrary
spacetime dimension, each closed form paired with an independent
numerical route.

Natural units hbar = c = k_B = 1 throughout; energies are per unit plate
area.
"""

from .engine import Tolerance, EnergyValue, adaptive_quad, sum_series, finite_diff
from .specfun import riemann_zeta, hurwitz_zeta, solid_angle
from .matsubara import (
    CavityConfig,
    free_energy,
    free_energy_quad,
    free_energy_lowT,
    internal_energy,
    internal_energy_direct,
    internal_energy_resummed,
    internal_energy_from_F,
    internal_energy_lowT,
    internal_energy_highT_asymptote,
    pressure,
    pressure_quad,
)
from .green_em import (
    EnergySpectralPoint,
    spectral_energy_density,
    em_energy_T0,
    em_energy_T0_polar,
    em_energy_finiteT,
)
from .dispersion import (
    LorentzModel,
    CutoffSpec,
    CutoffEnergyResult,
    eps_of_omega,
    eps_imag_axis,
    dispersive_mode_solve,
    w_I_energy,
    w2_density_cutoff,
)
from .circuit import CircuitSpec, eigenfrequency, circuit_energy, adiabatic_variation_check
from .hyperdim import (
    HyperConfig,
    DensityProfile,
    pressure_quadrature,
    pressure_closed,
    density_profile,
    pressure_from_w1,
    mode_energy,
    cutoff_mode_energy,
    dispersive_hyper_energy,
)

__version__ = "0.1.0"
