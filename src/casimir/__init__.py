"""Self-verifying numerics for the Casimir effect between two perfectly
conducting parallel plates separated by a homogeneous isotropic medium:
free energy, internal energy, and electromagnetic energy at arbitrary
temperature, weakly dispersive (nondissipative) media, and arbitrary
spacetime dimension, each closed form paired with an independent
numerical route.

Natural units hbar = c = k_B = 1 throughout; energies are per unit plate
area.

The package root binds only ``__version__`` and imports no submodule.
Each name lives in the module that computes it, and is imported from
there: ``from casimir.matsubara import CavityConfig, free_energy``.
"""

__version__ = "0.1.0"
