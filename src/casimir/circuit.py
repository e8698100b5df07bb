"""LC-circuit model of the dispersive cavity: a parallel-plate capacitor
filled with a Lorentz dielectric, closed through an external
self-inductance L so stationary oscillations exist (no resistance, since
dissipation is neglected throughout).

The eigenfrequency solves omega = 1/sqrt(L C(omega)) with
C(omega, a) = (A_plate/a) eps(omega).  That is the mode condition
omega^2 eps(omega) = k^2 at k = 1/sqrt(L A_plate/a), so it is the closed
form dispersion.dispersive_mode_solve, with no bracket and no root solve.
The empty capacitor is the model at eps_bar = 1, where that solve returns
omega = k exactly and eps(omega) = 1 below omega0.
The time-averaged circuit energy of a nearly monochromatic oscillation is

    W_circ = (1/(2 omega)) d(omega^2 C)/d omega * phi_sq_bar
           = (C + omega C'/2) phi_sq_bar,

whose capacitor and inductor halves satisfy (1/2) L J^2 = (1/2) C phi^2
at the eigenfrequency.

W_circ/omega is an adiabatic invariant.  For a slow plate displacement
the predicted energy change W_circ * (delta omega/omega), with
delta omega taken from actually re-solving the eigenfrequency at the new
separation, must agree to first order with the thermally insulated
capacitor variation -(1/2) phi_sq_bar (delta C)_static, where the static
variation moves the plates at frozen frequency.  The frequency-derivative
terms cancel between the two sides; that cancellation is the point of the
model (the stress tensor carries no d/d omega terms), and
adiabatic_variation_check exposes both sides for comparison.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .engine import EnergyValue
from .dispersion import (
    LorentzModel,
    DEFAULT_RESONANCE_HALFWIDTH,
    _eps_real_unguarded,
    dispersive_mode_solve,
)

__all__ = ["CircuitSpec", "eigenfrequency", "circuit_energy", "adiabatic_variation_check"]


@dataclass(frozen=True)
class CircuitSpec:
    """Self-inductance L, the Lorentz dielectric eps_model that fills the
    capacitor, plate separation a, capacitance scale A_plate (so
    C0(a) = A_plate/a) and the mean-square potential phi_sq_bar >= 0
    setting the amplitude; all finite.  An empty capacitor is
    LorentzModel(1, omega0) with omega0 above its eigenfrequency: eps is
    then exactly 1 and dC/d omega exactly 0."""

    L: float
    eps_model: LorentzModel
    a: float = 1.0
    A_plate: float = 1.0
    phi_sq_bar: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"self-inductance must be finite and > 0, got {self.L}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"separation must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.A_plate) and self.A_plate > 0):
            raise ValueError(f"A_plate must be finite and > 0, got {self.A_plate}")
        if not (math.isfinite(self.phi_sq_bar) and self.phi_sq_bar >= 0):
            raise ValueError(f"phi_sq_bar must be finite and >= 0, got {self.phi_sq_bar}")

    def capacitance(self, omega: float) -> float:
        return self.A_plate / self.a * _eps_real_unguarded(self.eps_model, omega)

    def dC_domega(self, omega: float) -> float:
        m = self.eps_model
        c0 = self.A_plate / self.a
        return c0 * (m.eps_bar - 1.0) * (2.0 * omega / m.omega0**2) / (
            1.0 - (omega / m.omega0) ** 2
        ) ** 2


def eigenfrequency(spec: CircuitSpec) -> float:
    """Lowest positive root of omega^2 L C(omega) = 1.

    omega^2 L C(omega) is strictly increasing below the resonance, so the
    root is unique there; it is the lower mode root at
    k = 1/sqrt(L C0), and a root at or above omega0(1 - delta) (pushed
    into the resonance zone) is an error.
    """
    k = 1.0 / (math.sqrt(spec.L) * math.sqrt(spec.A_plate / spec.a))  # L C0 may overflow
    w = dispersive_mode_solve(spec.eps_model, k)
    if w >= spec.eps_model.omega0 * (1.0 - DEFAULT_RESONANCE_HALFWIDTH):
        raise ValueError("no eigenfrequency below the resonance zone for this L and C")
    return w


def circuit_energy(spec: CircuitSpec) -> EnergyValue:
    """Averaged circuit energy (1/(2 omega)) d(omega^2 C)/d omega * phi^2
    at the solved eigenfrequency, with the capacitance derivative taken
    analytically from the Lorentz form; err_estimate bounds its rounding."""
    w = eigenfrequency(spec)
    c = spec.capacitance(w)
    dc = spec.dC_domega(w)
    value = (c + 0.5 * w * dc) * spec.phi_sq_bar
    err = _energy_rounding(spec, w) * abs(value)
    return EnergyValue(value, err, "closed_form")


def _energy_rounding(spec: CircuitSpec, w: float) -> float:
    # Relative rounding bound of circuit_energy, first order in u = eps/2.
    # k = 1/(sqrt(L) sqrt(A_plate/a)) is good to 4.5 u, which w inherits at
    # most (d ln w/d ln k <= 1 on the lower branch), and the closed root to
    # 10 u more: in units of max(k, omega0)^2 every term of x+ is positive
    # but kk^2 - w^2, whose absolute error (7 u) is small against x+ >= 1/2,
    # so x+ is good to 16 u, its square root to 9 u.  With r = (w/omega0)^2,
    # g = 1 - r is good to dg = (2 dw + 3 u) r/g + u, and the two positive
    # terms of the energy, c and w dC/d omega / 2, to 2 dw + 2 dg + 11 u.
    u = 0.5 * sys.float_info.epsilon
    r = (w / spec.eps_model.omega0) ** 2
    dw = 14.5 * u
    dg = (2.0 * dw + 3.0 * u) * r / (1.0 - r) + u
    return 2.0 * dw + 2.0 * dg + 11.0 * u


def adiabatic_variation_check(spec: CircuitSpec, delta_a_rel: float) -> tuple[float, float]:
    """Both sides of the adiabatic energy balance for a -> a(1 + delta).

    lhs: W_circ * delta omega / omega with delta omega from re-solving the
    eigenfrequency at the displaced separation (adiabatic invariance of
    W_circ/omega).
    rhs: -(1/2) phi_sq_bar (delta C)_static with the capacitance varied at
    frozen frequency (insulated-capacitor energy change).

    The two agree to first order in delta; the residual of lhs/rhs - 1 is
    O(delta).
    """
    if not 0 < delta_a_rel < 1:
        raise ValueError("delta_a_rel must lie in (0, 1)")
    w1 = eigenfrequency(spec)
    moved = replace(spec, a=spec.a * (1.0 + delta_a_rel))
    w2 = eigenfrequency(moved)
    lhs = circuit_energy(spec).value * (w2 - w1) / w1
    dc_static = moved.capacitance(w1) - spec.capacitance(w1)
    rhs = -0.5 * spec.phi_sq_bar * dc_static
    return lhs, rhs
