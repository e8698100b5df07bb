"""Weakly dispersive, dissipation-free medium: single-resonance Lorentz
permittivity, the mode condition n(omega) omega = k, the physically
meaningful part w_I of the dispersive energy, and the cutoff-regulated
frequency-derivative remainder W_II.

The Lorentz dielectric is

    eps(omega) = 1 + (eps_bar - 1) / (1 - omega^2/omega0^2),   mu = 1,

valid away from the resonance where neglecting dissipation is legitimate;
real-axis evaluation therefore refuses a window |omega/omega0 - 1| <=
DEFAULT_RESONANCE_HALFWIDTH = 0.05 around omega0.  On the imaginary axis
the same response is smooth and monotone,

    eps(i zeta) = 1 + (eps_bar - 1) / (1 + zeta^2/omega0^2),

decreasing from eps_bar at zeta = 0 to 1 at high frequency, and all
energy integrals are evaluated there.

With x = omega^2 the mode condition k^2 = omega^2 eps(omega) is the
quadratic x^2 - b x + k^2 omega0^2 = 0, b = eps_bar omega0^2 + k^2.  Its
larger root x+ = (b + disc)/2, with the cancellation-free
disc^2 = (k^2 - omega0^2)^2 + (eps_bar - 1) omega0^2 ((eps_bar + 1) omega0^2 + 2 k^2),
gives both branches with no root solve: omega = sqrt(x+) above the gap
and omega = k omega0/sqrt(x+) below (x- x+ = k^2 omega0^2; forming
x- = (b - disc)/2 directly would lose every digit at small k).  x+ is
formed in units of max(k, omega0)^2, so no square overflows.

Both halves of the rotated spectral density equal -eps zeta^2/(kappa d)
(see casimir.green_em), and k dk = kappa dkappa closes the k integral,

    int_0^inf k dk / (kappa d) = -ln(1 - e^(-2 a sqrt(eps(i zeta)) zeta)) / (2a),

so w_I and W_II are one-dimensional zeta integrals (Lifshitz's reduction,
Sov. Phys. JETP 2, 73 (1956)); green_em.em_energy_T0 is its nested check.

Sign/normalization convention for W_II: the frequency prefactor
omega^2/(1 - omega^2/omega0^2)^2 is rotated to zeta^2/(1 + zeta^2/omega0^2)^2
(magnitude) and the rotated spectral density keeps its own (negative)
sign, so the reported W_II is negative like every other energy here.
Only its growth with the cutoff is treated as physically meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import DEFAULT_TOL, Accumulator, EnergyValue, Tolerance, adaptive_quad
from .matsubara import CavityConfig

__all__ = [
    "LorentzModel",
    "CutoffSpec",
    "CutoffEnergyResult",
    "DEFAULT_RESONANCE_HALFWIDTH",
    "eps_of_omega",
    "eps_imag_axis",
    "dispersive_mode_solve",
    "photon_index",
    "w_I_energy",
    "w2_density_cutoff",
]

DEFAULT_RESONANCE_HALFWIDTH = 0.05


@dataclass(frozen=True)
class LorentzModel:
    """Single-resonance nonmagnetic dielectric: static permittivity
    eps_bar >= 1 (eps_bar = 1 is the degenerate vacuum branch) and
    resonance frequency omega0 > 0, both finite."""

    eps_bar: float
    omega0: float

    def __post_init__(self):
        if not (math.isfinite(self.eps_bar) and self.eps_bar >= 1):
            raise ValueError(f"eps_bar must be finite and >= 1, got {self.eps_bar}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0}")


@dataclass(frozen=True)
class CutoffSpec:
    """Hard frequency cutoff for the divergent W_II integral (finite,
    > 0).  W_II is integrated on the imaginary axis, so no resonance
    zone needs excluding."""

    omega_max: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_max) and self.omega_max > 0):
            raise ValueError(f"omega_max must be finite and > 0, got {self.omega_max}")


def _eps_real_unguarded(model: LorentzModel, omega: float) -> float:
    return 1.0 + (model.eps_bar - 1.0) / (1.0 - (omega / model.omega0) ** 2)


def eps_of_omega(model: LorentzModel, omega: float) -> float:
    """Real-axis permittivity; rejects the resonance zone
    |omega/omega0 - 1| <= DEFAULT_RESONANCE_HALFWIDTH where the lossless
    form is meaningless."""
    if abs(omega / model.omega0 - 1.0) <= DEFAULT_RESONANCE_HALFWIDTH:
        raise ValueError(
            f"omega={omega} lies within the excluded resonance zone of omega0={model.omega0}"
        )
    return _eps_real_unguarded(model, omega)


def eps_imag_axis(model: LorentzModel, zeta: float) -> float:
    """Permittivity on the imaginary frequency axis, eps(i zeta)."""
    return 1.0 + (model.eps_bar - 1.0) / (1.0 + (zeta / model.omega0) ** 2)


def _photon_jump(model: LorentzModel) -> float:
    # wavenumber where photon_index jumps across the polariton gap; inf without a gap
    return model.omega0 if model.eps_bar > 1.0 else math.inf


def _scaled_upper_root(model: LorentzModel, k: float) -> float:
    # x+ / s^2 with s = max(k, omega0), in the cancellation-free form of the
    # module docstring; the scaling keeps every square in [0, 1]
    s = max(k, model.omega0)
    kk, w, e = k / s, model.omega0 / s, model.eps_bar
    coupling = w * math.sqrt((e - 1.0) * ((e + 1.0) * w * w + 2.0 * kk * kk))
    return 0.5 * (e * w * w + kk * kk + math.hypot(kk * kk - w * w, coupling))


def dispersive_mode_solve(model: LorentzModel, k: float) -> float:
    """Lowest root of n(omega) omega = k, always in (0, omega0].

    n(omega) omega is continuous and strictly increasing on (0, omega0),
    vanishing at 0 and diverging at the resonance, so the root exists and
    is unique; it connects continuously to the vacuum branch omega = k as
    eps_bar -> 1 (and for eps_bar = 1 exactly, omega = k is returned).
    It is the smaller root x- = k^2 omega0^2 / x+ of the mode quadratic.
    k must be finite and > 0.
    """
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber k must be finite and > 0, got {k}")
    if model.eps_bar == 1.0:
        return k
    return min(k, model.omega0) / math.sqrt(_scaled_upper_root(model, k))


def photon_index(model: LorentzModel, k: float) -> float:
    """Effective index n(k) = k/omega(k) on the photon branch: the
    below-resonance root for k <= omega0 and the above-gap root for
    k > omega0.

    This is the branch adiabatically connected to the vacuum photon of
    the same wavenumber when the oscillator coupling is switched off, so
    n(k) -> sqrt(eps_bar) at low k and n(k) -> 1 at high k.  (The
    below-resonance root alone would give n(k) ~ k/omega0 at large k and
    the mode sum would never reduce to its vacuum form.)  Both branches
    are closed forms in x+: sqrt(x+)/omega0 below and k/sqrt(x+) above.
    k must be finite and > 0.
    """
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber k must be finite and > 0, got {k}")
    if model.eps_bar == 1.0:
        return 1.0
    root = math.sqrt(_scaled_upper_root(model, k))
    return root if k <= _photon_jump(model) else 1.0 / root


def _w2_transverse_integral(zeta: float, eps_i: float, cfg: CavityConfig) -> float:
    """int k dk <E^2>_{zeta k} with <E^2> from the rotated spectral
    density at eps(i zeta), in the closed form of the module docstring."""
    return zeta**2 * math.log1p(-math.exp(-2.0 * cfg.a * math.sqrt(eps_i) * zeta)) / cfg.a


def w_I_energy(
    model: LorentzModel, cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL
) -> EnergyValue:
    """Zero-temperature energy with the medium response sampled on the
    imaginary axis: the nondispersive spectral density with
    eps -> eps(i zeta) both in the numerator and inside kappa.

    This is the piece of the dispersive energy free of frequency
    derivatives, i.e. the one that feeds the force.
    """
    if cfg.T != 0:
        raise ValueError("w_I_energy requires T = 0 in the config")
    outer_tol = Tolerance(rel=max(tol.rel, 1e-9), abs=0.0)

    def integrand(zeta: float) -> float:
        eps_i = eps_imag_axis(model, zeta)
        return eps_i * _w2_transverse_integral(zeta, eps_i, cfg)

    outer = adaptive_quad(integrand, 0.0, math.inf, outer_tol)
    pref = cfg.a / (2.0 * math.pi**2)
    err = abs(pref) * outer.err_estimate
    return EnergyValue(pref * outer.value, err, "quadrature", outer.converged, outer.evaluations)


@dataclass(frozen=True)
class CutoffEnergyResult:
    """A cutoff-regulated energy with its divergence scan ((cutoff, value),
    ...) over three cutoffs, the first being the reported one: omega_max,
    2 omega_max, 4 omega_max for W_II; lambda, lambda/2, lambda/4 for
    hyperdim.cutoff_mode_energy."""

    value: EnergyValue
    scan: tuple[tuple[float, float], ...]


def w2_density_cutoff(
    model: LorentzModel,
    cfg: CavityConfig,
    cut: CutoffSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> CutoffEnergyResult:
    """Frequency-derivative remainder W_II, truncated at cut.omega_max.

    W_II(L) = (2a(eps_bar-1)/omega0^2) int_0^L (dzeta/2pi)
              zeta^2/(1 + zeta^2/omega0^2)^2 * (1/2pi) int k dk <E^2>,

    returned together with the cutoff scan {L, 2L, 4L} (computed as
    accumulated increments, so the scan is exactly monotone in the
    integral sense).  eps_bar = 1 gives identically zero.
    """
    seg_tol = Tolerance(rel=max(tol.rel, 1e-10), abs=0.0)
    pref = 2.0 * cfg.a * (model.eps_bar - 1.0) / (model.omega0**2 * 2.0 * math.pi)

    def integrand(zeta: float) -> float:
        w = zeta**2 / (1.0 + (zeta / model.omega0) ** 2) ** 2
        inner = _w2_transverse_integral(zeta, eps_imag_axis(model, zeta), cfg)
        return w * (inner / (2.0 * math.pi))

    if model.eps_bar == 1.0:
        zero = EnergyValue(0.0, 0.0, "quadrature")
        return CutoffEnergyResult(zero, tuple((cut.omega_max * 2**j, 0.0) for j in range(3)))

    edges = [0.0] + [cut.omega_max * 2**j for j in range(3)]
    acc = Accumulator()
    scan = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        acc.take(adaptive_quad(integrand, lo, hi, seg_tol))
        scan.append((hi, pref * acc.value))
    value = EnergyValue(
        scan[0][1], abs(pref) * acc.err_estimate, "quadrature", acc.converged, acc.evaluations
    )
    return CutoffEnergyResult(value, tuple(scan))
