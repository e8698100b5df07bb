"""Electromagnetic energy of the cavity from field-fluctuation spectra.

Everything is evaluated after the frequency rotation omega -> i zeta, so
kappa^2 = k_perp^2 + eps*mu*zeta^2 and all quantities are real.  Only the
separation-dependent part of the Green's function is kept (the factor
1/d with d = e^(2 kappa a) - 1); the empty-space part carries no force
information and is omitted from the start.

Electric spectral components (transverse Fourier space, k_perp along x,
evaluated between the plates):

    g_xx = -(kappa/eps) (1/d) cosh kappa(z-z')
    g_yy = -(mu zeta^2/kappa) (1/d) cosh kappa(z-z')
    g_zz = (k_perp^2/(kappa eps)) (1/d) cosh kappa(z-z')

The magnetic counterparts follow by applying curl curl'/omega^2 to the
full electric dyadic.  The z-derivatives act on the cosh kernel
(cosh <-> sinh pairs) and the transverse derivatives become +/- i k_perp;
the TM part of the dyadic contributes off-diagonal xz/zx pieces whose
derivatives fold back into the diagonal.  Carrying this out and rotating
gives the closed forms used below:

    h_xx = -(mu kappa) (1/d) cosh kappa(z-z')
    h_yy = -(eps mu^2 zeta^2/kappa) (1/d) cosh kappa(z-z')
    h_zz = (mu k_perp^2/kappa) (1/d) cosh kappa(z-z')

The electric and magnetic halves of the spectral energy density are then
computed through the two independent component sets and must coincide:

    (eps/2)<E^2> = (1/(2 mu)) sum h_ii = -n^2 zeta^2/(kappa d).

Both halves are negative after rotation; their integral is the (negative,
attractive) energy per unit area

    W(T=0) = -(n^2 a/pi^2) int_0^inf dzeta zeta^2
             int_0^inf k dk / (kappa d),

with finite-temperature version

    W(T) = -4 pi n^2 T^3 sum_{m>=1} m^2 int_{alpha m}^inf dz/(e^z - 1),
    alpha = 4 pi n a T,

whose inner integral has the closed form -ln(1 - e^(-alpha m)).  The
crosscheck compares this sum with the independent internal-energy series
of casimir.matsubara (W = U).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import Tolerance, DEFAULT_TOL, adaptive_quad, sum_series
from .matsubara import CavityConfig, EnergyValue

__all__ = [
    "SpectralGreens",
    "EnergySpectralPoint",
    "greens_components",
    "spectral_energy_density",
    "em_energy_T0",
    "em_energy_T0_polar",
    "em_energy_finiteT",
]


@dataclass(frozen=True)
class SpectralGreens:
    """Diagonal electric spectral components at (z, z', k_perp, zeta),
    plus the wavenumber kappa and the cavity factor d = e^(2 kappa a) - 1."""

    g_xx: float
    g_yy: float
    g_zz: float
    kappa: float
    d_factor: float


@dataclass(frozen=True)
class EnergySpectralPoint:
    """Electric and magnetic halves of the spectral energy density; the
    two are equal identically (and negative after rotation)."""

    electric_half: float
    magnetic_half: float


def _kappa_d(k_perp: float, zeta: float, a: float, eps: float, mu: float):
    kappa = math.sqrt(k_perp**2 + eps * mu * zeta**2)
    if kappa == 0.0:
        raise ValueError("kappa = 0 (k_perp = zeta = 0) is singular")
    arg = 2.0 * kappa * a
    # past the exponential range 1/d is an exact 0 in double precision
    d = math.expm1(arg) if arg < 709.0 else math.inf
    return kappa, d


def greens_components(
    z: float,
    zp: float,
    k_perp: float,
    zeta: float,
    cfg: CavityConfig,
    eps: float = 1.0,
    mu: float = 1.0,
) -> SpectralGreens:
    """Rotated electric spectral Green's components between the plates.

    Only cfg.a is read from the cavity; the medium enters through the
    explicit eps and mu so a frequency-dependent eps(i zeta) can be
    injected by the dispersion layer.
    """
    if not (0.0 <= z <= cfg.a and 0.0 <= zp <= cfg.a):
        raise ValueError("z and z' must lie in [0, a]")
    kappa, d = _kappa_d(k_perp, zeta, cfg.a, eps, mu)
    ch = math.cosh(kappa * (z - zp))
    return SpectralGreens(
        g_xx=-(kappa / eps) * ch / d,
        g_yy=-(mu * zeta**2 / kappa) * ch / d,
        g_zz=(k_perp**2 / (kappa * eps)) * ch / d,
        kappa=kappa,
        d_factor=d,
    )


def _magnetic_components(k_perp: float, zeta: float, a: float, eps: float, mu: float):
    # curl curl'/omega^2 of the electric dyadic, rotated; see module docstring.
    kappa, d = _kappa_d(k_perp, zeta, a, eps, mu)
    h_xx = -mu * kappa / d
    h_yy = -eps * mu**2 * zeta**2 / (kappa * d)
    h_zz = mu * k_perp**2 / (kappa * d)
    return h_xx, h_yy, h_zz


def spectral_energy_density(
    k_perp: float,
    zeta: float,
    cfg: CavityConfig,
    eps: float = 1.0,
    mu: float = 1.0,
) -> EnergySpectralPoint:
    """Electric and magnetic halves of the spectral energy density at
    z' -> z, computed independently from the two component sets."""
    g = greens_components(0.0, 0.0, k_perp, zeta, cfg, eps, mu)
    electric = 0.5 * eps * (g.g_xx + g.g_yy + g.g_zz)
    h_xx, h_yy, h_zz = _magnetic_components(k_perp, zeta, cfg.a, eps, mu)
    magnetic = 0.5 * (h_xx + h_yy + h_zz) / mu
    return EnergySpectralPoint(electric_half=electric, magnetic_half=magnetic)


def em_energy_T0(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Zero-temperature energy per unit area by nested adaptive
    quadrature over (zeta, k_perp): the independent check, at constant
    eps, of the closed k integral that casimir.dispersion relies on."""
    if cfg.T != 0:
        raise ValueError("em_energy_T0 requires T = 0 in the config")
    n2 = cfg.n**2
    inner_rel = max(1e-13, min(tol.rel * 1e-2, 1e-12))
    inner_tol = Tolerance(rel=inner_rel, abs=0.0, max_iter=tol.max_iter)
    outer_tol = Tolerance(rel=tol.rel, abs=0.0, max_iter=tol.max_iter)
    state = {"ok": True}

    def inner(zeta: float) -> float:
        def f(k: float) -> float:
            kappa = math.sqrt(k * k + n2 * zeta * zeta)
            arg = 2.0 * kappa * cfg.a
            if arg > 709.0:
                return 0.0
            return k / (kappa * math.expm1(arg))

        res = adaptive_quad(f, 0.0, math.inf, inner_tol)
        state["ok"] &= res.converged
        return zeta * zeta * res.value

    outer = adaptive_quad(inner, 0.0, math.inf, outer_tol)
    pref = -n2 * cfg.a / math.pi**2
    return EnergyValue(
        pref * outer.value,
        abs(pref) * outer.err_estimate,
        "quadrature",
        outer.converged and state["ok"],
    )


def em_energy_T0_polar(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Independent T = 0 route: polar coordinates in the (k_perp, n zeta)
    plane collapse the double integral to the Bose integral,

        W = -(1/(48 pi^2 n a^3)) int_0^inf z^3/(e^z - 1) dz,

    which is evaluated by quadrature (not replaced by its pi^4/15 value).
    """
    if cfg.T != 0:
        raise ValueError("em_energy_T0_polar requires T = 0 in the config")
    res = adaptive_quad(
        lambda z: z**3 / math.expm1(z) if z < 709.0 else 0.0, 0.0, math.inf, tol
    )
    pref = -1.0 / (48.0 * math.pi**2 * cfg.n * cfg.a**3)
    return EnergyValue(pref * res.value, abs(pref) * res.err_estimate, "quadrature", res.converged)


def em_energy_finiteT(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Finite-temperature energy per unit area, with the per-mode integral
    in closed form: int_x^inf dz/(e^z - 1) = -ln(1 - e^(-x))."""
    if not cfg.T > 0:
        raise ValueError("em_energy_finiteT requires T > 0")
    alpha = 4.0 * math.pi * cfg.naT

    def term(m: int) -> float:
        return m * m * math.log1p(-math.exp(-alpha * m))

    series = sum_series(term, start=1, tol=tol)
    pref = 4.0 * math.pi * cfg.n**2 * cfg.T**3
    return EnergyValue(
        pref * series.value, abs(pref) * series.err_estimate, "direct_sum", series.converged
    )
