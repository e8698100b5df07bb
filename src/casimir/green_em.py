"""Electromagnetic energy of the cavity from field-fluctuation spectra.

Everything is evaluated after the frequency rotation omega -> i zeta, so
kappa^2 = k_perp^2 + eps*mu*zeta^2 and all quantities are real.  Only the
separation-dependent part of the Green's function is kept (the factor
1/d with d = e^(2 kappa a) - 1); the empty-space part carries no force
information and is omitted from the start.

Electric spectral components (transverse Fourier space, k_perp along x,
between the plates; spectral_energy_density evaluates them at z' -> z,
where the cosh factor is 1):

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

whose inner integral has the closed form -ln(1 - e^(-alpha m)).  Since
W = U at every T, the energies here are check routes: casimir em-energy
prints casimir.matsubara.internal_energy, and the crosscheck holds
em_energy_finiteT and the T = 0 quadratures against it.

em_energy_T0 runs the inner k integral of W(T=0) on engine.cosh_quad
(j = 1, p = -1, the Bose weight k = 0): with q = n zeta, z = 2 a q and
k = q sinh s it is q int_0^s1 sinh s / (e^(z cosh s) - 1) ds, cut at
z cosh s1 = z + 36.0, where cosh_quad's bound on the dropped tail, from
the log-concavity of the integrand past the cut, is at most 0.2505 times
the rounding floor of the value; the bound joins the error estimate.  The
outer integral runs on zeta = e^sigma, which resolves the zeta^2 ln zeta
behaviour at zeta -> 0 in a few panels, over x = 2 a n zeta from 1e-7 to
708.3, past which the inner integrals add about e^(-708) of the value.
Each dropped end has a closed bound from bose(u) <= e^(-u)(1 + 1/u), which
gives J(zeta) <= (e^(-x) + E1(x))/(2a) for the inner integral J; the bounds
(about 3e-21 of the value below, e^(-708) above) join the error estimate.
On this map every (a, n) is the same integral shifted in sigma.  The
nesting runs on engine.nested_quad: each inner integral stops at a
hundredth of the outer relative tolerance (1e-12 at the default) or at an
absolute floor of a hundredth of the outer tolerance times the largest
outer node so far, whichever is larger, and the error
estimate adds the sigma range times the largest inner error to the outer
one; at the default tolerance that is 18 030 evaluations for every (a, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import ROUNDING, DEFAULT_TOL, EnergyValue, Tolerance
from .engine import _left_sum, adaptive_quad, cosh_quad, nested_quad, sum_series
from .matsubara import CavityConfig

__all__ = [
    "EnergySpectralPoint",
    "spectral_energy_density",
    "em_energy_T0",
    "em_energy_T0_polar",
    "em_energy_finiteT",
]


@dataclass(frozen=True)
class EnergySpectralPoint:
    """Electric and magnetic halves of the spectral energy density; the
    two are equal identically (and negative after rotation)."""

    electric_half: float
    magnetic_half: float


def spectral_energy_density(
    k_perp: float,
    zeta: float,
    cfg: CavityConfig,
    eps: float = 1.0,
    mu: float = 1.0,
) -> EnergySpectralPoint:
    """Electric and magnetic halves of the spectral energy density at
    z' -> z, computed independently from the two component sets of the
    module docstring (there cosh kappa(z - z') = 1).  Only cfg.a is read
    from the cavity; the medium enters through eps and mu, so a
    frequency-dependent eps(i zeta) can be passed in.  k_perp and zeta must
    be finite, eps and mu finite and > 0."""
    if not (math.isfinite(k_perp) and math.isfinite(zeta) and 0 < eps < math.inf and 0 < mu < math.inf):
        raise ValueError(f"need finite k_perp, zeta and finite eps, mu > 0, got "
                         f"k_perp={k_perp!r}, zeta={zeta!r}, eps={eps!r}, mu={mu!r}")
    kappa = math.sqrt(k_perp**2 + eps * mu * zeta**2)
    if kappa == 0.0:
        raise ValueError("kappa = 0 (k_perp = zeta = 0) is singular")
    arg = 2.0 * kappa * cfg.a
    # past the exponential range 1/d is an exact 0 in double precision
    d = math.expm1(arg) if arg < 709.0 else math.inf
    g_xx = -(kappa / eps) / d
    g_yy = -(mu * zeta**2 / kappa) / d
    g_zz = (k_perp**2 / (kappa * eps)) / d
    electric = 0.5 * eps * (g_xx + g_yy + g_zz)
    # curl curl'/omega^2 of the electric dyadic, rotated
    h_xx = -mu * kappa / d
    h_yy = -eps * mu**2 * zeta**2 / (kappa * d)
    h_zz = mu * k_perp**2 / (kappa * d)
    magnetic = 0.5 * (h_xx + h_yy + h_zz) / mu
    return EnergySpectralPoint(electric_half=electric, magnetic_half=magnetic)


# The outer zeta range of em_energy_T0 in x = 2 a n zeta: from _X_LOW, where
# the dropped start is ~3e-21 of the value, to _EXP_SUBNORMAL, where e^(-x)
# turns subnormal and the dropped end is ~e^(-708) of it.
_X_LOW = 1e-7
_EXP_SUBNORMAL = 708.3


def _t0_end_bounds(x0: float, x1: float) -> tuple[float, float]:
    # Bounds on int x^2 (2 a J) dx over (0, x0) and (x1, inf), J the inner k
    # integral at x = 2 a n zeta.  Since bose(u) <= e^(-u) (1 + 1/u),
    # 2 a J <= e^(-x) + E1(x), never the closed inner integral.  Below x0:
    # int_0^x0 x^2 E1 = x0^3 E1(x0)/3 + gamma(3, x0)/3, gamma(3, x0) <= x0^3/3
    # and E1(x) < e^(-x) ln(1 + 1/x).  Above x1: Gamma(3, x1) =
    # e^(-x1) (x1^2 + 2 x1 + 2) and E1(x) <= e^(-x)/x, so int x^2 E1 <= Gamma(2, x1).
    low = x0**3 * (4.0 / 9.0 + math.log1p(1.0 / x0) / 3.0)
    high = math.exp(-x1) * (x1 * x1 + 3.0 * x1 + 3.0)
    return low, high


def em_energy_T0(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Zero-temperature energy per unit area by nested adaptive
    quadrature over (zeta, k_perp), a check route of W(0) = U(0) and the
    independent check, at constant eps, of the closed k integral that
    casimir.dispersion relies on.  The inner k integral runs on the map
    k = n zeta sinh s up to the cut of engine.cosh_quad, whose tail bound
    is part of each inner error.  The outer integral runs on
    zeta = e^sigma, over 2 a n zeta in (1e-7, 708.3), through
    engine.nested_quad: an inner integral stops at the absolute floor it
    grants, scaled back by the prefactor pref zeta^3, and the sigma range
    times the largest inner error joins the error estimate, as do closed
    bounds on the two dropped ends."""
    if cfg.T != 0:
        raise ValueError("em_energy_T0 requires T = 0 in the config")
    n2 = cfg.n**2
    c = 2.0 * cfg.a * cfg.n  # x = c zeta
    inner_rel = max(1e-13, min(tol.rel * 1e-2, 1e-12))
    outer_tol = Tolerance(rel=tol.rel, abs=0.0)
    pref = -n2 * cfg.a / math.pi**2

    def inner(sigma: float, floor: float) -> EnergyValue:
        # pref first: the integrand is of the size of W, so it is finite
        # wherever W is, while int zeta^3 J d sigma ~ 1/(n^3 a^4) is not
        zeta = math.exp(sigma)
        q = cfg.n * zeta
        scale = pref * zeta * zeta * zeta
        # scale underflows to 0 only where the whole integrand does
        inner_floor = floor / abs(scale) if scale else 0.0
        inner_tol = Tolerance(rel=inner_rel, abs=inner_floor)
        j = cosh_quad(1, -1, q, 2.0 * cfg.a * q, 0, inner_tol)
        return EnergyValue(scale * j.value, abs(scale) * j.err_estimate, "quadrature",
                           j.converged, j.evaluations)

    res = nested_quad(inner, math.log(_X_LOW / c), math.log(_EXP_SUBNORMAL / c), outer_tol)
    # the ends in zeta are (2 a c^3)^(-1) times the x integrals of _t0_end_bounds
    ends = abs(pref) * _left_sum(_t0_end_bounds(_X_LOW, _EXP_SUBNORMAL)) / (2.0 * cfg.a) / c / c / c
    return EnergyValue(res.value, res.err_estimate + ends, "quadrature", res.converged, res.evaluations)


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
    err = abs(pref) * res.err_estimate
    return EnergyValue(pref * res.value, err, "quadrature", res.converged, res.evaluations)


def em_energy_finiteT(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Finite-temperature energy per unit area, with the per-mode integral
    in closed form: int_x^inf dz/(e^z - 1) = -ln(1 - e^(-x)); a check
    route of W = U.  Its term count grows like 1/naT (about 43 000 at
    naT = 1e-4), so the default tol.max_iter of 10^6 ends it, flagged,
    below naT of a few 1e-6."""
    if not cfg.T > 0:
        raise ValueError("em_energy_finiteT requires T > 0")
    alpha = 4.0 * math.pi * cfg.naT

    def term(m: int) -> float:
        return m * m * math.log1p(-math.exp(-alpha * m))

    series = sum_series(term, tol)
    pref = 4.0 * math.pi * cfg.n**2 * cfg.T**3
    value = pref * series.value
    # the rounding of alpha, amplified by |d ln W/d ln alpha| <= 3 + alpha,
    # and of the prefactor
    err = abs(pref) * series.err_estimate + ROUNDING * (4.0 + alpha) * abs(value)
    return EnergyValue(value, err, "direct_sum", series.converged, series.evaluations)
