"""Thermodynamic energies of an ideal-wall planar cavity filled with a
nondispersive medium of refractive index n (natural units, hbar=c=k_B=1).

All quantities are per unit plate area.  The free energy at temperature
T = 1/beta is a Matsubara sum over imaginary frequencies zeta_m = 2 pi m T,

    F = (1/(pi beta)) sum'_{m>=0} I(n zeta_m),
    I(x) = int_x^inf kappa ln(1 - e^(-2 kappa a)) dkappa,

with the m = 0 term at half weight.  The pressure P = -dF/da is the same
sum with the a-derivative taken under it, I(x) replaced by
-int_x^inf 2 kappa^2 / (e^(2 kappa a) - 1) dkappa (the lower limit does
not depend on a); the finite difference of F in a is only a cross-check
(casimir crosscheck).  The internal energy
U = d(beta F)/d beta is computed by three independent routes that must
agree:

* ``internal_energy_direct``    -pi n^2 T^3 sum_m coth(2 pi n m a T) /
                                (m sinh^2(2 pi n m a T)); geometric
                                convergence for naT not too small.
* ``internal_energy_resummed``  the Poisson-dual series, rapid at low T;
                                see the note on extended precision below.
* ``internal_energy_from_F``    numerical d(beta F)/d beta, differencing
                                each Matsubara term separately.

The m = 0 term of beta*F is exactly independent of beta (beta enters only
through the lower integration limit, which vanishes at m = 0), so it is
excluded from the derivative route; differencing it numerically would only
inject noise.

Extended precision: the resummed series is an exact rearrangement in which
a closed polynomial part (the low-temperature expansion) cancels against an
exponentially convergent remainder sum.  At naT of a few, the result is
smaller than the individual pieces by a factor e^(-4 pi naT), far below
double-precision resolution of the pieces, so this route evaluates in
mpmath with a working precision scaled to the cancellation and rounds the
final value to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import Tolerance, DEFAULT_TOL, adaptive_quad, sum_series, finite_diff
from .specfun import riemann_zeta

__all__ = [
    "CavityConfig",
    "EnergyValue",
    "METHOD_TAGS",
    "free_energy",
    "free_energy_T0",
    "free_energy_lowT",
    "internal_energy",
    "internal_energy_direct",
    "internal_energy_resummed",
    "internal_energy_from_F",
    "internal_energy_lowT",
    "internal_energy_highT_asymptote",
    "pressure",
]

METHOD_TAGS = (
    "direct_sum",
    "poisson_resummed",
    "low_T_expansion",
    "high_T_asymptote",
    "quadrature",
    "finite_difference",
    "closed_form",
)

# naT threshold separating the geometric regimes of the two U series.
ROUTE_SPLIT_NAT = 0.3


@dataclass(frozen=True)
class CavityConfig:
    """Plate separation a > 0, temperature T >= 0, refractive index n >= 1,
    all finite."""

    a: float
    T: float
    n: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"separation a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"temperature T must be finite and >= 0, got {self.T}")
        if not (math.isfinite(self.n) and self.n >= 1):
            raise ValueError(f"refractive index n must be finite and >= 1, got {self.n}")

    @property
    def naT(self) -> float:
        return self.n * self.a * self.T


@dataclass(frozen=True)
class EnergyValue:
    """A computed energy/pressure with an error estimate and a tag naming
    the route that produced it (one of METHOD_TAGS).  A non-finite value
    or err_estimate is never converged."""

    value: float
    err_estimate: float
    method: str
    converged: bool = True

    def __post_init__(self):
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.err_estimate)):
            object.__setattr__(self, "converged", False)

    def __float__(self) -> float:
        return self.value


def _log_kernel(kappa: float, a: float) -> float:
    # kappa * ln(1 - e^(-2 kappa a)); log1p keeps the tail accurate.
    return kappa * math.log1p(-math.exp(-2.0 * kappa * a))


def _da_kernel(kappa: float, a: float) -> float:
    # -d/da of _log_kernel: -2 kappa^2 / (e^(2 kappa a) - 1), an exact 0
    # past the exponential range.
    arg = 2.0 * kappa * a
    return -2.0 * kappa * kappa / math.expm1(arg) if arg < 709.0 else 0.0


def _matsubara_series(cfg: CavityConfig, kernel, tol: Tolerance) -> EnergyValue:
    """(T/pi) sum'_{m>=0} int_{n zeta_m}^inf kernel(kappa, a) dkappa, the
    m = 0 term at half weight; the error estimate sums the series tail
    bound and every quadrature's estimate."""
    quad_tol = Tolerance(rel=min(tol.rel, 1e-12), abs=0.0, max_iter=tol.max_iter)
    state = {"err": 0.0, "ok": True}

    def term(m: int) -> float:
        x = 2.0 * math.pi * m * cfg.T * cfg.n
        res = adaptive_quad(lambda k: kernel(k, cfg.a), x, math.inf, quad_tol)
        state["err"] += res.err_estimate
        state["ok"] &= res.converged
        return res.value

    half_m0 = 0.5 * term(0)
    series = sum_series(term, start=1, tol=tol)
    pref = cfg.T / math.pi
    value = pref * (half_m0 + series.value)
    err = pref * (state["err"] + series.err_estimate)
    return EnergyValue(value, err, "direct_sum", series.converged and state["ok"])


def free_energy(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Free energy per unit area by the direct Matsubara sum; T > 0.

    The T = 0 limit is served exactly by free_energy_T0.
    """
    if not cfg.T > 0:
        raise ValueError("free_energy requires T > 0; use free_energy_T0 at T = 0")
    return _matsubara_series(cfg, _log_kernel, tol)


def free_energy_T0(cfg: CavityConfig) -> EnergyValue:
    """Zero-temperature free energy -pi^2/(720 n a^3), exact closed form."""
    value = -math.pi**2 / (720.0 * cfg.n * cfg.a**3)
    return EnergyValue(value, abs(value) * 1e-15, "closed_form")


def _stable_coth_over_sinh2(x: float) -> float:
    # coth(x)/sinh(x)^2 = 4 e^(-2x) (1 + e^(-2x)) / (1 - e^(-2x))^3,
    # stable for every x > 0 (underflows harmlessly for x >~ 355).
    e = math.exp(-2.0 * x)
    one_minus = -math.expm1(-2.0 * x)
    return 4.0 * e * (1.0 + e) / one_minus**3


def internal_energy_direct(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Internal energy from the hyperbolic sum; best for naT >~ 0.3.

    At very small naT the term count exceeds tol.max_iter and the result
    comes back flagged (converged=False); use the resummed route there.
    """
    if not cfg.T > 0:
        raise ValueError("internal_energy_direct requires T > 0")
    x1 = 2.0 * math.pi * cfg.naT

    def term(m: int) -> float:
        return _stable_coth_over_sinh2(x1 * m) / m

    series = sum_series(term, start=1, tol=tol)
    pref = -math.pi * cfg.n**2 * cfg.T**3
    return EnergyValue(
        pref * series.value, abs(pref) * series.err_estimate, "direct_sum", series.converged
    )


def _poisson_bracket(x: float) -> float:
    """Summand bracket of the dual series:
    -3 + x coth x + (x^2/sinh^2 x)(1 + x coth x).  Tends to x - 3 for
    large x and to -x^4/45 for small x."""
    if x > 350.0:
        return x - 3.0
    c = 1.0 / math.tanh(x)
    s2 = math.sinh(x) ** 2
    return -3.0 + x * c + (x * x / s2) * (1.0 + x * c)


def _mp_bracket_remainder(ctx, x):
    # bracket(x) - (x - 3) = x(coth x - 1) + (x^2/sinh^2 x)(1 + x coth x),
    # exponentially small for large x; evaluated in mpmath.
    e2 = ctx.expm1(2 * x)          # e^(2x) - 1
    coth = (e2 + 2) / e2           # coth x
    inv_sinh2 = 4 * (e2 + 1) / (e2 * e2)   # 1/sinh^2 x
    return x * 2 / e2 + (x * x * inv_sinh2) * (1 + x * coth)


def internal_energy_resummed(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Internal energy from the Poisson-dual all-temperature series.

    Evaluated as the exact split

        U = U_poly(naT) + 2 pi n^2 T^3 (naT/pi^3) sum_m m^-4 R(pi m/(2 naT)),

    where U_poly is the closed low-temperature polynomial (the linear and
    constant parts of the bracket summed in closed form through zeta(3)
    and zeta(4)) and R is the exponentially small hyperbolic remainder.
    The split is what makes the series summable at all at naT >~ 1; see
    the module docstring for why this runs in extended precision.
    """
    if not cfg.T > 0:
        raise ValueError("internal_energy_resummed requires T > 0")
    naT = cfg.naT
    # digits lost to cancellation ~ 4 pi naT / ln 10
    extra = max(0.0, 4.0 * math.pi * naT * 0.4342944819 + math.log10(max(naT, 1.0)))
    dps = 25 + int(extra) + 10
    c = math.pi / (2.0 * naT)  # remainder decays like e^(-2 c m)
    m_needed = int(dps * math.log(10.0) / (2.0 * c)) + 25
    converged = m_needed <= tol.max_iter

    import mpmath  # only this route needs it; keeps `import casimir` light

    ctx = mpmath.mp.clone()  # private context: reentrant, global precision untouched
    ctx.dps = dps
    pi = ctx.pi
    a = ctx.mpf(cfg.a)
    T = ctx.mpf(cfg.T)
    n = ctx.mpf(cfg.n)
    nat = n * a * T
    poly = -(pi**2 / (720 * n * a**3)) * (
        1 - 720 * (nat / pi) ** 3 * ctx.zeta(3) + 48 * nat**4
    )
    cc = pi / (2 * nat)
    remainder = ctx.mpf(0)
    floor = ctx.mpf(10) ** (-(dps - 3))
    for m in range(1, min(m_needed, tol.max_iter) + 1):
        r = _mp_bracket_remainder(ctx, cc * m) / ctx.mpf(m) ** 4
        remainder += r
        if r < floor * (1 + abs(remainder)):
            break
    value = float(poly + 2 * pi * n**2 * T**3 * (nat / pi**3) * remainder)

    err = abs(value) * 1e-12 + 5e-300
    return EnergyValue(value, err, "poisson_resummed", converged)


def internal_energy_from_F(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Internal energy as d(beta F)/d beta by finite differences.

    beta enters each Matsubara term only through the lower limit of its
    integral, so the derivative is taken term by term (the m = 0 term of
    beta F is a beta-independent constant and drops out exactly).  Each
    term is one engine.finite_diff step, whose error estimate is summed.
    """
    if not cfg.T > 0:
        raise ValueError("internal_energy_from_F requires T > 0")
    beta = 1.0 / cfg.T
    h = 1e-4 * beta
    quad_tol = Tolerance(rel=1e-12, abs=0.0, max_iter=tol.max_iter)
    state = {"err": 0.0, "ok": True}

    def beta_f_term(m: int, b: float) -> float:
        x = 2.0 * math.pi * m * cfg.n / b
        res = adaptive_quad(lambda k: _log_kernel(k, cfg.a), x, math.inf, quad_tol)
        state["ok"] &= res.converged
        return res.value / math.pi

    def term(m: int) -> float:
        res = finite_diff(lambda b: beta_f_term(m, b), beta, h)
        state["err"] += res.err_estimate
        return res.value

    series = sum_series(term, start=1, tol=tol)
    return EnergyValue(
        series.value,
        state["err"] + series.err_estimate,
        "finite_difference",
        series.converged and state["ok"],
    )


def internal_energy(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Internal energy, dispatching to whichever series converges
    geometrically in the given regime (direct for naT >= 0.3, resummed
    below)."""
    if cfg.T == 0:
        return internal_energy_lowT(cfg)  # exact at T = 0
    if cfg.naT >= ROUTE_SPLIT_NAT:
        return internal_energy_direct(cfg, tol)
    return internal_energy_resummed(cfg, tol)


def internal_energy_lowT(cfg: CavityConfig) -> EnergyValue:
    """Low-temperature expansion
    U = -pi^2/(720 n a^3) [1 - 720 (naT/pi)^3 zeta(3) + 48 (naT)^4].

    Valid for naT < 0.5; outside that range the value is still returned
    but flagged (converged=False)."""
    naT = cfg.naT
    z3 = riemann_zeta(3.0)
    value = (
        -(math.pi**2)
        / (720.0 * cfg.n * cfg.a**3)
        * (1.0 - 720.0 * (naT / math.pi) ** 3 * z3 + 48.0 * naT**4)
    )
    return EnergyValue(value, abs(value) * naT**5, "low_T_expansion", naT < 0.5)


def free_energy_lowT(cfg: CavityConfig) -> EnergyValue:
    """Low-temperature expansion
    F = -pi^2/(720 n a^3) [1 + 360 (naT/pi)^3 zeta(3) - (2 naT)^4],
    with the same naT < 0.5 validity guard as internal_energy_lowT."""
    naT = cfg.naT
    z3 = riemann_zeta(3.0)
    value = (
        -(math.pi**2)
        / (720.0 * cfg.n * cfg.a**3)
        * (1.0 + 360.0 * (naT / math.pi) ** 3 * z3 - (2.0 * naT) ** 4)
    )
    return EnergyValue(value, abs(value) * naT**5, "low_T_expansion", naT < 0.5)


def internal_energy_highT_asymptote(cfg: CavityConfig) -> EnergyValue:
    """Leading high-temperature behaviour U = -4 pi n^2 T^3 e^(-4 pi naT).

    The exact relative deviation |U - asym|/|U| of the full U from this is

        (9/2) e^(-4 pi naT) - (131/12) e^(-8 pi naT) + O(e^(-12 pi naT)),

    from coth x / sinh^2 x = 4q(1+q)/(1-q)^3 with q = e^(-2x), x = 2 pi naT,
    summed over the Matsubara index.  The leading term sets the error
    estimate.
    """
    value = -4.0 * math.pi * cfg.n**2 * cfg.T**3 * math.exp(-4.0 * math.pi * cfg.naT)
    err = abs(value) * 5.0 * math.exp(-4.0 * math.pi * cfg.naT)
    return EnergyValue(value, err, "high_T_asymptote", cfg.naT >= 1.0)


def pressure(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Pressure P = -dF/da.  At T > 0 the a-derivative is taken under the
    Matsubara sum, so each term integrates -2 kappa^2/(e^(2 kappa a) - 1);
    at T = 0 it is the closed form -pi^2/(240 n a^4)."""
    if cfg.T == 0:
        value = -math.pi**2 / (240.0 * cfg.n * cfg.a**4)
        return EnergyValue(value, abs(value) * 1e-15, "closed_form")
    return _matsubara_series(cfg, _da_kernel, tol)
