"""Thermodynamic energies of an ideal-wall planar cavity filled with a
nondispersive medium of refractive index n (natural units, hbar=c=k_B=1).

All quantities are per unit plate area.  The free energy at temperature
T = 1/beta is a Matsubara sum over imaginary frequencies zeta_m = 2 pi m T,

    F = (1/(pi beta)) sum'_{m>=0} I(n zeta_m),
    I(x) = int_x^inf kappa ln(1 - e^(-2 kappa a)) dkappa,

with the m = 0 term at half weight.  Expanding the logarithm and summing
the Matsubara index first (sum'_m e^(-2jum) = coth(ju)/2 and
sum_m m e^(-2jum) = 1/(4 sinh^2(ju))) leaves one function of u = 2 pi naT,

    S(u) = sum_{j>=1} j^-3 [coth(ju) + ju/sinh^2(ju)],
    F = -T/(8 pi a^2) S(u),    P = -dF/da = -T/(8 pi a^3) (2S - u S'),

and U = d(beta F)/d beta = u T S'(u)/(8 pi a^2), where
S'(u) = -2u sum_j coth(ju)/(j sinh^2(ju)) is the hyperbolic U sum.  At
naT >= ROUTE_SPLIT_NAT the terms of S - zeta(3) fall like e^(-2ju) and
are summed directly; below, the temperature-inversion symmetry (Brown &
Maclay, Phys. Rev. 184, 1272 (1969); Ramanujan's zeta(3) formula with
alpha beta = pi^2) gives the exact dual with v = pi^2/u,

    S(u)  =  pi^4/(45u) - u^3/45 + (u^2/pi^2) S(v),
    S'(u) = -pi^4/(45u^2) - u^2/15 + (2u/pi^2) S(v) - S'(v),

whose closed part is the low-temperature expansion and whose S(v) falls
like e^(-2 pi^2/u).  Either way a handful of terms reach rounding; the
error estimate is the geometric tail bound plus a rounding term and an
underflow floor; past a term whose e^(-2ju) underflows, a bound on the
rest, which U multiplies by its prefactor in logs (at huge T an exact 0
is not charged 4 ulp(0) times T^2 u).  F, P and U all read this kernel,
so no production route needs quadrature or extended precision.  Below
T0_LIMIT_NAT, T = 0 included, where S'(u) ~ u^-2 would leave the double
range, F, U and P are their T = 0 closed forms, equal to them there to
rounding.  Every route returns casimir.engine's EnergyValue, whose
evaluations count the engine work behind it: 0 for the kernel and the
closed forms.

Each production quantity keeps independent check routes (casimir
crosscheck).  For F and P they are the per-term quadrature of I (and,
for P, of -d/da under the sum, -int_x^inf 2 kappa^2/(e^(2 kappa a) - 1)
dkappa), free_energy_quad / pressure_quad, beside the finite difference
of F in a.  For U there are three:

* ``internal_energy_direct``    -pi n^2 T^3 sum_m coth(2 pi n m a T) /
                                (m sinh^2(2 pi n m a T)); geometric
                                convergence for naT not too small.
* ``internal_energy_resummed``  the Poisson-dual series, rapid at low T;
                                see the note on extended precision below.
* ``internal_energy_from_F``    numerical d(beta F)/d beta, one Richardson
                                central difference of the kernel in beta.

The derivative route differences beta F(b) = -S(2 pi n a/b)/(8 pi a^2),
so it checks the hand-derived S' behind internal_energy against the S of
free_energy (which free_energy_quad checks), on the sum picked once from
the centre naT.  The direct side differences only S - zeta(3): zeta(3),
the beta-independent m = 0 term, would only inject noise.  On the dual
side pi^4/(45u) is linear in b, so the difference takes it exactly.

Extended precision: the resummed series is an exact rearrangement in which
a closed polynomial part (the low-temperature expansion) cancels against an
exponentially convergent remainder sum.  At naT of a few, the result is
smaller than the individual pieces by a factor e^(-4 pi naT), far below
double-precision resolution of the pieces, so this check route evaluates
in the standard library's decimal module, with a working precision scaled
to the cancellation plus 10 guard digits, and rounds the final value to
float.  pi (Machin's formula) and zeta(3) (its central binomial series)
are computed at that precision and cached per precision; the terms need
one exp per call.  Its error estimate is the working precision left after
the cancellation, plus the series tail and the rounding to float.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .engine import ROUNDING, UNDERFLOW, DEFAULT_TOL, Accumulator, EnergyValue
from .engine import Tolerance, _left_sum, adaptive_quad, finite_diff, nested_sum, sum_series
from .specfun import riemann_zeta

__all__ = [
    "CavityConfig",
    "free_energy",
    "free_energy_quad",
    "free_energy_lowT",
    "internal_energy",
    "internal_energy_direct",
    "internal_energy_resummed",
    "internal_energy_from_F",
    "internal_energy_lowT",
    "internal_energy_highT_asymptote",
    "pressure",
    "pressure_quad",
]

# naT threshold separating the geometric regimes of the direct and dual
# sums of the S kernel behind F, U and P.
ROUTE_SPLIT_NAT = 0.3

# Below this naT the thermal parts of F, U and P, at most 28 (naT)^3 of
# their T = 0 values, are below rounding, so all three return the T = 0
# closed forms.  The kernel's S'(u) ~ -pi^4/(45 u^2) and U's prefactor
# T^2 leave the double range near naT = 1e-154 (a = n = 1).
T0_LIMIT_NAT = 1e-6

_ZETA3 = riemann_zeta(3.0)


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
    m = 0 term at half weight and full precision, the terms m >= 1 on
    engine.nested_sum; the error estimate sums the series tail bound and
    every quadrature's estimate."""
    quad_rel = min(tol.rel, 1e-12)

    def term(m: int, floor: float) -> EnergyValue:
        x = 2.0 * math.pi * m * cfg.T * cfg.n
        quad_tol = Tolerance(rel=quad_rel, abs=floor)
        return adaptive_quad(lambda k: kernel(k, cfg.a), x, math.inf, quad_tol)

    acc = Accumulator()
    half_m0 = 0.5 * acc.take(term(0, 0.0))
    series = acc.take(nested_sum(term, tol))
    pref = cfg.T / math.pi
    value = pref * (half_m0 + series)
    return EnergyValue(value, pref * acc.err_estimate, "quadrature", acc.converged, acc.evaluations)


def free_energy_quad(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Free energy by one quadrature of I per Matsubara term; T > 0.  The
    check route for free_energy."""
    if not cfg.T > 0:
        raise ValueError("free_energy_quad requires T > 0")
    return _matsubara_series(cfg, _log_kernel, tol)


def pressure_quad(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Pressure by one quadrature of -dI/da per Matsubara term; T > 0.  The
    check route for pressure."""
    if not cfg.T > 0:
        raise ValueError("pressure_quad requires T > 0")
    return _matsubara_series(cfg, _da_kernel, tol)


class _Kernel(NamedTuple):
    """S(u), S'(u) and their error estimates (see the module docstring),
    with the tag of the route that summed them and the log of a bound on
    the part of |S'| past the first underflowed hyperbolic term (-inf if
    none), which err_ds leaves out: U scales it by its prefactor in logs."""

    s: float
    ds: float
    err_s: float
    err_ds: float
    converged: bool
    method: str
    log_rest_ds: float


def _hyperbolic_tails(u: float, max_iter: int) -> tuple:
    """The exponentially small parts of S(u) and S'(u) = -2u D(u),

        R(u) = sum_j j^-3 [coth(ju) - 1 + ju/sinh^2(ju)],
        D(u) = sum_j coth(ju)/(j sinh^2(ju)),

    for u >~ 1.  Every term ratio of either sum is at most r = e^(-2u),
    so t r/(1 - r) bounds the tail after a term t; the sums stop once
    that bound is below rounding, or at the first term whose e^(-2x),
    x = ju, underflows.  Past that term R and 2u D are at most
    (2 + 4x) e^(-2x)/(1 - r) and 8u e^(-2x)/(1 - r), to 1 + O(e^(-2x)).
    Returns (R, D, err_R, err_D, converged, log_rest): each error adds
    UNDERFLOW per term summed, all that is left once the terms are
    subnormal (u >~ 354); err_R holds R's part past an underflowed term,
    and log_rest is the log of 2u D's (-inf if none)."""
    r = math.exp(-2.0 * u)
    big_r = d = 0.0
    summed, log_rest = 0, -math.inf
    for j in range(1, max_iter + 1):
        x = j * u
        q = math.exp(-2.0 * x)
        if q == 0.0:  # this term and all later ones underflow
            tail_r = math.exp(math.log(2.0 + 4.0 * x) - 2.0 * x) / (1.0 - r)
            tail_d, ok = 0.0, True
            log_rest = math.log(8.0 * u / (1.0 - r)) - 2.0 * x
            break
        one_minus = -math.expm1(-2.0 * x)
        t_r = (2.0 * q + 4.0 * x * q / one_minus) / (one_minus * j**3)
        t_d = 4.0 * q * (1.0 + q) / (one_minus**3 * j)
        big_r += t_r
        d += t_d
        summed = j
        tail_r, tail_d = t_r * r / (1.0 - r), t_d * r / (1.0 - r)
        ok = tail_r <= ROUNDING * big_r and tail_d <= ROUNDING * d
        if ok:
            break
    floor = UNDERFLOW * summed
    return big_r, d, tail_r + floor, tail_d + floor, ok, log_rest


def _kernel_direct(u: float, max_iter: int) -> _Kernel:
    """S and S' summed directly: S = zeta(3) + R(u), S' = -2u D(u)."""
    big_r, d, tail_r, tail_d, ok, log_rest = _hyperbolic_tails(u, max_iter)
    s = _ZETA3 + big_r
    ds = -2.0 * u * d
    err_s = tail_r + ROUNDING * s
    err_ds = 2.0 * u * tail_d + ROUNDING * abs(ds)
    return _Kernel(s, ds, err_s, err_ds, ok, "direct_sum", log_rest)


def _kernel_dual(u: float, max_iter: int) -> _Kernel:
    """S and S' from the exact dual at v = pi^2/u."""
    v = math.pi**2 / u
    big_r, d, tail_r, tail_d, ok, log_rest = _hyperbolic_tails(v, max_iter)
    s_v = _ZETA3 + big_r
    pieces = (math.pi**4 / (45.0 * u), -(u**3) / 45.0, (u / math.pi) ** 2 * s_v)
    # 0 once u*u underflows (u <~ 1e-162): S' is out of range there, and
    # only S is read below T0_LIMIT_NAT
    den = 45.0 * u * u
    d_pieces = (
        -(math.pi**4) / den if den else -math.inf,
        -u * u / 15.0,
        2.0 * u / math.pi**2 * s_v,
        2.0 * v * d,  # -S'(v)
    )
    err_s = (u / math.pi) ** 2 * tail_r + ROUNDING * _left_sum(map(abs, pieces))
    err_ds = 2.0 * u / math.pi**2 * tail_r + 2.0 * v * tail_d + ROUNDING * _left_sum(map(abs, d_pieces))
    return _Kernel(_left_sum(pieces), _left_sum(d_pieces), err_s, err_ds, ok, "poisson_resummed", log_rest)


def _thermal_kernel(cfg: CavityConfig, tol: Tolerance) -> _Kernel:
    """S and S' at u = 2 pi naT by the route that converges there."""
    u = 2.0 * math.pi * cfg.naT
    if cfg.naT >= ROUTE_SPLIT_NAT:
        return _kernel_direct(u, tol.max_iter)
    return _kernel_dual(u, tol.max_iter)


def _closed_form_T0(cfg: CavityConfig, c: float, k: int) -> EnergyValue:
    """-pi^2/(c n a^k), the T = 0 limit of F (c = 720, k = 3) and of P
    (c = 240, k = 4).  Its error estimate counts roundings, first order in
    u = eps/2: the representation error of math.pi (3.9e-17 < 0.36 u)
    twice in pi**2, and its rounding; c n, a**k (pow, within 1 ulp: 2 u),
    their product and the quotient round once each: 6.7 u in all."""
    value = -math.pi**2 / (c * cfg.n * cfg.a**k)
    return EnergyValue(value, 6.7 * 0.5 * sys.float_info.epsilon * abs(value), "closed_form")


def free_energy(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Free energy per unit area, F = -T/(8 pi a^2) S(u); below
    T0_LIMIT_NAT, T = 0 included, the closed form F(0) = -pi^2/(720 n a^3)."""
    if cfg.naT < T0_LIMIT_NAT:
        return _closed_form_T0(cfg, 720.0, 3)
    k = _thermal_kernel(cfg, tol)
    pref = cfg.T / (8.0 * math.pi * cfg.a**2)
    value = -pref * k.s
    return EnergyValue(value, pref * k.err_s + ROUNDING * abs(value), k.method, k.converged)


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

    series = sum_series(term, tol)
    pref = -math.pi * cfg.n**2 * cfg.T**3
    value = pref * series.value
    # the rounding of x1, amplified by |d ln U/d ln x1| <= 3 + 2 x1, and
    # of the prefactor
    err = abs(pref) * series.err_estimate + ROUNDING * (4.0 + 2.0 * x1) * abs(value)
    return EnergyValue(value, err, "direct_sum", series.converged, series.evaluations)


@functools.lru_cache(maxsize=64)
def _decimal_pi(prec: int):
    """pi as a Decimal rounded to prec digits, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers scaled by 10^(prec + 10);
    the truncation of each term costs one unit, far inside the 10 guard
    digits."""
    import decimal

    scale = 10 ** (prec + 10)

    def atan_inv(k: int) -> int:  # atan(1/k) = sum_j (-1)^j / ((2j + 1) k^(2j + 1))
        total, power, j = 0, scale // k, 0
        while power:
            total += (-1) ** j * (power // (2 * j + 1))
            power //= k * k
            j += 1
        return total

    digits = 16 * atan_inv(5) - 4 * atan_inv(239)
    return decimal.Context(prec=prec).create_decimal(digits).scaleb(-(prec + 10))


@functools.lru_cache(maxsize=64)
def _decimal_zeta3(prec: int):
    """zeta(3) as a Decimal rounded to prec digits, from the central
    binomial series zeta(3) = (5/2) sum_k (-1)^(k+1) / (k^3 C(2k, k)),
    whose terms fall like 4^-k; integers scaled as in _decimal_pi."""
    import decimal

    scale = 10 ** (prec + 10)
    total, k, binom = 0, 1, 2  # binom = C(2k, k)
    while True:
        term = scale // (k**3 * binom)
        if not term:
            break
        total += term if k % 2 else -term
        binom = binom * (2 * k + 2) * (2 * k + 1) // ((k + 1) * (k + 1))
        k += 1
    return decimal.Context(prec=prec).create_decimal(5 * total // 2).scaleb(-(prec + 10))


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

    import decimal  # only this route needs it; keeps `import casimir` light

    # A private context, entered for the whole sum: every operator,
    # unary minus and abs() included, rounds to dps digits, never to the
    # thread's 28-digit default.  The exponent range is the widest, so
    # e^(-2cm) underflows to an exact 0 only where it is negligible.
    ctx = decimal.Context(prec=dps, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        pi, zeta3 = _decimal_pi(dps), _decimal_zeta3(dps)
        a, T, n = decimal.Decimal(cfg.a), decimal.Decimal(cfg.T), decimal.Decimal(cfg.n)
        nat = n * a * T
        poly = -(pi**2 / (720 * n * a**3)) * (1 - 720 * (nat / pi) ** 3 * zeta3 + 48 * nat**4)
        cc = pi / (2 * nat)
        # p = e^(-2x) at x = cc m by a running product with q = e^(-2 cc):
        # one exp per call, and after m factors p carries about 2m
        # roundings, log10(2 m_needed) <= 4 of the 10 guard digits at naT <= 30
        q = (-2 * cc).exp()
        p = decimal.Decimal(1)
        remainder = decimal.Decimal(0)
        floor = decimal.Decimal(1).scaleb(3 - dps)
        for m in range(1, min(m_needed, tol.max_iter) + 1):
            x = cc * m
            p *= q
            w = 1 / (1 - p)  # coth x = (1 + p) w, 1/sinh^2 x = 4 p w^2
            xw = x * w
            # R(x) = x (coth x - 1) + (x^2/sinh^2 x)(1 + x coth x)
            r = 2 * x * p * w * (1 + 2 * xw * (1 + xw * (1 + p))) / m**4
            remainder += r
            if r < floor * (1 + abs(remainder)):
                break
        pref = 2 * pi * n**2 * T**3 * (nat / pi**3)
        value = float(poly + pref * remainder)
        # Each piece carries a few dozen roundings of 10^(1 - dps) per term,
        # bounded by m 10^(4 - dps) of the pieces before they cancel; R
        # decreases, so the terms after m sum to less than m r_m / 3.
        scale = abs(poly) + abs(pref) * (1 + remainder)
        work = scale * m * decimal.Decimal(1).scaleb(4 - dps) + abs(pref) * r * m / 3
    err = float(work) + ROUNDING * abs(value) + UNDERFLOW
    return EnergyValue(value, err, "poisson_resummed", converged)


def internal_energy_from_F(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Internal energy as d(beta F)/d beta by one engine.finite_diff of
    the kernel (see the module docstring).  Each value of beta F carries
    the kernel's error and the rounding of b and of u(b), each worth about
    ROUNDING beta |U|; their weights sum to 3/h in the difference."""
    if not cfg.T > 0:
        raise ValueError("internal_energy_from_F requires T > 0")
    beta, u = 1.0 / cfg.T, 2.0 * math.pi * cfg.naT
    c = 2.0 * math.pi * cfg.n * cfg.a  # u(b) = c/b
    pref = 1.0 / (8.0 * math.pi * cfg.a**2)
    # S - zeta(3) on the direct side, S on the dual side
    kernel = _hyperbolic_tails if cfg.naT >= ROUTE_SPLIT_NAT else _kernel_dual
    kernel_err, converged = 0.0, True

    def beta_f(b: float) -> float:
        nonlocal kernel_err, converged
        s, _, err, _, ok = kernel(c / b, tol.max_iter)[:5]
        kernel_err, converged = max(kernel_err, err), converged and ok
        return -pref * s

    # beta F varies on the scale beta/(1 + 2u) in b (like e^(-2u) on the
    # direct side); at this h its h^4 truncation, ~(2u h/beta)^4/480, is
    # below 5e-13 relative, near the rounding term 3 ROUNDING beta/h
    h = 4e-3 * beta / (1.0 + 2.0 * u)
    # h is subnormal from T ~ 1e152 on: fail with the OverflowError that
    # internal_energy raises from T = 1.3e154 on (T**2)
    if h < sys.float_info.min:
        raise OverflowError(f"the step in beta underflows at T = {cfg.T}")
    res = finite_diff(beta_f, beta, h)
    size = abs(res.value)
    err = res.err_estimate + 3.0 / h * (pref * kernel_err + ROUNDING * beta * size)
    return EnergyValue(res.value, err + ROUNDING * size, res.method, converged, res.evaluations)


def internal_energy(cfg: CavityConfig, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Internal energy U = u T S'(u)/(8 pi a^2) = n T^2 S'(u)/(4a), from
    the kernel of free_energy and pressure; below T0_LIMIT_NAT, T = 0
    included, the closed form U(0) = F(0) of free_energy."""
    if cfg.naT < T0_LIMIT_NAT:
        return free_energy(cfg, tol)
    pref = cfg.n * cfg.T**2 / (4.0 * cfg.a)  # T**2 raises OverflowError, not inf * 0
    k = _thermal_kernel(cfg, tol)
    u = 2.0 * math.pi * cfg.naT
    value = pref * k.ds
    # S' past an underflowed term times pref, formed in logs: the bare bound
    # is 0 or subnormal where pref * 8u can be past the double range
    rest = math.exp(math.log(pref) + k.log_rest_ds)
    # the rounding of u, amplified by |d ln U/d ln u| <= 2 + 2u, and of
    # the prefactor; UNDERFLOW once U itself is subnormal
    err = pref * k.err_ds + rest + ROUNDING * (3.0 + 2.0 * u) * abs(value) + UNDERFLOW
    return EnergyValue(value, err, k.method, k.converged)


def internal_energy_lowT(cfg: CavityConfig) -> EnergyValue:
    """Low-temperature expansion
    U = -pi^2/(720 n a^3) [1 - 720 (naT/pi)^3 zeta(3) + 48 (naT)^4].

    Valid for naT < 0.5; outside that range the value is still returned
    but flagged (converged=False)."""
    naT = cfg.naT
    value = (
        -(math.pi**2)
        / (720.0 * cfg.n * cfg.a**3)
        * (1.0 - 720.0 * (naT / math.pi) ** 3 * _ZETA3 + 48.0 * naT**4)
    )
    return EnergyValue(value, abs(value) * naT**5, "low_T_expansion", naT < 0.5)


def free_energy_lowT(cfg: CavityConfig) -> EnergyValue:
    """Low-temperature expansion
    F = -pi^2/(720 n a^3) [1 + 360 (naT/pi)^3 zeta(3) - (2 naT)^4],
    with the same naT < 0.5 validity guard as internal_energy_lowT."""
    naT = cfg.naT
    value = (
        -(math.pi**2)
        / (720.0 * cfg.n * cfg.a**3)
        * (1.0 + 360.0 * (naT / math.pi) ** 3 * _ZETA3 - (2.0 * naT) ** 4)
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
    """Pressure P = -dF/da = -T/(8 pi a^3) (2S - u S') (both parts have
    the sign of P, so nothing cancels); below T0_LIMIT_NAT, T = 0
    included, the closed form -pi^2/(240 n a^4)."""
    if cfg.naT < T0_LIMIT_NAT:
        return _closed_form_T0(cfg, 240.0, 4)
    k = _thermal_kernel(cfg, tol)
    u = 2.0 * math.pi * cfg.naT
    pref = cfg.T / (8.0 * math.pi * cfg.a**3)
    value = -pref * (2.0 * k.s - u * k.ds)
    err = pref * (2.0 * k.err_s + u * k.err_ds) + ROUNDING * abs(value)
    return EnergyValue(value, err, k.method, k.converged)
