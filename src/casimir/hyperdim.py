"""Casimir pressure and local energy density between two hyperplanes in D
spacetime dimensions (d = D - 1 spatial), medium of constant index n,
zero temperature.

The (D-2) field polarizations give the pressure as a double integral over
imaginary frequency and transverse momentum,

    P = -(2(D-2)/(2 pi)^d) Omega_{d-2}
        int_0^inf dzeta int_0^inf kappa k^(d-2) dk / (e^(2 kappa a) - 1),

which polar coordinates in the (k, n zeta) plane reduce to the product

    (1/n) int_0^(pi/2) cos^(d-2)theta dtheta
          int_0^inf kappa^d dkappa / (e^(2 kappa a) - 1),

and which has the closed form

    P = -((D-2)(D-1)/n) Gamma(D/2) zeta(D) / ((4 pi)^(D/2) a^D).

The local energy density splits as w = w1 + w2: a uniform part w1 with
P = (D-1) w1 = -d(a w1)/da, and a position-dependent part

    w2(z/a) propto (D/2 - 2) [zeta_H(D, z/a) + zeta_H(D, 1 - z/a)]

that vanishes identically at D = 4, diverges like (z/a)^(-D) at the
walls for D > 4, and in physical variables is independent of the plate
separation, so it never contributes to the force.  The medium enters all
of these densities only through an overall 1/n (replace c by c/n).

``mode_energy`` evaluates the raw vacuum-mode sum

    W = (1/n) sum_m int d^(d-1)k/(2 pi)^(d-1) sqrt(k^2 + pi^2 m^2/a^2)

under an exponential regulator e^(-lambda k_total) at one lambda; the
value diverges like lambda^(-D) and is always reported together with
lambda.  ``cutoff_mode_energy`` is its lambda-halving scan (lambda,
lambda/2, lambda/4), the divergence witness; a caller that reads one
lambda calls ``mode_energy`` alone.  ``dispersive_hyper_energy``
replaces the constant 1/n by 1/n(k) with n(k) the photon-branch index
from the mode condition n(omega) omega = k, a closed form (see
casimir.dispersion).  n(k) jumps across the polariton gap at
k = omega0, so there each mode integral is split in two.  Every cutoff
must be finite: at lambda = inf the sum would be 0 for any geometry.

Every constant-index integral here is int_0^inf k^(d-2) E w(z E/q) dk,
E = sqrt(k^2 + q^2), on engine.cosh_quad with j = d - 2, p = 1: the map
k = q sinh s, as q^d int_0^s1 sinh^(d-2)s cosh^2 s w(z cosh s) ds, an
integrand analytic at every D (on the map t/(1-t) of E, a mode integral's
weight (E^2 - q^2)^((D-4)/2) is singular at E = q for D = 3).  The vacuum
mode sum sums over the modes first: each mode m has q = pi m/a and
z = lambda q with the weight e^(-u), so on the common variable s

    sum_m (pi m/a)^d e^(-m t cosh s) = (pi/a)^d Li_(-d)(e^(-t cosh s)),

t = lambda pi/a, and Li_(-d)(y) = y A_d(y)/(1 - y)^(d+1), A_d the Eulerian
polynomial: mode_energy is one cosh_quad (q = pi/a, z = t, weight d) of
105-225 evaluations at D = 3..12, to about 1e-15 relative.  The per-mode
sum stays as the check route _mode_energy_per_mode (the crosscheck rows
mode_energy=per_mode_sum@D=...), on engine.nested_sum, which stops each
mode at an absolute floor scaled to the largest mode so far.  The inner k
integral of the cartesian pressure route is the same integral with
q = n zeta, z = 2 a q and the Bose weight (k = 0), under
engine.nested_quad, which scales each inner floor to the largest outer node.
The range ends at z cosh s1 = z + M, M = 39.8 at D = 3 up to 62.5 at
D = 12, where a bound on the dropped tail, from the log-concavity of the
integrand past the cut, is at most 0.2505 of the rounding floor; that
bound and a count of the roundings are part of err_estimate.  The factor
e^(-z) is applied once, to the scale, so the cut is the same past
z = 708, where every value of w is subnormal.  Where
the mode sum or the Eulerian numbers leave the double range (D >= 95 at
lambda/a = 0.1, D >= 173 at any lambda) mode_energy raises one
OverflowError that names D and lambda, whichever float operation
overflowed first.  Only the dispersive sum
with eps_bar > 1 keeps one E-map integral per mode, split at the jump of
n(k) at omega0, also on engine.nested_sum, so at D = 3 it still raises
ZeroDivisionError (the benchmark's reference, perfbench/oracle.py, has no
D = 3 dispersive form and would fail on a D = 3 value).  With eps_bar = 1,
n(k) = 1 has no jump and the dispersive sum is the vacuum one, bit for
bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .engine import DEFAULT_TOL, Accumulator, EnergyValue, Tolerance
from .engine import adaptive_quad, cosh_quad, finite_diff, nested_quad, nested_sum
from .specfun import riemann_zeta, hurwitz_zeta, solid_angle
from .dispersion import CutoffEnergyResult, LorentzModel, _photon_jump, photon_index

__all__ = [
    "HyperConfig",
    "DensityProfile",
    "pressure_quadrature",
    "pressure_closed",
    "density_profile",
    "pressure_from_w1",
    "mode_energy",
    "cutoff_mode_energy",
    "dispersive_hyper_energy",
]


@dataclass(frozen=True)
class HyperConfig:
    """Spacetime dimension dim = D >= 3 (an int; d = D - 1 spatial
    dimensions), finite separation a and index n; temperature is fixed at
    zero."""

    dim: int
    a: float = 1.0
    n: float = 1.0

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ValueError(f"spacetime dimension must be an integer, got {self.dim!r}")
        if self.dim < 3:
            raise ValueError(f"spacetime dimension must be >= 3, got {self.dim}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"separation a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.n) and self.n >= 1):
            raise ValueError(f"refractive index n must be finite and >= 1, got {self.n}")

    @property
    def D(self) -> int:
        return self.dim

    @property
    def d(self) -> int:
        return self.dim - 1


def _pressure_prefactor(cfg: HyperConfig) -> float:
    d = cfg.d
    return -2.0 * (cfg.D - 2) * solid_angle(d - 1) / (2.0 * math.pi) ** d


def pressure_quadrature(
    cfg: HyperConfig, tol: Tolerance = DEFAULT_TOL, route: str = "polar"
) -> EnergyValue:
    """Pressure on a wall by numerical integration.

    route="polar" integrates the angular factor and the radial Bose-type
    integral separately; route="cartesian" does the nested (zeta, k) double
    integral as written, k on the map k = n zeta sinh s, on
    engine.nested_quad, which solves each inner integral only to the floor
    that its outer weight needs and adds the largest weighted inner error
    to the outer one.  tol applies to the integral before the prefactor.
    Both must match pressure_closed.
    """
    d = cfg.d
    pref = _pressure_prefactor(cfg)
    if route == "polar":
        ang = adaptive_quad(lambda t: math.cos(t) ** (d - 2), 0.0, 0.5 * math.pi, tol)
        rad = adaptive_quad(
            lambda k: k**d / math.expm1(2.0 * k * cfg.a) if 2.0 * k * cfg.a < 690.0 else 0.0,
            0.0,
            math.inf,
            tol,
        )
        value = pref / cfg.n * ang.value * rad.value
        err = abs(pref / cfg.n) * (
            abs(ang.value) * rad.err_estimate + abs(rad.value) * ang.err_estimate
        )
        converged, evaluations = ang.converged and rad.converged, ang.evaluations + rad.evaluations
        return EnergyValue(value, err, "quadrature", converged, evaluations)
    if route == "cartesian":
        inner_rel = min(tol.rel * 1e-2, 1e-12)

        def inner(zeta: float, floor: float) -> EnergyValue:
            c = cfg.n * zeta
            inner_tol = Tolerance(rel=inner_rel, abs=floor)
            return cosh_quad(d - 2, 1, c, 2.0 * cfg.a * c, 0, inner_tol)

        res = nested_quad(inner, 0.0, math.inf, tol)
        err = abs(pref) * res.err_estimate
        return EnergyValue(pref * res.value, err, "quadrature", res.converged, res.evaluations)
    raise ValueError(f"unknown route {route!r}")


def pressure_closed(cfg: HyperConfig) -> EnergyValue:
    """Closed-form pressure (D-1) w1, no regularization needed.

    Its error estimate counts roundings, first order in u = eps/2:
    _density_scale's (D-1)//2 recurrence steps round twice each and carry
    the representation error of math.pi (3.9e-17 < u/2), as does the start
    1/(4 pi); the factor D-2, a**D (pow, within 1 ulp), n a^D and the
    quotient round 5 times; riemann_zeta(D) about 6 times (its pow terms,
    its small-to-large sum, at most u zeta(D-1) <= 1.7 u, its final sum and
    its truncation, below 1e-16); the products by zeta(D) and D-1 twice.
    """
    value = (cfg.D - 1) * _w1(cfg)
    steps = (cfg.D - 1) // 2
    err = abs(value) * (2.5 * steps + 14.5) * (0.5 * sys.float_info.epsilon)
    return EnergyValue(value, err, "closed_form")


def _density_scale(cfg: HyperConfig) -> float:
    # -(D-2) Gamma(D/2) / ((4 pi)^(D/2) n a^D), the factor shared by w1 and w2.
    # Gamma(x)/(4 pi)^x by the recurrence R(x) = (x - 1)/(4 pi) R(x - 1) from
    # R(1/2) = 1/2 or R(1) = 1/(4 pi): it stays finite where Gamma(D/2) alone
    # overflows (D >= 344).
    D = cfg.D
    x, ratio = (0.5, 0.5) if D % 2 else (1.0, 1.0 / (4.0 * math.pi))
    while x < D / 2.0:
        ratio *= x / (4.0 * math.pi)
        x += 1.0
    return -(D - 2) * ratio / (cfg.n * cfg.a**D)


def _w1(cfg: HyperConfig) -> float:
    return _density_scale(cfg) * riemann_zeta(float(cfg.D))


@dataclass(frozen=True)
class DensityProfile:
    """Energy density across the gap at relative positions u = z/a:
    uniform part w1, anomaly part w2 (zero at D = 4, symmetric in
    u <-> 1-u), and their sum.  The regularized profile is w1 alone."""

    u_grid: tuple[float, ...]
    w1: float
    w2_values: tuple[float, ...]
    total: tuple[float, ...]


def density_profile(cfg: HyperConfig, u_grid) -> DensityProfile:
    """Local energy density w(u) = w1 + w2(u) for u = z/a in (0, 1); D >= 4."""
    D = cfg.D
    if D < 4:
        raise ValueError("density_profile requires D >= 4")
    u_grid = tuple(float(u) for u in u_grid)
    for u in u_grid:
        if not 0.0 < u < 1.0:
            raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    w1 = _w1(cfg)
    coef = D / 2.0 - 2.0
    if coef == 0.0:
        w2 = tuple(0.0 for _ in u_grid)
    else:
        pref = _density_scale(cfg) * coef
        w2 = tuple(
            pref * (hurwitz_zeta(float(D), u) + hurwitz_zeta(float(D), 1.0 - u))
            for u in u_grid
        )
    total = tuple(w1 + x for x in w2)
    return DensityProfile(u_grid=u_grid, w1=w1, w2_values=w2, total=total)


def pressure_from_w1(cfg: HyperConfig) -> tuple[EnergyValue, EnergyValue]:
    """The two density-route pressures: (D-1) w1 and -d(a w1)/da by
    engine.finite_diff.  Both equal pressure_closed; the first is it."""

    zeta = riemann_zeta(float(cfg.D))

    def minus_a_w1(a: float) -> float:
        return -a * (_density_scale(HyperConfig(dim=cfg.dim, a=a, n=cfg.n)) * zeta)

    # a w1 is a^(1-D) times a constant: at h = 1e-4 a the h^4 truncation
    # (~D^4 h^4 / 480) sits below the rounding floor of finite_diff (~eps/h)
    return pressure_closed(cfg), finite_diff(minus_a_w1, cfg.a, cfg.a * 1.0e-4)


def _check_cutoff(lam: float) -> None:
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"cutoff lambda must be > 0 and finite, got {lam}")


def _mode_sum(
    cfg: HyperConfig, lam: float, tol: Tolerance, model: LorentzModel | None = None
) -> EnergyValue:
    # a_d sum over m of int_q^inf (E^2-q^2)^((d-3)/2) E^2 e^(-lam E) / n(E) dE,
    # q = pi m / a.  Without a polariton gap n(E) = 1 (model None, or
    # eps_bar = 1), and the sum over m comes first: on E = q cosh s,
    # sum_m (pi m/a)^d e^(-m t cosh s) = (pi/a)^d Li_(-d)(e^(-t cosh s)),
    # t = lam pi/a, so the whole sum is one cosh_quad with the weight Li_(-d).
    # Across a gap each mode runs over t in (0, 1) with E = q + t/(1-t),
    # adaptive_quad's map of (q, inf), split at the t of omega0 so that both
    # pieces keep nodes near q; both take the floor nested_sum grants the mode.
    # Whatever float operation overflows first (the sum, a power in the
    # integrand, the Eulerian numbers, Gamma(d/2)), the error names D and lambda
    try:
        d = cfg.d
        a_d = solid_angle(d - 1) / (2.0 * math.pi) ** (d - 1)
        quad_tol = Tolerance(rel=min(tol.rel, 1e-11), abs=0.0)
        split = math.inf if model is None else _photon_jump(model)
        if split == math.inf:
            base = math.pi / cfg.a
            ev = cosh_quad(d - 2, 1, base, lam * base, d, quad_tol)
            return EnergyValue(
                a_d * ev.value, a_d * ev.err_estimate, "quadrature", ev.converged, ev.evaluations
            )
        power = 0.5 * (d - 3)

        def term(m: int, floor: float) -> Accumulator:
            q = math.pi * m / cfg.a

            def g(t: float) -> float:
                u = 1.0 - t
                if u == 0.0:  # a node of a panel next to t = 1 rounded onto E = inf
                    return 0.0
                e = q + t / u
                base = (e * e - q * q) ** power if power != 0.0 else 1.0
                return base * e * e * math.exp(-lam * e) / photon_index(model, e) / (u * u)

            t_split = (split - q) / (1.0 + split - q) if q < split else 0.0
            edges = (0.0, t_split, 1.0) if 0.0 < t_split < 1.0 else (0.0, 1.0)
            mode_tol = Tolerance(rel=quad_tol.rel, abs=floor)
            pieces = Accumulator()
            for lo, hi in zip(edges, edges[1:]):
                pieces.take(adaptive_quad(g, lo, hi, mode_tol))
            return pieces

        res = nested_sum(term, tol)
        return EnergyValue(
            a_d * res.value, a_d * res.err_estimate, "quadrature", res.converged, res.evaluations
        )
    except OverflowError as exc:
        raise OverflowError(
            f"the regulated mode sum at D = {cfg.D}, lambda = {lam!r} leaves the double range"
        ) from exc


def _mode_energy_per_mode(
    cfg: HyperConfig, lam: float, tol: Tolerance = DEFAULT_TOL
) -> EnergyValue:
    # The check route of mode_energy: the same sum with the modes summed
    # last, one cosh_quad with the weight e^(-u) per mode inside nested_sum
    d = cfg.d
    a_d = solid_angle(d - 1) / (2.0 * math.pi) ** (d - 1)
    quad_rel = min(tol.rel, 1e-11)

    def term(m: int, floor: float) -> EnergyValue:
        q = math.pi * m / cfg.a
        quad_tol = Tolerance(rel=quad_rel, abs=floor)
        return cosh_quad(d - 2, 1, q, lam * q, "exp", quad_tol)

    res = nested_sum(term, tol)
    value, err = a_d * res.value / cfg.n, a_d * res.err_estimate / cfg.n
    return EnergyValue(value, err, "quadrature", res.converged, res.evaluations)


def mode_energy(cfg: HyperConfig, lam: float, tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Exponentially regulated vacuum-mode energy at a finite cutoff
    lambda > 0; the medium enters only through the overall 1/n.  Raises
    OverflowError, naming D and lambda, where the sum leaves the double
    range."""
    _check_cutoff(lam)
    # 1/n outside the weight: cosh_quad's tail bound is tight for w = Li_(-d)
    # and n times too large for Li_(-d)/n
    ev = _mode_sum(cfg, lam, tol)
    n = cfg.n
    return EnergyValue(ev.value / n, ev.err_estimate / n, ev.method, ev.converged, ev.evaluations)


def cutoff_mode_energy(
    cfg: HyperConfig, lam: float, tol: Tolerance = DEFAULT_TOL
) -> CutoffEnergyResult:
    """mode_energy at lambda with its scan over lambda, lambda/2 and
    lambda/4 (the ~lambda^(-D) growth is the divergence witness)."""
    scan = [(lam * scale, mode_energy(cfg, lam * scale, tol)) for scale in (1.0, 0.5, 0.25)]
    return CutoffEnergyResult(scan[0][1], tuple((l, ev.value) for l, ev in scan))


def dispersive_hyper_energy(
    cfg: HyperConfig,
    model: LorentzModel,
    lam: float,
    tol: Tolerance = DEFAULT_TOL,
) -> EnergyValue:
    """Regulated mode energy with the dispersive photon relation: each
    mode of wavenumber k carries energy k/n(k) with n(k) the photon-branch
    index from n(omega) omega = k, in closed form.  Each mode integral is
    split at k = omega0, where n(k) jumps across the polariton gap.
    Approaches cutoff_mode_energy with n = 1 as the regulator probes only
    wavenumbers far above the resonance."""
    _check_cutoff(lam)
    if cfg.n != 1.0:
        raise ValueError("dispersive_hyper_energy models the medium via n(k); set n = 1")
    return _mode_sum(cfg, lam, tol, model)
