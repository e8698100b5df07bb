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

``cutoff_mode_energy`` evaluates the raw vacuum-mode sum

    W = (1/n) sum_m int d^(d-1)k/(2 pi)^(d-1) sqrt(k^2 + pi^2 m^2/a^2)

under an exponential regulator e^(-lambda k_total); the value diverges
like lambda^(-D) and is always reported together with lambda and a
lambda-halving scan.  ``dispersive_hyper_energy`` replaces the constant
1/n by 1/n(k) with n(k) the photon-branch index from the mode condition
n(omega) omega = k, a closed form (see casimir.dispersion).  n(k) jumps
across the polariton gap at k = omega0, so there each mode integral is
split in two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .engine import Tolerance, DEFAULT_TOL, adaptive_quad, sum_series, finite_diff
from .specfun import DimensionD, riemann_zeta, hurwitz_zeta, solid_angle
from .matsubara import EnergyValue
from .dispersion import LorentzModel, _photon_jump, photon_index

__all__ = [
    "HyperConfig",
    "DensityProfile",
    "CutoffEnergyResult",
    "pressure_quadrature",
    "pressure_closed",
    "density_profile",
    "pressure_from_w1",
    "cutoff_mode_energy",
    "dispersive_hyper_energy",
]


@dataclass(frozen=True)
class HyperConfig:
    """Spacetime dimension (int or DimensionD), finite separation a and
    index n; temperature is fixed at zero."""

    dim: DimensionD
    a: float = 1.0
    n: float = 1.0

    def __post_init__(self):
        if not isinstance(self.dim, DimensionD):
            object.__setattr__(self, "dim", DimensionD(self.dim))
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"separation a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.n) and self.n >= 1):
            raise ValueError(f"refractive index n must be finite and >= 1, got {self.n}")

    @property
    def D(self) -> int:
        return self.dim.D

    @property
    def d(self) -> int:
        return self.dim.d


def _pressure_prefactor(cfg: HyperConfig) -> float:
    d = cfg.d
    return -2.0 * (cfg.D - 2) * solid_angle(d - 1) / (2.0 * math.pi) ** d


def pressure_quadrature(
    cfg: HyperConfig, tol: Tolerance = DEFAULT_TOL, route: str = "polar"
) -> EnergyValue:
    """Pressure on a wall by numerical integration.

    route="polar" integrates the angular factor and the radial Bose-type
    integral separately; route="cartesian" does the nested (zeta, k)
    double integral as written.  Both must match pressure_closed.
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
        return EnergyValue(value, err, "quadrature", ang.converged and rad.converged)
    if route == "cartesian":
        n2 = cfg.n**2
        inner_tol = Tolerance(rel=min(tol.rel * 1e-2, 1e-12), abs=0.0, max_iter=tol.max_iter)
        state = {"ok": True}

        def inner(zeta: float) -> float:
            def f(k: float) -> float:
                kappa = math.sqrt(k * k + n2 * zeta * zeta)
                arg = 2.0 * kappa * cfg.a
                if arg > 690.0:
                    return 0.0
                return kappa * k ** (d - 2) / math.expm1(arg)

            res = adaptive_quad(f, 0.0, math.inf, inner_tol)
            state["ok"] &= res.converged
            return res.value

        outer = adaptive_quad(inner, 0.0, math.inf, tol)
        return EnergyValue(
            pref * outer.value,
            abs(pref) * outer.err_estimate,
            "quadrature",
            outer.converged and state["ok"],
        )
    raise ValueError(f"unknown route {route!r}")


def pressure_closed(cfg: HyperConfig) -> EnergyValue:
    """Closed-form pressure (D-1) w1, no regularization needed."""
    value = (cfg.D - 1) * _w1(cfg)
    # the Gamma ratio rounds twice per factor, about D/2 factors
    err = abs(value) * max(1e-14, cfg.D * sys.float_info.epsilon)
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
    engine.finite_diff.  Both equal pressure_closed."""
    ident = EnergyValue((cfg.D - 1) * _w1(cfg), abs(_w1(cfg)) * 1e-14, "closed_form")

    def a_w1(a: float) -> float:
        return a * _w1(HyperConfig(dim=cfg.dim, a=a, n=cfg.n))

    # a w1 is a^(1-D) times a constant: at h = 1e-4 a the h^4 truncation
    # (~D^4 h^4 / 480) sits below the rounding noise (~eps/h)
    res = finite_diff(a_w1, cfg.a, cfg.a * 1.0e-4)
    fd = -res.value
    return ident, EnergyValue(fd, res.err_estimate + abs(fd) * 1e-12, "finite_difference")


@dataclass(frozen=True)
class CutoffEnergyResult:
    """Regulated mode-sum energy with its lambda-halving divergence scan
    ((lambda, value), (lambda/2, value), (lambda/4, value))."""

    value: EnergyValue
    scan: tuple[tuple[float, float], ...]


def _mode_sum(
    cfg: HyperConfig, lam: float, tol: Tolerance, n_of_k, _split: float = math.inf
) -> EnergyValue:
    # sum over m of A_d * int_q^inf (E^2-q^2)^((d-3)/2) E^2 e^(-lam E) / n(E) dE,
    # q = pi m / a, after substituting E = sqrt(k^2 + q^2).  It runs over t in
    # (0, 1) with E = q + t/(1-t), adaptive_quad's map of (q, inf), split at the
    # t of _split (where n(E) may jump) so that both pieces keep nodes near q.
    d = cfg.d
    a_d = solid_angle(d - 1) / (2.0 * math.pi) ** (d - 1)
    quad_tol = Tolerance(rel=min(tol.rel, 1e-11), abs=0.0, max_iter=tol.max_iter)
    power = 0.5 * (d - 3)
    state = {"err": 0.0, "ok": True}

    def term(m: int) -> float:
        q = math.pi * m / cfg.a

        def g(t: float) -> float:
            u = 1.0 - t
            if u == 0.0:  # a node of a panel next to t = 1 rounded onto E = inf
                return 0.0
            e = q + t / u
            base = (e * e - q * q) ** power if power != 0.0 else 1.0
            return base * e * e * math.exp(-lam * e) / n_of_k(e) / (u * u)

        t_split = (_split - q) / (1.0 + _split - q) if q < _split < math.inf else 0.0
        edges = (0.0, t_split, 1.0) if 0.0 < t_split < 1.0 else (0.0, 1.0)
        pieces = [adaptive_quad(g, lo, hi, quad_tol) for lo, hi in zip(edges, edges[1:])]
        state["err"] += sum(p.err_estimate for p in pieces)
        state["ok"] &= all(p.converged for p in pieces)
        return sum(p.value for p in pieces)

    series = sum_series(term, start=1, tol=tol)
    return EnergyValue(
        a_d * series.value,
        a_d * (series.err_estimate + state["err"]),
        "quadrature",
        series.converged and state["ok"],
    )


def cutoff_mode_energy(
    cfg: HyperConfig, lam: float, tol: Tolerance = DEFAULT_TOL
) -> CutoffEnergyResult:
    """Exponentially regulated vacuum-mode energy; medium enters only
    through the overall 1/n.  The scan reports the value at lambda,
    lambda/2 and lambda/4 (the ~lambda^(-D) growth is the divergence
    witness)."""
    if not lam > 0:
        raise ValueError(f"cutoff lambda must be > 0, got {lam}")
    values = []
    for scale in (1.0, 0.5, 0.25):
        res = _mode_sum(cfg, lam * scale, tol, lambda e: cfg.n)
        values.append((lam * scale, res))
    head = values[0][1]
    return CutoffEnergyResult(head, tuple((l, r.value) for l, r in values))


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
    if not lam > 0:
        raise ValueError(f"cutoff lambda must be > 0, got {lam}")
    if cfg.n != 1.0:
        raise ValueError("dispersive_hyper_energy models the medium via n(k); set n = 1")
    return _mode_sum(cfg, lam, tol, lambda k: photon_index(model, k), _photon_jump(model))
