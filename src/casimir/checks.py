"""The route cross-check table that ``casimir crosscheck`` prints.

Every row pairs a production route with an independent route and gives
the pair's tolerance: lhs and rhs are the two values, metric their
deviation (relative unless the row says otherwise), passed metric <= tol.
"""

import math

from .engine import DEFAULT_TOL, Tolerance, finite_diff
from . import matsubara, green_em, dispersion, circuit as circuit_mod, hyperdim
from .matsubara import CavityConfig
from .dispersion import LorentzModel, CutoffSpec
from .hyperdim import HyperConfig
from .specfun import riemann_zeta

__all__ = ["crosscheck"]


def crosscheck(tol: Tolerance = DEFAULT_TOL) -> list[dict]:
    """Every row, in order: check name, lhs, rhs, metric, tol, passed."""
    rows = []

    def check(name: str, lhs: float, rhs: float, tolerance: float, relative=True):
        scale = max(abs(lhs), abs(rhs)) if relative else 1.0
        metric = abs(lhs - rhs) / scale if scale else 0.0
        rows.append(
            {
                "check": name,
                "lhs": lhs,
                "rhs": rhs,
                "metric": metric,
                "tol": tolerance,
                "passed": bool(metric <= tolerance),
            }
        )

    for naT in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0):
        cfg = CavityConfig(a=1.0, T=naT)
        check(
            f"U=U_resummed@naT={naT:g}",
            matsubara.internal_energy(cfg, tol).value,
            matsubara.internal_energy_resummed(cfg, tol).value,
            1e-9,
        )
    # the asymptotic forms where their dropped terms are below rounding
    cfg = CavityConfig(a=1.0, T=0.05)
    check(
        "U=U_lowT@naT=0.05",
        matsubara.internal_energy(cfg, tol).value,
        matsubara.internal_energy_lowT(cfg).value,
        1e-12,
    )
    check(
        "F=F_lowT@naT=0.05",
        matsubara.free_energy(cfg, tol).value,
        matsubara.free_energy_lowT(cfg).value,
        1e-12,
    )
    cfg = CavityConfig(a=1.0, T=5.0)
    check(
        "U=U_highT@naT=5",
        matsubara.internal_energy(cfg, tol).value,
        matsubara.internal_energy_highT_asymptote(cfg).value,
        1e-12,
    )
    for naT in (0.3, 1.0, 2.0):
        cfg = CavityConfig(a=1.0, T=naT)
        check(
            f"U_fromF=U_direct@naT={naT:g}",
            matsubara.internal_energy_from_F(cfg, tol).value,
            matsubara.internal_energy_direct(cfg, tol).value,
            1e-6,
        )
    for naT in (0.3, 1.0, 2.0):
        cfg = CavityConfig(a=1.0, T=naT)
        dF = finite_diff(
            lambda a: matsubara.free_energy(CavityConfig(a=a, T=naT), tol).value, 1.0, 6.0e-6
        )
        check(f"P=-dF/da@naT={naT:g}", -dF.value, matsubara.pressure(cfg, tol).value, 1e-8)
        check(
            f"F_quad=F@naT={naT:g}",
            matsubara.free_energy_quad(cfg, tol).value,
            matsubara.free_energy(cfg, tol).value,
            1e-10,
        )
        check(
            f"P_quad=P@naT={naT:g}",
            matsubara.pressure_quad(cfg, tol).value,
            matsubara.pressure(cfg, tol).value,
            1e-10,
        )
    for naT in (0.3, 1.0, 2.0, 5.0):
        cfg = CavityConfig(a=1.0, T=naT)
        check(
            f"W=U@naT={naT:g}",
            green_em.em_energy_finiteT(cfg, tol).value,
            matsubara.internal_energy(cfg, tol).value,
            1e-10,
        )
    cfg0 = CavityConfig(a=1.0, T=0.0)
    w_quad = green_em.em_energy_T0(cfg0, Tolerance(rel=1e-11, abs=0.0)).value
    check("W_T0_quad=closed", w_quad, matsubara.internal_energy(cfg0, tol).value, 1e-8)
    check("W_T0_polar=quad", green_em.em_energy_T0_polar(cfg0, tol).value, w_quad, 1e-8)
    for k_perp, zeta in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.1)):
        p = green_em.spectral_energy_density(k_perp, zeta, cfg0)
        check(f"E=H@(k={k_perp:g},z={zeta:g})", p.electric_half, p.magnetic_half, 1e-12)
    for D in (4, 5, 6, 7, 8):
        hcfg = HyperConfig(dim=D)
        check(
            f"P_quad=P_closed@D={D}",
            hyperdim.pressure_quadrature(hcfg, Tolerance(rel=1e-11, abs=0.0)).value,
            hyperdim.pressure_closed(hcfg).value,
            1e-8,
        )
    # the D = 4 cavity's pressure at T = 0 against the D-dimensional closed form
    check(
        "P_T0=P_closed@D=4",
        matsubara.pressure(cfg0, tol).value,
        hyperdim.pressure_closed(HyperConfig(dim=4)).value,
        1e-12,
    )
    for D in (4, 5, 6):
        hcfg = HyperConfig(dim=D)
        _, fd = hyperdim.pressure_from_w1(hcfg)
        check(f"-d(a*w1)/da=P@D={D}", fd.value, hyperdim.pressure_closed(hcfg).value, 1e-8)
    model = LorentzModel(eps_bar=2.0, omega0=10.0)
    spec = circuit_mod.CircuitSpec(L=1.0, eps_model=model)
    w_star = circuit_mod.eigenfrequency(spec)
    check("circuit:LJ2=Cphi2", w_star**2 * spec.L * spec.capacitance(w_star), 1.0, 1e-12)
    check(
        "circuit:dC_domega=finite_diff",
        spec.dC_domega(w_star),
        finite_diff(spec.capacitance, w_star, 1e-2 * w_star).value,
        1e-9,
    )
    r3 = circuit_mod.adiabatic_variation_check(spec, 1e-3)
    r4 = circuit_mod.adiabatic_variation_check(spec, 1e-4)
    # |ratio - 1| falls tenfold with delta a: the first-order terms cancel
    check(
        "circuit:first_order_adiabatic",
        abs(r4[0] / r4[1] - 1.0) / abs(r3[0] / r3[1] - 1.0),
        0.0,
        0.12,
        relative=False,
    )
    for k in (1.0, 5.0, 20.0):
        w = dispersion.dispersive_mode_solve(model, k)
        check(
            f"mode_residual@k={k:g}",
            math.sqrt(dispersion.eps_of_omega(model, w)) * w,
            k,
            1e-10,
        )
    stiff = LorentzModel(eps_bar=4.0, omega0=1e4)
    check(
        "w_I(omega0->inf)=static",
        dispersion.w_I_energy(stiff, cfg0, tol).value,
        matsubara.free_energy(CavityConfig(a=1.0, T=0.0, n=2.0), tol).value,
        1e-6,
    )
    check(
        "w_I(omega0=1e5)=static",
        dispersion.w_I_energy(LorentzModel(eps_bar=4.0, omega0=1e5), cfg0, tol).value,
        matsubara.free_energy(CavityConfig(a=1.0, T=0.0, n=2.0), tol).value,
        1e-9,
    )
    # W_II -> -12 (eps_bar - 1) zeta(6) / (pi^2 omega0^2 (2a sqrt(eps_bar))^5) as
    # omega0 -> inf; the relative deviation falls like (a omega0)^-2 (9.3e-11 here)
    stiff = LorentzModel(eps_bar=2.0, omega0=1e5)
    check(
        "W_II(omega0->inf)=closed",
        dispersion.w2_density_cutoff(stiff, cfg0, CutoffSpec(20.0), tol).value.value,
        -12.0 * (stiff.eps_bar - 1.0) * riemann_zeta(6)
        / (math.pi**2 * stiff.omega0**2 * (2.0 * cfg0.a * math.sqrt(stiff.eps_bar)) ** 5),
        1e-9,
    )
    soft = LorentzModel(eps_bar=2.0, omega0=0.2)
    scan = dispersion.w2_density_cutoff(soft, cfg0, CutoffSpec(2.0), tol).scan
    check(
        "W_II_scan_monotone",
        1.0 if abs(scan[0][1]) < abs(scan[1][1]) < abs(scan[2][1]) else 0.0,
        1.0,
        0.0,
        relative=False,
    )
    # the regulated mode sum, summed over modes under one integral, against
    # one integral per mode summed by nested_sum
    for D in (4, 5, 8):
        hcfg = HyperConfig(dim=D)
        check(
            f"mode_energy=per_mode_sum@D={D}",
            hyperdim.mode_energy(hcfg, 0.5, tol).value,
            hyperdim._mode_energy_per_mode(hcfg, 0.5, tol).value,
            1e-12,
        )
    hcfg4 = HyperConfig(dim=4)
    e1, e2 = (hyperdim.mode_energy(hcfg4, lam, tol).value for lam in (0.1, 0.05))
    check("cutoff_exponent~D", math.log2(e2 / e1), 4.0, 0.2 * 4.0, relative=False)
    # n(k) -> sqrt(eps_bar) below omega0: photon_index on the E-map against the cosh map
    disp = hyperdim.dispersive_hyper_energy(hcfg4, LorentzModel(eps_bar=2.0, omega0=1e6), 2.0, tol).value
    vac = hyperdim.mode_energy(HyperConfig(dim=4, n=math.sqrt(2.0)), 2.0, tol).value
    check("dispersive_sum(omega0->inf)=vacuum/sqrt(eps)", disp, vac, 1e-10)
    return rows
