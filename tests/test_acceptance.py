"""Acceptance checklist: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them all).

Criterion 5 was first stated as the bound |U - asym|/|U| <= 2 e^(-4 pi naT)
on the deviation of the full internal energy from the single-exponential
high-temperature form asym = -4 pi n^2 T^3 e^(-4 pi naT).  No correct U can
meet it.  With q = e^(-4 pi naT), each term of the hyperbolic sum expands as
coth x / sinh^2 x = 4q(1+q)/(1-q)^3 at x = 2 pi naT, and summing over m gives

    U / asym = 1 + (9/2) q + (28/3) q^2 + (73/4) q^3 + ...
    dev      = (9/2) q - (131/12) q^2 + (203/8) q^3 + O(q^4),

which at naT = 1 is 1.569e-5, 2.25x the stated 6.975e-6.  Criterion 5
therefore asserts this exact law to second order; see test_criterion_05.
"""

import csv
import io
import json
import math
import random

import pytest

from casimir import checks
from casimir.engine import Tolerance
from casimir.matsubara import (
    CavityConfig,
    internal_energy_direct,
    internal_energy_resummed,
    internal_energy,
    internal_energy_lowT,
    internal_energy_highT_asymptote,
)
from casimir.green_em import spectral_energy_density, em_energy_T0
from casimir.dispersion import LorentzModel, eps_of_omega, dispersive_mode_solve
from casimir.hyperdim import HyperConfig, density_profile, cutoff_mode_energy
from casimir.cli import main as cli_main

PI2_720 = math.pi**2 / 720.0


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def xc():
    """The crosscheck rows by name, for the criteria that are its route pairs;
    each applies its own metric and tolerance to their lhs and rhs."""
    return {row["check"]: row for row in checks.crosscheck()}


def worst_rel(xc, names) -> float:
    """Largest |lhs - rhs| / |rhs| over the named rows."""
    return max(abs(xc[k]["lhs"] - xc[k]["rhs"]) / abs(xc[k]["rhs"]) for k in names)


def test_criterion_01_zero_temperature_energy():
    tol = Tolerance(rel=3e-12, abs=0.0)
    w1 = em_energy_T0(CavityConfig(a=1.0, T=0.0), tol)
    dev = abs(w1.value + PI2_720) / PI2_720
    scale_devs = []
    for n in (2.0, 3.0):
        wn = em_energy_T0(CavityConfig(a=1.0, T=0.0, n=n), tol)
        scale_devs.append(abs(wn.value * n / w1.value - 1.0))
    ok = dev <= 1e-8 and all(s <= 1e-10 for s in scale_devs)
    assert report(
        1, ok, f"W(T=0) vs -pi^2/720: {dev:.2e} (<=1e-8); 1/n scaling: {max(scale_devs):.2e} (<=1e-10)"
    )


def test_criterion_02_route_equivalence_U():
    worst = 0.0
    for naT in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0):
        cfg = CavityConfig(a=1.0, T=naT)
        ud = internal_energy_direct(cfg)
        ur = internal_energy_resummed(cfg)
        worst = max(worst, abs(ud.value - ur.value) / abs(ud.value))
    assert report(2, worst <= 1e-9, f"direct vs resummed worst rel diff {worst:.2e} (<=1e-9)")


def test_criterion_03_thermodynamic_consistency(xc):
    worst = worst_rel(xc, (f"U_fromF=U_direct@naT={naT:g}" for naT in (0.3, 1.0, 2.0)))
    assert report(3, worst <= 1e-6, f"d(beta F)/d beta vs direct worst {worst:.2e} (<=1e-6)")


def test_criterion_04_W_equals_U(xc):
    worst = worst_rel(xc, (f"W=U@naT={naT:g}" for naT in (0.3, 1.0, 2.0, 5.0)))
    assert report(4, worst <= 1e-10, f"W(T) vs U(T) worst rel diff {worst:.2e} (<=1e-10)")


def test_criterion_05_high_T_asymptote():
    # the criterion's point a = T = n = 1 first, then n != 1 and a != 1
    cases = (
        CavityConfig(a=1.0, T=1.0),
        CavityConfig(a=0.7, T=1.0 / 1.4, n=2.0),
        CavityConfig(a=2.0, T=1.25 / 3.0, n=1.5),
    )
    rows = []
    for c in cases:
        u = internal_energy_direct(c).value
        asym = internal_energy_highT_asymptote(c).value
        q = math.exp(-4.0 * math.pi * c.naT)
        dev = abs(u - asym) / abs(u)
        law = 4.5 * q - (131.0 / 12.0) * q**2
        rows.append((u, dev, law, abs(dev - law), 26.0 * q**3 + 1e-14))
    u = rows[0][0]
    # printed-value agreement, +/- 2 in the last shown digit of -4.3825e-5
    ok_value = abs(u - (-4.3825e-5)) <= 2e-9
    # The exact deviation law to second order in q; the q^3 coefficient 203/8
    # stays under 26.  The stated dev <= 2q cannot hold (module docstring).
    ok_law = all(res <= tol for *_, res, tol in rows)
    laws = "; ".join(
        f"naT={c.naT:g} n={c.n:g} a={c.a:g}: dev={dev:.6e} law={law:.6e} residual {res:.1e} (<={tol:.1e})"
        for c, (_, dev, law, res, tol) in zip(cases, rows)
    )
    report(
        5,
        ok_value and ok_law,
        f"U={u:.6e} (printed -4.3825e-5: {'ok' if ok_value else 'off'}); "
        f"dev = |U - asym|/|U| vs 4.5q - (131/12)q^2, q = e^-4pi naT: {laws}",
    )
    assert ok_value
    assert ok_law, f"deviation from -4 pi n^2 T^3 q breaks 4.5q - (131/12)q^2 +- 26q^3: {laws}"


def test_criterion_06_low_T_expansion():
    def residual(naT):
        cfg = CavityConfig(a=1.0, T=naT)
        full = internal_energy(cfg)
        return abs(full.value - internal_energy_lowT(cfg).value) / abs(full.value)

    r1, r2 = residual(0.1), residual(0.05)
    ok = r1 <= 1e-4 and r1 >= 16.0 * r2
    assert report(6, ok, f"residual naT=0.1: {r1:.2e} (<=1e-4); shrink x{r1 / max(r2, 5e-324):.1f} (>=16)")


def test_criterion_07_electric_equals_magnetic():
    rng = random.Random(7)
    cfg = CavityConfig(a=1.0, T=0.0)
    worst = 0.0
    for _ in range(10):
        k = rng.uniform(0.05, 8.0)
        zeta = rng.uniform(0.05, 8.0)
        p = spectral_energy_density(k, zeta, cfg)
        worst = max(worst, abs(p.electric_half - p.magnetic_half) / abs(p.electric_half))
    assert report(7, worst <= 1e-12, f"10 random points, worst rel diff {worst:.2e} (<=1e-12)")


def test_criterion_08_hyperdimensional_pressure(xc):
    worst = worst_rel(xc, (f"P_quad=P_closed@D={D}" for D in (4, 5, 6, 7, 8)))
    p4 = xc["P_quad=P_closed@D=4"]["rhs"]
    ok = worst <= 1e-8 and abs(p4 - (-0.04112335)) <= 1e-8 and abs(p4 + math.pi**2 / 240) < 1e-15
    assert report(8, ok, f"quad vs closed worst {worst:.2e} (<=1e-8); P(D=4)={p4:.8f}")


def test_criterion_09_anomaly_structure():
    from casimir.specfun import hurwitz_zeta

    prof4 = density_profile(HyperConfig(dim=4), [0.2, 0.5, 0.8])
    ok_zero = all(v == 0.0 for v in prof4.w2_values)
    prof6 = density_profile(HyperConfig(dim=6), [0.25, 0.75])
    ok_sym = abs(prof6.w2_values[0] - prof6.w2_values[1]) <= 1e-12 * abs(prof6.w2_values[0])
    u = 1e-3
    f6 = hurwitz_zeta(6.0, u) + hurwitz_zeta(6.0, 1.0 - u)
    ok_wall = abs(u**6 * f6 - 1.0) < 1e-2
    w2_a1 = density_profile(HyperConfig(dim=6, a=1.0), [0.3]).w2_values[0]
    w2_a2 = density_profile(HyperConfig(dim=6, a=2.0), [0.3]).w2_values[0]
    ok_indep = abs(2.0**6 * w2_a2 - w2_a1) <= 1e-12 * abs(w2_a1)
    ok = ok_zero and ok_sym and ok_wall and ok_indep
    assert report(
        9,
        ok,
        f"w2(D=4)=0: {ok_zero}; mirror: {ok_sym}; u^D f_D(u)->1: {ok_wall}; a^D w2 fixed: {ok_indep}",
    )


def test_criterion_10_pressure_density_relation(xc):
    # (D-1) w1 of the profile against the pressure quadrature of the P_quad rows
    ratios = [
        (D - 1) * density_profile(HyperConfig(dim=D), [0.5]).w1 / xc[f"P_quad=P_closed@D={D}"]["lhs"]
        for D in (4, 5, 6)
    ]
    worst_id = max(abs(r - 1.0) for r in ratios)
    worst_fd = worst_rel(xc, (f"-d(a*w1)/da=P@D={D}" for D in (4, 5, 6)))
    ok = worst_id <= 1e-12 and worst_fd <= 1e-8
    assert report(10, ok, f"(D-1)w1: {worst_id:.2e} (<=1e-12); -d(a w1)/da: {worst_fd:.2e} (<=1e-8)")


def test_criterion_11_circuit_cancellation(xc):
    # the row's lhs is |ratio - 1| at delta a = 1e-4 over |ratio - 1| at 1e-3
    shrink = xc["circuit:first_order_adiabatic"]["lhs"]
    ok_identity = abs(xc["circuit:LJ2=Cphi2"]["lhs"] - 1.0) <= 1e-12
    ok = shrink <= 0.12 and ok_identity
    assert report(
        11, ok, f"|ratio-1| shrinks {shrink:.3f}x from delta a = 1e-3 to 1e-4 (<=0.12x); LJ^2=C phi^2 residual ok: {ok_identity}"
    )


def test_criterion_12_dispersive_solver():
    model = LorentzModel(eps_bar=2.0, omega0=10.0)
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 4.0, 8.0, 9.9):
        w = dispersive_mode_solve(model, k)
        worst = max(worst, abs(math.sqrt(eps_of_omega(model, w)) * w - k) / k)
    w5 = dispersive_mode_solve(model, 5.0)
    ok = worst <= 1e-10 and abs(w5 - 3.4237) <= 1e-4
    assert report(12, ok, f"worst residual {worst:.2e} (<=1e-10); omega*(k=5)={w5:.6f} (3.4237+-1e-4)")


def test_criterion_13_divergence_witnesses(xc):
    # W_II at omega_max = 10 omega0 (eps_bar 2, omega0 0.2): |W_II| grows along its scan
    ok_w2 = xc["W_II_scan_monotone"]["lhs"] == 1.0
    res = cutoff_mode_energy(HyperConfig(dim=4), 0.1)
    (_, v0), (_, v1), (_, v2) = res.scan
    exps = [math.log2(v1 / v0), math.log2(v2 / v1)]
    ok_cut = all(abs(e - 4.0) <= 0.2 * 4.0 for e in exps)
    ok = ok_w2 and ok_cut
    assert report(
        13, ok, f"|W_II| scan increasing: {ok_w2}; lambda exponent {exps} ~ D=4"
    )


def test_criterion_14_cli_contract(capsys, tmp_path):
    argv = ["internal-energy", "--a", "1", "--T", "1", "--n", "1"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    ok_det = code1 == code2 == 0 and out1 == out2

    base = ["free-energy", "--T", "0.5", "--sweep", "T:0.5:1.5:3:lin"]
    cli_main(base + ["--format", "csv"])
    txt_csv = capsys.readouterr().out
    cli_main(base + ["--format", "json"])
    txt_json = capsys.readouterr().out
    rows_csv = list(csv.DictReader(io.StringIO(txt_csv)))
    rows_json = json.loads(txt_json)
    ok_parity = all(
        float(c["value"]) == j["value"] and float(c["T"]) == j["T"]
        for c, j in zip(rows_csv, rows_json)
    )

    ok_exit1 = cli_main(["internal-energy", "--T", "0.5", "--max-iter", "2"]) == 1
    capsys.readouterr()
    try:
        cli_main(["internal-energy", "--no-such-flag"])
        ok_exit2 = False
    except SystemExit as exc:
        ok_exit2 = exc.code == 2
    capsys.readouterr()

    ok = ok_det and ok_parity and ok_exit1 and ok_exit2
    with capsys.disabled():
        report(
            14,
            ok,
            f"determinism: {ok_det}; csv/json parity: {ok_parity}; exit codes 1/2: {ok_exit1}/{ok_exit2}",
        )
    assert ok
