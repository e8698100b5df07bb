import math
import os
import subprocess
import sys

import mpmath
import pytest

import casimir
from casimir import matsubara
from casimir.engine import DEFAULT_TOL, EnergyValue, Tolerance
from casimir.green_em import em_energy_finiteT
from casimir.matsubara import (
    ROUTE_SPLIT_NAT,
    CavityConfig,
    free_energy,
    free_energy_quad,
    free_energy_lowT,
    internal_energy,
    internal_energy_direct,
    internal_energy_resummed,
    internal_energy_from_F,
    internal_energy_lowT,
    internal_energy_highT_asymptote,
    pressure,
    pressure_quad,
    _kernel_direct,
    _kernel_dual,
    _thermal_kernel,
)

ZETA3 = 1.2020569031595943
PI2_720 = math.pi**2 / 720.0

# frozen oracle values (50-digit evaluations of the closed sums/forms)
U_111 = -4.382392423207898e-05
U_1_005 = -0.01366406790106511
U_1_5 = -8.102010472217461e-25
F_1_5 = -0.23914162251948146     # -zeta(3)*5/(8 pi), m>=1 terms ~1e-26
F_LOWT_001 = -0.013707973010454480
F_LOWT_01_2 = -0.0074436855034661400
P_111 = -0.09570800270160906


def cavity(T, n=1.0, a=1.0):
    return CavityConfig(a=a, T=T, n=n)


def pressure_mp(a, T, n):
    """-dF/da at 20 digits, each Matsubara integral's a-derivative in
    closed polylog form (y = e^(-2 a x))."""
    ctx = mpmath.mp.clone()
    ctx.dps = 20
    a, T, n = ctx.mpf(a), ctx.mpf(T), ctx.mpf(n)

    def dI_da(x):
        y = ctx.exp(-2 * a * x)
        return (
            -(x * x / a) * ctx.log1p(-y)
            + (x / (a * a)) * ctx.polylog(2, y)
            + ctx.polylog(3, y) / (2 * a**3)
        )

    total = ctx.zeta(3) / (4 * a**3)  # the m = 0 term at half weight
    m = 1
    while True:
        t = dI_da(2 * ctx.pi * m * T * n)
        total += t
        if abs(t) < ctx.mpf(10) ** -20 * abs(total):
            return float(-T / ctx.pi * total)
        m += 1


def free_energy_mp(a, T, n):
    """F at 20 digits, each Matsubara integral in closed polylog form,
    I(x) = -(x/2a) Li2(y) - Li3(y)/(4a^2) with y = e^(-2 a x)."""
    ctx = mpmath.mp.clone()
    ctx.dps = 20
    a, T, n = ctx.mpf(a), ctx.mpf(T), ctx.mpf(n)

    def I(x):
        y = ctx.exp(-2 * a * x)
        return -(x / (2 * a)) * ctx.polylog(2, y) - ctx.polylog(3, y) / (4 * a * a)

    total = -ctx.zeta(3) / (8 * a * a)  # the m = 0 term at half weight
    m = 1
    while True:
        t = I(2 * ctx.pi * m * T * n)
        total += t
        if abs(t) < ctx.mpf(10) ** -20 * abs(total):
            return float(T / ctx.pi * total)
        m += 1


def internal_energy_mp(a, T, n):
    """U at 30 digits from the hyperbolic sum, with x = 2 pi naT formed
    from the exact float inputs."""
    ctx = mpmath.mp.clone()
    ctx.dps = 30
    a, T, n = ctx.mpf(a), ctx.mpf(T), ctx.mpf(n)
    x = 2 * ctx.pi * n * a * T
    total, m = ctx.mpf(0), 1
    while True:
        t = ctx.coth(x * m) / (m * ctx.sinh(x * m) ** 2)
        total += t
        if t < ctx.mpf(10) ** -25 * total:
            return float(-ctx.pi * n * n * T**3 * total)
        m += 1


# the naT grid of the F, U and P error-bar tests: both sides of the route
# split, and far below it
NAT_GRID = [
    (1e-3, 1.3, 1.5),
    (0.01, 1.0, 2.0),
    (0.29, 1.0, 1.0),
    (0.31, 1.0, 1.0),
    (0.5, 1.0, 1.0),
    (1.0, 1.0, 1.0),
    (2.0, 2.0, 1.0),
    (5.0, 1.1, 1.3),
]


class TestConfigAndValue:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CavityConfig(a=0.0, T=1.0)
        with pytest.raises(ValueError):
            CavityConfig(a=1.0, T=-1.0)
        with pytest.raises(ValueError):
            CavityConfig(a=1.0, T=1.0, n=0.5)
        for bad in ((1.0, math.nan), (1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                CavityConfig(*bad)
        for n in (math.nan, math.inf):
            with pytest.raises(ValueError):
                CavityConfig(1.0, 1.0, n)

    def test_energy_value_checks(self):
        with pytest.raises(ValueError):
            EnergyValue(1.0, -1.0, "direct_sum")
        with pytest.raises(ValueError):
            EnergyValue(1.0, 0.0, "not_a_method")
        # a non-finite value or error estimate is never converged
        for value, err in ((math.nan, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
            assert EnergyValue(value, err, "direct_sum").converged is False
        assert EnergyValue(1.0, 0.0, "direct_sum").converged is True


class TestFreeEnergy:
    def test_high_temperature_classical_term(self):
        # m=0 dominates: F -> -zeta(3) T/(8 pi a^2); m>=1 terms ~ e^(-20 pi)
        f = free_energy(cavity(5.0))
        assert f.value == pytest.approx(F_1_5, rel=1e-12)

    def test_low_temperature_matches_expansion(self):
        f = free_energy(cavity(0.01))
        assert f.value == pytest.approx(F_LOWT_001, rel=1e-9)
        assert f.value == pytest.approx(-PI2_720, rel=2e-5)

    def test_medium_cavity_against_expansion(self):
        # at naT = 0.2 the expansion remainder is ~4e-7 relative
        f = free_energy(cavity(0.1, n=2.0))
        low = free_energy_lowT(cavity(0.1, n=2.0))
        assert low.value == pytest.approx(F_LOWT_01_2, rel=1e-13)
        assert f.value == pytest.approx(low.value, rel=1e-5)

    def test_closed_form_below_T0_limit(self):
        # below T0_LIMIT_NAT = 1e-6, T = 0 included, F, U and P are their
        # closed forms, U = F field for field; from naT = 1e-6 up the kernel
        for route in (free_energy, internal_energy, pressure):
            for T in (0.0, 1e-200, 9.9e-7):
                assert route(cavity(T)).method == "closed_form"
            assert route(cavity(1e-6)).method == "poisson_resummed"
        for T in (0.0, 1e-200, 9.9e-7):
            assert free_energy(cavity(T)) == internal_energy(cavity(T))

    @pytest.mark.parametrize("naT, a, n", NAT_GRID)
    def test_within_err_estimate_of_mpmath(self, naT, a, n):
        T = naT / (n * a)
        f = free_energy(cavity(T, n=n, a=a))
        assert f.converged
        assert f.method == ("direct_sum" if naT >= ROUTE_SPLIT_NAT else "poisson_resummed")
        assert abs(f.value - free_energy_mp(a, T, n)) <= f.err_estimate

    @pytest.mark.parametrize("naT", [0.3, 1.0, 2.0])
    def test_quadrature_check_route(self, naT):
        cfg = cavity(naT, n=1.2, a=1.1)
        for quad, kernel in ((free_energy_quad, free_energy), (pressure_quad, pressure)):
            q, k = quad(cfg), kernel(cfg)
            assert q.method == "quadrature" and q.converged
            assert abs(q.value - k.value) <= q.err_estimate + k.err_estimate

    @pytest.mark.parametrize("naT", [0.05, 0.3, 1.0, 5.0])
    def test_quadrature_check_route_within_err_estimate_of_mpmath(self, naT):
        for quad, ref in ((free_energy_quad, free_energy_mp), (pressure_quad, pressure_mp)):
            q = quad(cavity(naT))
            assert q.converged
            assert abs(q.value - ref(1.0, naT, 1.0)) <= q.err_estimate

    def test_quadrature_check_route_evaluation_ceiling(self):
        # terms m >= 2 stop at a floor of 1e-2 tol.rel times the largest
        # term: 6087 evaluations at naT = 0.05, 11 307 when every term ran
        # to 1e-12 relative
        q = free_energy_quad(cavity(0.05))
        assert q.converged
        assert q.evaluations <= 7_000

    def test_T0_closed_form(self):
        assert free_energy(cavity(0.0)).value == pytest.approx(-PI2_720, rel=1e-14)
        assert free_energy(cavity(0.0, n=2.0)).value == pytest.approx(
            -PI2_720 / 2.0, rel=1e-14
        )


class TestInternalEnergyRoutes:
    def test_direct_value(self):
        u = internal_energy_direct(cavity(1.0))
        assert u.value == pytest.approx(U_111, rel=1e-12)

    def test_direct_flags_tiny_naT(self):
        u = internal_energy_direct(cavity(1e-4), Tolerance(max_iter=10**4))
        assert not u.converged

    def test_resummed_low_temperature(self):
        u = internal_energy_resummed(cavity(0.05))
        assert u.value == pytest.approx(U_1_005, rel=1e-12)

    @pytest.mark.parametrize("naT", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])
    def test_route_equivalence(self, naT):
        ud = internal_energy_direct(cavity(naT))
        ur = internal_energy_resummed(cavity(naT))
        assert ud.converged and ur.converged
        assert abs(ud.value - ur.value) / abs(ud.value) <= 1e-9

    @pytest.mark.parametrize("a, n", [(1.0, 1.0), (1.3, 1.4)])
    @pytest.mark.parametrize("naT", [0.05, 1.0, 5.0, 10.0, 20.0, 30.0])
    def test_resummed_within_err_estimate_of_mpmath(self, naT, a, n):
        # from naT ~ 18 on the working precision exceeds 110 digits, where
        # constants of a fixed length would fail
        T = naT / (n * a)
        u = internal_energy_resummed(cavity(T, n=n, a=a))
        assert u.converged
        assert abs(u.value - internal_energy_mp(a, T, n)) <= u.err_estimate

    @pytest.mark.parametrize("max_iter", [1, 2, 10])
    def test_resummed_truncated_within_err_estimate(self, max_iter):
        # R decreases, so the terms past the last one summed stay bounded
        u = internal_energy_resummed(cavity(5.0), Tolerance(max_iter=max_iter))
        assert not u.converged
        assert abs(u.value - internal_energy_mp(1.0, 5.0, 1.0)) <= u.err_estimate

    @pytest.mark.parametrize("prec", [40, 200])
    def test_resummed_constants_match_mpmath(self, prec):
        with mpmath.workdps(prec + 20):
            for helper, ref in (
                (matsubara._decimal_pi, mpmath.pi),
                (matsubara._decimal_zeta3, mpmath.zeta(3)),
            ):
                got = helper(prec)
                assert len(got.as_tuple().digits) == prec
                # rounded to nearest, up to the guard digits' last unit
                assert abs(mpmath.mpf(str(got)) - ref) <= 0.5000001 * mpmath.mpf(10) ** (1 - prec)

    def test_resummed_and_crosscheck_run_without_mpmath(self):
        code = (
            "import contextlib, io, sys\n"
            "from casimir import cli, matsubara\n"
            "matsubara.internal_energy_resummed(matsubara.CavityConfig(a=1.0, T=5.0))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['crosscheck'])\n"
            "print(code, 'mpmath' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(casimir.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0 False"

    def test_from_F_matches_direct_absolute(self):
        u_fd = internal_energy_from_F(cavity(1.0))
        assert abs(u_fd.value - U_111) < 1e-7
        assert u_fd.method == "finite_difference"

    def test_from_F_matches_resummed_relative(self):
        u_fd = internal_energy_from_F(cavity(0.2))
        u_rs = internal_energy_resummed(cavity(0.2))
        assert u_fd.value == pytest.approx(u_rs.value, rel=1e-6)

    def test_from_F_within_err_estimate_at_low_temperature(self):
        # the resummed route is exact to rounding here
        cfg = cavity(0.01)
        u_fd = internal_energy_from_F(cfg)
        assert u_fd.converged
        assert abs(u_fd.value - internal_energy_resummed(cfg).value) <= u_fd.err_estimate

    def test_from_F_very_high_temperature(self):
        # U ~ -4 pi 125 e^(-20 pi): both routes far below 1e-20
        u_fd = internal_energy_from_F(cavity(5.0))
        u_d = internal_energy_direct(cavity(5.0))
        assert abs(u_fd.value) < 1e-20 and abs(u_d.value) < 1e-20
        assert u_d.value == pytest.approx(U_1_5, rel=1e-12)

    @pytest.mark.parametrize("a, n", [(1.0, 1.0), (1.3, 1.4)])
    @pytest.mark.parametrize("naT", [1e-3, 0.01, 0.1, 0.29999, 0.3, 0.30001, 1.0, 5.0, 20.0])
    def test_from_F_within_err_estimate_of_mpmath(self, naT, a, n):
        T = naT / (n * a)
        u = internal_energy_from_F(cavity(T, n=n, a=a))
        assert u.converged and u.evaluations == 6
        assert abs(u.value - internal_energy_mp(a, T, n)) <= u.err_estimate
        # the estimate is that of the returned value; the error of the
        # cruder central difference read up to 6.4e-7 |U| here
        assert u.err_estimate <= 5e-10 * abs(u.value)

    @pytest.mark.parametrize("naT, dual_calls", [(0.29999, 6), (0.30001, 0)])
    def test_from_F_differences_one_route(self, naT, dual_calls, monkeypatch):
        # the six points straddle the split, but the centre picks the sum
        calls = {"dual": 0, "tails": 0}
        for name, key in (("_kernel_dual", "dual"), ("_hyperbolic_tails", "tails")):

            def counted(*args, _fn=getattr(matsubara, name), _key=key):
                calls[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(matsubara, name, counted)
        internal_energy_from_F(cavity(naT))
        assert calls == {"dual": dual_calls, "tails": 6}

    def test_dispatch(self):
        assert internal_energy(cavity(0.29)).method == "poisson_resummed"
        assert internal_energy(cavity(0.31)).method == "direct_sum"

    @pytest.mark.parametrize("naT, a, n", NAT_GRID)
    def test_within_err_estimate_of_mpmath(self, naT, a, n):
        T = naT / (n * a)
        u = internal_energy(cavity(T, n=n, a=a))
        assert u.converged
        assert u.method == ("direct_sum" if naT >= ROUTE_SPLIT_NAT else "poisson_resummed")
        assert abs(u.value - internal_energy_mp(a, T, n)) <= u.err_estimate

    @pytest.mark.parametrize("naT", [0.5, 1.0, 2.0, 5.0])
    def test_direct_within_err_estimate_of_mpmath(self, naT):
        # the rounding of x1 = 2 pi naT is amplified by about 2 x1 in U
        a, n = 1.1, 1.3
        T = naT / (n * a)
        u = internal_energy_direct(cavity(T, n=n, a=a))
        assert abs(u.value - internal_energy_mp(a, T, n)) <= u.err_estimate

    @pytest.mark.parametrize("route", [internal_energy, internal_energy_direct, em_energy_finiteT])
    def test_within_err_estimate_near_underflow(self, route):
        # naT = 55..62 in steps of 0.05: the hyperbolic terms are subnormal,
        # so their rounding is absolute, while U itself stays representable;
        # from naT ~ 59.3 on every term underflows, internal_energy returns
        # -0.0 and its estimate is the bound on the dropped remainder
        for i in range(141):
            naT = 55.0 + 0.05 * i
            u = route(cavity(naT))
            assert u.converged
            assert abs(u.value - internal_energy_mp(1.0, naT, 1.0)) <= u.err_estimate, naT

    @pytest.mark.parametrize("naT", [1e-4, 1e-3])
    @pytest.mark.parametrize("route", [internal_energy_direct, em_energy_finiteT])
    def test_long_sums_within_err_estimate(self, route, naT):
        # 2 000 to 43 000 terms: the compensated sum keeps its rounding
        # inside the floor; the low-T law is exact here to e^(-pi/naT)
        with mpmath.workdps(40):
            x = mpmath.mpf(naT)
            ref = -(mpmath.pi**2) / 720 * (1 - 720 * (x / mpmath.pi) ** 3 * mpmath.zeta(3) + 48 * x**4)
            u = route(cavity(naT))
            assert u.converged
            assert abs(u.value - ref) <= u.err_estimate

    def test_T0_is_the_closed_form(self):
        assert internal_energy(cavity(0.0)) == free_energy(cavity(0.0))

    def test_no_extended_precision_on_production_routes(self):
        code = (
            "import sys; from casimir.matsubara import *\n"
            "for naT in (0.01, 0.29, 0.31, 5.0):\n"
            "    cfg = CavityConfig(a=1.0, T=naT)\n"
            "    free_energy(cfg), internal_energy(cfg), pressure(cfg)\n"
            "print('mpmath' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(casimir.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestTemperatureRange:
    """F, U and P at the ends of the double range of T."""

    @pytest.mark.parametrize("T", [1e-200, 1e-160, 1e-7])
    @pytest.mark.parametrize(
        "route, limit",
        [
            (free_energy, -PI2_720),
            (internal_energy, -PI2_720),
            (internal_energy_from_F, -PI2_720),
            (pressure, -math.pi**2 / 240.0),
        ],
    )
    def test_tiny_temperature_is_the_T0_limit(self, route, limit, T):
        # the thermal parts are below 28 T^3 of the limit
        r = route(cavity(T))
        assert r.converged and math.isfinite(r.err_estimate)
        assert abs(r.value - limit) <= r.err_estimate

    @pytest.mark.parametrize("T", [1e150, 1e153])
    def test_huge_temperature_error_bar_is_an_underflow(self, T):
        # U underflows to -0.0; the dropped remainder pref 8u e^(-2u) is 0
        # when formed with its prefactor in logs
        u = internal_energy(cavity(T))
        assert u.converged and u.value == 0.0
        assert u.err_estimate <= 1e-300

    @pytest.mark.parametrize("T", [1e200, 1e300])
    @pytest.mark.parametrize("route", [internal_energy, internal_energy_from_F])
    def test_huge_temperature_overflows(self, route, T):
        with pytest.raises(OverflowError):
            route(cavity(T))


class TestThermalKernel:
    """S(u) = sum_j j^-3 [coth(ju) + ju/sinh^2(ju)], the one function of
    u = 2 pi naT behind F and P."""

    @pytest.mark.parametrize("naT", [0.2, ROUTE_SPLIT_NAT, 0.5])
    def test_direct_and_dual_agree(self, naT):
        u = 2.0 * math.pi * naT
        direct, dual = _kernel_direct(u, 10**6), _kernel_dual(u, 10**6)
        assert direct.converged and dual.converged
        assert abs(direct.s - dual.s) <= direct.err_s + dual.err_s
        assert abs(direct.ds - dual.ds) <= direct.err_ds + dual.err_ds
        # summed to rounding, not to a tolerance
        assert direct.err_s < 1e-14 * direct.s and direct.err_ds < 1e-14 * abs(direct.ds)

    @pytest.mark.parametrize("naT", [0.3, 1.0, 2.0])
    def test_derivative_is_the_internal_energy(self, naT):
        # U = d(beta F)/d beta = u T S'(u)/(8 pi a^2)
        a, n = 1.2, 1.3
        cfg = CavityConfig(a=a, T=naT / (n * a), n=n)
        k = _thermal_kernel(cfg, DEFAULT_TOL)
        u = 2.0 * math.pi * naT
        u_kernel = u * cfg.T * k.ds / (8.0 * math.pi * a * a)
        assert u_kernel == pytest.approx(internal_energy_direct(cfg).value, rel=1e-14)

    def test_low_temperature_limit_is_the_expansion(self):
        # below the split F is the closed expansion plus e^(-pi/naT) terms
        cfg = cavity(0.02)
        f = free_energy(cfg)
        assert f.value == pytest.approx(free_energy_lowT(cfg).value, rel=1e-15)

    def test_max_iter_flags(self):
        assert not free_energy(cavity(0.3), Tolerance(max_iter=2)).converged
        assert not pressure(cavity(0.3), Tolerance(max_iter=2)).converged


class TestClosedForms:
    def test_lowT_values(self):
        assert internal_energy_lowT(cavity(0.0)).value == pytest.approx(-PI2_720, rel=1e-14)
        assert internal_energy_lowT(cavity(0.0, n=2.0)).value == pytest.approx(
            -PI2_720 / 2.0, rel=1e-14
        )
        assert internal_energy_lowT(cavity(0.0, a=2.0)).value == pytest.approx(
            -PI2_720 / 8.0, rel=1e-14
        )

    def test_lowT_validity_flag(self):
        assert internal_energy_lowT(cavity(0.4)).converged
        assert not internal_energy_lowT(cavity(0.6)).converged
        assert not free_energy_lowT(cavity(0.6)).converged

    def test_free_energy_lowT_bracket(self):
        # bracket at naT = 0.1: 1 + 360 (0.1/pi)^3 zeta(3) - 0.2^4
        cfg = cavity(0.1)
        bracket = 1.0 + 360.0 * (0.1 / math.pi) ** 3 * ZETA3 - 0.2**4
        assert free_energy_lowT(cfg).value == pytest.approx(-PI2_720 * bracket, rel=1e-13)

    def test_high_T_asymptote_exact_deviation(self):
        # U/asym = 1 + 4.5 e^(-4 pi naT) + O(e^(-8 pi naT)); check the
        # derived coefficient at naT = 1 and that err_estimate covers it
        u = internal_energy_direct(cavity(1.0))
        asym = internal_energy_highT_asymptote(cavity(1.0))
        dev = abs(u.value - asym.value) / abs(u.value)
        assert dev == pytest.approx(4.5 * math.exp(-4 * math.pi), rel=1e-3)
        assert dev <= 5.0 * math.exp(-4 * math.pi)
        assert abs(u.value - asym.value) <= asym.err_estimate


    @pytest.mark.parametrize("a", [1e-3, 0.013, 0.7, 1.0, 2.35, 47.0, 1e3])
    def test_T0_error_bars_are_rounding_counts(self, a):
        # F(0) = -pi^2/(720 n a^3) and P(0) = -pi^2/(240 n a^4) against 30
        # digits: the rounding count holds, below the 1e-15 relative it replaced
        for n in (1.0, 1.3, 1.77, 2.5, 3.0):
            for route, c, k in ((free_energy, 720, 3), (pressure, 240, 4)):
                r = route(cavity(0.0, n=n, a=a))
                with mpmath.workdps(30):
                    ref = -(mpmath.pi**2) / (c * mpmath.mpf(n) * mpmath.mpf(a) ** k)
                    assert abs(r.value - ref) <= r.err_estimate
                assert r.err_estimate <= 1e-15 * abs(r.value)


class TestExpansionProperties:
    def test_residual_scaling(self):
        # remainder beyond the quartic term falls off exponentially, far
        # faster than the 16x demanded when naT halves
        def residual(naT):
            full = internal_energy(cavity(naT))
            low = internal_energy_lowT(cavity(naT))
            return abs(full.value - low.value) / abs(full.value)

        r02, r01 = residual(0.2), residual(0.1)
        assert r01 <= 1e-4
        assert r02 >= 16.0 * r01

    def test_separation_independent_term(self):
        # F + (pi^2/(720 n a^3)) [1 - (2 naT)^4] = -zeta(3) n^2 T^3/(2 pi):
        # the cubic term of the expansion carries no a-dependence, so it
        # drops out of the force
        T, n = 0.05, 1.0

        def combo(a):
            f = free_energy(CavityConfig(a=a, T=T, n=n)).value
            naT = n * a * T
            return f + math.pi**2 / (720.0 * n * a**3) * (1.0 - (2.0 * naT) ** 4)

        expected = -ZETA3 * n**2 * T**3 / (2.0 * math.pi)
        c1, c11 = combo(1.0), combo(1.1)
        assert abs(c1 - c11) <= 1e-8
        assert c1 == pytest.approx(expected, rel=1e-5)

    def test_n_scaling_of_closed_forms(self):
        # n enters the brackets only through naT, plus the overall 1/n
        for n in (1.0, 2.0, 3.0):
            cfg = CavityConfig(a=1.0, T=0.1 / n, n=n)
            ref = internal_energy_lowT(CavityConfig(a=1.0, T=0.1, n=1.0))
            assert internal_energy_lowT(cfg).value * n == pytest.approx(ref.value, rel=1e-14)


class TestPressure:
    def test_T0(self):
        p = pressure(cavity(0.0))
        assert p.value == pytest.approx(-math.pi**2 / 240.0, rel=1e-9)

    def test_T0_index_scaling(self):
        p = pressure(cavity(0.0, n=2.0))
        assert p.value == pytest.approx(-math.pi**2 / 480.0, rel=1e-9)

    def test_classical_high_T(self):
        # -d/da of the m=0 term: -zeta(3) T/(4 pi a^3), plus ~5e-4 relative
        # exponential corrections at naT = 1
        p = pressure(cavity(1.0))
        assert p.value == pytest.approx(P_111, rel=1e-8)
        assert p.value == pytest.approx(-ZETA3 / (4.0 * math.pi), rel=1e-3)
        assert p.method == "direct_sum"

    @pytest.mark.parametrize("naT, a, n", NAT_GRID + [(0.3, 1.0, 1.0)])
    def test_within_err_estimate_of_mpmath(self, naT, a, n):
        T = naT / (n * a)
        p = pressure(cavity(T, n=n, a=a))
        assert p.converged
        assert abs(p.value - pressure_mp(a, T, n)) <= p.err_estimate
