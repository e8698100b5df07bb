import math

import mpmath
import pytest

from casimir.engine import Tolerance
from casimir.matsubara import (
    CavityConfig,
    EnergyValue,
    free_energy,
    free_energy_T0,
    free_energy_lowT,
    internal_energy,
    internal_energy_direct,
    internal_energy_resummed,
    internal_energy_from_F,
    internal_energy_lowT,
    internal_energy_highT_asymptote,
    pressure,
    _poisson_bracket,
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

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            free_energy(cavity(0.0))

    def test_T0_closed_form(self):
        assert free_energy_T0(cavity(0.0)).value == pytest.approx(-PI2_720, rel=1e-14)
        assert free_energy_T0(cavity(0.0, n=2.0)).value == pytest.approx(
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

    def test_poisson_bracket_vanishes_at_high_T(self):
        # m=1 bracket at naT=100: argument pi/200, bracket ~ -x^4/45
        assert abs(_poisson_bracket(math.pi / 200.0)) < 1e-3

    def test_from_F_matches_direct_absolute(self):
        u_fd = internal_energy_from_F(cavity(1.0))
        assert abs(u_fd.value - U_111) < 1e-7
        assert u_fd.method == "finite_difference"

    def test_from_F_matches_resummed_relative(self):
        u_fd = internal_energy_from_F(cavity(0.2))
        u_rs = internal_energy_resummed(cavity(0.2))
        assert u_fd.value == pytest.approx(u_rs.value, rel=1e-6)

    def test_from_F_very_high_temperature(self):
        # U ~ -4 pi 125 e^(-20 pi): both routes far below 1e-20
        u_fd = internal_energy_from_F(cavity(5.0))
        u_d = internal_energy_direct(cavity(5.0))
        assert abs(u_fd.value) < 1e-20 and abs(u_d.value) < 1e-20
        assert u_d.value == pytest.approx(U_1_5, rel=1e-12)

    def test_dispatch(self):
        assert internal_energy(cavity(0.29)).method == "poisson_resummed"
        assert internal_energy(cavity(0.31)).method == "direct_sum"


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

    @pytest.mark.parametrize(
        "naT, a, n",
        [
            (1e-3, 1.3, 1.5),
            (0.01, 1.0, 2.0),
            (0.3, 1.0, 1.0),
            (0.5, 1.0, 1.0),
            (1.0, 1.0, 1.0),
            (2.0, 2.0, 1.0),
            (5.0, 1.1, 1.3),
        ],
    )
    def test_within_err_estimate_of_mpmath(self, naT, a, n):
        T = naT / (n * a)
        p = pressure(cavity(T, n=n, a=a))
        assert p.converged
        assert abs(p.value - pressure_mp(a, T, n)) <= p.err_estimate
