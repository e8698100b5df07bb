import math
import random

import mpmath
import pytest

from casimir.engine import DEFAULT_TOL, Tolerance
from casimir.matsubara import CavityConfig, internal_energy_direct
from casimir.green_em import (
    spectral_energy_density,
    em_energy_T0,
    em_energy_T0_polar,
    em_energy_finiteT,
    _EXP_SUBNORMAL,
    _X_LOW,
    _t0_end_bounds,
)

PI2_720 = math.pi**2 / 720.0

# frozen: d = e^(2 sqrt 2) - 1 and the point value built on it
HALF_POINT = -0.04441952328684808  # -n^2 zeta^2/(kappa d) at k=zeta=n=a=1
W_1_2 = -1.2226130309307815e-09     # W(a=1, T=2, n=1)

CFG0 = CavityConfig(a=1.0, T=0.0)


class TestGreensComponents:
    """The electric components that spectral_energy_density sums at z = z'."""

    def test_component_sum_identity(self):
        # eps (g_xx + g_yy + g_zz) = (-kappa^2 - eps mu zeta^2 + k^2)/(kappa d)
        # = -2 eps mu zeta^2/(kappa d), so the electric half is -eps mu zeta^2/(kappa d)
        for k, zeta, eps, mu in [(1.0, 1.0, 1.0, 1.0), (0.3, 2.0, 2.5, 1.0), (2.0, 0.7, 1.5, 1.8)]:
            p = spectral_energy_density(k, zeta, CFG0, eps=eps, mu=mu)
            kappa = math.sqrt(k * k + eps * mu * zeta * zeta)
            expected = -eps * mu * zeta**2 / (kappa * math.expm1(2.0 * kappa))
            assert p.electric_half == pytest.approx(expected, rel=1e-13)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            spectral_energy_density(0.0, 0.0, CFG0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_input_and_empty_media(self, bad):
        for args in ((bad, 1.0, 1.0, 1.0), (1.0, bad, 1.0, 1.0), (1.0, 1.0, bad, 1.0), (1.0, 1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="need finite"):
                spectral_energy_density(args[0], args[1], CFG0, eps=args[2], mu=args[3])
        for eps, mu in ((0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="need finite"):
                spectral_energy_density(1.0, 1.0, CFG0, eps=eps, mu=mu)


class TestSpectralDensity:
    @pytest.mark.parametrize("k,zeta", [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)])
    def test_electric_equals_magnetic(self, k, zeta):
        p = spectral_energy_density(k, zeta, CFG0)
        assert p.electric_half == pytest.approx(p.magnetic_half, rel=1e-12)

    def test_equality_at_random_points(self):
        rng = random.Random(20260810)
        for _ in range(10):
            k = rng.uniform(0.05, 6.0)
            zeta = rng.uniform(0.05, 6.0)
            eps = rng.uniform(1.0, 4.0)
            mu = rng.uniform(1.0, 2.0)
            p = spectral_energy_density(k, zeta, CFG0, eps=eps, mu=mu)
            assert p.electric_half == pytest.approx(p.magnetic_half, rel=1e-12)

    def test_frozen_magnitude(self):
        p = spectral_energy_density(1.0, 1.0, CFG0)
        assert p.electric_half == pytest.approx(HALF_POINT, rel=1e-13)
        assert p.electric_half < 0  # rotated density is negative (binding)

    def test_index_dependence(self):
        # doubling n moves kappa to sqrt(k^2 + 4 zeta^2) and the numerator to 4 zeta^2
        k, zeta = 1.0, 1.0
        p = spectral_energy_density(k, zeta, CFG0, eps=4.0, mu=1.0)
        kappa = math.sqrt(k**2 + 4.0 * zeta**2)
        d = math.expm1(2.0 * kappa)
        assert p.electric_half == pytest.approx(-4.0 * zeta**2 / (kappa * d), rel=1e-13)


class TestEnergyT0:
    def test_casimir_value(self):
        w = em_energy_T0(CFG0, Tolerance(rel=1e-11, abs=0.0))
        assert w.converged
        assert w.value == pytest.approx(-PI2_720, rel=1e-8)

    def test_index_scaling(self):
        tol = Tolerance(rel=3e-12, abs=0.0)
        w1 = em_energy_T0(CFG0, tol)
        for n in (2.0, 3.0):
            wn = em_energy_T0(CavityConfig(a=1.0, T=0.0, n=n), tol)
            assert abs(wn.value * n / w1.value - 1.0) <= 1e-10

    def test_grid_against_closed_form(self):
        self._check_grid(Tolerance(rel=1e-10, abs=0.0))

    def test_grid_against_closed_form_tight(self):
        self._check_grid(Tolerance(rel=1e-11, abs=0.0))

    @staticmethod
    def _check_grid(tol):
        # each inner integral stops at the floor nested_quad grants it, and
        # the estimate still holds the error; the running floor is
        # deterministic, so a repeat call gives the same bits
        for a in (1.0, 2.0):
            for n in (1.0, 2.0, 3.0):
                cfg = CavityConfig(a=a, T=0.0, n=n)
                w = em_energy_T0(cfg, tol)
                closed = -PI2_720 / (n * a**3)
                assert w.value == pytest.approx(closed, rel=1e-15, abs=0.0)
                assert abs(w.value - closed) <= w.err_estimate <= 1e-9 * abs(closed)
                assert em_energy_T0(cfg, tol) == w

    def test_polar_route_agrees(self):
        w = em_energy_T0(CFG0, Tolerance(rel=1e-11, abs=0.0))
        wp = em_energy_T0_polar(CFG0, Tolerance(rel=1e-12, abs=0.0))
        assert wp.value == pytest.approx(w.value, rel=1e-9)
        assert wp.value == pytest.approx(-PI2_720, rel=1e-11)

    @pytest.mark.parametrize("tol, ceiling", [(DEFAULT_TOL, 38_600), (Tolerance(rel=1e-11, abs=0.0), 58_700)])
    def test_evaluation_ceiling(self, tol, ceiling):
        # the ceilings of the route with a full-tolerance inner integral per
        # outer node (35 130 and 53 430 evaluations); the nested route must
        # never cost more than it did
        w = em_energy_T0(CFG0, tol)
        assert w.converged
        assert w.evaluations <= ceiling

    @pytest.mark.parametrize("tol, ceiling", [(DEFAULT_TOL, 18_600), (Tolerance(rel=1e-11, abs=0.0), 30_600)])
    def test_nested_evaluation_ceiling(self, tol, ceiling):
        # 18 030 and 29 730 evaluations: the inner k integral on k = n zeta
        # sinh s, the outer one on zeta = e^sigma, each inner integral solved
        # to the floor nested_quad grants it
        w = em_energy_T0(CFG0, tol)
        assert w.converged
        assert w.evaluations <= ceiling

    def test_evaluations_independent_of_the_cavity(self):
        # on the log map every (a, n) is the same integral, shifted in sigma
        counts = {
            em_energy_T0(CavityConfig(a=a, T=0.0, n=n)).evaluations
            for a, n in ((1.0, 1.0), (0.7, 2.3), (3.0, 1.05))
        }
        assert counts == {18_030}

    def test_end_bounds_against_mpmath_tails(self):
        # int x^2 (-ln(1 - e^(-x))) dx over the two dropped ends, x = 2 a n zeta,
        # at 30 digits; 2 a J(zeta) = -ln(1 - e^(-x)) is the closed inner integral
        low, high = _t0_end_bounds(_X_LOW, _EXP_SUBNORMAL)
        with mpmath.workdps(30):
            # -ln(-expm1(-x)) near 0, -log1p(-e^(-x)) where e^(-x) is tiny
            f_low = lambda x: x * x * -mpmath.log(-mpmath.expm1(-x))
            f_high = lambda x: x * x * -mpmath.log1p(-mpmath.exp(-x))
            low_tail = mpmath.quad(f_low, [0, _X_LOW])
            high_tail = mpmath.quad(f_high, [_EXP_SUBNORMAL, _EXP_SUBNORMAL + 50, mpmath.inf])
        assert low_tail <= low <= 1.1 * low_tail
        assert high_tail <= high <= 1.01 * high_tail
        # both far below the rounding of the value, int_0^inf = 2 zeta(4)
        assert low + high <= 1e-20 * math.pi**4 / 45

    @pytest.mark.parametrize("a", [1e-100, 1e-20, 1e30])
    def test_extreme_separations(self, a):
        # the integrand carries W's prefactor, so it is finite wherever W is
        w = em_energy_T0(CavityConfig(a=a, T=0.0))
        closed = -PI2_720 / a / a / a
        assert w.converged
        assert abs(w.value - closed) <= w.err_estimate <= 1e-10 * abs(closed)

    def test_overflowing_energy_fails_fast(self):
        w = em_energy_T0(CavityConfig(a=1e-250, T=0.0))
        assert not w.converged and w.evaluations < 10_000

    def test_underflowing_energy_is_zero(self):
        # pref zeta^3 underflows to 0 on the whole outer range; so does -pi^2/(720 a^3)
        w = em_energy_T0(CavityConfig(a=1e250, T=0.0))
        assert w.converged and w.value == 0.0

    def test_negative_definite(self):
        # 1/(kappa d) > 0 pointwise, so the energy is attractive for any (a, n)
        for a, n in [(0.5, 1.0), (1.0, 2.0), (3.0, 1.5)]:
            assert em_energy_T0(CavityConfig(a=a, T=0.0, n=n)).value < 0

    def test_requires_zero_temperature(self):
        with pytest.raises(ValueError):
            em_energy_T0(CavityConfig(a=1.0, T=1.0))


class TestEnergyFiniteT:
    @pytest.mark.parametrize("naT", [0.3, 1.0, 2.0, 5.0])
    def test_equals_internal_energy(self, naT):
        cfg = CavityConfig(a=1.0, T=naT)
        w = em_energy_finiteT(cfg)
        u = internal_energy_direct(cfg)
        assert abs(w.value - u.value) / abs(u.value) <= 1e-10

    @pytest.mark.parametrize("naT", [0.011, 0.5, 1.0, 2.0, 5.0])
    def test_within_err_estimate_of_mpmath(self, naT):
        # W = 4 pi n^2 T^3 sum_m m^2 ln(1 - e^(-alpha m)) at 30 digits, with
        # alpha = 4 pi naT formed from the exact float inputs
        a, n = 1.1, 1.3
        cfg = CavityConfig(a=a, T=naT / (n * a), n=n)
        with mpmath.workdps(30):
            a_, T_, n_ = (mpmath.mpf(x) for x in (cfg.a, cfg.T, cfg.n))
            alpha = 4 * mpmath.pi * n_ * a_ * T_
            total, m = mpmath.mpf(0), 1
            while True:
                t = m * m * mpmath.log1p(-mpmath.exp(-alpha * m))
                total += t
                if abs(t) < mpmath.mpf(10) ** -25 * abs(total):
                    break
                m += 1
            ref = float(4 * mpmath.pi * n_**2 * T_**3 * total)
        w = em_energy_finiteT(cfg)
        assert abs(w.value - ref) <= w.err_estimate

    def test_high_temperature_value(self):
        w = em_energy_finiteT(CavityConfig(a=1.0, T=2.0))
        assert w.value == pytest.approx(W_1_2, rel=1e-12)
        # m=1 exponential of the sum: -32 pi e^(-8 pi), deviation ~4.5 e^(-8 pi)
        assert w.value == pytest.approx(-32.0 * math.pi * math.exp(-8.0 * math.pi), rel=1e-9)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            em_energy_finiteT(CavityConfig(a=1.0, T=0.0))
