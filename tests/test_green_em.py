import math
import random

import pytest

from casimir.engine import Tolerance
from casimir.matsubara import CavityConfig, internal_energy_direct
from casimir.green_em import (
    greens_components,
    spectral_energy_density,
    em_energy_T0,
    em_energy_T0_polar,
    em_energy_finiteT,
)

PI2_720 = math.pi**2 / 720.0

# frozen: d = e^(2 sqrt 2) - 1 and the point values built on it
D_SQRT2 = 15.918828678557897
G_XX_POINT = -0.08883904657369616
HALF_POINT = -0.04441952328684808  # -n^2 zeta^2/(kappa d) at k=zeta=n=a=1
W_1_2 = -1.2226130309307815e-09     # W(a=1, T=2, n=1)

CFG0 = CavityConfig(a=1.0, T=0.0)


class TestGreensComponents:
    def test_equal_point_collapses_cosh(self):
        g = greens_components(0.3, 0.3, 1.0, 1.0, CFG0)
        assert g.g_xx == pytest.approx(-g.kappa / g.d_factor, rel=1e-15)

    def test_frozen_point(self):
        g = greens_components(0.0, 0.0, 1.0, 1.0, CFG0)
        assert g.kappa == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert g.d_factor == pytest.approx(D_SQRT2, rel=1e-14)
        assert g.g_xx == pytest.approx(G_XX_POINT, rel=1e-13)

    def test_component_sum_identity(self):
        # eps (g_xx + g_yy + g_zz) = (-kappa^2 - n^2 zeta^2 + k^2)/(kappa d)
        # = -2 n^2 zeta^2/(kappa d), also away from z = z'
        for z, zp in [(0.2, 0.2), (0.1, 0.6)]:
            for k, zeta, eps in [(1.0, 1.0, 1.0), (0.3, 2.0, 2.5)]:
                g = greens_components(z, zp, k, zeta, CFG0, eps=eps)
                total = eps * (g.g_xx + g.g_yy + g.g_zz)
                ch = math.cosh(g.kappa * (z - zp))
                expected = -2.0 * eps * zeta**2 * ch / (g.kappa * g.d_factor)
                assert total == pytest.approx(expected, rel=1e-13)

    def test_rejects_singular_and_out_of_gap(self):
        with pytest.raises(ValueError):
            greens_components(0.0, 0.0, 0.0, 0.0, CFG0)
        with pytest.raises(ValueError):
            greens_components(-0.1, 0.0, 1.0, 1.0, CFG0)


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
        tol = Tolerance(rel=1e-10, abs=0.0)
        for a in (1.0, 2.0):
            for n in (1.0, 2.0, 3.0):
                w = em_energy_T0(CavityConfig(a=a, T=0.0, n=n), tol)
                assert w.value == pytest.approx(-PI2_720 / (n * a**3), rel=1e-8)

    def test_polar_route_agrees(self):
        w = em_energy_T0(CFG0, Tolerance(rel=1e-11, abs=0.0))
        wp = em_energy_T0_polar(CFG0, Tolerance(rel=1e-12, abs=0.0))
        assert wp.value == pytest.approx(w.value, rel=1e-9)
        assert wp.value == pytest.approx(-PI2_720, rel=1e-11)

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

    def test_high_temperature_value(self):
        w = em_energy_finiteT(CavityConfig(a=1.0, T=2.0))
        assert w.value == pytest.approx(W_1_2, rel=1e-12)
        # m=1 exponential of the sum: -32 pi e^(-8 pi), deviation ~4.5 e^(-8 pi)
        assert w.value == pytest.approx(-32.0 * math.pi * math.exp(-8.0 * math.pi), rel=1e-9)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            em_energy_finiteT(CavityConfig(a=1.0, T=0.0))
