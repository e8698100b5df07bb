import itertools
import math

import pytest

from casimir.engine import Tolerance, adaptive_quad
from casimir.matsubara import CavityConfig
from casimir.green_em import spectral_energy_density
from casimir.dispersion import (
    LorentzModel,
    CutoffSpec,
    eps_of_omega,
    eps_imag_axis,
    dispersive_mode_solve,
    photon_index,
    w_I_energy,
    w2_density_cutoff,
)
import casimir.dispersion as dispersion

PI2_720 = math.pi**2 / 720.0
MODEL = LorentzModel(eps_bar=2.0, omega0=10.0)

# root of the k=5 mode condition: x = omega^2 solves x^2 - 225 x + 2500 = 0
OMEGA_K5 = math.sqrt((225.0 - math.sqrt(40625.0)) / 2.0)

CFG0 = CavityConfig(a=1.0, T=0.0)

# static permittivities from the vacuum edge to strong coupling
BRANCH_EPS = (1.0 + 1e-12, 2.0, 4.0)


def _mode_residual(model, w, k):
    # |n(omega) omega - k| at the float omega; unguarded because the
    # weak-coupling roots hug the resonance
    return abs(math.sqrt(dispersion._eps_real_unguarded(model, w)) * w - k)


class TestLorentzPermittivity:
    def test_static_and_high_frequency_limits(self):
        assert eps_of_omega(MODEL, 0.0) == pytest.approx(2.0, rel=1e-15)
        assert eps_of_omega(MODEL, 1e6) == pytest.approx(1.0, rel=1e-8)

    def test_midband_value(self):
        # 1 + 1/(1 - 0.25) = 7/3
        assert eps_of_omega(MODEL, 5.0) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_resonance_zone_rejected(self):
        for omega in (9.6, 10.0, 10.4):
            with pytest.raises(ValueError):
                eps_of_omega(MODEL, omega)
        # the form behind the guard: large positive below the pole, negative above
        assert dispersion._eps_real_unguarded(MODEL, 9.6) > 10.0
        assert dispersion._eps_real_unguarded(MODEL, 10.4) < 0.0

    def test_imaginary_axis_monotone(self):
        zetas = [0.0, 0.5, 1.0, 5.0, 20.0, 100.0]
        vals = [eps_imag_axis(MODEL, z) for z in zetas]
        assert vals[0] == pytest.approx(2.0, rel=1e-15)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LorentzModel(eps_bar=0.5, omega0=1.0)
        with pytest.raises(ValueError):
            LorentzModel(eps_bar=2.0, omega0=0.0)
        for bad in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.inf), (2.0, math.nan)):
            with pytest.raises(ValueError):
                LorentzModel(*bad)
        LorentzModel(eps_bar=1.0, omega0=1.0)  # degenerate vacuum branch allowed


class TestModeSolve:
    def test_quadratic_oracle(self):
        w = dispersive_mode_solve(MODEL, 5.0)
        assert w == pytest.approx(OMEGA_K5, rel=1e-12)
        assert abs(w - 3.4237) < 1e-4

    # k from omega0*1e-6 up to omega0, where the lower root is the photon
    # branch; above it the root hugs omega0 and its float residual is
    # amplified by 1/(1 - omega^2/omega0^2)
    @pytest.mark.parametrize(
        "model, k",
        [pytest.param(MODEL, k, id=f"{k}") for k in (1.0, 2.0, 4.0, 8.0)]
        + [
            pytest.param(LorentzModel(eb, 10.0), 10.0 ** (1 + j / 2), id=f"eps{eb!r}-k1e{j / 2:g}w0")
            for eb in BRANCH_EPS
            for j in range(-12, 1)
        ],
    )
    def test_residual(self, model, k):
        w = dispersive_mode_solve(model, k)
        assert 0.0 < w <= k
        assert _mode_residual(model, w, k) <= 1e-13 * k

    def test_static_limit(self):
        # k -> 0: omega -> k/sqrt(eps_bar)
        w = dispersive_mode_solve(MODEL, 0.01)
        assert w == pytest.approx(0.01 / math.sqrt(2.0), rel=1e-4)

    def test_monotone_in_k(self):
        roots = [dispersive_mode_solve(MODEL, k) for k in (1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_root_stays_below_resonance(self):
        assert dispersive_mode_solve(MODEL, 500.0) < MODEL.omega0
        # vanishing coupling: the root sits on omega0 itself
        w = dispersive_mode_solve(LorentzModel(1.0 + 1e-12, 1.0), 500.0)
        assert math.isfinite(w) and 0.0 < w <= 1.0
        # k/omega0 = 1e200: the root sits on omega0
        assert dispersive_mode_solve(LorentzModel(2.0, 1e-200), 1.0) == pytest.approx(1e-200, rel=1e-15)

    def test_vacuum_branch(self):
        assert dispersive_mode_solve(LorentzModel(1.0, 10.0), 37.5) == 37.5

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            dispersive_mode_solve(MODEL, 0.0)


class TestPhotonIndex:
    def test_limits(self):
        m = LorentzModel(eps_bar=2.0, omega0=1.0)
        assert photon_index(m, 1e-3) == pytest.approx(math.sqrt(2.0), rel=1e-5)
        assert photon_index(m, 1e3) == pytest.approx(1.0, rel=1e-5)
        # k^2 underflows: the static index, not 0/0
        assert photon_index(m, 1e-300) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        # at omega0 = 3e-200 and 3e200 the unscaled omega0^2 or k^2 under- or overflows
        for w0, eb in itertools.product((3e-200, 3.0, 3e200), BRANCH_EPS):
            model = LorentzModel(eb, w0)
            for j in range(-12, 13):
                k = w0 * 10 ** (j / 2)
                w = k / photon_index(model, k)
                # below the resonance up to k = omega0, above the gap after it
                if k <= w0:
                    assert w <= w0, (w0, eb, k, w)
                else:
                    assert w >= w0 * math.sqrt(eb) * (1.0 - 1e-15), (w0, eb, k, w)
                assert _mode_residual(model, w, k) <= 1e-13 * k, (w0, eb, k, w)
        # k/omega0 = 1e200 and 1e-200: the vacuum and the static index
        assert photon_index(LorentzModel(2.0, 1e-200), 1.0) == pytest.approx(1.0, rel=1e-15)
        assert photon_index(LorentzModel(2.0, 1e200), 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_gap_jump(self):
        # crossing k = omega0 hops the polariton gap: n > 1 below, n < 1 above
        m = LorentzModel(eps_bar=2.0, omega0=1.0)
        assert photon_index(m, 0.999) > 1.0
        assert photon_index(m, 1.001) < 1.0


class TestTransverseReduction:
    """The closed transverse integral against the nested k quadrature of
    the rotated spectral density it replaces."""

    @pytest.mark.parametrize("a", [0.7, 1.0, 1.9])
    @pytest.mark.parametrize("eps", [1.0, 1.37, 2.9])
    def test_pointwise(self, a, eps):
        cfg = CavityConfig(a=a, T=0.0)
        tol = Tolerance(rel=1e-13, abs=0.0)
        for zeta in (1e-3, 0.05, 0.5, 2.0, 8.0, 40.0):

            def f(k):
                return 2.0 * k * spectral_energy_density(k, zeta, cfg, eps=eps).electric_half / eps

            # at zeta = 1e-3 rounding stalls the reference short of 1e-13;
            # its own error estimate must stay well inside the comparison
            # tolerance
            nested = adaptive_quad(f, 0.0, math.inf, tol)
            assert nested.converged or nested.evaluations == 45 + 60 * 2000, (zeta, nested)
            closed = dispersion._w2_transverse_integral(zeta, eps, cfg)
            assert nested.err_estimate <= 1e-11 * abs(nested.value), (zeta, nested)
            assert abs(closed - nested.value) <= 1e-10 * abs(nested.value), (zeta, closed, nested)

    def test_w_I_matches_nested_route(self):
        model = LorentzModel(2.0, 1.0)
        inner_tol = Tolerance(rel=1e-11, abs=0.0)

        def inner(zeta):
            eps = eps_imag_axis(model, zeta)

            def f(k):
                p = spectral_energy_density(k, zeta, CFG0, eps=eps)
                return k * (p.electric_half + p.magnetic_half)

            return adaptive_quad(f, 0.0, math.inf, inner_tol).value

        outer = adaptive_quad(inner, 0.0, math.inf, Tolerance(rel=1e-9, abs=0.0))
        nested = CFG0.a / (2.0 * math.pi**2) * outer.value
        assert w_I_energy(model, CFG0).value == pytest.approx(nested, rel=1e-9)


class TestWIEnergy:
    def test_vacuum_limit(self):
        w = w_I_energy(LorentzModel(1.0, 10.0), CFG0)
        assert w.value == pytest.approx(-PI2_720, rel=1e-8)

    def test_stiff_resonance_reduces_to_constant_index(self):
        # omega0 -> inf with eps_bar = n^2 = 4 fixed: eps(i zeta) -> 4 uniformly
        w = w_I_energy(LorentzModel(4.0, 1e4), CFG0)
        assert w.value == pytest.approx(-PI2_720 / 2.0, rel=1e-6)

    def test_intermediate_model_is_bracketed(self):
        w = w_I_energy(LorentzModel(2.0, 1.0), CFG0)
        assert -PI2_720 < w.value < -PI2_720 / math.sqrt(2.0)

    def test_requires_zero_temperature(self):
        with pytest.raises(ValueError):
            w_I_energy(MODEL, CavityConfig(a=1.0, T=1.0))


class TestW2Cutoff:
    def test_divergence_scan_grows(self):
        soft = LorentzModel(eps_bar=2.0, omega0=0.2)
        res = w2_density_cutoff(soft, CFG0, CutoffSpec(omega_max=2.0))
        mags = [abs(v) for _, v in res.scan]
        assert mags[0] < mags[1] < mags[2]
        assert res.value.value == res.scan[0][1]
        assert res.value.value < 0

    def test_vacuum_model_vanishes(self):
        res = w2_density_cutoff(LorentzModel(1.0, 1.0), CFG0, CutoffSpec(omega_max=5.0))
        assert res.value.value == 0.0
        assert all(v == 0.0 for _, v in res.scan)

    def test_separation_prefactor_linear(self, monkeypatch):
        # with the transverse integral mocked to a constant, only the
        # explicit 2a prefactor can carry the a-dependence
        monkeypatch.setattr(dispersion, "_w2_transverse_integral", lambda *args: 1.0)
        soft = LorentzModel(eps_bar=2.0, omega0=0.2)
        one = w2_density_cutoff(soft, CavityConfig(a=1.0, T=0.0), CutoffSpec(2.0))
        two = w2_density_cutoff(soft, CavityConfig(a=2.0, T=0.0), CutoffSpec(2.0))
        assert two.value.value == pytest.approx(2.0 * one.value.value, rel=1e-14)

    def test_cutoff_spec_validation(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                CutoffSpec(omega_max=bad)
