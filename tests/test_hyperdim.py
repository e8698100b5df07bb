import math

import mpmath
import pytest

from casimir.engine import Tolerance
from casimir.dispersion import LorentzModel, photon_index
from casimir.hyperdim import (
    HyperConfig,
    pressure_quadrature,
    pressure_closed,
    density_profile,
    pressure_from_w1,
    cutoff_mode_energy,
    dispersive_hyper_energy,
)

# frozen 50-digit evaluations of -(D-2)(D-1) Gamma(D/2) zeta(D)/((4 pi)^(D/2) a^D)
P_CLOSED = {
    4: -0.04112335167120566,
    5: -0.02954889773513956,
    6: -0.02050679674623004,
    7: -0.01429137221492061,
    8: -0.01014678031604192,
}
# f_6(1/2) = 2 (2^6 - 1) zeta(6)
F6_HALF = 128.18522581004059

QTOL = Tolerance(rel=1e-11, abs=0.0)


class TestPressure:
    def test_classic_value(self):
        assert pressure_closed(HyperConfig(dim=4)).value == pytest.approx(
            -math.pi**2 / 240.0, rel=1e-14
        )

    @pytest.mark.parametrize("D", [4, 5, 6, 7, 8])
    def test_closed_frozen_values(self, D):
        assert pressure_closed(HyperConfig(dim=D)).value == pytest.approx(
            P_CLOSED[D], rel=1e-13
        )

    @pytest.mark.parametrize("D", [344, 400, 401])
    def test_closed_past_gamma_overflow(self, D):
        # Gamma(D/2) alone overflows a double from D = 344 on; the pressure does not
        cfg = HyperConfig(dim=D, a=1.1, n=1.5)
        p = pressure_closed(cfg)
        with mpmath.workdps(30):
            ref = (
                -(D - 2) * (D - 1) * mpmath.gamma(mpmath.mpf(D) / 2) * mpmath.zeta(D)
                / ((4 * mpmath.pi) ** (mpmath.mpf(D) / 2) * mpmath.mpf(cfg.a) ** D * cfg.n)
            )
            assert p.converged
            assert abs(p.value - ref) <= p.err_estimate

    @pytest.mark.parametrize("D", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n", [1.0, 2.0])
    def test_polar_quadrature_matches_closed(self, D, n):
        cfg = HyperConfig(dim=D, n=n)
        pq = pressure_quadrature(cfg, QTOL)
        assert pq.converged
        assert abs(pq.value - pressure_closed(cfg).value) / abs(pq.value) <= 1e-8

    @pytest.mark.parametrize("D", [4, 5])
    def test_cartesian_route(self, D):
        cfg = HyperConfig(dim=D, n=2.0)
        pq = pressure_quadrature(cfg, Tolerance(rel=1e-10, abs=0.0), route="cartesian")
        assert abs(pq.value - pressure_closed(cfg).value) / abs(pq.value) <= 1e-8

    def test_separation_scaling(self):
        # P ~ a^-D
        p1 = pressure_closed(HyperConfig(dim=4)).value
        p2 = pressure_closed(HyperConfig(dim=4, a=2.0)).value
        assert p2 == pytest.approx(p1 / 16.0, rel=1e-14)

    def test_index_scaling(self):
        p = pressure_closed(HyperConfig(dim=4, n=2.0))
        assert p.value == pytest.approx(-math.pi**2 / 480.0, rel=1e-14)

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            pressure_quadrature(HyperConfig(dim=4), route="spherical")


class TestDensityProfile:
    def test_anomaly_absent_at_D4(self):
        prof = density_profile(HyperConfig(dim=4), [i / 10.0 for i in range(1, 10)])
        assert all(v == 0.0 for v in prof.w2_values)
        assert all(t == prof.w1 for t in prof.total)

    def test_D6_midpoint(self):
        cfg = HyperConfig(dim=6)
        prof = density_profile(cfg, [0.5])
        pref = -4.0 * math.gamma(3.0) / (4.0 * math.pi) ** 3
        assert prof.w2_values[0] == pytest.approx(pref * F6_HALF, rel=1e-12)

    def test_mirror_symmetry(self):
        prof = density_profile(HyperConfig(dim=6), [0.25, 0.75])
        assert prof.w2_values[0] == pytest.approx(prof.w2_values[1], rel=1e-14)
        assert prof.total[0] == pytest.approx(prof.total[1], rel=1e-14)

    def test_wall_divergence_power(self):
        # u^D f_D(u) -> 1 at the wall
        from casimir.specfun import hurwitz_zeta

        u, D = 1e-3, 6
        f = hurwitz_zeta(float(D), u) + hurwitz_zeta(float(D), 1.0 - u)
        assert abs(u**D * f - 1.0) < 1e-2

    def test_anomaly_separation_independent(self):
        # a^D w2(u) at fixed u = z/a does not depend on a: no force from w2
        u = [0.3]
        w2_a1 = density_profile(HyperConfig(dim=6, a=1.0), u).w2_values[0]
        w2_a2 = density_profile(HyperConfig(dim=6, a=2.0), u).w2_values[0]
        assert abs(2.0**6 * w2_a2 - w2_a1) <= 1e-12 * abs(w2_a1)

    def test_medium_scaling(self):
        one = density_profile(HyperConfig(dim=6), [0.4])
        two = density_profile(HyperConfig(dim=6, n=2.0), [0.4])
        assert two.w1 == pytest.approx(one.w1 / 2.0, rel=1e-14)
        assert two.w2_values[0] == pytest.approx(one.w2_values[0] / 2.0, rel=1e-14)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            density_profile(HyperConfig(dim=3), [0.5])
        with pytest.raises(ValueError):
            density_profile(HyperConfig(dim=6), [0.0, 0.5])
        for bad in ({"a": math.inf}, {"a": math.nan}, {"n": math.nan}, {"n": math.inf}):
            with pytest.raises(ValueError):
                HyperConfig(dim=4, **bad)


class TestPressureFromDensity:
    @pytest.mark.parametrize("D", [4, 5, 6])
    def test_both_routes(self, D):
        cfg = HyperConfig(dim=D)
        ident, fd = pressure_from_w1(cfg)
        closed = pressure_closed(cfg).value
        assert abs(ident.value - closed) <= 1e-12 * abs(closed)
        assert abs(fd.value - closed) <= 1e-8 * abs(closed)
        assert fd.method == "finite_difference"

    def test_D4_identity_is_classic(self):
        ident, _ = pressure_from_w1(HyperConfig(dim=4))
        assert ident.value == pytest.approx(3.0 * (-math.pi**2 / 720.0), rel=1e-14)


class TestCutoffModeSum:
    def test_index_enters_only_as_prefactor(self):
        one = cutoff_mode_energy(HyperConfig(dim=4), 0.1)
        two = cutoff_mode_energy(HyperConfig(dim=4, n=2.0), 0.1)
        assert two.value.value == pytest.approx(one.value.value / 2.0, rel=1e-14)

    def test_divergence_exponent(self):
        # |W| ~ lambda^-D for small lambda: halving fits the exponent
        res = cutoff_mode_energy(HyperConfig(dim=4), 0.1)
        (l0, v0), (l1, v1), (l2, v2) = res.scan
        assert (l1, l2) == (0.05, 0.025)
        for ratio in (v1 / v0, v2 / v1):
            exponent = math.log2(ratio)
            assert abs(exponent - 4.0) <= 0.2 * 4.0

    def test_mode_truncation_bound(self):
        # at D = 4 each mode integral is elementary,
        # int_q^inf E^2 e^(-lam E) dE = e^(-lam q)(q^2/lam + 2q/lam^2 + 2/lam^3),
        # q = pi m/a, so every scan value has a closed mode sum
        cfg = HyperConfig(dim=4, a=1.3, n=1.5)

        def closed(lam):
            terms = []
            for m in range(1, 10**5):
                q = math.pi * m / cfg.a
                t = math.exp(-lam * q) * (q * q / lam + 2 * q / lam**2 + 2 / lam**3)
                terms.append(t)
                if t < 1e-20 * terms[0]:
                    break
            return math.fsum(terms) / (2 * math.pi * cfg.n)

        res = cutoff_mode_energy(cfg, 0.5)
        assert [lam for lam, _ in res.scan] == [0.5, 0.25, 0.125]
        for lam, value in res.scan:
            assert abs(value - closed(lam)) / abs(closed(lam)) <= 1e-10

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            cutoff_mode_energy(HyperConfig(dim=4), 0.0)


def _dispersive_reference(D, a, eps_bar, omega0, lam):
    """20-digit mode sum with the photon branch read off the quadratic
    x^2 - (eps_bar w0^2 + E^2) x + E^2 w0^2 = 0 (x = omega^2, lower root
    for E <= omega0, upper above), each mode integral split at omega0."""
    with mpmath.workdps(20):
        a, eps_bar, w0, lam = (mpmath.mpf(x) for x in (a, eps_bar, omega0, lam))
        d = D - 1
        nu = mpmath.mpf(d - 3) / 2
        a_d = 2 * mpmath.pi ** ((d - 1) / mpmath.mpf(2)) / mpmath.gamma((d - 1) / mpmath.mpf(2))
        a_d /= (2 * mpmath.pi) ** (d - 1)

        def term(m):
            q = mpmath.pi * m / a

            def f(e):
                b = eps_bar * w0**2 + e * e
                disc = mpmath.sqrt(b * b - 4 * e * e * w0**2)
                x = (b - disc) / 2 if e <= w0 else (b + disc) / 2
                return (e * e - q * q) ** nu * e * mpmath.sqrt(x) * mpmath.exp(-lam * e)

            return mpmath.quad(f, [q, w0, mpmath.inf] if q < w0 else [q, mpmath.inf])

        total, m = mpmath.mpf(0), 1
        while True:
            t = term(m)
            total += t
            if abs(t) < mpmath.mpf(10) ** -18 * abs(total):
                return float(a_d * total)
            m += 1


class TestDispersiveModeSum:
    # (D, a, eps_bar, omega0, lambda) with omega0 inside the first mode's
    # range; without the split at omega0 the D = 4 value missed its own
    # err_estimate (1.3e-12 vs 4.0e-13 relative) and the D = 8 value was
    # off by 1.3e-6
    @pytest.mark.parametrize(
        "D, a, eps_bar, omega0, lam",
        [
            (4, 1.08751, 1.82512, 3.68927, 0.757372),
            (5, 0.839215, 2.10322, 4.79217, 0.583517),
            (8, 1.11105, 1.81403, 3.60498, 0.780362),
        ],
    )
    def test_matches_mpmath_reference(self, D, a, eps_bar, omega0, lam):
        ev = dispersive_hyper_energy(HyperConfig(dim=D, a=a), LorentzModel(eps_bar, omega0), lam)
        ref = _dispersive_reference(D, a, eps_bar, omega0, lam)
        assert ev.converged
        assert abs(ev.value - ref) <= ev.err_estimate, (ev, ref)
        assert abs(ev.value - ref) <= 1e-10 * abs(ref), (ev, ref)

    @pytest.mark.parametrize("omega0", [1e6, 1e15, 1e100])
    def test_stiff_medium_sees_static_index(self, omega0):
        # omega0 far above every wavenumber the regulator weighs: n(k) is
        # sqrt(eps_bar) up to (k/omega0)^2, however far out the split lies
        cfg = HyperConfig(dim=4)
        ev = dispersive_hyper_energy(cfg, LorentzModel(2.0, omega0), 0.5)
        static = cutoff_mode_energy(HyperConfig(dim=4, n=math.sqrt(2.0)), 0.5).value
        assert ev.converged
        assert abs(ev.value - static.value) <= 1e-9 * abs(static.value), (ev, static)

    def test_vacuum_model_reduces_exactly(self):
        cfg = HyperConfig(dim=4)
        vac = cutoff_mode_energy(cfg, 0.5).value.value
        disp = dispersive_hyper_energy(cfg, LorentzModel(1.0, 1.0), 0.5).value
        assert abs(disp - vac) / abs(vac) <= 1e-8

    def test_high_wavenumber_dominance(self):
        # as lambda shrinks the regulator probes k >> omega0 where n -> 1,
        # so the ratio to the vacuum sum walks in to 1
        cfg = HyperConfig(dim=4)
        model = LorentzModel(eps_bar=2.0, omega0=1.0)
        devs = []
        for lam in (2.0, 1.0, 0.5):
            disp = dispersive_hyper_energy(cfg, model, lam).value
            vac = cutoff_mode_energy(cfg, lam).value.value
            devs.append(abs(disp / vac - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_low_wavenumber_suppression(self):
        # for pi/a << omega0 the lowest mode sees the static index sqrt(eps_bar)
        model = LorentzModel(eps_bar=2.0, omega0=100.0)
        assert photon_index(model, math.pi) == pytest.approx(math.sqrt(2.0), rel=1e-3)

    def test_requires_unit_background_index(self):
        with pytest.raises(ValueError):
            dispersive_hyper_energy(HyperConfig(dim=4, n=2.0), LorentzModel(2.0, 1.0), 0.5)
