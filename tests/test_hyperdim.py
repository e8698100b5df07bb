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
    mode_energy,
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


class TestHyperConfig:
    def test_spatial_dimension(self):
        cfg = HyperConfig(dim=4)
        assert (cfg.D, cfg.d) == (4, 3)

    def test_rejects_low_or_noninteger(self):
        for dim in (2, 4.5, True, "4"):
            with pytest.raises(ValueError, match="spacetime dimension must be"):
                HyperConfig(dim=dim)


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

    @pytest.mark.parametrize("D", range(3, 41))
    def test_closed_error_bound_against_mpmath(self, D):
        # the rounding count of pressure_closed holds, and sits below the
        # 1e-14 relative it replaces
        for a, n in ((1.0, 1.0), (0.7, 1.3), (2.35, 1.6)):
            p = pressure_closed(HyperConfig(dim=D, a=a, n=n))
            with mpmath.workdps(40):
                ref = (
                    -(D - 2) * (D - 1) * mpmath.gamma(mpmath.mpf(D) / 2) * mpmath.zeta(D)
                    / ((4 * mpmath.pi) ** (mpmath.mpf(D) / 2) * mpmath.mpf(a) ** D * n)
                )
                assert abs(p.value - ref) <= p.err_estimate
            assert p.err_estimate <= 1e-14 * abs(p.value)

    @pytest.mark.parametrize("D", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n", [1.0, 2.0])
    def test_polar_quadrature_matches_closed(self, D, n):
        cfg = HyperConfig(dim=D, n=n)
        pq = pressure_quadrature(cfg, QTOL)
        assert pq.converged
        assert abs(pq.value - pressure_closed(cfg).value) / abs(pq.value) <= 1e-8

    @pytest.mark.parametrize("D", range(3, 13))
    @pytest.mark.parametrize("n", [1.0, 2.0])
    def test_cartesian_route(self, D, n):
        # the inner k integral runs on k = n zeta sinh s, cut where its tail
        # bound is below rounding: at most 38 070 evaluations at D = 3 and
        # 30 210 at D >= 4; D = 3 holds only 3e-12 relative
        cfg = HyperConfig(dim=D, n=n)
        pq = pressure_quadrature(cfg, Tolerance(rel=1e-10, abs=0.0), route="cartesian")
        closed = pressure_closed(cfg).value
        assert pq.converged
        assert abs(pq.value - closed) <= pq.err_estimate <= 1e-9 * abs(closed), (pq, closed)
        assert pq.evaluations <= (39_000 if D == 3 else 31_000)
        # the running floor of nested_quad is deterministic
        assert pressure_quadrature(cfg, Tolerance(rel=1e-10, abs=0.0), route="cartesian") == pq

    @pytest.mark.parametrize(
        "D, a, n",
        [(3, 1.15700, 1.24252), (4, 0.962619, 1.15216), (5, 0.978994, 1.12266),
         (6, 1.13593, 1.24383)],
    )
    def test_cartesian_route_inner_values_near_underflow(self, D, a, n):
        # outer nodes where 2 a n zeta lies in (708.4, 745.1) give inner values
        # that are subnormal throughout: no relative tolerance can be met on
        # them, so each stops at the floor nested_quad grants it, in 45
        # evaluations
        cfg = HyperConfig(dim=D, a=a, n=n)
        pq = pressure_quadrature(cfg, route="cartesian")
        closed = pressure_closed(cfg).value
        assert pq.converged
        assert abs(pq.value - closed) <= pq.err_estimate
        assert pq.err_estimate <= 1e-9 * abs(closed)
        assert pq.evaluations <= 31_000  # at most 30 990
        assert pressure_quadrature(cfg, route="cartesian") == pq

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
    @pytest.mark.parametrize("D", range(3, 13))
    def test_both_routes(self, D):
        cfg = HyperConfig(dim=D)
        ident, fd = pressure_from_w1(cfg)
        closed = pressure_closed(cfg).value
        assert abs(ident.value - closed) <= 1e-12 * abs(closed)
        assert abs(fd.value - closed) <= 1e-8 * abs(closed)
        assert abs(fd.value - closed) <= fd.err_estimate
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

    @pytest.mark.parametrize("cfg", [HyperConfig(dim=4, a=1.3, n=1.5), HyperConfig(dim=5)])
    def test_scan_is_mode_energy_at_each_cutoff(self, cfg):
        res = cutoff_mode_energy(cfg, 0.5)
        assert res.value == mode_energy(cfg, 0.5)
        expected = tuple((lam, mode_energy(cfg, lam).value) for lam in (0.5, 0.25, 0.125))
        assert res.scan == expected

    @pytest.mark.parametrize("lam", [0.0, -0.5, math.nan, math.inf])
    def test_mode_energy_rejects_bad_cutoff(self, lam):
        with pytest.raises(ValueError, match="cutoff lambda must be > 0"):
            mode_energy(HyperConfig(dim=4), lam)


def _eulerian(k):
    """Coefficients of the Eulerian polynomial A_k, highest power first:
    Li_(-k)(y) = sum_m m^k y^m = y A_k(y) / (1 - y)^(k + 1)."""
    row = [1]
    for i in range(2, k + 1):
        row = [
            (j + 1) * (row[j] if j < i - 1 else 0) + (i - j) * (row[j - 1] if j else 0)
            for j in range(i)
        ]
    return row[::-1]


def mode_reference(D, a, n, lam):
    """30-digit regulated mode sum by a route that shares nothing with the
    quadrature: the sum over m comes first and is closed by
    Li_(-k)(y) = sum_m m^k y^m, y = e^(-t c), t = lam pi/a.

    With E = q cosh s, sum_m q^(D-1) e^(-lam q cosh s) = (pi/a)^(D-1)
    Li_(1-D)(y), c = cosh s.  At odd D the s integrand
    sinh^(D-3)s cosh^2 s Li_(1-D)(y) is even and analytic for
    |Im s| < pi/2 (Li_(1-D) has its poles at y = 1), so the trapezoid rule
    with step h converges like e^(-pi^2/h): h = 1/16 is far past 30 digits.
    At even D it is odd in s and the trapezoid gains only h^2; there the
    E integral is elementary instead: int_1^inf (c^2-1)^p c^2 e^(-z c) dc,
    p = (D-4)/2, is a polynomial in 1/z times e^(-z), and each power of m
    sums to some Li_(-k)(y) with k >= 0."""
    with mpmath.workdps(30):
        a, n, lam = (mpmath.mpf(x) for x in (a, n, lam))
        d = D - 1
        a_d = 2 * mpmath.pi ** ((d - 1) / mpmath.mpf(2)) / mpmath.gamma((d - 1) / mpmath.mpf(2))
        a_d *= (mpmath.pi / a) ** d / ((2 * mpmath.pi) ** (d - 1) * n)
        t = lam * mpmath.pi / a

        def li(k, y):  # Li_(-k)(y), k >= 0
            return y * mpmath.polyval(_eulerian(k), y) / (1 - y) ** (k + 1)

        if D % 2 == 0:
            # (c^2-1)^p c^2 = sum_i C(p,i) (-1)^(p-i) c^j with j = 2i + 2, and
            # int_1^inf c^j e^(-mtc) dc = e^(-mt) sum_r j!/r! (mt)^(r-j-1)
            p, y = (D - 4) // 2, mpmath.exp(-t)
            total = mpmath.mpf(0)
            for i in range(p + 1):
                j = 2 * i + 2
                for r in range(j + 1):
                    coef = mpmath.binomial(p, i) * (-1) ** (p - i) * mpmath.factorial(j)
                    total += coef / mpmath.factorial(r) * t ** (r - j - 1) * li(d + r - j - 1, y)
            return float(a_d * total)

        h = mpmath.mpf(1) / 16

        def f(s):
            c = mpmath.cosh(s)
            return mpmath.sinh(s) ** (D - 3) * c * c * li(d, mpmath.exp(-t * c))

        total, j = f(mpmath.mpf(0)) / 2, 1
        while True:
            fj = f(j * h)
            total += fj
            if t * mpmath.cosh(j * h) > 1 and fj < mpmath.mpf(10) ** -35 * total:
                return float(a_d * h * total)
            j += 1


class TestModeSumOnCoshMap:
    # every vacuum mode integral runs on E = q cosh s, where the integrand is
    # analytic at any D and every value holds 1e-14; on the E-map the
    # half-integer power at E = q raised at D = 3 and held only 4.6e-12,
    # 1.1e-12 and 2.1e-13 relative at D = 5, 7 and 9
    @pytest.mark.parametrize("a, n", [(1.1, 1.2), (0.8, 1.0)])
    @pytest.mark.parametrize("lam_over_a", [0.05, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("D", range(3, 13))
    def test_matches_mpmath_reference(self, D, lam_over_a, a, n):
        ev = mode_energy(HyperConfig(dim=D, a=a, n=n), lam_over_a * a)
        ref = mode_reference(D, a, n, lam_over_a * a)
        assert ev.converged
        assert abs(ev.value - ref) <= ev.err_estimate, (ev, ref)
        assert abs(ev.value - ref) <= 1e-14 * abs(ref), (ev, ref)

    @pytest.mark.parametrize(
        "D, a, lam, ref",
        [
            (4, 0.01, 2.3, None),
            (12, 0.01, 2.3, None),
            # from mode_reference at 120 digits, where 200 agree (at 30 and 60
            # digits its polynomial in 1/t loses the value to cancellation)
            (92, 0.003, 0.7, 1.8137128554710676e-208),
            (92, 0.003, 0.6684507609859605, 3.4540672804885526e-193),
        ],
    )
    def test_past_the_exponent_range(self, D, a, lam, ref):
        # z = lam pi/a is 722.6 at a = 0.01 and 733.0 / 700.0 at D = 92: every
        # weight is subnormal or 0, the value 1.1e-310 (subnormal), 2.4e-305,
        # 1.8e-208 and 3.5e-193, and at D = 92 most of it lies past
        # z cosh s = 745.2, where e^(-u) underflows
        ev = mode_energy(HyperConfig(dim=D, a=a), lam)
        ref = mode_reference(D, a, 1.0, lam) if ref is None else ref
        assert ev.converged
        assert abs(ev.value - ref) <= ev.err_estimate, (ev, ref)
        assert ev.err_estimate <= (1e-11 * abs(ref) if D > 4 else 1e-321)

    @pytest.mark.parametrize("D", [95, 200])
    def test_out_of_range_raises(self, D):
        # D = 90 still holds 6e-15 of an 80-digit reference; at D = 95 the sum
        # passes the double range, and at D = 200 the Eulerian numbers of
        # Li_(-199) do: OverflowError, never a value
        with pytest.raises(OverflowError, match=f"at D = {D}, lambda = 0.1 "):
            mode_energy(HyperConfig(dim=D), 0.1)

    @pytest.mark.parametrize("D", [3, 4, 5, 6])
    def test_vacuum_dispersive_model_is_the_vacuum_sum(self, D):
        # eps_bar = 1 leaves n(k) = 1 and no jump, so the dispersive sum runs
        # the same map and the same arithmetic as the vacuum one
        cfg = HyperConfig(dim=D)
        assert dispersive_hyper_energy(cfg, LorentzModel(1.0, 1.0), 0.5) == mode_energy(cfg, 0.5)

    @pytest.mark.parametrize("D", [3, 4, 8, 12])
    def test_evaluation_ceiling(self, D):
        # one cosh_quad for the whole sum: 105, 105, 225 and 225 evaluations
        # (one quadrature per mode took 16 112 at D = 4 and 23 362 at D = 8)
        ev = mode_energy(HyperConfig(dim=D), 0.1)
        assert ev.converged
        assert ev.evaluations <= 300


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
            (6, 0.957183, 1.93718, 4.21533, 0.702841),
            (7, 1.02377, 2.04417, 3.91742, 0.671029),
            (8, 1.11105, 1.81403, 3.60498, 0.780362),
        ],
    )
    def test_matches_mpmath_reference(self, D, a, eps_bar, omega0, lam):
        ev = dispersive_hyper_energy(HyperConfig(dim=D, a=a), LorentzModel(eps_bar, omega0), lam)
        ref = _dispersive_reference(D, a, eps_bar, omega0, lam)
        assert ev.converged
        assert abs(ev.value - ref) <= ev.err_estimate, (ev, ref)
        assert abs(ev.value - ref) <= 1e-10 * abs(ref), (ev, ref)

    def test_evaluation_ceiling(self):
        # modes m >= 2 stop at a floor of 1e-2 tol.rel times the largest
        # mode: 7717 evaluations, 23 437 when every mode ran to 1e-11 relative
        ev = dispersive_hyper_energy(HyperConfig(dim=5), LorentzModel(2.0, 4.0), 0.7)
        assert ev.converged
        assert ev.evaluations <= 9_000

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

    def test_rejects_infinite_cutoff(self):
        with pytest.raises(ValueError, match="cutoff lambda must be > 0"):
            dispersive_hyper_energy(HyperConfig(dim=4), LorentzModel(2.0, 1.0), math.inf)

    def test_requires_unit_background_index(self):
        with pytest.raises(ValueError):
            dispersive_hyper_energy(HyperConfig(dim=4, n=2.0), LorentzModel(2.0, 1.0), 0.5)
