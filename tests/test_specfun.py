import math

import mpmath as mp
import pytest

from casimir.specfun import riemann_zeta, hurwitz_zeta, solid_angle


class TestRiemannZeta:
    def test_known_values(self):
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
        # frozen from direct summation with an integral tail bound
        assert riemann_zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-13)

    def test_against_mpmath(self):
        with mp.workdps(30):
            for s in [1.1, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0]:
                assert riemann_zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)


def _hurwitz_brute(s, q, terms=10**6):
    # brute-force oracle: partial sum plus integral tail bracket
    partial = sum((k + q) ** (-s) for k in range(terms - 1, -1, -1))
    tail = (terms + q) ** (1.0 - s) / (s - 1.0)
    return partial + tail


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        assert hurwitz_zeta(4.0, 1.0) == pytest.approx(riemann_zeta(4.0), rel=1e-14)

    def test_half_argument_identity(self):
        # zeta_H(s, 1/2) = (2^s - 1) zeta(s)
        assert hurwitz_zeta(4.0, 0.5) == pytest.approx(15.0 * riemann_zeta(4.0), rel=1e-13)

    def test_frozen_quarter_point(self):
        # frozen from the brute-force oracle (10^6 terms + tail bound)
        assert hurwitz_zeta(5.0, 0.25) == pytest.approx(1024.3489745265806, rel=1e-13)

    def test_brute_force_oracle(self):
        brute = _hurwitz_brute(5.0, 0.25, terms=20000)
        assert hurwitz_zeta(5.0, 0.25) == pytest.approx(brute, rel=1e-12)

    def test_against_mpmath_grid(self):
        with mp.workdps(30):
            for s in [1.5, 2.0, 4.0, 6.0, 8.0]:
                for q in [0.1, 0.3, 0.5, 0.9, 1.0, 2.5, 7.0]:
                    assert hurwitz_zeta(s, q) == pytest.approx(
                        float(mp.zeta(s, q)), rel=1e-12
                    )

    def test_symmetric_combination(self):
        f = lambda q: hurwitz_zeta(6.0, q) + hurwitz_zeta(6.0, 1.0 - q)
        assert f(0.3) == pytest.approx(f(0.7), rel=1e-14)

    def test_index_shift_identity(self):
        s, q = 4.0, 0.6
        lhs = hurwitz_zeta(s, q) - q ** (-s)
        assert lhs == pytest.approx(hurwitz_zeta(s, q + 1.0), rel=1e-12)

    def test_leading_divergence_at_small_q(self):
        # q^s zeta_H(s, q) -> 1 as q -> 0+; the wall divergence of the
        # higher-dimensional density profile rests on this
        s, q = 5.0, 1e-4
        assert abs(q**s * hurwitz_zeta(s, q) - 1.0) < 1e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(0.5, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)


class TestSolidAngle:
    def test_circle_sphere_glome(self):
        assert solid_angle(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert solid_angle(3) == pytest.approx(4 * math.pi, rel=1e-14)
        # 2 pi^2 from the formula with Gamma(2) = 1
        assert solid_angle(4) == pytest.approx(2 * math.pi**2, rel=1e-13)

    def test_degenerate_and_errors(self):
        assert solid_angle(1) == pytest.approx(2.0, rel=1e-14)  # two endpoints
        with pytest.raises(ValueError):
            solid_angle(0)
        with pytest.raises(ValueError):
            solid_angle(2.5)
