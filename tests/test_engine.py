import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import casimir
from casimir.engine import ROUNDING, Accumulator, EnergyValue, Tolerance
from casimir.engine import adaptive_quad, cosh_quad, nested_quad, nested_sum, sum_series, finite_diff
from casimir.engine import _GL_NODES, _GL_WEIGHTS, _EXP_UNDERFLOW, _cosh_margin, _cosh_tail
from casimir.engine import _cosh_rounding, _eulerian

ZETA3 = 1.2020569031595943  # sum 1/k^3, frozen from a high-precision partial sum
TIGHT = Tolerance(rel=1e-12, abs=0.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)
    with pytest.raises(ValueError):
        Tolerance(max_iter=0)
    for bad in ({"rel": math.inf}, {"rel": math.nan}, {"abs": math.nan}, {"abs": math.inf}):
        with pytest.raises(ValueError):
            Tolerance(**bad)


class TestGaussLegendreRule:
    @staticmethod
    def _mp_rule(n=15):
        # roots of P_n by Newton from the standard cosine guesses, 40 digits
        with mp.workdps(40):

            def dp(x):
                return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

            nodes = []
            for i in range(n):
                x = mp.cos(mp.pi * (i + mp.mpf(0.75)) / (n + mp.mpf(0.5)))
                for _ in range(50):
                    step = mp.legendre(n, x) / dp(x)
                    x -= step
                    if abs(step) < mp.mpf(10) ** -38:
                        break
                nodes.append(x)
            nodes.sort()
            return nodes, [2 / ((1 - x * x) * dp(x) ** 2) for x in nodes]

    def test_nodes_and_weights_match_mpmath(self):
        nodes, weights = self._mp_rule()
        assert len(_GL_NODES) == len(_GL_WEIGHTS) == 15
        assert list(_GL_NODES) == sorted(_GL_NODES)
        for x, ref in zip(_GL_NODES, nodes):
            assert abs(x - ref) <= 2.3e-16
        for w, ref in zip(_GL_WEIGHTS, weights):
            assert abs(w - ref) <= 1e-15

    def test_monomials_exact_through_degree_29(self):
        for k in range(30):
            approx = sum(w * x**k for x, w in zip(_GL_NODES, _GL_WEIGHTS))
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(approx - exact) <= 1e-15, k


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(casimir.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, casimir, casimir.cli; "
        "print('numpy' in sys.modules, 'mpmath' in sys.modules, 'decimal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False False"


class TestAdaptiveQuad:
    def test_bose_integral(self):
        res = adaptive_quad(lambda x: x**3 / math.expm1(x) if x < 700 else 0.0, 0.0, math.inf, TIGHT)
        assert res.converged
        assert res.value == pytest.approx(math.pi**4 / 15, rel=1e-11)

    def test_exponential(self):
        res = adaptive_quad(lambda x: math.exp(-x), 0.0, math.inf, TIGHT)
        assert res.value == pytest.approx(1.0, rel=1e-11)

    def test_log_kernel(self):
        # int_0^inf x ln(1-e^-x) dx = -zeta(3): expand the log and integrate
        # term by term, giving -sum 1/k^3
        res = adaptive_quad(
            lambda x: x * math.log1p(-math.exp(-x)), 0.0, math.inf, TIGHT
        )
        assert res.value == pytest.approx(-ZETA3, rel=1e-11)

    def test_polynomial_degree_5_exact(self):
        poly = lambda x: 2 * x**5 - x**4 + 3 * x**3 - x**2 + x - 7.0
        anti = lambda x: x**6 / 3 - x**5 / 5 + 3 * x**4 / 4 - x**3 / 3 + x**2 / 2 - 7.0 * x
        res = adaptive_quad(poly, 1.0, 3.0, TIGHT)
        assert res.value == pytest.approx(anti(3.0) - anti(1.0), rel=1e-13)

    def test_error_estimate_honors_tolerance(self):
        tol = Tolerance(rel=1e-9, abs=1e-14)
        res = adaptive_quad(lambda x: math.exp(-x * x), 0.0, math.inf, tol)
        assert res.converged
        assert res.err_estimate <= max(tol.rel * abs(res.value), tol.abs)
        assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-9)

    def test_nan_is_hard_error(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: math.nan, 0.0, 1.0)

    def test_nan_error_stops_at_once(self):
        # inf - inf makes the panel error NaN, and no split can mend it
        res = adaptive_quad(lambda x: math.inf, 0.0, 1.0)
        assert not res.converged and res.evaluations == 45

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            adaptive_quad(math.sin, 2.0, 1.0)

    def test_nonconvergence_flagged_not_raised(self):
        # 2000 splits do not resolve the oscillations that pile up at x = 0
        res = adaptive_quad(lambda x: math.sin(50.0 / (x + 1e-3)), 0.0, 1.0, TIGHT)
        assert not res.converged and res.evaluations == 45 + 60 * 2000

    @pytest.mark.parametrize(
        "f, hi, converged",
        [
            (lambda x: math.exp(-x), math.inf, True),
            (lambda x: math.sin(50.0 / (x + 1e-3)), 1.0, False),
        ],
    )
    def test_evaluations_count_integrand_calls(self, f, hi, converged):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        res = adaptive_quad(counted, 0.0, hi, TIGHT)
        assert res.converged is converged and res.method == "quadrature"
        assert res.evaluations == len(calls) > 45
        assert (res.evaluations - 45) % 60 == 0
        assert converged or res.evaluations == 45 + 60 * 2000

    def test_node_that_rounds_onto_the_end_of_the_map_adds_nothing(self):
        # on x = t/(1 - t) the outermost nodes of the last panels round onto
        # t = 1; a tail too slow for 2000 splits reaches them, and they add 0
        # instead of dividing by zero
        res = adaptive_quad(lambda x: (1.0 + x) ** -1.1, 0.0, math.inf)
        assert not res.converged and res.evaluations == 45 + 60 * 2000
        assert math.isfinite(res.value) and res.value < 10.0


def _mp_cosh_tail(j, p, q, z, x1, order):
    """30-digit q^(m+1) int_(s1)^inf sinh^j s cosh^(p+1) s w(z cosh s) ds,
    m = j + p, x1 = z cosh s1, in x = z cosh s = x1 + y with the e^(-x1) of
    w taken out of the integral, which then is of order 1.  order None is
    w = e^(-u); order k >= 0 is Li_(-k)(e^(-u)) = e^(-u) A_k(e^(-u))/(1 - e^(-u))^(k+1),
    A_k the Eulerian polynomial (k = 0 the Bose weight).  Breakpoints a
    factor 100 apart resolve the scales of x from z up: Li_(-k) grows like
    k!/u^(k+1) at small u."""
    with mp.workdps(30):
        q, z, x1 = mp.mpf(q), mp.mpf(z), mp.mpf(x1)
        coefs = [mp.mpf(int(c)) for c in _eulerian(order or 0)]
        e1 = mp.exp(-x1)

        def f(y):
            x = x1 + y
            ey = mp.exp(-y)
            w = ey
            if order is not None:
                e = e1 * ey
                w *= mp.polyval(coefs, e) / (1 - e if x > 1 else -mp.expm1(-x)) ** (order + 1)
            # ((x - z)(x + z))^((j - 1)/2), with integer powers and one sqrt
            s2 = (x - z) * (x + z)
            root = s2 ** ((j - 1) // 2) * (mp.sqrt(s2) if j % 2 == 0 else 1)
            return root * x ** (p + 1) * w

        points, edge = [mp.mpf(0)], x1
        while edge < 1:
            points.append(edge)
            edge *= 100
        return (q / z) ** (j + p + 1) * e1 * mp.quad(f, points + [mp.mpf(1), mp.inf])


def _mp_cosh_value(shape, j, p, q, z):
    """The whole integral at 30 digits: closed forms for em's sinh * Bose,
    -(q/z) ln(1 - e^(-z)), and for the mode weight e^(-u), through
    int_0^inf sinh^(2 nu) s e^(-z cosh s) ds = Gamma(nu + 1/2) (2/z)^nu K_nu(z)/sqrt(pi)
    with cosh^2 = 1 + sinh^2; the Bose weight (cartesian inner) and the
    polylogarithm weights as the tail from z."""
    with mp.workdps(30):
        qm, zm = mp.mpf(q), mp.mpf(z)
        if shape == "em":
            return qm / zm * -mp.log1p(-mp.exp(-zm))
        if shape == "mode":
            def sinh_moment(k):  # int_0^inf sinh^k s e^(-z cosh s) ds
                nu = mp.mpf(k) / 2
                return mp.gamma(nu + 0.5) * (2 / zm) ** nu * mp.besselk(nu, zm) / mp.sqrt(mp.pi)

            return qm ** (j + 2) * (sinh_moment(j) + sinh_moment(j + 2))
        return _mp_cosh_tail(j, p, q, z, z, _weight(shape))


def _weight(shape):
    # the cosh_quad weight of a shape: e^(-u), or the order k of Li_(-k)
    # (k = 0 the Bose weight)
    if shape.startswith("li"):
        return int(shape[2:])
    return "exp" if shape == "mode" else 0


# the mode integrals and the cartesian inner integral at D = 3..12, em's
# inner integral; (shape, j, p)
COSH_SHAPES = (
    [("mode", D - 3, 1) for D in range(3, 13)]
    + [("bose", D - 3, 1) for D in range(3, 13)]
    + [("em", 1, -1)]
)
# the weights Li_(-k)(e^(-u)), k = 1..11: the summed mode integrals at
# D = k + 1 (j = k - 2, p = 1), and j = p = 0 at k = 1
LI_SHAPES = [("li1", 0, 0)] + [(f"li{k}", k - 2, 1) for k in range(2, 12)]


class TestCoshQuad:
    @pytest.mark.parametrize("z", [1e-8, 1e-3, 0.1, 1.0, 10.0, 100.0, 700.0])
    @pytest.mark.parametrize("shape, j, p", COSH_SHAPES + LI_SHAPES)
    def test_tail_bound_and_value(self, shape, j, p, z):
        # q = e^(z/(m+1)) keeps the value and the tail normal numbers at z = 700
        q = math.exp(z / (j + p + 1))
        weight = _weight(shape)
        ev = cosh_quad(j, p, q, z, weight, Tolerance(rel=1e-13, abs=0.0))
        x1 = min(z + _cosh_margin(j + p), _EXP_UNDERFLOW)
        order = weight if isinstance(weight, int) else 0
        bound = _cosh_tail(j, p, q, z, x1, order, _eulerian(order))
        tail = _mp_cosh_tail(j, p, q, z, x1, None if weight == "exp" else order)
        assert ev.converged
        assert bound >= tail
        if x1 < _EXP_UNDERFLOW:
            assert bound <= ROUNDING * abs(ev.value)
        else:
            # cut at the underflow of e^(-u), 45.2 past z = 700: at D = 11
            # and 12 the dropped part itself is 1.9 and 6.3 ROUNDING |value|
            assert bound <= 1.01 * tail
        ref = _mp_cosh_value(shape, j, p, q, z)
        assert abs(ev.value - ref) <= ev.err_estimate

    @pytest.mark.parametrize(
        "j, p, z", [(38, 1, 1.0), (38, 1, 700.0), (78, 1, 1.0), (78, 1, 700.0),
                    (89, 1, 700.0), (3, -2, 1.0), (0, 30, 1.0)]
    )
    def test_tail_bound_beyond_the_grid(self, j, p, z):
        # high powers, where at z = 700 most of the integral lies past the
        # underflow end, a negative power of cosh, and j = 0 at a high one
        q = math.exp(z / (j + p + 1))
        x1 = min(z + _cosh_margin(j + p), _EXP_UNDERFLOW)
        bound = _cosh_tail(j, p, q, z, x1, 0, _eulerian(0))
        tail = _mp_cosh_tail(j, p, q, z, x1, None)
        assert tail <= bound <= 1.5 * tail

    def test_subnormal_weights_give_an_exact_zero(self):
        ev = cosh_quad(1, 1, 1.0, 710.0, 0)
        assert (ev.value, ev.err_estimate, ev.converged, ev.evaluations) == (0.0, 0.0, True, 0)

    @pytest.mark.parametrize("weight", ["exp", "bose", 5])
    @pytest.mark.parametrize("z", [1e-8, 1e-3, 0.1, 1.0, 10.0, 100.0, 700.0])
    @pytest.mark.parametrize("shape, j, p", COSH_SHAPES)
    def test_fused_panels_equal_the_plain_integrand(self, shape, j, p, z, weight):
        # the fused panel sum must reproduce adaptive_quad over the plain
        # integrand bit for bit: value, error, evaluations and flag
        q = math.exp(z / (j + p + 1))
        scale = q ** (j + p + 1)
        order = 0 if weight in ("exp", "bose") else weight
        coefs = _eulerian(order) if order else ()

        def plain(s):
            c = math.cosh(s)
            u = z * c
            if weight == "exp":
                w = math.exp(-u)
            elif weight == "bose":
                w = math.exp(-u) / -math.expm1(-u)
            else:
                y, poly = math.exp(-u), 0.0
                for coef in coefs:
                    poly = poly * y + coef
                w = y * poly / (-math.expm1(-u)) ** 6
            return scale * math.sinh(s) ** j * c ** (p + 1) * w

        tol = Tolerance(rel=1e-13, abs=0.0)
        x1 = min(z + _cosh_margin(j + p), _EXP_UNDERFLOW)
        ref = adaptive_quad(plain, 0.0, math.acosh(x1 / z), tol)
        err = ref.err_estimate + _cosh_tail(j, p, q, z, x1, order, coefs)
        converged = ref.converged and err <= tol.target(ref.value)
        err += _cosh_rounding(j, p, order, z, ref.evaluations) * abs(ref.value)
        ev = cosh_quad(j, p, q, z, "exp" if weight == "exp" else order, tol)
        assert (ev.value, ev.err_estimate, ev.evaluations, ev.converged) == (
            ref.value, err, ref.evaluations, converged
        )

    def test_weight_is_named(self):
        for weight in (math.exp, "li", "bose", -1, 2.0, True):
            with pytest.raises(ValueError):
                cosh_quad(1, 1, 1.0, 1.0, weight)

    def test_eulerian_coefficients(self):
        # A_0..A_4, and sum_i A(k, i) = k!
        assert [_eulerian(k) for k in range(5)] == [
            (1.0,), (1.0,), (1.0, 1.0), (1.0, 4.0, 1.0), (1.0, 11.0, 11.0, 1.0)
        ]
        assert sum(_eulerian(12)) == math.factorial(12)
        with pytest.raises(OverflowError):
            _eulerian(172)

    def test_margin_meets_its_share_of_rounding(self):
        # Q(m+1, M) = Gamma(m+1, M)/m! = ROUNDING/4 defines the cut
        for m in (0, 1, 5, 10):
            with mp.workdps(30):
                share = mp.gammainc(m + 1, _cosh_margin(m), regularized=True)
            assert share == pytest.approx(ROUNDING / 4, rel=1e-6)


class TestAccumulator:
    def test_take_folds_and_returns_value(self):
        acc = Accumulator()
        assert acc.take(EnergyValue(1.5, 0.25, "quadrature", True, 45)) == 1.5
        assert acc.take(EnergyValue(-0.5, 0.5, "direct_sum", False, 3)) == -0.5
        assert (acc.value, acc.err_estimate, acc.evaluations, acc.converged) == (1.0, 0.75, 48, False)
        outer = Accumulator()
        assert outer.take(acc) == 1.0
        assert (outer.err_estimate, outer.evaluations, outer.converged) == (0.75, 48, False)


class TestNestedQuad:
    def test_inner_errors_enter_once_weighted_by_the_range(self):
        # every inner value is off by up to 1e-7 and says so: the outer sum
        # can move by at most L * 1e-7, which the estimate adds to the outer one
        tol = Tolerance(rel=1e-12, abs=0.0)

        def f(x):
            return x * x + 1e-7 * math.sin(50.0 * x)

        res = nested_quad(lambda x, floor: EnergyValue(f(x), 1e-7, "quadrature", True, 7), 0.0, 2.0, tol)
        outer = adaptive_quad(f, 0.0, 2.0, tol)
        assert res.value == outer.value
        assert res.err_estimate == outer.err_estimate + 2.0 * 1e-7
        assert res.converged and res.evaluations == 8 * outer.evaluations
        assert abs(res.value - 8.0 / 3.0) <= res.err_estimate

    def test_floor_follows_the_largest_node_so_far(self):
        tol = Tolerance(rel=1e-8, abs=0.0)
        seen = []

        def inner(x, floor):
            seen.append((abs(math.sin(x)), floor))
            return EnergyValue(math.sin(x), 0.0, "quadrature")

        res = nested_quad(inner, 0.0, 3.0, tol)
        assert res.value == pytest.approx(1.0 - math.cos(3.0), rel=1e-12)
        peak = 0.0
        for value, floor in seen:
            assert floor == 1e-2 * tol.rel * peak
            peak = max(peak, value)
        assert seen[0][1] == 0.0 and seen[-1][1] > 0.0

    def test_semi_infinite_range_weights_by_the_jacobian(self):
        # on x = t/(1 - t) a node carries jac = (1 + x)^2: the floor divides
        # by it and the inner error is multiplied by it
        tol = Tolerance(rel=1e-10, abs=0.0)
        seen = []

        def inner(x, floor):
            seen.append((x, floor))
            return EnergyValue(math.exp(-x), 1e-9 * math.exp(-x), "quadrature", True, 1)

        res = nested_quad(inner, 0.0, math.inf, tol)
        outer = adaptive_quad(lambda x: math.exp(-x), 0.0, math.inf, tol)
        assert res.value == outer.value
        worst = max(1e-9 * math.exp(-x) * (1.0 + x) ** 2 for x, _ in seen)
        assert res.err_estimate - outer.err_estimate == pytest.approx(worst, rel=1e-12)
        peak = 0.0
        for x, floor in seen:
            jac = (1.0 + x) ** 2
            assert floor == pytest.approx(1e-2 * tol.rel * peak / jac, rel=1e-12, abs=0.0)
            peak = max(peak, math.exp(-x) * jac)

    def test_a_tiny_node_at_relative_error_one_costs_its_own_error(self):
        # the node where e^(-x) is below 1e-20 is wholly uncertain; the
        # largest relative inner error times |value| would charge all of
        # the value, the weighted bound charges L times that node's 1e-20
        tiny = []

        def inner(x, floor):
            v = math.exp(-x)
            if v < 1e-20:
                tiny.append(v)
            return EnergyValue(v, v if v < 1e-20 else 1e-14 * v, "quadrature", True, 1)

        res = nested_quad(inner, 0.0, 50.0, Tolerance(rel=1e-10, abs=0.0))
        outer = adaptive_quad(lambda x: math.exp(-x), 0.0, 50.0, Tolerance(rel=1e-10, abs=0.0))
        assert tiny  # the case is present
        assert res.err_estimate <= outer.err_estimate + 50.0 * 1e-14
        assert res.err_estimate <= 1e-11 * abs(res.value)

    def test_flags_and_counts_fold_every_inner_result(self):
        calls = []

        def inner(x, floor):
            calls.append(x)
            return EnergyValue(1.0, 0.0, "quadrature", len(calls) != 20, 3)

        res = nested_quad(inner, -1.0, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-15)
        assert not res.converged
        assert res.evaluations == 45 + 3 * len(calls) and len(calls) == 45

    def test_repeat_calls_are_bit_identical(self):
        def inner(x, floor):
            return cosh_quad(1, -1, 1.0, 1.0 + x, 0, Tolerance(rel=1e-12, abs=floor))

        first = nested_quad(inner, 0.0, math.inf)
        assert first.converged
        assert nested_quad(inner, 0.0, math.inf) == first

    def test_node_that_rounds_onto_the_end_of_the_map_adds_nothing(self):
        # as in adaptive_quad: the node at t = 1 adds 0 and calls no inner
        seen = []

        def inner(x, floor):
            seen.append(x)
            return EnergyValue((1.0 + x) ** -1.1, 0.0, "quadrature", True, 1)

        res = nested_quad(inner, 0.0, math.inf)
        outer = adaptive_quad(lambda x: (1.0 + x) ** -1.1, 0.0, math.inf)
        assert res.value == outer.value and not res.converged
        assert math.inf not in seen
        assert res.evaluations == outer.evaluations + len(seen) < 2 * outer.evaluations

    def test_rejects_bad_ranges(self):
        for lo, hi in ((1.0, 1.0), (2.0, 1.0), (-math.inf, 0.0)):
            with pytest.raises(ValueError):
                nested_quad(lambda x, floor: EnergyValue(1.0, 0.0, "quadrature"), lo, hi)


class TestNestedSum:
    def test_floor_follows_the_largest_term_so_far(self):
        # |terms| that peak at m = 2, where the term is negative: the floor
        # tracks the largest |term| already returned, 0 for the first
        tol = Tolerance(rel=1e-8, abs=1e-14)
        seen = []

        def term(m, floor):
            value = m * m * math.exp(-m)
            seen.append((value, floor))
            return EnergyValue(-value if m == 2 else value, 0.0, "quadrature")

        nested_sum(term, tol)
        assert seen[0][1] == 0.0
        peak = 0.0
        for value, floor in seen:
            assert floor == 1e-2 * tol.rel * peak
            peak = max(peak, value)
        assert seen[-1][1] == 1e-2 * tol.rel * 4.0 * math.exp(-2.0)

    def test_term_errors_enter_once_beside_the_series_estimate(self):
        def value(m):
            return 2.0**-m

        res = nested_sum(lambda m, floor: EnergyValue(value(m), 1e-3 * value(m), "quadrature", True, 7))
        series = sum_series(value)
        errors = 0.0
        for m in range(1, series.evaluations + 1):
            errors += 1e-3 * value(m)
        assert res.value == series.value
        assert res.err_estimate == series.err_estimate + errors
        assert res.err_estimate == pytest.approx(series.err_estimate + 1e-3, rel=1e-12)

    def test_flags_and_counts_fold_every_term(self):
        calls = []

        def term(m, floor):
            calls.append(m)
            return EnergyValue(3.0**-m, 0.0, "quadrature", m != 5, 11)

        res = nested_sum(term)
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert not res.converged
        assert res.evaluations == len(calls) + 11 * len(calls) and len(calls) > 5
        all_converged = nested_sum(lambda m, floor: EnergyValue(3.0**-m, 0.0, "quadrature", True, 11))
        assert all_converged.converged and all_converged.evaluations == res.evaluations

    def test_nan_term_raises(self):
        with pytest.raises(ValueError, match="NaN at m=3"):
            nested_sum(lambda m, floor: EnergyValue(math.nan if m == 3 else 1.0 / m**2, 0.0, "quadrature"))

    def test_repeat_calls_are_bit_identical(self):
        def term(m, floor):
            return cosh_quad(1, 1, float(m), 0.5 * m, "exp", Tolerance(rel=1e-12, abs=floor))

        first = nested_sum(term)
        assert first.converged
        assert nested_sum(term) == first


class TestSumSeries:
    def test_zeta4(self):
        res = sum_series(lambda m: 1.0 / m**4)
        assert res.converged
        assert res.value == pytest.approx(math.pi**4 / 90, rel=1e-10)

    def test_geometric(self):
        res = sum_series(lambda m: math.exp(-m))
        assert res.value == pytest.approx(1.0 / (math.e - 1.0), rel=1e-10)

    def test_log_terms(self):
        # frozen from a 50-digit partial sum; dominated by the m=1 term -e^(-4 pi)
        res = sum_series(lambda m: m**2 * math.log1p(-math.exp(-4 * math.pi * m)))
        assert res.value == pytest.approx(-3.487397083610031e-6, rel=1e-12)

    def test_refinement_stability(self):
        coarse = sum_series(lambda m: math.exp(-0.5 * m), Tolerance(rel=1e-6, abs=1e-8))
        fine = sum_series(lambda m: math.exp(-0.5 * m), Tolerance(rel=5e-7, abs=5e-9))
        assert abs(fine.value - coarse.value) < coarse.err_estimate

    def test_tail_bound_tracks_power_law_remainder(self):
        # the geometric extrapolation of a quartic tail underestimates the
        # true remainder by 4/3; it stays a faithful scale estimate
        res = sum_series(lambda m: 1.0 / m**4)
        assert abs(res.value - math.pi**4 / 90) <= 2.0 * res.err_estimate

    def test_harmonic_does_not_converge(self):
        res = sum_series(lambda m: 1.0 / m, Tolerance(max_iter=1000))
        assert not res.converged

    def test_rounding_floor(self):
        # a plain running sum of 0.1 + 0.2 - 0.3 rounds to 5.55e-17; the
        # compensated sum is the exact sum of the three doubles, 2.78e-17.
        # Every later term is an exact 0, so the tail bound is 0 and only
        # the floor covers the rounding of the terms themselves
        terms = (0.1, 0.2, -0.3)
        res = sum_series(lambda m: terms[m - 1] if m <= 3 else 0.0)
        assert res.value == 2.7755575615628914e-17
        assert res.value == float(Fraction(0.1) + Fraction(0.2) - Fraction(0.3))
        assert res.evaluations == 6 and res.converged and res.method == "direct_sum"
        assert res.err_estimate == ROUNDING * (0.1 + 0.2 + 0.3)
        assert abs(res.value) <= res.err_estimate

    def test_overflowed_sum_stays_infinite(self):
        # the compensation term of inf - inf is NaN; the value stays inf
        res = sum_series(lambda m: 1e308, Tolerance(max_iter=3))
        assert res.value == math.inf and not res.converged

    def test_converged_error_bound_invariant(self):
        tol = Tolerance()
        res = sum_series(lambda m: math.exp(-m), tol)
        assert res.converged
        assert res.err_estimate <= max(tol.rel * abs(res.value), tol.abs)


class TestFiniteDiff:
    def test_quadratic(self):
        assert abs(finite_diff(lambda x: x * x, 3.0, 1e-4).value - 6.0) < 1e-8

    def test_exponential_at_zero(self):
        assert abs(finite_diff(math.exp, 0.0, 1e-5).value - 1.0) < 1e-10

    def test_quintic_error_is_richardson_law(self):
        # the h^2 term cancels; what is left on x^5 is -h^4 f^(5)/480 = -h^4/4
        h = 0.03
        res = finite_diff(lambda x: x**5, 2.0, h)
        assert res.value - 80.0 == pytest.approx(-(h**4) / 4.0, rel=1e-6)
        assert res.evaluations == 6 and res.converged and res.method == "finite_difference"

    def test_estimate_is_the_error_of_the_returned_value(self):
        # on x^5 the error is exactly -s^4/4 at step s, so (16/15) of the
        # difference of the steps h and h/2 is the error itself, not the
        # error of D(h/2), h^2 f^(3)/24 (4.5e4 times larger here)
        h = 0.03
        res = finite_diff(lambda x: x**5, 2.0, h)
        floor = ROUNDING * 2.03**5 * 3.0 / h
        assert abs(res.value - 80.0) <= res.err_estimate <= 1.001 * h**4 / 4.0 + floor

    @pytest.mark.parametrize("x", [0.0, 1.0, -3.0])
    def test_rounding_dominated_step_is_within_estimate(self, x):
        # at h = 1e-7 the h^4 truncation (~1e-30) is nothing: the rounding
        # of the four values of exp, weighted 3/h in all, is the whole error
        res = finite_diff(math.exp, x, 1e-7)
        assert res.converged
        assert abs(res.value - math.exp(x)) <= res.err_estimate
        assert res.err_estimate <= 1e-7 * math.exp(x)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff(math.exp, 0.0, 0.0)
