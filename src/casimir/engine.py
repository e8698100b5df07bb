"""Generic numerical kernel: adaptive quadrature, series summation and
Richardson-extrapolated central differences, each returning the
package's one result type, EnergyValue.  A route that combines several
results folds them through an Accumulator that it creates per call; a
route whose integrand is itself an engine result runs on nested_quad, and
a series whose terms are engine results on nested_sum.

Everything here is a pure function of its inputs; the only shared state
is the memo of cosh_quad's cut margin, itself a pure function of one
integer, and the panel sum cosh_quad builds and the running floors of
nested_quad and nested_sum are fresh per call, so all routines are safe
to call concurrently.

Semi-infinite integrals are handled by the variable change

    x = lo + t/(1-t),   dx = dt/(1-t)^2,   t in (0, 1),

after which the finite interval is subdivided adaptively with a 15-point
Gauss-Legendre rule on each panel (interior nodes only, so endpoint
singularities of integrable type are never sampled; a node of a tiny
last panel that rounds onto t = 1 adds 0).

The constant-index integrals of the package, int_0^inf k^j E^p w(z E/q) dk
with E = sqrt(k^2 + q^2) and the weight e^(-u) or one of the polylogarithms
Li_(-k)(e^(-u)) = sum_n n^k e^(-n u) (k = 0 the Bose weight 1/(e^u - 1),
k = j + p + 1 a whole regulated mode sum), run instead on the map
k = q sinh s (cosh_quad), where the weight decays double-exponentially in
s (Takahasi & Mori, Publ. RIMS 9, 721 (1974)), with e^(-z) in the scale.
The s range ends where a bound on the dropped tail is below rounding: past
the cut the integrand is log-concave, so it lies below a Gaussian that
touches it there.  That bound, and a count of the roundings at each node,
are part of the error estimate.
They run adaptive_quad's bisection on their own panel sum, one function
that evaluates the map, both powers and the weight inline at the 15 nodes,
in the same order of operations as the generic rule, so every bit is that
of adaptive_quad over the plain integrand at about four fifths of the cost
per node.

A nested integral (nested_quad) does not solve every inner integral to
the same relative tolerance: each gets an absolute floor of a hundredth of
the outer tolerance times the largest outer node seen so far, weighted by
the map's Jacobian, so a node that adds little to the outer sum stops
early.  The inner errors enter the estimate once, as the range times the
largest weighted inner error, which bounds their effect on the outer sum
since the Gauss-Legendre weights are positive.  Its series twin
nested_sum floors each term at the largest term so far and adds every
term's error, as each enters the sum with weight one.

Float sums are plain left-to-right loops, never the builtin sum(), which
is compensated from Python 3.12 on: the last bits, and the CLI's bytes,
are then the same on every interpreter.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Tolerance",
    "EnergyValue",
    "METHOD_TAGS",
    "Accumulator",
    "DEFAULT_TOL",
    "ROUNDING",
    "UNDERFLOW",
    "adaptive_quad",
    "nested_quad",
    "cosh_quad",
    "sum_series",
    "nested_sum",
    "finite_diff",
]

# Fixed-order interior rule used on every panel: the 15-point
# Gauss-Legendre rule on [-1, 1], stored as its 8 (node, weight) pairs
# with node >= 0 and mirrored into ascending node order.
_GL_HALF = (
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
)
_GL_NODES = tuple(-x for x, _ in _GL_HALF[:0:-1]) + tuple(x for x, _ in _GL_HALF)
_GL_WEIGHTS = tuple(w for _, w in _GL_HALF[:0:-1]) + tuple(w for _, w in _GL_HALF)
_GL_PAIRS = tuple(zip(_GL_NODES, _GL_WEIGHTS))

# Rounding floor of a floating-point sum, per unit of the summed
# magnitudes: c * eps * sum |terms| with c = 4.
ROUNDING = 4.0 * sys.float_info.epsilon
# Its absolute counterpart, c * ulp(0) per summed term: subnormal terms
# are rounded to the fixed spacing ulp(0), where a relative floor vanishes.
UNDERFLOW = 4.0 * math.ulp(0.0)

METHOD_TAGS = (
    "direct_sum",
    "poisson_resummed",
    "low_T_expansion",
    "high_T_asymptote",
    "quadrature",
    "finite_difference",
    "closed_form",
)


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets shared by the numerical routines.

    rel is a relative tolerance (> 0), abs an absolute floor (>= 0), both
    finite; max_iter (>= 1) bounds the terms of a series only.
    """

    rel: float = 1e-10
    abs: float = 1e-14
    max_iter: int = 10**6

    def __post_init__(self):
        if not (math.isfinite(self.rel) and self.rel > 0):
            raise ValueError(f"rel tolerance must be finite and > 0, got {self.rel}")
        if not (math.isfinite(self.abs) and self.abs >= 0):
            raise ValueError(f"abs tolerance must be finite and >= 0, got {self.abs}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    def target(self, value: float) -> float:
        return max(self.rel * abs(value), self.abs)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class EnergyValue:
    """A computed value with an error estimate, the tag of the route that
    produced it (one of METHOD_TAGS), a convergence flag and the number of
    integrand or term evaluations spent.  A non-finite value or
    err_estimate is never converged; a converged engine result has
    err_estimate <= max(rel*|value|, abs) for its tolerance, apart from
    cosh_quad's rounding floor, which no refinement lowers."""

    value: float
    err_estimate: float
    method: str
    converged: bool = True
    evaluations: int = 0

    def __post_init__(self):
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.err_estimate)):
            object.__setattr__(self, "converged", False)


@dataclass(slots=True)
class Accumulator:
    """Sums of the values, error estimates and evaluations of the results
    taken and the AND of their convergence flags.  One Accumulator can
    take another."""

    value: float = 0.0
    err_estimate: float = 0.0
    evaluations: int = 0
    converged: bool = True

    def take(self, result) -> float:
        """Fold result in and return its value."""
        self.value += result.value
        self.err_estimate += result.err_estimate
        self.evaluations += result.evaluations
        self.converged = self.converged and result.converged
        return result.value


def _gl15(f: Callable[[float], float], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for x, w in _GL_PAIRS:
        fx = f(mid + half * x)
        if fx != fx:  # NaN from the integrand is a hard error
            raise ValueError(f"integrand returned NaN at x={mid + half * x!r}")
        total += w * fx
    return half * total


def adaptive_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> EnergyValue:
    """Integrate f over (lo, hi); hi may be math.inf.

    Globally adaptive bisection: the panel with the largest error estimate
    (|coarse - sum of halves|) is split until the summed estimate meets
    tol.  Non-convergence within _MAX_PANELS = 2000 subdivisions is
    reported via converged=False rather than raised; a NaN integrand
    raises.  The first panel applies the 15-point rule three times (whole
    and halves) and each split four times, so f is called 45 + 60 * splits
    times.  On (lo, inf) a node that rounds onto t = 1 adds 0.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if math.isinf(lo):
        raise ValueError("lower limit must be finite")

    if math.isinf(hi):
        base = lo

        def g(t: float) -> float:
            u = 1.0 - t
            if u == 0.0:  # the node rounded onto t = 1, x = inf
                return 0.0
            return f(base + t / u) / (u * u)

        return _adaptive_finite(functools.partial(_gl15, g), 0.0, 1.0, tol)
    return _adaptive_finite(functools.partial(_gl15, f), lo, hi, tol)


# Subdivisions _adaptive_finite makes before it reports non-convergence
_MAX_PANELS = 2000


def _adaptive_finite(rule, a: float, b: float, tol: Tolerance) -> EnergyValue:
    # rule(lo, hi) is the 15-point sum over one panel
    tie = itertools.count()

    def make_panel(lo, hi, whole=None):
        if whole is None:
            whole = rule(lo, hi)
        mid = 0.5 * (lo + hi)
        left = rule(lo, mid)
        right = rule(mid, hi)
        fine = left + right
        err = abs(whole - fine)
        return (-err, next(tie), lo, hi, fine, left, right)

    heap = [make_panel(a, b)]
    total = heap[0][4]
    total_err = -heap[0][0]

    for splits in range(_MAX_PANELS):
        if total_err <= tol.target(total):
            return EnergyValue(total, total_err, "quadrature", True, 45 + 60 * splits)
        if total_err != total_err:  # NaN, from inf - inf: no split can converge
            return EnergyValue(total, total_err, "quadrature", False, 45 + 60 * splits)
        neg_err, _, lo, hi, fine, left, right = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for child in (make_panel(lo, mid, whole=left), make_panel(mid, hi, whole=right)):
            heapq.heappush(heap, child)
            total += child[4]
            total_err -= child[0]

    converged = total_err <= tol.target(total)
    return EnergyValue(total, total_err, "quadrature", converged, 45 + 60 * _MAX_PANELS)


# Share of tol.rel times the largest outer node value that nested_quad grants
# each inner integral as its absolute floor
_INNER_SHARE = 1e-2


def nested_quad(
    inner: Callable[[float, float], EnergyValue],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> EnergyValue:
    """Integrate over (lo, hi) an integrand that is itself an engine result;
    hi may be math.inf.

    inner(x, floor) returns the integrand at x as an EnergyValue, solved to
    the caller's relative tolerance or to the absolute error floor,
    whichever is larger.  The outer integral runs on adaptive_quad, with
    its map x = lo + t/(1-t) of (lo, inf), jac = 1/(1-t)^2 (jac = 1 on a
    finite range), and floor = 1e-2 tol.rel M/jac, M the largest finite
    |value jac| of the nodes seen so far (0 at the first node): a node
    that adds little to the outer sum is solved only to a hundredth of the
    outer tolerance of the largest one.  The GL weights are positive and
    sum to L = hi - lo (1 in t), so the inner errors move the outer sum by
    at most L max(jac inner_err), which the error estimate adds to
    adaptive_quad's.  converged is the AND of the outer and every inner
    flag; evaluations sum the outer nodes' and the inner results'.  A node
    that rounds onto t = 1 adds 0 without calling inner.  The running M is
    state of this call only, and it makes the result deterministic.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if math.isinf(lo):
        raise ValueError("lower limit must be finite")
    share = _INNER_SHARE * tol.rel
    peak = worst = 0.0
    evaluations = 0
    converged = True

    def node(x: float, u2: float) -> float:
        # the integrand at x on the outer variable, jac = 1/u2
        nonlocal peak, worst, evaluations, converged
        res = inner(x, share * peak * u2)
        value = res.value / u2
        if math.isfinite(value):  # an overflowed node ends convergence, not the floor
            peak = max(peak, abs(value))
        worst = max(worst, res.err_estimate / u2)
        evaluations += res.evaluations
        converged = converged and res.converged
        return value

    if math.isinf(hi):

        def mapped(t: float) -> float:
            u = 1.0 - t
            if u == 0.0:  # the node rounded onto t = 1, x = inf
                return 0.0
            return node(lo + t / u, u * u)

        outer, length = adaptive_quad(mapped, 0.0, 1.0, tol), 1.0
    else:
        outer, length = adaptive_quad(lambda x: node(x, 1.0), lo, hi, tol), hi - lo
    return EnergyValue(
        outer.value,
        outer.err_estimate + length * worst,
        "quadrature",
        outer.converged and converged,
        outer.evaluations + evaluations,
    )


# Share of the rounding floor ROUNDING * |value| that cosh_quad's dropped
# tail may take at the cut, for a weight w(u) >= e^(-u)
_TAIL_SHARE = 0.25


@functools.cache
def _cosh_margin(m: int) -> float:
    # The M with Q(m+1, M) = Gamma(m+1, M)/m! = _TAIL_SHARE * ROUNDING.  For
    # the weight e^(-u) and z -> 0, Q(m+1, M) is the dropped tail of
    # cosh_quad over its value at x1 = z + M; at larger z that ratio falls,
    # and the concavity bound of _cosh_tail is at most 0.2505 ROUNDING times
    # the value (checked at D = 3..12 for z from 1e-8 to 700).
    # M = goal + ln e_m(M), e_m(x) = sum_(k<=m) x^k/k!, is a contraction
    # (slope e_(m-1)/e_m < 1) that rises to the root (past m + 1) from
    # M = max(goal, m); e_m(M) is summed down from M^m/m!, in ratios <= 1.
    goal = -math.log(_TAIL_SHARE * ROUNDING)
    margin, last = max(goal, m), -math.inf
    while margin - last >= 1e-9:
        term = total = 1.0
        for l in range(m, 0, -1):
            term *= l / margin
            total += term
        margin, last = goal + m * math.log(margin) - math.lgamma(m + 1) + math.log(total), margin
    return margin


def _eulerian(k: int) -> tuple[float, ...]:
    # Coefficients of the Eulerian polynomial A_k, with Li_(-k)(y) =
    # sum_m m^k y^m = y A_k(y)/(1 - y)^(k+1) (A_0 = A_1 = 1), from
    # A(n, i) = (i + 1) A(n-1, i) + (n - i) A(n-1, i-1) in exact integers.
    # They are palindromic, so Horner's rule may start at either end, and
    # sum to k!; float() raises OverflowError once one of them leaves the
    # double range (k >= 172).
    row = [1]
    for n in range(2, k + 1):
        row = [
            (i + 1) * (row[i] if i < n - 1 else 0) + (n - i) * (row[i - 1] if i else 0)
            for i in range(n)
        ]
    return tuple(float(c) for c in row)


def _horner(coefs: tuple[float, ...], y: float) -> float:
    total = 0.0
    for c in coefs:
        total = total * y + c
    return total


def _left_sum(values) -> float:
    # Plain left-to-right float sum.  The builtin sum() of floats is
    # compensated from Python 3.12 on, so its last bits depend on the
    # interpreter; this loop rounds the same on every version.
    total = 0.0
    for v in values:
        total += v
    return total


def _cosh_cut(z: float, m: int) -> tuple[float, float]:
    # x1 = z cosh s1 = z + M and z sinh s1 = sqrt(M (M + 2z)), M = _cosh_margin(m),
    # from M (z + M rounds to z from z = 2^59 on) and in halves (2z may overflow)
    margin = _cosh_margin(m)
    return z + margin, math.sqrt(2.0 * margin) * math.sqrt(z + 0.5 * margin)


def _cosh_tail(j: int, p: int, q: float, z: float, k: int, coefs: tuple[float, ...]) -> float:
    # Bound on q^(m+1) int_(s1)^inf sinh^j s cosh^(p+1) s w(z cosh s) ds,
    # m = j + p, s1 the cut of _cosh_cut, for w(u) = e^(-u) and Li_(-k)(e^(-u)).
    # For u >= x1, w(u) <= K e^(-u), K = A_k(y1)/(1 - y1)^(k+1), y1 = e^(-x1),
    # coefs those of A_k (k = 0 for e^(-u) too, where K = 1/(1 - y1) > 1).
    # f = sinh^j s cosh^(p+1) s e^(-z cosh s) is log-concave past s1:
    # -(ln f)'' = z cosh s + j/sinh^2 s - (p+1)/cosh^2 s >= c = x1 - max(p+1, 0),
    # c > z as M > m + 1.  So ln f(s1 + t) <= ln f(s1) - l t - c t^2/2, with
    # l = z sinh s1 - j coth s1 - (p+1) tanh s1 of either sign, and the tail
    # is at most q^(m+1) K f(s1) sqrt(pi/(2c)) e^(b^2) erfc(b), b = l/sqrt(2c).
    # b^2 < M about, so only past m = 480 can b reach 26, where erfc(b) nears
    # underflow and 1/(b sqrt(pi)) bounds e^(b^2) erfc(b) to 1/(2 b^2).  The
    # bound is formed in logs, since e^(-x1) alone may underflow, and the sum
    # of the logs, b^2 and ln erfc(b) apart, is raised by its rounding floor.
    x1, r = _cosh_cut(z, j + p)
    c = x1 - max(p + 1, 0)  # about z: 2c may overflow, so c is halved
    b = (r - j * (x1 / r) - (p + 1) * r / x1) / (2.0 * math.sqrt(0.5 * c))
    log_k = -(k + 1) * math.log(-math.expm1(-x1))
    if k:
        log_k += math.log(_horner(coefs, math.exp(-x1)))
    gauss = (b * b, math.log(math.erfc(b))) if b < 26.0 else (-math.log(b * math.sqrt(math.pi)),)
    terms = (
        (j + p + 1) * math.log(q),
        j * math.log(r / z),
        (p + 1) * math.log(x1 / z),
        -x1,
        0.5 * math.log(0.5 * math.pi / c),
        *gauss,
        log_k,
    )
    log_bound = magnitude = 0.0  # left to right, as _left_sum
    for t in terms:
        log_bound += t
        magnitude += abs(t)
    log_bound += ROUNDING * magnitude
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def _cosh_rounding(j: int, p: int, k: int, q: float, z: float, evaluations: int) -> float:
    # Rounding of cosh_quad's sum relative to its value, in eps, each libm
    # call within 1 ulp and each operation within half of one.  The scale
    # exp((m+1) ln q - z), m = j + p, carries 1 + 2 (m+1) |ln q| + z/2.  At a
    # node: sinh^j s and cosh^(p+1) s carry j + 1 and p + 2, three products
    # 1.5, the weight at most 2k + 5.5 (exp, expm1, y, k - 1 Horner steps,
    # the power k + 1 of 1 - y, a product and a quotient).  The panel sum
    # carries 8 and adaptive_quad's running total 1.5 per split, 60
    # evaluations.  The roundings of u = z cosh s, 1.5 eps u, and of z - u,
    # eps (u - z)/2, move ln w by <n> times them (<n> the mean of n under
    # n^k e^(-n u), u <n> <= u + k + 1), and u averages at most z + m + 1
    # over the integrand (a log-concave Gamma(m + 1) law cut at z).  Halved: 2z may overflow.
    half = 1.5 * (j + p) + 2 * k + 11.5 + z + (j + p + 1) * abs(math.log(q))
    return 2.0 * sys.float_info.epsilon * (half + evaluations / 80.0)


def cosh_quad(
    j: int,
    p: int,
    q: float,
    z: float,
    weight: str | int,
    tol: Tolerance = DEFAULT_TOL,
) -> EnergyValue:
    """int_0^inf k^j E^p w(z E/q) dk, E = sqrt(k^2 + q^2), on k = q sinh s:

        q^(j+p+1) e^(-z) int_0^s1 sinh^j s cosh^(p+1) s e^z w(z cosh s) ds.

    j >= 0 and j + p >= 0 are integers, q > 0 finite and z > 0 (z = inf,
    a caller's overflowed lambda q, gives 0 for any q > 0; else ValueError).
    weight names w: "exp" for e^(-u), or an integer k >= 0 for
    Li_(-k)(e^(-u)) = sum_(n>=1) n^k e^(-n u) = y A_k(y)/(1 - y)^(k+1),
    y = e^(-u), A_k the Eulerian polynomial; k = 0 is the Bose weight
    1/(e^u - 1), taken as e^(-u)/(-expm1(-u)), which cannot overflow.  With
    q = pi/a, z = lambda q and k = j + p + 1, the integral is the whole
    regulated mode sum over n of the e^(-u) integrals at q n, z n.

    The scale is exp((j+p+1) ln q - z) and each node takes e^(z-u) for
    e^(-u) (y = e^(z-u) e^(-z) inside A_k), so no node underflows while
    the value is a normal number.  The range ends at x1 = z cosh s1 = z + M,
    M a function of j + p that makes the bound on the dropped tail (see
    _cosh_tail: the integrand is log-concave past s1, so it lies below a
    Gaussian there) at most 0.2505 ROUNDING times the value with w = e^(-u),
    which the weights Li_(-k) only raise.  The error estimate adds to
    adaptive_quad's the tail bound and the floors of _cosh_rounding,
    (3 (j + p) + 4 k + 2 z + 2 (j + p + 1) |ln q| + 23) eps relative plus
    eps/40 and UNDERFLOW per evaluation; as no refinement lowers them,
    converged asks only adaptive_quad's estimate and the tail bound to meet
    tol.  A scale or sum that overflows raises OverflowError, as does a
    weight order whose Eulerian coefficients leave the double range.

    The bisection of adaptive_quad runs on a fused panel sum: map, powers
    and weight inline at each of the 15 nodes, in the order of the plain
    integrand, so that every bit equals adaptive_quad over it.
    """
    if weight == "exp":
        k = None
    elif isinstance(weight, int) and not isinstance(weight, bool) and weight >= 0:
        k = weight
    else:
        raise ValueError(f"unknown weight {weight!r}, need 'exp' or an integer k >= 0")
    if not (isinstance(j, int) and isinstance(p, int) and j >= 0 and j + p >= 0
            and 0 < q and 0 < z and (q < math.inf or z == math.inf)):
        raise ValueError(f"cosh_quad needs integers j >= 0, j + p >= 0, q > 0 finite and z > 0, "
                         f"got j={j!r}, p={p!r}, q={q!r}, z={z!r}")
    if z == math.inf:  # e^(-z cosh s) = 0 at every s, and faster than any power of q
        return EnergyValue(0.0, 0.0, "quadrature", True, 0)
    s1 = math.asinh(_cosh_cut(z, j + p)[1] / z)
    coefs = _eulerian(k) if k else ()
    scale = math.exp((j + p + 1) * math.log(q) - z)
    res = _adaptive_finite(_cosh_integrand(j, p + 1, scale, z, k, coefs), 0.0, s1, tol)
    if not math.isfinite(res.value):
        raise OverflowError(f"cosh_quad sum out of range (j={j}, p={p}, z={z!r}, weight={weight!r})")
    order = k or 0  # the tail and the floor of e^(-u) are those of k = 0
    err = res.err_estimate + _cosh_tail(j, p, q, z, order, coefs)
    converged = res.converged and err <= tol.target(res.value)
    err += _cosh_rounding(j, p, order, q, z, res.evaluations) * abs(res.value)
    err += UNDERFLOW * res.evaluations
    return EnergyValue(res.value, err, "quadrature", converged, res.evaluations)


def _cosh_integrand(
    j: int, power: int, scale: float, z: float, k: int | None, coefs: tuple[float, ...]
):
    # The panel sum gl15(a, b) of scale sinh^j s cosh^power s e^z w(z cosh s),
    # w = e^(-u) for k None and Li_(-k)(e^(-u)) otherwise, coefs those of
    # A_k (k >= 1): the 15-point rule of _gl15 with map, powers and weight
    # inline at each node, one Python call per panel instead of two per node
    cosh, sinh, exp, expm1 = math.cosh, math.sinh, math.exp, math.expm1
    k1 = (k or 0) + 1
    exp_z = exp(-z)  # y = e^(-u) is e^(z-u) e^(-z), one exp per node

    def gl15(a: float, b: float) -> float:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total = 0.0
        if k is None:
            for x, wx in _GL_PAIRS:
                s = mid + half * x
                c = cosh(s)
                total += wx * (scale * sinh(s) ** j * c**power * exp(z - z * c))
        elif not k:
            for x, wx in _GL_PAIRS:
                s = mid + half * x
                c = cosh(s)
                u = z * c
                total += wx * (scale * sinh(s) ** j * c**power * (exp(z - u) / -expm1(-u)))
        else:
            for x, wx in _GL_PAIRS:
                s = mid + half * x
                c = cosh(s)
                u = z * c
                v = exp(z - u)
                y = v * exp_z
                poly = 0.0
                for coef in coefs:
                    poly = poly * y + coef
                total += wx * (scale * sinh(s) ** j * c**power * (v * poly / (-expm1(-u)) ** k1))
        if total != total:  # a NaN node makes the sum NaN
            raise ValueError(f"integrand returned NaN on ({a!r}, {b!r})")
        return half * total

    return gl15


def sum_series(term: Callable[[int], float], tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """Sum term(m) for m = 1, 2, ... until the stopping rule holds.

    Stops once |term(m)| < tol.abs and |term(m)| < tol.rel*|partial sum|
    for 3 consecutive terms (guards against plateaus).  Terms are assumed
    eventually monotone decreasing; the error estimate is the remainder
    bound |t| r/(1-r) built from the last term and the observed decay
    ratio r (falling back to |t| when the ratio is not contractive), plus
    the rounding floor ROUNDING * sum |terms|, for the rounding of the
    terms themselves, and the underflow floor UNDERFLOW per summed term.
    Neither the values nor the stopping rule depend on the floors.  The
    running sum carries Neumaier's compensation term (Z. Angew. Math.
    Mech. 54, 39 (1974)), so its own rounding stays near one ulp of the
    sum however many terms it takes; a plain running sum can lose m ulps
    of sum |terms| in m terms, past the floor.
    """
    partial = comp = magnitude = 0.0
    streak = 0
    last = prev = 0.0
    m = 1
    converged = False
    for _ in range(tol.max_iter):
        t = term(m)
        if t != t:
            raise ValueError(f"series term returned NaN at m={m}")
        at = abs(t)
        s = partial + t
        # the bits of the smaller addend that s lost, exactly
        comp += (partial - s) + t if abs(partial) >= at else (t - s) + partial
        partial = s
        magnitude += at
        prev, last = last, at
        m += 1
        # an exactly-zero term (underflowed tail) is below any tolerance
        if last < tol.abs and (last == 0.0 or last < tol.rel * abs(partial)):
            streak += 1
            if streak >= 3:
                converged = True
                break
        else:
            streak = 0
    count = m - 1
    # an overflowed sum stays infinite, where inf - inf would make comp NaN
    value = partial + comp if math.isfinite(partial) else partial
    err = _tail_bound(last, prev) + ROUNDING * magnitude + UNDERFLOW * count
    return EnergyValue(value, err, "direct_sum", converged and err <= tol.target(value), count)


def nested_sum(term: Callable[[int, float], EnergyValue], tol: Tolerance = DEFAULT_TOL) -> EnergyValue:
    """sum_series over terms that are themselves engine results.

    term(m, floor) returns term m as an EnergyValue or Accumulator, solved
    to its own relative tolerance or to the absolute floor 1e-2 tol.rel P,
    whichever is larger, P the largest finite |value| of the terms so far
    (0 for the first).  The result folds every term's err_estimate,
    evaluations and flag into sum_series' (its count of terms included).
    """
    share = _INNER_SHARE * tol.rel
    peak = 0.0
    acc = Accumulator()

    def value(m: int) -> float:
        nonlocal peak
        res = term(m, share * peak)
        if math.isfinite(res.value):  # an overflowed term ends convergence, not the floor
            peak = max(peak, abs(res.value))
        return acc.take(res)

    series = acc.take(sum_series(value, tol))
    return EnergyValue(series, acc.err_estimate, "direct_sum", acc.converged, acc.evaluations)


def _tail_bound(last: float, prev: float) -> float:
    if 0.0 < last < prev:
        r = last / prev
        return last * r / (1.0 - r)
    return last


def finite_diff(f: Callable[[float], float], x: float, h: float) -> EnergyValue:
    """Derivative f'(x) by one Richardson step on central differences.

    With D(s) = (f(x+s) - f(x-s)) / (2s), the value is
    R(h) = (4 D(h/2) - D(h)) / 3.  The h^2 term cancels, so cubics come out
    exact and the truncation error is -h^4 f^(5)(x) / 480 + O(h^6).  R(h/2)
    has a sixteenth of that error, so the error estimate is
    (16/15) |R(h) - R(h/2)| plus ROUNDING * max|f| * 3/h, the rounding of
    the four values that R(h) weights by 3/h in all.  f is called six
    times; the caller chooses h.
    """
    if not h > 0:
        raise ValueError(f"step h must be > 0, got {h}")
    fs = (f(x + h), f(x - h), f(x + 0.5 * h), f(x - 0.5 * h))
    d_h, d_h2 = (fs[0] - fs[1]) / (2.0 * h), (fs[2] - fs[3]) / h
    value = (4.0 * d_h2 - d_h) / 3.0
    d_h4 = (f(x + 0.25 * h) - f(x - 0.25 * h)) / (0.5 * h)
    finer = (4.0 * d_h4 - d_h2) / 3.0
    err = 16.0 / 15.0 * abs(value - finer) + ROUNDING * max(map(abs, fs)) * 3.0 / h
    return EnergyValue(value, err, "finite_difference", True, 6)
