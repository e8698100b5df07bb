"""Generic numerical kernel: adaptive quadrature, series summation and
Richardson-extrapolated central differences.

Everything here is a pure function of its inputs; there is no shared
mutable state, so all routines are safe to call concurrently.

Semi-infinite integrals are handled by the variable change

    x = lo + t/(1-t),   dx = dt/(1-t)^2,   t in (0, 1),

after which the finite interval is subdivided adaptively with a 15-point
Gauss-Legendre rule on each panel (interior nodes only, so endpoint
singularities of integrable type are never sampled).
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Tolerance",
    "NumericResult",
    "DEFAULT_TOL",
    "ROUNDING",
    "adaptive_quad",
    "sum_series",
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

# Rounding floor of a floating-point sum, per unit of the summed
# magnitudes: c * eps * sum |terms| with c = 4.
ROUNDING = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets shared by the numerical routines.

    rel is a relative tolerance (> 0), abs an absolute floor (>= 0), both
    finite; max_iter the iteration budget (>= 1).
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
class NumericResult:
    """Value with an error estimate and convergence bookkeeping.

    When converged is True, err_estimate <= max(rel*|value|, abs) for the
    tolerance the computation ran with.
    """

    value: float
    err_estimate: float
    evaluations: int
    converged: bool

    def __float__(self) -> float:
        return self.value


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _gl15(f: Callable[[float], float], a: float, b: float, counter: _Counter) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        fx = f(mid + half * x)
        if fx != fx:  # NaN from the integrand is a hard error
            raise ValueError(f"integrand returned NaN at x={mid + half * x!r}")
        total += w * fx
    counter.n += 15
    return half * total


def adaptive_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
    max_panels: int = 2000,
) -> NumericResult:
    """Integrate f over (lo, hi); hi may be math.inf.

    Globally adaptive bisection: the panel with the largest error estimate
    (|coarse - sum of halves|) is split until the summed estimate meets
    tol.  Non-convergence within max_panels subdivisions is reported via
    converged=False rather than raised; a NaN integrand raises.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if math.isinf(lo):
        raise ValueError("lower limit must be finite")

    if math.isinf(hi):
        base = lo

        def g(t: float) -> float:
            u = 1.0 - t
            return f(base + t / u) / (u * u)

        return _adaptive_finite(g, 0.0, 1.0, tol, max_panels)
    return _adaptive_finite(f, lo, hi, tol, max_panels)


def _adaptive_finite(f, a: float, b: float, tol: Tolerance, max_panels: int) -> NumericResult:
    counter = _Counter()
    tie = itertools.count()

    def make_panel(lo, hi, whole=None):
        if whole is None:
            whole = _gl15(f, lo, hi, counter)
        mid = 0.5 * (lo + hi)
        left = _gl15(f, lo, mid, counter)
        right = _gl15(f, mid, hi, counter)
        fine = left + right
        err = abs(whole - fine)
        return (-err, next(tie), lo, hi, fine, left, right)

    heap = [make_panel(a, b)]
    total = heap[0][4]
    total_err = -heap[0][0]

    for _ in range(max_panels):
        if total_err <= tol.target(total):
            return NumericResult(total, total_err, counter.n, True)
        neg_err, _, lo, hi, fine, left, right = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for child in (make_panel(lo, mid, whole=left), make_panel(mid, hi, whole=right)):
            heapq.heappush(heap, child)
            total += child[4]
            total_err -= child[0]

    return NumericResult(total, total_err, counter.n, total_err <= tol.target(total))


def sum_series(
    term: Callable[[int], float],
    start: int = 1,
    tol: Tolerance = DEFAULT_TOL,
) -> NumericResult:
    """Sum term(m) for m >= start until the stopping rule holds.

    Stops once |term(m)| < tol.abs and |term(m)| < tol.rel*|partial sum|
    for 3 consecutive terms (guards against plateaus).  Terms are assumed
    eventually monotone decreasing; the error estimate is the remainder
    bound |t| r/(1-r) built from the last term and the observed decay
    ratio r (falling back to |t| when the ratio is not contractive), plus
    the rounding floor ROUNDING * sum |terms| of the partial sum itself.
    Neither the values nor the stopping rule depend on the floor.
    """
    partial = magnitude = 0.0
    streak = 0
    last = prev = 0.0
    m = start
    for _ in range(tol.max_iter):
        t = term(m)
        if t != t:
            raise ValueError(f"series term returned NaN at m={m}")
        partial += t
        magnitude += abs(t)
        prev, last = last, abs(t)
        # an exactly-zero term (underflowed tail) is below any tolerance
        if last < tol.abs and (last == 0.0 or last < tol.rel * abs(partial)):
            streak += 1
            if streak >= 3:
                err = _tail_bound(last, prev) + ROUNDING * magnitude
                return NumericResult(partial, err, m - start + 1, err <= tol.target(partial))
        else:
            streak = 0
        m += 1
    err = _tail_bound(last, prev) + ROUNDING * magnitude
    return NumericResult(partial, err, m - start, False)


def _tail_bound(last: float, prev: float) -> float:
    if 0.0 < last < prev:
        r = last / prev
        return last * r / (1.0 - r)
    return last


def finite_diff(f: Callable[[float], float], x: float, h: float) -> NumericResult:
    """Derivative f'(x) by one Richardson step on central differences.

    With D(s) = (f(x+s) - f(x-s)) / (2s), the value is
    (4 D(h/2) - D(h)) / 3 and the error estimate |D(h/2) - D(h)| / 3.
    The caller chooses h.  The h^2 term cancels, so cubics come out exact
    and the truncation error is -h^4 f^(5)(x) / 480 + O(h^6).
    """
    if not h > 0:
        raise ValueError(f"step h must be > 0, got {h}")
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return NumericResult((4.0 * d_h2 - d_h) / 3.0, abs(d_h2 - d_h) / 3.0, 4, True)
