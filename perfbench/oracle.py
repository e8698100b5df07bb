"""Reference values for the benchmark, computed in mpmath at 34 digits.

Every reference here is derived independently of the routes the
benchmark times:

* free energy and pressure: the Matsubara sum with each imaginary-
  frequency integral in closed polylog form,
  I(x) = -(x/2a) Li2(e^(-2ax)) - Li3(e^(-2ax))/(4a^2), and its exact
  a-derivative for the pressure;
* internal energy: the hyperbolic sum;
* T = 0 energies and pressures, the density profile: closed forms;
* w_I and W_II: the one-dimensional Lifshitz forms obtained by doing the
  transverse-momentum integral in closed form;
* regulated mode sums: the D = 4 sum in closed form, the per-mode
  integral in closed form for other even D, and a double-exponential
  trapezoid in E = q cosh t for odd D; the dispersive mode sums use the
  photon branch from the quadratic ``x^2 - (eps_bar w0^2 + k^2) x +
  k^2 w0^2 = 0`` (x = omega^2) with a per-mode mpmath quadrature;
* the LC circuit: the eigenfrequency from the quadratic in omega^2.

An ``Oracle`` caches each reference by its key, so a run pays for each
distinct input once, outside the timed region.
"""

from __future__ import annotations

import mpmath

DPS = 34
# series are truncated once three consecutive terms fall below TAIL
# relative to the partial sum: far below double-precision resolution
TAIL = 1e-24


class Oracle:
    """Keyed, cached reference values; keys are tuples whose first item
    names the quantity (see ``ref``)."""

    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.dps = DPS
        self._cache: dict = {}

    def ref(self, key: tuple) -> float:
        if key not in self._cache:
            self._cache[key] = float(getattr(self, "_" + key[0])(*key[1:]))
        return self._cache[key]

    # ---- small helpers -------------------------------------------------
    def _f(self, x):
        return self.ctx.mpf(x)

    def _sum(self, term, start=1):
        """Sum term(m), m >= start, for terms that eventually decrease
        monotonically in magnitude; stops after three terms below TAIL
        relative to the partial sum."""
        ctx = self.ctx
        floor = ctx.mpf(TAIL)
        total = ctx.mpf(0)
        small = 0
        m = start
        while small < 3:
            t = term(m)
            total += t
            small = small + 1 if abs(t) <= floor * abs(total) else 0
            m += 1
        return total

    # ---- thermal cavity (a, T, n) --------------------------------------
    def _F(self, a, T, n):
        ctx = self.ctx
        a, T, n = self._f(a), self._f(T), self._f(n)

        def I(x):
            y = ctx.exp(-2 * a * x)
            return -(x / (2 * a)) * ctx.polylog(2, y) - ctx.polylog(3, y) / (4 * a * a)

        half0 = -ctx.zeta(3) / (8 * a * a)
        return T / ctx.pi * (half0 + self._sum(lambda m: I(2 * ctx.pi * m * T * n)))

    def _P(self, a, T, n):
        ctx = self.ctx
        a, T, n = self._f(a), self._f(T), self._f(n)

        def J(x):  # dI/da at fixed x
            y = ctx.exp(-2 * a * x)
            return (
                -(x * x / a) * ctx.log1p(-y)
                + (x / (a * a)) * ctx.polylog(2, y)
                + ctx.polylog(3, y) / (2 * a**3)
            )

        half0 = ctx.zeta(3) / (4 * a**3)
        return -T / ctx.pi * (half0 + self._sum(lambda m: J(2 * ctx.pi * m * T * n)))

    def _U(self, a, T, n):
        ctx = self.ctx
        a, T, n = self._f(a), self._f(T), self._f(n)
        x = 2 * ctx.pi * n * a * T
        s = self._sum(lambda m: ctx.coth(x * m) / (m * ctx.sinh(x * m) ** 2))
        return -ctx.pi * n * n * T**3 * s

    def _F0(self, a, n):
        ctx = self.ctx
        return -ctx.pi**2 / (720 * self._f(n) * self._f(a) ** 3)

    # ---- D dimensions, T = 0 -------------------------------------------
    def _PD(self, D, a, n):
        ctx = self.ctx
        return (
            -(D - 2) * (D - 1) / self._f(n) * ctx.gamma(ctx.mpf(D) / 2) * ctx.zeta(D)
            / ((4 * ctx.pi) ** (ctx.mpf(D) / 2) * self._f(a) ** D)
        )

    def _w1(self, D, a, n):
        return self._PD(D, a, n) / (D - 1)

    def _w2(self, D, a, n, u):
        ctx = self.ctx
        u = self._f(u)
        coef = ctx.mpf(D) / 2 - 2
        pref = (
            -(D - 2) * ctx.gamma(ctx.mpf(D) / 2)
            / ((4 * ctx.pi) ** (ctx.mpf(D) / 2) * self._f(a) ** D * self._f(n)) * coef
        )
        return pref * (ctx.zeta(D, u) + ctx.zeta(D, 1 - u))

    def _w(self, D, a, n, u):
        return self._w1(D, a, n) + self._w2(D, a, n, u)

    # ---- Lorentz medium ------------------------------------------------
    def _eps_i(self, eps_bar, omega0, zeta):
        return 1 + (self._f(eps_bar) - 1) / (1 + (zeta / self._f(omega0)) ** 2)

    def _lifshitz_log(self, eps, zeta, a):
        # int_0^inf k dk / (kappa (e^(2 kappa a) - 1)), kappa^2 = k^2 + eps zeta^2
        ctx = self.ctx
        return -ctx.log1p(-ctx.exp(-2 * a * zeta * ctx.sqrt(eps))) / (2 * a)

    def _breaks(self, omega0, hi=None):
        # split the zeta range at 1 and at the resonance scale omega0
        ctx = self.ctx
        top = ctx.inf if hi is None else self._f(hi)
        inner = sorted({p for p in (ctx.mpf(1), self._f(omega0)) if p < top})
        return [ctx.mpf(0)] + inner + [top]

    def _wI(self, eps_bar, omega0, a):
        ctx = self.ctx
        a = self._f(a)

        def f(z):
            eps = self._eps_i(eps_bar, omega0, z)
            return -2 * eps * z * z * self._lifshitz_log(eps, z, a)

        return a / (2 * ctx.pi**2) * ctx.quad(f, self._breaks(omega0))

    def _W2(self, eps_bar, omega0, a, L):
        ctx = self.ctx
        a, w0 = self._f(a), self._f(omega0)

        def f(z):
            eps = self._eps_i(eps_bar, omega0, z)
            weight = z * z / (1 + (z / w0) ** 2) ** 2
            return weight * (-2 * z * z * self._lifshitz_log(eps, z, a)) / (2 * ctx.pi)

        pref = 2 * a * (self._f(eps_bar) - 1) / (w0**2 * 2 * ctx.pi)
        return pref * ctx.quad(f, self._breaks(omega0, hi=L))

    def _EH(self, k, zeta, a, eps_bar, omega0):
        # both halves of the rotated spectral density: -eps zeta^2/(kappa d)
        ctx = self.ctx
        k, zeta, a = self._f(k), self._f(zeta), self._f(a)
        eps = 1 if eps_bar is None else self._eps_i(eps_bar, omega0, zeta)
        kappa = ctx.sqrt(k * k + eps * zeta * zeta)
        return -eps * zeta * zeta / (kappa * ctx.expm1(2 * kappa * a))

    # ---- regulated mode sums -------------------------------------------
    def _a_d(self, D):
        ctx = self.ctx
        d = D - 1
        omega = 2 * ctx.pi ** (ctx.mpf(d - 1) / 2) / ctx.gamma(ctx.mpf(d - 1) / 2)
        return omega / (2 * ctx.pi) ** (d - 1)

    def _mode_integral(self, D, q, lam):
        """int_q^inf (E^2 - q^2)^nu E^2 e^(-lam E) dE, nu = (D - 4)/2."""
        ctx = self.ctx
        if D % 2 == 0:
            nu = (D - 4) // 2
            total = ctx.mpf(0)
            for j in range(nu + 1):
                k = 2 * j + 2
                inc = sum(
                    ctx.factorial(k) / ctx.factorial(i) * q**i / lam ** (k - i + 1)
                    for i in range(k + 1)
                )
                total += ctx.binomial(nu, j) * (-q * q) ** (nu - j) * inc
            return ctx.exp(-lam * q) * total
        # odd D: E = q cosh t gives q^(D-1) int_0^inf sinh^(D-3) t cosh^2 t
        # e^(-lam q cosh t) dt, an even, double-exponentially decaying
        # integrand for which the trapezoid rule converges geometrically.
        z = lam * q
        h = ctx.mpf(1) / 16
        floor = ctx.mpf(TAIL) * 1e-4
        total = ctx.exp(-z) / 2 if D == 3 else ctx.mpf(0)
        j = 1
        while True:
            t = j * h
            c = ctx.cosh(t)
            f = ctx.sinh(t) ** (D - 3) * c * c * ctx.exp(-z * c)
            total += f
            if z * c > 1 and f <= floor * total:
                break
            j += 1
        return q ** (D - 1) * h * total

    def _mode(self, D, a, n, lam):
        ctx = self.ctx
        a, lam = self._f(a), self._f(lam)
        if D == 4:
            # sum_m e^(-lam q)(q^2/lam + 2q/lam^2 + 2/lam^3), q = pi m/a
            y = ctx.exp(-lam * ctx.pi / a)
            s0 = y / (1 - y)
            s1 = y / (1 - y) ** 2
            s2 = y * (1 + y) / (1 - y) ** 3
            p = ctx.pi / a
            total = p * p / lam * s2 + 2 * p / lam**2 * s1 + 2 / lam**3 * s0
        else:
            total = self._sum(lambda m: self._mode_integral(D, ctx.pi * m / a, lam))
        return self._a_d(D) * total / self._f(n)

    def _dmode(self, D, a, eps_bar, omega0, lam):
        ctx = self.ctx
        a, lam = self._f(a), self._f(lam)
        w0 = self._f(omega0)
        w02 = w0 * w0
        ebw = self._f(eps_bar) * w02
        reach = 100 / lam  # e^(-lam E) has fallen by e^(-100) beyond q + reach

        def term(m):
            q = ctx.pi * m / a
            q2 = q * q

            def f(e):
                # e^2 (E^2 - q^2)^nu e^(-lam E) / n(E), with 1/n(E) = omega(E)/E and
                # omega^2 the photon-branch root x of x^2 - (eps_bar w0^2 + E^2) x
                # + E^2 w0^2: the lower root for E <= w0, the upper one above
                k2 = e * e
                b = ebw + k2
                disc = ctx.sqrt(b * b - 4 * k2 * w02)
                x = 2 * k2 * w02 / (b + disc) if e <= w0 else (b + disc) / 2
                base = ctx.sqrt(max(k2 - q2, 0)) ** (D - 4) if D != 4 else 1
                return base * e * ctx.sqrt(x) * ctx.exp(-lam * e)

            pts = [q, w0, q + reach] if q < w0 else [q, q + reach]
            return ctx.quad(f, pts)

        return self._a_d(D) * self._sum(term)

    def _log2ratio(self, D, a, n, lam):
        return self.ctx.log(self._mode(D, a, n, lam / 2) / self._mode(D, a, n, lam), 2)

    # ---- LC circuit ----------------------------------------------------
    def _omega_circ(self, L, a, A, eps_bar, omega0):
        ctx = self.ctx
        c = self._f(L) * self._f(A) / self._f(a)
        w0 = self._f(omega0)
        b = c * self._f(eps_bar) * w0 * w0 + 1
        disc = ctx.sqrt(b * b - 4 * c * w0 * w0)
        return ctx.sqrt(2 * w0 * w0 / (b + disc))  # lower root of c x^2 - b x + w0^2

    def _cap(self, A, a, eps_bar, omega0, w):
        return self._f(A) / self._f(a) * (
            1 + (self._f(eps_bar) - 1) / (1 - (w / self._f(omega0)) ** 2)
        )

    def _circ_E(self, L, a, A, eps_bar, omega0, phi_sq):
        w = self._omega_circ(L, a, A, eps_bar, omega0)
        w0 = self._f(omega0)
        dc = self._f(A) / self._f(a) * (self._f(eps_bar) - 1) * (2 * w / w0**2) / (
            1 - (w / w0) ** 2
        ) ** 2
        return (self._cap(A, a, eps_bar, omega0, w) + w * dc / 2) * self._f(phi_sq)

    def _circ_lhs(self, L, a, A, eps_bar, omega0, phi_sq, delta):
        w1 = self._omega_circ(L, a, A, eps_bar, omega0)
        w2 = self._omega_circ(L, self._f(a) * (1 + self._f(delta)), A, eps_bar, omega0)
        return self._circ_E(L, a, A, eps_bar, omega0, phi_sq) * (w2 - w1) / w1

    def _circ_rhs(self, L, a, A, eps_bar, omega0, phi_sq, delta):
        w1 = self._omega_circ(L, a, A, eps_bar, omega0)
        moved = self._f(a) * (1 + self._f(delta))
        dc = self._cap(A, moved, eps_bar, omega0, w1) - self._cap(A, a, eps_bar, omega0, w1)
        return -self._f(phi_sq) * dc / 2

    def _exact(self, x):
        return x
