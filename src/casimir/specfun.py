"""Special functions needed by the closed-form energies: Riemann and
Hurwitz zeta (real arguments, s > 1) and hypersphere solid angles.
Gamma is the standard library's math.gamma.

The zetas use a direct partial sum plus an Euler-Maclaurin tail with
Bernoulli corrections through B4, with the truncation point chosen so the
first dropped correction is negligible at double precision.  All routines
deliver at least 12 significant digits on their stated domains.
"""

from __future__ import annotations

import math

__all__ = ["riemann_zeta", "hurwitz_zeta", "solid_angle"]


def hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k+q)^(-s) for finite s > 1, q > 0.

    Partial sum over k < N plus the Euler-Maclaurin tail

        (N+q)^(1-s)/(s-1) + (N+q)^(-s)/2
        + (s/12)(N+q)^(-s-1) - s(s+1)(s+2)/720 * (N+q)^(-s-3),

    with N grown until the first dropped (B6) correction is below 1e-16
    of the running total.
    """
    if not 1 < s < math.inf:
        raise ValueError(f"hurwitz_zeta requires finite s > 1, got {s}")
    if not q > 0:
        raise ValueError(f"hurwitz_zeta requires q > 0, got {q}")

    n = 24
    for _ in range(4):
        x = n + q
        # first dropped term: B6/6! * s(s+1)...(s+4) * x^(-s-5)
        dropped = (
            s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0 * x ** (-s - 5.0)
        )
        scale = max(1.0, q ** (-s))
        if dropped <= 1e-16 * scale:
            break
        n *= 2

    partial = 0.0
    for k in range(n - 1, -1, -1):  # ascending magnitudes: sum small-to-large
        partial += (k + q) ** (-s)
    x = n + q
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    tail += s / 12.0 * x ** (-s - 1.0)
    tail -= s * (s + 1.0) * (s + 2.0) / 720.0 * x ** (-s - 3.0)
    return partial + tail


def riemann_zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1."""
    if not s > 1:
        raise ValueError(f"riemann_zeta requires s > 1, got {s}")
    return hurwitz_zeta(s, 1.0)


def solid_angle(d: int) -> float:
    """Surface area Omega_{d-1} = 2 pi^(d/2) / Gamma(d/2) of the unit
    (d-1)-sphere embedded in d spatial dimensions."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"solid_angle requires integer d >= 1, got {d!r}")
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
