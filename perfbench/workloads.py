"""The four benchmark workloads: seeded input generators and the code that
runs one point through the program's public routes.

A point is one generated input run through all of its workload's routes
(in ``cli``: one ``casimir.cli.main(argv)`` call).  Running a point gives
a result and a fingerprint used to check that a repeated point gives
identical output; the result converts to ``Value`` records, one per
number the program produced, each naming the oracle key that checks it.

Routes are always called through their module attribute (for example
``matsubara.free_energy``), so that the tracer's patched bindings are
the ones used.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass

from casimir import circuit, cli, dispersion, green_em, hyperdim, matsubara


@dataclass(frozen=True)
class Value:
    """One number produced by the program.  ``failed`` names why the value
    counts as failed (an exception, a non-finite value, converged=False,
    a CLI exit code != 0, a crosscheck row with passed=false), or is None.
    ``ref`` is the oracle key, ``err`` the program's own error estimate."""

    route: str
    value: float | None
    ref: tuple | None
    err: float | None = None
    failed: str | None = None


def _checked(route, value, ref, err=None, converged=True) -> Value:
    value = float(value)
    if not math.isfinite(value):
        return Value(route, value, ref, err, "nonfinite")
    if not converged:
        return Value(route, value, ref, err, "unconverged")
    return Value(route, value, ref, err)


def _call(name, fn, /, *args, **kwargs):
    """Call fn; an exception becomes a single failed Value."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the benchmark records every failure and goes on
        return None, Value(name, None, None, failed=type(exc).__name__)


def _energy(name, ref, fn, /, *args, **kwargs) -> Value:
    ev, failure = _call(name, fn, *args, **kwargs)
    if failure:
        return failure
    return _checked(name, ev.value, ref, ev.err_estimate, ev.converged)


def _strata(rng: random.Random, n: int) -> list[float]:
    """n jittered points in [0, 1), one per equal stratum, shuffled: every
    seed covers the whole range, so the cost of a pass barely depends on
    the seed."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------- thermal
THERMAL_POINTS = 64


def thermal_points(seed: int) -> list[tuple]:
    """(a, T, n) with naT log-uniform over [0.01, 5], stratified."""
    rng = random.Random(seed)
    pts = []
    for u in _strata(rng, THERMAL_POINTS):
        nat = _log_uniform(u, 0.01, 5.0)
        a = _log_uniform(rng.random(), 0.5, 2.0)
        n = rng.uniform(1.0, 2.0)
        pts.append((a, nat / (n * a), n))
    return pts


def thermal_run(point) -> list[Value]:
    a, T, n = point
    cfg = matsubara.CavityConfig(a=a, T=T, n=n)
    F, U, P = ("F", a, T, n), ("U", a, T, n), ("P", a, T, n)
    return [
        _energy("matsubara.free_energy", F, matsubara.free_energy, cfg),
        _energy("matsubara.internal_energy", U, matsubara.internal_energy, cfg),
        _energy("matsubara.internal_energy_resummed", U, matsubara.internal_energy_resummed, cfg),
        _energy("matsubara.internal_energy_from_F", U, matsubara.internal_energy_from_F, cfg),
        _energy("green_em.em_energy_finiteT", U, green_em.em_energy_finiteT, cfg),
        _energy("matsubara.pressure", P, matsubara.pressure, cfg),
    ]


# --------------------------------------------------------------- spectral
EPS_BANDS = ((1.4, 1.8), (2.6, 3.0))
OMEGA0_BANDS = ((0.3, 0.4), (1.0, 1.3), (3.0, 3.9), (7.5, 10.0))
EH_SAMPLES = 16


def spectral_points(seed: int) -> list[tuple]:
    """Lorentz models (eps_bar, omega0) on a grid of bands, one point per
    band pair with the value jittered inside it, plus a T = 0 cavity
    (a, n), a W_II cutoff and a batch of (k_perp, zeta) samples."""
    rng = random.Random(seed)
    pts = []
    for eps_band in EPS_BANDS:
        for omega_band in OMEGA0_BANDS:
            eps_bar = rng.uniform(*eps_band)
            omega0 = _log_uniform(rng.random(), *omega_band)
            a = _log_uniform(rng.random(), 0.9, 1.1)
            n = rng.uniform(1.0, 2.5)
            omega_max = _log_uniform(rng.random(), 1.8, 2.2)
            samples = tuple(
                (_log_uniform(rng.random(), 0.05, 20.0), _log_uniform(rng.random(), 0.05, 20.0))
                for _ in range(EH_SAMPLES)
            )
            pts.append((eps_bar, omega0, a, n, omega_max, samples))
    rng.shuffle(pts)
    return pts


def spectral_run(point) -> list[Value]:
    eps_bar, omega0, a, n, omega_max, samples = point
    medium = matsubara.CavityConfig(a=a, T=0.0, n=n)
    vacuum = matsubara.CavityConfig(a=a, T=0.0)
    model = dispersion.LorentzModel(eps_bar=eps_bar, omega0=omega0)
    out = [
        _energy("green_em.em_energy_T0", ("F0", a, n), green_em.em_energy_T0, medium),
        _energy("green_em.em_energy_T0_polar", ("F0", a, n), green_em.em_energy_T0_polar, medium),
        _energy("dispersion.w_I_energy", ("wI", eps_bar, omega0, a),
                dispersion.w_I_energy, model, vacuum),
    ]
    route = "dispersion.w2_density_cutoff"
    res, failure = _call(route, dispersion.w2_density_cutoff, model, vacuum,
                         dispersion.CutoffSpec(omega_max))
    if failure:
        out.append(failure)
    else:
        head = res.value
        for j, (cut, val) in enumerate(res.scan):
            ref = ("W2", eps_bar, omega0, a, cut)
            if j == 0:
                out.append(_checked(route, head.value, ref, head.err_estimate, head.converged))
            else:
                out.append(_checked(route, val, ref, converged=head.converged))
    route = "green_em.spectral_energy_density"
    for k, zeta in samples:
        eps = dispersion.eps_imag_axis(model, zeta)
        p, failure = _call(route, green_em.spectral_energy_density, k, zeta, vacuum, eps=eps)
        if failure:
            out.append(failure)
            continue
        ref = ("EH", k, zeta, a, eps_bar, omega0)
        out.append(_checked(route, p.electric_half, ref))
        out.append(_checked(route, p.magnetic_half, ref))
    return out


# ---------------------------------------------------------------- modesum
MODESUM_DIMS = (3, 4, 5, 6, 7, 8)
LAMBDA_LEVELS = (0.7, 1.0)  # lambda/a
# the dispersive medium resonates between the first and second mode
# (omega0 = 1.3 pi/a), so the photon branch switches inside mode 1
RESONANCE_RATIO = 1.3
PROFILE_SAMPLES = 5
ADIABATIC_DELTA = 1e-3


def modesum_points(seed: int) -> list[tuple]:
    """Two points per spacetime dimension D = 3..8 (D = 3 included: it
    exercises a known failure of the mode sums), one per regulator level.
    The cost and the accuracy of a mode sum depend on the dimensionless
    regulator lambda/a and resonance omega0*a/pi, so those are jittered
    narrowly around fixed levels while the separation, index, media,
    profile positions and LC circuit are drawn freely."""
    rng = random.Random(seed)
    pts = []
    for D in MODESUM_DIMS:
        for level in LAMBDA_LEVELS:
            a = rng.uniform(0.8, 1.25)
            lam = level * a * rng.uniform(0.98, 1.02)
            n = rng.uniform(1.0, 1.5)
            medium = (rng.uniform(1.8, 2.2), RESONANCE_RATIO * math.pi / a * rng.uniform(0.98, 1.02))
            u_grid = tuple(sorted(rng.uniform(0.02, 0.98) for _ in range(PROFILE_SAMPLES)))
            circ = (
                _log_uniform(rng.random(), 0.5, 2.0),  # L
                _log_uniform(rng.random(), 0.5, 2.0),  # A_plate
                rng.uniform(1.5, 3.0),  # eps_bar
                _log_uniform(rng.random(), 5.0, 20.0),  # omega0
                rng.uniform(0.5, 2.0),  # phi_sq_bar
            )
            pts.append((D, lam, a, n, medium, u_grid, circ))
    rng.shuffle(pts)
    return pts


def modesum_run(point) -> list[Value]:
    D, lam, a, n, (eps_d, omega_d), u_grid, (L, A, eps_c, omega_c, phi_sq) = point
    cfg = hyperdim.HyperConfig(dim=D, a=a, n=n)
    out = []
    route = "hyperdim.cutoff_mode_energy"
    res, failure = _call(route, hyperdim.cutoff_mode_energy, cfg, lam)
    if failure:
        out.append(failure)
    else:
        head = res.value
        for j, (lam_j, val) in enumerate(res.scan):
            ref = ("mode", D, a, n, lam_j)
            if j == 0:
                out.append(_checked(route, head.value, ref, head.err_estimate, head.converged))
            else:
                out.append(_checked(route, val, ref, converged=head.converged))
    model = dispersion.LorentzModel(eps_bar=eps_d, omega0=omega_d)
    out.append(_energy("hyperdim.dispersive_hyper_energy", ("dmode", D, a, eps_d, omega_d, lam),
                       hyperdim.dispersive_hyper_energy,
                       hyperdim.HyperConfig(dim=D, a=a), model, lam))
    PD = ("PD", D, a, n)
    for route_kind in ("polar", "cartesian"):
        out.append(_energy("hyperdim.pressure_quadrature", PD,
                           hyperdim.pressure_quadrature, cfg, route=route_kind))
    out.append(_energy("hyperdim.pressure_closed", PD, hyperdim.pressure_closed, cfg))
    if D >= 4:  # the density profile is defined for D >= 4 only
        route = "hyperdim.density_profile"
        prof, failure = _call(route, hyperdim.density_profile, cfg, u_grid)
        if failure:
            out.append(failure)
        else:
            out.append(_checked(route, prof.w1, ("w1", D, a, n)))
            for u, w2, tot in zip(prof.u_grid, prof.w2_values, prof.total):
                out.append(_checked(route, w2, ("w2", D, a, n, u)))
                out.append(_checked(route, tot, ("w", D, a, n, u)))
    route = "hyperdim.pressure_from_w1"
    pair, failure = _call(route, hyperdim.pressure_from_w1, cfg)
    if failure:
        out.append(failure)
    else:
        out.extend(_checked(route, ev.value, PD, ev.err_estimate, ev.converged) for ev in pair)
    spec = circuit.CircuitSpec(L=L, a=a, A_plate=A,
                               eps_model=dispersion.LorentzModel(eps_c, omega_c),
                               phi_sq_bar=phi_sq)
    key = (L, a, A, eps_c, omega_c)
    w, failure = _call("circuit.eigenfrequency", circuit.eigenfrequency, spec)
    out.append(failure or _checked("circuit.eigenfrequency", w, ("omega_circ",) + key))
    en, failure = _call("circuit.circuit_energy", circuit.circuit_energy, spec)
    out.append(failure or _checked("circuit.circuit_energy", en.value,
                                   ("circ_E",) + key + (phi_sq,)))
    route = "circuit.adiabatic_variation_check"
    sides, failure = _call(route, circuit.adiabatic_variation_check, spec, ADIABATIC_DELTA)
    if failure:
        out.append(failure)
    else:
        for side, val in zip(("circ_lhs", "circ_rhs"), sides):
            out.append(_checked(route, val, (side,) + key + (phi_sq, ADIABATIC_DELTA)))
    return out


# -------------------------------------------------------------------- cli
def cli_points(seed: int) -> list[tuple]:
    """One argv per CLI use: every subcommand, sweeps, both formats, the
    density profile, the full crosscheck suite and ``cutoff-sum --D 3``.

    Values vary with the seed; the parameters that set a call's cost (naT,
    lambda/a, the Lorentz model) only within narrow bands, so every seed
    has the same nine cheap calls, the same nine median calls (12-point
    free-energy sweeps) and the same nine expensive calls.  The
    600-point sweep gives the error-bar share enough values to be steady."""
    rng = random.Random(seed)

    def num(lo, hi):
        return repr(rng.uniform(lo, hi))

    def cavity(nat):
        """--a/--T/--n flags for a cavity at naT = nat (jittered 2%)."""
        a, n = rng.uniform(0.8, 1.25), rng.uniform(1.0, 1.5)
        T = nat * rng.uniform(0.98, 1.02) / (n * a)
        return ["--a", repr(a), "--T", repr(T), "--n", repr(n)]

    def t_sweep(nat_lo, nat_hi, count):
        a = rng.uniform(0.8, 1.25)
        lo, hi = nat_lo / a * rng.uniform(0.98, 1.02), nat_hi / a * rng.uniform(0.98, 1.02)
        return ["--a", repr(a), "--sweep", f"T:{lo!r}:{hi!r}:{count}:log"]

    fmt = ["csv", "json"]
    rng.shuffle(fmt)
    eps_bar = num(1.8, 2.2)
    a_cut = rng.uniform(0.8, 1.25)
    argvs = [
        # cheap
        ["free-energy", *cavity(0.3), "--format", fmt[0]],
        ["internal-energy", *cavity(1.0), "--format", fmt[1]],
        ["em-energy", *cavity(0.5), "--format", fmt[0]],
        ["pressure", *cavity(1.0), "--format", fmt[1]],
        ["pressure", "--a", num(0.8, 1.25), "--T", "0", "--sweep", "D:5:8:4:lin",
         "--format", "json"],
        ["circuit", "--L", num(0.5, 2.0), "--C0", num(0.5, 2.0), "--eps-bar", eps_bar,
         "--omega0", num(5.0, 20.0), "--format", fmt[1]],
        ["cutoff-sum", "--D", "3", "--a", repr(a_cut),
         "--cutoff-lambda", repr(0.8 * a_cut * rng.uniform(0.98, 1.02))],
        ["profile", "--D", str(rng.randint(5, 8)), "--a", num(0.8, 1.25), "--format", fmt[0]],
        ["free-energy", "--a", num(0.8, 1.25), "--T", "0", "--n", num(1.0, 2.0),
         "--format", "json"],
        # median: a cluster of like calls, so the median point is the middle
        # of nine and not one call's noise
        *(["free-energy", *t_sweep(0.2, 0.5, 12), "--format", "json"] for _ in range(9)),
        # expensive
        ["em-energy", "--a", num(0.8, 1.25), "--T", "0", "--n", num(1.0, 2.0)],
        # always json: rendering 600 rows as json peaks about 1.4 MB higher
        # than as csv, and a seeded choice made peak_rss_mb bimodal
        ["internal-energy", *t_sweep(0.05, 3.0, 600), "--format", "json"],
        ["free-energy", *t_sweep(0.03, 0.1, 6), "--format", "json"],
        ["pressure", *t_sweep(0.1, 1.0, 5)],
        ["cutoff-sum", "--sweep", "D:4:6:3:lin", "--a", repr(a_cut),
         "--cutoff-lambda", repr(0.8 * a_cut * rng.uniform(0.98, 1.02))],
        ["cutoff-sum", "--D", "4", "--eps-bar", eps_bar, "--omega0", num(3.5, 4.5),
         "--sweep", f"cutoff_lambda:{rng.uniform(0.9, 0.95)!r}:{rng.uniform(1.05, 1.1)!r}:5:lin",
         "--format", "json"],
        ["dispersive", "--eps-bar", eps_bar, "--omega0", num(0.9, 1.1)],
        ["dispersive", "--eps-bar", eps_bar, "--omega0", num(0.35, 0.45),
         "--omega-max", num(1.8, 2.2), "--format", "json"],
        ["crosscheck", "--suite", "all", "--format", fmt[0]],
    ]
    return [tuple(argv) for argv in argvs]


def _cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught library error ends the call
            return None, type(exc).__name__
    return (code, out.getvalue()), None


def _parse(text: str, fmt: str) -> list[dict]:
    if not text:
        return []
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# crosscheck row name -> oracle keys for (lhs, rhs); None where the row
# is an indicator with no reference value
_XC = [
    (r"U_direct=U_resummed@naT=(.+)", lambda x: (("U", 1.0, float(x), 1.0),) * 2),
    (r"U_fromF=U_direct@naT=(.+)", lambda x: (("U", 1.0, float(x), 1.0),) * 2),
    (r"W=U@naT=(.+)", lambda x: (("U", 1.0, float(x), 1.0),) * 2),
    (r"W_T0_quad=closed", lambda: (("F0", 1.0, 1.0),) * 2),
    (r"W_T0_polar=quad", lambda: (("F0", 1.0, 1.0),) * 2),
    (r"W_inner_closed=quadrature@naT=(.+)", lambda x: (("U", 1.0, float(x), 1.0),) * 2),
    (r"E=H@\(k=(.+),z=(.+)\)",
     lambda k, z: (("EH", float(k), float(z), 1.0, None, None),) * 2),
    (r"P_quad=P_closed@D=(\d+)", lambda D: (("PD", int(D), 1.0, 1.0),) * 2),
    (r"\(D-1\)w1=P@D=(\d+)", lambda D: (("PD", int(D), 1.0, 1.0),) * 2),
    (r"-d\(a\*w1\)/da=P@D=(\d+)", lambda D: (("PD", int(D), 1.0, 1.0),) * 2),
    (r"circuit:LJ2=Cphi2", lambda: (("exact", 1.0),) * 2),
    (r"mode_residual@k=(.+)", lambda k: (("exact", float(k)),) * 2),
    (r"w_I\(omega0->inf\)=static", lambda: (("wI", 4.0, 1e4, 1.0), ("F0", 1.0, 2.0))),
    (r"cutoff_exponent~D", lambda: (("log2ratio", 4, 1.0, 1.0, 0.1), ("exact", 4.0))),
    (r"dispersive_sum\(eps=1\)=vacuum", lambda: (("mode", 4, 1.0, 1.0, 0.5),) * 2),
]


def _crosscheck_refs(name: str):
    for pattern, keys in _XC:
        m = re.fullmatch(pattern, name)
        if m:
            return keys(*m.groups())
    return None, None


def _row_key(command: str, row: dict):
    def f(k):
        return float(row[k])

    if command in ("free-energy", "internal-energy", "em-energy", "pressure"):
        a, T, n = f("a"), f("T"), f("n")
        if T == 0:
            return ("PD", int(f("D")), a, n) if command == "pressure" else ("F0", a, n)
        return {"free-energy": "F", "pressure": "P"}.get(command, "U"), a, T, n
    if command == "dispersive":
        if "omega_max" in row:
            return ("W2", f("eps_bar"), f("omega0"), f("a"), f("omega_max"))
        return ("wI", f("eps_bar"), f("omega0"), f("a"))
    if command == "circuit":
        return ("circ_E", f("L"), f("a"), f("C0"), f("eps_bar"), f("omega0"), f("phi_sq"))
    if command == "cutoff-sum":
        D, a, lam = int(f("D")), f("a"), f("cutoff_lambda")
        if "eps_bar" in row:
            return ("dmode", D, a, f("eps_bar"), f("omega0"), lam)
        return ("mode", D, a, f("n"), lam)
    raise ValueError(f"no reference for command {command!r}")


def _truthy(x) -> bool:
    return x is True or x == "true"


def cli_values(argv, code: int, text: str) -> list[Value]:
    command = argv[0]
    route = f"cli.{command}"
    rows = _parse(text, _flag(argv, "--format", "csv"))
    out = []
    for row in rows:
        if command == "crosscheck":
            lhs_ref, rhs_ref = _crosscheck_refs(row["check"])
            failed = None if _truthy(row["passed"]) else "check_failed"
            for side, ref in (("lhs", lhs_ref), ("rhs", rhs_ref)):
                v = _checked(route, row[side], ref)
                out.append(Value(v.route, v.value, ref, None, v.failed or failed))
        elif command == "profile":
            D, a, n, u = int(float(row["D"])), float(row["a"]), float(row["n"]), float(row["u"])
            out.append(_checked(route, row["w1"], ("w1", D, a, n)))
            out.append(_checked(route, row["w2"], ("w2", D, a, n, u)))
            out.append(_checked(route, row["total"], ("w", D, a, n, u)))
        else:
            name = route + ".dispersive" if command == "cutoff-sum" and "eps_bar" in row else route
            out.append(_checked(name, row["value"], _row_key(command, row),
                                float(row["err_estimate"]), _truthy(row["converged"])))
    if code != 0:
        if not any(v.failed for v in out):
            out = [Value(v.route, v.value, v.ref, v.err, f"exit_{code}") for v in out]
        if not out:
            out = [Value(route, None, None, failed=f"exit_{code}")]
    return out


def cli_run(argv) -> tuple:
    """Runs one CLI call; returns (result, fingerprint).  Parsing the
    output into values waits for ``cli_result_values``, outside the timed
    region."""
    result, failure = _cli_call(argv)
    return (argv, result, failure), failure or result


def cli_result_values(run_result) -> list[Value]:
    argv, result, failure = run_result
    if failure:
        return [Value(f"cli.{argv[0]}", None, None, failed=failure)]
    return cli_values(argv, *result)


# ------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A workload: its seeded point generator, its point runner (timed;
    returns a result and a fingerprint of the output) and the conversion
    of a result into values (not timed).  BENCHMARK.json records why each
    workload was chosen."""

    name: str
    points: object
    run: object
    values: object


def _numeric(run_point):
    def run(point):
        values = run_point(point)
        return values, tuple((v.value, v.failed) for v in values)

    return run


def _as_is(values):
    return values


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thermal", thermal_points, _numeric(thermal_run), _as_is),
        Workload("spectral", spectral_points, _numeric(spectral_run), _as_is),
        Workload("modesum", modesum_points, _numeric(modesum_run), _as_is),
        Workload("cli", cli_points, cli_run, cli_result_values),
    )
}
