"""Command-line front end: single evaluations, parameter sweeps, the
density profile table, and the route cross-check suite, emitted as CSV or
JSON for offline consumption (no plotting here).

Numbers are printed with 17 significant digits so a double round-trips
exactly; identical invocations produce byte-identical output.  Exit codes:
0 success, 1 numerical failure (non-convergence: rows still emitted,
flagged; an arithmetic error such as division by zero or overflow: no
rows, an error line on stderr), 2 usage error.

Parameters resolve in the order: built-in defaults, then a key=value
config file (--config, or the CASIMIR_CONFIG environment variable), then
explicit flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .engine import Tolerance
from . import matsubara, green_em, dispersion, circuit as circuit_mod, hyperdim
from .matsubara import CavityConfig
from .dispersion import LorentzModel, CutoffSpec
from .hyperdim import HyperConfig

__all__ = ["RunConfig", "SweepSpec", "run", "emit_profile", "main"]

COMMANDS = (
    "free-energy",
    "internal-energy",
    "em-energy",
    "pressure",
    "profile",
    "dispersive",
    "circuit",
    "cutoff-sum",
    "crosscheck",
)

_PARAM_TYPES = {
    "a": float,
    "T": float,
    "n": float,
    "D": int,
    "eps_bar": float,
    "omega0": float,
    "cutoff_lambda": float,
    "omega_max": float,
    "L": float,
    "C0": float,
    "phi_sq": float,
}

_DEFAULTS = {
    "a": 1.0,
    "T": 0.0,
    "n": 1.0,
    "D": 4,
    "eps_bar": None,
    "omega0": 10.0,
    "cutoff_lambda": 0.1,
    "omega_max": None,
    "L": 1.0,
    "C0": 1.0,
    "phi_sq": 1.0,
}

# parameter columns emitted per command, in order
_COLUMNS = {
    "free-energy": ("a", "T", "n"),
    "internal-energy": ("a", "T", "n"),
    "em-energy": ("a", "T", "n"),
    "pressure": ("a", "T", "n", "D"),
    "dispersive": ("a", "eps_bar", "omega0"),
    "circuit": ("L", "a", "C0", "eps_bar", "omega0", "phi_sq"),
    "cutoff-sum": ("a", "n", "D", "cutoff_lambda"),
}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    count: int
    scale: str  # "lin" or "log"

    def values(self):
        if self.scale == "lin":
            step = (self.stop - self.start) / (self.count - 1)
            return [self.start + i * step for i in range(self.count)]
        lo, hi = math.log(self.start), math.log(self.stop)
        step = (hi - lo) / (self.count - 1)
        return [math.exp(lo + i * step) for i in range(self.count)]


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    sweep: SweepSpec | None = None
    format: str = "csv"
    out: str | None = None
    tol: Tolerance = Tolerance()


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _render(rows: list[dict], fmt: str) -> str:
    if not rows:
        return ""
    keys = list(rows[0].keys())
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in keys])
    return buf.getvalue()


def _energy_row(cols, params, ev) -> dict:
    row = {k: params[k] for k in cols}
    row.update(
        value=ev.value,
        err_estimate=ev.err_estimate,
        method=ev.method,
        converged=bool(ev.converged),
    )
    return row


def _lorentz(params) -> LorentzModel:
    eps_bar = params["eps_bar"] if params["eps_bar"] is not None else 2.0
    return LorentzModel(eps_bar=eps_bar, omega0=params["omega0"])


def _evaluate(command: str, params: dict, tol: Tolerance) -> list[dict]:
    if command in ("free-energy", "internal-energy", "em-energy", "pressure"):
        cfg = CavityConfig(a=params["a"], T=params["T"], n=params["n"])
    if command == "free-energy":
        ev = matsubara.free_energy_T0(cfg) if cfg.T == 0 else matsubara.free_energy(cfg, tol)
        return [_energy_row(_COLUMNS[command], params, ev)]
    if command == "internal-energy":
        if cfg.T == 0:
            ev = matsubara.free_energy_T0(cfg)  # U(0) = F(0)
        else:
            ev = matsubara.internal_energy(cfg, tol)
        return [_energy_row(_COLUMNS[command], params, ev)]
    if command == "em-energy":
        ev = green_em.em_energy_T0(cfg, tol) if cfg.T == 0 else green_em.em_energy_finiteT(cfg, tol)
        return [_energy_row(_COLUMNS[command], params, ev)]
    if command == "pressure":
        if params["T"] == 0:
            ev = hyperdim.pressure_closed(HyperConfig(dim=params["D"], a=params["a"], n=params["n"]))
        elif params["D"] == 4:
            ev = matsubara.pressure(cfg, tol)
        else:
            raise UsageError("finite-temperature pressure is only available at D = 4")
        return [_energy_row(_COLUMNS[command], params, ev)]
    if command == "dispersive":
        model = _lorentz(params)
        cfg = CavityConfig(a=params["a"], T=0.0)
        resolved = dict(params, eps_bar=model.eps_bar)
        if params["omega_max"] is None:
            ev = dispersion.w_I_energy(model, cfg, tol)
            return [_energy_row(_COLUMNS[command], resolved, ev)]
        res = dispersion.w2_density_cutoff(model, cfg, CutoffSpec(params["omega_max"]), tol)
        cols = _COLUMNS[command] + ("omega_max",)
        rows = []
        for om, val in res.scan:
            p = dict(resolved, omega_max=om)
            ev = matsubara.EnergyValue(val, res.value.err_estimate, "quadrature", res.value.converged)
            rows.append(_energy_row(cols, p, ev))
        return rows
    if command == "circuit":
        model = _lorentz(params)
        spec = circuit_mod.CircuitSpec(
            L=params["L"],
            a=params["a"],
            A_plate=params["C0"],
            eps_model=model,
            phi_sq_bar=params["phi_sq"],
        )
        energy = circuit_mod.circuit_energy(spec)
        ev = matsubara.EnergyValue(energy.value, abs(energy.value) * 1e-12, "closed_form")
        return [_energy_row(_COLUMNS[command], dict(params, eps_bar=model.eps_bar), ev)]
    if command == "cutoff-sum":
        hcfg = HyperConfig(dim=params["D"], a=params["a"], n=params["n"])
        if params["eps_bar"] is None:
            res = hyperdim.cutoff_mode_energy(hcfg, params["cutoff_lambda"], tol)
            return [_energy_row(_COLUMNS[command], params, res.value)]
        model = _lorentz(params)
        ev = hyperdim.dispersive_hyper_energy(hcfg, model, params["cutoff_lambda"], tol)
        cols = _COLUMNS[command] + ("eps_bar", "omega0")
        return [_energy_row(cols, params, ev)]
    raise UsageError(f"unknown command {command!r}")


def emit_profile(cfg: RunConfig) -> tuple[int, str]:
    """Density-profile table: u, w1, w2, raw and regularized totals."""
    params = cfg.params
    if params["D"] < 4:
        raise UsageError("profile requires D >= 4")
    hcfg = HyperConfig(dim=params["D"], a=params["a"], n=params["n"])
    grid = [i / 100.0 for i in range(1, 100)]  # 99 interior points
    prof = hyperdim.density_profile(hcfg, grid)
    rows = []
    for u, w2, tot in zip(prof.u_grid, prof.w2_values, prof.total):
        rows.append(
            {
                "a": params["a"],
                "n": params["n"],
                "D": params["D"],
                "u": u,
                "w1": prof.w1,
                "w2": w2,
                "total": tot,
                "regularized": prof.w1,
            }
        )
    return 0, _render(rows, cfg.format)


def _crosscheck_rows(tol: Tolerance) -> list[dict]:
    rows = []

    def check(name: str, lhs: float, rhs: float, tolerance: float, relative=True):
        scale = max(abs(lhs), abs(rhs)) if relative else 1.0
        metric = abs(lhs - rhs) / scale if scale else 0.0
        rows.append(
            {
                "check": name,
                "lhs": lhs,
                "rhs": rhs,
                "metric": metric,
                "tol": tolerance,
                "passed": bool(metric <= tolerance),
            }
        )

    for naT in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0):
        cfg = CavityConfig(a=1.0, T=naT)
        check(
            f"U_direct=U_resummed@naT={naT:g}",
            matsubara.internal_energy_direct(cfg, tol).value,
            matsubara.internal_energy_resummed(cfg, tol).value,
            1e-9,
        )
    for naT in (0.3, 1.0, 2.0):
        cfg = CavityConfig(a=1.0, T=naT)
        check(
            f"U_fromF=U_direct@naT={naT:g}",
            matsubara.internal_energy_from_F(cfg, tol).value,
            matsubara.internal_energy_direct(cfg, tol).value,
            1e-6,
        )
    for naT in (0.3, 1.0, 2.0, 5.0):
        cfg = CavityConfig(a=1.0, T=naT)
        check(
            f"W=U@naT={naT:g}",
            green_em.em_energy_finiteT(cfg, tol).value,
            matsubara.internal_energy_direct(cfg, tol).value,
            1e-10,
        )
    cfg0 = CavityConfig(a=1.0, T=0.0)
    w_quad = green_em.em_energy_T0(cfg0, Tolerance(rel=1e-11, abs=0.0)).value
    check("W_T0_quad=closed", w_quad, matsubara.free_energy_T0(cfg0).value, 1e-8)
    check("W_T0_polar=quad", green_em.em_energy_T0_polar(cfg0, tol).value, w_quad, 1e-8)
    cfg_half = CavityConfig(a=1.0, T=0.5)
    check(
        "W_inner_closed=quadrature@naT=0.5",
        green_em.em_energy_finiteT(cfg_half, tol, inner="closed").value,
        green_em.em_energy_finiteT(cfg_half, tol, inner="quadrature").value,
        1e-10,
    )
    for k_perp, zeta in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.1)):
        p = green_em.spectral_energy_density(k_perp, zeta, cfg0)
        check(f"E=H@(k={k_perp:g},z={zeta:g})", p.electric_half, p.magnetic_half, 1e-12)
    for D in (4, 5, 6, 7, 8):
        hcfg = HyperConfig(dim=D)
        check(
            f"P_quad=P_closed@D={D}",
            hyperdim.pressure_quadrature(hcfg, Tolerance(rel=1e-11, abs=0.0)).value,
            hyperdim.pressure_closed(hcfg).value,
            1e-8,
        )
    for D in (4, 5, 6):
        hcfg = HyperConfig(dim=D)
        ident, fd = hyperdim.pressure_from_w1(hcfg)
        closed = hyperdim.pressure_closed(hcfg).value
        check(f"(D-1)w1=P@D={D}", ident.value, closed, 1e-12)
        check(f"-d(a*w1)/da=P@D={D}", fd.value, closed, 1e-8)
    model = LorentzModel(eps_bar=2.0, omega0=10.0)
    spec = circuit_mod.CircuitSpec(L=1.0, eps_model=model)
    w_star = circuit_mod.eigenfrequency(spec)
    check("circuit:LJ2=Cphi2", w_star**2 * spec.L * spec.capacitance(w_star), 1.0, 1e-12)
    r3 = circuit_mod.adiabatic_variation_check(spec, 1e-3)
    r4 = circuit_mod.adiabatic_variation_check(spec, 1e-4)
    check(
        "circuit:first_order_adiabatic",
        abs(r4[0] / r4[1] - 1.0),
        0.0,
        0.12 * abs(r3[0] / r3[1] - 1.0),
        relative=False,
    )
    for k in (1.0, 5.0, 20.0):
        w = dispersion.dispersive_mode_solve(model, k)
        check(
            f"mode_residual@k={k:g}",
            math.sqrt(dispersion.eps_of_omega(model, w)) * w,
            k,
            1e-10,
        )
    stiff = LorentzModel(eps_bar=4.0, omega0=1e4)
    check(
        "w_I(omega0->inf)=static",
        dispersion.w_I_energy(stiff, cfg0, tol).value,
        matsubara.free_energy_T0(CavityConfig(a=1.0, T=0.0, n=2.0)).value,
        1e-6,
    )
    soft = LorentzModel(eps_bar=2.0, omega0=0.2)
    scan = dispersion.w2_density_cutoff(soft, cfg0, CutoffSpec(2.0), tol).scan
    check(
        "W_II_scan_monotone",
        1.0 if abs(scan[0][1]) < abs(scan[1][1]) < abs(scan[2][1]) else 0.0,
        1.0,
        0.0,
        relative=False,
    )
    hcfg4 = HyperConfig(dim=4)
    scan = hyperdim.cutoff_mode_energy(hcfg4, 0.1, tol).scan
    exponent = math.log2(scan[1][1] / scan[0][1])
    check("cutoff_exponent~D", exponent, 4.0, 0.2 * 4.0, relative=False)
    vac = hyperdim.cutoff_mode_energy(hcfg4, 0.5, tol).value.value
    disp = hyperdim.dispersive_hyper_energy(hcfg4, LorentzModel(eps_bar=1.0, omega0=1.0), 0.5, tol).value
    check("dispersive_sum(eps=1)=vacuum", disp, vac, 1e-8)
    return rows


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute a RunConfig; returns (exit_code, rendered table)."""
    if cfg.command not in COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")
    if cfg.command in ("profile", "crosscheck"):
        if cfg.sweep is not None:
            raise UsageError(f"{cfg.command} does not support --sweep")
        if cfg.command == "profile":
            return emit_profile(cfg)
        rows = _crosscheck_rows(cfg.tol)
        code = 0 if all(r["passed"] for r in rows) else 1
        return code, _render(rows, cfg.format)

    sweeps = [None]
    if cfg.sweep is not None:
        key = cfg.sweep.param
        allowed = set(_COLUMNS[cfg.command])
        if cfg.command == "cutoff-sum":
            allowed |= {"eps_bar", "omega0"}
        if key not in allowed:
            raise UsageError(f"cannot sweep {key!r} for command {cfg.command!r}")
        sweeps = cfg.sweep.values()
        if cfg.sweep.param == "D":
            as_int = [round(v) for v in sweeps]
            if any(abs(v - i) > 1e-9 for v, i in zip(sweeps, as_int)):
                raise UsageError("a sweep over D must produce integer values")
            sweeps = as_int

    rows = []
    for point in sweeps:
        params = dict(cfg.params)
        if point is not None:
            params[cfg.sweep.param] = point
        rows.extend(_evaluate(cfg.command, params, cfg.tol))
    converged = all(r.get("converged", True) for r in rows)
    return (0 if converged else 1), _render(rows, cfg.format)


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _PARAM_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown parameter {key!r}")
            out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir plate energies: thermodynamic, electromagnetic, "
        "dispersive, and higher-dimensional routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag, typ in _PARAM_TYPES.items():
            p.add_argument(f"--{flag.replace('_', '-')}", type=typ, default=None, dest=flag)
        p.add_argument("--sweep", default=None, metavar="param:start:stop:count:scale")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--tol-rel", type=float, default=1e-10, dest="tol_rel")
        p.add_argument("--tol-abs", type=float, default=1e-14, dest="tol_abs")
        p.add_argument("--max-iter", type=int, default=10**6, dest="max_iter")
        if name == "crosscheck":
            p.add_argument("--suite", choices=("all",), default="all")
    return parser


def _parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 5:
        raise UsageError(f"--sweep expects param:start:stop:count:scale, got {text!r}")
    param = parts[0].replace("-", "_")
    if param not in _PARAM_TYPES:
        raise UsageError(f"unknown sweep parameter {parts[0]!r}")
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise UsageError(f"bad sweep bounds in {text!r}") from exc
    scale = parts[4]
    if scale not in ("lin", "log"):
        raise UsageError(f"sweep scale must be lin or log, got {scale!r}")
    if count < 2:
        raise UsageError("sweep count must be >= 2")
    if scale == "log" and (start <= 0 or stop <= 0):
        raise UsageError("log sweeps need positive bounds")
    return SweepSpec(param, start, stop, count, scale)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = dict(_DEFAULTS)
        config_path = args.config or os.environ.get("CASIMIR_CONFIG")
        if config_path:
            for key, text in _load_config_file(config_path).items():
                params[key] = _PARAM_TYPES[key](text)
        for key in _PARAM_TYPES:
            if getattr(args, key) is not None:
                params[key] = getattr(args, key)
        tol = Tolerance(rel=args.tol_rel, abs=args.tol_abs, max_iter=args.max_iter)
        cfg = RunConfig(
            command=args.command,
            params=params,
            sweep=_parse_sweep(args.sweep) if args.sweep else None,
            format=args.format,
            out=args.out,
            tol=tol,
        )
        code, text = run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
