"""Command-line front end: single evaluations, parameter sweeps, the
density profile table, and the route cross-check suite, emitted as CSV or
JSON for offline consumption (no plotting here).

free-energy, internal-energy, em-energy (the field energy W = U) and
pressure at D = 4 print one casimir.matsubara route each at every T >= 0.
Each command imports the modules it reads when it runs, so importing this
module loads casimir.engine alone: the D = 4 cavity commands load
matsubara (and its specfun), and only crosscheck loads green_em and
checks.

Numbers are printed with 17 significant digits so a double round-trips
exactly; identical invocations produce byte-identical output.  JSON
output writes a non-finite number as null (CSV keeps inf/nan), so it is
always valid JSON.  Exit codes:
0 success, 1 numerical failure (non-convergence: rows still emitted,
flagged; an arithmetic error such as division by zero or overflow: no
rows, an error line on stderr), 2 usage error.

One flat parser takes the command as a positional and every flag once,
so flags may stand before or after the command; a flag a command does not
read (--suite outside crosscheck, --omega-max outside dispersive, ...) is
accepted and ignored.  Parameters resolve in the order: built-in
defaults, then a key=value config file (--config, or the CASIMIR_CONFIG
environment variable; each value is converted where it is read, so a bad
one is reported with its file, line and key), then explicit flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .engine import EnergyValue, Tolerance

__all__ = ["main"]

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

# parameter -> (type, built-in default)
_PARAMS = {
    "a": (float, 1.0),
    "T": (float, 0.0),
    "n": (float, 1.0),
    "D": (int, 4),
    "eps_bar": (float, None),
    "omega0": (float, 10.0),
    "cutoff_lambda": (float, 0.1),
    "omega_max": (float, None),
    "L": (float, 1.0),
    "C0": (float, 1.0),
    "phi_sq": (float, 1.0),
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


# the casimir.matsubara route each D = 4 cavity command prints
_CAVITY_ROUTES = {
    "free-energy": "free_energy",
    "internal-energy": "internal_energy",
    "em-energy": "internal_energy",
    "pressure": "pressure",
}


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_value(x):
    # JSON has no NaN or Infinity: a non-finite float is written as null
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _render(rows: list[dict], fmt: str) -> str:
    if not rows:
        return ""
    keys = list(rows[0].keys())
    if fmt == "json":
        rows = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"
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


def _lorentz(params):
    from . import dispersion

    eps_bar = params["eps_bar"] if params["eps_bar"] is not None else 2.0
    return dispersion.LorentzModel(eps_bar=eps_bar, omega0=params["omega0"])


def _evaluate(command: str, params: dict, tol: Tolerance) -> list[dict]:
    """Rows for one parameter point of any command but crosscheck."""
    if command in _CAVITY_ROUTES:
        from . import matsubara

        cfg = matsubara.CavityConfig(a=params["a"], T=params["T"], n=params["n"])
        if command == "pressure" and params["D"] != 4:
            if cfg.T > 0:
                raise UsageError("finite-temperature pressure is only available at D = 4")
            from . import hyperdim

            hcfg = hyperdim.HyperConfig(dim=params["D"], a=params["a"], n=params["n"])
            ev = hyperdim.pressure_closed(hcfg)
        else:
            ev = getattr(matsubara, _CAVITY_ROUTES[command])(cfg, tol)
        return [_energy_row(_COLUMNS[command], params, ev)]
    if command == "dispersive":
        from . import dispersion, matsubara

        model = _lorentz(params)
        cfg = matsubara.CavityConfig(a=params["a"], T=0.0)
        resolved = dict(params, eps_bar=model.eps_bar)
        if params["omega_max"] is None:
            ev = dispersion.w_I_energy(model, cfg, tol)
            return [_energy_row(_COLUMNS[command], resolved, ev)]
        spec = dispersion.CutoffSpec(params["omega_max"])
        res = dispersion.w2_density_cutoff(model, cfg, spec, tol)
        cols = _COLUMNS[command] + ("omega_max",)
        rows = []
        for om, val in res.scan:
            p = dict(resolved, omega_max=om)
            ev = EnergyValue(val, res.value.err_estimate, "quadrature", res.value.converged)
            rows.append(_energy_row(cols, p, ev))
        return rows
    if command == "circuit":
        from . import circuit

        model = _lorentz(params)
        spec = circuit.CircuitSpec(
            L=params["L"],
            a=params["a"],
            A_plate=params["C0"],
            eps_model=model,
            phi_sq_bar=params["phi_sq"],
        )
        ev = circuit.circuit_energy(spec)
        return [_energy_row(_COLUMNS[command], dict(params, eps_bar=model.eps_bar), ev)]
    from . import hyperdim

    if command == "cutoff-sum":
        hcfg = hyperdim.HyperConfig(dim=params["D"], a=params["a"], n=params["n"])
        if params["eps_bar"] is None:
            ev = hyperdim.mode_energy(hcfg, params["cutoff_lambda"], tol)
            return [_energy_row(_COLUMNS[command], params, ev)]
        model = _lorentz(params)
        ev = hyperdim.dispersive_hyper_energy(hcfg, model, params["cutoff_lambda"], tol)
        cols = _COLUMNS[command] + ("eps_bar", "omega0")
        return [_energy_row(cols, params, ev)]
    # profile: u, w1, w2, raw and regularized totals at 99 interior points
    if params["D"] < 4:
        raise UsageError("profile requires D >= 4")
    hcfg = hyperdim.HyperConfig(dim=params["D"], a=params["a"], n=params["n"])
    prof = hyperdim.density_profile(hcfg, [i / 100.0 for i in range(1, 100)])
    head = {k: params[k] for k in ("a", "n", "D")}
    return [
        dict(head, u=u, w1=prof.w1, w2=w2, total=tot, regularized=prof.w1)
        for u, w2, tot in zip(prof.u_grid, prof.w2_values, prof.total)
    ]


def _sweep_points(command: str, text: str) -> tuple[str, list]:
    """The swept parameter and its values from --sweep param:start:stop:count:scale."""
    parts = text.split(":")
    if len(parts) != 5:
        raise UsageError(f"--sweep expects param:start:stop:count:scale, got {text!r}")
    param = parts[0].replace("-", "_")
    if param not in _PARAMS:
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
    if command in ("profile", "crosscheck"):
        raise UsageError(f"{command} does not support --sweep")
    allowed = set(_COLUMNS[command])
    if command == "cutoff-sum":
        allowed |= {"eps_bar", "omega0"}
    if param not in allowed:
        raise UsageError(f"cannot sweep {param!r} for command {command!r}")
    if scale == "lin":
        step = (stop - start) / (count - 1)
        values = [start + i * step for i in range(count)]
    else:
        lo, hi = math.log(start), math.log(stop)
        step = (hi - lo) / (count - 1)
        values = [math.exp(lo + i * step) for i in range(count)]
    if param == "D":
        as_int = [round(v) for v in values]
        if any(abs(v - i) > 1e-9 for v, i in zip(values, as_int)):
            raise UsageError("a sweep over D must produce integer values")
        values = as_int
    return param, values


def _run(command: str, params: dict, sweep: str | None, tol: Tolerance) -> tuple[int, list[dict]]:
    """Evaluate command at params, or at each point of the sweep text;
    returns (exit_code, rows)."""
    key, points = _sweep_points(command, sweep) if sweep else (None, [None])
    if command == "crosscheck":
        from . import checks

        rows = checks.crosscheck(tol)
        return (0 if all(r["passed"] for r in rows) else 1), rows
    rows = []
    for point in points:
        rows.extend(_evaluate(command, params if key is None else {**params, key: point}, tol))
    return (0 if all(r.get("converged", True) for r in rows) else 1), rows


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
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in _PARAMS:
                raise UsageError(f"{path}:{lineno}: unknown parameter {key!r}")
            typ = _PARAMS[key][0]
            try:
                out[key] = typ(value)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: {key} expects {typ.__name__}, got {value!r}"
                ) from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir plate energies: thermodynamic, electromagnetic, "
        "dispersive, and higher-dimensional routes.",
    )
    parser.add_argument("command", choices=COMMANDS)
    for flag, (typ, _) in _PARAMS.items():
        parser.add_argument(f"--{flag.replace('_', '-')}", type=typ, default=None, dest=flag)
    parser.add_argument("--sweep", default=None, metavar="param:start:stop:count:scale")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--tol-rel", type=float, default=1e-10, dest="tol_rel")
    parser.add_argument("--tol-abs", type=float, default=1e-14, dest="tol_abs")
    parser.add_argument("--max-iter", type=int, default=10**6, dest="max_iter")
    parser.add_argument("--suite", choices=("all",), default="all")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params = {key: default for key, (_, default) in _PARAMS.items()}
        config_path = args.config or os.environ.get("CASIMIR_CONFIG")
        if config_path:
            params.update(_load_config_file(config_path))
        for key in _PARAMS:
            if getattr(args, key) is not None:
                params[key] = getattr(args, key)
        tol = Tolerance(rel=args.tol_rel, abs=args.tol_abs, max_iter=args.max_iter)
        code, rows = _run(args.command, params, args.sweep, tol)
        text = _render(rows, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            return code
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
