"""Record the casimir CLI's exit code, stdout and stderr on a fixed set of
invocations, so two source trees can be compared byte for byte.

    python tools/cli_golden.py SRC OUT.json
    python tools/cli_golden.py --compare OLD.json NEW.json

SRC is the ``src/`` directory of the tree to run; OUT.json receives one
record per invocation: argv, exit code (or the uncaught exception), stdout,
stderr and, for ``--out`` calls, the written file (null when none was
written).  Each call runs in process through ``casimir.cli.main`` inside a
fresh temporary directory holding the config files below, with
``CASIMIR_CONFIG`` unset and ``COLUMNS=80`` so argparse's help text wraps
the same everywhere.  Two trees agree when ``diff`` finds their OUT.json
files equal.  ``tools/golden.json`` is the record of the committed tree;
``tests/test_golden.py`` records the set in tier-1 and compares it with
that file, CI prints the ``--compare`` report of a fresh record against
it and then diffs the two on every interpreter it tests, and a change
that moves bytes records it again in the same commit.

``--compare`` prints each invocation whose record differs between two
OUT.json files, with the changed lines of stdout (and of a written file)
side by side, old then new.  For each moved CSV or JSON row that has a
value and an err_estimate it also prints |delta| of the values and both
errors.  It exits 1 if any exit code or stderr differs, if some |delta|
exceeds the old error plus the new one, or if the files do not record the
same invocations, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

# relative names, so error messages do not depend on the temporary directory
CONFIG_FILES = {
    "good.cfg": "a = 2.0\nT = 1.0  # comment\n",
    "bad_int.cfg": "D=4.5\n",
    "bad_float.cfg": "T = 1.0\na = wide\n",
    "bad_key.cfg": "banana=1\n",
    "bad_line.cfg": "just words\n",
}

CALLS = [
    # every command, csv and json
    ["free-energy", "--a", "1", "--T", "0.7"],
    ["free-energy", "--T", "0", "--format", "json"],
    # F, U and P on both sides of the naT = 0.3 route split, and far below it
    ["free-energy", "--T", "0.29"],
    ["free-energy", "--T", "0.31"],
    ["internal-energy", "--T", "0.29"],
    ["internal-energy", "--T", "0.31"],
    ["pressure", "--T", "0.001", "--format", "json"],
    # U at T = 0 (the closed form U(0) = F(0)) and where its terms are subnormal
    ["internal-energy", "--T", "0"],
    ["internal-energy", "--T", "57.5"],
    # F, U and P where u = 2 pi naT squared underflows: their T -> 0 limits
    ["free-energy", "--T", "1e-200"],
    ["internal-energy", "--T", "1e-200"],
    ["pressure", "--T", "1e-200"],
    ["internal-energy", "--a", "1", "--T", "1", "--n", "1"],
    ["internal-energy", "--T", "0.5", "--n", "1.3", "--format", "json"],
    ["em-energy", "--a", "1", "--n", "1"],
    ["em-energy", "--T", "0", "--a", "0.7", "--n", "2.3"],
    ["em-energy", "--T", "0", "--a", "3", "--n", "1.05"],
    ["em-energy", "--T", "0.5", "--format", "json"],
    # W = U where the direct W sum would need 10^7 terms or more: the T -> 0 limit
    ["em-energy", "--T", "1e-200"],
    ["em-energy", "--T", "1e-8", "--format", "json"],
    ["pressure", "--D", "4", "--n", "1", "--a", "1"],
    ["pressure", "--T", "0", "--D", "12", "--format", "json"],
    ["pressure", "--T", "0.3", "--a", "1.2", "--n", "1.4", "--format", "json"],
    ["profile", "--D", "6"],
    ["profile", "--D", "4", "--format", "json"],
    ["dispersive", "--eps-bar", "2", "--omega0", "1"],
    ["dispersive", "--eps-bar", "2", "--omega0", "0.2", "--omega-max", "2", "--format", "json"],
    ["circuit", "--L", "1", "--C0", "1", "--eps-bar", "2", "--omega0", "10"],
    ["circuit", "--format", "json"],
    # the vacuum capacitor, eps_bar = 1, at a plain and an extreme L C0
    ["circuit", "--eps-bar", "1"],
    ["circuit", "--eps-bar", "1", "--L", "1e200", "--C0", "1e200", "--format", "json"],
    ["cutoff-sum", "--cutoff-lambda", "0.5"],
    ["cutoff-sum", "--cutoff-lambda", "0.5", "--eps-bar", "2", "--omega0", "1",
     "--format", "json"],
    # the dispersive mode sum at odd D, omega0 inside the first modes' range
    ["cutoff-sum", "--D", "5", "--eps-bar", "2", "--omega0", "4", "--cutoff-lambda", "0.7"],
    ["cutoff-sum", "--D", "7", "--eps-bar", "2", "--omega0", "4", "--cutoff-lambda", "0.7"],
    # even-D vacuum mode sums, on the same cosh map as odd D
    ["cutoff-sum", "--D", "6", "--cutoff-lambda", "0.1"],
    ["cutoff-sum", "--D", "8", "--cutoff-lambda", "0.2", "--format", "json"],
    ["cutoff-sum", "--D", "12", "--cutoff-lambda", "0.05"],
    ["crosscheck"],
    ["crosscheck", "--suite", "all", "--format", "json"],
    # sweeps: lin, log, D
    ["free-energy", "--sweep", "T:0.5:2:4:lin"],
    ["internal-energy", "--sweep", "T:0.1:10:3:log", "--format", "json"],
    ["pressure", "--T", "0", "--sweep", "D:5:8:4:lin"],
    ["cutoff-sum", "--sweep", "D:4:6:3:lin", "--cutoff-lambda", "0.8"],
    ["cutoff-sum", "--eps-bar", "2", "--omega0", "4", "--sweep", "cutoff_lambda:0.9:1.1:3:lin"],
    # flags before the command, and --suite outside crosscheck
    ["--format", "json", "free-energy", "--T", "0.5"],
    ["free-energy", "--T", "0.5", "--format", "json"],
    ["free-energy", "--suite", "all"],
    # numerical failures: non-convergence and arithmetic errors
    ["internal-energy", "--T", "0.5", "--max-iter", "2"],
    ["circuit", "--max-iter", "2"],
    ["cutoff-sum", "--D", "3"],
    # the dispersive mode sum at D = 3, where the gap path divides by zero
    ["cutoff-sum", "--D", "3", "--eps-bar", "2", "--omega0", "1", "--cutoff-lambda", "0.5"],
    # the regulated mode sum past the double range: one error whether the sum
    # (D = 95) or Gamma(d/2) (D = 400) overflows first
    ["cutoff-sum", "--D", "95"],
    ["cutoff-sum", "--D", "400"],
    # mode sums at the end of the exponent range: D = 92 at z = lambda pi/a =
    # 700, most of its value past z cosh s = 745.2, and z = 722.6 (D = 12) and
    # 733.0 (D = 92), where every e^(-u) is subnormal or 0
    ["cutoff-sum", "--D", "92", "--a", "0.003", "--cutoff-lambda", "0.6684507609859605"],
    ["cutoff-sum", "--D", "12", "--a", "0.01", "--cutoff-lambda", "2.3"],
    ["cutoff-sum", "--D", "92", "--a", "0.003", "--cutoff-lambda", "0.7"],
    # and far past it, where the sum is 0 in double precision: z = 3.1e18,
    # where z + M rounds to z, and a = 1e-310, where pi/a and z overflow
    ["cutoff-sum", "--cutoff-lambda", "1e18"],
    ["cutoff-sum", "--a", "1e-310"],
    ["internal-energy", "--T", "1e300"],
    ["pressure", "--T", "0", "--a", "1e-100"],
    ["free-energy", "--T", "0", "--a", "1e-104", "--format", "json"],
    # usage errors
    ["profile", "--D", "3"],
    ["free-energy", "--T", "nan"],
    ["cutoff-sum", "--cutoff-lambda", "inf"],
    ["free-energy", "--tol-rel", "0"],
    ["pressure", "--T", "1", "--D", "5"],
    ["free-energy", "--sweep", "T:1:2:1:lin"],
    ["free-energy", "--sweep", "bogus:1:2:3:lin"],
    ["free-energy", "--sweep", "n:1:2:3"],
    ["free-energy", "--sweep", "D:4:6:3:lin"],
    ["pressure", "--T", "0", "--sweep", "D:4:5:3:lin"],
    ["profile", "--sweep", "D:4:6:3:lin"],
    ["crosscheck", "--suite", "fast"],
    ["internal-energy", "--bogus", "1"],
    ["not-a-command"],
    [],
    # config files and --out
    ["internal-energy", "--config", "good.cfg"],
    ["internal-energy", "--config", "good.cfg", "--a", "1"],
    ["pressure", "--config", "bad_int.cfg"],
    ["internal-energy", "--config", "bad_float.cfg"],
    ["internal-energy", "--config", "bad_key.cfg"],
    ["internal-energy", "--config", "bad_line.cfg"],
    ["internal-energy", "--config", "missing.cfg"],
    ["pressure", "--out", "table.csv"],
    ["free-energy", "--out", "no/such/dir/x.csv"],
    # help text
    ["--help"],
    ["free-energy", "--help"],
]


def _call(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
        except Exception as exc:  # an uncaught error: recorded, not raised
            code = f"uncaught {type(exc).__name__}: {exc}"
    record = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        record["file"] = path.read_text(encoding="utf-8") if path.exists() else None
    return record


def record(src: str) -> list[dict]:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    from casimir import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"casimir was imported from {cli.__file__}, not from {src}")
    os.environ.pop("CASIMIR_CONFIG", None)
    os.environ["COLUMNS"] = "80"
    records = []
    cwd = os.getcwd()
    try:
        for argv in CALLS:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                for name, text in CONFIG_FILES.items():
                    Path(name).write_text(text, encoding="utf-8")
                records.append(_call(cli.main, argv))
                os.chdir(cwd)
    finally:
        os.chdir(cwd)
    return records


def _changed_lines(label: str, old: str | None, new: str | None) -> None:
    old_lines = (old or "").splitlines()
    new_lines = (new or "").splitlines()
    for i, (a, b) in enumerate(itertools.zip_longest(old_lines, new_lines, fillvalue=""), 1):
        if a != b:
            print(f"  {label} line {i}: {a}  ->  {b}")


def _rows(text: str | None) -> list[dict]:
    # the rows of a CSV or JSON output that carry value and err_estimate
    text = (text or "").strip()
    if text.startswith("["):
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(text.splitlines()))
    return [r for r in rows if isinstance(r, dict) and "value" in r and "err_estimate" in r]


def _number(field) -> float:
    # a JSON null (a non-finite value) compares as NaN, so it is never inside
    return math.nan if field is None else float(field)


def _moved_values(old: str | None, new: str | None) -> bool:
    """Print |delta| and both errors for each row whose value or error
    moved; True if some |delta| exceeds the old error plus the new one."""
    beyond = False
    for i, (o, n) in enumerate(zip(_rows(old), _rows(new)), 1):
        if (o["value"], o["err_estimate"]) == (n["value"], n["err_estimate"]):
            continue
        delta = abs(_number(n["value"]) - _number(o["value"]))
        old_err, new_err = _number(o["err_estimate"]), _number(n["err_estimate"])
        inside = delta <= old_err + new_err
        beyond = beyond or not inside
        verdict = "inside" if inside else "OUTSIDE"
        print(f"  row {i}: |delta| {delta!r}, err {old_err!r} -> {new_err!r}: {verdict}")
    return beyond


def compare(old_path: str, new_path: str) -> int:
    """Print the invocations whose records differ; 1 if any exit code or
    stderr differs or a moved value leaves both error bars, else 0."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        print(f"{old_path} and {new_path} record different invocations")
        return 1
    hard, moved = False, 0
    for o, n in zip(old, new):
        if o == n:
            continue
        moved += 1
        print(" ".join(o["argv"]) or "(no arguments)")
        for key in ("code", "stderr"):
            if o[key] != n[key]:
                hard = True
                print(f"  {key}: {o[key]!r}  ->  {n[key]!r}")
        _changed_lines("stdout", o["stdout"], n["stdout"])
        _changed_lines("file", o.get("file"), n.get("file"))
        for key in ("stdout", "file"):
            hard = _moved_values(o.get(key), n.get(key)) or hard
    print(f"{moved} of {len(old)} invocations differ")
    return 1 if hard else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(args[1], args[2])
    if len(args) != 2 or args[0].startswith("--"):
        print("usage: python tools/cli_golden.py SRC OUT.json\n"
              "       python tools/cli_golden.py --compare OLD.json NEW.json", file=sys.stderr)
        return 2
    records = record(args[0])
    with open(args[1], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} calls recorded from {args[0]} in {args[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
