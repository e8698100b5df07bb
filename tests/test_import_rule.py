"""Each command loads only the modules it reads: ``import casimir`` loads
no submodule, ``import casimir.cli`` adds ``engine`` alone, and one run of
a command adds the modules behind its routes.  Every case runs in a fresh
interpreter, since a module once loaded stays in ``sys.modules``."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CAVITY = {"cli", "engine", "matsubara", "specfun"}
HYPER = CAVITY | {"dispersion", "hyperdim"}
LOADED = [
    (["free-energy", "--T", "0.5"], CAVITY),
    (["internal-energy", "--T", "0.5"], CAVITY),
    (["em-energy", "--T", "0"], CAVITY),
    (["pressure", "--T", "0.5"], CAVITY),
    (["pressure", "--T", "0", "--D", "6"], HYPER),
    (["dispersive", "--eps-bar", "2", "--omega0", "1"], CAVITY | {"dispersion"}),
    (["circuit"], CAVITY | {"dispersion", "circuit"}),
    (["cutoff-sum", "--cutoff-lambda", "0.5"], HYPER),
    (["profile", "--D", "6"], HYPER),
    (["crosscheck"], HYPER | {"circuit", "green_em", "checks"}),
]


def _loaded_after(code: str) -> set[str]:
    script = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(' '.join(m[len('casimir.'):] for m in sys.modules if m.startswith('casimir.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    return set(out.stdout.split())


def test_package_import_loads_no_submodule():
    assert _loaded_after("import casimir") == set()


def test_cli_import_loads_the_engine_alone():
    assert _loaded_after("import casimir.cli") == {"cli", "engine"}


@pytest.mark.parametrize("argv, modules", LOADED, ids=[" ".join(a) for a, _ in LOADED])
def test_command_loads_only_what_it_reads(argv, modules):
    code = (
        "import contextlib, io\nfrom casimir import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0"
    )
    assert _loaded_after(code) == modules
