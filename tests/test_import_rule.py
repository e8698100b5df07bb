"""Each command loads only the modules it reads: ``import casimir`` loads
no submodule, ``import casimir.cli`` adds ``engine`` alone, and one run of
a command adds the modules behind its routes.  No command loads a module
from outside the standard library (mpmath and numpy included) beyond what
the interpreter's own start-up already loads.  Every case runs in a fresh
interpreter, since a module once loaded stays in ``sys.modules``."""

import functools
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


def _run(code: str) -> tuple[set[str], set[str]]:
    # the casimir submodules and the top-level modules loaded after code
    script = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(' '.join(m[len('casimir.'):] for m in sys.modules if m.startswith('casimir.')))\n"
        "print(' '.join(m for m in sys.modules if '.' not in m))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    submodules, top = out.stdout.split("\n")[-3:-1]
    return set(submodules.split()), set(top.split())


def _loaded_after(code: str) -> set[str]:
    return _run(code)[0]


@functools.cache
def _bare_interpreter() -> set[str]:
    # what start-up loads, site's .pth hooks included (_distutils_hack and
    # certifi in some environments)
    return _run("")[1]


def _foreign(top: set[str]) -> set[str]:
    return top - _bare_interpreter() - set(sys.stdlib_module_names) - {"casimir"}


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
    submodules, top = _run(code)
    assert submodules == modules
    # no runtime dependency: nothing beyond the standard library and start-up
    assert _foreign(top) == set()
    assert not {"mpmath", "numpy"} & top
