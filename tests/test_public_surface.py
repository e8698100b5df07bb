"""Every public name of a casimir submodule is a route, a check or a type
that another module of the package reads: each name in a module's
``__all__`` is defined there and named in some other ``src/casimir``
module (``cli`` and ``checks`` included), unless ALLOWED gives the reason
it stands alone.  ``__init__`` binds ``__version__`` alone and
``__main__`` only calls ``cli.main``, so a name they mention is not
thereby used."""

import ast
from pathlib import Path

import casimir

PACKAGE = Path(casimir.__file__).parent
ENTRY_MODULES = {"__init__", "__main__"}

ALLOWED = {
    "green_em.EnergySpectralPoint": "return type of spectral_energy_density",
    "hyperdim.DensityProfile": "return type of density_profile",
    "engine.METHOD_TAGS": "the documented set of EnergyValue.method tags",
    "cli.main": "the console script casimir = casimir.cli:main",
    "hyperdim.cutoff_mode_energy": "benchmark entry point (perfbench/workloads.py)",
    "dispersion.eps_imag_axis": "benchmark entry point (perfbench/workloads.py)",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defined(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _named(tree) -> set[str]:
    # identifiers in code, imports included; docstrings and comments do not count
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unused_public_names() -> tuple[set[str], list[str]]:
    trees = _trees()
    named = {module: _named(tree) for module, tree in trees.items()}
    unused, undefined = set(), []
    for module, tree in sorted(trees.items()):
        defined = _defined(tree)
        for name in _exported(tree):
            if name not in defined:
                undefined.append(f"{module}.{name}")
            elif not any(
                name in named[other]
                for other in trees
                if other != module and other not in ENTRY_MODULES
            ):
                unused.add(f"{module}.{name}")
    return unused, undefined


def test_package_root_binds_only_its_version():
    # the root re-exports nothing: every name is imported from its submodule
    tree = _trees()["__init__"]
    imported = {
        (alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert _defined(tree) | imported == {"__version__"}


def test_every_submodule_declares_its_surface():
    trees = _trees()
    assert {m for m, tree in trees.items() if not _exported(tree)} == ENTRY_MODULES


def test_public_names_are_defined_where_exported():
    assert _unused_public_names()[1] == []


def test_public_names_are_used_or_allowed():
    unused = _unused_public_names()[0]
    assert sorted(unused - ALLOWED.keys()) == []
    # an allowance whose name another module now reads has lapsed
    assert sorted(ALLOWED.keys() - unused) == []
