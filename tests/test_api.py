"""Export lists name only what their modules define, the package
republishes exactly them, every error class is raised, and one function
parses text tables."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import diatomic_vlasov

MODULES = sorted(m.name for m in pkgutil.iter_modules(diatomic_vlasov.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"diatomic_vlasov.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_names_are_the_module_exports():
    # The package's public names are its submodules plus the union of the
    # modules' export lists; errors has none, so its public classes count.
    exported = set()
    for name in MODULES:
        mod = importlib.import_module(f"diatomic_vlasov.{name}")
        exported.update(getattr(mod, "__all__", ()))
    exported.update(n for n in vars(diatomic_vlasov.errors) if not n.startswith("_"))
    assert not exported & set(MODULES)
    public = {n for n in vars(diatomic_vlasov) if not n.startswith("_")} - set(MODULES)
    assert public == exported, (f"missing {sorted(exported - public)}, "
                                f"unexported {sorted(public - exported)}")
    assert diatomic_vlasov.__version__


def test_every_error_class_is_raised():
    # An error class counts if some ``raise`` under the package names it,
    # or names a class derived from it.
    src = Path(diatomic_vlasov.__file__).parent
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse((src / "errors.py").read_text()).body
             if isinstance(node, ast.ClassDef)}
    live = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name in bases:
                    live.add(name)
    for name in reversed(list(bases)):  # each base is defined above its subclasses
        if name in live:
            live.update(bases[name])
    unraised = sorted(set(bases) - live)
    assert not unraised, f"errors.py classes never raised: {unraised}"


def test_one_table_reader():
    # Every text table goes through field.read_table, so one rule covers
    # empty and malformed files: it holds the package's only np.loadtxt.
    def sites(tree):
        return [n for n in ast.walk(tree) if "loadtxt" in (
            getattr(n, "attr", None), getattr(n, "id", None), getattr(n, "name", None))]

    src = Path(diatomic_vlasov.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    reader = next(n for n in ast.walk(trees["field"])
                  if isinstance(n, ast.FunctionDef) and n.name == "read_table")
    found = {name: len(sites(tree)) for name, tree in trees.items() if sites(tree)}
    assert len(sites(reader)) == 1 and found == {"field": 1}, f"loadtxt sites per module: {found}"
