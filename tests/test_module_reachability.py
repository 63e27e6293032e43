"""Every module under ``src/repro`` must be reachable from an entry point.

The walk reads source with :mod:`ast`; nothing is imported.  It starts
from the production entry points (``python -m repro``, the CLI, the
shared match request, every module of the service and the experiments,
and each ``repro`` import of the ``perfbench/`` harness) and follows
every ``import`` statement, including function-local ones.  A package
``__init__`` only re-exports, so ``from repro.pkg import name`` counts
as a use of the module that *defines* ``name``, not of everything the
package re-exports.  A module no root reaches is dead code and should be
deleted rather than kept alive by its own tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

ENTRY_MODULES = ("repro.__main__", "repro.cli", "repro.request")
ENTRY_PACKAGES = ("repro.service", "repro.experiments")

# Modules kept although no entry point imports them.
ALLOWED_UNREACHED = {
    "repro.core.optimal": "exhaustive Problem-1 oracle the EMS tests compare against",
    "repro.synthesis.examples": "Figure-1 logs behind tests/conftest.py and examples/",
}


def _modules() -> dict[str, Path]:
    """Dotted module name -> source file, for every module of ``repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _tree(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(encoding="utf-8"))


def _defining_module(package: str, name: str) -> str:
    """Follow the re-exports of *package* to the module defining *name*."""
    for node in _tree(package).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module, alias.name) or package
    return package


def _resolve(module: str, name: str) -> str | None:
    """The ``repro`` module that ``from module import name`` uses."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module not in MODULES:
        return None
    if _is_package(module):
        return _defining_module(module, name)
    return module


def _imports(tree: ast.Module) -> set[str]:
    """The ``repro`` modules the import statements of *tree* use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    used.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                target = _resolve(node.module, alias.name)
                if target is not None:
                    used.add(target)
    return used


def _roots() -> set[str]:
    roots = set(ENTRY_MODULES)
    for package in ENTRY_PACKAGES:
        roots.update(
            name for name in MODULES
            if name == package or name.startswith(package + ".")
        )
    for script in sorted(PERFBENCH.glob("*.py")):
        roots |= _imports(ast.parse(script.read_text(encoding="utf-8")))
    return roots


def reached_modules() -> set[str]:
    """Every module the entry points reach, package ``__init__``s included."""
    reached: set[str] = set()
    pending = sorted(_roots())
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        if not _is_package(name):
            pending.extend(_imports(_tree(name)) - reached)
    # Importing a module runs the ``__init__`` of every enclosing package.
    for name in list(reached):
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return reached


def test_entry_points_exist():
    for name in ENTRY_MODULES + ENTRY_PACKAGES:
        assert name in MODULES, name


def test_allowlist_names_live_modules():
    for name in ALLOWED_UNREACHED:
        assert name in MODULES, f"allowlisted {name} no longer exists"
        assert name not in reached_modules(), f"{name} is reached; unlist it"


def test_every_module_is_reached():
    unreached = sorted(set(MODULES) - reached_modules() - set(ALLOWED_UNREACHED))
    assert not unreached, (
        "modules no match, experiment, service or benchmark path imports:\n  "
        + "\n  ".join(unreached)
    )
