"""The package's modules import only the layers below them.

``writers`` owns every file layout and builds on no other module but
``exceptions``.  The model layers know nothing of the experiment runner, the
command line or the verify suites, and the runner knows nothing of the last
two.  ``inverse`` fits a recorded trace without the recursion or the
observation models, so ``fit-delta`` loads neither.  ``config`` parses and
resolves experiment configs from ``graphs``, ``models`` and ``exceptions``
alone, so ``predict`` loads no recursion.  Imports are read from the
source with ``ast``, so an import inside a function counts as well.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blocklearn"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

MODEL_LAYERS = ["graphs", "models", "learning", "theory", "inverse"]
FORBIDDEN = {
    "writers": MODULES - {"writers", "exceptions"},
    **{name: {"harness", "cli", "verify"} for name in MODEL_LAYERS},
    "inverse": {"harness", "cli", "verify", "learning", "models"},
    "harness": {"cli", "verify"},
    "config": MODULES - {"config", "graphs", "models", "exceptions"},
}


def imported_modules(name):
    """The package modules that module ``name`` imports.  The package root
    (``from . import __version__``) is not one of them: importing any module
    of the package runs it anyway."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(filter(None, ["blocklearn",
                                                                             node.module]))
            targets = [f"{base}.{alias.name}" for alias in node.names] + [base]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "blocklearn" and len(parts) > 1 and parts[1] in MODULES:
                found.add(parts[1])
    return found


def test_imports_are_found():
    assert {"harness", "writers", "exceptions", "verify"} <= imported_modules("cli")
    assert imported_modules("writers") == {"exceptions"}
    assert imported_modules("learning") == {"exceptions", "models", "writers"}
    assert imported_modules("config") == {"exceptions", "graphs", "models"}


@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_module_imports_only_lower_layers(name):
    assert not imported_modules(name) & FORBIDDEN[name]
