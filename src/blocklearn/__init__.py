"""Social learning over community-structured networks.

Simulation of traditional and step-size (adaptive) belief recursions over
Stochastic Block Model graphs with per-community true hypotheses, together
with the closed-form theory (expected combination matrices, steady-state
log-belief ratios, step-size thresholds) and Monte Carlo cross-validation
tooling.

The root exports its modules and every name in the ``__all__`` of the
modules in ``_EXPORTING``.  Each is imported on first use (PEP 562): a module
name imports that module alone, and any other name imports the exporting
modules in layer order until one lists it, so that importing one module of
the package, as each ``blocklearn`` command does, does not load the others.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("exceptions", "graphs", "models", "learning", "theory", "inverse", "config",
            "harness", "writers")
# the modules whose public names the root exports, lowest layer first
_EXPORTING = ("graphs", "models", "learning", "theory", "inverse", "config", "harness")


def _module(name):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name):
    if name == "__all__":
        return [*_MODULES, *(n for module in _EXPORTING for n in _module(module).__all__)]
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the command and its suites are submodules the root does not export
    if name in _MODULES or name in ("cli", "verify"):
        return _module(name)
    for module in map(_module, _EXPORTING):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
