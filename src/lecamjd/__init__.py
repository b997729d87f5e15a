"""Numerical toolkit for comparing discretely observed jump experiments
with their Gaussian accompaniments: simulation, jump filtering, and
closed-form distance bounds with quadrature oracles.

Every name in a library module's ``__all__`` is exported here, and the
package's ``__all__`` is the union of those lists.  Importing the package
loads no library module: a name is resolved on first access by importing
the library modules in layer order, from ``model`` up to ``experiments``,
until one exports it, so ``lecamjd.ModelSpec`` loads ``model`` (and the
``_gauss`` and ``_quadrature`` helpers it imports) and nothing else.  A
submodule (``lecamjd.oracle``) is imported when it is first named, so
the command line, :mod:`lecamjd.cli`, loads only when it is named or run.
``dir(lecamjd)``, ``lecamjd.__all__`` and ``from lecamjd import *``
import every layer.  An unknown name imports every layer before it
raises ``AttributeError``; a dunder name imports nothing.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

#: the library modules, each importing only modules before it
_LAYERS = ("model", "simulate", "laws", "oracle", "kernels", "distances",
           "experiments")


def _submodule(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        value = [n for layer in _LAYERS for n in _submodule(layer).__all__]
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return _submodule(name)  # importing it binds it here
    else:
        for module in map(_submodule, _LAYERS):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    exports = __getattr__("__all__")  # imports every layer first
    return sorted({*globals(), *exports})
