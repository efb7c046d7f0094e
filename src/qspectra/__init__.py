"""Signless Laplacian spectra and energies of simple graphs.

The library computes adjacency, Laplacian, and signless Laplacian spectra with
a hand-written cyclic Jacobi eigensolver (compiled kernel with a pure-Python
twin), evaluates a catalog of lower and upper bounds on the signless Laplacian
energy with applicability gates and equality diagnosis, recognizes the graph
families behind characteristic spectrum patterns, and ships an exhaustive
verification harness plus reference-table reproduction.

The public names are exported lazily (PEP 562): ``qspectra.<name>`` imports
the modules below in order until one lists the name in its ``__all__``, which
stays the one list of that module's public names, and ``qspectra.__all__`` is
their concatenation. Importing the package itself loads none of them, so a
command-line run that needs only graph_core (a ``family`` request, refused
input, ``--help``) never imports numpy, the largest single import of a cold
start.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# the modules whose __all__ lists, in this order, make up the public names
_MODULES = ("graph_core", "spectral", "bounds", "families_verify", "reports")


def _module(name: str):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in _module(m).__all__)]
    elif importlib.util.find_spec(f"{__name__}.{name}"):
        # a submodule (spectral's `from . import tolerances`, say) goes to the
        # import system alone: searching the modules here would import them
        # while one of them is mid-import
        return _module(name)
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for module in map(_module, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
