"""Signless Laplacian spectra and energies of simple graphs.

The library computes adjacency, Laplacian, and signless Laplacian spectra with
a hand-written cyclic Jacobi eigensolver (compiled kernel with a pure-Python
twin), evaluates a catalog of lower and upper bounds on the signless Laplacian
energy with applicability gates and equality diagnosis, recognizes the graph
families behind characteristic spectrum patterns, and ships an exhaustive
verification harness plus reference-table reproduction.
"""

from .graph_core import *
from .spectral import *
from .energy import *
from .bounds import *
from .families_verify import *
from .reports import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *graph_core.__all__, *spectral.__all__, *energy.__all__,
           *bounds.__all__, *families_verify.__all__, *reports.__all__]
