"""Spanning-tree wavelet detection of clustered signals on graphs.

The package builds an orthonormal Haar-style wavelet basis over a spanning
tree of a graph, tests noisy vertex observations against a universal
threshold, and ships the Monte Carlo harnesses and CLI used to study the
detector's power, the basis's sparsity on low-cut signals, and how uniform
spanning trees concentrate over edge sets.
"""

from ._version import __version__
from .detection import *
from .errors import *
from .experiments import *
from .graphs import *
from .resistance import *
from .trees import *
from .wavelets import *

# Each module's __all__ declares its public names. Importing a submodule binds
# its name in the package, so each name below is the module itself.
__all__ = [
    "__version__",
    *detection.__all__,
    *errors.__all__,
    *experiments.__all__,
    *graphs.__all__,
    *resistance.__all__,
    *trees.__all__,
    *wavelets.__all__,
]
