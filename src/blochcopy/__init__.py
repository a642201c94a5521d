"""Optimal two-copy qubit copying: geometry, circuits, qualities, trade-offs."""

# each library submodule's __all__ is the package's surface; the cli module stays unloaded
from .channel import *
from .circuit import *
from .errors import *
from .linalg import *
from .optimizer import *
from .pauli import *
from .quality import *
from .validation import *

__version__ = "0.1.0"
