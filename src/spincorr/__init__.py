"""Exact singlet spin correlations, a local hidden-variable sampler, and a
CHSH experiment harness with reproducible counter-based randomness.

Each module names its public objects in its own ``__all__``; the package
re-exports them all."""

__version__ = "0.1.0"

from . import harness, hidden, quantum, streams
from .harness import *
from .hidden import *
from .quantum import *
from .streams import *

__all__ = ["__version__", *harness.__all__, *hidden.__all__, *quantum.__all__, *streams.__all__]
