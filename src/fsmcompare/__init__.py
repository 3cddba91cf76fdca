"""Multi-level behavioral comparison of systems modeled as finite state machines.

Each module declares its public names in ``__all__``; the package re-exports them.
"""

__version__ = "0.1.0"

from . import automata, ingest, levels, ltsdiff, report
from .automata import *
from .ingest import *
from .levels import *
from .ltsdiff import *
from .report import *

__all__ = sorted(
    [*automata.__all__, *ingest.__all__, *levels.__all__, *ltsdiff.__all__, *report.__all__]
)
