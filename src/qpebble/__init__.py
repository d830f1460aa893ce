"""Treasure hunt on anonymous port-labeled graphs with quantum pebbles.

A stationary pebble at each on-path node emits copies of one qubit state
that encodes the exit port toward the treasure; an oblivious agent
measures fresh copies, decodes the port, and walks. This package holds
the state/measurement layer, graph tooling, encodings, agent strategies,
failure bounds, the classical impossibility check, and an experiment
harness with a CLI (``qpebble --help``).
"""

from . import agent, analysis, encoding, graph, harness, quantum, rng
from .agent import *  # noqa: F403
from .analysis import *  # noqa: F403
from .encoding import *  # noqa: F403
from .graph import *  # noqa: F403
from .harness import *  # noqa: F403
from .quantum import *  # noqa: F403
from .rng import *  # noqa: F403

__version__ = "0.1.0"

# the package exports exactly what each module lists as public
_MODULES = (agent, analysis, encoding, graph, harness, quantum, rng)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
