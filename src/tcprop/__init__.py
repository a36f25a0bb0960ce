"""Closed-form propagators for one, two and three two-level atoms coupled
to a single truncated cavity mode, with an independent matrix-exponential
oracle and a structured search for polynomial operator relations.

The package namespace re-exports the public names of each module.
"""

from . import fock, oracle, propagator, spinchain
from .fock import *  # noqa: F403
from .oracle import *  # noqa: F403
from .propagator import *  # noqa: F403
from .spinchain import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*fock.__all__, *spinchain.__all__, *propagator.__all__, *oracle.__all__, "__version__"]
