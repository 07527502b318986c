"""qmarginal: does a chosen set of reduced density matrices determine a
multi-party pure quantum state uniquely among all states, pure or mixed?

The package provides a constructive linear test for tripartite groupings,
an independent convex-feasibility oracle for arbitrary marginal sets,
exact parameter-counting bounds on the sufficient fraction of parties,
a classical counterexample generator, and a reproducible CLI.

The package namespace re-exports exactly the public names (``__all__``) of
its five library modules.
"""

from . import bounds, classical, feasibility, tensor, uniqueness
from .bounds import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403
from .feasibility import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403
from .uniqueness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *classical.__all__, *feasibility.__all__,
           *tensor.__all__, *uniqueness.__all__]
