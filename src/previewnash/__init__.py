"""Two-player linear-quadratic dynamic games with limited cost preview.

Solve finite-horizon feedback Nash equilibria, check the structural
conditions under which the game collapses to a single optimal control
problem, run the online prediction/tracking algorithm with a preview
window over the cost schedule, and measure the price of uncertainty it
pays relative to the full-information equilibrium.  The package exports
each layer's `__all__`; of `linalg` it exports only the tolerances.
"""

from . import experiments, game, online, potential
from .experiments import *  # noqa: F401,F403
from .game import *  # noqa: F401,F403
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .online import *  # noqa: F401,F403
from .potential import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", "Tolerances", "DEFAULT_TOLERANCES",
           *game.__all__, *online.__all__, *potential.__all__, *experiments.__all__]
