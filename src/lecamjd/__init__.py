"""Numerical toolkit for comparing discretely observed jump experiments
with their Gaussian accompaniments: simulation, jump filtering, and
closed-form distance bounds with quadrature oracles.

Every name in a library module's ``__all__`` is exported here; the
command line, :mod:`lecamjd.cli`, is imported on its own.
"""

from . import distances, experiments, kernels, laws, model, oracle, simulate
from .distances import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .laws import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (distances, experiments, kernels, laws, model,
                               oracle, simulate) for name in module.__all__]
