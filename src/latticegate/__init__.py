"""latticegate: dipole-dipole figure of merit, lattice budget, and
conditioned-pulse gate analysis for pairs of lattice-trapped atoms."""

__version__ = "0.1.0"

from . import atomics, dipole_kernel, ensemble, gate, lattice, overlap
from .atomics import *  # noqa: F403
from .dipole_kernel import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .gate import *  # noqa: F403
from .lattice import *  # noqa: F403
from .overlap import *  # noqa: F403

__all__ = [
    "__version__",
    *atomics.__all__,
    *dipole_kernel.__all__,
    *overlap.__all__,
    *lattice.__all__,
    *gate.__all__,
    *ensemble.__all__,
]
