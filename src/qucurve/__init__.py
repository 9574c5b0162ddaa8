"""Curvature, torsion, and moving frames of quantum state evolution.

A pure state evolving under a stationary Hamiltonian traces a curve through
projective Hilbert space.  This package computes the intrinsic geometry of
that curve -- its speed, squared curvature, squared torsion, and the
orthonormal moving frame -- through three independent routes that check one
another:

* moment formulas: kappa^2 and tau^2 as standardized central moments of the
  energy distribution (kurtosis and the Pearson-inequality gap);
* projector geometry: norms of the acceleration vector projected off the
  curve and its tangent;
* finite-difference fits: quartic-in-time departures from geodesics and
  from two-snapshot planes.
"""

from . import config, evolution, frame, hilbert, models, moments, oracles, reporting
from .config import *  # noqa: F401,F403
from .evolution import *  # noqa: F401,F403
from .frame import *  # noqa: F401,F403
from .hilbert import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .reporting import *  # noqa: F401,F403

__version__ = "0.1.0"

# The public names are exactly the submodules' own export lists.
__all__ = [
    name
    for module in (config, evolution, frame, hilbert, models, moments, oracles, reporting)
    for name in module.__all__
] + ["__version__"]
