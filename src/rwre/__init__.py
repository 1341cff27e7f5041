"""Random walks in i.i.d. random environments on Z^d.

Simulation, exact hypercube analysis, regeneration structure and
ballisticity/ellipticity criteria; see README.md for an overview and the
demos/ directory for narrative examples.
"""

__version__ = "0.1.0"

from .environment import (Dirichlet, Environment, Expl, TableMixture,
                          TrapSym, TrapTransient, UniformDrift,
                          ellipticity_profile, sample_expl_T, sample_trap_T)
from .lattice import TiltedBox, UnitHypercube
from .regeneration import (RegenParams, RegenerationRecord, direct_velocity,
                           regeneration_radii, renewal_velocity)

__all__ = [
    "__version__",
    "UnitHypercube", "TiltedBox",
    "Environment", "UniformDrift", "Expl", "TrapSym", "TrapTransient",
    "Dirichlet", "TableMixture", "sample_expl_T", "sample_trap_T",
    "ellipticity_profile",
    "RegenParams", "RegenerationRecord", "renewal_velocity",
    "direct_velocity", "regeneration_radii",
]
