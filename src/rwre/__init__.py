"""Random walks in i.i.d. random environments on Z^d.

Simulation, exact hypercube analysis, regeneration structure and
ballisticity/ellipticity criteria; see README.md for an overview and the
demos/ directory for narrative examples.
"""

__version__ = "0.1.0"

from .environment import (Dirichlet, Environment, Expl, TableMixture,
                          TrapSym, TrapTransient, UniformDrift,
                          ellipticity_profile, sample_expl_T, sample_trap_T)
from .lattice import (Direction, DirectionBasis, Slab, SlabBox, TiltedBox,
                      UnitHypercube, boundary, boundary_towards, build_basis,
                      canonical_basis, hypercubes_containing, project,
                      trap_collar)
from .regeneration import (RegenParams, RegenerationRecord, direct_velocity,
                           regeneration_radii, renewal_velocity)
from .walk import hit_before_return

__all__ = [
    "__version__",
    "Direction", "DirectionBasis", "UnitHypercube", "TiltedBox", "SlabBox",
    "Slab", "build_basis", "canonical_basis", "hypercubes_containing",
    "boundary", "boundary_towards", "project", "trap_collar",
    "Environment", "UniformDrift", "Expl", "TrapSym", "TrapTransient",
    "Dirichlet", "TableMixture", "sample_expl_T", "sample_trap_T",
    "ellipticity_profile",
    "hit_before_return",
    "RegenParams", "RegenerationRecord", "renewal_velocity",
    "direct_velocity", "regeneration_radii",
]
