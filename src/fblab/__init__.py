"""fblab: a pseudo-spectral laboratory for the 2D fractional Boussinesq system.

The package simulates the critical-dissipation system on a periodic box
in two equivalent formulations (vorticity and hybrid variable, the latter
also rescaled by eps0), evaluates every term of the associated energy
differential inequalities along trajectories, and stress-tests a registry
of commutator and frequency-decomposition estimates on synthetic fields.
"""

from .grid import Grid, make_grid
from .fields import SpectralField, multiply
from .multipliers import Multiplier, apply_multiplier
from .operators import biot_savart, commutator_apply
from .norms import inner, lp_norm, sobolev_norm
from .dyadic import (BlockSet, DyadicPartition, besov_norm, build_partition, dyadic_block,
                     maximal_function, paraproduct_split, square_function)
from .ensembles import gaussian_bump_field, random_divfree_field, random_scalar_field
from .model import (ModelParams, SimState, Trajectory, initial_state, integrate, rhs,
                    scaled_velocity_split, step, transform_to_f, transform_to_g,
                    vorticity_from_f)
from .diagnostics import (CriteriaReport, EnergyLedgerRow, ExponentSuite, criteria_monitor,
                          energy_terms, ledger_configs, ledger_run)
from .commutators import (EstimateReport, commutator_field, estimate_constant,
                          representation_check)
from .registry import ConstraintError, InequalitySpec, build_registry

__version__ = "0.1.0"
