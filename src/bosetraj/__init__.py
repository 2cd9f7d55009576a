"""Trajectory simulator for a monitored bosonic chain with competing
phase-locking and dephasing channels, plus the analysis toolkit for the
entanglement-scaling transition."""

__version__ = "0.1.0"

from .fock import (FockBasis, JumpKind, build_basis, build_bec_dark_state,
                   build_hopping, build_jump, build_number, fock_state)
from .trajectory import (JumpChannels, JumpRecord, MonitoringConfig,
                         Trajectory, default_initial_state, run_ensemble,
                         run_trajectory, step)
from .entropy import (EntropyProfile, ReducedDM, average_profile, reduce_state,
                      renyi, schmidt_spectrum, state_entropy, von_neumann)
from .cftfit import CftFit, central_charge_from_renyi, chord_regressor, fit_profile
