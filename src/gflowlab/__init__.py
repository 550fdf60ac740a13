"""gflowlab: a numerical laboratory for fully nonlinear curvature flows.

Solves and cross-verifies the computable objects attached to rotationally
symmetric flows by 1-homogeneous curvature speeds: the speed/restriction
algebra (F, f, Q), bowl-soliton and self-shrinker profiles with barrier
diagnostics, radial and rescaled graph-flow simulation, and the Hermite
spectral decomposition of the linearized rescaled flow.
"""

from .errors import (BarrierViolation, ConeExit, ConeViolation,
                     DomainViolation, GFlowError, NonConvergence, Pinch,
                     QuadratureFailure, StabilityViolation, ToleranceFailure,
                     WindowTooNarrow, WindowTooShort)
from .speeds import SpeedFunction
from .solitons import (BowlProfile, EllipticityMonitor, ShrinkerProfile,
                       neck_constants, shrinker_w_diagnostic, solve_bowl,
                       solve_shrinker)
from .flow import (BoundaryCondition, FlowHistory, RadialFlowState,
                   cylinder_radius, run_flow, translation_speed)
from .spectral import (GammaTrace, HermiteBasis, build_basis, eigen_table,
                       eigenvalue, gamma_trace_from_run,
                       merle_zaag_classifier)
from .fits import (AsymptoticFit, fit_bowl_expansion, fit_shrinker_neck,
                   measure_rescaled_decay)

__version__ = "0.1.0"

# the one backend is numpy + scipy; the flag stays for callers that record
# which backend ran
NUMBA_ENABLED = False

__all__ = [name for name in dir() if not name.startswith("_")]
