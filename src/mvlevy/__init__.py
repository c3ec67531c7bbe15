"""Numerical toolkit for stationary distributions of jump-driven
mean-field SDEs: noise functionals, drift families, frozen-measure
simulation, measure fixed-point iteration, explicit condition formulas,
and scalar self-consistency analysis."""

from .errors import (MvLevyError, DivergentMoment, InvalidRegion, InfiniteOverlap,
                     DimensionMismatch, EmptyMeasure, Blowup, NotInTheta,
                     CaseViolation, QuadratureFailure, GridTooCoarse, NoTransition,
                     SigmaViolatesH2, ZeroOverlap, NoiseFloorExceedsTol,
                     UnsupportedFamily)
from .levy import LevyMeasureSpec, SigmaSpec, tail_moment, overlap_mass, J, sample_increment
from .drift import DriftSpec, A1Params, eval_drift, lyapunov_params, verify_E12
from .measures import EmpiricalMeasure, moment, w1, weighted_tv, concentration
from .simulate import SimConfig, OccupationMeasure, frozen_trajectory
from .fixed_point import (FixedPointConfig, FixedPointReport, MultiplicityReport,
                          iterate_lambda, multiplicity_search, invariance_check)
from .conditions import (ThetaTuple, AppendixParams, AppendixConstants,
                         gamma_fn, phi_fn, theta_member, moment_bound, m_star,
                         ex14_check, ex15_check, ex14_feasibility, ex15_feasibility,
                         ct_fn, appendix_constants)
from .selfconsistent import (GradientCase, h_fn, root_count, beta_c,
                             ou_classify, stationary_density)

__version__ = "0.1.0"
