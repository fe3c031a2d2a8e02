"""Coarse entropy of maps on unbounded metric spaces, estimated by counting
separated and spanning sets of delta-pseudoorbits."""

from .coarse import (Affine, CoarseMapCert, Composed, ConjugacyReport,
                     ControlFunction, DefectCurve, MaxOf, PowerAffine, Table,
                     check_conjugacy, check_density, check_embedding,
                     closeness_defect, compose_certs, defect_trend)
from .entropy import (CSV_HEADER, CountRecord, DimensionEstimate,
                      EntropyEstimate, ScheduleCell, bcd_estimate,
                      count_product, count_separated, count_spanning,
                      estimate_entropy, fit_growth_rate, greedy_separated,
                      greedy_spanning)
from .errors import BudgetExceededError, InvalidPointError, SpaceMismatchError
from .maps import (Affine1D, ChainLinear, Compose, ConjugatedDoubling,
                   ControlWitness, Homothety, Identity, Iterate, Laurent1D,
                   Linear, MapDescriptor, ProductMap, iterate_apply, linear_1d,
                   power_map, verify_control)
from .orbits import (PseudoOrbit, enumerate_pseudoorbits, final_terms_lower,
                     orbit_distance, push_forward, shadow_hull, subsample,
                     validate)
from .spaces import (BaseSetSpec, ChainRects, ChainSegments, Cone, Euclidean,
                     HalfLine, Halfplane, IntegerLattice, Point, Product,
                     Space, SpineBlocks)

__all__ = [n for n in dir() if not n.startswith("_")]
