"""Semistable degenerations of polarized group compactifications.

Compute the optimal destabilizing datum of a polarized group
compactification from its root system and moment polytope: minimize the
reduced H-functional over the dominant cone, test K-stability, and report
the combinatorics of the central fibre. Piecewise-linear test data come
with filtration, semivaluation, and rational approximation tooling.
"""

from .errors import (BoxTooTight, ComponentOutsidePolytope, DegenerateSimplex,
                     DegreeCapExceeded, DependentActiveRoots,
                     DivergentMinimizer, Empty, GcdegError, GeometryError,
                     InconsistentInputs, InvalidCartanDatum, LowerDimensional,
                     NoFaceAccepted, NotDominant, NotDominantPiece,
                     PrecisionError, PrecisionLoss, SchemaError,
                     TwoRhoOutsideDomain, Unbounded, UnknownCatalogName,
                     UnknownSubcommand)
from .rootsys import (RootSystem, RootSystemSpec, build_root_system,
                      dh_density, dominant_representative)
from .polytope import (Polytope, build_polytope, lattice_points, triangulate,
                       try_build)
from .expint import (MomentEngine, RegionMoments, get_engine,
                     integrate_region, integrate_simplex, region_moments,
                     subdivide_simplex)
from .hfun import (HBreakdown, h_plfunction, h_vector, normalization_volume)
from .minimize import (CoercivityReport, KeReport, MinimizeOptions,
                       MinimizerReport, coercivity_check, ke_test,
                       kkt_multipliers, minimize_h)
from .degeneration import (CentralFibreReport, StabilityVerdict,
                           central_fibre_report, consistency_with_ke,
                           stability_verdict)
from .testconfig import (FiltrationTable, PLConcave, WeightedElement,
                         approximate_p, check_superadditive, check_table,
                         filtration_table, from_vector, pl_concave,
                         semivaluation_eval, table_from_values)
from .oracle import McConfig, grid_minimize, mc_integrate
from .presets import get_preset, list_presets

__version__ = "0.1.0"

__all__ = [
    "BoxTooTight", "CentralFibreReport", "CoercivityReport",
    "ComponentOutsidePolytope", "DegenerateSimplex", "DegreeCapExceeded",
    "DependentActiveRoots", "DivergentMinimizer", "Empty", "FiltrationTable",
    "GcdegError", "GeometryError", "HBreakdown", "InconsistentInputs",
    "InvalidCartanDatum", "KeReport", "LowerDimensional", "McConfig",
    "MinimizeOptions", "MinimizerReport", "MomentEngine", "NoFaceAccepted",
    "NotDominant", "NotDominantPiece", "PLConcave", "Polytope",
    "PrecisionError", "PrecisionLoss", "RegionMoments", "RootSystem",
    "RootSystemSpec", "SchemaError", "StabilityVerdict",
    "TwoRhoOutsideDomain", "Unbounded", "UnknownCatalogName",
    "UnknownSubcommand", "WeightedElement", "approximate_p",
    "build_polytope", "build_root_system", "central_fibre_report",
    "check_superadditive", "check_table",
    "coercivity_check", "consistency_with_ke", "dh_density",
    "dominant_representative", "filtration_table", "from_vector",
    "get_engine", "get_preset", "grid_minimize", "h_plfunction", "h_vector",
    "integrate_region", "integrate_simplex", "ke_test", "kkt_multipliers",
    "lattice_points", "list_presets", "mc_integrate", "minimize_h",
    "normalization_volume", "pl_concave", "region_moments",
    "semivaluation_eval", "stability_verdict", "subdivide_simplex",
    "table_from_values", "triangulate", "try_build",
]
