"""Elliptic quadrics over even-order fields, their ovoid geometry, and the
canonical double cover of the affine quadrangle, with exhaustive clique
census machinery and binary-subgeometry recognition."""

from .gf2n import FieldCtx, conic_solution_set, solve_artin_schreier, trace
from .quadric import QuadricModel, build_model
from .ovoid import OvoidGeometry, build_geometry
from .covering import CoveringMap, canonical_covering
from .cliquecensus import CensusReport, build_tangency_graph, census
from .figures import CentricFigure, CubeParams, lift_clique_to_figure
from .subf2 import F2Span, SubgeometryReport, closure_report, f2_closure

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "conic_solution_set", "solve_artin_schreier",
    "trace", "QuadricModel",
    "build_model", "OvoidGeometry", "build_geometry",
    "CoveringMap", "canonical_covering",
    "CensusReport", "build_tangency_graph", "census",
    "CentricFigure", "CubeParams", "lift_clique_to_figure", "F2Span",
    "SubgeometryReport", "closure_report", "f2_closure", "__version__",
]
