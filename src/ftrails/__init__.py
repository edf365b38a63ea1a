"""Blocking augmenting trails and maximum-cardinality f-matchings of multigraphs."""

from .multigraph import Multigraph
from .engine import BlockingResult, CheckFailure, StructuralError, Trail, find_trails
from .expand import GTrail, expand_all, rematch
from .certificate import CertificateReport, Labeling, bound_value, verify
from .driver import SolveReport, max_f_matching
from .substitute import BlossomSpec, Crossing, SubstituteMap, build_substitute, pull_back_trail

__all__ = [
    "Multigraph",
    "BlockingResult",
    "CheckFailure",
    "StructuralError",
    "Trail",
    "find_trails",
    "GTrail",
    "expand_all",
    "rematch",
    "CertificateReport",
    "Labeling",
    "bound_value",
    "verify",
    "SolveReport",
    "max_f_matching",
    "BlossomSpec",
    "Crossing",
    "SubstituteMap",
    "build_substitute",
    "pull_back_trail",
]
