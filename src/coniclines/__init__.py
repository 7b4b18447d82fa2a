"""Exact analysis of conic-line arrangements in the complex projective plane.

Derives singularity combinatorics from explicit rational equations, and
evaluates incidence counts, H-indices, log-Chern numbers and slopes,
abelian-cover invariants, and the related inequality checks on both derived
and cataloged combinatorial data.
"""

from .algebraic import NumberField, root_orbits
from .catalog import catalog_build, catalog_get, catalog_list
from .curves import (
    Arrangement,
    CombinatorialType,
    PlaneCurve,
    ProjectivePoint,
    SingularPoint,
    parse_arrangement,
    parse_combinatorial_type,
    serialize_arrangement,
    serialize_combinatorial_type,
)
from .intersect import combinatorial_type, intersect_pair
from .invariants import (
    AnalysisReport,
    general_log_chern,
    hurwitz_genus,
    poincare_from_exponents,
    tjurina_from_exponents,
)
from .search import enumerate_types, extremal_slopes, scan_conjecture

__version__ = "0.1.0"
