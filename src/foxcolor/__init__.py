"""Exact Fox coloring invariants of knot and link diagrams, and the
partition of non-trivial colorings into equivalence classes under affine
color symmetries."""

from .diagram import (MoveError, MoveSite, PdCode, PdError, PlanarDiagram,
                      apply_move, build_diagram, catalog, catalog_names,
                      parse_pd, random_variants)
from .linalg import (IntegerMatrix, ModularKernel, SmithDecomposition, block_kernel,
                     smith_normal_form, solve_mod, unit_kernel)
from .coloring import (Coloring, ColoringProfile, Colorings, EnumerationBudgetError,
                       coloring_matrix, count_colorings, enumerate_colorings,
                       extend_coloring, generating_arcs, link_determinant,
                       p_nullity, profile)
from .orbits import (GroupSpec, OrbitPartition, VerifyReport, build_group,
                     orbit_partition, predicted_class_count, prime_classes,
                     verify_counts)

__version__ = "0.1.0"

__all__ = [
    "Coloring", "ColoringProfile", "Colorings", "EnumerationBudgetError", "GroupSpec",
    "IntegerMatrix", "ModularKernel", "MoveError", "MoveSite", "OrbitPartition",
    "PdCode", "PdError", "PlanarDiagram", "SmithDecomposition",
    "VerifyReport", "apply_move", "block_kernel",
    "build_diagram", "build_group", "catalog", "catalog_names",
    "coloring_matrix", "count_colorings",
    "enumerate_colorings", "extend_coloring", "generating_arcs",
    "link_determinant", "orbit_partition", "parse_pd",
    "p_nullity", "predicted_class_count", "prime_classes", "profile",
    "random_variants",
    "smith_normal_form", "solve_mod", "unit_kernel", "verify_counts",
]
