"""littleweyl: exact invariants of split real spherical pairs.

Builds split reductive Lie algebras from Cartan matrices over exact
rationals, computes Grassmannian limits of spherical subalgebras along
one-parameter subgroups, the compression cone with its faces and boundary
degenerations, and the little Weyl group with its spherical root system.
"""

from .catalog import CatalogEntry, expected_results, get_entry, list_entries
from .cones import ChamberSet, Cone
from .lie import (
    ContractViolation,
    LieAlgebraData,
    LieAlgebraError,
    WeylElement,
    WeylGroupElement,
    build_from_cartan,
    cartan_matrix_of_type,
)
from .limits import (
    FlowReport,
    GradedDirection,
    filtration_degenerate,
    float_flow_oracle,
    graded_direction,
    is_order_regular,
    limit_subspace,
)
from .linalg import Subspace
from .spherical import (
    AdmissibleSearchError,
    BasePoint,
    DegenerationData,
    NotAdaptedError,
    SphericalAnalysis,
    WordEntry,
    analyze,
    boundary_degeneration,
    compression_cone,
    compression_cone_of_point,
    cone_faces,
    find_admissible,
    has_open_p_orbit,
    is_adapted,
    is_admissible,
    phi,
    recover_q,
    translate,
)
from .weyl import (
    LittleWeylGroup,
    SphericalRootData,
    limit_coset,
    limits_agree_with_walls,
    little_weyl_group,
    spherical_roots,
    wall_reflection,
    weyl_from_limits,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
