"""Auslander-Reiten quivers of Dynkin-type hereditary algebras.

Construction is purely combinatorial: classify the ext-quiver, knit all
hammocks at once as dimension vectors on the translation plane of the
opposite quiver, read off orbit lengths, the projective-injective
pairing and each hammock's table, then derive the Coxeter data and the
derived/cluster statistics.  Everything is exact integer arithmetic, and
every quantity is cross-checked by an independent route (see
:mod:`arquiver.oracle`).
"""

from .ar_quiver import (
    ARQuiver,
    Counts,
    build,
    closed_form_rho_m,
    counts_and_nilpotency,
    orbit_index_relation_holds,
)
from .coxeter import (
    CoxeterData,
    coxeter_matrix,
    order_identity_check,
    table_order,
)
from .derived import (
    ClusterRep,
    DerivedVertex,
    cluster_count,
    cluster_normalize,
    derived_distance,
    derived_nilpotency,
)
from .dynkin import (
    DynkinClass,
    all_orientations,
    canonical_diagram,
    classify_dynkin,
    random_orientation,
)
from .errors import (
    ArquiverError,
    BadValuationError,
    BoundExceededError,
    CrossCheckFailedError,
    DanglingVertexError,
    InvalidQuiverError,
    KnitInconsistentError,
    LoopArrowError,
    MultipleArrowError,
    NotATreeError,
    NotDynkinError,
    OrderBoundExceededError,
    ParseError,
    PositionOutOfRangeError,
    SingularCartanError,
    TwoCycleError,
)
from .hammock import (
    HammockResult,
    hammock_vertices,
    hammocks,
    knit_hammock,
)
from .oracle import (
    OracleReport,
    audit_paths,
    verify_mesh,
)
from .quiver import (
    Arrow,
    Edge,
    Step,
    ValuedGraph,
    ValuedQuiver,
    Valuation,
    Walk,
    arrow_counts,
    reduced_walk,
    validate,
)
from .repetitive import ZArrow, ZVertex
from .report import build_report, parse_quiver, report_to_json, to_dot

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
