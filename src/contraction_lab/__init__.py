"""contraction-lab: executable oracles for the order geometry of matrix contractions.

Harnack and Shmul'yan pre-orders, asymptotic triangulation structure,
Schur-class arcs, and Kobayashi distance bounds for finite-dimensional
complex contractions.
"""

from .asymptotics import (
    AsymptoticData,
    NoConvergenceError,
    Triangulation,
    asymptotic_limit,
    canonical_triangulation,
    class_of,
    reducing_isometric_part,
    reducing_parts,
    reducing_unitary_part,
)
from .contraction import (
    Contraction,
    DefectData,
    NotAContractionError,
    classify,
    defect_data,
    make_contraction,
    nearest_part_partial_isometry,
    ttstar_power_limit,
)
from .corpus import GenSpec, InvalidSpecError, generate
from .harnack import (
    DOMINATED,
    INCONCLUSIVE,
    NOT_DOMINATED,
    HarnackVerdict,
    NecessaryConditionFailsError,
    ZDivergesError,
    harnack_dominates,
    harnack_equivalence,
    harnack_falsify,
    harnack_kernel,
    intertwiner_data,
    positive_real_sample,
    quasi_normal_equivalence_report,
)
from .linalg import (
    DEFAULT_TOL,
    NotPSDError,
    ShapeMismatchError,
    Subspace,
    Tolerances,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    range_of,
)
from .schur import (
    ArcCertificate,
    MobiusArc,
    SchurPoly,
    connect_arc,
    schur_part_member,
    schur_poly,
)
from .shmulyan import (
    NotQuasiIsometryError,
    ShmulyanVerdict,
    column_criterion,
    corner_norm_criterion,
    partial_isometry_part,
    pure_corner_conditions,
    quasi_isometry_criterion,
    shmulyan_dominates,
    shmulyan_equivalent,
)

__version__ = "0.1.0"
