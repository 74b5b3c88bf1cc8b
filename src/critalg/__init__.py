"""Homological workbench for schurian quotients of poset incidence algebras.

Decides minimal projective resolutions, projective/injective dimensions, and
global dimension with exact rational arithmetic, and certifies global
dimension at most two by the absence of critical full subcategories.
"""

from .errors import (
    ClassificationGap,
    CritalgError,
    EmptySelection,
    InternalError,
    InvalidTemplate,
    MalformedRelation,
    NotAHasseDiagram,
    NotAnIncidenceAlgebra,
    NotIntervalMonotone,
    NotAThirdSyzygyPair,
    SpecError,
    TriangularityViolation,
)
from .quivers import (
    Contour,
    Path,
    Quiver,
    contours,
    has_bypass,
    is_interlaced,
    is_irreducible,
)
from .presentation import (
    IncidenceQuotient,
    SchurianAlgebra,
    Validity,
    as_incidence_quotient,
    from_poset,
    minimal_zero_pairs,
    opposite_algebra,
    second_syzygy_multiplicity,
)
from .homology import (
    ProjResolution,
    ext_dim,
    gl_dim,
    idim_of_simple,
    minimal_injective_coresolution,
    minimal_projective_resolution,
    pd_of_simple,
    resolution_of_simple,
    verify_exactness,
    verify_minimality,
)
from .criteria import (
    CriticalReport,
    CriticalTemplate,
    GlDim2Verdict,
    SyzygyConfig,
    audit_resolution_structure,
    build_critical_candidate,
    build_syzygy_config,
    check_critical,
    classify_critical,
    convex_crown_witness,
    critical_template,
    find_all_critical_subcategories,
    find_critical_subcategory_guided,
    gldim2_criterion,
    igusa_zacharia,
    pd_spectrum_check,
    second_term_engine,
    second_term_from_relations,
    third_syzygy_test_auto,
)
from .specfile import AlgebraSpecDocument, load_algebra, parse_spec, render_spec
from .report import ReportDocument, build_report, parse_report, render_report
from .randgen import RandomModel, random_algebra
from .compare import ComparisonReport, oracle_compare

__version__ = "0.1.0"
