"""Exact matroid pathwidth and linear-code trellis-width toolkit."""

from .algebra import (
    FieldSpec,
    GfMatrix,
    field_new,
    field_from_order,
    matrix_to_text,
    rank,
    rref,
)
from .codes import (
    LinearCode,
    catalog_code,
    trellis_width,
)
from .graph import (
    MultiGraph,
    PathDecomposition,
    cycle_matroid,
    graph_from_text,
    graph_pathwidth,
    graph_to_text,
    make_umbrella,
    umbrella_ordering,
    validate_path_decomposition,
)
from .matroid import (
    MinorSpec,
    VectorMatroid,
    apply_minor,
    direct_sum,
    dual,
    is_isomorphic,
    matroid_from_text,
    matroid_to_text,
)
from .minors import (
    CatalogEntry,
    MinorCertificate,
    excluded_minor_catalog,
    minor_contains,
    pw_le_1_by_minors,
    verify_excluded_minor,
)
from .pathwidth import (
    CubicTree,
    WidthCertificate,
    branch_width_of_tree,
    caterpillar,
    pathwidth_exact,
    pathwidth_upper_greedy,
    width_of_ordering,
)
from .reduction import (
    ApexGraph,
    add_apex,
    decomp_to_ordering,
    is_normal,
    normalize,
    ordering_to_decomp,
    reduce_instance,
    reorder,
    simplify_double,
)

__version__ = "0.1.0"
