"""Conway polynomials and self-delta-equivalence of pretzel links."""

from .errors import (
    InternalConsistencyError,
    InvalidSequenceError,
    ParseError,
    PretzelInputError,
    ResourceLimitError,
    SplitDiagramError,
    UnrealizableOrientationError,
    UnsupportedError,
)
from .sequences import (
    INF,
    EnhancedSequence,
    Entry,
    R,
    S,
    TwistType,
    canonical_key,
    component_count,
    enumerate_enhancements,
    is_erasable,
    is_realizable,
    linking_matrix,
    pairing_respects_orientation,
    parse_plain,
    twist_surplus,
)
from .zpoly import ZPoly
from .diagrams import (
    Diagram,
    SeifertMatrix,
    build_diagram,
    component_conways,
    conway_from_seifert,
    oracle_conway,
    pd_code,
    seifert_matrix,
    skein_checks,
)
from .polynomials import (
    a1a3_even,
    a1a3_odd,
    base_conway,
    phi_poly,
    psi_poly,
    statesum_conway,
    torus_conway,
    twistreduce_conway,
)
from .classify import (
    ClassTable,
    InvariantReport,
    SelfDeltaResult,
    SliceShape,
    class_key,
    conway_vanishing_predict,
    delta_equivalent,
    enumerate_classes,
    invariants,
    self_delta_necessary,
    self_delta_equivalent,
    self_delta_trivial_2comp,
    slice_shape,
)

__version__ = "0.1.0"
