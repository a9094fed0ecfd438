"""Finite 2-categories, marked simplicial sets, and nerve comparisons."""

from .msset import (
    DEFAULT_BOUND,
    MarkedSSet,
    MSSetMap,
    Report,
    ResourceLimitError,
    colimit,
    enumerate_maps,
    find_iso,
    is_iso,
    is_mono,
    product,
    pushout,
    standard_simplex,
    validate_map,
    validate_msset,
)
from .twocat import (
    Fin2Category,
    FinCategory,
    Functor,
    Theta2Shape,
    TwoFunctor,
    as_two_category,
    cell,
    enumerate_two_functors,
    free_iso,
    ordinal,
    suspend_category,
    theta2_object,
    validate_2cat,
)
from .nerves import (
    duskin_nerve, nerve, nerve_map, rs_nerve, scaled_nerve, suspension_comparison)
from .suspension import suspend_map, suspend_marked
from .theta import (
    BoxCell,
    PresentationMap,
    Theta2Presentation,
    apply_L,
    apply_L_map,
    apply_R_at,
    d_restriction,
    elementary_cofibration,
    evaluate,
    representable,
)

__version__ = "0.1.0"
