"""Finite models of degenerate categorical structures.

Validators, dimension-shift constructions, and equivalence checkers for
one-object categories (monoids), one-1-cell bicategories (commutative
monoids with a distinguished invertible element), and one-0-cell
bicategories (monoidal categories), together with the comparison functors
between these totalities and explicit witnesses where a comparison fails
to be an equivalence.
"""

from .degenerate import (
    DegenerateCategory,
    DegNatTrans,
    cat_to_monoid,
    check_forgetful_equivalence,
    check_nat_trans,
    find_nonidentity_nat_trans,
    monoid_to_cat,
)
from .doubly import (
    DDBicat,
    DDFunctor,
    DDModification,
    DDTransformation,
    analyze_weak_functor,
    build_ddbicat,
    check_dd_functor,
    check_dd_transformation,
    check_ddbicat,
    check_modification,
    check_two_equivalence,
    compose_dd_functors,
    eckmann_hilton_report,
    extract_cmon_die,
    forgetful_image,
    promote_lax,
    restrict_identity_constraint,
    transformation_between,
    unfaithfulness_witness,
)
from .equivalence import (
    FiniteJCategory,
    JFunctor,
    check_external_equivalence,
    check_jcategory,
    check_jfunctor,
    internally_equivalent,
)
from .fincat import CatFunctor, FiniteCategory, check_category, check_functor
from .monads import (
    FinMonad,
    MonadFunctor,
    MonadFunctorTransformation,
    check_monad,
    check_monad_functor,
    check_monad_transformation,
)
from .monoidal import (
    DegenerateBicategory,
    DegModification as MonoidalDegModification,
    DegTransformation,
    FinMonoidalCategory,
    MonoidalFunctor,
    MonoidalTransformation,
    check_deg_modification,
    check_deg_transformation,
    check_monoidal,
    check_monoidal_functor,
    check_monoidal_transformation,
    check_shift_equivalence,
    compose_deg_transformations,
    embed_monoidal_transformation,
    shift_from_bicat,
    shift_to_bicat,
)
from .monoids import (
    CMonDIE,
    FiniteMonoid,
    MonoidHom,
    check_cmon_die,
    check_commutative,
    check_hom,
    check_monoid,
    enumerate_monoids,
    invert,
)
from .report import (
    InvalidStructureError,
    RefutationAlarm,
    Report,
    StructuralError,
    ValidationReport,
)

__all__ = [name for name in dir() if not name.startswith("_")]
