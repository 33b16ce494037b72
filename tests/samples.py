"""One structure of every JSON kind, shared by the serializer and CLI tests,
and small fixtures the package itself has no use for."""

from deglab.degenerate import monoid_to_cat, nat_trans_between
from deglab.doubly import DDModification, build_ddbicat, identity_dd_functor, transformation_between
from deglab.examples import arrow_category, nand_pair, sign_category, zmod
from deglab.monads import MonadFunctorTransformation, identity_monad, identity_monad_functor
from deglab.monoidal import (
    DegModification,
    identity_deg_transformation,
    identity_monoidal_functor,
    identity_monoidal_transformation,
    shift_to_bicat,
)
from deglab.monoids import FiniteMonoid, identity_hom, make_cmon_die


def left_padded_monoid() -> FiniteMonoid:
    """Unit adjoined to the two-element left-zero semigroup: x*y = x off the
    unit.  Noncommutative with trivial center, handy as a negative case."""
    return FiniteMonoid(3, 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)))


def sample_structures():
    s = make_cmon_die(zmod(2), 1)
    f = identity_dd_functor(s)
    t = transformation_between(f, f)
    mc = sign_category()
    mf = identity_monoidal_functor(mc)
    dt = identity_deg_transformation(mf)
    monad = identity_monad(arrow_category())
    mnf = identity_monad_functor(monad)
    z3 = identity_hom(zmod(3))
    yield zmod(3)
    yield s
    yield monoid_to_cat(zmod(3))
    yield nat_trans_between(z3, z3)[1]
    yield build_ddbicat(s)
    yield f
    yield t
    yield DDModification(t, 1)
    yield arrow_category()
    yield mc
    yield shift_to_bicat(mc)
    yield nand_pair()
    yield mf
    yield identity_monoidal_transformation(mf)
    yield dt
    yield DegModification(dt, dt, mc.base.identities[dt.dist_obj])
    yield monad
    yield mnf
    yield MonadFunctorTransformation(mnf, mnf, mnf.u.target.identities)
