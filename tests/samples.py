"""One structure of every JSON kind, shared by the serializer and CLI tests,
and small fixtures the package itself has no use for."""

from deglab.degenerate import monoid_to_cat, nat_trans_between
from deglab.doubly import DDModification, build_ddbicat, identity_dd_functor, transformation_between
from deglab.examples import arrow_category, nand_pair, sign_category, zmod
from deglab.fincat import FiniteCategory
from deglab.monads import MonadFunctorTransformation, identity_monad, identity_monad_functor
from deglab.monoidal import (
    DegModification,
    FinMonoidalCategory,
    identity_deg_transformation,
    identity_monoidal_functor,
    identity_monoidal_transformation,
    shift_to_bicat,
)
from deglab.monoids import FiniteMonoid, MonoidHom, identity_hom, make_cmon_die


def left_padded_monoid() -> FiniteMonoid:
    """Unit adjoined to the two-element left-zero semigroup: x*y = x off the
    unit.  Noncommutative with trivial center, handy as a negative case."""
    return FiniteMonoid(3, 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)))


def compose_homs(g: MonoidHom, f: MonoidHom) -> MonoidHom:
    """The composite g . f through the strict constructor: its map reads
    g's map at each entry of f's."""
    return MonoidHom(f.source, g.target, tuple(g.map[v] for v in f.map))


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


def two_group(p: int, q: int, alpha) -> FinMonoidalCategory:
    """The skeletal 2-group with objects G = Z/p, automorphisms A = Z/q on
    each object, trivial action and associator alpha(x, y, z) in A, which
    must be a normalized 3-cocycle for the pentagon to hold.  The arrow s
    on object x has index q*x + s; unitors are identities.  `sign_category`
    is two_group(2, 2, lambda x, y, z: x * y * z)."""
    def mor(x, s):
        return q * (x % p) + s % q

    arrows = range(p * q)
    base = FiniteCategory(
        n_objects=p,
        morphisms=tuple((f // q, f // q) for f in arrows),
        identities=tuple(mor(x, 0) for x in range(p)),
        comp=tuple(
            tuple(mor(g // q, g + f) if g // q == f // q else None for f in arrows)
            for g in arrows
        ),
    )
    assoc, assoc_inv = (
        tuple(
            tuple(tuple(mor(x + y + z, sign * alpha(x, y, z)) for z in range(p)) for y in range(p))
            for x in range(p)
        )
        for sign in (1, -1)
    )
    return FinMonoidalCategory(
        base=base,
        tensor_obj=tuple(tuple((x + y) % p for y in range(p)) for x in range(p)),
        tensor_mor=tuple(tuple(mor(f // q + g // q, f + g) for g in arrows) for f in arrows),
        unit_obj=0,
        assoc=assoc,
        assoc_inv=assoc_inv,
        lunit=base.identities,
        lunit_inv=base.identities,
        runit=base.identities,
        runit_inv=base.identities,
    )


def subset_lattice() -> FinMonoidalCategory:
    """The subsets of a two-element set as bitmasks 0-3, ordered by
    inclusion, with union as tensor and every constraint an identity.  A
    strict monoidal poset: unlike the groupoid fixtures, its non-identity
    arrows are not invertible."""
    morphisms = tuple((a, b) for a in range(4) for b in range(4) if a & b == a)
    index = {ends: f for f, ends in enumerate(morphisms)}
    ids = tuple(index[a, a] for a in range(4))
    base = FiniteCategory(
        n_objects=4,
        morphisms=morphisms,
        identities=ids,
        comp=tuple(
            tuple(index[f[0], g[1]] if f[1] == g[0] else None for f in morphisms)
            for g in morphisms
        ),
    )
    assoc = tuple(tuple(tuple(ids[a | b | x] for x in range(4)) for b in range(4)) for a in range(4))
    return FinMonoidalCategory(
        base=base,
        tensor_obj=tuple(tuple(a | b for b in range(4)) for a in range(4)),
        tensor_mor=tuple(
            tuple(index[f[0] | g[0], f[1] | g[1]] for g in morphisms) for f in morphisms
        ),
        unit_obj=0,
        assoc=assoc,
        assoc_inv=assoc,
        lunit=ids,
        lunit_inv=ids,
        runit=ids,
        runit_inv=ids,
    )


def product_square(m: FiniteMonoid) -> FiniteMonoid:
    """M x M, with the pair (x, y) at index x * n + y."""
    n = m.size
    return FiniteMonoid(
        n * n,
        m.unit * n + m.unit,
        tuple(
            tuple(m.mul[x][z] * n + m.mul[y][w] for z in range(n) for w in range(n))
            for x in range(n)
            for y in range(n)
        ),
    )
