"""Stock instances used by the suites and tests.

The sign category is the classic instance with a nontrivial associator
coming from a 3-cocycle on the two-element group; the codiscrete pair with
a NAND tensor is the smallest instance whose tensor is neither strictly
unital nor strictly associative on object indices, which is what the
composition-failure witnesses need.
"""

import functools

from .fincat import FiniteCategory
from .monoids import FiniteMonoid
from .monoidal import FinMonoidalCategory


def trivial_monoid() -> FiniteMonoid:
    return FiniteMonoid(1, 0, ((0,),))


def zmod(n: int) -> FiniteMonoid:
    """Integers modulo n under addition; unit 0."""
    return FiniteMonoid(n, 0, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def bool_or_monoid() -> FiniteMonoid:
    """{0, 1} under OR: a monoid whose non-unit element has no inverse."""
    return FiniteMonoid(2, 0, ((0, 1), (1, 1)))


def discrete_monoidal(m: FiniteMonoid) -> FinMonoidalCategory:
    """Only identity morphisms; tensor is the monoid product, all constraints
    identities.  Valid exactly because the monoid laws hold on the nose."""
    n = m.size
    base = FiniteCategory(
        n_objects=n,
        morphisms=tuple((a, a) for a in range(n)),
        identities=tuple(range(n)),
        comp=tuple(tuple(a if a == b else None for b in range(n)) for a in range(n)),
    )
    tensor_mor = tuple(tuple(m.mul[a][b] for b in range(n)) for a in range(n))
    assoc = tuple(
        tuple(tuple(m.mul[m.mul[a][b]][x] for x in range(n)) for b in range(n))
        for a in range(n)
    )
    lunit = tuple(m.mul[m.unit][a] for a in range(n))
    runit = tuple(m.mul[a][m.unit] for a in range(n))
    return FinMonoidalCategory(
        base=base,
        tensor_obj=m.mul,
        tensor_mor=tensor_mor,
        unit_obj=m.unit,
        assoc=assoc,
        assoc_inv=assoc,
        lunit=lunit,
        lunit_inv=lunit,
        runit=runit,
        runit_inv=runit,
    )


def sign_category() -> FinMonoidalCategory:
    """Two objects 0, 1; hom(x, x) = {+1, -1} under multiplication; strict
    tensor on objects by addition mod 2; associator at (x, y, z) the sign
    (-1)^(xyz).  The pentagon holds because the exponent is a 3-cocycle.

    Morphism indices: 2*x + s where s = 0 is +1 and s = 1 is -1.
    """
    def mor(x, s):
        return 2 * x + s

    morphisms = tuple((x, x) for x in (0, 0, 1, 1))
    identities = (mor(0, 0), mor(1, 0))
    comp = [[None] * 4 for _ in range(4)]
    for x in (0, 1):
        for s in (0, 1):
            for t in (0, 1):
                comp[mor(x, s)][mor(x, t)] = mor(x, s ^ t)
    base = FiniteCategory(2, morphisms, identities, tuple(tuple(r) for r in comp))

    tensor_obj = ((0, 1), (1, 0))
    tensor_mor = tuple(
        tuple(mor((f // 2 + g // 2) % 2, (f % 2) ^ (g % 2)) for g in range(4))
        for f in range(4)
    )
    assoc = tuple(
        tuple(
            tuple(mor((x + y + z) % 2, x * y * z) for z in (0, 1)) for y in (0, 1)
        )
        for x in (0, 1)
    )
    lunit = (identities[0], identities[1])
    runit = (identities[0], identities[1])
    return FinMonoidalCategory(
        base=base,
        tensor_obj=tensor_obj,
        tensor_mor=tensor_mor,
        unit_obj=0,
        assoc=assoc,
        assoc_inv=assoc,
        lunit=lunit,
        lunit_inv=lunit,
        runit=runit,
        runit_inv=runit,
    )


def nand_pair() -> FinMonoidalCategory:
    """The codiscrete category on two objects with tensor x NAND y.

    Every hom-set is a single morphism, so all diagrams commute and every
    choice of constraint components is the valid one; the tensor is neither
    strictly unital nor strictly associative on object indices, which makes
    this the stock witness for composition failures of transformations.
    Morphism x -> y has index 2*x + y.
    """
    def mor(x, y):
        return 2 * x + y

    morphisms = tuple((x, y) for x in (0, 1) for y in (0, 1))
    identities = (mor(0, 0), mor(1, 1))
    comp = [[None] * 4 for _ in range(4)]
    for f in range(4):
        for g in range(4):
            fx, fy = morphisms[f]
            gx, gy = morphisms[g]
            if fy == gx:
                comp[g][f] = mor(fx, gy)
    base = FiniteCategory(2, morphisms, identities, tuple(tuple(r) for r in comp))

    def nand(x, y):
        return 0 if (x and y) else 1

    tensor_obj = tuple(tuple(nand(x, y) for y in (0, 1)) for x in (0, 1))
    tensor_mor = tuple(
        tuple(
            mor(nand(morphisms[f][0], morphisms[g][0]), nand(morphisms[f][1], morphisms[g][1]))
            for g in range(4)
        )
        for f in range(4)
    )
    unit = 0
    assoc = tuple(
        tuple(
            tuple(mor(nand(nand(x, y), z), nand(x, nand(y, z))) for z in (0, 1))
            for y in (0, 1)
        )
        for x in (0, 1)
    )
    assoc_inv = tuple(
        tuple(
            tuple(mor(nand(x, nand(y, z)), nand(nand(x, y), z)) for z in (0, 1))
            for y in (0, 1)
        )
        for x in (0, 1)
    )
    lunit = tuple(mor(nand(unit, a), a) for a in (0, 1))
    lunit_inv = tuple(mor(a, nand(unit, a)) for a in (0, 1))
    runit = tuple(mor(nand(a, unit), a) for a in (0, 1))
    runit_inv = tuple(mor(a, nand(a, unit)) for a in (0, 1))
    return FinMonoidalCategory(
        base=base,
        tensor_obj=tensor_obj,
        tensor_mor=tensor_mor,
        unit_obj=unit,
        assoc=assoc,
        assoc_inv=assoc_inv,
        lunit=lunit,
        lunit_inv=lunit_inv,
        runit=runit,
        runit_inv=runit_inv,
    )


def arrow_category() -> FiniteCategory:
    """Two objects with a single non-identity arrow 0 -> 1."""
    morphisms = ((0, 0), (1, 1), (0, 1))
    identities = (0, 1)
    comp = (
        (0, None, None),
        (None, 1, 2),
        (2, None, None),
    )
    return FiniteCategory(2, morphisms, identities, comp)


@functools.cache
def _stock() -> tuple:
    """The five stock monoidal categories, built once per process."""
    return (
        discrete_monoidal(trivial_monoid()),
        discrete_monoidal(zmod(2)),
        discrete_monoidal(bool_or_monoid()),
        sign_category(),
        nand_pair(),
    )


def stock_monoidal_universe(bound: int) -> list:
    """The stock sample of monoidal categories, filtered by size.

    Size is the larger of the object and morphism counts.  All finite
    monoidal categories of a given size cannot be enumerated, so positive
    category-level verdicts are relative to this sample.  Every call in a
    process, at every bound, returns a new list of the same five
    instances (or those of them within the bound), so the functor
    searches kept on them run once per pair in a process.
    """
    return [mc for mc in _stock() if max(mc.base.n_objects, len(mc.base.morphisms)) <= bound]
