"""One-object categories, their identification with monoids, and the
comparison functor from the category of such categories to the category of
monoids.

The comparison is an equivalence at the 1-dimensional level; at the
2-dimensional level it fails to be locally full, witnessed by natural
transformations with non-identity distinguished elements.
"""

from dataclasses import dataclass
from itertools import chain
from operator import ge

from .equivalence import JFunctor, check_external_equivalence, hom_indexed_category
from .monoids import (
    FiniteMonoid,
    MonoidHom,
    check_hom,
    check_monoid_axioms,
    enumerate_monoids,
    hom_maps,
)
from .report import InvalidStructureError, Report, ValidationReport, exact


@dataclass(frozen=True)
class DegenerateCategory:
    """A category with exactly one object; morphisms form a monoid."""

    hom: FiniteMonoid


@dataclass(frozen=True)
class DegNatTrans:
    """A natural transformation between functors of one-object categories.

    The data is a single distinguished element of the target monoid (its
    component at the unique object); naturality is one equation per source
    element.  The constructor checks only that the component is an exact
    int in range of the target (see `report.exact`).
    """

    source_functor: MonoidHom
    target_functor: MonoidHom
    component: int

    def __post_init__(self):
        exact(self.component, "component", (), self.source_functor.target.size)


def cat_to_monoid(c: DegenerateCategory) -> FiniteMonoid:
    """Forget the single object; pure projection onto the hom monoid."""
    return c.hom


def monoid_to_cat(m: FiniteMonoid) -> DegenerateCategory:
    """Wrap a monoid as a one-object category; strict inverse of the projection."""
    rep = check_monoid_axioms(m.mul, m.unit)
    if not rep.ok:
        raise InvalidStructureError("not a valid monoid")
    return DegenerateCategory(m)


def check_nat_trans(t: DegNatTrans) -> ValidationReport:
    """The functors F and G are homomorphisms (findings prefixed `F-` and
    `G-`, their JSON keys), and naturality: d * F(x) = G(x) * d for every
    source element."""
    report = ValidationReport("nat_trans")
    f, g = t.source_functor, t.target_functor
    if f.source != g.source or f.target != g.target:
        report.add_structural("endpoints", (), "functors are not parallel")
        return report
    report.extend(check_hom(f), prefix="F-")
    report.extend(check_hom(g), prefix="G-")
    mul = f.target.mul
    for x in range(f.source.size):
        if mul[t.component][f.map[x]] != mul[g.map[x]][t.component]:
            report.add(
                "naturality",
                (x,),
                f"d*F({x}) = {mul[t.component][f.map[x]]} != {mul[g.map[x]][t.component]} = G({x})*d",
            )
    return report


def find_nonidentity_nat_trans(m: FiniteMonoid) -> DegNatTrans | None:
    """A transformation id => id with a non-unit component, if one exists.

    Such an element must commute with everything, so this is a scan of the
    center; any hit shows the 2-dimensional comparison is not locally full.
    """
    ident = MonoidHom(m, m, tuple(range(m.size)))
    for d in range(m.size):
        if d == m.unit:
            continue
        if all(m.mul[d][x] == m.mul[x][d] for x in range(m.size)):
            return DegNatTrans(ident, ident, d)
    return None


def nat_trans_between(f: MonoidHom, g: MonoidHom) -> list:
    """All valid transformation components between two parallel functors."""
    out = []
    for d in range(f.target.size):
        t = DegNatTrans(f, g, d)
        if check_nat_trans(t).ok:
            out.append(t)
    return out


def degenerate_sample(bound: int) -> list:
    """One degenerate category per monoid of size up to the bound, an exact
    int (see `report.exact`)."""
    exact(bound, "bound")
    sample = []
    for n in range(1, bound + 1):
        for m in enumerate_monoids(n):
            sample.append(monoid_to_cat(m))
    return sample


def _compose_maps(g: tuple, f: tuple) -> tuple:
    return tuple(map(g.__getitem__, f))


def monoid_category(prefix: str, monoids: list, homs: dict, two_cell=None):
    """The category of the given monoids over hom-sets of plain maps.

    homs[(i, k)] lists the maps of the homomorphisms monoids[i] ->
    monoids[k], as `hom_maps` returns them; each map is its own key, so
    no key function runs per map, the composite g . f reads g at each
    entry of f, and the identity on monoids[i] is tuple(range(size)).
    0-cells are labelled f"{prefix}#{i}(n={size})".  two_cell is as for
    `hom_indexed_category`, which builds the category; returns its
    (category, one_cell), one_cell(i, k, map) finding a 1-cell by its map.
    """
    return hom_indexed_category(
        tuple(f"{prefix}#{i}(n={m.size})" for i, m in enumerate(monoids)),
        homs,
        compose=_compose_maps,
        identity=lambda i: tuple(range(monoids[i].size)),
        two_cell=two_cell,
    )


def forgetful_universe(sample: list):
    """Both sides of the object-forgetting comparison over a sample: the
    sampled categories, and every monoid enumerated at their sizes (plus any
    sampled table the enumeration lacks).  Returns (right_monoids,
    left_homs, right_homs, fun).

    The hom-sets hold the homomorphisms as plain map tuples (see
    `hom_maps`), searched once per pair of right-side monoids:
    right_homs[(i, k)] is that search's tuple, and left_homs[(i, k)] is the
    very tuple right_homs[(map0[i], map0[k])], so the two sides share it,
    and map1 is read off the enumeration: the p-th 1-cell i -> k goes to
    the p-th right 1-cell map0[i] -> map0[k], with no lookup per 1-cell.
    """
    if not sample:
        raise InvalidStructureError("sample must be nonempty")
    left_monoids = [c.hom for c in sample]
    sizes = sorted({m.size for m in left_monoids})
    # equal tables are one monoid: the first one seen stands for its class
    enumerated = [m for n in sizes for m in enumerate_monoids(n)]
    right_monoids = list(dict.fromkeys(enumerated + left_monoids))
    right_pos = {m: i for i, m in enumerate(right_monoids)}
    map0 = tuple(right_pos[m] for m in left_monoids)
    right_homs = {
        (i, k): hom_maps(m1, m2)
        for i, m1 in enumerate(right_monoids)
        for k, m2 in enumerate(right_monoids)
    }
    left_homs = {
        (i, k): right_homs[(p, q)] for i, p in enumerate(map0) for k, q in enumerate(map0)
    }
    left_cat, _ = monoid_category("monoid", left_monoids, left_homs)
    right_cat, _ = monoid_category("monoid", right_monoids, right_homs)
    map1 = tuple(chain.from_iterable(right_cat.hom(1, map0[i], map0[k]) for i, k in left_homs))
    return right_monoids, left_homs, right_homs, JFunctor(left_cat, right_cat, map0, map1)


def check_forgetful_equivalence(sample: list) -> Report:
    """Verify the object-forgetting comparison is an equivalence over a sample.

    Both sides take their hom-sets from the same enumeration (see
    `forgetful_universe`), so fullness, faithfulness and the hom-set
    bijection hold by construction.  The bijection is still checked per
    pair: a left hom-set equal to its right one and strictly ascending is
    settled by those two tests, and any other pair by comparing sets.
    Surjectivity is checked against the enumerated monoids at each size
    represented in the sample, on the nose (bit-exact hits) separately
    from essential surjectivity.
    """
    right_monoids, left_homs, right_homs, fun = forgetful_universe(sample)
    map0 = fun.map0
    sizes = sorted({c.hom.size for c in sample})
    report = Report(
        "category-to-monoid-comparison",
        {"bound": None, "universe": f"all one-object categories with hom sizes in {sizes}"},
        check_external_equivalence(fun).findings,
    )

    hit = set(map0)
    missed = [i for i in range(len(right_monoids)) if i not in hit]
    report.add(
        "surjective-on-the-nose",
        not missed,
        dimension=0,
        witness=None if not missed else {"missed-monoid": right_monoids[missed[0]].mul},
        detail="every enumerated monoid is hit bit-exactly" if not missed else "",
    )
    bijective = True
    bad_pair = None
    for (i, k), homs in left_homs.items():
        targets = right_homs[(map0[i], map0[k])]
        if homs == targets and not any(map(ge, homs, homs[1:])):
            continue
        images = set(homs)
        if images != set(targets) or len(images) != len(homs):
            bijective = False
            bad_pair = (i, k)
            break
    report.add(
        "hom-set-bijection",
        bijective,
        dimension=1,
        witness=None if bijective else {"pair": list(bad_pair)},
        detail="functor sets and homomorphism sets coincide per pair",
    )
    return report


def not_locally_full_witnesses(bound: int) -> list:
    """For every commutative monoid with more than one element, a non-identity
    transformation on the identity functor (the 2-dimensional failure mode).
    The bound must be an exact int (see `report.exact`)."""
    exact(bound, "bound")
    out = []
    for n in range(2, bound + 1):
        for m in enumerate_monoids(n, commutative_only=True):
            t = find_nonidentity_nat_trans(m)
            if t is None:
                raise InvalidStructureError(
                    "commutative monoid with >1 element lacks a central non-unit"
                )
            out.append(t)
    return out
