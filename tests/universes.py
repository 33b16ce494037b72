"""Reference universes: the category-of-monoids sides as they were built
when every hom-set held `MonoidHom`s from `enumerate_homs`, keyed by their
maps and looked up by (monoid, monoid) pairs.  Each builds its own
hom-sets and finds 1-cells through its own dict index (`hom_index`), not
the lookup `hom_indexed_category` returns, so the map-tuple builders must
reproduce their numbering, tables, functor and report.  The 2-truncation
universe is here as it was built from functor and transformation objects,
so the builder on (map, m) keys must reproduce it too."""

from operator import attrgetter

import pytest

from deglab.degenerate import monoid_category
from deglab.doubly import (
    compose_dd_functors,
    dd_functors_between,
    forgetful_image,
    identity_dd_functor,
    transformation_between,
    unfaithfulness_witness,
)
from deglab.equivalence import JFunctor, check_external_equivalence, hom_indexed_category
from deglab.monoids import (
    cmon_die_universe,
    enumerate_homs,
    enumerate_monoids,
    hom_maps,
    identity_hom,
)
from deglab.report import InvalidStructureError, Report
from samples import compose_homs
from walks import first_miscounted_pair


_hom_map = attrgetter("map")


def hom_index(homs, key) -> dict:
    """The dict (i, k, key(arrow)) -> 1-cell over the hom-sets numbered in
    order, the first arrow with a key winning."""
    index: dict = {}
    cell = 0
    for (i, k), hom in homs.items():
        for f in hom:
            index.setdefault((i, k, key(f)), cell)
            cell += 1
    return index


def assert_lookup_matches(one_cell, homs, key, absent=()) -> int:
    """`one_cell`, as `hom_indexed_category` returns it, agrees with
    `hom_index(homs, key)` at every key, and raises InvalidStructureError
    at each (i, k, key) of `absent` and at up to three keys of the next
    hom-set (cyclically) that each hom-set lacks.  Returns the number of
    absent keys tried."""
    index = hom_index(homs, key)
    for (i, k, kv), cell in index.items():
        assert one_cell(i, k, kv) == cell, (i, k, kv)
    pairs = list(homs)
    missing = list(absent)
    for (i, k), nxt in zip(pairs, pairs[1:] + pairs[:1]):
        others = [kv for kv in map(key, homs[nxt]) if (i, k, kv) not in index]
        missing += [(i, k, kv) for kv in others[:3]]
    for i, k, kv in missing:
        with pytest.raises(InvalidStructureError):
            one_cell(i, k, kv)
    return len(missing)


def monoid_hom_category(labels, monoids, homs, two_cell=None):
    """`hom_indexed_category` over hom-sets of `MonoidHom`s, and its index
    by (i, k, map) from `hom_index`."""
    cat, _ = hom_indexed_category(
        labels,
        homs,
        key=_hom_map,
        compose=compose_homs,
        identity=lambda i: identity_hom(monoids[i]),
        two_cell=two_cell,
    )
    return cat, hom_index(homs, _hom_map)


def reference_forgetful_universe(sample: list):
    """(right_monoids, left_homs, right_homs, fun), with one shared
    enumeration of homomorphisms per (monoid, monoid) pair."""
    left_monoids = [c.hom for c in sample]
    sizes = sorted({m.size for m in left_monoids})
    enumerated = [m for n in sizes for m in enumerate_monoids(n)]
    right_monoids = list(dict.fromkeys(enumerated + left_monoids))
    hom_cache: dict = {}

    def category(monoids):
        homs = {}
        for i, m1 in enumerate(monoids):
            for k, m2 in enumerate(monoids):
                if (m1, m2) not in hom_cache:
                    hom_cache[(m1, m2)] = enumerate_homs(m1, m2)
                homs[(i, k)] = hom_cache[(m1, m2)]
        labels = tuple(f"monoid#{i}(n={m.size})" for i, m in enumerate(monoids))
        cat, index = monoid_hom_category(labels, monoids, homs)
        return cat, index, homs

    left_cat, _, left_homs = category(left_monoids)
    right_cat, right_index, right_homs = category(right_monoids)
    right_pos = {m: i for i, m in enumerate(right_monoids)}
    map0 = tuple(right_pos[m] for m in left_monoids)
    map1 = tuple(
        right_index[(map0[i], map0[k], h.map)] for (i, k), homs in left_homs.items() for h in homs
    )
    return right_monoids, left_homs, right_homs, JFunctor(left_cat, right_cat, map0, map1)


def reference_forgetful_report(sample: list) -> Report:
    """`check_forgetful_equivalence` over the reference universe."""
    right_monoids, left_homs, right_homs, fun = reference_forgetful_universe(sample)
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
        images = {h.map for h in homs}
        targets = {h.map for h in right_homs[(map0[i], map0[k])]}
        if images != targets or len(images) != len(homs):
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


def reference_two_truncation_right(dies):
    """The discrete side of `two_truncation_universe` over `dies`, and its
    index by (i, k, map), over hom-sets of `MonoidHom`s."""
    monoids = list(dict.fromkeys(s.monoid for s in dies))
    return monoid_hom_category(
        tuple(f"cmon#{i}(n={m.size})" for i, m in enumerate(monoids)),
        monoids,
        {
            (i, k): enumerate_homs(m, m2)
            for i, m in enumerate(monoids)
            for k, m2 in enumerate(monoids)
        },
        two_cell=lambda f, g: f is g,
    )


def reference_two_truncation_universe(bound: int):
    """`doubly.two_truncation_universe` as it was built from functor
    objects: each hom-set the interned `DDFunctor`s of
    `dd_functors_between`, keyed by (map, m), composed by
    `compose_dd_functors`, and a 2-cell f => g wherever
    `transformation_between(f, g)` finds one.  Returns (dies, one_cells,
    two_cells, fun), one_cells as (source, target, functor)."""
    dies = cmon_die_universe(bound)
    homs = {
        (si, ti): dd_functors_between(s, t)
        for si, s in enumerate(dies)
        for ti, t in enumerate(dies)
    }
    left, _ = hom_indexed_category(
        tuple(f"die#{i}(n={s.monoid.size},d={s.die})" for i, s in enumerate(dies)),
        homs,
        key=lambda f: (f.map, f.m),
        compose=compose_dd_functors,
        identity=lambda i: identity_dd_functor(dies[i]),
        two_cell=lambda f, g: transformation_between(f, g) is not None,
    )
    one_cells = [(s, t, f) for (s, t), fs in homs.items() for f in fs]
    monoids = list(dict.fromkeys(s.monoid for s in dies))
    right, right_one_cell = monoid_category(
        "cmon",
        monoids,
        {(i, k): hom_maps(m, m2) for i, m in enumerate(monoids) for k, m2 in enumerate(monoids)},
        two_cell=lambda f, g: f is g,
    )
    mpos = {m: i for i, m in enumerate(monoids)}
    map0 = tuple(mpos[s.monoid] for s in dies)
    map1 = tuple(right_one_cell(map0[s], map0[t], f.map) for (s, t, f) in one_cells)
    map2 = tuple(map1[f] for f, _ in left.cells[1])
    return dies, one_cells, left.cells[1], JFunctor(left, right, map0, map1, map2)


def reference_two_equivalence_report(bound: int) -> Report:
    """`check_two_equivalence` over `reference_two_truncation_universe`, as
    it was made from functor objects: every parallel pair's 2-cells
    counted (`walks.first_miscounted_pair`), and the level-1 and level-3
    findings from the objects `unfaithfulness_witness` builds, compared
    through `forgetful_image`.  A level with no witnessing instance is
    left out, where `check_two_equivalence` fails it, so the two agree
    from bound 2 on."""
    dies, one_cells, _, fun = reference_two_truncation_universe(bound)
    report = Report(
        "two-truncation-comparison",
        {"bound": bound, "universe": f"all {len(dies)} instances of size <= {bound}"},
        check_external_equivalence(fun).findings,
    )
    hit = set(fun.map0)
    identity_die = all(
        any(fun.map0[i] == k and s.die == s.monoid.unit for i, s in enumerate(dies))
        for k in range(len(fun.target.zero_cells))
    )
    report.add(
        "surjective-on-objects-on-the-nose",
        len(hit) == len(fun.target.zero_cells) and identity_die,
        dimension=0,
        detail="every commutative monoid is hit by the instance with identity element chosen",
    )
    keyed = [(s, t, (f.map, f.m)) for s, t, f in one_cells]
    bad = first_miscounted_pair(keyed, fun.source)
    report.add(
        "locally-bijective-on-2-cells",
        bad is None,
        dimension=2,
        witness=None if bad is None else {"pair": bad[:2], "count": bad[2], "expected": bad[3]},
        detail="exactly one transformation iff the homomorphisms agree",
    )
    for level, criterion, cells in (
        (1, "level-1-comparison-not-faithful", "functors with distinct chosen elements"),
        (3, "level-3-comparison-not-locally-faithful", "modifications with distinct elements"),
    ):
        w = next(filter(None, (unfaithfulness_witness(level, s) for s in dies)), None)
        if w is not None:
            report.add(
                criterion,
                forgetful_image(level, w[0]) == forgetful_image(level, w[1]),
                dimension=level,
                detail=f"two {cells} share one image",
            )
    return report
