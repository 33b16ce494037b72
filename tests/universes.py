"""Reference universes: the category-of-monoids sides as they were built
when every hom-set held `MonoidHom`s from `enumerate_homs`, keyed by their
maps and looked up by (monoid, monoid) pairs.  Each builds its own
hom-sets and finds 1-cells through its own dict index (`hom_index`), not
the lookup `hom_indexed_category` returns, so the map-tuple builders must
reproduce their numbering, tables, functor and report."""

from operator import attrgetter

import pytest

from deglab.equivalence import JFunctor, check_external_equivalence, hom_indexed_category
from deglab.monoids import enumerate_homs, enumerate_monoids, identity_hom
from deglab.report import InvalidStructureError, Report
from samples import compose_homs


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
