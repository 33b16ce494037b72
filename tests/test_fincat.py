from dataclasses import replace

import pytest

from categories import RENAMED, reference_check_category
from deglab.examples import (
    arrow_category,
    discrete_monoidal,
    nand_pair,
    sign_category,
    stock_monoidal_universe,
    zmod,
)
from deglab.fincat import (
    CatFunctor,
    FiniteCategory,
    check_category,
    check_functor,
    compose_functors,
    enumerate_functors,
    identity_functor,
    one_object_category,
)
from deglab.monoids import enumerate_monoids
from deglab.report import StructuralError
from samples import left_padded_monoid


class TestCategoryChecks:
    def test_arrow_category_valid(self):
        assert check_category(arrow_category()).ok

    def test_one_object_category_matches_monoid(self):
        c = one_object_category(zmod(3))
        assert check_category(c).ok
        assert c.compose(1, 2) == 0  # 1 + 2 mod 3

    def test_noncommutative_composition_order(self):
        # comp[g][f] is g after f: in the padded monoid b*a = b
        c = one_object_category(left_padded_monoid())
        assert c.compose(2, 1) == 2 and c.compose(1, 2) == 1

    def test_partiality_enforced(self):
        ac = arrow_category()
        with pytest.raises(StructuralError):
            ac.compose(2, 2)  # arrow after arrow is undefined

    def test_malformed_comp_detected(self):
        bad = FiniteCategory(
            2, ((0, 0), (1, 1), (0, 1)), (0, 1), ((0, None, None), (None, 1, 2), (None, 2, None))
        )
        rep = check_category(bad)
        assert not rep.well_formed

    def test_undefined_composable_pair_is_missing_and_a_stray_entry_is_domain(self):
        ac = arrow_category()
        missing = replace(ac, comp=((None, None, None),) + ac.comp[1:])
        assert [v.axiom for v in check_category(missing).structural] == ["composition-missing"]
        stray = replace(ac, comp=ac.comp[:2] + ((2, None, 2),))
        rep = check_category(stray)
        assert [(v.axiom, v.where) for v in rep.structural] == [("composition-domain", (2, 2))]

    def test_iso_search(self):
        ac = arrow_category()
        assert ac.iso_between(0, 1) is None
        assert ac.iso_between(0, 0) == (0, 0)


STOCK = {
    "arrow": arrow_category(),
    "nand-pair": nand_pair().base,
    "sign": sign_category().base,
    "discrete-z2": discrete_monoidal(zmod(2)).base,
    "discrete-z3": discrete_monoidal(zmod(3)).base,
}


def single_entry_changes(c):
    """Every copy of `c` with one entry of `comp` or `identities` changed:
    each composite to each other morphism, to undefined and from undefined,
    and each identity to each other morphism."""
    m = len(c.morphisms)
    for g in range(m):
        for f in range(m):
            for v in (None, *range(m)):
                if v != c.comp[g][f]:
                    rows = [list(row) for row in c.comp]
                    rows[g][f] = v
                    yield replace(c, comp=tuple(map(tuple, rows)))
    for a in range(c.n_objects):
        for v in range(m):
            if v != c.identities[a]:
                yield replace(c, identities=c.identities[:a] + (v,) + c.identities[a + 1 :])


def assert_agrees_with_reference(c):
    want, got = reference_check_category(c), check_category(c)
    assert (got.ok, got.well_formed) == (want.ok, want.well_formed)
    if want.well_formed:
        assert [(v.axiom, v.where) for v in got.violations] == [
            (RENAMED[v.axiom], v.where) for v in want.violations
        ]
    return got


class TestReferenceLaws:
    """`check_category` against the all-triples loop in `categories.py`."""

    @pytest.mark.parametrize("name", sorted(STOCK))
    def test_stock_categories(self, name):
        assert assert_agrees_with_reference(STOCK[name]).ok

    @pytest.mark.parametrize("name", sorted(STOCK))
    def test_single_entry_changes(self, name):
        for c in single_entry_changes(STOCK[name]):
            assert_agrees_with_reference(c)

    def test_changes_reach_every_law(self):
        # each law fails on some well-formed change, so a checker that skips
        # one of them disagrees with the reference there
        failed = set()
        for c in STOCK.values():
            for changed in single_entry_changes(c):
                failed |= {v.axiom for v in check_category(changed).violations}
        assert failed == set(RENAMED.values())


class TestFunctors:
    def test_identity_and_composition(self):
        ac = arrow_category()
        ident = identity_functor(ac)
        assert check_functor(ident).ok
        assert compose_functors(ident, ident) == ident

    def test_collapse_functor(self):
        ac = arrow_category()
        # send everything to object 1
        f = CatFunctor(ac, ac, (1, 1), (1, 1, 1))
        assert check_functor(f).ok

    def test_broken_functor_detected(self):
        ac = arrow_category()
        f = CatFunctor(ac, ac, (0, 1), (0, 1, 0))
        rep = check_functor(f)
        assert any(v.axiom == "endpoints" for v in rep.violations)

    def test_enumeration_matches_direct_scan(self):
        ac = arrow_category()
        fs = enumerate_functors(ac, ac)
        # object maps: (0,0) id-collapse, (0,1) identity, (1,1) collapse; (1,0)
        # impossible since there is no arrow 1 -> 0
        assert sorted(f.object_map for f in fs) == [(0, 0), (0, 1), (1, 1)]
        # every functor the search yields passes the checker, so a caller
        # need not filter its results: over every ordered pair of the stock
        # bases, the arrow category and the one-object categories of sizes
        # <= 3
        cats = [mc.base for mc in stock_monoidal_universe(4)] + [ac] + [
            one_object_category(m) for n in range(1, 4) for m in enumerate_monoids(n)
        ]
        fs = [f for c in cats for d in cats for f in enumerate_functors(c, d)]
        assert len(cats) == 16 and len(fs) == 511
        for f in fs:
            assert check_functor(f).ok

    def test_enumeration_on_one_object_categories_matches_homs(self):
        from deglab.monoids import enumerate_homs

        c = one_object_category(zmod(4))
        d = one_object_category(zmod(2))
        fs = enumerate_functors(c, d)
        assert sorted(f.morphism_map for f in fs) == sorted(
            h.map for h in enumerate_homs(zmod(4), zmod(2))
        )
