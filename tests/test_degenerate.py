import pytest

from deglab.degenerate import (
    DegNatTrans,
    OBJECT_LABEL,
    cat_to_monoid,
    check_forgetful_equivalence,
    check_nat_trans,
    degenerate_sample,
    find_nonidentity_nat_trans,
    forgetful_universe,
    monoid_to_cat,
    nat_trans_between,
    not_locally_full_witnesses,
)
from deglab.equivalence import check_jcategory, check_jfunctor
from deglab.examples import bool_or_monoid, trivial_monoid, zmod
from deglab.fincat import enumerate_functors, one_object_category
from deglab.monoids import FiniteMonoid, MonoidHom, enumerate_homs, enumerate_monoids, identity_hom
from deglab.report import InvalidStructureError
from samples import left_padded_monoid


class TestRoundTrips:
    def test_monoid_to_cat_labels(self):
        c = monoid_to_cat(zmod(2))
        assert c.object_label == OBJECT_LABEL and c.hom == zmod(2)

    def test_round_trip_identity(self):
        for m in (trivial_monoid(), zmod(2), bool_or_monoid(), left_padded_monoid()):
            assert cat_to_monoid(monoid_to_cat(m)) == m

    def test_invalid_monoid_rejected(self):
        bad = FiniteMonoid(2, 0, ((0, 1), (0, 0)))
        with pytest.raises(InvalidStructureError):
            monoid_to_cat(bad)


class TestNatTrans:
    def test_identity_component_valid(self):
        ident = identity_hom(zmod(2))
        assert check_nat_trans(DegNatTrans(ident, ident, 0)).ok

    def test_commutative_nonunit_component_valid(self):
        ident = identity_hom(zmod(2))
        assert check_nat_trans(DegNatTrans(ident, ident, 1)).ok

    def test_failure_located(self):
        m = zmod(2)
        ident = identity_hom(m)
        const = MonoidHom(m, m, (0, 0))
        rep = check_nat_trans(DegNatTrans(ident, const, 0))
        # e*g = g on the source side but G(g)*e = e
        assert not rep.ok
        assert any(v.where == (1,) for v in rep.violations)

    def test_mismatched_endpoints_structural(self):
        f = identity_hom(zmod(2))
        g = identity_hom(zmod(3))
        rep = check_nat_trans(DegNatTrans(f, g, 0))
        assert not rep.well_formed

    def test_all_components_between_identity_functors(self):
        # on a commutative monoid every element is a valid component
        ident = identity_hom(zmod(3))
        assert len(nat_trans_between(ident, ident)) == 3


class TestNonIdentitySearch:
    def test_zmod2_finds_generator(self):
        t = find_nonidentity_nat_trans(zmod(2))
        assert t is not None and t.component == 1
        assert check_nat_trans(t).ok

    def test_trivial_absent(self):
        assert find_nonidentity_nat_trans(trivial_monoid()) is None

    def test_trivial_center_absent(self):
        assert find_nonidentity_nat_trans(left_padded_monoid()) is None

    def test_every_commutative_monoid_with_two_elements(self):
        witnesses = not_locally_full_witnesses(3)
        assert witnesses
        for t in witnesses:
            assert t.component != t.source_functor.target.unit
            assert check_nat_trans(t).ok


class TestForgetfulEquivalence:
    def test_singleton_sample(self):
        rep = check_forgetful_equivalence([monoid_to_cat(trivial_monoid())])
        assert rep.ok

    def test_full_universe_bound_three(self):
        rep = check_forgetful_equivalence(degenerate_sample(3))
        assert rep.ok
        names = {f.criterion for f in rep.findings}
        assert "surjective-on-the-nose" in names
        assert "hom-set-bijection" in names

    def test_relabeled_sample_breaks_on_the_nose_but_not_essential(self):
        # a non-canonical labeling of the two-element group, replacing the
        # canonical one: the enumerated table is only hit up to isomorphism
        relabeled = FiniteMonoid(2, 1, ((1, 0), (0, 1)))
        sample = [monoid_to_cat(relabeled), monoid_to_cat(bool_or_monoid())]
        rep = check_forgetful_equivalence(sample)
        by_name = {f.criterion: f for f in rep.findings}
        assert by_name["essentially-surjective-on-0-cells"].passed
        assert not by_name["surjective-on-the-nose"].passed

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidStructureError):
            check_forgetful_equivalence([])

    @pytest.mark.parametrize(
        "sample",
        [
            degenerate_sample(3),
            [monoid_to_cat(FiniteMonoid(2, 1, ((1, 0), (0, 1)))), monoid_to_cat(bool_or_monoid())],
        ],
        ids=["sizes<=3", "relabeled"],
    )
    def test_tables_match_all_pairs_reference(self, sample):
        _, left_homs, right_homs, fun = forgetful_universe(sample)
        for cat, homs in ((fun.source, left_homs), (fun.target, right_homs)):
            cells = [(i, k, h) for (i, k), hs in homs.items() for h in hs]
            index = {}
            for pos, (i, k, h) in enumerate(cells):
                index.setdefault((i, k, h.map), pos)
            reference = {
                (gi, fi): index[(i1, k2, tuple(g.map[v] for v in f.map))]
                for gi, (i2, k2, g) in enumerate(cells)
                for fi, (i1, k1, f) in enumerate(cells)
                if k1 == i2
            }
            assert cat.one_cells == tuple((i, k) for i, k, _ in cells)
            assert dict(cat.one_comp) == reference
            assert len(cat.one_comp) == len(reference)
            n = len(cells)
            for gi in range(n):
                for fi in range(n):
                    assert ((gi, fi) in cat.one_comp) == ((gi, fi) in reference)
            for key in [(0, n), (n, 0), (-1, 0), (0, -1)]:
                assert key not in cat.one_comp

    def test_universe_is_a_category_and_functor(self):
        _, _, _, fun = forgetful_universe(degenerate_sample(3))
        assert check_jcategory(fun.source).ok
        assert check_jcategory(fun.target).ok
        assert check_jfunctor(fun).ok

    def test_functor_sets_equal_hom_sets(self):
        # fincat's functor search, which shares no code with enumerate_homs
        for m in enumerate_monoids(3)[:4]:
            for n in enumerate_monoids(2):
                functors = enumerate_functors(one_object_category(m), one_object_category(n))
                assert {f.morphism_map for f in functors} == {h.map for h in enumerate_homs(m, n)}
