import pytest

from deglab.degenerate import (
    DegNatTrans,
    DegenerateCategory,
    cat_to_monoid,
    check_forgetful_equivalence,
    check_nat_trans,
    degenerate_sample,
    find_nonidentity_nat_trans,
    forgetful_universe,
    monoid_category,
    monoid_to_cat,
    nat_trans_between,
    not_locally_full_witnesses,
)
from deglab.equivalence import check_jcategory, check_jfunctor
from deglab.examples import bool_or_monoid, trivial_monoid, zmod
from deglab.monoids import FiniteMonoid, MonoidHom, enumerate_monoids, hom_maps, identity_hom
from deglab.report import InvalidStructureError, StructuralError
from samples import left_padded_monoid
from universes import (
    assert_lookup_matches,
    hom_index,
    reference_forgetful_report,
    reference_forgetful_universe,
)


def _relabeled_pair():
    # a non-canonical labeling of the two-element group beside a canonical table
    return [monoid_to_cat(FiniteMonoid(2, 1, ((1, 0), (0, 1)))), monoid_to_cat(bool_or_monoid())]


def _twice_held():
    # one table twice as one object, and once more as an equal copy
    cats = degenerate_sample(2)
    m = cats[1].hom
    return cats + [cats[1], monoid_to_cat(FiniteMonoid(m.size, m.unit, m.mul))]


class TestRoundTrips:
    def test_monoid_to_cat_labels(self):
        c = monoid_to_cat(zmod(2))
        assert c == DegenerateCategory(zmod(2)) and c.hom == zmod(2)

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


class TestSampleBounds:
    """A bound that is not an exact int is refused, never run as an int."""

    @pytest.mark.parametrize(
        "sample, bound, message",
        [
            (degenerate_sample, True, "bool"),
            (degenerate_sample, 2.0, "float"),
            (not_locally_full_witnesses, 2.0, "float"),
        ],
    )
    def test_refused(self, sample, bound, message):
        with pytest.raises(StructuralError, match=rf"^bound: expected int, got {message}$"):
            sample(bound)


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
        [degenerate_sample(3), _relabeled_pair()],
        ids=["sizes<=3", "relabeled"],
    )
    def test_tables_match_all_pairs_reference(self, sample):
        _, left_homs, right_homs, fun = forgetful_universe(sample)
        for cat, homs in ((fun.source, left_homs), (fun.target, right_homs)):
            cells = [(i, k, h) for (i, k), hs in homs.items() for h in hs]
            index = {}
            for pos, (i, k, h) in enumerate(cells):
                index.setdefault((i, k, h), pos)
            reference = {
                (gi, fi): index[(i1, k2, tuple(g[v] for v in f))]
                for gi, (i2, k2, g) in enumerate(cells)
                for fi, (i1, k1, f) in enumerate(cells)
                if k1 == i2
            }
            comp = cat.comp[0][0]
            assert cat.cells[0] == tuple((i, k) for i, k, _ in cells)
            assert dict(comp) == reference
            assert len(comp) == len(reference)
            n = len(cells)
            for gi in range(n):
                for fi in range(n):
                    assert ((gi, fi) in comp) == ((gi, fi) in reference)
            for key in [(0, n), (n, 0), (-1, 0), (0, -1)]:
                assert key not in comp

    def test_universe_is_a_category_and_functor(self):
        _, _, _, fun = forgetful_universe(degenerate_sample(3))
        assert check_jcategory(fun.source).ok
        assert check_jcategory(fun.target).ok
        assert check_jfunctor(fun).ok

    @pytest.mark.parametrize(
        "sample",
        [
            degenerate_sample(3),
            [c for c in degenerate_sample(4) if c.hom.size in (2, 4)],
            _twice_held(),
            _relabeled_pair(),
        ],
        ids=["sizes<=3", "sizes-2-and-4", "one-table-twice", "relabeled"],
    )
    def test_matches_the_monoid_hom_reference(self, sample):
        right, left_homs, right_homs, fun = forgetful_universe(sample)
        ref_right, ref_left_homs, ref_right_homs, ref = reference_forgetful_universe(sample)
        assert right == ref_right
        for got, want in ((left_homs, ref_left_homs), (right_homs, ref_right_homs)):
            assert list(got.items()) == [(e, tuple(h.map for h in hs)) for e, hs in want.items()]
        assert (fun.map0, fun.map1) == (ref.map0, ref.map1)
        for got, want in ((fun.source, ref.source), (fun.target, ref.target)):
            assert got.zero_cells == want.zero_cells
            assert got.cells == want.cells
            assert got.identity == want.identity
            # equal ends give equal keys; every composite of the smaller
            # samples, and an even spread of the 1,086,627 per side of sizes 2 and 4
            pairs = list(want.comp[0][0])
            assert len(got.comp[0][0]) == len(pairs)
            for key in pairs[:: 1 + len(pairs) // 50000]:
                assert got.comp[0][0][key] == want.comp[0][0][key]
        got = check_forgetful_equivalence(sample).to_payload()
        assert got == reference_forgetful_report(sample).to_payload()
        # the two sides share each hom-set's list, as the reference's cache did
        for (i, k), homs in left_homs.items():
            assert homs is right_homs[(fun.map0[i], fun.map0[k])]
        # each side's lookup against a dict over its hom-sets, present keys and absent
        left = [c.hom for c in sample]
        for monoids, homs in ((left, left_homs), (right, right_homs)):
            _, one_cell = monoid_category("monoid", monoids, homs)
            absent = [(0, 0, ()), (0, 0, (monoids[0].size,) * monoids[0].size), (len(monoids), 0, (0,))]
            assert assert_lookup_matches(one_cell, homs, tuple, absent) > len(absent)


class TestMonoidCategory:
    def test_composite_matches_the_composition_formula(self):
        # every composable pair over the monoids of size <= 3, sizes 1 included
        ms = [m for n in (1, 2, 3) for m in enumerate_monoids(n)]
        homs = {(a, b): hom_maps(ms[a], ms[b]) for a in range(len(ms)) for b in range(len(ms))}
        cat, one_cell = monoid_category("m", ms, homs)
        assert_lookup_matches(one_cell, homs, tuple)
        index = hom_index(homs, tuple)
        arrows = [h for hs in homs.values() for h in hs]
        assert cat.zero_cells[:3] == ("m#0(n=1)", "m#1(n=2)", "m#2(n=2)")
        assert cat.identity[0] == tuple(index[(a, a, tuple(range(m.size)))] for a, m in enumerate(ms))
        pairs = sizes = 0
        ends = cat.cells[0]
        for (gi, fi), c in cat.comp[0][0].items():
            f, g = arrows[fi], arrows[gi]
            assert arrows[c] == tuple(g[f[x]] for x in range(len(f)))
            assert ends[c] == (ends[fi][0], ends[gi][1])
            pairs += 1
            sizes |= 1 << len(f)
        assert sizes == 0b1110 and pairs > 1000
