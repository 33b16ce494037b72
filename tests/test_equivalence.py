"""The generic engine, exercised on hand-built toy 1- and 2-categories."""

import gc
import hashlib
import json
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from deglab.degenerate import (
    check_forgetful_equivalence,
    degenerate_sample,
    forgetful_universe,
    monoid_category,
    monoid_to_cat,
)
from deglab.doubly import two_truncation_universe
from deglab.equivalence import (
    FiniteJCategory,
    JFunctor,
    check_external_equivalence,
    check_jcategory,
    check_jfunctor,
    hom_indexed_category,
    internally_equivalent,
)
from deglab.monoids import FiniteMonoid, hom_maps
from deglab.report import InvalidStructureError, StructuralError
from universes import assert_lookup_matches
from walks import keyed_one_cells


def walking_isomorphism():
    """Two objects, one iso in each direction."""
    return FiniteJCategory(
        zero_cells=("a", "b"),
        cells=(((0, 0), (1, 1), (0, 1), (1, 0)),),
        identity=((0, 1),),
        comp=(
            (
                {
                    (0, 0): 0,
                    (1, 1): 1,
                    (2, 0): 2,
                    (1, 2): 2,
                    (3, 1): 3,
                    (0, 3): 3,
                    (3, 2): 0,
                    (2, 3): 1,
                },
            ),
        ),
    )


def two_points():
    """Two objects, identities only."""
    return FiniteJCategory(
        zero_cells=("a", "b"),
        cells=(((0, 0), (1, 1)),),
        identity=((0, 1),),
        comp=(({(0, 0): 0, (1, 1): 1},),),
    )


def one_point():
    return FiniteJCategory(
        zero_cells=("a",), cells=(((0, 0),),), identity=((0,),), comp=(({(0, 0): 0},),)
    )


class TestJCategoryLaws:
    def test_walking_iso_valid(self):
        assert check_jcategory(walking_isomorphism()).ok

    def test_missing_composite_is_structural(self):
        bad = FiniteJCategory(
            zero_cells=("a",),
            cells=(((0, 0), (0, 0)),),
            identity=((0,),),
            comp=(({(0, 0): 0, (0, 1): 1, (1, 0): 1},),),
        )
        rep = check_jcategory(bad)
        assert not rep.well_formed

    def test_broken_identity_law(self):
        bad = FiniteJCategory(
            zero_cells=("a",),
            cells=(((0, 0), (0, 0)),),
            identity=((0,),),
            comp=(({(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},),),
        )
        rep = check_jcategory(bad)
        assert any(v.axiom.endswith("identity") for v in rep.violations)

    def test_laws_between_tables_name_their_findings(self):
        # one 1-cell and the 2-cells of Z/3, vertically added; horizontal max
        # is unital and associative too, so only interchange fails
        assert check_jcategory(_z3_on_a_point(lambda a, b: (a + b) % 3)).ok
        rep = check_jcategory(_z3_on_a_point(max))
        assert rep.structural == [] and {v.axiom for v in rep.violations} == {"interchange"}
        assert (len(rep.violations), rep.violations[0].where) == (40, (1, 0, 0, 1))
        # the horizontal square of the identity 2-cell is not the identity
        rep = check_jcategory(_z3_on_a_point(lambda a, b: 1 if a == b == 0 else (a + b) % 3))
        assert ("two-hcomp-identity", (0, 0)) in [(v.axiom, v.where) for v in rep.violations]


def _z3_on_a_point(hcomp):
    """One 0-cell, one 1-cell, and the 2-cells of Z/3: b.a is a + b
    vertically and hcomp(a, b) horizontally."""
    add = {(b, a): (a + b) % 3 for a in range(3) for b in range(3)}
    table = {(b, a): hcomp(a, b) for a in range(3) for b in range(3)}
    one = {(0, 0): 0}
    return FiniteJCategory(("*",), (((0, 0),), ((0, 0),) * 3), ((0,), (0,)), ((one,), (table, add)))


def arrow():
    """Two objects and one arrow between them."""
    return FiniteJCategory(
        zero_cells=("a", "b"),
        cells=(((0, 0), (1, 1), (0, 1)),),
        identity=((0, 1),),
        comp=(({(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2},),),
    )


def z2_one_cells():
    """One 0-cell, the 1-cells of Z/2, and an identity 2-cell on each."""
    add = {(b, a): (a + b) % 2 for a in range(2) for b in range(2)}
    two_cells, ids = ((0, 0), (1, 1)), {(0, 0): 0, (1, 1): 1}
    return FiniteJCategory(
        ("*",), (((0, 0), (0, 0)), two_cells), ((0,), (0, 1)), ((add,), (add, ids))
    )


# where each table named by its cells' dimension sits in the per-dimension tuples
_TABLES = {
    "one_cells": ("cells", 0),
    "one_identity": ("identity", 0),
    "one_comp": ("comp", 0, 0),
    "two_identity": ("identity", 1),
    "two_hcomp": ("comp", 1, 0),
    "two_vcomp": ("comp", 1, 1),
}


def _with_table(x, name, value):
    """A copy of x with the table `name` (a key of `_TABLES`) set to value."""
    field, d, *k = _TABLES[name]
    tables = list(getattr(x, field))
    if k:
        value = _with_entry(tables[d], k[0], value)
    tables[d] = value
    return replace(x, **{field: tuple(tables)})


class TestLawCheckersNeverRaise:
    """Bad indices and broken images are structural findings, not exceptions."""

    def test_broken_image_endpoints_skip_the_composition_equations(self):
        # the arrow a -> b goes to the identity on a; its composites have no image
        rep = check_jfunctor(JFunctor(arrow(), two_points(), (0, 1), (0, 1, 0)))
        assert [(v.axiom, v.where) for v in rep.structural] == [("one-cell-endpoints", (2,))]
        assert rep.violations == []

    def test_out_of_range_image_is_refused_by_the_constructor(self):
        with pytest.raises(StructuralError, match=r"^map1/2: index 7 out of range\(2\)"):
            JFunctor(arrow(), two_points(), (0, 1), (0, 1, 7))
        with pytest.raises(StructuralError, match=r"^map0: expected 2 entries, got 1"):
            JFunctor(arrow(), two_points(), (0,), (0, 1, 0))
        with pytest.raises(StructuralError, match=r"^map2: expected 2 entries, got 0"):
            JFunctor(z2_one_cells(), z2_one_cells(), (0,), (0, 1))
        assert JFunctor(arrow(), arrow(), [0, 1], range(3)).map1 == (0, 1, 2)

    @pytest.mark.parametrize(
        "field, value, axiom",
        [
            ("one_identity", (5,), "one-identity-endpoints"),
            ("one_identity", (-1,), "one-identity-endpoints"),
            ("one_comp", {(0, 0): 0, (0, 7): 0}, "one-comp-domain"),
            ("one_comp", {(0, 0): 0, (-1, 0): 0}, "one-comp-domain"),
            ("one_comp", {(0, 0): 0, 5: 0}, "one-comp-domain"),
            ("one_comp", {(0, 0): 0, (0, 0, 0): 0}, "one-comp-domain"),
            ("one_cells", ((0, 0, 0),), "one-cell-endpoints"),
            ("one_cells", (5,), "one-cell-endpoints"),
            ("one_comp", {(0, 0): 7}, "one-comp-endpoints"),
            ("one_comp", {(0, 0): -1}, "one-comp-endpoints"),
        ],
    )
    def test_bad_one_cell_indices(self, field, value, axiom):
        rep = check_jcategory(_with_table(one_point(), field, value))
        assert axiom in {v.axiom for v in rep.structural} and rep.violations == []

    @pytest.mark.parametrize(
        "field, value, axiom",
        [
            ("two_identity", (0, 5), "two-identity-endpoints"),
            ("two_vcomp", {(0, 0): 0, (1, 1): 1, (7, 0): 0}, "two-vcomp-domain"),
            ("two_vcomp", {(0, 0): 0, (1, 1): 7}, "two-vcomp-endpoints"),
            ("two_hcomp", {**z2_one_cells().comp[1][0], (1, 7): 0}, "two-hcomp-domain"),
            ("two_hcomp", {**z2_one_cells().comp[1][0], (1, 1): 7}, "two-hcomp-endpoints"),
        ],
    )
    def test_bad_two_cell_indices(self, field, value, axiom):
        assert check_jcategory(z2_one_cells()).ok
        rep = check_jcategory(_with_table(z2_one_cells(), field, value))
        assert axiom in {v.axiom for v in rep.structural} and rep.violations == []

    def test_composites_with_wrong_ends_are_structural(self):
        # 1 . 1 in the vertical table lands on the identity 2-cell of the wrong 1-cell
        rep = check_jcategory(_with_table(z2_one_cells(), "two_vcomp", {(0, 0): 0, (1, 1): 0}))
        assert [(v.axiom, v.where) for v in rep.structural] == [("two-vcomp-endpoints", (1, 1))]
        # 1 * 1 must run between 1-cells 1 + 1 = 0, not 1
        hcomp = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        rep = check_jcategory(_with_table(z2_one_cells(), "two_hcomp", hcomp))
        assert [(v.axiom, v.where) for v in rep.structural] == [("two-hcomp-endpoints", (1, 1))]

    def test_each_table_names_its_laws(self):
        z2 = FiniteJCategory(("*",), (((0, 0), (0, 0)),), ((0,),), z2_one_cells().comp[:1])
        assert check_jcategory(z2).ok
        flat = {key: 0 for key in z2.comp[0][0]}
        rep = check_jcategory(_with_table(z2, "one_comp", flat))
        laws = {v.axiom for v in rep.violations}
        assert laws == {"one-comp-left-identity", "one-comp-right-identity"}
        x = _z2_on_a_point()
        assert check_jcategory(x).ok
        flat = {key: 0 for key in x.comp[1][1]}
        for table in ("two-vcomp", "two-hcomp"):
            rep = check_jcategory(_with_table(x, table.replace("-", "_"), flat))
            assert not rep.structural
            laws = {v.axiom for v in rep.violations}
            assert {f"{table}-left-identity", f"{table}-right-identity"} <= laws


def retract(two_cells):
    """Objects a, b and 1-cells f: a -> b, g: b -> a with f.g = id_b and
    g.f = e, an idempotent other than id_a; locally thin, with a 2-cell
    p => q for each pair in two_cells and an identity on each 1-cell."""
    table = {("e", "e"): "e", ("f", "e"): "f", ("e", "g"): "g", ("g", "f"): "e", ("f", "g"): "id_b"}
    return hom_indexed_category(
        ("a", "b"),
        {(0, 0): ["e", "id_a"], (0, 1): ["f"], (1, 0): ["g"], (1, 1): ["id_b"]},
        key=str,
        compose=lambda g, f: f if g[:3] == "id_" else g if f[:3] == "id_" else table[(g, f)],
        identity=lambda i: ("id_a", "id_b")[i],
        two_cell=lambda p, q: p == q or (p, q) in two_cells,
    )[0]


class TestInternalEquivalence:
    def test_equivalence_through_a_non_identity_composite(self):
        # g.f = e is no identity, but 2-cells e => id_a => e make it equivalent to one
        x = retract({("e", "id_a"), ("id_a", "e")})
        assert check_jcategory(x).ok
        assert internally_equivalent(x, 0, 1) == (True, (2, 3))
        # with e => id_a alone, no 2-cell inverts it
        x = retract({("e", "id_a")})
        assert check_jcategory(x).ok
        assert internally_equivalent(x, 0, 1) == (False, None)

    def test_equal_objects(self):
        x = one_point()
        ok, witness = internally_equivalent(x, 0, 0)
        assert ok and witness == (0, 0)

    def test_isomorphic_objects(self):
        ok, witness = internally_equivalent(walking_isomorphism(), 0, 1)
        assert ok and witness == (2, 3)

    def test_disconnected_objects(self):
        ok, witness = internally_equivalent(two_points(), 0, 1)
        assert not ok and witness is None

    def test_symmetry_and_transitivity_on_walking_iso(self):
        x = walking_isomorphism()
        assert internally_equivalent(x, 1, 0)[0]
        assert internally_equivalent(x, 0, 0)[0]


def zero_category(*labels):
    """A 0-category: its 0-cells and nothing above them."""
    return FiniteJCategory(labels, (), (), ())


class TestExternalEquivalence:
    def test_zero_functor_bijection_passes(self):
        fun = JFunctor(zero_category("a", "b"), zero_category("c", "d"), (1, 0), ())
        assert check_jcategory(fun.source).ok and check_jfunctor(fun).ok
        rep = check_external_equivalence(fun)
        assert rep.ok
        assert [(f.criterion, f.dimension) for f in rep.findings] == [
            ("essentially-surjective-on-0-cells", 0),
            ("locally-faithful-at-top-dimension", 0),
        ]

    def test_zero_functor_two_to_one_fails_faithfulness(self):
        # at j = 0 internal equivalence is equality: faithfulness is injectivity
        fun = JFunctor(zero_category("a", "b", "c"), zero_category("x", "y"), (1, 0, 0), ())
        rep = check_external_equivalence(fun)
        by_name = {f.criterion: f for f in rep.findings}
        assert by_name["essentially-surjective-on-0-cells"].passed
        faithful = by_name["locally-faithful-at-top-dimension"]
        assert not faithful.passed
        assert faithful.witness == {"identified-0-cells": [1, 2]}

    def test_zero_functor_missing_a_zero_cell_fails_surjectivity(self):
        fun = JFunctor(zero_category("a", "b"), zero_category("c", "d", "e"), (0, 2), ())
        rep = check_external_equivalence(fun)
        by_name = {f.criterion: f for f in rep.findings}
        assert by_name["locally-faithful-at-top-dimension"].passed
        surjective = by_name["essentially-surjective-on-0-cells"]
        assert not surjective.passed and surjective.witness == {"target-0-cell": "d"}

    def test_identity_functor_passes(self):
        x = walking_isomorphism()
        fun = JFunctor(x, x, (0, 1), (0, 1, 2, 3))
        assert check_jfunctor(fun).ok
        assert check_external_equivalence(fun).ok

    def test_collapse_onto_skeleton_passes(self):
        # walking iso -> one point: every hom-set is a singleton, so this is
        # an equivalence even though it is far from an isomorphism
        x, y = walking_isomorphism(), one_point()
        fun = JFunctor(x, y, (0, 0), (0, 0, 0, 0))
        rep = check_external_equivalence(fun)
        assert rep.ok

    def test_parallel_collapse_fails_faithfulness(self):
        # two parallel arrows mapping to one
        x = FiniteJCategory(
            zero_cells=("a",),
            cells=(((0, 0), (0, 0), (0, 0)),),
            identity=((0,),),
            comp=(
                (
                    {
                        (0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
                        (1, 1): 0, (1, 2): 2, (2, 1): 2, (2, 2): 0,
                    },
                ),
            ),
        )
        y = one_point()
        fun = JFunctor(x, y, (0,), (0, 0, 0))
        rep = check_external_equivalence(fun)
        by_name = {f.criterion: f for f in rep.findings}
        assert not by_name["locally-faithful-at-top-dimension"].passed
        assert by_name["locally-faithful-at-top-dimension"].witness

    def test_inclusion_into_walking_iso_is_equivalence(self):
        x, y = one_point(), walking_isomorphism()
        fun = JFunctor(x, y, (0,), (0,))
        rep = check_external_equivalence(fun)
        assert rep.ok  # essentially surjective thanks to the iso, fully faithful

    def test_non_surjective_inclusion_fails(self):
        x, y = one_point(), two_points()
        fun = JFunctor(x, y, (0,), (0,))
        rep = check_external_equivalence(fun)
        assert not rep.ok
        by_name = {f.criterion: f for f in rep.findings}
        assert not by_name["essentially-surjective-on-0-cells"].passed
        assert by_name["essentially-surjective-on-0-cells"].witness

    def test_classical_criteria_agreement_j1(self):
        # full + faithful + essentially surjective computed independently
        cases = [
            (one_point(), walking_isomorphism(), (0,), (0,)),
            (one_point(), two_points(), (0,), (0,)),
            (walking_isomorphism(), one_point(), (0, 0), (0, 0, 0, 0)),
        ]
        for x, y, m0, m1 in cases:
            fun = JFunctor(x, y, m0, m1)
            rep = check_external_equivalence(fun)
            full = all(
                {fun.map1[a] for a in x.hom(1, x1, x2)}
                >= set(y.hom(1, fun.map0[x1], fun.map0[x2]))
                for x1 in range(len(x.zero_cells))
                for x2 in range(len(x.zero_cells))
            )
            faithful = all(
                len({fun.map1[a] for a in x.hom(1, x1, x2)}) == len(x.hom(1, x1, x2))
                for x1 in range(len(x.zero_cells))
                for x2 in range(len(x.zero_cells))
            )
            ess = all(
                any(
                    internally_equivalent(y, fun.map0[x0], y0)[0]
                    for x0 in range(len(x.zero_cells))
                )
                for y0 in range(len(y.zero_cells))
            )
            assert rep.ok == (full and faithful and ess)

    def test_equivalent_non_image_passes_essential_surjectivity(self):
        # target 0-cell 1 is no image, only isomorphic to the image 0
        x, y = one_point(), walking_isomorphism()
        rep = check_external_equivalence(JFunctor(x, y, (0,), (0,)))
        assert rep.findings[0].criterion == "essentially-surjective-on-0-cells"
        assert rep.findings[0].passed and rep.findings[0].witness is None

    def test_missed_class_keeps_the_first_missed_witness(self):
        # sources 4 and 7 of the size <= 3 sample left out: their classes are missed
        sample = degenerate_sample(3)
        part = [c for i, c in enumerate(sample) if i not in (4, 7)]
        _, _, _, fun = forgetful_universe(part)
        x, y = fun.source, fun.target
        first_missed = next(
            y0
            for y0 in range(len(y.zero_cells))
            if not any(
                internally_equivalent(y, fun.map0[x0], y0)[0] for x0 in range(len(x.zero_cells))
            )
        )
        finding = check_external_equivalence(fun).findings[0]
        assert finding.criterion == "essentially-surjective-on-0-cells" and not finding.passed
        assert finding.witness == {"target-0-cell": y.zero_cells[first_missed]}
        assert finding.witness == {"target-0-cell": "monoid#4(n=3)"}
        # sending the last source onto the first also misses its class, which
        # comes later, so the first miss is unchanged
        doubled = JFunctor(x, y, fun.map0[:-1] + fun.map0[:1], fun.map1)
        assert check_external_equivalence(doubled).findings[0] == finding

    def test_permuting_source_zero_cells_keeps_the_payload(self):
        sample = degenerate_sample(3)
        part = [c for i, c in enumerate(sample) if i != 4]
        want = check_external_equivalence(forgetful_universe(sample)[3]).to_payload()
        want_part = check_external_equivalence(forgetful_universe(part)[3]).to_payload()
        want_forgetful = check_forgetful_equivalence(sample).to_payload()
        assert want["verdict"] == "pass" and want_part["verdict"] == "fail"
        for k in (1, 3, 7):
            perm = sample[k:] + sample[:k]
            perm.reverse()
            perm_part = [c for c in perm if c is not sample[4]]
            assert check_external_equivalence(forgetful_universe(perm)[3]).to_payload() == want
            assert check_external_equivalence(forgetful_universe(perm_part)[3]).to_payload() == want_part
            assert check_forgetful_equivalence(perm).to_payload() == want_forgetful

    def test_composition_of_passing_functors_passes(self):
        x, y = one_point(), walking_isomorphism()
        include = JFunctor(x, y, (0,), (0,))
        collapse = JFunctor(y, x, (0, 0), (0, 0, 0, 0))
        assert check_external_equivalence(include).ok
        assert check_external_equivalence(collapse).ok
        both = JFunctor(
            x,
            x,
            tuple(collapse.map0[v] for v in include.map0),
            tuple(collapse.map1[v] for v in include.map1),
        )
        assert check_jfunctor(both).ok
        assert check_external_equivalence(both).ok

    def test_internal_equivalence_is_an_equivalence_relation(self):
        # on the bounded universe of commutative monoids, where equivalence
        # is monoid isomorphism: reflexive, symmetric, transitive
        from deglab.doubly import two_truncation_universe

        _, _, _, fun = two_truncation_universe(2)
        y = fun.target
        n = len(y.zero_cells)
        rel = [[internally_equivalent(y, a, b)[0] for b in range(n)] for a in range(n)]
        for a in range(n):
            assert rel[a][a]
            for b in range(n):
                assert rel[a][b] == rel[b][a]
                for c in range(n):
                    if rel[a][b] and rel[b][c]:
                        assert rel[a][c]
        # distinct monoids in this universe are pairwise non-isomorphic
        assert all(not rel[a][b] for a in range(n) for b in range(n) if a != b)

    def test_dimension_mismatch_rejected(self):
        x = one_point()
        y = FiniteJCategory(
            zero_cells=("a",),
            cells=(((0, 0),), ((0, 0),)),
            identity=((0,), (0,)),
            comp=(({(0, 0): 0},), ({(0, 0): 0}, {(0, 0): 0})),
        )
        with pytest.raises(StructuralError):
            JFunctor(x, y, (0,), (0,))


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _with_entry(t, i, v):
    return t[:i] + (v,) + t[i + 1 :]


def _z2_on_a_point():
    """One 0-cell, one 1-cell, and the two 2-cells of Z/2 under both compositions."""
    add = {(b, a): (a + b) % 2 for a in range(2) for b in range(2)}
    one = {(0, 0): 0}
    return FiniteJCategory(("*",), (((0, 0),), ((0, 0), (0, 0))), ((0,), (0,)), ((one,), (add, add)))


def _point2():
    one = {(0, 0): 0}
    return FiniteJCategory(("*",), (((0, 0),), ((0, 0),)), ((0,), (0,)), ((one,), (one, one)))


def _failing_functors():
    """One j-functor per case, each failing at least one criterion."""
    from deglab.doubly import two_truncation_universe

    sample = degenerate_sample(3)
    full = forgetful_universe(sample)[3]
    x, y = full.source, full.target
    # the first hom-set with two 1-cells, and a 1-cell outside it
    a1, a2 = next(h for h in (x.hom(1, *e) for e in x.cells[0]) if len(h) >= 2)[:2]
    other = next(f for f, e in enumerate(x.cells[0]) if e != x.cells[0][a1])
    two = two_truncation_universe(2)[3]
    s = two.source
    # a 1-cell whose image no other 1-cell of its hom-set shares, and one that differs
    b1, b2 = next(
        (b, d)
        for h in (s.hom(1, *e) for e in s.cells[0])
        for b in h
        for d in h
        if [two.map1[c] for c in h].count(two.map1[b]) == 1 and two.map1[d] != two.map1[b]
    )
    c = next(a for a, (f, g) in enumerate(s.cells[1]) if f != g)
    return {
        "j1-partial-sample": forgetful_universe(
            [m for i, m in enumerate(sample) if i not in (4, 7)]
        )[3],
        "j1-dropped-1-cell": JFunctor(
            x, y, full.map0, _with_entry(full.map1, a1, full.map1[other])
        ),
        "j1-collapsed-1-cell": JFunctor(x, y, full.map0, _with_entry(full.map1, a1, full.map1[a2])),
        "j2-moved-0-cell": JFunctor(
            s, two.target, _with_entry(two.map0, 0, two.map0[-1]), two.map1, two.map2
        ),
        "j2-dropped-1-cell": JFunctor(
            s, two.target, two.map0, _with_entry(two.map1, b1, two.map1[b2]), two.map2
        ),
        "j2-changed-2-cell": JFunctor(
            s, two.target, two.map0, two.map1, _with_entry(two.map2, c, two.map2[0])
        ),
        "j2-collapsed-2-cells": JFunctor(_z2_on_a_point(), _point2(), (0,), (0,), (0, 0)),
    }


# SHA-256 of each failing report's payload, and the criteria it fails
_FAILING_PINS = {
    "j1-partial-sample": (
        "1f4fd9d093b7968fc9487ae1f0d3e03829af0bfe3110f685c480fe4917fe45c5",
        ["essentially-surjective-on-0-cells"],
    ),
    "j1-dropped-1-cell": (
        "40c24eca28bac2c10f0d38242d3ae2e626c82140494e71418879cddd9e8c08a2",
        ["locally-essentially-surjective-on-1-cells"],
    ),
    "j1-collapsed-1-cell": (
        "b62998685be8d17bb47b8695b482ac8f24f31167434fd223f7a2b2f367d1abb7",
        ["locally-essentially-surjective-on-1-cells", "locally-faithful-at-top-dimension"],
    ),
    "j2-moved-0-cell": (
        "7d4d37790e03f6f4de99b76d66e41aa6a968468c0996ac97453e2fda53caf965",
        ["essentially-surjective-on-0-cells", "locally-essentially-surjective-on-1-cells"],
    ),
    "j2-dropped-1-cell": (
        "0d99fe9cac7776ec613faf8d79ead40b5a7c766c31e003fe7576dd8398bdc5a5",
        ["locally-essentially-surjective-on-1-cells", "locally-essentially-surjective-on-2-cells"],
    ),
    "j2-changed-2-cell": (
        "7ff124677b72183c9d0286514c3e6b516cbd361887542e0d1e06039ec37bac9f",
        ["locally-essentially-surjective-on-2-cells"],
    ),
    "j2-collapsed-2-cells": (
        "0e3d0b17f9d2f4cda1a32298ed6500d240f5d2ab1bb86d99a455f0d4bfa4844b",
        ["locally-faithful-at-top-dimension"],
    ),
}


class TestFailingPayloadPins:
    """Failing reports keep their findings and witnesses byte for byte."""

    @pytest.fixture(scope="class")
    def functors(self):
        return _failing_functors()

    @pytest.mark.parametrize("case", sorted(_FAILING_PINS))
    def test_payload(self, functors, case):
        payload = check_external_equivalence(functors[case]).to_payload()
        digest, failing = _FAILING_PINS[case]
        assert [f["criterion"] for f in payload["findings"] if not f["passed"]] == failing
        assert all(f["witness"] for f in payload["findings"] if not f["passed"])
        assert _digest(payload) == digest


def cyclic(n, arrows, two_cell=None):
    """One 0-cell whose arrows are residues mod n, composed by addition."""
    return hom_indexed_category(
        ("*",),
        {(0, 0): list(arrows)},
        key=lambda a: a % n,
        compose=lambda g, f: g + f,
        identity=lambda i: 0,
        two_cell=two_cell,
    )


class TestHomIndexedCategory:
    def test_tables_match_all_pairs_reference(self):
        cat, one_cell = cyclic(3, range(3))
        assert check_jcategory(cat).ok and cat.j == 1 and len(cat.cells) == 1
        comp = cat.comp[0][0]
        assert dict(comp) == {(g, f): (g + f) % 3 for g in range(3) for f in range(3)}
        assert len(comp) == len(dict(comp)) == 9
        absent = [(0, 0, 3), (0, 0, -1), (0, 1, 0), (1, 0, 0)]
        assert_lookup_matches(one_cell, {(0, 0): range(3)}, lambda a: a % 3, absent)

    def test_thin_two_cells_match_all_pairs_reference(self):
        # one 2-cell between every parallel pair: each hom-category is codiscrete
        cat, _ = cyclic(3, range(3), two_cell=lambda f, g: True)
        assert check_jcategory(cat).ok
        cells = [(f, g) for f in range(3) for g in range(3)]
        pos = {cell: a for a, cell in enumerate(cells)}
        hcomp, vcomp = cat.comp[1]
        assert cat.cells[1] == tuple(cells)
        assert cat.identity[1] == tuple(pos[(f, f)] for f in range(3))
        assert dict(vcomp) == {
            (b, a): pos[(f1, g2)]
            for b, (f2, g2) in enumerate(cells)
            for a, (f1, g1) in enumerate(cells)
            if g1 == f2
        }
        assert dict(hcomp) == {
            (b, a): pos[((f2 + f1) % 3, (g2 + g1) % 3)]
            for b, (f2, g2) in enumerate(cells)
            for a, (f1, g1) in enumerate(cells)
        }
        assert len(vcomp) == 27 and len(hcomp) == 81

    def test_two_cell_is_a_test_and_nothing_it_returns_is_kept(self):
        class Answer:
            def __init__(self, holds):
                self.holds = holds

            def __bool__(self):
                return self.holds

        answers = []

        def two_cell(f, g):
            answers.append(Answer(f == g or (f, g) == (0, 1)))
            return answers[-1]

        cat, _ = cyclic(2, range(2), two_cell=two_cell)
        assert cat.cells[1] == ((0, 0), (0, 1), (1, 1))
        refs = [weakref.ref(a) for a in answers]
        del answers
        gc.collect()
        assert len(refs) == 4 and all(r() is None for r in refs)

    def test_membership_rejects_noncomposable_and_out_of_range(self):
        cat, _ = hom_indexed_category(
            ("a", "b"),
            {(0, 0): ["a"], (0, 1): ["ab"], (1, 1): ["b"]},
            key=str,
            compose=lambda g, f: g if f in ("a", "b") else f,
            identity=lambda i: "ab"[i],
        )
        table = cat.comp[0][0]
        assert list(table) == [(0, 0), (1, 0), (2, 1), (2, 2)]
        assert dict(table) == {(0, 0): 0, (1, 0): 1, (2, 1): 1, (2, 2): 2}
        assert len(table) == 4
        noncomposable = [(0, 1), (1, 1), (0, 2), (1, 2)]
        malformed = [(3, 0), (0, 3), (-1, 0), (0, -1), (1.0, 0), "ab", (0,), (0, 0, 0), None]
        for key in noncomposable + malformed:
            assert key not in table
        with pytest.raises(KeyError):
            table[(1, 1)]
        assert table.get((0, 3)) is None

    def test_missing_composite_raises_invalid_structure(self):
        cat, _ = cyclic(3, [0, 1])
        assert cat.comp[0][0][(1, 0)] == 1
        with pytest.raises(InvalidStructureError):
            cat.comp[0][0][(1, 1)]  # 1 + 1 = 2 is not in the hom-set
        with pytest.raises(InvalidStructureError):
            cyclic(3, [1, 2])  # no identity
        # the 2-cell 1 => 2 exists, but its horizontal square 2 => 4 = 1 does not
        some = {(0, 0), (1, 1), (2, 2), (1, 2)}
        thin, _ = cyclic(3, range(3), two_cell=lambda f, g: (f, g) in some)
        a = thin.cells[1].index((1, 2))
        with pytest.raises(InvalidStructureError):
            thin.comp[1][0][(a, a)]
        with pytest.raises(InvalidStructureError):  # identity 2-cells on 1 and 2 are missing
            cyclic(3, range(3), two_cell=lambda f, g: f == g == 0)

    def test_first_arrow_with_a_key_wins(self):
        cat, one_cell = cyclic(3, [0, 1, 4, 2])  # 4 and 1 share the key 1
        assert one_cell(0, 0, 1) == 1 and one_cell(0, 0, 2) == 3
        assert_lookup_matches(one_cell, {(0, 0): [0, 1, 4, 2]}, lambda a: a % 3, [(0, 0, 3)])
        assert cat.comp[0][0][(3, 3)] == 1  # 2 + 2 = 4, found as the first arrow keyed 1
        assert cat.comp[0][0][(2, 0)] == 1

    def test_first_arrow_wins_in_every_run_of_equal_keys(self):
        # keys 0, 0, 0, 1, 1, 2, 2: each key found at the start of its run
        arrows = [0, 3, 6, 1, 4, 2, 5]
        cat, one_cell = cyclic(3, arrows)
        assert [one_cell(0, 0, kv) for kv in range(3)] == [0, 3, 5]
        assert cat.identity[0] == (0,)
        assert cat.comp[0][0][(4, 4)] == 5  # 4 + 4 = 8, keyed 2
        assert cat.comp[0][0][(2, 1)] == 0  # 6 + 3 = 9, keyed 0
        homs = {(0, 0): arrows}
        assert assert_lookup_matches(one_cell, homs, lambda a: a % 3, [(0, 0, 3), (0, 0, -1)]) == 2

    def test_hom_set_is_numbered_as_given_and_found_by_key(self):
        # a descent in a hom-set's keys is no error: its 1-cells are numbered
        # in the order given, and each is found by its key
        cat, one_cell = cyclic(3, [0, 2, 1])
        assert check_jcategory(cat).ok
        assert [one_cell(0, 0, kv) for kv in range(3)] == [0, 2, 1]
        assert cat.comp[0][0][(1, 1)] == 2  # 2 + 2 = 4, keyed 1
        homs = {(0, 0): ["a"], (0, 1): ["b", "a"], (1, 1): ["b"]}
        _, one_cell = hom_indexed_category(
            ("x", "y"), homs, key=str, compose=lambda g, f: g, identity=lambda i: "ab"[i]
        )
        assert [one_cell(0, 1, kv) for kv in "ab"] == [2, 1]
        assert_lookup_matches(one_cell, homs, str, [(0, 1, "c"), (1, 0, "a")])

    def test_absent_keys_raise_invalid_structure(self):
        # below, between and above the keys of a hom-set, in a hom-set that
        # is not there, and of a type the keys do not compare with
        _, one_cell = cyclic(7, [0, 2, 5])
        for i, k, kv in [(0, 0, -1), (0, 0, 1), (0, 0, 3), (0, 0, 6), (0, 1, 0), (1, 0, 0), (0, 0, "2")]:
            with pytest.raises(InvalidStructureError, match="missing from its hom-set"):
                one_cell(i, k, kv)
        assert [one_cell(0, 0, kv) for kv in (0, 2, 5)] == [0, 1, 2]
        with pytest.raises(InvalidStructureError):  # 2 + 5 = 0 but 5 + 5 = 3 is absent
            cyclic(7, [0, 2, 5])[0].comp[0][0][(2, 2)]
        with pytest.raises(InvalidStructureError):  # the identity 0 is absent
            cyclic(7, [2, 5])

    def test_unhashable_keys_raise_invalid_structure(self):
        _, one_cell = cyclic(3, range(3))
        for kv in ([1], {1: 1}):
            with pytest.raises(InvalidStructureError, match="missing from its hom-set"):
                one_cell(0, 0, kv)
        assert one_cell(0, 0, 1) == 1
        # an unhashable arrow, its own key, is refused on the first lookup in its hom-set
        with pytest.raises(InvalidStructureError, match="missing from its hom-set"):
            hom_indexed_category(("*",), {(0, 0): [[0]]}, compose=lambda g, f: g, identity=lambda i: [0])

    def test_no_index_is_kept_per_one_cell(self):
        # the forgetful universe over sizes <= 4 holds about 95 B per 1-cell
        # (arrow, ends, map1 entry) on Python 3.11; a dict from (i, k, key)
        # to each 1-cell would add about 115 B more
        sample = degenerate_sample(4)
        forgetful_universe(sample)  # searches every hom-set once, for this process
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, _, _, fun = forgetful_universe(sample)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = len(fun.source.cells[0]) + len(fun.target.cells[0])
        assert cells == 15788
        assert held / cells < 150, held / cells

    def test_equality_never_builds_a_table_out(self):
        calls = []

        def compose(g, f):
            calls.append((g, f))
            return g + f

        def build():
            homs = {(0, 0): [0, 1]}
            return hom_indexed_category(
                ("*",), homs, key=lambda a: a % 2, compose=compose, identity=lambda i: 0
            )[0]

        x, y = build(), build()
        assert x.comp[0][0] == x.comp[0][0]
        assert x.comp[0][0] != y.comp[0][0]
        assert x.comp[0][0] != {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        assert x == x and x != y
        assert calls == []


def _one_cell_map1(one_cell, images):
    """map1 by the per-1-cell `one_cell` search: images yields (p, q, arrow)."""
    return tuple(one_cell(p, q, arrow) for p, q, arrow in images)


class TestHomSetCells:
    """map1 read off the 1-cells of each image hom-set, against the
    `one_cell` search of each 1-cell's image."""

    @pytest.mark.parametrize(
        "sample",
        [
            degenerate_sample(1),
            degenerate_sample(2),
            degenerate_sample(3),
            degenerate_sample(4),
            # a non-canonical table beside the canonical ones: a right
            # monoid of its own, beside an equal copy of a canonical table
            degenerate_sample(2)
            + [
                monoid_to_cat(FiniteMonoid(2, 1, ((1, 0), (0, 1)))),
                monoid_to_cat(FiniteMonoid(2, 0, ((0, 1), (1, 1)))),
            ],
        ],
        ids=["sizes<=1", "sizes<=2", "sizes<=3", "sizes<=4", "non-canonical"],
    )
    def test_forgetful_map1_is_the_one_cell_search(self, sample):
        right, left_homs, right_homs, fun = forgetful_universe(sample)
        _, one_cell = monoid_category("monoid", right, right_homs)
        map0 = fun.map0
        images = [(map0[i], map0[k], h) for (i, k), hs in left_homs.items() for h in hs]
        assert fun.map1 == _one_cell_map1(one_cell, images)

    def test_two_truncation_map1_is_the_one_cell_search(self):
        for bound, cells in ((3, 416), (4, 10027)):
            dies, homs, _, fun = two_truncation_universe(bound)
            monoids = list(dict.fromkeys(s.monoid for s in dies))
            right = {(i, k): hom_maps(m, m2) for i, m in enumerate(monoids) for k, m2 in enumerate(monoids)}
            _, one_cell = monoid_category("cmon", monoids, right, two_cell=lambda f, g: f is g)
            images = [(fun.map0[s], fun.map0[t], key[0]) for s, t, key in keyed_one_cells(homs)]
            assert len(images) == cells
            assert fun.map1 == _one_cell_map1(one_cell, images)

    def test_repeated_arrow_maps_to_its_first_copy(self):
        homs = {(0, 0): (0, 1, 1, 2)}
        _, one_cell = hom_indexed_category(
            ("*",), homs, compose=lambda g, f: (g + f) % 3, identity=lambda i: 0
        )
        assert [one_cell(0, 0, kv) for kv in range(3)] == [0, 1, 3]

    def test_neighbouring_image_fails_two_truncation_surjectivity(self):
        # each hom-set of the locally thin source holds at most one 2-cell,
        # so no map1 makes two of them clash and faithfulness at the top
        # dimension holds; the image left out fails local essential
        # surjectivity on 1-cells, and on the 2-cells over it
        _, _, _, fun = two_truncation_universe(3)
        ends, map1 = fun.source.cells[0], fun.map1
        a = next(a for a in range(len(ends) - 1) if ends[a] == ends[a + 1] and map1[a] != map1[a + 1])
        patched = list(map1)
        patched[a] = map1[a + 1]
        map2 = tuple(patched[f] for f, _ in fun.source.cells[1])
        report = check_external_equivalence(
            JFunctor(fun.source, fun.target, fun.map0, tuple(patched), map2)
        )
        failed = [f.criterion for f in report.findings if not f.passed]
        assert failed == ["locally-essentially-surjective-on-1-cells", "locally-essentially-surjective-on-2-cells"]

    def test_neighbouring_image_flips_local_faithfulness(self):
        _, _, _, fun = forgetful_universe(degenerate_sample(3))
        criterion = "locally-faithful-at-top-dimension"

        def faithful(map1):
            report = check_external_equivalence(JFunctor(fun.source, fun.target, fun.map0, map1))
            return {f.criterion: f.passed for f in report.findings}[criterion]

        assert faithful(fun.map1)
        # the first 1-cell of a hom-set of two or more, sent to its neighbour
        ends = fun.source.cells[0]
        a = next(a for a in range(len(ends) - 1) if ends[a] == ends[a + 1])
        patched = list(fun.map1)
        patched[a] += 1
        assert not faithful(tuple(patched))
