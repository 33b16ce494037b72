"""The hom-set walks of `check_external_equivalence` and
`check_two_equivalence` against the pairwise references in `walks.py`:
the same findings and witnesses on passing universes, on functors
redirected to fail, on hand-built categories whose hom-sets interleave,
and on copies made by `dataclasses.replace`."""

import random
from dataclasses import replace

import pytest

from deglab import doubly, equivalence
from deglab.degenerate import degenerate_sample, forgetful_universe
from deglab.doubly import _first_miscounted_pair, check_two_equivalence, two_truncation_universe
from deglab.equivalence import (
    FiniteJCategory,
    JFunctor,
    check_external_equivalence,
    hom_indexed_category,
)
from deglab.examples import stock_monoidal_universe
from deglab.monoidal import shift_universe
from walks import first_miscounted_pair, first_missed, parallel_homs, walk_differences


@pytest.fixture(scope="module")
def universes():
    return {
        "forgetful<=3": forgetful_universe(degenerate_sample(3))[3],
        "forgetful<=4": forgetful_universe(degenerate_sample(4))[3],
        "shift-4": shift_universe(stock_monoidal_universe(4))[1],
        "two-truncation-3": two_truncation_universe(3)[3],
    }


def _with_entry(t, i, v):
    return t[:i] + (v,) + t[i + 1 :]


def _first_middle_last(items):
    return [items[0], items[len(items) // 2], items[-1]]


def _redirected(fun, dim):
    """(name, functor) pairs, each with one map1 (dim 1) or map2 (dim 2)
    entry redirected: in the first, a middle and the last hom-set of two or
    more cells, the last cell with another image takes the first cell's
    image (a clash), or the first cell takes the image of a cell outside
    the hom-set (a miss).  Thin hom-sets of 2-cells have one cell, so there
    the cell takes the image of another 2-cell."""
    name = "map1" if dim == 1 else "map2"
    cell_map = getattr(fun, name)
    homs = [list(cells) for _, _, cells in parallel_homs(fun, dim) if cells]
    crowded = [cells for cells in homs if len(cells) > 1]
    out = []
    for k, cells in zip("fml", _first_middle_last(crowded or homs)):
        others = [a for a in cells if cell_map[a] != cell_map[cells[0]]]
        if others:
            clash = _with_entry(cell_map, others[-1], cell_map[cells[0]])
            out.append((f"{name}-clash-{k}", replace(fun, **{name: clash})))
        other = next(a for a in range(len(cell_map)) if cell_map[a] != cell_map[cells[0]])
        miss = _with_entry(cell_map, cells[0], cell_map[other])
        out.append((f"{name}-miss-{k}", replace(fun, **{name: miss})))
    return out


class TestReferenceWalks:
    @pytest.mark.parametrize(
        "case", ["forgetful<=3", "forgetful<=4", "shift-4", "two-truncation-3"]
    )
    def test_passing_universes(self, universes, case):
        fun = universes[case]
        assert walk_differences(fun) == []
        assert check_external_equivalence(fun).ok

    @pytest.mark.parametrize(
        "case, dim",
        [("forgetful<=3", 1), ("shift-4", 1), ("two-truncation-3", 1), ("two-truncation-3", 2)],
    )
    def test_redirected_functors(self, universes, case, dim):
        mutants = _redirected(universes[case], dim)
        assert len(mutants) >= 3
        for name, fun in mutants:
            assert walk_differences(fun) == [], name
            assert not check_external_equivalence(fun).ok, name

    def test_random_redirects(self, universes):
        rng = random.Random(21)
        for case in ("forgetful<=3", "two-truncation-3"):
            fun = universes[case]
            for _ in range(20):
                name = rng.choice(["map1", "map2"] if fun.source.j == 2 else ["map1"])
                cells = getattr(fun, name)
                a, b = rng.randrange(len(cells)), rng.randrange(len(cells))
                mutant = replace(fun, **{name: _with_entry(cells, a, cells[b])})
                assert walk_differences(mutant) == [], (case, name, a, b)


def _relabel(cat, perm):
    """A hand-built copy of a 1-category with 1-cell a renumbered perm[a]."""
    one_cells = [None] * len(perm)
    for a, ends in enumerate(cat.cells[0]):
        one_cells[perm[a]] = ends
    return FiniteJCategory(
        cat.zero_cells,
        (tuple(one_cells),),
        (tuple(perm[i] for i in cat.identity[0]),),
        (({(perm[g], perm[f]): perm[c] for (g, f), c in cat.comp[0][0].items()},),),
    )


def _z2_by_z3():
    """One 0-cell, 1-cells Z/2, and on each 1-cell the 2-cells Z/3, composed
    by addition both ways; the 2-cells are numbered by Z/3 element first,
    so the two hom-sets of 2-cells interleave: 0, 2, 4 and 1, 3, 5."""
    cells = [(f, k) for k in range(3) for f in range(2)]
    pos = {c: a for a, c in enumerate(cells)}
    vcomp = {
        (pos[(f, k2)], pos[(f, k1)]): pos[(f, (k1 + k2) % 3)]
        for f in range(2)
        for k1 in range(3)
        for k2 in range(3)
    }
    hcomp = {
        (pos[(f2, k2)], pos[(f1, k1)]): pos[((f1 + f2) % 2, (k1 + k2) % 3)]
        for f1, k1 in cells
        for f2, k2 in cells
    }
    return FiniteJCategory(
        ("*",),
        (((0, 0), (0, 0)), tuple((f, f) for f, _ in cells)),
        ((0,), (pos[(0, 0)], pos[(1, 0)])),
        (({(g, f): (f + g) % 2 for f in range(2) for g in range(2)},), (hcomp, vcomp)),
    )


class TestHandBuiltCategories:
    def test_interleaved_one_cells(self, universes):
        fun = universes["forgetful<=3"]
        rng = random.Random(3)
        ps = list(range(len(fun.source.cells[0])))
        pt = list(range(len(fun.target.cells[0])))
        rng.shuffle(ps)
        rng.shuffle(pt)
        x, y = _relabel(fun.source, ps), _relabel(fun.target, pt)
        # the hom-sets now interleave
        assert any(list(h) != list(range(h[0], h[0] + len(h))) for h in x.hom_index[0].values())
        map1 = [None] * len(ps)
        for a, b in enumerate(fun.map1):
            map1[ps[a]] = pt[b]
        relabeled = JFunctor(x, y, fun.map0, map1)
        assert walk_differences(relabeled) == [] and check_external_equivalence(relabeled).ok
        mutants = _redirected(relabeled, 1)
        for name, mutant in mutants:
            assert walk_differences(mutant) == [], name
            assert not check_external_equivalence(mutant).ok, name

    def test_interleaved_crowded_two_cells(self):
        x = _z2_by_z3()
        assert equivalence.check_jcategory(x).ok
        assert x.hom(2, 0, 0) == [0, 2, 4] and x.hom(2, 1, 1) == [1, 3, 5]
        identity = JFunctor(x, x, (0,), (0, 1), range(6))
        assert walk_differences(identity) == [] and check_external_equivalence(identity).ok
        # Z/3 onto its trivial quotient: each hom-set of 2-cells clashes, first at 0 and 2
        collapse = JFunctor(x, x, (0,), (0, 1), (0, 1, 0, 1, 0, 1))
        assert walk_differences(collapse) == []
        finding = check_external_equivalence(collapse).findings[-1]
        assert finding.witness == {"identified-2-cells": [0, 2]}
        rng = random.Random(6)
        for _ in range(300):
            m1 = tuple(rng.randrange(2) for _ in range(2))
            m2 = tuple(rng.randrange(6) for _ in range(6))
            fun = JFunctor(x, x, (0,), m1, m2)
            assert walk_differences(fun) == [], (m1, m2)

    def test_codiscrete_target(self):
        # every pair of 1-cells bounds one target 2-cell, so the pairs of each
        # source 1-cell come from several image classes and must be merged
        def codiscrete(n):
            return hom_indexed_category(
                ("*",), {(0, 0): range(n)}, key=lambda a: a % n, compose=lambda g, f: g + f,
                identity=lambda i: 0,
                two_cell=lambda f, g: True,
            )[0]

        x, y = _z2_by_z3(), codiscrete(3)
        rng = random.Random(9)
        for _ in range(300):
            m1 = tuple(rng.randrange(3) for _ in range(2))
            m2 = tuple(rng.randrange(9) for _ in range(6))
            assert walk_differences(JFunctor(x, y, (0,), m1, m2)) == [], (m1, m2)
        x = codiscrete(4)
        for _ in range(300):
            m1 = tuple(rng.randrange(3) for _ in range(4))
            m2 = tuple(rng.randrange(9) for _ in range(16))
            assert walk_differences(JFunctor(x, y, (0,), m1, m2)) == [], (m1, m2)

    def test_malformed_cells_are_walked_as_the_pairwise_search_walks_them(self):
        # 1-cell 1 has no identity 2-cell, so below the top dimension it is
        # not equivalent even to itself, and is not hit
        z2 = {(g, f): (f + g) % 2 for f in range(2) for g in range(2)}
        ids = {(0, 0): 0, (1, 1): 1}
        one = ((0, 0), (0, 0))
        x = FiniteJCategory(("*",), (one, ((0, 0), (1, 1))), ((0,), (0, 1)), ((z2,), ({}, ids)))
        y = FiniteJCategory(
            ("*",), (one, ((0, 0),)), ((0,), (0, 0)), ((z2,), ({}, {(0, 0): 0}))
        )
        fun = JFunctor(x, y, (0,), (0, 1), (0, 0))
        assert walk_differences(fun) == []
        finding = check_external_equivalence(fun).findings[1]
        assert finding.witness == {"between": ["*", "*"], "target-1-cell": 1}
        # two 2-cells between the non-parallel identities of two 0-cells are
        # no hom-set, so sharing an image is no clash
        x = FiniteJCategory(
            ("a", "b"),
            (((0, 0), (1, 1)), ((0, 0), (1, 1), (0, 1), (0, 1))),
            ((0, 1), (0, 1)),
            (({(0, 0): 0, (1, 1): 1},), ({}, ids)),
        )
        fun = JFunctor(x, x, (0, 1), (0, 1), (0, 1, 2, 2))
        assert walk_differences(fun) == []
        assert check_external_equivalence(fun).findings[-1].passed

    def test_clash_witness_is_the_first_cell_with_a_later_twin(self):
        # one 0-cell and the 1-cells of Z/4: images A, B, B, A clash first at
        # (1, 2) in a single pass, but the pairwise search meets (0, 3) first
        add = {(g, f): (f + g) % 4 for f in range(4) for g in range(4)}
        z4 = FiniteJCategory(("*",), (((0, 0),) * 4,), ((0,),), ((add,),))
        cases = (((0, 1, 1, 0), [0, 3]), ((0, 1, 2, 1), [1, 3]), ((2, 2, 2, 2), [0, 1]))
        for map1, witness in cases:
            fun = JFunctor(z4, z4, (0,), map1)
            assert walk_differences(fun) == []
            assert check_external_equivalence(fun).findings[-1].witness == {
                "identified-1-cells": witness
            }


class TestCopiesRebuildTheirIndex:
    def test_replace_drops_the_handed_index(self):
        _, _, _, fun = two_truncation_universe(2)
        x = fun.source
        # the hom-sets numbered by `hom_indexed_category`, handed over
        assert isinstance(x._hom_index[0][(0, 0)], range)
        f, g = x.cells[1][-1]
        assert x.hom(2, f, g) == (len(x.cells[1]) - 1,)
        copy = replace(x, cells=(x.cells[0], x.cells[1][:-1]))
        assert "_hom_index" not in vars(copy)
        assert len(copy.hom(2, f, g)) == 0 and list(copy.hom(1, 0, 0)) == list(x.hom(1, 0, 0))
        dropped = JFunctor(copy, fun.target, fun.map0, fun.map1, fun.map2[:-1])
        assert walk_differences(dropped) == []
        assert not check_external_equivalence(dropped).ok

    def test_moved_one_cell_is_found_in_its_new_hom_set(self):
        fun = forgetful_universe(degenerate_sample(2))[3]
        x = fun.source
        assert isinstance(x._hom_index[0][(0, 1)], range)
        a = x.hom(1, 0, 1)[0]
        copy = replace(x, cells=(_with_entry(x.cells[0], a, (1, 0)),))
        assert a not in copy.hom(1, 0, 1) and a in copy.hom(1, 1, 0)
        assert a in x.hom(1, 0, 1)
        assert walk_differences(JFunctor(copy, fun.target, fun.map0, fun.map1)) == []


def _corrupted_identity(y, y0):
    """A hand-built copy of y in which id . id on y0 is another 1-cell."""
    i = y.identity[0][y0]
    other = next(f for f in y.hom(1, y0, y0) if f != i)
    return replace(y, comp=(({**dict(y.comp[0][0]), (i, i): other},),))


def _has_other_automorphism(y, y0):
    i, comp = y.identity[0][y0], y.comp[0][0]
    return any(
        f != i and comp[(g, f)] == i and comp[(f, g)] == i
        for f in y.hom(1, y0, y0)
        for g in y.hom(1, y0, y0)
    )


class TestCorruptedIdentityComposite:
    @pytest.fixture(scope="class")
    def fun(self):
        return forgetful_universe(degenerate_sample(3))[3]

    def _count_searches(self, monkeypatch):
        calls = []
        original = equivalence.internally_equivalent

        def counted(x, x1, x2):
            calls.append((x1, x2))
            return original(x, x1, x2)

        monkeypatch.setattr(equivalence, "internally_equivalent", counted)
        return calls

    def test_identity_pairs_settle_every_hit(self, fun, monkeypatch):
        calls = self._count_searches(monkeypatch)
        assert check_external_equivalence(fun).findings[0].passed
        assert calls == []

    @pytest.mark.parametrize("automorphism", [True, False])
    def test_full_search_gives_the_reference_verdict(self, fun, monkeypatch, automorphism):
        y = fun.target
        y0 = next(
            k
            for k in range(len(y.zero_cells))
            if len(y.hom(1, k, k)) > 1 and _has_other_automorphism(y, k) == automorphism
        )
        bad = replace(fun, target=_corrupted_identity(y, y0))
        calls = self._count_searches(monkeypatch)
        finding = check_external_equivalence(bad).findings[0]
        assert (y0, y0) in calls
        # with another automorphism, another pair still shows y0 equivalent to itself
        missed = first_missed(bad)
        assert missed == (None if automorphism else y0)
        assert finding.passed == automorphism
        assert finding.witness == (None if automorphism else {"target-0-cell": y.zero_cells[y0]})
        monkeypatch.undo()
        assert walk_differences(bad) == []


class TestTwoCellCounts:
    @pytest.fixture(scope="class")
    def universe(self):
        _, one_cells, _, fun = two_truncation_universe(3)
        return one_cells, fun

    def _mutants(self, one_cells, fun):
        """(name, source, map2) with one 2-cell dropped, duplicated or added
        between maps that differ, in the first, a middle and the last place."""
        x = fun.source
        two = x.cells[1]
        n = len(two)
        out = []
        for k in _first_middle_last(range(n)):
            drop = two[:k] + two[k + 1 :], fun.map2[:k] + fun.map2[k + 1 :]
            out.append((f"drop-{k}", *drop))
            out.append((f"twin-{k}", two + (two[k],), fun.map2 + (fun.map2[k],)))
        unequal = [
            (fi, gi)
            for fi, (s, t, key) in enumerate(one_cells)
            for gi in x.hom(1, s, t)
            if key[0] != one_cells[gi][2][0]
        ]
        for fi, gi in _first_middle_last(unequal):
            out.append((f"extra-{fi}-{gi}", two + ((fi, gi),), fun.map2 + (fun.map2[0],)))
        # an extra pair early and a dropped cell late, and the other way round
        fi, gi = unequal[-1]
        out.append(("extra-late-drop-early", two[1:] + ((fi, gi),), fun.map2))
        fi, gi = unequal[0]
        out.append(("extra-early-drop-late", two[:-1] + ((fi, gi),), fun.map2))
        return [(name, replace(x, cells=(x.cells[0], cells)), map2) for name, cells, map2 in out]

    def test_valid_universe_counts_every_pair(self, universe):
        one_cells, fun = universe
        assert _first_miscounted_pair(one_cells, fun.source) is None
        assert first_miscounted_pair(one_cells, fun.source) is None

    def test_mutants_fail_with_the_reference_witness(self, universe):
        one_cells, fun = universe
        for name, x, _ in self._mutants(one_cells, fun):
            bad = first_miscounted_pair(one_cells, x)
            assert bad is not None, name
            assert _first_miscounted_pair(one_cells, x) == bad, name

    def test_finding_reports_the_reference_witness(self, universe, monkeypatch):
        one_cells, fun = universe
        dies = two_truncation_universe(3)[0]
        for name, x, map2 in self._mutants(one_cells, fun):
            patched = (dies, one_cells, (), JFunctor(x, fun.target, fun.map0, fun.map1, map2))
            monkeypatch.setattr(doubly, "two_truncation_universe", lambda b, u=patched: u)
            by_name = {f.criterion: f for f in check_two_equivalence(3).findings}
            fi, gi, count, expected = first_miscounted_pair(one_cells, x)
            finding = by_name["locally-bijective-on-2-cells"]
            assert not finding.passed, name
            assert finding.witness == {"pair": (fi, gi), "count": count, "expected": expected}, name
