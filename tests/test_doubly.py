import copy
import dataclasses
import gc
import itertools
import pickle
import random
import re
import types
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from deglab import coherence, doubly, serialize
from deglab.degenerate import monoid_category
from deglab.doubly import (
    DDBicat,
    DDFunctor,
    DDModification,
    DDTransformation,
    analyze_weak_functor,
    build_ddbicat,
    check_dd_functor,
    check_dd_transformation,
    check_ddbicat,
    check_modification,
    check_two_equivalence,
    compose_dd_functors,
    dd_functors_between,
    eckmann_hilton_report,
    extract_cmon_die,
    forgetful_image,
    identity_dd_functor,
    make_dd_functor,
    promote_lax,
    random_tamper,
    restrict_identity_constraint,
    transformation_between,
    two_truncation_universe,
    unfaithfulness_witness,
)
from deglab.equivalence import JFunctor, check_external_equivalence, check_jcategory, check_jfunctor
from deglab.examples import bool_or_monoid, trivial_monoid, zmod
from deglab.monoids import (
    FiniteMonoid,
    MonoidHom,
    check_monoid,
    cmon_die_universe,
    enumerate_homs,
    hom_maps,
    identity_hom,
    invert,
    make_cmon_die,
    units,
)
from deglab.report import Finding, InvalidStructureError, StructuralError
from samples import compose_homs
from sweeps import raw_functors
from universes import (
    assert_lookup_matches,
    reference_two_equivalence_report,
    reference_two_truncation_right,
    reference_two_truncation_universe,
)
from walks import keyed_one_cells


def z2_die(d=1):
    return make_cmon_die(zmod(2), d)


class TestBuildAndCheck:
    def test_build_trivial(self):
        b = build_ddbicat(make_cmon_die(trivial_monoid(), 0))
        assert check_ddbicat(b).ok and b.cells == 1

    def test_build_z2_with_generator(self):
        b = build_ddbicat(z2_die())
        assert b.lunit == b.runit == 1 and b.assoc == 0
        assert check_ddbicat(b).ok

    def test_build_z6(self):
        b = build_ddbicat(make_cmon_die(zmod(6), 5))
        assert check_ddbicat(b).ok

    def test_invalid_input_rejected(self):
        from deglab.monoids import CMonDIE

        with pytest.raises(InvalidStructureError):
            build_ddbicat(CMonDIE(zmod(2), 1, 0))  # broken inverse witness

    def test_tampered_assoc_fails_pentagon(self):
        # in the two-element group the tampered associator g satisfies
        # g+g+g != g+g, so the pentagon must fire
        b = replace(build_ddbicat(z2_die(0)), assoc=1)
        rep = check_ddbicat(b)
        assert "pentagon" in rep.grouped()

    def test_round_trips(self):
        for s in cmon_die_universe(3):
            b = build_ddbicat(s)
            assert extract_cmon_die(b) is s
            assert build_ddbicat(extract_cmon_die(b)) == b

    def test_extract_requires_validity(self):
        b = replace(build_ddbicat(z2_die()), assoc=1)
        with pytest.raises(InvalidStructureError):
            extract_cmon_die(b)


class TestEckmannHilton:
    def test_z3_all_five_checks(self):
        rep = eckmann_hilton_report(build_ddbicat(make_cmon_die(zmod(3), 1)))
        assert rep.ok and len(rep.findings) == 5

    def test_trivial(self):
        assert eckmann_hilton_report(build_ddbicat(make_cmon_die(trivial_monoid(), 0))).ok

    def test_all_built_instances_collapse(self):
        for s in cmon_die_universe(4):
            b = build_ddbicat(s)
            assert check_ddbicat(b).ok
            assert eckmann_hilton_report(b).ok

    def test_detects_divergent_tables(self):
        b = build_ddbicat(z2_die(0))
        table = [list(r) for r in b.hcomp]
        table[1][1] ^= 1
        bad = replace(b, hcomp=tuple(tuple(r) for r in table))
        assert not eckmann_hilton_report(bad).ok

    def test_findings_are_findings(self):
        valid = eckmann_hilton_report(build_ddbicat(make_cmon_die(zmod(3), 1)))
        assert all(type(f) is Finding and f.passed and f.witness is None for f in valid.findings)

        b = build_ddbicat(z2_die(0))
        table = [list(r) for r in b.hcomp]
        table[1][1] ^= 1
        rep = eckmann_hilton_report(replace(b, hcomp=tuple(tuple(r) for r in table)))
        assert all(type(f) is Finding for f in rep.findings)
        assert [(f.criterion, f.witness) for f in rep.findings if not f.passed] == [
            ("hcomp-equals-vcomp", (1, 1)),
            ("derived-product-agrees", (1, 1)),
        ]
        assert rep.to_payload()["name"] == "eckmann-hilton"


class TestAxiomCompleteness:
    """Every structure passing the axiom checker is a built instance; the
    horizontal table is forced by naturality and interchange."""

    def test_raw_exhaustive_scan_n2(self):
        valid = []
        n = 2
        for vc in itertools.product(range(n), repeat=4):
            vt = (vc[0:2], vc[2:4])
            for id2 in range(n):
                if not check_monoid(vt, id2).ok:
                    continue
                m = FiniteMonoid(n, id2, vt)
                for hc in itertools.product(range(n), repeat=4):
                    ht = (hc[0:2], hc[2:4])
                    for a, l, r in itertools.product(range(n), repeat=3):
                        ai, li, ri = invert(m, a), invert(m, l), invert(m, r)
                        if None in (ai, li, ri):
                            continue
                        b = DDBicat(n, id2, vt, ht, a, ai, l, li, r, ri)
                        if check_ddbicat(b).ok:
                            valid.append(b)
                            assert ht == vt
                            assert eckmann_hilton_report(b).ok
                            assert b == build_ddbicat(extract_cmon_die(b))
        assert len(valid) == 6  # two labelings of the group, two dies each; OR once each


class TestCoherenceOracle:
    def test_agreement_on_valid_instances(self):
        for s in cmon_die_universe(4):
            b = build_ddbicat(s)
            assert coherence.pentagon_holds_by_terms(b)
            assert coherence.triangle_holds_by_terms(b)

    def test_agreement_on_tampered_instances(self):
        rng = random.Random(5)
        for _ in range(200):
            s = random.Random(rng.random()).choice(cmon_die_universe(3)[1:])
            b, _ = random_tamper(build_ddbicat(s), rng)
            rep = check_ddbicat(b)
            assert coherence.pentagon_holds_by_terms(b) == ("pentagon" not in rep.grouped())
            assert coherence.triangle_holds_by_terms(b) == ("triangle" not in rep.grouped())


class TestTampering:
    def test_single_value_tampers_always_caught(self):
        rng = random.Random(11)
        targets = [s for s in cmon_die_universe(4) if s.monoid.size >= 2]
        for _ in range(300):
            s = rng.choice(targets)
            b, desc = random_tamper(build_ddbicat(s), rng)
            caught = not check_ddbicat(b).ok or not eckmann_hilton_report(b).ok
            assert caught, desc

    def test_one_cell_instance_refused(self):
        with pytest.raises(StructuralError):
            random_tamper(build_ddbicat(make_cmon_die(trivial_monoid(), 0)), random.Random(0))


class TestWeakFunctors:
    def test_raw_data_sweep_catches_a_dropped_unit(self, monkeypatch):
        enumerated = doubly.dd_functors_between

        def dropping(s, t):
            last = units(t.monoid)[-1]
            return [f for f in enumerated(s, t) if f.m != last or last == t.monoid.unit]

        monkeypatch.setattr(doubly, "dd_functors_between", dropping)
        candidates, functors, disagreeing = raw_functors(3)
        assert (candidates, functors) == (1729, 416) and disagreeing > 0

    def test_identity_data(self):
        b = build_ddbicat(z2_die(0))
        f, rep = analyze_weak_functor(b, b, (0, 1), 0, 0)
        assert rep.ok and f is not None and f.m == 0

    def test_m0_forced_by_formula(self):
        # target die g with m2 = g forces m0 = g * g^-1 * g^-1 = g
        b = build_ddbicat(z2_die())
        f, rep = analyze_weak_functor(b, b, (0, 1), 1, 1)
        assert rep.ok and f.m0 == 1

    def test_wrong_m0_fails_unit_equation(self):
        b = build_ddbicat(z2_die())
        f, rep = analyze_weak_functor(b, b, (0, 1), 1, 0)
        assert f is None
        assert any(v.axiom == "unit-equation" for v in rep.violations)

    def test_non_hom_reported(self):
        b = build_ddbicat(z2_die())
        f, rep = analyze_weak_functor(b, b, (1, 0), 0, 0)
        assert f is None and any(v.axiom.startswith("hom-") for v in rep.violations)

    def test_composition_law_symbolic(self):
        s = z2_die()
        f = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        g = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        comp = compose_dd_functors(g, f)
        # m = G(m_F) * m_G = g * g = e
        assert comp.m == 0
        assert check_dd_functor(comp).ok

    def test_identity_neutral_for_composition(self):
        s, t = z2_die(), make_cmon_die(zmod(3), 2)
        for f in dd_functors_between(s, t):
            assert compose_dd_functors(identity_dd_functor(t), f) == f
            assert compose_dd_functors(f, identity_dd_functor(s)) == f

    def test_associativity_on_the_nose(self):
        dies = cmon_die_universe(2)
        for s, t, u, v in itertools.product(dies, repeat=4):
            for f in dd_functors_between(s, t):
                for g in dd_functors_between(t, u):
                    for h in dd_functors_between(u, v):
                        assert compose_dd_functors(h, compose_dd_functors(g, f)) == \
                            compose_dd_functors(compose_dd_functors(h, g), f)


def _count_post_inits(monkeypatch):
    calls = {MonoidHom: 0, DDFunctor: 0}
    for cls in calls:

        def counted(self, cls=cls, original=cls.__post_init__):
            calls[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def _strict_composite(g, f):
    # the composite rebuilt through the strict public constructors only
    mul = g.target.monoid.mul
    return make_dd_functor(f.source, g.target, [g.map[v] for v in f.map], mul[g.map[f.m]][g.m])


def _composable_pairs(dies):
    # every (g, f) with f: dies[i] -> dies[k] and g: dies[k] -> dies[l]
    functors = {(i, k): dd_functors_between(s, t)
                for i, s in enumerate(dies) for k, t in enumerate(dies)}
    return [(g, f)
            for (i, k), fs in functors.items()
            for (k2, _), gs in functors.items()
            if k2 == k
            for f in fs
            for g in gs]


def _interned_entry(g, f):
    # the source's table entry under the product formula's key
    mul = g.target.monoid.mul
    key = (id(g.target), tuple(g.map[v] for v in f.map), mul[g.map[f.m]][g.m])
    return vars(f.source)[doubly._FUNCTORS][key]


def _strict(f):
    return make_dd_functor(f.source, f.target, list(f.map), f.m)


class TestTrustedConstruction:
    def test_composites_agree_with_strict_path(self, monkeypatch):
        pairs = _composable_pairs(cmon_die_universe(2))
        for s in cmon_die_universe(3):
            ident = identity_dd_functor(s)
            pairs.append((ident, ident))
            for t in cmon_die_universe(3):
                for f in dd_functors_between(s, t):
                    pairs += [(identity_dd_functor(t), f), (f, ident)]
        calls = _count_post_inits(monkeypatch)
        composites = [compose_dd_functors(g, f) for g, f in pairs]
        assert calls == {MonoidHom: 0, DDFunctor: 0}
        for (g, f), c in zip(pairs, composites):
            rebuilt = DDFunctor(c.source, c.target, list(c.map), c.m, c.m0)
            assert rebuilt == c == _strict_composite(g, f)
            assert all(type(v) is int for v in (*c.map, c.m, c.m0))
            assert check_dd_functor(c).ok
        assert calls[DDFunctor] == 2 * len(pairs)

    def test_enumerated_and_identity_homs_agree_with_strict_path(self):
        monoids = [s.monoid for s in cmon_die_universe(3)]
        for m in monoids:
            assert identity_hom(m) == MonoidHom(m, m, range(m.size))
            for n in monoids:
                for h in enumerate_homs(m, n):
                    assert MonoidHom(m, n, h.map) == h
                    assert all(type(v) is int for v in h.map)

    def test_strict_constructors_still_reject(self):
        s, t = z2_die(), make_cmon_die(zmod(3), 2)
        with pytest.raises(StructuralError):
            MonoidHom(s.monoid, t.monoid, (0, 3))
        with pytest.raises(StructuralError):
            MonoidHom(s.monoid, t.monoid, (0,))
        with pytest.raises(StructuralError, match=r"^map: expected 2 entries, got 1$"):
            DDFunctor(s, t, (0,), 0, 0)
        with pytest.raises(StructuralError, match=r"^map/1: index 3 out of range\(3\)$"):
            DDFunctor(s, t, (0, 3), 0, 0)
        with pytest.raises(StructuralError, match=r"^map: expected list, got MonoidHom$"):
            DDFunctor(s, s, identity_hom(s.monoid), 0, 0)
        with pytest.raises(StructuralError, match=r"^m: index 2 out of range\(2\)$"):
            DDFunctor(s, s, (0, 1), 2, 0)

    @pytest.mark.parametrize(
        "hmap, m, message",
        [
            ((0,), 0, r"^map: expected 2 entries, got 1$"),
            ((0, 1.0), 0, r"^map/1: expected int, got float$"),
            ((0, 1), 5, r"^m: index 5 out of range\(2\)$"),
            ((0, 1), 1.0, r"^m: expected int, got float$"),
        ],
    )
    def test_make_dd_functor_gates_before_deriving_m0(self, hmap, m, message):
        s = z2_die()
        with pytest.raises(StructuralError, match=message):
            make_dd_functor(s, s, hmap, m)

    def test_a_shape_valid_non_homomorphism_is_built_and_reported(self):
        # the constructor checks shapes only; the hom laws are the checker's
        s = z2_die()
        f = DDFunctor(s, s, [1, 0], 0, 0)
        assert f.map == (1, 0) and type(f.map) is tuple
        axioms = {v.axiom for v in check_dd_functor(f).violations}
        assert "hom-multiplicativity" in axioms

    def test_the_functor_path_builds_no_monoid_hom(self, monkeypatch):
        # fresh copies of the dies start without intern tables, so every
        # functor and composite below is built here, not found
        dies = [copy.copy(s) for s in cmon_die_universe(3)]
        calls = _count_post_inits(monkeypatch)
        trusted = []
        original = MonoidHom._trusted.__func__

        def counted(cls, *args):
            trusted.append(args)
            return original(cls, *args)

        monkeypatch.setattr(MonoidHom, "_trusted", classmethod(counted))
        fs = [f for s in dies for t in dies for f in dd_functors_between(s, t)]
        composites = [compose_dd_functors(g, f) for g, f in _composable_pairs(dies)]
        two_truncation_universe(3)
        assert len(fs) == 416 and len(composites) == 15040
        assert trusted == [] and calls == {MonoidHom: 0, DDFunctor: 0}
        for f in fs + composites[::97]:
            assert f.hom_map == MonoidHom(f.source.monoid, f.target.monoid, f.map)
            assert f.hom_map.map is f.map

    def test_composition_still_rejects_mismatched_endpoints(self):
        s, t = z2_die(), make_cmon_die(zmod(3), 2)
        f = identity_dd_functor(s)
        g = identity_dd_functor(t)
        with pytest.raises(StructuralError):
            compose_dd_functors(g, f)


def _composition_laws(dies):
    # criterion 03 in small: the product formula over every composable pair,
    # and strict associativity over every composable triple
    functors = {(i, k): dd_functors_between(s, t)
                for i, s in enumerate(dies) for k, t in enumerate(dies)}
    n = len(dies)
    compose = doubly.compose_dd_functors
    law_ok = assoc_ok = True
    for (i, k), fs in functors.items():
        for l in range(n):
            mul = dies[l].monoid.mul
            for f in fs:
                for g in functors[(k, l)]:
                    c = compose(g, f)
                    if c.map != tuple(g.map[v] for v in f.map) \
                            or c.m != mul[g.map[f.m]][g.m]:
                        law_ok = False
                    for p in range(n):
                        for h in functors[(l, p)]:
                            if compose(h, compose(g, f)) != compose(compose(h, g), f):
                                assoc_ok = False
    return law_ok, assoc_ok


class TestFunctorInterning:
    def test_shallow_copy_leaves_the_interned_functors(self):
        u = cmon_die_universe(3)
        s, t = u[5], u[6]
        functors = dd_functors_between(s, t)
        assert functors
        copied = dd_functors_between(copy.copy(s), t)
        assert copied == functors and not any(a is b for a, b in zip(copied, functors))
        assert all(a is b for a, b in zip(dd_functors_between(s, t), functors))

    def test_composites_are_the_enumerated_instances(self):
        dies = cmon_die_universe(3)
        functors = {(i, k): dd_functors_between(s, t)
                    for i, s in enumerate(dies) for k, t in enumerate(dies)}
        index = {ik: {(f.map, f.m): f for f in fs} for ik, fs in functors.items()}
        pairs = 0
        for (i, k), fs in functors.items():
            for l, u in enumerate(dies):
                mul = u.monoid.mul
                for f in fs:
                    for g in functors[(k, l)]:
                        c = compose_dd_functors(g, f)
                        key = (tuple(g.map[v] for v in f.map),
                               mul[g.map[f.m]][g.m])
                        assert c is index[(i, l)][key]
                        assert c == _strict_composite(g, f)
                        assert check_dd_functor(c).ok
                        pairs += 1
        assert pairs == 15040

    def test_identities_compose_to_the_same_object(self):
        dies = cmon_die_universe(3)
        for s in dies:
            for t in dies:
                for f in dd_functors_between(s, t):
                    assert compose_dd_functors(identity_dd_functor(t), f) is f
                    assert compose_dd_functors(f, identity_dd_functor(s)) is f

    def test_repeated_calls_return_the_same_objects(self, monkeypatch):
        dies = cmon_die_universe(3)
        calls = _count_post_inits(monkeypatch)
        for s in dies:
            assert identity_dd_functor(s) is identity_dd_functor(s)
            assert identity_dd_functor(s) == make_dd_functor(
                s, s, identity_hom(s.monoid).map, s.monoid.unit
            )
            for t in dies:
                first, again = dd_functors_between(s, t), dd_functors_between(s, t)
                assert len(first) == len(again) > 0
                assert all(a is b for a, b in zip(first, again))
        assert calls[MonoidHom] == 0
        assert calls[DDFunctor] == len(dies)

    def test_table_invisible_to_equality_hash_and_json(self):
        fresh, used = make_cmon_die(zmod(3), 2), make_cmon_die(zmod(3), 2)
        dd_functors_between(used, used)
        assert doubly._FUNCTORS in vars(used) and doubly._FUNCTORS not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        dumps = serialize.canonical_dumps
        assert dumps(serialize.to_payload(used)) == dumps(serialize.to_payload(fresh))
        assert doubly._FUNCTORS not in vars(replace(used))

    def test_entry_keeps_its_target_alive(self):
        s = make_cmon_die(zmod(3), 2)
        hmap, m = (0, 0, 0), 1
        t = z2_die()
        ref = weakref.ref(t)
        key = (id(t), hmap, m)
        doubly._interned(s, t, hmap, m)
        table = vars(s)[doubly._FUNCTORS]
        del t
        gc.collect()
        # only the entry holds its target, so the id in its key stays taken
        t = ref()
        assert t is not None and key == (id(t), hmap, m)
        f = table[key]
        assert f.target is t and doubly._interned(s, t, hmap, m) is f
        # an equal target is another object, so it gets its own entry
        t_copy = z2_die()
        other = doubly._interned(s, t_copy, hmap, m)
        assert other is not f and other.target is t_copy and other == f
        # a shallow copy starts without a table and gets its own functors;
        # the original keeps its entries
        s_copy = copy.copy(s)
        assert doubly._FUNCTORS not in vars(s_copy)
        g = doubly._interned(s_copy, t, hmap, m)
        assert g.source is s_copy and g == f
        assert vars(s_copy)[doubly._FUNCTORS] is not table
        assert doubly._interned(s, t, hmap, m) is f
        # the target is freed with the source that holds its entries
        del t, f, g, other, table, s, s_copy
        gc.collect()
        assert ref() is None

    def test_strict_operands_compose_to_the_interned_instance(self):
        pairs = _composable_pairs(cmon_die_universe(2))
        for g, f in pairs:
            want = _interned_entry(g, f)
            for gg, ff in ((_strict(g), f), (g, _strict(f)), (_strict(g), _strict(f))):
                assert compose_dd_functors(gg, ff) is want
        assert len(pairs) > 100

    def test_every_key_holds_its_own_entrys_target_id(self):
        s = make_cmon_die(zmod(3), 2)
        t, t_copy = z2_die(), z2_die()
        hmap, m = (0, 0, 0), 1
        ident = identity_dd_functor(s)
        f = doubly._interned(s, t, hmap, m)
        g = make_dd_functor(s, t_copy, hmap, m)
        c = compose_dd_functors(g, ident)
        assert c is not f and c.target is t_copy and c.source is s and c == f
        assert compose_dd_functors(g, ident) is c
        # a shallow copy of the source gets its own table and composite
        s_copy = copy.copy(s)
        g_copy = make_dd_functor(s_copy, t, hmap, m)
        c_copy = compose_dd_functors(g_copy, identity_dd_functor(s_copy))
        assert c_copy.source is s_copy and c_copy.target is t and c_copy == f
        assert compose_dd_functors(f, ident) is f
        # over a swept universe, every entry of every table is keyed by
        # its own target's id and map and element, and starts at the owner
        dies = cmon_die_universe(3) + [s, s_copy]
        swept = 0
        for a in dies:
            for b in dies:
                for h in dd_functors_between(a, b):
                    assert compose_dd_functors(identity_dd_functor(b), h) is h
                    swept += 1
        entries = 0
        for owner in dies:
            for key, entry in vars(owner)[doubly._FUNCTORS].items():
                assert key == (id(entry.target), entry.map, entry.m)
                assert entry.source is owner
                entries += 1
        assert entries >= swept > 500

    def test_endpoint_mismatch_still_raises(self):
        s, t = z2_die(), make_cmon_die(zmod(3), 2)
        with pytest.raises(StructuralError):
            compose_dd_functors(identity_dd_functor(t), identity_dd_functor(s))
        f = dd_functors_between(s, t)[0]
        with pytest.raises(StructuralError):
            compose_dd_functors(f, f)

    def test_identity_based_laws_still_catch_a_wrong_composite(self, monkeypatch):
        dies = cmon_die_universe(2)
        assert _composition_laws(dies) == (True, True)
        s = next(d for d in dies if len(units(d.monoid)) > 1)
        ident = identity_dd_functor(s)
        other = next(u for u in units(s.monoid) if u != s.monoid.unit)
        wrong = doubly._interned(s, s, ident.map, other)
        original = doubly.compose_dd_functors

        def planted(g, f):
            return wrong if g is ident and f is ident else original(g, f)

        monkeypatch.setattr(doubly, "compose_dd_functors", planted)
        assert _composition_laws(dies) == (False, False)


class TestFunctorEquality:
    def test_strict_rebuild_equals_the_interned_instance(self):
        for s in cmon_die_universe(3):
            for t in cmon_die_universe(3):
                for f in dd_functors_between(s, t):
                    rebuilt = DDFunctor(s, t, list(f.map), f.m, f.m0)
                    assert rebuilt is not f
                    assert rebuilt == f and f == rebuilt and not (rebuilt != f)
                    assert hash(rebuilt) == hash(f)

    def test_a_different_field_gives_inequality(self):
        s = make_cmon_die(zmod(3), 2)
        fs = dd_functors_between(s, s)
        by_map = {}
        for f in fs:
            by_map.setdefault(f.map, []).append(f)
        same_hom = next(group for group in by_map.values() if len(group) > 1)
        assert same_hom[0] != same_hom[1] and not (same_hom[0] == same_hom[1])
        assert len(set(fs)) == len(fs) == len({(f.map, f.m) for f in fs})
        f = fs[0]
        assert replace(f, m0=(f.m0 + 1) % 3) != f

    def test_other_classes_compare_unequal(self):
        f = identity_dd_functor(z2_die())
        fields = (f.source, f.target, f.map, f.m, f.m0)
        for other in (None, 0, "f", fields, f.map, f.hom_map, f.source):
            assert f != other and not (f == other) and other != f
        assert f.__eq__(fields) is NotImplemented and f.__ne__(fields) is NotImplemented
        assert (f != 3) is True and (f == 3) is False and f.__ne__(f) is False

    def test_ne_is_the_negation_of_eq_on_every_pair(self):
        # interned functors, plus a copy and a pickle round trip of each:
        # equal pairs that are distinct objects, so `!=` cannot stop at identity
        fs = [f for s in cmon_die_universe(2) for t in cmon_die_universe(2)
              for f in dd_functors_between(s, t)]
        fs += [copy.copy(f) for f in fs] + [pickle.loads(pickle.dumps(f)) for f in fs]
        assert len(fs) == 99
        equal = 0
        for a in fs:
            for b in fs:
                eq = a == b
                assert (a != b) is (not eq)
                equal += eq
        assert equal == 33 * 9

    def test_hash_stays_the_field_hash_and_the_class_frozen(self):
        assert DDFunctor.__hash__ is not None
        f = identity_dd_functor(z2_die())
        fields = (f.source, f.target, f.map, f.m, f.m0)
        assert hash(f) == hash(fields)
        with pytest.raises(AttributeError):
            f.m = 0


class TestCompositeMemo:
    def test_every_pair_twice_returns_the_interned_entry(self):
        pairs = _composable_pairs(cmon_die_universe(2))
        order = pairs * 2
        random.Random(15).shuffle(order)
        for g, f in order:
            c = compose_dd_functors(g, f)
            assert c is _interned_entry(g, f)
            assert f._composites[g._serial] is c
        assert len(pairs) == 299

    def test_strict_rebuilds_return_the_same_instance(self):
        pairs = _composable_pairs(cmon_die_universe(2))
        for g, f in pairs:
            want = compose_dd_functors(g, f)
            gg, ff = _strict(g), _strict(f)
            assert gg._serial != g._serial and ff._serial != f._serial
            assert gg._serial not in f._composites and ff._composites is None
            for operands in ((gg, f), (g, ff), (gg, ff)):
                assert compose_dd_functors(*operands) is want
            assert f._composites[gg._serial] is want and ff._composites[g._serial] is want

    def test_endpoint_mismatch_raises_every_time_and_stores_nothing(self):
        s, t = z2_die(), make_cmon_die(zmod(3), 2)
        f, g = identity_dd_functor(s), identity_dd_functor(t)
        compose_dd_functors(f, f)
        memo = dict(f._composites)
        for _ in range(2):
            with pytest.raises(StructuralError, match="endpoint mismatch"):
                compose_dd_functors(g, f)
        assert f._composites == memo and g._serial not in f._composites
        h = dd_functors_between(s, t)[0]
        for _ in range(2):
            with pytest.raises(StructuralError, match="endpoint mismatch"):
                compose_dd_functors(h, h)
        assert h._composites is None

    def test_serials_are_unique_and_not_fields(self):
        assert [fl.name for fl in dataclasses.fields(DDFunctor)] == \
            ["source", "target", "map", "m", "m0"]
        fs = [f for g, f in _composable_pairs(cmon_die_universe(2))]
        fs += [_strict(f) for f in fs[:20]]
        assert len({f._serial for f in fs}) == len({id(f) for f in fs})
        assert not hasattr(fs[0], "__dict__")

    def test_memo_keeps_no_universe_alive(self):
        dies = [make_cmon_die(zmod(3), 2), z2_die(), make_cmon_die(zmod(3), 1)]
        refs = [weakref.ref(d) for d in dies]
        pairs = _composable_pairs(dies)
        composites = [compose_dd_functors(g, f) for g, f in pairs]
        assert len(pairs) == 920 and all(f._composites for g, f in pairs)
        del dies, pairs, composites
        gc.collect()
        assert [r() for r in refs] == [None, None, None]


class TestFunctorCopies:
    ROUTES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda f: pickle.loads(pickle.dumps(f)),
        "replace": replace,
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_copy_has_the_fields_a_fresh_serial_and_no_memo(self, route):
        s, t = make_cmon_die(zmod(3), 2), z2_die()
        f = dd_functors_between(s, t)[1]
        g = dd_functors_between(t, t)[1]
        h = dd_functors_between(s, s)[1]
        want_after, want_before = compose_dd_functors(g, f), compose_dd_functors(f, h)
        assert f._composites
        c = self.ROUTES[route](f)
        assert c is not f and c == f and f == c and hash(c) == hash(f) and repr(c) == repr(f)
        dumps = serialize.canonical_dumps
        assert dumps(serialize.to_payload(c)) == dumps(serialize.to_payload(f))
        assert c._serial != f._serial and c._serial not in f._composites
        assert c._composites is None
        assert compose_dd_functors(g, c) == want_after
        assert compose_dd_functors(c, h) == want_before
        assert list(c._composites) == [g._serial]


def _count_ddbicat_checks(monkeypatch):
    calls = []
    original = doubly.check_ddbicat

    def counted(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(doubly, "check_ddbicat", counted)
    return calls


class TestExtractionMemo:
    def test_second_extraction_reuses_the_first(self, monkeypatch):
        b = build_ddbicat(make_cmon_die(zmod(3), 2))
        calls = _count_ddbicat_checks(monkeypatch)
        s = extract_cmon_die(b)
        assert extract_cmon_die(b) is s
        assert len(calls) == 1
        extract_cmon_die(replace(b))
        assert len(calls) == 2

    def test_built_instance_extracts_to_its_own_die(self, monkeypatch):
        s = make_cmon_die(zmod(3), 2)
        b = build_ddbicat(s)
        calls = _count_ddbicat_checks(monkeypatch)
        assert extract_cmon_die(b) is s and calls == [b]
        f, rep = analyze_weak_functor(b, b, (0, 1, 2), 0, 0)
        assert rep.ok and f.source is s and f.target is s
        assert promote_lax(b, b, (0, 1, 2), 0, 0).source is s and calls == [b]
        # a copy, or the same data read back from JSON, is checked and read afresh
        loaded = serialize.structure_from_payload(serialize.to_payload(b))
        for other in (replace(b), loaded):
            assert extract_cmon_die(other) == s and extract_cmon_die(other) is not s
        assert len(calls) == 3

    def test_promotion_checks_each_instance_once(self, monkeypatch):
        s = make_cmon_die(zmod(3), 2)
        b1, b2 = build_ddbicat(s), build_ddbicat(s)
        calls = _count_ddbicat_checks(monkeypatch)
        for m2 in range(3):
            m0 = s.monoid.mul[s.die][s.monoid.mul[s.die_inv][invert(s.monoid, m2)]]
            promote_lax(b1, b2, (0, 1, 2), m2, m0)
            analyze_weak_functor(b1, b2, (0, 1, 2), m2, m0)
        assert calls == [b1, b2]

    def test_raw_elements_go_through_the_shape_gate(self):
        b = build_ddbicat(make_cmon_die(zmod(2), 1))
        for m2, m0, message in (
            (5, 0, "m2: index 5 out of range(2)"),
            (0, 2, "m0: index 2 out of range(2)"),
            (1.0, 0, "m2: expected int, got float"),
            (True, 0, "m2: expected int, got bool"),
            (1, True, "m0: expected int, got bool"),
        ):
            for fn in (promote_lax, analyze_weak_functor):
                with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
                    fn(b, b, (0, 1), m2, m0)

    def test_invalid_instance_raises_on_every_call(self, monkeypatch):
        b = replace(build_ddbicat(z2_die()), assoc=1)
        calls = _count_ddbicat_checks(monkeypatch)
        for _ in range(3):
            with pytest.raises(InvalidStructureError):
                extract_cmon_die(b)
        assert len(calls) == 3

    def test_tampered_copy_of_extracted_instance_rejected(self):
        rng = random.Random(5)
        targets = [s for s in cmon_die_universe(3) if s.monoid.size >= 2]
        for _ in range(200):
            b = build_ddbicat(rng.choice(targets))
            extract_cmon_die(b)
            tampered, _ = random_tamper(b, rng)
            with pytest.raises(InvalidStructureError):
                extract_cmon_die(tampered)

    def test_memo_invisible_to_equality_hash_and_json(self):
        s = make_cmon_die(zmod(3), 2)
        fresh, used = build_ddbicat(s), build_ddbicat(s)
        extract_cmon_die(used)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        dumps = serialize.canonical_dumps
        assert dumps(serialize.to_payload(used)) == dumps(serialize.to_payload(fresh))


class TestLaxPromotion:
    def test_z2_case(self):
        b = build_ddbicat(z2_die(0))
        f = promote_lax(b, b, (0, 1), 1, 1)
        assert check_dd_functor(f).ok

    def test_identity_data(self):
        b = build_ddbicat(z2_die(0))
        f = promote_lax(b, b, (0, 1), 0, 0)
        assert f == identity_dd_functor(extract_cmon_die(b))

    def test_noninvertible_candidate_rejected(self):
        src = build_ddbicat(z2_die(0))
        tgt = build_ddbicat(make_cmon_die(bool_or_monoid(), 0))
        # OR(anything, 1) = 1 != 0, so the unit equation cannot hold with m0 = 1
        with pytest.raises(InvalidStructureError):
            promote_lax(src, tgt, (0, 0), 0, 1)

    def test_exhaustive_sizes_up_to_three(self):
        # each promoted datum is the strictly built functor, and composes
        dies = cmon_die_universe(3)
        promoted = 0
        for s in dies:
            b1 = build_ddbicat(s)
            for t in dies:
                b2 = build_ddbicat(t)
                mul = t.monoid.mul
                interned = {(f.map, f.m): f for f in dd_functors_between(s, t)}
                after = dd_functors_between(t, t)[-1]
                for hom in enumerate_homs(s.monoid, t.monoid):
                    fd = hom.map[s.die]
                    for m2 in range(t.monoid.size):
                        for m0 in range(t.monoid.size):
                            holds = t.die == mul[fd][mul[m2][m0]]
                            if holds:
                                f = promote_lax(b1, b2, hom.map, m2, m0)
                                assert invert(t.monoid, f.m) is not None
                                assert invert(t.monoid, f.m0) is not None
                                strict = DDFunctor(s, t, list(hom.map), m2, m0)
                                assert f == strict == interned[(hom.map, m2)]
                                # on the very dies b1 and b2 were built from, so
                                # its composites are the enumerated instances
                                assert f.source is s and f.target is t
                                same = interned[(hom.map, m2)]
                                assert compose_dd_functors(identity_dd_functor(t), f) is same
                                assert compose_dd_functors(f, identity_dd_functor(s)) == f
                                assert compose_dd_functors(after, f) is compose_dd_functors(
                                    after, same
                                )
                                promoted += 1
                            else:
                                with pytest.raises(InvalidStructureError):
                                    promote_lax(b1, b2, hom.map, m2, m0)
        assert promoted == sum(len(dd_functors_between(s, t)) for s in dies for t in dies)

    @pytest.mark.parametrize(
        "mapping, m2, m0, error, message",
        [
            ((0, 1, 0), 1, 1, StructuralError, "map: expected 2 entries, got 3"),
            ((0,), 1, 1, StructuralError, "map: expected 2 entries, got 1"),
            ((1, 0), 1, 1, InvalidStructureError, "mapping is not a homomorphism"),
            ((0, 1), 1, 0, InvalidStructureError, "unit equation fails: not a lax functor"),
        ],
    )
    def test_bad_mapping_or_unit_equation_refused(self, mapping, m2, m0, error, message):
        b = build_ddbicat(z2_die())
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            promote_lax(b, b, mapping, m2, m0)


class TestTransformations:
    def test_equal_functors_give_unit_component(self):
        s = z2_die()
        f = identity_dd_functor(s)
        t = transformation_between(f, f)
        assert t is not None and t.sigma == 0
        assert check_dd_transformation(t).ok

    def test_component_formula(self):
        s = z2_die()
        f = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        g = make_dd_functor(s, s, identity_hom(s.monoid).map, 0)
        t = transformation_between(f, g)
        # sigma = m_G * m_F^-1 = e * g = g
        assert t.sigma == 1
        assert check_dd_transformation(t).ok

    def test_absent_for_distinct_homs(self):
        m = zmod(2)
        s = z2_die()
        f = make_dd_functor(s, s, identity_hom(m).map, 0)
        g = make_dd_functor(s, s, (0, 0), 0)
        assert transformation_between(f, g) is None

    def test_uniqueness_over_small_universe(self):
        dies = cmon_die_universe(3)
        for s in dies:
            for t in dies:
                fs = dd_functors_between(s, t)
                for f in fs:
                    for g in fs:
                        tr = transformation_between(f, g)
                        assert (tr is not None) == (f.map == g.map)

    def test_wrong_sigma_detected(self):
        from deglab.doubly import DDTransformation

        s = z2_die()
        f = identity_dd_functor(s)
        rep = check_dd_transformation(DDTransformation(f, f, 1))
        assert any(v.axiom == "component-formula" for v in rep.violations)


class TestModifications:
    def test_unit_gamma(self):
        s = z2_die()
        t = transformation_between(identity_dd_functor(s), identity_dd_functor(s))
        assert check_modification(DDModification(t, 0)).ok

    def test_any_element_of_z2(self):
        s = z2_die()
        t = transformation_between(identity_dd_functor(s), identity_dd_functor(s))
        for gamma in range(2):
            assert check_modification(DDModification(t, gamma)).ok

    def test_noninvertible_gamma_allowed(self):
        s = make_cmon_die(bool_or_monoid(), 0)
        t = transformation_between(identity_dd_functor(s), identity_dd_functor(s))
        assert invert(s.monoid, 1) is None
        assert check_modification(DDModification(t, 1)).ok


class TestForgetfulImage:
    def test_projections(self):
        s = z2_die()
        b = build_ddbicat(s)
        assert forgetful_image(1, b) == s.monoid
        assert forgetful_image(2, s) == s.monoid
        f = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        assert forgetful_image(1, f) == f.hom_map
        t = transformation_between(f, f)
        assert forgetful_image(2, t) == f.hom_map
        assert forgetful_image(3, DDModification(t, 1)) == f.hom_map

    @pytest.mark.parametrize("level", [True, 2.0])
    def test_level_that_is_not_an_exact_int_is_refused(self, level):
        with pytest.raises(StructuralError, match=r"^j: expected int, got "):
            forgetful_image(level, z2_die())

    def test_level_guards(self):
        s = z2_die()
        f = identity_dd_functor(s)
        t = transformation_between(f, f)
        with pytest.raises(StructuralError):
            forgetful_image(1, t)
        with pytest.raises(StructuralError):
            forgetful_image(2, DDModification(t, 0))


class TestUnfaithfulnessWitnesses:
    @pytest.mark.parametrize("level", [1.0, 3.0])
    def test_level_that_is_not_an_exact_int_is_refused(self, level):
        with pytest.raises(StructuralError, match=r"^j: expected int, got float$"):
            unfaithfulness_witness(level, z2_die(0))

    def test_level_one_on_group_target(self):
        pair = unfaithfulness_witness(1, z2_die(0))
        assert pair is not None
        f1, f2 = pair
        assert f1.m != f2.m
        assert check_dd_functor(f1).ok and check_dd_functor(f2).ok
        assert forgetful_image(1, f1) == forgetful_image(1, f2)

    def test_level_one_absent_without_nonunit_units(self):
        assert unfaithfulness_witness(1, make_cmon_die(bool_or_monoid(), 0)) is None

    def test_level_three(self):
        pair = unfaithfulness_witness(3, z2_die(0))
        assert pair is not None
        m1, m2 = pair
        assert m1.gamma != m2.gamma
        assert check_modification(m1).ok and check_modification(m2).ok

    def test_level_three_absent_on_singleton(self):
        assert unfaithfulness_witness(3, make_cmon_die(trivial_monoid(), 0)) is None

    def test_level_two_has_no_witness_operation(self):
        with pytest.raises(StructuralError):
            unfaithfulness_witness(2, z2_die(0))


def all_pairs_tables(one_cells, key, compose, two_cells):
    """The three composite tables of a locally thin 2-category, built by
    looping over all pairs of cells and keeping those that compose."""
    one_index = {}
    for pos, (s, t, f) in enumerate(one_cells):
        one_index.setdefault((s, t, key(f)), pos)
    one_comp = {}
    for gi, (s2, t2, g) in enumerate(one_cells):
        for fi, (s1, t1, f) in enumerate(one_cells):
            if t1 == s2:
                one_comp[(gi, fi)] = one_index[(s1, t2, key(compose(g, f)))]
    two_index = {(f, g): pos for pos, (f, g) in enumerate(two_cells)}
    two_vcomp = {}
    two_hcomp = {}
    for bi, (f2, g2) in enumerate(two_cells):
        for ai, (f1, g1) in enumerate(two_cells):
            if g1 == f2:
                two_vcomp[(bi, ai)] = two_index[(f1, g2)]
            if one_cells[f1][1] == one_cells[f2][0]:
                two_hcomp[(bi, ai)] = two_index[(one_comp[(f2, f1)], one_comp[(g2, g1)])]
    return one_comp, two_vcomp, two_hcomp


def _functor_cells(dies, one_cells):
    """one_cells with each key replaced by the functor object it names:
    the one at the same position of `dd_functors_between` over its ends,
    whose (map, m) and target monoid the key must be."""
    functors = [(s, t, f) for s in range(len(dies)) for t in range(len(dies))
                for f in dd_functors_between(dies[s], dies[t])]
    assert [(s, t, (f.map, f.m, f.target.monoid)) for s, t, f in functors] == one_cells
    return functors


def assert_tables_equal(x, reference):
    for (d, k), ref in zip(((0, 0), (1, 1), (1, 0)), reference):
        table = x.comp[d][k]
        assert dict(table) == ref
        assert len(table) == len(ref)
        n = len(x.cells[d])
        for key in [(0, n), (n, 0), (-1, 0)]:
            assert key not in table
    one = x.cells[0]
    for b in range(len(one)):
        for a in range(len(one)):
            assert ((b, a) in x.comp[0][0]) == (one[a][1] == one[b][0])


class TestTwoTruncationComparison:
    def test_universe_is_a_strict_two_category(self):
        dies, _, _, fun = two_truncation_universe(2)
        assert check_jcategory(fun.source).ok
        assert check_jcategory(fun.target).ok
        assert check_jfunctor(fun).ok

    @pytest.mark.parametrize("bound", [2, 3])
    def test_two_cells_are_the_pairs_with_a_transformation(self, bound):
        dies, homs, two_cells, fun = two_truncation_universe(bound)
        one_cells = keyed_one_cells(homs)
        assert two_cells is fun.source.cells[1]
        functors = _functor_cells(dies, one_cells)
        want = tuple(
            (f, g)
            for f, (s, t, ff) in enumerate(functors)
            for g, (s2, t2, gg) in enumerate(functors)
            if (s, t) == (s2, t2) and transformation_between(ff, gg) is not None
        )
        assert two_cells == want

    def test_tables_match_all_pairs_reference(self):
        dies, homs, two_cells, fun = two_truncation_universe(2)
        one_cells = keyed_one_cells(homs)
        left = fun.source
        assert left.cells[0] == tuple((s, t) for s, t, _ in one_cells)
        assert_tables_equal(
            left,
            all_pairs_tables(
                _functor_cells(dies, one_cells),
                lambda f: (f.map, f.m),
                compose_dd_functors,
                two_cells,
            ),
        )
        monoids = []
        for s in dies:
            if s.monoid not in monoids:
                monoids.append(s.monoid)
        r_one = [
            (i, k, h)
            for i, m in enumerate(monoids)
            for k, m2 in enumerate(monoids)
            for h in enumerate_homs(m, m2)
        ]
        right = fun.target
        assert right.cells[0] == tuple((i, k) for i, k, _ in r_one)
        assert right.cells[1] == tuple((f, f) for f in range(len(r_one)))
        assert right.identity[1] == tuple(range(len(r_one)))
        assert_tables_equal(
            right,
            all_pairs_tables(
                r_one, lambda h: h.map, compose_homs, right.cells[1]
            ),
        )

    def test_discrete_side_matches_the_monoid_hom_reference(self):
        dies, homs, _, fun = two_truncation_universe(3)
        one_cells = keyed_one_cells(homs)
        ref, ref_index = reference_two_truncation_right(dies)
        monoids = list(dict.fromkeys(s.monoid for s in dies))
        homs = {(i, k): hom_maps(m, m2) for i, m in enumerate(monoids) for k, m2 in enumerate(monoids)}
        _, one_cell = monoid_category("cmon", monoids, homs, two_cell=lambda f, g: f is g)
        assert assert_lookup_matches(one_cell, homs, tuple, [(0, 0, ()), (0, 99, (0,))]) > 2
        # the reference index, keyed by the maps of `enumerate_homs`, numbers them alike
        assert list(ref_index) == [(i, k, h) for (i, k), hs in homs.items() for h in hs]
        assert list(ref_index.values()) == list(range(len(ref_index)))
        right = fun.target
        for name in ("zero_cells", "cells", "identity"):
            assert getattr(right, name) == getattr(ref, name)
        assert dict(right.comp[0][0]) == dict(ref.comp[0][0])
        assert fun.map0 == tuple(monoids.index(s.monoid) for s in dies)
        assert fun.map1 == tuple(
            ref_index[(fun.map0[s], fun.map0[t], key[0])] for s, t, key in one_cells
        )

    def test_universe_counts_bound_three(self):
        _, _, two_cells, fun = two_truncation_universe(3)
        assert (len(fun.source.cells[0]), len(two_cells)) == (416, 896)
        assert len(fun.source.comp[0][0]) == 15040
        assert len(fun.source.comp[1][0]) == 77060

    def test_equivalence_bound_four(self):
        dies, _, two_cells, fun = two_truncation_universe(4)
        assert (len(dies), len(fun.source.cells[0]), len(two_cells)) == (43, 10027, 26413)
        assert check_two_equivalence(4).ok

    def test_equivalence_bound_two(self):
        assert check_two_equivalence(2).ok

    @pytest.mark.parametrize("bound", [0, -1])
    def test_a_bound_below_one_is_refused(self, bound):
        # the universe would be empty, and every finding would hold vacuously
        message = f"^bound {bound} is below 1: the universe would be empty$"
        for build in (two_truncation_universe, check_two_equivalence):
            with pytest.raises(StructuralError, match=message):
                build(bound)

    def test_level_findings_fail_without_a_witnessing_instance(self):
        # the one instance of size 1 has no non-unit element to choose or
        # to modify by, so neither level can be shown to collapse
        rep = check_two_equivalence(1)
        failed = [(f.criterion, f.detail) for f in rep.findings if not f.passed]
        assert failed == [
            (
                "level-1-comparison-not-faithful",
                "no instance of size <= 1 has a non-unit invertible element, so no witness",
            ),
            ("level-3-comparison-not-locally-faithful", "no instance of size <= 1 has two elements, so no witness"),
        ]

    def test_level_one_finding_is_the_clash_walk(self, monkeypatch):
        # the finding is `_first_clash` at dimension 1 on the j = 2
        # comparison: with that walk finding no clash, the finding fails
        seen = []

        def no_clash(fun, dim):
            seen.append((fun.source.j, dim))

        monkeypatch.setattr(doubly, "_first_clash", no_clash)
        by_name = {f.criterion: f.passed for f in check_two_equivalence(2).findings}
        assert seen == [(2, 1)]
        assert by_name["level-1-comparison-not-faithful"] is False

    def test_equivalence_bound_three(self):
        rep = check_two_equivalence(3)
        assert rep.ok
        names = {f.criterion for f in rep.findings}
        assert "locally-bijective-on-2-cells" in names
        assert "level-1-comparison-not-faithful" in names

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_level_one_is_not_faithful_through_the_checker(self, bound):
        # the j = 2 comparison is an equivalence; cut to 1-cells, it identifies
        # two 1-cells on one hom map that differ in their chosen element, the
        # clash `level-1-comparison-not-faithful` reads off the same cut
        _, homs, _, fun = two_truncation_universe(bound)
        one_cells = keyed_one_cells(homs)
        assert check_external_equivalence(fun).ok
        x, y = (
            replace(c, cells=c.cells[:1], identity=c.identity[:1], comp=c.comp[:1])
            for c in (fun.source, fun.target)
        )
        rep = check_external_equivalence(JFunctor(x, y, fun.map0, fun.map1))
        failed = [(f.criterion, f.witness) for f in rep.findings if not f.passed]
        assert failed == [("locally-faithful-at-top-dimension", {"identified-1-cells": [2, 3]})]
        (_, _, (h, m, target)), (_, _, (h2, m2, _)) = one_cells[2:4]
        assert (h, target.size, m, m2) == (h2, 2, 0, 1)

    def test_benchmark_tracer_reads_the_universe_sizes(self):
        # `perfbench/tracer.py` counts the universe through the category's
        # tables; only a traced benchmark run would otherwise see a rename
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        tracer = types.ModuleType("tracer")  # run from source: no bytecode is written
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
        t = tracer.Tracer()
        t._observe("doubly.two_truncation_universe", (), two_truncation_universe(3), None)
        assert t.universe == {"two_cells": 896, "one_comp_entries": 15040, "two_hcomp_entries": 77060}

    def test_key_composition_agrees_with_the_functors(self):
        pairs, disagreements = _key_composition_disagreements(3)
        assert (pairs, disagreements) == (15040, [])

    def test_wrong_functor_composite_fails_the_agreement(self, monkeypatch):
        compose = doubly.compose_dd_functors

        def wrong(g, f):
            # the composite's other element, where its target has one to swap to
            c = compose(g, f)
            others = [u for u in units(c.target.monoid) if u != c.m]
            return replace(c, m=others[0]) if others else c

        monkeypatch.setattr(doubly, "compose_dd_functors", wrong)
        pairs, disagreements = _key_composition_disagreements(3)
        assert pairs == 15040 and disagreements
        assert all(kind == "composite" for kind, *_ in disagreements)

    def test_the_check_builds_no_functor_or_transformation(self, monkeypatch):
        built = []

        def counted(cls, name):
            original = getattr(cls, name)

            def method(self, *args):
                built.append((cls.__name__, name))
                return original(self, *args)

            monkeypatch.setattr(cls, name, method)

        for cls in (DDFunctor, DDTransformation, DDModification):
            counted(cls, "__post_init__")
        counted(DDFunctor, "__setstate__")  # how `_trusted` and copies fill a functor
        for name in ("_interned", "compose_dd_functors", "transformation_between"):
            real = getattr(doubly, name)
            monkeypatch.setattr(
                doubly, name, lambda *args, name=name, real=real: built.append(name) or real(*args)
            )
        assert check_two_equivalence(3).ok
        assert built == []
        # the counters count: a functor, and a transformation from it
        s = z2_die()
        doubly.transformation_between(make_dd_functor(s, s, (0, 1), 1), identity_dd_functor(s))
        assert ("DDFunctor", "__post_init__") in built
        assert ("DDTransformation", "__post_init__") in built
        assert "transformation_between" in built

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_the_object_reference_builds_the_same_universe(self, bound):
        dies, homs, two_cells, fun = two_truncation_universe(bound)
        one_cells = keyed_one_cells(homs)
        ref_dies, ref_one_cells, ref_two_cells, ref = reference_two_truncation_universe(bound)
        assert ref_dies == dies and ref_two_cells == two_cells
        assert [(s, t, (f.map, f.m, f.target.monoid)) for s, t, f in ref_one_cells] == one_cells
        assert (fun.map0, fun.map1, fun.map2) == (ref.map0, ref.map1, ref.map2)
        x, y = fun.source, ref.source
        for name in ("zero_cells", "cells", "identity"):
            assert getattr(x, name) == getattr(y, name), name
        rng = random.Random(bound)
        for name in ((0, 0), (1, 1), (1, 0)):
            d, k = name
            table, want = x.comp[d][k], y.comp[d][k]
            assert len(table) == len(want), name
            if len(table) <= 100_000:
                assert dict(table) == dict(want), name
                continue
            # past that, 2,000 composable pairs drawn at random
            n = len(x.cells[d])
            drawn = 0
            while drawn < 2000:
                pair = (rng.randrange(n), rng.randrange(n))
                assert (pair in table) == (pair in want)
                if pair in table:
                    drawn += 1
                    assert table[pair] == want[pair], (name, pair)
        want = reference_two_equivalence_report(bound).to_payload()
        assert check_two_equivalence(bound).to_payload() == want


def _key_composition_disagreements(bound):
    """Every composable pair (g, f) of the 2-truncation's 1-cells, composed
    as keys by `doubly._compose_keys` and as the functors they name by
    `doubly.compose_dd_functors`, both read through the module so a
    patched one is the one compared; and, on keys, that each identity
    1-cell is the identity functor's and both identity laws.
    Returns (pairs, disagreements), each disagreement ("composite", g, f)
    or ("identity", f)."""
    dies, homs, _, fun = two_truncation_universe(bound)
    one_cells = keyed_one_cells(homs)
    functors = _functor_cells(dies, one_cells)
    x = fun.source
    disagreements = []
    pairs = 0
    for gi, fi in x.comp[0][0]:
        pairs += 1
        c = doubly.compose_dd_functors(functors[gi][2], functors[fi][2])
        key = doubly._compose_keys(one_cells[gi][2], one_cells[fi][2])
        if key != (c.map, c.m, c.target.monoid):
            disagreements.append(("composite", gi, fi))
    for i, d in enumerate(dies):
        ident = identity_dd_functor(d)
        if one_cells[x.identity[0][i]][2] != (ident.map, ident.m, d.monoid):
            disagreements.append(("identity", x.identity[0][i]))
    for fi, (s, t, key) in enumerate(one_cells):
        left = doubly._compose_keys(one_cells[x.identity[0][t]][2], key)
        right = doubly._compose_keys(key, one_cells[x.identity[0][s]][2])
        if left != key or right != key:
            disagreements.append(("identity", fi))
    return pairs, disagreements


def all_pairs_closure(functors):
    """Reference closure check: compose every composable retained pair.

    Returns (closed, witness) as `restrict_identity_constraint` reports its
    `closed-under-composition` finding.  It calls `doubly.compose_dd_functors`
    through the module, so a monkeypatched composition reaches it too.
    """
    retained = [f for f in functors if f.m == f.target.monoid.unit]
    ending = {}
    for f in retained:
        ending.setdefault(f.target, []).append(f)
    for g in retained:
        for f in ending.get(g.source, ()):
            comp = doubly.compose_dd_functors(g, f)
            if comp.m != comp.target.monoid.unit:
                return False, {"g": (g.map, g.m), "f": (f.map, f.m)}
    return True, None


def _universe_functors(bound):
    dies = cmon_die_universe(bound)
    return [f for s in dies for t in dies for f in dd_functors_between(s, t)]


def _closure_finding(functors):
    _, rep = restrict_identity_constraint(functors)
    (finding,) = [f for f in rep.findings if f.criterion == "closed-under-composition"]
    return finding.passed, finding.witness


class TestIdentityConstraintRestriction:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_closure_matches_all_pairs_reference(self, bound):
        fs = _universe_functors(bound)
        assert _closure_finding(fs) == all_pairs_closure(fs) == (True, None)

    @pytest.mark.parametrize("bound", [2, 3])
    def test_corrupted_class_fails_both_closure_loops_alike(self, monkeypatch, bound):
        # corrupt the composite's element for every pair whose f ends at one
        # instance, into a target that has a non-unit element to corrupt to
        fs = _universe_functors(bound)
        bad_end = [s for s in cmon_die_universe(bound) if s.monoid.size == bound][-1]
        compose = doubly.compose_dd_functors

        def corrupted(g, f):
            c = compose(g, f)
            t = c.target.monoid
            if f.target == bad_end and t.size > 1:
                return replace(c, m=next(x for x in range(t.size) if x != t.unit))
            return c

        monkeypatch.setattr(doubly, "compose_dd_functors", corrupted)
        closed, witness = _closure_finding(fs)
        assert not closed and witness is not None
        assert (closed, witness) == all_pairs_closure(fs)

    def test_filtering_and_closure(self):
        s = z2_die()
        fs = dd_functors_between(s, s)
        retained, rep = restrict_identity_constraint(fs)
        assert all(f.m == 0 for f in retained)
        assert len(retained) == len(fs) // 2
        assert rep.ok

    def test_excludes_nonidentity_element(self):
        s = z2_die()
        f = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        retained, _ = restrict_identity_constraint([f])
        assert retained == []

    @staticmethod
    def _comparison_findings(functors):
        _, rep = restrict_identity_constraint(functors, bound=3)
        return {
            f.criterion.removeprefix("restricted-comparison-"): f.passed
            for f in rep.findings
            if f.criterion.startswith("restricted-comparison-")
        }

    @pytest.fixture(scope="class")
    def bound_three(self):
        fs = _universe_functors(3)
        kept = next(i for i, f in enumerate(fs) if f.m == f.target.monoid.unit)
        return fs, kept

    def test_dropped_functor_fails_fullness(self, bound_three):
        fs, kept = bound_three
        found = self._comparison_findings(fs[:kept] + fs[kept + 1 :])
        assert found == {"full": False, "faithful": True, "surjective": True}

    def test_duplicated_functor_fails_faithfulness(self, bound_three):
        fs, kept = bound_three
        found = self._comparison_findings(fs + [fs[kept]])
        assert found == {"full": True, "faithful": False, "surjective": True}

    def test_ends_are_matched_by_value(self, bound_three):
        # the same functors between `replace` copies of the dies and of their
        # monoids, alone and mixed with the originals, give the same reports
        fs, kept = bound_three
        dies = cmon_die_universe(3)
        copies = {id(s): replace(s, monoid=replace(s.monoid)) for s in dies}
        copied = [f for s in dies for t in dies
                  for f in dd_functors_between(copies[id(s)], copies[id(t)])]
        mixed = [f if i % 2 else c for i, (f, c) in enumerate(zip(fs, copied))]
        assert copied == fs and not any(a is b for a, b in zip(copied, fs))
        want = restrict_identity_constraint(fs, bound=3)[1].to_payload()
        for functors in (copied, mixed):
            assert restrict_identity_constraint(functors, bound=3)[1].to_payload() == want
            dropped = functors[:kept] + functors[kept + 1 :]
            assert self._comparison_findings(dropped)["full"] is False
            assert self._comparison_findings(functors + [fs[kept]])["faithful"] is False

    def test_universe_one_cells_are_the_functor_sweep(self):
        # the restriction's functors are the universe's 1-cells, in order:
        # each key is the (map, m) of the swept functor at its position,
        # the same map object, and its target monoid
        swept = _universe_functors(3)
        one_cells = keyed_one_cells(two_truncation_universe(3)[1])
        assert len(one_cells) == len(swept) == 416
        assert all(
            key == (g.map, g.m, g.target.monoid) and key[0] is g.map
            for (_, _, key), g in zip(one_cells, swept)
        )

    def test_few_functors_fail_surjectivity(self, bound_three):
        fs, _ = bound_three
        assert self._comparison_findings(fs[:3])["surjective"] is False

    @pytest.mark.parametrize("bound", [0, -1])
    def test_a_bound_below_one_is_refused(self, bound):
        # with no instance, full, faithful and surjective would hold vacuously
        fs = _universe_functors(2)
        with pytest.raises(StructuralError, match=f"^bound {bound} is below 1: the universe would be empty$"):
            restrict_identity_constraint(fs, bound=bound)
