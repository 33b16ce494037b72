import copy
import functools
import gc
import itertools
import pickle
import random
import tracemalloc
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deglab import monoids
from deglab.doubly import (
    build_ddbicat,
    dd_functors_between,
    extract_cmon_die,
    two_truncation_universe,
)
from deglab.examples import bool_or_monoid, sign_category, trivial_monoid, zmod
from deglab.monoidal import enumerate_monoidal_functors
from deglab.monoids import (
    CMonDIE,
    FiniteMonoid,
    MonoidHom,
    canonical_form,
    check_cmon_die,
    cmon_die_universe,
    check_commutative,
    check_hom,
    check_monoid,
    enumerate_dies,
    enumerate_homs,
    enumerate_monoids,
    hom_maps,
    identity_hom,
    invert,
    make_cmon_die,
    max_enumeration_size,
    units,
    _unital_associative_tables,
)
from deglab.report import InvalidStructureError, StructuralError
from deglab.serialize import canonical_dumps, to_payload
from samples import compose_homs, left_padded_monoid, product_square


def brute_force_monoid_tables(n):
    """Raw oracle: every function table, filtered by direct law evaluation."""
    for flat in itertools.product(range(n), repeat=n * n):
        table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        unit = None
        for u in range(n):
            if all(table[u][x] == x and table[x][u] == x for x in range(n)):
                unit = u
                break
        if unit is None:
            continue
        if all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            yield table, unit


def relabelings(mul):
    """Every relabeled table, flattened, with no early abort."""
    n = len(mul)
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        yield tuple(perm[mul[inv[i]][inv[j]]] for i in range(n) for j in range(n))


def max_canonical_form(mul):
    """Alternative canonicalization: lexicographically maximal relabeling."""
    return max(relabelings(mul))


def relabel(mul, perm):
    """The table with each element x renamed perm[x]."""
    inv = _inverse(perm)
    return tuple(tuple(perm[mul[x][y]] for y in inv) for x in inv)


def idempotent_fibers(mul):
    """{a: #{x : a*x = a}} over the idempotents a of a table."""
    return {a: mul[a].count(a) for a in range(len(mul)) if mul[a][a] == a}


def with_zero(m):
    """The table of m with an absorbing element adjoined as index m.size."""
    z = m.size
    return tuple(
        tuple(z if z in (x, y) else m.mul[x][y] for y in range(z + 1)) for x in range(z + 1)
    )


@st.composite
def tables_with_idempotents(draw, n):
    """An n x n table over range(n) with a drawn nonempty set of elements
    made idempotent, so the fiber counts of several idempotents can tie."""
    rows = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    for a in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        rows[a][a] = a
    return tuple(map(tuple, rows))


@functools.cache
def unit0_associative_tables(n):
    """Raw oracle: every table with unit 0, filtered by associativity."""
    out = []
    for flat in itertools.product(range(n), repeat=(n - 1) ** 2):
        table = [tuple(range(n))]
        for x in range(1, n):
            table.append((x,) + flat[(x - 1) * (n - 1) : x * (n - 1)])
        if all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(1, n)
            for y in range(1, n)
            for z in range(1, n)
        ):
            out.append(tuple(table))
    return out


def reference_enumeration(n, commutative_only):
    """Every unit-0 monoid table, deduplicated by canonical form, sorted."""
    keys = set()
    for table in unit0_associative_tables(n):
        if commutative_only and any(
            table[x][y] != table[y][x] for x in range(n) for y in range(n)
        ):
            continue
        keys.add(canonical_form(table))
    out = []
    for key in sorted(keys):
        table = tuple(key[i * n : (i + 1) * n] for i in range(n))
        unit = next(
            u for u in range(n) if all(table[u][x] == x == table[x][u] for x in range(n))
        )
        out.append(FiniteMonoid(n, unit, table))
    return out


def full_scan_unital_associative_tables(n, commutative_only):
    """Reference copy of the orderly search before its preimage index.

    The same traversal and lex-leader pruning as `_unital_associative_tables`,
    but each placement re-checks its associativity triples by scanning the
    whole table for the cells whose value is x or y.
    """
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    if commutative_only:
        cells = [(x, y) for (x, y) in cells if x <= y]
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = i
        table[i][0] = i
    inner = range(1, n)
    images = []
    for tail in itertools.islice(itertools.permutations(inner), 1, None):
        p = (0,) + tail
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        images.append((p, [(table[x], y, table[inv[x]], inv[y]) for x in inner for y in inner]))

    def undecided(live):
        out = []
        for image in live:
            p, pairs = image
            for row, y, image_row, image_y in pairs:
                a = row[y]
                b = image_row[image_y]
                if a is None or b is None:
                    out.append(image)
                    break
                b = p[b]
                if b != a:
                    if b < a:
                        return None
                    break
            else:
                out.append(image)
        return out

    def triple_ok(a, b, c):
        ab = table[a][b]
        if ab is None:
            return True
        bc = table[b][c]
        if bc is None:
            return True
        lhs = table[ab][c]
        rhs = table[a][bc]
        if lhs is None or rhs is None:
            return True
        return lhs == rhs

    def consistent_after(x, y):
        for c in range(n):
            if not triple_ok(x, y, c):
                return False
        for a in range(n):
            if not triple_ok(a, x, y):
                return False
        for a in range(n):
            for b in range(n):
                if table[a][b] == x and not triple_ok(a, b, y):
                    return False
        for b in range(n):
            for c in range(n):
                if table[b][c] == y and not triple_ok(x, b, c):
                    return False
        return True

    def place(k, live):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        x, y = cells[k]
        for v in range(n):
            table[x][y] = v
            if commutative_only:
                table[y][x] = v
            if consistent_after(x, y) and (not commutative_only or consistent_after(y, x)):
                still = undecided(live)
                if still is not None:
                    yield from place(k + 1, still)
        table[x][y] = None
        if commutative_only:
            table[y][x] = None

    yield from place(0, images)


class TestCheckMonoid:
    def test_trivial(self):
        assert check_monoid([[0]], 0).ok

    def test_two_element_group(self):
        assert check_monoid([[0, 1], [1, 0]], 0).ok

    def test_bool_or(self):
        assert check_monoid([[0, 1], [1, 1]], 0).ok

    def test_unit_law_failure_located(self):
        rep = check_monoid([[0, 1], [0, 0]], 0)
        assert not rep.ok
        assert any(v.axiom == "unit" and v.where == (1,) for v in rep.violations)

    def test_structural_errors_are_not_axiom_failures(self):
        for table, unit, message in (
            ([[0, 1]], 0, "mul/0: expected 1 entries, got 2"),
            ([[0, 9], [1, 0]], 0, "mul/0/1: index 9 out of range(2)"),
            ([[0, 1], [1, 0]], 0.5, "unit: expected int, got float"),
            ([[0, "1"], [1, 0]], 0, "mul/0/1: expected int, got str"),
            ([[0, 1], [1, 0]], True, "unit: expected int, got bool"),
            ([], 0, "unit: index 0 out of range(0)"),
            (7, 0, "mul: expected list, got int"),
        ):
            rep = check_monoid(table, unit)
            assert not rep.well_formed and not rep.violations
            assert [(v.axiom, v.message) for v in rep.structural] == [("shape", message)]

    def test_constructor_rejects_bad_shape(self):
        with pytest.raises(StructuralError):
            FiniteMonoid(2, 0, ((0, 1),))
        with pytest.raises(StructuralError):
            FiniteMonoid(2, 5, ((0, 1), (1, 0)))

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_associativity_agrees_with_reversed_loop_order(self, n, data):
        flat = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        rep = check_monoid(table, 0)
        # independent route: reversed loop nesting, boolean only
        ok_unit = all(table[0][x] == x and table[x][0] == x for x in range(n))
        ok_assoc = all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for z in range(n)
            for y in range(n)
            for x in range(n)
        )
        assert rep.ok == (ok_unit and ok_assoc)


class TestCommutativityAndInverses:
    def test_zmod2_commutative(self):
        assert check_commutative(zmod(2)) == []

    def test_bool_or_commutative(self):
        assert check_commutative(bool_or_monoid()) == []

    def test_left_padded_violations(self):
        # a*b = a while b*a = b, with indices a=1, b=2
        assert check_commutative(left_padded_monoid()) == [(1, 2)]

    def test_invert_order_two(self):
        assert invert(zmod(2), 1) == 1

    def test_invert_unit(self):
        for m in (zmod(2), bool_or_monoid(), left_padded_monoid()):
            assert invert(m, m.unit) == m.unit

    def test_bool_or_top_not_invertible(self):
        assert invert(bool_or_monoid(), 1) is None

    def test_invert_symmetric(self):
        for m in (zmod(4), zmod(6)):
            for x in units(m):
                y = invert(m, x)
                assert invert(m, y) == x


class TestHoms:
    def test_identity_valid(self):
        assert check_hom(identity_hom(zmod(2))).ok

    def test_constant_to_unit_valid(self):
        m, n = left_padded_monoid(), zmod(2)
        assert check_hom(MonoidHom(m, n, (0, 0, 0))).ok

    def test_swap_is_not_a_hom(self):
        rep = check_hom(MonoidHom(zmod(2), zmod(2), (1, 0)))
        assert not rep.ok
        assert any(v.axiom == "unit-preservation" for v in rep.violations)

    @pytest.mark.parametrize(
        "source, target, hmap, findings",
        [
            (zmod(4), zmod(4), (0, 2, 1, 3), [
                ("multiplicativity", (1, 1), "h(11) = 1 != 0"),
                ("multiplicativity", (1, 3), "h(13) = 0 != 1"),
                ("multiplicativity", (2, 2), "h(22) = 0 != 2"),
                ("multiplicativity", (2, 3), "h(23) = 2 != 0"),
                ("multiplicativity", (3, 1), "h(31) = 0 != 1"),
                ("multiplicativity", (3, 2), "h(32) = 2 != 0"),
                ("multiplicativity", (3, 3), "h(33) = 1 != 2"),
            ]),
            (zmod(3), zmod(3), (1, 1, 2), [
                ("unit-preservation", (0,), "unit maps to 1"),
                ("multiplicativity", (0, 0), "h(00) = 1 != 2"),
                ("multiplicativity", (0, 1), "h(01) = 1 != 2"),
                ("multiplicativity", (0, 2), "h(02) = 2 != 0"),
                ("multiplicativity", (1, 0), "h(10) = 1 != 2"),
                ("multiplicativity", (1, 2), "h(12) = 1 != 0"),
                ("multiplicativity", (2, 0), "h(20) = 2 != 0"),
                ("multiplicativity", (2, 1), "h(21) = 1 != 0"),
            ]),
            (zmod(3), bool_or_monoid(), (0, 1, 1), [
                ("multiplicativity", (1, 2), "h(12) = 0 != 1"),
                ("multiplicativity", (2, 1), "h(21) = 0 != 1"),
            ]),
        ],
    )
    def test_findings_in_row_major_order(self, source, target, hmap, findings):
        rep = check_hom(MonoidHom(source, target, hmap))
        assert [(v.axiom, v.where, v.message) for v in rep.violations] == findings

    def test_composition_closure(self):
        m = zmod(4)
        n = zmod(2)
        for f in enumerate_homs(m, n):
            for g in enumerate_homs(n, m):
                assert check_hom(compose_homs(g, f)).ok

    def test_enumeration_matches_raw_scan(self):
        m, n = zmod(4), zmod(2)
        raw = []
        for image in itertools.product(range(2), repeat=4):
            h = MonoidHom(m, n, image)
            if check_hom(h).ok:
                raw.append(image)
        assert sorted(h.map for h in enumerate_homs(m, n)) == sorted(raw)

    def test_homs_are_slotted_and_copy_by_value(self):
        m, n = zmod(4), zmod(2)
        hom_maps(m, n)  # warm memos on the ends, which no copy of a hom may carry
        built = MonoidHom(m, n, (0, 1, 0, 1))
        trusted = MonoidHom._trusted(m, n, (0, 1, 0, 1))
        assert trusted == built and hash(trusted) == hash(built)
        assert identity_hom(m) == MonoidHom(m, m, range(4))
        assert MonoidHom.__slots__ == ("source", "target", "map")
        for h in (built, trusted):
            assert not hasattr(h, "__dict__")
            for other in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
                assert other == h and type(other) is MonoidHom and check_hom(other).ok
            with pytest.raises(AttributeError):
                h.map = (0, 0, 0, 0)
            with pytest.raises(AttributeError):
                object.__setattr__(h, "note", 1)


def unit_preserving_homs(source, target):
    """Oracle: every unit-preserving map, in lex order, kept if `check_hom` passes."""
    out = []
    for image in itertools.product(range(target.size), repeat=source.size):
        if image[source.unit] == target.unit:
            h = MonoidHom(source, target, image)
            if check_hom(h).ok:
                out.append(h)
    return out


def replaced_hom_maps(source, target):
    """Reference copy of the homomorphism search before its compiled kernel.

    The same placement order and equation buckets as `hom_maps`: the unit
    first, then index order, each equation h(ab) = h(a)h(b) checked at the
    step that places the last of a, b and ab; but interpreted by a
    recursive walk, with the unit equations kept for every element.
    """
    n, unit = source.size, source.unit
    order = (unit,) + tuple(x for x in range(n) if x != unit)
    step = {x: k for k, x in enumerate(order)}
    buckets = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ab = source.mul[a][b]
            buckets[max(step[a], step[b], step[ab])].append((a, b, ab))
    tmul = target.mul
    values, unit_image = range(target.size), (target.unit,)
    image = [0] * n
    maps = []

    def extend(k):
        x, eqs = order[k], buckets[k]
        for v in values if k else unit_image:
            image[x] = v
            for a, b, ab in eqs:
                if tmul[image[a]][image[b]] != image[ab]:
                    break
            else:
                if k == n - 1:
                    maps.append(tuple(image))
                else:
                    extend(k + 1)

    extend(0)
    return tuple(maps)


def unit_law_failure(m):
    """Which sides of the unit law fail for m's designated unit: a subset
    of {"left", "right"}."""
    u, mul = m.unit, m.mul
    sides = set()
    if any(mul[u][x] != x for x in range(m.size)):
        sides.add("left")
    if any(mul[x][u] != x for x in range(m.size)):
        sides.add("right")
    return frozenset(sides)


def unit_law_tables():
    """Every 2-element table with each unit, plus a seeded sample of
    3-element tables: three whose unit fails on the left only, three on the
    right only, three on both sides and three where it holds."""
    out = [
        FiniteMonoid(2, u, (flat[:2], flat[2:]))
        for flat in itertools.product(range(2), repeat=4)
        for u in range(2)
    ]
    rng = random.Random(30)
    want = dict.fromkeys(map(frozenset, [(), ("left",), ("right",), ("left", "right")]), 3)
    while any(want.values()):
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        m = FiniteMonoid(3, rng.randrange(3), rows)
        kind = unit_law_failure(m)
        if want[kind]:
            want[kind] -= 1
            out.append(m)
    return out


class TestHomSearch:
    def test_matches_oracle_on_every_pair_up_to_size_three(self):
        ms = [m for n in (1, 2, 3) for m in enumerate_monoids(n)]
        assert {m.unit for m in ms} == {0, 1, 2}  # sources whose unit is not 0
        for a in ms:
            for b in ms:
                want = unit_preserving_homs(a, b)
                maps = hom_maps(a, b)
                assert type(maps) is tuple and maps == tuple(h.map for h in want)
                assert all(type(h) is tuple and all(type(v) is int for v in h) for h in maps)
                homs = enumerate_homs(a, b)
                assert homs == want
                assert all(h.source is a and h.target is b for h in homs)

    def test_matches_oracle_on_commutative_size_four(self):
        ms = enumerate_monoids(4, commutative_only=True)
        assert len(ms) == 19 and {m.unit for m in ms} == {0, 1, 2, 3}
        for a in ms:
            for b in ms:
                assert enumerate_homs(a, b) == unit_preserving_homs(a, b)

    def test_matches_oracle_on_relabeled_sources_and_targets(self):
        # every relabeling of two size-3 monoids, so the unit sits at each index
        for m in enumerate_monoids(3):
            for perm in itertools.permutations(range(3)):
                inv = [perm.index(i) for i in range(3)]
                table = [[perm[m.mul[inv[i]][inv[j]]] for j in range(3)] for i in range(3)]
                r = FiniteMonoid(3, perm[m.unit], table)
                for other in (zmod(3), bool_or_monoid()):
                    assert enumerate_homs(r, other) == unit_preserving_homs(r, other)
                    assert enumerate_homs(other, r) == unit_preserving_homs(other, r)

    def test_totals(self):
        ms = [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
        assert len(ms) == 45
        assert sum(len(enumerate_homs(a, b)) for a in ms for b in ms) == 7894
        ds = list(dict.fromkeys(s.monoid for s in cmon_die_universe(5)))
        assert len(ds) == 105
        assert sum(len(enumerate_homs(a, b)) for a in ds for b in ds) == 71407

    def test_matches_the_replaced_search_on_every_pair_up_to_size_four(self):
        ms = [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
        for a in ms:
            for b in ms:
                assert hom_maps(a, b) == replaced_hom_maps(a, b)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_the_replaced_search_on_product_sources(self, n):
        # the size-9 and size-16 sources of sweeps.raw_collapse
        ms = enumerate_monoids(n)
        for m in ms:
            square = product_square(m)
            assert square.size == n * n
            for target in ms:
                assert hom_maps(square, target) == replaced_hom_maps(square, target)

    def test_unit_law_failures_match_the_oracle(self):
        # the kernel draws h(x) from the target's unit-law values only for
        # the x that satisfy the unit law in the source; a table whose unit
        # fails on one side, or both, must still give the plain search's maps
        tables = unit_law_tables()
        kinds = {tuple(sorted(unit_law_failure(m))) for m in tables}
        assert kinds == {(), ("left",), ("right",), ("left", "right")}
        for a in tables:
            for b in tables:
                want = tuple(h.map for h in unit_preserving_homs(a, b))
                assert hom_maps(a, b) == want == replaced_hom_maps(a, b)

    def test_kernel_text_holds_no_table_value(self):
        # every index of the table is a variable name h0 ... h<n-1>, so the
        # compiled code has no int constant
        def constants(code):
            for c in code.co_consts:
                if hasattr(c, "co_consts"):
                    yield from constants(c)
                else:
                    yield c

        for m in [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)] + unit_law_tables():
            kernel = monoids._compile_hom_kernel(m)
            assert not any(type(c) is int for c in constants(kernel.__code__))

    def test_cached_plan_invisible_to_equality_hash_repr_and_json(self):
        fresh, used = zmod(4), zmod(4)
        enumerate_homs(used, zmod(2))
        assert "_hom_kernel" in vars(used)
        assert set(vars(used)) > {"size", "unit", "mul"} == set(vars(fresh))
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert canonical_dumps(to_payload(used)) == canonical_dumps(to_payload(fresh))
        assert set(vars(replace(used))) == {"size", "unit", "mul"}


class TestProcessMemos:
    @staticmethod
    def count_searches(monkeypatch):
        calls = []
        search = monoids._search_hom_maps

        def counted(source, target):
            calls.append((source, target))
            return search(source, target)

        monkeypatch.setattr(monoids, "_search_hom_maps", counted)
        return calls

    def test_hom_maps_searches_once_per_pair_of_objects(self, monkeypatch):
        s, t = replace(enumerate_monoids(3)[2]), enumerate_monoids(3)[4]
        calls = self.count_searches(monkeypatch)
        maps = hom_maps(s, t)
        assert maps and hom_maps(s, t) is maps and len(calls) == 1
        # a copy, or an equal table built anew, is a different object: its
        # own search, with the equal hom-set, which is the one interned tuple
        for other in (replace(t), FiniteMonoid(t.size, t.unit, t.mul)):
            again = hom_maps(s, other)
            assert calls[-1] == (s, other) and again == maps and again is maps
            assert hom_maps(s, other) is again and hom_maps(s, t) is maps
        assert len(calls) == 3
        copied = hom_maps(replace(s), t)
        assert len(calls) == 4 and copied is maps

    def test_one_kernel_compile_per_source_object(self, monkeypatch):
        calls = []
        compile_kernel = monoids._compile_hom_kernel

        def counted(source):
            calls.append(source)
            return compile_kernel(source)

        monkeypatch.setattr(monoids, "_compile_hom_kernel", counted)
        s, targets = replace(enumerate_monoids(3)[2]), enumerate_monoids(3)
        maps = [hom_maps(s, t) for t in targets]
        # new target objects are searched again, with the same kernel
        assert [hom_maps(s, replace(t)) for t in targets] == maps
        assert len(calls) == 1 and calls[0] is s
        kernel = s._hom_kernel
        # a copy starts without the kernel and compiles its own
        copied = replace(s)
        assert "_hom_kernel" not in vars(copied)
        assert hom_maps(copied, targets[0]) is maps[0]
        assert len(calls) == 2 and calls[1] is copied and copied._hom_kernel is not kernel
        assert s._hom_kernel is kernel

    def test_a_transient_target_lives_as_long_as_its_source(self):
        s = replace(zmod(4))
        t = replace(zmod(2))
        alive = weakref.ref(t)
        maps = hom_maps(s, t)
        del t
        gc.collect()
        # the memoized id cannot pass to another object: its entry holds it
        assert alive() is not None
        kept_target, kept_maps = s._hom_maps[id(alive())]
        assert kept_target is alive() and kept_maps is maps
        assert hom_maps(s, alive()) is maps
        del s, kept_target
        gc.collect()
        assert alive() is None

    def test_equal_maps_and_hom_sets_are_one_object(self):
        ms = [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
        homs = [hom_maps(a, b) for a in ms for b in ms]
        maps = [h for hom in homs for h in hom]
        assert len(maps) == 7894
        assert all(type(hom) is tuple for hom in homs)
        assert all(type(h) is tuple for h in maps)
        assert len({id(hom) for hom in homs}) == len(set(homs)) == 509
        assert len({id(h) for h in maps}) == len(set(maps)) == 215
        # a map found in two distinct hom-sets is one object in both
        seen, shared = {}, 0
        for hom in set(homs):
            for h in hom:
                shared += h in seen
                assert seen.setdefault(h, h) is h
        assert shared > 0

    def test_a_first_sweep_holds_under_100_bytes_per_map(self):
        ms = [replace(m) for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            count = sum(len(hom_maps(a, b)) for a in ms for b in ms)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert count == 7894
        assert held / count < 100

    def test_enumeration_returns_a_new_list_of_the_same_instances(self):
        first = enumerate_monoids(3)
        again = enumerate_monoids(3)
        assert first is not again and len(first) == 7
        assert all(a is b for a, b in zip(first, again))
        first.clear()
        again.append(zmod(2))
        assert len(enumerate_monoids(3)) == 7
        plain, commutative = enumerate_monoids(2), enumerate_monoids(2, commutative_only=True)
        assert plain == commutative and all(a is b for a, b in zip(plain, commutative))

    @pytest.mark.parametrize("commutative_first", [False, True])
    def test_the_two_enumerations_share_each_class(self, monkeypatch, commutative_first):
        want = {c: enumerate_monoids(4, commutative_only=c) for c in (False, True)}
        searches = []
        search = monoids._unital_associative_tables

        def counted(n, commutative_only):
            searches.append((n, commutative_only))
            return search(n, commutative_only)

        monkeypatch.setattr(monoids, "_CLASSES", {})
        monkeypatch.setattr(monoids, "_unital_associative_tables", counted)
        got = {}
        for c in (commutative_first, not commutative_first):
            got[c] = enumerate_monoids(4, commutative_only=c)
            assert got[c] == want[c] and all(a is not b for a, b in zip(got[c], want[c]))
        assert searches == [(4, commutative_first), (4, not commutative_first)]
        plain, commutative = got[False], got[True]
        assert len(plain) == 35 and len(commutative) == 19
        by_table = {m.mul: m for m in plain}
        assert all(by_table[m.mul] is m for m in commutative)
        assert sum(any(m is c for c in commutative) for m in plain) == 19

    def test_bound_is_read_on_every_call(self, monkeypatch):
        assert len(enumerate_monoids(3)) == 7 and cmon_die_universe(3)
        monkeypatch.setenv("DEGLAB_MAX_SIZE", "2")
        with pytest.raises(StructuralError, match="exceeds bound 2"):
            enumerate_monoids(3)
        with pytest.raises(StructuralError, match="exceeds bound 2"):
            cmon_die_universe(3)
        assert len(enumerate_monoids(2)) == 2

    @pytest.mark.parametrize("n", [1.0, True, "1"])
    def test_size_must_be_an_exact_int(self, n):
        enumerate_monoids(1)
        with pytest.raises(StructuralError, match="enumeration size"):
            enumerate_monoids(n)

    def test_die_universes_share_their_dies(self):
        small, large = cmon_die_universe(3), cmon_die_universe(4)
        assert len(small) < len(large)
        assert all(a is b for a, b in zip(small, large))
        m = small[-1].monoid
        dies = enumerate_dies(m)
        assert dies is not enumerate_dies(m)
        assert all(a is b for a, b in zip(dies, enumerate_dies(m)))
        assert [s for s in small if s.monoid is m] == dies

    def test_die_memo_invisible_to_equality_hash_and_copies(self):
        fresh, used = zmod(3), zmod(3)
        enumerate_dies(used)
        assert "_dies" in vars(used) and used == fresh and hash(used) == hash(fresh)
        assert enumerate_dies(replace(used)) == enumerate_dies(used)
        assert "_dies" not in vars(replace(used))

    COPIES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda x: pickle.loads(pickle.dumps(x)),
        "replace": replace,
    }

    @pytest.mark.parametrize("route", sorted(COPIES))
    def test_copies_carry_the_fields_and_no_memo(self, route):
        s = cmon_die_universe(3)[5]
        m = s.monoid
        enumerate_dies(m)
        hom_maps(m, m)
        dd_functors_between(s, s)  # the functors interned on s
        monoid_fields, die_fields = {"size", "unit", "mul"}, {"monoid", "die", "die_inv"}
        assert set(vars(m)) > monoid_fields and set(vars(s)) > die_fields
        assert {"_hom_kernel", "_hom_maps", "_dies"} <= set(vars(m))
        for obj, fields in ((m, monoid_fields), (s, die_fields)):
            c = self.COPIES[route](obj)
            assert c is not obj and c == obj and hash(c) == hash(obj) and repr(c) == repr(obj)
            assert set(vars(c)) == fields
        c = self.COPIES[route](s)
        if route in ("copy", "replace"):
            assert c.monoid is m
        else:
            assert set(vars(c.monoid)) == monoid_fields

    # per class that keeps values beside its fields: a fresh instance, and
    # how to make it keep them
    KEEPERS = {
        "FiniteMonoid": (lambda: replace(zmod(4)), lambda m: (hom_maps(m, m), enumerate_dies(m))),
        "CMonDIE": (lambda: make_cmon_die(zmod(3), 2), lambda s: dd_functors_between(s, s)),
        "FinMonoidalCategory": (sign_category, lambda c: enumerate_monoidal_functors(c, c)),
        "DDBicat": (lambda: build_ddbicat(make_cmon_die(zmod(3), 2)), extract_cmon_die),
        "FiniteJCategory": (lambda: two_truncation_universe(2)[3].source, lambda x: x.hom(1, 0, 0)),
    }

    @pytest.mark.parametrize(
        "name, route",
        [*itertools.product(sorted(set(KEEPERS) - {"FiniteJCategory"}), sorted(COPIES))]
        + [("FiniteJCategory", "replace")],  # its tables compose by closures
    )
    def test_a_copy_starts_without_kept_values(self, name, route):
        make, warm = self.KEEPERS[name]
        obj = make()
        names = {f.name for f in fields(obj)}
        warm(obj)
        held = set(vars(obj)) - names
        assert held
        c = self.COPIES[route](obj)
        assert c is not obj and set(vars(c)) == names
        if name != "FiniteJCategory":  # its tables compare by identity
            assert c == obj and hash(c) == hash(obj)
        # the copy builds values of its own and leaves the original's alone
        before = {k: vars(obj)[k] for k in held}
        warm(c)
        assert set(vars(c)) - names and all(vars(c)[k] is not before[k] for k in set(vars(c)) - names)
        assert all(vars(obj)[k] is v for k, v in before.items())

    @pytest.mark.parametrize("route", sorted(COPIES))
    def test_dies_of_a_copy_are_on_the_copy(self, route):
        m = enumerate_monoids(3, commutative_only=True)[-1]
        dies = enumerate_dies(m)
        assert dies and all(d.monoid is m for d in dies)
        c = self.COPIES[route](m)
        copied = enumerate_dies(c)
        assert copied == dies and all(d.monoid is c for d in copied)
        assert all(a is b for a, b in zip(dies, enumerate_dies(m)))

    def test_a_warm_monoid_pickles_to_its_fields(self):
        ms = [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
        for a in ms:
            for b in ms:
                hom_maps(a, b)
        warm = ms[-1]
        enumerate_dies(warm)
        assert "_hom_kernel" in vars(warm)
        fresh = FiniteMonoid(warm.size, warm.unit, warm.mul)
        assert pickle.dumps(warm) == pickle.dumps(fresh)


class TestMaxSize:
    @pytest.mark.parametrize("raw, bound", [("", 5), ("0", 0), ("4", 4), ("007", 7)])
    def test_digits_and_the_default(self, monkeypatch, raw, bound):
        monkeypatch.setenv("DEGLAB_MAX_SIZE", raw)
        assert max_enumeration_size() == bound


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_monoids(1)) == 1
        assert len(enumerate_monoids(2)) == 2
        assert len(enumerate_monoids(3)) == 7
        assert len(enumerate_monoids(3, commutative_only=True)) == 5
        # independent oracle: OEIS A058129 (monoids) and A058131 (commutative)
        assert len(enumerate_monoids(4)) == 35
        assert len(enumerate_monoids(4, commutative_only=True)) == 19
        assert len(enumerate_monoids(5)) == 228
        assert len(enumerate_monoids(5, commutative_only=True)) == 78

    def test_order_six_commutative_count(self, monkeypatch):
        # OEIS A058131; the plain count at order 6 (2237, A058129) is checked in CI
        monkeypatch.setenv("DEGLAB_MAX_SIZE", "6")
        assert len(enumerate_monoids(6, commutative_only=True)) == 421

    @pytest.mark.parametrize("commutative_only", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_search_yields_one_table_per_class(self, n, commutative_only):
        tables = list(_unital_associative_tables(n, commutative_only))
        assert len(tables) == len({canonical_form(t) for t in tables})
        for t in tables:
            assert check_monoid(t, 0).ok

    @pytest.mark.parametrize(
        "n, commutative_only",
        [(n, c) for n in range(1, 6) for c in (False, True)] + [(6, True)],
    )
    def test_search_matches_full_scan_reference(self, n, commutative_only):
        # the same tables in the same order as the search without its index
        assert list(_unital_associative_tables(n, commutative_only)) == list(
            full_scan_unital_associative_tables(n, commutative_only)
        )

    @pytest.mark.parametrize("commutative_only", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dedupe_of_every_unit0_table(self, n, commutative_only):
        assert enumerate_monoids(n, commutative_only) == reference_enumeration(
            n, commutative_only
        )

    def test_size_two_contains_both_classes_once(self):
        tables = {m.mul for m in enumerate_monoids(2)}
        assert canonical_form(zmod(2).mul) in {canonical_form(t) for t in tables}
        assert canonical_form(bool_or_monoid().mul) in {canonical_form(t) for t in tables}
        assert len(tables) == 2

    def test_recount_against_raw_oracle_n3(self):
        # independent enumeration: raw product scan, different canonicalization
        classes = {max_canonical_form(t) for t, _ in brute_force_monoid_tables(3)}
        assert len(classes) == len(enumerate_monoids(3)) == 7
        commutative = {
            max_canonical_form(t)
            for t, _ in brute_force_monoid_tables(3)
            if all(t[x][y] == t[y][x] for x in range(3) for y in range(3))
        }
        assert len(commutative) == len(enumerate_monoids(3, commutative_only=True)) == 5

    def test_all_outputs_valid_and_pairwise_nonisomorphic(self):
        for n in (2, 3, 4):
            ms = enumerate_monoids(n)
            for m in ms:
                assert check_monoid(m.mul, m.unit).ok
            forms = [canonical_form(m.mul) for m in ms]
            assert len(forms) == len(set(forms))

    def test_bound_refusal(self, monkeypatch):
        monkeypatch.setenv("DEGLAB_MAX_SIZE", "3")
        with pytest.raises(StructuralError):
            enumerate_monoids(4)
        monkeypatch.delenv("DEGLAB_MAX_SIZE")

    @given(st.sampled_from(enumerate_monoids(3)), st.permutations(list(range(3))))
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_is_permutation_invariant(self, m, perm):
        relabeled = tuple(
            tuple(perm[m.mul[x][y]] for y in _inverse(perm)) for x in _inverse(perm)
        )
        assert canonical_form(relabeled) == canonical_form(m.mul)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_lex_min_over_all_relabelings(self, n, data):
        m = data.draw(st.sampled_from(enumerate_monoids(n)))
        perm = data.draw(st.permutations(list(range(n))))
        relabeled = tuple(
            tuple(perm[m.mul[x][y]] for y in _inverse(perm)) for x in _inverse(perm)
        )
        assert canonical_form(relabeled) == min(relabelings(relabeled))

    @pytest.mark.parametrize("commutative_only", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_form_matches_brute_force_on_every_class(self, n, commutative_only):
        # each class under one seeded random relabeling, so the unit and the
        # idempotents tried as label 0 sit at arbitrary indices
        rng = random.Random(n * 2 + commutative_only)
        for m in enumerate_monoids(n, commutative_only):
            perm = list(range(n))
            rng.shuffle(perm)
            inv = _inverse(perm)
            relabeled = tuple(tuple(perm[m.mul[x][y]] for y in inv) for x in inv)
            form = canonical_form(relabeled)
            assert form == min(relabelings(relabeled))
            assert form == tuple(v for row in m.mul for v in row)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_form_without_idempotents(self, n):
        # x*y = x+1 mod n has no idempotent, so every element is tried as label 0
        table = tuple(tuple((x + 1) % n for _ in range(n)) for x in range(n))
        assert canonical_form(table) == min(relabelings(table))

    @pytest.mark.parametrize("table", [(), ((0,),)])
    def test_canonical_form_of_the_smallest_tables(self, table):
        assert canonical_form(table) == min(relabelings(table))

    def test_canonical_form_matches_brute_force_on_every_3x3_table(self):
        # all 3^9 tables, monoid or not, so every pattern of idempotents and
        # fiber counts at order 3 occurs
        for flat in itertools.product(range(3), repeat=9):
            table = (flat[0:3], flat[3:6], flat[6:9])
            assert canonical_form(table) == min(relabelings(table))

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_canonical_form_on_4x4_non_monoid_tables(self, tied, data):
        # tied: two or more idempotents share the largest fiber, so the
        # bound keeps several candidates for label 0
        table = data.draw(tables_with_idempotents(4))
        fibers = list(idempotent_fibers(table).values())
        assume((fibers.count(max(fibers)) > 1) == tied)
        assume(not any(check_monoid(table, u).ok for u in range(4)))
        assert canonical_form(table) == min(relabelings(table))

    @pytest.mark.parametrize("n", [4, 5])
    def test_canonical_form_of_a_group(self, n):
        # the unit is the only idempotent, so it alone is tried as label 0
        table = relabel(zmod(n).mul, [n - 1] + list(range(n - 1)))
        assert idempotent_fibers(table) == {n - 1: 1}
        form = canonical_form(table)
        assert form == min(relabelings(table)) == min(relabelings(zmod(n).mul))

    @pytest.mark.parametrize("m", [zmod(3), bool_or_monoid(), zmod(4)], ids=["z3", "or", "z4"])
    def test_canonical_form_of_a_table_with_a_zero(self, m):
        # the zero's fiber is every element, larger than any other idempotent's
        n = m.size + 1
        table = relabel(with_zero(m), [(x + 2) % n for x in range(n)])
        fibers = idempotent_fibers(table)
        assert [a for a, f in fibers.items() if f == max(fibers.values())] == [(m.size + 2) % n]
        form = canonical_form(table)
        assert form == min(relabelings(table)) and form[:n] == (0,) * n

    def test_enumerated_classes_are_built_trusted(self, monkeypatch):
        # a fresh class memo, so the classes are built here, with a counter on
        # the strict constructor's checks
        calls = []
        strict = FiniteMonoid.__post_init__

        def counted(self):
            calls.append(self)
            strict(self)

        monkeypatch.setattr(FiniteMonoid, "__post_init__", counted)
        monkeypatch.setattr(monoids, "_CLASSES", {})
        classes = [m for n in range(1, 6) for c in (False, True) for m in enumerate_monoids(n, c)]
        assert calls == [] and len(classes) == 1 + 2 + 7 + 35 + 228 + 1 + 2 + 5 + 19 + 78
        for m in classes:
            rebuilt = FiniteMonoid(m.size, m.unit, m.mul)
            assert rebuilt == m and hash(rebuilt) == hash(m) and repr(rebuilt) == repr(m)
            assert list(vars(m)) == ["size", "unit", "mul"]
            assert type(m.unit) is int and type(m.mul) is tuple
            assert all(type(row) is tuple and all(type(v) is int for v in row) for row in m.mul)
            assert check_monoid(m.mul, m.unit).ok
        assert len(calls) == len(classes)


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


class TestCMonDIE:
    def test_valid_example(self):
        assert check_cmon_die(make_cmon_die(zmod(2), 1)).ok

    def test_bad_inverse_witness(self):
        s = CMonDIE(zmod(2), 1, 0)  # g*e = g, not the unit
        rep = check_cmon_die(s)
        assert any(v.axiom == "die-invertible" for v in rep.violations)

    def test_noninvertible_die_rejected(self):
        with pytest.raises(InvalidStructureError):
            make_cmon_die(bool_or_monoid(), 1)

    def test_noncommutative_rejected(self):
        with pytest.raises(InvalidStructureError):
            make_cmon_die(left_padded_monoid(), 0)

    def test_die_enumeration(self):
        assert len(enumerate_dies(zmod(3))) == 3
        assert len(enumerate_dies(bool_or_monoid())) == 1
        assert enumerate_dies(left_padded_monoid()) == []

    def test_trivial_monoid_die(self):
        s = make_cmon_die(trivial_monoid(), 0)
        assert check_cmon_die(s).ok
