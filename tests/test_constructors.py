"""The one shape gate of the public constructors (`report.exact`).

Every int-holding field of every exported structure type is swapped, one
slot at a time, for a float, a bool, a numeric string, a negative int or an
out-of-range int, and the structure is built again.  Each must be refused
with a `StructuralError` naming the field: never accepted, never a
`TypeError` or `IndexError` from a later checker.
"""

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deglab import doubly, fincat, monads, monoidal, monoids
from deglab.degenerate import DegNatTrans
from deglab.report import StructuralError, exact
from samples import sample_structures

COUNT, FLAG = "count", "flag"


def _objects(c):
    return c.n_objects


def _arrows(c):
    return len(c.morphisms)


# per type, each int-holding field and what its leaves range over: a
# positive COUNT, a FLAG, or the number given; written out independently of
# the constructors, as the oracle for the out-of-range value
BOUNDS = {
    monoids.FiniteMonoid: lambda s: {"size": COUNT, "unit": s.size, "mul": s.size},
    monoids.MonoidHom: lambda h: {"map": h.target.size},
    monoids.CMonDIE: lambda s: {"die": s.monoid.size, "die_inv": s.monoid.size},
    doubly.DDBicat: lambda b: {
        "cells": COUNT,
        **dict.fromkeys(
            ("id2", "vcomp", "hcomp", "assoc", "assoc_inv")
            + ("lunit", "lunit_inv", "runit", "runit_inv"),
            b.cells,
        ),
    },
    doubly.DDFunctor: lambda f: dict.fromkeys(("map", "m", "m0"), f.target.monoid.size),
    doubly.DDTransformation: lambda t: {"sigma": t.source_functor.target.monoid.size},
    doubly.DDModification: lambda d: {
        "gamma": d.boundary.source_functor.target.monoid.size
    },
    DegNatTrans: lambda t: {"component": t.source_functor.target.size},
    fincat.FiniteCategory: lambda c: {
        "n_objects": COUNT,
        "morphisms": _objects(c),
        "identities": _arrows(c),
        "comp": _arrows(c),
    },
    fincat.CatFunctor: lambda f: {
        "object_map": _objects(f.target),
        "morphism_map": _arrows(f.target),
    },
    monads.FinMonad: lambda m: dict.fromkeys(("eta", "mu"), _arrows(m.endo.source)),
    monads.MonadFunctor: lambda f: {"phi": _arrows(f.u.target)},
    monads.MonadFunctorTransformation: lambda t: {"gamma": _arrows(t.source.u.target)},
    monoidal.FinMonoidalCategory: lambda mc: {
        "tensor_obj": _objects(mc.base),
        "unit_obj": _objects(mc.base),
        **dict.fromkeys(
            ("tensor_mor", "assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv"),
            _arrows(mc.base),
        ),
    },
    monoidal.DegenerateBicategory: lambda b: {
        "one_cells": COUNT,
        **dict.fromkeys(("two_cells", "hcomp_one", "unit_one"), b.one_cells),
        **dict.fromkeys(
            ("identities", "vcomp", "hcomp_two", "assoc", "assoc_inv")
            + ("lunit", "lunit_inv", "runit", "runit_inv"),
            len(b.two_cells),
        ),
    },
    monoidal.MonoidalFunctor: lambda f: dict.fromkeys(
        ("tensor_comparison", "unit_comparison"), _arrows(f.target.base)
    ),
    monoidal.DegTransformation: lambda t: {
        "dist_obj": _objects(t.source_functor.target.base),
        "components": _arrows(t.source_functor.target.base),
        "lax": FLAG,
        "oplax": FLAG,
    },
    monoidal.MonoidalTransformation: lambda t: {
        "components": _arrows(t.source_functor.target.base)
    },
    monoidal.DegModification: lambda d: {
        "gamma": _arrows(d.source_transformation.source_functor.target.base)
    },
}


def _collect():
    """Every structure of a type in BOUNDS reachable from the samples, each
    object once."""
    out, seen = [], {}

    def walk(obj):
        if not dataclasses.is_dataclass(obj) or id(obj) in seen:
            return
        # hold each walked object, so its id cannot be reused by a later sample
        seen[id(obj)] = obj
        if type(obj) in BOUNDS:
            out.append(obj)
        for f in dataclasses.fields(obj):
            walk(getattr(obj, f.name))

    for root in sample_structures():
        walk(root)
    return out


STRUCTURES = _collect()


def _leaves(v, path=()):
    """(path, leaf) of every int or bool leaf of a field value."""
    if isinstance(v, tuple):
        for i, x in enumerate(v):
            yield from _leaves(x, path + (i,))
    elif type(v) in (int, bool):
        yield path, v


def _slots(obj):
    """(field, path, old value, bound) of every int or bool slot."""
    bounds = BOUNDS[type(obj)](obj)
    return [
        (name, path, old, bound)
        for name, bound in bounds.items()
        for path, old in _leaves(getattr(obj, name))
    ]


def _bad_values(old, bound):
    """A float, a bool, a numeric string, a negative int and an out-of-range
    int for a slot holding `old`; for a flag, the int, float and string
    look-alikes of the bool."""
    if bound == FLAG:
        return [int(old), float(old), str(old), -1]
    look_alike = bool(old) if old in (0, 1) else True
    return [float(old), look_alike, str(old), -1, 0 if bound == COUNT else bound]


def _swapped(v, path, new):
    if not path:
        return new
    i = path[0]
    return v[:i] + (_swapped(v[i], path[1:], new),) + v[i + 1 :]


def _assert_refused(obj, name, path, bad):
    new = _swapped(getattr(obj, name), path, bad)
    with pytest.raises(StructuralError) as exc:
        replace(obj, **{name: new})
    head = str(exc.value).split(":")[0].split("/")
    assert head[0] == name, (type(obj).__name__, name, path, bad, str(exc.value))


def test_every_listed_type_is_sampled():
    assert {type(obj) for obj in STRUCTURES} == set(BOUNDS)


@pytest.mark.parametrize("obj", STRUCTURES, ids=lambda obj: type(obj).__name__)
def test_bounds_name_every_int_field(obj):
    # a field holding ints that BOUNDS leaves out would escape the swaps below
    holding = {
        f.name
        for f in dataclasses.fields(obj)
        if not dataclasses.is_dataclass(getattr(obj, f.name))
        and any(True for _ in _leaves(getattr(obj, f.name)))
    }
    assert holding == set(BOUNDS[type(obj)](obj))


@pytest.mark.parametrize("obj", STRUCTURES, ids=lambda obj: type(obj).__name__)
def test_first_slot_of_each_field_refuses_every_bad_value(obj):
    firsts = {}
    for name, path, old, bound in _slots(obj):
        firsts.setdefault(name, (path, old, bound))
    for name, (path, old, bound) in firsts.items():
        for bad in _bad_values(old, bound):
            _assert_refused(obj, name, path, bad)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_any_bad_slot_is_a_structural_error_naming_the_field(data):
    obj = data.draw(st.sampled_from(STRUCTURES), label="structure")
    name, path, old, bound = data.draw(st.sampled_from(_slots(obj)), label="slot")
    bad = data.draw(st.sampled_from(_bad_values(old, bound)), label="value")
    _assert_refused(obj, name, path, bad)


@pytest.mark.parametrize("obj", STRUCTURES, ids=lambda obj: type(obj).__name__)
def test_valid_samples_rebuild_equal_and_lists_become_tuples(obj):
    def as_lists(v):
        return [as_lists(x) for x in v] if isinstance(v, tuple) else v

    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    listed = {k: as_lists(v) for k, v in fields.items()}
    assert replace(obj, **listed) == obj


class TestDegenerateBicategory:
    """The one-0-cell bicategory gates its fields under its own names, not
    under the names of the monoidal category it shifts to."""

    bicat = next(o for o in STRUCTURES if type(o) is monoidal.DegenerateBicategory)

    def test_refuses_a_bool_count(self):
        with pytest.raises(StructuralError, match=r"^one_cells: expected int, got bool$"):
            replace(self.bicat, one_cells=True)

    def test_refuses_a_float_unit(self):
        with pytest.raises(StructuralError, match=r"^unit_one: expected int, got float$"):
            replace(self.bicat, unit_one=1.0)

    def test_refuses_a_short_table(self):
        with pytest.raises(StructuralError, match=r"^hcomp_one/1: expected 2 entries, got 1$"):
            replace(self.bicat, hcomp_one=(self.bicat.hcomp_one[0], (0,)))

    def test_list_tables_become_tuples_and_hash(self):
        b = self.bicat
        rows = [list(row) for row in b.hcomp_one]
        listed = replace(b, hcomp_one=rows, identities=list(b.identities))
        assert type(listed.hcomp_one) is tuple and all(type(r) is tuple for r in listed.hcomp_one)
        assert type(listed.identities) is tuple
        assert listed == b and hash(listed) == hash(b)


class TestExact:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((((0, 1), (1,)), "mul", (2, 2), 2), "mul/1: expected 2 entries, got 1"),
            ((((0, 1), (1, "0")), "mul", (2, 2), 2), "mul/1/1: expected int, got str"),
            ((((0, 1), (1, 2)), "mul", (2, 2), 2), "mul/1/1: index 2 out of range(2)"),
            (((0, (1,)), "map", (2,), 2), "map/1: expected int, got list"),
            (("01", "map", (2,), 2), "map: expected list, got str"),
            ((None, "unit", (), 2), "unit: expected int, got null"),
            ((1, "lax", (), None, False, bool), "lax: expected bool, got int"),
            ((((0, 1.0),), "comp", (1, 2), 2, True), "comp/0/1: expected int or null, got float"),
        ],
    )
    def test_messages_name_the_path(self, args, message):
        with pytest.raises(StructuralError) as exc:
            exact(*args)
        assert str(exc.value) == message

    def test_returns_nested_tuples(self):
        assert exact([[0, None], range(2)], "comp", (2, 2), 2, True) == ((0, None), (0, 1))
        assert exact(True, "lax", leaf=bool) is True
        assert exact([(0, 1)], "morphisms", (None, 2), 2) == ((0, 1),)
