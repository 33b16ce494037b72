"""JSON schemas for every structure, with canonical serialization.

One table, `SCHEMA`, keyed by the payload's "kind", describes all 17 JSON
kinds.  An entry names the structure types written under its kind and
declares each key: its shape (exact int, bool, int-or-null, a list or table
of those, a list of {src, tgt} objects, or a nested kind), the count an
index ranges over, and the attribute it is dumped from.  An entry also
holds one dump, one build and one check function.  Adding a kind means
adding one entry.

Every payload read from outside goes through one recursive conform pass
over the table before any constructor or axiom checker sees it.  At every
depth, nested endpoints and {src, tgt} objects included, it enforces:

* exact ints: `type(v) is int`, so a bool, float or numeric string is
  rejected where an int belongs, and a flag must be an exact bool;
* exact key sets: no key missing, no unknown key;
* index ranges: each index lies below its count, which is a sibling count
  (`size`, `cells`, `objects`), the length of a sibling list
  (`morphisms`), or a count of a nested endpoint (`target.size`).

A failure raises `StructuralError` naming the JSON path, such as
`target/mul/2/1: expected int, got str`.  A row of index, index-or-null
or {src, tgt} leaves is checked in one loop; a row that fails is walked
again leaf by leaf to name the bad one.  Lengths and the compatibility of
endpoints are left to the public constructors, the boundary for Python
callers.  Each of their int-holding fields goes through one gate,
`report.exact`, under the same rules (exact ints with bools refused,
indices in range, flags exact bools) and with one message per field in
the same path format, such as `mul/1: expected 2 entries, got 1`.  The
part under every nested key is checked by its own entry before the
structure's checker runs, which runs only when every part holds (see
`_verdict`).

Equal embedded structures are built once per file, after the conform
pass: a nested payload equal to one already built in the same call gets
that structure (see `_build`).  There `==` is exact, since both sides
hold exact ints, bools and nulls at the same keys.  The conform pass
itself never skips a repeated copy: `==` equates 0, 0.0 and False, so a
second copy with 0.0 where the first has 0 would pass unchecked.

Canonical output (sorted keys, no insignificant whitespace, one trailing
newline) makes round trips byte-exact, which the replay tests rely on.
"""

import json
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable

from . import degenerate, doubly, fincat, monads, monoidal, monoids
from .report import StructuralError, ValidationReport, _Mismatch, _type_name


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


# -- key declarations ---------------------------------------------------------

COUNT, FLAG, INDEX, INDEX_OR_NULL, PAIRS = "count", "flag", "index", "index-or-null", "pairs"
_PAIR_KEYS = frozenset({"src", "tgt"})

# tuples of each depth as JSON lists
_LISTS = {
    0: None,
    1: list,
    2: lambda t: [list(row) for row in t],
    3: lambda t: [[list(row) for row in plane] for plane in t],
}


def _pairs_json(pairs):
    return [{"src": s, "tgt": t} for s, t in pairs]


@dataclass(frozen=True)
class Nested:
    """A key holding a payload of another kind.  `extra` lists the optional
    keys of that kind that are required here; its other optional keys are
    not allowed."""

    kind: str
    extra: tuple = ()


@dataclass(frozen=True)
class Key:
    """One key: its leaf shape, the list levels around each leaf, for
    index leaves the key path of the count they range over, and the
    attribute path of the structure it is dumped from."""

    name: str
    leaf: object  # COUNT, FLAG, INDEX, INDEX_OR_NULL, PAIRS or a Nested
    depth: int = 0
    bound: tuple = ()
    attr: str = ""
    get: Callable = field(init=False, compare=False)
    to_json: Callable = field(init=False, compare=False)  # None for a plain value

    def __post_init__(self):
        object.__setattr__(self, "get", attrgetter(self.attr or self.name))
        if type(self.leaf) is Nested:
            to_json = _dump
        elif self.leaf is PAIRS:
            to_json = _pairs_json
        else:
            to_json = _LISTS[self.depth]
        object.__setattr__(self, "to_json", to_json)


def _index(name, bound, depth=0, leaf=INDEX, attr=""):
    return Key(name, leaf, depth, tuple(bound.split(".")), attr)


@dataclass(frozen=True)
class Schema:
    """One JSON kind.  `keys` are in walk order: a count, list or nested
    payload named by a bound comes before the index keys that use it.
    `build` takes the converted values by key name; `check` takes the
    built structure, whose nested parts have passed their own checks (see
    `_verdict`), and returns its validation report."""

    types: tuple
    keys: tuple
    build: Callable
    check: Callable
    dump: Callable = None  # structure -> its keys; by default read from their attributes
    optional: frozenset = frozenset()
    required: frozenset = field(init=False)

    def __post_init__(self):
        names = {k.name for k in self.keys} - self.optional
        object.__setattr__(self, "required", frozenset(names | {"kind"}))
        if self.dump is None:
            object.__setattr__(self, "dump", partial(_dump_keys, self.keys))


# -- the conform pass ---------------------------------------------------------


def _expected(what, v) -> _Mismatch:
    return _Mismatch(f"expected {what}, got {_type_name(v)}")


def _check_keys(payload, required, optional):
    keys = payload.keys()
    if keys == required:
        return
    missing = required - keys
    if missing:
        raise _Mismatch(f"missing keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise _Mismatch(f"unknown keys: {sorted(unknown)}")


def _within(step, walk, *args):
    """Run `walk(*args)`, adding `step` to the path of a mismatch in it."""
    try:
        walk(*args)
    except _Mismatch as e:
        e.path.append(step)
        raise


def _row_ok(row, leaf, n) -> bool:
    """Whether every leaf of a list of index, index-or-null or {src, tgt}
    leaves passes, checked in one loop.  A row that fails goes through the
    per-leaf path of `_walk`, which names the bad leaf."""
    if leaf is PAIRS:
        for p in row:
            if type(p) is not dict or p.keys() != _PAIR_KEYS:
                return False
            s, t = p["src"], p["tgt"]
            if type(s) is not int or type(t) is not int or not (0 <= s < n and 0 <= t < n):
                return False
    elif leaf is INDEX_OR_NULL:
        for x in row:
            if x is not None and (type(x) is not int or not 0 <= x < n):
                return False
    else:
        for x in row:
            if type(x) is not int or not 0 <= x < n:
                return False
    return True


def _walk(v, leaf, n, depth):
    """Check `v`: `depth` levels of lists around leaves of shape `leaf`,
    whose indices lie in range(n) when `n` is not None."""
    if depth:
        if type(v) is not list:
            raise _expected("list", v)
        # n is set for index, index-or-null and {src, tgt} leaves only
        if depth == 1 and n is not None and _row_ok(v, leaf, n):
            return
        for i, x in enumerate(v):
            try:  # `_within` inlined: one call per leaf, not two
                _walk(x, leaf, n, depth - 1)
            except _Mismatch as e:
                e.path.append(i)
                raise
    elif leaf is PAIRS:
        if type(v) is not dict:
            raise _expected("object", v)
        _check_keys(v, _PAIR_KEYS, frozenset())
        for end in ("src", "tgt"):
            _within(end, _walk, v[end], INDEX, n, 0)
    elif type(v) is int and leaf is not FLAG:
        if n is not None and not 0 <= v < n:
            raise _Mismatch(f"index {v} out of range({n})")
    elif leaf is FLAG:
        if type(v) is not bool:
            raise _expected("bool", v)
    elif v is not None or leaf is not INDEX_OR_NULL:
        raise _expected("int or null" if leaf is INDEX_OR_NULL else "int", v)


def _conform(payload, kind, extra, optional):
    """Check `payload` against the entry of `kind`, whose optional keys in
    `extra` are required here and those in `optional` allowed."""
    if type(payload) is not dict:
        raise _expected("object", payload)
    entry = SCHEMA[kind]
    _check_keys(payload, entry.required.union(extra), optional)
    if payload["kind"] != kind:
        raise _Mismatch(f"expected {kind!r}, got {payload['kind']!r}", "kind")
    for key in entry.keys:
        name, leaf = key.name, key.leaf
        if name not in payload:  # an optional key, absent
            continue
        v = payload[name]
        if type(leaf) is Nested:
            _within(name, _conform, v, leaf.kind, leaf.extra, frozenset())
            continue
        n = None
        if key.bound:
            n = payload
            for step in key.bound:
                n = n[step]
            if type(n) is list:
                n = len(n)
        _within(name, _walk, v, leaf, n, key.depth)


def _conformed(payload, kind=None) -> Schema:
    """The entry of a top-level payload, once the payload conforms to it."""
    if type(payload) is not dict or type(payload.get("kind")) is not str:
        raise StructuralError("payload must be an object with a 'kind' key")
    entry = SCHEMA.get(payload["kind"])
    if entry is None:
        raise StructuralError(f"unknown kind {payload['kind']!r}")
    if kind is not None and payload["kind"] != kind:
        raise StructuralError(f"expected a {kind} payload, got {payload['kind']!r}")
    try:
        _conform(payload, payload["kind"], (), entry.optional)
    except _Mismatch as e:
        where = "/".join(str(step) for step in reversed(e.path))
        raise StructuralError(f"{where}: {e.message}" if where else e.message) from None
    return entry


# -- dump and build -----------------------------------------------------------


def _dump(obj) -> dict:
    kind = _KIND_OF.get(type(obj))
    if kind is None:
        raise StructuralError(f"no payload builder for {type(obj).__name__}")
    return {"kind": kind, **SCHEMA[kind].dump(obj)}


def _dump_keys(keys, obj) -> dict:
    out = {}
    for key in keys:
        v = key.get(obj)
        out[key.name] = v if key.to_json is None else key.to_json(v)
    return out


def _build(payload, built=None):
    """Build a conformed payload, its nested payloads first.  Lists are
    passed as they are: the constructors make their own tuples.

    `built` holds the (payload, structure) of each nested payload built so
    far in this call; a nested payload equal to one of them gets that
    structure.  `==` on payloads is exact here: the conform pass has made
    every leaf on both sides an exact int, bool or null of the same key."""
    if built is None:
        built = []
    entry = SCHEMA[payload["kind"]]
    args = {}
    for key in entry.keys:
        if key.name not in payload:
            continue
        v = payload[key.name]
        if type(key.leaf) is Nested:
            v = _shared(v, built)
        elif key.leaf is PAIRS:
            v = tuple((p["src"], p["tgt"]) for p in v)
        args[key.name] = v
    return entry.build(**args)


def _shared(payload, built):
    """The structure of a nested payload, built once per equal payload."""
    for seen, obj in built:
        if seen == payload:
            return obj
    obj = _build(payload, built)
    built.append((payload, obj))
    return obj


def _dump_monoid(m) -> dict:
    if type(m) is monoids.CMonDIE:
        return {**_dump_monoid(m.monoid), "die": m.die}
    return {"size": m.size, "unit": m.unit, "mul": _LISTS[2](m.mul)}


def _build_monoid(size, unit, mul, die=None):
    m = monoids.FiniteMonoid(size, unit, mul)
    if die is None:
        return m
    inv = monoids.invert(m, die)
    if inv is None:
        raise StructuralError("die has no inverse; cannot build the structure")
    return monoids.CMonDIE(m, die, inv)


# -- checks -------------------------------------------------------------------


def _check_monoid(p) -> ValidationReport:
    """The top-level check of a monoid payload, which reads the die from
    the payload: a die without an inverse cannot be built."""
    m = monoids.FiniteMonoid(p["size"], p["unit"], p["mul"])
    if "die" not in p:
        return monoids.check_monoid_axioms(m.mul, m.unit)
    report = ValidationReport("cmon_die")
    report.extend(monoids.check_monoid_axioms(m.mul, m.unit))
    for x, y in monoids.check_commutative(m):
        report.add("commutativity", (x, y))
    if monoids.invert(m, p["die"]) is None:
        report.add("die-invertible", (p["die"],), "no inverse exists")
    return report


def _check_ddbicat(b) -> ValidationReport:
    report = doubly.check_ddbicat(b)
    if report.ok:
        for f in doubly.eckmann_hilton_report(b).findings:
            if not f.passed:
                report.add(f"derived-{f.criterion}", tuple(f.witness or ()))
    return report


def _verdict(obj, cache) -> ValidationReport:
    """The report of a built structure under its kind's entry.

    The part under each nested key is checked first, by its own entry and
    so recursively, with findings prefixed by the key; a part that is the
    structure under an earlier key is checked, and reported, once.  The
    kind's checker runs only when every part holds, since checkers compose
    cells of their parts and so presuppose they are valid.  The gate is
    `ok`, not `well_formed`: `fincat.check_functor` reports a functor that
    breaks endpoints as an axiom violation, so a well-formed monad can
    send composable arrows to arrows with no composite.  The checkers
    report such a composite as a structural `undefined-composite` finding;
    checking the parts first instead names the invalid part, by key.

    `cache` maps the id of each structure checked so far to its report,
    so each distinct embedded structure is checked once per file; `_build`
    makes equal embedded payloads one structure."""
    report = cache.get(id(obj))
    if report is None:
        kind = _KIND_OF[type(obj)]
        entry = SCHEMA[kind]
        report = ValidationReport(kind)
        seen = set()
        for key in entry.keys:
            if type(key.leaf) is Nested:
                part = key.get(obj)
                if id(part) not in seen:
                    seen.add(id(part))
                    report.extend(_verdict(part, cache), prefix=f"{key.name}-")
        if report.ok:
            report = entry.check(obj)
        cache[id(obj)] = report
    return report


# -- the table ----------------------------------------------------------------


def _category_keys(at=""):
    """The keys of a finite category read from attribute path `at`."""
    return (
        Key("objects", COUNT, attr=at + "n_objects"),
        Key("morphisms", PAIRS, 1, ("objects",), at + "morphisms"),
        _index("identities", "morphisms", 1, attr=at + "identities"),
        _index("comp", "morphisms", 2, INDEX_OR_NULL, attr=at + "comp"),
    )


_UNITORS = ("lunit", "lunit_inv", "runit", "runit_inv")

SCHEMA = {
    "monoid": Schema(
        (monoids.FiniteMonoid, monoids.CMonDIE),
        (
            Key("size", COUNT),
            _index("unit", "size"),
            _index("mul", "size", 2),
            _index("die", "size"),
        ),
        _build_monoid,
        lambda m: monoids.check_cmon_die(m)
        if type(m) is monoids.CMonDIE
        else monoids.check_monoid_axioms(m.mul, m.unit),
        dump=_dump_monoid,
        optional=frozenset({"die"}),
    ),
    "degenerate_category": Schema(
        (degenerate.DegenerateCategory,),
        (Key("hom", Nested("monoid")),),
        degenerate.DegenerateCategory,
        lambda c: ValidationReport("degenerate_category"),  # the hom monoid is its one part
    ),
    "nat_trans": Schema(
        (degenerate.DegNatTrans,),
        (
            Key("source", Nested("monoid"), attr="source_functor.source"),
            Key("target", Nested("monoid"), attr="source_functor.target"),
            _index("F", "target.size", 1, attr="source_functor.map"),
            _index("G", "target.size", 1, attr="target_functor.map"),
            _index("d", "target.size", attr="component"),
        ),
        lambda source, target, F, G, d: degenerate.DegNatTrans(
            monoids.MonoidHom(source, target, F), monoids.MonoidHom(source, target, G), d
        ),
        degenerate.check_nat_trans,
    ),
    "ddbicat": Schema(
        (doubly.DDBicat,),
        (
            Key("cells", COUNT),
            _index("id2", "cells"),
            _index("vcomp", "cells", 2),
            _index("hcomp", "cells", 2),
            *(_index(k, "cells") for k in ("assoc", "assoc_inv") + _UNITORS),
        ),
        doubly.DDBicat,
        _check_ddbicat,
    ),
    "dd_functor": Schema(
        (doubly.DDFunctor,),
        (
            Key("source", Nested("monoid", ("die",))),
            Key("target", Nested("monoid", ("die",))),
            _index("map", "target.size", 1),
            _index("m2", "target.size", attr="m"),
            _index("m0", "target.size"),
        ),
        lambda source, target, map, m2, m0: doubly.DDFunctor(source, target, map, m2, m0),
        doubly.check_dd_functor,
    ),
    "dd_transformation": Schema(
        (doubly.DDTransformation,),
        (
            Key("source_functor", Nested("dd_functor")),
            Key("target_functor", Nested("dd_functor")),
            _index("sigma", "source_functor.target.size"),
        ),
        doubly.DDTransformation,
        doubly.check_dd_transformation,
    ),
    "dd_modification": Schema(
        (doubly.DDModification,),
        (
            Key("boundary", Nested("dd_transformation")),
            _index("gamma", "boundary.source_functor.target.size"),
        ),
        doubly.DDModification,
        doubly.check_modification,
    ),
    "category": Schema(
        (fincat.FiniteCategory,),
        _category_keys(),
        lambda objects, morphisms, identities, comp: fincat.FiniteCategory(
            objects, morphisms, identities, comp
        ),
        fincat.check_category,
    ),
    "moncat": Schema(
        (monoidal.FinMonoidalCategory,),
        (
            *_category_keys("base."),
            _index("tensor_obj", "objects", 2),
            _index("tensor_mor", "morphisms", 2),
            _index("unit", "objects", attr="unit_obj"),
            _index("assoc", "morphisms", 3),
            _index("assoc_inv", "morphisms", 3),
            *(_index(k, "morphisms", 1) for k in _UNITORS),
        ),
        lambda objects, morphisms, identities, comp, unit, **rest: monoidal.FinMonoidalCategory(
            fincat.FiniteCategory(objects, morphisms, identities, comp), unit_obj=unit, **rest
        ),
        monoidal.check_monoidal,
    ),
    "degenerate_bicat": Schema(
        (monoidal.DegenerateBicategory,),
        (
            Key("one_cells", COUNT),
            Key("two_cells", PAIRS, 1, ("one_cells",)),
            _index("identities", "two_cells", 1),
            _index("vcomp", "two_cells", 2, INDEX_OR_NULL),
            _index("hcomp_one", "one_cells", 2),
            _index("hcomp_two", "two_cells", 2),
            _index("unit_one", "one_cells"),
            _index("assoc", "two_cells", 3),
            _index("assoc_inv", "two_cells", 3),
            *(_index(k, "two_cells", 1) for k in _UNITORS),
        ),
        monoidal.DegenerateBicategory,
        monoidal.check_degenerate_bicat,
    ),
    "monoidal_functor": Schema(
        (monoidal.MonoidalFunctor,),
        (
            Key("source", Nested("moncat")),
            Key("target", Nested("moncat")),
            _index("object_map", "target.objects", 1, attr="functor.object_map"),
            _index("morphism_map", "target.morphisms", 1, attr="functor.morphism_map"),
            _index("tensor_comparison", "target.morphisms", 2),
            _index("unit_comparison", "target.morphisms"),
        ),
        lambda source, target, object_map, morphism_map, **rest: monoidal.MonoidalFunctor(
            source,
            target,
            fincat.CatFunctor(source.base, target.base, object_map, morphism_map),
            **rest,
        ),
        monoidal.check_monoidal_functor,
    ),
    "monoidal_transformation": Schema(
        (monoidal.MonoidalTransformation,),
        (
            Key("source_functor", Nested("monoidal_functor")),
            Key("target_functor", Nested("monoidal_functor")),
            _index("components", "source_functor.target.morphisms", 1),
        ),
        monoidal.MonoidalTransformation,
        monoidal.check_monoidal_transformation,
    ),
    "deg_transformation": Schema(
        (monoidal.DegTransformation,),
        (
            Key("source_functor", Nested("monoidal_functor")),
            Key("target_functor", Nested("monoidal_functor")),
            _index("dist_obj", "source_functor.target.objects"),
            _index("components", "source_functor.target.morphisms", 1),
            Key("lax", FLAG),
            Key("oplax", FLAG),
        ),
        monoidal.DegTransformation,
        monoidal.check_deg_transformation,
    ),
    "deg_modification": Schema(
        (monoidal.DegModification,),
        (
            Key("source_transformation", Nested("deg_transformation")),
            Key("target_transformation", Nested("deg_transformation")),
            _index("gamma", "source_transformation.source_functor.target.morphisms"),
        ),
        monoidal.DegModification,
        monoidal.check_deg_modification,
    ),
    "monad": Schema(
        (monads.FinMonad,),
        (
            Key("base", Nested("category"), attr="endo.source"),
            _index("object_map", "base.objects", 1, attr="endo.object_map"),
            _index("morphism_map", "base.morphisms", 1, attr="endo.morphism_map"),
            _index("eta", "base.morphisms", 1),
            _index("mu", "base.morphisms", 1),
        ),
        lambda base, object_map, morphism_map, eta, mu: monads.FinMonad(
            fincat.CatFunctor(base, base, object_map, morphism_map), eta, mu
        ),
        monads.check_monad,
    ),
    "monad_functor": Schema(
        (monads.MonadFunctor,),
        (
            Key("source", Nested("monad")),
            Key("target", Nested("monad")),
            _index("object_map", "target.base.objects", 1, attr="u.object_map"),
            _index("morphism_map", "target.base.morphisms", 1, attr="u.morphism_map"),
            _index("phi", "target.base.morphisms", 1),
        ),
        lambda source, target, object_map, morphism_map, phi: monads.MonadFunctor(
            source,
            target,
            fincat.CatFunctor(source.endo.source, target.endo.source, object_map, morphism_map),
            phi,
        ),
        monads.check_monad_functor,
    ),
    "monad_transformation": Schema(
        (monads.MonadFunctorTransformation,),
        (
            Key("source", Nested("monad_functor")),
            Key("target", Nested("monad_functor")),
            _index("gamma", "source.target.base.morphisms", 1),
        ),
        monads.MonadFunctorTransformation,
        monads.check_monad_transformation,
    ),
}

_KIND_OF = {t: kind for kind, entry in SCHEMA.items() for t in entry.types}


# -- entry points -------------------------------------------------------------


def to_payload(obj) -> dict:
    """The JSON payload of a structure."""
    return _dump(obj)


def structure_from_payload(payload, kind=None):
    """Build the structure a parsed JSON object describes; if `kind` is
    given, the object must be of that kind."""
    _conformed(payload, kind)
    return _build(payload)


def checked_structure(payload) -> tuple:
    """(structure, report): the structure a parsed JSON object describes
    and its report, from one conform pass, one build and one check: each
    nested part under its own kind first, then the structure's own checker
    (see `_verdict`).  Only a top-level monoid is checked from its payload,
    before it is built, since a die without an inverse cannot be built: its
    structure is then None, and the report says why."""
    if _conformed(payload) is SCHEMA["monoid"]:
        report = _check_monoid(payload)
        unbuildable = any(v.axiom == "die-invertible" for v in report.violations)
        return (None if unbuildable else _build(payload)), report
    obj = _build(payload)
    return obj, _verdict(obj, {})


def validate_payload(payload) -> ValidationReport:
    """The report of a parsed JSON object (see `checked_structure`)."""
    return checked_structure(payload)[1]
