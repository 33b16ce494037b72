"""Bicategories with a single 0-cell and single 1-cell, as raw finite data.

The 2-cells carry two composition tables (vertical and horizontal) plus the
three constraint cells with explicit inverse witnesses.  Validity forces
the two tables equal and commutative, the associator trivial, and the two
unit constraints equal; the checker proves these rather than assuming
them, and `eckmann_hilton_report` verifies the forced consequences
exhaustively on each instance.
"""

from dataclasses import dataclass, replace
from itertools import chain, count

from .degenerate import monoid_category
from .equivalence import (
    JFunctor,
    _hom,
    check_external_equivalence,
    hom_indexed_category,
)
from .monoids import (
    CMonDIE,
    FiniteMonoid,
    MonoidHom,
    check_cmon_die,
    check_hom,
    check_monoid_axioms,
    cmon_die_universe,
    hom_maps,
    interned,
    invert,
    units,
)
from .report import (
    InvalidStructureError,
    RefutationAlarm,
    Report,
    StructuralError,
    ValidationReport,
    exact,
    fields_state,
    kept,
    new_memo,
)

# the serials of `DDFunctor` instances, one each, never reused in a process
_SERIALS = count()


@dataclass(frozen=True)
class DDBicat:
    """Raw 2-cell data of a one-0-cell, one-1-cell bicategory.

    vcomp[x][y] is x after y; hcomp[x][y] is the horizontal composite x*y.
    Construction checks shapes and ranges only, through `report.exact`: a
    positive int cell count, and every cell index an exact int in
    range(cells).  Axiom-violating data can be represented, checked, and
    exhibited.

    Kept on an instance (see `report.kept`): the die `extract_cmon_die`
    read off it.  `build_ddbicat` also records the die it was built from.
    """

    cells: int
    id2: int
    vcomp: tuple
    hcomp: tuple
    assoc: int
    assoc_inv: int
    lunit: int
    lunit_inv: int
    runit: int
    runit_inv: int

    def __post_init__(self):
        n = exact(self.cells, "cells")
        if n <= 0:
            raise StructuralError(f"cells: expected a positive count, got {n}")
        for name in ("id2", "assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv"):
            exact(getattr(self, name), name, (), n)
        for name in ("vcomp", "hcomp"):
            object.__setattr__(self, name, exact(getattr(self, name), name, (n, n), n))

    __getstate__ = fields_state


@dataclass(frozen=True)
class DDFunctor:
    """A weak functor between one-1-cell bicategories, in reduced form.

    The data left after reduction: a homomorphism of the vertical-composition
    monoids, held as its map tuple `map` (`hom_map` wraps it in a `MonoidHom`
    on each read), plus one freely chosen invertible element `m` of the
    target; the unit-constraint element `m0` is determined and stored.

    The constructor checks shapes only (see `report.exact`): `map`, `m` and
    `m0` as exact ints in range of the target, one map entry per source
    element.  `==` and `!=` both test identity first, since functors made
    by internal algebra are interned, and fall back to comparing the
    fields; `!=` is its own method, so it costs one call, not a second
    dispatch to `==`.  The hash is the dataclass-generated hash of the
    fields.

    Beside the five fields, two private slots: `_serial`, a number no other
    instance in the process has, and `_composites`, the memo of
    `compose_dd_functors` with this functor as the inner one, `None` until
    the first composite.  Neither is a dataclass field, so `fields`,
    equality, hashing, repr and JSON ignore them.  A copy (`copy.copy`,
    `copy.deepcopy`, `pickle`, `dataclasses.replace`) carries the five
    fields and starts with a fresh serial and no memo.
    """

    __slots__ = ("source", "target", "map", "m", "m0", "_serial", "_composites")

    source: CMonDIE
    target: CMonDIE
    map: tuple
    m: int
    m0: int

    def __post_init__(self):
        n = self.target.monoid.size
        object.__setattr__(self, "map", exact(self.map, "map", (self.source.monoid.size,), n))
        exact(self.m, "m", (), n)
        exact(self.m0, "m0", (), n)
        object.__setattr__(self, "_serial", next(_SERIALS))
        object.__setattr__(self, "_composites", None)

    @property
    def hom_map(self) -> MonoidHom:
        return MonoidHom._trusted(self.source.monoid, self.target.monoid, self.map)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.map, self.m, self.m0) == (
            other.source, other.target, other.map, other.m, other.m0
        )

    def __ne__(self, other):
        if self is other:
            return False
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __getstate__(self):
        return self.source, self.target, self.map, self.m, self.m0

    def __setstate__(self, state):
        # fills an instance that already exists, never through the
        # constructor: the state is the fields of a functor already built
        set_ = object.__setattr__
        set_(self, "source", state[0])
        set_(self, "target", state[1])
        set_(self, "map", state[2])
        set_(self, "m", state[3])
        set_(self, "m0", state[4])
        set_(self, "_serial", next(_SERIALS))
        set_(self, "_composites", None)

    @classmethod
    def _trusted(cls, source, target, map, m, m0) -> "DDFunctor":
        """Build without the shape and range checks, for results of
        internal algebra whose map and indices hold by construction;
        untrusted data goes through the constructor."""
        f = object.__new__(cls)
        f.__setstate__((source, target, map, m, m0))
        return f


@dataclass(frozen=True)
class DDTransformation:
    """A transformation between parallel reduced functors.

    Existence asserts the two homomorphisms are equal; the component sigma
    is then forced to be m_target * m_source^-1.  The constructor checks
    only that sigma is an exact int in range of the target monoid.
    """

    source_functor: DDFunctor
    target_functor: DDFunctor
    sigma: int

    def __post_init__(self):
        exact(self.sigma, "sigma", (), self.source_functor.target.monoid.size)


@dataclass(frozen=True)
class DDModification:
    """A modification: one freely chosen (not necessarily invertible) element.

    Its boundary transformation necessarily goes from a transformation to
    itself, so a single boundary is stored.  The constructor checks only
    that gamma is an exact int in range of the target monoid.
    """

    boundary: DDTransformation
    gamma: int

    def __post_init__(self):
        exact(self.gamma, "gamma", (), self.boundary.source_functor.target.monoid.size)


# -- axioms ------------------------------------------------------------------


def check_ddbicat(b: DDBicat) -> ValidationReport:
    """Every bicategory axiom instantiated at the unique cells, grouped by name.

    The reduced pentagon and triangle equations encoded here are re-derived
    independently by the formal-composite evaluator in `coherence`; tests
    compare the two routes on valid and tampered data.
    """
    report = ValidationReport("ddbicat")
    n = b.cells
    vrep = check_monoid_axioms(b.vcomp, b.id2)
    report.extend(vrep, prefix="vcomp-")

    v, h, e = b.vcomp, b.hcomp, b.id2
    for name, c, ci in (
        ("assoc", b.assoc, b.assoc_inv),
        ("lunit", b.lunit, b.lunit_inv),
        ("runit", b.runit, b.runit_inv),
    ):
        if v[c][ci] != e or v[ci][c] != e:
            report.add(f"{name}-invertible", (c, ci), "stored inverse witness fails")

    if h[e][e] != e:
        report.add("hcomp-identity", (e, e), "identity 2-cell is not a horizontal unit")

    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    lhs = h[v[x][y]][v[z][w]]
                    rhs = v[h[x][z]][h[y][w]]
                    if lhs != rhs:
                        report.add("interchange", (x, y, z, w), f"{lhs} != {rhs}")

    for x in range(n):
        if v[b.runit][v[h[e][x]][b.runit_inv]] != x:
            report.add("runit-naturality", (x,))
        if v[b.lunit][v[h[x][e]][b.lunit_inv]] != x:
            report.add("lunit-naturality", (x,))

    a = b.assoc
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = v[a][h[h[x][y]][z]]
                rhs = v[h[x][h[y][z]]][a]
                if lhs != rhs:
                    report.add("assoc-naturality", (x, y, z), f"{lhs} != {rhs}")

    # reduced pentagon: a . a = (1 * a) . (a . (a * 1))
    lhs = v[a][a]
    rhs = v[h[e][a]][v[a][h[a][e]]]
    if lhs != rhs:
        report.add("pentagon", (), f"{lhs} != {rhs}")

    # reduced triangle: (1 * r) . a = l * 1
    lhs = v[h[e][b.runit]][a]
    rhs = h[b.lunit][e]
    if lhs != rhs:
        report.add("triangle", (), f"{lhs} != {rhs}")
    return report


def eckmann_hilton_report(b: DDBicat) -> Report:
    """Verify, exhaustively, the consequences forced by the axioms.

    (i) vertical composition commutes; (ii) horizontal equals vertical;
    (iii) the derived product r.(x*y).r^-1 agrees with both; (iv) the two
    unit constraints coincide; (v) the associator is the identity.

    Any failure on data that passed `check_ddbicat` is a harness alarm, not
    a mathematical discovery.
    """
    n = b.cells
    report = Report("eckmann-hilton")

    v, h = b.vcomp, b.hcomp
    bad = next(((x, y) for x in range(n) for y in range(n) if v[x][y] != v[y][x]), None)
    report.add("vcomp-commutative", bad is None, witness=bad)

    bad = next(((x, y) for x in range(n) for y in range(n) if h[x][y] != v[x][y]), None)
    report.add("hcomp-equals-vcomp", bad is None, witness=bad)

    bad = None
    for x in range(n):
        for y in range(n):
            derived = v[b.runit][v[h[x][y]][b.runit_inv]]
            if derived != v[x][y] or derived != h[x][y]:
                bad = (x, y)
                break
        if bad:
            break
    report.add("derived-product-agrees", bad is None, witness=bad)

    same = b.lunit == b.runit
    report.add("lunit-equals-runit", same, witness=None if same else (b.lunit, b.runit))
    trivial = b.assoc == b.id2
    report.add("assoc-is-identity", trivial, witness=None if trivial else (b.assoc,))
    return report


# -- the dimension shift in both directions ----------------------------------


def build_ddbicat(s: CMonDIE) -> DDBicat:
    """The bicategory determined by a commutative monoid with invertible element."""
    rep = check_cmon_die(s)
    if not rep.ok:
        raise InvalidStructureError("invalid commutative-monoid-with-element input")
    m = s.monoid
    b = DDBicat(
        cells=m.size,
        id2=m.unit,
        vcomp=m.mul,
        hcomp=m.mul,
        assoc=m.unit,
        assoc_inv=m.unit,
        lunit=s.die,
        lunit_inv=s.die_inv,
        runit=s.die,
        runit_inv=s.die_inv,
    )
    object.__setattr__(b, _BUILT_FROM, s)
    return b


# the attribute of a `DDBicat` naming the die `build_ddbicat` built it from
_BUILT_FROM = "_built_from_cmon_die"


def extract_cmon_die(b: DDBicat) -> CMonDIE:
    """Read off the commutative monoid and its distinguished element.

    Kept on `b` (see `report.kept`), so each instance is checked once.
    When the die read off equals the one `build_ddbicat` built `b` from,
    the result is that die itself, so functors on it and on `b`'s
    extraction are one family, interned in one table.
    """
    return kept(b, "_extracted_cmon_die", _extract_cmon_die)


def _extract_cmon_die(b: DDBicat) -> CMonDIE:
    rep = check_ddbicat(b)
    if not rep.ok:
        raise InvalidStructureError("input fails the bicategory axioms")
    if b.lunit != b.runit:
        raise RefutationAlarm("unit constraints differ on an axiom-valid instance")
    monoid = FiniteMonoid(b.cells, b.id2, b.vcomp)
    s = CMonDIE(monoid, b.lunit, b.lunit_inv)
    source = getattr(b, _BUILT_FROM, None)
    if source is not None and source == s:
        s = source  # it passed check_cmon_die when `b` was built
    elif not check_cmon_die(s).ok:
        raise RefutationAlarm("extracted data fails its own axioms")
    return s


# -- functors ----------------------------------------------------------------


def make_dd_functor(source: CMonDIE, target: CMonDIE, map: tuple, m: int) -> DDFunctor:
    """Assemble a functor from a homomorphism's map and a chosen invertible element.

    The unit-constraint element is determined: m0 = d_target . m^-1 . F(d_source)^-1,
    where the inverse of F(d) is the image of the stored inverse witness.
    """
    map = exact(map, "map", (source.monoid.size,), target.monoid.size)
    exact(m, "m", (), target.monoid.size)
    return DDFunctor(source, target, map, m, _derived_m0(source, target, map, m))


def _derived_m0(source: CMonDIE, target: CMonDIE, map: tuple, m: int) -> int:
    m_inv = invert(target.monoid, m)
    if m_inv is None:
        raise InvalidStructureError(f"chosen element {m} is not invertible in the target")
    mul = target.monoid.mul
    return mul[mul[target.die][m_inv]][map[source.die_inv]]


def check_dd_functor(f: DDFunctor) -> ValidationReport:
    """Hom laws, invertibility of the chosen element, and the unit equation."""
    report = ValidationReport("dd_functor")
    report.extend(check_hom(f.hom_map), prefix="hom-")
    t = f.target.monoid
    m_inv = invert(t, f.m)
    if m_inv is None:
        report.add("m-invertible", (f.m,))
    mul = t.mul
    lhs = f.target.die
    rhs = mul[f.map[f.source.die]][mul[f.m][f.m0]]
    if lhs != rhs:
        report.add("unit-equation", (), f"target die {lhs} != F(die).m.m0 = {rhs}")
    if m_inv is not None:
        derived = mul[mul[f.target.die][m_inv]][f.map[f.source.die_inv]]
        if derived != f.m0:
            report.add("m0-derived", (), f"stored m0 {f.m0} != derived {derived}")
    return report


def analyze_weak_functor(b1: DDBicat, b2: DDBicat, mapping, m2: int, m0: int):
    """Reduce raw weak-functor data between two valid instances.

    Returns (functor_or_None, report).  The report records the naturality
    and associativity axioms even though they carry no information here
    (they hold by commutativity; the associativity hexagon collapses to
    m2.m2 = m2.m2), and checks the unit equation, which is the only real
    constraint.  `m2` and `m0` go through `report.exact` first.
    """
    s = extract_cmon_die(b1)
    t = extract_cmon_die(b2)
    hom = MonoidHom(s.monoid, t.monoid, tuple(mapping))
    exact(m2, "m2", (), t.monoid.size)
    exact(m0, "m0", (), t.monoid.size)
    report = ValidationReport("weak_functor_data")
    report.extend(check_hom(hom), prefix="hom-")
    mul = t.monoid.mul
    fof = hom.map

    for x in range(s.monoid.size):
        img = fof[x]
        if mul[m2][img] != mul[img][m2]:
            report.add("tensor-comparison-naturality", (x,), "constraint fails to commute")
    # associativity axiom; on valid inputs both sides reduce to m2.m2
    lhs = mul[fof[b1.assoc]][mul[m2][b2.hcomp[m2][b2.id2]]]
    rhs = mul[m2][mul[b2.hcomp[b2.id2][m2]][b2.assoc]]
    if lhs != rhs:
        report.add("associativity-axiom", (), f"{lhs} != {rhs}")

    unit_lhs = t.die
    unit_rhs = mul[fof[s.die]][mul[m2][m0]]
    if unit_lhs != unit_rhs:
        report.add("unit-equation", (), f"{unit_lhs} != F(die).m2.m0 = {unit_rhs}")

    if not report.ok:
        return None, report
    f = DDFunctor(s, t, fof, m2, m0)
    frep = check_dd_functor(f)
    report.extend(frep, prefix="reduced-")
    return (f if report.ok else None), report


# instance attribute of a source `CMonDIE` holding its interned functors
_FUNCTORS = "_interned_dd_functors"


def _interned(source: CMonDIE, target: CMonDIE, hmap: tuple, m: int) -> DDFunctor:
    """The one functor source -> target with hom map `hmap` and element `m`.

    The table is kept on `source` (see `report.kept`) and keyed by
    (id(target), hmap, m); each entry holds its target, so a hit is the
    functor asked for.  The caller guarantees `hmap` is a homomorphism's
    tuple of ints and `m` is invertible in the target, so a miss builds
    trusted, with m0 derived.
    """
    table = kept(source, _FUNCTORS, new_memo)
    key = (id(target), hmap, m)
    f = table.get(key)
    if f is None:
        m0 = _derived_m0(source, target, hmap, m)
        f = table[key] = DDFunctor._trusted(source, target, hmap, m, m0)
    return f


def compose_dd_functors(g: DDFunctor, f: DDFunctor) -> DDFunctor:
    """Composite (G, m_G) . (F, m_F) = (GF, G(m_F).m_G); associative and unital.

    The composite is the functor interned on `f.source` under
    (id(g.target), GF's map, m), GF's map read from G's at each entry of
    F's: composites of enumerated functors are the enumerated instances
    themselves, and two composites are equal exactly when they are the same
    object.  Each one is memoized on the inner functor `f` under `g`'s
    serial and read by subscript, so a pair composed again costs one
    lookup; a miss, including the first composite of each `f`, which has
    no memo yet, takes the exception path.  A copy of `g` or `f` has its
    own serial and memo and is composed afresh.  The memo sits on `f`, not
    `g`, because callers such as `restrict_identity_constraint` compose
    many `g` with a few `f`.
    """
    try:
        return f._composites[g._serial]
    except (TypeError, KeyError):  # no memo yet, or no entry for g
        pass
    memo = f._composites
    if f.target is not g.source and f.target != g.source:
        raise StructuralError("functor composition endpoint mismatch")
    target = g.target
    hmap = tuple(map(g.map.__getitem__, f.map))
    c = _interned(f.source, target, hmap, target.monoid.mul[g.map[f.m]][g.m])
    if memo is None:
        object.__setattr__(f, "_composites", {g._serial: c})
    else:
        memo[g._serial] = c
    return c


def identity_dd_functor(s: CMonDIE) -> DDFunctor:
    """The identity functor, interned on `s` as (id(s), identity map, unit)."""
    return _interned(s, s, tuple(range(s.monoid.size)), s.monoid.unit)


def promote_lax(b1: DDBicat, b2: DDBicat, mapping, m2: int, m0: int) -> DDFunctor:
    """Promote lax data to a weak functor by deriving the forced inverses.

    The unit equation rearranges to (d^-1 . F(d) . m2) . m0 = 1, so
    commutativity hands m0 an inverse, and symmetrically m2.  Data failing
    the unit equation is genuinely not a functor of any flavor.  `m2` and
    `m0` go through `report.exact` first.  Once these checks and the
    strict `MonoidHom` constructor have passed, the result is built
    trusted, since the `DDFunctor` constructor would only repeat them.
    """
    s = extract_cmon_die(b1)
    t = extract_cmon_die(b2)
    hom = MonoidHom(s.monoid, t.monoid, tuple(mapping))
    exact(m2, "m2", (), t.monoid.size)
    exact(m0, "m0", (), t.monoid.size)
    hrep = check_hom(hom)
    if not hrep.ok:
        raise InvalidStructureError("mapping is not a homomorphism")
    mul = t.monoid.mul
    if t.die != mul[hom.map[s.die]][mul[m2][m0]]:
        raise InvalidStructureError("unit equation fails: not a lax functor")
    fd = hom.map[s.die]
    m0_inv = mul[mul[t.die_inv][fd]][m2]
    m2_inv = mul[mul[t.die_inv][fd]][m0]
    if mul[m0][m0_inv] != t.monoid.unit or mul[m0_inv][m0] != t.monoid.unit:
        raise RefutationAlarm("derived inverse for m0 fails")
    if mul[m2][m2_inv] != t.monoid.unit or mul[m2_inv][m2] != t.monoid.unit:
        raise RefutationAlarm("derived inverse for m2 fails")
    return DDFunctor._trusted(s, t, hom.map, m2, m0)


def dd_functors_between(s: CMonDIE, t: CMonDIE) -> list:
    """Every functor: all homomorphisms paired with all invertible elements.

    Each is the instance interned on `s` under (id(t), hom map, m), so
    repeated calls return the same objects in a new list.  The hom maps
    are the tuple `hom_maps(s.monoid, t.monoid)`, searched once per pair
    of monoid objects in a process, so dies that share a monoid share its
    search, and each map is the one interned tuple of its value.
    """
    ms = units(t.monoid)
    return [_interned(s, t, hmap, m) for hmap in hom_maps(s.monoid, t.monoid) for m in ms]


# -- transformations and modifications ---------------------------------------


def transformation_between(f: DDFunctor, g: DDFunctor) -> DDTransformation | None:
    """The unique transformation f => g, which exists iff the homs agree."""
    if (f.source is not g.source and f.source != g.source) or (
        f.target is not g.target and f.target != g.target
    ):
        raise StructuralError("functors are not parallel")
    if f.map != g.map:
        return None
    t = f.target.monoid
    sigma = t.mul[g.m][invert(t, f.m)]
    return DDTransformation(f, g, sigma)


def check_dd_transformation(t: DDTransformation) -> ValidationReport:
    """Existence and component constraints, plus the automatic axioms as tripwires."""
    report = ValidationReport("dd_transformation")
    f, g = t.source_functor, t.target_functor
    if f.source != g.source or f.target != g.target:
        report.add_structural("endpoints", (), "functors are not parallel")
        return report
    if f.map != g.map:
        report.add("functor-agreement", (), "underlying homomorphisms differ")
    mul = f.target.monoid.mul
    m_f_inv = invert(f.target.monoid, f.m)
    if m_f_inv is None:
        report.add("m-invertible", (f.m,))
    else:
        forced = mul[g.m][m_f_inv]
        if t.sigma != forced:
            report.add("component-formula", (), f"sigma {t.sigma} != {forced}")
    for x in range(f.source.monoid.size):
        if mul[f.map[x]][t.sigma] != mul[t.sigma][g.map[x]]:
            report.add("naturality", (x,))
    lhs = mul[t.sigma][mul[f.m][f.map[f.source.die]]]
    rhs = mul[g.m][g.map[g.source.die]]
    if lhs != rhs:
        report.add("unit-axiom", (), f"{lhs} != {rhs}")
    return report


def check_modification(mod: DDModification) -> ValidationReport:
    """The single equation sigma.gamma = gamma.sigma, kept as a tripwire."""
    report = ValidationReport("dd_modification")
    t = mod.boundary
    target = t.source_functor.target.monoid
    brep = check_dd_transformation(t)
    report.extend(brep, prefix="boundary-")
    if target.mul[t.sigma][mod.gamma] != target.mul[mod.gamma][t.sigma]:
        report.add("commutation", (t.sigma, mod.gamma))
    return report


# -- the forgetful comparison at each truncation level -----------------------


def forgetful_image(j: int, structure):
    """Project a cell of the truncated totality into the discrete side.

    0-cells lose the distinguished element, 1-cells lose the chosen
    invertible element, and 2- and 3-cells collapse to the identity cell on
    their image homomorphism (returned as that homomorphism).  The level
    `j` must be an exact int (see `report.exact`).
    """
    if exact(j, "j") not in (1, 2, 3):
        raise StructuralError("truncation level must be 1, 2 or 3")
    if isinstance(structure, DDBicat):
        return FiniteMonoid(structure.cells, structure.id2, structure.vcomp)
    if isinstance(structure, CMonDIE):
        return structure.monoid
    if isinstance(structure, DDFunctor):
        return structure.hom_map
    if isinstance(structure, DDTransformation):
        if j < 2:
            raise StructuralError("transformations only exist at level >= 2")
        return structure.source_functor.hom_map
    if isinstance(structure, DDModification):
        if j < 3:
            raise StructuralError("modifications only exist at level 3")
        return structure.boundary.source_functor.hom_map
    raise StructuralError(f"no projection for {type(structure).__name__}")


def unfaithfulness_witness(j: int, y: CMonDIE):
    """A collapsed pair showing the level-1 or level-3 comparison drops data.

    Level 1: two functors differing only in the chosen invertible element;
    exists iff the target has a non-unit invertible element.  Level 3: two
    modifications differing in their element; exists iff the target has
    more than one element.  The level `j` must be an exact int (see
    `report.exact`).
    """
    exact(j, "j")
    if j == 1:
        non_unit = [u for u in units(y.monoid) if u != y.monoid.unit]
        if not non_unit:
            return None
        ident = tuple(range(y.monoid.size))
        f1 = make_dd_functor(y, y, ident, y.monoid.unit)
        f2 = make_dd_functor(y, y, ident, non_unit[0])
        return f1, f2
    if j == 3:
        if y.monoid.size <= 1:
            return None
        f = identity_dd_functor(y)
        t = transformation_between(f, f)
        other = next(x for x in range(y.monoid.size) if x != y.monoid.unit)
        return DDModification(t, y.monoid.unit), DDModification(t, other)
    raise StructuralError("witnesses exist at levels 1 and 3 only")


def _functor_key(f: DDFunctor):
    return (f.map, f.m)


def _compose_keys(g: tuple, f: tuple) -> tuple:
    """The key of G . F from the keys (map, m, monoid) of G and F: G's map
    read at each entry of F's, interned as `hom_maps` interns its maps,
    and the element G(m_F) . m_G in G's target monoid, as
    `compose_dd_functors` computes it."""
    gmap, m_g, target = g
    return (interned(tuple(map(gmap.__getitem__, f[0]))), target.mul[gmap[f[1]]][m_g], target)


def _identity_key(m: FiniteMonoid) -> tuple:
    """The key of the identity functor on a die on `m`."""
    return (interned(tuple(range(m.size))), m.unit, m)


def two_truncation_universe(bound: int):
    """The 2-dimensional totality over all instances of size <= bound,
    assembled as explicit cell data, together with the discrete image side
    and the projection between them.  Returns (dies, one_cells, two_cells,
    fun).

    A 1-cell is its key (map, m, monoid): the hom map and the chosen
    invertible element of a reduced functor, and the target monoid they
    lie in, which composition reads.  No functor object is built: the
    1-cells i -> k are `hom_maps` x `units` of the target, in (map, m)
    order, so the p-th of them names the p-th functor of
    `dd_functors_between(dies[i], dies[k])`.  Dies on the same pair of
    monoids share one list of keys.  Keys compose by `_compose_keys`, and
    the identity on a die is keyed (identity map, unit).  one_cells lists
    (source, target, key) in index order.  A 2-cell f => g exists exactly
    when the two maps agree, since the transformation's component is then
    forced, so two_cells, which is `fun.source.cells[1]`, is the pairs of
    parallel 1-cells with equal maps.

    The image side is `degenerate.monoid_category` over the distinct
    monoids of the instances, with identity 2-cells only: its 1-cells are
    the plain map tuples of `hom_maps`, and map1 sends each 1-cell to its
    map, read off the enumeration: the 1-cells i -> k run through the
    image hom-set once per unit of the target, so each image 1-cell is
    repeated once per unit, in one tuple shared by every hom-set with the
    same image ends.  Both sides' 1-cells are their own keys.
    """
    dies = cmon_die_universe(bound)
    by_monoids: dict = {}
    homs = {}
    for si, s in enumerate(dies):
        for ti, t in enumerate(dies):
            keys = by_monoids.get((id(s.monoid), id(t.monoid)))
            if keys is None:
                target = t.monoid
                ms = units(target)
                keys = [(h, m, target) for h in hom_maps(s.monoid, target) for m in ms]
                by_monoids[id(s.monoid), id(target)] = keys
            homs[si, ti] = keys
    left, _ = hom_indexed_category(
        tuple(f"die#{i}(n={s.monoid.size},d={s.die})" for i, s in enumerate(dies)),
        homs,
        compose=_compose_keys,
        identity=lambda i: _identity_key(dies[i].monoid),
        two_cell=lambda f, g: f[0] == g[0],
    )
    one_cells = [(s, t, key) for (s, t), keys in homs.items() for key in keys]

    monoids = list(dict.fromkeys(s.monoid for s in dies))
    right_homs = {
        (i, k): hom_maps(m, m2) for i, m in enumerate(monoids) for k, m2 in enumerate(monoids)
    }
    # the discrete side: identity 2-cells only
    right, _ = monoid_category("cmon", monoids, right_homs, two_cell=lambda f, g: f is g)

    mpos = {m: i for i, m in enumerate(monoids)}
    map0 = tuple(mpos[s.monoid] for s in dies)
    shared: dict = {}  # image ends -> its 1-cells, each once per unit of the target
    for s, t in homs:
        e = map0[s], map0[t]
        if e not in shared:
            shared[e] = tuple(f for f in right.hom(1, *e) for _ in units(monoids[e[1]]))
    map1 = tuple(chain.from_iterable(shared[map0[s], map0[t]] for s, t in homs))
    map2 = tuple(map1[f] for f, _ in left.cells[1])
    fun = JFunctor(left, right, map0, map1, map2)
    return dies, one_cells, left.cells[1], fun


def _first_miscounted_pair(one_cells, x):
    """The first pair (fi, gi) of parallel 1-cells of `x`, in order, with
    other than one 2-cell fi => gi when their maps agree, or other than
    none when they differ, as (fi, gi, count, expected); else None.

    one_cells lists x's 1-cells as (source, target, key), each key's map
    first, as `two_truncation_universe` returns them.  Only a pair with a
    2-cell or with equal maps can be miscounted, so only those pairs are
    counted, from x's index: each 1-cell with each 1-cell of its class
    (same ends, same map), and the 2-cells between parallel 1-cells of two
    classes.  Every other pair counts 0, as expected.
    """
    classes: dict = {}
    cls = []  # the class of each 1-cell, as the ascending list of its members
    for fi, (s, t, key) in enumerate(one_cells):
        same = classes.setdefault((s, t, key[0]), [])
        same.append(fi)
        cls.append(same)
    ends, index = x.cells[0], x.hom_index[1]  # the 2-cells by their ends
    extra = min(
        ((f, g) for f, g in x.cells[1] if cls[f] is not cls[g] and ends[f] == ends[g]),
        default=None,
    )
    for fi, same in enumerate(cls):
        for gi in same:
            if extra is not None and (fi, gi) > extra:
                return (*extra, len(_hom(index, extra)), 0)
            count = len(_hom(index, (fi, gi)))
            if count != 1:
                return fi, gi, count, 1
    return None if extra is None else (*extra, len(_hom(index, extra)), 0)


def check_two_equivalence(bound: int) -> Report:
    """The 2-truncation comparison is an equivalence over the bounded universe.

    Verifies surjectivity on objects on the nose (via the pseudo-inverse
    choosing the identity as distinguished element), local surjectivity on
    1-cells, and local bijectivity on 2-cells: a 2-cell between parallel
    1-cells exactly when their maps agree.  Also records the level-1 and
    level-3 failures when the universe contains a witnessing target.  It
    reads the 1-cells of `two_truncation_universe` as keys, so it builds
    no functor, transformation or modification object.
    """
    dies, one_cells, _, fun = two_truncation_universe(bound)
    report = Report(
        "two-truncation-comparison",
        {"bound": bound, "universe": f"all {len(dies)} instances of size <= {bound}"},
        check_external_equivalence(fun).findings,
    )

    hit = {fun.map0[i] for i in range(len(dies))}
    identity_die = all(
        any(fun.map0[i] == k and dies[i].die == dies[i].monoid.unit for i in range(len(dies)))
        for k in range(len(fun.target.zero_cells))
    )
    report.add(
        "surjective-on-objects-on-the-nose",
        len(hit) == len(fun.target.zero_cells) and identity_die,
        dimension=0,
        detail="every commutative monoid is hit by the instance with identity element chosen",
    )

    bad = _first_miscounted_pair(one_cells, fun.source)
    report.add(
        "locally-bijective-on-2-cells",
        bad is None,
        dimension=2,
        witness=None if bad is None else {"pair": bad[:2], "count": bad[2], "expected": bad[3]},
        detail="exactly one transformation iff the homomorphisms agree",
    )

    x = fun.source
    # level 1: on the first instance with a non-unit invertible element, its
    # identity 1-cell and the first other 1-cell on the identity map differ
    # in their chosen element alone
    s = next((i for i, d in enumerate(dies) if len(units(d.monoid)) > 1), None)
    if s is not None:
        ident = x.identity[0][s]
        same_map = [f for f in x.hom(1, s, s) if one_cells[f][2][0] == one_cells[ident][2][0]]
        other = next(f for f in same_map if f != ident)
        report.add(
            "level-1-comparison-not-faithful",
            fun.map1[other] == fun.map1[ident],
            dimension=1,
            detail="two functors with distinct chosen elements share one image",
        )
    # level 3: on the first instance with two elements, the modifications
    # (2-cell, element) of its identity 2-cell by the unit and by another
    # element; a modification is sent to the image of the 2-cell it modifies
    s = next((i for i, d in enumerate(dies) if d.monoid.size > 1), None)
    if s is not None:
        m = dies[s].monoid
        cell = x.identity[1][x.identity[0][s]]
        mods = [(cell, m.unit), (cell, next(e for e in range(m.size) if e != m.unit))]
        report.add(
            "level-3-comparison-not-locally-faithful",
            len({fun.map2[c] for c, _ in mods}) == 1,
            dimension=3,
            detail="two modifications with distinct elements share one image",
        )
    return report


def restrict_identity_constraint(functors, bound: int | None = None):
    """Keep only functors whose chosen invertible element is the identity.

    Returns (retained, report).  The retained class is closed under
    composition.  With the bound given, the level-1 comparison restricted to
    the retained functors is full, faithful and surjective over the bounded
    universe: for each pair of its instances, matched by value, the retained
    hom maps are the homomorphisms, each once, and every monoid is the
    source of a retained functor.

    Ends are matched by value, but each distinct end object is hashed
    only once, since a die's hash reads its whole table: every later
    lookup goes through the object's id.
    """
    retained = [f for f in functors if f.m == f.target.monoid.unit]
    report = Report("identity-constraint-restriction", {"bound": bound, "universe": ""})

    # same[id(end)]: the index of the end's value among the distinct values
    values: dict = {}
    same: dict = {}
    for f in retained:
        for end in (f.source, f.target):
            if id(end) not in same:
                same[id(end)] = values.setdefault(end, len(values))

    # the composite's element target.mul[G(f.m)][g.m] depends on f only
    # through f.m, its target's unit, so the first f of each target value,
    # in list order, decides closure for all of them and is the witness
    ending: dict = {}
    for f in retained:
        ending.setdefault(same[id(f.target)], f)
    closed = True
    witness = None
    for g in retained:
        f = ending.get(same[id(g.source)])
        if f is None:
            continue
        comp = compose_dd_functors(g, f)
        if comp.m != comp.target.monoid.unit:
            closed = False
            witness = {"g": _functor_key(g), "f": _functor_key(f)}
            break
    report.add("closed-under-composition", closed, dimension=1, witness=witness)

    if bound is not None:
        dies = cmon_die_universe(bound)
        maps: dict = {}
        for f in retained:
            ends = (same[id(f.source)], same[id(f.target)])
            maps.setdefault(ends, []).append(f.map)
        where = [values.get(s) for s in dies]
        full = faithful = True
        for s, si in zip(dies, where):
            for t, ti in zip(dies, where):
                got = maps.get((si, ti), [])
                full = full and set(got) == set(hom_maps(s.monoid, t.monoid))
                faithful = faithful and len(set(got)) == len(got)
        source_ends = {si for si, _ in maps}
        sources = {end.monoid for end, i in values.items() if i in source_ends}
        report.add("restricted-comparison-full", full, dimension=1)
        report.add("restricted-comparison-faithful", faithful, dimension=1)
        surjective = all(s.monoid in sources for s in dies)
        report.add("restricted-comparison-surjective", surjective, dimension=0)
    return retained, report


# -- tampering ---------------------------------------------------------------

_TAMPER_FIELDS = (
    "vcomp",
    "hcomp",
    "id2",
    "assoc",
    "assoc_inv",
    "lunit",
    "lunit_inv",
    "runit",
    "runit_inv",
)


def random_tamper(b: DDBicat, rng) -> tuple:
    """Change one stored value to a different in-range value.

    Returns (tampered, description).  Requires at least two cells, since a
    one-cell instance has no alternative values.
    """
    if b.cells < 2:
        raise StructuralError("nothing to tamper in a one-cell instance")
    field_name = rng.choice(_TAMPER_FIELDS)
    if field_name in ("vcomp", "hcomp"):
        x = rng.randrange(b.cells)
        y = rng.randrange(b.cells)
        old = getattr(b, field_name)[x][y]
        new = rng.choice([v for v in range(b.cells) if v != old])
        table = [list(row) for row in getattr(b, field_name)]
        table[x][y] = new
        tampered = replace(b, **{field_name: tuple(tuple(r) for r in table)})
        return tampered, f"{field_name}[{x}][{y}]: {old} -> {new}"
    old = getattr(b, field_name)
    new = rng.choice([v for v in range(b.cells) if v != old])
    return replace(b, **{field_name: new}), f"{field_name}: {old} -> {new}"
