"""Finite monoids as explicit Cayley tables, plus exhaustive enumeration.

Elements are dense integer indices and tables are row-major; the unit index
is explicit (element 0 is not assumed to be the unit).  Everything here is
immutable and pure, and serves as the oracle layer for the rest of the
package.
"""

import functools
import itertools
import os
from dataclasses import dataclass
from operator import itemgetter

from .report import (
    InvalidStructureError,
    StructuralError,
    ValidationReport,
    exact,
    fields_state,
    kept,
    kept_for,
)

DEFAULT_MAX_SIZE = 5
MAX_SIZE_ENV = "DEGLAB_MAX_SIZE"


@dataclass(frozen=True)
class FiniteMonoid:
    """A multiplication table with a designated unit index.

    Construction checks shape only, through `report.exact`: a positive int
    size, and the unit and every table entry exact ints in range(size).
    The monoid axioms are checked by `check_monoid`, so axiom-violating
    tables can be represented and reported on.

    Kept on an instance (see `report.kept`): `_hom_kernel`, the compiled
    search of `hom_maps` out of it; `_hom_maps`, its hom-sets by target;
    and `_dies`, the structures `enumerate_dies` found on it.
    """

    size: int
    unit: int
    mul: tuple

    def __post_init__(self):
        n = exact(self.size, "size")
        if n <= 0:
            raise StructuralError(f"size: expected a positive count, got {n}")
        exact(self.unit, "unit", (), n)
        object.__setattr__(self, "mul", exact(self.mul, "mul", (n, n), n))

    __getstate__ = fields_state

    @classmethod
    def _trusted(cls, size: int, unit: int, mul: tuple) -> "FiniteMonoid":
        """Build without the shape checks, for tables made by internal search.

        The caller guarantees that `mul` is a tuple of `size` tuples of
        `size` ints in range, and `unit` an int in range; untrusted data
        goes through the constructor.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "size", size)
        object.__setattr__(m, "unit", unit)
        object.__setattr__(m, "mul", mul)
        return m


@dataclass(frozen=True, slots=True)
class MonoidHom:
    """A map of element indices between two finite monoids.

    The constructor takes `map` as exact ints, one per source element, each
    in range(target.size) (see `report.exact`).  The three fields are slots
    and an instance has no `__dict__`, so each of the one per map that
    `enumerate_homs` wraps costs no dict; `_trusted` sets them directly.
    """

    source: FiniteMonoid
    target: FiniteMonoid
    map: tuple

    def __post_init__(self):
        hmap = exact(self.map, "map", (self.source.size,), self.target.size)
        object.__setattr__(self, "map", hmap)

    @classmethod
    def _trusted(cls, source: FiniteMonoid, target: FiniteMonoid, map: tuple) -> "MonoidHom":
        """Build without the shape checks, for results of internal algebra.

        The caller guarantees that `map` is a tuple of `source.size` ints in
        range for `target`; untrusted data goes through the constructor.
        """
        h = object.__new__(cls)
        object.__setattr__(h, "source", source)
        object.__setattr__(h, "target", target)
        object.__setattr__(h, "map", map)
        return h


@dataclass(frozen=True)
class CMonDIE:
    """A commutative monoid with a distinguished invertible element.

    `die_inv` is a stored witness; `check_cmon_die` verifies it rather than
    trusting it.  A die read from JSON that has no inverse carries itself
    as its witness, so the structure is built and the check reports it.
    `die` and `die_inv` are exact ints in range of the monoid (see
    `report.exact`).  Kept on an instance (see `report.kept`): the
    reduced functors out of it, interned by `doubly._interned`.
    """

    monoid: FiniteMonoid
    die: int
    die_inv: int

    def __post_init__(self):
        exact(self.die, "die", (), self.monoid.size)
        exact(self.die_inv, "die_inv", (), self.monoid.size)

    __getstate__ = fields_state


def check_monoid(mul, unit) -> ValidationReport:
    """Report every violated associativity triple and unit law instance.

    Takes a raw table (a list or tuple of rows) and its unit.  The shape
    test is the constructors' (`report.exact`): a square table and a unit
    of exact ints in range, so an empty table has no unit.  A shape
    problem is reported as one structural `shape` finding, distinct from
    axiom failures, and suppresses the axiom scan.
    """
    n = len(mul) if hasattr(mul, "__len__") else None
    try:
        rows = exact(mul, "mul", (n, n), n)
        unit = exact(unit, "unit", (), n)
    except StructuralError as e:
        report = ValidationReport("monoid")
        report.add_structural("shape", (), str(e))
        return report
    return check_monoid_axioms(rows, unit)


def check_monoid_axioms(rows, unit) -> ValidationReport:
    """The axiom scan of `check_monoid`, without its shape gate: for a
    table that a constructor has gated already (`FiniteMonoid`'s table,
    `DDBicat`'s vcomp), so a square tuple of rows of ints in range, and
    its unit an int in range."""
    report = ValidationReport("monoid")
    n = len(rows)
    for x in range(n):
        if rows[unit][x] != x:
            report.add("unit", (x,), f"unit*{x} = {rows[unit][x]}")
        if rows[x][unit] != x:
            report.add("unit", (x,), f"{x}*unit = {rows[x][unit]}")
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                lhs = rows[xy][z]
                rhs = rows[x][rows[y][z]]
                if lhs != rhs:
                    report.add(
                        "associativity", (x, y, z), f"({x}{y}){z} = {lhs} != {rhs} = {x}({y}{z})"
                    )
    return report


def check_commutative(m: FiniteMonoid) -> list:
    """All pairs (x, y) with x < y where the table is not symmetric."""
    bad = []
    for x in range(m.size):
        for y in range(x + 1, m.size):
            if m.mul[x][y] != m.mul[y][x]:
                bad.append((x, y))
    return bad


def invert(m: FiniteMonoid, x: int) -> int | None:
    """The two-sided inverse of x, or None."""
    for y in range(m.size):
        if m.mul[x][y] == m.unit and m.mul[y][x] == m.unit:
            return y
    return None


def units(m: FiniteMonoid) -> list:
    return [x for x in range(m.size) if invert(m, x) is not None]


def check_hom(h: MonoidHom) -> ValidationReport:
    """Unit preservation and multiplicativity, itemized per input."""
    report = ValidationReport("monoid_hom")
    hmap, tmul = h.map, h.target.mul
    if hmap[h.source.unit] != h.target.unit:
        report.add("unit-preservation", (h.source.unit,), f"unit maps to {hmap[h.source.unit]}")
    for x, row in enumerate(h.source.mul):
        trow = tmul[hmap[x]]
        for y, xy in enumerate(row):
            lhs = hmap[xy]
            rhs = trow[hmap[y]]
            if lhs != rhs:
                report.add("multiplicativity", (x, y), f"h({x}{y}) = {lhs} != {rhs}")
    return report


def check_cmon_die(s: CMonDIE) -> ValidationReport:
    """Monoid axioms, commutativity, and the inverse witness for the die.

    A failing witness is reported at (die, die_inv), or at (die,) when the
    die has no inverse at all."""
    report = ValidationReport("cmon_die")
    report.extend(check_monoid_axioms(s.monoid.mul, s.monoid.unit))
    for x, y in check_commutative(s.monoid):
        report.add("commutativity", (x, y), f"{x}*{y} != {y}*{x}")
    m = s.monoid
    if m.mul[s.die][s.die_inv] != m.unit or m.mul[s.die_inv][s.die] != m.unit:
        if invert(m, s.die) is None:
            report.add("die-invertible", (s.die,), "no inverse exists")
        else:
            report.add("die-invertible", (s.die, s.die_inv), "stored inverse witness fails")
    return report


def identity_hom(m: FiniteMonoid) -> MonoidHom:
    return MonoidHom._trusted(m, m, tuple(range(m.size)))


def make_cmon_die(m: FiniteMonoid, die: int) -> CMonDIE:
    """Build a CMonDIE, validating the monoid and locating the inverse."""
    rep = check_monoid_axioms(m.mul, m.unit)
    if not rep.ok:
        raise InvalidStructureError("not a monoid: " + _summary(rep))
    if check_commutative(m):
        raise InvalidStructureError("monoid is not commutative")
    inv = invert(m, die)
    if inv is None:
        raise InvalidStructureError(f"element {die} is not invertible")
    return CMonDIE(m, die, inv)


def _summary(report: ValidationReport) -> str:
    first = (report.structural + report.violations)[:1]
    return first[0].message if first else "unknown"


# -- enumeration ------------------------------------------------------------


def max_enumeration_size() -> int:
    """The size bound from the environment; unset or empty means the default.

    A value that is not a non-negative integer is refused, not replaced.
    Only ASCII decimal digits are read, so a sign, a space, an underscore
    or a non-ASCII digit is refused too, where `int()` would accept it.
    """
    raw = os.environ.get(MAX_SIZE_ENV, "")
    if not raw:
        return DEFAULT_MAX_SIZE
    if raw.isascii() and raw.isdigit():
        return int(raw)
    digits = raw[1:]
    if raw[0] == "-" and digits.isascii() and digits.isdigit() and int(digits):
        raise StructuralError(f"{MAX_SIZE_ENV}={raw!r} is negative")
    raise StructuralError(f"{MAX_SIZE_ENV}={raw!r} is not an integer")


def _check_enumeration_size(n: int) -> None:
    # an exact int, so a float or bool cannot hit the cache key of an int
    exact(n, "enumeration size")
    if n < 0:
        raise StructuralError(f"enumeration size {n} is negative")
    bound = max_enumeration_size()
    if n > bound:
        raise StructuralError(
            f"enumeration size {n} exceeds bound {bound} (set {MAX_SIZE_ENV} to raise it)"
        )


@functools.cache
def _relabelers(n: int) -> tuple:
    """Every permutation of range(n), grouped by the element it labels 0.

    Entry a lists each perm with perm^-1(0) = a as a triple: its
    `bytes.translate` table, which sends each value x to perm[x], and two
    item getters that read the relabeled table out of a translated flat
    table, one its rows 0 and 1 and one all n^2 cells.  Cell (i, j) of the
    relabeled table sits at perm^-1(i)*n + perm^-1(j).  Needs n >= 2.
    Kept for the life of the process, one entry per size asked for: about
    5 MB at n = 7.
    """
    groups = [[] for _ in range(n)]
    pad = bytes(256 - n)
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        cells = [x * n + y for x in inv for y in inv]
        groups[inv[0]].append((bytes(perm) + pad, itemgetter(*cells[: 2 * n]), itemgetter(*cells)))
    return tuple(tuple(g) for g in groups)


def canonical_form(mul) -> tuple:
    """Lexicographically minimal flattened table over all relabelings.

    The relabeling by `perm` sends row/column i to perm^-1(i), so row i of
    the relabeled table is (perm[mul[perm^-1 i][perm^-1 j]] for each j).
    Its cell (0, 0) is 0 exactly when the element labelled 0 is idempotent,
    so only idempotents are tried as label 0, or every element when there
    is none (a monoid's unit is idempotent).

    Of the idempotents, only those with the largest fiber, the number of x
    with a*x = a, are tried.  With a at label 0, row 0 of the relabeled
    table is 0 exactly at the labels of those x.  A relabeling that gives
    them the first labels starts row 0 with as many 0s as the fiber has
    elements, which no relabeling with a smaller fiber at label 0 can
    match, so the minimum comes from a largest fiber.  The argument reads
    no monoid law, so it holds for any table with an idempotent.  The
    minimum is still taken over every relabeling that puts such an
    element at label 0, so the result is the same lex-min table.

    Each candidate is one `translate` of the flat table and one read of
    its first two rows; the full table is read only when they are not
    above the best ones so far.  Two rows prune more than row 0 alone,
    which ties for every relabeling that puts the same element at label 0.
    """
    n = len(mul)
    if n < 2:  # an item getter of one index returns the item, not a tuple
        return tuple(v for row in mul for v in row)
    flat = bytes(v for row in mul for v in row)
    relabelers = _relabelers(n)
    fibers = {a: mul[a].count(a) for a in range(n) if mul[a][a] == a}
    top = max(fibers.values(), default=None)
    # every prefix and table of values < n sorts below (n,)
    best = best_head = (n,)
    for a in [a for a, f in fibers.items() if f == top] or range(n):
        for table, head, cells in relabelers[a]:
            t = flat.translate(table)
            h = head(t)
            if h <= best_head:
                c = cells(t)
                if c < best:
                    best, best_head = c, h
    return best


# the classes `enumerate_monoids` found, by (n, commutative_only), kept for
# the life of the process
_CLASSES: dict = {}

# one object per distinct map and per distinct hom-set that `hom_maps`
# returns, each its own key, kept for the life of the process
_INTERNED: dict = {}


def interned(t: tuple) -> tuple:
    """The one object in `_INTERNED` equal to `t`, which becomes it if
    none is there yet."""
    return _INTERNED.setdefault(t, t)


def enumerate_monoids(n: int, commutative_only: bool = False) -> list:
    """All monoids with n elements, one per isomorphism class.

    The orderly search `_unital_associative_tables` yields exactly one
    unit-0 table per class, so `canonical_form` runs once per class.  The
    canonical forms are returned sorted, for determinism, each with the
    unit it carries: the index of its identity row.  They are built
    trusted (`FiniteMonoid._trusted`), since the search made every table.
    Refuses a negative n and n beyond the configured bound, on every call.

    The search runs once per (n, commutative_only) in a process: each call
    returns a new list of the same `FiniteMonoid` instances, so the values
    kept on them serve every later caller.  Whichever of the plain and the
    commutative search of one n runs second takes the first's instance for
    each equal table, looked up by `mul`, so a commutative class is one
    object in both.
    """
    _check_enumeration_size(n)
    if n == 0:
        return []
    key = (n, bool(commutative_only))
    classes = _CLASSES.get(key)
    if classes is None:
        forms = sorted(canonical_form(t) for t in _unital_associative_tables(n, commutative_only))
        tables = [tuple(form[i * n : (i + 1) * n] for i in range(n)) for form in forms]
        # the unit is the identity row: a left identity of a monoid is its unit
        identity = tuple(range(n))
        shared = {m.mul: m for m in _CLASSES.get((n, not commutative_only), ())}
        classes = _CLASSES[key] = tuple(
            shared.get(t) or FiniteMonoid._trusted(n, t.index(identity), t) for t in tables
        )
    return list(classes)


def _unital_associative_tables(n: int, commutative_only: bool):
    """Orderly backtracking over tables with unit 0: one table per class.

    Only the (n-1)^2 inner cells vary; the unit row and column are forced.
    Cells are filled in row-major order (upper triangle when commutative,
    mirrored), so the known cells are always a row-major prefix.  After
    each placement every associativity triple whose four lookups are all
    known and include the new cell is re-checked.  The triples that read
    it as ab or bc are found through a row or column; those that read it
    as (ab)c or a(bc) come from a preimage index of the known inner cells
    by value, kept in step with each placement and its undo, so no check
    scans the table.  A placement that passes, at a diagonal cell or at
    the last cell of a row, is then compared with its image under every
    relabeling that fixes 0: inner cells in row-major order, stopping at
    the first cell unknown on either side.  The node is pruned if the
    image is strictly smaller at the first cell where the two differ; a
    strictly smaller prefix stays smaller in every completion.  Likewise a
    strictly larger image stays larger, so that relabeling is not compared
    again below the node.  Skipping the compare at the other cells only
    delays a prune.  The last cell ends a row, so leaves are compared in
    full, and the search yields exactly the lex-least unit-0 table of each
    isomorphism class (isomorphisms fix the unit).
    """
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    if commutative_only:
        cells = [(x, y) for (x, y) in cells if x <= y]
    compare = [x == y or y == n - 1 for x, y in cells]  # the cells the lex-leader compare follows
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = i
        table[i][0] = i

    # each non-identity relabeling p with p[0] == 0, with the inner cells in
    # row-major order as (row x, column y, row p^-1 x, column p^-1 y): the
    # image's entry at (x, y) is p[table[p^-1 x][p^-1 y]]
    inner = range(1, n)
    images = []
    for tail in itertools.islice(itertools.permutations(inner), 1, None):
        p = (0,) + tail
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        pairs = [(table[x], y, table[inv[x]], inv[y]) for x in inner for y in inner]
        images.append((p, pairs))

    def undecided(live):
        # the relabelings in live whose image is not yet known to be larger,
        # or None if some image is strictly smaller
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
                out.append(image)  # equal so far on every cell
        return out

    # pre[v]: the known inner cells (a, b) with table[a][b] == v.  A triple
    # with the unit in any position holds in every unit-0 table, so neither
    # the index nor the checks below need the unit's row and column.
    pre = [[] for _ in range(n)]
    inner_rows = table[1:]

    def consistent_after(x, y):
        # every triple of inner elements one of whose four lookups is the cell
        # (x, y), in each of its four roles; unknown lookups pass
        row_x = table[x]
        xy = row_x[y]
        row_xy, row_y = table[xy], table[y]
        for c in inner:  # (x, y, c): (xy)c = x(yc)
            yc = row_y[c]
            if yc is not None:
                lhs, rhs = row_xy[c], row_x[yc]
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
        for row_a in inner_rows:  # (a, x, y): (ax)y = a(xy)
            ax = row_a[x]
            if ax is not None:
                lhs, rhs = table[ax][y], row_a[xy]
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
        for a, b in pre[x]:  # (a, b, y) with ab = x: xy = a(by)
            by = table[b][y]
            if by is not None:
                rhs = table[a][by]
                if rhs is not None and rhs != xy:
                    return False
        for b, c in pre[y]:  # (x, b, c) with bc = y: (xb)c = xy
            xb = row_x[b]
            if xb is not None:
                lhs = table[xb][c]
                if lhs is not None and lhs != xy:
                    return False
        return True

    def place(k, live):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        x, y = cells[k]
        row_x, row_y = table[x], table[y]
        mirror = commutative_only and x != y
        for v in range(n):
            known = pre[v]
            row_x[y] = v
            known.append((x, y))
            if mirror:
                row_y[x] = v
                known.append((y, x))
            if consistent_after(x, y) and (not mirror or consistent_after(y, x)):
                still = undecided(live) if compare[k] else live
                if still is not None:
                    yield from place(k + 1, still)
            known.pop()
            if mirror:
                known.pop()
        row_x[y] = None
        if mirror:
            row_y[x] = None

    yield from place(0, images)


def _compile_hom_kernel(source: FiniteMonoid):
    """The search of `hom_maps` out of `source`, as one compiled comprehension.

    The unit is placed first and the other elements follow in index order,
    one `for h<x> in ...` clause per step.  Each equation h(ab) = h(a)h(b)
    goes into the `if` of the step at which the last of a, b and ab is
    placed, so every equation is checked once on the path to each leaf.
    An element x other than the unit u with u*x = x = x*u draws h(x) from
    the target values v with t[tu][v] = v = t[v][tu], passed in as
    `unit_values`, and its two unit equations are dropped, since that list
    states them; every other element draws from all values and keeps its
    unit equations.  So the maps are those of the plain search, in the
    same order, for any pair of tables, monoid or not.  An element x
    appears in the text only as the variable name h<x>, so no table value
    is pasted into code.  The kernel takes the target's table, unit,
    values and unit-law values, and returns the list of maps, each a
    tuple.
    """
    n, u, mul = source.size, source.unit, source.mul
    names = [f"h{x}" for x in range(n)]
    order = (u,) + tuple(x for x in range(n) if x != u)
    step = {x: k for k, x in enumerate(order)}
    unital = {x for x in order[1:] if mul[u][x] == x == mul[x][u]}
    buckets = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if (a == u and b in unital) or (b == u and a in unital):
                continue
            ab = mul[a][b]
            buckets[max(step[a], step[b], step[ab])].append(
                f"t[{names[a]}][{names[b]}] == {names[ab]}"
            )
    clauses = []
    for k, x in enumerate(order):
        draw = "(tu,)" if k == 0 else "unit_values" if x in unital else "values"
        clauses.append(f"for {names[x]} in {draw}")
        if buckets[k]:
            clauses.append("if " + " and ".join(buckets[k]))
    text = f"lambda t, tu, values, unit_values: [({', '.join(names)},) {' '.join(clauses)}]"
    return eval(text, {})


def hom_maps(source: FiniteMonoid, target: FiniteMonoid) -> tuple:
    """The maps of all monoid homomorphisms source -> target, by backtracking.

    Each map is a tuple of target indices, one per source element.  The
    search is a comprehension compiled once per source object (see
    `_compile_hom_kernel`): the unit's image is forced to the target's
    unit and placed first; the other elements then take each candidate
    target element in index order, and after each placement only the
    equations h(ab) = h(a)h(b) whose last unknown was that element are
    checked.  The unit's position is fixed, so the maps come out in
    lexicographic order.

    The result is a tuple of the maps, and equal maps and equal hom-sets
    are one object in a process: each goes through the table `_INTERNED`,
    so a hom-set is shared by every pair that has it.  The search runs
    once per pair of objects in a process, kept on `source` as
    `_hom_maps` (see `report.kept_for`).
    """
    return kept_for(source, target, "_hom_maps", _search_hom_maps)


def _search_hom_maps(source: FiniteMonoid, target: FiniteMonoid) -> tuple:
    """Run the source's kernel, compiled and kept on its first search, on
    the target, and intern what it finds."""
    kernel = kept(source, "_hom_kernel", _compile_hom_kernel)
    t, tu = target.mul, target.unit
    values = range(target.size)
    unit_row = t[tu]
    unit_values = [v for v in values if unit_row[v] == v == t[v][tu]]
    intern = _INTERNED.setdefault
    found = kernel(t, tu, values, unit_values)
    homs = tuple(map(intern, found, found))
    return intern(homs, homs)


def enumerate_homs(source: FiniteMonoid, target: FiniteMonoid) -> list:
    """All monoid homomorphisms source -> target, as `MonoidHom`s on the
    maps of `hom_maps`, in its order."""
    return [MonoidHom._trusted(source, target, m) for m in hom_maps(source, target)]


def enumerate_dies(m: FiniteMonoid) -> list:
    """Every CMonDIE structure on a commutative monoid (one per unit element).

    Built once per monoid object and kept on it as `_dies`: each call
    returns a new list of the same `CMonDIE` instances, so the functors
    interned on them (see `doubly._interned`) serve every later caller.
    """
    return list(kept(m, "_dies", _dies))


def _dies(m: FiniteMonoid) -> tuple:
    return () if check_commutative(m) else tuple(CMonDIE(m, d, invert(m, d)) for d in units(m))


def cmon_die_universe(bound: int) -> list:
    """All (commutative monoid, die) pairs of size up to bound.

    One pair per (monoid class, unit), not up to iso: isomorphic pairs such
    as (Z/3, die 1) and (Z/3, die 2) both occur.  The monoids and dies are
    the instances `enumerate_monoids` and `enumerate_dies` keep, so every
    call in a process returns the same objects, and the dies of a smaller
    bound are the first dies of a larger one.
    """
    _check_enumeration_size(bound)
    out = []
    for n in range(1, bound + 1):
        for m in enumerate_monoids(n, commutative_only=True):
            out.extend(enumerate_dies(m))
    return out
