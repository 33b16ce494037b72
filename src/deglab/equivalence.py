"""Internal equivalence of 0-cells and external j-equivalence of j-functors.

Works on explicit finite 1- and 2-dimensional categories.  All in-scope
2-dimensional instances are strict, so no weak-ambient variant is needed.
The category laws are written once, for one composition table over cells
with ends and an identity per object (`_check_table`), and applied to
1-cells and to 2-cells vertically and horizontally, and to the composition
table of a `fincat.FiniteCategory`.  A j-functor is an
external j-equivalence iff it is locally essentially surjective at every
dimension and locally faithful at the top dimension; one search per
criterion and dimension walks only the hom-sets that can fail (those with a
target cell to hit, or with two or more cells to identify), in the order of
their ends, and reports the dimension and a witness for the first failure.
"""

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from operator import gt

from .report import InvalidStructureError, Report, StructuralError, ValidationReport, exact


def _positions(keys) -> dict:
    """The positions of each key in `keys`, in order."""
    index: dict = {}
    for i, key in enumerate(keys):
        index.setdefault(key, []).append(i)
    return index


@dataclass(frozen=True)
class FiniteJCategory:
    """A finite (strict) 1- or 2-category given by explicit cell tables.

    one_comp maps composable pairs (g, f) with tgt(f) = src(g) to g.f;
    two_vcomp and two_hcomp likewise for vertical and horizontal 2-cell
    composition.  The tables may be any Mapping: hand-built ones are dicts,
    and those of `hom_indexed_category` compute each composite on read.
    Labels are carried for witness readability only.

    `hom1` and `hom2` read one hom-set from an index of the cells by their
    ends, built from the cells on first use.  `hom_indexed_category` hands
    the category its own numbering of the hom-sets instead, so that index
    is never built; a copy made by `dataclasses.replace` builds its own.
    An index maps the ends of each hom-set to its cells in ascending order,
    or, for the one 2-cell of a locally thin category's hom-set, to that
    cell alone.
    """

    j: int
    zero_cells: tuple
    one_cells: tuple  # (src, tgt) pairs of 0-cell indices
    one_identity: tuple  # identity 1-cell per 0-cell
    one_comp: Mapping  # (g, f) -> g after f
    two_cells: tuple = ()  # (src, tgt) pairs of parallel 1-cell indices
    two_identity: tuple = ()  # identity 2-cell per 1-cell
    two_vcomp: Mapping = field(default_factory=dict)
    two_hcomp: Mapping = field(default_factory=dict)

    @cached_property
    def _hom1_index(self) -> dict:
        return _positions(self.one_cells)

    @cached_property
    def _hom2_index(self) -> dict:
        return _positions(self.two_cells)

    def hom1(self, x1: int, x2: int):
        """The 1-cells x1 -> x2, in ascending order."""
        return self._hom1_index.get((x1, x2), ())

    def hom2(self, f1: int, f2: int):
        """The 2-cells f1 => f2, in ascending order."""
        cells = self._hom2_index.get((f1, f2), ())
        return (cells,) if cells.__class__ is int else cells


class _Composites(Mapping):
    """The table (b, a) -> b.a over cells with (src, tgt) ends.

    (b, a) is a key iff tgt(a) = src(b): membership comes from the ends
    alone, and each value is computed on read by compose(b, a), with no
    cache.  Iteration and length read an index of the cells by source,
    built on first use.  Equality is identity, so comparing two tables
    never builds them out.
    """

    def __init__(self, ends, compose):
        self._ends = ends
        self._compose = compose

    @cached_property
    def _starting(self) -> dict:
        return _positions(s for s, _ in self._ends)

    def __contains__(self, key):
        try:
            b, a = key
            n = len(self._ends)
            return 0 <= a < n and 0 <= b < n and self._ends[a][1] == self._ends[b][0]
        except (TypeError, ValueError):
            return False

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return self._compose(*key)

    def __iter__(self):
        starting = self._starting
        for a, (_, t) in enumerate(self._ends):
            for b in starting.get(t, ()):
                yield (b, a)

    def __len__(self):
        starting = self._starting
        return sum(len(starting.get(t, ())) for _, t in self._ends)

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _position(index: dict, key) -> int:
    pos = index.get(key)
    if pos is None:
        raise InvalidStructureError(f"composite or identity {key!r} missing from its hom-set")
    return pos


def hom_indexed_category(zero_cells, homs, key, compose, identity, two_cell=None):
    """Assemble a finite 1- or 2-category from explicit hom-sets.

    homs[(i, k)] lists the arrows from 0-cell i to 0-cell k in ascending
    order of key(arrow), else InvalidStructureError naming the hom-set;
    equal keys may repeat.  1-cells are numbered in that order, so the
    1-cells i -> k are one contiguous range, and a 1-cell is found again
    by (i, k, key) through a binary search of its range, the first arrow
    with the key winning; nothing is kept per 1-cell beyond the arrow and
    its ends.  compose(g, f) is g after f and identity(i) the identity on
    0-cell i; each result must lie in its hom-set, else
    InvalidStructureError.  With two_cell(f, g) given, the result is a
    locally thin 2-category with a 2-cell f => g for each parallel pair on
    which two_cell returns a true value, ordered by source, then target;
    nothing two_cell returns is kept.  The category's `hom1` and `hom2`
    read this numbering: `hom1` reads the ranges, and each 2-cell is found
    by its ends.

    Returns (category, one_cell): one_cell(i, k, key) is the 1-cell i -> k
    with that key, or InvalidStructureError if there is none.
    """
    arrows, ends, span = [], [], {}
    for e, hom in homs.items():  # each cell's ends are its hom-set's key, shared
        span[e] = range(len(arrows), len(arrows) + len(hom))
        arrows += hom
        ends += [e] * len(hom)
        if len(hom) > 1:
            keys = list(map(key, hom))
            if any(map(gt, keys, keys[1:])):
                raise InvalidStructureError(f"hom-set {e!r} is not in ascending key order")
    ends = tuple(ends)

    def one_cell(i, k, kv):
        cells = span.get((i, k))
        if cells is not None:
            try:
                pos = bisect_left(arrows, kv, cells.start, cells.stop, key=key)
            except TypeError:  # kv does not compare with the hom-set's keys
                pos = cells.stop
            if pos < cells.stop and key(arrows[pos]) == kv:
                return pos
        raise InvalidStructureError(f"composite or identity {(i, k, kv)!r} missing from its hom-set")

    def one_comp(g, f):
        return one_cell(ends[f][0], ends[g][1], key(compose(arrows[g], arrows[f])))

    zero_cells = tuple(zero_cells)
    one_identity = tuple(one_cell(i, i, key(identity(i))) for i in range(len(zero_cells)))
    one_table = _Composites(ends, one_comp)
    if two_cell is None:
        cat = FiniteJCategory(1, zero_cells, ends, one_identity, one_table)
        object.__setattr__(cat, "_hom1_index", span)
        return cat, one_cell

    two_cells, two_index = [], {}
    for f, e in enumerate(ends):
        for g in span[e]:
            if two_cell(arrows[f], arrows[g]):
                cell = (f, g)  # one tuple for the cell's ends and its index key
                two_index[cell] = len(two_cells)
                two_cells.append(cell)
    two_cells = tuple(two_cells)

    def vcomp(b, a):
        return _position(two_index, (two_cells[a][0], two_cells[b][1]))

    def hcomp(b, a):
        (f1, g1), (f2, g2) = two_cells[a], two_cells[b]
        return _position(two_index, (one_comp(f2, f1), one_comp(g2, g1)))

    cat = FiniteJCategory(
        j=2,
        zero_cells=zero_cells,
        one_cells=ends,
        one_identity=one_identity,
        one_comp=one_table,
        two_cells=two_cells,
        two_identity=tuple(_position(two_index, (f, f)) for f in range(len(ends))),
        two_vcomp=_Composites(two_cells, vcomp),
        two_hcomp=_Composites(tuple(ends[f] for f, _ in two_cells), hcomp),
    )
    object.__setattr__(cat, "_hom1_index", span)
    object.__setattr__(cat, "_hom2_index", two_index)
    return cat, one_cell


@dataclass(frozen=True)
class JFunctor:
    """A j-functor: maps on 0-, 1- and 2-cells, taken as exact ints, one per
    source cell and in range of the target's cells (see `report.exact`)."""

    source: FiniteJCategory
    target: FiniteJCategory
    map0: tuple
    map1: tuple
    map2: tuple = ()

    def __post_init__(self):
        x, y = self.source, self.target
        if x.j != y.j:
            raise StructuralError("source and target dimension mismatch")
        for name, xs, ys in (
            ("map0", x.zero_cells, y.zero_cells),
            ("map1", x.one_cells, y.one_cells),
            ("map2", x.two_cells, y.two_cells),
        ):
            object.__setattr__(self, name, exact(getattr(self, name), name, (len(xs),), len(ys)))


def _cell(i, n: int) -> bool:
    return type(i) is int and 0 <= i < n


def _pair(key, n: int) -> bool:
    return isinstance(key, tuple) and len(key) == 2 and _cell(key[0], n) and _cell(key[1], n)


def _check_cells(report, name, ends, identity, lower) -> bool:
    """Structural checks of one dimension's cells: each runs between two
    parallel lower cells, whose ends `lower` lists (None for 0-cells), and
    identity[o] runs from o to o.  False if the identities cannot be read."""
    n = len(lower)
    for a, cell_ends in enumerate(ends):
        if not _pair(cell_ends, n):
            report.add_structural(f"{name}-cell-endpoints", (a,))
        elif lower[cell_ends[0]] != lower[cell_ends[1]]:
            report.add_structural(f"{name}-cell-not-parallel", (a,))
    if len(identity) != n:
        report.add_structural(f"{name}-identity-count", ())
    if not report.well_formed:
        return False
    for o, i in enumerate(identity):
        if not _cell(i, len(ends)) or ends[i] != (o, o):
            report.add_structural(f"{name}-identity-endpoints", (o,))
    return True


def _check_table(report, name, ends, identity, table, cells=None, boundary=None) -> dict | None:
    """Add the category laws of one composition table to `report`.

    Cell a runs from ends[a][0] to ends[a][1], identity[o] is the identity
    on object o, and table[(b, a)] is b after a.  Structural: the keys are
    exactly the composable pairs (`-domain`, `-missing`), and each composite
    c has cells[c] == boundary(b, a) (`-endpoints`; by default it runs from
    the source of a to the target of b).  Then identities must be units and
    composition associative.  Each composite is read once, into a dict, and
    partners come from one index of cells by source: one step per composable
    pair or triple.  Returns that dict if the table is well formed, else None.
    """
    n = len(ends)
    starting = _positions(s for s, _ in ends)
    for key in table:
        if not (_pair(key, n) and ends[key[1]][1] == ends[key[0]][0]):
            report.add_structural(f"{name}-domain", key if isinstance(key, tuple) else (key,))
    for a, (_, t) in enumerate(ends):
        for b in starting.get(t, ()):
            if (b, a) not in table:
                report.add_structural(f"{name}-missing", (b, a))
    if not report.well_formed:
        return None
    cells = ends if cells is None else cells
    table = dict(table.items())
    for (b, a), c in table.items():
        want = (ends[a][0], ends[b][1]) if boundary is None else boundary(b, a)
        if not _cell(c, len(cells)) or cells[c] != want:
            report.add_structural(f"{name}-endpoints", (b, a))
    if not report.well_formed:
        return None

    for f, (s, t) in enumerate(ends):
        if table[(identity[t], f)] != f:
            report.add(f"{name}-left-identity", (f,))
        if table[(f, identity[s])] != f:
            report.add(f"{name}-right-identity", (f,))
    for (b, a), ba in table.items():
        for c in starting.get(ends[b][1], ()):
            if table[(c, ba)] != table[(table[(c, b)], a)]:
                report.add(f"{name}-associativity", (c, b, a))
    return table


def check_jcategory(x: FiniteJCategory) -> ValidationReport:
    """Strict category / 2-category laws on explicit data.

    `_check_table` checks each composition table: 1-cells over 0-cells, and
    2-cells vertically over 1-cells and horizontally over 0-cells.  Only the
    axioms tying the tables together are checked here: horizontal composites
    of identity 2-cells are identities, and interchange.
    """
    report = ValidationReport(f"{x.j}-category")
    if not _check_cells(report, "one", x.one_cells, x.one_identity, [None] * len(x.zero_cells)):
        return report
    one = _check_table(report, "one-comp", x.one_cells, x.one_identity, x.one_comp)
    if one is None or x.j < 2:
        return report
    two = x.two_cells
    if not _check_cells(report, "two", two, x.two_identity, x.one_cells):
        return report
    vcomp = _check_table(report, "two-vcomp", two, x.two_identity, x.two_vcomp)
    if vcomp is None:
        return report

    def boundary(b, a):
        (fa, ga), (fb, gb) = two[a], two[b]
        return one[(fb, fa)], one[(gb, ga)]

    ends = tuple(x.one_cells[f] for f, _ in two)
    units = tuple(x.two_identity[i] for i in x.one_identity)
    hcomp = _check_table(report, "two-hcomp", ends, units, x.two_hcomp, two, boundary)
    if hcomp is None:
        return report
    for (g, f), gf in one.items():
        if hcomp[(x.two_identity[g], x.two_identity[f])] != x.two_identity[gf]:
            report.add("two-hcomp-identity", (g, f))
    # interchange, over pairs of vertical pairs whose 0-cell ends meet
    ending: dict = {}
    for (a2, a1), a in vcomp.items():
        ending.setdefault(ends[a][1], []).append((a2, a1, a))
    for (b2, b1), b in vcomp.items():
        for a2, a1, a in ending.get(ends[b][0], ()):
            if hcomp[(b, a)] != vcomp[(hcomp[(b2, a2)], hcomp[(b1, a1)])]:
                report.add("interchange", (b2, b1, a2, a1))
    return report


def check_jfunctor(fun: JFunctor) -> ValidationReport:
    """Functoriality per dimension (endpoints, identities, compositions)
    between j-categories.  An image with the wrong ends is structural and
    suppresses the composition equations, whose composites need not exist."""
    report = ValidationReport(f"{fun.source.j}-functor")
    x, y = fun.source, fun.target
    m0, m1, m2 = fun.map0, fun.map1, fun.map2
    for f, (s, t) in enumerate(x.one_cells):
        if y.one_cells[m1[f]] != (m0[s], m0[t]):
            report.add_structural("one-cell-endpoints", (f,))
    for a, (s, t) in enumerate(x.two_cells):
        if y.two_cells[m2[a]] != (m1[s], m1[t]):
            report.add_structural("two-cell-endpoints", (a,))
    if not report.well_formed:
        return report
    for o, i in enumerate(x.one_identity):
        if m1[i] != y.one_identity[m0[o]]:
            report.add("one-identity", (o,))
    for f, i in enumerate(x.two_identity):
        if m2[i] != y.two_identity[m1[f]]:
            report.add("two-identity", (f,))
    for name, xt, yt, m in (
        ("one-composition", x.one_comp, y.one_comp, m1),
        ("two-vcomp", x.two_vcomp, y.two_vcomp, m2),
        ("two-hcomp", x.two_hcomp, y.two_hcomp, m2),
    ):
        for (b, a), c in xt.items():
            if m[c] != yt[(m[b], m[a])]:
                report.add(name, (b, a))
    return report


def _invertible_two_cell(x: FiniteJCategory, a: int) -> bool:
    s, t = x.two_cells[a]
    for b in x.hom2(t, s):
        if (
            x.two_vcomp[(b, a)] == x.two_identity[s]
            and x.two_vcomp[(a, b)] == x.two_identity[t]
        ):
            return True
    return False


def one_cells_internally_equivalent(x: FiniteJCategory, f: int, g: int) -> bool:
    """Equivalence of parallel 1-cells inside their hom-(j-1)-category."""
    if x.j == 1:
        return f == g
    for a in x.hom2(f, g):
        if _invertible_two_cell(x, a):
            return True
    return False


def internally_equivalent(x: FiniteJCategory, x1: int, x2: int):
    """Decide internal equivalence of two 0-cells; returns (bool, witness).

    The witness is a pair (f, g) of 1-cell indices whose two composites are
    internally equivalent to identities in the respective hom-categories.
    """
    for f in x.hom1(x1, x2):
        for g in x.hom1(x2, x1):
            gf = x.one_comp[(g, f)]
            fg = x.one_comp[(f, g)]
            if one_cells_internally_equivalent(
                x, gf, x.one_identity[x1]
            ) and one_cells_internally_equivalent(x, fg, x.one_identity[x2]):
                return True, (f, g)
    return False, None


def _bounding_pairs(fun: JFunctor):
    """Yield p, q and the source 2-cells p => q for each pair of parallel
    source 1-cells whose images bound a target 2-cell, in (p, q) order:
    the only pairs with a target 2-cell to hit."""
    x, m1 = fun.source, fun.map1
    bounded: dict = {}  # target 1-cell -> the targets of its 2-cells
    for key in fun.target._hom2_index:
        if key.__class__ is tuple and len(key) == 2:
            bounded.setdefault(key[0], []).append(key[1])
    classes: dict = {}  # ends of a source hom-set -> its 1-cells by image
    for p, ends in enumerate(x.one_cells):
        targets = bounded.get(m1[p])
        if targets is None:
            continue
        by_image = classes.get(ends)
        if by_image is None:
            by_image = classes[ends] = {}
            for q in x.hom1(*ends):
                by_image.setdefault(m1[q], []).append(q)
        qs = [q for v in targets for q in by_image.get(v, ())]
        if len(targets) > 1:
            qs.sort()
        for q in qs:
            yield p, q, x.hom2(p, q)


def _first_unhit(fun: JFunctor, dim: int):
    """(p, q, beta) for the first target dim-cell beta between the images of
    p, q that no source dim-cell p -> q maps to, or None: on the nose at the
    top dimension, up to internal equivalence below it.

    At dimension 1 every pair of 0-cells is walked; at dimension 2 only the
    pairs from `_bounding_pairs`, since no other pair has a target 2-cell.
    Each hom-set's images are collected once.  At the top dimension beta is
    looked up among them; below it each distinct image is compared with
    beta once, beta itself first when it is an image (and each beta with
    itself once per walk).
    """
    x, y = fun.source, fun.target
    if dim == 1:
        lower, image, hom = fun.map0, fun.map1.__getitem__, y.hom1
        n = len(x.zero_cells)
        pairs = ((p, q, x.hom1(p, q)) for p in range(n) for q in range(n))
    else:
        lower, image, hom = fun.map1, fun.map2.__getitem__, y.hom2
        pairs = _bounding_pairs(fun)
    top = dim == x.j
    equivalent = partial(one_cells_internally_equivalent, y)
    reflexive = cache(lambda f: equivalent(f, f))  # asked once per target cell
    for p, q, cells in pairs:
        betas = hom(lower[p], lower[q])
        if not betas:
            continue
        images = set(map(image, cells))
        if top:
            if not images.issuperset(betas):
                return p, q, next(beta for beta in betas if beta not in images)
            continue
        for beta in betas:
            if not (beta in images and reflexive(beta)) and not any(
                equivalent(i, beta) for i in images if i != beta
            ):
                return p, q, beta
    return None


def _crowded_hom_sets(x: FiniteJCategory, dim: int) -> list:
    """The hom-sets of two or more dim-cells, ordered by their ends: pairs
    of 0-cells, or pairs of parallel 1-cells."""
    index = x._hom1_index if dim == 1 else x._hom2_index
    n = len(x.zero_cells) if dim == 1 else len(x.one_cells)
    ends = sorted(
        key
        for key, cells in index.items()
        if cells.__class__ is not int
        and len(cells) > 1
        and _pair(key, n)
        and (dim == 1 or x.one_cells[key[0]] == x.one_cells[key[1]])
    )
    return [index[key] for key in ends]


def _first_clash(fun: JFunctor, dim: int):
    """The first two parallel source dim-cells with one image, or None.

    Only the hom-sets from `_crowded_hom_sets` are walked, one set of
    images each, and the first with fewer images than cells is searched
    once for the witness a pairwise search would find: the first cell with
    a later equal image, and the first such later cell.
    """
    image = (fun.map1 if dim == 1 else fun.map2).__getitem__
    for cells in _crowded_hom_sets(fun.source, dim):
        if len(set(map(image, cells))) == len(cells):
            continue
        first: dict = {}
        best = None
        for pos, a in enumerate(cells):
            at = first.setdefault(image(a), pos)
            if at != pos and (best is None or at < best[0]):
                best = at, a
        return cells[best[0]], best[1]
    return None


def _identity_pair_equivalent(x: FiniteJCategory, x0: int) -> bool:
    """Whether the pair (identity, identity) passes the test that
    `internally_equivalent(x, x0, x0)` applies to each pair of 1-cells; its
    one composite is read through the table."""
    i = x.one_identity[x0]
    return i in x.hom1(x0, x0) and one_cells_internally_equivalent(x, x.one_comp[(i, i)], i)


def check_external_equivalence(fun: JFunctor) -> Report:
    """Unravelled criteria for an external j-equivalence over finite data.

    Checks local essential surjectivity at every dimension, on the nose at
    the top dimension and up to internal equivalence below it, and local
    faithfulness at the top dimension; each finding names its dimension and
    carries a witness for the first failure.

    Essential surjectivity on 0-cells asks, for each target 0-cell y0,
    whether some image 0-cell is internally equivalent to it.  An image y0
    is first settled by its identity pair, one composite; only if that pair
    fails does the full search run, which asks each distinct image once,
    y0 itself first.  Each y0 gets the same answer in any order, so the
    finding and its witness, the first y0 that is missed, do not depend on
    the order.  Local surjectivity and faithfulness walk only the hom-sets
    that can fail (`_first_unhit`, `_first_clash`).
    """
    x, y = fun.source, fun.target
    j = x.j
    report = Report(
        "external-equivalence",
        {
            "bound": None,
            "universe": f"{len(x.zero_cells)} source 0-cells / {len(y.zero_cells)} target 0-cells",
        },
    )

    images = list(dict.fromkeys(fun.map0))
    hit = set(images)
    missed = None
    for y0 in range(len(y.zero_cells)):
        if y0 in hit and _identity_pair_equivalent(y, y0):
            continue
        if not any(
            internally_equivalent(y, y1, y0)[0] for y1 in sorted(images, key=lambda y1: y1 != y0)
        ):
            missed = y0
            break
    report.add(
        "essentially-surjective-on-0-cells",
        missed is None,
        dimension=0,
        witness=None if missed is None else {"target-0-cell": y.zero_cells[missed]},
    )

    for dim in range(1, j + 1):
        miss = _first_unhit(fun, dim)
        witness = None
        if miss is not None:
            p, q, beta = miss
            if dim == 1:
                witness = {"between": [x.zero_cells[p], x.zero_cells[q]], "target-1-cell": beta}
            else:
                witness = {"between-1-cells": [p, q], "target-2-cell": beta}
        criterion = f"locally-essentially-surjective-on-{dim}-cells"
        report.add(criterion, miss is None, dimension=dim, witness=witness)

    clash = _first_clash(fun, j)
    report.add(
        "locally-faithful-at-top-dimension",
        clash is None,
        dimension=j,
        witness=None if clash is None else {f"identified-{j}-cells": list(clash)},
    )
    return report
