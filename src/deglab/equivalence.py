"""Internal equivalence of 0-cells and external j-equivalence of j-functors.

Works on explicit finite strict j-categories, held as tables per dimension.
All in-scope 2-dimensional instances are strict, so no weak-ambient variant
is needed.  The category laws are written once, for one composition table
over cells with ends and an identity per object (`_check_table`), and
applied to every table of every dimension, and to the composition table of
a `fincat.FiniteCategory`; internal equivalence is one recursion over
dimensions.  A j-functor is an external j-equivalence iff it is locally
essentially surjective at every dimension and locally faithful at the top
dimension; one search per criterion and dimension walks only the hom-sets
that can fail (those with a target cell to hit, or with two or more cells to
identify), in the order of their ends, and reports the dimension and a
witness for the first failure.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, chain, repeat

from .report import InvalidStructureError, Report, StructuralError, ValidationReport, exact, kept


def _positions(keys) -> dict:
    """The positions of each key in `keys`, in order."""
    index: dict = {}
    for i, key in enumerate(keys):
        index.setdefault(key, []).append(i)
    return index


# The finding names of each dimension's cells and its tables comp[d-1][k], to d = 2
_CELL_NAMES = ("one", "two")
_COMP_NAMES = (("one-comp",), ("two-hcomp", "two-vcomp"))


def _hom(index: dict, ends):
    """The cells with these ends in a hom index, in ascending order."""
    cells = index.get(ends, ())
    return (cells,) if cells.__class__ is int else cells


@dataclass(frozen=True)
class FiniteJCategory:
    """A finite strict j-category, j = len(cells), given by explicit tables.

    For d = 1..j, cells[d-1] lists the (src, tgt) ends of each d-cell,
    identity[d-1] the identity d-cell on each (d-1)-cell, and comp[d-1][k]
    maps each pair (b, a) of d-cells composable along k-cells to b.a: comp[1]
    is (horizontal, vertical).  The tables may be any Mapping: hand-built
    ones are dicts, and those of `hom_indexed_category` compute each
    composite on read.  Labels are carried for witness readability only.

    Kept on an instance (see `report.kept`): `_hom_index`, per dimension
    the cells by their ends, read by `hom_index` and `hom(d, a, b)`; built
    from the cells unless `hom_indexed_category` handed over its own
    numbering.  It maps the ends of each hom-set to its cells in ascending
    order, or, for the one 2-cell of a locally thin category's hom-set, to
    that cell alone.
    """

    zero_cells: tuple
    cells: tuple
    identity: tuple
    comp: tuple

    @property
    def j(self) -> int:
        return len(self.cells)

    @property
    def hom_index(self) -> tuple:  # hom_index[d - 1]: the d-cells by their ends
        return kept(self, "_hom_index", lambda x: tuple(map(_positions, x.cells)))

    def hom(self, d: int, a: int, b: int):
        """The d-cells a -> b, in ascending order."""
        return _hom(self.hom_index[d - 1], (a, b))

    @property
    def one_comp(self) -> Mapping:
        """comp[0][0], read by `perfbench/tracer.py` until ROADMAP item 16."""
        return self.comp[0][0]

    @property
    def two_hcomp(self) -> Mapping:
        """comp[1][0], read by `perfbench/tracer.py` until ROADMAP item 16."""
        return self.comp[1][0]


class _Composites(Mapping):
    """The table (b, a) -> b.a over cells with (src, tgt) ends.

    (b, a) is a key iff tgt(a) = src(b): membership comes from the ends
    alone, and each value is computed on read by compose(b, a), with no
    cache.  Kept on an instance (see `report.kept`): `_starting`, the
    cells by source, which iteration and length read.  Equality is
    identity, so comparing two tables never builds them out.
    """

    def __init__(self, ends, compose):
        self._ends = ends
        self._compose = compose

    def _by_source(self) -> dict:
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
        starting = kept(self, "_starting", _Composites._by_source)
        for a, (_, t) in enumerate(self._ends):
            for b in starting.get(t, ()):
                yield (b, a)

    def __len__(self):
        starting = kept(self, "_starting", _Composites._by_source)
        return sum(len(starting.get(t, ())) for _, t in self._ends)

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _position(index: dict, key) -> int:
    pos = index.get(key)
    if pos is None:
        raise InvalidStructureError(f"composite or identity {key!r} missing from its hom-set")
    return pos


def hom_indexed_category(zero_cells, homs, *, compose, identity, key=None, two_cell=None):
    """Assemble a finite 1- or 2-category from explicit hom-sets.

    homs[(i, k)] lists the arrows from 0-cell i to 0-cell k, in any order;
    equal keys may repeat.  1-cells are numbered in the order given, laid
    out in bulk: the 1-cells i -> k are one contiguous range, read off the
    running total of the hom-set lengths, and the arrows and ends are the
    hom-sets chained.  A 1-cell is found again by (i, k, key(arrow)), or
    by (i, k, arrow) when no key is given, through one dict per hom-set
    from key to 1-cell, built on the first lookup in that hom-set from the
    back, so the first arrow with a key wins.  compose(g, f) is g after f
    and identity(i) the identity on 0-cell i; each result must lie in its
    hom-set, else InvalidStructureError.  With two_cell(f, g) given, the
    result is a locally thin 2-category with a 2-cell f => g for each
    parallel pair on which two_cell returns a true value, ordered by
    source, then target; nothing two_cell returns is kept.  The
    category's `hom` reads this numbering: the ranges at dimension 1, and
    each 2-cell by its ends.

    Returns (category, one_cell): one_cell(i, k, key) is the 1-cell i -> k
    with that key, or InvalidStructureError if there is none or a key is
    unhashable.
    """
    own = key is None
    lengths = list(map(len, homs.values()))
    starts = list(accumulate(lengths, initial=0))
    span = {e: range(a, b) for e, a, b in zip(homs, starts, starts[1:])}
    arrows = list(chain.from_iterable(homs.values()))
    ends = tuple(chain.from_iterable(map(repeat, homs, lengths)))  # one ends tuple per hom-set
    found: dict = {}  # ends of a hom-set -> its 1-cells by key, from its first lookup

    def one_cell(i, k, kv):
        try:
            cells = found.get((i, k))
            if cells is None:
                hom = span[i, k]
                keys = arrows[hom.start : hom.stop]
                if not own:
                    keys = list(map(key, keys))
                # from the back, so the first arrow with a key wins
                cells = found[i, k] = dict(zip(reversed(keys), reversed(hom)))
            return cells[kv]
        except (KeyError, TypeError):  # no such hom-set or key, or an unhashable key
            raise InvalidStructureError(
                f"composite or identity {(i, k, kv)!r} missing from its hom-set"
            ) from None

    def compose_one(g, f):
        arrow = compose(arrows[g], arrows[f])
        return one_cell(ends[f][0], ends[g][1], arrow if own else key(arrow))

    zero_cells = tuple(zero_cells)
    one_identity = tuple(
        one_cell(i, i, identity(i) if own else key(identity(i))) for i in range(len(zero_cells))
    )
    # per dimension: the cells, their identities, composition tables and hom index
    dims = [(ends, one_identity, (_Composites(ends, compose_one),), span)]
    if two_cell is not None:
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
            return _position(two_index, (compose_one(f2, f1), compose_one(g2, g1)))

        two_identity = tuple(_position(two_index, (f, f)) for f in range(len(ends)))
        h_ends = tuple(ends[f] for f, _ in two_cells)  # the 0-cell ends of each 2-cell
        two_comp = (_Composites(h_ends, hcomp), _Composites(two_cells, vcomp))
        dims.append((two_cells, two_identity, two_comp, two_index))
    cells, identities, comps, index = zip(*dims)
    cat = FiniteJCategory(zero_cells, cells, identities, comps)
    kept(cat, "_hom_index", lambda _: index)  # handed over, so none is built
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
        # the cell counts per dimension, 0 past the top
        xs, ys = ((len(c.zero_cells), *map(len, c.cells), 0) for c in (x, y))
        for name, n, m in zip(("map0", "map1", "map2"), xs, ys):
            object.__setattr__(self, name, exact(getattr(self, name), name, (n,), m))

    @property
    def maps(self) -> tuple:
        """The maps indexed by dimension: maps[d] sends d-cells."""
        return self.map0, self.map1, self.map2


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


def _check_table(report, name, ends, identity, table, cells=None, lower=None) -> dict | None:
    """Add the category laws of one composition table to `report`.

    Cell a runs from ends[a][0] to ends[a][1], identity[o] is the identity
    on object o, and table[(b, a)] is b after a.  Structural: the keys are
    exactly the composable pairs (`-domain`, `-missing`), and each composite
    c runs (`-endpoints`, by `cells`) from src a to tgt b, or, given the
    checked table `lower` of their ends, from lower[(src b, src a)] to
    lower[(tgt b, tgt a)].  Then identities must be units and composition
    associative.  Each composite is read once, into a dict, and partners
    come from one index of cells by source: one step per composable pair or
    triple.  Returns that dict if the table is well formed, else None.
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
        (sa, ta), (sb, tb) = cells[a], cells[b]
        want = (sa, tb) if lower is None else (lower[(sb, sa)], lower[(tb, ta)])
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
    """Strict j-category laws on explicit data, one dimension d at a time.

    `_check_table` checks each table comp[d-1][k], from k = d-1 down to 0:
    along k-cells, a d-cell runs between the ends of its source (k+1)-cell,
    and below k = d-1 a composite between the composites of the ends.  Only
    the axioms tying the tables together are checked here: below k = d-1,
    composites of identities are identities, and interchange.
    """
    report = ValidationReport(f"{x.j}-category")
    lower, below = (None,) * len(x.zero_cells), {}  # the (d-1)-cells' ends and tables
    for d in range(1, x.j + 1):
        cells, identity = x.cells[d - 1], x.identity[d - 1]
        if not _check_cells(report, _CELL_NAMES[d - 1], cells, identity, lower):
            return report
        row: dict = {}  # k -> the checked table of composition along k-cells
        ends, units = cells, identity
        for k in reversed(range(d)):
            name, along = _COMP_NAMES[d - 1][k], below.get(k)
            table = _check_table(report, name, ends, units, x.comp[d - 1][k], cells, along)
            if table is None:
                return report
            if along is not None:
                for (g, f), gf in along.items():
                    if table[(identity[g], identity[f])] != identity[gf]:
                        report.add(f"{name}-identity", (g, f))
            for inner in row.values():
                # over pairs of inner pairs whose k-cell ends meet
                ending: dict = {}
                for (a2, a1), a in inner.items():
                    ending.setdefault(ends[a][1], []).append((a2, a1, a))
                for (b2, b1), b in inner.items():
                    for a2, a1, a in ending.get(ends[b][0], ()):
                        if table[(b, a)] != inner[(table[(b2, a2)], table[(b1, a1)])]:
                            report.add("interchange", (b2, b1, a2, a1))
            row[k] = table
            if k:
                ends = tuple(x.cells[k - 1][s] for s, _ in ends)
                units = tuple(units[i] for i in x.identity[k - 1])
        lower, below = cells, row
    return report


def check_jfunctor(fun: JFunctor) -> ValidationReport:
    """Functoriality per dimension (endpoints, identities, each composition
    table) between j-categories.  An image with the wrong ends is structural
    and suppresses the equations, whose composites need not exist."""
    report = ValidationReport(f"{fun.source.j}-functor")
    x, y, maps = fun.source, fun.target, fun.maps
    dims = range(1, x.j + 1)
    for d in dims:
        m, lower, ends = maps[d], maps[d - 1], y.cells[d - 1]
        for a, (s, t) in enumerate(x.cells[d - 1]):
            if ends[m[a]] != (lower[s], lower[t]):
                report.add_structural(f"{_CELL_NAMES[d - 1]}-cell-endpoints", (a,))
    if not report.well_formed:
        return report
    for d in dims:
        m, lower, units = maps[d], maps[d - 1], y.identity[d - 1]
        for o, i in enumerate(x.identity[d - 1]):
            if m[i] != units[lower[o]]:
                report.add(f"{_CELL_NAMES[d - 1]}-identity", (o,))
        for k in reversed(range(d)):
            yt = y.comp[d - 1][k]
            for (b, a), c in x.comp[d - 1][k].items():
                if m[c] != yt[(m[b], m[a])]:
                    report.add(_COMP_NAMES[d - 1][k], (b, a))
    return report


def _equivalence(x: FiniteJCategory, d: int, f: int, g: int):
    """How the parallel d-cells f and g of x are internally equivalent, or
    None if they are not.  At the top dimension they are when equal, with
    witness (f,).  Below it the witness is the first pair (a, b), in order,
    of (d+1)-cells a: f -> g and b: g -> f whose composites b.a and a.b are
    internally equivalent to the identities on f and on g."""
    if d == x.j:
        return (f,) if f == g else None
    comp, unit, index = x.comp[d][d], x.identity[d], x.hom_index[d]
    above = partial(_equivalence, x, d + 1)
    for a in _hom(index, (f, g)):
        for b in _hom(index, (g, f)):
            if above(comp[(b, a)], unit[f]) and above(comp[(a, b)], unit[g]):
                return a, b
    return None


def internally_equivalent(x: FiniteJCategory, x1: int, x2: int):
    """Decide internal equivalence of two 0-cells; returns (bool, witness).

    The witness is a pair (f, g) of 1-cell indices whose two composites are
    internally equivalent to identities in the respective hom-categories.
    """
    witness = _equivalence(x, 0, x1, x2)
    return witness is not None, witness


def _bounding_pairs(fun: JFunctor, dim: int):
    """Yield p, q and the source dim-cells p -> q for each pair of parallel
    source (dim-1)-cells whose images bound a target dim-cell, in (p, q)
    order: the only pairs with a target dim-cell to hit."""
    x, lower = fun.source, fun.maps[dim - 1]
    below, index = x.hom_index[dim - 2], x.hom_index[dim - 1]
    bounded: dict = {}  # target (dim-1)-cell -> the targets of its dim-cells
    for key in fun.target.hom_index[dim - 1]:
        if key.__class__ is tuple and len(key) == 2:
            bounded.setdefault(key[0], []).append(key[1])
    classes: dict = {}  # ends of a source hom-set -> its (dim-1)-cells by image
    for p, ends in enumerate(x.cells[dim - 2]):
        targets = bounded.get(lower[p])
        if targets is None:
            continue
        by_image = classes.get(ends)
        if by_image is None:
            by_image = classes[ends] = {}
            for q in _hom(below, ends):
                by_image.setdefault(lower[q], []).append(q)
        qs = [q for v in targets for q in by_image.get(v, ())]
        if len(targets) > 1:
            qs.sort()
        for q in qs:
            yield p, q, _hom(index, (p, q))


def _first_unhit(fun: JFunctor, dim: int):
    """(p, q, beta) for the first target dim-cell beta between the images of
    p, q that no source dim-cell p -> q maps to, or None: on the nose at the
    top dimension, up to internal equivalence below it.

    At dimension 0 the one pair (None, None) holds every 0-cell of each
    side; at dimension 1 every pair of 0-cells is walked, and above it only
    the pairs from `_bounding_pairs`, since no other has a target dim-cell.
    Each hom-set's images are collected once.  At the top dimension beta is
    looked up among them; below it each distinct image is compared with
    beta once, beta itself first when it is an image, by one cached test
    per beta that tries beta's identity pair before the full search.
    """
    x, y = fun.source, fun.target
    image = fun.maps[dim].__getitem__
    if dim == 0:
        lower, index = {None: None}, {(None, None): range(len(y.zero_cells))}
        pairs = [(None, None, range(len(x.zero_cells)))]
    else:
        lower, index = fun.maps[dim - 1], y.hom_index[dim - 1]
        if dim == 1:
            n, below = len(x.zero_cells), x.hom_index[0]
            pairs = ((p, q, _hom(below, (p, q))) for p in range(n) for q in range(n))
        else:
            pairs = _bounding_pairs(fun, dim)
    top = dim == x.j
    equivalent = partial(_equivalence, y, dim)

    @cache
    def reflexive(f):  # the identity pair, one composite, before the full search
        i = y.identity[dim][f]
        paired = i in y.hom(dim + 1, f, f) and _equivalence(y, dim + 1, y.comp[dim][dim][(i, i)], i)
        return paired or equivalent(f, f)

    for p, q, cells in pairs:
        betas = _hom(index, (lower[p], lower[q]))
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


def _first_clash(fun: JFunctor, dim: int):
    """The first two parallel source dim-cells with one image, or None.

    At dimension 0 the 0-cells are walked as one set.  Above it only the
    hom-sets of two or more dim-cells between parallel (dim-1)-cells are
    walked, in the order of their ends.  Each gets one set of images, and
    the first with fewer images than cells is searched once for the
    witness a pairwise search would find: the first cell with a later
    equal image, and the first such later cell.
    """
    x, image = fun.source, fun.maps[dim].__getitem__
    groups = [range(len(x.zero_cells))]
    if dim:
        index = x.hom_index[dim - 1]
        lower = ((None,) * len(x.zero_cells), *x.cells)[dim - 1]  # the ends of each (dim-1)-cell
        crowded = sorted(
            key
            for key, cells in index.items()
            if cells.__class__ is not int
            and len(cells) > 1
            and _pair(key, len(lower))
            and lower[key[0]] == lower[key[1]]
        )
        groups = map(index.__getitem__, crowded)
    for cells in groups:
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


def check_external_equivalence(fun: JFunctor) -> Report:
    """Unravelled criteria for an external j-equivalence over finite data.

    Checks (local) essential surjectivity at every dimension from 0, on the
    nose at the top dimension and up to internal equivalence below it
    (`_first_unhit`), and local faithfulness at the top dimension
    (`_first_clash`); each walks only the hom-sets that can fail.  Each
    finding names its dimension and carries a witness for the first
    failure, the same in any walk order.  At j = 0 internal equivalence is
    equality, so the criteria are surjectivity and injectivity on 0-cells.
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
    for dim in range(j + 1):
        miss = _first_unhit(fun, dim)
        witness = None
        if miss is not None:
            p, q, beta = miss
            if dim == 0:
                witness = {"target-0-cell": y.zero_cells[beta]}
            elif dim == 1:
                witness = {"between": [x.zero_cells[p], x.zero_cells[q]], "target-1-cell": beta}
            else:
                witness = {"between-1-cells": [p, q], "target-2-cell": beta}
        criterion = f"locally-essentially-surjective-on-{dim}-cells"
        if dim == 0:  # 0-cells lie in no hom-set
            criterion = criterion.removeprefix("locally-")
        report.add(criterion, miss is None, dimension=dim, witness=witness)

    clash = _first_clash(fun, j)
    report.add(
        "locally-faithful-at-top-dimension",
        clash is None,
        dimension=j,
        witness=None if clash is None else {f"identified-{j}-cells": list(clash)},
    )
    return report
