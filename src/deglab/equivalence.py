"""Internal equivalence of 0-cells and external j-equivalence of j-functors.

Works on explicit finite 1- and 2-dimensional categories.  All in-scope
2-dimensional instances are strict, so no weak-ambient variant is needed.
A j-functor is an external j-equivalence iff it is locally essentially
surjective at every dimension and locally faithful at the top dimension;
the checker reports each criterion separately, naming the dimension and a
witness for the first failure it finds.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from .report import InvalidStructureError, Report, StructuralError, ValidationReport


@dataclass(frozen=True)
class FiniteJCategory:
    """A finite (strict) 1- or 2-category given by explicit cell tables.

    one_comp maps composable pairs (g, f) with tgt(f) = src(g) to g.f;
    two_vcomp and two_hcomp likewise for vertical and horizontal 2-cell
    composition.  The tables may be any Mapping: hand-built ones are dicts,
    and those of `hom_indexed_category` compute each composite on read.
    Labels are carried for witness readability only.
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
        index: dict = {}
        for f, key in enumerate(self.one_cells):
            index.setdefault(key, []).append(f)
        return index

    @cached_property
    def _hom2_index(self) -> dict:
        index: dict = {}
        for a, key in enumerate(self.two_cells):
            index.setdefault(key, []).append(a)
        return index

    def hom1(self, x1: int, x2: int) -> list:
        return self._hom1_index.get((x1, x2), [])

    def hom2(self, f1: int, f2: int) -> list:
        return self._hom2_index.get((f1, f2), [])


class _Composites(Mapping):
    """The table (b, a) -> b.a over cells with (src, tgt) ends.

    (b, a) is a key iff tgt(a) = src(b): membership, iteration and length
    come from the ends alone, and each value is computed on read by
    compose(b, a), with no cache.  Equality is identity, so comparing two
    tables never builds them out.
    """

    def __init__(self, ends, compose):
        self._ends = ends
        self._compose = compose
        self._starting = {}
        for b, (s, _) in enumerate(ends):
            self._starting.setdefault(s, []).append(b)

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

    homs[(i, k)] lists the arrows from 0-cell i to 0-cell k; 1-cells are
    numbered in that order and found again by (i, k, key(arrow)), the first
    arrow with a key winning.  compose(g, f) is g after f and identity(i)
    the identity on 0-cell i; each result must lie in its hom-set, else
    InvalidStructureError.  With two_cell(f, g) given, the result is a
    locally thin 2-category with a 2-cell f => g for each parallel pair on
    which two_cell returns a payload, ordered by source, then target.

    Returns (category, index, payloads): index maps (i, k, key) to the
    1-cell, and payloads holds two_cell's result per 2-cell.
    """
    arrows, ends, index, span = [], [], {}, {}
    for (i, k), hom in homs.items():
        for f in hom:
            index.setdefault((i, k, key(f)), len(arrows))
            arrows.append(f)
            ends.append((i, k))
        span[(i, k)] = range(len(arrows) - len(hom), len(arrows))
    ends = tuple(ends)

    def one_comp(g, f):
        return _position(index, (ends[f][0], ends[g][1], key(compose(arrows[g], arrows[f]))))

    zero_cells = tuple(zero_cells)
    one_identity = tuple(
        _position(index, (i, i, key(identity(i)))) for i in range(len(zero_cells))
    )
    one_table = _Composites(ends, one_comp)
    if two_cell is None:
        return FiniteJCategory(1, zero_cells, ends, one_identity, one_table), index, ()

    two_cells, payloads, two_index = [], [], {}
    for f, e in enumerate(ends):
        for g in span[e]:
            payload = two_cell(arrows[f], arrows[g])
            if payload is not None:
                two_index[(f, g)] = len(two_cells)
                two_cells.append((f, g))
                payloads.append(payload)
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
    return cat, index, tuple(payloads)


@dataclass(frozen=True)
class JFunctor:
    source: FiniteJCategory
    target: FiniteJCategory
    map0: tuple
    map1: tuple
    map2: tuple = ()

    def __post_init__(self):
        if self.source.j != self.target.j:
            raise StructuralError("source and target dimension mismatch")
        if len(self.map0) != len(self.source.zero_cells):
            raise StructuralError("map0 length mismatch")
        if len(self.map1) != len(self.source.one_cells):
            raise StructuralError("map1 length mismatch")
        if self.source.j >= 2 and len(self.map2) != len(self.source.two_cells):
            raise StructuralError("map2 length mismatch")


def check_jcategory(x: FiniteJCategory) -> ValidationReport:
    """Strict category / 2-category laws on explicit data."""
    report = ValidationReport(f"{x.j}-category")
    n0, n1 = len(x.zero_cells), len(x.one_cells)
    for f, (s, t) in enumerate(x.one_cells):
        if not (0 <= s < n0 and 0 <= t < n0):
            report.add_structural("one-cell-endpoints", (f,))
    if len(x.one_identity) != n0:
        report.add_structural("one-identity-count", ())
    if not report.well_formed:
        return report
    for a, i in enumerate(x.one_identity):
        if x.one_cells[i] != (a, a):
            report.add_structural("one-identity-endpoints", (a,))
    for (g, f), h in x.one_comp.items():
        if x.one_cells[f][1] != x.one_cells[g][0]:
            report.add_structural("one-comp-domain", (g, f), "pair not composable")
        elif (x.one_cells[h][0], x.one_cells[h][1]) != (
            x.one_cells[f][0],
            x.one_cells[g][1],
        ):
            report.add_structural("one-comp-endpoints", (g, f))
    for f in range(n1):
        for g in range(n1):
            if x.one_cells[f][1] == x.one_cells[g][0] and (g, f) not in x.one_comp:
                report.add_structural("one-comp-missing", (g, f))
    if not report.well_formed:
        return report

    for f, (s, t) in enumerate(x.one_cells):
        if x.one_comp[(x.one_identity[t], f)] != f:
            report.add("one-left-identity", (f,))
        if x.one_comp[(f, x.one_identity[s])] != f:
            report.add("one-right-identity", (f,))
    for (g, f) in x.one_comp:
        t = x.one_cells[g][1]
        for h in range(n1):
            if x.one_cells[h][0] != t:
                continue
            if x.one_comp[(h, x.one_comp[(g, f)])] != x.one_comp[(x.one_comp[(h, g)], f)]:
                report.add("one-associativity", (h, g, f))

    if x.j < 2:
        return report

    n2 = len(x.two_cells)
    for a, (s, t) in enumerate(x.two_cells):
        if not (0 <= s < n1 and 0 <= t < n1):
            report.add_structural("two-cell-endpoints", (a,))
        elif x.one_cells[s] != x.one_cells[t]:
            report.add_structural("two-cell-not-parallel", (a,))
    if len(x.two_identity) != n1:
        report.add_structural("two-identity-count", ())
    if not report.well_formed:
        return report
    for f, i in enumerate(x.two_identity):
        if x.two_cells[i] != (f, f):
            report.add_structural("two-identity-endpoints", (f,))

    def vcomposable(b, a):
        return x.two_cells[a][1] == x.two_cells[b][0]

    def hcomposable(b, a):
        fa = x.two_cells[a][0]
        fb = x.two_cells[b][0]
        return x.one_cells[fa][1] == x.one_cells[fb][0]

    for b in range(n2):
        for a in range(n2):
            if vcomposable(b, a) != ((b, a) in x.two_vcomp):
                report.add_structural("two-vcomp-domain", (b, a))
            if hcomposable(b, a) != ((b, a) in x.two_hcomp):
                report.add_structural("two-hcomp-domain", (b, a))
    if not report.well_formed:
        return report

    for (b, a), c in x.two_vcomp.items():
        if x.two_cells[c] != (x.two_cells[a][0], x.two_cells[b][1]):
            report.add("two-vcomp-endpoints", (b, a))
    for a, (s, t) in enumerate(x.two_cells):
        if x.two_vcomp[(x.two_identity[t], a)] != a or x.two_vcomp[(a, x.two_identity[s])] != a:
            report.add("two-vcomp-identity", (a,))
    for (b, a) in x.two_vcomp:
        for c in range(n2):
            if not vcomposable(c, b):
                continue
            lhs = x.two_vcomp[(c, x.two_vcomp[(b, a)])]
            rhs = x.two_vcomp[(x.two_vcomp[(c, b)], a)]
            if lhs != rhs:
                report.add("two-vcomp-associativity", (c, b, a))

    for (b, a), c in x.two_hcomp.items():
        fa, ga = x.two_cells[a]
        fb, gb = x.two_cells[b]
        want = (x.one_comp[(fb, fa)], x.one_comp[(gb, ga)])
        if x.two_cells[c] != want:
            report.add("two-hcomp-endpoints", (b, a))
    for g in range(n1):
        for f in range(n1):
            if (g, f) in x.one_comp:
                lhs = x.two_hcomp[(x.two_identity[g], x.two_identity[f])]
                if lhs != x.two_identity[x.one_comp[(g, f)]]:
                    report.add("two-hcomp-identity", (g, f))
    for (b, a) in x.two_hcomp:
        for c in range(n2):
            if not hcomposable(c, b):
                continue
            lhs = x.two_hcomp[(c, x.two_hcomp[(b, a)])]
            rhs = x.two_hcomp[(x.two_hcomp[(c, b)], a)]
            if lhs != rhs:
                report.add("two-hcomp-associativity", (c, b, a))
    # strict unit law for whiskering by identity 1-cells
    for a, (s, t) in enumerate(x.two_cells):
        src0 = x.one_cells[s][0]
        tgt0 = x.one_cells[s][1]
        if x.two_hcomp[(x.two_identity[x.one_identity[tgt0]], a)] != a:
            report.add("two-hcomp-left-unit", (a,))
        if x.two_hcomp[(a, x.two_identity[x.one_identity[src0]])] != a:
            report.add("two-hcomp-right-unit", (a,))
    # interchange, iterating over the two vertical-composite tables
    for (b2, b1) in x.two_vcomp:
        for (a2, a1) in x.two_vcomp:
            if not hcomposable(b2, a2) or not hcomposable(b1, a1):
                continue
            lhs = x.two_hcomp[(x.two_vcomp[(b2, b1)], x.two_vcomp[(a2, a1)])]
            rhs = x.two_vcomp[(x.two_hcomp[(b2, a2)], x.two_hcomp[(b1, a1)])]
            if lhs != rhs:
                report.add("interchange", (b2, b1, a2, a1))
    return report


def compose_jfunctors(g: JFunctor, f: JFunctor) -> JFunctor:
    if f.target is not g.source and f.target != g.source:
        raise StructuralError("functor composition endpoint mismatch")
    return JFunctor(
        f.source,
        g.target,
        tuple(g.map0[v] for v in f.map0),
        tuple(g.map1[v] for v in f.map1),
        tuple(g.map2[v] for v in f.map2) if f.source.j >= 2 else (),
    )


def check_jfunctor(fun: JFunctor) -> ValidationReport:
    """Functoriality per dimension (endpoints, identities, compositions)."""
    report = ValidationReport(f"{fun.source.j}-functor")
    x, y = fun.source, fun.target
    for f, (s, t) in enumerate(x.one_cells):
        if y.one_cells[fun.map1[f]] != (fun.map0[s], fun.map0[t]):
            report.add("one-cell-endpoints", (f,))
    for a, i in enumerate(x.one_identity):
        if fun.map1[i] != y.one_identity[fun.map0[a]]:
            report.add("one-identity", (a,))
    for (g, f), h in x.one_comp.items():
        if fun.map1[h] != y.one_comp[(fun.map1[g], fun.map1[f])]:
            report.add("one-composition", (g, f))
    if x.j >= 2:
        for a, (s, t) in enumerate(x.two_cells):
            if y.two_cells[fun.map2[a]] != (fun.map1[s], fun.map1[t]):
                report.add("two-cell-endpoints", (a,))
        for f, i in enumerate(x.two_identity):
            if fun.map2[i] != y.two_identity[fun.map1[f]]:
                report.add("two-identity", (f,))
        for (b, a), c in x.two_vcomp.items():
            if fun.map2[c] != y.two_vcomp[(fun.map2[b], fun.map2[a])]:
                report.add("two-vcomp", (b, a))
        for (b, a), c in x.two_hcomp.items():
            if fun.map2[c] != y.two_hcomp[(fun.map2[b], fun.map2[a])]:
                report.add("two-hcomp", (b, a))
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


def check_external_equivalence(fun: JFunctor) -> Report:
    """Unravelled criteria for an external j-equivalence over finite data.

    Checks local essential surjectivity at every dimension and local
    faithfulness at the top dimension; each finding names its dimension and
    carries a witness for the first failure.

    Essential surjectivity on 0-cells asks, for each target 0-cell y0,
    whether some image 0-cell is internally equivalent to it.  Each
    distinct image is asked once, and y0 itself first when it is an image,
    so an image is settled by its identity pair without comparing it with
    every other image.  Each y0 gets the same answer in any order, so the
    finding and its witness, the first y0 that is missed, do not depend on
    the order.
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
    missed = None
    for y0 in range(len(y.zero_cells)):
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

    miss1 = None
    for x1 in range(len(x.zero_cells)):
        for x2 in range(len(x.zero_cells)):
            for beta in y.hom1(fun.map0[x1], fun.map0[x2]):
                hits = x.hom1(x1, x2)
                if j == 1:
                    found = any(fun.map1[alpha] == beta for alpha in hits)
                else:
                    found = any(
                        one_cells_internally_equivalent(y, fun.map1[alpha], beta)
                        for alpha in hits
                    )
                if not found:
                    miss1 = (x1, x2, beta)
                    break
            if miss1:
                break
        if miss1:
            break
    report.add(
        "locally-essentially-surjective-on-1-cells",
        miss1 is None,
        dimension=1,
        witness=None
        if miss1 is None
        else {
            "between": [x.zero_cells[miss1[0]], x.zero_cells[miss1[1]]],
            "target-1-cell": miss1[2],
        },
    )

    if j == 1:
        clash = None
        for x1 in range(len(x.zero_cells)):
            for x2 in range(len(x.zero_cells)):
                cells = x.hom1(x1, x2)
                for i, a1 in enumerate(cells):
                    for a2 in cells[i + 1 :]:
                        if fun.map1[a1] == fun.map1[a2]:
                            clash = (a1, a2)
                            break
                    if clash:
                        break
                if clash:
                    break
            if clash:
                break
        report.add(
            "locally-faithful-at-top-dimension",
            clash is None,
            dimension=1,
            witness=None if clash is None else {"identified-1-cells": list(clash)},
        )
        return report

    # j == 2: top-dimension surjectivity between image parallel pairs, then faithfulness
    miss2 = None
    for g1 in range(len(x.one_cells)):
        for g2 in x.hom1(*x.one_cells[g1]):
            for beta in y.hom2(fun.map1[g1], fun.map1[g2]):
                if not any(fun.map2[a] == beta for a in x.hom2(g1, g2)):
                    miss2 = (g1, g2, beta)
                    break
            if miss2:
                break
        if miss2:
            break
    report.add(
        "locally-essentially-surjective-on-2-cells",
        miss2 is None,
        dimension=2,
        witness=None if miss2 is None else {"between-1-cells": [miss2[0], miss2[1]], "target-2-cell": miss2[2]},
    )

    clash = None
    for g1 in range(len(x.one_cells)):
        for g2 in x.hom1(*x.one_cells[g1]):
            cells = x.hom2(g1, g2)
            for i, a1 in enumerate(cells):
                for a2 in cells[i + 1 :]:
                    if fun.map2[a1] == fun.map2[a2]:
                        clash = (a1, a2)
                        break
                if clash:
                    break
            if clash:
                break
        if clash:
            break
    report.add(
        "locally-faithful-at-top-dimension",
        clash is None,
        dimension=2,
        witness=None if clash is None else {"identified-2-cells": list(clash)},
    )
    return report
