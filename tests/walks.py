"""Reference walks: the pairwise searches that `check_external_equivalence`
and `check_two_equivalence` made before they walked only the hom-sets that
can fail.  Each visits every parallel pair of cells, so its findings and
witnesses are the ones the faster walks must reproduce."""

from itertools import repeat
from operator import eq

from deglab.equivalence import (
    _first_clash,
    _first_unhit,
    check_external_equivalence,
    internally_equivalent,
)
from deglab.report import Report


def parallel_homs(fun, dim):
    """p, q and the source dim-cells p -> q, for each parallel pair of
    source (dim-1)-cells in order."""
    x = fun.source
    if dim == 1:
        n = len(x.zero_cells)
        for p in range(n):
            for q in range(n):
                yield p, q, x.hom(1, p, q)
    else:
        for p, ends in enumerate(x.cells[0]):
            for q in x.hom(1, *ends):
                yield p, q, x.hom(2, p, q)


def one_cell_equivalence(y):
    """Equivalence of 1-cells f, g of the 2-category y: some 2-cells
    a: f => g and b: g => f have the identities on f and on g as their
    vertical composites b.a and a.b.  One scan of y's 2-cell tuple groups
    the 2-cells by their ends; `hom` is not read."""
    between: dict = {}
    for a, ends in enumerate(y.cells[1]):
        between.setdefault(ends, []).append(a)
    vcomp, identity = y.comp[1][1], y.identity[1]

    def equivalent(f, g):
        return any(
            vcomp[(b, a)] == identity[f] and vcomp[(a, b)] == identity[g]
            for a in between.get((f, g), ())
            for b in between.get((g, f), ())
        )

    return equivalent


def first_unhit(fun, dim):
    """(p, q, beta) for the first target dim-cell beta between the images of
    p, q that no source dim-cell p -> q maps to, or None; every image is
    compared with every beta."""
    y = fun.target
    equivalent = eq if dim == fun.source.j else one_cell_equivalence(y)
    lower, cell_map = (fun.map0, fun.map1) if dim == 1 else (fun.map1, fun.map2)
    image = cell_map.__getitem__
    for p, q, cells in parallel_homs(fun, dim):
        for beta in y.hom(dim, lower[p], lower[q]):
            if not any(map(equivalent, map(image, cells), repeat(beta))):
                return p, q, beta
    return None


def first_clash(fun, dim):
    """The first two parallel source dim-cells with one image, or None;
    every pair of cells in every hom-set is compared."""
    cell_map = fun.map1 if dim == 1 else fun.map2
    for _, _, cells in parallel_homs(fun, dim):
        for i, a1 in enumerate(cells):
            for a2 in cells[i + 1 :]:
                if cell_map[a1] == cell_map[a2]:
                    return a1, a2
    return None


def first_missed(fun):
    """The first target 0-cell to which no image 0-cell is internally
    equivalent, each asked by the full `internally_equivalent` search."""
    y = fun.target
    images = list(dict.fromkeys(fun.map0))
    for y0 in range(len(y.zero_cells)):
        if not any(internally_equivalent(y, y1, y0)[0] for y1 in images):
            return y0
    return None


def keyed_one_cells(homs) -> list:
    """The 1-cells of `two_truncation_universe` as (source, target, key),
    in index order, from the homs it returns."""
    return [(s, t, key) for (s, t), keys in homs.items() for key in keys]


def first_miscounted_pair(one_cells, x):
    """The first parallel pair (fi, gi) of 1-cells whose 2-cells number
    other than 1 when their hom maps agree and 0 when they differ, as
    (fi, gi, count, expected), or None; every parallel pair is counted.
    one_cells lists (source, target, key), each key's map first."""
    for fi, (s1, t1, f) in enumerate(one_cells):
        for gi in x.hom(1, s1, t1):
            count = len(x.hom(2, fi, gi))
            expected = 1 if f[0] == one_cells[gi][2][0] else 0
            if count != expected:
                return fi, gi, count, expected
    return None


def reference_report(fun) -> Report:
    """The report of `check_external_equivalence`, built from the walks above."""
    x, y = fun.source, fun.target
    j = x.j
    report = Report(
        "external-equivalence",
        {
            "bound": None,
            "universe": f"{len(x.zero_cells)} source 0-cells / {len(y.zero_cells)} target 0-cells",
        },
    )
    missed = first_missed(fun)
    report.add(
        "essentially-surjective-on-0-cells",
        missed is None,
        dimension=0,
        witness=None if missed is None else {"target-0-cell": y.zero_cells[missed]},
    )
    for dim in range(1, j + 1):
        miss = first_unhit(fun, dim)
        witness = None
        if miss is not None:
            p, q, beta = miss
            if dim == 1:
                witness = {"between": [x.zero_cells[p], x.zero_cells[q]], "target-1-cell": beta}
            else:
                witness = {"between-1-cells": [p, q], "target-2-cell": beta}
        criterion = f"locally-essentially-surjective-on-{dim}-cells"
        report.add(criterion, miss is None, dimension=dim, witness=witness)
    clash = first_clash(fun, j)
    report.add(
        "locally-faithful-at-top-dimension",
        clash is None,
        dimension=j,
        witness=None if clash is None else {f"identified-{j}-cells": list(clash)},
    )
    return report


def walk_differences(fun) -> list:
    """Each walk whose result differs from its reference, and each finding
    of `check_external_equivalence` that differs from the reference report,
    as (name, reference, result); empty when all agree.  At dimension 0
    the reference of `_first_unhit`'s one pair (None, None) is
    `first_missed`."""
    j = fun.source.j
    missed = first_missed(fun)
    walks = [("unhit-0", None if missed is None else (None, None, missed), _first_unhit(fun, 0))]
    for dim in range(1, j + 1):
        walks.append((f"unhit-{dim}", first_unhit(fun, dim), _first_unhit(fun, dim)))
    walks.append(("clash", first_clash(fun, j), _first_clash(fun, j)))
    diffs = [(name, want, got) for name, want, got in walks if want != got]
    want = reference_report(fun).to_payload()["findings"]
    got = check_external_equivalence(fun).to_payload()["findings"]
    diffs += [(w["criterion"], w, g) for w, g in zip(want, got) if w != g]
    if len(want) != len(got):
        diffs.append(("findings", len(want), len(got)))
    return diffs
