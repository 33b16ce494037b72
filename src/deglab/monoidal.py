"""Finite monoidal categories, their functors and transformations, and the
relabeling to and from one-0-cell bicategories.

Conventions: tensor_mor[f][g] is f (x) g; assoc[A][B][C] goes
(A(x)B)(x)C -> A(x)(B(x)C); lunit[A]: I(x)A -> A; runit[A]: A(x)I -> A.
The constructors check shapes and ranges only, each int-holding field
through `report.exact`; the checkers check endpoints and the axioms.
Transformations come in two directions: the weak direction has components
GA(x)d -> d(x)FA for a distinguished object d, the oplax direction the
reverse.  Composition of transformations is by the standard pasting; its
failure to be strictly unital or associative is a feature under test, not
a bug.
"""

import itertools
from dataclasses import dataclass, replace

from .equivalence import JFunctor, check_external_equivalence, hom_indexed_category
from .fincat import (
    CatFunctor,
    FiniteCategory,
    check_category,
    check_functor,
    compose_functors,
    enumerate_functors,
    identity_functor,
)
from .report import InvalidStructureError, Report, StructuralError, ValidationReport, exact


@dataclass(frozen=True)
class FinMonoidalCategory:
    base: FiniteCategory
    tensor_obj: tuple  # n x n object indices
    tensor_mor: tuple  # m x m morphism indices
    unit_obj: int
    assoc: tuple  # n x n x n morphism indices, with inverses
    assoc_inv: tuple
    lunit: tuple  # per object, with inverses
    lunit_inv: tuple
    runit: tuple
    runit_inv: tuple

    def __post_init__(self):
        n = self.base.n_objects
        m = len(self.base.morphisms)
        exact(self.unit_obj, "unit_obj", (), n)
        for name, shape, count in (
            ("tensor_obj", (n, n), n),
            ("tensor_mor", (m, m), m),
            ("assoc", (n, n, n), m),
            ("assoc_inv", (n, n, n), m),
            *((name, (n,), m) for name in ("lunit", "lunit_inv", "runit", "runit_inv")),
        ):
            object.__setattr__(self, name, exact(getattr(self, name), name, shape, count))


def check_monoidal(mc: FinMonoidalCategory) -> ValidationReport:
    """Itemized axioms: bifunctoriality, naturality, pentagon, triangle.

    The base category report is merged in; constraint components with wrong
    endpoints are structural failures since the diagrams cannot even be
    formed.  The pentagon and triangle equations written here are mirrored
    by the formal-composite evaluator in `coherence` for cross-checking.
    """
    c = mc.base
    report = ValidationReport("monoidal_category")
    report.extend(check_category(c), prefix="base-")
    if not report.well_formed:
        return report
    n = c.n_objects
    tob, tmor = mc.tensor_obj, mc.tensor_mor

    for a in range(n):
        for b in range(n):
            for x in range(n):
                f = mc.assoc[a][b][x]
                want = (tob[tob[a][b]][x], tob[a][tob[b][x]])
                if c.morphisms[f] != want:
                    report.add_structural("assoc-endpoints", (a, b, x))
                fi = mc.assoc_inv[a][b][x]
                if c.morphisms[fi] != (want[1], want[0]):
                    report.add_structural("assoc-inv-endpoints", (a, b, x))
    for a in range(n):
        if c.morphisms[mc.lunit[a]] != (tob[mc.unit_obj][a], a):
            report.add_structural("lunit-endpoints", (a,))
        if c.morphisms[mc.lunit_inv[a]] != (a, tob[mc.unit_obj][a]):
            report.add_structural("lunit-inv-endpoints", (a,))
        if c.morphisms[mc.runit[a]] != (tob[a][mc.unit_obj], a):
            report.add_structural("runit-endpoints", (a,))
        if c.morphisms[mc.runit_inv[a]] != (a, tob[a][mc.unit_obj]):
            report.add_structural("runit-inv-endpoints", (a,))
    for f, (s1, t1) in enumerate(c.morphisms):
        for g, (s2, t2) in enumerate(c.morphisms):
            if c.morphisms[tmor[f][g]] != (tob[s1][s2], tob[t1][t2]):
                report.add_structural("tensor-endpoints", (f, g))
    if not report.well_formed:
        return report

    for a in range(n):
        for b in range(n):
            if tmor[c.identities[a]][c.identities[b]] != c.identities[tob[a][b]]:
                report.add("bifunctor-identities", (a, b))
    mor = range(len(c.morphisms))
    for g in mor:
        for f in mor:
            if c.comp[g][f] is None:
                continue
            for k in mor:
                for h in mor:
                    if c.comp[k][h] is None:
                        continue
                    lhs = tmor[c.comp[g][f]][c.comp[k][h]]
                    rhs = c.comp[tmor[g][k]][tmor[f][h]]
                    if lhs != rhs:
                        report.add("bifunctor-interchange", (g, f, k, h))

    for f, (a, a2) in enumerate(c.morphisms):
        for g, (b, b2) in enumerate(c.morphisms):
            for h, (x, x2) in enumerate(c.morphisms):
                lhs = c.comp[mc.assoc[a2][b2][x2]][tmor[tmor[f][g]][h]]
                rhs = c.comp[tmor[f][tmor[g][h]]][mc.assoc[a][b][x]]
                if lhs != rhs:
                    report.add("assoc-naturality", (f, g, h))
    iu = c.identities[mc.unit_obj]
    for f, (a, b) in enumerate(c.morphisms):
        if c.comp[mc.lunit[b]][tmor[iu][f]] != c.comp[f][mc.lunit[a]]:
            report.add("lunit-naturality", (f,))
        if c.comp[mc.runit[b]][tmor[f][iu]] != c.comp[f][mc.runit[a]]:
            report.add("runit-naturality", (f,))

    for name, comp, inv, idx in (
        ("assoc", mc.assoc, mc.assoc_inv, 3),
        ("lunit", mc.lunit, mc.lunit_inv, 1),
        ("runit", mc.runit, mc.runit_inv, 1),
    ):
        if idx == 1:
            pairs = [((a,), comp[a], inv[a]) for a in range(n)]
        else:
            pairs = [
                ((a, b, x), comp[a][b][x], inv[a][b][x])
                for a in range(n)
                for b in range(n)
                for x in range(n)
            ]
        for where, f, fi in pairs:
            s, t = c.morphisms[f]
            if c.comp[fi][f] != c.identities[s] or c.comp[f][fi] != c.identities[t]:
                report.add(f"{name}-invertible", where)

    for a in range(n):
        for b in range(n):
            for x in range(n):
                for d in range(n):
                    lhs = c.comp[mc.assoc[a][b][tob[x][d]]][mc.assoc[tob[a][b]][x][d]]
                    inner = c.comp[mc.assoc[a][tob[b][x]][d]][
                        tmor[mc.assoc[a][b][x]][c.identities[d]]
                    ]
                    rhs = c.comp[tmor[c.identities[a]][mc.assoc[b][x][d]]][inner]
                    if lhs != rhs:
                        report.add("pentagon", (a, b, x, d))
    for a in range(n):
        for b in range(n):
            lhs = c.comp[tmor[c.identities[a]][mc.lunit[b]]][mc.assoc[a][mc.unit_obj][b]]
            rhs = tmor[mc.runit[a]][c.identities[b]]
            if lhs != rhs:
                report.add("triangle", (a, b))
    return report


# -- monoidal functors --------------------------------------------------------


@dataclass(frozen=True)
class MonoidalFunctor:
    source: FinMonoidalCategory
    target: FinMonoidalCategory
    functor: CatFunctor
    tensor_comparison: tuple  # n x n morphism indices FA(x)FB -> F(A(x)B)
    unit_comparison: int  # I' -> FI

    def __post_init__(self):
        if self.functor.source != self.source.base or self.functor.target != self.target.base:
            raise StructuralError("underlying functor endpoints mismatch")
        n = self.source.base.n_objects
        m = len(self.target.base.morphisms)
        comparison = exact(self.tensor_comparison, "tensor_comparison", (n, n), m)
        object.__setattr__(self, "tensor_comparison", comparison)
        exact(self.unit_comparison, "unit_comparison", (), m)


def check_monoidal_functor(mf: MonoidalFunctor) -> ValidationReport:
    """Underlying functoriality, comparison naturality, hexagon, unit squares.

    An equation that would compose arrows with no composite, as an invalid
    endpoint can make it do, is reported as a structural
    `undefined-composite` finding and ends the check.
    """
    report = ValidationReport("monoidal_functor")
    report.extend(check_functor(mf.functor), prefix="base-")
    src, tgt = mf.source, mf.target
    c, d = src.base, tgt.base
    fo, fm = mf.functor.object_map, mf.functor.morphism_map
    sob, smor = src.tensor_obj, src.tensor_mor
    tob, tmor = tgt.tensor_obj, tgt.tensor_mor
    n = c.n_objects

    for a in range(n):
        for b in range(n):
            phi = mf.tensor_comparison[a][b]
            want = (tob[fo[a]][fo[b]], fo[sob[a][b]])
            if d.morphisms[phi] != want:
                report.add_structural("comparison-endpoints", (a, b))
    if d.morphisms[mf.unit_comparison] != (tgt.unit_obj, fo[src.unit_obj]):
        report.add_structural("unit-comparison-endpoints", ())
    if not report.well_formed:
        return report

    for a in range(n):
        for b in range(n):
            if d.inverse(mf.tensor_comparison[a][b]) is None:
                report.add("comparison-invertible", (a, b))
    if d.inverse(mf.unit_comparison) is None:
        report.add("unit-comparison-invertible", ())

    for f, (a, a2) in enumerate(c.morphisms):
        for g, (b, b2) in enumerate(c.morphisms):
            lhs = d.comp[mf.tensor_comparison[a2][b2]][tmor[fm[f]][fm[g]]]
            rhs = d.comp[fm[smor[f][g]]][mf.tensor_comparison[a][b]]
            if lhs != rhs:
                report.add("comparison-naturality", (f, g))

    for a in range(n):
        for b in range(n):
            for x in range(n):
                left = d.comp[mf.tensor_comparison[sob[a][b]][x]][
                    tmor[mf.tensor_comparison[a][b]][d.identities[fo[x]]]
                ]
                right = d.comp[tmor[d.identities[fo[a]]][mf.tensor_comparison[b][x]]][
                    tgt.assoc[fo[a]][fo[b]][fo[x]]
                ]
                if left is None or right is None:
                    report.add_structural("undefined-composite", (a, b, x), "hexagon")
                    return report
                lhs = d.comp[fm[src.assoc[a][b][x]]][left]
                rhs = d.comp[mf.tensor_comparison[a][sob[b][x]]][right]
                if lhs != rhs:
                    report.add("hexagon", (a, b, x))

    for a in range(n):
        left = d.comp[mf.tensor_comparison[src.unit_obj][a]][
            tmor[mf.unit_comparison][d.identities[fo[a]]]
        ]
        right = d.comp[mf.tensor_comparison[a][src.unit_obj]][
            tmor[d.identities[fo[a]]][mf.unit_comparison]
        ]
        if left is None or right is None:
            report.add_structural("undefined-composite", (a,), "unit squares")
            return report
        if d.comp[fm[src.lunit[a]]][left] != tgt.lunit[fo[a]]:
            report.add("left-unit-square", (a,))
        if d.comp[fm[src.runit[a]]][right] != tgt.runit[fo[a]]:
            report.add("right-unit-square", (a,))
    return report


def identity_monoidal_functor(mc: FinMonoidalCategory) -> MonoidalFunctor:
    c = mc.base
    comp = tuple(
        tuple(c.identities[mc.tensor_obj[a][b]] for b in range(c.n_objects))
        for a in range(c.n_objects)
    )
    return MonoidalFunctor(mc, mc, identity_functor(c), comp, c.identities[mc.unit_obj])


def compose_monoidal_functors(g: MonoidalFunctor, f: MonoidalFunctor) -> MonoidalFunctor:
    if f.target != g.source:
        raise StructuralError("monoidal functor composition endpoint mismatch")
    base = compose_functors(g.functor, f.functor)
    d = g.target.base
    n = f.source.base.n_objects
    comp = tuple(
        tuple(
            d.comp[g.functor.morphism_map[f.tensor_comparison[a][b]]][
                g.tensor_comparison[f.functor.object_map[a]][f.functor.object_map[b]]
            ]
            for b in range(n)
        )
        for a in range(n)
    )
    unit = d.comp[g.functor.morphism_map[f.unit_comparison]][g.unit_comparison]
    return MonoidalFunctor(f.source, g.target, base, comp, unit)


def _comparison_search_plan(src: FinMonoidalCategory) -> tuple:
    """The per-step equations of `enumerate_monoidal_functors`.

    The comparison cells (a, b) are placed in row-major order, cell (a, b)
    at step a*n + b.  Each comparison-naturality equation (f, g), with
    f: a -> a2 and g: b -> b2, goes into the bucket of the later of cells
    (a, b) and (a2, b2); each hexagon (a, b, x) into the bucket of the
    latest of its components (ab, x), (a, b), (b, x) and (a, bx).  So every
    equation sits in exactly one bucket.
    """
    c = src.base
    n = c.n_objects
    sob = src.tensor_obj
    naturality = [[] for _ in range(n * n)]
    for f, (a, a2) in enumerate(c.morphisms):
        for g, (b, b2) in enumerate(c.morphisms):
            i, i2 = a * n + b, a2 * n + b2
            naturality[max(i, i2)].append((f, g, i, i2))
    hexagons = [[] for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            for x in range(n):
                cells = (sob[a][b] * n + x, a * n + b, b * n + x, a * n + sob[b][x])
                hexagons[max(cells)].append((a, b, x, cells))
    return naturality, hexagons


def enumerate_monoidal_functors(src: FinMonoidalCategory, tgt: FinMonoidalCategory) -> list:
    """All monoidal functors src -> tgt, by backtracking over the comparison.

    For each underlying functor from `enumerate_functors` (each one passes
    `check_functor`) with an invertible arrow for every comparison
    component, the tensor comparison components are placed one cell at a
    time in row-major order, each taking the invertible arrows of its
    hom-set in index order, and the unit comparison is placed last.  After a
    placement only the equations whose last component it fixed are
    evaluated (see `_comparison_search_plan`), with the expressions of
    `check_monoidal_functor`, so the functors kept are exactly those it
    passes, in the order of the product of choices.
    """
    c, d = src.base, tgt.base
    n = c.n_objects
    last = n * n - 1
    sob, smor, sassoc = src.tensor_obj, src.tensor_mor, src.assoc
    tob, tmor, tassoc = tgt.tensor_obj, tgt.tensor_mor, tgt.assoc
    dcomp, did = d.comp, d.identities
    isos = {}
    for p, ends in enumerate(d.morphisms):
        if d.inverse(p) is not None:
            isos.setdefault(ends, []).append(p)
    naturality, hexagons = _comparison_search_plan(src)
    unit = src.unit_obj
    out = []
    phi = [0] * (n * n)

    for base in enumerate_functors(c, d):
        fo, fm = base.object_map, base.morphism_map
        choices = [
            isos.get((tob[fo[a]][fo[b]], fo[sob[a][b]]), ())
            for a in range(n)
            for b in range(n)
        ]
        unit_choices = isos.get((tgt.unit_obj, fo[unit]), ())
        if not all(choices) or not unit_choices:
            continue

        def holds(k):
            for f, g, i, i2 in naturality[k]:
                if dcomp[phi[i2]][tmor[fm[f]][fm[g]]] != dcomp[fm[smor[f][g]]][phi[i]]:
                    return False
            for a, b, x, (ab_x, ab, b_x, a_bx) in hexagons[k]:
                left = dcomp[phi[ab_x]][tmor[phi[ab]][did[fo[x]]]]
                right = dcomp[tmor[did[fo[a]]][phi[b_x]]][tassoc[fo[a]][fo[b]][fo[x]]]
                if left is None or right is None:
                    return False
                if dcomp[fm[sassoc[a][b][x]]][left] != dcomp[phi[a_bx]][right]:
                    return False
            return True

        def unit_holds(u):
            for a in range(n):
                left = dcomp[phi[unit * n + a]][tmor[u][did[fo[a]]]]
                right = dcomp[phi[a * n + unit]][tmor[did[fo[a]]][u]]
                if left is None or right is None:
                    return False
                if dcomp[fm[src.lunit[a]]][left] != tgt.lunit[fo[a]]:
                    return False
                if dcomp[fm[src.runit[a]]][right] != tgt.runit[fo[a]]:
                    return False
            return True

        def place(k):
            for p in choices[k]:
                phi[k] = p
                if not holds(k):
                    continue
                if k < last:
                    place(k + 1)
                    continue
                comparison = tuple(tuple(phi[a * n : a * n + n]) for a in range(n))
                for u in unit_choices:
                    if unit_holds(u):
                        out.append(MonoidalFunctor(src, tgt, base, comparison, u))

        place(0)
    return out


# -- transformations between monoidal functors, in bicategory clothing --------


@dataclass(frozen=True)
class DegTransformation:
    """A transformation between parallel functors, carried by a distinguished
    object of the target and one component morphism per source object.

    Weak direction: components GA(x)d -> d(x)FA.  Oplax direction (the
    comparison direction): d(x)FA -> GA(x)d.  `lax` drops the invertibility
    requirement on components.  The constructor checks that the functors
    are parallel, that `dist_obj` and the components are exact ints
    indexing the target's objects and morphisms, and that `lax` and
    `oplax` are exact bools (see `report.exact`).
    """

    source_functor: MonoidalFunctor
    target_functor: MonoidalFunctor
    dist_obj: int
    components: tuple
    lax: bool = False
    oplax: bool = False

    def __post_init__(self):
        f, g = self.source_functor, self.target_functor
        if f.source != g.source or f.target != g.target:
            raise StructuralError("functors are not parallel")
        y = f.target.base
        exact(self.dist_obj, "dist_obj", (), y.n_objects)
        comps = exact(self.components, "components", (f.source.base.n_objects,), len(y.morphisms))
        object.__setattr__(self, "components", comps)
        exact(self.lax, "lax", leaf=bool)
        exact(self.oplax, "oplax", leaf=bool)


def _component_endpoints(t: DegTransformation, a: int):
    tob = t.source_functor.target.tensor_obj
    fa = t.source_functor.functor.object_map[a]
    ga = t.target_functor.functor.object_map[a]
    if t.oplax:
        return (tob[t.dist_obj][fa], tob[ga][t.dist_obj])
    return (tob[ga][t.dist_obj], tob[t.dist_obj][fa])


def check_deg_transformation(t: DegTransformation) -> ValidationReport:
    """The three diagram families at every instantiation, plus invertibility
    of the components unless the transformation is flagged lax.

    A diagram that would compose arrows with no composite, as an invalid
    endpoint can make it do, is reported as a structural
    `undefined-composite` finding and ends the check.
    """
    report = ValidationReport("deg_transformation")
    fmf, gmf = t.source_functor, t.target_functor
    y = fmf.target
    d = y.base
    c = fmf.source.base
    for a in range(c.n_objects):
        if d.morphisms[t.components[a]] != _component_endpoints(t, a):
            report.add_structural("component-endpoints", (a,))
    if not report.well_formed:
        return report

    if not t.lax:
        for a in range(c.n_objects):
            if d.inverse(t.components[a]) is None:
                report.add("component-invertible", (a,))

    fo, fm = fmf.functor.object_map, fmf.functor.morphism_map
    go, gm = gmf.functor.object_map, gmf.functor.morphism_map
    tmor = y.tensor_mor
    alpha = t.dist_obj
    ida = d.identities[alpha]

    for m, (a, b) in enumerate(c.morphisms):
        if t.oplax:
            lhs = d.comp[tmor[gm[m]][ida]][t.components[a]]
            rhs = d.comp[t.components[b]][tmor[ida][fm[m]]]
        else:
            lhs = d.comp[tmor[ida][fm[m]]][t.components[a]]
            rhs = d.comp[t.components[b]][tmor[gm[m]][ida]]
        if lhs != rhs:
            report.add("naturality", (m,))

    phi = fmf.tensor_comparison
    psi = gmf.tensor_comparison
    for a in range(c.n_objects):
        for b in range(c.n_objects):
            fa, fb, ga, gb = fo[a], fo[b], go[a], go[b]
            comp_ab = t.components[fmf.source.tensor_obj[a][b]]
            # the long side of the diagram, each arrow after the one before
            if t.oplax:
                steps = (
                    y.assoc_inv[alpha][fa][fb],
                    tmor[t.components[a]][d.identities[fb]],
                    y.assoc[ga][alpha][fb],
                    tmor[d.identities[ga]][t.components[b]],
                    y.assoc_inv[ga][gb][alpha],
                    tmor[psi[a][b]][ida],
                )
                other = d.comp[comp_ab][tmor[ida][phi[a][b]]]
            else:
                steps = (
                    y.assoc[ga][gb][alpha],
                    tmor[d.identities[ga]][t.components[b]],
                    y.assoc_inv[ga][alpha][fb],
                    tmor[t.components[a]][d.identities[fb]],
                    y.assoc[alpha][fa][fb],
                    tmor[ida][phi[a][b]],
                )
                other = d.comp[comp_ab][tmor[psi[a][b]][ida]]
            path = steps[0]
            for step in steps[1:]:
                if path is None:
                    report.add_structural(
                        "undefined-composite", (a, b), "associativity-diagram"
                    )
                    return report
                path = d.comp[step][path]
            if path != other:
                report.add("associativity-diagram", (a, b))

    iu = fmf.source.unit_obj
    phi0, psi0 = fmf.unit_comparison, gmf.unit_comparison
    if t.oplax:
        lhs = d.comp[t.components[iu]][tmor[ida][phi0]]
        unitors = d.comp[y.lunit_inv[alpha]][y.runit[alpha]]
        last = tmor[psi0][ida]
    else:
        lhs = d.comp[t.components[iu]][tmor[psi0][ida]]
        unitors = d.comp[y.runit_inv[alpha]][y.lunit[alpha]]
        last = tmor[ida][phi0]
    if unitors is None:
        report.add_structural("undefined-composite", (), "unit-diagram")
        return report
    rhs = d.comp[last][unitors]
    if lhs != rhs:
        report.add("unit-diagram", ())
    return report


def identity_deg_transformation(mf: MonoidalFunctor, oplax: bool = False) -> DegTransformation:
    """The identity 2-cell: distinguished object I with unitor components.

    Raises StructuralError when the target's unitors at some object do not
    compose."""
    y = mf.target
    d = y.base
    comps = []
    for a in range(mf.source.base.n_objects):
        fa = mf.functor.object_map[a]
        if oplax:
            comp = d.comp[y.runit_inv[fa]][y.lunit[fa]]
        else:
            comp = d.comp[y.lunit_inv[fa]][y.runit[fa]]
        if comp is None:
            raise StructuralError(f"the unitors at object {fa} do not compose")
        comps.append(comp)
    return DegTransformation(mf, mf, y.unit_obj, tuple(comps), lax=False, oplax=oplax)


def compose_deg_transformations(t2: DegTransformation, t1: DegTransformation) -> DegTransformation:
    """Pasting composite; its distinguished object is the tensor d2 (x) d1.

    Strict unitality and associativity genuinely fail here: composing with
    the identity yields I (x) d, which need not equal d as an object.
    """
    if t1.oplax != t2.oplax:
        raise StructuralError("cannot compose transformations of opposite direction")
    if (
        t1.target_functor != t2.source_functor
        or t1.source_functor.source != t2.source_functor.source
    ):
        raise StructuralError("transformations are not composable")
    fmf = t1.source_functor
    hmf = t2.target_functor
    y = fmf.target
    d = y.base
    a2, a1 = t2.dist_obj, t1.dist_obj
    dist = y.tensor_obj[a2][a1]
    tmor = y.tensor_mor
    comps = []
    for a in range(fmf.source.base.n_objects):
        fa = fmf.functor.object_map[a]
        ga = t1.target_functor.functor.object_map[a]
        ha = hmf.functor.object_map[a]
        if t1.oplax:
            path = y.assoc[a2][a1][fa]
            path = d.comp[tmor[d.identities[a2]][t1.components[a]]][path]
            path = d.comp[y.assoc_inv[a2][ga][a1]][path]
            path = d.comp[tmor[t2.components[a]][d.identities[a1]]][path]
            path = d.comp[y.assoc[ha][a2][a1]][path]
        else:
            path = y.assoc_inv[ha][a2][a1]
            path = d.comp[tmor[t2.components[a]][d.identities[a1]]][path]
            path = d.comp[y.assoc[a2][ga][a1]][path]
            path = d.comp[tmor[d.identities[a2]][t1.components[a]]][path]
            path = d.comp[y.assoc_inv[a2][a1][fa]][path]
        comps.append(path)
    return DegTransformation(
        fmf, hmf, dist, tuple(comps), lax=t1.lax or t2.lax, oplax=t1.oplax
    )


@dataclass(frozen=True)
class DegModification:
    """A morphism between the distinguished objects of two parallel
    transformations, compatible with all components.  The constructor
    checks only that gamma is an exact int indexing the target's morphisms
    (see `report.exact`)."""

    source_transformation: DegTransformation
    target_transformation: DegTransformation
    gamma: int

    def __post_init__(self):
        y = self.source_transformation.source_functor.target.base
        exact(self.gamma, "gamma", (), len(y.morphisms))


def check_deg_modification(mod: DegModification) -> ValidationReport:
    report = ValidationReport("deg_modification")
    ta, tb = mod.source_transformation, mod.target_transformation
    if (
        ta.source_functor != tb.source_functor
        or ta.target_functor != tb.target_functor
        or ta.oplax != tb.oplax
    ):
        report.add_structural("boundaries", (), "transformations are not parallel")
        return report
    y = ta.source_functor.target
    d = y.base
    if d.morphisms[mod.gamma] != (ta.dist_obj, tb.dist_obj):
        report.add_structural("gamma-endpoints", ())
        return report
    c = ta.source_functor.source.base
    fo = ta.source_functor.functor.object_map
    go = ta.target_functor.functor.object_map
    tmor = y.tensor_mor
    for a in range(c.n_objects):
        if ta.oplax:
            lhs = d.comp[tmor[d.identities[go[a]]][mod.gamma]][ta.components[a]]
            rhs = d.comp[tb.components[a]][tmor[mod.gamma][d.identities[fo[a]]]]
        else:
            lhs = d.comp[tb.components[a]][tmor[d.identities[go[a]]][mod.gamma]]
            rhs = d.comp[tmor[mod.gamma][d.identities[fo[a]]]][ta.components[a]]
        if lhs != rhs:
            report.add("modification-square", (a,))
    return report


# -- ordinary monoidal transformations and the comparison-direction embedding -


@dataclass(frozen=True)
class MonoidalTransformation:
    """Componentwise FA -> GA, compatible with both comparisons.  The
    constructor checks that the functors are parallel and that the
    components are exact ints indexing the target's morphisms (see
    `report.exact`)."""

    source_functor: MonoidalFunctor
    target_functor: MonoidalFunctor
    components: tuple

    def __post_init__(self):
        f, g = self.source_functor, self.target_functor
        if f.source != g.source or f.target != g.target:
            raise StructuralError("functors are not parallel")
        n, m = f.source.base.n_objects, len(f.target.base.morphisms)
        object.__setattr__(self, "components", exact(self.components, "components", (n,), m))


def check_monoidal_transformation(t: MonoidalTransformation) -> ValidationReport:
    report = ValidationReport("monoidal_transformation")
    fmf, gmf = t.source_functor, t.target_functor
    d = fmf.target.base
    c = fmf.source.base
    comps = t.components
    for a in range(c.n_objects):
        want = (fmf.functor.object_map[a], gmf.functor.object_map[a])
        if d.morphisms[comps[a]] != want:
            report.add_structural("component-endpoints", (a,))
    if not report.well_formed:
        return report
    for m, (a, b) in enumerate(c.morphisms):
        lhs = d.comp[comps[b]][fmf.functor.morphism_map[m]]
        rhs = d.comp[gmf.functor.morphism_map[m]][comps[a]]
        if lhs != rhs:
            report.add("naturality", (m,))
    tmor = fmf.target.tensor_mor
    for a in range(c.n_objects):
        for b in range(c.n_objects):
            lhs = d.comp[comps[fmf.source.tensor_obj[a][b]]][fmf.tensor_comparison[a][b]]
            rhs = d.comp[gmf.tensor_comparison[a][b]][tmor[comps[a]][comps[b]]]
            if lhs != rhs:
                report.add("tensor-compatibility", (a, b))
    iu = fmf.source.unit_obj
    if d.comp[comps[iu]][fmf.unit_comparison] != gmf.unit_comparison:
        report.add("unit-compatibility", ())
    return report


def embed_monoidal_transformation(t: MonoidalTransformation) -> DegTransformation:
    """Re-express an ordinary monoidal transformation in the comparison
    direction: distinguished object I, component at A the composite
    I(x)FA -> FA -> GA -> GA(x)I through the unitors."""
    trep = check_monoidal_transformation(t)
    if not trep.ok:
        raise InvalidStructureError("input is not a monoidal transformation")
    y = t.source_functor.target
    d = y.base
    comps = []
    invertible = True
    for a in range(t.source_functor.source.base.n_objects):
        fa = t.source_functor.functor.object_map[a]
        ga = t.target_functor.functor.object_map[a]
        path = d.comp[t.components[a]][y.lunit[fa]]
        path = d.comp[y.runit_inv[ga]][path]
        comps.append(path)
        if d.inverse(path) is None:
            invertible = False
    return DegTransformation(
        t.source_functor,
        t.target_functor,
        y.unit_obj,
        tuple(comps),
        lax=not invertible,
        oplax=True,
    )


def compose_monoidal_transformations(
    t2: MonoidalTransformation, t1: MonoidalTransformation
) -> MonoidalTransformation:
    d = t1.source_functor.target.base
    comps = tuple(
        d.compose(t2.components[a], t1.components[a])
        for a in range(t1.source_functor.source.base.n_objects)
    )
    return MonoidalTransformation(t1.source_functor, t2.target_functor, comps)


def identity_monoidal_transformation(mf: MonoidalFunctor) -> MonoidalTransformation:
    d = mf.target.base
    comps = tuple(
        d.identities[mf.functor.object_map[a]] for a in range(mf.source.base.n_objects)
    )
    return MonoidalTransformation(mf, mf, comps)


def enumerate_monoidal_transformations(
    f: MonoidalFunctor, g: MonoidalFunctor
) -> list:
    """All monoidal transformations f => g, by exhausting component tuples."""
    d = f.target.base
    n = f.source.base.n_objects
    choices = [d.hom(f.functor.object_map[a], g.functor.object_map[a]) for a in range(n)]
    if any(not c for c in choices):
        return []
    out = []
    for comps in itertools.product(*choices):
        t = MonoidalTransformation(f, g, comps)
        if check_monoidal_transformation(t).ok:
            out.append(t)
    return out


def unit_distobj_closure_witness(mc: FinMonoidalCategory):
    """Two unit-object transformations whose composite leaves the class.

    Returns (t1, t2, composite, closed) where closed says whether the
    composite's distinguished object is again the unit.  Computing the
    actual closure is out of scope; this only detects the failure.
    """
    ident = identity_monoidal_functor(mc)
    t1 = identity_deg_transformation(ident)
    t2 = identity_deg_transformation(ident)
    comp = compose_deg_transformations(t2, t1)
    return t1, t2, comp, comp.dist_obj == mc.unit_obj


# -- the dimension shift ------------------------------------------------------


@dataclass(frozen=True)
class DegenerateBicategory:
    """A one-0-cell bicategory, stored in bicategory vocabulary.

    The fields are in bijection with a monoidal category's: 1-cells are
    objects, 2-cells are morphisms, composition along the 0-cell is the
    tensor.  Shifting in either direction is a pure relabeling and round
    trips are bit-exact.  The constructor gates each int-holding field
    through `report.exact` under its own name, with the shapes and counts
    of its monoidal twin's fields.
    """

    one_cells: int
    two_cells: tuple  # (src, tgt) pairs of 1-cell indices
    identities: tuple  # identity 2-cell per 1-cell
    vcomp: tuple  # partial table over 2-cells
    hcomp_one: tuple  # composition of 1-cells
    hcomp_two: tuple  # horizontal composition of 2-cells
    unit_one: int  # the identity 1-cell on the unique 0-cell
    assoc: tuple
    assoc_inv: tuple
    lunit: tuple
    lunit_inv: tuple
    runit: tuple
    runit_inv: tuple

    def __post_init__(self):
        n = exact(self.one_cells, "one_cells")
        if n <= 0:
            raise StructuralError(f"one_cells: expected a positive count, got {n}")
        two_cells = exact(self.two_cells, "two_cells", (None, 2), n)
        object.__setattr__(self, "two_cells", two_cells)
        m = len(two_cells)
        exact(self.unit_one, "unit_one", (), n)
        for name, shape, count in (
            ("identities", (n,), m),
            ("vcomp", (m, m), m),
            ("hcomp_one", (n, n), n),
            ("hcomp_two", (m, m), m),
            ("assoc", (n, n, n), m),
            ("assoc_inv", (n, n, n), m),
            *((name, (n,), m) for name in ("lunit", "lunit_inv", "runit", "runit_inv")),
        ):
            value = exact(getattr(self, name), name, shape, count, null=name == "vcomp")
            object.__setattr__(self, name, value)


def shift_to_bicat(mc: FinMonoidalCategory) -> DegenerateBicategory:
    return DegenerateBicategory(
        one_cells=mc.base.n_objects,
        two_cells=mc.base.morphisms,
        identities=mc.base.identities,
        vcomp=mc.base.comp,
        hcomp_one=mc.tensor_obj,
        hcomp_two=mc.tensor_mor,
        unit_one=mc.unit_obj,
        assoc=mc.assoc,
        assoc_inv=mc.assoc_inv,
        lunit=mc.lunit,
        lunit_inv=mc.lunit_inv,
        runit=mc.runit,
        runit_inv=mc.runit_inv,
    )


def shift_from_bicat(b: DegenerateBicategory) -> FinMonoidalCategory:
    base = FiniteCategory(
        n_objects=b.one_cells,
        morphisms=b.two_cells,
        identities=b.identities,
        comp=b.vcomp,
    )
    return FinMonoidalCategory(
        base=base,
        tensor_obj=b.hcomp_one,
        tensor_mor=b.hcomp_two,
        unit_obj=b.unit_one,
        assoc=b.assoc,
        assoc_inv=b.assoc_inv,
        lunit=b.lunit,
        lunit_inv=b.lunit_inv,
        runit=b.runit,
        runit_inv=b.runit_inv,
    )


def check_degenerate_bicat(b: DegenerateBicategory) -> ValidationReport:
    """Validity is by definition validity of the relabeled monoidal category."""
    report = ValidationReport("degenerate_bicategory")
    report.extend(check_monoidal(shift_from_bicat(b)))
    return report


def _functor_key(f: MonoidalFunctor):
    return (f.functor.object_map, f.functor.morphism_map, f.tensor_comparison, f.unit_comparison)


def shift_universe(mcs: list):
    """Both sides of the shift comparison: one-0-cell bicategories and
    monoidal categories share one enumeration of functors per pair and
    differ only in their 0-cell labels.  Each enumeration is a backtracking
    search in lexicographic order of `_functor_key`, the ascending key
    order that `hom_indexed_category` requires.  Returns (functors, fun)."""
    functors = {
        (i, k): enumerate_monoidal_functors(a, b)
        for i, a in enumerate(mcs)
        for k, b in enumerate(mcs)
    }
    left, _ = hom_indexed_category(
        tuple(f"bicat#{i}" for i in range(len(mcs))),
        functors,
        key=_functor_key,
        compose=compose_monoidal_functors,
        identity=lambda i: identity_monoidal_functor(mcs[i]),
    )
    right = replace(left, zero_cells=tuple(f"moncat#{i}" for i in range(len(mcs))))
    fun = JFunctor(left, right, tuple(range(len(mcs))), tuple(range(len(left.cells[0]))))
    return functors, fun


def check_shift_equivalence(universe: list, bound: int) -> Report:
    """The category-level comparison from one-0-cell bicategories to monoidal
    categories is an equivalence over the given universe.

    The universe is an explicit list of monoidal categories, such as the
    stock instances within the bound (positive verdicts are sampled, so it
    is recorded in the report).  1-cells on both sides are enumerated
    exhaustively.  Both sides are built from the same
    hom-sets (see `shift_universe`), so the equivalence findings hold by
    construction; the round trip and the hom-set bijection are the checks
    with content.  `bound` is only recorded, and must be an exact int (see
    `report.exact`).
    """
    exact(bound, "bound")
    mcs = list(universe)
    functors, fun = shift_universe(mcs)
    report = Report(
        "shift-comparison",
        {"bound": bound, "universe": f"stock universe of {len(mcs)} monoidal categories"},
        check_external_equivalence(fun).findings,
    )

    roundtrip = all(shift_from_bicat(shift_to_bicat(mc)) == mc for mc in mcs)
    report.add(
        "shift-round-trip-identity",
        roundtrip,
        dimension=0,
        detail="relabeling there and back is bit-exact on every universe member",
    )
    bijective = all(
        len(fs) == len({_functor_key(f) for f in fs}) for fs in functors.values()
    )
    report.add(
        "hom-set-bijection",
        bijective,
        dimension=1,
        detail="weak functors correspond one-to-one with monoidal functors per pair",
    )
    return report
