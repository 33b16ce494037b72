"""Finite categories with explicit composition tables, plus functors between
them.  Substrate for the monoidal and monad layers.

comp[g][f] is g after f when tgt(f) = src(g), and None otherwise.  The
constructors check shapes and ranges only, each int-holding field through
`report.exact`; the checkers check endpoints and the laws.
"""

import itertools
from dataclasses import dataclass

from .equivalence import _check_table
from .monoids import FiniteMonoid
from .report import StructuralError, ValidationReport, exact


@dataclass(frozen=True)
class FiniteCategory:
    n_objects: int
    morphisms: tuple  # (src, tgt) pairs
    identities: tuple  # morphism index per object
    comp: tuple  # comp[g][f] = g after f, or None

    def __post_init__(self):
        n = exact(self.n_objects, "n_objects")
        if n <= 0:
            raise StructuralError(f"n_objects: expected a positive count, got {n}")
        morphisms = exact(self.morphisms, "morphisms", (None, 2), n)
        m = len(morphisms)
        object.__setattr__(self, "morphisms", morphisms)
        object.__setattr__(self, "identities", exact(self.identities, "identities", (n,), m))
        object.__setattr__(self, "comp", exact(self.comp, "comp", (m, m), m, null=True))

    def compose(self, g: int, f: int) -> int:
        v = self.comp[g][f]
        if v is None:
            raise StructuralError(f"morphisms {g} after {f} are not composable")
        return v

    def hom(self, a: int, b: int) -> list:
        return [f for f, (s, t) in enumerate(self.morphisms) if s == a and t == b]

    def inverse(self, f: int):
        """The inverse of morphism f, or None when f is not an isomorphism."""
        s, t = self.morphisms[f]
        for g in self.hom(t, s):
            if self.comp[g][f] == self.identities[s] and self.comp[f][g] == self.identities[t]:
                return g
        return None

    def iso_between(self, a: int, b: int):
        """An isomorphism a -> b together with its inverse, or None."""
        for f in self.hom(a, b):
            g = self.inverse(f)
            if g is not None:
                return f, g
        return None


def check_category(c: FiniteCategory) -> ValidationReport:
    """Structural `identity-endpoints`, then the laws of the defined entries
    of `comp`, keyed (g, f) in that order, through `equivalence._check_table`
    under the name `composition` (`composition-missing` for a composable
    pair left undefined, `composition-associativity`, and so on)."""
    report = ValidationReport("category")
    for a, i in enumerate(c.identities):
        if c.morphisms[i] != (a, a):
            report.add_structural("identity-endpoints", (a,))
    cells = range(len(c.morphisms))
    table = {(g, f): c.comp[g][f] for g in cells for f in cells if c.comp[g][f] is not None}
    _check_table(report, "composition", c.morphisms, c.identities, table)
    return report


@dataclass(frozen=True)
class CatFunctor:
    source: FiniteCategory
    target: FiniteCategory
    object_map: tuple
    morphism_map: tuple

    def __post_init__(self):
        s, t = self.source, self.target
        om = exact(self.object_map, "object_map", (s.n_objects,), t.n_objects)
        mm = exact(self.morphism_map, "morphism_map", (len(s.morphisms),), len(t.morphisms))
        object.__setattr__(self, "object_map", om)
        object.__setattr__(self, "morphism_map", mm)


def check_functor(fun: CatFunctor) -> ValidationReport:
    report = ValidationReport("functor")
    c, d = fun.source, fun.target
    fo, fm = fun.object_map, fun.morphism_map
    for f, (s, t) in enumerate(c.morphisms):
        if d.morphisms[fm[f]] != (fo[s], fo[t]):
            report.add("endpoints", (f,))
    for a, i in enumerate(c.identities):
        if fm[i] != d.identities[fo[a]]:
            report.add("identities", (a,))
    for g in range(len(c.morphisms)):
        for f in range(len(c.morphisms)):
            if c.comp[g][f] is None:
                continue
            img = d.comp[fm[g]][fm[f]]
            if img is None or img != fm[c.comp[g][f]]:
                report.add("composition", (g, f))
    return report


def identity_functor(c: FiniteCategory) -> CatFunctor:
    return CatFunctor(c, c, tuple(range(c.n_objects)), tuple(range(len(c.morphisms))))


def compose_functors(g: CatFunctor, f: CatFunctor) -> CatFunctor:
    if f.target != g.source:
        raise StructuralError("functor composition endpoint mismatch")
    return CatFunctor(
        f.source,
        g.target,
        tuple(g.object_map[v] for v in f.object_map),
        tuple(g.morphism_map[v] for v in f.morphism_map),
    )


def enumerate_functors(c: FiniteCategory, d: FiniteCategory) -> list:
    """All functors c -> d by backtracking over object then morphism images."""
    out = []
    n_mor = len(c.morphisms)

    def fill_morphisms(object_map):
        mor_map = [None] * n_mor
        for a, i in enumerate(c.identities):
            if mor_map[i] is not None and mor_map[i] != d.identities[object_map[a]]:
                return
            mor_map[i] = d.identities[object_map[a]]

        def ok_so_far():
            # every fully-decided composable pair must be preserved
            for x in range(n_mor):
                if mor_map[x] is None:
                    continue
                sx, tx = c.morphisms[x]
                if d.morphisms[mor_map[x]] != (object_map[sx], object_map[tx]):
                    return False
                for y in range(n_mor):
                    if mor_map[y] is None:
                        continue
                    h = c.comp[x][y]
                    if h is None or mor_map[h] is None:
                        continue
                    img = d.comp[mor_map[x]][mor_map[y]]
                    if img is None or img != mor_map[h]:
                        return False
            return True

        if not ok_so_far():
            return

        def place(f):
            if f == n_mor:
                out.append(CatFunctor(c, d, tuple(object_map), tuple(mor_map)))
                return
            if mor_map[f] is not None:
                place(f + 1)
                return
            s, t = c.morphisms[f]
            for cand in d.hom(object_map[s], object_map[t]):
                mor_map[f] = cand
                if ok_so_far():
                    place(f + 1)
                mor_map[f] = None

        place(0)

    for object_map in itertools.product(range(d.n_objects), repeat=c.n_objects):
        fill_morphisms(list(object_map))
    return out


def one_object_category(m: FiniteMonoid) -> FiniteCategory:
    """The category with a single object whose endomorphisms are the monoid.

    comp[g][f] is g after f, matching the monoid's mul(g, f).
    """
    comp = tuple(tuple(m.mul[g][f] for f in range(m.size)) for g in range(m.size))
    return FiniteCategory(
        n_objects=1,
        morphisms=tuple((0, 0) for _ in range(m.size)),
        identities=(m.unit,),
        comp=comp,
    )
