"""Monads on finite categories, monad functors, and their transformations.

A monad functor (S on C) -> (T on D) is a functor U: C -> D with a natural
transformation phi: TU => US compatible with both units and both
multiplications; a transformation between two of those is a natural
transformation of the underlying functors making the evident square with
the phis commute.  On one-object base categories all of this collapses to
element equations in the endomorphism monoids, which is cross-checked in
the tests.
The constructors check shapes and ranges only, each int-holding field
through `report.exact`; the checkers check endpoints and the laws.
"""

from dataclasses import dataclass

from .fincat import CatFunctor, FiniteCategory, check_functor, identity_functor
from .report import StructuralError, ValidationReport, exact


@dataclass(frozen=True)
class FinMonad:
    """An endofunctor with unit and multiplication components per object."""

    endo: CatFunctor  # source == target, the base category
    eta: tuple  # components a -> T a
    mu: tuple  # components T(T a) -> T a

    def __post_init__(self):
        c = self.endo.source
        if c != self.endo.target:
            raise StructuralError("endo: source and target categories differ")
        n, m = c.n_objects, len(c.morphisms)
        object.__setattr__(self, "eta", exact(self.eta, "eta", (n,), m))
        object.__setattr__(self, "mu", exact(self.mu, "mu", (n,), m))


def check_monad(m: FinMonad) -> ValidationReport:
    """Functoriality, naturality of both transformations, unit laws,
    associativity; every violation is located at its object or morphism."""
    report = ValidationReport("monad")
    report.extend(check_functor(m.endo), prefix="endofunctor-")
    c = m.endo.source
    to, tm = m.endo.object_map, m.endo.morphism_map
    for a in range(c.n_objects):
        if c.morphisms[m.eta[a]] != (a, to[a]):
            report.add_structural("eta-endpoints", (a,))
        if c.morphisms[m.mu[a]] != (to[to[a]], to[a]):
            report.add_structural("mu-endpoints", (a,))
    if not report.well_formed:
        return report

    for f, (a, b) in enumerate(c.morphisms):
        tf = tm[f]
        if c.comp[tf][m.eta[a]] != c.comp[m.eta[b]][f]:
            report.add("eta-naturality", (f,))
        if c.comp[m.mu[b]][tm[tf]] != c.comp[tf][m.mu[a]]:
            report.add("mu-naturality", (f,))
    for a in range(c.n_objects):
        ta = to[a]
        if c.comp[m.mu[a]][tm[m.eta[a]]] != c.identities[ta]:
            report.add("unit-law-inner", (a,))
        if c.comp[m.mu[a]][m.eta[ta]] != c.identities[ta]:
            report.add("unit-law-outer", (a,))
        if c.comp[m.mu[a]][tm[m.mu[a]]] != c.comp[m.mu[a]][m.mu[ta]]:
            report.add("mu-associativity", (a,))
    return report


def identity_monad(c: FiniteCategory) -> FinMonad:
    return FinMonad(identity_functor(c), c.identities, c.identities)


@dataclass(frozen=True)
class MonadFunctor:
    """U between the base categories plus phi: TU => US."""

    source: FinMonad  # S on C
    target: FinMonad  # T on D
    u: CatFunctor  # C -> D
    phi: tuple  # per object of C: T(U c) -> U(S c)

    def __post_init__(self):
        u = self.u
        if u.source != self.source.endo.source or u.target != self.target.endo.source:
            raise StructuralError("carrier functor endpoints mismatch")
        phi = exact(self.phi, "phi", (u.source.n_objects,), len(u.target.morphisms))
        object.__setattr__(self, "phi", phi)


def check_monad_functor(mf: MonadFunctor) -> ValidationReport:
    """Naturality of phi plus the unit and multiplication compatibilities,
    each checked at every object.

    An equation that would compose arrows with no composite, as an invalid
    endpoint can make it do, is reported as a structural
    `undefined-composite` finding and ends the check.
    """
    report = ValidationReport("monad_functor")
    report.extend(check_functor(mf.u), prefix="carrier-")
    s, t = mf.source, mf.target
    c, d = s.endo.source, t.endo.source
    so, sm = s.endo.object_map, s.endo.morphism_map
    to, tm = t.endo.object_map, t.endo.morphism_map
    uo, um = mf.u.object_map, mf.u.morphism_map
    for a in range(c.n_objects):
        if d.morphisms[mf.phi[a]] != (to[uo[a]], uo[so[a]]):
            report.add_structural("phi-endpoints", (a,))
    if not report.well_formed:
        return report

    for f, (a, b) in enumerate(c.morphisms):
        lhs = d.comp[um[sm[f]]][mf.phi[a]]
        rhs = d.comp[mf.phi[b]][tm[um[f]]]
        if lhs != rhs:
            report.add("phi-naturality", (f,))
    for a in range(c.n_objects):
        ua = uo[a]
        if d.comp[mf.phi[a]][t.eta[ua]] != um[s.eta[a]]:
            report.add("unit-compatibility", (a,))
        inner = d.comp[mf.phi[so[a]]][tm[mf.phi[a]]]
        if inner is None:
            report.add_structural(
                "undefined-composite", (a,), "multiplication-compatibility"
            )
            return report
        lhs = d.comp[mf.phi[a]][t.mu[ua]]
        rhs = d.comp[um[s.mu[a]]][inner]
        if lhs != rhs:
            report.add("multiplication-compatibility", (a,))
    return report


def identity_monad_functor(m: FinMonad) -> MonadFunctor:
    c = m.endo.source
    phi = tuple(c.identities[a] for a in m.endo.object_map)
    return MonadFunctor(m, m, identity_functor(c), phi)


@dataclass(frozen=True)
class MonadFunctorTransformation:
    source: MonadFunctor
    target: MonadFunctor
    gamma: tuple  # per object of the common base: U c -> U' c

    def __post_init__(self):
        u = self.source.u
        gamma = exact(self.gamma, "gamma", (u.source.n_objects,), len(u.target.morphisms))
        object.__setattr__(self, "gamma", gamma)


def check_monad_transformation(t: MonadFunctorTransformation) -> ValidationReport:
    """Naturality of gamma and the compatibility square with both phis."""
    report = ValidationReport("monad_functor_transformation")
    f, g = t.source, t.target
    if f.source != g.source or f.target != g.target:
        report.add_structural("endpoints", (), "monad functors are not parallel")
        return report
    c = f.u.source
    d = f.u.target
    for a in range(c.n_objects):
        if d.morphisms[t.gamma[a]] != (f.u.object_map[a], g.u.object_map[a]):
            report.add_structural("gamma-endpoints", (a,))
    if not report.well_formed:
        return report
    fm, gm = f.u.morphism_map, g.u.morphism_map
    for m, (a, b) in enumerate(c.morphisms):
        if d.comp[t.gamma[b]][fm[m]] != d.comp[gm[m]][t.gamma[a]]:
            report.add("gamma-naturality", (m,))
    so, tm = f.source.endo.object_map, f.target.endo.morphism_map
    for a in range(c.n_objects):
        lhs = d.comp[g.phi[a]][tm[t.gamma[a]]]
        rhs = d.comp[t.gamma[so[a]]][f.phi[a]]
        if lhs != rhs:
            report.add("compatibility-square", (a,))
    return report
