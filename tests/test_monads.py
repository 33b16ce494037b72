import random
from dataclasses import replace

import pytest

from deglab.degenerate import DegNatTrans, check_nat_trans
from deglab.examples import arrow_category, zmod
from deglab.fincat import CatFunctor, check_functor, one_object_category
from deglab.monads import (
    FinMonad,
    MonadFunctor,
    MonadFunctorTransformation,
    check_monad,
    check_monad_functor,
    check_monad_transformation,
    identity_monad,
    identity_monad_functor,
)
from deglab.monoids import MonoidHom, check_hom, enumerate_monoids
from deglab.report import StructuralError
from samples import compose_homs


def constant_to_terminal_monad():
    """On the arrow category: send everything to the terminal object."""
    ac = arrow_category()
    endo = CatFunctor(ac, ac, (1, 1), (1, 1, 1))
    return FinMonad(endo, (2, 1), (1, 1))


class TestEndofunctor:
    def test_report_is_the_functor_report_under_its_own_subject(self):
        m = identity_monad(arrow_category())
        # the broken one sends the identity of object 0 to that of object 1
        broken = replace(m.endo, morphism_map=(1,) + m.endo.morphism_map[1:])
        for t, ok in ((m.endo, True), (broken, False)):
            rep = check_monad(replace(m, endo=t))
            inner = check_functor(t)
            assert inner.ok is ok
            for kind in ("structural", "violations"):
                own = [v for v in getattr(rep, kind) if v.axiom.startswith("endofunctor-")]
                want = [replace(v, axiom="endofunctor-" + v.axiom) for v in getattr(inner, kind)]
                assert own == want

    def test_functor_between_two_categories_refused(self):
        c = one_object_category(zmod(3))
        with pytest.raises(StructuralError, match="^endo: "):
            FinMonad(CatFunctor(c, arrow_category(), (0,), (0, 0, 0)), (0,), (0,))


class TestMonadLaws:
    def test_identity_monad_valid(self):
        for c in (arrow_category(), one_object_category(zmod(3))):
            assert check_monad(identity_monad(c)).ok

    def test_constant_to_terminal_valid(self):
        assert check_monad(constant_to_terminal_monad()).ok

    def test_tampered_eta_located(self):
        m = constant_to_terminal_monad()
        bad = FinMonad(m.endo, (0, 1), m.mu)
        rep = check_monad(bad)
        assert not rep.ok
        assert any(v.axiom == "eta-endpoints" and v.where == (0,) for v in rep.structural)

    def test_broken_unit_law_located(self):
        c = one_object_category(zmod(3))
        ide = CatFunctor(c, c, (0,), (0, 1, 2))
        bad = FinMonad(ide, (1,), (0,))  # mu . T(eta) = 1, not the identity
        rep = check_monad(bad)
        assert any(v.axiom.startswith("unit-law") for v in rep.violations)


class TestMonadFunctors:
    def test_identity_functor_valid(self):
        m = constant_to_terminal_monad()
        assert check_monad_functor(identity_monad_functor(m)).ok

    def test_random_phi_usually_invalid(self):
        m = constant_to_terminal_monad()
        good = identity_monad_functor(m)
        # the only other candidate component at object 0 keeps endpoints but
        # breaks compatibility; scan all component choices and count passes
        ac = arrow_category()
        passes = 0
        for phi0 in range(len(ac.morphisms)):
            for phi1 in range(len(ac.morphisms)):
                try:
                    cand = MonadFunctor(m, m, good.u, (phi0, phi1))
                except StructuralError:
                    continue
                if check_monad_functor(cand).ok:
                    passes += 1
        assert passes == 1  # only the identity-shaped phi survives

    def test_invalid_target_is_reported_not_raised(self):
        m = identity_monad(arrow_category())
        # the target's endofunctor sends the identity of object 0 to that of 1
        endo = replace(m.endo, morphism_map=(1,) + m.endo.morphism_map[1:])
        f = replace(identity_monad_functor(m), target=replace(m, endo=endo))
        assert not check_monad(f.target).ok
        rep = check_monad_functor(f)
        assert [(v.axiom, v.where, v.message) for v in rep.structural] == [
            ("undefined-composite", (0,), "multiplication-compatibility")
        ]

    def test_transformation_square(self):
        m = constant_to_terminal_monad()
        f = identity_monad_functor(m)
        ac = arrow_category()
        t = MonadFunctorTransformation(f, f, tuple(ac.identities[a] for a in f.u.object_map))
        assert check_monad_transformation(t).ok

    def test_nonparallel_rejected(self):
        m = constant_to_terminal_monad()
        i = identity_monad(arrow_category())
        f = identity_monad_functor(m)
        g = identity_monad_functor(i)
        rep = check_monad_transformation(
            MonadFunctorTransformation(f, g, (0, 1))
        )
        assert not rep.well_formed


class TestOneObjectCollapse:
    """On one-object base categories every verdict must agree with the
    element-level computation through the monoid machinery."""

    def _element_monad_verdict(self, m, t_map, e, mu_el):
        hom_ok = check_hom(MonoidHom(m, m, t_map)).ok
        if not hom_ok:
            return False
        t_hom = MonoidHom(m, m, t_map)
        ident = MonoidHom(m, m, tuple(range(m.size)))
        tt_hom = compose_homs(t_hom, t_hom)
        eta_nat = check_nat_trans(DegNatTrans(ident, t_hom, e)).ok
        mu_nat = check_nat_trans(DegNatTrans(tt_hom, t_hom, mu_el)).ok
        unit_inner = m.mul[mu_el][t_map[e]] == m.unit
        unit_outer = m.mul[mu_el][e] == m.unit
        assoc = m.mul[mu_el][t_map[mu_el]] == m.mul[mu_el][mu_el]
        return eta_nat and mu_nat and unit_inner and unit_outer and assoc

    def test_monad_verdicts_match(self):
        rng = random.Random(42)
        monoids = [m for n in (2, 3, 4) for m in enumerate_monoids(n)]
        for _ in range(40):
            m = rng.choice(monoids)
            t_map = tuple(rng.randrange(m.size) for _ in range(m.size))
            e = rng.randrange(m.size)
            mu_el = rng.randrange(m.size)
            c = one_object_category(m)
            endo = CatFunctor(c, c, (0,), t_map)
            structural_ok = check_functor(endo).ok
            monad_ok = structural_ok and check_monad(FinMonad(endo, (e,), (mu_el,))).ok
            assert monad_ok == self._element_monad_verdict(m, t_map, e, mu_el)

    def _element_functor_verdict(self, ms, mt, s_monad, t_monad, u_map, phi_el):
        if not check_hom(MonoidHom(ms, mt, u_map)).ok:
            return False
        t_map_s, e_s, mu_s = s_monad
        t_map_t, e_t, mu_t = t_monad
        u_hom = MonoidHom(ms, mt, u_map)
        tu = compose_homs(MonoidHom(mt, mt, t_map_t), u_hom)
        us = compose_homs(u_hom, MonoidHom(ms, ms, t_map_s))
        nat = check_nat_trans(DegNatTrans(tu, us, phi_el)).ok
        unit = mt.mul[phi_el][e_t] == u_map[e_s]
        mult = (
            mt.mul[phi_el][mu_t]
            == mt.mul[u_map[mu_s]][mt.mul[phi_el][t_map_t[phi_el]]]
        )
        return nat and unit and mult

    def test_monad_functor_verdicts_match(self):
        rng = random.Random(7)
        monoids = [m for n in (2, 3) for m in enumerate_monoids(n, commutative_only=True)]
        cases = 0
        while cases < 40:
            ms, mt = rng.choice(monoids), rng.choice(monoids)
            ident_s = tuple(range(ms.size))
            ident_t = tuple(range(mt.size))
            cs, ct = one_object_category(ms), one_object_category(mt)
            s_monad = FinMonad(CatFunctor(cs, cs, (0,), ident_s), (ms.unit,), (ms.unit,))
            t_monad = FinMonad(CatFunctor(ct, ct, (0,), ident_t), (mt.unit,), (mt.unit,))
            u_map = tuple(rng.randrange(mt.size) for _ in range(ms.size))
            phi_el = rng.randrange(mt.size)
            if not check_hom(MonoidHom(ms, mt, u_map)).ok:
                expected = False
                actual = False  # carrier fails before the monad layer
                u = None
                try:
                    u = CatFunctor(cs, ct, (0,), u_map)
                    actual = check_monad_functor(
                        MonadFunctor(s_monad, t_monad, u, (phi_el,))
                    ).ok
                except StructuralError:
                    actual = False
            else:
                u = CatFunctor(cs, ct, (0,), u_map)
                actual = check_monad_functor(
                    MonadFunctor(s_monad, t_monad, u, (phi_el,))
                ).ok
                expected = self._element_functor_verdict(
                    ms,
                    mt,
                    (ident_s, ms.unit, ms.unit),
                    (ident_t, mt.unit, mt.unit),
                    u_map,
                    phi_el,
                )
            assert actual == expected
            cases += 1

    def test_transformation_verdicts_match(self):
        rng = random.Random(13)
        monoids = [m for n in (2, 3) for m in enumerate_monoids(n, commutative_only=True)]
        for _ in range(40):
            m = rng.choice(monoids)
            c = one_object_category(m)
            ident = tuple(range(m.size))
            monad = FinMonad(CatFunctor(c, c, (0,), ident), (m.unit,), (m.unit,))
            f = identity_monad_functor(monad)
            gamma = rng.randrange(m.size)
            actual = check_monad_transformation(
                MonadFunctorTransformation(f, f, (gamma,))
            ).ok
            # the square collapses to phi-centrality of gamma; with identity
            # phi it is plain centrality, and naturality is the same equation
            ident_hom = MonoidHom(m, m, ident)
            expected = check_nat_trans(DegNatTrans(ident_hom, ident_hom, gamma)).ok
            assert actual == expected
