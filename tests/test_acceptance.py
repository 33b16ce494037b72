"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Positive claims are checked exhaustively over their stated
bounds; negative claims are established by validated witnesses; stated
runtime budgets are asserted.
"""

import itertools
import json
import random
import time

import pytest

from deglab import coherence, serialize
from deglab.cli import main as cli_main
from deglab.degenerate import check_forgetful_equivalence, cat_to_monoid, monoid_to_cat
from deglab.doubly import (
    build_ddbicat,
    check_dd_functor,
    check_ddbicat,
    check_modification,
    check_two_equivalence,
    compose_dd_functors,
    dd_functors_between,
    eckmann_hilton_report,
    extract_cmon_die,
    forgetful_image,
    identity_dd_functor,
    promote_lax,
    random_tamper,
    restrict_identity_constraint,
    unfaithfulness_witness,
)
from deglab.examples import (
    bool_or_monoid,
    discrete_monoidal,
    nand_pair,
    sign_category,
    stock_monoidal_universe,
    trivial_monoid,
    zmod,
)
from deglab.fincat import CatFunctor, check_functor, one_object_category
from deglab.monads import (
    FinMonad,
    MonadFunctor,
    MonadFunctorTransformation,
    check_monad,
    check_monad_functor,
    check_monad_transformation,
    identity_monad_functor,
)
from deglab.monoidal import (
    DegTransformation,
    check_deg_transformation,
    check_monoidal,
    check_shift_equivalence,
    embed_monoidal_transformation,
    enumerate_monoidal_functors,
    enumerate_monoidal_transformations,
    identity_monoidal_functor,
    unit_distobj_closure_witness,
)
from deglab.monoids import (
    MonoidHom,
    check_hom,
    cmon_die_universe,
    enumerate_homs,
    enumerate_monoids,
    identity_hom,
    invert,
    make_cmon_die,
)
from deglab.report import InvalidStructureError
from deglab.suites import SUITES, run_suite
from samples import compose_homs


def report_line(number, passed, text):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {text}")
    assert passed


def test_criterion_01_round_trip_and_forgetful_equivalence():
    start = time.monotonic()
    monoids = [m for n in range(1, 5) for m in enumerate_monoids(n)]
    round_trips = all(cat_to_monoid(monoid_to_cat(m)) == m for m in monoids)
    rep = check_forgetful_equivalence([monoid_to_cat(m) for m in monoids])
    elapsed = time.monotonic() - start
    passed = round_trips and rep.ok and elapsed < 10.0
    report_line(
        1,
        passed,
        f"round trips bit-identical and comparison full/faithful/surjective on "
        f"{len(monoids)} monoids of size <= 4 ({elapsed:.1f}s < 10s)",
    )


def test_criterion_02_collapse_suite_with_tampering():
    start = time.monotonic()
    dies = cmon_die_universe(4)
    builds_ok = True
    for s in dies:
        b = build_ddbicat(s)
        if not check_ddbicat(b).ok or not eckmann_hilton_report(b).ok:
            builds_ok = False
            break
    rng = random.Random(2024)
    targets = [s for s in dies if s.monoid.size >= 2]
    caught = 0
    for _ in range(1000):
        s = rng.choice(targets)
        tampered, _ = random_tamper(build_ddbicat(s), rng)
        if not check_ddbicat(tampered).ok or not eckmann_hilton_report(tampered).ok:
            caught += 1
    elapsed = time.monotonic() - start
    passed = builds_ok and caught == 1000 and elapsed < 60.0
    report_line(
        2,
        passed,
        f"all {len(dies)} instances collapse as forced; {caught}/1000 tamperings "
        f"caught ({elapsed:.1f}s < 60s)",
    )


def test_criterion_03_composition_law():
    start = time.monotonic()
    dies = cmon_die_universe(3)
    functors = {}
    for i, s in enumerate(dies):
        for k, t in enumerate(dies):
            functors[(i, k)] = dd_functors_between(s, t)
    law_ok = True
    for (i, k), fs in functors.items():
        for (k2, l), gs in functors.items():
            if k2 != k:
                continue
            for f in fs:
                for g in gs:
                    comp = compose_dd_functors(g, f)
                    mul = dies[l].monoid.mul
                    expected_map = tuple(g.map[v] for v in f.map)
                    expected_m = mul[g.map[f.m]][g.m]
                    if comp.map != expected_map or comp.m != expected_m:
                        law_ok = False
    assoc_ok = True
    unital_ok = True
    for (i, k), fs in functors.items():
        ident_s = identity_dd_functor(dies[i])
        ident_t = identity_dd_functor(dies[k])
        for f in fs:
            if compose_dd_functors(ident_t, f) != f or compose_dd_functors(f, ident_s) != f:
                unital_ok = False
    for (i, k), fs in functors.items():
        for (k2, l), gs in functors.items():
            if k2 != k:
                continue
            for (l2, p), hs in functors.items():
                if l2 != l:
                    continue
                for f, g, h in itertools.product(fs, gs, hs):
                    if compose_dd_functors(h, compose_dd_functors(g, f)) != compose_dd_functors(
                        compose_dd_functors(h, g), f
                    ):
                        assoc_ok = False
    elapsed = time.monotonic() - start
    passed = law_ok and assoc_ok and unital_ok and elapsed < 30.0
    report_line(
        3,
        passed,
        f"composition matches the product formula and is strictly associative and "
        f"unital over size <= 3 ({elapsed:.1f}s < 30s)",
    )


def test_criterion_04_lax_promotion():
    dies = cmon_die_universe(4)
    builds = {id(s): build_ddbicat(s) for s in dies}
    failures = 0
    promoted = 0
    for s in dies:
        for t in dies:
            mul = t.monoid.mul
            b1, b2 = builds[id(s)], builds[id(t)]
            for hom in enumerate_homs(s.monoid, t.monoid):
                fd = hom.map[s.die]
                for m2 in range(t.monoid.size):
                    for m0 in range(t.monoid.size):
                        if t.die != mul[fd][mul[m2][m0]]:
                            continue
                        try:
                            f = promote_lax(b1, b2, hom.map, m2, m0)
                        except InvalidStructureError:
                            failures += 1
                            continue
                        promoted += 1
                        if invert(t.monoid, f.m) is None or invert(t.monoid, f.m0) is None:
                            failures += 1
    passed = failures == 0 and promoted > 0
    report_line(
        4,
        passed,
        f"{promoted} lax data sets satisfying the unit equation promoted with "
        f"invertible constraints, {failures} failures",
    )


def test_criterion_05_two_truncation_comparison():
    rep = check_two_equivalence(3)
    pair1 = unfaithfulness_witness(1, make_cmon_die(zmod(2), 0))
    ok1 = (
        pair1 is not None
        and check_dd_functor(pair1[0]).ok
        and check_dd_functor(pair1[1]).ok
        and pair1[0] != pair1[1]
        and forgetful_image(1, pair1[0]) == forgetful_image(1, pair1[1])
    )
    ok3 = True
    for s in cmon_die_universe(3):
        if s.monoid.size < 2:
            continue
        pair3 = unfaithfulness_witness(3, s)
        if (
            pair3 is None
            or not check_modification(pair3[0]).ok
            or not check_modification(pair3[1]).ok
            or pair3[0] == pair3[1]
        ):
            ok3 = False
    dies = cmon_die_universe(3)
    fs = [f for s in dies for t in dies for f in dd_functors_between(s, t)]
    _, rrep = restrict_identity_constraint(fs, bound=3)
    passed = rep.ok and ok1 and ok3 and rrep.ok
    report_line(
        5,
        passed,
        "2-truncation equivalence at bound 3; level-1 and level-3 counterexamples "
        "validated; identity-constraint restriction closed and equivalent",
    )


def test_criterion_06_sign_category_pentagon():
    start = time.monotonic()
    sc = sign_category()
    rep = check_monoidal(sc)
    oracle_ok = all(
        coherence.pentagon_holds_by_terms(sc, dict(enumerate(quad)))
        for quad in itertools.product(range(2), repeat=4)
    )
    from dataclasses import replace

    assoc = [[list(col) for col in plane] for plane in sc.assoc]
    assoc[0][1][1] ^= 1
    flipped = tuple(tuple(tuple(c) for c in p) for p in assoc)
    tampered = replace(sc, assoc=flipped, assoc_inv=flipped)
    trep = check_monoidal(tampered)
    detected = not trep.ok and "pentagon" in trep.grouped()
    elapsed = time.monotonic() - start
    passed = rep.ok and oracle_ok and detected and elapsed < 5.0
    report_line(
        6,
        passed,
        f"sign category passes with pentagon verified over all 16 quadruples by "
        f"checker and oracle; tampered triple detected ({elapsed:.1f}s < 5s)",
    )


def test_criterion_07_shift_equivalence_and_unitality_witness(tmp_path, capsys):
    universe = stock_monoidal_universe(4)
    rep = check_shift_equivalence(universe, bound=4)
    nand = nand_pair()
    _, _, comp, closed = unit_distobj_closure_witness(nand)
    witness_ok = (not closed) and comp.dist_obj != nand.unit_obj
    path = tmp_path / "unitality_witness.json"
    path.write_text(
        serialize.canonical_dumps(serialize.to_payload(comp)), encoding="utf-8"
    )
    code = cli_main(["validate", str(path)])
    capsys.readouterr()
    passed = rep.ok and witness_ok and code == 0
    report_line(
        7,
        passed,
        "shift comparison passes on the stock universe; unitality-failure witness "
        "replayed through the command line as a valid transformation",
    )


def test_criterion_08_embedding_and_essential_image():
    universe = stock_monoidal_universe(4)
    embed_ok = True
    for mc in universe:
        fs = enumerate_monoidal_functors(mc, mc)
        for f in fs:
            for g in fs:
                for mt in enumerate_monoidal_transformations(f, g):
                    e = embed_monoidal_transformation(mt)
                    if e.dist_obj != mc.unit_obj or not check_deg_transformation(e).ok:
                        embed_ok = False
    dz2 = discrete_monoidal(zmod(2))
    idf = identity_monoidal_functor(dz2)
    outsider = DegTransformation(
        idf, idf, 1, tuple(dz2.base.identities[(x + 1) % 2] for x in range(2)), oplax=True
    )
    outsider_ok = check_deg_transformation(outsider).ok
    outside_image = dz2.base.iso_between(outsider.dist_obj, dz2.unit_obj) is None
    passed = embed_ok and outsider_ok and outside_image
    report_line(
        8,
        passed,
        "every embedded transformation has the unit as distinguished object and "
        "validates; the distinguished-object-1 transformation on the discrete pair "
        "is valid and certified outside the essential image",
    )


def _element_monad_verdict(m, t_map, e, mu_el):
    from deglab.degenerate import DegNatTrans, check_nat_trans

    if not check_hom(MonoidHom(m, m, t_map)).ok:
        return False
    t_hom = MonoidHom(m, m, t_map)
    ident = identity_hom(m)
    tt_hom = compose_homs(t_hom, t_hom)
    return (
        check_nat_trans(DegNatTrans(ident, t_hom, e)).ok
        and check_nat_trans(DegNatTrans(tt_hom, t_hom, mu_el)).ok
        and m.mul[mu_el][t_map[e]] == m.unit
        and m.mul[mu_el][e] == m.unit
        and m.mul[mu_el][t_map[mu_el]] == m.mul[mu_el][mu_el]
    )


def test_criterion_09_one_object_collapse():
    rng = random.Random(99)
    monoids = [m for n in (1, 2, 3, 4) for m in enumerate_monoids(n)]
    agreements = 0
    for _ in range(20):
        m = rng.choice(monoids)
        t_map = tuple(rng.randrange(m.size) for _ in range(m.size))
        e, mu_el = rng.randrange(m.size), rng.randrange(m.size)
        c = one_object_category(m)
        endo = CatFunctor(c, c, (0,), t_map)
        actual = check_functor(endo).ok and check_monad(FinMonad(endo, (e,), (mu_el,))).ok
        assert actual == _element_monad_verdict(m, t_map, e, mu_el)
        agreements += 1

    from deglab.degenerate import DegNatTrans, check_nat_trans

    comm = [m for n in (2, 3) for m in enumerate_monoids(n, commutative_only=True)]
    for _ in range(20):
        m = rng.choice(comm)
        c = one_object_category(m)
        ident_map = tuple(range(m.size))
        monad = FinMonad(CatFunctor(c, c, (0,), ident_map), (m.unit,), (m.unit,))
        u_map = tuple(rng.randrange(m.size) for _ in range(m.size))
        phi_el = rng.randrange(m.size)
        hom_ok = check_hom(MonoidHom(m, m, u_map)).ok
        actual = hom_ok and check_monad_functor(
            MonadFunctor(monad, monad, CatFunctor(c, c, (0,), u_map), (phi_el,))
        ).ok
        expected = hom_ok and (
            check_nat_trans(
                DegNatTrans(MonoidHom(m, m, u_map), MonoidHom(m, m, u_map), phi_el)
            ).ok
            and m.mul[phi_el][m.unit] == u_map[m.unit]
            and m.mul[phi_el][m.unit] == m.mul[u_map[m.unit]][m.mul[phi_el][phi_el]]
        )
        assert actual == expected
        agreements += 1

    for _ in range(20):
        m = rng.choice(comm)
        c = one_object_category(m)
        monad = FinMonad(CatFunctor(c, c, (0,), tuple(range(m.size))), (m.unit,), (m.unit,))
        f = identity_monad_functor(monad)
        gamma = rng.randrange(m.size)
        actual = check_monad_transformation(MonadFunctorTransformation(f, f, (gamma,))).ok
        ident = identity_hom(m)
        expected = check_nat_trans(DegNatTrans(ident, ident, gamma)).ok
        assert actual == expected
        agreements += 1

    report_line(
        9,
        agreements == 60,
        f"monad, monad-functor, and transformation verdicts on one-object bases "
        f"reproduce the element-level verdicts on {agreements} generated cases",
    )


def test_criterion_10_replayability(tmp_path, capsys):
    replayed = 0
    mismatches = 0
    for name in SUITES:
        report = run_suite(name)
        assert report.ok, f"suite {name} failed"
        payload = report.to_payload()
        for finding in payload["findings"]:
            w = finding["witness"]
            if w is None:
                continue
            for item in w if isinstance(w, list) else [w]:
                if not isinstance(item, dict) or "structure" not in item:
                    continue
                path = tmp_path / f"witness_{replayed}.json"
                path.write_text(
                    serialize.canonical_dumps(item["structure"]), encoding="utf-8"
                )
                code = cli_main(["validate", str(path)])
                capsys.readouterr()
                expected = 0 if item["expected_verdict"] == "valid" else 1
                if code != expected:
                    mismatches += 1
                replayed += 1

    round_trip_ok = True
    from deglab.doubly import transformation_between

    s = make_cmon_die(zmod(2), 1)
    structures = [
        zmod(3),
        s,
        build_ddbicat(s),
        identity_dd_functor(s),
        transformation_between(identity_dd_functor(s), identity_dd_functor(s)),
        sign_category(),
        nand_pair(),
    ]
    for obj in structures:
        text = serialize.canonical_dumps(serialize.to_payload(obj))
        if serialize.canonical_dumps(json.loads(text)) != text:
            round_trip_ok = False
        if serialize.structure_from_payload(json.loads(text)) != obj:
            round_trip_ok = False

    passed = replayed > 0 and mismatches == 0 and round_trip_ok
    report_line(
        10,
        passed,
        f"{replayed} suite witnesses replayed through the command line with matching "
        f"verdicts; canonical serialization round trips byte-exactly",
    )
