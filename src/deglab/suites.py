"""Named verification suites runnable from the command line.

Each suite exercises one cluster of claims over a bounded universe and
returns a Report whose witnesses are replayable: feeding a witness
structure back through `validate` reproduces the expected verdict.
Negative claims (a comparison fails to be faithful, composition fails to
be unital) are verified by exhibiting a concrete witness, so a suite
passes when its witnesses exist and validate as expected.  A report
depends on its bound alone, and its header's `seed` is always null.
"""

import random
from dataclasses import replace

from . import serialize
from .degenerate import (
    DegNatTrans,
    check_forgetful_equivalence,
    check_nat_trans,
    degenerate_sample,
    find_nonidentity_nat_trans,
    monoid_to_cat,
    cat_to_monoid,
    not_locally_full_witnesses,
)
from .doubly import (
    build_ddbicat,
    check_dd_transformation,
    check_ddbicat,
    check_modification,
    check_two_equivalence,
    compose_dd_functors,
    dd_functors_between,
    DDModification,
    eckmann_hilton_report,
    extract_cmon_die,
    forgetful_image,
    identity_dd_functor,
    random_tamper,
    restrict_identity_constraint,
    transformation_between,
    unfaithfulness_witness,
)
from .examples import (
    _stock,
    bool_or_monoid,
    discrete_monoidal,
    nand_pair,
    stock_monoidal_universe,
    zmod,
)
from .fincat import enumerate_functors, one_object_category
from .monoidal import (
    DegTransformation,
    check_deg_modification,
    check_deg_transformation,
    check_monoidal,
    check_monoidal_functor,
    check_shift_equivalence,
    compose_deg_transformations,
    compose_monoidal_transformations,
    DegModification,
    embed_monoidal_transformation,
    enumerate_monoidal_functors,
    enumerate_monoidal_transformations,
    identity_deg_transformation,
    identity_monoidal_functor,
    identity_monoidal_transformation,
    unit_distobj_closure_witness,
)
from .monoids import (
    cmon_die_universe,
    enumerate_monoids,
    hom_maps,
    identity_hom,
    make_cmon_die,
)
from . import coherence
from .report import InvalidStructureError, Report, StructuralError, exact, witness_item


def _valid_witness(obj, note=""):
    return witness_item(serialize.to_payload(obj), "valid", note)


def _invalid_witness(payload, note=""):
    return witness_item(payload, "invalid", note)


def suite_thm_dc(bound: int = 4) -> Report:
    """One-object categories are monoids; functors are homomorphisms; natural
    transformations are elements satisfying the two-sided naturality law."""
    report = Report("thm-dc", {"bound": bound, "seed": None})
    monoids = [m for n in range(1, bound + 1) for m in enumerate_monoids(n)]

    bad = next(
        (m for m in monoids if cat_to_monoid(monoid_to_cat(m)) != m),
        None,
    )
    report.add(
        "round-trip-bit-identical",
        bad is None,
        dimension=0,
        witness=None if bad is None else _valid_witness(bad),
        detail=f"{len(monoids)} monoids",
    )

    # functors between one-object categories, enumerated by fincat, keyed by
    # their arrow maps, against the homomorphisms of monoids
    sample = [(m, one_object_category(m)) for m in monoids[:12]]
    agree = all(
        {f.morphism_map for f in enumerate_functors(c, d)} == set(hom_maps(m, n))
        for m, c in sample
        for n, d in sample
    )
    report.add("functors-are-homomorphisms", agree, dimension=1)

    bad_nat = None
    for m in monoids:
        center = {
            d
            for d in range(m.size)
            if all(m.mul[d][x] == m.mul[x][d] for x in range(m.size))
        }
        ident = identity_hom(m)
        valid = {
            d
            for d in range(m.size)
            if check_nat_trans(DegNatTrans(ident, ident, d)).ok
        }
        if valid != center:
            bad_nat = m
            break
    report.add(
        "naturality-is-centrality",
        bad_nat is None,
        dimension=2,
        detail="valid components of id=>id coincide with the center, per monoid",
    )

    sample = make_cmon_die(zmod(2), 1)
    t = find_nonidentity_nat_trans(sample.monoid)
    report.add(
        "sample-transformation-validates",
        t is not None and check_nat_trans(t).ok,
        dimension=2,
        witness=None if t is None else _valid_witness(t),
    )
    return report


def suite_thm_dce(bound: int = 3) -> Report:
    """The object-forgetting comparison is an equivalence of categories, and
    its 2-dimensional extension fails to be locally full."""
    report = Report("thm-dce", {"bound": bound, "seed": None})
    sample = degenerate_sample(bound)
    report.findings += check_forgetful_equivalence(sample).findings

    witnesses = not_locally_full_witnesses(bound)
    # with no witness in the bound the extension is locally full there
    report.add(
        "two-dimensional-extension-not-locally-full",
        bool(witnesses)
        and all(
            check_nat_trans(t).ok and t.component != t.target_functor.target.unit
            for t in witnesses
        ),
        dimension=2,
        witness=(
            _valid_witness(witnesses[0], "non-identity component on the identity functor")
            if witnesses
            else None
        ),
        detail="every commutative monoid with >1 element carries a non-identity transformation"
        if witnesses
        else f"no commutative monoid of size <= {bound} has >1 element, so no witness",
    )
    return report


# random single-value tamperings that `suite_thm_vdb` applies and expects caught
_TAMPERS = 200


def suite_thm_vdb(bound: int = 4) -> Report:
    """One-1-cell bicategories collapse to commutative monoids with a
    distinguished invertible element; the reduced functor, transformation,
    and modification layers behave as forced."""
    report = Report("thm-vdb", {"bound": bound, "seed": None})
    dies = cmon_die_universe(bound)
    bicats = [build_ddbicat(s) for s in dies]

    all_ok = True
    first = None
    for s, b in zip(dies, bicats):
        # the extraction is the one axiom check of each fresh instance
        try:
            extracted = extract_cmon_die(b)
        except InvalidStructureError:
            all_ok = False
            break
        if not eckmann_hilton_report(b).ok:
            all_ok = False
            break
        if b != build_ddbicat(serialize.structure_from_payload(serialize.to_payload(s))):
            all_ok = False
            break
        if extracted != s:
            all_ok = False
            break
        if first is None:
            first = _valid_witness(b)
    report.add(
        "collapse-and-round-trip",
        all_ok,
        dimension=0,
        witness=first,
        detail=f"{len(dies)} instances of size <= {bound}",
    )

    term_ok = True
    for b in bicats:
        if not coherence.pentagon_holds_by_terms(b) or not coherence.triangle_holds_by_terms(b):
            term_ok = False
            break
    report.add(
        "coherence-term-oracle-agreement",
        term_ok,
        dimension=0,
        detail="formal-composite evaluation matches the inline axiom equations",
    )

    small = [s for s in dies if s.monoid.size <= 3]
    # between[i][k]: the functors small[i] -> small[k]
    between = [[dd_functors_between(s, t) for t in small] for s in small]
    law_ok = True
    for row in between:
        for k, fs in enumerate(row):
            for gs, u in zip(between[k], small):
                for f in fs:
                    for g in gs:
                        comp = compose_dd_functors(g, f)
                        mul = u.monoid.mul
                        want = tuple(g.map[v] for v in f.map)
                        if comp.map != want or comp.m != mul[g.map[f.m]][g.m]:
                            law_ok = False
    report.add("composition-law", law_ok, dimension=1)

    uniq_ok = True
    for row in between:
        for fs in row:
            for f in fs:
                for g in fs:
                    tr = transformation_between(f, g)
                    expected = f.map == g.map
                    if (tr is not None) != expected:
                        uniq_ok = False
                    if tr is not None and not check_dd_transformation(tr).ok:
                        uniq_ok = False
    report.add("transformation-existence-iff-equal-homs", uniq_ok, dimension=2)

    target = make_cmon_die(bool_or_monoid(), 0)
    f = identity_dd_functor(target)
    tr = transformation_between(f, f)
    mods_ok = all(
        check_modification(DDModification(tr, gamma)).ok
        for gamma in range(target.monoid.size)
    )
    report.add(
        "modifications-are-arbitrary-elements",
        mods_ok,
        dimension=3,
        witness=_valid_witness(DDModification(tr, 1), "element without an inverse"),
    )

    rng = random.Random(0)
    caught = 0
    attempted = 0
    sample_witness = None
    multi = [b for b in bicats if b.cells >= 2]
    while attempted < _TAMPERS and multi:
        tampered, desc = random_tamper(rng.choice(multi), rng)
        attempted += 1
        if not check_ddbicat(tampered).ok or not eckmann_hilton_report(tampered).ok:
            caught += 1
            if sample_witness is None:
                sample_witness = _invalid_witness(serialize.to_payload(tampered), desc)
    report.add(
        "tampering-detected",
        attempted > 0 and caught == attempted,
        witness=sample_witness,
        detail=f"{caught}/{attempted} random single-value tamperings caught"
        if attempted
        else f"no instance of size <= {bound} has two cells to tamper with",
    )
    return report


def suite_thm_vdbe(bound: int = 3) -> Report:
    """The comparison to plain commutative monoids is an equivalence at the
    2-dimensional truncation and only there."""
    report = Report("thm-vdbe", {"bound": bound, "seed": None})
    report.findings += check_two_equivalence(bound).findings

    y = make_cmon_die(zmod(2), 0)
    for level, criterion, detail in (
        (1, "level-1-witness", "distinct functors, identical image"),
        (3, "level-3-witness", "distinct modifications, identical image"),
    ):
        pair = unfaithfulness_witness(level, y)
        ok = (
            pair is not None
            and forgetful_image(level, pair[0]) == forgetful_image(level, pair[1])
            and pair[0] != pair[1]
        )
        report.add(
            criterion,
            ok,
            dimension=level,
            witness=None if pair is None else [_valid_witness(w) for w in pair],
            detail=detail,
        )

    dies = cmon_die_universe(bound)
    functors = [f for s in dies for t in dies for f in dd_functors_between(s, t)]
    _, rrep = restrict_identity_constraint(functors, bound=bound)
    report.findings += rrep.findings
    return report


def suite_thm_db(bound: int = 4) -> Report:
    """Finite monoidal categories: axioms, the cocycle example, functors,
    transformations, and modifications."""
    report = Report("thm-db", {"bound": bound, "seed": None})
    universe = stock_monoidal_universe(bound)
    sc = _stock()[3]  # the stock sign category, which keeps its functor searches

    all_valid = all(check_monoidal(mc).ok for mc in universe)
    report.add(
        "stock-instances-valid",
        all_valid,
        dimension=0,
        witness=_valid_witness(sc, "nontrivial associator from a 3-cocycle"),
        detail=f"{len(universe)} stock instances",
    )

    import itertools as it

    oracle_ok = True
    for mc in universe:
        n = mc.base.n_objects
        for quad in it.product(range(n), repeat=4):
            if not coherence.pentagon_holds_by_terms(mc, dict(enumerate(quad))):
                oracle_ok = False
        for pair in it.product(range(n), repeat=2):
            if not coherence.triangle_holds_by_terms(mc, dict(enumerate(pair))):
                oracle_ok = False
    report.add("pentagon-triangle-oracle-agreement", oracle_ok, dimension=0)

    assoc = [[list(col) for col in plane] for plane in sc.assoc]
    assoc[0][1][1] ^= 1
    flipped = tuple(tuple(tuple(c) for c in p) for p in assoc)
    tampered = replace(sc, assoc=flipped, assoc_inv=flipped)
    trep = check_monoidal(tampered)
    pentagon_hits = [v.where for v in trep.grouped().get("pentagon", [])]
    report.add(
        "tampered-associator-detected",
        not trep.ok and bool(pentagon_hits),
        dimension=0,
        witness=_invalid_witness(
            serialize.to_payload(tampered), f"pentagon fails at {pentagon_hits}"
        ),
    )

    func_ok = all(
        check_monoidal_functor(identity_monoidal_functor(mc)).ok for mc in universe
    )
    sign_endos = enumerate_monoidal_functors(sc, sc)
    report.add(
        "identity-functors-valid",
        func_ok,
        dimension=1,
        detail=f"sign category carries {len(sign_endos)} monoidal self-functors",
    )

    trans_ok = True
    for mc in universe:
        ident = identity_monoidal_functor(mc)
        for oplax in (False, True):
            t = identity_deg_transformation(ident, oplax=oplax)
            if not check_deg_transformation(t).ok:
                trans_ok = False
    report.add("identity-transformations-valid", trans_ok, dimension=2)

    dz2 = discrete_monoidal(zmod(2))
    idf = identity_monoidal_functor(dz2)
    tg = DegTransformation(
        idf, idf, 1, tuple(dz2.base.identities[(x + 1) % 2] for x in range(2))
    )
    mod = DegModification(tg, tg, dz2.base.identities[1])
    report.add(
        "modification-square-checked",
        check_deg_transformation(tg).ok and check_deg_modification(mod).ok,
        dimension=3,
        witness=_valid_witness(mod),
    )
    return report


def suite_thm_moncat_xi(bound: int = 4) -> Report:
    """The dimension shift is an equivalence at the category level; two- and
    three-dimensional comparisons fail, each failure carried by a witness."""
    report = Report("thm-moncat-xi", {"bound": bound, "seed": None})
    universe = stock_monoidal_universe(bound)
    report.findings += check_shift_equivalence(universe, bound=bound).findings

    nand = nand_pair()
    t1, _, comp, closed = unit_distobj_closure_witness(nand)
    report.add(
        "unitality-failure",
        (not closed) and check_deg_transformation(comp).ok,
        dimension=2,
        witness=_valid_witness(
            comp,
            f"composite with the identity has distinguished object {comp.dist_obj}, "
            f"unit is {nand.unit_obj}",
        ),
        detail="composition of 2-cells is not strictly unital",
    )

    idn = identity_monoidal_functor(nand)
    fo, tob = idn.functor.object_map, nand.tensor_obj
    other = DegTransformation(
        idn,
        idn,
        1,
        tuple(nand.base.hom(tob[fo[x]][1], tob[1][fo[x]])[0] for x in range(2)),
    )
    left = compose_deg_transformations(compose_deg_transformations(other, other), t1)
    right = compose_deg_transformations(other, compose_deg_transformations(other, t1))
    report.add(
        "associativity-failure",
        left.dist_obj != right.dist_obj
        and check_deg_transformation(left).ok
        and check_deg_transformation(right).ok,
        dimension=2,
        witness=[_valid_witness(left), _valid_witness(right)],
        detail=f"bracketings give distinguished objects {left.dist_obj} vs {right.dist_obj}",
    )

    strict = discrete_monoidal(zmod(2))
    _, _, comp_strict, closed_strict = unit_distobj_closure_witness(strict)
    report.add(
        "strict-target-composition-agrees",
        closed_strict,
        dimension=2,
        detail="in a strict instance the same composite keeps the unit distinguished object",
    )

    embed_ok = True
    embed_witness = None
    for mc in universe:
        fs = enumerate_monoidal_functors(mc, mc)
        for f in fs:
            for g in fs:
                for mt in enumerate_monoidal_transformations(f, g):
                    e = embed_monoidal_transformation(mt)
                    if e.dist_obj != mc.unit_obj or not check_deg_transformation(e).ok:
                        embed_ok = False
                    elif embed_witness is None:
                        embed_witness = _valid_witness(e)
    report.add(
        "embedding-lands-on-unit-distinguished-object",
        embed_ok,
        dimension=2,
        witness=embed_witness,
    )

    dz2 = discrete_monoidal(zmod(2))
    idf = identity_monoidal_functor(dz2)
    outside = DegTransformation(
        idf,
        idf,
        1,
        tuple(dz2.base.identities[(x + 1) % 2] for x in range(2)),
        oplax=True,
    )
    no_iso = dz2.base.iso_between(1, dz2.unit_obj) is None
    report.add(
        "outside-essential-image",
        check_deg_transformation(outside).ok and no_iso,
        dimension=2,
        witness=_valid_witness(
            outside, "distinguished object not isomorphic to the unit"
        ),
        detail="not locally essentially surjective on 2-cells",
    )

    ids = identity_monoidal_functor(nand)
    mt = identity_monoidal_transformation(ids)
    e_comp = embed_monoidal_transformation(compose_monoidal_transformations(mt, mt))
    comp_e = compose_deg_transformations(
        embed_monoidal_transformation(mt), embed_monoidal_transformation(mt)
    )
    agree = (
        e_comp.dist_obj == comp_e.dist_obj and e_comp.components == comp_e.components
    )
    report.add(
        "embedding-composite-comparison",
        True,
        dimension=2,
        detail=(
            "embedding of a composite agrees with the composite of embeddings"
            if agree
            else "embedding of a composite differs from the composite of embeddings "
            f"(distinguished objects {e_comp.dist_obj} vs {comp_e.dist_obj}); reported, not asserted"
        ),
    )
    return report


SUITES = {
    "thm-dc": suite_thm_dc,
    "thm-dce": suite_thm_dce,
    "thm-vdb": suite_thm_vdb,
    "thm-vdbe": suite_thm_vdbe,
    "thm-db": suite_thm_db,
    "thm-moncat-xi": suite_thm_moncat_xi,
}


def run_suite(name: str, bound: int | None = None) -> Report:
    """Run suite `name` at `bound`, or at its own default bound when None.

    A bound that is not an exact int is refused (see `report.exact`), and
    so is a bound below 1: every universe would be empty, and a sweep
    over nothing would pass without testing anything.
    """
    if name not in SUITES:
        raise StructuralError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    if bound is None:
        return SUITES[name]()
    if exact(bound, "bound") < 1:
        raise StructuralError(f"suite bound {bound} is below 1: the universe would be empty")
    return SUITES[name](bound=bound)
