"""The exhaustive sweeps behind CI, each defined once with its pins.

    PYTHONPATH=src python tests/sweeps.py NAME SIZE

runs sweep NAME at SIZE and prints what it counted, its wall time and its
peak RSS: the larger of this process's and its children's, so a gate
holds whichever did the work.  It exits 0 when the result is the pin of
SIZE and the peak RSS is within that size's gate, 1 on any mismatch, and
2 on a NAME or SIZE that `SWEEPS` does not list.  The smallest size of
each sweep runs in tier-1 (`tests/test_sweeps.py`); every other size is
one step of `.github/workflows/tier1.yml`.
"""

import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time

from deglab import doubly, monoids
from deglab.degenerate import degenerate_sample, forgetful_universe
from deglab.doubly import (
    DDBicat,
    _first_miscounted_pair,
    analyze_weak_functor,
    build_ddbicat,
    check_ddbicat,
    eckmann_hilton_report,
    extract_cmon_die,
    restrict_identity_constraint,
    two_truncation_universe,
)
from deglab.equivalence import (
    JFunctor,
    check_external_equivalence,
    check_jcategory,
    check_jfunctor,
    hom_indexed_category,
)
from deglab.examples import arrow_category, stock_monoidal_universe
from deglab.fincat import (
    CatFunctor,
    FiniteCategory,
    compose_functors,
    enumerate_functors,
    identity_functor,
    one_object_category,
)
from deglab.monoidal import shift_universe
from deglab.monoids import cmon_die_universe, enumerate_monoids, hom_maps, invert, units
from samples import product_square
from walks import first_miscounted_pair, walk_differences


def _deglab(size, *args) -> tuple:
    """The JSON output of `python -m deglab --format json ARGS`, run as a
    child process with DEGLAB_MAX_SIZE=size, and the output's SHA-256."""
    import hashlib  # here: its OpenSSL adds ~3 MB to an in-process sweep's peak RSS
    env = dict(os.environ, DEGLAB_MAX_SIZE=str(size))
    cmd = [sys.executable, "-m", "deglab", "--format", "json", *args]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, check=False).stdout
    return json.loads(out), hashlib.sha256(out).hexdigest()


def enumerated(*flags):
    """`deglab enumerate --size SIZE FLAGS`: (count, SHA-256)."""
    def sweep(size):
        payload, digest = _deglab(size, "enumerate", "--size", str(size), *flags)
        return payload["count"], digest
    return sweep


def suite(name):
    """`deglab suite NAME --bound SIZE`: (verdict, SHA-256)."""
    def sweep(bound):
        payload, digest = _deglab(bound, "suite", name, "--bound", str(bound))
        return payload["verdict"], digest
    return sweep


def hom_maps_oracle(size) -> tuple:
    """`hom_maps` on every ordered pair of monoids of size <= SIZE against
    an independent oracle: the arrow maps of `fincat.enumerate_functors`
    between the one-object categories, sorted.  `hom_maps` is read through
    its module, so a patched one is the one compared.  Returns (pairs,
    maps, disagreeing pairs)."""
    ms = [m for n in range(1, size + 1) for m in enumerate_monoids(n)]
    cats = [one_object_category(m) for m in ms]
    pairs = maps = disagreements = 0
    for a, ca in zip(ms, cats):
        for b, cb in zip(ms, cats):
            got = monoids.hom_maps(a, b)
            want = tuple(sorted(f.morphism_map for f in enumerate_functors(ca, cb)))
            pairs, maps, disagreements = pairs + 1, maps + len(got), disagreements + (got != want)
    return pairs, maps, disagreements


def raw_functors(bound: int) -> tuple:
    """Functors of doubly degenerate bicategories from raw weak-functor data.

    For each ordered pair (s, t) of `cmon_die_universe(bound)`, every arrow
    map between the one-object categories from the fincat oracle
    (`enumerate_functors`, sorted; not `hom_maps`, not the intern table) is
    paired with every (m2, m0) in t and reduced by `analyze_weak_functor`
    on the `build_ddbicat` images.  The accepted (map, m, m0) are compared
    with those of `doubly.dd_functors_between(s, t)`, read through the
    module at call time, so a patched enumeration is the one compared.
    Returns (candidates, accepted functors, disagreeing pairs)."""
    dies = cmon_die_universe(bound)
    sides = [(s, build_ddbicat(s), one_object_category(s.monoid)) for s in dies]
    candidates = functors = disagreeing = 0
    for s, b1, c in sides:
        for t, b2, d in sides:
            elements = range(t.monoid.size)
            accepted = []
            for hmap in sorted(f.morphism_map for f in enumerate_functors(c, d)):
                for m2, m0 in itertools.product(elements, repeat=2):
                    candidates += 1
                    f, _ = analyze_weak_functor(b1, b2, hmap, m2, m0)
                    if f is not None:
                        accepted.append((f.map, f.m, f.m0))
            want = sorted((f.map, f.m, f.m0) for f in doubly.dd_functors_between(s, t))
            functors += len(accepted)
            disagreeing += sorted(accepted) != want
    return candidates, functors, disagreeing


def restrict(bound) -> tuple:
    """The identity-constraint restriction over every reduced functor
    between the instances of size <= bound: (functors, retained, ok)."""
    dies = cmon_die_universe(bound)
    fs = [f for s in dies for t in dies for f in doubly.dd_functors_between(s, t)]
    retained, rep = restrict_identity_constraint(fs, bound=bound)
    return len(fs), len(retained), rep.ok


def law_checks(bound) -> tuple:
    """Both sides of three comparisons are categories and each comparison
    a functor: the forgetful one at sizes <= 3, the shift at bound 4 and
    the two-truncation at `bound`.  Returns the checks that fail."""
    comparisons = [
        ("forgetful <=3", forgetful_universe(degenerate_sample(3))[3]),
        ("shift 4", shift_universe(stock_monoidal_universe(4))[1]),
        (f"two-truncation {bound}", two_truncation_universe(bound)[3]),
    ]
    checks = [
        (f"{name} {part}", rep)
        for name, fun in comparisons
        for part, rep in [
            ("source", check_jcategory(fun.source)),
            ("target", check_jcategory(fun.target)),
            ("functor", check_jfunctor(fun)),
        ]
    ]
    return tuple(name for name, rep in checks if not rep.ok)


def equivalence_walks(bound) -> tuple:
    """The hom-set walks of `check_external_equivalence` and the 2-cell
    count of `check_two_equivalence` against the pairwise references in
    `tests/walks.py`, on the two-truncation universe at `bound` and the
    forgetful one over sizes <= `bound`.  Returns the cases that differ,
    with their differences in findings or witnesses."""
    _, one_cells, _, two = two_truncation_universe(bound)
    want = first_miscounted_pair(one_cells, two.source)
    got = _first_miscounted_pair(one_cells, two.source)
    cases = [
        (f"forgetful <={bound}", walk_differences(forgetful_universe(degenerate_sample(bound))[3])),
        (f"two-truncation {bound}", walk_differences(two)),
        (f"two-truncation {bound} 2-cell counts", [] if want == got else [(want, got)]),
    ]
    return tuple((name, diffs) for name, diffs in cases if diffs)


def raw_collapse(n: int) -> tuple:
    """Raw one-1-cell bicategory data over the order-n monoid classes.

    Interchange plus hcomp-identity make hcomp a monoid homomorphism
    M x M -> M, where M is the vertical monoid, so each class
    representative M is paired with every hcomp map from `hom_maps` (not
    from the collapse) and every unit triple (assoc, lunit, runit) with
    its inverses.  Returns the hcomp candidates, the structures, the valid
    ones, those a checker blind to `lunit-naturality` would admit, and
    whether every valid one collapses: hcomp is vcomp, Eckmann-Hilton
    holds, and it is the built instance of its extracted die."""
    candidates = structures = blind = 0
    valid = []  # only these are kept; every other structure is counted and dropped
    for m in enumerate_monoids(n):
        triples = list(itertools.product(units(m), repeat=3))
        for h in hom_maps(product_square(m), m):
            candidates += 1
            hcomp = tuple(tuple(h[x * n + y] for y in range(n)) for x in range(n))
            for a, l, r in triples:
                b = DDBicat(n, m.unit, m.mul, hcomp, a, invert(m, a), l, invert(m, l), r, invert(m, r))
                rep = check_ddbicat(b)
                structures += 1
                blind += rep.well_formed and set(rep.grouped()) <= {"lunit-naturality"}
                if rep.ok:
                    valid.append(b)
    collapsed = all(
        b.hcomp == b.vcomp and eckmann_hilton_report(b).ok and b == build_ddbicat(extract_cmon_die(b))
        for b in valid
    )
    return candidates, structures, len(valid), blind, collapsed


def _cycle_types(n: int, largest: int | None = None):
    """The partitions of n, each with its parts in descending order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - part, part):
            yield (part, *rest)


def _differ(u, v) -> bool:
    """Two products, both known and not equal."""
    return u is not None and v is not None and u != v


def _fixed_tables(n: int, p: list, commutative: bool) -> int:
    """The unit-0 associative tables on range(n), commutative if asked,
    that the relabeling p (p[0] == 0) maps to themselves.

    Such a table is one value per p-orbit of non-unit cells: v at the
    orbit's first cell puts p^k(v) at the cell k steps on, and is allowed
    when p^L(v) == v for an orbit of L steps.  The orbits are placed in
    order, and after each placement only the associativity triples that
    read one of its cells are checked, the triples that read a cell as a
    product found through the cells holding each value."""
    cycles = []  # cycles[v]: v, p(v), p(p(v)), ... up to v again
    for v in range(n):
        cycle = [v]
        while p[cycle[-1]] != v:
            cycle.append(p[cycle[-1]])
        cycles.append(cycle)
    choices, seen = [], set()  # per orbit, the writes of each allowed value
    for a in range(1, n):
        for b in range(1, n):
            steps = []
            while (a, b) not in seen:
                step = {(a, b), (b, a)} if commutative else {(a, b)}
                seen |= step
                steps.append(step)
                a, b = p[a], p[b]
            if steps:
                choices.append([
                    [(c, cycles[v][k % len(cycles[v])]) for k, step in enumerate(steps) for c in step]
                    for v in range(n)
                    if len(steps) % len(cycles[v]) == 0
                ])
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = t[x][0] = x
    holding = [[] for _ in range(n)]  # the non-unit cells holding each value

    def associative(cells) -> bool:
        # triples of non-unit elements with all four products known, among
        # those that read one of `cells`; a triple with the unit holds
        for a, b in cells:
            x, ta, tb = t[a][b], t[a], t[b]
            for c in range(1, n):
                y = tb[c]  # (ab)c = a(bc)
                if y is not None and _differ(t[x][c], ta[y]):
                    return False
                y = t[c][a]  # (ca)b = c(ab)
                if y is not None and _differ(t[y][b], t[c][x]):
                    return False
            for a2, b2 in holding[a]:  # (a2 b2)b = a2(b2 b), where a2 b2 = a
                y = t[b2][b]
                if y is not None and _differ(x, t[a2][y]):
                    return False
            for b2, c2 in holding[b]:  # a(b2 c2) = (a b2)c2, where b2 c2 = b
                y = ta[b2]
                if y is not None and _differ(x, t[y][c2]):
                    return False
        return True

    def count(i: int) -> int:
        if i == len(choices):
            return 1
        found = 0
        for writes in choices[i]:
            for (a, b), v in writes:
                t[a][b] = v
                holding[v].append((a, b))
            if associative([cell for cell, _ in writes]):
                found += count(i + 1)
            for (a, b), v in writes:
                t[a][b] = None
                holding[v].pop()
        return found

    return count(0)


def orbit_count(commutative: bool):
    """Monoid classes of order SIZE by the Cauchy-Frobenius lemma (Kerber,
    "Applied Finite Group Actions", 1999), with nothing from
    `deglab.monoids`: every class has a table with unit 0, and two such
    tables are isomorphic exactly when a relabeling that fixes 0 maps one
    to the other, so the classes are the average number of tables each
    such relabeling fixes.  That number depends only on the relabeling's
    cycle type, so each type is searched once, weighted by the (n-1)!/z
    relabelings that have it."""
    def sweep(n):
        total = 0
        for shape in _cycle_types(n - 1):
            p = [0]
            for part in shape:  # one cycle per part, on the next labels
                p += [len(p) + (i + 1) % part for i in range(part)]
            z = math.prod(shape) * math.prod(math.factorial(shape.count(k)) for k in set(shape))
            total += math.factorial(n - 1) // z * _fixed_tables(n, p, commutative)
        return total // math.factorial(n - 1)
    return sweep


def _discrete(n: int) -> FiniteCategory:
    """n objects and their identities only."""
    comp = tuple(tuple(g if g == f else None for f in range(n)) for g in range(n))
    return FiniteCategory(n, tuple((a, a) for a in range(n)), tuple(range(n)), comp)


def _codiscrete(n: int) -> FiniteCategory:
    """n objects and one arrow a -> b, numbered a * n + b, for each pair."""
    arrows = tuple(itertools.product(range(n), repeat=2))
    comp = tuple(tuple(sf * n + tg if tf == sg else None for sf, tf in arrows) for sg, tg in arrows)
    return FiniteCategory(n, arrows, tuple(a * n + a for a in range(n)), comp)


def _j1_view(c: FiniteCategory) -> tuple:
    """`c` as a 1-category of `hom_indexed_category`, each hom-set the
    arrows with those ends: (category, one_cell, the arrow of each 1-cell)."""
    homs = {(a, b): c.hom(a, b) for a in range(c.n_objects) for b in range(c.n_objects)}
    labels = tuple(map(str, range(c.n_objects)))
    x, one_cell = hom_indexed_category(labels, homs, compose=c.compose, identity=c.identities.__getitem__)
    return x, one_cell, list(itertools.chain.from_iterable(homs.values()))


def _naturally_isomorphic(f: CatFunctor, g: CatFunctor) -> bool:
    """Some natural transformation f => g has every component an
    isomorphism: a search over every choice of components, with
    naturality checked at every arrow of the source."""
    c, d = f.source, f.target
    isos = [
        [a for a in d.hom(f.object_map[x], g.object_map[x]) if d.inverse(a) is not None]
        for x in range(c.n_objects)
    ]
    fm, gm = f.morphism_map, g.morphism_map
    return any(
        all(d.comp[gm[h]][alpha[s]] == d.comp[alpha[t]][fm[h]] for h, (s, t) in enumerate(c.morphisms))
        for alpha in itertools.product(*isos)
    )


def definition(size) -> tuple:
    """ROADMAP item 26 at j = 1: `check_external_equivalence` against the
    definition of an equivalence of categories.

    The categories are the one-object categories of the monoids of order
    <= SIZE, the arrow category, and the discrete and the codiscrete
    category on 2 and on 3 objects.  For every functor F between two of
    them, from the naive `fincat.enumerate_functors`, the checker's
    verdict on their j = 1 views (`_j1_view`, map1 through the target's
    `one_cell`) must equal a brute-force search for a functor G back with
    natural isomorphisms 1 => GF and FG => 1.  The checker's criterion is
    a theorem, not the definition (Johnson and Yau, "2-Dimensional
    Categories", 2021), so this checks it without walking that criterion
    again, as `tests/walks.py` does.  Returns (functors, equivalences,
    disagreements)."""
    cats = [one_object_category(m) for n in range(1, size + 1) for m in enumerate_monoids(n)]
    cats += [arrow_category(), _discrete(2), _codiscrete(2), _discrete(3), _codiscrete(3)]
    views = list(map(_j1_view, cats))
    functors = {(a, b): enumerate_functors(c, d) for a, c in enumerate(cats) for b, d in enumerate(cats)}
    total = equivalences = disagreements = 0
    for (a, b), fs in functors.items():
        (x, _, arrows), (y, one_cell, _) = views[a], views[b]
        source, target = identity_functor(cats[a]), identity_functor(cats[b])
        for f in fs:
            om, mm = f.object_map, f.morphism_map
            map1 = tuple(one_cell(om[s], om[t], mm[h]) for h, (s, t) in zip(arrows, x.cells[0]))
            verdict = check_external_equivalence(JFunctor(x, y, om, map1)).ok
            equivalence = any(
                _naturally_isomorphic(source, compose_functors(g, f))
                and _naturally_isomorphic(compose_functors(f, g), target)
                for g in functors[b, a]
            )
            total, equivalences = total + 1, equivalences + equivalence
            disagreements += verdict != equivalence
    return total, equivalences, disagreements


# NAME: (sweep, {SIZE: (result, peak-RSS gate in MB or None)}).  The
# figures below are one run each on a shared 2-vCPU VM, Python 3.11.7.
SWEEPS = {
    # OEIS A058129; tier-1 also counts the commutative order-6 classes.
    # The SHA-256 of each full JSON output is the ROADMAP pin: the
    # representatives must stay byte-identical, not only their number.
    "enumerate": (enumerated(), {
        5: ((228, "825413da449482a62816796821122ea53fe72b5fb9c2e152c9654bf068ebd660"), None),
        6: ((2237, "c0bc8e9150408b459249b1bdf5412102a2051f5a6129f80bb8e4c4b0ee09f8af"), None),
        # ROADMAP item 5's order-7 target (29.4 s and 99.4 MB, most of it
        # the search); peak RSS at most 120 MB
        7: ((31559, "2fa0fbafdb090275965d903211a12449a7460a9e302e73439998ec2ca05f7838"), 120),
    }),
    # OEIS A058131
    "enumerate-commutative": (enumerated("--commutative"), {
        5: ((78, "6258c422fd7c2766d27fdc52cb4959d14ff1ec786545badd4aef224fe5856af4"), None),
        6: ((421, "29a1fbec51bb329b744b3a049161db09f0f5e6775338c30275b0f4e8f021d75c"), None),
        7: ((2637, "10604ab207934fb9ffa2db17f63465fdb7b9d7b00a72138183cb515ce628e163"), None),
    }),
    # ROADMAP item 24: the class counts of `enumerate` and
    # `enumerate-commutative`, counted without canonical forms (plain
    # order 5 in 0.3 s, commutative order 6 in 1.5 s).  Plain order 6 and
    # commutative order 7 wait for a faster identity term.
    "orbit-count": (orbit_count(False), {4: (35, None), 5: (228, None)}),
    "orbit-count-commutative": (orbit_count(True), {5: (78, None), 6: (421, None)}),
    # the doubly degenerate comparison; bound 4 is the one the north star
    # names, bound 5 that of ROADMAP items 17 and 19.  Peak RSS at bound 5
    # must stay at most 250 MB, so neither a per-1-cell index, a
    # per-hom-set copy of the hom maps, nor a per-functor homomorphism
    # object can quietly come back (3.6-3.7 s and 190.2 MB, with the
    # universe's 1-cells their own keys, map1 read off the enumeration,
    # and functor objects built for the restriction only).
    "thm-vdbe": (suite("thm-vdbe"), {
        3: (("pass", "8ebf9c16ecbb67f9604fa99b42c435681130f8f307727baa9acdcc7e04edf6af"), None),
        4: (("pass", "cca80ec85997ff8109513672e7281621cfba60aa108c144d42d74a99769938a3"), None),
        5: (("pass", "895c3904477007121186f90b69c415de275b0a0887de3bad91de09eb66d8c2e7"), 250),
    }),
    # the object-forgetting comparison over every monoid of size <= 5,
    # 613,610 1-cells per side; peak RSS at most 200 MB (1.5 s and 107.9
    # MB, map1 read off the enumeration), which leaves room for an
    # independent hom-set oracle (ROADMAP item 1)
    "thm-dce": (suite("thm-dce"), {
        3: (("pass", "2e484cc2b66da55145044afbea506b4e0ba108c8e3d00c807e65dc527f5b6a3d"), None),
        5: (("pass", "9145bcb100eb52c20c737af7cd7537b442e69b47391d6cfbb66eea37ed392d9c"), 200),
    }),
    # any disagreement fails, and the maps must number 613,610 at size 5;
    # almost all of its 23 s is the oracle
    "hom-maps-oracle": (hom_maps_oracle, {
        4: ((2025, 7894, 0), None),
        5: ((74529, 613610, 0), None),
    }),
    # ROADMAP item 18: 22,801 ordered pairs of dies at bound 5 (44.5 s)
    "raw-functors": (raw_functors, {
        3: ((1729, 416, 0), None),
        5: ((2708760, 191455, 0), None),
    }),
    # closure is checked once per class of composable pairs, so most of the
    # time is building the functors (the thm-vdbe suite at bound 5 builds
    # them once for both comparisons).  Peak RSS at most 100 MB, so neither
    # a per-functor cache nor a per-functor homomorphism object can quietly
    # grow the universe (1.6 s and 79.3 MB).
    "restrict": (restrict, {
        3: ((416, 230, True), None),
        5: ((191455, 117623, True), 100),
    }),
    # 7.2 s at bound 3, most of it the two-truncation source (896 2-cells,
    # 77,060 horizontal pairs)
    "law-checks": (law_checks, {2: ((), None), 3: ((), None)}),
    "equivalence-walks": (equivalence_walks, {3: ((), None), 4: ((), None)}),
    # ROADMAP item 26 at j = 1: 15 categories at size 3 and 50 at size 4
    # (0.1 s and 1.0 s)
    "definition": (definition, {3: ((589, 77, 0), None), 4: ((9067, 140, 0), None)}),
    # one valid structure per (commutative monoid, die): 8 at n = 3 and 31
    # at n = 4, from the 7 and 35 monoid classes of those orders; a checker
    # that ignored lunit-naturality would admit 35 and 298 structures.
    # Peak RSS at n = 4 at most 40 MB, so the sweep keeps counting as it
    # goes: holding all 21,491 structures and their reports took 195.3 MB
    # (2.1 s and 18.9 MB)
    "raw-collapse": (raw_collapse, {
        3: ((94, 391, 8, 35, True), None),
        4: ((2329, 21491, 31, 298, True), 40),
    }),
}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in SWEEPS or argv[1] not in map(str, SWEEPS[argv[0]][1]):
        sizes = "; ".join(f"{name} {'|'.join(map(str, pins))}" for name, (_, pins) in SWEEPS.items())
        print(f"usage: sweeps.py NAME SIZE, one of: {sizes}", file=sys.stderr)
        return 2
    name, size = argv[0], int(argv[1])
    sweep, pins = SWEEPS[name]
    want, max_mb = pins[size]
    start = time.perf_counter()
    got = sweep(size)
    wall = time.perf_counter() - start
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    rss_mb = max(resource.getrusage(w).ru_maxrss for w in who) / 1024
    print(name, size, got if got == want else f"{got}, expected {want}")
    print(f"wall {wall:.1f} s, peak RSS {rss_mb:.1f} MB" + (f" (bound {max_mb} MB)" if max_mb else ""))
    return 0 if got == want and (max_mb is None or rss_mb <= max_mb) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
