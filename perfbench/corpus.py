"""The replay corpus: a fixed pool of valid structures and seeded mutations.

The pool is built from the program's own constructors and covers all 17
JSON kinds.  It depends only on the program, never on the seed, so the
canonical bytes of every pool item can be pinned in `expected.json`.  The
seed picks which pool items go into a run's corpus and how each one is
mutated.  The exit code a mutated file must produce follows from the
README's contract alone:

    0  the verdict holds            (class "valid")
    1  an axiom is violated         (class "tamper")
    2  structural or input error    (classes "range", "key", "type_swap")
"""

import itertools
import json

from deglab import degenerate, doubly, examples, fincat, monads, monoidal, monoids, serialize

KINDS = (
    "monoid",
    "degenerate_category",
    "nat_trans",
    "ddbicat",
    "dd_functor",
    "dd_transformation",
    "dd_modification",
    "category",
    "moncat",
    "degenerate_bicat",
    "monoidal_functor",
    "monoidal_transformation",
    "deg_transformation",
    "deg_modification",
    "monad",
    "monad_functor",
    "monad_transformation",
)

EXPECTED_EXIT = {"valid": 0, "tamper": 1, "range": 2, "key": 2, "type_swap": 2}

# Share of each mutation class in a corpus, in files per 20.
CLASS_WEIGHTS = (("valid", 10), ("tamper", 2), ("range", 3), ("key", 2), ("type_swap", 3))

# Classes in which the program is known to break the README contract
# (ROADMAP item 4).  A mismatch in them counts as a failed op but does not
# make the run incorrect, so the benchmark shows these defects without
# refusing the program that has them.
#   type_swap  values pass through int(): a float, bool or numeric string
#              validates, a non-numeric string raises an uncaught TypeError
#   key        nested endpoint objects accept unknown keys, and a missing
#              nested key raises an uncaught KeyError
#   range      an out-of-range index in a nested endpoint raises an uncaught
#              IndexError, and one checked by the axiom checker gives exit 1
KNOWN_DEFECT_CLASSES = ("type_swap", "key", "range")

# Integer leaves that hold a count rather than an index into a table.
COUNT_KEYS = frozenset({"size", "cells", "n_objects", "one_cells"})

OUT_OF_RANGE = 97  # larger than every structure in the pool


def build_pool():
    """[(pool_id, structure)] for a fixed sample covering every kind."""
    pool = []

    def add(tag, objs):
        for i, obj in enumerate(objs):
            pool.append((f"{tag}/{i}", obj))

    small = [m for n in range(1, 5) for m in monoids.enumerate_monoids(n)]
    add("monoid", small)
    dies3 = monoids.cmon_die_universe(3)
    add("cmon_die", dies3)
    add("degenerate_category", [degenerate.monoid_to_cat(m) for m in small if m.size <= 3])
    nats = []
    for m in small:
        if m.size <= 3:
            ident = monoids.identity_hom(m)
            nats.extend(degenerate.nat_trans_between(ident, ident))
    add("nat_trans", nats)
    dies4 = monoids.cmon_die_universe(4)
    add("ddbicat", [doubly.build_ddbicat(s) for s in dies4])
    functors = [f for s in dies3 for t in dies3 for f in doubly.dd_functors_between(s, t)[:1]]
    add("dd_functor", functors)
    dies2 = monoids.cmon_die_universe(2)
    transformations = []
    for s in dies2:
        for t in dies2:
            fs = doubly.dd_functors_between(s, t)
            for f in fs:
                for g in fs:
                    tr = doubly.transformation_between(f, g)
                    if tr is not None:
                        transformations.append(tr)
    add("dd_transformation", transformations)
    add(
        "dd_modification",
        [
            doubly.DDModification(tr, gamma)
            for tr in transformations
            for gamma in range(tr.source_functor.target.monoid.size)
        ],
    )
    stock = examples.stock_monoidal_universe(4)
    cats = [examples.arrow_category()] + [mc.base for mc in stock]
    cats += [fincat.one_object_category(m) for m in small if m.size <= 3]
    add("category", cats)
    add("moncat", stock)
    add("degenerate_bicat", [monoidal.shift_to_bicat(mc) for mc in stock])
    mfs = [f for mc in stock for f in monoidal.enumerate_monoidal_functors(mc, mc)]
    add("monoidal_functor", mfs)
    mts = [
        t
        for mc in stock
        for f in monoidal.enumerate_monoidal_functors(mc, mc)
        for g in monoidal.enumerate_monoidal_functors(mc, mc)
        for t in monoidal.enumerate_monoidal_transformations(f, g)
    ]
    add("monoidal_transformation", mts)
    dts = [monoidal.embed_monoidal_transformation(t) for t in mts]
    dts += [monoidal.identity_deg_transformation(f, oplax) for f in mfs for oplax in (False, True)]
    add("deg_transformation", dts)
    add(
        "deg_modification",
        [
            monoidal.DegModification(t, t, t.source_functor.target.base.identities[t.dist_obj])
            for t in dts
        ],
    )
    bases = [examples.arrow_category()] + [fincat.one_object_category(m) for m in small if m.size <= 3]
    monad_list = [monads.identity_monad(c) for c in bases]
    add("monad", monad_list)
    mfuncs = [monads.identity_monad_functor(mo) for mo in monad_list]
    add("monad_functor", mfuncs)
    add(
        "monad_transformation",
        [monads.MonadFunctorTransformation(f, f, f.u.target.identities) for f in mfuncs],
    )
    return pool


def pool_texts(pool):
    """Canonical bytes of every pool item, as the program writes them."""
    return {pid: serialize.canonical_dumps(serialize.to_payload(obj)) for pid, obj in pool}


# -- mutations ------------------------------------------------------------------


def _leaves(node, path=()):
    """Paths to every int leaf (bools excluded) of a JSON tree."""
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _leaves(node[k], path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def _dicts(node, path=()):
    """Paths to every object of a JSON tree, the root included."""
    if isinstance(node, dict):
        yield path
        for k in sorted(node):
            yield from _dicts(node[k], path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _dicts(v, path + (i,))


def _get(node, path):
    for p in path:
        node = node[p]
    return node


def _set(node, path, value):
    _get(node, path[:-1])[path[-1]] = value


def _index_leaves(payload):
    return [p for p in _leaves(payload) if not any(k in COUNT_KEYS for k in p)]


def mutate(cls, payload, rng):
    """Apply one mutation of class `cls` in place; returns a one-line note."""
    if cls == "range":
        path = rng.choice(_index_leaves(payload))
        _set(payload, path, OUT_OF_RANGE)
        return f"{'/'.join(map(str, path))} -> {OUT_OF_RANGE}"
    if cls == "key":
        path = rng.choice(list(_dicts(payload)))
        target = _get(payload, path)
        if rng.random() < 0.5:
            key = rng.choice(sorted(target))
            del target[key]
            return f"drop {'/'.join(map(str, path + (key,)))}"
        target["extra"] = 0
        return f"add {'/'.join(map(str, path + ('extra',)))}"
    if cls == "type_swap":
        path = rng.choice(_index_leaves(payload))
        v = _get(payload, path)
        new = rng.choice((float(v), v != 0, str(v)))
        _set(payload, path, new)
        return f"{'/'.join(map(str, path))} -> {json.dumps(new)}"
    raise ValueError(f"no mutation for class {cls!r}")


def _flipped_sign_category(rng):
    # The associator is the 3-cocycle (-1)^(xyz), non-trivial only at
    # (1, 1, 1); flipping it there gives the trivial cocycle, which is
    # valid, so only the other seven triples are tampered.
    payload = serialize.to_payload(examples.sign_category())
    a, b, c = rng.choice([t for t in itertools.product(range(2), repeat=3) if t != (1, 1, 1)])
    for key in ("assoc", "assoc_inv"):
        payload[key][a][b][c] ^= 1
    return payload, f"assoc[{a}][{b}][{c}] flipped"


def make_corpus(pool, texts, count, rng):
    """`count` corpus entries: (class, pool_id, text, note).

    Class counts are fixed by CLASS_WEIGHTS; the seed only chooses pool
    items, mutation sites and the order of entries.
    """
    total = sum(w for _, w in CLASS_WEIGHTS)
    classes = [c for c, w in CLASS_WEIGHTS for _ in range(count * w // total)]
    classes += ["valid"] * (count - len(classes))
    rng.shuffle(classes)
    tamperable = [(pid, obj) for pid, obj in pool if pid.startswith("ddbicat/") and obj.cells >= 2]
    entries = []
    for cls in classes:
        if cls == "tamper":
            if rng.random() < 0.75:
                pid, b = rng.choice(tamperable)
                tampered, note = doubly.random_tamper(b, rng)
                payload = serialize.to_payload(tampered)
            else:
                pid = "sign_category"
                payload, note = _flipped_sign_category(rng)
            entries.append((cls, pid, json.dumps(payload, sort_keys=True), note))
            continue
        pid, _ = rng.choice(pool)
        if cls == "valid":
            entries.append((cls, pid, texts[pid], ""))
            continue
        payload = json.loads(texts[pid])
        note = mutate(cls, payload, rng)
        entries.append((cls, pid, json.dumps(payload, sort_keys=True), note))
    return entries
