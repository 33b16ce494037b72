"""The four workloads, each a list of ops run one after another.

An op has a `run` callable, which is the timed call into the program, and
a `check` callable, which is untimed and turns the result into
(oracle_ok, digest).  When an op carries a `pin`, its digest must equal
the SHA-256 pinned under that key in `expected.json`.  Ops look up every
program function through its module at call time, so the tracer's patches
take effect.

The seed only reorders ops (and, for `replay`, picks corpus entries), so
every seed does the same amount of work.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from deglab import (
    cli,
    degenerate,
    doubly,
    examples,
    monoidal,
    monoids,
    serialize,
    suites,
)

import corpus

WORKLOADS = ("enumerate", "functor-algebra", "universes", "replay")

# Monoids and commutative monoids of order n up to isomorphism:
# OEIS A058129 and A058131, an oracle independent of the program.
OEIS_MONOIDS = {0: 0, 1: 1, 2: 2, 3: 7, 4: 35, 5: 228}
OEIS_COMMUTATIVE = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}

CORPUS_FILES = 2000  # validate ops per replay pass
WRITE_OPS = 300
SHIFT_OPS_PER_PAIR = 20
SHIFT_PAIRS = (
    ("ddbicat/", "--to-cmon", "--to-ddbicat"),
    ("moncat/", "--to-degbicat", "--to-moncat"),
    ("monoid/", "--to-category", "--to-monoid"),
)


@dataclass
class Op:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    pin: str | None = None
    cls: str = ""


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def cli_call(argv):
    """`deglab <argv>` in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_check(report):
    return report.ok, digest_of(report.to_payload())


# -- enumerate ----------------------------------------------------------------


def enumerate_ops(rng):
    # Size 0 (no monoid is empty) makes 11 op types, so the median latency
    # falls inside one group of ops instead of between two.
    ops = []
    for n, comm in [(0, False)] + [(n, c) for n in range(1, 6) for c in (False, True)]:
        argv = ["--format", "json", "enumerate", "--size", str(n)]
        if comm:
            argv.append("--commutative")
        want = (OEIS_COMMUTATIVE if comm else OEIS_MONOIDS)[n]

        def check(res, want=want):
            code, text = res
            payload = json.loads(text) if code == 0 else {}
            ok = code == 0 and payload["count"] == want == len(payload["items"])
            return ok, sha(text)

        op_id = f"enumerate:{n}:{'comm' if comm else 'plain'}"
        ops.append(Op(op_id, lambda argv=argv: cli_call(argv), check, pin=op_id))
    rng.shuffle(ops)
    return ops


# -- functor-algebra ----------------------------------------------------------


def _invertible(mul, unit, x):
    return any(mul[x][y] == unit and mul[y][x] == unit for y in range(len(mul)))


def functor_algebra_ops(rng):
    state = {}

    def universe3():
        dies = monoids.cmon_die_universe(3)
        state["dies"] = dies
        state["functors"] = {
            (i, k): doubly.dd_functors_between(s, t)
            for i, s in enumerate(dies)
            for k, t in enumerate(dies)
        }
        return [[len(fs) for fs in state["functors"].values()]]

    def universe4():
        dies = monoids.cmon_die_universe(4)
        state["dies4"] = dies
        state["builds"] = [doubly.build_ddbicat(s) for s in dies]
        return [len(dies)]

    def law(i, k):
        # criterion 03: the composite of (F, m_F) then (G, m_G) is (GF, G(m_F) m_G),
        # and the identities are two-sided units
        dies, functors = state["dies"], state["functors"]
        ident_s = doubly.identity_dd_functor(dies[i])
        ident_t = doubly.identity_dd_functor(dies[k])
        comps = []
        for f in functors[(i, k)]:
            units = (
                doubly.compose_dd_functors(ident_t, f) == f
                and doubly.compose_dd_functors(f, ident_s) == f
            )
            for l in range(len(dies)):
                for g in functors[(k, l)]:
                    c = doubly.compose_dd_functors(g, f)
                    comps.append((f, g, l, c))
            comps.append(units)
        return comps

    def law_check(res):
        dies = state["dies"]
        ok = True
        rows = []
        for item in res:
            if isinstance(item, bool):
                ok = ok and item
                continue
            f, g, l, c = item
            mul = dies[l].monoid.mul
            want_map = tuple(g.hom_map.map[v] for v in f.hom_map.map)
            want_m = mul[g.hom_map.map[f.m]][g.m]
            ok = ok and c.hom_map.map == want_map and c.m == want_m
            rows.append([list(c.hom_map.map), c.m, c.m0])
        return ok, digest_of(rows)

    def assoc(i, k):
        # criterion 03: strict associativity over every composable triple from i
        dies, functors = state["dies"], state["functors"]
        n = len(dies)
        triples = bad = 0
        compose = doubly.compose_dd_functors
        for l in range(n):
            for p in range(n):
                for f in functors[(i, k)]:
                    for g in functors[(k, l)]:
                        for h in functors[(l, p)]:
                            triples += 1
                            if compose(h, compose(g, f)) != compose(compose(h, g), f):
                                bad += 1
        return triples, bad

    def promote(si, ti):
        # criterion 04: every lax datum satisfying the unit equation promotes
        s, t = state["dies4"][si], state["dies4"][ti]
        b1, b2 = state["builds"][si], state["builds"][ti]
        mul = t.monoid.mul
        out = []
        for hom in monoids.enumerate_homs(s.monoid, t.monoid):
            fd = hom.map[s.die]
            for m2 in range(t.monoid.size):
                for m0 in range(t.monoid.size):
                    if t.die != mul[fd][mul[m2][m0]]:
                        continue
                    f = doubly.promote_lax(b1, b2, hom.map, m2, m0)
                    out.append((hom.map, f.m, f.m0))
        return si, ti, out

    def promote_check(res):
        si, ti, out = res
        t = state["dies4"][ti].monoid
        ok = all(
            _invertible(t.mul, t.unit, m) and _invertible(t.mul, t.unit, m0) for _, m, m0 in out
        )
        return ok, digest_of([[list(h), m, m0] for h, m, m0 in out])

    body = []
    for i in range(12):
        for k in range(12):
            body.append(Op(f"law:{i}:{k}", lambda i=i, k=k: law(i, k), law_check, pin=f"law:{i}:{k}"))
            body.append(
                Op(
                    f"assoc:{i}:{k}",
                    lambda i=i, k=k: assoc(i, k),
                    lambda r: (r[1] == 0, digest_of(list(r))),
                    pin=f"assoc:{i}:{k}",
                )
            )
    for si in range(43):
        for ti in range(43):
            body.append(
                Op(
                    f"promote:{si}:{ti}",
                    lambda si=si, ti=ti: promote(si, ti),
                    promote_check,
                    pin=f"promote:{si}:{ti}",
                )
            )
    rng.shuffle(body)
    head = [
        Op("universe:3", universe3, lambda r: (len(state["dies"]) == 12, digest_of(r)), pin="universe:3"),
        Op("universe:4", universe4, lambda r: (r == [43], digest_of(r)), pin="universe:4"),
    ]
    return head + body


# -- universes ----------------------------------------------------------------


def universes_ops(rng):
    # Besides the loads at bounds 3 and 4, the cheaper bounds give 17 op
    # types, so the median latency falls in the middle of a group of ops of
    # like cost (about 15 ms) rather than at its edge.
    def sample(n):
        cats = [degenerate.monoid_to_cat(m) for m in monoids.enumerate_monoids(n)]
        return [[list(r) for r in c.hom.mul] + [c.hom.unit] for c in cats]

    def forgetful(bound):
        cats = [degenerate.monoid_to_cat(m) for n in range(1, bound + 1) for m in monoids.enumerate_monoids(n)]
        return degenerate.check_forgetful_equivalence(cats)

    def dies(bound):
        return [[list(map(list, s.monoid.mul)), s.die] for s in monoids.cmon_die_universe(bound)]

    def restrict(bound):
        ds = monoids.cmon_die_universe(bound)
        fs = [f for s in ds for t in ds for f in doubly.dd_functors_between(s, t)]
        retained, report = doubly.restrict_identity_constraint(fs, bound=bound)
        return len(retained), report

    ops = [
        Op(f"sample:{n}", lambda n=n: sample(n), lambda r, n=n: (len(r) == OEIS_MONOIDS[n], digest_of(r)))
        for n in range(1, 5)
    ]
    ops += [Op(f"dies:{b}", lambda b=b: dies(b), lambda r: (True, digest_of(r))) for b in (3, 4)]
    ops += [Op(f"forgetful:<={b}", lambda b=b: forgetful(b), _report_check) for b in (3, 4)]
    ops += [
        Op(f"two-equivalence:{b}", lambda b=b: doubly.check_two_equivalence(b), _report_check)
        for b in (2, 3)
    ]
    ops += [
        Op(
            f"restrict:{b}",
            lambda b=b: restrict(b),
            lambda r: (r[1].ok, digest_of([r[0], r[1].to_payload()])),
        )
        for b in (2, 3)
    ]
    ops += [
        Op(
            f"shift:{b}",
            lambda b=b: monoidal.check_shift_equivalence(examples.stock_monoidal_universe(b), bound=b),
            _report_check,
        )
        for b in (3, 4)
    ]
    for name in ("thm-dce", "thm-vdbe", "thm-moncat-xi"):
        ops.append(Op(f"suite:{name}", lambda name=name: suites.run_suite(name), _report_check))
    for op in ops:
        op.pin = op.id
    rng.shuffle(ops)
    return ops


# -- replay -------------------------------------------------------------------


def _write_file(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def witness_items(payload):
    """The replayable witnesses of a suite report, in report order."""
    for finding in payload["findings"]:
        w = finding["witness"]
        for item in w if isinstance(w, list) else [w]:
            if isinstance(item, dict) and "structure" in item:
                yield item


def replay_ops(rng, workdir, expected):
    pool = corpus.build_pool()
    objs = dict(pool)
    texts = corpus.pool_texts(pool)
    ops = []

    for pid in rng.sample(sorted(objs), WRITE_OPS):
        ops.append(
            Op(
                f"write:{pid}",
                lambda obj=objs[pid]: serialize.canonical_dumps(serialize.to_payload(obj)),
                lambda text: (True, sha(text)),
                pin=f"pool:{pid}",
            )
        )

    for prefix, there, back in SHIFT_PAIRS:
        ids = sorted(pid for pid in objs if pid.startswith(prefix))
        for n in range(SHIFT_OPS_PER_PAIR):
            pid = rng.choice(ids)
            src = os.path.join(workdir, f"shift{prefix[:-1]}{n}.json")
            mid = os.path.join(workdir, f"shift{prefix[:-1]}{n}.mid.json")
            out = os.path.join(workdir, f"shift{prefix[:-1]}{n}.back.json")
            _write_file(src, texts[pid])

            def run(src=src, mid=mid, out=out, there=there, back=back):
                return cli_call(["shift", there, src, "-o", mid]), cli_call(["shift", back, mid, "-o", out])

            def check(res, src=src, mid=mid, out=out):
                (c1, _), (c2, _) = res
                if c1 != 0 or c2 != 0:
                    return False, ""
                mid_text = _read_file(mid)
                return _read_file(out) == _read_file(src), sha(mid_text)

            ops.append(Op(f"shift:{n}:{pid}", run, check, pin=f"shift:{pid}"))

    for j, (cls, pid, text, note) in enumerate(corpus.make_corpus(pool, texts, CORPUS_FILES, rng)):
        path = os.path.join(workdir, f"c{j}.json")
        _write_file(path, text)
        want = corpus.EXPECTED_EXIT[cls]

        def check(res, want=want, cls=cls):
            code, out = res
            if code != want:
                return False, f"exit:{code}"
            if want == 1 and json.loads(out)["verdict"] != "invalid":
                return False, sha(out)
            return True, sha(out)

        ops.append(
            Op(
                f"validate:{j}:{cls}:{pid}:{note}",
                lambda path=path: cli_call(["--format", "json", "validate", path]),
                check,
                pin=f"validate:{pid}" if cls == "valid" else None,
                cls=cls,
            )
        )

    suite_ops, witness_ops = [], []
    for name in sorted(suites.SUITES):

        def suite_check(report, name=name):
            payload = report.to_payload()
            for k, item in enumerate(witness_items(payload)):
                path = os.path.join(workdir, f"witness-{name}-{k}.json")
                _write_file(path, json.dumps(item["structure"], sort_keys=True))
                _write_file(path + ".verdict", item["expected_verdict"])
            return report.ok, digest_of(payload)

        suite_ops.append(Op(f"suite:{name}", lambda name=name: suites.run_suite(name), suite_check, pin=f"suite:{name}"))
        for k in range(expected.get(f"witnesses:{name}", 0)):
            path = os.path.join(workdir, f"witness-{name}-{k}.json")

            def witness_check(res, path=path):
                code, _ = res
                verdict = _read_file(path + ".verdict")
                return code == (0 if verdict == "valid" else 1), f"exit:{code}"

            witness_ops.append(
                Op(
                    f"witness:{name}:{k}",
                    lambda path=path: cli_call(["--format", "json", "validate", path]),
                    witness_check,
                )
            )

    ops += suite_ops
    rng.shuffle(ops)
    rng.shuffle(witness_ops)
    return ops + witness_ops


def build(name, seed, workdir, expected):
    """The ops of one pass of workload `name` for `seed`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "enumerate":
        return enumerate_ops(rng)
    if name == "functor-algebra":
        return functor_algebra_ops(rng)
    if name == "universes":
        return universes_ops(rng)
    if name == "replay":
        return replay_ops(rng, workdir, expected)
    raise ValueError(f"unknown workload {name!r}")
