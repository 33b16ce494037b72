"""Span tracer: patches the program's public layer functions from outside.

`Tracer.patch()` replaces each traced function in every `deglab.*` module
namespace that binds it (methods are replaced on their class), and
`unpatch()` puts the originals back.  Each call records one span: name,
start, end, parent span and op id.  Spans stay in memory, in flat arrays,
until `write()`.  Nothing under `src/` is edited.
"""

import json
import sys
from array import array
from time import perf_counter

# (module, attribute) of every traced function; a dotted attribute is a method.
TARGETS = (
    ("monoids", "enumerate_monoids"),
    ("monoids", "canonical_form"),
    ("monoids", "enumerate_homs"),
    ("monoids", "MonoidHom.__post_init__"),
    ("monoids", "check_monoid"),
    ("doubly", "compose_dd_functors"),
    ("doubly", "DDFunctor.__post_init__"),
    ("doubly", "promote_lax"),
    ("doubly", "check_ddbicat"),
    ("doubly", "two_truncation_universe"),
    ("doubly", "check_two_equivalence"),
    ("doubly", "restrict_identity_constraint"),
    ("degenerate", "check_forgetful_equivalence"),
    ("equivalence", "check_external_equivalence"),
    ("equivalence", "internally_equivalent"),
    ("monoidal", "check_shift_equivalence"),
    ("monoidal", "check_monoidal"),
    ("monoidal", "check_deg_transformation"),
    ("fincat", "check_category"),
    ("monads", "check_monad"),
    ("coherence", "pentagon_holds_by_terms"),
    ("serialize", "validate_payload"),
    ("serialize", "structure_from_payload"),
    ("serialize", "to_payload"),
    ("serialize", "canonical_dumps"),
    ("cli", "main"),
    ("suites", "run_suite"),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.recording = False
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        # counts observed on arguments and results
        self.classes = 0
        self.ddbicat_inputs = set()
        self.universe = {"two_cells": 0, "one_comp_entries": 0, "two_hcomp_entries": 0}
        self.dumped_bytes = 0
        self.exits = {"cli.exit_0": 0, "cli.exit_1": 0, "cli.exit_2": 0, "cli.uncaught": 0}
        self._pauses = []  # (start, seconds, open span) of each meter sample
        self.excluded = {}  # span index -> seconds of meter samples inside it

    # -- observers --------------------------------------------------------------

    def _observe(self, name, args, result, exc):
        if name == "cli.main":
            if exc is None:
                key = f"cli.exit_{result}"
            elif isinstance(exc, SystemExit):
                key = f"cli.exit_{exc.code}"
            else:
                key = "cli.uncaught"
            self.exits[key] = self.exits.get(key, 0) + 1
        elif exc is not None:
            return
        elif name == "monoids.enumerate_monoids":
            self.classes += len(result)
        elif name == "doubly.check_ddbicat":
            self.ddbicat_inputs.add(args[0] if args else None)
        elif name == "doubly.two_truncation_universe":
            _, _, two_cells, fun = result
            sizes = {
                "two_cells": len(two_cells),
                "one_comp_entries": len(fun.source.one_comp),
                "two_hcomp_entries": len(fun.source.two_hcomp),
            }
            if sizes["two_cells"] >= self.universe["two_cells"]:
                self.universe = sizes
        elif name == "serialize.canonical_dumps":
            self.dumped_bytes += len(result.encode("utf-8"))

    _OBSERVED = frozenset(
        {
            "cli.main",
            "monoids.enumerate_monoids",
            "doubly.check_ddbicat",
            "doubly.two_truncation_universe",
            "serialize.canonical_dumps",
        }
    )

    # -- patching ---------------------------------------------------------------

    def _wrap(self, fn, name_id):
        name = NAMES[name_id]
        observe = self._observe if name in self._OBSERVED else None
        stack = self._stack
        start, end, names, parents, ops = self.start, self.end, self.name, self.parent, self.op

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
                if observe:
                    observe(name, args, None, exc)
                raise
            end[idx] = perf_counter()
            start[idx] = t0
            stack.pop()
            if observe:
                observe(name, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def patch(self):
        modules = [m for key, m in sorted(sys.modules.items()) if key == "deglab" or key.startswith("deglab.")]
        for name_id, (mod_name, attr) in enumerate(TARGETS):
            home = sys.modules[f"deglab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name_id))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name_id)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def unpatch(self):
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)

    def restored(self):
        """True when every patched attribute holds its original again."""
        return all(
            (vars(ns).get(key) if isinstance(ns, type) else getattr(ns, key)) is original
            for ns, key, original in self._patched
        )

    # -- analysis ---------------------------------------------------------------

    def span_count(self):
        return len(self.start)

    def exclude(self, t0, seconds):
        """Note `seconds` of benchmark work (the speed meter's handler)
        that began at `t0`, to be left out of the self time of the
        innermost span around it."""
        if self._stack:
            self._pauses.append((t0, seconds, self._stack[-1]))

    def _resolve_pauses(self):
        # The open span may not have started its clock yet, or may have
        # stopped it; then the pause belongs to the nearest enclosing span.
        for t0, seconds, idx in self._pauses:
            while idx >= 0 and not (self.start[idx] <= t0 and t0 + seconds <= self.end[idx]):
                idx = self.parent[idx]
            if idx >= 0:
                self.excluded[idx] = self.excluded.get(idx, 0.0) + seconds
        self._pauses = []

    def self_times(self, op_factor):
        """Per-name (calls, inclusive seconds, self seconds), with each span
        scaled by `op_factor[its op]`; plus the smallest and the sum of the
        unscaled self times."""
        self._resolve_pauses()
        n = len(self.start)
        start, end, names, parents, ops = self.start, self.end, self.name, self.parent, self.op
        excluded = self.excluded
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = [[0, 0.0, 0.0] for _ in NAMES]
        lowest = 0.0
        total_self = 0.0
        for i in range(n):
            d = end[i] - start[i]
            s = d - child[i] - excluded.get(i, 0.0)
            f = op_factor[ops[i]]
            row = stats[names[i]]
            row[0] += 1
            row[1] += d * f
            row[2] += s * f
            total_self += s
            if s < lowest:
                lowest = s
        return {NAMES[k]: tuple(row) for k, row in enumerate(stats)}, lowest, total_self

    def write(self, path, op_factor):
        """All spans: one JSON header line, then the columns as raw arrays.

        The header also carries the meter time excluded per span and the
        reference-speed factor per op, so self times can be re-derived."""
        columns = (("start", self.start), ("end", self.end), ("name", self.name), ("parent", self.parent), ("op", self.op))
        header = {
            "names": list(NAMES),
            "count": len(self.start),
            "excluded_s": {str(k): v for k, v in self.excluded.items()},
            "op_factor": list(op_factor),
            "byteorder": sys.byteorder,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, col in columns:
                col.tofile(fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, stats):
    """The per-layer metrics of one traced pass, by name."""
    out = {}
    for name, (calls, total, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    calls, total, _ = stats["doubly.compose_dd_functors"]
    out["doubly.compose_dd_functors.us_per_call"] = _ratio(total * 1e6, calls)
    out["monoids.classes_per_canonical_call"] = _ratio(
        tracer.classes, stats["monoids.canonical_form"][0]
    )
    out["doubly.check_ddbicat.distinct_per_call"] = _ratio(
        len(tracer.ddbicat_inputs), stats["doubly.check_ddbicat"][0]
    )
    for key, value in tracer.universe.items():
        out[f"doubly.universe.{key}"] = value
    out["serialize.canonical_dumps.bytes"] = tracer.dumped_bytes
    out.update(tracer.exits)
    return out
