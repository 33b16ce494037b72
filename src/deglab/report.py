"""Shared report types: validation reports, verdict reports, findings.

Every checker returns the full list of violations rather than a bare
boolean, so counterexamples can be exhibited and replayed.  Structural
problems (bad shapes, out-of-range indices) are kept separate from axiom
failures throughout.
"""

from dataclasses import dataclass, field, fields


class StructuralError(ValueError):
    """Malformed data: wrong shape, index out of range, mismatched endpoints."""


class _Mismatch(Exception):
    """A value that does not fit its declaration.  Each level it passes up
    through adds its key or index to `path`, innermost first."""

    def __init__(self, message, *path):
        super().__init__(message)
        self.message = message
        self.path = list(path)


def _type_name(v) -> str:
    names = {dict: "object", list: "list", tuple: "list", type(None): "null"}
    return names.get(type(v), type(v).__name__)


# the types a list level may have
_LEVELS = (tuple, list, range)


def exact(value, field: str, shape: tuple = (), count: int | None = None, null=False, leaf=int):
    """`value` as nested tuples of exact leaves, or a `StructuralError`.

    This is the one shape gate of the public constructors.  `shape` gives
    the length of each list level, outermost first, None meaning any
    length; a level may be a tuple, a list or a range.  A leaf must have
    type `leaf` exactly (`type(v) is int`, so a bool, float or numeric
    string is refused, never coerced; `leaf=bool` for a flag), lie in
    range(count) when `count` is given, and may be None only when `null`
    allows it.  The error names the field and the path inside it in the
    format of the JSON conform pass, such as `mul/0/1: expected int, got
    str` or `mul/1: expected 2 entries, got 1`.
    """
    try:
        if shape:
            return _exact(value, shape, count, null, leaf)
        if type(value) is leaf and (count is None or 0 <= value < count) or value is None and null:
            return value
        raise _leaf_mismatch(value, count, null, leaf)
    except _Mismatch as e:
        where = "/".join([field, *map(str, reversed(e.path))])
        raise StructuralError(f"{where}: {e.message}") from None


def _exact(v, shape, count, null, leaf):
    if type(v) not in _LEVELS:
        raise _Mismatch(f"expected list, got {_type_name(v)}")
    if shape[0] is not None and len(v) != shape[0]:
        raise _Mismatch(f"expected {shape[0]} entries, got {len(v)}")
    rest = shape[1:]
    if rest:
        out = []
        for i, x in enumerate(v):
            try:
                out.append(_exact(x, rest, count, null, leaf))
            except _Mismatch as e:
                e.path.append(i)
                raise
        return tuple(out)
    # the leaf level, inlined: one call per row, not one per leaf
    for i, x in enumerate(v):
        if type(x) is not leaf or count is not None and not 0 <= x < count:
            if x is not None or not null:
                raise _leaf_mismatch(x, count, null, leaf, i)
    return tuple(v)


def _leaf_mismatch(v, count, null, leaf, *path) -> _Mismatch:
    if type(v) is leaf:
        return _Mismatch(f"index {v} out of range({count})", *path)
    what = "int or null" if null else leaf.__name__
    return _Mismatch(f"expected {what}, got {_type_name(v)}", *path)


_ABSENT = object()  # no value kept yet


def kept(obj, name: str, build):
    """The value kept on `obj` as `name`, built by build(obj) on first use.

    The one policy for what a structure keeps beside its fields: set with
    `object.__setattr__`, outside the dataclass fields, so equality,
    hashing, repr and JSON ignore it, and never through `__dict__`, which
    slows every later attribute read.  Nothing is kept when `build`
    raises.  A class that keeps values takes `fields_state` as its
    `__getstate__`.
    """
    value = getattr(obj, name, _ABSENT)
    if value is _ABSENT:
        value = build(obj)
        object.__setattr__(obj, name, value)
    return value


def new_memo(_) -> dict:  # the `build` of a dict kept on an object
    return {}


def kept_for(source, target, name: str, search):
    """search(source, target), run once per pair of objects in a process.

    Kept on `source` (see `kept`) in the dict `name` under id(target), as
    (target, result): the entry keeps `target` alive, so no other object
    takes a kept id.  An equal but distinct target is searched afresh, and
    nothing is hashed.
    """
    memo = kept(source, name, new_memo)
    entry = memo.get(id(target))
    if entry is None:
        entry = memo[id(target)] = (target, search(source, target))
    return entry[1]


def fields_state(obj) -> dict:
    """The fields only: the `__getstate__` of a class that keeps values, so
    a copy, a deep copy or an unpickled one starts without them."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


class InvalidStructureError(ValueError):
    """An operation required an axiom-valid input and did not get one."""


class RefutationAlarm(RuntimeError):
    """A derived consequence failed on input that passed the axiom checks.

    This never fires on honest data; it means an adversarial or corrupted
    structure slipped past a checker, and the harness should treat it as a
    bug rather than a mathematical discovery.
    """


@dataclass(frozen=True)
class Violation:
    axiom: str
    where: tuple = ()
    message: str = ""

    def to_payload(self):
        return {"axiom": self.axiom, "where": list(self.where), "message": self.message}


@dataclass
class ValidationReport:
    """Outcome of running one structure through its axiom checker."""

    subject: str
    structural: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.structural and not self.violations

    @property
    def well_formed(self) -> bool:
        return not self.structural

    def add(self, axiom: str, where: tuple = (), message: str = ""):
        self.violations.append(Violation(axiom, where, message))

    def add_structural(self, axiom: str, where: tuple = (), message: str = ""):
        self.structural.append(Violation(axiom, where, message))

    def extend(self, other: "ValidationReport", prefix: str = ""):
        for v in other.structural:
            self.structural.append(Violation(prefix + v.axiom, v.where, v.message))
        for v in other.violations:
            self.violations.append(Violation(prefix + v.axiom, v.where, v.message))

    def grouped(self) -> dict:
        """Violations keyed by axiom name."""
        out: dict = {}
        for v in self.violations:
            out.setdefault(v.axiom, []).append(v)
        return out

    def to_payload(self):
        return {
            "subject": self.subject,
            "verdict": "valid" if self.ok else "invalid",
            "structural": [v.to_payload() for v in self.structural],
            "violations": [v.to_payload() for v in self.violations],
        }


@dataclass(frozen=True)
class Finding:
    """One criterion inside a verdict report."""

    criterion: str
    passed: bool
    dimension: int | None = None
    witness: object = None
    detail: str = ""

    def to_payload(self):
        return {
            "criterion": self.criterion,
            "dimension": self.dimension,
            "passed": self.passed,
            "witness": self.witness,
            "detail": self.detail,
        }


@dataclass
class Report:
    """A verdict: findings plus a header saying what was swept.

    Positive verdicts are only as strong as the universe swept, so the
    header records it: suites write their `bound` and a `seed` that is
    always null (no suite draws from a settable seed), equivalence checks
    their `bound` and a description of the `universe`.
    """

    name: str
    header: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.passed for f in self.findings)

    def add(self, criterion, passed, dimension=None, witness=None, detail=""):
        self.findings.append(Finding(criterion, passed, dimension, witness, detail))

    def to_payload(self):
        return {
            "name": self.name,
            **self.header,
            "verdict": "pass" if self.ok else "fail",
            "findings": [f.to_payload() for f in self.findings],
        }


def witness_item(structure_payload, expected_verdict: str, note: str = ""):
    """A replayable witness: a structure plus the verdict `validate` must give."""
    item = {"structure": structure_payload, "expected_verdict": expected_verdict}
    if note:
        item["note"] = note
    return item
