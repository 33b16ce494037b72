"""Shared report types: validation reports, verdict reports, findings.

Every checker returns the full list of violations rather than a bare
boolean, so counterexamples can be exhibited and replayed.  Structural
problems (bad shapes, out-of-range indices) are kept separate from axiom
failures throughout.
"""

from dataclasses import dataclass, field


class StructuralError(ValueError):
    """Malformed data: wrong shape, index out of range, mismatched endpoints."""


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
    header records it: suites write their `bound` and `seed`, equivalence
    checks their `bound` and a description of the `universe`.
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
