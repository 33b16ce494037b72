"""The verdict report: its payload shape, and the bytes of the reports that
the benchmark pins; and the helper that keeps values on a structure.

The digests are computed as `perfbench/workloads.digest_of` computes them
and compared with the pins in `perfbench/expected.json`, which is only read
here, so a drift in report JSON fails these tests as well as the benchmark.
"""

import gc
import hashlib
import json
import weakref
from dataclasses import dataclass
from pathlib import Path

import pytest

from deglab.degenerate import check_forgetful_equivalence, monoid_to_cat
from deglab.doubly import check_two_equivalence, dd_functors_between, restrict_identity_constraint
from deglab.examples import stock_monoidal_universe
from deglab.monoidal import check_shift_equivalence
from deglab.monoids import cmon_die_universe, enumerate_monoids
from deglab.report import Report, fields_state, kept, kept_for
from deglab.suites import SUITES, run_suite

_PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text(encoding="utf-8")
)


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPayload:
    def test_header_keys_sit_beside_name_verdict_and_findings(self):
        rep = Report("r", {"bound": 2, "universe": "u"})
        rep.add("c", True, dimension=1)
        assert rep.to_payload() == {
            "name": "r",
            "bound": 2,
            "universe": "u",
            "verdict": "pass",
            "findings": [
                {"criterion": "c", "dimension": 1, "passed": True, "witness": None, "detail": ""}
            ],
        }

    def test_verdict_fails_on_any_failed_finding(self):
        rep = Report("r")
        assert rep.ok and rep.to_payload() == {"name": "r", "verdict": "pass", "findings": []}
        rep.add("c", True)
        rep.add("d", False)
        assert not rep.ok and rep.to_payload()["verdict"] == "fail"


@dataclass(frozen=True)
class _Holder:
    size: int

    __getstate__ = fields_state


class TestKept:
    def test_a_value_is_built_once_outside_the_fields(self):
        h, calls = _Holder(2), []

        def build(obj):
            calls.append(obj)
            return [obj.size]

        value = kept(h, "_value", build)
        assert kept(h, "_value", build) is value and calls == [h]
        assert h == _Holder(2) and hash(h) == hash(_Holder(2)) and repr(h) == repr(_Holder(2))
        assert fields_state(h) == {"size": 2}

    def test_a_build_that_raises_keeps_nothing(self):
        h, calls = _Holder(2), []

        def failing(obj):
            calls.append(obj)
            raise ValueError("no value")

        for _ in range(2):
            with pytest.raises(ValueError, match="no value"):
                kept(h, "_value", failing)
        assert calls == [h, h] and vars(h) == {"size": 2}
        with pytest.raises(ValueError):
            kept_for(h, _Holder(3), "_memo", lambda s, t: failing(s))
        assert vars(h)["_memo"] == {}

    def test_an_entry_keeps_a_transient_target_alive(self):
        source, target, calls = _Holder(2), _Holder(3), []

        def search(s, t):
            calls.append((s, t))
            return (s.size, t.size)

        alive = weakref.ref(target)
        found = kept_for(source, target, "_memo", search)
        del target
        gc.collect()
        # the kept id cannot pass to another object while the entry lives
        assert alive() is not None and found == (2, 3)
        assert kept_for(source, alive(), "_memo", search) is found and len(calls) == 1
        assert kept_for(source, _Holder(3), "_memo", search) == found and len(calls) == 2
        del source, calls
        gc.collect()
        assert alive() is None


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite(self, name):
        assert _digest(run_suite(name).to_payload()) == _PINS["replay"][f"suite:{name}"]

    def test_shift_equivalence(self):
        rep = check_shift_equivalence(stock_monoidal_universe(3), bound=3)
        assert _digest(rep.to_payload()) == _PINS["universes"]["shift:3"]

    def test_two_equivalence(self):
        assert _digest(check_two_equivalence(2).to_payload()) == _PINS["universes"]["two-equivalence:2"]

    def test_forgetful_equivalence(self):
        cats = [monoid_to_cat(m) for n in range(1, 4) for m in enumerate_monoids(n)]
        rep = check_forgetful_equivalence(cats)
        assert _digest(rep.to_payload()) == _PINS["universes"]["forgetful:<=3"]

    def test_identity_constraint_restriction(self):
        # its header keeps an empty "universe", which the pin includes
        dies = cmon_die_universe(2)
        fs = [f for s in dies for t in dies for f in dd_functors_between(s, t)]
        retained, rep = restrict_identity_constraint(fs, bound=2)
        assert _digest([len(retained), rep.to_payload()]) == _PINS["universes"]["restrict:2"]
