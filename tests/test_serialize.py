import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deglab import serialize
from deglab.cli import _SEARCHES, _SHIFTS, main
from deglab.degenerate import monoid_to_cat, nat_trans_between
from deglab.doubly import build_ddbicat, identity_dd_functor
from deglab.examples import (
    arrow_category,
    bool_or_monoid,
    discrete_monoidal,
    sign_category,
    trivial_monoid,
    zmod,
)
from deglab.monads import identity_monad, identity_monad_functor
from deglab.monoidal import (
    DegModification,
    identity_deg_transformation,
    identity_monoidal_functor,
)
from deglab.monoids import (
    check_cmon_die,
    check_monoid,
    enumerate_monoids,
    identity_hom,
    make_cmon_die,
)
from deglab.report import StructuralError, ValidationReport
from samples import sample_structures


class TestRoundTrips:
    def test_payload_round_trips(self):
        for obj in sample_structures():
            payload = serialize.to_payload(obj)
            text = serialize.canonical_dumps(payload)
            back = serialize.structure_from_payload(json.loads(text))
            assert back == obj, payload["kind"]

    def test_canonical_bytes_stable(self):
        for obj in sample_structures():
            text = serialize.canonical_dumps(serialize.to_payload(obj))
            reparsed = serialize.canonical_dumps(json.loads(text))
            assert reparsed == text
            assert text.endswith("\n") and "\n" not in text[:-1]

    @given(st.sampled_from(enumerate_monoids(3)))
    @settings(max_examples=20, deadline=None)
    def test_monoid_round_trip_property(self, m):
        assert serialize.structure_from_payload(serialize.to_payload(m)) == m


class TestSchemaStrictness:
    def test_unknown_key_rejected(self):
        payload = serialize.to_payload(zmod(2))
        payload["extra"] = 1
        with pytest.raises(StructuralError):
            serialize.structure_from_payload(payload)

    def test_missing_key_rejected(self):
        payload = serialize.to_payload(zmod(2))
        del payload["unit"]
        with pytest.raises(StructuralError):
            serialize.structure_from_payload(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructuralError):
            serialize.structure_from_payload({"kind": "mystery"})

    def test_die_key_promotes_to_pair(self):
        payload = serialize.to_payload(zmod(2))
        payload["die"] = 1
        obj = serialize.structure_from_payload(payload)
        assert obj == make_cmon_die(zmod(2), 1)

    def test_noninvertible_die_loads_and_is_reported(self):
        payload = serialize.to_payload(bool_or_monoid())
        payload["die"] = 1
        rep = check_cmon_die(serialize.structure_from_payload(payload))
        assert [(v.axiom, v.where, v.message) for v in rep.violations] == [
            ("die-invertible", (1,), "no inverse exists")
        ]


class TestValidationDispatch:
    def test_valid_monoid(self):
        assert serialize.validate_payload(serialize.to_payload(zmod(2))).ok

    def test_invalid_monoid_reported(self):
        rep = serialize.validate_payload(
            {"kind": "monoid", "size": 2, "unit": 0, "mul": [[0, 1], [0, 0]]}
        )
        assert not rep.ok and rep.well_formed

    def test_noninvertible_die_reported_not_raised(self):
        payload = serialize.to_payload(bool_or_monoid())
        payload["die"] = 1
        rep = serialize.validate_payload(payload)
        assert any(v.axiom == "die-invertible" for v in rep.violations)

    def test_cmon_die_report_extends_the_monoid_report(self):
        invalid = {"kind": "monoid", "size": 2, "unit": 0, "mul": [[0, 1], [0, 0]], "die": 1}
        for payload, ok in ((serialize.to_payload(make_cmon_die(zmod(2), 1)), True), (invalid, False)):
            rep = serialize.validate_payload(payload)
            inner = check_monoid(payload["mul"], payload["unit"])
            assert rep.subject == "cmon_die" and rep.ok is ok
            assert rep.structural == inner.structural
            assert rep.violations[: len(inner.violations)] == inner.violations
        # the table is neither unital nor commutative; the die 1 is its own inverse
        assert inner.violations and [v.axiom for v in rep.violations[len(inner.violations) :]] == [
            "commutativity"
        ]

    def test_degenerate_category_report_is_the_monoid_report(self):
        valid = serialize.to_payload(monoid_to_cat(zmod(2)))
        invalid = {
            "kind": "degenerate_category",
            "hom": {"kind": "monoid", "size": 2, "unit": 0, "mul": [[0, 1], [0, 0]]},
        }
        for payload, ok in ((valid, True), (invalid, False)):
            rep = serialize.validate_payload(payload)
            inner = ValidationReport("degenerate_category")
            inner.extend(check_monoid(payload["hom"]["mul"], payload["hom"]["unit"]), prefix="hom-")
            assert rep.subject == "degenerate_category" and rep.ok is ok
            assert (rep.structural, rep.violations) == (inner.structural, inner.violations)

    def test_ddbicat_includes_derived_checks(self):
        b = build_ddbicat(make_cmon_die(zmod(2), 1))
        payload = serialize.to_payload(b)
        assert serialize.validate_payload(payload).ok
        payload["hcomp"] = [[0, 1], [1, 1]]  # diverges from vcomp
        rep = serialize.validate_payload(payload)
        assert not rep.ok

    def test_every_sample_validates(self):
        for obj in sample_structures():
            rep = serialize.validate_payload(serialize.to_payload(obj))
            assert rep.ok, (type(obj).__name__, rep.to_payload())

    def test_discrete_moncat_validates(self):
        payload = serialize.to_payload(discrete_monoidal(trivial_monoid()))
        assert serialize.validate_payload(payload).ok


# -- the schema table and the conform pass -------------------------------------

_TEXTS = [serialize.canonical_dumps(serialize.to_payload(obj)) for obj in sample_structures()]

# Integer keys that hold a count rather than an index into a table.
_COUNT_KEYS = frozenset({"size", "cells", "objects", "one_cells"})


def _sites(node, path=()):
    """(path, value) of every object, list and leaf of a JSON tree."""
    yield path, node
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _sites(node[k], path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _sites(v, path + (i,))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _set(node, path, value):
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value


def _validate_exit(tmp_path, payload) -> int:
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["validate", str(path)])


def _draw_payload(data):
    return json.loads(data.draw(st.sampled_from(_TEXTS)))


_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestSchemaTable:
    def test_table_kinds_are_the_emitted_kinds(self):
        emitted = {json.loads(text)["kind"] for text in _TEXTS}
        assert set(serialize.SCHEMA) == emitted
        assert len(emitted) == 17

    def test_every_structure_type_has_one_kind(self):
        for obj in sample_structures():
            kinds = [k for k, e in serialize.SCHEMA.items() if type(obj) in e.types]
            assert kinds == [serialize.to_payload(obj)["kind"]]

    def test_bounds_name_keys_walked_earlier(self):
        for kind, entry in serialize.SCHEMA.items():
            seen = set()
            for key in entry.keys:
                if key.bound:
                    assert key.bound[0] in seen, (kind, key.name)
                seen.add(key.name)

    def test_error_names_the_json_path(self):
        payload = serialize.to_payload(identity_dd_functor(make_cmon_die(zmod(3), 1)))
        payload["target"]["mul"][2][1] = "1"
        with pytest.raises(StructuralError, match="^target/mul/2/1: expected int, got str$"):
            serialize.validate_payload(payload)

    def test_nested_index_range_is_checked(self):
        payload = serialize.to_payload(identity_dd_functor(make_cmon_die(zmod(2), 1)))
        payload["source"]["die"] = 2
        with pytest.raises(StructuralError, match="^source/die: index 2 out of range"):
            serialize.validate_payload(payload)

    def test_negative_index_rejected(self):
        payload = serialize.to_payload(zmod(2))
        payload["mul"][0][0] = -1
        with pytest.raises(StructuralError, match="^mul/0/0: index -1"):
            serialize.structure_from_payload(payload)

    def test_null_only_where_declared(self):
        payload = serialize.to_payload(zmod(2))
        payload["mul"][1][0] = None
        with pytest.raises(StructuralError, match="^mul/1/0: expected int, got null$"):
            serialize.validate_payload(payload)
        category = serialize.to_payload(arrow_category())
        assert None in category["comp"][0] + category["comp"][1]
        assert serialize.validate_payload(category).ok

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("mul",), 3, "mul: expected list, got int"),
            (("mul", 1), {}, "mul/1: expected list, got object"),
            (("mul", 1, 2), [0], "mul/1/2: expected int, got list"),
        ],
    )
    def test_list_levels_are_checked(self, path, value, message):
        payload = serialize.to_payload(zmod(3))
        _set(payload, path, value)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            serialize.validate_payload(payload)

    def test_unknown_key_in_pair_object_rejected(self):
        payload = serialize.to_payload(arrow_category())
        payload["morphisms"][0]["label"] = 0
        with pytest.raises(StructuralError, match="^morphisms/0: unknown keys"):
            serialize.validate_payload(payload)

    def test_nested_die_required_where_declared_and_rejected_elsewhere(self):
        payload = serialize.to_payload(identity_dd_functor(make_cmon_die(zmod(2), 1)))
        del payload["source"]["die"]
        with pytest.raises(StructuralError, match="^source: missing keys"):
            serialize.validate_payload(payload)
        z2 = identity_hom(zmod(2))
        nat = serialize.to_payload(nat_trans_between(z2, z2)[0])
        nat["source"]["die"] = 1
        with pytest.raises(StructuralError, match="^source: unknown keys"):
            serialize.validate_payload(nat)

    def test_nested_kind_must_match(self):
        payload = serialize.to_payload(identity_dd_functor(make_cmon_die(zmod(2), 1)))
        payload["target"]["kind"] = "category"
        with pytest.raises(StructuralError, match="^target/kind: expected 'monoid'"):
            serialize.validate_payload(payload)

    @pytest.mark.parametrize("key, value", [("lax", 1), ("oplax", "yes"), ("lax", None)])
    def test_flags_must_be_exact_bools(self, key, value):
        t = identity_deg_transformation(identity_monoidal_functor(sign_category()))
        payload = serialize.to_payload(t)
        payload[key] = value
        with pytest.raises(StructuralError, match=f"^{key}: expected bool"):
            serialize.structure_from_payload(payload)

    def test_load_with_kind_rejects_other_kinds(self):
        with pytest.raises(StructuralError, match="expected a dd_functor payload"):
            serialize.structure_from_payload(serialize.to_payload(zmod(2)), "dd_functor")


def _path_set(payload, path, value):
    _set(payload, [int(p) if p.isdigit() else p for p in path.split("/")], value)


def _validate_stderr(tmp_path, payload) -> tuple:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    return code, err.getvalue()


class TestRowCheck:
    """A row of leaves is checked in one loop; a bad leaf anywhere in it is
    named exactly as the per-leaf check names it."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("tensor_mor/1/0", 97, "index 97 out of range(4)"),
            ("tensor_mor/1/0", "1", "expected int, got str"),
            ("tensor_mor/1/2", -1, "index -1 out of range(4)"),
            ("tensor_mor/1/2", None, "expected int, got null"),
            ("tensor_mor/1/3", 1.0, "expected int, got float"),
            ("tensor_mor/1/3", [0], "expected int, got list"),
            ("lunit/0", True, "expected int, got bool"),
            ("lunit/1", 97, "index 97 out of range(4)"),
            ("comp/2/0", 1.0, "expected int or null, got float"),
            ("comp/2/0", False, "expected int or null, got bool"),
            ("comp/2/1", 97, "index 97 out of range(4)"),
            ("comp/2/1", [None], "expected int or null, got list"),
            ("comp/2/3", "2", "expected int or null, got str"),
            ("comp/2/3", -1, "index -1 out of range(4)"),
        ],
    )
    def test_bad_index_leaf_is_named(self, path, value, message):
        payload = serialize.to_payload(sign_category())
        _path_set(payload, path, value)
        with pytest.raises(StructuralError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
            serialize.validate_payload(payload)

    @pytest.mark.parametrize("i", [0, 2, 3])
    @pytest.mark.parametrize(
        "value, where, message",
        [
            (None, "", "expected object, got null"),
            (1, "", "expected object, got int"),
            ({"src": 0}, "", "missing keys: ['tgt']"),
            ({"src": 0, "tgt": 0, "label": 1}, "", "unknown keys: ['label']"),
            ({"src": 97, "tgt": 0}, "/src", "index 97 out of range(2)"),
            ({"src": 0, "tgt": "1"}, "/tgt", "expected int, got str"),
            ({"src": True, "tgt": 0}, "/src", "expected int, got bool"),
        ],
    )
    def test_bad_pair_is_named(self, i, value, where, message):
        payload = serialize.to_payload(sign_category())
        payload["morphisms"][i] = value
        with pytest.raises(
            StructuralError, match=f"^morphisms/{i}{where}: {re.escape(message)}$"
        ):
            serialize.validate_payload(payload)


class TestSharedBuild:
    """Equal nested payloads of one file build to one structure, after every
    copy has gone through the conform pass."""

    @staticmethod
    def _modification_payload():
        mc = sign_category()
        dt = identity_deg_transformation(identity_monoidal_functor(mc))
        return serialize.to_payload(DegModification(dt, dt, mc.base.identities[dt.dist_obj]))

    def test_equal_embedded_structures_are_one_object(self):
        text = serialize.canonical_dumps(self._modification_payload())
        mod = serialize.structure_from_payload(json.loads(text))
        assert mod.source_transformation is mod.target_transformation
        t = mod.source_transformation
        assert t.source_functor is t.target_functor
        assert t.source_functor.source is t.source_functor.target
        t = serialize.structure_from_payload(json.loads(text)["target_transformation"])
        assert t.source_functor is t.target_functor
        assert t.source_functor.source is t.source_functor.target

    def test_sharing_is_per_call(self):
        text = serialize.canonical_dumps(self._modification_payload())
        first = serialize.structure_from_payload(json.loads(text))
        second = serialize.structure_from_payload(json.loads(text))
        assert first == second
        assert first.source_transformation is not second.source_transformation

    def test_unequal_nested_payloads_stay_apart(self):
        f = identity_dd_functor(make_cmon_die(zmod(2), 1))
        payload = serialize.to_payload(f)
        payload["target"]["die"] = 0
        g = serialize.structure_from_payload(payload)
        assert g.source is not g.target and g.source != g.target

    # the second of the eight equal moncats, and copies in the second
    # (equal) transformation
    _SECOND = "source_transformation/source_functor/target/"
    _LATER = "target_transformation/target_functor/"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (_SECOND + "tensor_obj/0/0", 0.0, "expected int, got float"),
            (_SECOND + "tensor_obj/0/0", False, "expected int, got bool"),
            (_SECOND + "tensor_obj/0/1", True, "expected int, got bool"),
            (_LATER + "target/comp/1/0", True, "expected int or null, got bool"),
            (_LATER + "target/morphisms/3/src", True, "expected int, got bool"),
            (_LATER + "target/unit", 0.0, "expected int, got float"),
            (_LATER + "object_map/0", False, "expected int, got bool"),
            ("target_transformation/dist_obj", False, "expected int, got bool"),
            ("target_transformation/lax", 0, "expected bool, got int"),
        ],
    )
    def test_type_swap_in_a_repeated_copy_exits_two(self, tmp_path, path, value, message):
        # the swapped value is == to the one in the earlier copy
        payload = self._modification_payload()
        _path_set(payload, path, value)
        assert _validate_stderr(tmp_path, payload) == (2, f"input error: {path}: {message}\n")


class TestMutationFuzz:
    """Every schema violation exits 2 through `deglab validate`, at any depth."""

    @given(st.data())
    @_FUZZ
    def test_type_swap_exits_two(self, tmp_path, data):
        payload = _draw_payload(data)
        sites = [(p, v) for p, v in _sites(payload) if p and isinstance(v, int)]
        path, v = data.draw(st.sampled_from(sites))
        if isinstance(v, bool):
            new = data.draw(st.sampled_from([int(v), str(v).lower(), None]))
        else:
            new = data.draw(st.sampled_from([float(v), v != 0, str(v)]))
        _set(payload, path, new)
        assert _validate_exit(tmp_path, payload) == 2, (path, new)

    @given(st.data())
    @_FUZZ
    def test_out_of_range_index_exits_two(self, tmp_path, data):
        payload = _draw_payload(data)
        sites = [p for p, v in _sites(payload) if _is_int(v) and p[-1] not in _COUNT_KEYS]
        path = data.draw(st.sampled_from(sites))
        new = data.draw(st.sampled_from([-1, 97, 2**40]))
        _set(payload, path, new)
        assert _validate_exit(tmp_path, payload) == 2, (path, new)

    @given(st.data())
    @_FUZZ
    def test_dropped_key_exits_two(self, tmp_path, data):
        payload = _draw_payload(data)
        # "die" is optional on a top-level monoid: without it the file is a
        # plain monoid, which is a different valid structure
        keys = [
            (p, k)
            for p, v in _sites(payload)
            if isinstance(v, dict)
            for k in v
            if (p, k) != ((), "die")
        ]
        path, key = data.draw(st.sampled_from(keys))
        node = payload
        for p in path:
            node = node[p]
        del node[key]
        assert _validate_exit(tmp_path, payload) == 2, (path, key)

    @given(st.data())
    @_FUZZ
    def test_added_key_exits_two(self, tmp_path, data):
        payload = _draw_payload(data)
        # "die" is optional on a top-level monoid, and makes it another valid
        # structure there
        sites = [
            (v, k)
            for p, v in _sites(payload)
            if isinstance(v, dict)
            for k in ("extra", "die")
            if k not in v and (p, k) != ((), "die")
        ]
        node, key = data.draw(st.sampled_from(sites))
        node[key] = 0
        assert _validate_exit(tmp_path, payload) == 2, key

    @given(st.data())
    @_FUZZ
    def test_perturbed_leaf_keeps_the_exit_contract(self, tmp_path, data):
        text = data.draw(st.sampled_from(_TEXTS))
        payload = json.loads(text)
        sites = [(p, v) for p, v in _sites(payload) if _is_int(v)]
        path, v = data.draw(st.sampled_from(sites))
        _set(payload, path, data.draw(st.integers(0, max(v, 1))))
        code = _validate_exit(tmp_path, payload)
        assert code in (0, 1, 2)
        if code == 0:
            back = serialize.to_payload(serialize.structure_from_payload(payload))
            assert serialize.canonical_dumps(back) == serialize.canonical_dumps(payload)


class TestPartsFirst:
    """A checker that composes cells of a structure's parts runs only on
    valid parts; invalid ones are reported under their key."""

    @staticmethod
    def _findings(report):
        return [v.axiom for v in report.structural + report.violations]

    def test_monoidal_functor_with_invalid_target(self):
        payload = serialize.to_payload(identity_monoidal_functor(sign_category()))
        payload["target"]["identities"][0] = 2
        report = serialize.validate_payload(payload)
        assert not report.ok
        assert all(a.startswith("target-") for a in self._findings(report))

    def test_monad_functor_with_invalid_target(self):
        payload = serialize.to_payload(identity_monad_functor(identity_monad(arrow_category())))
        payload["target"]["morphism_map"][0] = 1
        report = serialize.validate_payload(payload)
        assert not report.ok
        assert all(a.startswith("target-") for a in self._findings(report))

    def test_deg_transformation_with_invalid_category_in_both_functors(self):
        t = identity_deg_transformation(identity_monoidal_functor(sign_category()))
        payload = serialize.to_payload(t)
        for functor in ("source_functor", "target_functor"):
            for end in ("source", "target"):
                payload[functor][end]["assoc"][0][0][0] = 2
        report = serialize.validate_payload(payload)
        assert not report.ok
        assert all(a.startswith("source_functor-source-") for a in self._findings(report))

    def test_valid_parts_leave_the_report_unchanged(self):
        mf = identity_monoidal_functor(sign_category())
        report = serialize.validate_payload(serialize.to_payload(mf))
        assert report.ok and report.subject == "monoidal_functor"

    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, key.name)
            for kind, entry in serialize.SCHEMA.items()
            for key in entry.keys
            if isinstance(key.leaf, serialize.Nested)
        ],
    )
    def test_every_nested_part_is_checked_first(self, tmp_path, kind, key):
        valid = _SAMPLE_OF[kind]
        assert _validate_exit(tmp_path, valid) == 0
        swapped = 0
        for part in _breaches(valid[key]):
            payload = {**valid, key: part}
            if not _builds(payload):
                continue
            swapped += 1
            assert _validate_exit(tmp_path, payload) == 1, part
            report = serialize.validate_payload(payload)
            assert report.violations and not report.structural
            assert all(v.axiom.startswith(f"{key}-") for v in report.violations), report.to_payload()
        assert swapped


# a commutative monoid whose die, its unit 0, is invertible, and two breaches
# of it, each with its one finding: a die without an inverse, and a table
# that is not commutative
_CMON = {"kind": "monoid", "size": 3, "unit": 0, "mul": [[0, 1, 2], [1, 1, 1], [2, 1, 2]], "die": 0}
_CMON_BREACHES = {
    "no-inverse": ({**_CMON, "die": 1}, ("die-invertible", [1], "no inverse exists")),
    "non-commutative": (
        {**_CMON, "mul": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]},
        ("commutativity", [1, 2], "1*2 != 2*1"),
    ),
}


def _as_source(kind, monoid) -> dict:
    """`monoid` as the source of the identity-map functor into `_CMON`,
    or of that functor's identity transformation or modification."""
    f = {"kind": "dd_functor", "source": monoid, "target": _CMON, "map": [0, 1, 2], "m2": 0, "m0": 0}
    t = {"kind": "dd_transformation", "source_functor": f, "target_functor": f, "sigma": 0}
    return {
        "dd_functor": f,
        "dd_transformation": t,
        "dd_modification": {"kind": "dd_modification", "boundary": t, "gamma": 0},
    }[kind]


@pytest.mark.parametrize(
    "kind, prefix",
    [
        ("dd_functor", "source-"),
        ("dd_transformation", "source_functor-source-"),
        ("dd_modification", "boundary-source_functor-source-"),
    ],
)
@pytest.mark.parametrize("breach", list(_CMON_BREACHES))
def test_a_monoid_breach_reads_alike_at_every_depth(tmp_path, capsys, kind, prefix, breach):
    # the monoid entry checks a monoid part at every depth: the finding of
    # a file and of the same monoid nested differ only by the key prefix
    monoid, (axiom, where, message) = _CMON_BREACHES[breach]
    assert _validate_exit(tmp_path, _as_source(kind, _CMON)) == 0
    for payload, at in ((monoid, ""), (_as_source(kind, monoid), prefix)):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["--format", "json", "validate", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["structural"] == []
        assert report["violations"] == [{"axiom": at + axiom, "where": where, "message": message}]


@pytest.mark.parametrize("target", [*_SHIFTS, *_SEARCHES])
def test_shift_exits_as_validate_does(tmp_path, capsys, target):
    # the input of a shift direction or search target, valid and with each
    # breach of its kind at any depth, so a direction added to cli._SHIFTS
    # or a target added to cli._SEARCHES is covered without a new test; on
    # the valid file a search exits 0 or 1, by its finding
    if target in _SHIFTS:
        verb, cls = ["shift", "--" + target.replace("_", "-")], _SHIFTS[target][0]
    else:
        verb, cls = ["search", target], _SEARCHES[target][0]
    valid = serialize.to_payload(next(o for o in sample_structures() if isinstance(o, cls)))
    payloads = [valid, *_breaches(valid)]
    for payload in payloads:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        want = main(["validate", str(path)])
        capsys.readouterr()
        code = main([*verb, str(path)])
        out, err = capsys.readouterr()
        if payload is valid and verb[0] == "search":
            assert want == 0 and code in (0, 1), payload
        else:
            assert code == want, payload
            assert want == 0 or (out == "" and err.startswith("invalid structure: not a ")), payload
    assert len(payloads) > 1


# the first sample of each kind
_SAMPLE_OF = {}
for _obj in sample_structures():
    _SAMPLE_OF.setdefault(serialize.to_payload(_obj)["kind"], serialize.to_payload(_obj))


def _builds(payload) -> bool:
    try:
        serialize.structure_from_payload(payload)
    except StructuralError:
        return False
    return True


def _breaches(payload):
    """Copies of a valid payload, of the same kind and counts, each of
    which builds and breaks an axiom of its kind or of a part, at any
    depth: a change to its own keys, then each breach of each nested part
    in place of that part, where the whole still builds (the functors of
    a transformation must stay parallel, for one), and in place of a
    monoid part with a die, one of its size whose die has no inverse.  A
    kind with no index keys of its own, such as `degenerate_category`,
    has only its parts'."""
    keys = serialize.SCHEMA[payload["kind"]].keys
    if any(key.leaf in (serialize.INDEX, serialize.INDEX_OR_NULL) for key in keys):
        yield _own_breach(payload)
    for key in keys:
        if isinstance(key.leaf, serialize.Nested):
            parts = list(_breaches(payload[key.name]))
            if key.leaf == serialize.Nested("monoid", ("die",)) and payload[key.name]["size"] > 1:
                parts.append(_die_without_inverse(payload[key.name]["size"]))
            for part in parts:
                if _builds(candidate := {**payload, key.name: part}):
                    yield candidate


def _die_without_inverse(n) -> dict:
    """The commutative monoid max(x, y) on n > 1 elements, whose die n - 1
    has no inverse: its one unit is 0."""
    mul = [[max(x, y) for y in range(n)] for x in range(n)]
    return {"kind": "monoid", "size": n, "unit": 0, "mul": mul, "die": n - 1}


def _own_breach(payload):
    """A copy of a valid payload with the first change of one index of its
    own keys (not of a nested part's) that leaves it well formed but not
    valid.  A category whose every such change breaks its shape is rebuilt
    instead."""
    if payload["kind"] == "category":
        return _non_unital_category(payload["objects"], len(payload["morphisms"]))
    for key in serialize.SCHEMA[payload["kind"]].keys:
        if key.leaf not in (serialize.INDEX, serialize.INDEX_OR_NULL):
            continue
        n = payload
        for step in key.bound:
            n = n[step]
        values = [*range(len(n) if isinstance(n, list) else n), None]
        for path in _index_paths(payload[key.name], key.depth, [key.name]):
            for v in values[: None if key.leaf is serialize.INDEX_OR_NULL else -1]:
                candidate = json.loads(json.dumps(payload))
                _set(candidate, path, v)
                report = serialize.validate_payload(candidate)
                if report.well_formed and not report.ok:
                    return candidate
    raise AssertionError(f"no single index change breaks this {payload['kind']} payload")


def _index_paths(v, depth, path):
    if not depth:
        yield path
        return
    for i, x in enumerate(v):
        yield from _index_paths(x, depth - 1, path + [i])


def _non_unital_category(n, m) -> dict:
    """n objects and m > n arrows: the identities, and m - n more
    endomorphisms of object 0, where every composite is the identity."""
    ends = [(a, a) for a in range(n)] + [(0, 0)] * (m - n)
    return {
        "kind": "category",
        "objects": n,
        "morphisms": [{"src": a, "tgt": b} for a, b in ends],
        "identities": list(range(n)),
        "comp": [[ends[g][0] if ends[g][0] == ends[f][1] else None for f in range(m)] for g in range(m)],
    }
