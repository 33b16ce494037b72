import json
import os
import re
import subprocess
import sys

import pytest

from dataclasses import replace
from pathlib import Path

import deglab
from deglab import serialize
from deglab.cli import _SEARCHES, _SHIFTS, main
from deglab.degenerate import DegenerateCategory
from deglab.doubly import DDBicat, build_ddbicat, identity_dd_functor, make_dd_functor
from deglab.examples import nand_pair, sign_category, zmod
from deglab.monoidal import (
    DegenerateBicategory,
    FinMonoidalCategory,
    identity_deg_transformation,
    identity_monoidal_functor,
    shift_to_bicat,
)
from deglab.monoids import (
    CMonDIE,
    FiniteMonoid,
    enumerate_dies,
    enumerate_monoids,
    hom_maps,
    identity_hom,
    make_cmon_die,
)
from deglab.report import StructuralError
from deglab.suites import SUITES, run_suite
from samples import sample_structures


def write_payload(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(serialize.canonical_dumps(payload), encoding="utf-8")
    return str(path)


def z2_die(d=1):
    return make_cmon_die(zmod(2), d)


class TestValidateVerb:
    def test_valid_structure_exit_zero(self, tmp_path, capsys):
        path = write_payload(tmp_path, "b.json", serialize.to_payload(build_ddbicat(z2_die())))
        assert main(["validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_axiom_violation_exit_one(self, tmp_path, capsys):
        payload = serialize.to_payload(build_ddbicat(z2_die()))
        payload["assoc"] = 1
        path = write_payload(tmp_path, "bad.json", payload)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "pentagon" in out or "invertible" in out

    def test_structural_error_exit_two(self, tmp_path, capsys):
        path = write_payload(tmp_path, "odd.json", {"kind": "monoid", "size": 2, "unit": 0})
        assert main(["validate", path]) == 2

    def test_unknown_key_exit_two(self, tmp_path):
        payload = serialize.to_payload(zmod(2))
        payload["surprise"] = True
        path = write_payload(tmp_path, "m.json", payload)
        assert main(["validate", path]) == 2

    def test_structural_report_exit_two(self, tmp_path, capsys):
        # one object, one morphism, and the composite of the identity with
        # itself left undefined: well typed, but not a category's shape
        payload = {
            "kind": "category",
            "objects": 1,
            "morphisms": [{"src": 0, "tgt": 0}],
            "identities": [0],
            "comp": [[None]],
        }
        path = write_payload(tmp_path, "c.json", payload)
        assert main(["--format", "json", "validate", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [v["axiom"] for v in report["structural"]] == ["composition-missing"]

    def test_coerced_value_exit_two(self, tmp_path, capsys):
        payload = serialize.to_payload(zmod(2))
        payload["mul"][1][1] = 0.0
        path = write_payload(tmp_path, "m.json", payload)
        assert main(["validate", path]) == 2
        assert "mul/1/1: expected int, got float" in capsys.readouterr().err

    def test_short_functor_map_exit_two(self, tmp_path, capsys):
        payload = serialize.to_payload(identity_dd_functor(z2_die()))
        payload["map"] = payload["map"][:1]
        path = write_payload(tmp_path, "f.json", payload)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == "input error: map: expected 2 entries, got 1\n"

    def test_nat_trans_between_non_homomorphisms_exit_one(self, tmp_path, capsys):
        # from the OR monoid to Z/2, F = G sends the unit to 1; d = 0 is natural
        or_monoid = {"kind": "monoid", "size": 2, "unit": 0, "mul": [[0, 1], [1, 1]]}
        payload = {
            "kind": "nat_trans",
            "source": or_monoid,
            "target": serialize.to_payload(zmod(2)),
            "F": [1, 1],
            "G": [1, 1],
            "d": 0,
        }
        path = write_payload(tmp_path, "t.json", payload)
        assert main(["--format", "json", "validate", path]) == 1
        axioms = {v["axiom"] for v in json.loads(capsys.readouterr().out)["violations"]}
        assert {"F-unit-preservation", "G-unit-preservation"} <= axioms
        assert "naturality" not in axioms

    def test_json_format_is_canonical(self, tmp_path, capsys):
        path = write_payload(tmp_path, "m.json", serialize.to_payload(zmod(2)))
        assert main(["--format", "json", "validate", path]) == 0
        out = capsys.readouterr().out
        assert out == serialize.canonical_dumps(json.loads(out))


def assert_input_error(argv, capsys, message=""):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err and "Traceback" not in err


class TestUnreadableInput:
    """Every file that cannot be read as JSON exits 2 with an input error."""

    def test_missing_file(self, tmp_path, capsys):
        assert_input_error(["validate", str(tmp_path / "absent.json")], capsys, "No such file")

    def test_bad_json(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        assert_input_error(["validate", str(tmp_path / "bad.json")], capsys, "Expecting")

    def test_validate_directory(self, tmp_path, capsys):
        assert_input_error(["validate", str(tmp_path)], capsys)

    def test_compare_directories(self, tmp_path, capsys):
        assert_input_error(["compare", str(tmp_path), str(tmp_path)], capsys)

    def test_not_utf8(self, tmp_path, capsys):
        (tmp_path / "latin.json").write_bytes(b'{"kind": "monoid\xe9"}')
        assert_input_error(["validate", str(tmp_path / "latin.json")], capsys, "utf-8")

    def test_nested_past_the_recursion_limit(self, tmp_path, capsys):
        (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
        assert_input_error(["validate", str(tmp_path / "deep.json")], capsys, "recursion")

    def test_integer_literal_of_5000_digits(self, tmp_path, capsys):
        # past Python's digit limit where it has one; else a size no table fits
        text = '{"kind": "monoid", "size": ' + "1" * 5000 + ', "unit": 0, "mul": [[0]]}'
        (tmp_path / "long.json").write_text(text, encoding="utf-8")
        assert_input_error(["validate", str(tmp_path / "long.json")], capsys)

    def test_shift_output_to_a_directory(self, tmp_path, capsys):
        path = write_payload(tmp_path, "m.json", serialize.to_payload(zmod(2)))
        assert_input_error(["shift", "--to-category", path, "-o", str(tmp_path)], capsys)


class _ClosedStdout:
    """A standard output whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedOutput:
    """A closed standard output exits 2 as an output error, not an input error."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_broken_pipe_is_an_output_error(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["--format", fmt, "enumerate", "--size", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and "Broken pipe" in err
        assert "input error" not in err and "Traceback" not in err
        assert not isinstance(sys.stdout, _ClosedStdout)
        print("after", file=sys.stdout)  # the exit flush cannot raise again

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_pipe_without_a_reader(self, unbuffered):
        # the write fails with EPIPE inside the verb when unbuffered, and at
        # main's flush otherwise; neither reaches the interpreter's exit flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "deglab", "enumerate", "--size", "2"],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr.startswith("output error:")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


class TestShiftVerb:
    def test_ddbicat_to_cmon(self, tmp_path, capsys):
        path = write_payload(tmp_path, "b.json", serialize.to_payload(build_ddbicat(z2_die())))
        assert main(["shift", "--to-cmon", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "monoid" and payload["die"] == 1

    def test_round_trip_files_byte_identical(self, tmp_path, capsys):
        start = write_payload(tmp_path, "s.json", serialize.to_payload(z2_die()))
        mid = str(tmp_path / "mid.json")
        end = str(tmp_path / "end.json")
        assert main(["shift", "--to-ddbicat", start, "-o", mid]) == 0
        assert main(["shift", "--to-cmon", mid, "-o", end]) == 0
        assert (tmp_path / "end.json").read_bytes() == (tmp_path / "s.json").read_bytes()

    def test_moncat_round_trip_byte_identical(self, tmp_path):
        start = write_payload(tmp_path, "mc.json", serialize.to_payload(sign_category()))
        mid = str(tmp_path / "b.json")
        end = str(tmp_path / "back.json")
        assert main(["shift", "--to-degbicat", start, "-o", mid]) == 0
        assert main(["shift", "--to-moncat", mid, "-o", end]) == 0
        assert (tmp_path / "back.json").read_bytes() == (tmp_path / "mc.json").read_bytes()

    def test_monoid_to_category_and_back(self, tmp_path, capsys):
        start = write_payload(tmp_path, "m.json", serialize.to_payload(zmod(3)))
        mid = str(tmp_path / "c.json")
        end = str(tmp_path / "m2.json")
        assert main(["shift", "--to-category", start, "-o", mid]) == 0
        assert main(["shift", "--to-monoid", mid, "-o", end]) == 0
        assert (tmp_path / "m2.json").read_bytes() == (tmp_path / "m.json").read_bytes()

    def test_to_monoid_refuses_a_non_unital_hom(self, tmp_path, capsys):
        payload = serialize.to_payload(DegenerateCategory(zmod(2)))
        payload["hom"]["mul"] = [[1, 1], [1, 1]]
        path = write_payload(tmp_path, "c.json", payload)
        assert main(["validate", path]) == 1
        capsys.readouterr()
        assert main(["shift", "--to-monoid", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "invalid structure: not a degenerate_category file: hom-unit\n"

    def test_to_degbicat_refuses_a_flipped_associator(self, tmp_path, capsys):
        payload = serialize.to_payload(sign_category())
        payload["assoc"][0][1][1] ^= 1
        path = write_payload(tmp_path, "mc.json", payload)
        assert main(["validate", path]) == 1
        assert main(["shift", "--to-degbicat", path]) == 1
        assert capsys.readouterr().err == "invalid structure: not a moncat file: assoc-invertible\n"

    def test_to_moncat_refuses_a_flipped_associator(self, tmp_path, capsys):
        # the file the flipped sign category shifted to before the gate
        payload = serialize.to_payload(shift_to_bicat(sign_category()))
        payload["assoc"][0][1][1] ^= 1
        path = write_payload(tmp_path, "b.json", payload)
        assert main(["validate", path]) == 1
        assert main(["shift", "--to-moncat", path]) == 1
        err = capsys.readouterr().err
        assert err == "invalid structure: not a degenerate_bicat file: assoc-invertible\n"

    def test_readme_rows_are_the_shift_table(self):
        # each `shift` row of the README's "verb | input `kind`" table names
        # a direction of cli._SHIFTS and the file its `expected ...` error
        # names; each `search` row names a target of cli._SEARCHES and,
        # before any comma, the file its error names
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

        def words(what):
            return " ".join(w for w in what.split() if w not in ("a", "file"))

        rows = dict(re.findall(r"^\| `shift --(to-[a-z]+)` \| (.+?) \|$", readme, re.M))
        want = {name.replace("_", "-"): words(what) for name, (_, what, _) in _SHIFTS.items()}
        assert {d: text.replace("`", "") for d, text in rows.items()} == want
        rows = dict(re.findall(r"^\| `search ([a-z-]+)` \| (.+?) \|$", readme, re.M))
        want = {name: words(entry[1]) for name, entry in _SEARCHES.items()}
        assert {t: text.replace("`", "").split(",")[0] for t, text in rows.items()} == want


class TestFunctorVerbs:
    def test_analyze_valid(self, tmp_path, capsys):
        f = identity_dd_functor(z2_die())
        path = write_payload(tmp_path, "f.json", serialize.to_payload(f))
        assert main(["analyze-functor", path]) == 0

    def test_analyze_invalid_unit_equation(self, tmp_path):
        payload = serialize.to_payload(identity_dd_functor(z2_die()))
        payload["m0"] = 1  # breaks the unit equation
        path = write_payload(tmp_path, "f.json", payload)
        assert main(["analyze-functor", path]) == 1

    def test_lax_promotion_path(self, tmp_path):
        s = z2_die(0)
        f = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        path = write_payload(tmp_path, "f.json", serialize.to_payload(f))
        assert main(["analyze-functor", "--lax", path]) == 0

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_analyze_refuses_a_die_without_an_inverse(self, tmp_path, capsys, end):
        # refused by the axiom check of either end, as a die that breaks
        # another axiom is
        payload = serialize.to_payload(identity_dd_functor(z2_die()))
        payload[end] = _NO_INVERSE
        path = write_payload(tmp_path, "f.json", payload)
        assert main(["analyze-functor", path]) == 1
        err = capsys.readouterr().err
        assert err == "invalid structure: invalid commutative-monoid-with-element input\n"

    def test_analyze_rejects_other_kinds(self, tmp_path, capsys):
        path = write_payload(tmp_path, "m.json", serialize.to_payload(zmod(2)))
        assert main(["analyze-functor", path]) == 2
        assert "expected a dd_functor payload" in capsys.readouterr().err

    def test_compare_rejects_other_kinds(self, tmp_path, capsys):
        f = write_payload(tmp_path, "f.json", serialize.to_payload(identity_dd_functor(z2_die())))
        b = write_payload(tmp_path, "b.json", serialize.to_payload(build_ddbicat(z2_die())))
        assert main(["compare", f, b]) == 2
        assert main(["compare", b, f]) == 2
        assert capsys.readouterr().err == "input error: expected a dd_functor file\n" * 2

    def test_compare_checks_nested_types(self, tmp_path):
        payload = serialize.to_payload(identity_dd_functor(z2_die()))
        payload["source"]["die"] = True
        f = write_payload(tmp_path, "f.json", serialize.to_payload(identity_dd_functor(z2_die())))
        g = write_payload(tmp_path, "g.json", payload)
        assert main(["compare", f, g]) == 2

    @pytest.mark.parametrize("key, value", [("lax", 1), ("oplax", "yes")])
    def test_deg_transformation_flags_not_coerced(self, tmp_path, key, value):
        payload = serialize.to_payload(
            identity_deg_transformation(identity_monoidal_functor(sign_category()))
        )
        assert main(["validate", write_payload(tmp_path, "t.json", payload)]) == 0
        payload[key] = value
        assert main(["validate", write_payload(tmp_path, "t.json", payload)]) == 2

    def test_compare_refuses_an_invalid_functor(self, tmp_path, capsys):
        payload = serialize.to_payload(identity_dd_functor(z2_die()))
        payload["map"] = [1, 0]  # the unit goes to 1
        path = write_payload(tmp_path, "f.json", payload)
        assert main(["validate", path]) == 1
        assert main(["compare", path, path]) == 1
        err = capsys.readouterr().err
        assert err == "invalid structure: not a weak functor: hom-unit-preservation\n"

    def test_compare_parallel_functors(self, tmp_path, capsys):
        s = z2_die()
        f = make_dd_functor(s, s, identity_hom(s.monoid).map, 1)
        g = make_dd_functor(s, s, identity_hom(s.monoid).map, 0)
        pf = write_payload(tmp_path, "f.json", serialize.to_payload(f))
        pg = write_payload(tmp_path, "g.json", serialize.to_payload(g))
        assert main(["--format", "json", "compare", pf, pg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transformation"]["sigma"] == 1


class TestSearchVerb:
    def test_nonidentity_nat_trans_found(self, tmp_path, capsys):
        path = write_payload(tmp_path, "m.json", serialize.to_payload(zmod(2)))
        assert main(["--format", "json", "search", "nonidentity-nat-trans", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] and payload["witness"]["d"] == 1

    def test_unfaithful_level_one(self, tmp_path, capsys):
        path = write_payload(tmp_path, "s.json", serialize.to_payload(z2_die(0)))
        assert main(["--format", "json", "search", "unfaithful", "--level", "1", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] and len(payload["witness"]) == 2

    def test_nonidentity_nat_trans_refuses_a_non_monoid(self, tmp_path, capsys):
        payload = {"kind": "monoid", "size": 2, "unit": 0, "mul": [[1, 1], [1, 1]]}
        path = write_payload(tmp_path, "m.json", payload)
        assert main(["validate", path]) == 1
        assert main(["search", "nonidentity-nat-trans", path]) == 1
        assert capsys.readouterr().err == "invalid structure: not a monoid: unit\n"

    def test_unfaithful_refuses_a_non_associative_die(self, tmp_path, capsys):
        payload = {"kind": "monoid", "size": 3, "unit": 0, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 2]]}
        path = write_payload(tmp_path, "s.json", {**payload, "die": 1})
        assert main(["validate", path]) == 1
        assert main(["search", "unfaithful", path]) == 1
        err = capsys.readouterr().err
        assert err == "invalid structure: not a commutative monoid with a die: associativity\n"

    def test_unit_closure_failure(self, tmp_path, capsys):
        path = write_payload(tmp_path, "mc.json", serialize.to_payload(nand_pair()))
        assert main(["--format", "json", "search", "unit-closure", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed"] is False


    def test_unit_closure_structural_target_exit_two(self, tmp_path, capsys):
        # the right unitor's components land on the wrong object
        bad = replace(sign_category(), runit=(2, 2))
        path = write_payload(tmp_path, "mc.json", serialize.to_payload(bad))
        assert main(["validate", path]) == 2
        assert main(["search", "unit-closure", path]) == 2
        assert "runit-endpoints" in capsys.readouterr().err

    def test_unit_closure_axiom_violation_exit_one(self, tmp_path, capsys):
        sc = sign_category()
        assoc = [[list(col) for col in plane] for plane in sc.assoc]
        assoc[0][1][1] ^= 1
        flipped = tuple(tuple(tuple(col) for col in plane) for plane in assoc)
        path = write_payload(
            tmp_path, "mc.json", serialize.to_payload(replace(sc, assoc=flipped, assoc_inv=flipped))
        )
        assert main(["validate", path]) == 1
        assert main(["search", "unit-closure", path]) == 1
        assert "pentagon" in capsys.readouterr().err



# a commutative monoid whose die has no inverse: `validate` reports it (exit
# 1), and each verb that takes a monoid file with a die exits as it does,
# naming the same finding; a verb that takes another kind refuses the kind
_NO_INVERSE = {"kind": "monoid", "size": 2, "unit": 0, "mul": [[0, 1], [1, 1]], "die": 1}


@pytest.mark.parametrize(
    "verb, err",
    [
        (["shift", "--to-ddbicat"],
         "invalid structure: not a monoid file with a die: die-invertible\n"),
        (["search", "unfaithful"],
         "invalid structure: not a commutative monoid with a die: die-invertible\n"),
        (["search", "nonidentity-nat-trans"], "invalid structure: not a monoid: die-invertible\n"),
        (["shift", "--to-category"], "input error: expected a monoid file without a die\n"),
        (["search", "unit-closure"], "input error: expected a moncat file\n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_a_die_without_an_inverse_exits_as_validate_does(tmp_path, capsys, verb, err):
    path = write_payload(tmp_path, "s.json", _NO_INVERSE)
    assert main(["validate", path]) == 1
    assert "die-invertible at (1,) no inverse exists" in capsys.readouterr().out
    assert main([*verb, path]) == (1 if err.startswith("invalid") else 2)
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "verb", [["shift", "--to-ddbicat"], ["search", "unfaithful"], ["compare"]]
)
def test_a_file_is_conformed_built_and_checked_once(tmp_path, capsys, monkeypatch, verb):
    # records each top-level call; one made from within a call of its own
    # name (a nested part built or checked) is part of that call
    calls, running = [], set()
    for name in ("_conformed", "_build", "_verdict", "structure_from_payload"):

        def spy(*a, name=name, real=getattr(serialize, name)):
            if name in running:
                return real(*a)
            calls.append(name)
            running.add(name)
            try:
                return real(*a)
            finally:
                running.discard(name)

        monkeypatch.setattr(serialize, name, spy)
    s = z2_die(1)
    if verb == ["compare"]:
        # two parallel functors: each file conformed, built and checked once
        # as `validate` checks it, and never loaded unchecked
        paths = [
            write_payload(tmp_path, f"{m}.json", serialize.to_payload(
                make_dd_functor(s, s, identity_hom(s.monoid).map, m)
            ))
            for m in (1, 0)
        ]
        want = ["_build", "_build", "_conformed", "_conformed", "_verdict", "_verdict"]
    else:
        paths = [write_payload(tmp_path, "s.json", serialize.to_payload(s))]
        want = ["_build", "_conformed", "_verdict"]
    assert main(["--format", "json", *verb, *paths]) == 0
    assert sorted(calls) == want


# every shift direction and search target, with the structures it takes
_VERBS = {
    **{("shift", "--" + name.replace("_", "-")): cls for name, (cls, _, _) in _SHIFTS.items()},
    **{("search", name): entry[0] for name, entry in _SEARCHES.items()},
}
_SAMPLES = list(sample_structures())


def _sample_id(obj):
    return serialize.to_payload(obj)["kind"] + ("+die" if isinstance(obj, CMonDIE) else "")


@pytest.mark.parametrize("verb", list(_VERBS), ids=" ".join)
@pytest.mark.parametrize("obj", _SAMPLES, ids=_sample_id)
def test_every_verb_on_every_kind(tmp_path, capsys, verb, obj):
    path = write_payload(tmp_path, "in.json", serialize.to_payload(obj))
    code = main([*verb, path])
    err = capsys.readouterr().err
    if isinstance(obj, _VERBS[verb]):
        assert code in (0, 1)
    else:
        assert code == 2
        assert err.startswith("input error: expected a")


class TestEnumerateAndSuite:
    def test_enumerate_counts(self, capsys):
        assert main(["--format", "json", "enumerate", "--size", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 7

    def test_enumerate_bound_refusal(self, monkeypatch, capsys):
        monkeypatch.setenv("DEGLAB_MAX_SIZE", "2")
        assert main(["enumerate", "--size", "3"]) == 2

    @pytest.mark.parametrize("raw", ["abc", "5.0", "-1", "6_0", " 4", "4 ", "+4", "٤"])
    @pytest.mark.parametrize("extra", [[], ["--commutative"], ["--dies"]])
    def test_enumerate_refuses_bad_bound(self, monkeypatch, capsys, raw, extra):
        # refused, not read as the default bound
        monkeypatch.setenv("DEGLAB_MAX_SIZE", raw)
        assert main(["enumerate", "--size", "2", *extra]) == 2
        err = capsys.readouterr().err
        assert "DEGLAB_MAX_SIZE" in err and repr(raw) in err
        assert ("is negative" if raw == "-1" else "is not an integer") in err

    @pytest.mark.parametrize("extra", [[], ["--commutative"], ["--dies"]])
    def test_enumerate_refuses_negative_size(self, capsys, extra):
        assert main(["enumerate", "--size", "-1", *extra]) == 2
        assert "negative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--commutative"], ["--dies"]])
    def test_enumerate_size_zero_is_empty(self, capsys, extra):
        assert main(["--format", "json", "enumerate", "--size", "0", *extra]) == 0
        assert json.loads(capsys.readouterr().out) == {"count": 0, "items": []}

    def test_suite_runs(self, capsys):
        assert main(["suite", "thm-dc", "--bound", "3"]) == 0

    @pytest.mark.parametrize(
        "name", ["thm-dc", "thm-dce", "thm-vdb", "thm-vdbe", "thm-db", "thm-moncat-xi"]
    )
    def test_suite_refuses_bound_zero(self, capsys, name):
        # an empty universe would pass vacuously (or, for thm-dce, fail)
        assert main(["suite", name, "--bound", "0"]) == 2
        captured = capsys.readouterr()
        assert "below 1" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "name, bound, message",
        [
            ("thm-dce", True, "bound: expected int, got bool"),
            ("thm-db", "3", "bound: expected int, got str"),
            ("thm-dce", 2.0, "bound: expected int, got float"),
        ],
    )
    def test_run_suite_refuses_a_bound_that_is_not_an_int(self, name, bound, message):
        # refused, not run as bound 1, written into the header or a TypeError
        with pytest.raises(StructuralError, match=f"^{message}$"):
            run_suite(name, bound=bound)

    @pytest.mark.parametrize(
        "name, findings",
        [
            (
                "thm-dce",
                [(
                    "two-dimensional-extension-not-locally-full",
                    "no commutative monoid of size <= 1 has >1 element, so no witness",
                )],
            ),
            ("thm-vdb", [("tampering-detected", "no instance of size <= 1 has two cells to tamper with")]),
            (
                "thm-vdbe",
                [
                    (
                        "level-1-comparison-not-faithful",
                        "no instance of size <= 1 has a non-unit invertible element, so no witness",
                    ),
                    (
                        "level-3-comparison-not-locally-faithful",
                        "no instance of size <= 1 has two elements, so no witness",
                    ),
                    (
                        "level-1-witness",
                        "no instance of size <= 1 has a non-unit invertible element, so no witness",
                    ),
                    ("level-3-witness", "no instance of size <= 1 has two elements, so no witness"),
                ],
            ),
        ],
        ids=["thm-dce", "thm-vdb", "thm-vdbe"],
    )
    def test_a_finding_over_an_empty_sweep_fails(self, capsys, name, findings):
        # at bound 1 these findings' sweeps are empty: each fails and says
        # so, not passes on all([]) or 0/0, nor is left out
        assert main(["--format", "json", "suite", name, "--bound", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fail"
        failed = [f for f in payload["findings"] if not f["passed"]]
        assert [(f["criterion"], f["detail"], f["witness"]) for f in failed] == [
            (criterion, detail, None) for criterion, detail in findings
        ]

    def test_suite_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "thm-vdb", "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        # the header still carries the key, always null
        assert main(["--format", "json", "suite", "thm-vdb"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "seed" in payload and payload["seed"] is None

    def test_suite_json_replayable_witnesses(self, tmp_path, capsys):
        assert main(["--format", "json", "suite", "thm-vdbe", "--bound", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        items = []
        for finding in payload["findings"]:
            w = finding["witness"]
            if w is None:
                continue
            items.extend(w if isinstance(w, list) else [w])
        replayed = 0
        for item in items:
            if not isinstance(item, dict) or "structure" not in item:
                continue
            path = write_payload(tmp_path, f"w{replayed}.json", item["structure"])
            code = main(["validate", path])
            capsys.readouterr()
            assert (code == 0) == (item["expected_verdict"] == "valid")
            replayed += 1
        assert replayed > 0


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deglab", "enumerate", "--size", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "2 structures" in proc.stdout


class TestWarmProcess:
    """Enumerations, dies and hom-sets are memoized for the life of the
    process and shared by every caller, so a warm process must read as a
    fresh one."""

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_bytes_match_a_fresh_process(self, name):
        env = dict(os.environ, PYTHONPATH=str(Path(deglab.__file__).parents[1]))
        cmd = [sys.executable, "-m", "deglab", "--format", "json", "suite", name]
        fresh = subprocess.run(cmd, capture_output=True, env=env, check=False)
        run_suite(name)
        warm = serialize.canonical_dumps(run_suite(name).to_payload())
        assert fresh.returncode == 0 and fresh.stdout.decode("utf-8") == warm

    def test_no_caller_changes_a_memoized_list(self):
        for name in sorted(SUITES):
            assert run_suite(name, bound=3).ok
        checked = 0
        for n in (1, 2, 3):
            for commutative in (False, True):
                for m in enumerate_monoids(n, commutative):
                    fresh = replace(m)
                    for key, (target, maps) in vars(m).get("_hom_maps", {}).items():
                        assert key == id(target)
                        assert maps == hom_maps(fresh, replace(target))
                        checked += 1
                    assert enumerate_dies(m) == enumerate_dies(fresh)
        # at least every pair of the thm-dce and thm-vdbe universes at bound 3
        assert checked >= 10 * 10 + 8 * 8
