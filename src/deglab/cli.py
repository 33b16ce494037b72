"""Command-line front end.

Exit codes: 0 the verdict holds, 1 an axiom or claim is violated (the
report carries witnesses), 2 structural or input error, or an output
error: standard output closed by its reader (a broken pipe), reported on
stderr as `output error:`.  All JSON output is canonical: sorted keys, no
insignificant whitespace, one trailing LF.
"""

import argparse
import functools
import io
import json
import sys

from . import serialize
from .degenerate import (
    DegenerateCategory,
    cat_to_monoid,
    find_nonidentity_nat_trans,
    monoid_to_cat,
)
from .doubly import (
    DDBicat,
    DDFunctor,
    analyze_weak_functor,
    build_ddbicat,
    extract_cmon_die,
    promote_lax,
    transformation_between,
    unfaithfulness_witness,
)
from .monoidal import (
    DegenerateBicategory,
    FinMonoidalCategory,
    shift_from_bicat,
    shift_to_bicat,
    unit_distobj_closure_witness,
)
from .monoids import CMonDIE, FiniteMonoid, cmon_die_universe, enumerate_monoids
from .report import InvalidStructureError, RefutationAlarm, StructuralError
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2


def _load(path: str):
    """The JSON value in the file at `path`.  A file that is not UTF-8, is
    not JSON, nests too deep to parse or holds an integer literal past
    Python's digit limit raises StructuralError with the parser's message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise StructuralError(str(exc)) from None


def _emit(payload, fmt: str, render_text):
    if fmt == "json":
        sys.stdout.write(serialize.canonical_dumps(payload))
    else:
        render_text(payload)


def _render_validation(payload):
    print(f"{payload['subject']}: {payload['verdict']}")
    for v in payload["structural"]:
        print(f"  structural {v['axiom']} at {tuple(v['where'])} {v['message']}".rstrip())
    for v in payload["violations"]:
        print(f"  {v['axiom']} at {tuple(v['where'])} {v['message']}".rstrip())


def _render_report(payload):
    header = payload.get("name", "report")
    bound = payload.get("bound")
    print(f"{header}: {payload['verdict']}" + (f" (bound {bound})" if bound else ""))
    for f in payload["findings"]:
        status = "pass" if f["passed"] else "FAIL"
        dim = f" [dim {f['dimension']}]" if f.get("dimension") is not None else ""
        detail = f" -- {f['detail']}" if f.get("detail") else ""
        extra = " (witness attached)" if f.get("witness") else ""
        print(f"  {status}{dim} {f['criterion']}{detail}{extra}")


def cmd_validate(args) -> int:
    report = serialize.validate_payload(_load(args.file))
    _emit(report.to_payload(), args.format, _render_validation)
    if report.structural:
        return EXIT_INPUT_ERROR
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _load_checked(path: str, cls, what: str, valid_what: str = ""):
    """The structure in the file at `path`, conformed, built and checked
    once, as `validate` checks it: an input error naming `what` unless it
    is a `cls`; else the error of the report's first finding, naming
    `valid_what` (default `what`): an input error if the report has
    structural entries (exit 2), else an invalid structure (exit 1).
    Every file that conforms is built, a monoid whose die has no inverse
    included, so the kind test reads the structure itself."""
    obj, report = serialize.checked_structure(_load(path))
    if not isinstance(obj, cls):
        raise StructuralError(f"expected {what}")
    if not report.well_formed:
        raise StructuralError(f"not {valid_what or what}: {report.structural[0].axiom}")
    if not report.ok:
        raise InvalidStructureError(f"not {valid_what or what}: {report.violations[0].axiom}")
    return obj


# direction: the structure it takes, that structure's file, the shift
_SHIFTS = {
    "to_cmon": (DDBicat, "a ddbicat file", extract_cmon_die),
    "to_ddbicat": (CMonDIE, "a monoid file with a die", build_ddbicat),
    "to_moncat": (DegenerateBicategory, "a degenerate_bicat file", shift_from_bicat),
    "to_degbicat": (FinMonoidalCategory, "a moncat file", shift_to_bicat),
    "to_monoid": (DegenerateCategory, "a degenerate_category file", cat_to_monoid),
    "to_category": (FiniteMonoid, "a monoid file without a die", monoid_to_cat),
}


def cmd_shift(args) -> int:
    cls, what, shift = _SHIFTS[args.direction]
    result = shift(_load_checked(args.file, cls, what))
    text = serialize.canonical_dumps(serialize.to_payload(result))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze_functor(args) -> int:
    f = serialize.structure_from_payload(_load(args.file), "dd_functor")
    b1, b2 = build_ddbicat(f.source), build_ddbicat(f.target)
    if args.lax:
        promoted = promote_lax(b1, b2, f.map, f.m, f.m0)
        out = {
            "verdict": "valid",
            "functor": serialize.to_payload(promoted),
            "note": "lax data promoted to a weak functor",
        }
        _emit(out, args.format, lambda p: print("lax data promoted; functor is weak"))
        return EXIT_OK
    functor, report = analyze_weak_functor(b1, b2, f.map, f.m, f.m0)
    out = report.to_payload()
    if functor is not None:
        out["functor"] = serialize.to_payload(functor)
    _emit(out, args.format, _render_validation)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_compare(args) -> int:
    f, g = (
        _load_checked(path, DDFunctor, "a dd_functor file", "a weak functor")
        for path in (args.first, args.second)
    )
    t = transformation_between(f, g)
    if t is None:
        payload = {"verdict": "no-transformation", "reason": "underlying homomorphisms differ"}
        _emit(payload, args.format, lambda p: print("no transformation: homomorphisms differ"))
        return EXIT_VIOLATION
    payload = {
        "verdict": "unique-transformation",
        "transformation": serialize.to_payload(t),
    }
    _emit(payload, args.format, lambda p: print(f"unique transformation with component {t.sigma}"))
    return EXIT_OK


def _nonidentity_nat_trans(obj, level):
    t = find_nonidentity_nat_trans(obj.monoid if isinstance(obj, CMonDIE) else obj)
    payload = {"found": t is not None, "witness": None if t is None else serialize.to_payload(t)}
    return t is not None, payload, "found" if t is not None else "absent"


def _unfaithful(s, level):
    pair = unfaithfulness_witness(level, s)
    witness = None if pair is None else [serialize.to_payload(x) for x in pair]
    payload = {"found": pair is not None, "witness": witness}
    return pair is not None, payload, "counterexample found" if pair else "no counterexample"


def _unit_closure(mc, level):
    _, _, comp, closed = unit_distobj_closure_witness(mc)
    payload = {"closed": closed, "composite": serialize.to_payload(comp)}
    return not closed, payload, "closed under composition" if closed else "closure fails"


# target: the structure it takes, that structure's file, what the structure
# must be, the search of (structure, level) -> (found, payload, text line)
_SEARCHES = {
    "nonidentity-nat-trans": (
        (FiniteMonoid, CMonDIE), "a monoid file", "a monoid", _nonidentity_nat_trans
    ),
    "unfaithful": (
        CMonDIE, "a monoid file with a die", "a commutative monoid with a die", _unfaithful
    ),
    "unit-closure": (FinMonoidalCategory, "a moncat file", "a monoidal category", _unit_closure),
}


def cmd_search(args) -> int:
    cls, what, valid_what, search = _SEARCHES[args.what]
    found, payload, line = search(_load_checked(args.file, cls, what, valid_what), args.level)
    _emit(payload, args.format, lambda p: print(line))
    return EXIT_OK if found else EXIT_VIOLATION


def cmd_enumerate(args) -> int:
    if args.dies:
        structures = cmon_die_universe(args.size)
    else:
        structures = enumerate_monoids(args.size, commutative_only=args.commutative)
    items = [serialize.to_payload(s) for s in structures]
    payload = {"count": len(items), "items": items}
    _emit(payload, args.format, lambda p: print(f"{p['count']} structures"))
    return EXIT_OK


def cmd_suite(args) -> int:
    report = run_suite(args.name, bound=args.bound)
    _emit(report.to_payload(), args.format, _render_report)
    return EXIT_OK if report.ok else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: construction costs far more than a parse, and
    # parse_args returns a fresh namespace on every call
    parser = argparse.ArgumentParser(
        prog="deglab",
        description="Validate, shift, and compare finite degenerate categorical structures.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the axiom checker for a structure file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("shift", help="relabel a structure across the dimension shift")
    group = p.add_mutually_exclusive_group(required=True)
    for name in _SHIFTS:
        flag = "--" + name.replace("_", "-")
        group.add_argument(flag, dest="direction", action="store_const", const=name)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_shift)

    p = sub.add_parser("analyze-functor", help="reduce raw weak-functor data")
    p.add_argument("file")
    p.add_argument("--lax", action="store_true", help="promote lax data instead")
    p.set_defaults(fn=cmd_analyze_functor)

    p = sub.add_parser("compare", help="the unique transformation between two functors, if any")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("search", help="hunt for witnesses and counterexamples")
    p.add_argument("what", choices=tuple(_SEARCHES))
    p.add_argument("file")
    p.add_argument("--level", type=int, default=1, choices=(1, 3))
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("enumerate", help="enumerate monoids up to isomorphism")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--dies", action="store_true", help="emit (monoid, element) pairs")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", choices=sorted(SUITES))
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        sys.stdout = io.StringIO()  # holds no descriptor, so nothing leaks
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (StructuralError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InvalidStructureError as exc:
        print(f"invalid structure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except RefutationAlarm as exc:
        print(f"refutation alarm: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
