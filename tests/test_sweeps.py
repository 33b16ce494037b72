"""The sweeps of `sweeps.py`: each at its tier-1 size, the script's exit
codes, mutants that the sweeps must catch, and the CI workflow read
against the registry."""

import re
from pathlib import Path

import pytest

import sweeps
from deglab import doubly, equivalence, monoids

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


@pytest.mark.parametrize("name", list(sweeps.SWEEPS))
def test_tier1_size(capsys, name):
    size = min(sweeps.SWEEPS[name][1])
    assert sweeps.main([name, str(size)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [[], ["restrict"], ["restrict", "4"], ["restrict", "٣"], ["restrict", " 3"], ["nope", "3"],
     ["restrict", "3", "3"]],
)
def test_unlisted_name_or_size_exits_two(capsys, argv):
    assert sweeps.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: sweeps.py NAME SIZE")


def test_dropped_hom_map_fails_the_oracle(monkeypatch, capsys):
    real, last = monoids.hom_maps, monoids.enumerate_monoids(4)[-1]
    monkeypatch.setattr(
        monoids, "hom_maps", lambda a, b: real(a, b)[:-1] if a is b is last else real(a, b)
    )
    assert sweeps.main(["hom-maps-oracle", "4"]) == 1
    assert "hom-maps-oracle 4 (2025, 7893, 1), expected (2025, 7894, 0)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["orbit-count", "orbit-count-commutative"])
def test_orbit_counts_need_no_enumeration(monkeypatch, capsys, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit count read deglab.monoids")

    for fn in ("enumerate_monoids", "canonical_form"):
        monkeypatch.setattr(monoids, fn, refuse)
    monkeypatch.setattr(sweeps, "enumerate_monoids", refuse)
    size = min(sweeps.SWEEPS[name][1])
    assert sweeps.main([name, str(size)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("criterion, disagreements", [("_first_clash", 62), ("_first_unhit", 242)])
def test_a_dropped_criterion_disagrees_with_the_definition(monkeypatch, capsys, criterion, disagreements):
    # without local faithfulness, or (local) essential surjectivity at every
    # dimension, 0-cells included, the checker passes functors that have no
    # pseudo-inverse
    monkeypatch.setattr(equivalence, criterion, lambda fun, dim: None)
    assert sweeps.main(["definition", "3"]) == 1
    assert f"definition 3 (589, 77, {disagreements}), expected (589, 77, 0)" in capsys.readouterr().out


def test_wrong_composite_fails_the_law_checks(monkeypatch, capsys):
    # the two-truncation universe composes its 1-cells' keys (map, m, monoid)
    compose = doubly._compose_keys

    def wrong(g, f):
        # the composite's other element, where its target has one to swap to
        hmap, m, target = compose(g, f)
        others = [u for u in monoids.units(target) if u != m]
        return (hmap, others[0] if others else m, target)

    monkeypatch.setattr(doubly, "_compose_keys", wrong)
    assert sweeps.main(["law-checks", "2"]) == 1
    assert "law-checks 2 ('two-truncation 2 source',), expected ()" in capsys.readouterr().out


def test_ci_runs_every_other_size_once():
    text = WORKFLOW.read_text(encoding="utf-8")
    runs = re.findall(r"python tests/sweeps\.py (\S+) (\S+)$", text, re.M)
    want = [
        (name, str(size)) for name, (_, pins) in sweeps.SWEEPS.items() for size in pins if size != min(pins)
    ]
    assert sorted(runs) == sorted(want)
    assert "<<" not in text and not re.search(r"\bpython3? +-c? ", text)
