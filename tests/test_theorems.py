"""Shape and coverage of the provable-step suites."""

import random

import pytest

import causetlab.theorems as theorems
from causetlab import Causet, InternalConsistencyError, enumerate_causets
from causetlab.principles import Caps
from causetlab.theorems import (
    composition_suite,
    dom_axiom_suite,
    partition_suite,
    region_identity_suite,
    replication_suite,
    run_all,
)


def test_region_suite_counts_every_spacelike_pair():
    suite = region_identity_suite(3)
    assert suite.passed
    # 1 + 2 + 5 causets; pair counts grow with antichain structure
    assert suite.checked == sum(
        1
        for n in range(1, 4)
        for causet in enumerate_causets(n)
        for _ in causet.spacelike_pairs()
    )


def _unclosed_dags(per_size: int, seed: int = 0, sizes=(3, 4, 5), density=0.5):
    # Seeded random DAGs (3-5 elements unless told otherwise) whose relation
    # is not transitively closed. Built with the internal constructor, they
    # break the order laws the region identities rest on, so the identities
    # fail on some pairs.
    rng = random.Random(seed)
    for n in sizes:
        made = 0
        while made < per_size:
            above = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        above[i] |= 1 << j
            if all(above[j] & ~above[i] == 0 for i in range(n) for j in range(n) if above[i] >> j & 1):
                continue
            made += 1
            yield Causet([f"e{i}" for i in range(n)], above)


def _point_complement(causet, r):
    # the points spacelike from every point of r, one point pair at a time
    return sum(
        1 << j
        for j in range(causet.n)
        if all(
            j != i and not causet._above[i] >> j & 1 and not causet._below[i] >> j & 1
            for i in range(causet.n)
            if r >> i & 1
        )
    )


def test_complement_table_matches_the_point_definition():
    causets = [c for n in range(1, 6) for c in enumerate_causets(n)]
    for causet in causets + list(_unclosed_dags(20)):
        expected = [_point_complement(causet, r) for r in range(causet.full + 1)]
        assert list(causet._complement_table) == expected, causet
        assert [causet.causal_complement(r) for r in range(causet.full + 1)] == expected
        for r in range(causet.full + 1):
            closure = expected[expected[r]]
            assert causet.causal_closure(r) == closure, (causet, r)
            assert causet.is_causally_finite(r) == bool(causet.past(closure) & ~closure)


def _reference_verdict(causet, ra, rb):
    report = causet.verify_crucial_identity(ra, rb)
    decomposes = causet.decomposes_truncated_past(ra, rb)
    untruncated = causet.mutual_past(ra, rb) & (ra | rb) == 0
    return report, decomposes, untruncated


def test_one_pass_check_equals_the_reference_methods_where_they_fail():
    outcomes = {True: 0, False: 0}
    broken = {"identity": 0, "enlarged_spacelike": 0}
    for causet in _unclosed_dags(20):
        expected_failing = []
        for ra, rb in causet.spacelike_pairs():
            report, decomposes, untruncated = _reference_verdict(causet, ra, rb)
            expected = report.holds and decomposes and untruncated
            if not expected:
                expected_failing.append((ra, rb))
            outcomes[expected] += 1
            broken["identity"] += report.enlarged_spacelike and not report.identity_holds
            broken["enlarged_spacelike"] += report.identity_holds and not report.enlarged_spacelike
        checked, failing = causet.region_identity_failures()
        assert checked == sum(1 for _ in causet.spacelike_pairs()), causet
        assert failing == expected_failing, causet
    # each term fails on its own somewhere, so dropping either would show
    assert outcomes[False] > 100 and outcomes[True] > 100
    assert broken["identity"] > 0 and broken["enlarged_spacelike"] > 0


def test_lane_kernel_equals_the_per_pair_reference():
    # every causet up to n = 5, and unclosed DAGs on 9 and 10 elements, where
    # the elements above the eighth are assigned outside the lanes
    causets = [c for n in range(1, 6) for c in enumerate_causets(n)]
    dags = list(_unclosed_dags(2, seed=1, sizes=(9, 10), density=0.15))
    high_failures = 0
    for causet in causets + dags:
        pairs, expected_failing = 0, []
        for ra, rb in causet.spacelike_pairs():
            pairs += 1
            report, decomposes, untruncated = _reference_verdict(causet, ra, rb)
            if not (report.holds and decomposes and untruncated):
                expected_failing.append((ra, rb))
        assert causet.region_identity_failures() == (pairs, expected_failing), causet
        high_failures += sum(1 for ra, rb in expected_failing if (ra | rb) >> 8)
    assert high_failures > 0


def test_census_counts_every_spacelike_pair_up_to_seven():
    # counts taken from the per-pair walk the lane kernel replaced
    per_n = {1: 2, 2: 9, 3: 51, 4: 361, 5: 3036, 6: 32054, 7: 422722}
    counted = {
        n: sum(c.region_identity_failures()[0] for c in enumerate_causets(n)) for n in per_n
    }
    assert counted == per_n
    suite = region_identity_suite(7)
    assert suite.passed
    assert suite.checked == sum(per_n.values()) == 458235


def test_region_suite_reports_what_the_reference_methods_report(monkeypatch):
    causet = next(_unclosed_dags(1))
    expected = []
    for ra, rb in causet.spacelike_pairs():
        report, decomposes, untruncated = _reference_verdict(causet, ra, rb)
        if not (report.holds and decomposes and untruncated):
            expected.append({
                "n": 1,
                "causet_index": 0,
                "relations": [list(p) for p in causet.relation_pairs()],
                "region_a": list(causet.labels(ra)),
                "region_b": list(causet.labels(rb)),
                "identity": report.to_json(causet),
                "decomposes": decomposes,
                "mutual_past_avoids_regions": untruncated,
            })
    assert expected
    monkeypatch.setattr(theorems, "enumerate_causets", lambda n: iter([causet]))
    suite = region_identity_suite(1)
    assert suite.checked == sum(1 for _ in causet.spacelike_pairs())
    assert list(suite.failures) == expected


def test_region_suite_flags_a_one_pass_check_that_disagrees(monkeypatch, capsys):
    from causetlab.cli import main

    def every_pair_fails(self):
        pairs = list(self.spacelike_pairs())
        return len(pairs), pairs

    monkeypatch.setattr(Causet, "region_identity_failures", every_pair_fails)
    with pytest.raises(InternalConsistencyError):
        region_identity_suite(2)
    assert main(["theorems", "--max-elements", "2", "--max-product-elements", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab theorems: internal consistency failure: ")


def test_partition_suite_region_count():
    suite = partition_suite(2)
    assert suite.passed
    # one 1-element causet (2 regions) + two 2-element causets (4 regions each)
    assert suite.checked == 2 + 4 + 4


def test_composition_suite_small():
    suite = composition_suite(2)
    assert suite.passed and suite.checked > 0


def test_dom_axiom_suite_exhaustive_only():
    suite = dom_axiom_suite(exhaustive_max=2, sampled_elements=0, sampled_events=0)
    assert suite.passed and suite.checked > 0


def test_replication_suite_small():
    suite = replication_suite(3, caps=Caps(region_size=2))
    assert suite.passed and suite.checked > 0


def test_run_all_shape():
    result = run_all(max_elements=2)
    assert result["passed"] is True
    assert set(result["suites"]) == {
        "region-identities",
        "full-specification-partitions",
        "composition-law",
        "dom-axioms",
        "so1-to-so2-replication",
    }
    for suite in result["suites"].values():
        assert suite["failures"] == []
        assert suite["checked"] > 0


def test_suite_json_roundtrip():
    suite = partition_suite(2)
    data = suite.to_json()
    assert data["name"] == "full-specification-partitions"
    assert data["passed"] is True
    assert data["checked"] == suite.checked
