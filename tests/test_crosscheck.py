"""Dual-route checks: the optimized canonical paths against literal ones.

The canonical principle sweep runs on cell-subset sums; spelling the
canonical dom out as an explicit event-to-region map forces the generic
route (Definition-filter Phi, event-list Gamma, direct triple loop). Both
must agree witness for witness, on every causet and measure tried.
"""

import json
import subprocess
import sys

import pytest

from causetlab import (
    CapExceededError,
    Caps,
    DomMap,
    HistorySpace,
    LimitError,
    MeasureTable,
    Model,
    check_principle,
    enumerate_causets,
    full_specifications,
    gamma,
    gap_closure_check,
    implication_matrix,
    replicate_so1_to_so2,
    validate_causet,
)

CLI = [sys.executable, "-m", "causetlab"]


def _spelled_out(space: HistorySpace) -> DomMap:
    return DomMap.explicit(
        {e: space.canonical_dom(e) for e in range(space.omega + 1)}
    )


def _routes(causet, measure_seed):
    space = HistorySpace(causet, 2)
    fast = Model.build(space, MeasureTable.random(space, measure_seed))
    slow_space = HistorySpace(causet, 2)
    slow = Model.build(
        slow_space,
        MeasureTable.random(slow_space, measure_seed),
        _spelled_out(slow_space),
    )
    return fast, slow


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonical_and_explicit_routes_agree_on_all_3_causets(seed):
    for causet in enumerate_causets(3):
        fast, slow = _routes(causet, seed)
        for which in ("so1", "so2", "fin-so1", "fin-so2"):
            vf = check_principle(fast, which)
            vs = check_principle(slow, which)
            assert vf.satisfied == vs.satisfied
            assert sorted(
                (w.region_a, w.region_b, w.event_a, w.event_b, w.screener, w.lhs, w.rhs)
                for w in vf.witnesses
            ) == sorted(
                (w.region_a, w.region_b, w.event_a, w.event_b, w.screener, w.lhs, w.rhs)
                for w in vs.witnesses
            )


def test_routes_agree_on_phi_and_gamma(anti2):
    space = HistorySpace(anti2, 2)
    explicit = _spelled_out(space)
    canonical = DomMap.canonical()
    for region in anti2.regions():
        assert sorted(full_specifications(space, canonical, region)) == sorted(
            full_specifications(space, explicit, region)
        )
        assert sorted(gamma(space, canonical, region)) == sorted(
            gamma(space, explicit, region)
        )


def test_routes_agree_on_replication_and_gap(w_causet):
    space = HistorySpace(w_causet, 2)
    fast = Model.build(space, MeasureTable.uniform(space))
    slow = Model.build(space, MeasureTable.uniform(space), _spelled_out(space))
    ra, rb = w_causet.region("a"), w_causet.region("b")
    rf = replicate_so1_to_so2(fast, ra, rb)
    rs = replicate_so1_to_so2(slow, ra, rb)
    assert rf.passed and rs.passed
    assert [s.checked for s in rf.steps] == [s.checked for s in rs.steps]
    assert gap_closure_check(fast, ra, rb).equal
    assert gap_closure_check(slow, ra, rb).equal


# -- generality and guard rails ----------------------------------------------


def test_ternary_alphabet_principles(diamond, w_causet):
    # q = 3: Gamma of a 2-element region has 3^2 cells -> 512 events, above
    # the default algebra cap, so a verdict that counts one is satisfied but
    # capped. In the diamond the only such region pairs are empty-sided,
    # ({}, {a, b}): they cannot fail, but are counted at 256 of 512 events.
    space = HistorySpace(diamond, 3)
    model = Model.build(space, MeasureTable.uniform(space))
    matrix = implication_matrix(model)
    assert matrix.bits == "1111"
    verdict = check_principle(model, "so2", Caps(region_size=2, algebra=256))
    assert verdict.satisfied and verdict.capped
    # in the W causet ({q, a}, {b}) is spacelike
    space = HistorySpace(w_causet, 3)
    model = Model.build(space, MeasureTable.uniform(space))
    verdict = check_principle(model, "so2", Caps(region_size=2, algebra=256))
    assert verdict.satisfied and verdict.capped
    assert verdict.counts["region_pairs_skipped"] == 0


def test_gamma_guard_without_limit():
    causet = validate_causet([f"e{i}" for i in range(5)], [])
    space = HistorySpace(causet, 2)
    with pytest.raises(CapExceededError):
        gamma(space, DomMap.canonical(), causet.full)  # 2^32 events


def test_history_space_size_guard():
    causet = validate_causet([f"e{i}" for i in range(25)], [])
    with pytest.raises(LimitError):
        HistorySpace(causet, 2)


def test_dom_events_guard():
    # 16 histories (DIAMOND) is the enumerable maximum; 32 must refuse
    causet = validate_causet([f"e{i}" for i in range(5)], [])
    space = HistorySpace(causet, 2)
    with pytest.raises(CapExceededError):
        list(DomMap.canonical().events(space))


# -- CLI flag wiring -----------------------------------------------------------


def run_cli(*args: str):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600)


def test_cli_check_force_on_broken_dom(tmp_path):
    path = tmp_path / "broken.json"
    space = HistorySpace(validate_causet(["x", "y"], []), 2)
    dom_spec = {
        json.dumps(space.event_keys(e)): list(space.causet.labels(space.canonical_dom(e)))
        for e in range(space.omega + 1)
    }
    dom_spec[json.dumps(space.event_keys(space.cylinder({"x": 1})))] = ["x", "y"]
    path.write_text(json.dumps({
        "causet": {"elements": ["x", "y"], "relations": []},
        "dom": dom_spec,
        "measure": "uniform",
    }))
    refused = run_cli("check", "--model", str(path))
    assert refused.returncode == 2
    forced = run_cli("check", "--model", str(path), "--principle", "so2", "--force")
    assert forced.returncode in (0, 1)
    data = json.loads(forced.stdout)
    assert data["verdict"]["axiom_warning"]


def test_cli_hunt_filters_and_zero_screener():
    proc = run_cli("hunt", "--max-elements", "2", "--include-perfect",
                   "--filters", "nonempty-flanks")
    assert proc.returncode == 0  # ANTI2 filtered out, nothing to find
    summary = json.loads(proc.stdout.strip().splitlines()[-1])["summary"]
    assert summary["skipped_causets"] >= 1
    strict = run_cli("hunt", "--max-elements", "2", "--include-perfect",
                     "--zero-screener", "strict")
    assert strict.returncode == 1
    assert json.loads(strict.stdout.strip().splitlines()[-1])["summary"]["config"][
        "zero_mode"
    ] == "strict"


def test_cli_hunt_resume_without_checkpoint_is_an_error():
    proc = run_cli("hunt", "--max-elements", "2", "--resume")
    assert proc.returncode == 2


def test_cli_unknown_filter_is_an_error():
    proc = run_cli("hunt", "--max-elements", "2", "--filters", "shiny")
    assert proc.returncode == 2
