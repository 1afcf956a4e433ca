"""Causet enumeration, measure sampling, and the model hunt."""

import hashlib
import json
import math
import os
import random

import pytest

from causetlab import (
    LimitError,
    MeasureTable,
    SearchConfig,
    count_causets,
    enumerate_causets,
    hunt,
    replay_finding,
    sample_measures,
    validate_causet,
)
from causetlab import hunter
from causetlab.hunter import _representatives, canonical_form

from oracles import (
    brute_automorphisms,
    brute_canonical_form,
    brute_least_labelings,
    brute_poset_count,
)


# -- enumeration ----------------------------------------------------------------


def test_counts_match_brute_force_small():
    # oracle: all 3^(pairs) relation assignments, transitivity filter,
    # dedup by minimum over all relabelings
    for n in range(1, 5):
        assert count_causets(n) == brute_poset_count(n)


def test_count_n5_matches_brute_force():
    assert count_causets(5) == brute_poset_count(5) == 63


def test_known_counts_through_seven():
    assert [count_causets(n) for n in range(1, 8)] == [1, 2, 5, 16, 63, 318, 2045]


def test_enumeration_limit():
    with pytest.raises(LimitError):
        list(enumerate_causets(8))
    with pytest.raises(LimitError):
        list(enumerate_causets(0))


def test_enumeration_is_deterministic_and_duplicate_free():
    first = [c.relation_pairs() for c in enumerate_causets(4)]
    second = [c.relation_pairs() for c in enumerate_causets(4)]
    assert first == second
    keys = [tuple(p) for p in first]
    assert len(set(keys)) == len(keys) == 16


def test_enumerated_causets_are_canonical():
    for causet in enumerate_causets(4):
        rows = causet._above
        assert canonical_form(rows) == tuple(rows)


def test_canonical_form_is_isomorphism_invariant():
    # the diamond written with two different labelings
    a = validate_causet(["p", "a", "b", "t"], [("p", "a"), ("p", "b"), ("a", "t"), ("b", "t")])
    b = validate_causet(["t", "b", "a", "p"], [("p", "a"), ("p", "b"), ("a", "t"), ("b", "t")])
    assert canonical_form(a._above) == canonical_form(b._above)
    chain = validate_causet(["p", "a", "b", "t"], [("p", "a"), ("a", "b"), ("b", "t")])
    assert canonical_form(a._above) != canonical_form(chain._above)


def _relabel(rows, perm):
    """The same order with element i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(rows)) if row >> j & 1)
    return tuple(out)


def test_canonical_form_matches_brute_force_on_relabelings():
    # hunt indices and per-causet seeds depend on the exact matrices, not
    # only on the isomorphism classes
    rng = random.Random(20)
    for n in range(1, 7):
        for rows in _representatives(n):
            expected = brute_canonical_form(rows)
            assert expected == rows
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(_relabel(rows, perm)) == expected


def _twin_closure(orders, twin):
    """The labelings reached from orders by swapping twins."""
    closed = set(map(tuple, orders))
    frontier = list(closed)
    for order in frontier:
        for o, t in enumerate(twin):
            if t != o:
                swapped = tuple(t if a == o else o if a == t else a for a in order)
                if swapped not in closed:
                    closed.add(swapped)
                    frontier.append(swapped)
    return closed


def _width(rows):
    n = len(rows)
    return max(
        m.bit_count() for m in range(1 << n)
        if not any(m >> i & 1 and rows[i] & m for i in range(n))
    )


def test_least_labelings_match_brute_force():
    # the orders, closed under twin swaps, are every least labeling, and
    # each begins with a maximum antichain
    rng = random.Random(25)
    inputs = []
    for n in range(1, 6):
        for rows in _representatives(n):
            perm = list(range(n))
            rng.shuffle(perm)
            inputs += [rows, _relabel(rows, perm)]
    for rows in rng.sample(_representatives(6), 40):
        perm = list(range(6))
        rng.shuffle(perm)
        inputs.append(_relabel(rows, perm))
    for rows in inputs:
        orders, twin = hunter._least_labelings(rows)
        labelings = brute_least_labelings(rows)
        assert _twin_closure(orders, twin) == labelings
        w = _width(rows)
        for labeling in labelings:
            antichain = sum(1 << a for a in labeling[:w])
            assert not any(rows[a] & antichain for a in labeling[:w])


def test_order_ideals_are_the_down_closed_masks_ascending():
    # orbit pruning tries the first ideal of each orbit, so the order counts
    for n in range(1, 7):
        for rows in _representatives(n):
            below = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
            expected = [
                m for m in range(1 << n)
                if all(below[j] & ~m == 0 for j in range(n) if m >> j & 1)
            ]
            assert list(hunter._order_ideals(below)) == expected


def test_deletion_pruning_keeps_every_class(monkeypatch):
    # every (n-1)-element base extended by a new maximal element over every
    # order ideal, with no pruning, must give the same classes as the pruned
    # enumeration, which must get there with fewer canonical_form calls
    calls = [0]

    def counted(lt):
        calls[0] += 1
        return canonical_form(lt)

    monkeypatch.setattr(hunter, "canonical_form", counted)
    candidates = 0
    for n in range(2, 7):
        bases = _representatives(n - 1)
        unpruned = set()
        for base in bases:
            for ideal in range(1 << (n - 1)):
                # down-closed: whatever precedes a member is a member
                if any(ideal >> i & 1 and base[j] >> i & 1 and not ideal >> j & 1
                       for i in range(n - 1) for j in range(n - 1)):
                    continue
                rows = tuple(row | (ideal >> i & 1) << (n - 1) for i, row in enumerate(base))
                unpruned.add(canonical_form(rows + (0,)))
                candidates += 1
        monkeypatch.setattr(hunter, "_reps_cache", {})
        calls[0] = 0
        assert hunter._representatives(n) == sorted(unpruned)
    # the last run, from a cleared cache, enumerated every size up to 6;
    # the count is pinned so that losing part of the pruning shows
    assert calls[0] == 423 < candidates


def _generated_group(gens, n):
    group = {tuple(range(n))}
    frontier = list(group)
    for g in frontier:
        for h in gens:
            gh = tuple(h[i] for i in g)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def test_automorphism_generators_generate_the_whole_group():
    # the generators each representative keeps from the search that
    # canonicalised it, moved to its own positions
    for n in range(1, 6):
        for rows in _representatives(n):
            group = _generated_group(rows.automorphisms, n)
            assert group == set(brute_automorphisms(rows))


def test_automorphism_groups_count_the_labeled_posets():
    # orbit-stabilizer: each class has n!/|Aut| labelings (OEIS A001035)
    for n, labeled in zip(range(1, 7), (1, 3, 19, 219, 4231, 130023)):
        assert sum(
            math.factorial(n) // len(_generated_group(rows.automorphisms, n))
            for rows in _representatives(n)
        ) == labeled


# sha256 of repr(_representatives(n)) for n = 1..7, as first enumerated
REPRESENTATIVE_DIGESTS = [
    "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    "a240aee8d462f605c084db76a8975a5e974d27161ef52723995d18a0a79ba79d",
    "33f83794cfb80d458f8126c24df93f316e93859101c7211cb7e7b4fd3d98c2f0",
    "9ef0130ef190fee176c08b796ef8c6c56ced446714598b9d5930b0e216c85857",
    "7a6acc63c7938ada145572b1fe76d5754796badc23705e51ebf0221c8deac938",
    "6d4af223e58b71fa359cfb2db93e2d148353ea6d780e6efe909713833992e908",
    "bb521a88e0efbdbe93e2ceb185456408076ae4bfedf54e6eaf7d0383eced3b40",
]


def test_representatives_are_pinned():
    digests = [
        hashlib.sha256(repr(_representatives(n)).encode()).hexdigest() for n in range(1, 8)
    ]
    assert digests == REPRESENTATIVE_DIGESTS


# -- measure sampling --------------------------------------------------------------


def test_sample_measures_uniform_first(anti2_space):
    measures = sample_measures(anti2_space, 1, seed=0)
    assert len(measures) == 1
    assert measures[0].weights == MeasureTable.uniform(anti2_space).weights


def test_sample_measures_deterministic(anti2_space):
    a = sample_measures(anti2_space, 5, seed=123)
    b = sample_measures(anti2_space, 5, seed=123)
    assert [m.weights for m in a] == [m.weights for m in b]
    c = sample_measures(anti2_space, 5, seed=124)
    assert [m.weights for m in a] != [m.weights for m in c]


def test_sample_measures_sum_exactly_one(anti2_space):
    for m in sample_measures(anti2_space, 6, seed=9, denominator_bound=37):
        assert sum(m.weights) == 1


def test_sample_measures_requires_k(anti2_space):
    with pytest.raises(ValueError):
        sample_measures(anti2_space, 0, seed=0)


# -- hunts -------------------------------------------------------------------------


def test_hunt_emits_anti2_perf_separation():
    report = hunt(SearchConfig(max_elements=2, include_perfect=True))
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding["bits"] == "0011"
    assert "separates finite/infinite" in finding["tags"]
    assert finding["fingerprint"]["measure_kind"] == "perfect"
    assert finding["fingerprint"]["measure"]["weights"] == {"00": "1/2", "11": "1/2"}


def test_hunt_uniform_only_finds_nothing():
    report = hunt(SearchConfig(max_elements=2))
    assert report.findings == []
    assert report.truth_table == {"1111": 3}
    assert report.models == 3


def test_hunt_trivial_implications_hold_in_every_matrix():
    report = hunt(SearchConfig(max_elements=3, measures_per_model=3, seed=2,
                               include_perfect=True))
    for bits in report.truth_table:
        so1, so2, fin1, fin2 = (c == "1" for c in bits)
        assert (not so1) or fin1
        assert (not so2) or fin2


def test_hunt_deterministic_across_workers(monkeypatch):
    # a break-even of 0 makes any pending work pay for the second process
    monkeypatch.setattr(hunter, "_BREAK_EVEN", 0)
    cfg = dict(max_elements=3, measures_per_model=3, seed=11, include_perfect=True)
    r1 = hunt(SearchConfig(**cfg, workers=1))
    r2 = hunt(SearchConfig(**cfg, workers=2))
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)


def test_findings_replay_bit_for_bit():
    report = hunt(SearchConfig(max_elements=3, measures_per_model=2, seed=4,
                               include_perfect=True))
    assert report.findings
    for finding in report.findings:
        assert replay_finding(finding) == finding["bits"]


def test_no_duplicate_fingerprints():
    report = hunt(SearchConfig(max_elements=3, measures_per_model=3, seed=8,
                               include_perfect=True))
    digests = [f["digest"] for f in report.findings]
    assert len(set(digests)) == len(digests)


def test_filters_skip_uninteresting_causets():
    # ANTI2 has no flank structure and no causally finite pair, so either
    # filter suppresses the PERF separation found without filters
    for filters in (("nonempty-flanks",), ("finite-pair",)):
        report = hunt(SearchConfig(max_elements=2, include_perfect=True, filters=filters))
        assert report.skipped_causets >= 1
        assert report.findings == []


@pytest.mark.parametrize("filters", [(), ("nonempty-flanks",), ("finite-pair",),
                                     ("nonempty-flanks", "finite-pair")])
def test_filters_match_their_definition(filters):
    # a causet passes iff, for each filter, some spacelike pair meets it
    for n in range(1, 6):
        for causet in enumerate_causets(n):
            pairs = list(causet.spacelike_pairs())
            met = {
                "nonempty-flanks": any(x | y for x, y in (causet.flank_regions(ra, rb) for ra, rb in pairs)),
                "finite-pair": any(
                    causet.is_causally_finite(ra) and causet.is_causally_finite(rb) for ra, rb in pairs
                ),
            }
            assert hunter._passes_filters(causet, filters) == all(met[f] for f in filters)


def test_unknown_filter_rejected():
    with pytest.raises(ValueError):
        SearchConfig(max_elements=2, filters=("shiny",))


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers, capsys):
    from causetlab.cli import main

    with pytest.raises(ValueError, match="workers"):
        SearchConfig(max_elements=2, workers=workers)
    assert main(["hunt", "--max-elements", "2", "--workers", str(workers)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: workers must be at least 1")
    # scheduling only: the worker count stays out of the config digest
    assert SearchConfig(max_elements=2, workers=1).to_json() == SearchConfig(
        max_elements=2, workers=3).to_json()


@pytest.mark.parametrize("alphabet", [1, 0])
def test_alphabet_below_two_rejected(alphabet, monkeypatch, capsys):
    from causetlab.cli import main

    def no_fork():
        raise AssertionError("a worker was forked for a config that should be refused")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # a break-even of 0 would fork for any work, so the refusal must come first
    monkeypatch.setattr(hunter, "_BREAK_EVEN", 0)
    with pytest.raises(ValueError, match="alphabet_size must be at least 2"):
        SearchConfig(max_elements=2, alphabet_size=alphabet)
    argv = ["hunt", "--max-elements", "2", "--alphabet", str(alphabet), "--workers", "2"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: alphabet_size must be at least 2")


def test_negative_denominator_bound_rejected(capsys):
    from causetlab.cli import main

    with pytest.raises(ValueError, match="denominator_bound"):
        SearchConfig(max_elements=2, denominator_bound=-1)
    # refused before any pool starts
    assert main(["hunt", "--max-elements", "2", "--denominator-bound", "-1", "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: denominator_bound")
    # a bound of 0 stays valid: every random measure is the point mass on
    # the first history
    report = hunt(SearchConfig(max_elements=2, measures_per_model=2, denominator_bound=0))
    assert report.models == 6


@pytest.mark.parametrize("caps, code", [("", 3), ("region=1", 3), ("algebra=3", 1)])
def test_so1_and_so2_differing_stops_only_an_exact_hunt(caps, code, monkeypatch, capsys):
    # with an empty truncated joint past the perfect measure on p < a, p < b
    # holds SO1 and fails SO2. Its plan is exact under default caps, and
    # under region=1 (its one nonempty pair has sides of one element); under
    # algebra=3 each side's 4-event algebra is truncated, and the hunt
    # reports the disagreement as a per-model tag
    from causetlab import Causet
    from causetlab.cli import main

    monkeypatch.setattr(Causet, "truncated_joint_past", lambda self, r1, r2: 0)
    argv = ["hunt", "--max-elements", "3", "--include-perfect", "--workers", "1", "--caps", caps]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert out == ""
        assert err.startswith("causetlab hunt: internal consistency failure:")
        assert "so1 and so2" in err
    else:
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["tags_histogram"]["per-model SO1 and not SO2"] == 1


def test_a_false_zero_mass_stops_the_hunt(monkeypatch, capsys):
    # mass(Omega) reading 0 would make every pair of the 2-antichain pass
    # vacuously; the zero screener's replay on the history masses objects.
    # The hunt counts the uniform model unswept, so a random one is swept
    from causetlab.cli import main

    table_mass = MeasureTable.mass
    monkeypatch.setattr(MeasureTable, "mass",
                        lambda m, e: 0 if e == m.space.omega else table_mass(m, e))
    assert main(["hunt", "--max-elements", "2", "--measures", "2", "--workers", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: internal consistency failure: ")
    assert "differ from the history masses" in err


def test_an_off_table_mass_on_a_failing_screener_stops_the_hunt(monkeypatch, capsys):
    # mass(A&C) one too high for A = {e0 = 0} and C = Omega, a failing
    # screener of the 2-antichain: its replay on the history masses objects
    from causetlab.cli import main

    table_mass = MeasureTable.mass
    monkeypatch.setattr(MeasureTable, "mass",
                        lambda m, e: table_mass(m, e) + (e == m.space.cylinder({"e0": 0})))
    assert main(["hunt", "--max-elements", "2", "--include-perfect", "--workers", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: internal consistency failure: ")
    assert "differ from the history masses" in err


def test_every_finding_witness_is_replayed(monkeypatch):
    import causetlab.principles as principles

    replayed = set()
    real = principles.replay_screen_failures

    def recorded(measure, c, pairs):
        space = measure.space
        model = (json.dumps(space.causet.relation_pairs()), json.dumps(measure.weight_strings()))
        keys = space.event_keys
        replayed.update((*model, json.dumps([keys(a), keys(b), keys(c)])) for a, b in pairs)
        return real(measure, c, pairs)

    monkeypatch.setattr(principles, "replay_screen_failures", recorded)
    report = hunt(SearchConfig(max_elements=4, measures_per_model=5, seed=7, include_perfect=True))
    samples = [(f["fingerprint"], s) for f in report.findings for s in f["witness_samples"]]
    assert len(samples) > len(report.findings) > 50
    for fp, s in samples:
        model = (json.dumps(fp["causet"]["relations"]), json.dumps(fp["measure"]["weights"]))
        assert (*model, json.dumps([s["event_a"], s["event_b"], s["screener"]])) in replayed


def test_hunt_respects_hard_limit():
    with pytest.raises(LimitError):
        hunt(SearchConfig(max_elements=8))


def test_checkpoint_and_resume(tmp_path):
    path = str(tmp_path / "hunt.ckpt")
    cfg = SearchConfig(max_elements=3, measures_per_model=2, seed=6, include_perfect=True)
    full = hunt(cfg, checkpoint_path=path)
    state = json.loads(open(path).read())
    assert state["last_completed_index"] == full.causets - 1
    resumed = hunt(cfg, checkpoint_path=path, resume=True)
    # nothing left to do: totals carried over, no findings re-emitted
    assert resumed.findings == []
    assert resumed.truth_table == full.truth_table
    assert resumed.models == full.models


def test_checkpoint_survives_a_write_that_dies(tmp_path, monkeypatch):
    path = tmp_path / "hunt.ckpt"
    cfg = SearchConfig(max_elements=3, measures_per_model=2, seed=6, include_perfect=True)
    full = hunt(cfg)
    real_dump = json.dump
    writes = []

    def dump_dying_on_third_write(obj, fh, **kwargs):
        writes.append(obj["last_completed_index"])
        if len(writes) == 3:
            fh.write('{"config_digest": "')
            fh.flush()
            raise KeyboardInterrupt
        real_dump(obj, fh, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", dump_dying_on_third_write)
        with pytest.raises(KeyboardInterrupt):
            hunt(cfg, checkpoint_path=str(path))
    state = json.loads(path.read_text())
    assert state["last_completed_index"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["hunt.ckpt"]
    resumed = hunt(cfg, checkpoint_path=str(path), resume=True)
    assert resumed.truth_table == full.truth_table
    assert resumed.models == full.models
    assert resumed.findings == [f for f in full.findings if f["index"] > 1]


def test_resume_rejects_mismatched_config(tmp_path):
    path = str(tmp_path / "hunt.ckpt")
    hunt(SearchConfig(max_elements=2), checkpoint_path=path)
    with pytest.raises(ValueError):
        hunt(SearchConfig(max_elements=3), checkpoint_path=path, resume=True)


def test_partial_resume_completes_the_sweep(tmp_path):
    cfg = SearchConfig(max_elements=3, measures_per_model=2, seed=6, include_perfect=True)
    full = hunt(cfg)
    path = str(tmp_path / "part.ckpt")
    # simulate an interrupted run completed through causet index 3
    partial_tasks = 4
    partial = hunt(cfg._replace(max_elements=3), checkpoint_path=path)
    state = json.loads(open(path).read())
    state["last_completed_index"] = partial_tasks - 1
    # recompute the totals that belong to the first causets
    truth: dict[str, int] = {}
    models = 0
    from causetlab.hunter import _hunt_causet, _representatives

    index = 0
    tasks = []
    for n in range(1, 4):
        for rows in _representatives(n):
            tasks.append((index, rows, cfg))
            index += 1
    kept_findings = []
    for task in tasks[:partial_tasks]:
        result = _hunt_causet(task)
        models += result["models"]
        kept_findings.extend(result["findings"])
        for bits, count in result["truth"].items():
            truth[bits] = truth.get(bits, 0) + count
    state["truth_table"] = truth
    state["models"] = models
    state["skipped_causets"] = 0
    with open(path, "w") as fh:
        json.dump(state, fh)
    resumed = hunt(cfg, checkpoint_path=path, resume=True)
    assert resumed.truth_table == full.truth_table
    assert kept_findings + resumed.findings == full.findings
    assert resumed.models == full.models


def test_resumed_summary_equals_uninterrupted(tmp_path, monkeypatch):
    path = str(tmp_path / "hunt.ckpt")
    cfg = SearchConfig(max_elements=3, measures_per_model=2, seed=6, include_perfect=True)
    full = hunt(cfg)
    assert any(f["index"] < 3 for f in full.findings)
    real = hunter._hunt_causet
    emitted = []
    # interrupted twice, so the second run resumes from a resumed checkpoint
    for dies_at in (3, 6):
        def dying(task, dies_at=dies_at):
            if task[0] == dies_at:
                raise KeyboardInterrupt
            result = real(task)
            emitted.extend(result["findings"])
            return result

        with monkeypatch.context() as patch:
            patch.setattr(hunter, "_hunt_causet", dying)
            with pytest.raises(KeyboardInterrupt):
                hunt(cfg, checkpoint_path=path, resume=dies_at == 6)
    resumed = hunt(cfg, checkpoint_path=path, resume=True)
    assert emitted + resumed.findings == full.findings
    assert resumed.summary_json() == full.summary_json()


def test_resume_rejects_checkpoint_without_summary_totals(tmp_path):
    path = tmp_path / "hunt.ckpt"
    cfg = SearchConfig(max_elements=2, include_perfect=True)
    hunt(cfg, checkpoint_path=str(path))
    state = json.loads(path.read_text())
    for key in ("findings", "tags_histogram"):
        path.write_text(json.dumps({k: v for k, v in state.items() if k != key}))
        with pytest.raises(ValueError, match="different hunt configuration"):
            hunt(cfg, checkpoint_path=str(path), resume=True)


def test_checkpoint_bytes_and_resume_match_the_committed_fixture(tmp_path, monkeypatch, data_dir):
    # the fixture was written by the earlier, dataclass-based totals: this
    # hunt interrupted after causet index 3
    fixture = data_dir / "hunt_n3_seed6.checkpoint.json"
    cfg = SearchConfig(max_elements=3, measures_per_model=2, seed=6, include_perfect=True)
    path = tmp_path / "hunt.ckpt"
    real = hunter._hunt_causet

    def dying(task):
        if task[0] == 4:
            raise KeyboardInterrupt
        return real(task)

    with monkeypatch.context() as patch:
        patch.setattr(hunter, "_hunt_causet", dying)
        with pytest.raises(KeyboardInterrupt):
            hunt(cfg, checkpoint_path=str(path))
    assert path.read_bytes() == fixture.read_bytes()

    path.write_bytes(fixture.read_bytes())
    full = hunt(cfg)
    resumed = hunt(cfg, checkpoint_path=str(path), resume=True)
    assert resumed.summary_json() == full.summary_json()
    assert resumed.findings == [f for f in full.findings if f["index"] > 3]


@pytest.mark.parametrize("cores, max_elements, expected, break_even", [
    # a break-even of 0 makes any pending work pay for every process
    *(pytest.param(c, n, e, 0, id=f"{c}-{n}-{e}")
      for c, n, e in [(3, 3, 3), (8, 2, 3), (1, 3, None), (4, 4, 4)]),
    # up to n = 4 the pending work is 2 drawn models times 306 histories
    (4, 4, None, None), (4, 4, None, 613), (4, 4, 4, 612),
])
def test_pool_never_exceeds_cores_or_pending_causets(monkeypatch, cores, max_elements, expected, break_even):
    # the hunting process is one of the `expected` processes, so it forks
    # one child fewer; a single process forks none. Below a break-even of
    # pending work (None: the module's own, which the n <= 4 hunt is below)
    # nothing is forked, and at it every process the cores allow. Four
    # processes on the 24 causets up to n = 4 may outnumber the real cores,
    # and must still print the serial bytes
    if break_even is not None:
        monkeypatch.setattr(hunter, "_BREAK_EVEN", break_even)
    cfg = dict(max_elements=max_elements, measures_per_model=2, seed=11, include_perfect=True)
    serial = hunt(SearchConfig(**cfg))
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    wide = hunt(SearchConfig(**cfg, workers=64))
    assert len(forks) == (0 if expected is None else expected - 1)
    assert json.dumps(wide.to_json(), sort_keys=True) == json.dumps(serial.to_json(), sort_keys=True)


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_task_error_in_any_worker_exits_3_and_leaves_no_child(where, monkeypatch, capsys):
    # every task run in a forked child, or in the hunting process, raises;
    # the children always run the first positions, and the hunting process
    # runs one whenever no child has answered
    from causetlab.cli import main
    from causetlab.errors import InternalConsistencyError

    parent, real = os.getpid(), hunter._hunt_causet

    def broken(task):
        if (os.getpid() == parent) == (where == "parent"):
            raise InternalConsistencyError(f"planted at causet {task[0]}")
        return real(task)

    monkeypatch.setattr(hunter, "_hunt_causet", broken)
    monkeypatch.setattr(hunter, "_BREAK_EVEN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["hunt", "--max-elements", "3", "--include-perfect", "--workers", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: internal consistency failure: planted at causet ")
    assert _no_child_left()


def test_an_interrupt_in_the_hunting_process_leaves_no_child(monkeypatch):
    parent, real = os.getpid(), hunter._hunt_causet

    def interrupted(task):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(task)

    monkeypatch.setattr(hunter, "_hunt_causet", interrupted)
    monkeypatch.setattr(hunter, "_BREAK_EVEN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(KeyboardInterrupt):
        hunt(SearchConfig(max_elements=3, include_perfect=True, workers=2))
    assert _no_child_left()


def test_a_resumed_two_worker_hunt_prints_the_serial_summary(tmp_path, monkeypatch, capsys, data_dir):
    # interrupted when causet 4 comes up, wherever it ran: the checkpoint is
    # the serial one, and the resumed run ends with the serial summary
    from causetlab.cli import main
    from causetlab.errors import InternalConsistencyError

    argv = ["hunt", "--max-elements", "3", "--measures", "2", "--seed", "6", "--include-perfect"]
    assert main([*argv, "--workers", "1"]) == 1
    serial = capsys.readouterr().out.splitlines()
    path = tmp_path / "hunt.ckpt"
    two = [*argv, "--workers", "2", "--checkpoint", str(path)]
    real = hunter._hunt_causet

    def dying(task):
        if task[0] == 4:
            raise InternalConsistencyError("interrupted")
        return real(task)

    monkeypatch.setattr(hunter, "_BREAK_EVEN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(hunter, "_hunt_causet", dying)
        assert main(two) == 3
    capsys.readouterr()
    assert path.read_bytes() == (data_dir / "hunt_n3_seed6.checkpoint.json").read_bytes()
    assert main([*two, "--resume"]) == 1
    resumed = capsys.readouterr().out.splitlines()
    assert resumed[-1] == serial[-1]
    assert resumed[:-1] == [line for line in serial[:-1] if json.loads(line)["index"] > 3]
    assert _no_child_left()


@pytest.mark.parametrize("how", ["exits", "unpicklable", "truncated"])
def test_a_dead_worker_exits_2_and_leaves_no_child(how, monkeypatch, capsys):
    # the forked child ends before it has answered: it leaves in its task,
    # its answer cannot be pickled, or it dies halfway through writing it.
    # Exit 1 would read as "findings"
    from causetlab.cli import main

    parent, real, write = os.getpid(), hunter._hunt_causet, hunter._write_all

    def dying(task):
        if how == "exits" and os.getpid() != parent:
            os._exit(0)
        result = real(task)
        if how == "unpicklable":  # only a child pickles its answer
            result["unpicklable"] = lambda: None
        return result

    def cut_short(fd, data):
        write(fd, data[:-1])
        os._exit(0)

    monkeypatch.setattr(hunter, "_hunt_causet", dying)
    if how == "truncated":
        monkeypatch.setattr(hunter, "_write_all", cut_short)
    monkeypatch.setattr(hunter, "_BREAK_EVEN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["hunt", "--max-elements", "3", "--include-perfect", "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: hunt worker ") and err.count("\n") == 1
    assert "unfinished" in err
    assert _no_child_left()
