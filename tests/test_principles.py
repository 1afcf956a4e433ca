"""Principle checkers, the implication matrix, replication, gap closure."""

import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetlab import (
    AxiomViolationWarning,
    Caps,
    DomAxiomError,
    DomMap,
    HistorySpace,
    InternalConsistencyError,
    MeasureTable,
    Model,
    NotSpacelikeError,
    PRINCIPLES,
    check_principle,
    first_witnesses,
    full_specifications,
    gap_closure_check,
    implication_matrix,
    replay_witness,
    replicate_so1_to_so2,
    validate_causet,
)
from causetlab.histories import gamma_capped

from oracles import brute_gamma, brute_screens
from test_kernel_oracles import small_models

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@pytest.fixture
def anti2_perf_model(anti2_space, perf) -> Model:
    return Model.build(anti2_space, perf)


def _uniform_model(causet, alphabet=2) -> Model:
    space = HistorySpace(causet, alphabet)
    return Model.build(space, MeasureTable.uniform(space))


# -- check_principle ------------------------------------------------------------


def test_anti2_perf_violates_so2_with_omega_screener(anti2_perf_model):
    model = anti2_perf_model
    verdict = check_principle(model, "so2")
    assert not verdict.satisfied and not verdict.capped
    space = model.space
    expected = (
        space.cylinder({"x": 1}),
        space.cylinder({"y": 1}),
        model.causet.region("x"),
        model.causet.region("y"),
        space.omega,
        HALF,
        QUARTER,
    )
    found = [
        (w.event_a, w.event_b, w.region_a, w.region_b, w.screener, w.lhs, w.rhs)
        for w in verdict.witnesses
    ]
    assert expected in found
    assert all(w.screener == space.omega for w in verdict.witnesses)


def test_anti2_perf_violates_so1_too(anti2_perf_model):
    # the mutual past of the only nonempty spacelike pair is empty as well
    verdict = check_principle(anti2_perf_model, "so1")
    assert not verdict.satisfied


def test_anti2_perf_fin_variants_vacuous(anti2_perf_model):
    for which in ("fin-so1", "fin-so2"):
        verdict = check_principle(anti2_perf_model, which)
        assert verdict.satisfied
        assert verdict.counts["region_pairs"] == 0  # no causally finite pairs at all


def test_diamond_uniform_satisfies_all(diamond):
    model = _uniform_model(diamond)
    for which in ("so1", "so2", "fin-so1", "fin-so2"):
        verdict = check_principle(model, which)
        assert verdict.satisfied, which
        assert not verdict.witnesses


def test_chain2_vacuously_satisfied(chain2):
    model = _uniform_model(chain2)
    for which in ("so1", "so2"):
        verdict = check_principle(model, which)
        assert verdict.satisfied
        assert verdict.counts["region_pairs_nonempty"] == 0
        assert verdict.counts["region_pairs"] > 0  # empty-sided pairs counted


def test_checker_agrees_with_brute_force_screening(w_causet):
    # independent route: enumerate Gamma by brute-force dom filtering and
    # test screening with plain arithmetic, for every spacelike pair
    space = HistorySpace(w_causet, 2)
    measure = MeasureTable.random(space, seed=3, denominator_bound=10)
    model = Model.build(space, measure)
    causet = w_causet
    dom = DomMap.canonical()
    for which, past_of in (("so1", causet.mutual_past), ("so2", causet.truncated_joint_past)):
        expected_failures = []
        for ra, rb in causet.spacelike_pairs():
            for c in full_specifications(space, dom, past_of(ra, rb)):
                for a in brute_gamma(space, ra):
                    for b in brute_gamma(space, rb):
                        if not brute_screens(measure, a, b, c):
                            expected_failures.append((ra, rb, a, b, c))
        verdict = check_principle(model, which)
        got = [(w.region_a, w.region_b, w.event_a, w.event_b, w.screener) for w in verdict.witnesses]
        assert sorted(got) == sorted(expected_failures)


def test_unknown_principle_rejected(anti2_perf_model):
    with pytest.raises(ValueError):
        check_principle(anti2_perf_model, "so3")


def test_region_size_cap_marks_capped():
    causet = validate_causet(["a", "b", "c", "d"], [])  # 4-antichain
    model = _uniform_model(causet)
    capped = check_principle(model, "so2", Caps(region_size=1))
    assert capped.capped
    assert capped.counts["region_pairs_skipped"] > 0
    # no pair is skipped at region_size=3, but the default algebra cap counts
    # the empty-sided ({}, {a, b, c, d}) at 256 of its 2^16 events
    unskipped = check_principle(model, "so2", Caps(region_size=3))
    assert unskipped.capped
    assert unskipped.counts["region_pairs_skipped"] == 0
    uncapped = check_principle(model, "so2", Caps(region_size=3, algebra=1 << 16))
    assert not uncapped.capped


def test_algebra_cap_marks_capped(diamond):
    # the only nonempty spacelike pair is ({a},{b}), whose algebras have 4
    # events each; a cap of 2 truncates them. A cap of 4 covers them but
    # counts the empty-sided ({}, {a, b}) at 4 of its 16 events; the largest
    # algebra, of ({}, {p, a, b, t}), has 2^16 events.
    model = _uniform_model(diamond)
    verdict = check_principle(model, "so2", Caps(region_size=3, algebra=2))
    assert verdict.capped
    assert check_principle(model, "so2", Caps(region_size=3, algebra=4)).capped is True
    assert check_principle(model, "so2", Caps(region_size=3, algebra=1 << 16)).capped is False


def test_negative_caps_rejected():
    # a negative cap would slice Gamma from its end and count negative takes
    for text in ("algebra=-1", "region=-1"):
        with pytest.raises(ValueError):
            Caps.parse(text)
    assert Caps.parse("algebra=0").algebra == 0


def test_zero_screener_strict_mode_lists_cells(w_causet):
    space = HistorySpace(w_causet, 2)
    # all weight on histories with q = 0: the q = 1 cylinder has measure zero
    measure = MeasureTable.from_weights(
        space, {"000": "1/4", "010": "1/4", "001": "1/4", "011": "1/4"}
    )
    model = Model.build(space, measure)
    vac = check_principle(model, "so2", zero_mode="vacuous")
    strict = check_principle(model, "so2", zero_mode="strict")
    assert vac.satisfied and strict.satisfied  # reporting only, never a flip
    assert vac.zero_screeners == ()
    assert strict.zero_screeners
    q1 = space.cylinder({"q": 1})
    assert any(cell == q1 for _, _, cell in strict.zero_screeners)
    assert strict.counts["zero_screeners"] > 0


# -- witnesses -------------------------------------------------------------------


def test_witness_replay_exact(anti2_perf_model):
    verdict = check_principle(anti2_perf_model, "so2")
    for w in verdict.witnesses:
        lhs, rhs = replay_witness(anti2_perf_model, w)
        assert (lhs, rhs) == (w.lhs, w.rhs)
        assert lhs != rhs


def test_verdict_stores_failing_cell_pairs_and_lists_witnesses_lazily():
    causet = validate_causet(["x", "y", "z"], [])
    space = HistorySpace(causet, 2)
    model = Model.build(space, MeasureTable.perfectly_correlated(space))
    verdict = check_principle(model, "so2")
    assert not verdict.satisfied and not verdict.capped
    assert verdict.counts["screening_tests"] == 876
    assert "witnesses" not in vars(verdict)  # deciding lists no witness
    for ra, rb, c, pairs in verdict.failures:
        for a, b in pairs:
            assert a in space.phi_cells(ra) and b in space.phi_cells(rb)
    assert sum(len(pairs) for *_, pairs in verdict.failures) == 24
    assert len(verdict.witnesses) == 60
    assert list(verdict.iter_witnesses()) == list(verdict.witnesses)


def test_witness_json_strings(anti2_perf_model):
    verdict = check_principle(anti2_perf_model, "so2")
    data = verdict.to_json(anti2_perf_model)
    w = data["witnesses"][0]
    assert w["lhs"] == "1/2" and w["rhs"] == "1/4"
    assert w["region_a"] == ["x"] and w["region_b"] == ["y"]


# -- implication matrix ------------------------------------------------------------


def test_anti2_perf_matrix_separates_finite_from_infinite(anti2_perf_model):
    matrix = implication_matrix(anti2_perf_model)
    assert matrix.bits == "0011"
    assert matrix.implications["so1=>fin-so1"]
    assert matrix.implications["so2=>fin-so2"]
    assert not matrix.implications["fin-so2=>so2"]


def _v_copy_model() -> Model:
    # a and b copy one fair coin that their common past p does not see, so
    # conditioning on p leaves them correlated on finite and infinite pairs
    causet = validate_causet(["p", "a", "b"], [("p", "a"), ("p", "b")])
    space = HistorySpace(causet, 2)
    weights = {"000": "1/4", "011": "1/4", "100": "1/4", "111": "1/4"}
    return Model.build(space, MeasureTable.from_weights(space, weights))


def test_matrix_replays_each_distinct_failing_triple_once(monkeypatch):
    import causetlab.principles as principles

    calls = []
    grouped = principles.replay_screen_failures

    def counted_grouped(measure, c, pairs):
        pairs = list(pairs)
        calls.extend((c, a, b) for a, b in pairs)
        return grouped(measure, c, pairs)

    monkeypatch.setattr(principles, "replay_screen_failures", counted_grouped)
    matrix = implication_matrix(_v_copy_model())
    assert matrix.bits == "0000"
    records = [
        (ra, rb, c, a, b)
        for verdict in matrix.verdicts.values()
        for ra, rb, c, pairs in verdict.failures
        for a, b in pairs
    ]
    assert len(records) > len(set(records))  # SOk and FIN-SOk share them
    assert sorted(calls) == sorted((c, a, b) for ra, rb, c, a, b in set(records))
    # every witness here is a recorded cell pair, so listing replays none
    del calls[:]
    assert all(verdict.witnesses for verdict in matrix.verdicts.values())
    assert calls == []


def test_matrix_rejects_a_tampered_recorded_pair(monkeypatch):
    import causetlab.principles as principles

    real = principles._screened

    def tampered(*args):
        for out in real(*args):
            # the empty event pair screens off under every screener
            failing = tuple((ra, rb, c, ((0, 0),) + pairs[1:]) for ra, rb, c, pairs in out.failing)
            yield out._replace(failing=failing)

    monkeypatch.setattr(principles, "_screened", tampered)
    with pytest.raises(InternalConsistencyError, match="screens off on replay"):
        implication_matrix(_v_copy_model())


def test_matrix_replay_checks_a_mass_that_several_recorded_pairs_share(monkeypatch):
    # the grouped replay sums each distinct A&C once; a table mass that is
    # wrong for one A&C under one screener must still be caught
    import causetlab.principles as principles

    real = principles.replay_screen_failures
    shared = []

    def tamper_then_replay(measure, c, pairs):
        pairs = list(pairs)
        sides = [a for a, _ in pairs]
        repeated = [a for a in sides if sides.count(a) > 1]
        if repeated and not shared:
            target = repeated[0] & c
            shared.append(target)
            table_mass = measure.mass
            measure.mass = lambda e: table_mass(e) + (e == target)
        return real(measure, c, pairs)

    monkeypatch.setattr(principles, "replay_screen_failures", tamper_then_replay)
    with pytest.raises(InternalConsistencyError, match="differ from the history masses"):
        implication_matrix(_v_copy_model())
    assert shared


# -- the sweep plan -------------------------------------------------------------------

# p below a and b; c unrelated to all three
_V4 = validate_causet(["p", "a", "b", "c"], [("p", "a"), ("p", "b")])


def _six_measures(space):
    from causetlab.hunter import sample_measures

    return sample_measures(space, 5, "plan", 3) + [MeasureTable.perfectly_correlated(space)]


def test_one_sweep_plan_serves_every_measure_of_a_space(monkeypatch):
    # the six measures share one plan, which builds each region's decision
    # events once, for every pair and both families that read them
    import causetlab.principles as principles

    calls = []
    real = principles.capped_gamma_cells

    def counted(space, region, take):
        calls.append(region)
        return real(space, region, take)

    monkeypatch.setattr(principles, "capped_gamma_cells", counted)
    space = HistorySpace(_V4, 2)
    for measure in _six_measures(space):
        implication_matrix(Model.build(space, measure))
    sides = {r for ra, rb in _V4.spacelike_pairs(max_size=3) if ra and rb for r in (ra, rb)}
    assert sorted(calls) == sorted(sides)


def test_an_explicit_map_scans_its_universe_once_per_region(anti2_space, perf, monkeypatch):
    # the decision events, the counts and the witnesses' Gamma of a region
    # all come from one scan of the map's events
    import causetlab.principles as principles

    mapping = {e: anti2_space.canonical_dom(e) for e in range(anti2_space.omega + 1)}
    model = Model.build(anti2_space, perf, DomMap.explicit(mapping))
    calls = []
    real = principles.gamma_capped

    def counted(space, dom, region, limit):
        calls.append(region)
        return real(space, dom, region, limit)

    monkeypatch.setattr(principles, "gamma_capped", counted)
    matrix = implication_matrix(model)
    assert matrix.bits == "0011" and all(v.witnesses or v.satisfied for v in matrix.verdicts.values())
    sides = {r for pair in anti2_space.causet.spacelike_pairs() for r in pair}
    assert sorted(calls) == sorted(sides)


def test_a_replication_sweep_on_an_explicit_map_asks_no_dom_and_plans_once(w_causet, monkeypatch):
    # the map's index answers every Gamma and Phi, and one plan serves
    # replication and the gap check on every pair
    import causetlab.principles as principles

    space = HistorySpace(w_causet, 2)
    dom = DomMap.explicit({e: space.canonical_dom(e) for e in range(space.omega + 1)})
    model = Model.build(space, MeasureTable.random(space, seed=3), dom)
    built = []
    real = principles._SweepPlan

    def counted(*args):
        built.append(args)
        return real(*args)

    def no_dom(*args):
        raise AssertionError("an event's dom was asked for")

    monkeypatch.setattr(principles, "_SweepPlan", counted)
    monkeypatch.setattr(DomMap, "dom", no_dom)
    pairs = list(w_causet.spacelike_pairs())
    reports = [(replicate_so1_to_so2(model, ra, rb), gap_closure_check(model, ra, rb)) for ra, rb in pairs]
    assert len(built) == 1
    assert all(gap.equal for _, gap in reports) and any(rep.passed for rep, _ in reports)


def test_phi_cells_are_built_only_where_a_pair_is_decided_or_a_witness_listed(monkeypatch):
    # counts are closed form on canonical doms: a skipped pair, or a pair
    # with an empty side, builds no Gamma and no Phi. Here (empty, {a, b, c})
    # is the only pair with the past {x, y, z}.
    import causetlab.principles as principles

    causet = validate_causet(["x", "y", "z", "a", "b", "c"], [("x", "a"), ("y", "b"), ("z", "c")])
    space = HistorySpace(causet, 2)
    models = [Model.build(space, m) for m in (MeasureTable.uniform(space), _copy_measure(space, 0b011000))]
    built, decided = [], []
    real_phi, real_screened = HistorySpace.phi_cells, principles._screened

    def phi(self, region):
        built.append(region)
        return real_phi(self, region)

    def screened(measure, ra, rb, *rest):
        decided.append((ra, rb))
        return real_screened(measure, ra, rb, *rest)

    monkeypatch.setattr(HistorySpace, "phi_cells", phi)
    monkeypatch.setattr(principles, "_screened", screened)
    caps = Caps(region_size=1)
    verdicts = [check_principle(m, p, caps) for m in models for p in PRINCIPLES]
    verdicts += [v for m in models for v in implication_matrix(m, caps).verdicts.values()]
    listed = {r for v in verdicts for w in v.witnesses for r in (w.region_a, w.region_b)}
    assert listed and decided

    def regions(pairs):
        pasts = causet.mutual_past, causet.truncated_joint_past
        return {r for ra, rb in pairs for r in (ra, rb, *(past(ra, rb) for past in pasts))}

    allowed = regions(decided) | listed
    assert built and set(built) <= allowed
    assert causet.region("x,y,z") not in allowed and causet.region("a,b") not in allowed


def test_a_pair_whose_two_pasts_coincide_is_evaluated_once(monkeypatch):
    import causetlab.principles as principles

    calls = []
    real = principles._screened

    def counted(measure, ra, rb, *rest):
        calls.append((ra, rb))
        return real(measure, ra, rb, *rest)

    monkeypatch.setattr(principles, "_screened", counted)
    space = HistorySpace(_V4, 2)
    implication_matrix(Model.build(space, MeasureTable.uniform(space)))
    pairs = [(ra, rb) for ra, rb in _V4.spacelike_pairs(max_size=3) if ra and rb]
    differ = [p for p in pairs if _V4.mutual_past(*p) != _V4.truncated_joint_past(*p)]
    assert 0 < len(differ) < len(pairs)
    assert sorted(calls) == sorted(pairs + differ)


def test_measures_sharing_a_plan_get_the_verdicts_of_a_fresh_space():
    space = HistorySpace(_V4, 2)
    models = [Model.build(space, m) for m in _six_measures(space)]
    shared = [implication_matrix(m).to_json(m) for m in models]
    fresh_space = HistorySpace(_V4, 2)
    fresh = [Model.build(fresh_space, MeasureTable(fresh_space, m.measure.weights)) for m in models]
    alone = [implication_matrix(m).to_json(m) for m in reversed(fresh)][::-1]
    assert shared == alone
    assert {json["bits"] for json in shared} != {"1111"}  # some measure fails somewhere


def test_a_single_principle_plans_only_its_own_family(monkeypatch):
    from causetlab import Causet

    def no_p2(*args):
        raise AssertionError("the p2 screeners were planned")

    space = HistorySpace(_V4, 2)
    monkeypatch.setattr(Causet, "truncated_joint_past", no_p2)
    for principle in ("so1", "fin-so1"):
        assert check_principle(Model.build(space, MeasureTable.uniform(space)), principle).satisfied


def test_a_sweep_plan_dies_with_its_space():
    import gc
    import weakref

    import causetlab.principles as principles

    space = HistorySpace(_V4, 2)
    implication_matrix(Model.build(space, MeasureTable.uniform(space)))
    plan = weakref.ref(principles._PLANS[space][DomMap.canonical(), Caps()])
    del space
    gc.collect()
    assert plan() is None


def test_an_explicit_plan_is_shared_across_calls_and_dies_with_its_space(anti2, monkeypatch):
    import gc
    import weakref

    import causetlab.principles as principles

    space = HistorySpace(anti2, 2)
    dom = DomMap.explicit({e: space.canonical_dom(e) for e in range(space.omega + 1)})
    model = Model.build(space, MeasureTable.perfectly_correlated(space), dom)
    built = []
    real = principles._SweepPlan

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(principles, "_SweepPlan", counted)
    assert implication_matrix(model).bits == implication_matrix(model).bits == "0011"
    assert len(built) == 1
    plan = weakref.ref(principles._PLANS[space][dom, Caps()])
    del space, model
    gc.collect()
    assert plan() is None


def test_diamond_uniform_matrix_all_satisfied(diamond):
    matrix = implication_matrix(_uniform_model(diamond))
    assert matrix.bits == "1111"
    assert all(matrix.implications.values())


def test_chain2_matrix_vacuous(chain2):
    space = HistorySpace(chain2, 2)
    measure = MeasureTable.random(space, seed=5)
    matrix = implication_matrix(Model.build(space, measure))
    assert matrix.bits == "1111"


def test_matrix_json_deterministic(anti2_perf_model):
    a = json.dumps(implication_matrix(anti2_perf_model).to_json(anti2_perf_model), sort_keys=True)
    b = json.dumps(implication_matrix(anti2_perf_model).to_json(anti2_perf_model), sort_keys=True)
    assert a == b


# -- the hunter's first-failure route -------------------------------------------------


def _copy_measure(space, copied):
    """copy(S): the elements of S show one shared fair value, the others
    independent fair values."""
    keys = map(space.history_key, range(space.size))
    nums = [int(len({key[i] for i in range(len(key)) if copied >> i & 1}) <= 1) for key in keys]
    return MeasureTable(space, [Fraction(k, sum(nums)) for k in nums])


def _first_witness_json(model, caps):
    """The bits and each first witness's JSON, by the early route and by the
    full matrix."""
    early = first_witnesses(model, caps)
    matrix = implication_matrix(model, caps)
    full = {
        p: None if v.satisfied else next(v.iter_witnesses()).to_json(model)
        for p, v in matrix.verdicts.items()
    }
    return matrix.bits, {p: w and w.to_json(model) for p, w in early.items()}, full


def test_first_witnesses_equal_the_full_matrix_on_every_small_causet():
    from causetlab.hunter import enumerate_causets

    seen = set()
    for q, top in ((2, 5), (3, 3)):
        for causet in (c for n in range(1, top + 1) for c in enumerate_causets(n)):
            space = HistorySpace(causet, q)
            for caps in (Caps(), Caps(algebra=3), Caps(region_size=2, algebra=7)):
                # every copy set at the default caps, the largest proper one otherwise
                copied = range(1 << causet.n) if caps == Caps() else [(1 << causet.n) - 2]
                measures = [
                    MeasureTable.uniform(space),
                    MeasureTable.random(space, f"first:{causet.n}", 3),
                    MeasureTable.perfectly_correlated(space),
                    *(_copy_measure(space, s) for s in copied if s.bit_count() > 1),
                ]
                for measure in measures:
                    bits, early, full = _first_witness_json(Model.build(space, measure), caps)
                    assert early == full, (causet.relation_pairs(), q, caps, bits)
                    seen.add(bits)
                    # the hunter counts the uniform model as 1111 unswept
                    assert measure is not measures[0] or bits == "1111"
    # every combination the hunts report, FIN-SO2 alone included
    assert seen == {"0000", "0001", "0011", "1111"}


@settings(max_examples=60, deadline=None)
@given(small_models(), st.sampled_from([Caps(), Caps(algebra=3), Caps(region_size=2, algebra=7)]))
def test_first_witnesses_equal_the_full_matrix_on_random_models(model, caps):
    # explicit and canonical doms, through the kernel oracles' strategy
    _, early, full = _first_witness_json(model, caps)
    assert early == full


# -- SO1 <=> SO2 on canonical doms ---------------------------------------------------


def test_so1_and_so2_agree_on_every_uncapped_sweep():
    # the stated result: with no cap in effect every canonical plan is
    # exact, and SO1 and SO2 agree on every model, by both routes
    import causetlab.principles as principles
    from causetlab.hunter import enumerate_causets

    seen = set()
    for q, top in ((2, 5), (3, 4)):
        for causet in (c for n in range(1, top + 1) for c in enumerate_causets(n)):
            space = HistorySpace(causet, q)
            caps = Caps(region_size=causet.n, algebra=1 << 300)
            measures = [
                MeasureTable.uniform(space),
                MeasureTable.random(space, f"uncapped:{causet.n}", 3),
                MeasureTable.perfectly_correlated(space),
                *(_copy_measure(space, s) for s in range(1 << causet.n) if s.bit_count() == 2),
            ]
            for measure in measures:
                model = Model.build(space, measure)
                bits = implication_matrix(model, caps).bits
                early = "".join("1" if w is None else "0" for w in first_witnesses(model, caps).values())
                assert bits[0] == bits[1] and early == bits, (causet.relation_pairs(), q, bits)
                seen.add(bits)
            assert principles._plan(space, DomMap.canonical(), caps).exact(space)
    assert seen == {"0000", "0001", "0011", "1111"}


def test_so1_and_so2_differing_on_an_exact_plan_is_a_bug(monkeypatch):
    from causetlab import Causet

    # with an empty truncated joint past SO2 screens on Omega alone, so a
    # measure correlated through the past fails SO2 where SO1 holds
    monkeypatch.setattr(Causet, "truncated_joint_past", lambda self, r1, r2: 0)
    v3 = validate_causet(["p", "a", "b"], [("p", "a"), ("p", "b")])
    space3, space4 = HistorySpace(v3, 2), HistorySpace(_V4, 2)
    for model in (
        Model.build(space3, MeasureTable.perfectly_correlated(space3)),
        Model.build(space4, _copy_measure(space4, _V4.region(["p", "a", "b"]))),
    ):
        for route in (implication_matrix, first_witnesses):
            with pytest.raises(InternalConsistencyError, match="so1 and so2 differ"):
                route(model)
        # every nonempty side's 4-event algebra is cut to 3: the plan is not
        # exact, and the disagreement stays a per-model verdict
        assert implication_matrix(model, Caps(algebra=3)).bits[:2] == "10"
        assert first_witnesses(model, Caps(algebra=3))["so2"] is not None


# -- dom axiom gate ------------------------------------------------------------------


def _broken_dom_model(space, measure):
    mapping = {e: space.canonical_dom(e) for e in range(space.omega + 1)}
    a = space.cylinder({"x": 1})
    mapping[a] = space.causet.full  # breaks axiom 3
    return DomMap.explicit(mapping)


def test_model_refuses_broken_dom_unless_forced(anti2_space, perf):
    dom = _broken_dom_model(anti2_space, perf)
    with pytest.raises(DomAxiomError):
        Model.build(anti2_space, perf, dom)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AxiomViolationWarning)
        model = Model.build(anti2_space, perf, dom, force=True)
    assert not model.axiom_ok
    verdict = check_principle(model, "so2")
    assert verdict.axiom_warning is not None


def test_forced_build_warns(anti2_space, perf):
    dom = _broken_dom_model(anti2_space, perf)
    with pytest.warns(AxiomViolationWarning):
        Model.build(anti2_space, perf, dom, force=True)


def test_each_explicit_dom_is_judged_on_its_own(anti2_space, perf):
    # maps are dropped after each build, so a new one can reuse a freed
    # map's id(); no report may carry over from one map to the next
    valid = {e: anti2_space.canonical_dom(e) for e in range(anti2_space.omega + 1)}
    for _ in range(200):
        with pytest.raises(DomAxiomError):
            Model.build(anti2_space, perf, _broken_dom_model(anti2_space, perf))
        assert Model.build(anti2_space, perf, DomMap.explicit(valid)).axiom_ok


def test_an_explicit_map_counts_pairs_with_an_empty_side_by_its_own_gamma(anti2_space):
    # Omega, the empty event and the four value cylinders: Gamma({x, y}) has
    # 6 events under this map, not the canonical 16, and the pair
    # (empty, {x, y}) ranges over 2 * 6 event pairs
    space = anti2_space
    events = [0, space.omega] + [space.cylinder({e: v}) for e in "xy" for v in (0, 1)]
    dom = DomMap.explicit({e: space.canonical_dom(e) for e in events})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AxiomViolationWarning)
        model = Model.build(space, MeasureTable.uniform(space), dom, force=True)
    causet, cap = space.causet, Caps().algebra
    pairs = list(causet.spacelike_pairs())
    for principle, past in (("so1", causet.mutual_past), ("so2", causet.truncated_joint_past)):
        counts = check_principle(model, principle).counts
        assert counts["event_pairs"] == sum(
            len(gamma_capped(space, dom, ra, cap)[0]) * len(gamma_capped(space, dom, rb, cap)[0])
            for ra, rb in pairs
        )
        assert counts["screeners"] == sum(len(full_specifications(space, dom, past(*p))) for p in pairs)
    assert check_principle(model, "so1").counts["event_pairs"] == 48


def test_explicit_dom_model_checkable(anti2_space, perf):
    # a *valid* explicit dom map (the canonical one, spelled out) works end to end
    mapping = {e: anti2_space.canonical_dom(e) for e in range(anti2_space.omega + 1)}
    model = Model.build(anti2_space, perf, DomMap.explicit(mapping))
    assert model.axiom_ok
    verdict = check_principle(model, "so2")
    assert not verdict.satisfied  # same violation as the canonical route


# -- replication ----------------------------------------------------------------------


def test_replicate_diamond_wings(diamond):
    model = _uniform_model(diamond)
    ra, rb = diamond.region("a"), diamond.region("b")
    report = replicate_so1_to_so2(model, ra, rb)
    assert report.applicable and report.passed
    # flanks are empty, so X = Y = Omega and the composed screeners are the
    # two cells over the common ancestor
    assert len(full_specifications(model.space, model.dom, diamond.mutual_past(ra, rb))) == 2
    assert report.steps[2].checked == 2


def test_replicate_w_causet(w_causet):
    model = _uniform_model(w_causet)
    report = replicate_so1_to_so2(model, w_causet.region("a"), w_causet.region("b"))
    assert report.applicable and report.passed


def test_replicate_not_applicable_when_so1_fails(anti2_perf_model):
    causet = anti2_perf_model.causet
    report = replicate_so1_to_so2(
        anti2_perf_model, causet.region("x"), causet.region("y")
    )
    assert not report.applicable
    assert report.precheck_failures > 0
    assert report.steps == ()
    assert report.to_json(anti2_perf_model)["steps"] == "not-applicable"


def test_replication_steps_replay_what_they_decide():
    # x < a, y < b, uniform: a table mass of {x=0, y=0} raised by one fails
    # step 1 (on X, Y) and step 2 (on K = X & Y) on the tables only, after a
    # truncated precheck the tampering does not reach
    causet = validate_causet(["x", "y", "a", "b"], [("x", "a"), ("y", "b")])
    model = _uniform_model(causet)
    target = model.space.cylinder({"x": 0, "y": 0})
    table_mass = model.measure.mass
    model.measure.mass = lambda e: table_mass(e) + (e == target)
    with pytest.raises(InternalConsistencyError, match="differ from the history masses"):
        replicate_so1_to_so2(model, causet.region("a"), causet.region("b"), Caps(algebra=3))


@pytest.mark.parametrize("zero", [{"p": 0}, {"p": 0, "x": 0, "y": 0}], ids=["C", "K"])
def test_a_false_zero_mass_stops_replication(zero, monkeypatch):
    # p < x < a, p < y < b, uniform: a table mass read as 0 on a screener C
    # of P1 = {p}, or on a K = C & X & Y, contradicts the history masses.
    # A false zero C is caught by its zero-mass replay, a false zero K by
    # the first replay that reads it: step 1's (X, Y) pair, whose X & Y & C
    # is K, or step 2's zero-mass replay. The precheck is forced to pass, as
    # the tampering would stop it first
    import causetlab.principles as principles

    causet = validate_causet(["p", "x", "y", "a", "b"], [("p", "x"), ("p", "y"), ("x", "a"), ("y", "b")])
    model = _uniform_model(causet)
    target = model.space.cylinder(zero)
    table_mass = model.measure.mass
    model.measure.mass = lambda e: 0 if e == target else table_mass(e)
    monkeypatch.setattr(principles, "_eval_family", lambda *args: (True, principles._FamilyOutcome()))
    with pytest.raises(InternalConsistencyError, match="differ from the history masses"):
        replicate_so1_to_so2(model, causet.region("a"), causet.region("b"))


def test_replicate_requires_spacelike(chain2):
    model = _uniform_model(chain2)
    with pytest.raises(NotSpacelikeError):
        replicate_so1_to_so2(model, chain2.region("u"), chain2.region("v"))


# -- gap closure -----------------------------------------------------------------------


def test_gap_closure_diamond(diamond):
    model = _uniform_model(diamond)
    report = gap_closure_check(model, diamond.region("a"), diamond.region("b"))
    assert report.equal
    assert report.composed == report.phi_p2
    assert len(report.phi_p2) == 2  # the two cells over p


def test_gap_closure_w_causet(w_causet):
    model = _uniform_model(w_causet)
    report = gap_closure_check(model, w_causet.region("a"), w_causet.region("b"))
    assert report.equal


def test_gap_closure_reads_each_phi_once(monkeypatch):
    # P1, both flanks and P2, one call each, however many cells they have
    import causetlab.principles as principles

    causet = validate_causet(["x", "y", "a", "b"], [("x", "a"), ("y", "b")])
    model = _uniform_model(causet)
    calls = []
    real = principles.full_specifications

    def counted(space, dom, region):
        calls.append(region)
        return real(space, dom, region)

    monkeypatch.setattr(principles, "full_specifications", counted)
    report = gap_closure_check(model, causet.region("a"), causet.region("b"))
    assert report.equal and len(report.phi_p2) == 4
    assert sorted(calls) == sorted([0, causet.region("x"), causet.region("y"), causet.region("x,y")])


def test_gap_cylinder_count_identity(diamond, w_causet, chain3):
    # |Phi(P2)| = |Phi(P1)| * |Phi(X)| * |Phi(Y)| whenever P2 = X + Y + P1
    for causet in (diamond, w_causet, chain3):
        model = _uniform_model(causet)
        space, dom = model.space, model.dom
        for ra, rb in causet.spacelike_pairs():
            x, y = causet.flank_regions(ra, rb)
            n_p2 = len(full_specifications(space, dom, causet.truncated_joint_past(ra, rb)))
            n_p1 = len(full_specifications(space, dom, causet.mutual_past(ra, rb)))
            n_x = len(full_specifications(space, dom, x))
            n_y = len(full_specifications(space, dom, y))
            assert n_p2 == n_p1 * n_x * n_y
            assert gap_closure_check(model, ra, rb).equal
