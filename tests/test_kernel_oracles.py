"""The screening kernel against the brute-force oracles on random small models.

The checker decides canonical sweeps and replication steps 1-2 on Phi cell
pairs and lists failures lazily; the oracles enumerate Gamma by literal dom
filtering, Phi by the settles-every-event definition and screening by plain
Fraction division. Both dom routes must reproduce the oracles' full failure
lists and counts.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetlab import (
    PRINCIPLES,
    Caps,
    DomAxiomReport,
    DomMap,
    HistorySpace,
    MeasureTable,
    Model,
    check_principle,
    full_specifications,
    replicate_so1_to_so2,
    validate_causet,
)
import causetlab.principles as principles
from causetlab.histories import gamma_capped

from oracles import brute_gamma, brute_phi, brute_prob, brute_replication_steps, brute_screens

# high enough that no region algebra is truncated (q = 3, 2 elements: 2^9)
UNCAPPED = Caps(region_size=3, algebra=1 << 10)

COUNTS = ("region_pairs", "region_pairs_nonempty", "region_pairs_skipped", "event_pairs",
          "screeners", "screening_tests", "zero_screeners")

_memo: dict = {}


def _brute(oracle, space, region):
    # Gamma and Phi depend on the shape of the product space, not the order
    key = (oracle.__name__, space.causet.n, space.q, region)
    if key not in _memo:
        _memo[key] = oracle(space, region)
    return _memo[key]


@st.composite
def small_models(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3 if q == 2 else 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    elements = [f"e{i}" for i in range(n)]
    causet = validate_causet(elements, [(elements[i], elements[j]) for i, j in relations])
    space = HistorySpace(causet, q)
    if draw(st.booleans()):
        nums = draw(st.lists(st.integers(0, 3), min_size=space.size, max_size=space.size))
        nums[0] += not any(nums)
    else:
        # a product measure with one unit of weight moved between two
        # histories: screening then fails on a few cell pairs only
        marginals = [draw(st.lists(st.integers(1, 3), min_size=q, max_size=q)) for _ in range(n)]
        nums = [1] * space.size
        for h in range(space.size):
            for i in range(n):
                nums[h] *= marginals[i][h // q**i % q]
        source, target = draw(st.lists(st.integers(0, space.size - 1), min_size=2, max_size=2))
        nums[source] -= 1
        nums[target] += 1
    measure = MeasureTable(space, [Fraction(k, sum(nums)) for k in nums])
    if draw(st.booleans()):
        dom = DomMap.explicit({e: space.canonical_dom(e) for e in range(space.omega + 1)})
    else:
        dom = DomMap.canonical()
    return Model(space, measure, dom, DomAxiomReport((), 0, 0, stamped="unchecked"))


def _skipped(ra, rb, caps):
    return ra and rb and max(bin(ra).count("1"), bin(rb).count("1")) > caps.region_size


def _capped_gamma(model, region, algebra):
    """The capped prefix of Gamma(region) a sweep ranges over, from
    gamma_capped, and whether the cap cut it short; it must be the literal
    Gamma whenever the cap leaves room for all of it, and part of it
    otherwise."""
    full = _brute(brute_gamma, model.space, region)
    events, truncated = gamma_capped(model.space, model.dom, region, algebra)
    assert set(events) <= set(full) and len(events) == min(len(full), algebra)
    assert truncated == (algebra < len(full))
    return events, truncated


def _oracle(model, past_of, caps):
    """Per spacelike pair: causal finiteness, the counts of the literal sweep
    under `caps`, whether a cap cut it short, and its failures
    (ra, rb, A, B, C, lhs, rhs)."""
    causet, space, measure = model.causet, model.space, model.measure
    rows = []
    for ra, rb in causet.spacelike_pairs():
        finite = causet.is_causally_finite(ra) and causet.is_causally_finite(rb)
        counts = dict.fromkeys(COUNTS, 0)
        if _skipped(ra, rb, caps):
            counts["region_pairs_skipped"] = 1
            rows.append((finite, counts, True, []))
            continue
        (gam_a, trunc_a), (gam_b, trunc_b) = (_capped_gamma(model, r, caps.algebra) for r in (ra, rb))
        cells = _brute(brute_phi, space, past_of(ra, rb))
        trivial = ra == 0 or rb == 0
        counts.update(
            region_pairs=1,
            region_pairs_nonempty=int(not trivial),
            event_pairs=len(gam_a) * len(gam_b),
            screeners=len(cells),
        )
        failures = []
        for c in cells:
            if not trivial and brute_prob(measure, c) == 0:
                counts["zero_screeners"] += 1
                continue
            counts["screening_tests"] += len(gam_a) * len(gam_b)
            for a in gam_a:
                for b in gam_b:
                    if not brute_screens(measure, a, b, c):
                        pc = brute_prob(measure, c)
                        lhs = brute_prob(measure, a & b & c) / pc
                        rhs = brute_prob(measure, a & c) / pc * (brute_prob(measure, b & c) / pc)
                        failures.append((ra, rb, a, b, c, lhs, rhs))
        rows.append((finite, counts, trunc_a or trunc_b, failures))
    return rows


def _first_direct_failure(model, principle, caps):
    """The first failure of a direct loop over gamma_capped, in sweep order,
    decided by the Fraction oracles rather than the library's integer kernel."""
    causet, space, dom = model.causet, model.space, model.dom
    past_of = causet.mutual_past if principle.endswith("so1") else causet.truncated_joint_past
    for ra, rb in causet.spacelike_pairs():
        if _skipped(ra, rb, caps) or principle.startswith("fin") and not (
            causet.is_causally_finite(ra) and causet.is_causally_finite(rb)
        ):
            continue
        gam_a, _ = gamma_capped(space, dom, ra, caps.algebra)
        gam_b, _ = gamma_capped(space, dom, rb, caps.algebra)
        for c in full_specifications(space, dom, past_of(ra, rb)):
            if brute_prob(model.measure, c) == 0:
                continue
            for a in gam_a:
                for b in gam_b:
                    if not brute_screens(model.measure, a, b, c):
                        return ra, rb, a, b, c
    return None


def _triple(w):
    return w.region_a, w.region_b, w.event_a, w.event_b, w.screener


@settings(max_examples=120, deadline=None)
@given(small_models(), st.builds(Caps, st.sampled_from([3, 2, 1]), st.sampled_from([UNCAPPED.algebra, 5, 3, 1, 0])))
def test_kernel_matches_the_oracles(model, caps):
    # algebra 0 and 1 leave no event to decide on, but zero screeners are
    # still counted
    _check_against_the_oracles(model, caps)


def _off_first_cell_model():
    # uniform on 3 x 3 values with one unit of weight moved from (x=1, y=1)
    # to (x=2, y=1): the cell rows x=1 and x=2 fail while the row x=0 holds,
    # so a decision that looked at fewer cells could miss the failures
    space = HistorySpace(validate_causet(["x", "y"], []), 3)
    nums = [1] * space.size
    nums[space.history_from_key("11")] -= 1
    nums[space.history_from_key("21")] += 1
    return Model.build(space, MeasureTable(space, [Fraction(k, 9) for k in nums]))


def test_failures_away_from_the_first_cell_are_found():
    model = _off_first_cell_model()
    assert not check_principle(model, "so1").satisfied
    _check_against_the_oracles(model)


@pytest.mark.parametrize("caps", [Caps(1, UNCAPPED.algebra), Caps(1, 3), Caps(2, 1), Caps(3, 0), Caps(3, 5)])
def test_capped_sweeps_with_skipped_pairs_and_zero_screeners_match_the_oracles(caps):
    # q < a, with b unrelated: region cap 1 skips ({q, a}, {b}), and the
    # screener q = 0 of (a, b) under P2 = {q} has mass zero, so random
    # models, which seldom have either, do not stand in for this one
    space = HistorySpace(validate_causet(["q", "a", "b"], [("q", "a")]), 2)
    nums = [0, 1, 0, 2, 0, 3, 0, 1]  # history h has q = h % 2
    model = Model.build(space, MeasureTable(space, [Fraction(k, sum(nums)) for k in nums]))
    assert check_principle(model, "so2", caps).counts["zero_screeners"] > 0
    _check_against_the_oracles(model, caps)


def _check_against_the_oracles(model, caps=UNCAPPED):
    causet = model.causet
    oracle = {"so1": _oracle(model, causet.mutual_past, caps),
              "so2": _oracle(model, causet.truncated_joint_past, caps)}
    for principle in PRINCIPLES:
        rows = [r for r in oracle[principle[-3:]] if r[0] or not principle.startswith("fin")]
        failures = sorted(f for r in rows for f in r[3])
        verdict = check_principle(model, principle, caps)
        assert verdict.satisfied == (not failures)
        assert verdict.capped == any(r[2] for r in rows)
        assert verdict.counts == {key: sum(r[1][key] for r in rows) for key in COUNTS}
        first = _first_direct_failure(model, principle, caps) if failures else None
        if failures:
            # the first witness comes without listing the rest
            assert _triple(next(verdict.iter_witnesses())) == first
            assert "witnesses" not in vars(verdict)
        assert sorted(_triple(w) + (w.lhs, w.rhs) for w in verdict.witnesses) == failures
        assert [_triple(w) for w in verdict.witnesses[:1]] == ([first] if failures else [])


# -- replication steps 1-2 ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_models(), st.sampled_from([UNCAPPED.algebra, 1, 2, 3, 5]))
def test_replication_steps_match_the_oracle(model, algebra):
    _check_replication_against_the_oracle(model, algebra)


def test_replication_failures_away_from_the_first_cell_are_listed():
    model = _off_first_cell_model()
    x, y = model.causet.region("x"), model.causet.region("y")
    assert _check_replication_against_the_oracle(model, UNCAPPED.algebra, [(x, y)]) > 0


def _check_replication_against_the_oracle(model, algebra, pairs=None):
    """Steps 1-2 of every spacelike pair, with the SO1 precheck forced to a
    truncated pass so that models violating SO1 reach the steps, against the
    oracle's literal loop over gamma_capped; returns the failures seen."""
    causet, space, dom = model.causet, model.space, model.dom
    seen = 0
    passing = True, principles._FamilyOutcome()
    with patch.object(principles, "_eval_family", lambda *args: passing):
        for ra, rb in pairs or causet.spacelike_pairs():
            report = replicate_so1_to_so2(model, ra, rb, Caps(region_size=3, algebra=algebra))
            x, y = causet.flank_regions(ra, rb)
            expected = brute_replication_steps(
                model.measure,
                gamma_capped(space, dom, ra, algebra)[0],
                gamma_capped(space, dom, rb, algebra)[0],
                *(full_specifications(space, dom, r) for r in (x, y, causet.mutual_past(ra, rb))),
            )
            for step, (checked, failures) in zip(report.steps, expected):
                assert (step.passed, step.checked, list(step.failures)) == (not failures, checked, failures)
                seen += len(failures)
    return seen
