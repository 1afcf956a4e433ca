"""Exact probability, correlation, common causes, common cause systems."""

from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetlab import (
    CapExceededError,
    HistorySpace,
    MeasureTable,
    NotAPartitionError,
    ZeroConditionError,
    find_ccs,
    is_ccs,
    is_common_cause,
    is_correlated,
    screens_off,
    validate_causet,
)
from causetlab.measure import _set_partitions

from oracles import brute_ccs, brute_common_cause, brute_partitions, brute_prob, brute_screens

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# -- measure table basics ---------------------------------------------------------


def test_weights_must_sum_to_one(anti2_space):
    with pytest.raises(ValueError):
        MeasureTable(anti2_space, [HALF, HALF, HALF, 0])
    with pytest.raises(ValueError):
        MeasureTable(anti2_space, [Fraction(-1, 2), HALF, HALF, HALF])


def test_perf_measure_probabilities(anti2_space, perf):
    a = anti2_space.cylinder({"x": 1})
    assert perf.prob(a) == HALF
    assert perf.weight_strings() == {"00": "1/2", "11": "1/2"}


def test_cond_prob_on_omega_is_plain_prob(anti2_space, perf):
    a = anti2_space.cylinder({"x": 1})
    assert perf.cond_prob(a, anti2_space.omega) == perf.prob(a)


def test_cond_prob_on_null_event_raises(anti2_space, perf):
    with pytest.raises(ZeroConditionError):
        perf.cond_prob(anti2_space.omega, 0)


def test_from_weights_and_uniform(anti2_space):
    m = MeasureTable.from_weights(anti2_space, {"00": "1/2", "11": "1/2"})
    assert m.weights == MeasureTable.perfectly_correlated(anti2_space).weights
    u = MeasureTable.uniform(anti2_space)
    assert all(w == QUARTER for w in u.weights)


def test_random_measure_exact_and_deterministic(anti2_space):
    m1 = MeasureTable.random(anti2_space, 7, 100)
    m2 = MeasureTable.random(anti2_space, 7, 100)
    assert m1.weights == m2.weights
    assert sum(m1.weights) == 1


# -- integer masses ------------------------------------------------------------------

@cache
def _antichain_space(q, n):
    # the measure ignores the order, so antichains give every size q^n
    return HistorySpace(validate_causet([f"e{i}" for i in range(n)], []), q)


# sizes 4, 8, 16, 32 (q = 2) and 9, 27, 81 (q = 3): several 8-history
# chunks, and a partial last chunk for 4, 9, 27 and 81
SHAPES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)]


def _fields(m):
    return m.weights, m.denominator, m.masses, m.weight_strings(), m._tables


@pytest.mark.parametrize("seed, bound", [(7, 100), ("plan:3", 5), (1, 2), (0, 0)])
@pytest.mark.parametrize("q, n", [(2, 4), (3, 2)])
def test_random_weights_are_the_normalized_draws(q, n, seed, bound):
    # random() builds its table from integers; the weights must be the
    # Fractions k / sum(k) of the same seeded draws, recomputed here, and
    # the table that of those weights
    import random

    space = _antichain_space(q, n)
    rng = random.Random(f"measure:{seed}")
    nums = [rng.randint(0, bound) for _ in range(space.size)]
    if not any(nums):
        nums[0] = 1
    expected = [Fraction(k, sum(nums)) for k in nums]
    m = MeasureTable.random(space, seed, bound)
    assert list(m.weights) == expected
    assert _fields(m) == _fields(MeasureTable(space, expected))


@pytest.mark.parametrize("q, n", [(2, 1), (2, 4), (3, 2), (3, 3)])
def test_uniform_and_perfect_tables_are_those_of_their_weights(q, n):
    space = _antichain_space(q, n)
    constant = {sum(v * q ** i for i in range(n)) for v in range(q)}
    perfect = [Fraction(1, q) if h in constant else Fraction(0) for h in range(space.size)]
    assert _fields(MeasureTable.uniform(space)) == _fields(
        MeasureTable(space, [Fraction(1, space.size)] * space.size))
    assert _fields(MeasureTable.perfectly_correlated(space)) == _fields(MeasureTable(space, perfect))


@st.composite
def measures_with_events(draw, shapes=SHAPES):
    q, n = draw(st.sampled_from(shapes))
    space = _antichain_space(q, n)
    # mixed denominators, so the common denominator usually differs from
    # each of them; some weights zero
    raw = draw(st.lists(
        st.builds(Fraction, st.integers(0, 3), st.sampled_from([1, 2, 3, 5, 7, 11])),
        min_size=space.size, max_size=space.size,
    ))
    raw[draw(st.integers(0, space.size - 1))] += Fraction(1, 4)
    total = sum(raw)
    measure = MeasureTable(space, [w / total for w in raw])
    event = st.one_of(st.just(0), st.just(space.omega), st.integers(0, space.omega))
    return measure, draw(event), draw(event), draw(event)


@settings(max_examples=300, deadline=None)
@given(measures_with_events())
def test_integer_masses_match_the_fraction_oracle(drawn):
    m, a, b, c = drawn
    assert m.denominator == lcm(*(w.denominator for w in m.weights))
    for e in (a, b, c, a & b, a & b & c):
        assert Fraction(m.mass(e), m.denominator) == brute_prob(m, e) == m.prob(e)
        assert m.direct_mass(e) == m.mass(e) == brute_prob(m, e) * m.denominator
    assert screens_off(m, a, b, c) == brute_screens(m, a, b, c)
    assert is_correlated(m, a, b) == (brute_prob(m, a & b) > brute_prob(m, a) * brute_prob(m, b))


@st.composite
def common_cause_inputs(draw):
    # spaces of 4, 8, 9 and 27 histories, where the Fraction oracles stay fast
    m, a, b, c = draw(measures_with_events([(2, 2), (2, 3), (3, 2), (3, 3)]))
    if draw(st.booleans()):
        # A inside B is correlated whenever mu(A) > 0 and mu(B) < 1, so the
        # verdicts go on past the correlation test
        a = draw(st.integers(0, m.space.omega))
        b = a | draw(st.integers(0, m.space.omega))
    size = m.space.size
    labels = draw(st.one_of(
        st.just(list(range(size))),  # singletons: every cell screens off
        st.lists(st.integers(0, draw(st.integers(0, 4))), min_size=size, max_size=size),
    ))
    if draw(st.booleans()):
        # A is constant on every cell of a refinement of {A, A^c}, so every
        # cell screens off and the cross relevance decides
        labels = [2 * k + (a >> h & 1) for h, k in enumerate(labels)]
    if draw(st.booleans()):
        labels = [-1 if w == 0 else k for k, w in zip(labels, m.weights)]  # a zero-mass cell
    cells = {}
    for h, k in enumerate(labels):
        cells[k] = cells.get(k, 0) | 1 << h
    partition = [cells[k] for k in sorted(cells)]
    return (m, a, b, c, partition, draw(st.sampled_from(["printed", "conditional"])),
            draw(st.sampled_from(["vacuous", "strict"])))


@settings(max_examples=300, deadline=None)
@given(common_cause_inputs())
def test_common_cause_verdicts_match_the_fraction_oracles(drawn):
    m, a, b, c, partition, relevance, zero_mode = drawn
    assert (is_common_cause(m, a, b, c, relevance, zero_mode).to_json()
            == brute_common_cause(m, a, b, c, relevance, zero_mode).to_json())
    assert is_ccs(m, a, b, partition, zero_mode).to_json() == brute_ccs(m, a, b, partition, zero_mode).to_json()


# -- correlation ---------------------------------------------------------------------


def test_perf_correlates_the_two_sites(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    assert brute_prob(perf, a & b) == HALF > QUARTER
    assert is_correlated(perf, a, b)


def test_uniform_product_is_uncorrelated(anti2_space):
    u = MeasureTable.uniform(anti2_space)
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    assert not is_correlated(u, a, b)


def test_omega_never_strictly_correlated(anti2_space, perf):
    a = anti2_space.cylinder({"x": 1})
    assert not is_correlated(perf, a, anti2_space.omega)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=1000))
def test_product_measures_leave_disjoint_doms_uncorrelated(seed):
    # spec invariant: in product measures, events with disjoint canonical
    # doms are uncorrelated (here: weights factor per element by construction)
    causet = validate_causet(["x", "y"], [])
    space = HistorySpace(causet, 2)
    import random

    rng = random.Random(seed)
    px = Fraction(rng.randint(0, 10), 10)
    py = Fraction(rng.randint(0, 10), 10)
    weights = [
        (px if h >> 0 & 1 else 1 - px) * (py if h >> 1 & 1 else 1 - py)
        for h in range(space.size)
    ]
    m = MeasureTable(space, weights)
    a, b = space.cylinder({"x": 1}), space.cylinder({"y": 1})
    assert not is_correlated(m, a, b)
    assert m.prob(a & b) == m.prob(a) * m.prob(b)


def test_product_measure_conditional_independence_given_disjoint_cylinder(w_causet):
    # a three-site product measure: conditioning on a cylinder over a region
    # disjoint from both doms preserves independence, exactly
    space = HistorySpace(w_causet, 2)
    pq, pa, pb = Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)
    weights = []
    for h in range(space.size):
        w = Fraction(1)
        for i, p in enumerate((pq, pa, pb)):
            w *= p if space._value(h, i) else 1 - p
        weights.append(w)
    m = MeasureTable(space, weights)
    a, b = space.cylinder({"a": 1}), space.cylinder({"b": 1})
    for v in (0, 1):
        c = space.cylinder({"q": v})  # q is outside dom(a) and dom(b)
        assert m.cond_prob(a & b, c) == m.cond_prob(a, c) * m.cond_prob(b, c)


# -- single common causes ---------------------------------------------------------------


def test_event_is_its_own_common_cause(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    c = a & b  # 0 < mu(c) = 1/2 < 1, and a = b = c on the support
    verdict = is_common_cause(perf, c, c, c)
    assert verdict.qualifies


def test_perf_screener_at_x(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    c = anti2_space.cylinder({"x": 1})
    # oracle: evaluate the four conditions by weight sums
    assert brute_screens(perf, a, b, c)
    assert brute_screens(perf, a, b, anti2_space.omega & ~c)
    assert brute_prob(perf, a & c) > brute_prob(perf, a & (anti2_space.omega & ~c))
    verdict = is_common_cause(perf, a, b, c)
    assert verdict.qualifies and not verdict.failed_conditions


def test_omega_fails_screening_for_correlated_pair(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    verdict = is_common_cause(perf, a, b, anti2_space.omega)
    assert not verdict.qualifies
    assert "screen-on-C" in verdict.failed_conditions
    lhs, rhs = verdict.sides["screen-on-C"]
    assert (lhs, rhs) == (HALF, QUARTER)


def test_uncorrelated_pair_reported(anti2_space):
    u = MeasureTable.uniform(anti2_space)
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    verdict = is_common_cause(u, a, b, a)
    assert not verdict.qualifies
    assert "not-correlated" in verdict.failed_conditions


def test_common_cause_symmetric_in_a_and_b(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    for c in (a, b, a & b, anti2_space.omega):
        assert (
            is_common_cause(perf, a, b, c).qualifies
            == is_common_cause(perf, b, a, c).qualifies
        )


def test_relevance_conditional_form_differs_when_printed_fails():
    # weights chosen so mu(A & C) < mu(A & C^c) but mu(A|C) > mu(A|C^c)
    causet = validate_causet(["x", "y"], [])
    space = HistorySpace(causet, 2)
    m = MeasureTable.from_weights(space, {
        "11": "1/10", "00": "6/10", "01": "15/100", "10": "15/100",
    })
    a, b = space.cylinder({"x": 1}), space.cylinder({"y": 1})
    assert is_correlated(m, a, b)
    c = a & b
    printed = is_common_cause(m, a, b, c, relevance="printed")
    conditional = is_common_cause(m, a, b, c, relevance="conditional")
    assert "relevance-A" in printed.failed_conditions
    assert "relevance-A" not in conditional.failed_conditions


def test_zero_screener_strict_mode_reports_cell(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    c = anti2_space.cylinder({"x": 1}) & anti2_space.cylinder({"y": 0})  # mu = 0
    vac = is_common_cause(perf, a, b, c, zero_mode="vacuous")
    strict = is_common_cause(perf, a, b, c, zero_mode="strict")
    assert vac.zero_screeners == ()
    assert strict.zero_screeners == ("screen-on-C",)


def test_qualifying_verdict_implies_correlation(anti2_space, perf):
    # sanity of the relevance variant: a qualifying verdict must come from a
    # genuinely correlated pair, since not-correlated is itself a condition
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    for c in range(0, anti2_space.omega + 1, 3):
        verdict = is_common_cause(perf, a, b, c)
        if verdict.qualifies:
            assert is_correlated(perf, a, b)


# -- common cause systems ------------------------------------------------------------


def test_perf_value_partition_is_a_ccs(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    partition = list(anti2_space.phi_cells(anti2_space.causet.region("x")))
    assert is_ccs(perf, a, b, partition).qualifies


def test_omega_partition_fails_screening(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    verdict = is_ccs(perf, a, b, [anti2_space.omega])
    assert not verdict.qualifies
    assert verdict.failure["kind"] == "screening"


def test_ccs_reports_uncorrelated(anti2_space):
    u = MeasureTable.uniform(anti2_space)
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    verdict = is_ccs(u, a, b, list(anti2_space.phi_cells(anti2_space.causet.region("x"))))
    assert not verdict.qualifies
    assert verdict.failure["kind"] == "not-correlated"


def test_ccs_rejects_non_partitions(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    with pytest.raises(NotAPartitionError):
        is_ccs(perf, a, b, [anti2_space.omega, anti2_space.cylinder({"x": 0})])
    with pytest.raises(NotAPartitionError):
        is_ccs(perf, a, b, [anti2_space.omega, 0])
    with pytest.raises(NotAPartitionError):
        is_ccs(perf, a, b, [anti2_space.cylinder({"x": 0})])


# -- find_ccs -----------------------------------------------------------------------


def test_partition_enumeration_matches_independent_recursion():
    lib = [tuple(sorted(p)) for p in _set_partitions(4)]
    oracle = [tuple(sorted(p)) for p in brute_partitions(4)]
    assert len(lib) == 15  # Bell(4)
    assert sorted(lib) == sorted(oracle)
    assert len(set(lib)) == 15


def test_find_ccs_perf_includes_value_partition(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    found = find_ccs(perf, a, b, max_size=2)
    value_partition = tuple(anti2_space.phi_cells(anti2_space.causet.region("x")))
    assert tuple(sorted(value_partition)) in [tuple(sorted(p)) for p in found]
    # oracle: filter all 15 partitions with independent arithmetic
    expected = []
    for cells in brute_partitions(4):
        if len(cells) > 2:
            continue
        if not all(brute_screens(perf, a, b, c) for c in cells):
            continue
        pos = [c for c in cells if brute_prob(perf, c) > 0]
        ok = True
        for i, ci in enumerate(pos):
            for cj in pos[i + 1:]:
                da = brute_prob(perf, a & ci) / brute_prob(perf, ci) - brute_prob(
                    perf, a & cj
                ) / brute_prob(perf, cj)
                db = brute_prob(perf, b & ci) / brute_prob(perf, ci) - brute_prob(
                    perf, b & cj
                ) / brute_prob(perf, cj)
                if not da * db > 0:
                    ok = False
        if ok:
            expected.append(tuple(sorted(cells)))
    assert sorted(tuple(sorted(p)) for p in found) == sorted(expected)


def test_find_ccs_uncorrelated_is_empty(anti2_space):
    u = MeasureTable.uniform(anti2_space)
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    assert find_ccs(u, a, b, max_size=4) == []


def test_find_ccs_single_cell_never_qualifies(anti2_space, perf):
    a, b = anti2_space.cylinder({"x": 1}), anti2_space.cylinder({"y": 1})
    assert find_ccs(perf, a, b, max_size=1) == []


def test_find_ccs_cap_directs_to_region_mode(diamond):
    space = HistorySpace(diamond, 2)
    m = MeasureTable.uniform(space)
    a, b = space.cylinder({"a": 1}), space.cylinder({"b": 1})
    with pytest.raises(CapExceededError) as exc:
        find_ccs(m, a, b, max_size=2)
    assert "regions" in str(exc.value)


def test_find_ccs_region_mode(diamond):
    space = HistorySpace(diamond, 2)
    m = MeasureTable.from_weights(space, {"0000": "1/2", "1111": "1/2"})
    a, b = space.cylinder({"a": 1}), space.cylinder({"b": 1})
    found = find_ccs(m, a, b, max_size=2, mode="regions")
    value_at_p = tuple(space.phi_cells(diamond.region("p")))
    assert tuple(sorted(value_at_p)) in [tuple(sorted(p)) for p in found]
