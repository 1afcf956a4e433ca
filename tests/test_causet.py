"""Region algebra: construction, the named operations, and their laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetlab import (
    CycleError,
    DuplicateElementError,
    ForeignRegionError,
    LimitError,
    NotSpacelikeError,
    enumerate_causets,
    validate_causet,
)


# -- construction -------------------------------------------------------------


def test_chain2_already_closed():
    c = validate_causet(["u", "v"], [("u", "v")])
    assert c.relation_pairs() == [("u", "v")]


def test_diamond_closure_adds_top_pair(diamond):
    assert ("p", "t") in diamond.relation_pairs()
    assert diamond.precedes("p", "t")


def test_two_cycle_rejected():
    with pytest.raises(CycleError) as exc:
        validate_causet(["u", "v"], [("u", "v"), ("v", "u")])
    assert set(exc.value.cycle) == {"u", "v"}


def test_self_loop_rejected():
    with pytest.raises(CycleError):
        validate_causet(["u"], [("u", "u")])


def test_longer_cycle_named():
    with pytest.raises(CycleError) as exc:
        validate_causet(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert set(exc.value.cycle) == {"a", "b", "c"}


def test_duplicate_elements_rejected():
    with pytest.raises(DuplicateElementError):
        validate_causet(["x", "x"], [])


def test_unknown_relation_element_rejected():
    with pytest.raises(ForeignRegionError):
        validate_causet(["x"], [("x", "zz")])


def test_unknown_region_label_rejected(diamond):
    with pytest.raises(ForeignRegionError):
        diamond.region(["nope"])


@pytest.mark.parametrize("a, b", [("a", "z"), ("z", "b"), ("z", "z")])
def test_unknown_precedes_label_rejected(a, b):
    c = validate_causet(["a", "b"], [("a", "b")])
    with pytest.raises(ForeignRegionError, match="'z'"):
        c.precedes(a, b)


# -- pasts and separation -------------------------------------------------------


def test_past_of_top_is_everything(diamond):
    assert diamond.labels(diamond.past(diamond.region("t"))) == ("p", "a", "b", "t")


def test_past_of_empty_region_is_empty(diamond, anti2):
    assert diamond.past(0) == 0
    assert anti2.past(0) == 0


def test_past_without_predecessors(anti2):
    assert anti2.labels(anti2.past(anti2.region("x"))) == ("x",)


def test_memoised_past_matches_definition_cold_and_warm():
    for n in range(1, 6):
        for c in enumerate_causets(n):
            expected = []
            for r in range(c.full + 1):
                out = r
                for i in range(n):
                    if r >> i & 1:
                        out |= c._below[i]
                expected.append(out)
            for _ in range(2):  # the first pass builds the table, the second reads it
                assert [c.past(r) for r in range(c.full + 1)] == expected
            assert list(c._past_table) == expected
            for foreign in (c.full + 1, 1 << n, -1):
                with pytest.raises(ForeignRegionError):
                    c.past(foreign)
                with pytest.raises(ForeignRegionError):
                    c.causal_complement(foreign)


def test_past_beyond_the_table_limit():
    # 17 elements is past the table's limit: past() joins point pasts
    # instead, and the table and the region sweeps refuse to start
    labels = [f"e{i}" for i in range(17)]
    chain = validate_causet(labels, list(zip(labels, labels[1:])))
    assert chain.past(1 << 16) == chain.full
    assert chain.past(1 << 3 | 1 << 1) == 0b1111
    with pytest.raises(LimitError):
        chain.region_identity_failures()
    with pytest.raises(LimitError):
        next(chain.spacelike_pairs())


def test_bits_lists_each_set_bit_ascending_below_and_above_the_table():
    # masks below 2^8 read a table and wider ones walk their low bits; both
    # must give the bit-by-bit definition, including the table's edge
    import random

    from causetlab.causet import _bits

    def literal(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    for mask in range(1 << 12):
        assert list(_bits(mask)) == literal(mask)
    rng = random.Random("bits")
    for _ in range(500):
        dense = rng.getrandbits(rng.randint(1, 20))
        assert list(_bits(dense)) == literal(dense)
        # up to 2^20 bits wide: ascending, and summing to the mask
        picked = {rng.randrange(1 << rng.randint(1, 20)) for _ in range(rng.randint(1, 12))}
        assert list(_bits(sum(1 << i for i in picked))) == sorted(picked)


def test_identity_lanes_cover_at_most_eight_elements():
    # lane columns are built on first use, for the low eight elements at
    # most; the elements above them are looped over, and 17 is refused
    # before any lane is built
    from causetlab.causet import _LANE_WIDTH, _lane_columns

    labels = [f"e{i}" for i in range(17)]
    _lane_columns.cache_clear()
    with pytest.raises(LimitError):
        validate_causet(labels, []).region_identity_failures()
    assert _lane_columns.cache_info().currsize == 0
    assert validate_causet(labels[:12], []).region_identity_failures() == ((3 ** 12 + 1) // 2, [])
    assert _LANE_WIDTH == 8 and _lane_columns.cache_info().currsize <= 2 * (_LANE_WIDTH + 1)
    lanes, cols_a, cols_b = _lane_columns(_LANE_WIDTH, False)
    assert lanes.bit_length() == 3 ** 8 and len(cols_a) == len(cols_b) == 8


def test_spacelike_diamond_wings(diamond):
    assert diamond.is_spacelike(diamond.region("a"), diamond.region("b"))


def test_chain_not_spacelike(chain2):
    assert not chain2.is_spacelike(chain2.region("u"), chain2.region("v"))


def test_region_never_spacelike_from_itself(diamond):
    a = diamond.region("a")
    assert not diamond.is_spacelike(a, a)


def test_mutual_and_truncated_past_diamond(diamond):
    a, b = diamond.region("a"), diamond.region("b")
    assert diamond.labels(diamond.mutual_past(a, b)) == ("p",)
    assert diamond.labels(diamond.truncated_joint_past(a, b)) == ("p",)


def test_pasts_on_antichain(anti2):
    x, y = anti2.region("x"), anti2.region("y")
    assert anti2.mutual_past(x, y) == 0
    assert anti2.truncated_joint_past(x, y) == 0


def test_truncated_past_defined_for_non_spacelike(diamond):
    a, t = diamond.region("a"), diamond.region("t")
    assert diamond.labels(diamond.truncated_joint_past(a, t)) == ("p", "b")


# -- complement, closure, finiteness -------------------------------------------


def test_complement_diamond(diamond):
    assert diamond.labels(diamond.causal_complement(diamond.region("a"))) == ("b",)
    assert diamond.causal_complement(diamond.region("p")) == 0


def test_complement_of_empty_is_everything(diamond, chain3):
    assert diamond.causal_complement(0) == diamond.full
    assert chain3.causal_complement(0) == chain3.full


def test_closure_diamond_wing(diamond):
    a = diamond.region("a")
    assert diamond.causal_closure(a) == a


def test_closure_chain_bottom_is_everything(chain3):
    assert chain3.causal_closure(chain3.region("c1")) == chain3.full


def test_closure_antichain_point(anti2):
    x = anti2.region("x")
    assert anti2.causal_closure(x) == x


def test_causal_finiteness(diamond, anti2):
    assert diamond.is_causally_finite(diamond.region("a"))
    assert not anti2.is_causally_finite(anti2.region("x"))


def test_full_region_causally_infinite(diamond, anti2, chain3):
    for c in (diamond, anti2, chain3):
        assert not c.is_causally_finite(c.full)


def test_empty_region_causally_infinite_by_literal_definition(diamond):
    # closure(empty) = empty and an empty past: the definition reads "infinite"
    assert not diamond.is_causally_finite(0)


# -- flanks and the enlarged-pair identity ---------------------------------------


def test_flanks_diamond_empty(diamond):
    assert diamond.flank_regions(diamond.region("a"), diamond.region("b")) == (0, 0)


def test_flanks_w_causet(w_causet):
    x, y = w_causet.flank_regions(w_causet.region("a"), w_causet.region("b"))
    assert w_causet.labels(x) == ("q",)
    assert y == 0


def test_flanks_antichain(anti2):
    assert anti2.flank_regions(anti2.region("x"), anti2.region("y")) == (0, 0)


def test_crucial_identity_diamond(diamond):
    report = diamond.verify_crucial_identity(diamond.region("a"), diamond.region("b"))
    assert report.holds
    assert diamond.labels(report.mutual_past) == ("p",)
    assert report.truncated_joint_past_enlarged == report.mutual_past


def test_crucial_identity_w_causet(w_causet):
    # oracle: direct set evaluation with the region ops
    a, b = w_causet.region("a"), w_causet.region("b")
    x, y = w_causet.flank_regions(a, b)
    lhs = w_causet.truncated_joint_past(a | x, b | y)
    rhs = w_causet.mutual_past(a, b)
    assert lhs == rhs == 0
    report = w_causet.verify_crucial_identity(a, b)
    assert report.holds and report.enlarged_spacelike


def test_crucial_identity_needs_spacelike(chain2):
    with pytest.raises(NotSpacelikeError):
        chain2.verify_crucial_identity(chain2.region("u"), chain2.region("v"))


# -- algebraic laws on randomized causets ----------------------------------------


@st.composite
def causets(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    labels = [f"v{i}" for i in range(n)]
    return validate_causet(labels, [(labels[i], labels[j]) for i, j in chosen])


@st.composite
def causet_and_regions(draw, count=1, max_n=6):
    causet = draw(causets(max_n))
    regions = [
        draw(st.integers(min_value=0, max_value=causet.full)) for _ in range(count)
    ]
    return (causet, *regions)


@given(causet_and_regions(1))
def test_past_idempotent_and_extensive(cr):
    c, r = cr
    past = c.past(r)
    assert r & ~past == 0
    assert c.past(past) == past


@given(causet_and_regions(2))
def test_past_monotone(cr):
    c, r1, r2 = cr
    small = r1 & r2
    assert c.past(small) & ~c.past(r1) == 0


@given(causet_and_regions(2))
def test_complement_antitone(cr):
    c, r1, r2 = cr
    small = r1 & r2
    assert c.causal_complement(r1) & ~c.causal_complement(small) == 0


@given(causet_and_regions(1))
def test_closure_extensive_and_triple_complement(cr):
    c, r = cr
    assert r & ~c.causal_closure(r) == 0
    comp = c.causal_complement(r)
    assert c.causal_complement(c.causal_complement(comp)) == comp


@given(causet_and_regions(2))
def test_spacelike_symmetric_and_disjoint(cr):
    c, r1, r2 = cr
    assert c.is_spacelike(r1, r2) == c.is_spacelike(r2, r1)
    if c.is_spacelike(r1, r2) and r1 and r2:
        assert r1 & r2 == 0


@settings(max_examples=200)
@given(causets())
def test_spacelike_pair_laws(c):
    # mutual past avoids the regions; truncated past decomposes disjointly;
    # the enlarged-pair identity holds
    for ra, rb in c.spacelike_pairs():
        assert c.mutual_past(ra, rb) & (ra | rb) == 0
        assert c.decomposes_truncated_past(ra, rb)
        assert c.verify_crucial_identity(ra, rb).holds


@given(causets())
def test_spacelike_pairs_enumeration_matches_definition(c):
    # the submask-of-complement enumeration equals the definitional filter
    from itertools import product

    for max_size in (None, 1, 2):
        expected = {
            (ra, rb)
            for ra, rb in product(range(c.full + 1), repeat=2)
            if ra <= rb and c.is_spacelike(ra, rb)
            and (max_size is None or max(bin(ra).count("1"), bin(rb).count("1")) <= max_size)
        }
        # every pair once, ascending in (ra, rb)
        assert list(c.spacelike_pairs(max_size)) == sorted(expected)
