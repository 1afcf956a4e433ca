"""The result records are immutable named tuples whose attributes,
constructor keywords, equality and pickling are those of the frozen records
they replaced."""

import copy
import pickle

import pytest

from causetlab import (
    Caps,
    HistorySpace,
    MeasureTable,
    Model,
    SearchConfig,
    check_dom_axioms,
    check_principle,
    gap_closure_check,
    hunt,
    implication_matrix,
    is_ccs,
    is_common_cause,
    replicate_so1_to_so2,
    validate_causet,
)
from causetlab.hunter import Finding
from causetlab.theorems import region_identity_suite


def _records() -> list:
    """One instance of every record type, each built the way the library
    builds it."""
    causet = validate_causet(["q", "a", "b"], [("q", "a")])
    space = HistorySpace(causet, 2)
    model = Model.build(space, MeasureTable.perfectly_correlated(space))
    ra, rb = causet.region("a"), causet.region("b")
    verdict = check_principle(model, "so2")
    axioms = check_dom_axioms(space, model.dom, axioms=(1,))
    uniform = Model.build(space, MeasureTable.uniform(space))
    replication = replicate_so1_to_so2(uniform, ra, rb)
    a, b = space.cylinder({"a": 1}), space.cylinder({"b": 1})
    return [
        causet.verify_crucial_identity(ra, rb),
        axioms,
        axioms.results[0],
        is_common_cause(model.measure, a, b, space.omega),
        is_ccs(model.measure, a, b, [space.omega]),
        Caps(),
        verdict,
        verdict.witnesses[0],
        implication_matrix(model),
        replication,
        replication.steps[0],
        gap_closure_check(model, ra, rb),
        SearchConfig(max_elements=1),
        Finding(0, {}, "", "1111", (), ()),
        hunt(SearchConfig(max_elements=1)),
        region_identity_suite(2),
    ]


def test_every_record_rejects_attribute_assignment():
    records = _records()
    assert len({type(r) for r in records}) == len(records) == 16
    for record in records:
        assert isinstance(record, tuple)
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.unknown_attribute = 1


def test_caps_are_dict_keys_and_parse_round_trips():
    caps = Caps.parse("region=2,algebra=7")
    assert caps == Caps(region_size=2, algebra=7)
    assert {caps: "seen"}[Caps(2, 7)] == "seen"
    assert Caps.parse(f"region={caps.region_size},algebra={caps.algebra}") == caps
    assert Caps.parse("") == Caps() == Caps(3, 256)
    assert caps._replace(algebra=256) == Caps.parse("region=2")


@pytest.mark.parametrize("bad", [
    {"max_elements": 0},
    {"alphabet_size": 1},
    {"measures_per_model": 0},
    {"workers": 0},
    {"filters": ("no-such-filter",)},
])
def test_search_config_rejects_each_bad_field(bad):
    with pytest.raises(ValueError):
        SearchConfig(**{"max_elements": 2, **bad})
    with pytest.raises(ValueError):
        SearchConfig(max_elements=2)._replace(**bad)


def test_search_config_survives_pickle_and_is_checked_when_unpickled():
    config = SearchConfig(
        max_elements=3, measures_per_model=2, seed=6, caps=Caps(2, 7),
        workers=2, filters=("finite-pair",), include_perfect=True,
    )
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and type(copy) is SearchConfig
    # a config that skipped its checks is checked when a worker unpickles it
    unchecked = tuple.__new__(SearchConfig, config[:6] + (0,) + config[7:])
    assert unchecked.workers == 0
    with pytest.raises(ValueError, match="workers"):
        pickle.loads(pickle.dumps(unchecked))
    unchecked = tuple.__new__(SearchConfig, config[:1] + (1,) + config[2:])
    assert unchecked.alphabet_size == 1
    with pytest.raises(ValueError, match="alphabet_size"):
        pickle.loads(pickle.dumps(unchecked))


def test_verdict_lists_its_witnesses_once_and_keeps_them_out_of_equality():
    causet = validate_causet(["x", "y"], [])
    space = HistorySpace(causet, 2)
    verdict = check_principle(Model.build(space, MeasureTable.perfectly_correlated(space)), "so2")
    listings = []

    def listing():
        listings.append(1)
        return verdict.iter_witnesses()

    counted = verdict._replace(iter_witnesses=listing)
    assert "witnesses" not in vars(counted)
    assert counted.witnesses is counted.witnesses
    assert counted.witnesses == verdict.witnesses and len(counted.witnesses) > 0
    assert listings == [1]
    assert counted == verdict and repr(counted) == repr(verdict)
    assert "iter_witnesses" not in counted._asdict()
    for copied in (copy.copy(verdict), copy.deepcopy(verdict)):
        assert copied == verdict and copied.witnesses == verdict.witnesses
