"""History spaces, canonical doms, Gamma, full specifications, dom axioms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetlab import (
    DomMap,
    EmptyIntersectionError,
    ForeignRegionError,
    HistorySpace,
    NotDisjointError,
    NotFullSpecError,
    check_dom_axioms,
    compose_full_specs,
    enumerate_causets,
    full_specifications,
    gamma,
    is_partition,
    sample_events,
    validate_causet,
)
from causetlab.causet import _bits, _popcount
from causetlab.histories import gamma_capped

from oracles import (
    brute_axiom2,
    brute_axiom4,
    brute_decides,
    brute_dom,
    brute_gamma,
    brute_phi,
    brute_phi_over,
)

CANON = DomMap.canonical()


def test_space_sizes(anti2_space):
    assert anti2_space.size == 4
    assert anti2_space.omega == 0b1111


def test_history_keys_roundtrip(diamond):
    space = HistorySpace(diamond, 2)
    for h in range(space.size):
        assert space.history_from_key(space.history_key(h)) == h


def test_alphabet_must_be_at_least_two(anti2):
    with pytest.raises(ValueError):
        HistorySpace(anti2, 1)


# -- canonical dom ---------------------------------------------------------------


def test_dom_of_single_coordinate_event(anti2_space):
    e = anti2_space.cylinder({"x": 1})
    assert anti2_space.canonical_dom(e) == anti2_space.causet.region("x")


def test_dom_of_trivial_events_is_empty(anti2_space):
    assert anti2_space.canonical_dom(0) == 0
    assert anti2_space.canonical_dom(anti2_space.omega) == 0


def test_dom_of_equality_event(anti2_space):
    # oracle: flip test over all 4 histories
    e = 0
    for h in range(anti2_space.size):
        if anti2_space._value(h, 0) == anti2_space._value(h, 1):
            e |= 1 << h
    assert brute_dom(anti2_space, e) == anti2_space.causet.full
    assert anti2_space.canonical_dom(e) == anti2_space.causet.full


_W_SPACE = HistorySpace(validate_causet(["q", "a", "b"], [("q", "a")]), 2)
_ANTI2_SPACE = HistorySpace(validate_causet(["x", "y"], []), 2)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=_W_SPACE.omega))
def test_dom_matches_brute_force_flips(e):
    assert _W_SPACE.canonical_dom(e) == brute_dom(_W_SPACE, e)


@pytest.mark.parametrize("q", [3, 4])
def test_dom_matches_brute_force_ternary_alphabet(anti2, q):
    space = HistorySpace(anti2, q)
    for e in range(0, space.omega + 1, 7):  # a deterministic spread of events
        assert space.canonical_dom(e) == brute_dom(space, e)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=_ANTI2_SPACE.omega))
def test_canonical_dom_decides_and_is_minimal(e):
    space = _ANTI2_SPACE
    dom = space.canonical_dom(e)
    assert brute_decides(space, e, dom)
    for i in range(space.causet.n):
        if dom >> i & 1:
            assert not brute_decides(space, e, dom & ~(1 << i))


def test_dom_empty_iff_trivial_event(anti2_space):
    for e in range(anti2_space.omega + 1):
        assert (anti2_space.canonical_dom(e) == 0) == (e in (0, anti2_space.omega))


# -- gamma ------------------------------------------------------------------------


def test_gamma_of_empty_region(anti2_space):
    assert gamma(anti2_space, CANON, 0) == [0, anti2_space.omega]


def test_gamma_of_single_element(anti2_space):
    # oracle: filter all 16 events by brute-force dom
    x = anti2_space.causet.region("x")
    assert sorted(gamma(anti2_space, CANON, x)) == brute_gamma(anti2_space, x)
    assert len(gamma(anti2_space, CANON, x)) == 4


def test_gamma_of_full_region_is_everything(anti2_space):
    assert sorted(gamma(anti2_space, CANON, anti2_space.causet.full)) == list(
        range(anti2_space.omega + 1)
    )


def test_gamma_monotone(anti2_space):
    full = set(gamma(anti2_space, CANON, anti2_space.causet.full))
    for r in anti2_space.causet.regions():
        assert set(gamma(anti2_space, CANON, r)) <= full
        for r2 in anti2_space.causet.regions():
            if r & ~r2 == 0:
                assert set(gamma(anti2_space, CANON, r)) <= set(
                    gamma(anti2_space, CANON, r2)
                )


# -- full specifications ------------------------------------------------------------


def test_phi_of_empty_region_is_omega(anti2_space):
    assert full_specifications(anti2_space, CANON, 0) == [anti2_space.omega]


def test_phi_single_element_matches_brute_force(anti2_space):
    x = anti2_space.causet.region("x")
    cells = full_specifications(anti2_space, CANON, x)
    assert sorted(cells) == brute_phi(anti2_space, x)
    assert sorted(cells) == sorted(
        [anti2_space.cylinder({"x": 0}), anti2_space.cylinder({"x": 1})]
    )


def test_phi_two_elements_is_singletons(anti2_space):
    cells = full_specifications(anti2_space, CANON, anti2_space.causet.full)
    assert sorted(cells) == brute_phi(anti2_space, anti2_space.causet.full)
    assert sorted(cells) == [1 << h for h in range(anti2_space.size)]


def test_phi_brute_force_on_diamond_pair(diamond):
    space = HistorySpace(diamond, 2)
    region = diamond.region(["a", "b"])
    assert sorted(full_specifications(space, CANON, region)) == brute_phi(space, region)


def test_phi_partitions_every_region_of_small_models(w_causet, diamond):
    for causet in (w_causet, diamond):
        space = HistorySpace(causet, 2)
        for region in causet.regions():
            cells = full_specifications(space, CANON, region)
            assert is_partition(space, cells)
            assert len(cells) == 2 ** _popcount(region)


def test_phi_count_ternary(anti2):
    space = HistorySpace(anti2, 3)
    for region in anti2.regions():
        cells = full_specifications(space, CANON, region)
        assert len(cells) == 3 ** _popcount(region)
        assert is_partition(space, cells)


def test_explicit_phi_and_capped_gamma_match_the_literal_filters():
    # seeded partial maps with arbitrary doms, not checked against the axioms:
    # Gamma is the map's events whose dom lies in the region, in ascending
    # order, and Phi the literal filter over it. Half the maps draw their
    # events as unions of a few blocks, so that many settle one another.
    import random

    rng = random.Random("partial maps")
    pairs = nonempty = 0
    for _ in range(300):
        n, q = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        space = HistorySpace(validate_causet([f"e{i}" for i in range(n)], []), q)
        blocks = [0] * rng.randint(2, 5)
        for h in range(space.size):
            blocks[rng.randrange(len(blocks))] |= 1 << h
        if rng.random() < 0.5:
            draw = lambda: rng.getrandbits(space.size)
        else:
            draw = lambda: sum(b for b in blocks if rng.random() < 0.5)
        mapping = {draw(): rng.getrandbits(n) for _ in range(rng.randint(1, 40))}
        dom = DomMap.explicit(mapping)
        for region in range(1 << n):
            literal = [e for e in sorted(mapping) if mapping[e] & ~region == 0]
            phi = full_specifications(space, dom, region)
            assert phi == brute_phi_over(literal)
            for limit in (None, 0, 1, len(literal) // 2 + 1):
                take = len(literal) if limit is None else limit
                assert gamma_capped(space, dom, region, limit) == (literal[:take], take < len(literal))
            pairs += 1
            nonempty += bool(phi)
    assert pairs > 1000 and nonempty > pairs // 4


@pytest.mark.parametrize("q, max_n", [(2, 4), (3, 3), (4, 2)])
def test_tables_keep_their_digit_order(q, max_n):
    # the order every table is listed in reaches witnesses and CLI output;
    # each is checked here against its definition by digits, h holding
    # value (h // q^i) % q at element i
    for n in range(1, max_n + 1):
        for causet in enumerate_causets(n):
            space = HistorySpace(causet, q)
            histories = range(space.size)
            for i in range(n):
                assert space._value_masks[i] == [
                    sum(1 << h for h in histories if space._value(h, i) == v) for v in range(q)
                ]
            assert [space.event_keys(1 << h) for h in histories] == [[space.history_key(h)] for h in histories]
            for region in causet.regions():
                idx = list(_bits(region))
                cells = space.phi_cells(region)
                assert list(cells) == [
                    sum(
                        1 << h for h in histories
                        if all(space._value(h, i) == s // q ** j % q for j, i in enumerate(idx))
                    )
                    for s in range(q ** len(idx))
                ]
                # event s of Gamma is the union of the cells at the set bits of s
                count = 1 << len(cells)
                unions = [0]
                for s in range(1, min(count, 1 << 16)):
                    unions.append(unions[s & s - 1] | cells[(s & -s).bit_length() - 1])
                caps = set(range(min(count, 300) + 2))
                if count <= 1 << 10:
                    caps |= {count - 1, count, count + 1}
                for cap in sorted(caps):
                    assert gamma_capped(space, CANON, region, cap) == (unions[:cap], cap < count)
                expected = (unions, False) if count <= 1 << 16 else ([], True)
                assert gamma_capped(space, CANON, region, None) == expected


# -- composition ---------------------------------------------------------------------


def test_compose_two_singletons(anti2_space):
    x = anti2_space.causet.region("x")
    y = anti2_space.causet.region("y")
    ex = anti2_space.cylinder({"x": 1})
    ey = anti2_space.cylinder({"y": 0})
    composed = compose_full_specs(anti2_space, CANON, [(x, ex), (y, ey)])
    assert composed == ex & ey
    assert composed in full_specifications(anti2_space, CANON, x | y)


def test_compose_identity_part(anti2_space):
    assert compose_full_specs(anti2_space, CANON, [(0, anti2_space.omega)]) == anti2_space.omega


def test_compose_diamond_wings(diamond):
    space = HistorySpace(diamond, 2)
    ra, rb = diamond.region("a"), diamond.region("b")
    ea = space.cylinder({"a": 1})
    eb = space.cylinder({"b": 0})
    composed = compose_full_specs(space, CANON, [(ra, ea), (rb, eb)])
    assert composed == ea & eb
    assert composed in full_specifications(space, CANON, ra | rb)
    assert sorted(
        compose_full_specs(space, CANON, [(ra, ca), (rb, cb)])
        for ca in full_specifications(space, CANON, ra)
        for cb in full_specifications(space, CANON, rb)
    ) == sorted(full_specifications(space, CANON, ra | rb))


def test_compose_rejects_overlap(anti2_space):
    x = anti2_space.causet.region("x")
    ex = anti2_space.cylinder({"x": 1})
    with pytest.raises(NotDisjointError):
        compose_full_specs(anti2_space, CANON, [(x, ex), (x, ex)])


def test_compose_rejects_non_full_spec(anti2_space):
    x = anti2_space.causet.region("x")
    with pytest.raises(NotFullSpecError):
        compose_full_specs(anti2_space, CANON, [(x, anti2_space.omega)])


def test_compose_empty_intersection_raises():
    # a user dom map where two "full specifications" of disjoint regions
    # are disjoint events: composing them falsifies the composition law
    causet = validate_causet(["x", "y"], [])
    space = HistorySpace(causet, 2)
    ex = space.cylinder({"x": 1})
    ey = space.cylinder({"x": 0}) & space.cylinder({"y": 1})
    mapping = {e: space.canonical_dom(e) for e in range(space.omega + 1)}
    mapping[ey] = causet.region("y")  # a lie, but consistent enough to compose
    dom = DomMap.explicit(mapping)
    with pytest.raises((EmptyIntersectionError, NotFullSpecError)):
        compose_full_specs(space, dom, [(causet.region("x"), ex), (causet.region("y"), ey)])


# -- dom axioms -----------------------------------------------------------------------


def test_axioms_pass_on_anti2_exhaustively(anti2_space):
    report = check_dom_axioms(anti2_space, CANON)
    assert report.passed
    assert report.universe_size == 16


def test_axioms_pass_on_w_causet(w_causet):
    report = check_dom_axioms(HistorySpace(w_causet, 2), CANON)
    assert report.passed


def test_axioms_1_2_exhaustive_on_diamond(diamond):
    # all 2^16 events, family size 2, grouped by dom value
    space = HistorySpace(diamond, 2)
    report = check_dom_axioms(space, CANON, family_size=2, axioms=(1, 2))
    assert report.passed
    assert report.universe_size == 65536


def test_axioms_pass_on_diamond_sampled_events(diamond):
    space = HistorySpace(diamond, 2)
    universe = sample_events(space, 60, seed=11)
    report = check_dom_axioms(space, CANON, family_size=2, universe=universe)
    assert report.passed


def test_handcrafted_dom_fails_axiom_3(anti2_space):
    mapping = {e: anti2_space.canonical_dom(e) for e in range(anti2_space.omega + 1)}
    a = anti2_space.cylinder({"x": 1})
    mapping[a] = anti2_space.causet.full  # breaks dom(A^c) == dom(A)
    report = check_dom_axioms(anti2_space, DomMap.explicit(mapping))
    by_axiom = {r.axiom: r for r in report.results}
    assert not by_axiom[3].passed
    assert by_axiom[3].witness is not None


def test_dom_failing_axiom_1_is_reported_not_thrown(anti2_space):
    # canonical everywhere except: the conjunction of two one-coordinate
    # events is declared decidable on the empty region
    mapping = {e: anti2_space.canonical_dom(e) for e in range(anti2_space.omega + 1)}
    ex = anti2_space.cylinder({"x": 1})
    ey = anti2_space.cylinder({"y": 1})
    mapping[ex & ey] = 0
    report = check_dom_axioms(anti2_space, DomMap.explicit(mapping))
    by_axiom = {r.axiom: r for r in report.results}
    assert not by_axiom[1].passed
    assert by_axiom[1].witness is not None


def test_handcrafted_dom_fails_axiom_4():
    # dom(Z) = past of the canonical dom: {"00"} then claims both elements,
    # but the split ({e1}, {e0}) generates only the e0 cylinders, and
    # {"00"} splits the e0 = 0 cylinder
    causet = validate_causet(["e0", "e1"], [("e0", "e1")])
    space = HistorySpace(causet, 2)
    mapping = {e: causet.past(space.canonical_dom(e)) for e in range(space.omega + 1)}
    (result,) = check_dom_axioms(space, DomMap.explicit(mapping), axioms=(4,)).results
    assert not result.passed
    assert result.checked == 3
    assert result.witness == {
        "event": ["00"],
        "split": [["e1"], ["e0"]],
        "split_atom": ["00", "01"],
    }


def _exhaustive_spaces():
    # every causet with n <= 3 (q = 2) and n <= 2 (q = 3)
    for q, top in ((2, 3), (3, 2)):
        for n in range(1, top + 1):
            for causet in enumerate_causets(n):
                yield HistorySpace(causet, q)


@pytest.mark.parametrize("family_size", [2, 3, 4])
def test_axiom2_matches_the_family_sweep_oracle(family_size):
    # canonical doms count axiom 2 in closed form; the oracle sweeps every
    # family outside the full-region group, with doms from brute_dom
    doms = {}
    for space in _exhaustive_spaces():
        shape = (space.causet.n, space.q)
        if shape not in doms:
            doms[shape] = [brute_dom(space, e) for e in range(space.omega + 1)]
        universe = range(space.omega + 1)
        report = check_dom_axioms(space, CANON, family_size, axioms=(2,))
        expected = brute_axiom2(space, universe, doms[shape].__getitem__, family_size)
        assert report.to_json(space)["axioms"][0] == expected
        assert expected["passed"]


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
def test_axiom2_on_a_spelled_out_map_matches_the_family_sweep_oracle(q, n):
    # explicit doms keep the sweep: the canonical map spelled out passes,
    # and dropping one element from some doms fails on the oracle's family
    space = HistorySpace(validate_causet([f"e{i}" for i in range(n)], []), q)
    universe = range(space.omega + 1)
    outcomes = set()
    for dom_of in (space.canonical_dom, lambda e: space.canonical_dom(e) & ~(1 << e % n)):
        dom = DomMap.explicit({e: dom_of(e) for e in universe})
        report = check_dom_axioms(space, dom, axioms=(2,)).to_json(space)["axioms"][0]
        assert report == brute_axiom2(space, universe, dom_of, 3)
        outcomes.add(report["passed"])
    assert outcomes == {False, True}


def test_axiom2_on_seeded_explicit_maps_matches_the_family_sweep_oracle():
    # each group's members are unions of the cells of its region, and their
    # intersections mostly get their canonical doms; some get none, and some
    # one element more than their group's region, so groups pass and fail
    # in both ways, and the report must match the oracle's whole
    import random
    from itertools import combinations

    rng = random.Random("axiom 2 maps")
    outcomes = set()
    for _ in range(300):
        n, q = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        space = HistorySpace(validate_causet([f"e{i}" for i in range(n)], []), q)
        family_size = rng.choice([2, 3, 4])
        mapping = {}
        for region in rng.sample(range(1 << n), rng.randint(1, 3)):
            cells = space.phi_cells(region)
            members = {sum(c for c in cells if rng.random() < 0.5) for _ in range(rng.randint(1, 8))}
            mapping.update((e, region) for e in members)
            spoil = rng.random() < 0.5
            for k in range(2, family_size + 1):
                for family in combinations(sorted(members), k):
                    inter = space.omega
                    for e in family:
                        inter &= e
                    if inter in mapping:
                        continue
                    roll = rng.random() if spoil else 1
                    if roll < 0.02:
                        continue  # left without a dom
                    mapping[inter] = space.canonical_dom(inter) | (rng.getrandbits(n) if roll < 0.04 else 0)
        universe = sorted(mapping)
        report = check_dom_axioms(space, DomMap.explicit(mapping), family_size, axioms=(2,))
        assert report.to_json(space) == {
            "passed": report.results[0].passed,
            "universe_size": len(universe),
            "family_size": family_size,
            "stamped": None,
            "axioms": [brute_axiom2(space, universe, mapping.get, family_size)],
        }
        witness = report.results[0].witness
        outcomes.add("passed" if witness is None else "undefined" if "reason" in witness else "outside")
    assert outcomes == {"passed", "undefined", "outside"}


def _axiom4_spaces():
    # every exhaustive space with all of its events, then every 4-causet
    # (q = 2) with 100 sampled events
    for space in _exhaustive_spaces():
        yield space, range(space.omega + 1)
    for idx, causet in enumerate(enumerate_causets(4)):
        space = HistorySpace(causet, 2)
        yield space, sample_events(space, 100, f"axiom4:{idx}")


def _axiom4_reports(dom_of):
    for space, universe in _axiom4_spaces():
        for z in universe:
            report = check_dom_axioms(space, CANON, universe=[z], axioms=(4,))
            yield report.to_json(space)["axioms"][0], brute_axiom4(space, [z], dom_of(space))


def test_axiom4_matches_the_per_split_oracle():
    # the oracle takes doms from brute_dom and atoms from brute_phi
    for got, expected in _axiom4_reports(lambda space: lambda e: brute_dom(space, e)):
        assert got == expected
        assert got["passed"]


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
def test_axiom4_on_a_spelled_out_map_matches_the_per_split_oracle(q, n):
    # explicit doms build each split's atoms from their own generators
    space = HistorySpace(validate_causet([f"e{i}" for i in range(n)], []), q)
    universe = range(space.omega + 1)
    dom = DomMap.explicit({e: space.canonical_dom(e) for e in universe})
    report = check_dom_axioms(space, dom, axioms=(4,)).to_json(space)["axioms"][0]
    assert report == brute_axiom4(space, universe, lambda e: brute_dom(space, e))


def test_axiom4_builds_each_splits_atoms_once(monkeypatch):
    import causetlab.histories as histories

    calls = []
    real = histories._algebra_atoms

    def counted(space, generators):
        calls.append(tuple(generators))
        return real(space, generators)

    monkeypatch.setattr(histories, "_algebra_atoms", counted)
    space = HistorySpace(validate_causet(["p", "a", "b"], [("p", "a"), ("p", "b")]), 2)
    dom = DomMap.explicit({e: space.canonical_dom(e) for e in range(space.omega + 1)})
    (result,) = check_dom_axioms(space, dom, axioms=(4,)).results
    assert result.passed and result.checked > 100
    # one call per distinct unordered split (X, Y) of a dom: 1 + 3 + 3 * 2 + 4
    assert len(calls) == len(set(calls)) <= 14


def test_axiom4_matches_the_per_split_oracle_on_shrunk_doms(monkeypatch):
    # drop one element from some canonical doms: both sides must report the
    # same failing split, atom and count
    canonical_dom = HistorySpace.canonical_dom

    def shrunk(self, e):
        return canonical_dom(self, e) & ~(1 << e % self.causet.n)

    monkeypatch.setattr(HistorySpace, "canonical_dom", shrunk)
    outcomes = set()
    for got, expected in _axiom4_reports(lambda space: space.canonical_dom):
        assert got == expected
        outcomes.add(got["passed"])
    assert outcomes == {False, True}


def test_cylinder_rejects_an_unknown_label(anti2_space):
    with pytest.raises(ForeignRegionError):
        anti2_space.cylinder({"x": 1, "z": 0})


def test_sample_events_deterministic(anti2_space):
    a = sample_events(anti2_space, 5, 42)
    b = sample_events(anti2_space, 5, 42)
    assert a == b
    assert len(set(a)) == 5
