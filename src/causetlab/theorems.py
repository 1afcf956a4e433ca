"""Sweeps that mechanically re-verify every provable step of the framework.

Each suite quantifies a law over every causet (or every canonical product
model) up to a size bound and reports the number of instances checked plus
any failures. The laws:

- region identities: for every spacelike pair, the flank-enlarged pair is
  again spacelike, its truncated joint past equals the original mutual past,
  the truncated joint past decomposes disjointly into the two flanks and the
  mutual past, and the mutual past avoids both regions (so truncating it
  would change nothing). All pairs of a causet are decided at once, one
  bit lane per pair; a failing pair's report is built by the reference
  methods `verify_crucial_identity` and `decomposes_truncated_past`.
- partition law: full specifications of any region partition the history
  space, with exactly alphabet^|region| cells.
- composition law: full specifications of a disjoint union are exactly the
  pairwise intersections of full specifications of the parts.
- dom axioms: the canonical least-domain construction satisfies all four
  axioms, exhaustively on spaces of at most 16 histories and on seeded
  random events at the sizes above. Axiom 4 decides each event once, on
  the cells of Phi(dom Z), which are the atoms of every split of dom Z.
- replication: on every uniform product model that satisfies SO1, the
  derivation steps toward SO2 all check out and the composed screeners
  exhaust the truncated-joint-past specifications.

These back the `theorems` CLI command and the acceptance tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .causet import _popcount
from .errors import InternalConsistencyError, LabError, LimitError
from .histories import (
    MAX_ENUMERABLE_HISTORIES,
    DomMap,
    HistorySpace,
    check_dom_axioms,
    check_space_limits,
    compose_full_specs,
    full_specifications,
    is_partition,
    sample_events,
)
from .measure import MeasureTable
from .principles import (
    Caps,
    Model,
    check_principle,
    gap_closure_check,
    replicate_so1_to_so2,
)
from .hunter import HARD_ENUMERATION_LIMIT, enumerate_causets


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": list(self.failures),
        }


def region_identity_suite(max_elements: int) -> SuiteResult:
    """Enlarged-pair identity + truncated-past decomposition, all causets,
    all unordered spacelike region pairs.

    The pairs of each causet are decided together, one bit lane per pair,
    by `Causet.region_identity_failures`. A pair it fails is re-checked by
    `verify_crucial_identity` and `decomposes_truncated_past`, which build
    the failure report; if they pass it, the two disagree and that is an
    internal-consistency failure.
    """
    checked = 0
    failures = []
    for n in range(1, max_elements + 1):
        for idx, causet in enumerate(enumerate_causets(n)):
            pairs, failing = causet.region_identity_failures()
            checked += pairs
            for ra, rb in failing:
                report = causet.verify_crucial_identity(ra, rb)
                decomposes = causet.decomposes_truncated_past(ra, rb)
                untruncated = causet.mutual_past(ra, rb) & (ra | rb) == 0
                if report.holds and decomposes and untruncated:
                    raise InternalConsistencyError(
                        "the one-pass region identity check fails a pair "
                        "that the reference methods pass"
                    )
                failures.append({
                    "n": n,
                    "causet_index": idx,
                    "relations": [list(p) for p in causet.relation_pairs()],
                    "region_a": list(causet.labels(ra)),
                    "region_b": list(causet.labels(rb)),
                    "identity": report.to_json(causet),
                    "decomposes": decomposes,
                    "mutual_past_avoids_regions": untruncated,
                })
    return SuiteResult("region-identities", checked, tuple(failures))


def partition_suite(max_elements: int, alphabet: int = 2) -> SuiteResult:
    """Phi(R) partitions Omega with alphabet^|R| cells, every region of every
    canonical product model."""
    checked = 0
    failures = []
    dom = DomMap.canonical()
    for n in range(1, max_elements + 1):
        for idx, causet in enumerate(enumerate_causets(n)):
            space = HistorySpace(causet, alphabet)
            for region in causet.regions():
                checked += 1
                cells = full_specifications(space, dom, region)
                if not is_partition(space, cells) or len(cells) != alphabet ** _popcount(region):
                    failures.append({
                        "n": n,
                        "causet_index": idx,
                        "region": list(causet.labels(region)),
                        "cells": len(cells),
                        "expected": alphabet ** _popcount(region),
                    })
    return SuiteResult("full-specification-partitions", checked, tuple(failures))


def composition_suite(max_elements: int, alphabet: int = 2) -> SuiteResult:
    """Phi of a disjoint union equals the set of pairwise intersections of
    the parts' full specifications, routed through the composition op."""
    checked = 0
    failures = []
    dom = DomMap.canonical()
    for n in range(1, max_elements + 1):
        for idx, causet in enumerate(enumerate_causets(n)):
            space = HistorySpace(causet, alphabet)
            for rx in causet.regions():
                allowed = space.causet.full & ~rx
                sub = allowed
                while True:
                    if sub >= rx:
                        checked += 1
                        _composition_holds(space, dom, rx, sub, failures, n, idx)
                    if sub == 0:
                        break
                    sub = (sub - 1) & allowed
    return SuiteResult("composition-law", checked, tuple(failures))


def _composition_holds(space, dom, rx, ry, failures, n, idx) -> bool:
    causet = space.causet
    phi_union = set(full_specifications(space, dom, rx | ry))
    composed = set()
    try:
        for cx in full_specifications(space, dom, rx):
            for cy in full_specifications(space, dom, ry):
                composed.add(compose_full_specs(space, dom, [(rx, cx), (ry, cy)]))
    except LabError as exc:
        failures.append({
            "n": n, "causet_index": idx,
            "region_x": list(causet.labels(rx)),
            "region_y": list(causet.labels(ry)),
            "error": str(exc),
        })
        return False
    if composed != phi_union:
        failures.append({
            "n": n, "causet_index": idx,
            "region_x": list(causet.labels(rx)),
            "region_y": list(causet.labels(ry)),
            "composed": len(composed),
            "phi_union": len(phi_union),
        })
        return False
    return True


def dom_axiom_suite(
    exhaustive_max: int = 3,
    alphabet: int = 2,
    family_size: int = 3,
    sampled_elements: int = 4,
    sampled_events: int = 100,
    seed: int | str = 0,
) -> SuiteResult:
    """Canonical dom against axioms 1-4: exhaustive up to exhaustive_max
    elements, seeded random events at every size above that up to
    sampled_elements."""
    checked = 0
    failures = []
    dom = DomMap.canonical()

    def run(n: int, idx: int, space: HistorySpace, universe) -> None:
        nonlocal checked
        report = check_dom_axioms(space, dom, family_size=family_size, universe=universe)
        checked += sum(r.checked for r in report.results)
        if not report.passed:
            failures.append({
                "n": n,
                "causet_index": idx,
                "report": report.to_json(space),
            })

    for n in range(1, exhaustive_max + 1):
        for idx, causet in enumerate(enumerate_causets(n)):
            run(n, idx, HistorySpace(causet, alphabet), None)
    if sampled_events:
        for n in range(exhaustive_max + 1, sampled_elements + 1):
            for idx, causet in enumerate(enumerate_causets(n)):
                space = HistorySpace(causet, alphabet)
                universe = sample_events(space, sampled_events, f"{seed}:{idx}")
                run(n, idx, space, universe)
    return SuiteResult("dom-axioms", checked, tuple(failures))


def replication_suite(
    max_elements: int = 4, alphabet: int = 2, caps: Caps | None = None
) -> SuiteResult:
    """SO1->SO2 derivation steps plus gap closure on every uniform product
    model where SO1 holds (it holds on all of them; that is confirmed, not
    assumed), over every spacelike pair within the region cap."""
    caps = caps or Caps()
    checked = 0
    failures = []
    for n in range(1, max_elements + 1):
        for idx, causet in enumerate(enumerate_causets(n)):
            space = HistorySpace(causet, alphabet)
            model = Model.build(space, MeasureTable.uniform(space))
            so1 = check_principle(model, "so1", caps)
            if not so1.satisfied:
                failures.append({
                    "n": n, "causet_index": idx,
                    "error": "uniform product model unexpectedly violates SO1",
                })
                continue
            for ra, rb in causet.spacelike_pairs(max_size=caps.region_size):
                checked += 1
                report = replicate_so1_to_so2(model, ra, rb, caps)
                gap = gap_closure_check(model, ra, rb)
                if not (report.applicable and report.passed and gap.equal):
                    failures.append({
                        "n": n, "causet_index": idx,
                        "region_a": list(causet.labels(ra)),
                        "region_b": list(causet.labels(rb)),
                        "replication": report.to_json(model),
                        "gap_equal": gap.equal,
                    })
    return SuiteResult("so1-to-so2-replication", checked, tuple(failures))


def run_all(
    max_elements: int = 4,
    alphabet: int = 2,
    max_product_elements: int | None = None,
    seed: int | str = 0,
    caps: Caps | None = None,
) -> dict:
    """The full provable-step battery; product-space suites run at
    min(max_elements, 4) unless overridden (their cost grows much faster
    than the pure region sweeps). The dom axioms are checked on all events
    up to 3 elements but never on more than MAX_ENUMERABLE_HISTORIES
    histories; the sizes above that, up to 4, are checked on sampled events.
    Both sizes are checked against the enumeration limit, and the alphabet
    against the history space's limits at the product size, before any
    suite runs."""
    for name, size in (("max_elements", max_elements), ("max_product_elements", max_product_elements)):
        if size is not None and not 1 <= size <= HARD_ENUMERATION_LIMIT:
            raise LimitError(f"{name} must be between 1 and {HARD_ENUMERATION_LIMIT}, got {size}")
    product_max = min(max_elements, 4) if max_product_elements is None else max_product_elements
    check_space_limits(alphabet, product_max)
    exhaustive_max = min(product_max, 3)
    while alphabet ** exhaustive_max > MAX_ENUMERABLE_HISTORIES:
        exhaustive_max -= 1
    suites = [
        region_identity_suite(max_elements),
        partition_suite(product_max, alphabet),
        composition_suite(product_max, alphabet),
        dom_axiom_suite(
            exhaustive_max=exhaustive_max,
            alphabet=alphabet,
            sampled_elements=min(product_max, 4),
            seed=seed,
        ),
        replication_suite(product_max, alphabet, caps),
    ]
    return {
        "passed": all(s.passed for s in suites),
        "suites": {s.name: s.to_json() for s in suites},
    }
