"""Exhaustive search over small models for principle separations.

Enumerates causets up to order-isomorphism, samples exact-rational measures,
decides the four principles on every (causet, measure) model, and
aggregates which combinations actually occur. Models that separate
principles (the open cells of the implication diagram) come back as
findings with replayable fingerprints.

A finding needs only the four bits and each failing principle's first
witness, so every principle is decided only up to its first failure
(`first_witnesses`): each 0 rests on a replayed failure, each 1 on a full
sweep. `replay_finding` re-runs the full implication matrix, an independent
check of a finding's bits. SO1 and SO2 coincide on canonical doms when every
nonempty pair is decided on all its cells (see README), and `first_witnesses`
aborts on a disagreement there, so the per-model SO1/SO2 tags come only from
sweeps that caps cut short. The uniform measure is decided by theorem: it
is a product measure, and every statement a sweep tests is about disjoint
regions A, B and their past, which a product measure makes independent
given any cell of the past. So every principle holds on it, under any
caps; the hunter counts it as 1111 and builds no table, model or sweep
for it.

Canonical form: the lexicographically minimal relation matrix over all
relabelings, compared in expanding-submatrix block order (the block at depth
d holds the entries between the element placed at d and those before it).
It is computed by a level-wise search on two facts. First, every least
labeling begins with a maximum antichain, in any order: blocks 1..w-1 are
all zero only for an antichain, and a longer run of zero blocks is smaller.
So the search starts at depth w, the width, with one state per maximum
antichain. Second, the placed elements can be kept as an ordered partition
into cells whose inner order is not yet fixed: a cell's elements are
mutually incomparable and relate alike to every other placed element, so
every order of a cell gives the same blocks, and one state stands for all
of them. Placing u splits each cell into its elements incomparable to u,
then the rest, which all lie below u or all above it; those orders are
exactly the ones that make u's block least, its row half first. u joins the
last cell when it is a twin of that cell relative to the placed elements.
At each depth the search keeps only the placements whose block is the least
over all states, and merges equal states. A free element below no placed
one has a block whose row half is 0, and the row half leads, so when a
state has such elements only they are tried (the row-zero cut). Of twin
candidates, which share their successors and predecessors, only one is
placed: swapping them is an automorphism fixing the placed elements (twin
pruning). A leaf's cells hold global twins, so one labeling per leaf,
closed under twin swaps, gives every least labeling; the maps between the
leaves' labelings and the twin transpositions generate the automorphism
group, and the form keeps them, moved to its own positions
(`_Canonical.automorphisms`). The search reads each cell's unary code,
(1 << popcount) - 1, and the set bits of each mask from 256-entry tables
(`_UNARY`, `causet._BYTE_BITS`), which cover every mask of an order on at
most 8 elements; on a wider order it computes both (`_Computed`), so
`canonical_form` takes orders of any size.

Enumeration extends each (n-1)-element representative by one new maximal
element over every order ideal; every finite poset has a maximal element, so
this reaches every isomorphism class. An ideal is skipped when an
automorphism of the base maps an ideal already tried onto it, since the two
candidates are isomorphic (orbit pruning). A candidate is also skipped when
another of its maximal elements has a larger down-set than the new one
(deletion pruning, after McKay's canonical deletion, "Isomorph-free
exhaustive generation", 1998): every class still keeps the candidate that
deletes a maximal element with the largest down-set. Each base keeps one
mask per ideal size s, the maximal elements whose down-sets are larger
than s, and an ideal of size s that misses one of them is skipped.
Deletion pruning is constant on the orbits, so the two cuts compose.

Determinism: work is partitioned by canonical causet index, per-causet
measure seeds are derived from (seed, index), and results are merged in
index order, so the report is a pure function of the config, whatever the
worker count.

Workers: a hunt with N workers runs in up to N processes, the hunting one
among them, but never more than the usable cores, the causets left, or the
processes the pending work pays for (`_BREAK_EVEN`). It forks the others
once the task list is built, so they inherit the enumeration and the tasks,
and sends them only task positions; each answers with its pickled result.
The hunting process runs a task itself whenever no answer is waiting
(`_forked_map`). With one process, and where `os.fork` is missing, the same
loop forks nothing and runs every task in the hunting process.
"""

from __future__ import annotations

import contextlib
import json
import os
from functools import cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .causet import _BYTE_BITS, Causet, _bits
from .errors import LimitError
from .histories import HistorySpace, check_space_limits
from .measure import MeasureTable
from .modelio import _is_json_int, model_from_data
from .principles import (
    PRINCIPLES,
    Caps,
    Model,
    Witness,
    first_witnesses,
    implication_matrix,
)

HARD_ENUMERATION_LIMIT = 7

FILTERS = ("nonempty-flanks", "finite-pair")

_reps_cache: dict[int, list[_Canonical]] = {}


# -- canonical form and enumeration ----------------------------------------


class _Canonical(tuple):
    """A canonical matrix that keeps generators of its automorphism group,
    each as the tuple of images of its positions, from the search that
    found it, so that enumeration need not search it again."""

    automorphisms: tuple[tuple[int, ...], ...] = ()


def canonical_form(lt: Sequence[int]) -> _Canonical:
    """Relabel a closed strict-order matrix (row i = mask of successors of i)
    to the form whose block sequence is least over all relabelings. The
    cell search (`_least_labelings`) gives one least labeling per leaf; all
    give this same matrix, which is read off the first. The maps from the
    first to each other one and the twin transpositions, read on the form's
    positions, generate its automorphism group (`automorphisms`)."""
    orders, twin = _least_labelings(lt)
    first = orders[0]
    position = [0] * len(lt)
    for p, a in enumerate(first):
        position[a] = p
    out = []
    for a in first:
        row = 0
        for b in _bits(lt[a]):
            row |= 1 << position[b]
        out.append(row)
    form = _Canonical(out)
    gens = [tuple(position[a] for a in order) for order in orders[1:]]
    for o, t in enumerate(twin):
        if t != o:
            image = list(range(len(lt)))
            image[position[o]], image[position[t]] = position[t], position[o]
            gens.append(tuple(image))
    form.automorphisms = tuple(gens)
    return form


# The unary code (1 << popcount(m)) - 1 of every mask m below 2^8, which
# covers every cell of an order on at most 8 elements; a block is the
# concatenation of its cells' codes
_UNARY: tuple[int, ...] = tuple((1 << m.bit_count()) - 1 for m in range(256))


class _Computed:
    """A byte table's stand-in on masks of any width, which computes each
    entry: the cell search reads `_UNARY` and `_BYTE_BITS` through these on
    orders of more than 8 elements."""

    __slots__ = ("entry",)

    def __init__(self, entry: Callable[[int], object]):
        self.entry = entry

    def __getitem__(self, mask: int):
        return self.entry(mask)


_WIDE_UNARY = _Computed(lambda mask: (1 << mask.bit_count()) - 1)
_WIDE_BITS = _Computed(_bits)


def _least_labelings(lt: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """One labeling (element placed at each position) per leaf of the cell
    search, which starts from the maximum antichains, and each element's
    least twin. Closing the labelings under twin swaps gives every labeling
    whose block sequence is least: a leaf's cells hold global twins, and
    twin pruning skips only twin-swapped states."""
    n = len(lt)
    # the byte tables, or their computed stand-ins above 8 elements
    unary, bits = (_UNARY, _BYTE_BITS) if n <= 8 else (_WIDE_UNARY, _WIDE_BITS)
    below = [0] * n
    for i, row in enumerate(lt):
        for j in bits[row]:
            below[j] |= 1 << i
    # twins (equal successor and predecessor masks) are swapped by an
    # automorphism that fixes every other element
    first: dict[tuple[int, int], int] = {}
    twin = [first.setdefault(key, o) for o, key in enumerate(zip(lt, below))]
    full = (1 << n) - 1
    # the maximum antichains, each grown by the elements later than and
    # incomparable to all of it; after[j] holds those for j alone
    after = [full >> j + 1 << j + 1 & ~(lt[j] | below[j]) for j in range(n)]
    grown = [(0, full)]
    while True:
        longer = [(a | 1 << j, later & after[j]) for a, later in grown for j in bits[later]]
        if not longer:
            break
        grown = longer
    # a state maps its cells, in order, to the mask of their elements and
    # the mask of the elements below some of them
    level = {}
    for a, _ in grown:
        under = 0
        for i in bits[a]:
            under |= below[i]
        level[a,] = a, under
    for _ in range(grown[0][0].bit_count(), n):
        # a free element's least block over a state's orders is one int,
        # row << n | col: each cell ends with its elements above u (ones in
        # the row half) or below u (ones in the col half), never both, since
        # a cell is an antichain. The col half has fewer than n bits, so an
        # element outside `under` (row 0) beats every other (row-zero cut)
        floor = -1
        best: list[tuple[tuple[int, ...], int, int, int]] = []
        for cells, (placed, under) in level.items():
            sized = [(c, c.bit_count()) for c in cells]
            tried = 0
            free = full & ~placed
            for u in bits[free & ~under or free]:
                if tried >> twin[u] & 1:
                    continue
                tried |= 1 << twin[u]
                up, down = lt[u], below[u]
                row = col = 0
                for c, size in sized:
                    row = row << size | unary[c & up]
                    col = col << size | unary[c & down]
                key = row << n | col
                if key == floor:
                    best.append((cells, placed, under, u))
                elif key < floor or floor < 0:
                    floor, best = key, [(cells, placed, under, u)]
        # placing u puts each cell's elements incomparable to u first, which
        # gives u that least block; x stands for the last cell, which u
        # joins when the two are twins relative to the placed elements
        level = {}
        for cells, placed, under, u in best:
            up, down = lt[u], below[u]
            related = up | down
            split = []
            for c in cells:
                r = c & related
                if r != c:
                    split.append(c ^ r)
                if r:
                    split.append(r)
            last = split[-1]
            x = (last & -last).bit_length() - 1
            if ((lt[x] ^ up) | (below[x] ^ down)) & placed:
                split.append(1 << u)
            else:
                split[-1] = last | 1 << u
            level[tuple(split)] = placed | 1 << u, under | down
    return [[i for c in cells for i in bits[c]] for cells in level], twin


def _order_ideals(below: Sequence[int]) -> Iterator[int]:
    """Down-closed subsets of a strict order, as masks, ascending; below[i]
    is the mask of the elements before i. down[m], the union of below[i]
    over i in m, is filled in from m without its lowest bit."""
    yield 0
    down = [0] * (1 << len(below))
    for m in range(1, len(down)):
        low = m & -m
        d = down[m] = down[m ^ low] | below[low.bit_length() - 1]
        if not d & ~m:
            yield m


def _representatives(n: int) -> list[_Canonical]:
    """Canonical closed strict-order matrices of all n-element posets, each
    holding the automorphisms found by the search that canonicalised it."""
    cached = _reps_cache.get(n)
    if cached is not None:
        return cached
    if n == 0:
        reps: list[tuple[int, ...]] = [()]
    elif n == 1:
        reps = [_Canonical((0,))]
    else:
        # a class met again keeps the form, and generators, it was first
        # found with
        seen: set[_Canonical] = set()
        new_bit = 1 << (n - 1)
        for base in _representatives(n - 1):
            below = [0] * (n - 1)
            for j, row in enumerate(base):
                for i in _bits(row):
                    below[i] |= 1 << j
            # must[size]: the base's maximal elements whose down-sets are
            # larger than size, all of which an ideal of that size must hold
            must = [0] * n
            for i, row in enumerate(base):
                if not row:
                    for size in range(below[i].bit_count()):
                        must[size] |= 1 << i
            gens = base.automorphisms
            tried: set[int] = set()
            for ideal in _order_ideals(below):
                # deletion pruning: keep the candidate only if the new element
                # has a largest down-set among its maximal elements
                if ideal in tried or must[ideal.bit_count()] & ~ideal:
                    continue
                # orbit pruning: an automorphism of the base maps the ideal to
                # one whose candidate is isomorphic, so the orbit is tried once
                orbit = [ideal]
                tried.add(ideal)
                for m in orbit:
                    for image in gens:
                        moved = sum(1 << image[i] for i in _bits(m))
                        if moved not in tried:
                            tried.add(moved)
                            orbit.append(moved)
                candidate = list(base)
                for i in _bits(ideal):
                    candidate[i] |= new_bit
                candidate.append(0)
                seen.add(canonical_form(candidate))
        reps = sorted(seen)
    _reps_cache[n] = reps
    return reps


def enumerate_causets(n: int) -> Iterator[Causet]:
    """All causets on exactly n elements up to order-isomorphism, canonical
    labels e0..e{n-1}, deterministic order."""
    if n < 1 or n > HARD_ENUMERATION_LIMIT:
        raise LimitError(f"enumeration supports 1 <= n <= {HARD_ENUMERATION_LIMIT}, got {n}")
    for lt in _representatives(n):
        yield _causet_from_rows(lt)


def _causet_from_rows(lt: Sequence[int]) -> Causet:
    return Causet(_labels(len(lt)), tuple(lt))


@cache
def _labels(n: int) -> tuple[str, ...]:
    """e0..e{n-1}, one tuple shared by every causet of n elements."""
    return tuple(f"e{i}" for i in range(n))


def count_causets(n: int) -> int:
    if n < 1 or n > HARD_ENUMERATION_LIMIT:
        raise LimitError(f"enumeration supports 1 <= n <= {HARD_ENUMERATION_LIMIT}, got {n}")
    return len(_representatives(n))


# -- measures ----------------------------------------------------------------


def sample_measures(
    space: HistorySpace, k: int, seed: int | str, denominator_bound: int = 100
) -> list[MeasureTable]:
    """k measures: uniform first, then seeded pseudo-random exact-rational
    tables. Running twice with one seed gives identical lists."""
    if k < 1:
        raise ValueError("k must be at least 1")
    out = [MeasureTable.uniform(space)]
    for i in range(1, k):
        out.append(MeasureTable.random(space, f"{seed}:{i}", denominator_bound))
    return out


# -- search configuration and findings ---------------------------------------


class _SearchFields(NamedTuple):
    max_elements: int
    alphabet_size: int = 2
    measures_per_model: int = 1
    seed: int = 0
    denominator_bound: int = 100
    caps: Caps = Caps()
    workers: int = 1
    filters: tuple[str, ...] = ()
    include_perfect: bool = False
    zero_mode: str = "vacuous"


class SearchConfig(_SearchFields):
    """A hunt's parameters, checked whenever one is built: by a caller, by
    `_replace`, or by unpickling. `workers` is the number of processes,
    the hunting one included; it changes only the scheduling."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SearchConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_elements < 1:
            raise ValueError("max_elements must be at least 1")
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")
        if self.measures_per_model < 1:
            raise ValueError("measures_per_model must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.denominator_bound < 0:
            raise ValueError("denominator_bound must be non-negative")
        for f in self.filters:
            if f not in FILTERS:
                raise ValueError(f"unknown filter {f!r}; known: {', '.join(FILTERS)}")
        return self

    @classmethod
    def _make(cls, iterable) -> "SearchConfig":
        # `_replace` builds through `_make`, which would skip the checks
        return cls(*iterable)

    def to_json(self) -> dict:
        # workers deliberately omitted: it only affects scheduling, and the
        # report must be byte-identical whatever the worker count
        return {
            "max_elements": self.max_elements,
            "alphabet_size": self.alphabet_size,
            "measures_per_model": self.measures_per_model,
            "seed": self.seed,
            "denominator_bound": self.denominator_bound,
            "caps": self.caps.to_json(),
            "filters": list(self.filters),
            "include_perfect": self.include_perfect,
            "zero_mode": self.zero_mode,
        }


def _digest(payload: dict) -> str:
    import hashlib  # only here: only findings and checkpoints need it

    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class Finding(NamedTuple):
    index: int
    fingerprint: dict
    digest: str
    bits: str
    tags: tuple[str, ...]
    witness_samples: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "digest": self.digest,
            "bits": self.bits,
            "tags": list(self.tags),
            "fingerprint": self.fingerprint,
            "witness_samples": list(self.witness_samples),
        }


def _classify(first: dict[str, Witness | None]) -> tuple[str, ...]:
    so1, so2, f1, f2 = (first[p] is None for p in PRINCIPLES)
    tags = []
    if (f1 and not so1) or (f2 and not so2):
        tags.append("separates finite/infinite")
    if so2 and not so1:
        tags.append("per-model SO2 and not SO1")
    if so1 and not so2:
        tags.append("per-model SO1 and not SO2")
    if f2 and not f1:
        tags.append("FIN-SO2 and not FIN-SO1 candidate")
    if f1 and not f2:
        tags.append("FIN-SO1 and not FIN-SO2 candidate")
    return tuple(tags)


def _passes_filters(causet: Causet, filters: tuple[str, ...]) -> bool:
    """Does some spacelike pair meet each filter (not necessarily the same
    pair for both)?"""
    wanted = set(filters)
    finite = cache(causet.is_causally_finite)
    for ra, rb in causet.spacelike_pairs():
        if not wanted:
            break
        if "nonempty-flanks" in wanted and any(causet.flank_regions(ra, rb)):
            wanted.remove("nonempty-flanks")
        if "finite-pair" in wanted and finite(ra) and finite(rb):
            wanted.remove("finite-pair")
    return not wanted


def _hunt_causet(task: tuple[int, tuple[int, ...], SearchConfig]) -> dict:
    """Check every sampled measure on one causet; pure function of the task."""
    index, rows, config = task
    causet = _causet_from_rows(rows)
    if not _passes_filters(causet, config.filters):
        return {"index": index, "skipped": True, "findings": [], "truth": {}, "models": 0}
    space = HistorySpace(causet, config.alphabet_size)
    # the uniform measure, first of `sample_measures`, is a product measure,
    # which satisfies every principle under any caps (see the module
    # docstring): it is counted, not drawn or swept; the others are drawn
    # from the seeds `sample_measures` gives them
    drawn = [
        (f"random:{i}", MeasureTable.random(space, f"{config.seed}:{index}:{i}", config.denominator_bound))
        for i in range(1, config.measures_per_model)
    ]
    if config.include_perfect:
        drawn.append(("perfect", MeasureTable.perfectly_correlated(space)))
    findings = []
    truth = {"1111": 1}
    for kind, measure in drawn:
        model = Model.build(space, measure)
        # zero_mode lists zero-mass screeners but never changes a bit
        first = first_witnesses(model, config.caps)
        bits = "".join("1" if first[p] is None else "0" for p in PRINCIPLES)
        truth[bits] = truth.get(bits, 0) + 1
        tags = _classify(first)
        if not tags:
            continue
        fingerprint = {
            "causet": {
                "elements": list(causet.elements),
                "relations": [list(p) for p in causet.relation_pairs()],
            },
            "alphabet": config.alphabet_size,
            "measure": {"weights": model.measure.weight_strings()},
            "measure_kind": kind,
            "caps": config.caps.to_json(),
            "zero_mode": config.zero_mode,
        }
        samples = []
        for principle in PRINCIPLES:
            witness = first[principle]
            if witness is not None:
                sample = witness.to_json(model)
                sample["principle"] = principle
                samples.append(sample)
        findings.append(
            Finding(
                index=index,
                fingerprint=fingerprint,
                digest=_digest(fingerprint),
                bits=bits,
                tags=tags,
                witness_samples=tuple(samples),
            ).to_json()
        )
    return {
        "index": index,
        "skipped": False,
        "findings": findings,
        "truth": truth,
        "models": 1 + len(drawn),
    }


class _Totals:
    """Everything the summary counts, cumulative over the sweep so far. A
    checkpoint records its attributes, so a resumed summary equals an
    uninterrupted one."""

    def __init__(
        self,
        truth_table: dict[str, int] | None = None,
        models: int = 0,
        skipped_causets: int = 0,
        findings: int = 0,
        tags_histogram: dict[str, int] | None = None,
    ):
        self.truth_table = truth_table or {}
        self.models = models
        self.skipped_causets = skipped_causets
        self.findings = findings
        self.tags_histogram = tags_histogram or {}

    def add(self, result: dict) -> None:
        self.models += result["models"]
        self.skipped_causets += result["skipped"]
        self.findings += len(result["findings"])
        for bits, count in result["truth"].items():
            self.truth_table[bits] = self.truth_table.get(bits, 0) + count
        for finding in result["findings"]:
            for tag in finding["tags"]:
                self.tags_histogram[tag] = self.tags_histogram.get(tag, 0) + 1


class HuntReport(NamedTuple):
    config: SearchConfig
    findings: list[dict]  # those emitted by this run; a resumed run repeats none
    truth_table: dict[str, int]
    causets: int
    models: int
    skipped_causets: int
    findings_total: int
    tags_histogram: dict[str, int]
    consistency_failures: tuple = ()

    def summary_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "causets": self.causets,
            "models": self.models,
            "skipped_causets": self.skipped_causets,
            "findings": self.findings_total,
            "truth_table": dict(sorted(self.truth_table.items())),
            "consistency_failures": list(self.consistency_failures),
            "tags_histogram": dict(sorted(self.tags_histogram.items())),
        }

    def to_json(self) -> dict:
        return {"findings": self.findings, "summary": self.summary_json()}


# The pending work at which two processes tie with one; below it the hunt
# forks nothing. The work counts the drawn models' histories: q^n for each
# measure drawn on an n-element causet. The uniform measure is counted, not
# decided, and a causet's own set-up (its space and filters, about 25 us)
# costs about what sending its task and answer does, so neither is counted.
# Nor are the filters or the caps: a causet the filters skip is counted in
# full, and the caps, which change what a history costs, are taken at their
# defaults, so a filtered or capped hunt may still fork below its own
# break-even. Above it the hunt takes every process the other bounds allow:
# the table measures one process against two only. Calibrated on 2 cores,
# Python 3.11.7, before this bound, with no filter and the default caps:
# `causetlab.cli.main` wall and CPU time (this process and its children),
# median of fresh `-I` processes
#
#   hunt flags                            work       1 process    2 processes
#                                                  wall/cpu ms    wall/cpu ms
#   -n3 -m5 --include-perfect              250       12.7/12.7      17.6/26.4
#   -n4 -m2 --include-perfect              612       18.6/18.6      24.5/38.6
#   -n4 -m5 --include-perfect             1530       29.7/29.8      32.2/49.8
#   -n4 -m7 --include-perfect             2142       37.7/37.7      39.6/56.0
#   -n4 -m9 --include-perfect             2754       46.6/46.6      39.3/64.6
#   -n4 -m3 --alphabet 3                  2904       38.5/38.5      34.3/54.2
#   -n5 -m2 --include-perfect             4644       80.1/80.2      60.6/99.7
#   -n5 -m5 --include-perfect            11610     136.1/136.1    100.6/177.4
#   -n6 -m5 --include-perfect           113370   1079.1/1079.0   606.8/1144.4
_BREAK_EVEN = 2500


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def hunt(
    config: SearchConfig,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> HuntReport:
    """Sweep all causets up to config.max_elements across sampled measures.

    Emits every finding, the aggregate truth table of observed principle
    combinations, and (necessarily empty, since violations abort) the list of
    internal-consistency failures. Deterministic in the seed regardless of
    the worker count. config.workers processes share the causets, this one
    and forked children, but never more than the usable cores, the causets
    left, or the processes the pending work pays for, and no child outlives
    the call. A checkpoint file records the last completed causet index and
    the summary totals; resume=True skips causets at or below it and merges
    the recorded totals, so the summary equals that of an uninterrupted run
    (previously emitted findings are not re-emitted).
    """
    if config.max_elements > HARD_ENUMERATION_LIMIT:
        raise LimitError(f"max_elements exceeds the hard limit {HARD_ENUMERATION_LIMIT}")
    check_space_limits(config.alphabet_size, config.max_elements)
    tasks = []
    index = 0
    for n in range(1, config.max_elements + 1):
        for rows in _representatives(n):
            tasks.append((index, rows, config))
            index += 1

    start_after, totals = -1, _Totals()
    if resume:
        start_after, totals = _read_checkpoint(checkpoint_path, config)
    pending = [t for t in tasks if t[0] > start_after]
    findings: list[dict] = []

    processes = min(config.workers, _usable_cores(), len(pending)) if hasattr(os, "fork") else 1
    if processes > 1:
        drawn = config.measures_per_model - 1 + config.include_perfect
        work = drawn * sum(config.alphabet_size ** len(rows) for _, rows, _ in pending)
        if work < _BREAK_EVEN:
            processes = 1
    # closed here, not when collected, so no child outlives a failed merge
    with contextlib.closing(_forked_map(_hunt_causet, pending, max(processes - 1, 0))) as results:
        _merge(results, findings, totals, checkpoint_path, config)

    return HuntReport(
        config=config,
        findings=findings,
        truth_table=totals.truth_table,
        causets=len(tasks),
        models=totals.models,
        skipped_causets=totals.skipped_causets,
        findings_total=totals.findings,
        tags_histogram=totals.tags_histogram,
    )


def _forked_map(fn: Callable, items: list, children: int) -> Iterator:
    """fn over items, yielded in order, computed by this process and by
    `children` forked copies of it, which inherit fn and items.

    A child reads positions, 4 bytes each, from its own task pipe, and
    answers each with (position, succeeded, result or exception), pickled
    and length-prefixed, on its own result pipe. Each child is kept one
    position ahead of the one it is running; whenever no answer is waiting,
    this process runs the next position itself. A task's exception is raised
    here when its position comes up; a child that ends before it has
    answered its positions raises `ChildProcessError`, naming them. Children
    leave through `os._exit` at the end of their task pipe, and none
    outlives the generator: an abnormal exit kills them, and every exit
    reaps them. With no child it is the serial map, and imports neither
    `pickle` nor `select`.
    """
    workers: dict[int, tuple[int, int, list[int]]] = {}  # result fd -> pid, task fd, queue
    answers: dict[int, tuple[bool, object]] = {}
    handed = 0  # positions handed out, to a child or to this process
    finished = False

    def hand(fd: int) -> None:
        nonlocal handed
        os.write(workers[fd][1], handed.to_bytes(4, "little"))
        workers[fd][2].append(handed)
        handed += 1

    if children:
        import pickle
        import select
    try:
        for _ in range(children):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_r, task_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:
                try:
                    for fd in (task_w, result_r, *workers, *(w[1] for w in workers.values())):
                        os.close(fd)
                    while position := _read_exact(task_r, 4):
                        pos = int.from_bytes(position, "little")
                        try:
                            answer = (pos, True, fn(items[pos]))
                        except Exception as exc:
                            answer = (pos, False, exc)
                        data = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
                        _write_all(result_w, len(data).to_bytes(4, "little") + data)
                finally:
                    os._exit(0)
            os.close(task_r)
            os.close(result_w)
            workers[result_r] = (pid, task_w, [])
        for fd in workers:
            while len(workers[fd][2]) < 2 and handed < len(items):
                hand(fd)
        for pos in range(len(items)):
            while pos not in answers:
                busy = [fd for fd, (_, _, queue) in workers.items() if queue]
                timeout = 0 if handed < len(items) else None
                ready = select.select(busy, [], [], timeout)[0] if busy else []
                for fd in ready:
                    pid, _, queue = workers[fd]
                    size = _read_exact(fd, 4)
                    data = size and _read_exact(fd, int.from_bytes(size, "little"))
                    if not data:  # the child died, before or while answering
                        raise ChildProcessError(f"hunt worker {pid} exited with tasks {queue} unfinished")
                    got, ok, value = pickle.loads(data)
                    queue.remove(got)
                    answers[got] = ok, value
                    if handed < len(items):
                        hand(fd)
                if not ready and handed < len(items):
                    try:
                        answers[handed] = True, fn(items[handed])
                    except Exception as exc:
                        answers[handed] = False, exc
                    handed += 1
            ok, value = answers.pop(pos)
            if not ok:
                raise value
            yield value
        finished = True
    finally:
        if not finished:
            import signal

            for pid, _, _ in workers.values():
                os.kill(pid, signal.SIGKILL)
        for fd, (_, task_w, _) in workers.items():
            os.close(fd)
            os.close(task_w)
        for pid, _, _ in workers.values():
            os.waitpid(pid, 0)


def _read_exact(fd: int, size: int) -> bytes:
    """size bytes from a pipe, or b"" if it ends first."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return b""
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _merge(
    results: Iterator[dict],
    findings: list[dict],
    totals: _Totals,
    checkpoint_path: str | None,
    config: SearchConfig,
) -> None:
    for result in results:
        findings.extend(result["findings"])
        totals.add(result)
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, config, result["index"], totals)


def _checkpoint_digest(config: SearchConfig) -> str:
    return _digest(config.to_json())


def _write_checkpoint(path: str, config: SearchConfig, last_index: int, totals: _Totals) -> None:
    state = {
        "config_digest": _checkpoint_digest(config),
        "last_completed_index": last_index,
        **vars(totals),
    }
    # write beside the checkpoint, then rename over it: a run that dies
    # mid-write leaves the previous checkpoint whole
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_checkpoint(path: str | None, config: SearchConfig) -> tuple[int, _Totals]:
    """The last completed causet index and the totals through it."""
    if not path:
        raise ValueError("resume requested without a checkpoint path")
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError("checkpoint must hold a JSON object")
    empty = vars(_Totals())
    # a checkpoint without every total cannot give the full summary either
    if state.get("config_digest") != _checkpoint_digest(config) or empty.keys() - state.keys():
        raise ValueError("checkpoint belongs to a different hunt configuration")
    if not _is_json_int(state.get("last_completed_index")):
        raise ValueError("checkpoint's last_completed_index must be an integer")
    for name, like in empty.items():
        value = state[name]
        if isinstance(like, dict):
            if not (isinstance(value, dict) and all(map(_is_json_int, value.values()))):
                raise ValueError(f"checkpoint's {name} must map names to integers")
        elif not _is_json_int(value):
            raise ValueError(f"checkpoint's {name} must be an integer")
    return state["last_completed_index"], _Totals(**{name: state[name] for name in empty})


def replay_finding(finding: dict | Finding) -> str:
    """Rebuild the fingerprinted model and re-run the full matrix; returns
    bits."""
    data = finding.to_json() if isinstance(finding, Finding) else finding
    fp = data["fingerprint"]
    caps = Caps(fp["caps"]["region_size"], fp["caps"]["algebra"])
    return implication_matrix(model_from_data(fp), caps, fp["zero_mode"]).bits
