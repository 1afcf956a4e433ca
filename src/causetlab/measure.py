"""Exact probability over a history space, as integer masses.

Weights are `fractions.Fraction` values, one per history, summing to exactly
1. A table keeps them as integer numerators over one common denominator D
(the lcm of the weight denominators), so the measure of an event is its
integer mass divided by D. Every screening and correlation decision is an
exact identity or inequality between integers; there is no tolerance
anywhere, because the screening-off checks ARE equalities and a tolerance
would manufacture or mask violations. This module holds the only written-out
screening identity (`screens_off` for one pair, `_screen_failures` for rows
of pairs) and correlation inequality (`is_correlated`).

Why integer comparisons are exact: mu(A & B | C) = mu(A | C) mu(B | C) is,
multiplied out, mu(A&B&C) mu(C) = mu(A&C) mu(B&C), homogeneous of degree 2
on both sides, so the D^2 cancels and the masses compare directly.
Correlation, mu(A & B) > mu(A) mu(B), mixes degrees 1 and 2, so it compares
mass(A&B) * D with mass(A) * mass(B). Relevance compares masses too:
mu(A | C) > mu(A | C^c) is mass(A&C) mass(C^c) > mass(A&C^c) mass(C), and the
sign of the cross relevance (mu(A|Ci) - mu(A|Cj)) (mu(B|Ci) - mu(B|Cj)) is
that of (mass(A&Ci) mass(Cj) - mass(A&Cj) mass(Ci)) times the same for B.
`Fraction`s are built only for printed values (a failure's two sides,
conditional probabilities).

Replays are independent of the partial-sum tables: `direct_mass` sums the
history masses over an event's bits in one linear pass, and
`replay_screen_failures` re-decides one screener on those integers, its
recorded failing pairs or its zero mass, checking them against the table
masses the decision used. The principle checkers replay every decision
where it is made.

Besides evaluation this module holds the Reichenbachian common cause
verdicts: the single-event common cause (screening on C and its complement
plus two statistical relevance inequalities) and common cause systems
(partitions whose cells all screen off, with cross-cell relevance).

Zero-probability conditioning: a screening condition whose conditioning
event has measure zero is vacuously satisfied; `zero_mode="strict"` reports
such cells in the verdict instead of passing them silently. Relevance
comparisons involving a zero-probability cell are skipped (the conditionals
are undefined).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    CapExceededError,
    InternalConsistencyError,
    NotAPartitionError,
    ZeroConditionError,
)
from .histories import DomMap, Event, HistorySpace, full_specifications

ZERO = Fraction(0)


class MeasureTable:
    """Immutable exact weight table over the histories of a space.

    `weights` are the `Fraction` weights; `denominator` is D, the lcm of
    their denominators, and the masses are the integer numerators w * D.
    Evaluation sums masses through the "four Russians" partial-sum tables
    (Arlazarov, Dinic, Kronrod and Faradzev, 1970): histories 8i..8i+7 get
    one table whose entry s is the total mass of the histories whose bits
    are set in s, so `mass(e)` is one lookup per byte of e. A last chunk of
    k < 8 histories gets 2^k entries. That is 32 ints per history, built
    once per measure; `HistorySpace` caps spaces at 2^20 histories.
    `masses` keeps the integer mass of each history, which `direct_mass`
    sums without the tables. The sampled constructors compute the masses and
    D directly; a weight's `Fraction` is built only where it is read.
    """

    def __init__(self, space: HistorySpace, weights: Sequence[Fraction]):
        if len(weights) != space.size:
            raise ValueError("one weight per history required")
        weights = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        d = lcm(*(w.denominator for w in weights))
        nums = [w.numerator * (d // w.denominator) for w in weights]
        if sum(nums) != d:
            raise ValueError(f"weights sum to {Fraction(sum(nums), d)}, not 1")
        self._set_masses(space, nums, d)

    def _set_masses(self, space: HistorySpace, nums: Sequence[int], d: int) -> None:
        # nums are the weights times D, the lcm of their denominators
        self.space = space
        self.denominator = d
        self.masses = tuple(nums)
        self._tables = tuple(_partial_sums(nums[i:i + 8]) for i in range(0, len(nums), 8))

    @classmethod
    def _from_masses(cls, space: HistorySpace, nums: Sequence[int]) -> "MeasureTable":
        """The table of weights nums[h] / sum(nums), reduced to lowest terms
        as integers."""
        g = gcd(*nums)
        table = cls.__new__(cls)
        table._set_masses(space, [k // g for k in nums], sum(nums) // g)
        return table

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(k, d) for k in self.masses)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, space: HistorySpace) -> "MeasureTable":
        return cls._from_masses(space, [1] * space.size)

    @classmethod
    def from_weights(cls, space: HistorySpace, table: Mapping[str, Fraction | str]) -> "MeasureTable":
        """Weights keyed by history value-strings; omitted histories get 0."""
        weights = [ZERO] * space.size
        for key, value in table.items():
            weights[space.history_from_key(key)] = Fraction(value)
        return cls(space, weights)

    @classmethod
    def random(cls, space: HistorySpace, seed: int | str, denominator_bound: int = 100) -> "MeasureTable":
        """Pseudo-random weights k_h / sum(k), k_h uniform on 0..bound; exact
        normalization, deterministic in the seed."""
        rng = random.Random(f"measure:{seed}")
        nums = [rng.randint(0, denominator_bound) for _ in range(space.size)]
        if not any(nums):
            nums[0] = 1
        return cls._from_masses(space, nums)

    @classmethod
    def perfectly_correlated(cls, space: HistorySpace) -> "MeasureTable":
        """Uniform over the constant histories: every element shows the same
        value, so spacelike-separated values are perfectly correlated."""
        nums = [0] * space.size
        for v in range(space.q):
            nums[sum(v * space.q ** i for i in range(space.causet.n))] = 1
        return cls._from_masses(space, nums)

    # -- evaluation ----------------------------------------------------------

    def mass(self, e: Event) -> int:
        """mu(e) * D, an exact integer."""
        total = 0
        for table in self._tables:
            total += table[e & 255]
            e >>= 8
        return total

    def direct_mass(self, e: Event) -> int:
        """mu(e) * D summed history by history over the set bits of e, without
        the partial-sum tables: the recomputation that replays check against.
        One pass over the binary digits of e, lowest history first."""
        return sum(compress(self.masses, bin(e)[:1:-1].encode().translate(_BITS)))

    def prob(self, e: Event) -> Fraction:
        return Fraction(self.mass(e), self.denominator)

    def cond_prob(self, e: Event, given: Event) -> Fraction:
        mg = self.mass(given)
        if mg == 0:
            raise ZeroConditionError("conditioning event has probability zero")
        return Fraction(self.mass(e & given), mg)

    def weight_strings(self) -> dict[str, str]:
        """Nonzero weights as "p/q" strings keyed by history string (for
        fingerprints and model files)."""
        d = self.denominator
        keys = self.space._history_keys
        return {keys[h]: str(Fraction(k, d)) for h, k in enumerate(self.masses) if k}


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as the bytes 0 and 1


def _partial_sums(nums: Sequence[int]) -> list[int]:
    """Entry s is the sum of nums[i] over the bits i set in s."""
    table = [0]
    for w in nums:
        table += [t + w for t in table]
    return table


def is_correlated(m: MeasureTable, a: Event, b: Event) -> bool:
    """Strictly positively correlated: mu(A & B) > mu(A) mu(B), exactly. The
    sides have degrees 1 and 2 in the masses, hence the factor D."""
    return m.mass(a & b) * m.denominator > m.mass(a) * m.mass(b)


def screens_off(m: MeasureTable, a: Event, b: Event, c: Event) -> bool:
    """mu(A & B | C) = mu(A | C) mu(B | C), multiplied out to integer masses
    mass(A&B&C) mass(C) = mass(A&C) mass(B&C) (degree 2 on both sides);
    vacuously true when mu(C) = 0."""
    mc = m.mass(c)
    if mc == 0:
        return True
    return m.mass(a & b & c) * mc == m.mass(a & c) * m.mass(b & c)


def _screen_failures(
    m: MeasureTable, events_a: Sequence[Event], events_b: Sequence[Event], c: Event
) -> Iterator[tuple[Event, Event]]:
    """Every (A, B) in events_a x events_b that C fails to screen off, in
    row-major order, by the identity of `screens_off` with the masses of
    events_b & C taken once. Vacuous when mu(C) = 0, as every mass is then 0.
    This one loop decides both dom routes of the principle sweep and lists
    the witnesses and replication failures."""
    mass = m.mass
    mc = mass(c)
    mbs = [mass(b & c) for b in events_b]
    for a in events_a:
        ac = a & c
        ma = mass(ac)
        for b, mb in zip(events_b, mbs):
            if mass(ac & b) * mc != ma * mb:
                yield a, b


def replay_screen_failures(m: MeasureTable, c: Event, pairs: Sequence[tuple[Event, Event]]) -> None:
    """Re-decide, on direct history masses, that C fails to screen off each
    (A, B) of `pairs`, or, given no pairs, that mu(C) = 0.

    For each pair, the four masses of the identity of `screens_off` are
    summed without the partial-sum tables and must equal the table masses
    the decision read; then mu(C) > 0 and
    mass(A&B&C) mass(C) != mass(A&C) mass(B&C) must hold. Anything else is an
    implementation bug: InternalConsistencyError. The pairs share C, and
    mostly their A&C and B&C, so each of those is summed once; A&B&C once
    per pair."""
    direct_mass, mass = m.direct_mass, m.mass
    known = {
        e: (direct_mass(e), mass(e))
        for e in {c, *(a & c for a, _ in pairs), *(b & c for _, b in pairs)}
    }
    mc, table_c = known[c]
    if not pairs and mc:
        raise InternalConsistencyError(
            f"table masses ({table_c},) differ from the history masses ({mc},) on replay"
        )
    for a, b in pairs:
        abc = a & b & c
        (mac, table_ac), (mbc, table_bc) = known[a & c], known[b & c]
        direct = (direct_mass(abc), mc, mac, mbc)
        table = (mass(abc), table_c, table_ac, table_bc)
        if direct != table:
            raise InternalConsistencyError(
                f"table masses {table} differ from the history masses {direct} on replay"
            )
        if mc == 0 or direct[0] * mc == mac * mbc:
            raise InternalConsistencyError("a recorded failing pair screens off on replay")


def screening_sides(m: MeasureTable, a: Event, b: Event, c: Event) -> tuple[Fraction, Fraction]:
    """The printed sides mu(A & B | C) and mu(A | C) mu(B | C); mu(C) > 0."""
    mc = m.mass(c)
    return Fraction(m.mass(a & b & c), mc), Fraction(m.mass(a & c) * m.mass(b & c), mc * mc)


class CommonCauseVerdict(NamedTuple):
    qualifies: bool
    failed_conditions: tuple[str, ...]
    # one empty default shared by the verdicts built without sides; no
    # code mutates a verdict's sides
    sides: dict[str, tuple[Fraction, Fraction]] = {}
    zero_screeners: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "qualifies": self.qualifies,
            "failed_conditions": list(self.failed_conditions),
            "sides": {k: [str(l), str(r)] for k, (l, r) in sorted(self.sides.items())},
            "zero_screeners": list(self.zero_screeners),
        }


def is_common_cause(
    m: MeasureTable,
    a: Event,
    b: Event,
    c: Event,
    relevance: str = "printed",
    zero_mode: str = "vacuous",
) -> CommonCauseVerdict:
    """Reichenbachian common cause verdict for a correlated pair.

    Conditions checked exactly: screening on C, screening on C^c, and the two
    relevance inequalities. `relevance="printed"` uses the intersection form
    mu(A & C) > mu(A & C^c); `relevance="conditional"` uses
    mu(A | C) > mu(A | C^c) (undefined sides fail). Both are exposed because
    the two readings genuinely differ and neither is privileged here.
    """
    mass, d = m.mass, m.denominator
    failed: list[str] = []
    sides: dict[str, tuple[Fraction, Fraction]] = {}
    zero: list[str] = []
    if not is_correlated(m, a, b):
        failed.append("not-correlated")
        sides["not-correlated"] = (Fraction(mass(a & b), d), Fraction(mass(a) * mass(b), d * d))
    comp = m.space.complement(c)
    mc, mcc = mass(c), mass(comp)
    for name, cell, mcell in (("screen-on-C", c, mc), ("screen-on-C^c", comp, mcc)):
        if mcell == 0:
            if zero_mode == "strict":
                zero.append(name)
        elif not screens_off(m, a, b, cell):
            failed.append(name)
            sides[name] = screening_sides(m, a, b, cell)
    for name, ev in (("relevance-A", a), ("relevance-B", b)):
        me, mec = mass(ev & c), mass(ev & comp)
        if relevance == "printed":
            if me > mec:
                continue
            sides[name] = (Fraction(me, d), Fraction(mec, d))
        elif mc == 0 or mcc == 0:
            sides[name] = (ZERO, ZERO)
        elif me * mcc > mec * mc:
            continue
        else:
            sides[name] = (Fraction(me, mc), Fraction(mec, mcc))
        failed.append(name)
    return CommonCauseVerdict(not failed, tuple(failed), sides, tuple(zero))


class CcsVerdict(NamedTuple):
    qualifies: bool
    failure: dict | None = None
    zero_cells: tuple[int, ...] = ()

    def to_json(self) -> dict:
        failure = None
        if self.failure is not None:
            failure = {
                k: (str(v) if isinstance(v, Fraction) else v)
                for k, v in self.failure.items()
            }
        return {
            "qualifies": self.qualifies,
            "failure": failure,
            "zero_cells": list(self.zero_cells),
        }


def is_ccs(
    m: MeasureTable,
    a: Event,
    b: Event,
    partition: Sequence[Event],
    zero_mode: str = "vacuous",
) -> CcsVerdict:
    """Common-cause-system verdict: every cell screens off, and every ordered
    pair of positive cells satisfies the cross relevance inequality
    (mu(A|Ci) - mu(A|Cj)) (mu(B|Ci) - mu(B|Cj)) > 0.

    The partition must cover Omega with pairwise disjoint nonempty cells.
    Returns the first failing cell or pair as witness. Pairs with a
    zero-probability cell are skipped; screening over them is vacuous.
    With zero_mode="strict" every verdict, a not-correlated one included,
    lists the zero-probability cells.
    """
    union = 0
    for cell in partition:
        if cell == 0:
            raise NotAPartitionError("partition cells must be nonempty")
        if union & cell:
            raise NotAPartitionError("partition cells overlap")
        union |= cell
    if union != m.space.omega:
        raise NotAPartitionError("partition does not cover the history space")

    mass, d = m.mass, m.denominator
    masses = [mass(cell) for cell in partition]
    zero = tuple(i for i, mc in enumerate(masses) if mc == 0) if zero_mode == "strict" else ()
    if not is_correlated(m, a, b):
        return CcsVerdict(False, {
            "kind": "not-correlated",
            "lhs": Fraction(mass(a & b), d),
            "rhs": Fraction(mass(a) * mass(b), d * d),
        }, zero)

    for i, cell in enumerate(partition):
        if not screens_off(m, a, b, cell):
            lhs, rhs = screening_sides(m, a, b, cell)
            return CcsVerdict(False, {"kind": "screening", "cell": i, "lhs": lhs, "rhs": rhs}, zero)
    positive = [
        (i, mass(a & cell), mass(b & cell), masses[i])
        for i, cell in enumerate(partition)
        if masses[i]
    ]
    for i, ma_i, mb_i, m_i in positive:
        for j, ma_j, mb_j, m_j in positive:
            if i == j:
                continue
            # (mu(A|Ci) - mu(A|Cj)) (mu(B|Ci) - mu(B|Cj)) times (m_i m_j)^2 > 0
            cross = (ma_i * m_j - ma_j * m_i) * (mb_i * m_j - mb_j * m_i)
            if not cross > 0:
                return CcsVerdict(False, {
                    "kind": "relevance",
                    "cells": (i, j),
                    "lhs": Fraction(cross, (m_i * m_j) ** 2),
                    "rhs": ZERO,
                }, zero)
    return CcsVerdict(True, None, zero)


def _set_partitions(size: int) -> Iterator[list[Event]]:
    """All set partitions of histories 0..size-1 as cell-mask lists, in
    restricted-growth-string order (deterministic; cells ordered by least
    member)."""
    rgs = [0] * size

    def rec(i: int, blocks: int) -> Iterator[list[Event]]:
        if i == size:
            cells = [0] * blocks
            for h, blk in enumerate(rgs):
                cells[blk] |= 1 << h
            yield cells
            return
        for blk in range(blocks + 1):
            rgs[i] = blk
            yield from rec(i + 1, max(blocks, blk + 1))

    if size:
        yield from rec(1, 1)


# the largest history space whose set partitions find_ccs enumerates
ALL_PARTITIONS_CAP = 8


def find_ccs(
    m: MeasureTable,
    a: Event,
    b: Event,
    max_size: int,
    mode: str = "all",
    dom: DomMap | None = None,
    zero_mode: str = "vacuous",
) -> list[tuple[Event, ...]]:
    """All qualifying common cause systems with at most max_size cells.

    mode="all" enumerates every set partition of the histories and needs
    |Omega| <= ALL_PARTITIONS_CAP (Bell numbers explode); beyond that it raises
    and directs the caller to mode="regions", which only tries the
    partitions Phi(R) over regions R of the causet. Deterministic output
    order.
    """
    space = m.space
    out: list[tuple[Event, ...]] = []
    if mode == "all":
        if space.size > ALL_PARTITIONS_CAP:
            raise CapExceededError(
                f"history space has {space.size} > {ALL_PARTITIONS_CAP} histories; "
                "use mode='regions' to search full-specification partitions"
            )
        candidates: Iterator[Sequence[Event]] = _set_partitions(space.size)
    elif mode == "regions":
        dom = dom or DomMap.canonical()
        candidates = (
            full_specifications(space, dom, r) for r in space.causet.regions()
        )
    else:
        raise ValueError(f"unknown find_ccs mode {mode!r}")
    for cells in candidates:
        if len(cells) > max_size:
            continue
        try:
            verdict = is_ccs(m, a, b, cells, zero_mode)
        except NotAPartitionError:
            continue  # degenerate Phi from a user dom map
        if verdict.qualifies:
            out.append(tuple(cells))
    return out
