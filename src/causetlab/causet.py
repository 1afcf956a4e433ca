"""Finite causal sets and their region algebra.

A causet is a finite set of elements with a strict causal order (irreflexive,
transitive, hence acyclic). Regions are arbitrary subsets of the element set,
held as int bitmasks over element indices for fast set algebra.

The operations here are the spatiotemporal half of the laboratory: causal
pasts J^-, mutual and truncated joint pasts, spacelike separation, causal
complement/closure, causal finiteness, and the flank regions used by the
equivalence argument between the screening-off principles.

Point-level spacelike relation: two distinct elements are spacelike iff
neither precedes the other. The causal complement O' of a region is the set
of points spacelike from every point of the region (vacuously, the whole
element set for the empty region); the causal closure is (O')'. This is the
standard causal-set transcription of the order-theoretic complement; only
this definition is implemented and tested.

A causet's order and elements never change after construction and every
operation is a pure function of them. The only state built after
construction is the index of the labels and two tables over all 2^n
regions, the causal pasts and the causal complements, each filled once on
first use with the one value it can have, so concurrent reads and transfer
between workers stay safe. The bit-lane columns of the region identity
check depend only on the number of elements, up to 8, and are cached per
module.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CycleError,
    DuplicateElementError,
    ForeignRegionError,
    LimitError,
    NotSpacelikeError,
)

# Regions are plain int bitmasks over element indices.
Region = int

# Sweeps over all 2^n regions, and the past table, stop at this many elements.
_SWEEP_LIMIT = 16


def _bits(mask: int) -> Iterable[int]:
    """The indices of a non-negative mask's set bits, ascending.

    A mask below 2^8, which covers every row, region, cell and antichain of
    a causet with at most 8 elements, reads its tuple from a table built at
    import; a wider mask, such as an event over many histories, is walked
    one low bit at a time.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    return _wide_bits(mask)


def _wide_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BYTE_BITS: tuple[tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if m >> i & 1) for m in range(256)
)


class Causet:
    """A finite set with a strict causal partial order, stored transitively closed.

    Causal pasts come from a table holding J^-(r) for all 2^n regions r,
    built on first use (2^n ints; up to 16 elements); `spacelike_pairs`
    reads the complements r' from a second table of the same size.
    `region_identity_failures` reads neither: it decides every region
    identity of every spacelike pair at once, one bit lane per pair.
    """

    def __init__(self, elements: Sequence[str], closed_above: Sequence[int]):
        """Internal constructor; use :func:`validate_causet` or :meth:`from_relations`."""
        self.elements: tuple[str, ...] = tuple(elements)
        # _above[i] = mask of j with i < j; _below[i] = mask of j with j < i.
        self._above: tuple[int, ...] = tuple(closed_above)
        n = len(self.elements)
        below = [0] * n
        for i, row in enumerate(self._above):
            for j in _bits(row):
                below[j] |= 1 << i
        self._below: tuple[int, ...] = tuple(below)
        self.full: Region = (1 << n) - 1

    # -- construction ---------------------------------------------------

    @classmethod
    def from_relations(cls, elements: Sequence[str], relations: Iterable[tuple[str, str]]) -> "Causet":
        return validate_causet(elements, relations)

    @property
    def n(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rels = [f"{a}<{b}" for a, b in self.relation_pairs()]
        return f"Causet({list(self.elements)}, [{', '.join(rels)}])"

    def relation_pairs(self) -> list[tuple[str, str]]:
        """The transitively closed strict order as label pairs, in index order."""
        out = []
        for i, e in enumerate(self.elements):
            for j in _bits(self._above[i]):
                out.append((e, self.elements[j]))
        return out

    # -- region plumbing ------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def _position(self, label: str) -> int:
        """The index of an element label; rejects unknown labels."""
        i = self._index.get(label)
        if i is None:
            raise ForeignRegionError(f"unknown element {label!r}")
        return i

    def region(self, members: Iterable[str] | str) -> Region:
        """Build a region mask from element labels; rejects unknown labels."""
        if isinstance(members, str):
            members = [p for p in members.split(",") if p]
        mask = 0
        for label in members:
            mask |= 1 << self._position(label)
        return mask

    def labels(self, r: Region) -> tuple[str, ...]:
        self._check(r)
        return tuple(self.elements[i] for i in _bits(r))

    def _check(self, r: Region) -> None:
        if r & ~self.full:
            raise ForeignRegionError(f"region mask {r:#x} has bits outside the causet")

    def precedes(self, a: str, b: str) -> bool:
        """a < b in the causal order; rejects unknown labels."""
        return bool(self._above[self._position(a)] >> self._position(b) & 1)

    # -- the region algebra ----------------------------------------------

    def past(self, r: Region) -> Region:
        """Causal past J^-(r): everything strictly before some point of r, plus r.

        Read from the past table; a causet too large for the table joins
        the pasts of r's points instead.
        """
        self._check(r)
        if self.n > _SWEEP_LIMIT:
            out = r
            for i in _bits(r):
                out |= self._below[i]
            return out
        return self._past_table[r]

    @cached_property
    def _past_table(self) -> tuple[Region, ...]:
        """J^-(r) for every region r, indexed by its mask: 2^n ints.

        Built once by doubling: for each point i in turn, the regions that
        hold i are those without it joined with i and its own past. Like the
        region sweeps it is exponential, so it is refused above _SWEEP_LIMIT
        elements.
        """
        if self.n > _SWEEP_LIMIT:
            raise LimitError("past tables are exponential; causet too large")
        table = [0]
        for i, below in enumerate(self._below):
            own = 1 << i | below
            table += [t | own for t in table]
        return tuple(table)

    def is_spacelike(self, r1: Region, r2: Region) -> bool:
        """True iff J^-(r1) misses r2 and r1 misses J^-(r2).

        Overlapping regions are never spacelike since each point lies in its
        own past.
        """
        return _spacelike(r1, r2, self.past(r1), self.past(r2))

    def mutual_past(self, r1: Region, r2: Region) -> Region:
        """P1(r1, r2) = J^-(r1) & J^-(r2); defined for any two regions."""
        return self.past(r1) & self.past(r2)

    def truncated_joint_past(self, r1: Region, r2: Region) -> Region:
        """P2(r1, r2) = (J^-(r1) | J^-(r2)) minus the regions themselves."""
        return _truncated_joint(r1, r2, self.past(r1), self.past(r2))

    @cached_property
    def _point_complement(self) -> tuple[int, ...]:
        # mask of points spacelike from element i (incomparable and distinct)
        return tuple(
            self.full & ~(self._above[i] | self._below[i] | (1 << i))
            for i in range(self.n)
        )

    def causal_complement(self, r: Region) -> Region:
        """All points spacelike from every point of r; the full set for r = 0."""
        self._check(r)
        out = self.full
        for i in _bits(r):
            out &= self._point_complement[i]
        return out

    @cached_property
    def _complement_table(self) -> tuple[Region, ...]:
        """r' for every region r, indexed by its mask: 2^n ints.

        Built like the past table: the complement of a region holding point
        i is the complement of the region without i met with i's own.
        """
        if self.n > _SWEEP_LIMIT:
            raise LimitError("complement tables are exponential; causet too large")
        point = self._point_complement
        table = [self.full]
        for cut in point:
            table += [t & cut for t in table]
        return tuple(table)

    def causal_closure(self, r: Region) -> Region:
        """(r')'; always contains r."""
        return self.causal_complement(self.causal_complement(r))

    def is_causally_finite(self, r: Region) -> bool:
        """True iff the past of the causal closure strictly exceeds the closure.

        Literal evaluation of the definition; in particular the empty region
        and the full element set are causally infinite (their closures gain
        nothing from taking pasts).
        """
        closure = self.causal_closure(r)
        return bool(self.past(closure) & ~closure)

    def flank_regions(self, ra: Region, rb: Region) -> tuple[Region, Region]:
        """The strips (J^-(A)\\A)\\J^-(B) and (J^-(B)\\B)\\J^-(A)."""
        return _flanks(ra, rb, self.past(ra), self.past(rb))

    def verify_crucial_identity(self, ra: Region, rb: Region) -> "CrucialIdentityReport":
        """Check the enlarged-pair identity behind the SO2 => SO1 step.

        For spacelike ra, rb with flanks X, Y this verifies that (i) ra|X and
        rb|Y are again spacelike and (ii) the truncated joint past of the
        enlarged pair equals the mutual past of the original pair. Returns all
        computed regions for inspection.
        """
        pa, pb = self.past(ra), self.past(rb)
        if not _spacelike(ra, rb, pa, pb):
            raise NotSpacelikeError(
                f"regions {self.labels(ra)} and {self.labels(rb)} are not spacelike separated"
            )
        x, y = _flanks(ra, rb, pa, pb)
        ea, eb = ra | x, rb | y
        pea, peb = self.past(ea), self.past(eb)
        spacelike_ok = _spacelike(ea, eb, pea, peb)
        p1 = pa & pb
        p2_enlarged = _truncated_joint(ea, eb, pea, peb)
        return CrucialIdentityReport(
            region_a=ra,
            region_b=rb,
            flank_x=x,
            flank_y=y,
            enlarged_a=ea,
            enlarged_b=eb,
            mutual_past=p1,
            truncated_joint_past_enlarged=p2_enlarged,
            enlarged_spacelike=spacelike_ok,
            identity_holds=(p2_enlarged == p1),
        )

    def decomposes_truncated_past(self, ra: Region, rb: Region) -> bool:
        """True iff P2 = X | Y | P1 with the three parts pairwise disjoint."""
        pa, pb = self.past(ra), self.past(rb)
        x, y = _flanks(ra, rb, pa, pb)
        p1 = pa & pb
        p2 = _truncated_joint(ra, rb, pa, pb)
        disjoint = not (x & y) and not (x & p1) and not (y & p1)
        return disjoint and (x | y | p1) == p2

    def region_identity_failures(self) -> tuple[int, list[tuple[Region, Region]]]:
        """Every region identity of every spacelike pair, one bit lane per pair.

        Returns the number of pairs checked and the failing ones, in
        spacelike_pairs() order. With P1 = J^-(ra) & J^-(rb), flanks X, Y and
        the enlarged pair (ra|X, rb|Y), a pair passes when: the enlarged
        pair is spacelike; P2 of the enlarged pair equals P1; X, Y and P1
        are pairwise disjoint with union P2(ra, rb); and P1 misses ra|rb.
        A pair passes exactly when verify_crucial_identity(ra, rb).holds and
        decomposes_truncated_past(ra, rb) and not mutual_past(ra, rb) & (ra|rb).

        The candidates are the disjoint pairs ra <= rb, one bit lane each,
        decided together by `_identity_lanes`. The low min(n, 8) elements
        take their lane columns from `_lane_columns`. Each assignment of the
        elements above those to ra, rb or neither is one pass, in which
        their columns hold every lane or none. Failing lanes are decoded
        from the columns.
        """
        if self.n > _SWEEP_LIMIT:
            raise LimitError("region identity sweeps are exponential; causet too large")
        low = min(self.n, _LANE_WIDTH)
        high = self.n - low
        ups = [tuple(_bits(up)) for up in self._above]
        checked = 0
        failing = []
        for ha in range(1 << high):
            for hb in range(ha, 1 << high):
                if ha & hb:
                    continue
                # ra <= rb is decided by the high parts when they differ;
                # when both are empty, only the ordered lanes qualify
                lanes, low_a, low_b = _lane_columns(low, ha == hb)
                ra = list(low_a) + [lanes if ha >> k & 1 else 0 for k in range(high)]
                rb = list(low_b) + [lanes if hb >> k & 1 else 0 for k in range(high)]
                spacelike, fails = _identity_lanes(ups, lanes, ra, rb)
                checked += _popcount(spacelike)
                for lane in _bits(fails):
                    failing.append((
                        ha << low | sum(1 << j for j in range(low) if low_a[j] >> lane & 1),
                        hb << low | sum(1 << j for j in range(low) if low_b[j] >> lane & 1),
                    ))
        failing.sort()
        return checked, failing

    # -- sweeps -----------------------------------------------------------

    def spacelike_pairs(self, max_size: int | None = None) -> Iterator[tuple[Region, Region]]:
        """All unordered spacelike region pairs (ra <= rb as masks), ascending.

        Region-level spacelike separation is equivalent to pointwise spacelike
        separation of every cross pair, so the partners of ra are exactly the
        submasks of its causal complement. Cost is O(3^n), not O(4^n).
        """
        if self.n > _SWEEP_LIMIT:
            raise LimitError("spacelike pair sweeps are exponential; causet too large")
        complement = self._complement_table
        for ra in range(self.full + 1):
            if max_size is not None and _popcount(ra) > max_size:
                continue
            allowed = complement[ra]
            rb = 0
            while True:  # the submasks of allowed, ascending
                if rb >= ra and (max_size is None or _popcount(rb) <= max_size):
                    yield ra, rb
                rb = (rb - allowed) & allowed
                if rb == 0:
                    break

    def regions(self) -> Iterator[Region]:
        if self.n > _SWEEP_LIMIT:
            raise LimitError("region sweeps are exponential; causet too large")
        return iter(range(self.full + 1))


class CrucialIdentityReport(NamedTuple):
    region_a: Region
    region_b: Region
    flank_x: Region
    flank_y: Region
    enlarged_a: Region
    enlarged_b: Region
    mutual_past: Region
    truncated_joint_past_enlarged: Region
    enlarged_spacelike: bool
    identity_holds: bool

    @property
    def holds(self) -> bool:
        return self.enlarged_spacelike and self.identity_holds

    def to_json(self, causet: Causet) -> dict:
        return {
            "region_a": list(causet.labels(self.region_a)),
            "region_b": list(causet.labels(self.region_b)),
            "flank_x": list(causet.labels(self.flank_x)),
            "flank_y": list(causet.labels(self.flank_y)),
            "enlarged_a": list(causet.labels(self.enlarged_a)),
            "enlarged_b": list(causet.labels(self.enlarged_b)),
            "mutual_past": list(causet.labels(self.mutual_past)),
            "truncated_joint_past_enlarged": list(
                causet.labels(self.truncated_joint_past_enlarged)
            ),
            "enlarged_spacelike": self.enlarged_spacelike,
            "identity_holds": self.identity_holds,
            "holds": self.holds,
        }


def _popcount(mask: int) -> int:
    return mask.bit_count()


# The region algebra on regions r1, r2 and their causal pasts p1, p2.


def _spacelike(r1: Region, r2: Region, p1: Region, p2: Region) -> bool:
    return not (p1 & r2) and not (r1 & p2)


def _truncated_joint(r1: Region, r2: Region, p1: Region, p2: Region) -> Region:
    return (p1 | p2) & ~(r1 | r2)


def _flanks(r1: Region, r2: Region, p1: Region, p2: Region) -> tuple[Region, Region]:
    return (p1 & ~r1) & ~p2, (p2 & ~r2) & ~p1


# The same algebra on lane columns: a region R of many candidate pairs at
# once is one int per element j, whose bit k says whether lane k's R holds j.

# Lane columns cover at most this many elements: 3^8 lanes, 6,561-bit ints.
_LANE_WIDTH = 8


@cache
def _lane_columns(width: int, ordered: bool) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The disjoint region pairs (a, b) over `width` elements, one lane each.

    Returns the mask of all lanes and, per element j, the columns of the
    lanes whose a holds j and whose b holds j. Unordered, these are all
    3^width pairs, lane k's base-3 digit j saying whether j lies in neither,
    a or b. Ordered, they are the (3^width + 1)/2 pairs with a <= b: the
    ordered pairs without the top element, then every pair with the top
    element in b (disjoint masks compare by their highest element).
    """
    if width == 0:
        return 1, (), ()
    lanes, cols_a, cols_b = _lane_columns(width - 1, False)
    if ordered:
        half, half_a, half_b = _lane_columns(width - 1, True)
        shift = half.bit_length()
        return (
            half | lanes << shift,
            tuple(h | c << shift for h, c in zip(half_a, cols_a)) + (0,),
            tuple(h | c << shift for h, c in zip(half_b, cols_b)) + (lanes << shift,),
        )
    span = lanes.bit_length()
    thrice = 1 | 1 << span | 1 << 2 * span
    return (
        lanes * thrice,
        tuple(c * thrice for c in cols_a) + (lanes << span,),
        tuple(c * thrice for c in cols_b) + (lanes << 2 * span,),
    )


def _past_columns(ups: list[tuple[int, ...]], cols: list[int]) -> list[int]:
    # J^-(R)[j] = R[j] | R[i] for every i above j: the past table's one step
    out = []
    for col, up in zip(cols, ups):
        for i in up:
            col |= cols[i]
        out.append(col)
    return out


def _identity_lanes(
    ups: list[tuple[int, ...]], lanes: int, ra: list[int], rb: list[int]
) -> tuple[int, int]:
    """The spacelike lanes of (ra, rb), and those among them that fail a
    region identity; ups[j] lists the elements above j."""
    pa, pb = _past_columns(ups, ra), _past_columns(ups, rb)
    xs = [p & ~a & ~q for a, p, q in zip(ra, pa, pb)]
    ys = [q & ~b & ~p for b, p, q in zip(rb, pa, pb)]
    ea = [a | x for a, x in zip(ra, xs)]
    eb = [b | y for b, y in zip(rb, ys)]
    pea, peb = _past_columns(ups, ea), _past_columns(ups, eb)
    near = bad = 0
    for a, b, p, q, x, y, e, f, pe, pf in zip(ra, rb, pa, pb, xs, ys, ea, eb, pea, peb):
        near |= p & b | a & q
        p1 = p & q
        bad |= (
            pe & f | e & pf  # the enlarged pair is not spacelike
            | ((pe | pf) & ~(e | f)) ^ p1  # its truncated joint past is not P1
            | x & y | x & p1 | y & p1  # X, Y and P1 overlap
            | (x | y | p1) ^ ((p | q) & ~(a | b))  # their union is not P2
            | p1 & (a | b)  # P1 meets the pair
        )
    spacelike = lanes & ~near
    return spacelike, bad & spacelike


def validate_causet(
    elements: Sequence[str], relations: Iterable[tuple[str, str] | Sequence[str]]
) -> Causet:
    """Build a causet from a generating relation, computing the transitive closure.

    The input may be any generating set (e.g. a Hasse diagram); duplicates are
    fine. Rejects repeated element labels and cyclic input, naming a
    witnessing cycle.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        dupes = sorted({e for e in elements if elements.count(e) > 1})
        raise DuplicateElementError(f"repeated element labels: {dupes}")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    above = [0] * n
    raw_edges: list[tuple[int, int]] = []
    for pair in relations:
        a, b = pair
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ForeignRegionError(f"relation references unknown element {missing!r}")
        i, j = index[a], index[b]
        if i == j:
            raise CycleError([a])
        above[i] |= 1 << j
        raw_edges.append((i, j))
    # Warshall closure on bit rows.
    for k in range(n):
        bit_k = 1 << k
        for i in range(n):
            if above[i] & bit_k:
                above[i] |= above[k]
    for i in range(n):
        if above[i] >> i & 1:
            raise CycleError(_find_cycle(elements, raw_edges, i))
    return Causet(elements, above)


def _find_cycle(elements: Sequence[str], edges: list[tuple[int, int]], start: int) -> list[str]:
    # BFS from start over raw edges back to start; a cycle is guaranteed.
    succ: dict[int, list[int]] = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
    parent: dict[int, int] = {start: -1}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for v in succ.get(u, ()):
            if v == start:
                path = [u]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                return [elements[i] for i in reversed(path)]
            if v not in parent:
                parent[v] = u
                queue.append(v)
    raise AssertionError("no cycle found from a node known to reach itself")
