"""History spaces over a causet, events, and least domains of decidability.

Omega is the full product space: one value from a finite alphabet per causet
element. A history is encoded as an integer in base `alphabet_size` (digit i
is the value at element i) and an event is an int bitmask over history
indices, so event algebra is plain integer bit algebra.

dom(A), the least domain of decidability, is the smallest region whose
restriction of a history decides membership in A. For product spaces the
canonical construction is the dependency set: element s belongs to dom(A)
iff two histories differing only at s can disagree about A. User-supplied
dom maps, which let the laboratory explore non-product models, are
validated against the dom axioms rather than trusted, and indexed by dom
once (`DomMap`): Gamma, Phi and the axiom-4 atoms are read from the index.

Gamma(R) is the collection of events decidable inside R (dom(A) subseteq R;
the subset is read non-strictly throughout, since the strict reading would
empty Phi(R) for dom-minimal regions and break the partition law; every CLI
report states this convention). Phi(R), the full specifications of R, are the
nonempty events decidable in R that settle every other event decidable in R;
they partition Omega, and for canonical doms they are exactly the cylinders
fixing a value at every element of R, with Phi(empty) = {Omega}.
"""

from __future__ import annotations

import random
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .causet import Causet, Region, _bits, _popcount
from .errors import (
    CapExceededError,
    EmptyIntersectionError,
    LimitError,
    NotDisjointError,
    NotFullSpecError,
    UndefinedDomError,
)

Event = int

_DIGITS = "0123456789abcdef"

# Full product spaces beyond this many histories make event masks unwieldy.
_MAX_HISTORIES = 1 << 20

# The most histories whose 2^size events a canonical dom map will enumerate.
MAX_ENUMERABLE_HISTORIES = 16


def check_space_limits(alphabet_size: int, elements: int) -> None:
    """Refuse, before any work, an alphabet that HistorySpace refuses on
    some space of up to `elements` elements."""
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be at least 2")
    if alphabet_size > len(_DIGITS):
        raise LimitError(f"alphabet_size above {len(_DIGITS)} not supported by history keys")
    if alphabet_size ** elements > _MAX_HISTORIES:
        raise LimitError("history space too large")


class HistorySpace:
    """The product space alphabet^elements with events as history bitmasks.

    History h holds value (h // q^i) % q at element i. Every table is built
    as a product over elements, each the most significant digit so far.
    """

    def __init__(self, causet: Causet, alphabet_size: int = 2):
        check_space_limits(alphabet_size, causet.n)
        self.causet = causet
        self.q = q = alphabet_size
        self.size = q ** causet.n
        self.omega: Event = (1 << self.size) - 1
        # value_masks[i][v]: histories whose value at element i is v, a run
        # of q^i ones from v q^i in every block of q^(i+1) histories
        self._value_masks: list[list[int]] = []
        for i in range(causet.n):
            step = q ** i
            run = ((1 << step) - 1) * (self.omega // ((1 << step * q) - 1))
            self._value_masks.append([run << v * step for v in range(q)])
        self._phi_cache: dict[Region, tuple[Event, ...]] = {}

    def _value(self, h: int, i: int) -> int:
        return (h // (self.q ** i)) % self.q

    # -- rendering --------------------------------------------------------

    def history_key(self, h: int) -> str:
        """Value string in element order, e.g. "010" for x=0, y=1, z=0."""
        return "".join(_DIGITS[self._value(h, i)] for i in range(self.causet.n))

    def history_from_key(self, key: str) -> int:
        if len(key) != self.causet.n:
            raise ValueError(f"history key {key!r} must have one digit per element")
        h = 0
        for i, ch in enumerate(key):
            v = _DIGITS.find(ch)
            if v not in range(self.q):
                raise ValueError(f"history key {key!r} uses a value outside the alphabet")
            h += v * self.q ** i
        return h

    @cached_property
    def _history_keys(self) -> tuple[str, ...]:
        # every history's key, built once on the first event rendered
        keys = [""]
        for _ in range(self.causet.n):
            keys = [k + d for d in _DIGITS[:self.q] for k in keys]
        return tuple(keys)

    def event_keys(self, e: Event) -> list[str]:
        keys = self._history_keys
        return [keys[h] for h in _bits(e)]

    # -- event constructors ------------------------------------------------

    def cylinder(self, assignment: Mapping[str, int]) -> Event:
        """Histories matching every element=value constraint given."""
        mask = self.omega
        for label, value in assignment.items():
            i = self.causet._position(label)
            if not 0 <= value < self.q:
                raise ValueError(f"value {value} for {label!r} outside the alphabet")
            mask &= self._value_masks[i][value]
        return mask

    def event_from_histories(self, keys: Iterable[str]) -> Event:
        mask = 0
        for key in keys:
            mask |= 1 << self.history_from_key(key)
        return mask

    def complement(self, e: Event) -> Event:
        return self.omega & ~e

    # -- canonical dom and full specifications ------------------------------

    def flip_event(self, e: Event, i: int) -> Event:
        """The event permuted by cycling the value at element i by +1 mod q.

        A history with value v < q - 1 at element i moves to index + q^i,
        and one with value q - 1 wraps to index - (q - 1) q^i. On event masks
        that is two shifts: histories outside the top-value mask of element
        i move up by q^i bit positions, those inside it down by (q - 1) q^i.
        """
        step = self.q ** i
        top = self._value_masks[i][self.q - 1]
        return ((e & ~top) << step) | ((e & top) >> (self.q - 1) * step)

    def canonical_dom(self, e: Event) -> Region:
        """Dependency set: elements whose value can change membership in e.

        Membership is constant on every fiber of element i exactly when the
        event is invariant under cycling the value at i, so one permutation
        test per element suffices.
        """
        dom = 0
        for i in range(self.causet.n):
            if self.flip_event(e, i) != e:
                dom |= 1 << i
        return dom

    def phi_cells(self, region: Region) -> tuple[Event, ...]:
        """Cylinders fixing a value at every element of the region; cell s
        assigns value (s // q^j) % q to the j-th region element in element
        order. ({Omega},) for the empty region."""
        cells = self._phi_cache.get(region)
        if cells is None:
            product = [self.omega]
            for i in _bits(region):
                product = [c & m for m in self._value_masks[i] for c in product]
            cells = self._phi_cache[region] = tuple(product)
        return cells


class DomMap:
    """Least-domain assignment: canonical (computed) or user-supplied (validated).

    An explicit map is indexed once, when made, and never mutated after: its
    events sorted into the universe order every caller sees and grouped by
    dom, so Gamma(R) (`within`) reads whole groups and asks no event its
    dom. `canonical()` is one shared instance, so a map is its own cache key.
    """

    def __init__(self, mapping: dict[Event, Region] | None = None):
        self._mapping = mapping
        if mapping is not None:
            self._universe = tuple(sorted(mapping))
            self._groups: dict[Region, list[Event]] = {}
            for e in self._universe:
                self._groups.setdefault(mapping[e], []).append(e)

    @classmethod
    @cache
    def canonical(cls) -> "DomMap":
        return cls(None)

    @classmethod
    def explicit(cls, mapping: Mapping[Event, Region]) -> "DomMap":
        return cls(dict(mapping))

    @property
    def is_canonical(self) -> bool:
        return self._mapping is None

    def dom(self, space: HistorySpace, e: Event) -> Region:
        if self._mapping is None:
            return space.canonical_dom(e)
        try:
            return self._mapping[e]
        except KeyError:
            raise UndefinedDomError(
                f"user dom map does not define event {space.event_keys(e)}"
            ) from None

    def events(self, space: HistorySpace) -> Iterator[Event]:
        """The event universe this map is defined on (all of pow(Omega) when canonical)."""
        if self._mapping is None:
            if space.size > MAX_ENUMERABLE_HISTORIES:
                raise CapExceededError(
                    "cannot enumerate all events of a space with more than "
                    f"{MAX_ENUMERABLE_HISTORIES} histories; pass an explicit universe"
                )
            return iter(range(space.omega + 1))
        return iter(self._universe)

    def within(self, region: Region) -> list[Event]:
        """Gamma(region) of an explicit map: its events whose dom lies inside
        the region, in universe order."""
        return sorted(chain.from_iterable(g for d, g in self._groups.items() if d & ~region == 0))


def gamma(space: HistorySpace, dom: DomMap, region: Region, limit: int | None = None) -> list[Event]:
    """All events decidable inside the region (dom(X) subseteq region).

    For canonical doms these are exactly the unions of Phi(region) cells,
    enumerated in ascending cell-subset order (so the empty event comes
    first and Omega last). Grows as 2^(q^|region|); pass `limit` to truncate
    deliberately, otherwise oversized enumerations raise CapExceededError.
    """
    events, truncated = gamma_capped(space, dom, region, limit)
    if truncated and limit is None:
        raise CapExceededError("event algebra too large; pass a limit")
    return events


def gamma_capped(
    space: HistorySpace, dom: DomMap, region: Region, limit: int | None
) -> tuple[list[Event], bool]:
    """Gamma with an explicit cap, in `gamma`'s order: (events, truncated). Canonical
    doms double over `capped_gamma_cells`, and give ([], True) uncapped above 2^16 events."""
    if dom.is_canonical:
        take, truncated = capped_gamma_size(space, region, 1 << 16 if limit is None else limit)
        if truncated and limit is None:
            return [], True
        events = [0]
        for cell in capped_gamma_cells(space, region, take):
            events += [e | cell for e in events]
        return events[:take], truncated
    events = dom.within(region)
    return events[:limit], limit is not None and len(events) > limit


def capped_gamma_size(space: HistorySpace, region: Region, cap: int) -> tuple[int, bool]:
    """How many of the 2^(q^|region|) events of a canonical Gamma(region) a
    cap takes, and whether it leaves some out."""
    k = space.q ** _popcount(region)
    if k > 1000:  # 2^k certainly beyond any sane cap
        return cap, True
    return min(1 << k, cap), cap < 1 << k


def capped_gamma_cells(space: HistorySpace, region: Region, take: int) -> tuple[Event, ...]:
    """The Phi cells the first `take` events of a canonical Gamma(region) are
    unions of: the first bit_length(take - 1), all unless take <= 2^(cells - 1)."""
    return space.phi_cells(region)[:max(take - 1, 0).bit_length()]


def full_specifications(space: HistorySpace, dom: DomMap, region: Region) -> list[Event]:
    """Phi(region): nonempty events decidable in the region that settle every
    event decidable in the region (F inside X or inside X^c for each such X).

    Canonical doms: the cylinders fixing a value at each region element.
    Explicit doms: the events of Gamma(region) that are atoms of the algebra
    Gamma(region) generates, in universe order. An event that splits no
    event of Gamma(region) lies inside one atom, and as a generator it
    contains that atom, so the two readings agree.
    """
    if dom.is_canonical:
        return list(space.phi_cells(region))
    events = dom.within(region)
    atoms = set(_algebra_atoms(space, events))
    return [f for f in events if f in atoms]


def is_partition(space: HistorySpace, cells: Sequence[Event]) -> bool:
    """Pairwise disjoint nonempty events covering Omega."""
    union = 0
    for c in cells:
        if c == 0 or union & c:
            return False
        union |= c
    return union == space.omega


def compose_full_specs(
    space: HistorySpace, dom: DomMap, parts: Sequence[tuple[Region, Event]]
) -> Event:
    """Intersect full specifications of pairwise disjoint regions.

    The result must be a nonempty full specification of the disjoint union;
    anything else falsifies the composition law and raises (the hunter
    reports such a failure as a finding rather than crashing a sweep).
    """
    union_region = 0
    for region, event in parts:
        if union_region & region:
            raise NotDisjointError("regions of the composition overlap")
        union_region |= region
        if event not in full_specifications(space, dom, region):
            raise NotFullSpecError(
                f"event {space.event_keys(event)} is not a full specification "
                f"of region {list(space.causet.labels(region))}"
            )
    out = space.omega
    for _, event in parts:
        out &= event
    if out == 0:
        raise EmptyIntersectionError("composition of full specifications is empty")
    if out not in full_specifications(space, dom, union_region):
        raise NotFullSpecError(
            "composed event is not a full specification of the disjoint union"
        )
    return out


def sample_events(
    space: HistorySpace, k: int, seed: int | str, universe: Sequence[Event] | None = None
) -> list[Event]:
    """k distinct pseudo-random events, deterministic in the seed: drawn from
    `universe` when given (the events an explicit dom map defines), otherwise
    from all 2^size events of the space."""
    if universe is not None:
        if not 0 <= k <= len(universe):
            raise LimitError(f"cannot sample {k} distinct events from a universe of {len(universe)} events")
        return random.Random(f"events:{seed}").sample(universe, k)
    if not 0 <= k <= space.omega + 1:
        raise LimitError(f"cannot sample {k} distinct events from a space of 2^{space.size} events")
    rng = random.Random(f"events:{seed}")
    out: list[Event] = []
    seen = set()
    while len(out) < k:
        e = rng.getrandbits(space.size)
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


# -- dom axiom validation -------------------------------------------------

class AxiomResult(NamedTuple):
    axiom: int
    passed: bool
    checked: int
    witness: dict | None = None


class DomAxiomReport(NamedTuple):
    results: tuple[AxiomResult, ...]
    universe_size: int
    family_size: int
    stamped: str | None = None  # set when validation was vouched, not swept

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self, space: HistorySpace) -> dict:
        return {
            "passed": self.passed,
            "universe_size": self.universe_size,
            "family_size": self.family_size,
            "stamped": self.stamped,
            "axioms": [
                {
                    "axiom": r.axiom,
                    "passed": r.passed,
                    "checked": r.checked,
                    "witness": r.witness,
                }
                for r in self.results
            ],
        }


def check_dom_axioms(
    space: HistorySpace,
    dom: DomMap,
    family_size: int = 3,
    universe: Sequence[Event] | None = None,
    axioms: Sequence[int] = (1, 2, 3, 4),
) -> DomAxiomReport:
    """Validate the four dom axioms over an event universe, reporting failures.

    Families for axioms 1 and 2 range over distinct events of the universe up
    to `family_size`, via the pairwise/inductive formulation plus exhaustive
    small-family sweeps. Axiom 1 families exclude the empty event: its least
    domain is empty, so with it admitted the disjoint-union equation is
    unsatisfiable by any least-domain construction. The sigma-algebra of
    axiom 4 is the Boolean algebra generated (finite case).

    Axiom 2 holds for canonical doms by construction (an intersection of
    events invariant under flips outside R is invariant too), so each dom
    group counts its families in closed form, sum of C(members, k) for
    k = 2..family_size. Explicit doms count the full-region group the same
    way, since containment there is automatic. Every other group is decided
    on the distinct intersections of up to family_size of its members, and
    counted in closed form when they all hold; only a failing group sweeps
    its families in order, to name the first that fails.

    Axiom 4 counts one check per unordered split (X, Y) of dom(Z). For
    canonical doms the atoms of every split are the cells of Phi(dom Z), so
    each event is decided once, on those cells, and counts its splits in
    closed form: 2^(|dom Z| - 1), or 1 when the dom is empty. Explicit doms
    build each split's atoms from the generators Gamma(X) and Gamma(Y), once
    per distinct split in one call.

    Failures are reported with a minimal witness (first in enumeration
    order), never thrown. `axioms` selects a subset to run.
    """
    if family_size < 2:  # axioms 1 and 2 quantify over two events or more
        raise ValueError("family_size must be at least 2")
    if universe is None:
        universe = list(dom.events(space))
    universe = sorted(set(universe))
    doms = {e: dom.dom(space, e) for e in universe}
    runners = {
        1: lambda: _axiom1(space, dom, universe, doms, family_size),
        2: lambda: _axiom2(space, dom, universe, doms, family_size),
        3: lambda: _axiom3(space, dom, universe, doms),
        4: lambda: _axiom4(space, dom, universe, doms),
    }
    results = tuple(runners[a]() for a in axioms)
    return DomAxiomReport(results, len(universe), family_size)


def _witness_events(space: HistorySpace, events: Iterable[Event]) -> list[list[str]]:
    return [space.event_keys(e) for e in events]


def _axiom1(
    space: HistorySpace,
    dom: DomMap,
    universe: Sequence[Event],
    doms: dict[Event, Region],
    family_size: int,
) -> AxiomResult:
    # dom pairwise disjoint  =>  dom of the intersection is the disjoint union.
    # Families are enumerated by dom value first: two events can share a dom
    # only when that dom is empty, so groups with a nonempty dom contribute at
    # most one member. This keeps the sweep exhaustive even when one dom value
    # carries most of the universe.
    from itertools import combinations, product

    groups: dict[Region, list[Event]] = {}
    for e in universe:
        if e:
            groups.setdefault(doms[e], []).append(e)
    regions = sorted(groups)
    checked = 0

    def multisets(idx: int, union_dom: Region, count: int, chosen: list):
        if count >= 2:
            yield list(chosen)
        if count >= family_size:
            return
        for k in range(idx, len(regions)):
            r = regions[k]
            if r & union_dom:
                continue
            max_take = (family_size - count) if r == 0 else 1
            for take in range(1, max_take + 1):
                if len(groups[r]) < take:
                    break
                chosen.append((r, take))
                yield from multisets(k + 1, union_dom | r, count + take, chosen)
                chosen.pop()

    for combo in multisets(0, 0, 0, []):
        union_dom = 0
        for r, _ in combo:
            union_dom |= r
        for picks in product(*[combinations(groups[r], t) for r, t in combo]):
            family = [e for grp in picks for e in grp]
            checked += 1
            inter = space.omega
            for e in family:
                inter &= e
            try:
                got = doms[inter] if inter in doms else dom.dom(space, inter)
            except UndefinedDomError:
                return AxiomResult(1, False, checked, {
                    "family": _witness_events(space, family),
                    "reason": "intersection has no dom assigned",
                })
            if got != union_dom:
                return AxiomResult(1, False, checked, {
                    "family": _witness_events(space, family),
                    "dom_of_intersection": list(space.causet.labels(got)),
                    "disjoint_union": list(space.causet.labels(union_dom)),
                })
    return AxiomResult(1, True, checked, None)


def _axiom2(
    space: HistorySpace,
    dom: DomMap,
    universe: Sequence[Event],
    doms: dict[Event, Region],
    family_size: int,
) -> AxiomResult:
    # equal doms  =>  dom of the intersection is contained in the common dom
    from math import comb

    groups: dict[Region, list[Event]] = {}
    for e in universe:
        groups.setdefault(doms[e], []).append(e)

    def families(members: list[Event]) -> int:
        return sum(comb(len(members), k) for k in range(2, family_size + 1))

    if dom.is_canonical:
        # events invariant under every flip outside R have an invariant
        # intersection, so its canonical dom lies in R: every family holds
        return AxiomResult(2, True, sum(families(m) for m in groups.values()), None)

    def dom_of(value: Event) -> Region | None:
        try:
            return doms[value] if value in doms else dom.dom(space, value)
        except UndefinedDomError:
            return None

    checked = 0
    witness = None
    for region in sorted(groups):
        members = groups[region]
        # dom maps into subsets of the element set, so containment in the
        # full region holds for every family sharing it (this group usually
        # carries most of the universe). Any other group intersects the
        # values so far with every member, family_size - 1 times, and so
        # meets each family's intersection once however many families share
        # it; the members, and intersections of fewer members, come along
        # and hold or are checked anyway. Only a failing group runs the
        # ordered sweep, to name its first failing family.
        if region == space.causet.full:
            checked += families(members)
            continue
        values = set(members)
        new = values
        for _ in range(family_size - 1):
            new = {v & m for v in new for m in members} - values
            values |= new
        if not any((got := dom_of(v)) is None or got & ~region for v in values):
            checked += families(members)
            continue

        def extend(start: int, family: list[Event]):
            nonlocal checked, witness
            if len(family) >= 2:
                checked += 1
                inter = space.omega
                for e in family:
                    inter &= e
                got = dom_of(inter)
                if got is None:
                    witness = {
                        "family": _witness_events(space, family),
                        "reason": "intersection has no dom assigned",
                    }
                    return
                if got & ~region:
                    witness = {
                        "family": _witness_events(space, family),
                        "dom_of_intersection": list(space.causet.labels(got)),
                        "common_dom": list(space.causet.labels(region)),
                    }
                    return
            if len(family) >= family_size:
                return
            for i in range(start, len(members)):
                family.append(members[i])
                extend(i + 1, family)
                family.pop()
                if witness is not None:
                    return

        extend(0, [])
        if witness is not None:
            break
    return AxiomResult(2, witness is None, checked, witness)


def _axiom3(
    space: HistorySpace,
    dom: DomMap,
    universe: Sequence[Event],
    doms: dict[Event, Region],
) -> AxiomResult:
    checked = 0
    for e in universe:
        comp = space.complement(e)
        checked += 1
        try:
            dom_comp = doms[comp] if comp in doms else dom.dom(space, comp)
        except UndefinedDomError:
            return AxiomResult(3, False, checked, {
                "event": space.event_keys(e),
                "reason": "complement has no dom assigned",
            })
        if dom_comp != doms[e]:
            return AxiomResult(3, False, checked, {
                "event": space.event_keys(e),
                "dom": list(space.causet.labels(doms[e])),
                "dom_of_complement": list(space.causet.labels(dom_comp)),
            })
    return AxiomResult(3, True, checked, None)


def _axiom4(
    space: HistorySpace,
    dom: DomMap,
    universe: Sequence[Event],
    doms: dict[Event, Region],
) -> AxiomResult:
    # dom(Z) = X disjoint-union Y  =>  Z lies in the algebra generated by
    # Gamma(X) | Gamma(Y); equivalently Z never splits an atom of that algebra.
    if dom.is_canonical:
        return _axiom4_canonical(space, universe, doms)
    atoms: dict[tuple[Region, Region], list[Event]] = {}
    checked = 0
    for z in universe:
        d = doms[z]
        # every unordered split (X, Y) of d once, X holding d's highest
        # element (X = Y = empty when d is), X descending
        top = 1 << d.bit_length() >> 1
        rest = d ^ top
        sub = rest
        while True:
            x = sub | top
            y = d ^ x
            checked += 1
            if (x, y) not in atoms:
                atoms[x, y] = _algebra_atoms(space, dom.within(x) + dom.within(y))
            for atom in atoms[x, y]:
                if atom & z and atom & ~z:
                    return _axiom4_failure(space, checked, z, x, y, atom)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return AxiomResult(4, True, checked, None)


def _axiom4_canonical(
    space: HistorySpace, universe: Sequence[Event], doms: dict[Event, Region]
) -> AxiomResult:
    # Canonical atoms of every split of d are the cells of Phi(d) (the
    # composition law), so each event is decided once, on its first split
    # (d, empty), and counts all 2^(|d|-1) unordered splits (1 for d empty).
    checked = 0
    for z in universe:
        d = doms[z]
        for cell in space.phi_cells(d):
            if cell & z and cell & ~z:
                return _axiom4_failure(space, checked + 1, z, d, 0, cell)
        checked += 1 << max(_popcount(d) - 1, 0)
    return AxiomResult(4, True, checked, None)


def _axiom4_failure(
    space: HistorySpace, checked: int, z: Event, x: Region, y: Region, atom: Event
) -> AxiomResult:
    return AxiomResult(4, False, checked, {
        "event": space.event_keys(z),
        "split": [list(space.causet.labels(x)), list(space.causet.labels(y))],
        "split_atom": space.event_keys(atom),
    })


def _algebra_atoms(space: HistorySpace, generators: Iterable[Event]) -> list[Event]:
    """The atoms of the algebra the generators generate, in the order that
    splitting Omega by each generator in turn leaves them."""
    atoms = [space.omega]
    for g in generators:
        nxt = []
        for block in atoms:
            inside, outside = block & g, block & ~g
            if inside:
                nxt.append(inside)
            if outside:
                nxt.append(outside)
        atoms = nxt
    return atoms
