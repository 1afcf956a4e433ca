"""Checkers for the four screening-off causality principles.

SO1: for every unordered pair of spacelike separated regions (A, B) and all
events A in Gamma(A), B in Gamma(B), every full specification C of the
mutual past P1(A, B) screens off: mu(A & B | C) = mu(A | C) mu(B | C).
SO2: the same with full specifications of the truncated joint past P2(A, B).
The FIN variants quantify only over causally finite region pairs; since
their sweep is a subset of the infinite sweep, SOk satisfied must imply
FIN-SOk satisfied. On an exact plan (`_SweepPlan.exact`) SO1 and SO2 must
agree too: decomposition and weak union on the flank-enlarged pair derive
each from the other (README). The matrix checker and the hunter's route
abort if either ever fails (that would be an implementation bug, not
physics). Under caps that cut a sweep short, and for explicit doms, SO1
versus SO2 stays per-model data; `replicate_so1_to_so2` and
`gap_closure_check` re-verify the derivation step by step.

A sweep has two parts. Its plan (`_SweepPlan`) is everything the measure
does not decide. Per screener family (p1 or p2, built on first use) it
holds one `_PairPlan` per spacelike pair in sweep order, made of region
facts alone; pairs the region cap skips and pairs with an empty side are
flagged there and never evaluated. Per region, built when something reads
it and shared by every pair, family and measure, it holds the events a
decision ranges over, the screeners Phi(region) and the capped Gamma that
witnesses are listed over; canonical doms count in closed form, so a pair
no decision reads builds nothing. A plan depends only on the history
space, the dom map and the caps, so plans are cached per space, map and
caps (weakly: a plan goes with its space) and every measure on a space
shares one. No measure's outcome reaches a plan. The evaluation
(`_decider`) only does mass work: canonical doms are decided on pairs of
Phi cells, explicit doms event by event, both through the screening
kernel `measure._screen_failures`. A verdict is summed in one pass over its
family's pair plans (`_assemble`), keeps only the failing pairs and lists
its witnesses, every failing event triple of the sweep, lazily from them.
Replication and the gap check read the same plan. Replication step 1 is
decided on the same events and lists its failures only for a failing
screener block; step 2 is the sweep's own route, with the composed K =
C & X & Y as the screeners of `_screened`, `_replayed` and `_witnesses`.

Verdicts are deterministic: identical model and caps give byte-identical
reports. Every decision is replayed where it is made (`_replayed`): each
failing screener's recorded pairs together, and each zero-mass screener,
on integer history masses summed without the partial-sum tables
(`measure.replay_screen_failures`), and so is every listed witness outside
those records, and every failing step-1 block and zero-mass C of
replication. `Fraction` sides are built only for listed witnesses.

`check_principle`, `implication_matrix` and `replicate_so1_to_so2` sweep in
full. The hunter needs only each principle's bit and first witness, so
`first_witnesses` walks the same plan with the same screener loop
(`_screened`) but decides each principle only up to its first failure; a
principle that holds is swept in full there too.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import islice, product
from typing import Callable, Iterator, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from .causet import Causet, Region, _popcount
from .errors import (
    AxiomViolationWarning,
    DomAxiomError,
    InternalConsistencyError,
    NotSpacelikeError,
    ZeroConditionError,
)
from .histories import (
    DomMap,
    DomAxiomReport,
    Event,
    HistorySpace,
    capped_gamma_cells,
    capped_gamma_size,
    check_dom_axioms,
    full_specifications,
    gamma_capped,
)
from .measure import (
    MeasureTable,
    _screen_failures,
    replay_screen_failures,
    screening_sides,
    screens_off,
)

PRINCIPLES = ("so1", "so2", "fin-so1", "fin-so2")

# Which screener family a principle draws from, and whether it restricts the
# sweep to causally finite region pairs.
_FAMILY = {"so1": "p1", "so2": "p2", "fin-so1": "p1", "fin-so2": "p2"}
_FINITE_ONLY = {"so1": False, "so2": False, "fin-so1": True, "fin-so2": True}


class Caps(NamedTuple):
    """Sweep limits: max region size per side, max events per region algebra."""

    region_size: int = 3
    algebra: int = 256

    @classmethod
    def parse(cls, text: str) -> "Caps":
        kwargs = {}
        for part in text.split(","):
            if not part:
                continue
            key, _, value = part.partition("=")
            key = {"region": "region_size", "algebra": "algebra"}.get(key.strip())
            if key is None:
                raise ValueError(f"unknown cap {part!r} (expected region=K,algebra=M)")
            try:
                number = int(value)
            except ValueError:
                number = -1
            if number < 0:
                raise ValueError(f"cap {part!r} must be a non-negative integer")
            kwargs[key] = number
        return cls(**kwargs)

    def to_json(self) -> dict:
        return {"region_size": self.region_size, "algebra": self.algebra}


class Model:
    """A causet, its history space, a dom map and a measure, checked together."""

    def __init__(
        self,
        space: HistorySpace,
        measure: MeasureTable,
        dom: DomMap,
        axiom_report: DomAxiomReport,
    ):
        if measure.space is not space:
            raise ValueError("measure belongs to a different history space")
        self.space = space
        self.measure = measure
        self.dom = dom
        self.axiom_report = axiom_report

    @property
    def causet(self) -> Causet:
        return self.space.causet

    @property
    def axiom_ok(self) -> bool:
        return self.axiom_report.passed

    @classmethod
    def build(
        cls,
        space: HistorySpace,
        measure: MeasureTable,
        dom: DomMap | None = None,
        force: bool = False,
    ) -> "Model":
        """Assemble a model, validating an explicit dom map on construction.

        Canonical doms carry an "assumed-canonical" stamp and are not swept
        per model: the construction satisfies the axioms on every product
        space, which the theorems dom-axiom suite and the dom-axioms command
        check. Explicit dom maps are swept once per build over their whole
        event universe (family size 3). A failing report raises unless
        force=True, in which case verdicts carry an AxiomViolationWarning.
        """
        dom = dom or DomMap.canonical()
        if dom.is_canonical:
            report = DomAxiomReport((), 0, 0, stamped="assumed-canonical")
        else:
            report = check_dom_axioms(space, dom)
        if not report.passed:
            if not force:
                raise DomAxiomError(
                    "dom map violates the dom axioms; pass force=True to check anyway"
                )
            warnings.warn("dom axioms violated; verdicts are annotated", AxiomViolationWarning)
        return cls(space, measure, dom, report)


class Witness(NamedTuple):
    """One recorded screening failure, re-evaluable from its masks alone."""

    principle: str
    region_a: Region
    region_b: Region
    event_a: Event
    event_b: Event
    screener: Event
    lhs: Fraction
    rhs: Fraction

    def to_json(self, model: Model) -> dict:
        c, s = model.causet, model.space
        return {
            "region_a": list(c.labels(self.region_a)),
            "region_b": list(c.labels(self.region_b)),
            "event_a": s.event_keys(self.event_a),
            "event_b": s.event_keys(self.event_b),
            "screener": s.event_keys(self.screener),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


def replay_witness(model: Model, w: Witness) -> tuple[Fraction, Fraction]:
    """Recompute both sides of a witness, mu(A & B | C) and
    mu(A | C) mu(B | C), from the measure's history masses, without the
    partial-sum tables that decided it."""
    mass = model.measure.direct_mass
    c = w.screener
    mc = mass(c)
    if mc == 0:
        raise ZeroConditionError("conditioning event has probability zero")
    lhs = Fraction(mass(w.event_a & w.event_b & c), mc)
    return lhs, Fraction(mass(w.event_a & c), mc) * Fraction(mass(w.event_b & c), mc)


Failure = tuple[Region, Region, Event, tuple[tuple[Event, Event], ...]]


class _VerdictFields(NamedTuple):
    principle: str
    satisfied: bool
    capped: bool
    counts: dict[str, int]
    failures: tuple[Failure, ...]
    zero_screeners: tuple[tuple[Region, Region, Event], ...] = ()
    axiom_warning: str | None = None


class Verdict(_VerdictFields):
    """One principle on one model. `failures` holds (region_a, region_b,
    screener, pairs) once per failing screener: the Phi cell pairs it fails
    on (canonical doms) or its first failing event pair (explicit doms).
    `witnesses`, every failing event triple in sweep order, is listed from
    them on first access; `iter_witnesses()` yields them one at a time.
    `iter_witnesses` is held beside the fields, in the instance dict that
    also caches `witnesses`, so it is out of equality, `repr` and
    `_asdict()`.
    """

    def __new__(cls, *args, iter_witnesses: Callable[[], Iterator[Witness]], **kwargs) -> "Verdict":
        self = super().__new__(cls, *args, **kwargs)
        vars(self)["iter_witnesses"] = iter_witnesses
        return self

    def __getnewargs_ex__(self) -> tuple[tuple, dict]:
        # copying and unpickling build through __new__, which needs it
        return tuple(self), {"iter_witnesses": self.iter_witnesses}

    def _replace(self, **changes) -> "Verdict":
        return Verdict(**{**self._asdict(), "iter_witnesses": self.iter_witnesses, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Verdict.{name}")

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        return tuple(self.iter_witnesses())

    def to_json(self, model: Model) -> dict:
        c, s = model.causet, model.space
        return {
            "principle": self.principle,
            "satisfied": self.satisfied,
            "capped": self.capped,
            "counts": dict(sorted(self.counts.items())),
            "witnesses": [w.to_json(model) for w in self.witnesses],
            "zero_screeners": [
                {
                    "region_a": list(c.labels(ra)),
                    "region_b": list(c.labels(rb)),
                    "screener": s.event_keys(cell),
                }
                for ra, rb, cell in self.zero_screeners
            ],
            "axiom_warning": self.axiom_warning,
        }


# -- the sweep engine: a plan per space, an evaluation per measure ------------


class _FamilyOutcome(NamedTuple):
    """What a measure decided on one region pair of a family: the failing
    screeners with their recorded pairs, and the zero-mass screeners."""

    failing: tuple[Failure, ...] = ()
    zero_screeners: tuple[Event, ...] = ()


class _PairPlan(NamedTuple):
    """One spacelike pair under one screener family, as regions alone: its
    sides, whether both are causally finite, whether the region cap skips it
    (`skipped`) or a side is empty (`trivial`), and the screener region
    `past`. What a decision ranges over belongs to the regions and is the
    sweep plan's (`_SweepPlan`)."""

    ra: Region
    rb: Region
    finite: bool
    skipped: bool
    trivial: bool
    past: Region


_COUNT_KEYS = (
    "region_pairs",
    "region_pairs_nonempty",
    "region_pairs_skipped",
    "event_pairs",
    "screeners",
    "screening_tests",
    "zero_screeners",
)


class _SweepPlan:
    """The measure-independent part of a sweep. Per family ("p1" or "p2"),
    the `_PairPlan` of every spacelike pair in sweep order; per region, the
    events a decision over it ranges over with the cap's take and truncation
    (`events`), its screeners Phi(region) (`screeners`) and the capped Gamma
    witnesses are listed over (`gamma`). Each is built on first use and
    shared by every pair, family and measure that reads it. It holds no
    reference to its space, so a cached plan does not keep the space alive."""

    def __init__(self, causet: Causet, dom: DomMap, caps: Caps):
        self._causet = causet
        self._dom = dom
        self._caps = caps
        self._finite = cache(causet.is_causally_finite)
        self._families: dict[str, tuple[_PairPlan, ...]] = {}
        self._events: dict[Region, tuple[tuple[Event, ...], int, bool]] = {}
        self._screeners: dict[Region, tuple[Event, ...]] = {}
        self._gamma: dict[Region, Sequence[Event]] = {}
        self._exact: bool | None = None

    def events(self, space: HistorySpace, region: Region) -> tuple[tuple[Event, ...], int, bool]:
        """(events, take, truncated): what a decision over the capped
        Gamma(region) ranges over, how many events the cap takes, and whether
        it leaves some out. Canonical doms range over the cells the capped
        prefix is made of (`capped_gamma_cells`), explicit doms over the
        capped Gamma itself."""
        got = self._events.get(region)
        if got is None:
            if self._dom.is_canonical:
                take, truncated = capped_gamma_size(space, region, self._caps.algebra)
                got = capped_gamma_cells(space, region, take), take, truncated
            else:
                events, truncated = gamma_capped(space, self._dom, region, self._caps.algebra)
                got = tuple(events), len(events), truncated
            self._events[region] = got
        return got

    def screeners(self, space: HistorySpace, region: Region) -> tuple[Event, ...]:
        """Phi(region), the screeners conditioned on."""
        got = self._screeners.get(region)
        if got is None:
            got = self._screeners[region] = tuple(full_specifications(space, self._dom, region))
        return got

    def gamma(self, space: HistorySpace, region: Region) -> Sequence[Event]:
        """The capped Gamma(region), in the sweep's order; on explicit doms
        the decision events themselves."""
        if not self._dom.is_canonical:
            return self.events(space, region)[0]
        got = self._gamma.get(region)
        if got is None:
            got = self._gamma[region] = gamma_capped(space, self._dom, region, self._caps.algebra)[0]
        return got

    def counts(self, space: HistorySpace, pair: _PairPlan) -> tuple[int, int, bool]:
        """(event pairs, screeners, truncated) of a pair the region cap does
        not skip. Canonical doms count in closed form, so a pair no decision
        reads builds no Gamma and no Phi; an explicit map counts its own."""
        if self._dom.is_canonical:
            sizes = [capped_gamma_size(space, r, self._caps.algebra) for r in (pair.ra, pair.rb)]
            screeners = space.q ** _popcount(pair.past)
        else:
            sizes = [self.events(space, r)[1:] for r in (pair.ra, pair.rb)]
            screeners = len(self.screeners(space, pair.past))
        (take_a, trunc_a), (take_b, trunc_b) = sizes
        return take_a * take_b, screeners, trunc_a or trunc_b

    def exact(self, space: HistorySpace) -> bool:
        """Is every pair with two nonempty sides decided on all its cells: a
        canonical dom, and none skipped or truncated? The two families range
        over the same pairs, so one is read, once per plan."""
        if self._exact is None:
            self._exact = self._dom.is_canonical and not any(
                p.skipped or not p.trivial and self.counts(space, p)[2] for p in self.family(space, "p1")
            )
        return self._exact

    def family(self, space: HistorySpace, fam: str) -> tuple[_PairPlan, ...]:
        got = self._families.get(fam)
        if got is None:
            causet, finite, size = self._causet, self._finite, self._caps.region_size
            past = causet.mutual_past if fam == "p1" else causet.truncated_joint_past
            got = self._families[fam] = tuple(
                _PairPlan(
                    ra, rb, finite(ra) and finite(rb),
                    bool(ra and rb) and max(_popcount(ra), _popcount(rb)) > size,
                    not (ra and rb), past(ra, rb),
                )
                for ra, rb in causet.spacelike_pairs()
            )
        return got


# Plans per history space, keyed by dom map and caps; an entry goes with its
# space. A dom map is never mutated once made, so it is its own key.
_PLANS: WeakKeyDictionary[HistorySpace, dict[tuple[DomMap, Caps], _SweepPlan]] = WeakKeyDictionary()


def _plan(space: HistorySpace, dom: DomMap, caps: Caps) -> _SweepPlan:
    plans = _PLANS.setdefault(space, {})
    if (dom, caps) not in plans:
        plans[dom, caps] = _SweepPlan(space.causet, dom, caps)
    return plans[dom, caps]


def _screened(
    measure: MeasureTable, ra: Region, rb: Region, events_a: Sequence[Event], events_b: Sequence[Event],
    screeners: Sequence[Event], first_only: bool,
) -> Iterator[_FamilyOutcome]:
    """Screening decision of the pair (ra, rb) over events_a x events_b x
    screeners, screener by screener: one outcome per failing screener,
    holding it and the zero-mass screeners met since the previous one, then
    one holding the zero-mass screeners after the last. The first outcome is
    the decision up to the first failing screener; all of them, joined, are
    the whole decision (`_decider`).

    Canonical doms: every event of Gamma(R) is a union of Phi(R) cells, and
    mu(A&B&C) mu(C) - mu(A&C) mu(B&C) is bilinear in the cell indicators of
    A and B, so C fails on some event pair iff it fails on a cell pair inside
    it; deciding on the cells (`_SweepPlan.events`) keeps the decision exact
    under any algebra cap. Explicit doms (`first_only`): the direct loop over
    Gamma, up to each screener's first failure.
    """
    mass = measure.mass
    zero: list[Event] = []
    for c in screeners:
        if mass(c) == 0:
            zero.append(c)
            continue
        found = _screen_failures(measure, events_a, events_b, c)
        pairs = tuple(islice(found, 1) if first_only else found)
        if pairs:
            yield _FamilyOutcome(((ra, rb, c, pairs),), tuple(zero))
            zero = []
    yield _FamilyOutcome((), tuple(zero))


def _replayed(measure: MeasureTable, outcome: _FamilyOutcome) -> _FamilyOutcome:
    """`outcome` once its decisions hold on direct history masses
    (`replay_screen_failures`): each failing screener's recorded pairs,
    together, and the zero mass of each zero screener."""
    for _, _, c, pairs in outcome.failing:
        replay_screen_failures(measure, c, pairs)
    for c in outcome.zero_screeners:
        replay_screen_failures(measure, c, ())
    return outcome


def _joined(outcomes: Iterator[_FamilyOutcome]) -> _FamilyOutcome:
    """The whole decision of a `_screened` run: its outcomes in one."""
    failing: list[Failure] = []
    zero: list[Event] = []
    for outcome in outcomes:
        failing += outcome.failing
        zero += outcome.zero_screeners
    return _FamilyOutcome(tuple(failing), tuple(zero))


def _decider(model: Model, plan: _SweepPlan, whole: bool) -> Callable[[_PairPlan], _FamilyOutcome]:
    """The model's measure deciding pairs that are neither skipped nor
    trivial, on the events and screeners `plan` holds for their regions:
    `_screened` read to the end and joined (`_joined`, `whole`) or up to
    its first outcome, replayed (`_replayed`) as it is decided. Decisions
    are kept per (ra, rb, past), so SOk and FIN-SOk share each one, as do
    the two families on a pair whose mutual and truncated joint pasts
    coincide."""
    space, measure = model.space, model.measure
    first_only = not model.dom.is_canonical
    decided: dict[tuple[Region, Region, Region], _FamilyOutcome] = {}

    def decide(pair: _PairPlan) -> _FamilyOutcome:
        key = pair.ra, pair.rb, pair.past
        outcome = decided.get(key)
        if outcome is None:
            outcomes = _screened(
                measure, pair.ra, pair.rb, plan.events(space, pair.ra)[0], plan.events(space, pair.rb)[0],
                plan.screeners(space, pair.past), first_only,
            )
            outcome = decided[key] = _replayed(measure, _joined(outcomes) if whole else next(outcomes))
        return outcome

    return decide


def _eval_family(
    model: Model, plan: _SweepPlan, ra: Region, rb: Region, screener_region: Region
) -> tuple[bool, _FamilyOutcome]:
    """Whether a cap cut either algebra short, and one family's whole
    decision on one pair, with no region cap, from the tables of `plan`:
    the replication precheck. Under a canonical dom a pair with an empty
    side cannot fail, so nothing is built for it; an explicit map's is
    decided like any other pair."""
    pair = _PairPlan(ra, rb, False, False, not (ra and rb), screener_region)
    truncated = plan.counts(model.space, pair)[2]
    if pair.trivial and model.dom.is_canonical:
        return truncated, _FamilyOutcome()
    return truncated, _decider(model, plan, True)(pair)


def _witnesses(
    model: Model, plan: _SweepPlan, principle: str, failures: Sequence[Failure]
) -> Iterator[Witness]:
    """Every failing (A, B, C) under the failing screeners, over the capped
    Gamma of both sides in the sweep's order (canonical Gamma ascends by cell
    subset), with its `Fraction` sides. A witness that is not one of its
    screener's recorded pairs is replayed (`replay_screen_failures`) as it
    is listed."""
    space, measure = model.space, model.measure
    for ra, rb, c, pairs in failures:
        recorded = set(pairs)
        for a, b in _screen_failures(measure, plan.gamma(space, ra), plan.gamma(space, rb), c):
            if (a, b) not in recorded:
                replay_screen_failures(measure, c, ((a, b),))
            yield Witness(principle, ra, rb, a, b, c, *screening_sides(measure, a, b, c))


def _assemble(
    model: Model,
    plan: _SweepPlan,
    principle: str,
    decide: Callable[[_PairPlan], _FamilyOutcome],
    zero_mode: str,
) -> Verdict:
    """One principle's verdict in one pass over its family's pair plans:
    every count and the capped flag (`_SweepPlan.counts`), and what `decide`
    makes of each pair that is neither skipped nor trivial."""
    space, finite_only = model.space, _FINITE_ONLY[principle]
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    capped = False
    failures: list[Failure] = []
    zero_cells: list[tuple[Region, Region, Event]] = []
    for pair in plan.family(space, _FAMILY[principle]):
        if finite_only and not pair.finite:
            continue
        if pair.skipped:
            counts["region_pairs_skipped"] += 1
            capped = True
            continue
        counts["region_pairs"] += 1
        event_pairs, screeners, truncated = plan.counts(space, pair)
        counts["event_pairs"] += event_pairs
        counts["screeners"] += screeners
        capped = capped or truncated
        zero = 0
        if not pair.trivial:
            outcome = decide(pair)
            zero = len(outcome.zero_screeners)
            counts["region_pairs_nonempty"] += 1
            counts["zero_screeners"] += zero
            failures.extend(outcome.failing)
            if zero_mode == "strict":
                zero_cells.extend((pair.ra, pair.rb, c) for c in outcome.zero_screeners)
        counts["screening_tests"] += event_pairs * (screeners - zero)
    warning = None
    if not model.axiom_ok:
        warning = "dom axioms violated on this model; verdict computed under force"
    return Verdict(
        principle=principle,
        satisfied=not failures,
        capped=capped,
        counts=counts,
        failures=tuple(failures),
        iter_witnesses=partial(_witnesses, model, plan, principle, failures),
        zero_screeners=tuple(zero_cells),
        axiom_warning=warning,
    )


def check_principle(
    model: Model,
    which: str,
    caps: Caps | None = None,
    zero_mode: str = "vacuous",
) -> Verdict:
    """Exhaustively check one principle on a model within the given caps.

    Quantifies over all unordered spacelike region pairs (restricted to
    causally finite pairs for the FIN variants), then over the event
    algebras of the two regions, then over all full specifications of the
    mutual (SO1) or truncated joint (SO2) past. Pairs with an empty side
    cannot fail for any measure and are counted without evaluation. The
    verdict is marked capped whenever limits truncated the sweep. Only the
    principle's own screener family is planned. Every failing screener and
    zero-mass screener is replayed as it is decided, and every witness
    outside those records as it is listed.
    """
    which = which.lower()
    if which not in PRINCIPLES:
        raise ValueError(f"unknown principle {which!r}")
    caps = caps or Caps()
    plan = _plan(model.space, model.dom, caps)
    return _assemble(model, plan, which, _decider(model, plan, True), zero_mode)


class ImplicationMatrix(NamedTuple):
    verdicts: dict[str, Verdict]
    implications: dict[str, bool]

    @property
    def bits(self) -> str:
        return "".join(
            "1" if self.verdicts[p].satisfied else "0" for p in PRINCIPLES
        )

    def satisfied(self, principle: str) -> bool:
        return self.verdicts[principle].satisfied

    def to_json(self, model: Model) -> dict:
        return {
            "bits": self.bits,
            "satisfied": {p: self.verdicts[p].satisfied for p in PRINCIPLES},
            "implications": dict(sorted(self.implications.items())),
            "verdicts": {p: self.verdicts[p].to_json(model) for p in PRINCIPLES},
        }


def implication_matrix(
    model: Model, caps: Caps | None = None, zero_mode: str = "vacuous"
) -> ImplicationMatrix:
    """Run all four checks off a single sweep and derive the material
    implication table.

    The sweep evaluates the model's measure on the plan of its space, dom
    and caps (both families), which every canonical-dom model on that space
    shares. The subset implications SOk => FIN-SOk, and SO1 <=> SO2 on an
    exact plan, are asserted as internal consistency (exit 3 on the CLI).
    Every decision is replayed where the sweep makes it: the failing
    cell triples (canonical doms) or first failing event triple (explicit
    doms) of each screener together (`replay_screen_failures`), whose masses
    are recomputed as integers from the history masses, without the
    partial-sum tables (C and each distinct A&C and B&C once, A&B&C per
    pair), must equal the table masses and must fail the screening
    identity; and each zero-mass screener, whose history masses must sum to
    0. SOk and FIN-SOk share one evaluation, as do the two families on a
    pair whose two pasts coincide, so each distinct
    (region_a, region_b, C, A, B) is replayed once, and no `Fraction` is
    built for it. The verdicts' witnesses are listed lazily with their
    `Fraction` sides, and each one outside its screener's records is
    replayed as it is listed.
    """
    caps = caps or Caps()
    plan = _plan(model.space, model.dom, caps)
    decide = _decider(model, plan, True)
    verdicts = {p: _assemble(model, plan, p, decide, zero_mode) for p in PRINCIPLES}
    _check_subset_implications({p: verdicts[p].satisfied for p in PRINCIPLES}, plan.exact(model.space))
    implications = {
        f"{p}=>{q}": not verdicts[p].satisfied or verdicts[q].satisfied
        for p in PRINCIPLES for q in PRINCIPLES if p != q
    }
    return ImplicationMatrix(verdicts, implications)


def _check_subset_implications(satisfied: dict[str, bool], exact: bool) -> None:
    """SOk satisfied must imply FIN-SOk satisfied, and on an exact plan SO1
    and SO2 must agree (README); anything else is a bug."""
    for strong, weak in (("so1", "fin-so1"), ("so2", "fin-so2")):
        if satisfied[strong] and not satisfied[weak]:
            raise InternalConsistencyError(
                f"{strong} satisfied but {weak} violated: the finite sweep "
                "is a subset of the infinite sweep, so this cannot happen"
            )
    if exact and satisfied["so1"] != satisfied["so2"]:
        raise InternalConsistencyError(
            "so1 and so2 differ on an exact canonical plan, where each implies the other"
        )


def first_witnesses(model: Model, caps: Caps | None = None) -> dict[str, Witness | None]:
    """Per principle, the first witness its full sweep lists, the one
    `next(implication_matrix(model, caps).verdicts[p].iter_witnesses())`
    gives, or None when the principle holds; decided only as far as that.

    It walks the same plan in the same order as the matrix. A pair is
    decided up to its first failing screener (`_screened`), whose recorded
    pairs and the zero-mass screeners before it are replayed. Once SOk has
    failed, only causally finite pairs are decided; once FIN-SOk has failed
    too, the family stops. A principle that holds is swept in full, so each
    0 rests on a replayed failure and each 1 on the full sweep. As in the
    matrix, a pair whose two pasts coincide is decided once for both
    families, and the same consistency checks abort.
    """
    caps = caps or Caps()
    plan = _plan(model.space, model.dom, caps)
    decide = _decider(model, plan, False)
    first: dict[str, Failure] = {}
    for fam in ("p1", "p2"):
        ranging = [p for p in PRINCIPLES if _FAMILY[p] == fam]
        for pair in plan.family(model.space, fam):
            if pair.skipped or pair.trivial:
                continue
            if all(p in first for p in ranging):
                break
            open_here = [p for p in ranging if p not in first and (pair.finite or not _FINITE_ONLY[p])]
            if not open_here:
                continue
            outcome = decide(pair)
            if outcome.failing:
                first.update(dict.fromkeys(open_here, outcome.failing[0]))
    _check_subset_implications({p: p not in first for p in PRINCIPLES}, plan.exact(model.space))
    return {
        p: next(_witnesses(model, plan, p, (first[p],))) if p in first else None
        for p in PRINCIPLES
    }


# -- replication of the SO1 => SO2 derivation --------------------------------


class StepResult(NamedTuple):
    step: int
    passed: bool
    checked: int
    failures: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "passed": self.passed,
            "checked": self.checked,
            "failures": [_render_failure(f) for f in self.failures],
        }


def _render_failure(f: dict) -> dict:
    return {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in f.items()
    }


class ReplicationReport(NamedTuple):
    region_a: Region
    region_b: Region
    applicable: bool
    precheck_failures: int
    steps: tuple[StepResult, ...]

    @property
    def passed(self) -> bool:
        return self.applicable and all(s.passed for s in self.steps)

    def to_json(self, model: Model) -> dict:
        c = model.causet
        return {
            "region_a": list(c.labels(self.region_a)),
            "region_b": list(c.labels(self.region_b)),
            "applicable": self.applicable,
            "precheck_failures": self.precheck_failures,
            "passed": self.passed,
            "steps": [s.to_json() for s in self.steps]
            if self.applicable
            else "not-applicable",
        }


def _gap_screeners(
    model: Model, plan: _SweepPlan, ra: Region, rb: Region
) -> tuple[Sequence[Event], Sequence[Event], Sequence[Event], set[Event]]:
    """Phi(X) and Phi(Y) of the flanks, Phi(P1) and the set Phi(P2) of the
    pair's two pasts, read from `plan`: what replication and the gap closure
    check range over."""
    causet, phi = model.causet, partial(plan.screeners, model.space)
    x, y = causet.flank_regions(ra, rb)
    return phi(x), phi(y), phi(causet.mutual_past(ra, rb)), set(phi(causet.truncated_joint_past(ra, rb)))


def _step1_failures(
    measure: MeasureTable, events_a: Sequence[Event], events_b: Sequence[Event], x: Event, y: Event, c: Event
) -> Iterator[tuple[str, Event, Event]]:
    """Every pair of step 1 that C fails to screen off: (X, Y) first, then
    the A/B pairs over events_a x events_b, row-major in (A, B), by kind."""
    if not screens_off(measure, x, y, c):
        yield "X,Y", x, y
    for a in events_a:
        ax = a & x
        for b in events_b:
            by = b & y
            if not screens_off(measure, ax, by, c):
                yield "A&X,B&Y", ax, by
            if not screens_off(measure, ax, b, c):
                yield "A&X,B", ax, b
            if not screens_off(measure, a, by, c):
                yield "A,B&Y", a, by


def replicate_so1_to_so2(
    model: Model,
    ra: Region,
    rb: Region,
    caps: Caps | None = None,
) -> ReplicationReport:
    """Re-run, on one spacelike pair, every checkable step of the derivation
    that screening by mutual-past specifications extends to truncated-joint-
    past specifications.

    Precheck: the model must satisfy SO1 on the relevant regions, namely the
    given pair and its flank-enlarged pair (whose mutual past coincides with
    the original). If not, the steps are reported not-applicable.

    Step 1: every C in Phi(P1) screens the four event pairs built from
    A in Gamma(ra), B in Gamma(rb) and full specifications X of the flank of
    ra, Y of the flank of rb: (A&X, B&Y), (A&X, B), (A, B&Y), (X, Y).
    Step 2: whenever mu(X&Y&C) > 0, conditioning on X&Y&C factorizes A and B.
    Step 3: C&X&Y is a (nonempty) full specification of P2(ra, rb).

    The (X, Y, C) blocks, X over Phi(flank a), then Y, then C over Phi(P1),
    are read on the events and Phi of the sweep plan for `caps`, in one pass
    that checks step 3. K lies inside C, so a zero-mass C is replayed once
    (`replay_screen_failures`) and drops its blocks. Step 1 is decided block
    by block; only a failing block lists its failures over the capped Gamma,
    replayed together. Step 2 is the sweep's own route: the K of the
    remaining blocks, in block order, are the screeners of `_screened`,
    whose whole decision (`_joined`) is replayed (`_replayed`), zero-mass K
    included, and the failing K list their pairs over the capped Gamma
    (`_witnesses`). With canonical doms and an untruncated precheck steps
    1-2 follow from SO1 on the enlarged pair (decomposition, weak union), so
    a failure there raises InternalConsistencyError.
    """
    caps = caps or Caps()
    space, measure, dom, causet = model.space, model.measure, model.dom, model.causet
    if not causet.is_spacelike(ra, rb):
        raise NotSpacelikeError("replication needs a spacelike pair")
    x, y = causet.flank_regions(ra, rb)
    plan = _plan(space, dom, caps)
    prechecks = [
        _eval_family(model, plan, pa, pb, causet.mutual_past(pa, pb))
        for pa, pb in ((ra, rb), (ra | x, rb | y))
    ]
    gamma = partial(plan.gamma, space)
    precheck_failures = sum(
        1
        for _, o in prechecks
        for pa, pb, c, _ in o.failing
        for _ in _screen_failures(measure, gamma(pa), gamma(pb), c)
    )
    if precheck_failures:
        return ReplicationReport(ra, rb, False, precheck_failures, ())
    (events_a, take_a, _), (events_b, take_b, _) = plan.events(space, ra), plan.events(space, rb)
    phi_x, phi_y, phi_p1, phi_p2 = _gap_screeners(model, plan, ra, rb)
    keys = space.event_keys
    # K lies inside C, so mu(K) > 0 only if mu(C) > 0: a zero-mass C drops its blocks
    zero_c = set()
    for c in phi_p1:
        if measure.mass(c) == 0:
            replay_screen_failures(measure, c, ())
            zero_c.add(c)
    step1, step3, ks = [], [], []
    for block in product(phi_x, phi_y, phi_p1):
        cell_x, cell_y, cell_c = block
        k = cell_c & cell_x & cell_y
        if k == 0 or k not in phi_p2:
            step3.append({
                "x": keys(cell_x), "y": keys(cell_y), "c": keys(cell_c),
                "reason": "C&X&Y is not a full specification of the truncated joint past",
            })
        if cell_c in zero_c:
            continue
        ks.append(k)
        if next(_step1_failures(measure, events_a, events_b, *block), None):
            found = list(_step1_failures(measure, gamma(ra), gamma(rb), *block))
            replay_screen_failures(measure, cell_c, [(e1, e2) for _, e1, e2 in found])
            for kind, e1, e2 in found:
                side1, side2 = ("x", "y") if kind == "X,Y" else ("event_1", "event_2")
                step1.append({"pair": kind, side1: keys(e1), side2: keys(e2), "screener": keys(cell_c)})
    outcomes = _screened(measure, ra, rb, events_a, events_b, ks, not dom.is_canonical)
    decided = _replayed(measure, _joined(outcomes))
    step2 = [
        {"a": keys(w.event_a), "b": keys(w.event_b), "k": keys(w.screener), "lhs": w.rhs, "rhs": w.lhs}
        for w in _witnesses(model, plan, "so2", decided.failing)
    ]
    if (step1 or step2) and dom.is_canonical and not any(truncated for truncated, _ in prechecks):
        raise InternalConsistencyError("replication steps 1-2 fail after an untruncated canonical SO1 precheck")
    steps = (
        StepResult(1, not step1, len(ks) * (1 + 3 * take_a * take_b), tuple(step1)),
        StepResult(2, not step2, (len(ks) - len(decided.zero_screeners)) * take_a * take_b, tuple(step2)),
        StepResult(3, not step3, len(phi_x) * len(phi_y) * len(phi_p1), tuple(step3)),
    )
    return ReplicationReport(ra, rb, True, 0, steps)


class GapReport(NamedTuple):
    """Comparison of {C&X&Y} against Phi(P2), the coverage question the
    textbook SO1 => SO2 derivation leaves open. Canonical doms settle it
    (P2 = P1 + X + Y); on an explicit dom a mismatch is a finding."""

    region_a: Region
    region_b: Region
    equal: bool
    composed: tuple[Event, ...]
    phi_p2: tuple[Event, ...]
    missing: tuple[Event, ...]
    extra: tuple[Event, ...]

    def to_json(self, model: Model) -> dict:
        c, s = model.causet, model.space
        return {
            "region_a": list(c.labels(self.region_a)),
            "region_b": list(c.labels(self.region_b)),
            "equal": self.equal,
            "composed_count": len(self.composed),
            "phi_p2_count": len(self.phi_p2),
            "missing": [s.event_keys(e) for e in self.missing],
            "extra": [s.event_keys(e) for e in self.extra],
        }


def gap_closure_check(model: Model, ra: Region, rb: Region) -> GapReport:
    """Does {C&X&Y : C in Phi(P1), X in Phi(flank a), Y in Phi(flank b)},
    dropping empties, exhaust Phi(P2)? Reports equality or the differences."""
    phi_x, phi_y, phi_p1, phi_p2 = _gap_screeners(model, _plan(model.space, model.dom, Caps()), ra, rb)
    composed = {cell_c & cell_x & cell_y for cell_c in phi_p1 for cell_x in phi_x for cell_y in phi_y} - {0}
    return GapReport(
        region_a=ra,
        region_b=rb,
        equal=composed == phi_p2,
        composed=tuple(sorted(composed)),
        phi_p2=tuple(sorted(phi_p2)),
        missing=tuple(sorted(phi_p2 - composed)),
        extra=tuple(sorted(composed - phi_p2)),
    )
