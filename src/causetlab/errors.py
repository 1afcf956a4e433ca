"""Exception types shared across the package.

Input/usage problems raise subclasses of :class:`LabError`; the CLI maps them
to exit code 2, except :class:`InternalConsistencyError` (an implementation
bug), which it maps to exit code 3. Check *failures* (a violated principle,
a non-qualifying partition) are never exceptions; they come back as verdict
values.
"""

from __future__ import annotations


class LabError(Exception):
    """Base class for all causetlab errors."""


class DuplicateElementError(LabError):
    """A causet was declared with a repeated element label."""


class CycleError(LabError):
    """The input relation admits a cycle; a witnessing cycle is attached."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("causal relation has a cycle: " + " < ".join(cycle + [cycle[0]]))


class ForeignRegionError(LabError):
    """A region references elements (or bits) outside its causet."""


class NotSpacelikeError(LabError):
    """An operation requiring spacelike separated regions was given a non-spacelike pair."""


class NotDisjointError(LabError):
    """Regions expected to be pairwise disjoint overlap."""


class NotFullSpecError(LabError):
    """An event is not a full specification of the region it was paired with."""


class EmptyIntersectionError(LabError):
    """Composing full specifications produced the empty event.

    For canonical doms on product spaces this cannot happen; seeing it on a
    user-supplied dom map falsifies the composition law and is worth reporting
    as a finding.
    """


class ZeroConditionError(LabError):
    """Conditioning on an event of probability zero."""


class NotAPartitionError(LabError):
    """The given cell list is not a partition of the history space into nonempty events."""


class CapExceededError(LabError):
    """An enumeration would exceed the configured exhaustiveness cap."""


class LimitError(LabError):
    """A hard size limit (e.g. causet enumeration bound) was exceeded."""


class UndefinedDomError(LabError):
    """A user-supplied dom map was queried for an event it does not define."""


class DomAxiomError(LabError):
    """A model's dom map violates the dom axioms and force=False."""


class InternalConsistencyError(LabError):
    """A must-hold internal invariant failed (e.g. SOk held but FIN-SOk did not).

    This always indicates an implementation bug, never a research finding.
    """


class AxiomViolationWarning(UserWarning):
    """Attached to verdicts computed on a model whose dom map failed validation."""
