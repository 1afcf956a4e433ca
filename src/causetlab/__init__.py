"""causetlab: a finite-model laboratory for screening-off causality principles.

Region algebra on finite causal sets, product history spaces with least
domains of decidability, exact-rational probability with Reichenbachian
common cause verdicts, checkers for the four screening-off principles
(SO1/SO2 and their causally-finite restrictions), replication of the
SO1 <-> SO2 derivation steps, and an exhaustive hunter for models that
separate the principles.
"""

from .causet import Causet, CrucialIdentityReport, Region, validate_causet
from .errors import (
    AxiomViolationWarning,
    CapExceededError,
    CycleError,
    DomAxiomError,
    DuplicateElementError,
    EmptyIntersectionError,
    ForeignRegionError,
    InternalConsistencyError,
    LabError,
    LimitError,
    NotAPartitionError,
    NotDisjointError,
    NotFullSpecError,
    NotSpacelikeError,
    UndefinedDomError,
    ZeroConditionError,
)
from .histories import (
    DomAxiomReport,
    DomMap,
    Event,
    HistorySpace,
    check_dom_axioms,
    compose_full_specs,
    full_specifications,
    gamma,
    is_partition,
    sample_events,
)
from .measure import (
    CcsVerdict,
    CommonCauseVerdict,
    MeasureTable,
    find_ccs,
    is_ccs,
    is_common_cause,
    is_correlated,
    screens_off,
)
from .principles import (
    PRINCIPLES,
    Caps,
    GapReport,
    ImplicationMatrix,
    Model,
    ReplicationReport,
    Verdict,
    Witness,
    check_principle,
    first_witnesses,
    gap_closure_check,
    implication_matrix,
    replay_witness,
    replicate_so1_to_so2,
)
from .hunter import (
    Finding,
    HuntReport,
    SearchConfig,
    count_causets,
    enumerate_causets,
    hunt,
    replay_finding,
    sample_measures,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
