"""Blocking vs. eavesdropping-security analysis of an elastic optical link.

The link serves multi-class calls under random-fit contiguous slot
allocation.  Proactive spectrum randomization improves resistance to
window eavesdropping but fragments the spectrum; on-demand defragmentation
counteracts the fragmentation at the price of reconfiguration blocking.
This package quantifies that tradeoff with an exact CTMC solution at small
capacities and discrete-event Monte Carlo beyond enumeration reach.
"""

from .ctmc import (
    BlockingReport,
    ModelVariant,
    NegativeStationaryMass,
    NoConvergence,
    NotIrreducible,
    RateMatrix,
    StationaryDistribution,
    VariantKind,
    assemble_generator,
    blocking_report,
    solve_stationary,
)
from .link import (
    Arrangement,
    Classification,
    DemandProfile,
    classify,
    connection_spans,
    free_fragments,
    is_defragmented,
    pattern,
    placement_count,
    placements,
    removals,
)
from .security import (
    NonIntegerRpRatio,
    ObservationWindow,
    attack_success_probability,
    count_matching_rearrangements,
    inside_pattern,
    observable_fraction,
    per_state_attack_success,
)
from .simulate import (
    DEFAULT_SEED,
    EventCounts,
    MetricEstimate,
    SimConfig,
    SimResult,
    run_simulation,
)
from .statespace import (
    SpaceOptions,
    StateBudgetExceeded,
    StateSpace,
    build_state_space,
    count_states,
    dump_states,
    feasible_patterns,
    pattern_size,
)

__all__ = [
    "Arrangement",
    "BlockingReport",
    "Classification",
    "DemandProfile",
    "DEFAULT_SEED",
    "EventCounts",
    "MetricEstimate",
    "ModelVariant",
    "NegativeStationaryMass",
    "NoConvergence",
    "NonIntegerRpRatio",
    "NotIrreducible",
    "ObservationWindow",
    "RateMatrix",
    "SimConfig",
    "SimResult",
    "SpaceOptions",
    "StateBudgetExceeded",
    "StateSpace",
    "StationaryDistribution",
    "VariantKind",
    "assemble_generator",
    "attack_success_probability",
    "blocking_report",
    "build_state_space",
    "classify",
    "connection_spans",
    "count_matching_rearrangements",
    "count_states",
    "dump_states",
    "feasible_patterns",
    "free_fragments",
    "inside_pattern",
    "is_defragmented",
    "observable_fraction",
    "pattern",
    "pattern_size",
    "per_state_attack_success",
    "placement_count",
    "placements",
    "removals",
    "run_simulation",
    "solve_stationary",
]

__version__ = "0.1.0"
