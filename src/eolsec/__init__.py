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
from .link import DemandProfile, pattern
from .security import (
    NoOccupiedMass,
    NonIntegerRpRatio,
    attack_success_probability,
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
    RankOverflow,
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
    "BlockingReport",
    "DemandProfile",
    "DEFAULT_SEED",
    "EventCounts",
    "MetricEstimate",
    "ModelVariant",
    "NegativeStationaryMass",
    "NoConvergence",
    "NoOccupiedMass",
    "NonIntegerRpRatio",
    "NotIrreducible",
    "RankOverflow",
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
    "count_states",
    "dump_states",
    "feasible_patterns",
    "observable_fraction",
    "pattern",
    "pattern_size",
    "per_state_attack_success",
    "run_simulation",
    "solve_stationary",
]

__version__ = "0.1.0"
