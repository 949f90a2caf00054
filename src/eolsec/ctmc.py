"""Generator assembly, stationary solve and blocking metrics.

Three model variants share one state space:

* ``regular``      -- occupancy states only; blocked arrivals are lost.
* ``randomized``   -- adds one randomization state per pattern; every
  occupancy state feeds it at the randomization rate and it returns
  uniformly over the states of its pattern at the reconfiguration rate.
* ``randomized-defrag`` -- additionally adds defrag states: a
  fragmentation-blocked class-k arrival moves the chain into the pattern's
  defrag state (the call itself is lost), which then jumps uniformly onto
  the pattern's defragmented states.

Reconfiguration states have total outflow equal to the reconfiguration
rate only: departures are frozen and further arrivals cause no transition.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .link import DemandProfile
from .statespace import StateSpace

DEFAULT_SOLVER_TOL = 1e-10
# Minimum-degree ordering on A^T + A keeps the LU of the bordered balance
# system near the size of Q; the default COLAMD fills it almost completely.
SOLVER_METHOD = "splu:MMD_AT_PLUS_A"


class VariantKind(str, Enum):
    REGULAR = "regular"
    RANDOMIZED = "randomized"
    RANDOMIZED_DEFRAG = "randomized-defrag"


@dataclass(frozen=True)
class ModelVariant:
    """Variant choice plus the two reconfiguration-process rates."""

    kind: VariantKind
    randomization_rate: float = 0.0   # proactive reconfiguration arrivals, per unit time
    reconfig_rate: float = 0.0        # reconfiguration completions, per unit time

    def __post_init__(self) -> None:
        if self.kind is VariantKind.REGULAR:
            if self.randomization_rate != 0.0 or self.reconfig_rate != 0.0:
                raise ValueError("the regular variant has no reconfiguration rates")
        else:
            if self.randomization_rate < 0:
                raise ValueError("randomization rate must be >= 0")
            if self.reconfig_rate <= 0:
                raise ValueError("reconfiguration rate must be > 0")

    @classmethod
    def regular(cls) -> "ModelVariant":
        return cls(VariantKind.REGULAR)

    @classmethod
    def randomized(cls, randomization_rate: float, reconfig_rate: float) -> "ModelVariant":
        return cls(VariantKind.RANDOMIZED, randomization_rate, reconfig_rate)

    @classmethod
    def randomized_defrag(cls, randomization_rate: float, reconfig_rate: float) -> "ModelVariant":
        return cls(VariantKind.RANDOMIZED_DEFRAG, randomization_rate, reconfig_rate)

    @property
    def has_randomization(self) -> bool:
        return self.kind is not VariantKind.REGULAR

    @property
    def has_defrag(self) -> bool:
        return self.kind is VariantKind.RANDOMIZED_DEFRAG


class NotIrreducible(RuntimeError):
    """The rate matrix has more than one closed communicating class."""


class NoConvergence(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"solver residual {residual:.3e} after {iterations} refinement steps")

    def __reduce__(self):
        return type(self), (self.iterations, self.residual)


class NegativeStationaryMass(RuntimeError):
    """The solved distribution has a state with mass below round-off."""

    def __init__(self, state: int, mass: float):
        self.state = state
        self.mass = mass
        super().__init__(f"stationary mass {mass:.3e} of state {state} is negative beyond round-off")

    def __reduce__(self):
        return type(self), (self.state, self.mass)


@dataclass
class RateMatrix:
    """Sparse generator; rows sum to zero, off-diagonal entries are rates."""

    matrix: sp.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StationaryDistribution:
    """Solution of pi Q = 0 plus the solver's diagnostics.

    ``lu_nnz`` counts the nonzeros of the L and U factors; ``refinements``
    the iterative-refinement steps taken to meet the residual gate.
    """

    pi: np.ndarray
    residual: float
    method: str
    dimension: int
    nnz: int
    lu_nnz: int
    refinements: int


@dataclass(frozen=True)
class BlockingReport:
    """Per-class and overall blocking probabilities for one solved variant."""

    resource_blocking: tuple[float, ...]
    fragmentation_blocking: tuple[float, ...]
    reconfiguration_blocking: float
    overall_blocking: float


def assemble_generator(space: StateSpace, profile: DemandProfile, variant: ModelVariant) -> RateMatrix:
    """Install all transitions of ``variant`` over ``space``.

    ``profile`` must structurally match the space (same capacity and
    demands); its rates drive the transition intensities, so one space can
    be reused across traffic points.
    """
    if profile.capacity != space.profile.capacity or profile.demands != space.profile.demands:
        raise ValueError("profile does not match the state space structure")

    n_sa = space.num_regular
    n_r = space.num_raas if variant.has_randomization else 0
    n_d = space.num_daas if variant.has_defrag else 0
    dim = n_sa + n_r + n_d
    lam = np.asarray(profile.arrival_rates, dtype=float)
    # A zero rate switches its transitions off: regular has no
    # reconfiguration rates, and only randomized-defrag enters defrag
    # states; otherwise blocked arrivals cause no transition (lost calls).
    defrag = 1.0 if variant.has_defrag else 0.0
    t = space.transitions
    rates = t.rates(
        lam,
        lam * defrag,
        np.asarray(profile.service_rates, dtype=float),
        variant.randomization_rate,
        variant.reconfig_rate,
        variant.reconfig_rate * defrag,
    )
    live = rates != 0.0
    q = sp.coo_matrix((rates[live], (t.row[live], t.col[live])), shape=(dim, dim)).tocsr()
    q = q + sp.diags(-np.asarray(q.sum(axis=1)).ravel(), format="csr")
    return RateMatrix(q)


def _terminal_states(q: sp.csr_matrix) -> np.ndarray:
    """Indices of the unique closed communicating class.

    States outside it are transient and carry zero stationary mass; more
    than one closed class means the stationary distribution is not unique.
    """
    # self-loops (the diagonal) never join two components
    n_comp, labels = connected_components(q, directed=True, connection="strong")
    if n_comp == 1:
        return np.arange(q.shape[0])
    coo = q.tocoo()
    crossing = (coo.data != 0) & (labels[coo.row] != labels[coo.col])
    terminal = np.setdiff1d(np.arange(n_comp), labels[coo.row[crossing]])
    if len(terminal) != 1:
        raise NotIrreducible(f"{len(terminal)} closed communicating classes")
    return np.flatnonzero(labels == terminal[0])


def solve_stationary(rm: RateMatrix, tol: float = DEFAULT_SOLVER_TOL) -> StationaryDistribution:
    """Solve pi Q = 0 with sum(pi) = 1 by sparse LU.

    The last balance equation is replaced by the normalization constraint
    and the system is factored once.  Up to three steps of iterative
    refinement reuse the factor while the residual exceeds ``tol``;
    failure to reach ``tol`` raises NoConvergence, and a clearly negative
    mass raises NegativeStationaryMass.
    """
    q = rm.matrix
    n = q.shape[0]
    keep = _terminal_states(q)
    q_sub = q[np.ix_(keep, keep)] if len(keep) < n else q

    m = q_sub.shape[0]
    a = sp.vstack([q_sub.T.tocsr()[: m - 1], sp.csr_matrix(np.ones((1, m)))]).tocsc()
    b = np.zeros(m)
    b[m - 1] = 1.0

    lu = splu(a, permc_spec="MMD_AT_PLUS_A")
    x = lu.solve(b)
    pi = np.zeros(n)
    pi[keep] = x

    def residual_of(p: np.ndarray) -> float:
        return float(np.max(np.abs(p @ q)))

    res = residual_of(pi)
    iterations = 0
    while res > tol and iterations < 3:
        x = x + lu.solve(b - a @ x)
        pi = np.zeros(n)
        pi[keep] = x
        res = residual_of(pi)
        iterations += 1
    if res > tol:
        raise NoConvergence(iterations, res)

    worst = int(np.argmin(pi))
    if pi[worst] < -1e-14:
        raise NegativeStationaryMass(worst, float(pi[worst]))
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return StationaryDistribution(
        pi=pi,
        residual=residual_of(pi),
        method=SOLVER_METHOD,
        dimension=n,
        nnz=int(q.nnz),
        lu_nnz=int(lu.L.nnz + lu.U.nnz),
        refinements=iterations,
    )


def blocking_report(
    dist: StationaryDistribution | np.ndarray,
    space: StateSpace,
    profile: DemandProfile,
    variant: ModelVariant,
) -> BlockingReport:
    """Blocking metrics of a solved variant.

    Per-class resource/fragmentation blocking are stationary masses of the
    corresponding state sets; reconfiguration blocking is the mass of all
    reconfiguration states; the overall figure adds the arrival-weighted
    per-class parts to it.
    """
    pi = dist.pi if isinstance(dist, StationaryDistribution) else dist
    n_sa = space.num_regular
    rb = tuple(float(sum(pi[i] for i in s)) for s in space.resource_blocked)
    fb = tuple(float(sum(pi[i] for i in s)) for s in space.frag_blocked)
    rcb = float(pi[n_sa:].sum()) if variant.has_randomization else 0.0
    return BlockingReport(
        resource_blocking=rb,
        fragmentation_blocking=fb,
        reconfiguration_blocking=rcb,
        overall_blocking=overall_blocking(rb, fb, rcb, profile.arrival_rates),
    )


def overall_blocking(
    rb: Sequence[float], fb: Sequence[float], rcb: float, lam: Sequence[float]
) -> float:
    """Overall blocking: ``rcb`` plus the arrival-weighted per-class ``rb + fb``.

    Every blocked arrival is lost, and a reconfiguration blocks every class.
    Both engines report this figure.
    """
    lam_total = sum(lam)
    if lam_total > 0:
        weighted = sum(l * (r + f) for l, r, f in zip(lam, rb, fb)) / lam_total
    else:
        weighted = 0.0
    return rcb + weighted
