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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .link import DemandProfile
from .statespace import StateSpace

DEFAULT_SOLVER_TOL = 1e-10
POWER_METHOD = "power:jacobi-scaled"
# Damping of the row-scaled step: every state keeps a self-loop of
# 1 - 1/POWER_DAMPING, so the iteration matrix is aperiodic.
POWER_DAMPING = 1.05
POWER_CHECK_EVERY = 50
# The residual target is DEFAULT_SOLVER_TOL / POWER_TOL_MARGIN, so that
# closed-form rescaling (which amplifies the residual up to about 10x) still
# meets the gate.
POWER_TOL_MARGIN = 1000.0
POWER_MAX_SWEEPS = 20_000


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
    """Power iteration ended above its residual target."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"solver residual {residual:.3e} after {iterations} power sweeps")

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
    """Solution of pi Q = 0 plus the solver's diagnostics; ``sweeps`` counts
    the power-iteration sweeps behind it."""

    pi: np.ndarray
    residual: float
    method: str
    dimension: int
    nnz: int
    sweeps: int

    def diagnostics(self) -> dict:
        """The solver's diagnostics by name."""
        return {k: getattr(self, k) for k in ("method", "dimension", "nnz", "sweeps")}


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


def solve_stationary(rm: RateMatrix) -> StationaryDistribution:
    """Solve pi Q = 0 with sum(pi) = 1 by power iteration on the terminal
    class of ``rm``.

    With D = diag(1 / |q_ii|), y <- y (I + D Q / POWER_DAMPING) is a
    stochastic step whose fixed point gives pi = y D / |y D|.  Every state
    leaves at the same scaled rate, so fast reconfiguration states do not
    stiffen it as they would a uniformized chain, and nothing fills in.
    The residual on the full generator is checked every
    ``POWER_CHECK_EVERY`` sweeps until it is at most ``DEFAULT_SOLVER_TOL`` /
    ``POWER_TOL_MARGIN``; after ``POWER_MAX_SWEEPS`` sweeps NoConvergence
    is raised.  A clearly negative mass raises NegativeStationaryMass, and
    more than one closed class raises NotIrreducible.  (Stewart,
    *Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 3.)
    """
    q = rm.matrix
    n = q.shape[0]
    keep = _terminal_states(q)
    q_sub = q[np.ix_(keep, keep)] if len(keep) < n else q
    m = q_sub.shape[0]
    # a one-state class has no outflow: its whole mass is the solution
    scale = 1.0 / -q_sub.diagonal() if m > 1 else np.ones(1)
    # the transposed step, so that each sweep is one CSR product
    step = (sp.identity(m, format="csr") + sp.diags(scale / POWER_DAMPING) @ q_sub).T.tocsr()
    y = np.full(m, 1.0 / m)
    sweeps = 0
    while True:
        burst = min(POWER_CHECK_EVERY, POWER_MAX_SWEEPS - sweeps)
        for _ in range(burst):
            y = step @ y
        sweeps += burst
        pi = np.zeros(n)
        pi[keep] = y * scale
        pi /= pi.sum()
        res = _residual(pi, q)
        if res <= DEFAULT_SOLVER_TOL / POWER_TOL_MARGIN:
            return _distribution(pi, q, sweeps)
        if sweeps >= POWER_MAX_SWEEPS:
            raise NoConvergence(sweeps, res)


def _distribution(pi: np.ndarray, q: sp.csr_matrix, sweeps: int) -> StationaryDistribution:
    """The gated distribution: no clearly negative mass, clipped and renormalized."""
    worst = int(np.argmin(pi))
    if pi[worst] < -1e-14:
        raise NegativeStationaryMass(worst, float(pi[worst]))
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return StationaryDistribution(
        pi=pi,
        residual=_residual(pi, q),
        method=POWER_METHOD,
        dimension=q.shape[0],
        nnz=int(q.nnz),
        sweeps=sweeps,
    )


def _residual(pi: np.ndarray, q: sp.csr_matrix) -> float:
    return float(np.max(np.abs(pi @ q)))


def rescale_reconfiguration(
    dist: StationaryDistribution, rm: RateMatrix, num_regular: int, factor: float
) -> StationaryDistribution:
    """The stationary distribution of ``rm`` from the solution ``dist`` of
    the same chain at ``factor`` times ``rm``'s reconfiguration rate.

    A reconfiguration state ignores arrivals, freezes departures and leaves
    at the reconfiguration rate to targets that do not depend on that rate.
    So the chain censored to the regular states does not depend on it
    either (Meyer, "Stochastic complementation, uncoupling Markov chains",
    SIAM Review 31(2), 1989), and the mass of every reconfiguration state
    scales with the inverse rate: multiply it by ``factor`` and
    renormalize.  The residual is measured on ``rm``; the sweep count is
    that of the solve behind ``dist``.
    """
    pi = dist.pi.copy()
    pi[num_regular:] *= factor
    pi /= pi.sum()
    return replace(dist, pi=pi, residual=_residual(pi, rm.matrix), nnz=int(rm.matrix.nnz))


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
    rb = tuple(float(pi[s].sum()) for s in space.resource_blocked)
    fb = tuple(float(pi[s].sum()) for s in space.frag_blocked)
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
