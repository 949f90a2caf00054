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

The generator is assembled and solved over mirror classes of regular
states (``StateSpace.lumped``), about half of them, as the chain is
ordinarily lumpable over them (Buchholz, *J. Appl. Prob.* 31(1), 1994).
Every number stays over the generator's rows, [classes | randomization |
defrag]: each reported figure is the mass of a mirror-closed set, which
the lumped distribution gives directly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .link import DemandProfile
from .statespace import StateSpace

DEFAULT_SOLVER_TOL = 1e-10
SOLVER_METHOD = "bicgstab+power:jacobi-scaled"
# Damping of the row-scaled step: every state keeps a self-loop of
# 1 - 1/POWER_DAMPING, so the iteration matrix is aperiodic.
POWER_DAMPING = 1.05
POWER_CHECK_EVERY = 10
# The residual target is DEFAULT_SOLVER_TOL / POWER_TOL_MARGIN, so that
# closed-form rescaling (which amplifies the residual up to about 10x) still
# meets the gate.
POWER_TOL_MARGIN = 1000.0
POWER_MAX_SWEEPS = 20_000
# BiCGSTAB hands over to the sweeps ten times above their target: near the
# rounding floor its residual stagnates, where a few sweeps still converge.
KRYLOV_TOL = 1e-12
# It restarts from its iterate whenever the residual has fallen this far
# since the last start: a fresh shadow residual keeps it from stalling
# around 1e-11 on chains with lambda_S = 50, mu_d = 1000.
KRYLOV_RESTART = 1e-3
# About twice the most any measured chain took (109 at C=24, lambda_S=50);
# past it the sweeps take over.
KRYLOV_MAX_ITERATIONS = 200
# Entries of the step matrix scaled per slice: 8 MB of gathered factors.
SCALE_SLICE = 1 << 20


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
            if not (math.isfinite(self.randomization_rate) and math.isfinite(self.reconfig_rate)):
                raise ValueError(f"randomization and reconfiguration rates must be finite, "
                                 f"got {self.randomization_rate} and {self.reconfig_rate}")

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
    """The solve ended above its residual target."""

    def __init__(self, iterations: int, sweeps: int, residual: float):
        self.iterations = iterations
        self.sweeps = sweeps
        self.residual = residual
        super().__init__(f"solver residual {residual:.3e} after {iterations} BiCGSTAB "
                         f"iterations and {sweeps} power sweeps")

    def __reduce__(self):
        return type(self), (self.iterations, self.sweeps, self.residual)


class NegativeStationaryMass(RuntimeError):
    """The solved distribution has a state with mass below round-off.

    ``state`` is the generator's row: a mirror class for an assembled chain."""

    def __init__(self, state: int, mass: float):
        self.state = state
        self.mass = mass
        super().__init__(f"stationary mass {mass:.3e} of row {state} is negative beyond round-off")

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
    """Solution of pi Q = 0 plus the solver's diagnostics: ``iterations``
    counts the BiCGSTAB iterations and ``sweeps`` the power sweeps behind it.

    ``pi`` has one mass per row of the generator that was solved, which
    ``residual``, ``dimension`` and ``nnz`` describe: for a chain from
    ``assemble_generator``, the mirror classes, then the reconfiguration
    states."""

    pi: np.ndarray
    residual: float
    method: str
    dimension: int
    nnz: int
    iterations: int
    sweeps: int

    def diagnostics(self) -> dict:
        """The solver's diagnostics by name."""
        return {k: getattr(self, k) for k in ("method", "dimension", "nnz", "iterations", "sweeps")}


@dataclass(frozen=True)
class BlockingReport:
    """Per-class and overall blocking probabilities for one solved variant."""

    resource_blocking: tuple[float, ...]
    fragmentation_blocking: tuple[float, ...]
    reconfiguration_blocking: float
    overall_blocking: float


def assemble_generator(space: StateSpace, profile: DemandProfile, variant: ModelVariant) -> RateMatrix:
    """Install all transitions of ``variant`` over the mirror classes of ``space``.

    ``profile`` must structurally match the space (same capacity and
    demands); its rates drive the transition intensities, so one space can
    be reused across traffic points.

    scipy sums each row's repeated columns and drops zero rates in place,
    so it works on copies of the shared, read-only ``col`` and ``indptr``
    of ``space.transitions``; the diagonal is minus ``q.sum(axis=1)``.
    """
    if profile.capacity != space.profile.capacity or profile.demands != space.profile.demands:
        raise ValueError("profile does not match the state space structure")

    t = space.transitions
    n_r = space.num_raas if variant.has_randomization else 0
    n_d = space.num_daas if variant.has_defrag else 0
    dim = t.regular + n_r + n_d
    lam = np.asarray(profile.arrival_rates, dtype=float)
    # A zero rate switches its transitions off: regular has no
    # reconfiguration rates, and only randomized-defrag enters defrag
    # states; otherwise blocked arrivals cause no transition (lost calls).
    defrag = 1.0 if variant.has_defrag else 0.0
    end = t.indptr[dim]
    rates = t.rates(
        lam,
        lam * defrag,
        np.asarray(profile.service_rates, dtype=float),
        variant.randomization_rate,
        variant.reconfig_rate,
        variant.reconfig_rate * defrag,
    )[:end]
    q = sp.csr_matrix((rates, t.col[:end].copy(), t.indptr[:dim + 1].copy()), shape=(dim, dim))
    q.sum_duplicates()  # the columns ascend, so repeats are summed left to right
    q.eliminate_zeros()  # a zero rate is no transition
    rows = np.arange(dim + 1)
    diagonal = sp.csr_matrix((-np.asarray(q.sum(axis=1)).ravel(), rows[:-1], rows), shape=(dim, dim))
    return RateMatrix(q + diagonal)  # the sum keeps no zero, so a row without outflow has no diagonal


def _terminal_states(q: sp.csr_matrix, q_t: sp.csr_matrix) -> np.ndarray:
    """Indices of the unique closed communicating class.

    States outside it are transient and carry zero stationary mass; more
    than one closed class means the stationary distribution is not unique.
    From state 0 the search moves on to a state that the current one
    reaches but that does not reach it back, until there is none: then the
    states the current one reaches are a closed class, the only one if
    every state reaches it.  Every state of a model chain reaches state 0
    (departures empty the link, reconfigurations end), so there one pass
    each way finds the class.  The passes walk the rows of ``q`` forward
    and those of its transpose ``q_t`` (in CSR) backward.
    """
    s = 0
    while True:
        ahead, behind = _reached(q, s), _reached(q_t, s)
        beyond = ahead & ~behind
        if not beyond.any():
            break
        s = int(np.argmax(beyond))
    if not behind.all():
        raise NotIrreducible("more than one closed communicating class")
    return np.flatnonzero(ahead)


def _reached(a: sp.csr_matrix, s: int) -> np.ndarray:
    """States joined to state ``s`` along the rows of ``a``: with ``a = q``
    the states ``s`` reaches, with its transpose the states that reach ``s``.

    A frontier walk: each state's row is read once, when it joins, so the
    edges cost O(nnz).  An edge is a nonzero entry.  The frontier is kept
    as a mask, a few passes over n bytes per step, which keeps it in index
    order, so its rows are read in memory order.
    """
    seen = np.zeros(a.shape[0], bool)
    seen[s] = True
    fresh = np.zeros_like(seen)
    frontier = np.array([s])
    while len(frontier):
        rows = a[frontier]
        fresh[rows.indices[rows.data != 0.0]] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
        seen |= fresh
        fresh[frontier] = False
    return seen


def solve_stationary(rm: RateMatrix) -> StationaryDistribution:
    """Solve pi Q = 0 with sum(pi) = 1 on the terminal class of ``rm``.

    With D = diag(1 / |q_ii|), y <- y (I + D Q / POWER_DAMPING) is a
    stochastic step whose fixed point gives pi = y D / |y D|.  Every state
    leaves at the same scaled rate, so fast reconfiguration states do not
    stiffen it as they would a uniformized chain, and nothing fills in.
    BiCGSTAB first solves the singular, consistent system y D Q = 0 from
    y = 1 down to a residual of ``KRYLOV_TOL`` (``_bicgstab``); then the
    damped sweeps polish that iterate.  The residual on the full generator
    is checked every ``POWER_CHECK_EVERY`` sweeps until it is at most
    ``DEFAULT_SOLVER_TOL`` / ``POWER_TOL_MARGIN``; after
    ``POWER_MAX_SWEEPS`` sweeps NoConvergence is raised.  A clearly
    negative mass raises NegativeStationaryMass, and more than one closed
    class raises NotIrreducible.  The gates and the result apply to the
    generator's rows.  (Stewart, *Introduction to the Numerical Solution
    of Markov Chains*, 1994, ch. 3-4.)
    """
    q = rm.matrix
    n = q.shape[0]
    # the transposed step, so that each sweep is one CSR product: first the
    # plain transpose, whose rows the closed-class search walks backward
    step = q.T.tocsr()
    keep = _terminal_states(q, step)
    q_sub = q
    if len(keep) < n:
        del step
        q_sub = q[np.ix_(keep, keep)]
        step = q_sub.T.tocsr()
    m = q_sub.shape[0]
    # a one-state class has no outflow: its whole mass is the solution
    scale = 1.0 / -q_sub.diagonal() if m > 1 else np.ones(1)
    # the step's entries are q_ij * scale_i / POWER_DAMPING, plus 1 on the
    # diagonal, scaled a slice at a time to hold no gather of its whole length
    factor = scale / POWER_DAMPING
    for start in range(0, step.nnz, SCALE_SLICE):
        part = slice(start, start + SCALE_SLICE)
        step.data[part] *= factor[step.indices[part]]
    step.setdiag(step.diagonal() + 1.0)
    y, iterations = _bicgstab(step, scale)
    sweeps = 0
    while True:
        pi = np.zeros(n)
        pi[keep] = y * scale
        pi /= pi.sum()
        res = _residual(pi, q)
        if res <= DEFAULT_SOLVER_TOL / POWER_TOL_MARGIN:
            return _distribution(pi, rm, sweeps, iterations)
        if sweeps >= POWER_MAX_SWEEPS:
            raise NoConvergence(iterations, sweeps, res)
        burst = min(POWER_CHECK_EVERY, POWER_MAX_SWEEPS - sweeps)
        for _ in range(burst):
            y = step @ y
        sweeps += burst


def _bicgstab(step: sp.csr_matrix, scale: np.ndarray) -> tuple[np.ndarray, int]:
    """An iterate y with pi = y D / |y D| near the solution, and the
    BiCGSTAB iterations it took (van der Vorst, *SIAM J. Sci. Stat.
    Comput.* 13(2), 1992).

    The system is (step - I) y = 0, i.e. y D Q = 0 up to the factor
    POWER_DAMPING, so that the sweeps' one matrix serves both phases.  It
    is singular and consistent: the iterate converges to its null vector
    without a normalization row.  The recursive residual r gives
    max|pi Q| = POWER_DAMPING max|r| / sum(y D) with no extra product.  A
    breakdown (rho or omega zero), or a residual down to ``KRYLOV_RESTART``
    times its size at the last start, restarts from the current iterate.
    After ``KRYLOV_MAX_ITERATIONS`` the iterate is returned as it stands.
    Inner products are pairwise sums, so the result does not depend on
    the BLAS build or its threads.  The vectors are updated in place, each
    operation as in the textbook form and in its order, so the iterates
    are the same; only the two products per iteration allocate.
    """
    tol = KRYLOV_TOL / POWER_DAMPING
    n = len(scale)
    y = np.ones(n)
    r_hat, p, s, work = np.empty(n), np.empty(n), np.empty(n), np.empty(n)

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return np.multiply(a, b, out=work).sum()

    def size(a: np.ndarray) -> float:
        return np.abs(a, out=work).max()

    iterations = 0
    while iterations < KRYLOV_MAX_ITERATIONS:
        r = step @ y
        np.subtract(y, r, out=r)  # r = y - step y
        start = size(r)
        if start <= tol * dot(y, scale):
            break
        np.copyto(r_hat, r)
        rho = alpha = omega = 1.0
        p.fill(0.0)
        v = np.zeros(n)
        while iterations < KRYLOV_MAX_ITERATIONS:
            rho_next = dot(r_hat, r)
            if rho_next == 0.0:
                break
            iterations += 1
            # p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
            np.subtract(p, np.multiply(v, omega, out=work), out=p)
            p *= (rho_next / rho) * (alpha / omega)
            p += r
            v = step @ p
            v -= p
            alpha = rho_next / dot(r_hat, v)
            y += np.multiply(p, alpha, out=work)
            np.subtract(r, np.multiply(v, alpha, out=s), out=s)  # s = r - alpha * v
            if size(s) <= tol * dot(y, scale):
                return y, iterations
            t = step @ s
            t -= s
            omega = dot(t, s) / dot(t, t)
            y += np.multiply(s, omega, out=work)
            np.subtract(s, np.multiply(t, omega, out=r), out=r)  # r = s - omega * t
            last = size(r)
            if last <= tol * dot(y, scale):
                return y, iterations
            if omega == 0.0 or last <= KRYLOV_RESTART * start:
                break
            rho = rho_next
    return y, iterations


def _distribution(pi: np.ndarray, rm: RateMatrix, sweeps: int,
                  iterations: int = 0) -> StationaryDistribution:
    """The gated distribution over ``rm``'s rows (no clearly negative
    mass), clipped and renormalized."""
    worst = int(np.argmin(pi))
    if pi[worst] < -1e-14:
        raise NegativeStationaryMass(worst, float(pi[worst]))
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    q = rm.matrix
    return StationaryDistribution(
        pi=pi,
        residual=_residual(pi, q),
        method=SOLVER_METHOD,
        dimension=q.shape[0],
        nnz=int(q.nnz),
        iterations=iterations,
        sweeps=sweeps,
    )


def _residual(pi: np.ndarray, q: sp.csr_matrix) -> float:
    return float(np.max(np.abs(pi @ q)))


def rescale_reconfiguration(
    dist: StationaryDistribution, rm: RateMatrix, regular_rows: int, factor: float
) -> StationaryDistribution:
    """The stationary distribution of ``rm`` from the solution ``dist`` of
    the same chain at ``factor`` times ``rm``'s reconfiguration rate.

    A reconfiguration state ignores arrivals, freezes departures and leaves
    at the reconfiguration rate to targets that do not depend on that rate.
    So the chain censored to the regular states does not depend on it
    either (Meyer, "Stochastic complementation, uncoupling Markov chains",
    SIAM Review 31(2), 1989), and the mass of every reconfiguration state
    scales with the inverse rate: multiply the rows from ``regular_rows``
    on by ``factor`` and renormalize.  The residual is measured on ``rm``;
    the iteration and sweep counts are those of the solve behind ``dist``.
    """
    pi = dist.pi.copy()
    pi[regular_rows:] *= factor
    pi /= pi.sum()
    return replace(dist, pi=pi, residual=_residual(pi, rm.matrix), nnz=int(rm.matrix.nnz))


def blocking_report(
    pi: np.ndarray, space: StateSpace, profile: DemandProfile, variant: ModelVariant
) -> BlockingReport:
    """Blocking metrics of a solved variant from ``pi`` over its rows.

    Per-class resource/fragmentation blocking are stationary masses of the
    corresponding mirror classes; reconfiguration blocking is the mass of
    all reconfiguration states; the overall figure adds the
    arrival-weighted per-class parts to it.
    """
    n_sa = space.num_mirror_classes
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
