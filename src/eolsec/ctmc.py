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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .link import DemandProfile
from .statespace import StateSpace

DEFAULT_SOLVER_TOL = 1e-10
SOLVER_METHOD = "bicgstab:jacobi-scaled"
# The solve's residual target: a thousandth of the gate, so that closed-form
# rescaling (which amplifies the residual up to about 10x) still meets it.
SOLVER_TARGET = DEFAULT_SOLVER_TOL / 1000
# BiCGSTAB restarts from its iterate whenever the residual has fallen this far
# since the last start: a fresh shadow residual keeps it from stalling
# around 1e-11 on chains with lambda_S = 50, mu_d = 1000.
KRYLOV_RESTART = 1e-3
# Above the most any measured chain took: 95 over 72 chains at C=24 and 112
# at C=34 (182,805 rows), both with lambda_S = 50, and 133 over 400 chains
# at C=20 and 24 with 0.02-0.3 Erlang; past it the solve fails.
KRYLOV_MAX_ITERATIONS = 200
# Entries of (D Q)^T scaled per slice: 8 MB of gathered factors.
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

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"solver residual {residual:.3e} after {iterations} BiCGSTAB iterations")

    def __reduce__(self):
        return type(self), (self.iterations, self.residual)


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
    counts the BiCGSTAB iterations behind it.

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

    def diagnostics(self) -> dict:
        """The solver's diagnostics by name."""
        return {k: getattr(self, k) for k in ("method", "dimension", "nnz", "iterations")}


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
    order, so its rows are read in memory order.  The rows' columns are
    gathered straight from the CSR arrays: slicing ``a`` would build and
    check a submatrix at every step.  Explicit zeros, which are no edges,
    are dropped once up front (generators hold none).
    """
    if not a.data.all():
        a = a.copy()
        a.eliminate_zeros()
    indptr, indices = a.indptr, a.indices
    seen = np.zeros(a.shape[0], bool)
    seen[s] = True
    fresh = np.zeros_like(seen)
    frontier = np.array([s])
    while len(frontier):
        starts = indptr[frontier]
        sizes = indptr[frontier + 1] - starts
        ends = np.cumsum(sizes)
        # the frontier rows' entries back to back: row r's run is starts[r] + 0..sizes[r]-1
        at = np.repeat(starts - (ends - sizes), sizes)
        at += np.arange(len(at), dtype=at.dtype)
        fresh[indices[at]] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
        seen |= fresh
        fresh[frontier] = False
    return seen


def solve_stationary(rm: RateMatrix) -> StationaryDistribution:
    """Solve pi Q = 0 with sum(pi) = 1 on the terminal class of ``rm``.

    With D = diag(1 / |q_ii|), BiCGSTAB solves y D Q = 0 from y = 1
    (``_bicgstab``), and pi = y D / |y D|.  Every state of the scaled
    generator leaves at rate 1, so fast reconfiguration states do not
    stiffen it as they would a uniformized chain, and nothing fills in.
    The solve returns once the distribution, clipped at zero, has a true
    residual max|pi Q| on the full generator of at most ``SOLVER_TARGET``
    and no mass was clearly negative before the clip.  After
    ``KRYLOV_MAX_ITERATIONS`` iterations a residual above the target
    raises NoConvergence, and a clearly negative mass
    NegativeStationaryMass.  More than one closed class raises
    NotIrreducible.  The gates and the result apply to the generator's
    rows.  (Stewart, *Introduction to the Numerical Solution of Markov
    Chains*, 1994, ch. 3-4.)
    """
    q = rm.matrix
    n = q.shape[0]
    # (D Q)^T, so that each product is one CSR product: first the plain
    # transpose, whose rows the closed-class search walks backward
    scaled = q.T.tocsr()
    keep = _terminal_states(q, scaled)
    q_sub = q
    if len(keep) < n:
        del scaled
        q_sub = q[np.ix_(keep, keep)]
        scaled = q_sub.T.tocsr()
    m = q_sub.shape[0]
    # a one-state class has no outflow: its whole mass is the solution
    scale = 1.0 / -q_sub.diagonal() if m > 1 else np.ones(1)
    # the entries are q_ij * scale_i, scaled a slice at a time to hold no
    # gather of their whole length
    for start in range(0, scaled.nnz, SCALE_SLICE):
        part = slice(start, start + SCALE_SLICE)
        scaled.data[part] *= scale[scaled.indices[part]]

    def spread(y: np.ndarray) -> np.ndarray:
        pi = np.zeros(n)
        pi[keep] = y * scale
        pi /= pi.sum()
        return pi

    def accepted(y: np.ndarray) -> bool:
        # the gates of the distribution that is returned: near the rounding
        # floor a state of tiny mass can still read clearly negative, which
        # further iterations mend
        try:
            return _distribution(spread(y), rm, 0).residual <= SOLVER_TARGET
        except NegativeStationaryMass:
            return False

    y, iterations = _bicgstab(scaled, scale, accepted)
    pi = spread(y)
    residual = _residual(_clipped(pi), q)
    if residual > SOLVER_TARGET:
        raise NoConvergence(iterations, residual)
    return _distribution(pi, rm, iterations)


def _bicgstab(scaled: sp.csr_matrix, scale: np.ndarray,
              accepted: Callable[[np.ndarray], bool]) -> tuple[np.ndarray, int]:
    """An ``accepted`` iterate y, whose pi = y D / |y D| passes the
    solve's gates, and the BiCGSTAB iterations it took (van der Vorst,
    *SIAM J. Sci. Stat. Comput.* 13(2), 1992); past
    ``KRYLOV_MAX_ITERATIONS`` the iterate as it stands.

    The system is ``scaled`` y = 0, with ``scaled`` = (D Q)^T.  It is
    singular and consistent: the iterate converges to its null vector
    without a normalization row.  The residual r = -``scaled`` y gives
    max|pi Q| = max|r| / sum(y D) with no extra product.  Each start
    computes r from the iterate, and only there, once r is down to
    ``SOLVER_TARGET``, is the iterate offered to ``accepted``.  A
    recursive residual at the target, a breakdown (rho or omega zero), or
    a residual down to ``KRYLOV_RESTART`` times its size at the last
    start, restarts from the current iterate.  A breakdown counts as an
    iteration, so the loop ends at the cap.  Inner products are pairwise
    sums, so the result does not depend on the BLAS build or its threads.
    The vectors are updated in place, each operation as in the textbook
    form and in its order, so the iterates are the same; only the two
    products per iteration allocate.
    """
    n = len(scale)
    y = np.ones(n)
    r_hat, p, s, work = np.empty(n), np.empty(n), np.empty(n), np.empty(n)

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return np.multiply(a, b, out=work).sum()

    def size(a: np.ndarray) -> float:
        return np.abs(a, out=work).max()

    iterations = 0
    while True:
        r = scaled @ y
        np.negative(r, out=r)
        start = size(r)
        if start <= SOLVER_TARGET * dot(y, scale) and accepted(y) or iterations >= KRYLOV_MAX_ITERATIONS:
            return y, iterations
        np.copyto(r_hat, r)
        rho = alpha = omega = 1.0
        p.fill(0.0)
        v = np.zeros(n)
        while iterations < KRYLOV_MAX_ITERATIONS:
            iterations += 1
            rho_next = dot(r_hat, r)
            if rho_next == 0.0:
                break
            # p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
            np.subtract(p, np.multiply(v, omega, out=work), out=p)
            p *= (rho_next / rho) * (alpha / omega)
            p += r
            v = scaled @ p
            alpha = rho_next / dot(r_hat, v)
            y += np.multiply(p, alpha, out=work)
            np.subtract(r, np.multiply(v, alpha, out=s), out=s)  # s = r - alpha * v
            if size(s) <= SOLVER_TARGET * dot(y, scale):
                break
            t = scaled @ s
            omega = dot(t, s) / dot(t, t)
            y += np.multiply(s, omega, out=work)
            np.subtract(s, np.multiply(t, omega, out=r), out=r)  # r = s - omega * t
            last = size(r)
            if omega == 0.0 or last <= KRYLOV_RESTART * start or last <= SOLVER_TARGET * dot(y, scale):
                break
            rho = rho_next


def _distribution(pi: np.ndarray, rm: RateMatrix, iterations: int) -> StationaryDistribution:
    """The gated distribution over ``rm``'s rows (no clearly negative
    mass), clipped and renormalized."""
    worst = int(np.argmin(pi))
    if pi[worst] < -1e-14:
        raise NegativeStationaryMass(worst, float(pi[worst]))
    pi = _clipped(pi)
    q = rm.matrix
    return StationaryDistribution(
        pi=pi,
        residual=_residual(pi, q),
        method=SOLVER_METHOD,
        dimension=q.shape[0],
        nnz=int(q.nnz),
        iterations=iterations,
    )


def _clipped(pi: np.ndarray) -> np.ndarray:
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi


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
    on by ``factor`` and renormalize.  The residual is measured on ``rm``
    and may be up to about 10 times ``dist``'s, which ``SOLVER_TARGET``
    leaves room for; the iteration count is that of the solve behind
    ``dist``.
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
