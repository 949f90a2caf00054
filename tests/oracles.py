"""Independent reference implementations the engines are checked against,
and the link helpers that only tests use."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from eolsec.ctmc import ModelVariant, RateMatrix
from eolsec.link import (
    Classification,
    DemandProfile,
    classify,
    fit_runs,
    pattern,
    placements,
    removals,
    token_spans,
)
from eolsec.statespace import StateSpace, _permutation_count, _token_sequences, pattern_size

DEFAULT_ENUMERATION_BUDGET = 2_000_000


def free_fragments(arr: tuple[int, ...]) -> list[int]:
    """Sizes of maximal free-slot runs, in slot order."""
    return [size for _, size in fit_runs(arr, 1)]


def placement_count(arr: tuple[int, ...], k: int, profile: DemandProfile) -> int:
    """Number of distinct slot positions where a class-k block fits."""
    return sum(c for _, c in fit_runs(arr, profile.demand(k)))


@dataclass(frozen=True)
class ObservationWindow:
    """``width`` contiguous slots starting at 1-based slot ``start``."""

    start: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("window width must be >= 1")
        if self.start < 1:
            raise ValueError("window start must be >= 1")

    @property
    def last(self) -> int:
        return self.start + self.width - 1


def _check_window(w: ObservationWindow, profile: DemandProfile) -> None:
    if w.last > profile.capacity:
        raise ValueError(f"window [{w.start}, {w.last}] exceeds capacity {profile.capacity}")


def _inside_of_spans(
    spans: list[tuple[int, int, int]], start: int, last: int, num_classes: int
) -> tuple[tuple[int, ...], bool]:
    counts = [0] * num_classes
    straddle = False
    for k, s, e in spans:
        if s >= start and e <= last:
            counts[k - 1] += 1
        elif s <= last and e >= start:
            straddle = True
    return tuple(counts), straddle


def inside_pattern(
    arr: tuple[int, ...], window: ObservationWindow, profile: DemandProfile
) -> tuple[tuple[int, ...], bool]:
    """Pattern of connections fully inside the window, plus a straddle flag.

    Connections overlapping a window edge set the flag and are excluded
    from the pattern.
    """
    _check_window(window, profile)
    spans = token_spans(arr, profile.demands)
    return _inside_of_spans(spans, window.start, window.last, profile.num_classes)


def _outside_split_count(
    n_out: tuple[int, ...],
    frees_out: int,
    cap_left: int,
    demands: tuple[int, ...],
) -> int:
    """Ways to order the outside tokens onto the two sides of the window.

    Sums, over every multiset split whose left side fills exactly
    ``cap_left`` slots, the orderings of each side.
    """
    total = 0
    for m in product(*(range(n + 1) for n in n_out)):
        f_left = cap_left - sum(c * d for c, d in zip(m, demands))
        if 0 <= f_left <= frees_out:
            right = tuple(n - c for n, c in zip(n_out, m))
            total += _permutation_count(f_left, m) * _permutation_count(frees_out - f_left, right)
    return total


def count_matching_rearrangements(
    arr: tuple[int, ...], window: ObservationWindow, profile: DemandProfile
) -> int:
    """Arrangements of ``arr``'s pattern indistinguishable inside the window.

    Counts the arrangements with the same full pattern whose fully-inside
    pattern equals the one observed in ``arr`` and which leave no connection
    straddling a window edge: the inside orderings times the outside splits.
    """
    _check_window(window, profile)
    pat = pattern(arr, profile)
    n_in, _ = inside_pattern(arr, window, profile)

    frees_total = profile.capacity - sum(n * d for n, d in zip(pat, profile.demands))
    frees_in = window.width - sum(n * d for n, d in zip(n_in, profile.demands))
    if frees_in > frees_total:
        return 0
    n_out = tuple(n - i for n, i in zip(pat, n_in))
    inside = _permutation_count(frees_in, n_in)
    outside = _outside_split_count(n_out, frees_total - frees_in, window.start - 1, profile.demands)
    return inside * outside


def loop_generator(space: StateSpace, profile: DemandProfile, variant: ModelVariant) -> RateMatrix:
    """Generator assembled transition by transition, one Python call each."""
    n_sa = space.num_regular
    n_r = space.num_raas if variant.has_randomization else 0
    n_d = space.num_daas if variant.has_defrag else 0
    dim = n_sa + n_r + n_d
    lam = profile.arrival_rates
    mu = profile.service_rates
    lam_s = variant.randomization_rate
    mu_d = variant.reconfig_rate
    index_of = {arr: i for i, arr in enumerate(space.arrangements)}
    raas_index = {pat: v for v, pat in enumerate(space.raas_patterns)}
    daas_index = {pat: v for v, pat in enumerate(space.daas_patterns)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(i: int, j: int, rate: float) -> None:
        if rate != 0.0:
            rows.append(i)
            cols.append(j)
            vals.append(rate)

    for i, arr in enumerate(space.arrangements):
        pat = space.state_patterns[i]
        for k in range(1, profile.num_classes + 1):
            outcome = classify(arr, k, profile)
            if outcome is Classification.ACCEPT:
                targets = placements(arr, k, profile)
                rate = lam[k - 1] / len(targets)
                for target in targets:
                    add(i, index_of[target], rate)
            elif outcome is Classification.FRAG_BLOCKED and variant.has_defrag:
                add(i, n_sa + n_r + daas_index[pat], lam[k - 1])
            if pat[k - 1]:
                for target, mult in removals(arr, k, profile):
                    add(i, index_of[target], mu[k - 1] * mult)
        if variant.has_randomization and pat in raas_index:
            add(i, n_sa + raas_index[pat], lam_s)

    if variant.has_randomization:
        for v, pat in enumerate(space.raas_patterns):
            members = space.pattern_groups[pat]
            rate = mu_d / len(members)
            for j in members:
                add(n_sa + v, j, rate)

    if variant.has_defrag:
        for v in range(space.num_daas):
            targets = space.defrag_targets[v]
            rate = mu_d / len(targets)
            for j in targets:
                add(n_sa + n_r + v, j, rate)

    q = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    q = q + sp.diags(-np.asarray(q.sum(axis=1)).ravel(), format="csr")
    return RateMatrix(q)


def lil_bordered_matrix(q_sub: sp.csr_matrix) -> sp.csc_matrix:
    """Q^T with its last row replaced by ones, built through a LIL matrix."""
    m = q_sub.shape[0]
    a = q_sub.transpose().tolil()
    a[m - 1, :] = np.ones(m)
    return a.tocsc()


def is_strongly_connected(rm: RateMatrix) -> bool:
    adjacency = rm.matrix.copy()
    adjacency.setdiag(0)
    n_comp, _ = connected_components(adjacency, directed=True, connection="strong")
    return n_comp == 1


def dense_stationary_oracle(rm: RateMatrix) -> np.ndarray:
    """Independent dense solve: least squares on [Q^T; 1] x = [0; 1]."""
    q = rm.matrix.toarray()
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    x, *_ = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def group_table_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per-state attack survival by tabulating, for every window start, the
    inside patterns of all straddle-free members of each pattern group."""
    profile = space.profile
    positions = profile.capacity - width + 1
    numerators = [0] * space.num_regular
    denominators = [0] * space.num_regular
    for pat, members in space.pattern_groups.items():
        spans_of = {i: token_spans(space.arrangements[i], profile.demands) for i in members}
        r_n = pattern_size(pat, profile)
        for start in range(1, positions + 1):
            last = start + width - 1
            table: dict[tuple[int, ...], int] = {}
            insides: dict[int, tuple[int, ...]] = {}
            for i in members:
                n_in, straddle = _inside_of_spans(spans_of[i], start, last, profile.num_classes)
                insides[i] = n_in
                if not straddle:
                    table[n_in] = table.get(n_in, 0) + 1
            for i in members:
                numerators[i] += table.get(insides[i], 0)
        for i in members:
            denominators[i] = r_n * positions
    return np.array([n / d for n, d in zip(numerators, denominators)])


@lru_cache(maxsize=4096)
def _match_table(
    profile: DemandProfile, pat: tuple[int, ...], start: int, width: int
) -> dict[tuple[int, ...], int]:
    """For each inside pattern: how many straddle-free arrangements of ``pat`` show it."""
    frees = profile.capacity - sum(n * d for n, d in zip(pat, profile.demands))
    last = start + width - 1
    table: dict[tuple[int, ...], int] = {}
    for tokens in _token_sequences([frees] + list(pat)):
        spans = token_spans(tokens, profile.demands)
        n_in, straddle = _inside_of_spans(spans, start, last, profile.num_classes)
        if not straddle:
            table[n_in] = table.get(n_in, 0) + 1
    return table


def enumerated_matching_count(
    arr: tuple[int, ...], window: ObservationWindow, profile: DemandProfile
) -> int:
    """``count_matching_rearrangements`` by enumerating every arrangement of the pattern."""
    pat = pattern(arr, profile)
    if pattern_size(pat, profile) > DEFAULT_ENUMERATION_BUDGET:
        raise RuntimeError("pattern too large for enumeration")
    n_in, _ = inside_pattern(arr, window, profile)
    return _match_table(profile, pat, window.start, window.width).get(n_in, 0)
