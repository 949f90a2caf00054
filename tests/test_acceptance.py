"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with -s).
The heavy Monte Carlo cross-validation grid and the analytic solution grid
are session fixtures shared by several criteria.
"""

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations

import numpy as np
import pytest

from eolsec import (
    DemandProfile,
    ModelVariant,
    SimConfig,
    assemble_generator,
    attack_success_probability,
    blocking_report,
    build_state_space,
    observable_fraction,
    pattern_size,
    run_simulation,
    solve_stationary,
)
from eolsec.experiment import load_config, run_experiments
from oracles import (
    ObservationWindow,
    _match_table,
    _outside_split_count,
    arrangements,
    class_members,
    count_matching_rearrangements,
    dense_stationary_oracle,
    enumerated_matching_count,
    inside_pattern,
    lump,
    lumped_rows,
    placement_count,
)

pytestmark = pytest.mark.slow

CAPACITY20 = 20
DEMANDS20 = (4, 6, 8)
LOADS = (8.0, 14.0, 20.0)
LAMBDA_S_FULL = tuple(float(v) for v in range(1, 11))
LAMBDA_S_MC = (1.0, 5.0, 10.0)
MU_D = (10.0, 100.0)
MC_SEED = 97
MC_ARRIVALS = 100_000
MC_REPLICATIONS = 10
MC_WARMUP = 500.0


def profile20(load):
    return DemandProfile.with_uniform_load(CAPACITY20, DEMANDS20, load)


@pytest.fixture(scope="session")
def space20():
    return build_state_space(profile20(LOADS[0]))


@pytest.fixture(scope="session")
def solutions20(space20):
    """Analytic solves for the full capacity-20 grid, keyed by cell."""
    cells = []
    for load in LOADS:
        cells.append(("regular", load, 0.0, 0.0))
        for mu_d in MU_D:
            cells.append(("randomized", load, 0.0, mu_d))
            for lam_s in LAMBDA_S_FULL:
                cells.append(("randomized", load, lam_s, mu_d))
            for lam_s in LAMBDA_S_MC:
                cells.append(("randomized-defrag", load, lam_s, mu_d))
    out = {}
    for kind, load, lam_s, mu_d in cells:
        profile = profile20(load)
        if kind == "regular":
            variant = ModelVariant.regular()
        elif kind == "randomized":
            variant = ModelVariant.randomized(lam_s, mu_d)
        else:
            variant = ModelVariant.randomized_defrag(lam_s, mu_d)
        rm = assemble_generator(space20, profile, variant)
        dist = solve_stationary(rm)
        report = blocking_report(dist.pi, space20, profile, variant)
        out[(kind, load, lam_s, mu_d)] = (rm, dist, report)
    return out


@pytest.fixture(scope="session")
def mc_grid20():
    """Monte Carlo runs for the cross-validation grid, plus their wall time."""
    grid = list(itertools.product(LOADS, LAMBDA_S_MC, MU_D))
    configs = [
        SimConfig(
            profile=profile20(load),
            variant=ModelVariant.randomized_defrag(lam_s, mu_d),
            arrivals=MC_ARRIVALS,
            warmup=MC_WARMUP,
            replications=MC_REPLICATIONS,
            seed=MC_SEED + ordinal,
        )
        for ordinal, (load, lam_s, mu_d) in enumerate(grid)
    ]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_simulation, configs))
    elapsed = time.perf_counter() - start
    return dict(zip(grid, results)), elapsed


def test_criterion_1_worked_example_fixtures():
    start = time.perf_counter()
    profile = DemandProfile(7, (3, 4), (1.0, 1.0), (1.0, 1.0))
    space = build_state_space(profile)
    assert space.num_regular == 15
    assert placement_count((0,) * profile.capacity, 1, profile) == 5
    assert len(space.pattern_groups[(1, 0)]) == 5
    frag = [class_members(space, classes) for classes in space.frag_blocked]
    assert len(frag[1]) == 3
    assert len(frag[0]) == 3
    assert len(np.intersect1d(frag[0], frag[1])) == 1
    assert space.num_daas == 2
    assert [len(t) for t in space.defrag_targets] == [2, 2]
    # uniform return over the two defragmented targets, which are mirror
    # images: the rows of the lumped generator are mirror classes
    mu_d = 6.0
    rm = assemble_generator(space, profile, ModelVariant.randomized_defrag(1.0, mu_d))
    q = rm.matrix.toarray()
    at = lumped_rows(space)
    base = space.num_regular + space.num_raas
    for v, targets in enumerate(space.defrag_targets):
        (target,) = set(at[targets])
        assert q[at[base + v], target] == 2 * (mu_d / 2.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: worked-example fixtures exact ({elapsed * 1000:.0f} ms)")


def test_criterion_2_balance_equation_rows():
    lam1, lam2, mu1, mu2, lam_s, mu_d = 2.0, 3.0, 1.5, 1.25, 0.7, 11.0
    profile = DemandProfile(7, (3, 4), (lam1, lam2), (mu1, mu2))
    space = build_state_space(profile)
    rm = assemble_generator(space, profile, ModelVariant.randomized_defrag(lam_s, mu_d))
    q = rm.matrix.toarray()
    n_sa, n_r = space.num_regular, space.num_raas
    # the rows are mirror classes: a state's row is at[state]; the blocked
    # sets list rows
    at = lumped_rows(space)

    # row of the state that is fragmentation-blocked for both classes
    (shared,) = np.intersect1d(space.frag_blocked[0], space.frag_blocked[1])
    raas_10 = at[n_sa + space.raas_patterns.index((1, 0))]
    daas_10 = at[n_sa + n_r + space.daas_patterns.index((1, 0))]
    assert q[shared, shared] == -(lam1 + lam2 + mu1 + lam_s)
    assert q[shared, daas_10] == lam1 + lam2
    assert q[shared, 0] == mu1
    assert q[shared, raas_10] == lam_s
    inflows = {i: q[i, shared] for i in range(rm.dimension) if i != shared and q[i, shared] != 0}
    assert inflows == {0: lam1 / 5.0, raas_10: mu_d / 5.0}

    # randomization state of the full-link pattern; its two members are
    # mirror images, one class entered at their summed rate
    raas_11 = at[n_sa + space.raas_patterns.index((1, 1))]
    assert len(space.pattern_groups[(1, 1)]) == 2
    (members,) = set(at[space.pattern_groups[(1, 1)]])
    assert q[members, raas_11] == lam_s
    assert q[raas_11, members] == 2 * (mu_d / 2.0)
    assert q[raas_11, raas_11] == -mu_d

    # defrag state of the one-class-1 pattern; the two states blocked for
    # class 2 alone are mirror images
    (frag2_only,) = np.setdiff1d(space.frag_blocked[1], space.frag_blocked[0])
    inflows = {i: q[i, daas_10] for i in range(rm.dimension) if q[i, daas_10] != 0 and i != daas_10}
    assert inflows == {shared: lam1 + lam2, frag2_only: lam2}
    assert q[daas_10, daas_10] == -mu_d
    print("\nACCEPTANCE 2 PASS: balance-equation rows match coefficient-for-coefficient")


def test_criterion_3_window_counting_fixtures(profile14):
    arr = (1, 0, 0, 0, 2, 0, 3, 0)
    window = ObservationWindow(6, 4)
    assert 14 - 4 + 1 == 11  # uniform window position weight is 1/11

    inside_profile = DemandProfile(4, (2, 3, 4), (1.0,) * 3, (1.0,) * 3)
    n_in, straddle = inside_pattern(arr, window, profile14)
    assert n_in == (0, 1, 0) and not straddle
    assert pattern_size(n_in, inside_profile) == 2                  # inside orderings
    assert _outside_split_count((1, 0, 1), 4, 5, (2, 3, 4)) == 16   # outside splits
    assert count_matching_rearrangements(arr, window, profile14) == 32
    assert enumerated_matching_count(arr, window, profile14) == 32

    assert pattern_size((1, 1, 1), profile14) == 336
    assert len(set(permutations((0, 0, 0, 0, 0, 1, 2, 3)))) == 336

    # the per-position weight 1/11 drives the state-conditional probability
    space = build_state_space(profile14)
    idx = arrangements(space).index(arr)
    pi = np.zeros(space.num_regular)
    pi[idx] = 1.0
    pi = lump(space, pi)
    by_hand = sum(
        count_matching_rearrangements(arr, ObservationWindow(j, 4), profile14)
        for j in range(1, 12)
    ) / (336 * 11)
    assert attack_success_probability(pi, space, 4) == pytest.approx(by_hand, abs=1e-15)
    print("\nACCEPTANCE 3 PASS: window-counting fixtures exact (R 2 x 16 = 32 of 336)")


def test_criterion_4_closed_form_vs_enumeration(profile7, space7, profile14):
    start = time.perf_counter()
    space14 = build_state_space(profile14)
    for profile, space in ((profile7, space7), (profile14, space14)):
        states = arrangements(space)
        for pat, members in space.pattern_groups.items():
            assert pattern_size(pat, profile) == len(members)
        capacity = profile.capacity
        for width in range(1, capacity + 1):
            for begin in range(1, capacity - width + 2):
                window = ObservationWindow(begin, width)
                for pat, members in space.pattern_groups.items():
                    table = _match_table(profile, pat, begin, width)
                    for i in members:
                        arr = states[i]
                        n_in, _ = inside_pattern(arr, window, profile)
                        assert (
                            count_matching_rearrangements(arr, window, profile)
                            == table.get(n_in, 0)
                        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: closed form == enumeration on both spaces ({elapsed:.1f} s)")


def test_criterion_5_reduction_to_regular(solutions20):
    worst = 0.0
    for load in LOADS:
        base = solutions20[("regular", load, 0.0, 0.0)][2].overall_blocking
        for mu_d in MU_D:
            reduced = solutions20[("randomized", load, 0.0, mu_d)][2].overall_blocking
            worst = max(worst, abs(reduced - base))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 5 PASS: zero-rate randomization reduces to regular (max diff {worst:.2e})")


def test_criterion_6_mc_cross_validation(solutions20, mc_grid20):
    mc, elapsed = mc_grid20
    assert elapsed < 600.0
    cells = list(mc)
    coverage = {"bp": 0, "rcb": 0, "fb_sum": 0}
    for cell in cells:
        load, lam_s, mu_d = cell
        exact = solutions20[("randomized-defrag", load, lam_s, mu_d)][2]
        result = mc[cell]
        checks = {
            "bp": (exact.overall_blocking, result.overall_blocking),
            "rcb": (exact.reconfiguration_blocking, result.reconfiguration_blocking),
        }
        for name, (value, est) in checks.items():
            coverage[name] += abs(est.mean - value) <= est.ci_half_width
        fb_exact = sum(exact.fragmentation_blocking)
        fb_mean = sum(e.mean for e in result.fragmentation_blocking)
        fb_hw = sum(e.ci_half_width for e in result.fragmentation_blocking)
        coverage["fb_sum"] += abs(fb_mean - fb_exact) <= fb_hw
    for name, hits in coverage.items():
        assert hits / len(cells) >= 0.9, f"{name}: only {hits}/{len(cells)} cells within CI"
    print(
        f"\nACCEPTANCE 6 PASS: MC within CI on "
        f"bp {coverage['bp']}/18, rcb {coverage['rcb']}/18, fb {coverage['fb_sum']}/18 "
        f"({elapsed:.0f} s)"
    )


def test_criterion_7_qualitative_trends(space20, solutions20):
    # (a) randomization never lowers blocking below the regular system
    for load in LOADS:
        base = solutions20[("regular", load, 0.0, 0.0)][2].overall_blocking
        for lam_s in LAMBDA_S_FULL:
            for mu_d in MU_D:
                bp = solutions20[("randomized", load, lam_s, mu_d)][2].overall_blocking
                assert bp >= base - 1e-12

    # (b) faster reconfiguration narrows the gap to the regular system
    for load in LOADS:
        for lam_s in LAMBDA_S_FULL:
            slow = solutions20[("randomized", load, lam_s, 10.0)][2].overall_blocking
            fast = solutions20[("randomized", load, lam_s, 100.0)][2].overall_blocking
            assert fast <= slow + 1e-12

    # more frequent scrambling never lowers blocking
    for load in LOADS:
        for mu_d in MU_D:
            values = [
                solutions20[("randomized", load, lam_s, mu_d)][2].overall_blocking
                for lam_s in LAMBDA_S_FULL
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    # (c) at load 20: observable fraction strictly falls with the
    # randomization rate and never falls with the window width.  Narrow
    # windows often see nothing inside, which counts as a surviving attack,
    # so the width trend is evaluated on wide windows where observations
    # are informative (W >= C/2).
    mu = 1.0
    widths = (10, 15, 20)
    fractions = {}
    for lam_s in LAMBDA_S_FULL:
        pi = solutions20[("randomized", 20.0, lam_s, 100.0)][1].pi
        for width in widths:
            p = attack_success_probability(pi, space20, width)
            fractions[(lam_s, width)] = observable_fraction(p, lam_s, mu)[1]
    for width in (10, 15):  # the full-spectrum window pins the fraction to 1
        values = [fractions[(lam_s, width)] for lam_s in LAMBDA_S_FULL]
        assert all(b < a for a, b in zip(values, values[1:]))
    for lam_s in LAMBDA_S_FULL:
        values = [fractions[(lam_s, width)] for width in widths]
        assert all(b >= a for a, b in zip(values, values[1:]))

    # (d) the full spectrum window observes everything
    for lam_s in LAMBDA_S_FULL:
        assert fractions[(lam_s, 20)] == pytest.approx(1.0, abs=1e-12)

    # (e) capacity-100 Monte Carlo: the combined model loses at the lowest
    # load and wins for at least one moderate load
    loads100 = (10.0, 40.0, 60.0)
    configs = []
    for load in loads100:
        profile = DemandProfile.with_uniform_load(100, (5, 10, 15), load)
        shared = dict(arrivals=100_000, warmup=100.0, replications=5)
        configs.append(SimConfig(profile=profile, variant=ModelVariant.regular(),
                                 seed=4200, **shared))
        configs.append(SimConfig(profile=profile,
                                 variant=ModelVariant.randomized_defrag(1.0, 1000.0),
                                 seed=4300, **shared))
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_simulation, configs))
    gains = {}
    for i, load in enumerate(loads100):
        bp_reg = results[2 * i].overall_blocking.mean
        bp_comb = results[2 * i + 1].overall_blocking.mean
        gains[load] = (bp_reg - bp_comb) / bp_reg * 100.0
    assert gains[loads100[0]] < 0.0
    assert max(gains[l] for l in loads100[1:]) > 0.0
    print(
        "\nACCEPTANCE 7 PASS: trends hold "
        f"(gain at load {loads100[0]:.0f}: {gains[loads100[0]]:.0f}%, "
        f"at {loads100[1]:.0f}: {gains[loads100[1]]:+.0f}%, "
        f"at {loads100[2]:.0f}: {gains[loads100[2]]:+.0f}%)"
    )


def test_criterion_8_solver_contract(solutions20):
    worst_residual = 0.0
    worst_norm = 0.0
    worst_oracle = 0.0
    for rm, dist, _ in solutions20.values():
        assert rm.dimension <= 2000
        worst_residual = max(worst_residual, dist.residual)
        worst_norm = max(worst_norm, abs(float(dist.pi.sum()) - 1.0))
        assert float(dist.pi.min()) >= 0.0
        oracle = dense_stationary_oracle(rm)
        worst_oracle = max(worst_oracle, float(np.abs(dist.pi - oracle).max()))
    assert worst_residual <= 1e-10
    assert worst_norm <= 1e-12
    assert worst_oracle <= 1e-9
    print(
        f"\nACCEPTANCE 8 PASS: {len(solutions20)} cells, residual <= {worst_residual:.1e}, "
        f"norm error <= {worst_norm:.1e}, oracle gap <= {worst_oracle:.1e}"
    )


def test_criterion_9_deterministic_output(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "schema_version: 1\n"
        "profile: {capacity: 7, demands: [3, 4]}\n"
        "traffic: {loads: [2.0, 3.0]}\n"
        "sweep:\n"
        "  variants: [regular, randomized, randomized-defrag]\n"
        "  randomization_rates: [2.0]\n"
        "  reconfig_rates: [10.0]\n"
        "window_widths: [3, 7]\n"
        "engine: both\n"
        "sim: {arrivals: 5000, warmup: 10.0, replications: 2, seed: 909}\n"
        f"output: {{dir: '{tmp_path / 'out'}', basename: rerun, timestamp: false}}\n"
    )
    cfg = load_config(config)
    first_csv = run_experiments(cfg).csv_path.read_bytes()
    second = run_experiments(cfg)
    assert second.csv_path.read_bytes() == first_csv
    summary_a = second.summary_path.read_bytes()
    run_experiments(cfg)
    assert second.summary_path.read_bytes() == summary_a
    print("\nACCEPTANCE 9 PASS: byte-identical CSV and summary across reruns")
