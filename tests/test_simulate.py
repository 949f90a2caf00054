import math
import random
from collections import Counter

import pytest
from scipy.stats import chisquare
from scipy.stats import t as student_t

from eolsec import (
    DemandProfile,
    ModelVariant,
    SimConfig,
    SpaceOptions,
    assemble_generator,
    attack_success_probability,
    blocking_report,
    build_state_space,
    run_simulation,
    solve_stationary,
)
from eolsec import simulate
from eolsec.link import check_arrangement, defragmented, pattern, random_fit, shuffle
from eolsec.simulate import EventCounts, _t_quantile
from oracles import arrangements, is_defragmented


def shuffled(pat, profile, rng):
    """The simulator's randomization redraw, ``link.shuffle`` of the pattern's tokens."""
    tokens = [0] * (profile.capacity - sum(n * d for n, d in zip(pat, profile.demands)))
    for k, n in enumerate(pat, start=1):
        tokens.extend([k] * n)
    shuffle(tokens, rng.getrandbits)
    return tuple(tokens)


class TestSampling:
    def test_empty_pattern_is_all_free(self, profile7):
        rng = random.Random(1)
        for _ in range(5):
            assert shuffled((0, 0), profile7, rng) == (0,) * profile7.capacity
            assert defragmented([0] * 7, rng) == [0] * 7

    def test_uniform_over_pattern_group(self, profile7, space7):
        rng = random.Random(2024)
        draws = 100_000
        counts = Counter(shuffled((1, 0), profile7, rng) for _ in range(draws))
        members = [arrangements(space7)[i] for i in space7.pattern_groups[(1, 0)]]
        assert set(counts) == set(members)
        _, p_value = chisquare(list(counts.values()))
        assert p_value > 0.01

    def test_full_link_pattern_split(self, profile7, space7):
        rng = random.Random(7)
        counts = Counter(shuffled((1, 1), profile7, rng) for _ in range(20_000))
        assert set(counts) == {(1, 2), (2, 1)}
        for value in counts.values():
            assert value == pytest.approx(10_000, rel=0.05)

    def test_defragmented_two_targets_uniform(self, profile7, space7):
        rng = random.Random(99)
        states = arrangements(space7)
        start = list(states[space7.pattern_groups[(0, 1)][0]])
        counts = Counter(
            tuple(defragmented(start, rng)) for _ in range(20_000)
        )
        expected = {
            states[i]
            for i in space7.defrag_targets[space7.daas_patterns.index((0, 1))]
        }
        assert set(counts) == expected
        assert len(expected) == 2
        for value in counts.values():
            assert value == pytest.approx(10_000, rel=0.05)

    def test_defragmented_always_valid(self, profile7, space7):
        rng = random.Random(5)
        states = arrangements(space7)
        for pat in [(1, 0), (2, 0), (0, 1), (1, 1)]:
            for i in space7.pattern_groups[pat]:
                for _ in range(10):
                    arr = tuple(defragmented(states[i], rng))
                    check_arrangement(arr, profile7)
                    assert pattern(arr, profile7) == pat
                    assert is_defragmented(arr)

    def test_full_link_defrag_covers_whole_group(self, profile7, space7):
        rng = random.Random(3)
        seen = {tuple(defragmented([1, 2], rng)) for _ in range(200)}
        assert seen == {(1, 2), (2, 1)}


class TestConfigValidation:
    def test_needs_budget_or_horizon(self, profile7):
        with pytest.raises(ValueError):
            SimConfig(profile=profile7, variant=ModelVariant.regular())

    def test_warmup_within_horizon(self, profile7):
        with pytest.raises(ValueError):
            SimConfig(profile=profile7, variant=ModelVariant.regular(), horizon=5.0, warmup=5.0)

    def test_arrivals_budget_needs_traffic(self):
        silent = DemandProfile(7, (3, 4), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            SimConfig(profile=silent, variant=ModelVariant.regular(), arrivals=100)

    def test_window_width_bounds(self, profile7):
        with pytest.raises(ValueError):
            SimConfig(
                profile=profile7, variant=ModelVariant.regular(), horizon=10.0,
                window_widths=(9,),
            )


class TestRunSimulation:
    def test_no_traffic_means_no_arrivals(self):
        silent = DemandProfile(7, (3, 4), (0.0, 0.0), (1.0, 1.0))
        cfg = SimConfig(profile=silent, variant=ModelVariant.regular(), horizon=100.0)
        result = run_simulation(cfg)
        assert sum(result.counts.arrivals) == 0
        assert result.overall_blocking.mean == 0.0

    def test_deterministic_for_fixed_seed(self, profile7):
        cfg = SimConfig(
            profile=profile7,
            variant=ModelVariant.randomized_defrag(1.0, 10.0),
            arrivals=3000,
            warmup=10.0,
            replications=3,
            seed=1234,
            window_widths=(3, 5),
            debug_checks=True,
        )
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_seed_changes_results(self, profile7):
        base = dict(
            profile=profile7,
            variant=ModelVariant.randomized(1.0, 10.0),
            arrivals=2000,
            replications=2,
        )
        a = run_simulation(SimConfig(seed=1, **base))
        b = run_simulation(SimConfig(seed=2, **base))
        assert a.overall_blocking != b.overall_blocking

    def test_no_randomization_arrivals_matches_regular(self, profile7):
        shared = dict(profile=profile7, arrivals=20_000, warmup=20.0, replications=4, seed=77)
        off = run_simulation(
            SimConfig(variant=ModelVariant.randomized(0.0, 10.0), **shared)
        )
        regular = run_simulation(SimConfig(variant=ModelVariant.regular(), **shared))
        assert off.reconfiguration_blocking.mean == 0.0
        assert off.counts.randomizations_started == 0
        # identical seeds and zero randomization flow: the streams coincide
        assert off.overall_blocking.mean == pytest.approx(
            regular.overall_blocking.mean, abs=1e-12
        )

    def test_blocking_reconstructs_from_parts(self, profile7):
        cfg = SimConfig(
            profile=profile7,
            variant=ModelVariant.randomized_defrag(2.0, 10.0),
            arrivals=20_000,
            warmup=10.0,
            replications=3,
            seed=5,
        )
        result = run_simulation(cfg)
        lam = profile7.arrival_rates
        # per-replication recomposition holds, so it also holds for the means
        recomposed = result.reconfiguration_blocking.mean + sum(
            l * (rb.mean + fb.mean)
            for l, rb, fb in zip(lam, result.resource_blocking, result.fragmentation_blocking)
        ) / sum(lam)
        assert result.overall_blocking.mean == pytest.approx(recomposed, abs=1e-12)

    def test_estimates_within_ci_of_exact(self, profile7, space7):
        variant = ModelVariant.randomized_defrag(2.0, 10.0)
        dist = solve_stationary(assemble_generator(space7, profile7, variant))
        exact = blocking_report(dist, space7, profile7, variant)
        cfg = SimConfig(
            profile=profile7,
            variant=variant,
            arrivals=100_000,
            warmup=100.0,
            replications=5,
            seed=42,
            window_widths=(3,),
        )
        result = run_simulation(cfg)
        assert abs(result.overall_blocking.mean - exact.overall_blocking) <= result.overall_blocking.ci_half_width
        assert abs(result.reconfiguration_blocking.mean - exact.reconfiguration_blocking) <= result.reconfiguration_blocking.ci_half_width

        exact_p = attack_success_probability(dist.pi, space7, 3)
        est = result.attack_success[3]
        assert abs(est.mean - exact_p) <= est.ci_half_width

    def test_empty_link_randomizations_are_not_scored(self):
        # with randomize_empty the empty link is randomized too; like the
        # exact engine, p_sa averages over occupied links only
        profile = DemandProfile.with_uniform_load(7, (3, 4), 1.0)
        variant = ModelVariant.randomized(2.0, 10.0)
        space = build_state_space(profile, SpaceOptions(randomize_empty=True))
        dist = solve_stationary(assemble_generator(space, profile, variant))
        exact_p = attack_success_probability(dist.pi, space, 3)
        result = run_simulation(SimConfig(
            profile=profile, variant=variant, arrivals=5000, warmup=10.0, replications=4,
            seed=2, window_widths=(3,), randomize_empty=True,
        ))
        assert result.counts.randomizations_ignored_empty == 0
        est = result.attack_success[3]
        assert abs(est.mean - exact_p) <= 3 * est.ci_half_width

    def test_event_counts_skip_the_warmup(self):
        # the trajectory does not depend on the warmup, so the counts after
        # it are those of the whole run minus those of the warmup alone
        profile = DemandProfile.with_uniform_load(7, (3, 4), 2.0)
        shared = dict(profile=profile, variant=ModelVariant.randomized_defrag(2.0, 5.0),
                      replications=2, seed=11)
        measured = run_simulation(SimConfig(horizon=300.0, warmup=50.0, **shared)).counts
        whole = run_simulation(SimConfig(horizon=300.0, **shared)).counts
        warmup = run_simulation(SimConfig(horizon=50.0, **shared)).counts
        for name in EventCounts.__dataclass_fields__:
            got, total, early = (getattr(c, name) for c in (measured, whole, warmup))
            if isinstance(got, tuple):
                assert got == tuple(a - b for a, b in zip(total, early)), name
            else:
                assert early > 0, name
                assert got == total - early, name

    def test_windows_leave_trajectory_untouched(self, profile7):
        shared = dict(
            profile=profile7,
            variant=ModelVariant.randomized_defrag(2.0, 10.0),
            arrivals=5000,
            warmup=10.0,
            replications=2,
            seed=31,
        )
        bare = run_simulation(SimConfig(window_widths=(), **shared))
        scored = run_simulation(SimConfig(window_widths=(3, 5), **shared))
        assert scored.counts.defrags_started > 0
        assert scored.counts == bare.counts
        assert scored.resource_blocking == bare.resource_blocking
        assert scored.fragmentation_blocking == bare.fragmentation_blocking
        assert scored.reconfiguration_blocking == bare.reconfiguration_blocking
        assert scored.overall_blocking == bare.overall_blocking
        assert not math.isnan(scored.attack_success[3].mean)

    def test_windows_leave_trajectory_untouched_at_c100(self):
        # the benchmark's C=100 link, whose window time is measured as the
        # difference to the same run without windows
        shared = dict(
            profile=DemandProfile.with_uniform_load(100, (5, 10, 15), 60.0),
            variant=ModelVariant.randomized_defrag(5.0, 1000.0),
            arrivals=3000,
            warmup=10.0,
            replications=2,
            seed=7,
        )
        bare = run_simulation(SimConfig(window_widths=(), **shared))
        scored = run_simulation(SimConfig(window_widths=(25, 50, 100), **shared))
        assert scored.randomizations_scored > 0
        assert scored.counts == bare.counts
        assert scored.resource_blocking == bare.resource_blocking
        assert scored.fragmentation_blocking == bare.fragmentation_blocking
        assert scored.reconfiguration_blocking == bare.reconfiguration_blocking
        assert scored.overall_blocking == bare.overall_blocking

    def test_horizon_mode(self, profile7):
        cfg = SimConfig(
            profile=profile7,
            variant=ModelVariant.regular(),
            horizon=500.0,
            warmup=50.0,
            replications=2,
            seed=3,
        )
        result = run_simulation(cfg)
        assert sum(result.counts.arrivals) > 0

    def test_debug_checks_run_clean(self, profile7):
        cfg = SimConfig(
            profile=profile7,
            variant=ModelVariant.randomized_defrag(2.0, 5.0),
            arrivals=2000,
            replications=2,
            seed=6,
            debug_checks=True,
        )
        run_simulation(cfg)


    def test_debug_checks_catch_a_corrupted_state(self, profile7, monkeypatch):
        # placing every block at the first token overwrites connections;
        # the check raises (it is no assert, so it also runs under -O)
        def first_token(tokens, need, uniform):
            return 0 if random_fit(tokens, need, uniform) is not None else None

        monkeypatch.setattr(simulate, "random_fit", first_token)
        cfg = SimConfig(
            profile=profile7, variant=ModelVariant.regular(), arrivals=200, seed=6,
            debug_checks=True,
        )
        with pytest.raises(ValueError):
            run_simulation(cfg)

def test_t_quantile_matches_student_t():
    for n in (2, 3, 5, 10, 40, 1000):
        assert _t_quantile(n) == float(student_t.ppf(0.975, n - 1))
    assert math.isnan(_t_quantile(1))
