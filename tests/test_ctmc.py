import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eolsec import (
    DemandProfile,
    ModelVariant,
    NegativeStationaryMass,
    NoConvergence,
    NotIrreducible,
    RateMatrix,
    SpaceOptions,
    VariantKind,
    assemble_generator,
    blocking_report,
    attack_success_probability,
    build_state_space,
    solve_stationary,
)
from eolsec import ctmc
from oracles import (
    closed_classes,
    dense_stationary_oracle,
    expand,
    is_strongly_connected,
    loop_generator,
    lu_stationary,
    lump,
    lumped_generator,
    lumped_rows,
    mirror_classes,
    mirror_images,
    scalar_attack_success,
    state_attack_success,
)


@pytest.fixture(scope="module")
def rates7():
    return DemandProfile(7, (3, 4), (2.0, 3.0), (1.5, 1.0))


@pytest.fixture(scope="module")
def space14(profile14):
    return build_state_space(profile14)


def test_variant_validation():
    with pytest.raises(ValueError):
        ModelVariant(VariantKind.REGULAR, randomization_rate=1.0)
    with pytest.raises(ValueError):
        ModelVariant.randomized(1.0, 0.0)
    v = ModelVariant.randomized_defrag(2.0, 10.0)
    assert v.has_randomization and v.has_defrag


@pytest.mark.parametrize("lambda_s, mu_d, got", [
    (float("nan"), 10.0, "nan and 10.0"),
    (1.0, float("inf"), "1.0 and inf"),
])
def test_variant_rates_must_be_finite(lambda_s, mu_d, got):
    for make in (ModelVariant.randomized, ModelVariant.randomized_defrag):
        with pytest.raises(ValueError) as error:
            make(lambda_s, mu_d)
        assert str(error.value) == f"randomization and reconfiguration rates must be finite, got {got}"
    with pytest.raises(ValueError, match=r"^randomization rate must be >= 0$"):
        ModelVariant.randomized(float("-inf"), 10.0)


def test_rejects_mismatched_profile(space7):
    other = DemandProfile(8, (3, 4), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        assemble_generator(space7, other, ModelVariant.regular())


@pytest.mark.parametrize(
    "variant",
    [
        ModelVariant.regular(),
        ModelVariant.randomized(0.7, 11.0),
        ModelVariant.randomized_defrag(0.7, 11.0),
    ],
)
def test_generator_shape_and_row_sums(space7, rates7, variant, profile7):
    rm = assemble_generator(space7, rates7, variant)
    expected = int(mirror_classes(space7).max()) + 1
    if variant.has_randomization:
        expected += space7.num_raas
    if variant.has_defrag:
        expected += space7.num_daas
    assert rm.dimension == expected
    dense = rm.matrix.toarray()
    assert np.abs(dense.sum(axis=1)).max() <= 1e-12
    off = dense - np.diag(np.diag(dense))
    assert off.min() >= 0.0
    assert is_strongly_connected(rm)


def test_two_state_birth_death():
    # capacity equals the demand: empty <-> full, pi(empty) = mu / (lambda + mu)
    profile = DemandProfile(3, (3,), (2.0,), (5.0,))
    space = build_state_space(profile)
    rm = assemble_generator(space, profile, ModelVariant.regular())
    dist = solve_stationary(rm)
    assert dist.pi[0] == pytest.approx(5.0 / 7.0, abs=1e-12)


def test_solution_matches_dense_oracle(space7, profile7):
    rm = assemble_generator(space7, profile7, ModelVariant.regular())
    dist = solve_stationary(rm)
    # independent dense least-squares route, on the unlumped generator
    full = loop_generator(space7, profile7, ModelVariant.regular())
    q = full.matrix.toarray()
    a = np.vstack([q.T, np.ones((1, q.shape[0]))])
    b = np.zeros(q.shape[0] + 1)
    b[-1] = 1.0
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = expand(space7, dist.pi)
    assert np.abs(pi - expected).max() <= 1e-9
    assert np.abs(pi - dense_stationary_oracle(full)).max() <= 1e-9


def test_solution_contract(space7, rates7):
    for variant in (
        ModelVariant.regular(),
        ModelVariant.randomized(0.7, 11.0),
        ModelVariant.randomized_defrag(0.7, 11.0),
    ):
        rm = assemble_generator(space7, rates7, variant)
        dist = solve_stationary(rm)
        assert dist.residual <= 1e-10
        assert abs(dist.pi.sum() - 1.0) <= 1e-12
        assert dist.pi.min() >= 0.0


def test_balance_equation_coefficients(space7):
    # the shared fragmented state: out (l1 + l2 + m1 + ls), in l1/5 and md/5
    lam1, lam2, mu1, lam_s, mu_d = 2.0, 3.0, 1.5, 0.7, 11.0
    profile = DemandProfile(7, (3, 4), (lam1, lam2), (mu1, 1.0))
    rm = assemble_generator(space7, profile, ModelVariant.randomized_defrag(lam_s, mu_d))
    q = rm.matrix.toarray()
    n_sa, n_r = space7.num_regular, space7.num_raas
    # the rows are mirror classes: a state's row is at[state]; the blocked
    # sets list rows
    at = lumped_rows(space7)

    (shared,) = np.intersect1d(space7.frag_blocked[0], space7.frag_blocked[1])
    raas_10 = at[n_sa + space7.raas_patterns.index((1, 0))]
    daas_10 = at[n_sa + n_r + space7.daas_patterns.index((1, 0))]
    assert q[shared, shared] == -(lam1 + lam2 + mu1 + lam_s)
    assert q[shared, daas_10] == lam1 + lam2
    assert q[shared, 0] == mu1
    assert q[shared, raas_10] == lam_s
    inflows = {i: q[i, shared] for i in range(rm.dimension) if q[i, shared] > 0 and i != shared}
    assert inflows == {0: lam1 / 5.0, raas_10: mu_d / 5.0}

    # randomization state of the full-link pattern: fed by its two members,
    # returns uniformly over them, which are one mirror class
    raas_11 = at[n_sa + space7.raas_patterns.index((1, 1))]
    (members,) = set(at[space7.pattern_groups[(1, 1)]])
    assert q[members, raas_11] == lam_s
    assert q[raas_11, members] == 2 * (mu_d / 2.0)
    assert q[raas_11, raas_11] == -mu_d

    # defrag state of the single-class-1 pattern: class-2 arrivals from the two
    # one-sided fragmented states (a mirror pair) plus both classes from the
    # shared state
    (frag2_only,) = np.setdiff1d(space7.frag_blocked[1], space7.frag_blocked[0])
    assert q[frag2_only, daas_10] == lam2
    assert q[shared, daas_10] == lam1 + lam2
    (targets,) = set(at[space7.defrag_targets[space7.daas_patterns.index((1, 0))]])
    assert q[daas_10, targets] == 2 * (mu_d / 2.0)
    assert q[daas_10, daas_10] == -mu_d


def test_reconfig_states_outflow_is_reconfig_rate_only(space7, rates7):
    rm = assemble_generator(space7, rates7, ModelVariant.randomized_defrag(0.7, 11.0))
    q = rm.matrix.toarray()
    reconfig = range(space7.transitions.regular, rm.dimension)
    assert len(reconfig) == space7.num_raas + space7.num_daas
    for i in reconfig:
        assert -q[i, i] == pytest.approx(11.0, abs=1e-12)


def test_randomized_reduces_to_regular_without_randomization(space7, rates7):
    regular = assemble_generator(space7, rates7, ModelVariant.regular())
    reduced = assemble_generator(space7, rates7, ModelVariant.randomized(0.0, 50.0))
    block = reduced.matrix[: regular.dimension, : regular.dimension]
    assert abs((block - regular.matrix).toarray()).max() == 0.0

    dist = solve_stationary(reduced)
    report = blocking_report(dist.pi, space7, rates7, ModelVariant.randomized(0.0, 50.0))
    base = blocking_report(solve_stationary(regular).pi, space7, rates7, ModelVariant.regular())
    assert report.reconfiguration_blocking == 0.0
    assert report.overall_blocking == pytest.approx(base.overall_blocking, abs=1e-12)


def test_regular_variant_has_no_reconfig_blocking(space7, rates7):
    rm = assemble_generator(space7, rates7, ModelVariant.regular())
    report = blocking_report(solve_stationary(rm).pi, space7, rates7, ModelVariant.regular())
    assert report.reconfiguration_blocking == 0.0
    lam = rates7.arrival_rates
    recomposed = sum(
        l * (r + f)
        for l, r, f in zip(lam, report.resource_blocking, report.fragmentation_blocking)
    ) / sum(lam)
    assert report.overall_blocking == pytest.approx(recomposed, abs=1e-15)


def test_reconfig_blocking_bounded_by_rate_ratio(space7, rates7):
    # time share in reconfiguration cannot exceed lam_s / mu_d
    for lam_s, mu_d in [(0.5, 10.0), (2.0, 10.0), (5.0, 100.0)]:
        variant = ModelVariant.randomized(lam_s, mu_d)
        rm = assemble_generator(space7, rates7, variant)
        report = blocking_report(solve_stationary(rm).pi, space7, rates7, variant)
        assert report.reconfiguration_blocking <= lam_s / mu_d + 1e-12


def test_flow_conservation_statewise(space7, rates7):
    variant = ModelVariant.randomized_defrag(0.7, 11.0)
    dist = solve_stationary(assemble_generator(space7, rates7, variant))
    # every state of the unlumped chain balances
    q = loop_generator(space7, rates7, variant).matrix.toarray()
    pi = expand(space7, dist.pi)
    outflow = pi * (-np.diag(q))
    inflow = pi @ (q - np.diag(np.diag(q)))
    assert np.abs(outflow - inflow).max() <= 1e-12


def test_not_irreducible_on_disconnected_chain():
    q = sp.csr_matrix(np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 2.0],
        [0.0, 0.0, 2.0, -2.0],
    ]))
    rm = RateMatrix(q)
    with pytest.raises(NotIrreducible):
        solve_stationary(rm)


def test_transient_reconfig_states_get_zero_mass(space7, rates7):
    # with no randomization arrivals the reconfiguration states are transient
    variant = ModelVariant.randomized(0.0, 50.0)
    rm = assemble_generator(space7, rates7, variant)
    assert not is_strongly_connected(rm)
    dist = solve_stationary(rm)
    assert dist.pi[space7.num_mirror_classes:].max() == 0.0
    assert expand(space7, dist.pi)[space7.num_regular:].max() == 0.0
    assert dist.residual <= 1e-10


ASSEMBLY_VARIANTS = [
    ModelVariant.regular(),
    ModelVariant.randomized(0.7, 11.0),
    ModelVariant.randomized(0.0, 11.0),
    ModelVariant.randomized_defrag(0.7, 11.0),
    ModelVariant.randomized_defrag(0.0, 3.0),
]


@pytest.mark.parametrize("variant", ASSEMBLY_VARIANTS, ids=lambda v: f"{v.kind.value}-{v.randomization_rate}")
@pytest.mark.parametrize("capacity", [7, 14])
def test_assembly_matches_loop_bit_for_bit(capacity, variant, space7, space14):
    space = space7 if capacity == 7 else space14
    demands = space.profile.demands
    rates = DemandProfile(
        capacity, demands,
        tuple(1.3 + 0.7 * k for k in range(len(demands))),
        tuple(1.0 + 0.5 * k for k in range(len(demands))),
    )
    got = assemble_generator(space, rates, variant).matrix
    expected = lumped_generator(space, loop_generator(space, rates, variant)).matrix
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), name


def test_assembly_sums_blocked_classes_left_to_right(space14):
    # a state blocked for all three classes enters its defrag state once per
    # class; (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit
    rates = DemandProfile(14, (2, 3, 4), (0.1, 0.2, 0.3), (1.0, 1.5, 2.0))
    variant = ModelVariant.randomized_defrag(0.7, 11.0)
    got = assemble_generator(space14, rates, variant).matrix
    expected = lumped_generator(space14, loop_generator(space14, rates, variant)).matrix
    assert (got.data == (0.1 + 0.2) + 0.3).any()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def test_negative_mass_raises_typed_error(space7, rates7):
    # -pi meets the residual gate (it solves pi Q = 0) but has negative mass
    rm = assemble_generator(space7, rates7, ModelVariant.randomized(0.7, 11.0))
    dist = solve_stationary(rm)
    with pytest.raises(NegativeStationaryMass, match="negative") as info:
        ctmc._distribution(-dist.pi, rm, dist.iterations)
    assert info.value.mass < 0.0


@pytest.fixture(scope="module")
def space22():
    # demands (4,6,8) at 14 Erlang: dim 2,945 to 2,986, nnz 20,585 to 28,909
    profile = DemandProfile.with_uniform_load(22, (4, 6, 8), 14.0)
    return profile, build_state_space(profile)


def test_route_follows_terminal_class_size(space7, rates7, space22):
    # one route at every size: a 15-state C=7 chain and a C=22 chain of
    # some 3,000 states both take BiCGSTAB and report its iterations
    small = solve_stationary(assemble_generator(space7, rates7, ModelVariant.randomized(0.7, 11.0)))
    profile, space = space22
    large = solve_stationary(assemble_generator(space, profile, ModelVariant.randomized_defrag(5.0, 100.0)))
    assert small.dimension < 100 < 1000 < large.dimension
    for dist in (small, large):
        assert dist.method == ctmc.SOLVER_METHOD
        assert dist.diagnostics() == {
            "method": ctmc.SOLVER_METHOD, "dimension": dist.dimension, "nnz": dist.nnz,
            "iterations": dist.iterations,
        }
        assert 0 < dist.iterations <= ctmc.KRYLOV_MAX_ITERATIONS
        assert dist.residual <= ctmc.SOLVER_TARGET


# Power sweeps of the former power-only solve on the 21 chains of the
# perfbench exact-sweep workload: C=20, demands (4,6,8), mu_d = 10.
PARENT_SWEEPS = {
    (8.0, "regular", 0.0): 300, (14.0, "regular", 0.0): 300, (20.0, "regular", 0.0): 300,
    (8.0, "randomized", 1.0): 300, (8.0, "randomized", 5.0): 400, (8.0, "randomized", 10.0): 650,
    (14.0, "randomized", 1.0): 300, (14.0, "randomized", 5.0): 400, (14.0, "randomized", 10.0): 700,
    (20.0, "randomized", 1.0): 300, (20.0, "randomized", 5.0): 400, (20.0, "randomized", 10.0): 700,
    (8.0, "randomized-defrag", 1.0): 300, (8.0, "randomized-defrag", 5.0): 400,
    (8.0, "randomized-defrag", 10.0): 700,
    (14.0, "randomized-defrag", 1.0): 300, (14.0, "randomized-defrag", 5.0): 450,
    (14.0, "randomized-defrag", 10.0): 700,
    (20.0, "randomized-defrag", 1.0): 300, (20.0, "randomized-defrag", 5.0): 450,
    (20.0, "randomized-defrag", 10.0): 750,
}


@pytest.fixture(scope="module")
def space20():
    return build_state_space(DemandProfile.with_uniform_load(20, (4, 6, 8), 1.0))


def test_work_below_the_power_only_solve(space20):
    # a BiCGSTAB iteration takes two products with (D Q)^T, a sweep of the
    # power-only solve one
    total = 0
    for (load, kind, lambda_s), parent in PARENT_SWEEPS.items():
        profile = DemandProfile.with_uniform_load(20, (4, 6, 8), load)
        variant = (ModelVariant.regular() if kind == "regular"
                   else ModelVariant(VariantKind(kind), lambda_s, 10.0))
        dist = solve_stationary(assemble_generator(space20, profile, variant))
        assert dist.residual <= ctmc.SOLVER_TARGET
        work = 2 * dist.iterations
        assert work < parent, (load, kind, lambda_s)
        total += work
    # 1,510 of 9,400 when pinned
    assert total < sum(PARENT_SWEEPS.values()) / 3


@pytest.mark.parametrize("variant", [
    kind(lambda_s, 1000.0)
    for kind in (ModelVariant.randomized, ModelVariant.randomized_defrag)
    for lambda_s in (10.0, 50.0)
], ids=lambda v: f"{v.kind.value}-{v.randomization_rate}")
@pytest.mark.parametrize("load", [0.5, 60.0])
def test_stiff_chains_match_lu(load, variant, space20):
    # the chains on which BiCGSTAB without restarts stalls near 1e-11
    profile = DemandProfile.with_uniform_load(20, (4, 6, 8), load)
    rm = assemble_generator(space20, profile, variant)
    lu, dist = lu_stationary(rm), solve_stationary(rm)
    assert dist.residual <= ctmc.SOLVER_TARGET

    def numbers(pi):
        report = blocking_report(pi, space20, profile, variant)
        return (
            report.overall_blocking, *report.resource_blocking, *report.fragmentation_blocking,
            *(attack_success_probability(pi, space20, w) for w in (10, 15, 20)),
        )

    assert numbers(dist.pi) == pytest.approx(numbers(lu), rel=1e-9, abs=0.0)


@pytest.fixture(scope="module")
def space24():
    return build_state_space(DemandProfile.with_uniform_load(24, (4, 6, 8), 1.0))


@pytest.mark.parametrize("load, variant", [
    (0.1, ModelVariant.randomized(50.0, 1.0)),
    (0.1, ModelVariant.randomized(50.0, 10.0)),
    (0.02, ModelVariant.randomized(100.0, 1.0)),
    (0.02, ModelVariant.randomized_defrag(100.0, 3.0)),
], ids=lambda v: f"{v.kind.value}-{v.randomization_rate}-{v.reconfig_rate}" if isinstance(v, ModelVariant) else str(v))
def test_tiny_masses_are_not_negative_at_low_load(load, variant, space24):
    # states of mass near 1e-18 whose error at the residual target reads
    # below -1e-14: the solve iterates on until none does
    profile = DemandProfile.with_uniform_load(24, (4, 6, 8), load)
    rm = assemble_generator(space24, profile, variant)
    lu, dist = lu_stationary(rm), solve_stationary(rm)
    assert lu.min() < 1e-17
    assert dist.residual <= ctmc.SOLVER_TARGET
    assert np.abs(dist.pi - lu).max() <= 1e-10


POWER_VARIANTS = [ModelVariant.regular()] + [
    kind(lam_s, mu_d)
    for kind in (ModelVariant.randomized, ModelVariant.randomized_defrag)
    for lam_s in (0.5, 1.0, 5.0, 10.0)
    for mu_d in (1.0, 10.0, 100.0, 1000.0)
]


@pytest.mark.parametrize("variant", POWER_VARIANTS,
                         ids=lambda v: f"{v.kind.value}-{v.randomization_rate}-{v.reconfig_rate}")
def test_power_route_matches_lu_at_c22(variant, space22):
    profile, space = space22
    rm = assemble_generator(space, profile, variant)
    lu, dist = lu_stationary(rm), solve_stationary(rm)
    assert np.abs(lu @ rm.matrix).max() <= 1e-10
    assert dist.residual <= 1e-10
    widths = (10, 15, 22) if variant.has_randomization else ()

    def numbers(pi):
        report = blocking_report(pi, space, profile, variant)
        return (
            report.overall_blocking, *report.resource_blocking, *report.fragmentation_blocking,
            *(attack_success_probability(pi, space, w) for w in widths),
        )

    assert numbers(dist.pi) == pytest.approx(numbers(lu), rel=1e-9, abs=0.0)


@st.composite
def small_chains(draw):
    """A random link with C <= 9 and K <= 3 under a random variant.

    Zero arrival rates and lambda_S = 0 leave transient states, and with
    no traffic at all the terminal class is the empty link alone.
    """
    capacity = draw(st.integers(1, 9))
    demands = tuple(sorted(draw(st.sets(st.integers(1, capacity), min_size=1, max_size=3))))
    rate = st.one_of(st.just(0.0), st.floats(0.1, 5.0))
    profile = DemandProfile(
        capacity, demands,
        tuple(draw(rate) for _ in demands),
        tuple(draw(st.floats(0.5, 2.0)) for _ in demands),
    )
    kind = draw(st.sampled_from(list(VariantKind)))
    if kind is VariantKind.REGULAR:
        return profile, ModelVariant.regular()
    return profile, ModelVariant(kind, draw(rate), draw(st.floats(1.0, 1000.0)))


@settings(max_examples=200, deadline=None)
@given(small_chains())
def test_power_route_matches_dense_oracle(chain):
    profile, variant = chain
    space = build_state_space(profile)
    dist = solve_stationary(assemble_generator(space, profile, variant))
    assert dist.method == ctmc.SOLVER_METHOD
    assert dist.residual <= 1e-10
    assert dist.residual <= ctmc.SOLVER_TARGET
    # the unlumped chain's solution
    full = dense_stationary_oracle(loop_generator(space, profile, variant))
    assert np.abs(expand(space, dist.pi) - full).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(small_chains())
def test_generator_rows_sum_to_zero(chain):
    profile, variant = chain
    q = assemble_generator(build_state_space(profile), profile, variant).matrix
    diagonal = q.diagonal()
    off = q - sp.diags(diagonal)
    assert off.nnz == 0 or off.data.min() >= 0.0
    assert (np.abs(np.asarray(q.sum(axis=1)).ravel()) <= 1e-13 * np.abs(diagonal)).all()


@settings(max_examples=300, deadline=None)
@given(small_chains(), st.booleans())
def test_assembly_matches_loop_bit_for_bit_with_zero_rates(chain, randomize_empty):
    # zero rates drop their entries, and rows without outflow their
    # diagonal; assembling again from the shared structure gives the same
    profile, variant = chain
    space = build_state_space(profile, SpaceOptions(randomize_empty=randomize_empty))
    expected = lumped_generator(space, loop_generator(space, profile, variant)).matrix
    first, second = (assemble_generator(space, profile, variant).matrix for _ in range(2))
    for got in (first, second):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


@settings(max_examples=200, deadline=None)
@given(small_chains(), st.floats(1.0, 1000.0))
def test_randomized_without_randomization_reports_regular_blocking(chain, mu_d):
    profile, _ = chain
    space = build_state_space(profile)
    reports = [
        blocking_report(solve_stationary(assemble_generator(space, profile, v)).pi, space, profile, v)
        for v in (ModelVariant.regular(), ModelVariant.randomized(0.0, mu_d))
    ]
    regular, randomized = reports
    assert randomized.reconfiguration_blocking == 0.0
    for name in ("resource_blocking", "fragmentation_blocking"):
        assert getattr(randomized, name) == pytest.approx(getattr(regular, name), rel=0.0, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(small_chains(), st.floats(1.0, 1000.0))
def test_rescaling_matches_a_direct_solve(chain, mu_d):
    profile, variant = chain
    assume(variant.has_randomization)
    space = build_state_space(profile)
    rm = assemble_generator(space, profile, replace(variant, reconfig_rate=mu_d))
    reference = solve_stationary(assemble_generator(space, profile, variant))
    rescaled = ctmc.rescale_reconfiguration(
        reference, rm, space.num_mirror_classes, variant.reconfig_rate / mu_d
    )
    assert rescaled.residual <= 1e-10
    assert np.abs(rescaled.pi - solve_stationary(rm).pi).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(small_chains(), st.booleans())
def test_chain_is_mirror_symmetric(chain, randomize_empty):
    # reversing the slot order maps the unlumped chain onto itself: the
    # basis of lumping each state with its mirror image
    profile, variant = chain
    space = build_state_space(profile, SpaceOptions(randomize_empty=randomize_empty))
    q = loop_generator(space, profile, variant).matrix.tocsr()
    # the reconfiguration states, after the regular ones, are their own mirror
    mirror = np.arange(q.shape[0])
    mirror[:space.num_regular] = mirror_images(space)

    off = q - sp.diags(q.diagonal())
    assert (off[mirror][:, mirror] != off).nnz == 0
    assert np.array_equal(space.lumped, mirror_classes(space))
    # the scalar kernel's scores, and the engine's on every member of a class
    regular = mirror[:space.num_regular]
    for width in range(1, profile.capacity + 1):
        scores = scalar_attack_success(space, width)
        assert (scores[regular] == scores).all()
        assert np.array_equal(state_attack_success(space, width), scores)


@settings(max_examples=200, deadline=None)
@given(small_chains(), st.booleans())
def test_lumped_solution_is_the_unlumped_one(chain, randomize_empty):
    # direct solves of the lumped and the unlumped generator agree, and
    # the solution on the states gives a state and its mirror image the
    # same mass exactly
    profile, variant = chain
    space = build_state_space(profile, SpaceOptions(randomize_empty=randomize_empty))
    rm = assemble_generator(space, profile, variant)
    full = loop_generator(space, profile, variant)
    for oracle in (lu_stationary, dense_stationary_oracle):
        assert np.abs(expand(space, oracle(rm)) - oracle(full)).max() <= 1e-12
    pi = solve_stationary(rm).pi
    regular = expand(space, pi)[:space.num_regular]
    assert (regular[mirror_images(space)] == regular).all()
    # expanding splits a class's mass exactly
    assert np.array_equal(lump(space, expand(space, pi)), pi)


@st.composite
def digraph_generators(draw):
    """The generator of a random sparse digraph with positive rates.

    It may have several closed classes, states without outflow (one-state
    classes) and a state 0 that nothing enters, so that it is transient.
    """
    n = draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(state, state), min_size=n, max_size=4 * n))
    if n > 1 and draw(st.booleans()):
        edges = {(i, j) for i, j in edges if j != 0} | {(0, draw(st.integers(1, n - 1)))}
    if draw(st.booleans()):
        absorbing = draw(state)
        edges = {(i, j) for i, j in edges if i != absorbing}
    edges = sorted((i, j) for i, j in edges if i != j)
    rates = [draw(st.floats(0.01, 100.0)) for _ in edges]
    off = sp.csr_matrix((rates, ([i for i, _ in edges], [j for _, j in edges])), shape=(n, n))
    return off - sp.diags(np.asarray(off.sum(axis=1)).ravel())


def check_terminal_states(q):
    classes = closed_classes(q)
    if len(classes) == 1:
        assert np.array_equal(ctmc._terminal_states(q, q.T.tocsr()), classes[0])
    else:
        with pytest.raises(NotIrreducible, match="^more than one closed communicating class$"):
            ctmc._terminal_states(q, q.T.tocsr())
    return classes


@settings(max_examples=300, deadline=None)
@given(digraph_generators())
def test_terminal_states_match_components_on_digraphs(q):
    check_terminal_states(q)


@settings(max_examples=200, deadline=None)
@given(small_chains())
def test_terminal_states_match_components_on_chains(chain):
    profile, variant = chain
    q = assemble_generator(build_state_space(profile), profile, variant).matrix
    classes = check_terminal_states(q)
    assert len(classes) == 1 and classes[0][0] == 0


def test_terminal_states_cases():
    # state 0 transient, a one-state class, and two closed classes
    chains = {
        "0 -> 1 <-> 2": ([(0, 1), (1, 2), (2, 1)], [1, 2]),
        "1 <- 0 -> 2 -> 1": ([(0, 1), (0, 2), (2, 1)], [1]),
        "0 -> 1, 0 -> 2": ([(0, 1), (0, 2)], None),
    }
    for name, (edges, closed) in chains.items():
        off = sp.csr_matrix(([1.0] * len(edges), tuple(zip(*edges))), shape=(3, 3))
        q = off - sp.diags(np.asarray(off.sum(axis=1)).ravel())
        if closed is None:
            with pytest.raises(NotIrreducible):
                ctmc._terminal_states(q, q.T.tocsr())
        else:
            assert ctmc._terminal_states(q, q.T.tocsr()).tolist() == closed, name
        check_terminal_states(q)


def test_terminal_states_skip_explicit_zeros():
    # 0 <-> 1 and 2 -> 0, with a stored zero at (0, 2): were it an edge,
    # all three states would form one class
    q = sp.csr_matrix(([-1.0, 1.0, 0.0, 1.0, -1.0, 1.0, -1.0], [0, 1, 2, 0, 1, 0, 2], [0, 3, 5, 7]), shape=(3, 3))
    assert q.nnz == 7
    assert ctmc._terminal_states(q, q.T.tocsr()).tolist() == [0, 1]
    assert q.nnz == 7  # the caller's matrix keeps its entries


def test_power_sweep_cap_raises_no_convergence(space7, rates7, monkeypatch):
    rm = assemble_generator(space7, rates7, ModelVariant.randomized_defrag(0.7, 11.0))
    dist = solve_stationary(rm)
    assert 1 < dist.iterations <= ctmc.KRYLOV_MAX_ITERATIONS
    assert dist.residual <= ctmc.SOLVER_TARGET
    monkeypatch.setattr(ctmc, "KRYLOV_MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergence, match=r"after 1 BiCGSTAB iterations$") as info:
        solve_stationary(rm)
    assert info.value.iterations == 1
    assert info.value.residual > ctmc.SOLVER_TARGET
    again = pickle.loads(pickle.dumps(info.value))
    assert str(again) == str(info.value)
