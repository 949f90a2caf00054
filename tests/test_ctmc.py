import numpy as np
import pytest
import scipy.sparse as sp

from eolsec import (
    DemandProfile,
    ModelVariant,
    NegativeStationaryMass,
    NotIrreducible,
    RateMatrix,
    VariantKind,
    assemble_generator,
    blocking_report,
    build_state_space,
    solve_stationary,
)
from eolsec import ctmc
from oracles import (
    dense_stationary_oracle,
    is_strongly_connected,
    lil_bordered_matrix,
    loop_generator,
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
    expected = space7.num_regular
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
    # independent dense least-squares route
    q = rm.matrix.toarray()
    a = np.vstack([q.T, np.ones((1, q.shape[0]))])
    b = np.zeros(q.shape[0] + 1)
    b[-1] = 1.0
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.abs(dist.pi - expected).max() <= 1e-9
    assert np.abs(dist.pi - dense_stationary_oracle(rm)).max() <= 1e-9


def test_solution_contract(space7, rates7):
    for variant in (
        ModelVariant.regular(),
        ModelVariant.randomized(0.7, 11.0),
        ModelVariant.randomized_defrag(0.7, 11.0),
    ):
        rm = assemble_generator(space7, rates7, variant)
        dist = solve_stationary(rm, tol=1e-10)
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

    shared = next(iter(space7.frag_blocked[0] & space7.frag_blocked[1]))
    raas_10 = n_sa + space7.raas_patterns.index((1, 0))
    daas_10 = n_sa + n_r + space7.daas_patterns.index((1, 0))
    assert q[shared, shared] == -(lam1 + lam2 + mu1 + lam_s)
    assert q[shared, daas_10] == lam1 + lam2
    assert q[shared, 0] == mu1
    assert q[shared, raas_10] == lam_s
    inflows = {i: q[i, shared] for i in range(rm.dimension) if q[i, shared] > 0 and i != shared}
    assert inflows == {0: lam1 / 5.0, raas_10: mu_d / 5.0}

    # randomization state of the full-link pattern: fed by its two members,
    # returns uniformly over them
    raas_11 = n_sa + space7.raas_patterns.index((1, 1))
    members = space7.pattern_groups[(1, 1)]
    for i in members:
        assert q[i, raas_11] == lam_s
        assert q[raas_11, i] == mu_d / 2.0
    assert q[raas_11, raas_11] == -mu_d

    # defrag state of the single-class-1 pattern: class-2 arrivals from the two
    # one-sided fragmented states plus both classes from the shared state
    frag2_only = sorted(space7.frag_blocked[1] - space7.frag_blocked[0])
    for i in frag2_only:
        assert q[i, daas_10] == lam2
    assert q[shared, daas_10] == lam1 + lam2
    targets = space7.defrag_targets[space7.daas_patterns.index((1, 0))]
    for j in targets:
        assert q[daas_10, j] == mu_d / 2.0
    assert q[daas_10, daas_10] == -mu_d


def test_reconfig_states_outflow_is_reconfig_rate_only(space7, rates7):
    rm = assemble_generator(space7, rates7, ModelVariant.randomized_defrag(0.7, 11.0))
    q = rm.matrix.toarray()
    for i in range(space7.num_regular, rm.dimension):
        assert -q[i, i] == pytest.approx(11.0, abs=1e-12)


def test_randomized_reduces_to_regular_without_randomization(space7, rates7):
    regular = assemble_generator(space7, rates7, ModelVariant.regular())
    reduced = assemble_generator(space7, rates7, ModelVariant.randomized(0.0, 50.0))
    block = reduced.matrix[: space7.num_regular, : space7.num_regular]
    assert abs((block - regular.matrix).toarray()).max() == 0.0

    dist = solve_stationary(reduced)
    report = blocking_report(dist, space7, rates7, ModelVariant.randomized(0.0, 50.0))
    base = blocking_report(solve_stationary(regular), space7, rates7, ModelVariant.regular())
    assert report.reconfiguration_blocking == 0.0
    assert report.overall_blocking == pytest.approx(base.overall_blocking, abs=1e-12)


def test_regular_variant_has_no_reconfig_blocking(space7, rates7):
    rm = assemble_generator(space7, rates7, ModelVariant.regular())
    report = blocking_report(solve_stationary(rm), space7, rates7, ModelVariant.regular())
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
        report = blocking_report(solve_stationary(rm), space7, rates7, variant)
        assert report.reconfiguration_blocking <= lam_s / mu_d + 1e-12


def test_flow_conservation_statewise(space7, rates7):
    variant = ModelVariant.randomized_defrag(0.7, 11.0)
    rm = assemble_generator(space7, rates7, variant)
    dist = solve_stationary(rm)
    q = rm.matrix.toarray()
    outflow = dist.pi * (-np.diag(q))
    inflow = dist.pi @ (q - np.diag(np.diag(q)))
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
    assert dist.pi[space7.num_regular:].max() == 0.0
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
    expected = loop_generator(space, rates, variant).matrix
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("variant", ASSEMBLY_VARIANTS, ids=lambda v: f"{v.kind.value}-{v.randomization_rate}")
def test_bordered_matrix_matches_lil_construction(variant, space14, monkeypatch):
    rm = assemble_generator(space14, space14.profile, variant)
    handed = []
    real_splu = ctmc.splu

    def capture(a, **kwargs):
        handed.append(a)
        return real_splu(a, **kwargs)

    monkeypatch.setattr(ctmc, "splu", capture)
    solve_stationary(rm)
    keep = ctmc._terminal_states(rm.matrix)
    q_sub = rm.matrix[np.ix_(keep, keep)] if len(keep) < rm.dimension else rm.matrix
    expected = lil_bordered_matrix(q_sub)
    got = handed[0]
    assert got.format == "csc"
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), name


def test_lu_fill_stays_near_generator_size():
    # C=22, demands (4,6,8), randomized-defrag: dim 2,986, nnz 28,909.  The
    # default COLAMD ordering of the bordered system fills about 106 x nnz(Q).
    profile = DemandProfile.with_uniform_load(22, (4, 6, 8), 14.0)
    space = build_state_space(profile)
    rm = assemble_generator(space, profile, ModelVariant.randomized_defrag(5.0, 100.0))
    dist = solve_stationary(rm)
    assert dist.nnz == rm.matrix.nnz
    assert dist.lu_nnz <= 25 * dist.nnz
    assert dist.residual <= 1e-10


def test_negative_mass_raises_typed_error(space7, rates7, monkeypatch):
    # -pi meets the residual gate (it solves pi Q = 0) but has negative mass
    real_splu = ctmc.splu

    class Negated:
        def __init__(self, lu):
            self.lu, self.L, self.U = lu, lu.L, lu.U

        def solve(self, rhs):
            return -self.lu.solve(rhs)

    monkeypatch.setattr(ctmc, "splu", lambda *a, **kw: Negated(real_splu(*a, **kw)))
    rm = assemble_generator(space7, rates7, ModelVariant.randomized(0.7, 11.0))
    with pytest.raises(NegativeStationaryMass, match="negative") as info:
        solve_stationary(rm)
    assert info.value.mass < 0.0
