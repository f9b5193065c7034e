import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltvkit import (LambdaSchedule, LtvModel, NoiseConfig, SingularBlock,
                    SingularSystem, SizeGuard, SmdConfig, SolveOptions, TrajectoryDataset,
                    assemble_stacked, build_system, cosmic_solve, cost, generate_dataset,
                    gradient, oracle_solve, predicted_multiply_count, sbcd_solve, smd_model)

from _cases import (ILL_SCALED_SCHEDULES, confined_dataset, dense_normal_matrix,
                    dense_reference_solution, drifting_plant, hand_instance,
                    ill_scaled_instance, mp_reference, random_dataset, random_instance,
                    relative_gap)


def zero_instance():
    """All-zero scalar dataset; the normal matrix keeps the constant-sequence kernel."""
    ds = TrajectoryDataset.build(1, 0, [([0.0, 0.0, 0.0], None)])
    return assemble_stacked(ds), LambdaSchedule.scalar(1.0)


def scaled_gap(c_a, c_b):
    return float(np.linalg.norm(c_a - c_b)) / (1.0 + float(np.linalg.norm(c_b)))


# ---------------------------------------------------------------- assembly


def test_build_system_hand_blocks():
    data, sched = hand_instance(lam=1.0)
    system = build_system(data, sched)
    assert_allclose(system.skk[:, 0, 0], [2.0, 5.0])
    assert_allclose(system.theta[:, 0, 0], [2.0, 12.0])
    assert_allclose(system.lam, [1.0])


def test_build_system_zero_data_keeps_stencil_only():
    ds = TrajectoryDataset.build(2, 0, [(np.zeros((6, 2)), None)])
    sched = LambdaSchedule.per_instant([1.0, 2.0, 3.0, 4.0])
    system = build_system(assemble_stacked(ds), sched)
    eye = np.eye(2)
    for k, shift in enumerate([1.0, 3.0, 5.0, 7.0, 4.0]):
        assert_allclose(system.skk[k], shift * eye)
    assert_allclose(system.theta, 0.0)


def test_build_system_matches_dense_assembly():
    rng = np.random.default_rng(12)
    data, sched = random_instance(rng, n_lo=4, n_hi=8)
    system = build_system(data, sched)
    full = dense_normal_matrix(data, sched)
    m = data.width
    lam = sched.materialize(data.N)
    for k in range(data.N):
        sl = slice(k * m, (k + 1) * m)
        assert_allclose(system.skk[k], full[sl, sl], rtol=1e-12, atol=1e-12)
        if k > 0:
            prev = slice((k - 1) * m, k * m)
            assert_allclose(full[sl, prev], -lam[k - 1] * np.eye(m), atol=1e-14)
            assert_allclose(full[prev, sl], full[sl, prev].T, atol=0)


def test_build_system_blocks_are_symmetric():
    rng = np.random.default_rng(13)
    data, sched = random_instance(rng)
    skk = build_system(data, sched).skk
    scale = float(np.max(np.abs(skk)))
    assert_allclose(skk, np.swapaxes(skk, 1, 2), atol=1e-14 * scale)


def wide_instance(n, lam=1e3):
    """Data of a p = 8, q = 4 drifting plant over L = 24 noisy trajectories."""
    plant = drifting_plant(np.random.default_rng(0), 8, 4, n)
    dataset = generate_dataset(plant, 24, noise=NoiseConfig(sigma=0.01, seed=2), seed=1)
    return assemble_stacked(dataset), LambdaSchedule.scalar(lam)


def test_gram_blocks_are_exactly_symmetric():
    # np.linalg.inv reads both triangles of a pivot, so a Gram block that is
    # symmetric only to rounding would pass unnoticed through the solve.
    smd = assemble_stacked(generate_dataset(smd_model(SmdConfig(N=2500)), 6,
                                            noise=NoiseConfig(sigma=0.06, seed=1), seed=0))
    for data, sched in ((smd, LambdaSchedule.scalar(1e5)), wide_instance(2000)):
        skk = build_system(data, sched).skk
        assert np.array_equal(skk, skk.swapaxes(1, 2))


def test_build_system_matches_per_instant_products():
    data, _ = wide_instance(300)
    sched = LambdaSchedule.zoned([(1, 1e3), (100, 1e-2), (200, 1e5)])
    system = build_system(data, sched)
    lam = np.concatenate([[0.0], sched.materialize(data.N), [0.0]])
    eye = np.eye(data.width)
    gram = np.stack([d.T @ d + (lam[k] + lam[k + 1]) * eye for k, d in enumerate(data.D)])
    theta = np.stack([d.T @ x.T for d, x in zip(data.D, data.Xnext)])
    assert relative_gap(system.skk, gram) <= 1e-14
    assert relative_gap(system.theta, theta) <= 1e-14


def test_tridiagonal_system_shape_validation():
    with pytest.raises(ValueError, match="disagree on the horizon"):
        from ltvkit import TridiagonalSystem
        TridiagonalSystem(skk=np.zeros((3, 2, 2)), lam=np.zeros(1),
                          theta=np.zeros((3, 2, 1)))


# ---------------------------------------------------------------- closed form


def test_cosmic_hand_solution():
    data, sched = hand_instance(lam=1.0)
    report = cosmic_solve(data, sched)
    assert_allclose(report.model.C.ravel(), [22.0 / 9.0, 26.0 / 9.0], rtol=1e-12)
    assert report.iterations == 1
    assert not report.preconditioned
    assert report.final_cost == pytest.approx(
        cost(report.model, data, sched), rel=1e-12)


def test_cosmic_exact_fit_recovery():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(2, 2)) * 0.4
    b = rng.normal(size=(2, 1))
    pairs = []
    for _ in range(3):
        x = np.empty((9, 2))
        x[0] = rng.normal(size=2)
        u = rng.normal(size=(8, 1))
        for k in range(8):
            x[k + 1] = a @ x[k] + b @ u[k]
        pairs.append((x, u))
    data = assemble_stacked(TrajectoryDataset.build(2, 1, pairs))
    truth = LtvModel.constant(a, b, 8)
    for lam in (1e-3, 10.0):
        model = cosmic_solve(data, LambdaSchedule.scalar(lam)).model
        assert_allclose(model.C, truth.C, atol=1e-10)


def test_cosmic_matches_dense_reference():
    rng = np.random.default_rng(15)
    for _ in range(10):
        data, sched = random_instance(rng, n_hi=20)
        report = cosmic_solve(data, sched)
        c_ref = dense_reference_solution(data, sched)
        assert scaled_gap(report.model.C, c_ref) <= 1e-8
        theta_norm = float(np.linalg.norm(build_system(data, sched).theta))
        assert report.gradient_norm <= 1e-8 * (1 + theta_norm)


def test_cosmic_matches_oracle_route():
    rng = np.random.default_rng(16)
    for _ in range(6):
        data, sched = random_instance(rng, n_hi=25)
        rc = cosmic_solve(data, sched)
        ro = oracle_solve(data, sched)
        assert scaled_gap(rc.model.C, ro.model.C) <= 1e-8
        assert rc.final_cost == pytest.approx(ro.final_cost, rel=1e-9)


def sequential_sweep(system):
    """Reference block LU in time order: pivots and solution, one instant at a time."""
    lam = system.lam
    pivots = [system.skk[0].copy()]
    y = [np.linalg.solve(pivots[0], system.theta[0])]
    for k in range(1, system.skk.shape[0]):
        pk = system.skk[k] - lam[k - 1] ** 2 * np.linalg.inv(pivots[k - 1])
        pivots.append(pk)
        y.append(np.linalg.solve(pk, system.theta[k] + lam[k - 1] * y[k - 1]))
    c = [None] * len(y)
    c[-1] = y[-1]
    for k in range(len(y) - 2, -1, -1):
        c[k] = y[k] + lam[k] * np.linalg.solve(pivots[k], c[k + 1])
    return pivots, np.stack(c)


def test_forward_pivots_stay_positive_definite():
    rng = np.random.default_rng(17)
    data, sched = random_instance(rng, n_lo=5, n_hi=12)
    pivots, c = sequential_sweep(build_system(data, sched))
    for pk in pivots:
        w = np.linalg.eigvalsh(0.5 * (pk + pk.T))
        assert w[0] > 0.0
    report = cosmic_solve(data, sched)
    assert scaled_gap(report.model.C, c) <= 1e-9


def test_cyclic_reduction_matches_sequential_sweep_on_smd():
    data = assemble_stacked(generate_dataset(smd_model(SmdConfig(N=2500)), 6,
                                             noise=NoiseConfig(sigma=0.06, seed=1), seed=0))
    for lam in (1e-3, 1e5):
        sched = LambdaSchedule.scalar(lam)
        _, c = sequential_sweep(build_system(data, sched))
        gap = np.linalg.norm(cosmic_solve(data, sched).model.C - c) / np.linalg.norm(c)
        assert gap <= 1e-12


def test_singular_instances_are_reported():
    data, sched = zero_instance()
    with pytest.raises(SingularBlock) as info:
        cosmic_solve(data, sched)
    assert info.value.instant == 1
    with pytest.raises(SingularSystem):
        oracle_solve(data, sched)


def test_singular_block_names_the_original_instant():
    """Zero data leave the lambda-weighted chain Laplacian, singular only in
    its last pivot.  Cyclic reduction eliminates that pivot last: at the
    highest power of two not above N, minus one."""
    for n, instant in ((2, 1), (3, 1), (4, 3), (5, 3), (7, 3), (8, 7), (9, 7), (17, 15)):
        ds = TrajectoryDataset.build(1, 0, [(np.zeros(n + 1), None)])
        with pytest.raises(SingularBlock) as info:
            cosmic_solve(assemble_stacked(ds), LambdaSchedule.scalar(1.0))
        assert info.value.instant == instant
    # Each rank-one sample at 1e9 makes its instant's block singular beside
    # lambda = 1e-3, while the other pivots are fine.  Cyclic reduction
    # names the smallest bad instant of its first failing level (the even
    # instants first), SBCD the first bad instant in time order.
    for bad, cosmic_instant, sbcd_instant in (((2,), 2, 2), ((2, 4), 2, 2), ((3, 4), 4, 3)):
        states = np.ones((6, 2))
        states[list(bad)] = 1e9
        data = assemble_stacked(TrajectoryDataset.build(2, 0, [(states, None)]))
        sched = LambdaSchedule.scalar(1e-3)
        with pytest.raises(SingularBlock) as info:
            cosmic_solve(data, sched)
        assert info.value.instant == cosmic_instant
        with pytest.raises(SingularBlock) as info:
            sbcd_solve(data, sched)
        assert info.value.instant == sbcd_instant


def test_largest_accepted_lambda_does_not_overflow():
    """The schedule bound keeps lambda^2 finite, so no overflow warning.

    At such weights the data's Gram diagonal lies far below lambda * eps and
    is lost, so the last pivot's diagonal cancels and the solve may end in
    SingularBlock; it must not end in a floating-point warning.
    """
    data = assemble_stacked(generate_dataset(smd_model(SmdConfig(N=100)), 6, noise=None, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = cosmic_solve(data, LambdaSchedule.scalar(math.sqrt(sys.float_info.max)))
        except SingularBlock:
            return
    assert np.all(np.isfinite(report.model.C))


def test_rank_deficient_data_always_raise_singular_block():
    """Confined data leave the whole normal matrix singular, whatever lambda.

    Kept case 166 (p = 3, q = 0, N = 5) at lambda = 1e-3 has a pivot with
    Cholesky diagonals about (1.87, 1.29, 2.98e-8): spread by less than
    sqrt(1/eps), yet singular enough that np.linalg.inv raises LinAlgError.
    """
    rng = np.random.default_rng(12345)
    family = []
    for _ in range(300):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(0, 3))
        if p + q < 2:
            continue
        n = int(rng.integers(3, 40))
        family.append(((p, q, n), assemble_stacked(confined_dataset(rng, p, q, n, p + q + 2))))
    assert len(family) == 278 and family[166][0] == (3, 0, 5)
    for _, data in family:
        for lam in (1e-3, 1.0, 1e3):
            with pytest.raises(SingularBlock):
                cosmic_solve(data, LambdaSchedule.scalar(lam))


def test_oracle_size_guard():
    data, sched = hand_instance()
    with pytest.raises(SizeGuard) as info:
        oracle_solve(data, sched, dense_limit=1)
    assert info.value.size == 2
    assert info.value.limit == 1


def test_solve_options_validation():
    with pytest.raises(ValueError, match="off/on/auto"):
        SolveOptions(precondition="sometimes")


# ---------------------------------------------------------------- limits


def test_huge_lambda_approaches_pooled_fit():
    rng = np.random.default_rng(18)
    data = assemble_stacked(random_dataset(rng, 2, 1, 8, 6))
    model = cosmic_solve(data, LambdaSchedule.scalar(1e12)).model
    rows = data.D.reshape(-1, 3)
    targets = np.transpose(data.Xnext, (0, 2, 1)).reshape(-1, 2)
    pooled = np.linalg.lstsq(rows, targets, rcond=None)[0]
    for k in range(8):
        for j in range(k):
            gap = np.linalg.norm(model.C[k] - model.C[j])
            assert gap <= 1e-4 * (1 + np.linalg.norm(model.C[j]))
        assert np.linalg.norm(model.C[k] - pooled) <= 1e-4 * (1 + np.linalg.norm(pooled))


def test_tiny_lambda_approaches_per_instant_fit():
    rng = np.random.default_rng(19)
    data = assemble_stacked(random_dataset(rng, 2, 1, 6, 5))
    model = cosmic_solve(data, LambdaSchedule.scalar(1e-12)).model
    for k in range(6):
        local = np.linalg.lstsq(data.D[k], data.Xnext[k].T, rcond=None)[0]
        assert np.linalg.norm(model.C[k] - local) <= 1e-4 * (1 + np.linalg.norm(local))


# ---------------------------------------------------------------- scaling


def test_preconditioning_identity_data():
    ones = np.ones(5)
    ds = TrajectoryDataset.build(1, 1, [(ones, np.zeros(4)), (np.zeros(5), np.ones(4))])
    data = assemble_stacked(ds)
    sched = LambdaSchedule.per_instant([0.5, 2.0, 4.0])
    system = build_system(data, sched)
    for k, shift in enumerate([0.5, 2.5, 6.0, 4.0]):
        assert_allclose(system.skk[k], (1.0 + shift) * np.eye(2), atol=1e-14)


@pytest.mark.parametrize("ratio", [1e6, 1e8, 1e10, 1e12], ids=["1e6", "1e8", "1e10", "1e12"])
def test_cosmic_solve_handles_ill_scaling(ratio):
    data, sched = ill_scaled_instance(ratio)
    report = cosmic_solve(data, sched)
    theta_norm = float(np.linalg.norm(build_system(data, sched).theta))
    assert report.gradient_norm <= 1e-6 * (1 + theta_norm)


@pytest.mark.parametrize("schedule", list(ILL_SCALED_SCHEDULES))
@pytest.mark.parametrize("ratio", [1e8, 1e10, 1e12], ids=["1e8", "1e10", "1e12"])
def test_ill_scaled_forward_error_against_mpmath(ratio, schedule):
    """Forward error of the closed form against a 60-digit reference.

    The pivot test judges each pivot rescaled to unit diagonal, so an
    ill-scaled state coordinate neither fails the solve nor costs accuracy.
    The zoned schedule's 1e8 spread between weights bounds it less tightly.
    """
    data, _ = ill_scaled_instance(ratio, n=12, seed=0, process_noise=0.01)
    sched = ILL_SCALED_SCHEDULES[schedule]
    ref = mp_reference(data, sched)
    err = np.linalg.norm(cosmic_solve(data, sched).model.C - ref) / np.linalg.norm(ref)
    assert err <= (1e-10 if schedule == "zoned" else 1e-12)


# ---------------------------------------------------------------- counting


def test_multiply_count_depends_on_shapes_only():
    rng = np.random.default_rng(22)
    sched = LambdaSchedule.scalar(0.2)
    data1 = assemble_stacked(random_dataset(rng, 2, 1, 9, 5))
    data2 = assemble_stacked(random_dataset(rng, 2, 1, 9, 5))
    r1a = cosmic_solve(data1, sched)
    r1b = cosmic_solve(data1, sched)
    r2 = cosmic_solve(data2, sched)
    assert r1a.multiply_count == r1b.multiply_count == r2.multiply_count
    assert r1a.multiply_count > 0
    assert r1a.multiply_forward > 0
    assert r1a.multiply_backward > 0
    s1, s2 = (sbcd_solve(data, sched, epsilon=1e-300, max_iters=2) for data in (data1, data2))
    assert s1.iterations == s2.iterations == 2
    assert s1.multiply_count == s2.multiply_count > 0


def test_accounting_mode_matches_closed_form_count():
    rng = np.random.default_rng(23)
    for p, q, n in ((2, 1, 12), (1, 0, 5), (3, 2, 7), (1, 2, 30)):
        data = assemble_stacked(random_dataset(rng, p, q, n, p + q + 1))
        report = cosmic_solve(data, LambdaSchedule.scalar(1.0),
                              SolveOptions(accounting=True))
        predicted = predicted_multiply_count(n, p, q)
        assert report.multiply_count == predicted.total
        assert report.multiply_forward == predicted.forward
        assert report.multiply_backward == predicted.backward


def test_report_agrees_with_public_objective():
    rng = np.random.default_rng(28)
    small, small_sched = random_instance(rng, n_hi=12)
    wide, wide_sched = wide_instance(30, lam=1.0)
    for data, sched in ((small, small_sched), (wide, wide_sched)):
        for report in (cosmic_solve(data, sched), oracle_solve(data, sched),
                       sbcd_solve(data, sched, max_iters=20, seed=0)):
            assert report.final_cost == cost(report.model, data, sched)
            grad = gradient(report.model, data, sched)
            assert report.gradient_norm == float(np.linalg.norm(grad))


def test_report_serialization():
    data, sched = hand_instance()
    report = cosmic_solve(data, sched)
    out = report.to_dict()
    assert set(out) == {"final_cost", "gradient_norm", "multiply_count",
                        "multiply_forward", "multiply_backward", "elapsed",
                        "iterations", "preconditioned", "converged"}
    with_model = report.to_dict(include_model=True)
    again = LtvModel.from_dict(with_model["model"])
    assert np.array_equal(again.C, report.model.C)


# ---------------------------------------------------------------- coordinate descent


def test_sbcd_agrees_with_closed_form():
    rng = np.random.default_rng(24)
    data, sched = random_instance(rng, n_hi=15)
    rc = cosmic_solve(data, sched)
    rs = sbcd_solve(data, sched, epsilon=1e-12, seed=0)
    assert rs.converged
    assert rs.final_cost == pytest.approx(rc.final_cost, rel=1e-6)
    gap = float(np.linalg.norm(rs.model.C - rc.model.C))
    assert gap <= 1e-4 * max(float(np.linalg.norm(rc.model.C)), 1e-12)
    assert rs.gradient_norm ** 2 <= 1e-12 * (1 + 1e-12)


def reference_sbcd(data, sched, sweeps, seed):
    """Randomized block Gauss-Seidel written out from the documented RNG
    contract: one ``default_rng(seed)``, the initial blocks first, then one
    permutation per sweep; every block solved with the dense normal equations."""
    lam = sched.materialize(data.N)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=(data.N, data.width, data.p))
    for _ in range(sweeps):
        for i in rng.permutation(data.N):
            d, x = data.D[i], data.Xnext[i]
            s, rhs = d.T @ d, d.T @ x.T
            if i > 0:
                s = s + lam[i - 1] * np.eye(data.width)
                rhs = rhs + lam[i - 1] * c[i - 1]
            if i < data.N - 1:
                s = s + lam[i] * np.eye(data.width)
                rhs = rhs + lam[i] * c[i + 1]
            c[i] = np.linalg.solve(s, rhs)
    return c


def test_sbcd_matches_reference_gauss_seidel():
    rng = np.random.default_rng(29)
    data, sched = random_instance(rng, n_lo=6, n_hi=12)
    for sweeps in (0, 1, 3):
        report = sbcd_solve(data, sched, epsilon=1e-300, max_iters=sweeps, seed=5)
        assert report.iterations == sweeps
        expected = reference_sbcd(data, sched, sweeps, seed=5)
        assert np.linalg.norm(report.model.C - expected) <= 1e-13 * np.linalg.norm(expected)


def test_sbcd_stops_at_the_first_sweep_below_epsilon():
    rng = np.random.default_rng(31)
    data, sched = random_instance(rng, n_hi=12)
    for epsilon in (1e-6, 1e-12):
        report = sbcd_solve(data, sched, epsilon=epsilon, seed=2)
        assert report.converged
        assert report.gradient_norm ** 2 <= epsilon * (1 + 1e-12)
        assert report.iterations >= 1
        earlier = sbcd_solve(data, sched, epsilon=epsilon, max_iters=report.iterations - 1,
                             seed=2)
        assert not earlier.converged
        assert earlier.gradient_norm ** 2 > epsilon


def test_sbcd_deterministic_per_seed():
    rng = np.random.default_rng(25)
    data, sched = random_instance(rng, n_hi=10)
    a = sbcd_solve(data, sched, epsilon=1e-12, seed=7)
    b = sbcd_solve(data, sched, epsilon=1e-12, seed=7)
    assert np.array_equal(a.model.C, b.model.C)
    assert a.iterations == b.iterations
    other = sbcd_solve(data, sched, epsilon=1e-12, seed=8)
    assert other.final_cost == pytest.approx(a.final_cost, rel=1e-8)


def test_sbcd_initialized_at_solution_stops_immediately():
    data, sched = hand_instance()
    solution = cosmic_solve(data, sched).model
    report = sbcd_solve(data, sched, epsilon=1e-12, init=solution)
    assert report.converged
    assert report.iterations == 0
    assert np.array_equal(report.model.C, solution.C)


def test_sbcd_budget_exhaustion_is_flagged():
    rng = np.random.default_rng(26)
    data, sched = random_instance(rng, n_hi=10)
    report = sbcd_solve(data, sched, epsilon=1e-300, max_iters=2, seed=0)
    assert not report.converged
    assert report.iterations == 2


def test_sbcd_cost_never_increases_across_sweeps():
    rng = np.random.default_rng(27)
    data, sched = random_instance(rng, n_hi=8)
    costs = [sbcd_solve(data, sched, epsilon=1e-300, max_iters=k, seed=3).final_cost
             for k in range(6)]
    for before, after in zip(costs, costs[1:]):
        assert after <= before * (1 + 1e-12) + 1e-12


def test_sbcd_argument_validation():
    data, sched = hand_instance()
    for epsilon in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="stopping tolerance"):
            sbcd_solve(data, sched, epsilon=epsilon)
    with pytest.raises(ValueError, match="sweep budget"):
        sbcd_solve(data, sched, max_iters=-1)
    wrong = LtvModel(p=1, q=1, N=2, C=np.zeros((2, 2, 1)))
    with pytest.raises(ValueError, match="initial model"):
        sbcd_solve(data, sched, init=wrong)
