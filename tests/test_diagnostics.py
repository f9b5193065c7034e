import dataclasses
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltvkit import (GainSchedule, LambdaSchedule, LtvModel, NoiseConfig, SingularBlock,
                    SmdConfig, SolverError, SufficiencyReport, Trajectory, TrajectoryDataset,
                    assemble_stacked, closed_loop_rollout, cosmic_solve, covariance_sufficiency,
                    estimation_error, generate_dataset, oracle_solve, prediction_error,
                    predicted_multiply_count, simulate, smd_model, tracking_stats)

from _cases import (confined_dataset, drifting_plant, ill_scaled_dataset, random_dataset, tracing,
                    wide_dataset)


def one_hot_dataset():
    """Single scalar trajectory whose sample rows are the standard basis of R^2."""
    return TrajectoryDataset.build(1, 1, [([1.0, 0.0, 0.0], [0.0, 1.0])])


def test_one_hot_covariance_is_half_identity():
    report = covariance_sufficiency(one_hot_dataset())
    assert_allclose(report.sigma, 0.5 * np.eye(2), atol=1e-15)
    assert report.min_eigenvalue == pytest.approx(0.5, rel=1e-12)
    assert report.sufficient
    assert report.rank == 2
    assert report.tolerance > 0


def test_non_finite_tolerance_is_rejected():
    for bad in (np.nan, np.inf, -np.inf, np.float32(np.inf), 10**400):
        with pytest.raises(ValueError, match="tol"):
            covariance_sufficiency(one_hot_dataset(), tol=bad)
    assert covariance_sufficiency(one_hot_dataset(), tol=np.float32(0.25)).tolerance == 0.25
    tiny = float(np.finfo(np.float64).tiny)
    for small in (0.0, -1.0):
        assert covariance_sufficiency(one_hot_dataset(), tol=small).tolerance == tiny


def test_zero_dataset_is_insufficient():
    ds = TrajectoryDataset.build(2, 0, [(np.zeros((4, 2)), None)])
    report = covariance_sufficiency(ds)
    assert_allclose(report.sigma, 0.0)
    assert not report.sufficient
    assert report.rank == 0


def test_generic_data_passes_both_checks():
    """The covariance check and the solver both accept generic data."""
    rng = np.random.default_rng(30)
    for _ in range(10):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, 3))
        ds = random_dataset(rng, p, q, int(rng.integers(3, 9)), p + q + 1)
        report = covariance_sufficiency(ds)
        assert report.sufficient
        assert report.rank == p + q
        cosmic_solve(assemble_stacked(ds), LambdaSchedule.scalar(1.0))


def test_confined_data_fails_both_checks():
    """The covariance check and the solver both reject confined data."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, 3))
        if p + q < 2:
            continue
        ds = confined_dataset(rng, p, q, 6, p + q + 2)
        report = covariance_sufficiency(ds)
        assert not report.sufficient
        assert report.rank == p + q - 1
        with pytest.raises(SingularBlock):
            cosmic_solve(assemble_stacked(ds), LambdaSchedule.scalar(1.0))


def test_verdict_does_not_move_with_units():
    """On the ill-scaled family the verdict is the ratio-1 one, and the fit succeeds.

    The raw smallest eigenvalue moves with the ratio; the unit-diagonal
    rescaling removes the ratio up to rounding.
    """
    for seed in (0, 1):
        reference = covariance_sufficiency(ill_scaled_dataset(1.0, 12, seed, 0.01))
        assert reference.sufficient
        for ratio in (1e-6, 1.0, 1e6, 1e9, 1e12):
            ds = ill_scaled_dataset(ratio, 12, seed, 0.01)
            report = covariance_sufficiency(ds)
            assert report.sufficient
            assert report.rank == 3
            assert report.scaled_min_eigenvalue == pytest.approx(
                reference.scaled_min_eigenvalue, rel=1e-12)
            cosmic_solve(assemble_stacked(ds), LambdaSchedule.scalar(1.0))


def test_unexcited_input_is_insufficient():
    rng = np.random.default_rng(35)
    ds = TrajectoryDataset.build(2, 1, [(rng.normal(size=(7, 2)), np.zeros((6, 1)))
                                        for _ in range(4)])
    report = covariance_sufficiency(ds)
    assert report.rank == 2
    assert not report.sufficient
    assert report.scaled_min_eigenvalue == 0.0


def test_min_eigenvalue_grows_with_trajectories():
    rng = np.random.default_rng(32)
    pairs = [(rng.normal(size=(7, 2)), rng.normal(size=(6, 1))) for _ in range(8)]
    values = []
    for ell in range(1, 9):
        ds = TrajectoryDataset.build(2, 1, pairs[:ell])
        values.append(covariance_sufficiency(ds).min_eigenvalue)
    for before, after in zip(values, values[1:]):
        assert after >= before - 1e-12


def test_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(33)
    for _ in range(5):
        ds = random_dataset(rng, 3, 2, 6, 2)
        sigma = covariance_sufficiency(ds).sigma
        assert_allclose(sigma, sigma.T, atol=1e-14)
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-12


def test_covariance_is_the_sum_over_trajectories():
    """Sigma, formed in one product over all samples, matches the sum of the
    per-trajectory covariances to within rounding."""
    rng = np.random.default_rng(35)
    for p, q, n, ell in ((1, 0, 4, 1), (2, 1, 30, 6), (3, 2, 17, 9)):
        ds = random_dataset(rng, p, q, n, ell)
        ref = np.zeros((p + q, p + q))
        for tr in ds.trajectories:
            z = np.concatenate([tr.states[:n], tr.inputs], axis=1)
            ref += (z.T @ z) / n
        sigma = covariance_sufficiency(ds).sigma
        assert np.abs(sigma - ref).max() <= 64 * np.finfo(np.float64).eps * np.abs(ref).max()


def test_covariance_equals_the_concatenated_sample_product():
    """Sigma is bitwise the product over the samples stacked instant by instant,
    the rows of the fit's D, on the SMD shape and on a wide one."""
    smd = generate_dataset(smd_model(SmdConfig(N=100)), 6,
                           noise=NoiseConfig(sigma=0.06, seed=1), seed=0)
    wide = generate_dataset(drifting_plant(np.random.default_rng(0), 8, 4, 200), 24, seed=1)
    for ds in (smd, wide):
        z = np.stack([np.concatenate([tr.states[:-1], tr.inputs], axis=1)
                      for tr in ds.trajectories], axis=1).reshape(-1, ds.p + ds.q)
        assert np.array_equal(covariance_sufficiency(ds).sigma, (z.T @ z) / ds.N)


def test_sufficiency_check_copies_no_sample():
    """On the bench's wide-block shape (p = 8, q = 4, L = 24, N = 2 000) the
    check allocates at most 0.05 times the dataset's bytes (0.002 measured;
    1.00 when it restacked the samples trajectory by trajectory)."""
    dataset, size = wide_dataset(2000)
    with tracing() as peak:
        covariance_sufficiency(dataset)
        assert peak() <= 0.05 * size


def test_overflowing_covariance_is_refused_without_warning():
    """States near the float range raise a ValueError asking for rescaled data,
    not numpy's overflow warnings (errors here) and a failed eigensolver."""
    ds = generate_dataset(smd_model(SmdConfig(N=30)), 6, seed=1)
    big = TrajectoryDataset.build(ds.p, ds.q, [(tr.states * 1e200, tr.inputs)
                                               for tr in ds.trajectories])
    with pytest.raises(ValueError, match="sample covariance overflows float64"):
        covariance_sufficiency(big)


def test_sufficiency_predicts_solver_outcome():
    rng = np.random.default_rng(34)
    good = random_dataset(rng, 2, 1, 5, 4)
    assert covariance_sufficiency(good).sufficient
    oracle_solve(assemble_stacked(good), LambdaSchedule.scalar(0.1))
    bad = TrajectoryDataset.build(1, 0, [([0.0, 0.0, 0.0], None)])
    assert not covariance_sufficiency(bad).sufficient
    with pytest.raises(SingularBlock) as info:
        oracle_solve(assemble_stacked(bad), LambdaSchedule.scalar(0.1))
    assert info.value.instant == 1


def test_single_flat_trajectory_is_rank_one():
    ds = TrajectoryDataset.build(1, 1, [(np.ones(5), np.zeros(4))])
    report = covariance_sufficiency(ds)
    assert_allclose(report.sigma, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert report.rank == 1
    assert not report.sufficient


def test_report_serialization():
    report = covariance_sufficiency(one_hot_dataset())
    out = report.to_dict()
    assert out["sufficient"] is True
    assert out["rank"] == 2
    assert out["sigma"] == [[0.5, 0.0], [0.0, 0.5]]
    assert set(out) == {"sufficient", "min_eigenvalue", "scaled_min_eigenvalue", "rank",
                        "tolerance", "sigma"}


def test_report_keys_are_the_declared_fields_in_order():
    keys = list(covariance_sufficiency(one_hot_dataset()).to_dict())
    assert keys == [f.name for f in dataclasses.fields(SufficiencyReport)]
    assert keys == ["sufficient", "min_eigenvalue", "scaled_min_eigenvalue", "rank",
                    "tolerance", "sigma"]


# ---------------------------------------------------------------- counting


def test_predicted_count_reference_values():
    assert predicted_multiply_count(100, 2, 1).total == 9000
    small = predicted_multiply_count(1, 1, 0)
    assert small.forward == 4
    assert small.backward == 2
    assert small.total == 6


def test_predicted_count_split_sums():
    rng = np.random.default_rng(36)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        p = int(rng.integers(1, 8))
        q = int(rng.integers(0, 8))
        counts = predicted_multiply_count(n, p, q)
        assert counts.forward + counts.backward == counts.total
        m = p + q
        assert counts.total == n * ((m ** 3) + (2 * p + 3) * m ** 2)


def test_predicted_count_validation():
    for n, p, q, message in ((0, 2, 1, "horizon N must be at least 1, got 0"),
                             (5, 0, 1, "state dimension p must be at least 1, got 0"),
                             (5, 2, -1, "input dimension q must be a nonnegative integer, got -1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            predicted_multiply_count(n, p, q)


# ---------------------------------------------------------------- error metrics


def test_estimation_error_basics():
    a = LtvModel(p=1, q=0, N=2, C=np.zeros((2, 1, 1)))
    assert estimation_error(a, a) == 0.0
    b = LtvModel(p=1, q=0, N=2, C=np.array([[[3.0]], [[0.0]]]))
    assert estimation_error(a, b) == pytest.approx(3.0)


def test_estimation_error_double_loop():
    rng = np.random.default_rng(37)
    c1 = rng.normal(size=(4, 3, 2))
    c2 = rng.normal(size=(4, 3, 2))
    m1 = LtvModel(p=2, q=1, N=4, C=c1)
    m2 = LtvModel(p=2, q=1, N=4, C=c2)
    total = 0.0
    for k in range(4):
        for i in range(3):
            for j in range(2):
                total += (c1[k, i, j] - c2[k, i, j]) ** 2
    assert estimation_error(m1, m2) == pytest.approx(np.sqrt(total), rel=1e-12)


def test_estimation_error_dimension_mismatch():
    a = LtvModel(p=1, q=0, N=2, C=np.zeros((2, 1, 1)))
    b = LtvModel(p=1, q=1, N=2, C=np.zeros((2, 2, 1)))
    with pytest.raises(ValueError, match="disagree on dimensions"):
        estimation_error(a, b)


def test_prediction_error_zero_for_generating_model():
    rng = np.random.default_rng(38)
    c = rng.normal(size=(5, 3, 2)) * 0.5
    model = LtvModel(p=2, q=1, N=5, C=c)
    x = np.empty((6, 2))
    x[0] = rng.normal(size=2)
    u = rng.normal(size=(5, 1))
    for k in range(5):
        x[k + 1] = model.A(k) @ x[k] + model.B(k) @ u[k]
    tr = Trajectory(states=x, inputs=u)
    assert prediction_error(model, tr).max() <= 1e-12
    assert prediction_error(model, tr, mode="rollout").max() <= 1e-12


def test_prediction_error_hand_values():
    model = LtvModel.constant(np.eye(1), np.zeros((1, 0)), 2)
    tr = Trajectory(states=np.array([[1.0], [2.0], [2.0]]),
                    inputs=np.zeros((2, 0)))
    assert_allclose(prediction_error(model, tr), [1.0, 0.0])
    assert_allclose(prediction_error(model, tr, mode="rollout"), [1.0, 1.0])


def test_prediction_error_matches_scalar_loop():
    rng = np.random.default_rng(39)
    model = LtvModel(p=2, q=1, N=4, C=rng.normal(size=(4, 3, 2)))
    x = rng.normal(size=(5, 2))
    u = rng.normal(size=(4, 1))
    tr = Trajectory(states=x, inputs=u)

    one_step = np.empty(4)
    for k in range(4):
        r = model.A(k) @ x[k] + model.B(k) @ u[k] - x[k + 1]
        one_step[k] = np.sqrt(float(r @ r))
    assert_allclose(prediction_error(model, tr), one_step, rtol=1e-12)

    z = x[0].copy()
    rollout = np.empty(4)
    for k in range(4):
        z = model.A(k) @ z + model.B(k) @ u[k]
        rollout[k] = np.linalg.norm(z - x[k + 1])
    assert_allclose(prediction_error(model, tr, mode="rollout"), rollout, rtol=1e-12)
    simulated = np.linalg.norm(simulate(model, x[0], u)[1:] - x[1:], axis=1)
    assert_allclose(prediction_error(model, tr, mode="rollout"), simulated, rtol=0, atol=0)


def test_prediction_error_validation():
    model = LtvModel.constant(np.eye(2), np.ones((2, 1)), 3)
    good = Trajectory(states=np.zeros((4, 2)), inputs=np.zeros((3, 1)))
    bad_dims = Trajectory(states=np.zeros((4, 3)), inputs=np.zeros((3, 1)))
    short = Trajectory(states=np.zeros((3, 2)), inputs=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="do not match model dimensions"):
        prediction_error(model, bad_dims)
    with pytest.raises(ValueError, match="model covers 3 instants"):
        prediction_error(model, short)
    with pytest.raises(ValueError, match="mode must be"):
        prediction_error(model, good, mode="two-step")


# ---------------------------------------------------------------- float range


def _overflow_cases():
    """(call, message) pairs; each call leaves the float range where named.

    ``big`` multiplies the state by 1e200 per instant, so x(2) overflows
    from x(0) = [1, 0], and the tracking error |x(1)| = 1e200 already
    squares past it.  ``high`` and ``low`` hold coefficients of +-1e200 from
    instant 7 on, whose differences and predictions square past the range.
    ``steep`` multiplies by 1e100: its one-step predictions stay finite,
    but a rollout's second prediction, 1e200 x(0), does not.  Blocks of
    1e153 entries have finite norms, while the norm of 40 of them does not.
    """
    n = 40
    big = LtvModel.constant(1e200 * np.eye(2), [[1.0], [1.0]], n)
    c = np.zeros((n, 3, 2))
    c[7:] = 1e200
    high, low = LtvModel(p=2, q=1, N=n, C=c), LtvModel(p=2, q=1, N=n, C=-c)
    steep = LtvModel.constant(1e100 * np.eye(2), [[0.0], [0.0]], n)
    rng = np.random.default_rng(3)
    held_out = Trajectory(states=rng.normal(size=(n + 1, 2)), inputs=rng.normal(size=(n, 1)))
    idle = GainSchedule(K=np.zeros((n, 1, 2)))
    wide = LtvModel(p=2, q=1, N=n, C=np.full((n, 3, 2), 1e153))
    zero = LtvModel(p=2, q=1, N=n, C=np.zeros((n, 3, 2)))
    return {
        "simulate": (lambda: simulate(big, [1.0, 0.0], np.zeros(n)),
                     "the simulation overflows at instant 2"),
        "closed_loop_rollout": (lambda: closed_loop_rollout(big, idle, x0=[1.0, 0.0]),
                                "the rollout overflows at instant 1"),
        "prediction_error-one-step": (lambda: prediction_error(high, held_out),
                                      "the one-step prediction overflows at instant 7"),
        "prediction_error-rollout": (lambda: prediction_error(steep, held_out, "rollout"),
                                     "the rollout prediction overflows at instant 1"),
        "estimation_error-block": (lambda: estimation_error(high, low),
                                   "the estimation error overflows at instant 7"),
        "estimation_error-sum": (lambda: estimation_error(wide, zero),
                                 "the estimation error overflows"),
        "tracking_stats": (lambda: tracking_stats(np.full(n, 1e154)),
                           "the rollout's tracking statistics overflow"),
    }


@pytest.mark.parametrize("name", list(_overflow_cases()))
def test_each_function_refuses_its_own_overflow_naming_the_instant(name):
    """A result outside the float range raises SolverError where it is
    computed, naming the first instant that fails, and no numpy warning
    escapes on the way."""
    call, message = _overflow_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            call()


def test_non_finite_arguments_are_refused_as_input_errors():
    """A NaN initial state or input to ``simulate``, or a NaN error given to
    ``tracking_stats``, is the caller's input, not an overflow."""
    model = LtvModel.constant(np.eye(2), [[1.0], [1.0]], 5)
    inputs = np.zeros(5)
    inputs[3] = np.nan
    cases = [(lambda: simulate(model, [np.nan, 0.0], np.zeros(5)),
              "initial state [nan, 0.0] is not finite"),
             (lambda: simulate(model, [1.0, 0.0], inputs), "inputs at instant 3 are not finite"),
             (lambda: tracking_stats([1.0, np.inf, np.nan]),
              "tracking error at instant 1 is not finite")]
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
