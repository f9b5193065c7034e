import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltvkit import control
from ltvkit import (GainSchedule, LqrWeights, LtvModel, NoiseConfig,
                    SingularInputCost, SmdConfig, SolverError, closed_loop_rollout,
                    lqr_synthesize, position_coordinates, simulate, smd_model,
                    tracking_stats)

from _cases import drifting_plant, relative_gap, riccati_loop


def double_integrator(n):
    a = np.array([[1.0, 0.1], [0.0, 1.0]])
    b = np.array([[0.005], [0.1]])
    return LtvModel.constant(a, b, n)


# ---------------------------------------------------------------- weights


def test_position_coordinates_default_split():
    assert position_coordinates(1).tolist() == [0]
    assert position_coordinates(2).tolist() == [0]
    assert position_coordinates(3).tolist() == [0, 1]
    assert position_coordinates(4).tolist() == [0, 1]


def test_weights_build_diagonal_costs():
    w = LqrWeights(q_x=2.0, q_v=0.5, r=0.25)
    assert_allclose(w.state_cost(3), np.diag([2.0, 2.0, 0.5]))
    assert_allclose(w.input_cost(2), 0.25 * np.eye(2))
    assert_allclose(w.terminal_cost(3), w.state_cost(3))
    assert_allclose(LqrWeights(terminal=np.eye(2) * 7).terminal_cost(2), 7 * np.eye(2))


def test_non_finite_riccati_solutions_and_terminal_cost_are_named():
    p = np.ones((3, 2, 2))
    p[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^Riccati solutions at instant 1 are not finite$"):
        GainSchedule(K=np.zeros((2, 1, 2)), P=p)
    with pytest.raises(ValueError, match="^terminal cost is not finite$"):
        LqrWeights(terminal=[[1, 0], [0, np.nan]])


def test_weights_validation():
    with pytest.raises(ValueError, match="^q_x must be a finite number > 0, got 0.0$"):
        LqrWeights(q_x=0.0)
    with pytest.raises(ValueError, match="^r must be a finite number > 0, got -1.0$"):
        LqrWeights(r=-1.0)
    for name in ("q_x", "q_v", "r"):
        for bad in (float("nan"), float("inf"), True, "1", None, 10**400):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got "):
                LqrWeights(**{name: bad})
    assert LqrWeights(q_x=np.float32(2.0), r=3).q_x == 2.0
    with pytest.raises(ValueError, match="terminal cost has shape"):
        LqrWeights(terminal=np.eye(3)).terminal_cost(2)


# ---------------------------------------------------------------- synthesis


def test_one_step_riccati_hand_values():
    model = LtvModel.constant(np.eye(1), np.eye(1), 1)
    gains = lqr_synthesize(model, LqrWeights(q_x=1.0, q_v=1.0, r=1.0))
    assert gains.K[0, 0, 0] == pytest.approx(0.5)
    assert_allclose(gains.P[:, 0, 0], [1.5, 1.0])


def test_unactuated_model_gets_zero_gains():
    model = LtvModel.constant(0.5 * np.eye(2), np.zeros((2, 1)), 6)
    gains = lqr_synthesize(model)
    assert np.array_equal(gains.K, np.zeros((6, 1, 2)))


def test_long_horizon_matches_infinite_horizon_gain():
    model = double_integrator(500)
    w = LqrWeights()
    gains = lqr_synthesize(model, w)
    a, b = model.A(0), model.B(0)
    qmat, rmat = w.state_cost(2), w.input_cost(1)
    ric = qmat.copy()
    for _ in range(100_000):
        s = rmat + b.T @ ric @ b
        k = np.linalg.solve(s, b.T @ ric @ a)
        nxt = qmat + a.T @ ric @ (a - b @ k)
        nxt = 0.5 * (nxt + nxt.T)
        if np.linalg.norm(nxt - ric) < 1e-13:
            ric = nxt
            break
        ric = nxt
    k_inf = np.linalg.solve(rmat + b.T @ ric @ b, b.T @ ric @ a)
    assert_allclose(gains.K[0], k_inf, atol=1e-6)
    assert np.linalg.norm(gains.P[0] - gains.P[1]) < 1e-8


def test_riccati_solutions_stay_positive_semidefinite():
    model = smd_model(SmdConfig(N=60))
    gains = lqr_synthesize(model)
    assert gains.P.shape == (61, 2, 2)
    for pk in gains.P:
        assert np.linalg.eigvalsh(pk)[0] >= -1e-10
        assert_allclose(pk, pk.T, atol=1e-14)


def test_negative_terminal_cost_is_rejected():
    # q = 1 is a 1x1 input-cost block, which scipy.linalg.solve handles on a
    # scalar path that skips the definiteness check; q = 2 goes through LAPACK.
    # Both must reject the indefinite block R + B^T P(3) B at the last instant.
    for q in (1, 2):
        model = LtvModel.constant(np.eye(q), np.eye(q), 3)
        with pytest.raises(SingularInputCost) as info:
            lqr_synthesize(model, LqrWeights(terminal=-10.0 * np.eye(q)))
        assert info.value.instant == 2, f"q={q}"


def test_singular_input_cost_is_a_solver_error():
    assert issubclass(SingularInputCost, SolverError)


def assert_matches_loop(model, weights=None):
    gains = lqr_synthesize(model, weights)
    k_ref, p_ref = riccati_loop(model, weights)
    assert gains.K.shape == k_ref.shape and gains.P.shape == p_ref.shape
    assert relative_gap(gains.K, k_ref) <= 1e-12, f"N={model.N}"
    assert relative_gap(gains.P, p_ref) <= 1e-12, f"N={model.N}"


def test_riccati_scan_matches_loop_on_smd():
    assert_matches_loop(smd_model(SmdConfig(N=2500)))


def test_riccati_scan_matches_loop_on_wide_drifting_plant():
    assert_matches_loop(drifting_plant(np.random.default_rng(8), 8, 4, 2000))


def test_riccati_scan_matches_loop_at_every_level_shape():
    # The first chunk is padded differently at every horizon, and the scan
    # across the chunks pairs and carries their composites differently.
    rng = np.random.default_rng(9)
    chunk = control._CHUNK
    edges = {n for k in range(2, 9) for n in (2**k - 1, 2**k, 2**k + 1)}
    for n in sorted(set(range(1, 2 * chunk + 2)) | edges | {64 * chunk - 1, 64 * chunk + 1}):
        for q in (0, 2):
            assert_matches_loop(drifting_plant(rng, 3, q, n), LqrWeights(q_x=2.0, q_v=0.5, r=0.1))


def test_riccati_scan_without_inputs():
    model = drifting_plant(np.random.default_rng(10), 3, 0, 33)
    gains = lqr_synthesize(model)
    assert gains.K.shape == (33, 0, 3)
    assert_matches_loop(model)


def test_singular_input_cost_names_the_instant_where_the_recursion_stops():
    # Terminal -0.9e-3 keeps S(4) = 1e-4 positive but drives P(4) negative,
    # so the recursion stops at instant 3, below N-1; the scan's values
    # below that are meaningless.  Terminal -1e-3 makes S(4) exactly zero,
    # and with it the scan's combine block I + C(4) P(5).
    for a, terminal, instant in ((20.0, -0.9e-3, 3), (1.0, -1e-3, 4)):
        model = LtvModel.constant([[a]], [[1.0]], 5)
        weights = LqrWeights(q_x=1.0, q_v=1.0, r=1e-3, terminal=np.array([[terminal]]))
        for synthesize in (lqr_synthesize, riccati_loop):
            with pytest.raises(SingularInputCost) as info:
                synthesize(model, weights)
            assert info.value.instant == instant, f"A={a}, {synthesize.__name__}"


def test_singular_input_cost_is_named_in_every_chunk():
    # P(N) = -1e3 and B(k) = 0 above the instant k, so S(k) = r + P(k+1) is
    # the first input cost below zero: in the padded first chunk, at both
    # sides of a chunk boundary and in the last chunk.
    chunk = control._CHUNK
    n = 2 * chunk + 3
    weights = LqrWeights(q_x=1.0, q_v=1.0, r=1e-3, terminal=np.array([[-1e3]]))
    cases = [(n, k) for k in (0, n - 2 * chunk - 1, n - 2 * chunk, n - chunk - 1, n - chunk,
                              n - 3, n - 1)]
    for n_k, k in cases + [(64 * chunk - 1, 300)]:
        b = np.where(np.arange(n_k) <= k, 1.0, 0.0)[:, None, None]
        model = LtvModel.from_blocks(np.ones((n_k, 1, 1)), b)
        for synthesize in (lqr_synthesize, riccati_loop):
            with pytest.raises(SingularInputCost) as info:
                synthesize(model, weights)
            assert info.value.instant == k, f"N={n_k}, {synthesize.__name__}"


def test_riccati_overflow_raises_solver_error():
    """Up: with r = 1e-300, B R^-1 B^T overflows although the recursion
    stays finite; a single chunk has no up phase and matches the recursion,
    while on longer horizons the chunks' composites overflow.  Down: with
    A = 1e100 I, P overflows within a single chunk."""
    chunk = control._CHUNK
    weights = LqrWeights(r=1e-300)
    cheap = LtvModel.constant(0.9 * np.eye(2), 1e5 * np.ones((2, 1)), chunk)
    assert_matches_loop(cheap, weights)
    cases = [(LtvModel.constant(0.9 * np.eye(2), 1e5 * np.ones((2, 1)), n), weights)
             for n in (2 * chunk + 1, 64 * chunk + 1)]
    cases += [(LtvModel.constant(1e100 * np.eye(2), np.ones((2, 1)), n), None)
              for n in (5, chunk, 2 * chunk + 1)]
    for model, w in cases:
        with pytest.raises(SolverError, match="^the Riccati recursion overflows float64"):
            lqr_synthesize(model, w)


def test_non_finite_model_or_terminal_cost_is_rejected():
    model = smd_model(SmdConfig(N=10))
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, 2):  # an entry of A(4), then of B(4)
            c = model.C.copy()
            c[4, row, 1 if row == 0 else 0] = bad
            with pytest.raises(ValueError, match="finite"):
                lqr_synthesize(LtvModel(p=2, q=1, N=10, C=c))
        terminal = np.eye(2)
        terminal[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            lqr_synthesize(model, LqrWeights(terminal=terminal))


def count_calls(fn, *args):
    """Python and C calls made inside ``fn``, counted with ``sys.setprofile``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_riccati_call_count_grows_logarithmically():
    # A loop over instants would make 16 times the calls at 16 times the horizon.
    short, long = (count_calls(lqr_synthesize, smd_model(SmdConfig(N=n))) for n in (256, 4096))
    assert long < 2 * short


def test_gain_schedule_arrays_are_numeric_and_read_only():
    # Strings and booleans were once taken as gains, and K stayed writable.
    for bad in ([[["1.5"]]], [[[True]]], np.ones((2, 1, 1), dtype=bool)):
        with pytest.raises(ValueError, match="^gains are not a numeric array$"):
            GainSchedule(K=bad)
    with pytest.raises(ValueError, match="^Riccati solutions are not a numeric array$"):
        GainSchedule(K=np.zeros((2, 1, 1)), P=[[["1"]]] * 3)
    gains = lqr_synthesize(double_integrator(4))
    for array in (gains.K, gains.P):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 1.0
    terminal = np.eye(2)
    weights = LqrWeights(terminal=terminal)
    terminal[0, 0] = 5.0
    assert weights.terminal[0, 0] == 1.0
    with pytest.raises(ValueError, match="^terminal cost entries are not a numeric array$"):
        LqrWeights(terminal=[["1", 0.0], [0.0, 1.0]])


def test_gain_schedule_refuses_riccati_solutions_of_the_wrong_shape():
    # P needs one more instant than K: three gains of q = 1, p = 2 need (4, 2, 2).
    for shape in ((3, 2, 2), (4, 1, 1), (4, 2, 1)):
        with pytest.raises(ValueError, match=r"^Riccati solutions must be an \(N\+1, p, p\) array$"):
            GainSchedule(K=np.zeros((3, 1, 2)), P=np.zeros(shape))


def test_gain_schedule_holds_the_synthesized_arrays(monkeypatch):
    handed = {}

    def spy(K, P):
        handed.update(K=K, P=P)
        return GainSchedule(K=K, P=P)

    monkeypatch.setattr(control, "GainSchedule", spy)
    for n in (5, 64):
        gains = lqr_synthesize(smd_model(SmdConfig(N=n)))
        assert gains.K is handed["K"] and gains.P is handed["P"]
        for array in (gains.K, gains.P):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0


def test_gain_schedule_serialization():
    gains = lqr_synthesize(double_integrator(4))
    again = GainSchedule.from_dict(gains.to_dict())
    assert np.array_equal(again.K, gains.K)
    assert again.P is None
    assert "P" not in gains.to_dict()
    with pytest.raises(ValueError, match="malformed gain record"):
        GainSchedule.from_dict({"gains": []})
    for bad in (np.nan, np.inf, -np.inf):
        record = gains.to_dict()
        record["K"][3][0][1] = bad
        with pytest.raises(ValueError, match="gains at instant 3 are not finite"):
            GainSchedule.from_dict(record)


# ---------------------------------------------------------------- rollout


def test_rollout_from_equilibrium_stays_at_rest():
    plant = smd_model(SmdConfig(N=30))
    gains = lqr_synthesize(plant)
    result = closed_loop_rollout(plant, gains)
    assert np.array_equal(result.states, np.zeros((31, 2)))
    assert np.array_equal(result.inputs, np.zeros((30, 1)))
    assert np.array_equal(result.tracking_errors, np.zeros(31))


def test_rollout_regulates_the_benchmark_plant():
    plant = smd_model(SmdConfig())
    gains = lqr_synthesize(plant)
    result = closed_loop_rollout(plant, gains, x0=[1.0, 0.0])
    assert result.tracking_errors[0] == pytest.approx(1.0)
    assert result.tracking_errors[-1] < 0.05
    assert np.linalg.norm(result.states[-1]) < np.linalg.norm(result.states[0])


def test_zero_gains_reproduce_open_loop():
    plant = smd_model(SmdConfig(N=25))
    gains = GainSchedule(K=np.zeros((25, 1, 2)))
    x0 = np.array([0.3, -0.7])
    result = closed_loop_rollout(plant, gains, x0=x0)
    assert np.array_equal(result.inputs, np.zeros((25, 1)))
    assert_allclose(result.states, simulate(plant, x0, np.zeros((25, 1))),
                    rtol=0, atol=0)


def test_self_consistent_reference_is_tracked_exactly():
    plant = smd_model(SmdConfig(N=40))
    ref = simulate(plant, [0.8, -0.2], np.zeros((40, 1)))
    gains = lqr_synthesize(plant)
    result = closed_loop_rollout(plant, gains, reference=ref)
    assert_allclose(result.states, ref, rtol=0, atol=0)
    assert np.array_equal(result.tracking_errors, np.zeros(41))


def test_zero_gains_reproduce_open_loop_on_wide_plant():
    plant = drifting_plant(np.random.default_rng(4), 8, 4, 300)
    gains = GainSchedule(K=np.zeros((300, 4, 8)))
    x0 = np.random.default_rng(5).normal(size=8)
    result = closed_loop_rollout(plant, gains, x0=x0)
    assert np.array_equal(result.inputs, np.zeros((300, 4)))
    assert_allclose(result.states, simulate(plant, x0, np.zeros((300, 4))),
                    rtol=0, atol=0)


def test_self_consistent_reference_is_tracked_exactly_on_wide_plant():
    plant = drifting_plant(np.random.default_rng(6), 8, 4, 300)
    ref = simulate(plant, np.random.default_rng(7).normal(size=8), np.zeros((300, 4)))
    result = closed_loop_rollout(plant, lqr_synthesize(plant), reference=ref)
    assert_allclose(result.states, ref, rtol=0, atol=0)
    assert np.array_equal(result.tracking_errors, np.zeros(301))


def test_rollout_replays_through_simulate_exactly():
    plant = drifting_plant(np.random.default_rng(8), 8, 4, 300)
    result = closed_loop_rollout(plant, lqr_synthesize(plant), x0=np.ones(8),
                                 noise=NoiseConfig(sigma=0.05, seed=2))
    assert np.any(result.inputs != 0.0)
    assert_allclose(simulate(plant, np.ones(8), result.inputs), result.states,
                    rtol=0, atol=0)


def test_measurement_noise_perturbs_inputs_deterministically():
    plant = smd_model(SmdConfig(N=20))
    gains = lqr_synthesize(plant)
    clean = closed_loop_rollout(plant, gains, x0=[0.5, 0.0])
    noisy1 = closed_loop_rollout(plant, gains, x0=[0.5, 0.0],
                                 noise=NoiseConfig(sigma=0.05, seed=3))
    noisy2 = closed_loop_rollout(plant, gains, x0=[0.5, 0.0],
                                 noise=NoiseConfig(sigma=0.05, seed=3))
    silent = closed_loop_rollout(plant, gains, x0=[0.5, 0.0],
                                 noise=NoiseConfig(sigma=0.0, seed=3))
    assert not np.array_equal(noisy1.inputs, clean.inputs)
    assert np.array_equal(noisy1.inputs, noisy2.inputs)
    assert np.array_equal(silent.states, clean.states)


def test_rollout_validation():
    plant = smd_model(SmdConfig(N=10))
    gains = lqr_synthesize(plant)
    short = GainSchedule(K=gains.K[:5])
    with pytest.raises(ValueError, match="gain schedule shape"):
        closed_loop_rollout(plant, short)
    with pytest.raises(ValueError, match="reference has shape"):
        closed_loop_rollout(plant, gains, reference=np.zeros((10, 2)))
    with pytest.raises(ValueError, match="initial state has shape"):
        closed_loop_rollout(plant, gains, x0=[1.0, 2.0, 3.0])


def test_rollout_rejects_non_finite_initial_state_or_reference():
    plant = smd_model(SmdConfig(N=10))
    gains = lqr_synthesize(plant)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^initial state .* is not finite"):
            closed_loop_rollout(plant, gains, x0=[bad, 0.0])
        reference = np.zeros((11, 2))
        reference[4, 1] = bad
        with pytest.raises(ValueError, match="^reference state at instant 4 is not finite"):
            closed_loop_rollout(plant, gains, reference=reference, x0=[1.0, 0.0])
        with pytest.raises(ValueError, match="^reference state at instant 4 is not finite"):
            closed_loop_rollout(plant, gains, reference=reference)


# ---------------------------------------------------------------- statistics


def test_tracking_stats_hand_values():
    zero = tracking_stats([0.0, 0.0, 0.0])
    assert (zero.mean, zero.stddev, zero.sum_sq) == (0.0, 0.0, 0.0)
    mixed = tracking_stats([1.0, -1.0])
    assert mixed.mean == pytest.approx(0.0)
    assert mixed.stddev == pytest.approx(1.0)
    assert mixed.sum_sq == pytest.approx(2.0)
    assert mixed.to_dict() == {"mean": 0.0, "stddev": 1.0, "sum_sq": 2.0}


def test_tracking_stats_match_scalar_loop():
    rng = np.random.default_rng(41)
    e = rng.normal(size=17)
    stats = tracking_stats(e)
    mean = sum(e) / 17
    var = sum((v - mean) ** 2 for v in e) / 17
    assert stats.mean == pytest.approx(mean, rel=1e-12)
    assert stats.stddev == pytest.approx(np.sqrt(var), rel=1e-12)
    assert stats.sum_sq == pytest.approx(sum(v * v for v in e), rel=1e-12)


def test_tracking_stats_validation():
    with pytest.raises(ValueError, match="nonempty error vector"):
        tracking_stats([])
    with pytest.raises(ValueError, match="nonempty error vector"):
        tracking_stats(np.zeros((2, 2)))
