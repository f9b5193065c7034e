import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltvkit import sim
from ltvkit import (ExcitationSpec, LambdaSchedule, LtvModel, NoiseConfig,
                    SmdConfig, TrajectoryDataset, assemble_stacked,
                    cosmic_solve, covariance_sufficiency, estimation_error,
                    generate_dataset, simulate, smd_model)

from _cases import drifting_plant, generate_dataset_loop, smd_model_loop


def fit(dataset: TrajectoryDataset, lam: float) -> LtvModel:
    return cosmic_solve(assemble_stacked(dataset), LambdaSchedule.scalar(lam)).model


# ---------------------------------------------------------------- plant


def test_frozen_plant_is_time_invariant():
    frozen = smd_model(SmdConfig(N=20, ltv=False))
    drifting = smd_model(SmdConfig(N=20))
    for k in range(20):
        assert np.array_equal(frozen.C[k], frozen.C[0])
    # both plants agree at t = 0, where the drift terms vanish
    assert_allclose(drifting.C[0], frozen.C[0], rtol=1e-15)
    assert not np.allclose(drifting.C[1], drifting.C[0])


def test_zero_modulation_is_time_invariant():
    model = smd_model(SmdConfig(alpha_k=0.0, alpha_c=0.0, N=10))
    for k in range(10):
        assert np.array_equal(model.C[k], model.C[0])


def test_free_mass_reduces_to_double_integrator():
    dt = 0.1
    model = smd_model(SmdConfig(k0=0.0, c0=0.0, alpha_k=0.0, alpha_c=0.0, dt=dt, N=5))
    a = np.array([[1.0, dt], [0.0, 1.0]])
    b = np.array([[dt * dt / 2.0], [dt]])
    for k in range(5):
        assert_allclose(model.A(k), a, atol=1e-12)
        assert_allclose(model.B(k), b, atol=1e-12)


def test_discretization_matches_series_expansion():
    cfg = SmdConfig(mass=1.3, k0=0.8, c0=0.4, alpha_k=0.6, alpha_c=0.2,
                    omega=0.9, dt=0.07, N=12)
    model = smd_model(cfg)
    for k in (0, 3, 11):
        t = k * cfg.dt
        kt = cfg.k0 * (1.0 + cfg.alpha_k * np.sin(cfg.omega * t))
        ct = cfg.c0 * (1.0 + cfg.alpha_c * np.sin(cfg.omega * t))
        aug = np.array([
            [0.0, 1.0, 0.0],
            [-kt / cfg.mass, -ct / cfg.mass, 1.0 / cfg.mass],
            [0.0, 0.0, 0.0],
        ]) * cfg.dt
        phi = np.eye(3)
        term = np.eye(3)
        for j in range(1, 25):
            term = term @ aug / j
            phi = phi + term
        assert_allclose(model.A(k), phi[:2, :2], atol=1e-10)
        assert_allclose(model.B(k), phi[:2, 2:], atol=1e-10)


def test_plant_config_validation():
    with pytest.raises(ValueError, match="^mass must be a finite number > 0, got 0.0$"):
        SmdConfig(mass=0.0)
    with pytest.raises(ValueError, match="^dt must be a finite number > 0, got -0.1$"):
        SmdConfig(dt=-0.1)
    with pytest.raises(ValueError, match="^alpha_k must stay below 1 in magnitude, got 1.0$"):
        SmdConfig(alpha_k=1.0)
    with pytest.raises(ValueError, match="^horizon N must be at least 2, got 1$"):
        SmdConfig(N=1)
    with pytest.raises(ValueError, match="malformed plant config"):
        SmdConfig.from_dict({"mass": 1.0, "spring": 2.0})
    cfg = SmdConfig(N=7, dt=0.05)
    assert SmdConfig.from_dict(cfg.to_dict()) == cfg


def test_plant_config_rejects_non_finite_constants_and_fractional_horizon():
    for name in ("mass", "k0", "c0", "alpha_k", "alpha_c", "omega", "dt"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                SmdConfig(**{name: bad})
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            SmdConfig(**{name: "1.0"})
    for bad in (10.5, 10.0, "10", True):
        with pytest.raises(ValueError, match="horizon N must be an integer"):
            SmdConfig(N=bad)
    with pytest.raises(ValueError, match="omega must be a finite number"):
        SmdConfig.from_dict({"N": 20, "omega": float("nan")})
    assert SmdConfig(N=np.int64(12), omega=np.float64(0.25)).N == 12


def test_excitation_and_noise_validation():
    with pytest.raises(ValueError, match="x0 law"):
        ExcitationSpec(x0="fixed")
    with pytest.raises(ValueError, match="input law"):
        ExcitationSpec(inputs="chirp")
    with pytest.raises(ValueError, match="malformed excitation config"):
        ExcitationSpec.from_dict({"amplitude": 2.0})
    spec = ExcitationSpec(inputs="sinusoids", frequencies=(0.5, 1.5))
    assert ExcitationSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="noise level"):
        NoiseConfig(sigma=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^sigma .* must be a finite nonnegative number"):
            NoiseConfig(sigma=bad)
    assert NoiseConfig(sigma=0.0).sigma == 0.0
    for bad in (1.5, 2.0, "3", True, None):
        with pytest.raises(ValueError, match="^noise seed must be an integer"):
            NoiseConfig(seed=bad)
    assert NoiseConfig(seed=np.int64(3)).seed == 3


def test_generation_rejects_ill_typed_counts_and_negative_seeds():
    model = smd_model(SmdConfig(N=10))
    for bad in (True, 2.5, "3", None):
        with pytest.raises(ValueError, match=r"^L \(trajectory count\) must be an integer"):
            generate_dataset(model, bad)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            generate_dataset(model, 2, seed=bad)
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
        generate_dataset(model, 2, seed=-1)
    with pytest.raises(ValueError, match="^noise seed must be a nonnegative integer, got -3$"):
        NoiseConfig(seed=-3)
    assert generate_dataset(model, np.int64(2), seed=np.int64(0)).L == 2


def test_generation_refuses_mistyped_excitation_and_noise():
    """A record, a number or an empty record where an ExcitationSpec or a
    NoiseConfig belongs is refused with ValueError before any simulation,
    rather than failing on a missing attribute or standing for the default."""
    model = smd_model(SmdConfig(N=10))
    for bad in ({"x0": "uniform"}, {}, 0.1, "white"):
        with pytest.raises(ValueError, match="^excitation must be an ExcitationSpec, got "):
            generate_dataset(model, 2, excitation=bad)
    for bad in ({"sigma": 0.1}, {}, 0.1, 0):
        with pytest.raises(ValueError, match="^noise must be a NoiseConfig, got "):
            generate_dataset(model, 2, noise=bad)
    default = generate_dataset(model, 2, excitation=None, noise=None)
    assert_same_dataset(default, generate_dataset(model, 2, excitation=ExcitationSpec()))


def test_generation_refuses_a_one_instant_model_before_simulating(monkeypatch):
    """A model of one instant gives no dataset, which needs two; it is
    refused with that reason before any trajectory is simulated."""
    def simulated(*args):
        raise AssertionError("simulated a model that gives no dataset")

    monkeypatch.setattr(sim, "_simulate_batch", simulated)
    with pytest.raises(ValueError, match="^a dataset needs at least two instants, "
                                         "got a model with N = 1$"):
        generate_dataset(LtvModel.constant([[0.5]], [[1.0]], 1), 2)


def test_excitation_rejects_bad_scales_and_empty_frequencies():
    for name in ("x0_scale", "input_scale"):
        for bad in (-1.0, -1e-300, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be a finite nonnegative number"):
                ExcitationSpec(**{name: bad})
        assert getattr(ExcitationSpec(**{name: 0.0}), name) == 0.0
    with pytest.raises(ValueError, match="frequencies must list at least one"):
        ExcitationSpec(inputs="sinusoids", frequencies=())
    with pytest.raises(ValueError, match="frequencies must list at least one"):
        ExcitationSpec.from_dict({"inputs": "sinusoids", "frequencies": []})
    assert ExcitationSpec(inputs="white", frequencies=()).frequencies == ()


def test_smd_model_matches_per_instant_expm():
    for ltv in (True, False):
        config = SmdConfig(N=2500, ltv=ltv)
        assert np.array_equal(smd_model(config).C, smd_model_loop(config).C)


# ---------------------------------------------------------------- simulate


def test_simulate_identity_holds_state():
    model = LtvModel.constant(np.eye(2), np.zeros((2, 1)), 4)
    states = simulate(model, [3.0, -1.0], np.ones((4, 1)))
    assert_allclose(states, np.tile([3.0, -1.0], (5, 1)))


def test_simulate_geometric_doubling():
    model = LtvModel.constant(2.0 * np.eye(1), np.zeros((1, 0)), 3)
    states = simulate(model, [1.0], np.zeros((3, 0)))
    assert_allclose(states.ravel(), [1.0, 2.0, 4.0, 8.0])


def test_simulate_matches_scalar_loop():
    rng = np.random.default_rng(40)
    model = LtvModel(p=2, q=2, N=6, C=rng.normal(size=(6, 4, 2)) * 0.4)
    x0 = rng.normal(size=2)
    u = rng.normal(size=(6, 2))
    states = simulate(model, x0, u)
    x = x0.copy()
    for k in range(6):
        x = model.A(k) @ x + model.B(k) @ u[k]
        assert_allclose(states[k + 1], x, rtol=1e-12, atol=1e-14)


def test_simulate_validation():
    model = LtvModel.constant(np.eye(2), np.ones((2, 1)), 3)
    with pytest.raises(ValueError, match="initial state has shape"):
        simulate(model, [1.0], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="inputs have shape"):
        simulate(model, [1.0, 2.0], np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^inputs are not a numeric array$"):
        simulate(model, [1.0, 2.0], ["1", "0", "1"])
    with pytest.raises(ValueError, match="^initial state entries are not a numeric array$"):
        simulate(model, [True, 2.0], np.zeros((3, 1)))
    # A single input channel may be given as a plain sequence.
    assert np.array_equal(simulate(model, [1.0, 2.0], [1.0, 0.0, -1.0]),
                          simulate(model, [1.0, 2.0], [[1.0], [0.0], [-1.0]]))
    still = LtvModel.constant(np.eye(2), np.zeros((2, 0)), 3)
    with pytest.raises(ValueError, match=r"^inputs have shape \(0,\), expected \(3, 0\)$"):
        simulate(still, [1.0, 2.0], [])


# ---------------------------------------------------------------- datasets


def test_generation_is_deterministic():
    model = smd_model(SmdConfig(N=15))
    kwargs = dict(excitation=ExcitationSpec(), noise=NoiseConfig(sigma=0.05, seed=4), seed=9)
    a = generate_dataset(model, 3, **kwargs)
    b = generate_dataset(model, 3, **kwargs)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.inputs, tb.inputs)
    c = generate_dataset(model, 3, excitation=ExcitationSpec(),
                         noise=NoiseConfig(sigma=0.05, seed=4), seed=10)
    assert not np.array_equal(a.trajectories[0].states, c.trajectories[0].states)


def assert_same_dataset(data, ref, rtol=0.0):
    assert (data.p, data.q, data.N, data.L) == (ref.p, ref.q, ref.N, ref.L)
    for tr, tr_ref in zip(data.trajectories, ref.trajectories):
        assert np.array_equal(tr.inputs, tr_ref.inputs)
        if rtol == 0.0:
            assert np.array_equal(tr.states, tr_ref.states)
        else:
            gap = np.linalg.norm(tr.states - tr_ref.states) / np.linalg.norm(tr_ref.states)
            assert gap <= rtol


def test_generation_matches_per_trajectory_loops_on_smd():
    model = smd_model(SmdConfig(N=2500))
    for x0 in ("uniform", "gaussian"):
        for inputs in ("white", "sinusoids"):
            excitation = ExcitationSpec(x0=x0, inputs=inputs)
            for noise in (None, NoiseConfig(sigma=0.06, seed=3)):
                assert_same_dataset(generate_dataset(model, 6, excitation, noise, seed=11),
                                    generate_dataset_loop(model, 6, excitation, noise, seed=11))


def test_generation_matches_per_trajectory_loops_on_wide_plant():
    model = drifting_plant(np.random.default_rng(2), 8, 4, 500)
    for noise in (None, NoiseConfig(sigma=0.06, seed=1)):
        assert_same_dataset(generate_dataset(model, 24, noise=noise, seed=5),
                            generate_dataset_loop(model, 24, noise=noise, seed=5), rtol=1e-14)


def test_trajectory_streams_are_independent():
    model = smd_model(SmdConfig(N=10))
    small = generate_dataset(model, 3, noise=NoiseConfig(sigma=0.02), seed=1)
    large = generate_dataset(model, 5, noise=NoiseConfig(sigma=0.02), seed=1)
    for ts, tl in zip(small.trajectories, large.trajectories):
        assert np.array_equal(ts.states, tl.states)
        assert np.array_equal(ts.inputs, tl.inputs)


def test_input_scale_scales_white_inputs():
    model = smd_model(SmdConfig(N=8))
    base = generate_dataset(model, 2, excitation=ExcitationSpec(input_scale=1.0))
    loud = generate_dataset(model, 2, excitation=ExcitationSpec(input_scale=2.0))
    for tb, tl in zip(base.trajectories, loud.trajectories):
        assert_allclose(tl.inputs, 2.0 * tb.inputs, rtol=1e-15)


def test_excitation_variants():
    model = smd_model(SmdConfig(N=8))
    quiet = generate_dataset(model, 1, excitation=ExcitationSpec(inputs="zero"))
    assert np.array_equal(quiet.trajectories[0].inputs, np.zeros((8, 1)))
    waves = generate_dataset(
        model, 2, excitation=ExcitationSpec(inputs="sinusoids", input_scale=0.5))
    u = waves.trajectories[0].inputs
    assert u.shape == (8, 1)
    assert np.max(np.abs(u)) <= 0.5 * 3 + 1e-12
    assert np.any(u != 0.0)
    gauss = generate_dataset(
        model, 1, excitation=ExcitationSpec(x0="gaussian", x0_scale=3.0))
    assert gauss.trajectories[0].states.shape == (9, 2)
    with pytest.raises(ValueError, match=r"^L \(trajectory count\) must be at least 1, got 0$"):
        generate_dataset(model, 0)


def test_white_excitation_is_sufficient():
    model = smd_model(SmdConfig(N=12))
    ds = generate_dataset(model, 4, seed=2)
    assert covariance_sufficiency(ds).sufficient


def test_unexcited_single_trajectory_is_insufficient():
    model = smd_model(SmdConfig(N=12))
    ds = generate_dataset(
        model, 1, excitation=ExcitationSpec(x0_scale=0.0, inputs="zero"))
    report = covariance_sufficiency(ds)
    assert not report.sufficient
    assert report.rank == 0


# ---------------------------------------------------------------- identification


def test_noiseless_data_recovers_the_plant():
    truth = smd_model(SmdConfig())
    ds = generate_dataset(truth, 6, seed=0)
    est = fit(ds, 1e-9)
    assert estimation_error(est, truth) <= 1e-6 * np.linalg.norm(truth.C)


def test_estimation_error_grows_with_noise():
    truth = smd_model(SmdConfig())
    medians = []
    for sigma in (0.0, 0.006, 0.06, 0.6):
        errors = []
        for seed in range(10):
            noise = NoiseConfig(sigma=sigma, seed=seed) if sigma > 0.0 else None
            ds = generate_dataset(truth, 6, noise=noise, seed=seed)
            errors.append(estimation_error(fit(ds, 1e-3), truth))
        medians.append(float(np.median(errors)))
    assert medians[0] <= 1e-2
    for before, after in zip(medians, medians[1:]):
        assert after >= before


def test_heavy_smoothing_helps_under_noise():
    truth = smd_model(SmdConfig())
    by_lam = {}
    for lam in (1e-3, 1e5):
        errors = []
        for seed in range(10):
            ds = generate_dataset(truth, 6, noise=NoiseConfig(sigma=0.06, seed=seed),
                                  seed=seed)
            errors.append(estimation_error(fit(ds, lam), truth))
        by_lam[lam] = float(np.median(errors))
    assert by_lam[1e5] < by_lam[1e-3]
