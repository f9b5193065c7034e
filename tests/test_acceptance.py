"""Release gate: eleven behavioral criteria checked end to end.

Each test prints one ``[criterion NN] PASS/FAIL label: detail`` line before
asserting, so ``pytest -s tests/test_acceptance.py`` doubles as a release
checklist.  All tolerances, seeds, and grids are pinned constants.  Where a
grid point was chosen by a statistical study (criterion 8's middle noise
level), the study used seeds disjoint from the pinned ones, and the test
docstring records its seed ranges and numbers.
"""

import json
import statistics
import time

import numpy as np
import pytest

from ltvkit import (LambdaSchedule, NoiseConfig, SingularBlock, SingularSystem,
                    SmdConfig, SolveOptions, TrajectoryDataset, assemble_stacked,
                    build_system, closed_loop_rollout, cosmic_solve, covariance_sufficiency,
                    estimation_error, generate_dataset, lqr_synthesize,
                    oracle_solve, predicted_multiply_count, sbcd_solve,
                    smd_model, tracking_stats)
from ltvkit.cli import main as cli_main

from _cases import (ILL_SCALED_SCHEDULES, confined_dataset, ill_scaled_instance,
                    random_dataset, random_instance)

_MASTER_SEED = 20260401


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _gap(c_a, c_b):
    return float(np.linalg.norm(c_a - c_b)) / (1.0 + float(np.linalg.norm(c_b)))


@pytest.fixture(scope="module")
def instances():
    """50 pinned random instances: N in [3,50], p in [1,4], q in [0,2], L in [m, 2m]."""
    rng = np.random.default_rng(_MASTER_SEED)
    return [random_instance(rng) for _ in range(50)]


@pytest.fixture(scope="module")
def solved(instances):
    start = time.perf_counter()
    reports = [(cosmic_solve(data, sched), oracle_solve(data, sched))
               for data, sched in instances]
    return reports, time.perf_counter() - start


def test_criterion_01_closed_form_matches_dense_oracle(instances, solved):
    reports, elapsed = solved
    worst = max(_gap(rc.model.C, ro.model.C) for rc, ro in reports)
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, "oracle equivalence", ok,
            f"worst scaled deviation {worst:.3e} over 50 instances in {elapsed:.2f}s")
    assert ok


def test_criterion_02_solutions_are_stationary(instances, solved):
    reports, _ = solved
    worst = 0.0
    for (data, sched), (rc, _) in zip(instances, reports):
        theta_norm = float(np.linalg.norm(build_system(data, sched).theta))
        worst = max(worst, rc.gradient_norm / (1.0 + theta_norm))
    ok = worst <= 1e-8
    _report(2, "stationarity", ok, f"worst scaled gradient norm {worst:.3e}")
    assert ok


def test_criterion_03_coordinate_descent_agrees(instances, solved):
    reports, _ = solved
    worst_cost, worst_model = 0.0, 0.0
    for (data, sched), (rc, _) in zip(instances[:10], reports[:10]):
        rs = sbcd_solve(data, sched, epsilon=1e-12, seed=0)
        assert rs.converged
        worst_cost = max(worst_cost,
                         abs(rs.final_cost - rc.final_cost) / abs(rc.final_cost))
        worst_model = max(worst_model,
                          float(np.linalg.norm(rs.model.C - rc.model.C))
                          / float(np.linalg.norm(rc.model.C)))
    ok = worst_cost <= 1e-6 and worst_model <= 1e-4
    _report(3, "coordinate descent agreement", ok,
            f"worst relative cost {worst_cost:.3e}, worst relative model {worst_model:.3e}")
    assert ok


def test_criterion_04_multiply_count_is_exact():
    rng = np.random.default_rng(777)
    exact = 0
    for _ in range(20):
        n = int(rng.integers(2, 41))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(0, 4))
        data = assemble_stacked(random_dataset(rng, p, q, n, p + q + 1))
        report = cosmic_solve(data, LambdaSchedule.scalar(1.0),
                              SolveOptions(accounting=True))
        predicted = predicted_multiply_count(n, p, q)
        exact += int((report.multiply_count, report.multiply_forward,
                      report.multiply_backward) == tuple(predicted))
    ok = exact == 20
    _report(4, "multiply count exactness", ok,
            f"{exact}/20 shapes match total, forward, and backward exactly")
    assert ok


def test_criterion_05_solve_time_scales_linearly():
    """The two horizons' solves alternate, so a drift in machine speed
    during the test slows both alike instead of one block of timings."""
    start = time.perf_counter()
    sched = LambdaSchedule.scalar(1e-3)
    datasets = {n: assemble_stacked(
        generate_dataset(smd_model(SmdConfig(N=n)), 6, noise=None, seed=0))
        for n in (1_000, 10_000)}
    elapsed = {n: [] for n in datasets}
    for _ in range(11):
        for n, data in datasets.items():
            elapsed[n].append(cosmic_solve(data, sched).elapsed)
    medians = {n: statistics.median(times) for n, times in elapsed.items()}
    ratio = medians[10_000] / medians[1_000]
    total = time.perf_counter() - start
    ok = 5.0 <= ratio <= 15.0 and total < 60.0
    _report(5, "linear time scaling", ok,
            f"10x horizon costs {ratio:.2f}x "
            f"({medians[1_000]:.4f}s vs {medians[10_000]:.4f}s), total {total:.1f}s")
    assert ok


def test_criterion_06_rank_deficiency_is_detected():
    rng = np.random.default_rng(_MASTER_SEED + 6)
    flagged = solver_raised = 0
    for _ in range(20):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(0, 3))
        if p + q < 2:
            p = 2
        ds = confined_dataset(rng, p, q, int(rng.integers(3, 9)), p + q + 2)
        raised = False
        try:
            oracle_solve(assemble_stacked(ds), LambdaSchedule.scalar(1.0))
        except (SingularSystem, SingularBlock):
            raised = True
        insufficient = not covariance_sufficiency(ds).sufficient
        if raised or insufficient:
            flagged += 1
        solver_raised += int(raised)
    generic_ok = 0
    for _ in range(20):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(0, 3))
        ds = random_dataset(rng, p, q, int(rng.integers(3, 9)), p + q)
        report = covariance_sufficiency(ds)
        oracle_solve(assemble_stacked(ds), LambdaSchedule.scalar(1.0))
        generic_ok += int(report.sufficient)
    ok = flagged == 20 and generic_ok == 20
    _report(6, "rank deficiency detection", ok,
            f"20/20 deficient datasets flagged ({solver_raised} by the solver, "
            f"all by the covariance check); {generic_ok}/20 generic datasets pass")
    assert ok


def test_criterion_07_noiseless_recovery_is_exact():
    truth = smd_model(SmdConfig())
    dataset = generate_dataset(truth, 6, noise=None, seed=0)
    est = cosmic_solve(assemble_stacked(dataset), LambdaSchedule.scalar(1e-9)).model
    scale = float(np.linalg.norm(truth.C))
    error = estimation_error(est, truth)
    ok = error <= 1e-6 * scale
    _report(7, "noiseless exact recovery", ok,
            f"estimation error {error:.3e} vs bound {1e-6 * scale:.3e}")
    assert ok


def test_criterion_08_noise_study_trends():
    """Error grows with noise under heavy smoothing; heavy smoothing wins at high noise.

    Clause A: at sigma=0.06 the lambda=1e5 median estimation error over
    seeds 0..9 is below the lambda=1e-3 one.  Clause B: the lambda=1e5
    median strictly increases over sigma in {0, 0.04, 0.06}; strict, so a
    fit that ignored the noise could not pass.

    The middle level was 0.006 until it was shown to test the seed set
    rather than the estimator.  There the noise acts on the regressors as
    well as the targets, and its shrinkage of the identified coefficients
    cancels the smoothing bias: over held-out seeds 100..299 the paired
    shift of the error from sigma=0 to 0.006 is +2.0e-5 +- 2.5e-5 (standard
    error) against a per-seed scatter of 3.6e-4, and on seeds 0..9 the
    medians were 0.35765, 0.35748, 0.40813.  The replacement was chosen on
    seeds 100..499 split into 40 disjoint 10-seed blocks, none of them in
    0..9: the strict chain held in 18/40 blocks with a middle level of
    0.006, 32/40 with 0.02, 38/40 with 0.03 and 40/40 with 0.04, and
    clause A held in 40/40 blocks with a margin of at least 4.9x.
    """
    truth = smd_model(SmdConfig())

    def median_error(lam, sigma):
        errors = []
        for seed in range(10):
            noise = NoiseConfig(sigma=sigma, seed=seed) if sigma > 0 else None
            ds = generate_dataset(truth, 6, noise=noise, seed=seed)
            est = cosmic_solve(assemble_stacked(ds), LambdaSchedule.scalar(lam)).model
            errors.append(estimation_error(est, truth))
        return float(np.median(errors))

    heavy = [median_error(1e5, s) for s in (0.0, 0.04, 0.06)]
    light = median_error(1e-3, 0.06)
    clause_a = heavy[2] < light
    clause_b = heavy[0] < heavy[1] < heavy[2]
    ok = clause_a and clause_b
    _report(8, "noise study trends", ok,
            f"smoothing ordering at sigma=0.06: {heavy[2]:.5f} < {light:.5f} "
            f"({'holds' if clause_a else 'violated'}); medians over sigma at "
            f"lambda=1e5: {heavy[0]:.5f}, {heavy[1]:.5f}, {heavy[2]:.5f} "
            f"({'increasing' if clause_b else 'not increasing'})")
    assert ok


def test_criterion_09_estimated_controller_is_competitive():
    truth = smd_model(SmdConfig())
    frozen = smd_model(SmdConfig(ltv=False))
    gains_truth = lqr_synthesize(truth)
    gains_frozen = lqr_synthesize(frozen)

    def sse(gains, x0):
        result = closed_loop_rollout(truth, gains, x0=x0)
        return tracking_stats(result.tracking_errors).sum_sq

    estimated = {}
    sse_est = []
    for seed in range(10):
        ds = generate_dataset(truth, 6, noise=NoiseConfig(sigma=0.06, seed=seed),
                              seed=seed)
        model = cosmic_solve(assemble_stacked(ds), LambdaSchedule.scalar(1e5)).model
        estimated[seed] = lqr_synthesize(model)
        sse_est.append(sse(estimated[seed], [1.0, 0.0]))
    med_est = float(np.median(sse_est))
    med_truth = sse(gains_truth, [1.0, 0.0])
    med_frozen = sse(gains_frozen, [1.0, 0.0])
    ratios_ok = med_est <= 1.10 * med_truth and med_est <= 1.05 * med_frozen

    converged = 0
    for x0 in ([1.0, 0.0], [-0.5, 0.5], [0.3, -1.0]):
        for gains in (estimated[0], gains_truth, gains_frozen):
            result = closed_loop_rollout(truth, gains, x0=x0)
            converged += int(
                result.tracking_errors[-1] < 0.05 * result.tracking_errors[0])
    ok = ratios_ok and converged == 9
    _report(9, "estimated controller quality", ok,
            f"median SSE {med_est:.4f} vs truth {med_truth:.4f} (<=1.10x) and "
            f"frozen {med_frozen:.4f} (<=1.05x); {converged}/9 rollouts regulate "
            "below 5% of the initial offset")
    assert ok


def test_criterion_10_closed_form_is_scale_robust():
    """The closed form agrees with the independent dense oracle on generic
    data and on the ill-scaled family (first state coordinate times 1e6 to
    1e12), and leaves a small scaled gradient on ill-scaled data."""
    rng = np.random.default_rng(_MASTER_SEED + 10)
    worst = 0.0
    for _ in range(10):
        data, sched = random_instance(rng)
        worst = max(worst, _gap(cosmic_solve(data, sched).model.C,
                                oracle_solve(data, sched).model.C))
    worst_ill = 0.0
    for ratio in (1e6, 1e8, 1e10, 1e12):
        for seed in (0, 1):
            data, _ = ill_scaled_instance(ratio, n=12, seed=seed, process_noise=0.01)
            for sched in ILL_SCALED_SCHEDULES.values():
                worst_ill = max(worst_ill, _gap(cosmic_solve(data, sched).model.C,
                                                oracle_solve(data, sched).model.C))
    data, sched = ill_scaled_instance()
    report = cosmic_solve(data, sched)
    theta_norm = float(np.linalg.norm(build_system(data, sched).theta))
    scaled_grad = report.gradient_norm / (1.0 + theta_norm)
    ok = worst <= 1e-9 and worst_ill <= 1e-9 and scaled_grad <= 1e-6
    _report(10, "closed form is scale-robust", ok,
            f"worst oracle gap {worst:.3e} on generic data, {worst_ill:.3e} on "
            f"the ill-scaled family (1e6-1e12 ratios); ill-scaled (1e6 ratio) "
            f"scaled gradient {scaled_grad:.3e}")
    assert ok


def test_criterion_11_commands_are_deterministic(tmp_path):
    def run_matrix(root):
        root.mkdir()
        p = lambda name: str(root / name)
        (root / "gen.json").write_text(json.dumps(
            {"smd": {"N": 12}, "L": 4, "noise": {"sigma": 0.03, "seed": 1},
             "seed": 5}))
        (root / "bench.json").write_text(json.dumps(
            {"N_grid": [10, 20], "solvers": ["cosmic", "oracle", "sbcd"],
             "repetitions": 2, "accounting": True, "sbcd_epsilon": 1e-8}))
        (root / "sweep.json").write_text(json.dumps(
            {"lambda_grid": [1e-3], "sigma_grid": [0.0, 0.01],
             "seeds": [0, 1, 2], "L": 4, "smd": {"N": 12}}))
        commands = [
            ["generate", "--config", p("gen.json"), "--out", p("data.json"),
             "--model-out", p("truth.json")],
            ["check", "--data", p("data.json"), "--out", p("check.json")],
            ["fit", "--data", p("data.json"), "--lambda", "1e-2",
             "--out", p("model.json")],
            ["fit", "--data", p("data.json"), "--lambda", "1e-2", "--solver",
             "sbcd", "--epsilon", "1e-8", "--seed", "3", "--out", p("sbcd.json")],
            ["eval", "--model", p("model.json"), "--data", p("data.json"),
             "--trajectory", "1", "--out", p("eval.csv")],
            ["lqr", "--model", p("model.json"), "--out", p("gains.json")],
            ["rollout", "--plant", p("truth.json"), "--gains", p("gains.json"),
             "--x0", "0.7,-0.2", "--noise-sigma", "0.02", "--noise-seed", "9",
             "--out", p("rollout.csv")],
            ["bench", "--spec", p("bench.json"), "--out", p("bench.csv")],
            ["sweep", "--spec", p("sweep.json"), "--out", p("sweep.csv")],
        ]
        for argv in commands:
            assert cli_main(argv + ["--quiet"]) == 0
        outputs = {}
        for name in ("data.json", "truth.json", "check.json", "model.json",
                     "sbcd.json", "eval.csv", "gains.json", "rollout.csv",
                     "sweep.csv"):
            outputs[name] = (root / name).read_bytes()
        bench_rows = (root / "bench.csv").read_text().splitlines()
        outputs["bench.csv"] = "\n".join(
            ",".join(cell for i, cell in enumerate(row.split(",")) if i != 2)
            for row in bench_rows)
        return outputs

    first = run_matrix(tmp_path / "run_a")
    second = run_matrix(tmp_path / "run_b")
    diffs = [name for name in first if first[name] != second[name]]
    ok = not diffs
    _report(11, "command determinism", ok,
            "10 output files byte-identical across two runs "
            "(bench timing column excluded)" if ok else f"differing files: {diffs}")
    assert ok
