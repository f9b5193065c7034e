import io
import json
from pathlib import Path

import numpy as np
import pytest

from ltvkit import LtvModel, TrajectoryDataset, cli
from ltvkit.cli import _COVARIANCE_HINT, _fmt, main

HINT = "dataset covariance not positive definite - collect more varied trajectories"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Noiseless benchmark dataset with its generating model, made once."""
    root = tmp_path_factory.mktemp("cli")
    config = write_json(root / "config.json",
                        {"smd": {"N": 12}, "L": 4, "noise": None, "seed": 5})
    code = main(["generate", "--config", config, "--out", str(root / "data.json"),
                 "--model-out", str(root / "model.json"), "--quiet"])
    assert code == 0
    return root


# ---------------------------------------------------------------- generate


def test_generate_writes_dataset_and_model(tmp_path, capsys):
    config = write_json(tmp_path / "config.json",
                        {"smd": {"N": 12}, "L": 4,
                         "noise": {"sigma": 0.03, "seed": 1}, "seed": 5})
    code, out, _ = run(capsys, "generate", "--config", config,
                       "--out", str(tmp_path / "data.json"),
                       "--model-out", str(tmp_path / "model.json"))
    assert code == 0
    summary = json.loads(out)
    assert summary == {"p": 2, "q": 1, "N": 12, "L": 4, "sigma": 0.03,
                       "seed": 5, "out": str(tmp_path / "data.json")}
    dataset = TrajectoryDataset.from_dict(
        json.loads((tmp_path / "data.json").read_text()))
    assert (dataset.p, dataset.q, dataset.N, dataset.L) == (2, 1, 12, 4)
    model = LtvModel.from_dict(json.loads((tmp_path / "model.json").read_text()))
    assert (model.p, model.q, model.N) == (2, 1, 12)


def test_generate_defaults_to_measurement_noise(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--out", str(tmp_path / "data.json"))
    assert code == 0
    summary = json.loads(out)
    assert summary["sigma"] == 0.06
    assert (summary["N"], summary["L"], summary["seed"]) == (100, 6, 0)


def test_generate_determinism_and_seed_override(tmp_path, capsys):
    config = write_json(tmp_path / "config.json",
                        {"smd": {"N": 8}, "L": 2, "seed": 5})
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    run(capsys, "generate", "--config", config, "--out", str(a))
    run(capsys, "generate", "--config", config, "--out", str(b))
    code, out, _ = run(capsys, "generate", "--config", config, "--out", str(c),
                       "--seed", "7")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert json.loads(out)["seed"] == 7


def test_generate_rejects_unknown_config_keys(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", {"plant": {}})
    code, _, err = run(capsys, "generate", "--config", config,
                       "--out", str(tmp_path / "data.json"))
    assert code == 1
    assert "unknown keys" in err


def test_generate_rejects_bad_excitation(tmp_path, capsys):
    cases = [({"x0_scale": -1.0}, "x0_scale must be a finite nonnegative number"),
             ({"input_scale": -0.5}, "input_scale must be a finite nonnegative number"),
             ({"inputs": "sinusoids", "frequencies": []}, "frequencies must list at least one")]
    for excitation, message in cases:
        config = write_json(tmp_path / "config.json", {"smd": {"N": 20}, "excitation": excitation})
        code, _, err = run(capsys, "generate", "--config", config,
                           "--out", str(tmp_path / "data.json"))
        assert code == 1
        assert message in err
        assert not (tmp_path / "data.json").exists()


def test_generate_rejects_bad_plant_config(tmp_path, capsys):
    cases = [({"N": 20, "omega": float("nan")}, "omega must be a finite number"),
             ({"N": 20, "dt": float("inf")}, "dt must be a finite number"),
             ({"N": 10.5}, "horizon N must be an integer")]
    for smd, message in cases:
        config = write_json(tmp_path / "config.json", {"smd": smd})
        code, _, err = run(capsys, "generate", "--config", config,
                           "--out", str(tmp_path / "data.json"))
        assert code == 1
        assert message in err
        assert "not finite" not in err
        assert not (tmp_path / "data.json").exists()


def test_generate_rejects_non_finite_noise(tmp_path, capsys):
    for sigma in (float("nan"), float("inf")):
        config = write_json(tmp_path / "config.json",
                            {"smd": {"N": 20}, "noise": {"sigma": sigma}})
        code, out, err = run(capsys, "generate", "--config", config,
                             "--out", str(tmp_path / "data.json"))
        assert code == 1
        assert "sigma" in err
        assert out == ""
        assert not (tmp_path / "data.json").exists()


# ---------------------------------------------------------------- check


def test_check_reports_sufficiency(tmp_path, capsys):
    data = write_json(tmp_path / "onehot.json", TrajectoryDataset.build(
        1, 1, [([1.0, 0.0, 0.0], [0.0, 1.0])]).to_dict())
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--data", data, "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["sufficient"] is True
    assert report["rank"] == 2
    assert json.loads(out_path.read_text()) == report


def test_check_rejects_non_finite_tolerance(tmp_path, capsys):
    data = write_json(tmp_path / "onehot.json", TrajectoryDataset.build(
        1, 1, [([1.0, 0.0, 0.0], [0.0, 1.0])]).to_dict())
    out_path = tmp_path / "report.json"
    for tol in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "check", "--data", data, "--tol", tol,
                             "--out", str(out_path))
        assert code == 1
        assert "tol" in err
        assert out == ""
        assert not out_path.exists()


def test_check_flags_unexcited_dataset(tmp_path, capsys):
    config = write_json(tmp_path / "config.json",
                        {"smd": {"N": 10}, "L": 1, "noise": None,
                         "excitation": {"x0_scale": 0.0, "inputs": "zero"}})
    data = tmp_path / "data.json"
    run(capsys, "generate", "--config", config, "--out", str(data))
    code, out, _ = run(capsys, "check", "--data", str(data))
    assert code == 0
    report = json.loads(out)
    assert report["sufficient"] is False
    assert report["rank"] == 0


# ---------------------------------------------------------------- fit


def test_fit_solvers_agree(workdir, tmp_path, capsys):
    data = str(workdir / "data.json")
    code_a, out_a, _ = run(capsys, "fit", "--data", data, "--lambda", "1e-2",
                           "--out", str(tmp_path / "cosmic.json"))
    code_b, out_b, _ = run(capsys, "fit", "--data", data, "--lambda", "1e-2",
                           "--solver", "oracle", "--out", str(tmp_path / "oracle.json"),
                           "--quiet")
    assert (code_a, code_b) == (0, 0)
    assert out_b == ""
    report = json.loads(out_a)
    assert report["iterations"] == 1
    assert report["converged"] is True
    ca = LtvModel.from_dict(json.loads((tmp_path / "cosmic.json").read_text())).C
    cb = LtvModel.from_dict(json.loads((tmp_path / "oracle.json").read_text())).C
    assert np.linalg.norm(ca - cb) <= 1e-8 * (1 + np.linalg.norm(cb))


def test_fit_sbcd_converges_to_same_cost(workdir, tmp_path, capsys):
    data = str(workdir / "data.json")
    _, out_ref, _ = run(capsys, "fit", "--data", data, "--lambda", "1e-2",
                        "--out", str(tmp_path / "ref.json"))
    code, out, _ = run(capsys, "fit", "--data", data, "--lambda", "1e-2",
                       "--solver", "sbcd", "--epsilon", "1e-8", "--seed", "3",
                       "--out", str(tmp_path / "sbcd.json"))
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["iterations"] > 1
    ref_cost = json.loads(out_ref)["final_cost"]
    assert abs(report["final_cost"] - ref_cost) <= 1e-6 * (1 + ref_cost)


def test_fit_sbcd_rejects_nan_epsilon(workdir, tmp_path, capsys):
    out_path = tmp_path / "sbcd.json"
    code, out, err = run(capsys, "fit", "--data", str(workdir / "data.json"),
                         "--lambda", "1", "--solver", "sbcd", "--epsilon", "nan",
                         "--max-iters", "300", "--out", str(out_path))
    assert code == 1
    assert "stopping tolerance" in err
    assert out == ""
    assert not out_path.exists()


def test_fit_accepts_schedule_files(workdir, tmp_path, capsys):
    data = str(workdir / "data.json")
    zoned = write_json(tmp_path / "zoned.json",
                       {"zones": [[1, 1e8], [4, 1e2], [7, 1e8]]})
    code, out, _ = run(capsys, "fit", "--data", data, "--lambda-file", zoned,
                       "--out", str(tmp_path / "zfit.json"))
    assert code == 0
    assert json.loads(out)["final_cost"] >= 0.0
    per = write_json(tmp_path / "per.json", {"per_instant": [0.1] * 11})
    code, _, _ = run(capsys, "fit", "--data", data, "--lambda-file", per,
                     "--out", str(tmp_path / "pfit.json"))
    assert code == 0


def test_fit_requires_exactly_one_schedule(workdir, tmp_path, capsys):
    data = str(workdir / "data.json")
    sched = write_json(tmp_path / "sched.json", {"scalar": 1.0})
    code, _, err = run(capsys, "fit", "--data", data, "--lambda", "1.0",
                       "--lambda-file", sched, "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "not both" in err
    code, _, err = run(capsys, "fit", "--data", data, "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "smoothness schedule is required" in err


def test_fit_insufficient_data_fails_with_hint(tmp_path, capsys):
    data = write_json(tmp_path / "zero.json", TrajectoryDataset.build(
        1, 0, [([0.0, 0.0, 0.0], None)]).to_dict())
    code, _, err = run(capsys, "fit", "--data", data, "--lambda", "1.0",
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert HINT in err
    assert _COVARIANCE_HINT == HINT


def test_fit_solves_ill_scaled_data(workdir, tmp_path, capsys):
    # The first state coordinate in units 1e10 times smaller: the pivot test
    # does not depend on units, so the fit succeeds on the one closed-form route.
    record = json.loads((workdir / "data.json").read_text(encoding="utf-8"))
    for trajectory in record["trajectories"]:
        for row in trajectory["states"]:
            row[0] *= 1e10
    data = write_json(tmp_path / "ill.json", record)
    code, out, err = run(capsys, "fit", "--data", data, "--lambda", "1",
                         "--out", str(tmp_path / "m.json"))
    assert code == 0, err
    assert json.loads(out)["preconditioned"] is False
    code, _, err = run(capsys, "fit", "--data", data, "--lambda", "1", "--precondition", "on",
                       "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "--precondition" in err


def test_fit_at_huge_lambda_hints_to_lower_it(tmp_path, capsys):
    # The data are sufficient, but lambda * eps exceeds their Gram diagonal,
    # so forming the pivots rounds the data away: lambda is at fault.
    config = write_json(tmp_path / "config.json", {"smd": {"N": 100}, "seed": 0})
    data = tmp_path / "data.json"
    assert main(["generate", "--config", config, "--out", str(data), "--quiet"]) == 0
    code, _, err = run(capsys, "fit", "--data", str(data), "--lambda", "1e18",
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "hint: lambda = 1e+18 swamps the data" in err
    assert "lower lambda" in err
    assert HINT not in err


def test_non_finite_data_fails_without_hint(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", {"smd": {"N": 20}, "L": 4, "seed": 0})
    data = tmp_path / "data.json"
    assert main(["generate", "--config", config, "--out", str(data), "--quiet"]) == 0
    record = json.loads(data.read_text(encoding="utf-8"))
    record["trajectories"][0]["states"][10][0] = float("nan")
    bad = write_json(tmp_path / "nan.json", record)
    for argv in (["fit", "--data", bad, "--lambda", "1e5", "--out", str(tmp_path / "m.json")],
                 ["check", "--data", bad]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "trajectory 0: states at instant 10 are not finite" in err
        assert HINT not in err


def test_fit_rejects_overflowing_lambda_without_hint(workdir, tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--data", str(workdir / "data.json"),
                       "--lambda", "1e160", "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "too large: its square overflows" in err
    assert HINT not in err


# ---------------------------------------------------------------- eval


def test_eval_against_truth_and_data(workdir, tmp_path, capsys):
    model = str(workdir / "model.json")
    data = str(workdir / "data.json")
    code, out, _ = run(capsys, "eval", "--model", model, "--truth", model)
    assert code == 0
    assert json.loads(out)["estimation_error"] == 0.0

    csv_path = tmp_path / "errors.csv"
    code, out, _ = run(capsys, "eval", "--model", model, "--data", data,
                       "--trajectory", "1", "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["trajectory"] == 1
    assert summary["max_error"] <= 1e-12
    header, rows = read_csv(csv_path)
    assert header == ["k", "error"]
    assert [row[0] for row in rows] == [str(k) for k in range(12)]
    assert all(float(row[1]) <= 1e-12 for row in rows)

    code, out, _ = run(capsys, "eval", "--model", model, "--data", data,
                       "--mode", "rollout")
    assert code == 0
    assert json.loads(out)["max_error"] <= 1e-12


def test_eval_argument_errors(workdir, tmp_path, capsys):
    model = str(workdir / "model.json")
    data = str(workdir / "data.json")
    code, _, err = run(capsys, "eval", "--model", model, "--data", data,
                       "--trajectory", "9")
    assert code == 1
    assert "out of range" in err
    code, _, err = run(capsys, "eval", "--model", model,
                       "--out", str(tmp_path / "e.csv"))
    assert code == 1
    assert "--out needs --data" in err
    code, _, err = run(capsys, "eval", "--model", model)
    assert code == 1
    assert "nothing to evaluate" in err


def test_eval_rejects_non_finite_models(workdir, tmp_path, capsys):
    model = str(workdir / "model.json")
    data = str(workdir / "data.json")
    for bad in (float("nan"), float("inf")):
        record = json.loads((workdir / "model.json").read_text())
        record["C"][5][0][1] = bad
        bad_model = write_json(tmp_path / "bad.json", record)
        for argv in (("--model", model, "--truth", bad_model),
                     ("--model", bad_model, "--truth", model),
                     ("--model", bad_model, "--data", data, "--mode", "rollout")):
            code, out, err = run(capsys, "eval", *argv)
            assert code == 1
            assert "instant 5 are not finite" in err
            assert out == ""


# ---------------------------------------------------------------- lqr + rollout


@pytest.fixture(scope="module")
def plant_files(tmp_path_factory, request):
    root = tmp_path_factory.mktemp("plant")
    config = write_json(root / "config.json", {"smd": {}, "L": 1, "noise": None})
    assert main(["generate", "--config", config, "--out", str(root / "data.json"),
                 "--model-out", str(root / "plant.json"), "--quiet"]) == 0
    assert main(["lqr", "--model", str(root / "plant.json"),
                 "--out", str(root / "gains.json"), "--quiet"]) == 0
    return root


def test_lqr_rollout_regulates_from_three_starts(plant_files, tmp_path, capsys):
    plant = str(plant_files / "plant.json")
    gains = str(plant_files / "gains.json")
    for tag, x0 in (("a", "1,0"), ("b", "-0.5,0.5"), ("c", "0.3,-1.0")):
        csv_path = tmp_path / f"roll_{tag}.csv"
        code, out, _ = run(capsys, "rollout", "--plant", plant, "--gains", gains,
                           f"--x0={x0}", "--out", str(csv_path))
        assert code == 0
        stats = json.loads(out)
        assert set(stats) == {"mean", "stddev", "sum_sq"}
        header, rows = read_csv(csv_path)
        assert header == ["k", "x0", "x1", "u0", "tracking_error"]
        assert len(rows) == 101
        assert rows[-1][3] == ""
        initial = float(rows[0][4])
        final = float(rows[-1][4])
        assert final < 0.05 * initial


def test_rollout_zero_reference_matches_default(plant_files, tmp_path, capsys):
    plant = str(plant_files / "plant.json")
    gains = str(plant_files / "gains.json")
    ref = write_json(tmp_path / "ref.json", {"states": [[0.0, 0.0]] * 101})
    plain, refd = tmp_path / "plain.csv", tmp_path / "ref.csv"
    run(capsys, "rollout", "--plant", plant, "--gains", gains, "--x0", "0.4,0.1",
        "--out", str(plain))
    run(capsys, "rollout", "--plant", plant, "--gains", gains, "--x0", "0.4,0.1",
        "--reference", ref, "--out", str(refd))
    assert plain.read_bytes() == refd.read_bytes()
    bad_ref = write_json(tmp_path / "bad_ref.json", {"trajectory": []})
    code, _, err = run(capsys, "rollout", "--plant", plant, "--gains", gains,
                       "--x0", "0.4,0.1", "--reference", bad_ref)
    assert code == 1
    assert "'states'" in err


def test_rollout_noise_and_x0_parsing(plant_files, tmp_path, capsys):
    plant = str(plant_files / "plant.json")
    gains = str(plant_files / "gains.json")
    clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
    run(capsys, "rollout", "--plant", plant, "--gains", gains, "--x0", "0.7,-0.2",
        "--out", str(clean))
    code, _, _ = run(capsys, "rollout", "--plant", plant, "--gains", gains,
                     "--x0", "0.7,-0.2", "--noise-sigma", "0.02",
                     "--noise-seed", "9", "--out", str(noisy))
    assert code == 0
    assert clean.read_bytes() != noisy.read_bytes()
    code, _, err = run(capsys, "rollout", "--plant", plant, "--gains", gains,
                       "--x0", "1.0;2.0")
    assert code == 1
    assert "comma-separated numbers" in err
    for sigma in ("nan", "inf"):
        code, _, err = run(capsys, "rollout", "--plant", plant, "--gains", gains,
                           "--x0", "0.7,-0.2", "--noise-sigma", sigma,
                           "--out", str(tmp_path / "bad.csv"))
        assert code == 1
        assert "sigma" in err
        assert not (tmp_path / "bad.csv").exists()


def test_rollout_rejects_non_finite_plant_or_gains(plant_files, tmp_path, capsys):
    plant = str(plant_files / "plant.json")
    gains = str(plant_files / "gains.json")
    out_path = tmp_path / "roll.csv"
    for bad in (float("nan"), float("inf")):
        record = json.loads((plant_files / "plant.json").read_text())
        record["C"][7][1][0] = bad
        bad_plant = write_json(tmp_path / "bad_plant.json", record)
        record = json.loads((plant_files / "gains.json").read_text())
        record["K"][7][0][1] = bad
        bad_gains = write_json(tmp_path / "bad_gains.json", record)
        for plant_arg, gains_arg in ((bad_plant, gains), (plant, bad_gains)):
            code, out, err = run(capsys, "rollout", "--plant", plant_arg, "--gains",
                                 gains_arg, "--x0", "1,0", "--out", str(out_path))
            assert code == 1
            assert "instant 7 are not finite" in err
            assert out == ""
            assert not out_path.exists()


def test_lqr_rejects_non_finite_weights(plant_files, tmp_path, capsys):
    out_path = tmp_path / "gains.json"
    for flag, name in (("--q-x", "q_x"), ("--q-v", "q_v"), ("--r", "r")):
        for value in ("nan", "inf"):
            code, _, err = run(capsys, "lqr", "--model", str(plant_files / "plant.json"),
                               "--out", str(out_path), flag, value)
            assert code == 1
            assert f"got {name}=" in err
            assert not out_path.exists()


# ---------------------------------------------------------------- bench


def test_bench_grid_counts_and_size_guard(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json",
                      {"N_grid": [50, 100], "solvers": ["cosmic", "oracle", "sbcd"],
                       "repetitions": 2, "accounting": True, "dense_limit": 200,
                       "lambda": 1e-3, "sbcd_epsilon": 1e-6})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run(capsys, "bench", "--spec", str(spec), "--out", str(out_a))
    assert code == 0
    assert json.loads(out)["rows"] == 6
    header, rows = read_csv(out_a)
    assert header == ["N", "solver", "median_elapsed_s", "multiply_count", "final_cost"]
    table = {(row[0], row[1]): row for row in rows}
    assert table[("50", "cosmic")][3] == "4500"
    assert table[("100", "cosmic")][3] == "9000"
    assert table[("100", "oracle")] == ["100", "oracle", "skipped(size-guard)", "", ""]
    assert float(table[("50", "oracle")][4]) == pytest.approx(
        float(table[("50", "cosmic")][4]), rel=1e-9)
    assert int(table[("50", "sbcd")][3]) > 4500

    run(capsys, "bench", "--spec", str(spec), "--out", str(out_b))
    strip = lambda path: [row[:2] + row[3:] for row in read_csv(path)[1]]
    assert strip(out_a) == strip(out_b)


def test_bench_spec_validation(tmp_path, capsys):
    cases = [
        ({"N_grid": [10, 5]}, "strictly ascending"),
        ({"N_grid": [10], "solvers": ["magic"]}, "unknown solver"),
        ({"N_grid": [10], "budget": 3}, "unknown keys"),
        ({"solvers": ["cosmic"]}, "N_grid is required"),
    ]
    for obj, needle in cases:
        spec = write_json(tmp_path / "spec.json", obj)
        code, _, err = run(capsys, "bench", "--spec", spec,
                           "--out", str(tmp_path / "b.csv"))
        assert code == 1
        assert needle in err


# ---------------------------------------------------------------- sweep


def test_sweep_grid_values(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json",
                      {"lambda_grid": [1e-9, 1e-3, 1e5], "sigma_grid": [0.0, 0.06],
                       "seeds": [0, 1, 2], "L": 6, "smd": {"N": 30}})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out_a))
    assert code == 0
    assert json.loads(out) == {"rows": 2, "columns": 4, "out": str(out_a)}
    header, rows = read_csv(out_a)
    assert header == ["sigma", "lambda=1e-09", "lambda=0.001", "lambda=100000.0"]
    clean, noisy = rows
    assert float(clean[0]) == 0.0
    assert float(clean[1]) <= 1e-6
    assert float(noisy[3]) < float(noisy[2])

    run(capsys, "sweep", "--spec", str(spec), "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_prediction_metric(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json",
                      {"metric": "prediction", "lambda_grid": [1e-3],
                       "sigma_grid": [0.0], "seeds": [0, 1], "smd": {"N": 30}})
    out_path = tmp_path / "pred.csv"
    code, _, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
    assert code == 0
    _, rows = read_csv(out_path)
    assert float(rows[0][1]) < 1e-2


def test_sweep_spec_validation(tmp_path, capsys):
    cases = [
        ({"lambda_grid": [0.0], "sigma_grid": [0.0]}, "positive weights"),
        ({"lambda_grid": [1.0], "sigma_grid": [0.0], "metric": "bias"},
         "metric must be estimation or prediction"),
        ({"lambda_grid": [1.0]}, "sigma_grid is required"),
        ({"lambda_grid": [1.0], "sigma_grid": [float("nan")], "seeds": [0],
          "smd": {"N": 10}}, "sigma (noise level)"),
    ]
    for obj, needle in cases:
        spec = write_json(tmp_path / "spec.json", obj)
        code, _, err = run(capsys, "sweep", "--spec", spec,
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert needle in err
        assert not (tmp_path / "s.csv").exists()


# ---------------------------------------------------------------- file format


def test_written_files_match_the_python_encoder(tmp_path, monkeypatch):
    """Each written file has the bytes json.dump and _fmt give for the same objects,
    so criterion 11's byte determinism is a property of the format, not of the encoder."""
    written, results = [], {}
    write = cli._write_json

    def recording_write(path, obj, indent=None):
        written.append((path, obj, indent))
        write(path, obj, indent)

    def recording(name, fn):
        def call(*args, **kwargs):
            results[name] = fn(*args, **kwargs)
            return results[name]
        return call

    monkeypatch.setattr(cli, "_write_json", recording_write)
    for name in ("closed_loop_rollout", "prediction_error"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    config = write_json(tmp_path / "config.json",
                        {"smd": {"N": 40}, "L": 4, "noise": {"sigma": 0.03, "seed": 1}, "seed": 5})
    f = lambda name: str(tmp_path / name)  # noqa: E731
    for argv in (["generate", "--config", config, "--out", f("data.json"),
                  "--model-out", f("truth.json")],
                 ["check", "--data", f("data.json"), "--out", f("check.json")],
                 ["fit", "--data", f("data.json"), "--lambda", "10", "--out", f("model.json")],
                 ["lqr", "--model", f("model.json"), "--out", f("gains.json")],
                 ["rollout", "--plant", f("truth.json"), "--gains", f("gains.json"),
                  "--x0", "1,-0.5", "--out", f("rollout.csv")],
                 ["eval", "--model", f("model.json"), "--data", f("data.json"),
                  "--out", f("errors.csv")]):
        assert main(argv + ["--quiet"]) == 0

    assert sorted(Path(path).name for path, _, _ in written) == [
        "check.json", "data.json", "gains.json", "model.json", "truth.json"]
    for path, obj, indent in written:
        expected = io.StringIO()
        json.dump(obj, expected, indent=indent)
        expected.write("\n")
        assert Path(path).read_bytes() == expected.getvalue().encode("utf-8")

    roll = results["closed_loop_rollout"]
    n, q = roll.inputs.shape
    lines = ["k,x0,x1,u0,tracking_error"]
    for k in range(n + 1):
        u_cells = [_fmt(v) for v in roll.inputs[k]] if k < n else [""] * q
        lines.append(",".join([str(k)] + [_fmt(v) for v in roll.states[k]] + u_cells
                              + [_fmt(roll.tracking_errors[k])]))
    assert (tmp_path / "rollout.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    errors = "".join(f"{k},{_fmt(e)}\n" for k, e in enumerate(results["prediction_error"]))
    assert (tmp_path / "errors.csv").read_bytes() == ("k,error\n" + errors).encode()


# ---------------------------------------------------------------- usage


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err
    code, _, err = run(capsys, "transmogrify")
    assert code == 1
    code, _, err = run(capsys, "fit", "--data", str(tmp_path / "missing.json"),
                       "--lambda", "1.0", "--out", str(tmp_path / "m.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", "--data", str(bad))
    assert code == 1
    assert "not valid JSON" in err
