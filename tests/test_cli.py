import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ltvkit import (LambdaSchedule, LtvModel, SmdConfig, TrajectoryDataset, assemble_stacked,
                    cli, cosmic_solve, generate_dataset, predicted_multiply_count, smd_model)
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


def test_generate_rejects_non_integer_counts(tmp_path, capsys):
    cases = [({"L": 2.7}, "L (trajectory count) must be an integer"),
             ({"L": "3"}, "L (trajectory count) must be an integer"),
             ({"L": True}, "L (trajectory count) must be an integer"),
             ({"seed": 1.9}, "seed must be an integer"),
             ({"seed": "1"}, "seed must be an integer"),
             ({"noise": {"seed": 1.5}}, "noise seed must be an integer")]
    for extra, message in cases:
        config = write_json(tmp_path / "config.json", {"smd": {"N": 20}, **extra})
        code, out, err = run(capsys, "generate", "--config", config,
                             "--out", str(tmp_path / "data.json"))
        assert code == 1
        assert message in err
        assert out == ""
        assert not (tmp_path / "data.json").exists()


def test_generate_that_overflows_exits_2_naming_the_instant(tmp_path, capsys):
    """A plant whose negative damping drives the simulation out of the float
    range exits 2 naming the first instant whose state is not finite, with
    no numpy warning, and writes no dataset."""
    config = write_json(tmp_path / "config.json", {"smd": {"N": 20000, "c0": -5.0}, "L": 2})
    out_path = tmp_path / "data.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "generate", "--config", config, "--out", str(out_path))
    assert code == 2
    assert err == "error: the simulation overflows at instant 1474\n"
    assert out == ""
    assert not out_path.exists()


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


def test_check_refuses_data_whose_covariance_overflows(workdir, tmp_path, capsys):
    """States near the float range exit 1 asking for rescaled data, with no
    numpy warning (an error under this suite's warning filter)."""
    record = json.loads((workdir / "data.json").read_text())
    for tr in record["trajectories"]:
        tr["states"] = [[v * 1e200 for v in row] for row in tr["states"]]
    code, out, err = run(capsys, "check", "--data", write_json(tmp_path / "big.json", record))
    assert code == 1
    assert "the sample covariance overflows float64: rescale the data" in err
    assert out == ""


# ---------------------------------------------------------------- fit


def test_fit_names_products_that_overflow(workdir, tmp_path, capsys):
    """States near the float range exit 2 saying the data's products overflow,
    with no numpy warning and no hint that blames the data's variety."""
    record = json.loads((workdir / "data.json").read_text())
    for tr in record["trajectories"]:
        tr["states"] = [[v * 1e200 for v in row] for row in tr["states"]]
    data = write_json(tmp_path / "big.json", record)
    out_path = tmp_path / "model.json"
    for solver in ("cosmic", "sbcd", "oracle"):
        code, out, err = run(capsys, "fit", "--data", data, "--lambda", "1e5",
                             "--solver", solver, "--out", str(out_path))
        assert code == 2
        assert err == "error: the data's products overflow float64: rescale the data\n"
        assert out == ""
        assert not out_path.exists()


def test_fit_accounting_reports_the_textbook_counts(workdir, tmp_path, capsys):
    data = str(workdir / "data.json")
    code, out, _ = run(capsys, "fit", "--data", data, "--lambda", "1e-2", "--accounting",
                       "--out", str(tmp_path / "model.json"))
    assert code == 0
    report = json.loads(out)
    textbook = predicted_multiply_count(12, 2, 1)
    assert (report["multiply_count"], report["multiply_forward"],
            report["multiply_backward"]) == tuple(textbook)


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
    # An infinite tolerance once stopped before the first sweep, reporting
    # the random start as converged.
    out_path = tmp_path / "sbcd.json"
    for epsilon in ("nan", "inf"):
        code, out, err = run(capsys, "fit", "--data", str(workdir / "data.json"),
                             "--lambda", "1", "--solver", "sbcd", "--epsilon", epsilon,
                             "--max-iters", "300", "--out", str(out_path))
        assert code == 1
        assert f"epsilon (stopping tolerance) must be a finite number > 0, got {epsilon}" in err
        assert out == ""
        assert not out_path.exists()


def test_fit_oracle_over_its_dense_limit_exits_2(workdir, tmp_path, capsys):
    out_path = tmp_path / "oracle.json"
    code, out, err = run(capsys, "fit", "--data", str(workdir / "data.json"),
                         "--lambda", "1", "--solver", "oracle", "--dense-limit", "4",
                         "--out", str(out_path))
    assert code == 2
    assert "dense system of size 36 exceeds the limit 4" in err
    assert "hint" not in err
    assert out == ""
    assert not out_path.exists()


def test_fit_oracle_refuses_a_negative_dense_limit(workdir, tmp_path, capsys):
    out_path = tmp_path / "oracle.json"
    code, out, err = run(capsys, "fit", "--data", str(workdir / "data.json"),
                         "--lambda", "1", "--solver", "oracle", "--dense-limit", "-5",
                         "--out", str(out_path))
    assert code == 1
    assert "dense_limit must be a nonnegative integer, got -5" in err
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


def test_fit_oracle_names_the_singular_instant(tmp_path, capsys):
    data = write_json(tmp_path / "zero.json", TrajectoryDataset.build(
        1, 0, [([0.0, 0.0, 0.0], None)]).to_dict())
    code, _, err = run(capsys, "fit", "--data", data, "--lambda", "1.0", "--solver", "oracle",
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "error: pivot block at instant 1 is numerically singular" in err
    assert HINT in err
    assert not (tmp_path / "m.json").exists()


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


@pytest.mark.parametrize("ratio", [1e6, 1e10])
def test_fit_at_huge_lambda_hints_to_lower_it_in_any_units(tmp_path, capsys, ratio):
    # The same rule in other units: the smallest coordinate's Gram entries,
    # not the largest entry overall, are what lambda * eps rounds away.
    data = tmp_path / "data.json"
    assert main(["generate", "--out", str(data), "--quiet"]) == 0
    record = json.loads(data.read_text(encoding="utf-8"))
    for trajectory in record["trajectories"]:
        for row in trajectory["states"]:
            row[0] *= ratio
    ill = write_json(tmp_path / "ill.json", record)
    code, _, err = run(capsys, "fit", "--data", ill, "--lambda", "1e18",
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "hint: lambda = 1e+18 swamps the data" in err
    assert "lower lambda" in err
    assert HINT not in err


def test_fit_under_a_swamping_lambda_warns_but_succeeds(tmp_path, capsys):
    # The first state coordinate 1e6 times smaller: at lambda = 1e5,
    # lambda * eps exceeds that coordinate's Gram diagonal, and the fit that
    # still succeeds is far from the dense solve.  It exits 0 and writes the
    # model, with the lambda hint as a warning; the unscaled data get none.
    config = write_json(tmp_path / "config.json", {"smd": {"N": 100}, "seed": 0})
    data = tmp_path / "data.json"
    assert main(["generate", "--config", config, "--out", str(data), "--quiet"]) == 0
    record = json.loads(data.read_text(encoding="utf-8"))
    for trajectory in record["trajectories"]:
        for row in trajectory["states"]:
            row[0] *= 1e-6
    ill = write_json(tmp_path / "ill.json", record)
    code, out, err = run(capsys, "fit", "--data", ill, "--lambda", "1e5",
                         "--out", str(tmp_path / "m.json"))
    assert code == 0, err
    assert err.startswith("warning: lambda = 100000 swamps the data")
    assert "lower lambda" in err
    fitted = cosmic_solve(assemble_stacked(TrajectoryDataset.from_dict(record)),
                          LambdaSchedule.scalar(1e5)).model
    written = LtvModel.from_dict(json.loads((tmp_path / "m.json").read_text(encoding="utf-8")))
    assert np.array_equal(written.C, fitted.C)
    assert json.loads(out)["final_cost"] > 0.0
    code, _, err = run(capsys, "fit", "--data", str(data), "--lambda", "1e5",
                       "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert err == ""


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


def test_rollout_rejects_non_finite_x0_or_reference(plant_files, tmp_path, capsys):
    plant = str(plant_files / "plant.json")
    gains = str(plant_files / "gains.json")
    out_path = tmp_path / "roll.csv"
    states = [[0.0, 0.0]] * 101
    states[30] = [float("nan"), 0.0]
    bad_ref = write_json(tmp_path / "ref.json", {"states": states})
    cases = [(["--x0=nan,0"], "initial state [nan, 0.0] is not finite"),
             (["--x0=inf,0"], "initial state [inf, 0.0] is not finite"),
             (["--x0=1,0", "--reference", bad_ref], "reference state at instant 30 is not finite")]
    for extra, message in cases:
        code, out, err = run(capsys, "rollout", "--plant", plant, "--gains", gains, *extra,
                             "--out", str(out_path))
        assert code == 1
        assert message in err
        assert out == ""
        assert not out_path.exists()


def test_rollout_that_overflows_exits_2_naming_the_instant(plant_files, tmp_path, capsys):
    """A closed loop that leaves the float range exits 2 naming the first instant
    whose state, input or tracking error is not finite, or its overflowing
    statistics; it writes no CSV, prints no summary and raises no numpy
    warning (an error under this suite's warning filter)."""
    plant, gains = str(plant_files / "plant.json"), str(plant_files / "gains.json")
    doubling = write_json(tmp_path / "doubling.json",
                          LtvModel.constant([[2.0]], [[0.5]], 20).to_dict())
    idle = write_json(tmp_path / "idle.json", {"K": [[[0.0]]] * 20})
    # u(5) = -1e300 x(5) overflows while x(5) = 3.2e11 is finite: instant 5, not 6.
    kick = write_json(tmp_path / "kick.json", {"K": [[[0.0]]] * 5 + [[[1e300]]] * 15})
    cases = [
        (plant, gains, "1e308,1e308", "the rollout overflows at instant 0"),
        # The state 1e150 * 2**k stays finite; its square, and so the tracking
        # error, overflows first at k = 14.
        (doubling, idle, "1e150", "the rollout overflows at instant 14"),
        (doubling, kick, "1e10", "the rollout overflows at instant 5\n"),
        (plant, gains, "1e154,0", "the rollout's tracking statistics overflow"),
    ]
    csv_path = tmp_path / "r.csv"
    for plant_path, gains_path, x0, needle in cases:
        code, out, err = run(capsys, "rollout", "--plant", plant_path, "--gains", gains_path,
                             f"--x0={x0}", "--out", str(csv_path))
        assert code == 2, err
        assert needle in err
        assert out == ""
        assert not csv_path.exists()


def test_eval_that_overflows_exits_2_naming_the_instant(tmp_path, capsys):
    """A prediction or an estimation error that leaves the float range exits
    2 naming the first instant where it does, with no numpy warning, and
    writes no CSV."""
    truth = smd_model(SmdConfig(N=40))
    data = write_json(tmp_path / "data.json", generate_dataset(truth, 2, seed=1).to_dict())
    # x(k+1) = 1e10 x(k) + u(k) leaves the float range after about 30 steps.
    blowup = write_json(tmp_path / "blowup.json",
                        LtvModel.constant(1e10 * np.eye(2), [[1.0], [1.0]], 40).to_dict())
    c = np.zeros((40, 3, 2))
    c[7:] = 1e200
    high = write_json(tmp_path / "high.json", LtvModel(p=2, q=1, N=40, C=c).to_dict())
    low = write_json(tmp_path / "low.json", LtvModel(p=2, q=1, N=40, C=-c).to_dict())
    csv_path = tmp_path / "e.csv"
    cases = [
        (("--model", blowup, "--data", data, "--mode", "rollout"),
         "the rollout prediction overflows at instant 15"),
        (("--model", high, "--truth", low, "--data", data),
         "the estimation error overflows at instant 7"),
    ]
    for argv, needle in cases:
        code, out, err = run(capsys, "eval", *argv, "--out", str(csv_path))
        assert code == 2, err
        assert err == f"error: {needle}\n"
        assert out == ""
        assert not csv_path.exists()


def test_lqr_that_overflows_exits_2(tmp_path, capsys):
    """A model whose Riccati recursion leaves the float range exits 2 saying
    so, with no numpy warning and no blame on an input cost block."""
    model = write_json(tmp_path / "model.json",
                       LtvModel.constant(1e100 * np.eye(2), np.ones((2, 1)), 10).to_dict())
    out_path = tmp_path / "gains.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "lqr", "--model", model, "--out", str(out_path))
    assert code == 2
    assert err == ("error: the Riccati recursion overflows float64: "
                   "rescale the model or the weights\n")
    assert out == ""
    assert not out_path.exists()


def test_lqr_rejects_non_finite_weights(plant_files, tmp_path, capsys):
    out_path = tmp_path / "gains.json"
    for flag, name in (("--q-x", "q_x"), ("--q-v", "q_v"), ("--r", "r")):
        for value in ("nan", "inf"):
            code, _, err = run(capsys, "lqr", "--model", str(plant_files / "plant.json"),
                               "--out", str(out_path), flag, value)
            assert code == 1
            assert f"{name} must be a finite number > 0, got {value}" in err
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


def test_bench_on_random_data_is_reproducible(tmp_path, capsys):
    # Shapes other than the SMD benchmark's (p, q) = (2, 1) draw random data.
    spec = write_json(tmp_path / "spec.json",
                      {"N_grid": [8, 20], "solvers": ["cosmic", "sbcd"], "repetitions": 1,
                       "p": 3, "q": 2, "L": 7, "lambda": 0.5, "seed": 4,
                       "sbcd_max_iters": 3})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out_path in (out_a, out_b):
        code, out, err = run(capsys, "bench", "--spec", spec, "--out", str(out_path))
        assert code == 0, err
        assert json.loads(out)["rows"] == 4
    strip = lambda path: [row[:2] + row[3:] for row in read_csv(path)[1]]
    rows = strip(out_a)
    assert rows == strip(out_b)
    assert [row[:2] for row in rows] == [["8", "cosmic"], ["8", "sbcd"],
                                         ["20", "cosmic"], ["20", "sbcd"]]
    assert all(float(row[3]) > 0.0 for row in rows)


def test_bench_spec_validation(tmp_path, capsys):
    cases = [
        ({"N_grid": [10, 5]}, "strictly ascending"),
        ({"N_grid": [10], "solvers": ["magic"]}, "unknown solver"),
        ({"N_grid": [10], "budget": 3}, "unknown keys"),
        ({"solvers": ["cosmic"]}, "N_grid is required"),
        ({"N_grid": [10], "repetitions": 0}, "repetitions must be at least 1"),
        ({"N_grid": [10], "p": 0}, "p must be at least 1, got 0"),
        ({"N_grid": [10], "lambda": 0}, "lambda must be a finite number > 0, got 0"),
        ({"N_grid": [10], "solvers": []}, "solvers must name at least one solver"),
        ({"N_grid": [10], "solvers": ["oracle"], "dense_limit": -1},
         "dense_limit must be a nonnegative integer, got -1"),
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


@pytest.mark.parametrize("metric, held_out", [("estimation", 0), ("prediction", 1)])
def test_sweep_simulates_each_dataset_once(tmp_path, capsys, monkeypatch, metric, held_out):
    """Each (sigma, seed) dataset is simulated once for all lambdas, and with
    the prediction metric each seed's held-out trajectory once for the grid."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return generate_dataset(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_dataset", counting)
    sigmas, seeds = [0.0, 0.06], [0, 1, 2]
    spec = write_json(tmp_path / "spec.json",
                      {"metric": metric, "lambda_grid": [1e-3, 1.0, 1e5, 1.0],
                       "sigma_grid": sigmas, "seeds": seeds, "smd": {"N": 20}})
    code, _, _ = run(capsys, "sweep", "--spec", spec, "--out", str(tmp_path / "s.csv"))
    assert code == 0
    assert len(calls) == len(sigmas) * len(seeds) + held_out * len(seeds)
    assert sum(1 for args in calls if args[0] == 1) == held_out * len(seeds)


def test_sweep_spec_validation(tmp_path, capsys):
    cases = [
        ({"lambda_grid": [0.0], "sigma_grid": [0.0]},
         "lambda_grid entry must be a finite number > 0, got 0.0"),
        ({"lambda_grid": [1.0], "sigma_grid": [0.0], "metric": "bias"},
         "metric must be estimation or prediction"),
        ({"lambda_grid": [1.0]}, "sigma_grid is required"),
        ({"lambda_grid": [1.0], "sigma_grid": [float("nan")], "seeds": [0],
          "smd": {"N": 10}}, "sigma_grid entry must be a finite nonnegative number, got nan"),
        ({"lambda_grid": [1.0], "sigma_grid": []}, "sigma_grid must list at least one noise level"),
        ({"lambda_grid": [1.0], "sigma_grid": [0.0], "seeds": []},
         "seeds must list at least one seed"),
    ]
    for obj, needle in cases:
        spec = write_json(tmp_path / "spec.json", obj)
        code, _, err = run(capsys, "sweep", "--spec", spec,
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert needle in err
        assert not (tmp_path / "s.csv").exists()


# ---------------------------------------------------------------- input rules

_BENCH = {"N_grid": [10], "repetitions": 1}
_SWEEP = {"lambda_grid": [1.0], "sigma_grid": [0.0], "seeds": [0], "smd": {"N": 10}}


def run_input(capsys, workdir, tmp_path, kind, record, *flags):
    """Run the command that reads ``record`` as its ``kind`` of input, with
    ``flags`` appended; a dataset (``data``) or model is a one-state record
    with ``record``'s keys replaced, and a ``reference`` is tracked by a
    one-state rollout."""
    out = tmp_path / "out"
    if kind == "data":
        base = TrajectoryDataset.build(1, 1, [([[0.1], [0.4], [0.2]], [[1.0], [-1.0]]),
                                              ([[0.3], [0.1], [0.5]], [[0.5], [2.0]])])
        record = {**base.to_dict(), **record}
    model = LtvModel.constant([[0.9]], [[0.5]], 4).to_dict()
    if kind == "model":
        record = {**model, **record}
    path = write_json(tmp_path / "input.json", record)
    plant = write_json(tmp_path / "plant.json", model)
    gains = path if kind == "gains" else write_json(tmp_path / "gains.json", {"K": [[[0.5]]] * 4})
    rollout = ["rollout", "--plant", plant, "--gains", gains, "--x0", "0.1"]
    argv = {"bench": ["bench", "--spec", path],
            "sweep": ["sweep", "--spec", path],
            "generate": ["generate", "--config", path],
            "data": ["fit", "--data", path, "--lambda", "1"],
            "model": ["lqr", "--model", path],
            "lambda": ["fit", "--data", str(workdir / "data.json"), "--lambda-file", path],
            "gains": rollout,
            "reference": rollout + ["--reference", path]}[kind]
    code, stdout, err = run(capsys, *argv, *flags, "--out", str(out))
    return code, stdout, err, out.exists()


# Each of these once escaped ``main`` as an uncaught TypeError.
_ILL_TYPED = [
    ("bench", {**_BENCH, "repetitions": 1.5}, "repetitions must be an integer"),
    ("bench", {**_BENCH, "p": 2.5}, "p must be an integer"),
    ("bench", {**_BENCH, "seed": 1.5}, "seed must be an integer"),
    ("bench", {**_BENCH, "lambda": "1e-3"}, "lambda must be a finite number"),
    ("bench", {**_BENCH, "N_grid": 10}, "N_grid must be a list"),
    ("bench", {**_BENCH, "solvers": ["sbcd"], "sbcd_epsilon": "x"},
     "sbcd_epsilon must be a finite number"),
    ("sweep", {**_SWEEP, "L": 2.5}, "L must be an integer"),
    ("sweep", {**_SWEEP, "lambda_grid": 1.0}, "lambda_grid must be a list"),
    ("data", {"trajectories": 5}, "trajectories must be a list"),
    ("data", {"trajectories": [5]}, "trajectory 0: expected a JSON object"),
    ("lambda", {"zones": 5}, "zones must be a list"),
    ("lambda", {"zones": [[1, None]]}, "smoothness weight must be a finite number"),
    ("lambda", {"scalar": None}, "smoothness weight must be a finite number"),
    ("lambda", {"scalar": [1]}, "smoothness weight must be a finite number"),
]
# Each of these was once truncated, parsed from a string, taken as a truthy
# flag or split into characters, and the command ran on.
_COERCIBLE = [
    ("bench", {**_BENCH, "N_grid": [10.9, 20]}, "N_grid entry must be an integer"),
    ("sweep", {**_SWEEP, "seeds": [0.5]}, "seeds entry must be an integer"),
    ("data", {"N": 2.9}, "N must be an integer"),
    ("data", {"p": "1"}, "p must be an integer"),
    ("data", {"p": True}, "p must be an integer"),
    ("model", {"p": "1"}, "p must be an integer"),
    ("lambda", {"zones": [[1.9, 1e8]]}, "zones entry start instant must be an integer"),
    ("lambda", {"zones": [["1", 1e8]]}, "zones entry start instant must be an integer"),
    ("lambda", {"scalar": "1e5"}, "smoothness weight must be a finite number"),
    ("lambda", {"scalar": True}, "smoothness weight must be a finite number"),
    ("bench", {**_BENCH, "solvers": "cosmic"}, "solvers must be a list"),
    ("generate", {"smd": {"N": 10, "ltv": "no"}}, "ltv must be a boolean"),
    ("bench", {**_BENCH, "accounting": "no"}, "accounting must be a boolean"),
]
# Each of these once loaded as numbers: numpy read "1e5" as 1e5, true as 1.0
# and null as nan.
_NON_NUMERIC_ARRAYS = [
    (kind, record(entry), needle)
    for kind, record, needle in [
        ("lambda", lambda e: {"per_instant": [e] * 11},
         "smoothness weights are not a numeric array"),
        ("data", lambda e: {"trajectories": [{"states": [[e]] * 3, "inputs": [[1.0], [-1.0]]}]},
         "trajectory 0: states are not a numeric array"),
        ("gains", lambda e: {"K": [[[e]]] * 4}, "gains are not a numeric array"),
    ]
    for entry in ("1e5", True, None)
]
# Each of these loaded the boolean among numbers as 1.0 or 0.0.
_MIXED_BOOLEANS = [
    ("lambda", {"per_instant": [1e5] * 10 + [True]}, "smoothness weights are not a numeric array"),
    ("data", {"trajectories": [{"states": [[0.1], [True], [0.5]], "inputs": [[1.0], [-1.0]]}]},
     "trajectory 0: states are not a numeric array"),
    ("model", {"C": [[[0.9], [0.5]]] * 3 + [[[False], [0.5]]]},
     "model coefficients are not a numeric array"),
    ("gains", {"K": [[[0.5]]] * 3 + [[[True]]]}, "gains are not a numeric array"),
    ("reference", {"states": [[0.0]] * 4 + [[True]]}, "reference states are not a numeric array"),
]
_MISSING_KEYS = [
    ("reference", {"trajectory": []}, "malformed reference record: states is required"),
]
# Each of these once failed with numpy's "expected non-negative integer",
# which names no field.
_NEGATIVE_SEEDS = [
    ("generate", {}, ("--seed", "-1"), "seed must be a nonnegative integer, got -1"),
    ("generate", {"seed": -4}, (), "seed must be a nonnegative integer, got -4"),
    ("generate", {"noise": {"seed": -3}}, (), "noise seed must be a nonnegative integer, got -3"),
    ("gains", {"K": [[[0.5]]] * 4}, ("--noise-sigma", "0.1", "--noise-seed", "-2"),
     "noise seed must be a nonnegative integer, got -2"),
    ("data", {}, ("--solver", "sbcd", "--seed", "-1"),
     "seed must be a nonnegative integer, got -1"),
    ("sweep", {**_SWEEP, "seeds": [0, -1]}, (), "seeds entry must be a nonnegative integer, got -1"),
    ("bench", {**_BENCH, "p": 3, "seed": -1}, (), "seed must be a nonnegative integer, got -1"),
]


@pytest.mark.parametrize("kind, record, needle",
                         _ILL_TYPED + _COERCIBLE + _NON_NUMERIC_ARRAYS + _MIXED_BOOLEANS
                         + _MISSING_KEYS)
def test_malformed_inputs_exit_1_naming_the_field(workdir, tmp_path, capsys, kind, record,
                                                  needle):
    code, out, err, written = run_input(capsys, workdir, tmp_path, kind, record)
    assert code == 1
    assert needle in err
    assert out == ""
    assert not written


@pytest.mark.parametrize("kind, record, flags, needle", _NEGATIVE_SEEDS)
def test_negative_seeds_exit_1_naming_the_field(workdir, tmp_path, capsys, kind, record, flags,
                                                needle):
    code, out, err, written = run_input(capsys, workdir, tmp_path, kind, record, *flags)
    assert code == 1
    assert needle in err
    assert out == ""
    assert not written


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


def test_summaries_match_the_python_encoder(tmp_path, capsys, monkeypatch):
    """Each command's stdout is json.dumps of its summary, with the default
    cycle check, plus a newline."""
    emitted = []
    emit = cli._emit

    def recording_emit(args, obj):
        emitted.append(obj)
        emit(args, obj)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    config = write_json(tmp_path / "config.json", {"smd": {"N": 30}, "L": 3, "seed": 2})
    f = lambda name: str(tmp_path / name)  # noqa: E731
    for argv in (["generate", "--config", config, "--out", f("data.json"),
                  "--model-out", f("truth.json")],
                 ["check", "--data", f("data.json")],
                 ["fit", "--data", f("data.json"), "--lambda", "10", "--out", f("model.json")],
                 ["eval", "--model", f("model.json"), "--truth", f("truth.json")],
                 ["lqr", "--model", f("model.json"), "--out", f("gains.json")],
                 ["rollout", "--plant", f("truth.json"), "--gains", f("gains.json"),
                  "--x0", "1,-0.5"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(emitted.pop(), indent=2) + "\n"


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


def outcome(capsys, argv):
    """Exit code, or ("exit", code) when the parser exits, with stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--quiet"], ["fit"], ["fit", "--lambda", "x", "--data", "d", "--out", "o"],
    ["fit", "--data", "d", "--out", "o", "extra"], ["rollout", "--x0", "-1,0"],
    ["--help"], ["fit", "--help"], ["sweep", "-h"],
])
def test_one_subparser_parses_as_the_full_parser(capsys, monkeypatch, argv):
    """A command's own subparser gives the full parser's exit code, help and
    usage errors; it is the only one built when argv[0] names a command."""
    built = []
    build = cli._build_parser

    def recording_build(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_build_parser", recording_build)
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    assert got == outcome(capsys, argv)
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]


def test_help_lists_every_command(capsys):
    code, out, _ = outcome(capsys, ["--help"])
    assert code == ("exit", 0)
    for name in ("generate", "check", "fit", "eval", "lqr", "rollout", "bench", "sweep"):
        assert name in out


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collectors_state(workdir, tmp_path, capsys, monkeypatch, collecting):
    """Commands run with the cyclic collector paused, and main leaves it as it
    found it on every exit path, also when the caller had disabled it."""
    data = str(workdir / "data.json")
    bad = write_json(tmp_path / "bad.json", {"p": 1})
    seen = []
    check = cli.covariance_sufficiency

    def recording_check(*args, **kwargs):
        seen.append(gc.isenabled())
        return check(*args, **kwargs)

    def escaping_check(*args, **kwargs):
        raise RuntimeError("escaped")

    monkeypatch.setattr(cli, "covariance_sufficiency", recording_check)
    cases = [
        (["check", "--data", data], 0),
        (["fit"], 1),
        (["check", "--data", bad], 1),
        (["fit", "--data", data, "--lambda", "1", "--solver", "oracle", "--dense-limit", "4",
          "--out", str(tmp_path / "m.json")], 2),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, expected in cases:
            assert main(argv + ["--quiet"]) == expected
            assert gc.isenabled() is collecting
        assert seen == [False]
        monkeypatch.setattr(cli, "covariance_sufficiency", escaping_check)
        with pytest.raises(RuntimeError, match="escaped"):
            main(["check", "--data", data])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------- start-up

# ``tests/_cases.py`` loads scipy into this process, so each check runs in a
# fresh interpreter.
_IMPORTS = """
import sys
import ltvkit
assert "scipy" not in sys.modules, "import ltvkit loaded scipy"
import ltvkit.cli
assert "scipy" not in sys.modules, "import ltvkit.cli loaded scipy"
"""
_COMMANDS = """
import json, sys
from ltvkit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def run_fresh(script, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_scipy_loads_only_for_the_commands_that_use_it(workdir, tmp_path):
    """Importing ltvkit or its CLI, and the check, fit, eval, lqr and rollout
    commands, leave scipy unloaded; only smd_model and the oracle load it."""
    done = run_fresh(_IMPORTS)
    assert done.returncode == 0, done.stderr

    f = lambda name: str(tmp_path / name)  # noqa: E731
    data, truth = str(workdir / "data.json"), str(workdir / "model.json")
    argvs = [["check", "--data", data],
             ["fit", "--data", data, "--lambda", "1", "--out", f("model.json")],
             ["eval", "--model", f("model.json"), "--data", data, "--truth", truth],
             ["lqr", "--model", f("model.json"), "--out", f("gains.json")],
             ["rollout", "--plant", truth, "--gains", f("gains.json"), "--x0", "1,-0.5"]]
    done = run_fresh(_COMMANDS, json.dumps([argv + ["--quiet"] for argv in argvs]))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0] * 5, "scipy": False}
