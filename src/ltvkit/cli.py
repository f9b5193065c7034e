"""Command-line workbench around the fitting, diagnostics, and control APIs.

Commands: generate, check, fit, eval, lqr, rollout, bench, sweep.  All
randomness is controlled by explicit seeds, so every output file is
reproducible byte for byte given the same arguments; the one exception is
the wall-clock timing column written by ``bench``.  Exit codes: 0 on
success, 1 on usage or configuration errors, 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from .control import (GainSchedule, LqrWeights, SingularInputCost,
                      closed_loop_rollout, lqr_synthesize, tracking_stats)
from .core import LambdaSchedule, LtvModel, TrajectoryDataset, assemble_stacked
from .diagnostics import covariance_sufficiency, estimation_error, prediction_error
from .sim import ExcitationSpec, NoiseConfig, SmdConfig, generate_dataset, smd_model
from .solvers import (SingularBlock, SingularSystem, SolveOptions, SolverError,
                      cosmic_solve, oracle_solve, sbcd_solve)

__all__ = ["BenchSpec", "SweepSpec", "main"]

_COVARIANCE_HINT = "dataset covariance not positive definite - collect more varied trajectories"
_SOLVERS = ("cosmic", "sbcd", "oracle")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _write_json(path: str, obj, indent=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=indent) + "\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(x) -> str:
    return repr(float(x))


def _emit(args, obj) -> None:
    if not args.quiet:
        print(json.dumps(obj, indent=2))


def _reject_unknown(obj: dict, allowed, what: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")


@dataclass(frozen=True)
class BenchSpec:
    """Grid of timing runs: horizon values against one or more solvers."""

    N_grid: tuple[int, ...]
    solvers: tuple[str, ...] = ("cosmic",)
    repetitions: int = 5
    p: int = 2
    q: int = 1
    L: int = 6
    lam: float = 1e-3
    seed: int = 0
    accounting: bool = False
    dense_limit: int = 4000
    sbcd_epsilon: float = 1e-10
    sbcd_max_iters: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "N_grid", tuple(int(n) for n in self.N_grid))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not self.N_grid or any(n < 2 for n in self.N_grid):
            raise ValueError("N_grid must list horizons of at least 2")
        if any(b <= a for a, b in zip(self.N_grid, self.N_grid[1:])):
            raise ValueError("N_grid must be strictly ascending")
        for s in self.solvers:
            if s not in _SOLVERS:
                raise ValueError(f"unknown solver {s!r}, expected one of {_SOLVERS}")
        if not self.solvers:
            raise ValueError("solvers must name at least one solver")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.p < 1 or self.q < 0 or self.L < 1:
            raise ValueError(f"invalid shapes p={self.p}, q={self.q}, L={self.L}")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchSpec":
        _reject_unknown(obj, {"N_grid", "solvers", "repetitions", "p", "q", "L",
                              "lambda", "seed", "accounting", "dense_limit",
                              "sbcd_epsilon", "sbcd_max_iters"}, "bench spec")
        kwargs = {k: v for k, v in obj.items() if k != "lambda"}
        if "lambda" in obj:
            kwargs["lam"] = obj["lambda"]
        if "N_grid" not in kwargs:
            raise ValueError("bench spec: N_grid is required")
        return cls(**kwargs)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of fits over noise levels and smoothness weights."""

    lambda_grid: tuple[float, ...]
    sigma_grid: tuple[float, ...]
    seeds: tuple[int, ...] = tuple(range(10))
    metric: str = "estimation"
    L: int = 6
    smd: SmdConfig = SmdConfig()

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        object.__setattr__(self, "sigma_grid", tuple(float(v) for v in self.sigma_grid))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.lambda_grid or any(v <= 0.0 for v in self.lambda_grid):
            raise ValueError("lambda_grid must list positive weights")
        if not self.sigma_grid or any(v < 0.0 for v in self.sigma_grid):
            raise ValueError("sigma_grid must list nonnegative noise levels")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if self.metric not in ("estimation", "prediction"):
            raise ValueError(f"metric must be estimation or prediction, got {self.metric!r}")
        if self.L < 1:
            raise ValueError("L must be at least 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        _reject_unknown(obj, {"lambda_grid", "sigma_grid", "seeds", "metric", "L", "smd"},
                        "sweep spec")
        kwargs = dict(obj)
        if "smd" in kwargs:
            kwargs["smd"] = SmdConfig.from_dict(kwargs["smd"])
        for key in ("lambda_grid", "sigma_grid"):
            if key not in kwargs:
                raise ValueError(f"sweep spec: {key} is required")
        return cls(**kwargs)


def _load_dataset(path: str) -> TrajectoryDataset:
    return TrajectoryDataset.from_dict(_read_json(path))


def _load_model(path: str) -> LtvModel:
    return LtvModel.from_dict(_read_json(path))


def _schedule_from_args(args) -> LambdaSchedule:
    if args.lam is not None and args.lambda_file is not None:
        raise ValueError("give either --lambda or --lambda-file, not both")
    if args.lambda_file is not None:
        return LambdaSchedule.from_dict(_read_json(args.lambda_file))
    if args.lam is not None:
        return LambdaSchedule.scalar(args.lam)
    raise ValueError("a smoothness schedule is required: --lambda or --lambda-file")


def cmd_generate(args) -> int:
    cfg = _read_json(args.config) if args.config else {}
    _reject_unknown(cfg, {"smd", "L", "excitation", "noise", "seed"}, "generate config")
    smd = SmdConfig.from_dict(cfg.get("smd", {}))
    L = int(cfg.get("L", 6))
    excitation = ExcitationSpec.from_dict(cfg.get("excitation", {}))
    noise_cfg = cfg.get("noise", {})
    noise = None
    if noise_cfg is not None:
        _reject_unknown(noise_cfg, {"sigma", "seed"}, "noise config")
        noise = NoiseConfig(**noise_cfg)
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))

    model = smd_model(smd)
    dataset = generate_dataset(model, L, excitation, noise, seed)
    _write_json(args.out, dataset.to_dict())
    if args.model_out:
        _write_json(args.model_out, model.to_dict())
    _emit(args, {"p": dataset.p, "q": dataset.q, "N": dataset.N, "L": dataset.L,
                 "sigma": 0.0 if noise is None else noise.sigma, "seed": seed,
                 "out": args.out})
    return 0


def cmd_check(args) -> int:
    dataset = _load_dataset(args.data)
    report = covariance_sufficiency(dataset, tol=args.tol)
    if args.out:
        _write_json(args.out, report.to_dict(), indent=2)
    _emit(args, report.to_dict())
    return 0


def _lambda_hint(dataset, data, sched) -> str | None:
    """A hint naming lambda when it, not the data, made the fit singular.

    That is when the data are sufficient but lambda * eps exceeds every
    diagonal entry of the per-instant Gram blocks D(k)^T D(k): forming
    the pivots D(k)^T D(k) + (lambda_{k-1} + lambda_k) I then rounds the
    data away.  None otherwise.
    """
    eps = np.finfo(np.float64).eps
    lam = float(sched.materialize(data.N).max())
    gram = float(np.max(np.sum(data.D * data.D, axis=1)))
    if lam * eps < gram or not covariance_sufficiency(dataset).sufficient:
        return None
    return (f"lambda = {lam:g} swamps the data: lambda * eps = {lam * eps:.3g} exceeds "
            f"the largest Gram diagonal entry {gram:.3g} - lower lambda")


def cmd_fit(args) -> int:
    dataset = _load_dataset(args.data)
    data = assemble_stacked(dataset)
    sched = _schedule_from_args(args)
    try:
        if args.solver == "cosmic":
            report = cosmic_solve(data, sched, SolveOptions(accounting=args.accounting))
        elif args.solver == "sbcd":
            report = sbcd_solve(data, sched, epsilon=args.epsilon,
                                max_iters=args.max_iters, seed=args.seed)
        else:
            report = oracle_solve(data, sched, dense_limit=args.dense_limit)
    except (SingularBlock, SingularSystem) as exc:
        hint = _lambda_hint(dataset, data, sched)
        if hint is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {hint}", file=sys.stderr)
        return 2
    _write_json(args.out, report.model.to_dict())
    _emit(args, report.to_dict())
    return 0


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    summary: dict = {"mode": args.mode}
    if args.truth:
        summary["estimation_error"] = estimation_error(model, _load_model(args.truth))
    if args.data:
        dataset = _load_dataset(args.data)
        if not 0 <= args.trajectory < dataset.L:
            raise ValueError(f"trajectory index {args.trajectory} out of range 0..{dataset.L - 1}")
        errors = prediction_error(model, dataset.trajectories[args.trajectory], args.mode)
        summary["trajectory"] = args.trajectory
        summary["mean_error"] = float(np.mean(errors))
        summary["max_error"] = float(np.max(errors))
        if args.out:
            _write_csv(args.out, ["k", "error"],
                       ([str(k), repr(e)] for k, e in enumerate(errors.tolist())))
    elif args.out:
        raise ValueError("--out needs --data to evaluate prediction errors")
    if not args.truth and not args.data:
        raise ValueError("nothing to evaluate: give --data and/or --truth")
    _emit(args, summary)
    return 0


def cmd_lqr(args) -> int:
    model = _load_model(args.model)
    weights = LqrWeights(q_x=args.q_x, q_v=args.q_v, r=args.r)
    gains = lqr_synthesize(model, weights)
    _write_json(args.out, gains.to_dict())
    _emit(args, {"instants": gains.N, "q": model.q, "p": model.p, "out": args.out})
    return 0


def cmd_rollout(args) -> int:
    plant = _load_model(args.plant)
    gains = GainSchedule.from_dict(_read_json(args.gains))
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError:
        raise ValueError(f"--x0 must be comma-separated numbers, got {args.x0!r}") from None
    reference = None
    if args.reference:
        ref_obj = _read_json(args.reference)
        if not isinstance(ref_obj, dict) or "states" not in ref_obj:
            raise ValueError(f"{args.reference}: reference file must carry a 'states' matrix")
        reference = np.asarray(ref_obj["states"], dtype=np.float64)
    noise = NoiseConfig(sigma=args.noise_sigma, seed=args.noise_seed)
    result = closed_loop_rollout(plant, gains, reference, x0, noise)
    if args.out:
        header = (["k"] + [f"x{i}" for i in range(plant.p)]
                  + [f"u{j}" for j in range(plant.q)] + ["tracking_error"])
        rows = []
        inputs = result.inputs.tolist()
        for k, (x, err) in enumerate(zip(result.states.tolist(), result.tracking_errors.tolist())):
            u_cells = list(map(repr, inputs[k])) if k < plant.N else [""] * plant.q
            rows.append([str(k), *map(repr, x), *u_cells, repr(err)])
        _write_csv(args.out, header, rows)
    _emit(args, tracking_stats(result.tracking_errors).to_dict())
    return 0


def _bench_dataset(spec: BenchSpec, n: int) -> TrajectoryDataset:
    if (spec.p, spec.q) == (2, 1):
        model = smd_model(SmdConfig(N=n))
        return generate_dataset(model, spec.L, ExcitationSpec(), None, spec.seed)
    rng = np.random.default_rng([spec.seed, n])
    pairs = [(rng.normal(size=(n + 1, spec.p)), rng.normal(size=(n, spec.q)))
             for _ in range(spec.L)]
    return TrajectoryDataset.build(spec.p, spec.q, pairs)


def cmd_bench(args) -> int:
    spec = BenchSpec.from_dict(_read_json(args.spec))
    sched = LambdaSchedule.scalar(spec.lam)
    rows = []
    for n in spec.N_grid:
        data = assemble_stacked(_bench_dataset(spec, n))
        for solver in spec.solvers:
            if solver == "oracle" and n * (spec.p + spec.q) > spec.dense_limit:
                rows.append([str(n), solver, "skipped(size-guard)", "", ""])
                continue
            elapsed = []
            report = None
            for _ in range(spec.repetitions):
                if solver == "cosmic":
                    report = cosmic_solve(data, sched,
                                          SolveOptions(accounting=spec.accounting))
                elif solver == "sbcd":
                    report = sbcd_solve(data, sched, epsilon=spec.sbcd_epsilon,
                                        max_iters=spec.sbcd_max_iters, seed=spec.seed)
                else:
                    report = oracle_solve(data, sched, dense_limit=spec.dense_limit)
                elapsed.append(report.elapsed)
            rows.append([str(n), solver, _fmt(statistics.median(elapsed)),
                         str(report.multiply_count), _fmt(report.final_cost)])
    _write_csv(args.out, ["N", "solver", "median_elapsed_s", "multiply_count", "final_cost"],
               rows)
    _emit(args, {"rows": len(rows), "out": args.out})
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_dict(_read_json(args.spec))
    truth = smd_model(spec.smd)
    excitation = ExcitationSpec()
    rows = []
    for sigma in spec.sigma_grid:
        cells = [_fmt(sigma)]
        for lam in spec.lambda_grid:
            sched = LambdaSchedule.scalar(lam)
            values = []
            for seed in spec.seeds:
                noise = NoiseConfig(sigma=sigma, seed=seed)
                dataset = generate_dataset(truth, spec.L, excitation, noise, seed)
                report = cosmic_solve(assemble_stacked(dataset), sched)
                if spec.metric == "estimation":
                    values.append(estimation_error(report.model, truth))
                else:
                    held_out = generate_dataset(truth, 1, excitation, None,
                                                seed + 1_000_003).trajectories[0]
                    values.append(float(np.mean(prediction_error(report.model, held_out))))
            cells.append(_fmt(statistics.median(values)))
        rows.append(cells)
    header = ["sigma"] + [f"lambda={_fmt(v)}" for v in spec.lambda_grid]
    _write_csv(args.out, header, rows)
    _emit(args, {"rows": len(rows), "columns": len(header), "out": args.out})
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ltvkit",
                     description="Fit, check, and control linear time-variant systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
        return p

    p = add("generate", "simulate a drifting spring-mass-damper dataset")
    p.add_argument("--config", help="JSON config: smd, L, excitation, noise, seed")
    p.add_argument("--out", required=True, help="dataset JSON to write")
    p.add_argument("--model-out", help="also write the ground-truth model JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_generate)

    p = add("check", "test whether a dataset sufficiently excites the system")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--tol", type=float, help="positive-definiteness tolerance")
    p.add_argument("--out", help="write the report JSON here as well")
    p.set_defaults(func=cmd_check)

    p = add("fit", "fit an LTV model to a dataset")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--solver", choices=_SOLVERS, default="cosmic")
    p.add_argument("--lambda", dest="lam", type=float, help="uniform smoothness weight")
    p.add_argument("--lambda-file", help="schedule JSON: scalar, zones, or per_instant")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--seed", type=int, default=0, help="sbcd initialization seed")
    p.add_argument("--epsilon", type=float, default=1e-10, help="sbcd stopping tolerance")
    p.add_argument("--max-iters", type=int, default=10**6, help="sbcd sweep budget")
    p.add_argument("--accounting", action="store_true",
                   help="report textbook multiply charges for the closed-form solver")
    p.add_argument("--dense-limit", type=int, default=4000, help="oracle size guard")
    p.set_defaults(func=cmd_fit)

    p = add("eval", "evaluate a model against data or a reference model")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", help="held-out dataset JSON")
    p.add_argument("--mode", choices=("one-step", "rollout"), default="one-step")
    p.add_argument("--trajectory", type=int, default=0, help="trajectory index in the dataset")
    p.add_argument("--truth", help="reference model JSON for the estimation error")
    p.add_argument("--out", help="per-step error CSV to write")
    p.set_defaults(func=cmd_eval)

    p = add("lqr", "synthesize finite-horizon LQR gains for a model")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--q-x", type=float, default=1.0, help="position state weight")
    p.add_argument("--q-v", type=float, default=0.1, help="remaining state weight")
    p.add_argument("--r", type=float, default=1e-3, help="input weight")
    p.add_argument("--out", required=True, help="gain schedule JSON to write")
    p.set_defaults(func=cmd_lqr)

    p = add("rollout", "run a gain schedule against a plant model")
    p.add_argument("--plant", required=True, help="plant model JSON")
    p.add_argument("--gains", required=True, help="gain schedule JSON")
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--reference", help="reference JSON with a 'states' matrix (default zero)")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="measurement noise level")
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--out", help="trajectory CSV to write")
    p.set_defaults(func=cmd_rollout)

    p = add("bench", "time the solvers over a grid of horizons")
    p.add_argument("--spec", required=True, help="bench spec JSON")
    p.add_argument("--out", required=True, help="results CSV to write")
    p.set_defaults(func=cmd_bench)

    p = add("sweep", "median fit error over a noise by smoothness grid")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="results CSV to write")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SingularBlock, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {_COVARIANCE_HINT}", file=sys.stderr)
        return 2
    except (SolverError, SingularInputCost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
