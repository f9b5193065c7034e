"""Command-line workbench around the fitting, diagnostics, and control APIs.

Commands: generate, check, fit, eval, lqr, rollout, bench, sweep.  All
randomness is controlled by explicit seeds, so every output file is
reproducible byte for byte given the same arguments; the one exception is
the wall-clock timing column written by ``bench``.  Exit codes: 0 on
success, 1 on usage or configuration errors, 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from .control import (GainSchedule, LqrWeights, closed_loop_rollout, lqr_synthesize,
                      tracking_stats)
from .core import (LambdaSchedule, LtvModel, TrajectoryDataset, _array, _dataclass_record,
                   _finite, _flag, _integer, _of_type, _record, assemble_stacked)
from .diagnostics import covariance_sufficiency, estimation_error, prediction_error
from .sim import ExcitationSpec, NoiseConfig, SmdConfig, generate_dataset, smd_model
from .solvers import (SingularBlock, SizeGuard, SolveOptions, SolverError, cosmic_solve,
                      oracle_solve, sbcd_solve)

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


# The objects written are fresh trees of dicts, lists and numbers, which
# cannot hold a cycle, so the encoder's check for one is skipped.
def _write_json(path: str, obj, indent=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=indent, check_circular=False) + "\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(x) -> str:
    return repr(float(x))


def _emit(args, obj) -> None:
    if not args.quiet:
        print(json.dumps(obj, indent=2, check_circular=False))


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
        object.__setattr__(self, "N_grid", _array(
            "N_grid", self.N_grid, lambda name, v: _integer(name, v, 2)))
        object.__setattr__(self, "solvers", _array("solvers", self.solvers))
        for name, minimum in (("repetitions", 1), ("p", 1), ("q", 0), ("L", 1), ("seed", 0),
                              ("dense_limit", 0), ("sbcd_max_iters", 0)):
            _integer(name, getattr(self, name), minimum)
        _finite("lambda", self.lam, positive=True)
        _finite("sbcd_epsilon", self.sbcd_epsilon, positive=True)
        _flag("accounting", self.accounting)
        if not self.N_grid:
            raise ValueError("N_grid must list at least one horizon")
        if any(b <= a for a, b in zip(self.N_grid, self.N_grid[1:])):
            raise ValueError("N_grid must be strictly ascending")
        for s in self.solvers:
            if s not in _SOLVERS:
                raise ValueError(f"unknown solver {s!r}, expected one of {_SOLVERS}")
        if not self.solvers:
            raise ValueError("solvers must name at least one solver")

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchSpec":
        return cls(**_dataclass_record(cls, "bench spec", obj, {"lam": "lambda"}))


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
        object.__setattr__(self, "lambda_grid", _array(
            "lambda_grid", self.lambda_grid, lambda name, v: _finite(name, v, positive=True)))
        object.__setattr__(self, "sigma_grid", _array(
            "sigma_grid", self.sigma_grid, lambda name, v: _finite(name, v, nonnegative=True)))
        object.__setattr__(self, "seeds", _array(
            "seeds", self.seeds, lambda name, v: _integer(name, v, 0)))
        _integer("L", self.L, 1)
        _of_type("smd", self.smd, SmdConfig)
        if not self.lambda_grid:
            raise ValueError("lambda_grid must list at least one weight")
        if not self.sigma_grid:
            raise ValueError("sigma_grid must list at least one noise level")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if self.metric not in ("estimation", "prediction"):
            raise ValueError(f"metric must be estimation or prediction, got {self.metric!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        kwargs = _dataclass_record(cls, "sweep spec", obj)
        kwargs["smd"] = SmdConfig.from_dict(kwargs.get("smd", {}))
        return cls(**kwargs)


def _schedule_from_args(args) -> LambdaSchedule:
    if args.lam is not None and args.lambda_file is not None:
        raise ValueError("give either --lambda or --lambda-file, not both")
    if args.lambda_file is not None:
        return LambdaSchedule.from_dict(_read_json(args.lambda_file))
    if args.lam is not None:
        return LambdaSchedule.scalar(args.lam)
    raise ValueError("a smoothness schedule is required: --lambda or --lambda-file")


def cmd_generate(args) -> int:
    cfg = _record("generate config", _read_json(args.config) if args.config else {},
                  known=("smd", "L", "excitation", "noise", "seed"))
    smd = SmdConfig.from_dict(cfg.get("smd", {}))
    excitation = ExcitationSpec.from_dict(cfg.get("excitation", {}))
    noise_cfg = cfg.get("noise", {})
    noise = (None if noise_cfg is None
             else NoiseConfig(**_dataclass_record(NoiseConfig, "noise config", noise_cfg)))
    seed = cfg.get("seed", 0) if args.seed is None else args.seed

    model = smd_model(smd)
    dataset = generate_dataset(model, cfg.get("L", 6), excitation, noise, seed)
    _write_json(args.out, dataset.to_dict())
    if args.model_out:
        _write_json(args.model_out, model.to_dict())
    _emit(args, {"p": dataset.p, "q": dataset.q, "N": dataset.N, "L": dataset.L,
                 "sigma": 0.0 if noise is None else noise.sigma, "seed": seed,
                 "out": args.out})
    return 0


def cmd_check(args) -> int:
    dataset = TrajectoryDataset.from_dict(_read_json(args.data))
    report = covariance_sufficiency(dataset, tol=args.tol)
    if args.out:
        _write_json(args.out, report.to_dict(), indent=2)
    _emit(args, report.to_dict())
    return 0


def _lambda_hint(dataset, data, sched) -> str | None:
    """A hint naming lambda when it, not the data, is at fault: when it made
    the fit singular, or when a fit that succeeded cannot be trusted.

    That is when the data are sufficient but lambda * eps exceeds, for some
    coordinate j, its largest diagonal entry over the per-instant Gram
    blocks, min_j max_k (D(k)^T D(k))_jj: forming the pivots
    D(k)^T D(k) + (lambda_{k-1} + lambda_k) I then rounds that coordinate's
    data away at every instant.  The largest entry overall would move with
    the units of the largest coordinate, which is never the one lost.
    None otherwise.
    """
    eps = np.finfo(np.float64).eps
    lam = float(sched.materialize(data.N).max())
    gram = float(np.min(np.max(np.einsum("kli,kli->ki", data.D, data.D), axis=0)))
    if lam * eps < gram or not covariance_sufficiency(dataset).sufficient:
        return None
    return (f"lambda = {lam:g} swamps the data: lambda * eps = {lam * eps:.3g} exceeds "
            f"the smallest coordinate's largest Gram diagonal entry {gram:.3g} - lower lambda")


def _solve(solver, data, sched, accounting, epsilon, max_iters, seed, dense_limit):
    if solver == "cosmic":
        return cosmic_solve(data, sched, SolveOptions(accounting=accounting))
    if solver == "sbcd":
        return sbcd_solve(data, sched, epsilon=epsilon, max_iters=max_iters, seed=seed)
    return oracle_solve(data, sched, dense_limit=dense_limit)


def cmd_fit(args) -> int:
    dataset = TrajectoryDataset.from_dict(_read_json(args.data))
    data = assemble_stacked(dataset)
    sched = _schedule_from_args(args)
    hint = _lambda_hint(dataset, data, sched)
    try:
        report = _solve(args.solver, data, sched, args.accounting, args.epsilon,
                        args.max_iters, args.seed, args.dense_limit)
    except SingularBlock as exc:
        if hint is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {hint}", file=sys.stderr)
        return 2
    if hint is not None:
        print(f"warning: {hint}", file=sys.stderr)
    _write_json(args.out, report.model.to_dict())
    _emit(args, report.to_dict())
    return 0


def cmd_eval(args) -> int:
    model = LtvModel.from_dict(_read_json(args.model))
    summary: dict = {"mode": args.mode}
    if args.truth:
        truth = LtvModel.from_dict(_read_json(args.truth))
        summary["estimation_error"] = estimation_error(model, truth)
    if args.data:
        dataset = TrajectoryDataset.from_dict(_read_json(args.data))
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
    model = LtvModel.from_dict(_read_json(args.model))
    weights = LqrWeights(q_x=args.q_x, q_v=args.q_v, r=args.r)
    gains = lqr_synthesize(model, weights)
    _write_json(args.out, gains.to_dict())
    _emit(args, {"instants": gains.N, "q": model.q, "p": model.p, "out": args.out})
    return 0


def cmd_rollout(args) -> int:
    plant = LtvModel.from_dict(_read_json(args.plant))
    gains = GainSchedule.from_dict(_read_json(args.gains))
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        raise ValueError(f"--x0 must be comma-separated numbers, got {args.x0!r}") from None
    reference = None
    if args.reference:
        reference = _record("reference record", _read_json(args.reference), ("states",))["states"]
    noise = NoiseConfig(sigma=args.noise_sigma, seed=args.noise_seed)
    result = closed_loop_rollout(plant, gains, reference, x0, noise)
    stats = tracking_stats(result.tracking_errors)
    if args.out:
        header = (["k"] + [f"x{i}" for i in range(plant.p)]
                  + [f"u{j}" for j in range(plant.q)] + ["tracking_error"])
        rows = []
        inputs = result.inputs.tolist()
        for k, (x, err) in enumerate(zip(result.states.tolist(), result.tracking_errors.tolist())):
            u_cells = list(map(repr, inputs[k])) if k < plant.N else [""] * plant.q
            rows.append([str(k), *map(repr, x), *u_cells, repr(err)])
        _write_csv(args.out, header, rows)
    _emit(args, stats.to_dict())
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
    """Median solve time, multiply count and cost per horizon and solver; an
    oracle solve refused with SizeGuard gets the row ``skipped(size-guard)``."""
    spec = BenchSpec.from_dict(_read_json(args.spec))
    sched = LambdaSchedule.scalar(spec.lam)
    rows = []
    for n in spec.N_grid:
        data = assemble_stacked(_bench_dataset(spec, n))
        for solver in spec.solvers:
            elapsed = []
            try:
                for _ in range(spec.repetitions):
                    report = _solve(solver, data, sched, spec.accounting, spec.sbcd_epsilon,
                                    spec.sbcd_max_iters, spec.seed, spec.dense_limit)
                    elapsed.append(report.elapsed)
            except SizeGuard:
                rows.append([str(n), solver, "skipped(size-guard)", "", ""])
                continue
            rows.append([str(n), solver, _fmt(statistics.median(elapsed)),
                         str(report.multiply_count), _fmt(report.final_cost)])
    _write_csv(args.out, ["N", "solver", "median_elapsed_s", "multiply_count", "final_cost"],
               rows)
    _emit(args, {"rows": len(rows), "out": args.out})
    return 0


def cmd_sweep(args) -> int:
    """Median fit errors over the seeds; each (sigma, seed) dataset is simulated
    once and fitted at every lambda, each seed's held-out trajectory once."""
    spec = SweepSpec.from_dict(_read_json(args.spec))
    truth = smd_model(spec.smd)
    excitation = ExcitationSpec()
    scheds = [LambdaSchedule.scalar(lam) for lam in spec.lambda_grid]
    held_out = []  # each seed's noiseless trajectory, made in the first noise level's pass
    rows = []
    for sigma in spec.sigma_grid:
        values = [[] for _ in scheds]
        for i, seed in enumerate(spec.seeds):
            noise = NoiseConfig(sigma=sigma, seed=seed)
            data = assemble_stacked(generate_dataset(truth, spec.L, excitation, noise, seed))
            if spec.metric == "prediction" and i == len(held_out):
                held_out.append(generate_dataset(truth, 1, excitation, None,
                                                 seed + 1_000_003).trajectories[0])
            for cell, sched in zip(values, scheds):
                model = cosmic_solve(data, sched).model
                cell.append(estimation_error(model, truth) if spec.metric == "estimation"
                            else float(np.mean(prediction_error(model, held_out[i]))))
        rows.append([_fmt(sigma)] + [_fmt(statistics.median(cell)) for cell in values])
    header = ["sigma"] + [f"lambda={_fmt(v)}" for v in spec.lambda_grid]
    _write_csv(args.out, header, rows)
    _emit(args, {"rows": len(rows), "columns": len(header), "out": args.out})
    return 0


# Each command's help line, handler and arguments (flag, keywords); every
# command also takes --quiet.
_COMMANDS = {
    "generate": ("simulate a drifting spring-mass-damper dataset", cmd_generate, (
        ("--config", dict(help="JSON config: smd, L, excitation, noise, seed")),
        ("--out", dict(required=True, help="dataset JSON to write")),
        ("--model-out", dict(help="also write the ground-truth model JSON")),
        ("--seed", dict(type=int, help="override the config seed")))),
    "check": ("test whether a dataset sufficiently excites the system", cmd_check, (
        ("--data", dict(required=True, help="dataset JSON")),
        ("--tol", dict(type=float,
                       help="eigenvalue floor of the unit-diagonal covariance (default 1e-10)")),
        ("--out", dict(help="write the report JSON here as well")))),
    "fit": ("fit an LTV model to a dataset", cmd_fit, (
        ("--data", dict(required=True, help="dataset JSON")),
        ("--solver", dict(choices=_SOLVERS, default="cosmic")),
        ("--lambda", dict(dest="lam", type=float, help="uniform smoothness weight")),
        ("--lambda-file", dict(help="schedule JSON: scalar, zones, or per_instant")),
        ("--out", dict(required=True, help="model JSON to write")),
        ("--seed", dict(type=int, default=0, help="sbcd initialization seed")),
        ("--epsilon", dict(type=float, default=1e-10, help="sbcd stopping tolerance")),
        ("--max-iters", dict(type=int, default=10**6, help="sbcd sweep budget")),
        ("--accounting", dict(action="store_true",
                              help="report textbook multiply charges for the closed-form solver")),
        ("--dense-limit", dict(type=int, default=4000, help="oracle size guard")))),
    "eval": ("evaluate a model against data or a reference model", cmd_eval, (
        ("--model", dict(required=True, help="model JSON")),
        ("--data", dict(help="held-out dataset JSON")),
        ("--mode", dict(choices=("one-step", "rollout"), default="one-step")),
        ("--trajectory", dict(type=int, default=0, help="trajectory index in the dataset")),
        ("--truth", dict(help="reference model JSON for the estimation error")),
        ("--out", dict(help="per-step error CSV to write")))),
    "lqr": ("synthesize finite-horizon LQR gains for a model", cmd_lqr, (
        ("--model", dict(required=True, help="model JSON")),
        ("--q-x", dict(type=float, default=1.0, help="position state weight")),
        ("--q-v", dict(type=float, default=0.1, help="remaining state weight")),
        ("--r", dict(type=float, default=1e-3, help="input weight")),
        ("--out", dict(required=True, help="gain schedule JSON to write")))),
    "rollout": ("run a gain schedule against a plant model", cmd_rollout, (
        ("--plant", dict(required=True, help="plant model JSON")),
        ("--gains", dict(required=True, help="gain schedule JSON")),
        ("--x0", dict(required=True, help="initial state, comma separated")),
        ("--reference", dict(help="reference JSON with a 'states' matrix (default zero)")),
        ("--noise-sigma", dict(type=float, default=0.0, help="measurement noise level")),
        ("--noise-seed", dict(type=int, default=0)),
        ("--out", dict(help="trajectory CSV to write")))),
    "bench": ("time the solvers over a grid of horizons", cmd_bench, (
        ("--spec", dict(required=True, help="bench spec JSON")),
        ("--out", dict(required=True, help="results CSV to write")))),
    "sweep": ("median fit error over a noise by smoothness grid", cmd_sweep, (
        ("--spec", dict(required=True, help="sweep spec JSON")),
        ("--out", dict(required=True, help="results CSV to write")))),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser with every command, or with ``command`` alone: it parses
    that command's arguments, and words their errors and help, as the full
    parser does, without building the other seven subparsers."""
    parser = _Parser(prog="ltvkit",
                     description="Fit, check, and control linear time-variant systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, func, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=helptext)
            p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command, with the cyclic garbage collector paused while it runs.

    The commands allocate tens of thousands of lists (decoding JSON,
    ``tolist``) that hold no cycles, so the collections they would trigger
    find nothing; reference counting frees those lists all the same.  The
    collector's prior state is restored, so a caller that disabled it
    keeps it disabled.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except SingularBlock as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {_COVARIANCE_HINT}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
