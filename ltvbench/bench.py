"""Workloads, correctness gates, spans and call counts of the ltvkit benchmark.

Every workload drives the library's public calls from outside, one pass at
a time in one process.  A pass runs the workload's whole chain once; the
benchmark's own correctness gates run after the pass and are never timed.

Spans are kept in memory by a ``Recorder``.  The coarse spans ``pass``,
``fit`` and ``control`` are always recorded, because the end-to-end metrics
come from them.  Spans around single library calls (``solvers.cosmic_solve``
and so on) and the probe calls are recorded only in traced passes, which
feed the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

import ltvkit.cli
from ltvkit import (LambdaSchedule, LtvModel, NoiseConfig, SmdConfig, SolveOptions,
                    TrajectoryDataset, assemble_stacked, build_system,
                    closed_loop_rollout, cosmic_solve, cost, covariance_sufficiency,
                    estimation_error, generate_dataset, gradient, lqr_synthesize,
                    oracle_solve, smd_model, tracking_stats)

# `ltvkit fit` defaults to automatic preconditioning, so every library fit
# uses it too; that keeps the preconditioning decision on the measured path.
FIT_OPTIONS = SolveOptions(precondition="auto")

STATIONARITY_TOL = 1e-6   # ||grad(C_hat)|| / ||grad(0)||
ORACLE_TOL = 1e-6         # ||C_hat - C_oracle||_F / ||C_oracle||_F
REGULATION_TOL = 1e-6     # final tracking error / initial tracking error

ZONED = LambdaSchedule.zoned([(1, 1e8), (40, 1e2), (70, 1e8)])

PLANT_SEED = 0   # the wide-block plant; the workload seed drives the data


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and per-pass values of one benchmark run."""

    def __init__(self):
        self.traced = False
        self.pass_id = -1
        self.spans: list[Span] = []
        self.values: list[tuple[str, float, int]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, coarse: bool = False):
        if not (coarse or self.traced):
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, math.nan, math.nan, parent, self.pass_id))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index].start = start
            self.spans[index].end = end

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def value(self, name: str, value: float) -> None:
        self.values.append((name, float(value), self.pass_id))


class Outcome:
    """Operations attempted and failed; a failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok


class PassAborted(Exception):
    """A step of the pass failed, so the steps after it cannot run."""


# ---------------------------------------------------------------- gates

def scaled_gradient(model: LtvModel, data, sched: LambdaSchedule) -> float:
    """Stationarity ||grad(C)|| / ||grad(C = 0)|| of a fitted model."""
    zero = LtvModel(p=model.p, q=model.q, N=model.N, C=np.zeros_like(model.C))
    return float(np.linalg.norm(gradient(model, data, sched))
                 / np.linalg.norm(gradient(zero, data, sched)))


def regulated(errors) -> bool:
    """The rollout stayed finite and its final tracking error shrank enough."""
    errors = np.asarray(errors, dtype=np.float64)
    return bool(np.all(np.isfinite(errors)) and errors[-1] <= REGULATION_TOL * errors[0])


def oracle_gap(model: LtvModel, data, sched: LambdaSchedule) -> float:
    reference = oracle_solve(data, sched).model.C
    return float(np.linalg.norm(model.C - reference) / np.linalg.norm(reference))


# ------------------------------------------------------------- counting

def count_calls(fn, *args, **kwargs) -> int:
    """Python and C calls made inside ``fn``, counted with ``sys.setprofile``.

    Profiling slows the call down about twofold, so a counting pass is
    never timed.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


# ------------------------------------------------------------ workloads

def drifting_plant(p: int, q: int, N: int, seed: int) -> LtvModel:
    """Random plant A(k) = A0 + sin(2 pi k / 500) A1, B(k) = B0 + cos(...) B1.

    A0 has spectral norm 0.85 and A1 0.1, so every A(k) is a contraction
    and the simulated states stay bounded for any horizon.
    """
    rng = np.random.default_rng([seed, 8])
    a0, a1 = rng.normal(size=(2, p, p))
    a0 *= 0.85 / np.linalg.norm(a0, 2)
    a1 *= 0.1 / np.linalg.norm(a1, 2)
    b0, b1 = rng.normal(size=(2, p, q)) / math.sqrt(p)
    phase = 2.0 * math.pi * np.arange(N) / 500.0
    a = a0 + np.sin(phase)[:, None, None] * a1
    b = b0 + 0.2 * np.cos(phase)[:, None, None] * b1
    return LtvModel.from_blocks(a, b)


class Workload:
    """A workload's pass is timed by ``run_pass`` and gated by ``check``.

    The objects ``run_pass`` returns (``check`` may add to them) carry
    ``fits``, a list of (stacked data, schedule, fitted model), and, where
    the pass closes the loop, the plant ``truth`` and the initial state
    ``x0``.
    """

    def probe(self, rec: Recorder, objects: dict) -> None:
        for data, sched, model in objects["fits"]:
            rec.call("solvers.build_system", build_system, data, sched)
            rec.call("core.cost", cost, model, data, sched)
            rec.call("core.gradient", gradient, model, data, sched)

    def count(self, objects: dict) -> dict:
        """Calls per instant inside the solver and inside the control chain."""
        fits = objects["fits"]
        solver = sum(count_calls(cosmic_solve, data, sched, FIT_OPTIONS)
                     for data, sched, _ in fits)
        out = {"solvers.calls_per_instant": solver / sum(data.N for data, _, _ in fits),
               "control.calls_per_instant": 0.0}
        if "truth" in objects:
            data, _, model = fits[0]
            gains = lqr_synthesize(model)
            control = (count_calls(lqr_synthesize, model)
                       + count_calls(closed_loop_rollout, objects["truth"], gains,
                                     x0=objects["x0"]))
            out["control.calls_per_instant"] = control / data.N
        return out


class ChainWorkload(Workload):
    """One dataset through the whole library chain, fit to rollout."""

    def __init__(self, seed: int, N: int, L: int, sigma: float, lam: float,
                 x0, plant: LtvModel | None = None):
        self.seed = seed
        self.L = L
        self.noise = NoiseConfig(sigma=sigma, seed=seed)
        self.sched = LambdaSchedule.scalar(lam)
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.smd = SmdConfig(N=N)
        self.plant = plant   # None: the pass builds the spring-mass-damper itself

    def run_pass(self, rec: Recorder, outcome: Outcome) -> dict:
        with rec.span("pass", coarse=True):
            truth = (self.plant if self.plant is not None
                     else rec.call("sim.smd_model", smd_model, self.smd))
            dataset = rec.call("sim.generate_dataset", generate_dataset,
                               truth, self.L, None, self.noise, self.seed)
            with rec.span("fit", coarse=True):
                data = rec.call("core.assemble_stacked", assemble_stacked, dataset)
                sufficiency = rec.call("diagnostics.covariance_sufficiency",
                                       covariance_sufficiency, dataset)
                report = rec.call("solvers.cosmic_solve", cosmic_solve,
                                  data, self.sched, FIT_OPTIONS)
            error = rec.call("diagnostics.estimation_error", estimation_error,
                             report.model, truth)
            with rec.span("control", coarse=True):
                gains = rec.call("control.lqr_synthesize", lqr_synthesize, report.model)
                rollout = rec.call("control.closed_loop_rollout", closed_loop_rollout,
                                   truth, gains, x0=self.x0)
        return {"fits": [(data, self.sched, report.model)], "truth": truth, "x0": self.x0,
                "report": report, "sufficiency": sufficiency, "error": error,
                "rollout": rollout}

    def check(self, rec: Recorder, outcome: Outcome, objects: dict) -> None:
        data, sched, model = objects["fits"][0]
        truth, report, sufficiency = objects["truth"], objects["report"], objects["sufficiency"]
        errors = objects["rollout"].tracking_errors
        stationarity = scaled_gradient(model, data, sched)
        outcome.check(sufficiency.sufficient, "dataset is not sufficient")
        outcome.check(stationarity <= STATIONARITY_TOL,
                      f"scaled gradient {stationarity:.3g} above {STATIONARITY_TOL}")
        outcome.check(regulated(errors), "rollout is not regulated")
        rec.value("fit_rel_error", objects["error"] / float(np.linalg.norm(truth.C)))
        rec.value("solvers.report_elapsed_s", report.elapsed)
        for key in ("multiply_count", "multiply_forward", "multiply_backward"):
            rec.value(f"solvers.{key}", getattr(report, key))
        rec.value("solvers.preconditioned", float(report.preconditioned))
        rec.value("solvers.scaled_gradient", stationarity)
        rec.value("diagnostics.sufficiency_margin",
                  sufficiency.min_eigenvalue / sufficiency.tolerance)
        rec.value("control.closed_loop_cost", tracking_stats(errors).sum_sq)


def smd_long(seed: int, N: int = 2_500) -> ChainWorkload:
    return ChainWorkload(seed, N=N, L=6, sigma=0.06, lam=1e5, x0=[1.0, 0.0])


def wide_block(seed: int, N: int = 2_000) -> ChainWorkload:
    # One fixed plant: its conditioning sets the estimation error, which
    # would otherwise swing fivefold from seed to seed.
    p, q = 8, 4
    return ChainWorkload(seed, N=N, L=24, sigma=0.01, lam=1e3, x0=np.ones(p),
                         plant=drifting_plant(p, q, N, PLANT_SEED))


class SweepWorkload(Workload):
    """Many short fits over noise levels, schedules and seeds; no control.

    Each of the ``seeds`` dataset seeds gives one dataset per noise level,
    each fitted with the three schedules, plus two ill-scaled datasets (the
    noisy ones with the first state coordinate times 1e6) fitted with
    lambda 1e-3, on which the automatic preconditioning turns on.  With 20
    of the 110 fits of a pass preconditioned, the pass's tail of fit times
    (ten fits beyond it) falls among them.
    """

    sigmas = (0.0, 0.006, 0.06)
    schedules = (LambdaSchedule.scalar(1e-3), LambdaSchedule.scalar(1e5), ZONED)
    ill_scale = np.diag([1e6, 1.0])
    ill_sched = LambdaSchedule.scalar(1e-3)

    def __init__(self, seed: int, N: int = 100, L: int = 6, seeds: int = 10):
        self.L = L
        self.smd = SmdConfig(N=N)
        self.seeds = [seeds * seed + j for j in range(seeds)]
        truth = smd_model(self.smd)
        scale = self.ill_scale
        self.ill_truth = LtvModel.from_blocks(
            scale @ truth.A_seq @ np.linalg.inv(scale), scale @ truth.B_seq)
        self.ill_datasets = [
            [self._ill_scaled(generate_dataset(truth, L, None, NoiseConfig(sigma, s), s))
             for sigma in self.sigmas if sigma > 0]
            for s in self.seeds]

    def _ill_scaled(self, dataset: TrajectoryDataset) -> TrajectoryDataset:
        return TrajectoryDataset.build(
            dataset.p, dataset.q,
            ((tr.states @ self.ill_scale, tr.inputs) for tr in dataset.trajectories))

    def _fit(self, rec, dataset, sched, fits, rel_errors, truth):
        with rec.span("fit", coarse=True):
            data = rec.call("core.assemble_stacked", assemble_stacked, dataset)
            sufficiency = rec.call("diagnostics.covariance_sufficiency",
                                   covariance_sufficiency, dataset)
            report = rec.call("solvers.cosmic_solve", cosmic_solve, data, sched, FIT_OPTIONS)
        rel_errors.append(rec.call("diagnostics.estimation_error", estimation_error,
                                   report.model, truth))
        fits.append((data, sched, report, sufficiency, truth))

    def run_pass(self, rec: Recorder, outcome: Outcome) -> dict:
        fits, errors = [], []
        with rec.span("pass", coarse=True):
            truth = rec.call("sim.smd_model", smd_model, self.smd)
            for s, ill in zip(self.seeds, self.ill_datasets):
                for sigma in self.sigmas:
                    noise = NoiseConfig(sigma=sigma, seed=s) if sigma > 0 else None
                    dataset = rec.call("sim.generate_dataset", generate_dataset,
                                       truth, self.L, None, noise, s)
                    for sched in self.schedules:
                        self._fit(rec, dataset, sched, fits, errors, truth)
                for dataset in ill:
                    self._fit(rec, dataset, self.ill_sched, fits, errors, self.ill_truth)
        return {"fits": [(data, sched, report.model) for data, sched, report, _, _ in fits],
                "reports": fits, "errors": errors}

    def check(self, rec: Recorder, outcome: Outcome, objects: dict) -> None:
        fits, errors = objects["reports"], objects["errors"]
        worst_gap = worst_stationarity = 0.0
        margin = math.inf
        for (data, sched, report, sufficiency, truth), error in zip(fits, errors):
            gap = oracle_gap(report.model, data, sched)
            outcome.check(gap <= ORACLE_TOL, f"oracle gap {gap:.3g} above {ORACLE_TOL}")
            rec.value("fit_rel_error", error / float(np.linalg.norm(truth.C)))
            rec.value("solvers.preconditioned", float(report.preconditioned))
            worst_gap = max(worst_gap, gap)
            worst_stationarity = max(worst_stationarity,
                                     scaled_gradient(report.model, data, sched))
            margin = min(margin, sufficiency.min_eigenvalue / sufficiency.tolerance)
        rec.value("solvers.oracle_gap", worst_gap)
        rec.value("solvers.scaled_gradient", worst_stationarity)
        rec.value("diagnostics.sufficiency_margin", margin)
        for name in ("elapsed", "multiply_count", "multiply_forward", "multiply_backward"):
            key = "report_elapsed_s" if name == "elapsed" else name
            rec.value(f"solvers.{key}", sum(getattr(f[2], name) for f in fits))


# The library calls `ltvkit.cli` makes, by the name it imported them under.
# Traced passes wrap them in spans, so a command's self time is the CLI's
# own share: argument parsing, JSON and CSV reading and writing.
_CLI_LAYER_CALLS = {
    "smd_model": "sim.smd_model",
    "generate_dataset": "sim.generate_dataset",
    "assemble_stacked": "core.assemble_stacked",
    "covariance_sufficiency": "diagnostics.covariance_sufficiency",
    "cosmic_solve": "solvers.cosmic_solve",
    "estimation_error": "diagnostics.estimation_error",
    "lqr_synthesize": "control.lqr_synthesize",
    "closed_loop_rollout": "control.closed_loop_rollout",
}


@contextlib.contextmanager
def _cli_layer_spans(rec: Recorder):
    saved = {attr: getattr(ltvkit.cli, attr) for attr in _CLI_LAYER_CALLS}
    for attr, name in _CLI_LAYER_CALLS.items():
        setattr(ltvkit.cli, attr, functools.partial(rec.call, name, saved[attr]))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(ltvkit.cli, attr, fn)


class CliWorkload(Workload):
    """The smd-long inputs driven in-process through ``ltvkit.cli.main``."""

    def __init__(self, seed: int, workdir: Path, N: int = 2_500):
        self.seed = seed
        self.dir = Path(workdir)
        self.lam = 1e5
        self.x0 = np.array([1.0, 0.0])
        self._path("config.json").write_text(json.dumps({
            "smd": {"N": N}, "L": 6, "noise": {"sigma": 0.06, "seed": seed}, "seed": seed}))
        f = self._path
        # (command, arguments, files read, files written)
        self.commands = {
            "generate": (["--config", f("config.json"), "--out", f("data.json"),
                          "--model-out", f("truth.json")],
                         ["config.json"], ["data.json", "truth.json"]),
            "check": (["--data", f("data.json")], ["data.json"], []),
            "fit": (["--data", f("data.json"), "--lambda", repr(self.lam),
                     "--out", f("model.json")], ["data.json"], ["model.json"]),
            "eval": (["--model", f("model.json"), "--truth", f("truth.json")],
                     ["model.json", "truth.json"], []),
            "lqr": (["--model", f("model.json"), "--out", f("gains.json")],
                    ["model.json"], ["gains.json"]),
            "rollout": (["--plant", f("truth.json"), "--gains", f("gains.json"),
                         "--x0", "1,0", "--out", f("rollout.csv")],
                        ["truth.json", "gains.json"], ["rollout.csv"]),
        }

    def _path(self, name: str) -> Path:
        return self.dir / name

    def _run(self, rec: Recorder, outcome: Outcome, command: str) -> dict:
        args, reads, writes = self.commands[command]
        out = io.StringIO()
        with rec.span(f"cli.{command}"), contextlib.redirect_stdout(out):
            code = ltvkit.cli.main([command, *map(str, args)])
        if not outcome.check(code == 0, f"ltvkit {command} exited {code}"):
            raise PassAborted(command)
        if rec.traced:
            rec.value("cli.bytes_read", sum(self._path(n).stat().st_size for n in reads))
            rec.value("cli.bytes_written", sum(self._path(n).stat().st_size for n in writes))
        return json.loads(out.getvalue())

    def run_pass(self, rec: Recorder, outcome: Outcome) -> dict:
        tracing = _cli_layer_spans(rec) if rec.traced else contextlib.nullcontext()
        with tracing, rec.span("pass", coarse=True):
            self._run(rec, outcome, "generate")
            with rec.span("fit", coarse=True):
                verdict = self._run(rec, outcome, "check")
                fit = self._run(rec, outcome, "fit")
            evaluation = self._run(rec, outcome, "eval")
            with rec.span("control", coarse=True):
                self._run(rec, outcome, "lqr")
                self._run(rec, outcome, "rollout")
        return {"check": verdict, "fit": fit, "eval": evaluation}

    def check(self, rec: Recorder, outcome: Outcome, objects: dict) -> None:
        """Gate the commands' output files; keep the objects read for probes."""
        with rec.span("core.dataset_from_dict"):
            dataset = TrajectoryDataset.from_dict(json.loads(self._path("data.json").read_text()))
        model = LtvModel.from_dict(json.loads(self._path("model.json").read_text()))
        truth = LtvModel.from_dict(json.loads(self._path("truth.json").read_text()))
        data = assemble_stacked(dataset)
        sched = LambdaSchedule.scalar(self.lam)
        stationarity = scaled_gradient(model, data, sched)
        with open(self._path("rollout.csv"), newline="") as fh:
            errors = [float(row["tracking_error"]) for row in csv.DictReader(fh)]
        verdict, fit = objects["check"], objects["fit"]
        outcome.check(verdict["sufficient"], "dataset is not sufficient")
        outcome.check(stationarity <= STATIONARITY_TOL,
                      f"scaled gradient {stationarity:.3g} above {STATIONARITY_TOL}")
        outcome.check(regulated(errors), "rollout is not regulated")

        rec.value("fit_rel_error",
                  objects["eval"]["estimation_error"] / float(np.linalg.norm(truth.C)))
        rec.value("solvers.report_elapsed_s", fit["elapsed"])
        for key in ("multiply_count", "multiply_forward", "multiply_backward"):
            rec.value(f"solvers.{key}", fit[key])
        rec.value("solvers.preconditioned", float(fit["preconditioned"]))
        rec.value("solvers.scaled_gradient", stationarity)
        rec.value("diagnostics.sufficiency_margin",
                  verdict["min_eigenvalue"] / verdict["tolerance"])
        rec.value("control.closed_loop_cost", float(np.sum(np.square(errors))))
        objects.update(fits=[(data, sched, model)], truth=truth, x0=self.x0, dataset=dataset)

    def probe(self, rec: Recorder, objects: dict) -> None:
        super().probe(rec, objects)
        rec.call("core.dataset_to_dict", objects["dataset"].to_dict)
        rec.call("core.model_to_dict", objects["fits"][0][2].to_dict)


def make_workload(name: str, seed: int, workdir: Path, **sizes):
    """The named workload built from ``seed``; ``sizes`` shrink it for tests."""
    if name == "smd-long":
        return smd_long(seed, **sizes)
    if name == "wide-block":
        return wide_block(seed, **sizes)
    if name == "smd-sweep":
        return SweepWorkload(seed, **sizes)
    if name == "cli-roundtrip":
        return CliWorkload(seed, workdir, **sizes)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------- the run

# Per-layer time metrics: the layer's total span time in one traced pass.
LAYER_SPANS = (
    "sim.smd_model", "sim.generate_dataset",
    "core.assemble_stacked", "core.cost", "core.gradient",
    "core.dataset_from_dict", "core.dataset_to_dict", "core.model_to_dict",
    "diagnostics.covariance_sufficiency", "diagnostics.estimation_error",
    "solvers.cosmic_solve", "solvers.build_system",
    "control.lqr_synthesize", "control.closed_loop_rollout",
    "cli.generate", "cli.check", "cli.fit", "cli.eval", "cli.lqr", "cli.rollout",
)


def median(values) -> float:
    """Median, or 0 when a workload has no such samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """Highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists, and the maximum
    is returned.
    """
    values = sorted(values)
    return values[max(len(values) - 11, -1)]


class ReferenceKernel:
    """Fixed work outside ltvkit whose time tracks the machine's current speed.

    On a shared machine every interpreter-bound computation here slows down
    and speeds up together by 20 to 40 percent over tens of seconds, while
    the ratio between two such computations holds to a few percent.  The
    run therefore times this kernel before and after every pass (Cholesky
    factor and solve of 3x3 blocks in a Python loop, the same kind of work
    as the solver's sweep) and rescales the pass's times to the speed at
    which one repetition takes ``SECONDS``.  The kernel calls numpy and
    scipy only, so no change to ltvkit can move it.
    """

    SECONDS = 0.010   # one repetition on the reference machine, when idle
    REPEATS = 6

    def __init__(self):
        g = np.random.default_rng(0).normal(size=(600, 3, 3))
        self.blocks = g @ g.transpose(0, 2, 1) + 3.0 * np.eye(3)
        self.eye = np.eye(3)

    def measure(self) -> list[float]:
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            acc = np.zeros((3, 3))
            for block in self.blocks:
                acc += cho_solve(cho_factor(block, lower=True, check_finite=False),
                                 self.eye, check_finite=False)
            times.append(time.perf_counter() - start)
        return times

    def factor(self, *marks: list[float]) -> float:
        """Rescaling factor for work done between the given kernel timings."""
        return self.SECONDS / median([t for mark in marks for t in mark])


@dataclass
class RunResult:
    outcome: Outcome
    recorder: Recorder
    completed: list[int]      # passes that ran to the end
    traced: list[int]         # the completed passes that were traced
    counts: dict
    factor: dict[int, float]  # per pass: reference speed / measured speed

    @property
    def untraced(self) -> list[int]:
        return [i for i in self.completed if i not in self.traced]

    def per_pass(self, names, passes) -> dict[int, float]:
        """Rescaled total span time of ``names`` in each of ``passes``."""
        names = {names} if isinstance(names, str) else set(names)
        totals = dict.fromkeys(passes, 0.0)
        for s in self.recorder.spans:
            if s.name in names and s.pass_id in totals:
                totals[s.pass_id] += s.seconds * self.factor[s.pass_id]
        return totals

    def values(self, name: str, passes, combine=sum) -> dict[int, float]:
        """``combine`` of the values named ``name`` reported in each of ``passes``."""
        grouped = {i: [] for i in passes}
        for n, v, i in self.recorder.values:
            if n == name and i in grouped:
                grouped[i].append(v)
        return {i: combine(v) if v else 0.0 for i, v in grouped.items()}


def run(workload, seconds: float, traced: bool, min_passes: int = 3) -> RunResult:
    """Run passes for ``seconds``, and at least ``min_passes``.

    With ``traced`` the passes alternate between traced and untraced ones,
    starting traced, and an untimed counting pass follows them.
    """
    rec, outcome = Recorder(), Outcome()
    kernel = ReferenceKernel()
    marks = [kernel.measure()]
    completed, traced_passes = [], []
    objects = None
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        rec.pass_id = passes
        rec.traced = traced and passes % 2 == 0
        try:
            done = workload.run_pass(rec, outcome)
        except PassAborted:
            done = None
        except Exception as exc:  # a failed library call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome.check(False, f"pass {passes} raised {exc!r}")
            done = None
        marks.append(kernel.measure())
        if done is not None:
            try:
                workload.check(rec, outcome, done)
                if rec.traced:
                    with rec.span("probes", coarse=True):
                        workload.probe(rec, done)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                outcome.check(False, f"checking pass {passes} raised {exc!r}")
            else:
                objects = done
                completed.append(passes)
                if rec.traced:
                    traced_passes.append(passes)
        passes += 1
    rec.traced = False
    counts = workload.count(objects) if traced and objects is not None else {}
    factor = {i: kernel.factor(marks[i], marks[i + 1]) for i in range(passes)}
    return RunResult(outcome, rec, completed, traced_passes, counts, factor)


def end_to_end(result: RunResult) -> dict[str, tuple[float, list[float]]]:
    """End-to-end metrics from untraced passes: (value, samples).

    Times are rescaled to the reference speed, pass by pass.  ``fit_tail_s``
    is the median over passes of the tail of each pass's fit times, which
    equals ``fit_s`` where a pass makes one fit.
    """
    rec = result.recorder
    untraced = result.untraced
    pipeline = list(result.per_pass("pass", untraced).values())
    fits = {i: [] for i in untraced}
    for s in rec.spans:
        if s.name == "fit" and s.pass_id in fits:
            fits[s.pass_id].append(s.seconds * result.factor[s.pass_id])
    every_fit = [t for times in fits.values() for t in times]
    tails = [tail(times) for times in fits.values() if times]
    errors = [v for n, v, i in rec.values if n == "fit_rel_error" and i in untraced]
    return {
        "pipeline_s": (median(pipeline), pipeline),
        "fit_s": (median(every_fit), every_fit),
        "fit_tail_s": (median(tails), tails),
        "fit_rel_error": (median(errors), errors),
    }


def per_layer(result: RunResult) -> dict[str, tuple[float, list[float]]]:
    """Per-layer metrics from traced passes, plus the tracing overhead.

    Each value is the median over traced passes of a per-pass figure:
    the layer's total time, rescaled to the reference speed, or a value the
    pass reported.
    """
    rec = result.recorder
    traced, untraced = result.traced, result.untraced
    out = {}

    def put(name, per_pass_values):
        samples = list(per_pass_values)
        out[name] = (median(samples), samples)

    def reported(name, combine=sum):
        return result.values(name, traced, combine).values()

    for name in LAYER_SPANS:
        put(f"{name}_s", result.per_pass(name, traced).values())
    elapsed = {i: v * result.factor[i]
               for i, v in result.values("solvers.report_elapsed_s", traced).items()}
    build = result.per_pass("solvers.build_system", traced)
    solve = result.per_pass("solvers.cosmic_solve", traced)
    put("solvers.report_elapsed_s", elapsed.values())
    put("solvers.sweep_s", (elapsed[i] - build[i] for i in traced))
    put("solvers.verify_s", (solve[i] - elapsed[i] for i in traced))
    for key in ("multiply_count", "multiply_forward", "multiply_backward"):
        put(f"solvers.{key}", reported(f"solvers.{key}"))
    flags = [v for name, v, i in rec.values
             if name == "solvers.preconditioned" and i in result.completed]
    out["solvers.preconditioned_frac"] = (sum(flags) / len(flags) if flags else 0.0, flags)
    put("solvers.oracle_gap", reported("solvers.oracle_gap", max))
    put("solvers.scaled_gradient", reported("solvers.scaled_gradient", max))
    put("diagnostics.sufficiency_margin", reported("diagnostics.sufficiency_margin", min))
    put("control.total_s", result.per_pass("control", traced).values())
    put("control.closed_loop_cost", reported("control.closed_loop_cost"))
    cli_spans = [f"cli.{c}" for c in ("generate", "check", "fit", "eval", "lqr", "rollout")]
    cli_total = result.per_pass(cli_spans, traced)
    cli_children = _child_time(result, cli_spans, traced)
    put("cli.self_s", (cli_total[i] - cli_children[i] for i in traced))
    put("cli.bytes_read", reported("cli.bytes_read"))
    put("cli.bytes_written", reported("cli.bytes_written"))
    for key in ("solvers.calls_per_instant", "control.calls_per_instant"):
        put(key, [result.counts[key]] if key in result.counts else [])
    pipeline_traced = median(result.per_pass("pass", traced).values())
    pipeline_plain = median(result.per_pass("pass", untraced).values())
    overhead = pipeline_traced / pipeline_plain - 1.0 if pipeline_plain else 0.0
    out["trace.overhead_frac"] = (overhead, [pipeline_traced, pipeline_plain])
    return out


def _child_time(result: RunResult, names, passes) -> dict[int, float]:
    """Rescaled time of the direct children of the spans named ``names``, per pass."""
    spans, names = result.recorder.spans, set(names)
    parents = {i for i, s in enumerate(spans) if s.name in names}
    totals = dict.fromkeys(passes, 0.0)
    for s in spans:
        if s.parent in parents and s.pass_id in totals:
            totals[s.pass_id] += s.seconds * result.factor[s.pass_id]
    return totals


def setup_seconds(src: Path, repeats: int, kernel: ReferenceKernel) -> list[float]:
    """Time of ``import ltvkit`` in fresh interpreters, as every CLI command pays.

    Each import is timed between two reference-kernel timings and rescaled
    to the reference speed like a pass.
    """
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(src))
    marks = [kernel.measure()]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ltvkit"], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=120)
        seconds = time.perf_counter() - start
        marks.append(kernel.measure())
        times.append(seconds * kernel.factor(marks[-2], marks[-1]))
    return times
