"""Property tests: the closed-form solve and the LQR scan against references.

Cyclic reduction and the Riccati scan halve the horizon level by level, so
their index bookkeeping meets a different odd/even pattern at every N.  The
fitting instances cover N from 2 to 70, with extra weight on powers of two
and their neighbours, p from 1 to 4, q from 0 to 3, trajectory counts below
p+q as long as the pooled data still determine the fit (N * L >= p+q for
generic Gaussian samples), and scalar, zoned and per-instant schedules with
weights from 1e-3 to 1e3.  Datasets built from p from 1 to 4, q from 0
to 3, 1 to 5 trajectories and N from 2 to 40 are checked against the
arrays handed over, writeable or read-only.  The control instances are
random drifting plants with N from 1 to 70 on the same weighting, p from
1 to 4, q from 0 to 3, A0's spectral norm from 0.1 to 1.5 and LQR weights
from 1e-3 to 1e3, checked against the step-by-step Riccati recursion to a
tolerance scaled by the conditioning of the two routes (see the test).
The rollouts run random drifting plants with N from 1 to 60, p from 1 to
6 and q from 0 to 3 under random gains, with and without measurement
noise and a reference, and are replayed through ``simulate``.  The
simulation step is checked bitwise against the per-instant formula on
plants with N from 1 to 40, p from 1 to 4, q from 0 to 3 and batches of 1
to 5 trajectories.  The JSON loaders get records whose keys are their own
and whose values are mostly plausible, otherwise any JSON value.  Every
numeric or object-valued setting of the value objects, their builders, the
solvers, the rollout and the dataset generator gets bools, numeric
strings, NaN, infinities and values outside its range or of another type,
and every flag gets values that are not booleans; a last test fails when a
setting is added that none of these cases, nor the table of the remaining
ones, covers.
Hypothesis runs derandomized and without an example database, so every
run checks the same examples.
"""

import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ltvkit import (ExcitationSpec, GainSchedule, LambdaSchedule, LqrWeights, LtvModel,
                    NoiseConfig, SmdConfig, SolveOptions, StackedData, Trajectory,
                    TrajectoryDataset, assemble_stacked, closed_loop_rollout, cosmic_solve,
                    covariance_sufficiency, generate_dataset, lqr_synthesize, oracle_solve,
                    sbcd_solve, simulate)
from ltvkit.cli import BenchSpec, SweepSpec
from ltvkit.sim import _simulate_batch

from _cases import (dense_reference_solution, drifting_plant, random_dataset, relative_gap,
                    riccati_loop, simulate_rows)

_EDGES = sorted({n for k in range(1, 7) for n in (2**k - 1, 2**k, 2**k + 1) if 2 <= n <= 70})

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                     suppress_health_check=[HealthCheck.too_slow])


def _weight(draw):
    return 10.0 ** draw(st.floats(-3.0, 3.0))


@st.composite
def instances(draw):
    n = draw(st.one_of(st.sampled_from(_EDGES), st.integers(2, 70)))
    p = draw(st.integers(1, 4))
    q = draw(st.integers(0, 3))
    m = p + q
    ell = draw(st.integers(-(-m // n), 2 * m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = assemble_stacked(random_dataset(rng, p, q, n, ell))
    kind = draw(st.sampled_from(["scalar", "zoned", "per_instant"]))
    if kind == "scalar":
        sched = LambdaSchedule.scalar(_weight(draw))
    elif kind == "zoned":
        starts = draw(st.sets(st.integers(2, n - 1), max_size=4)) if n > 2 else set()
        sched = LambdaSchedule.zoned([(k, _weight(draw)) for k in [1, *sorted(starts)]])
    else:
        sched = LambdaSchedule.per_instant([_weight(draw) for _ in range(n - 1)])
    return data, sched


def scaled_gap(c_a, c_b):
    return float(np.linalg.norm(c_a - c_b)) / (1.0 + float(np.linalg.norm(c_b)))


@_SETTINGS
@given(instances())
def test_closed_form_matches_dense_references(instance):
    data, sched = instance
    c = cosmic_solve(data, sched).model.C
    assert c.shape == (data.N, data.width, data.p)
    assert scaled_gap(c, dense_reference_solution(data, sched)) <= 1e-8
    assert scaled_gap(c, oracle_solve(data, sched).model.C) <= 1e-8


@st.composite
def trajectory_sets(draw):
    p, q = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    n, ell = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(rng.normal(size=(n + 1, p)), rng.normal(size=(n, q))) for _ in range(ell)]
    if draw(st.booleans()):  # arrays that build keeps as given until the dataset copies them
        for a in (a for pair in pairs for a in pair):
            a.setflags(write=False)
    return p, q, pairs


@_SETTINGS
@given(trajectory_sets())
def test_dataset_samples_are_the_trajectories_handed_over(case):
    """Each trajectory of a built dataset is bitwise the arrays handed to
    ``build``; D[k, l] is bitwise [x_l(k), u_l(k)] and Xnext[k][:, l] is
    x_l(k+1); ``assemble_stacked``, which skips ``StackedData``'s checks,
    gives the same views as a checked ``StackedData`` of the samples; and
    Sigma matches the sum of the per-trajectory covariances to within
    64 eps."""
    p, q, pairs = case
    dataset = TrajectoryDataset.build(p, q, pairs)
    data = assemble_stacked(dataset)
    checked = StackedData(D=dataset.samples[:-1],
                          Xnext=dataset.samples[1:, :, :p].transpose(0, 2, 1))
    for name in ("D", "Xnext"):
        got, ref = getattr(data, name), getattr(checked, name)
        assert (got.shape, got.strides) == (ref.shape, ref.strides)
        assert got.base is ref.base is dataset.samples
        assert not got.flags.writeable and not ref.flags.writeable
    ref = np.zeros((p + q, p + q))
    for ell, (tr, (states, inputs)) in enumerate(zip(dataset.trajectories, pairs, strict=True)):
        assert np.array_equal(tr.states, states) and np.array_equal(tr.inputs, inputs)
        z = np.concatenate([states[:-1], inputs], axis=1)
        assert np.array_equal(data.D[:, ell], z)
        assert np.array_equal(data.Xnext[:, :, ell], states[1:])
        ref += (z.T @ z) / dataset.N
    sigma = covariance_sufficiency(dataset).sigma
    assert np.abs(sigma - ref).max() <= 64 * np.finfo(np.float64).eps * np.abs(ref).max()


@st.composite
def plants(draw):
    n = draw(st.one_of(st.sampled_from(_EDGES), st.integers(1, 70)))
    p = draw(st.integers(1, 4))
    q = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = drifting_plant(rng, p, q, n, spread=draw(st.floats(0.1, 1.5)))
    return model, LqrWeights(q_x=_weight(draw), q_v=_weight(draw), r=_weight(draw))


@_SETTINGS
@given(plants())
def test_riccati_scan_matches_step_by_step_recursion(instance):
    """Inside each chunk of instants ``lqr_synthesize`` takes the recursion's
    own steps; the P entering a chunk comes from the scan, whose combine
    solves with I + C(k) P(k+1), C(k) = B(k) R^{-1} B(k)^T, where the
    recursion factors R + B(k)^T P(k+1) B(k), so it can lose about
    log10(1 + gamma) more digits, gamma = max_k |C(k)| |P(k+1)|; K inherits
    a further factor of cond(R + B^T P B) from both.  Over 9 000 draws of
    this family (three hypothesis seeds of 3 000) the gaps stayed below
    12 eps (1 + gamma) for P and 9 eps (1 + gamma) cond for K, and the
    largest gap in P was 6.3e-12; a scan over the whole horizon reached
    11 eps (1 + gamma), 22 eps (1 + gamma) cond and 7.5e-11 on the same
    draws."""
    model, weights = instance
    gains = lqr_synthesize(model, weights)
    k_ref, p_ref = riccati_loop(model, weights)
    b = model.B_seq
    c = b @ b.mT / weights.r
    norms = np.linalg.norm(c, 2, axis=(1, 2)) * np.linalg.norm(p_ref[1:], 2, axis=(1, 2))
    gamma = float(np.max(norms))
    tol = 64 * np.finfo(np.float64).eps * (1.0 + gamma)
    assert relative_gap(gains.P, p_ref) <= tol
    if model.q:
        s = weights.input_cost(model.q) + b.mT @ p_ref[1:] @ b
        assert relative_gap(gains.K, k_ref) <= tol * float(np.max(np.linalg.cond(s)))


@st.composite
def rollouts(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 60)))
    p = draw(st.integers(1, 6))
    q = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = drifting_plant(rng, p, q, n, spread=draw(st.floats(0.1, 1.5)))
    gains = GainSchedule(K=rng.normal(size=(n, q, p)))
    reference = rng.normal(size=(n + 1, p)) if draw(st.booleans()) else None
    noise = (NoiseConfig(sigma=draw(st.floats(1e-3, 1.0)), seed=draw(st.integers(0, 2**16)))
             if draw(st.booleans()) else None)
    return plant, gains, rng.normal(size=p), reference, noise


@_SETTINGS
@given(rollouts())
def test_rollout_replays_through_simulate_bit_for_bit(case):
    """The rollout's states are ``simulate``'s under its own inputs, exactly,
    and each input is -K(k) (x~(k) - r(k)) to rounding, where x~ is the true
    state plus the noise stream default_rng(seed).normal(0, sigma, (N, p))."""
    plant, gains, x0, reference, noise = case
    n, p = plant.N, plant.p
    result = closed_loop_rollout(plant, gains, reference=reference, x0=x0, noise=noise)
    assert result.states.shape == (n + 1, p) and result.inputs.shape == (n, plant.q)
    assert np.array_equal(simulate(plant, x0, result.inputs), result.states)
    measured = result.states[:-1]
    if noise is not None:
        measured = measured + np.random.default_rng(noise.seed).normal(0.0, noise.sigma, (n, p))
    ref = np.zeros((n + 1, p)) if reference is None else reference
    eps = np.finfo(np.float64).eps
    for k in range(n):
        error = measured[k] - ref[k]
        gap = np.linalg.norm(result.inputs[k] - -gains.K[k] @ error)
        norm_k = np.linalg.norm(gains.K[k], 2) if plant.q else 0.0
        assert gap <= 4 * eps * norm_k * np.linalg.norm(error)


@st.composite
def steps(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    q = draw(st.integers(0, 3))
    ell = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = drifting_plant(rng, p, q, n, spread=draw(st.floats(0.1, 1.5)))
    gains = GainSchedule(K=rng.normal(size=(n, q, p)))
    reference = rng.normal(size=(n + 1, p)) if draw(st.booleans()) else None
    noise = (NoiseConfig(sigma=draw(st.floats(1e-3, 1.0)), seed=draw(st.integers(0, 2**16)))
             if draw(st.booleans()) else None)
    return plant, rng.normal(size=(ell, p)), rng.normal(size=(n, ell, q)), gains, reference, noise


@_SETTINGS
@given(steps())
def test_simulation_steps_bitwise_as_the_per_instant_formula(case):
    """The batch simulation of L trajectories, ``simulate`` and the
    rollout's states are bitwise those of np.add(np.dot(x, A(k).T),
    np.dot(u, B(k).T)) stepped one instant at a time on the same rows, and
    the rollout replays through ``simulate``."""
    plant, starts, inputs, gains, reference, noise = case
    assert np.array_equal(_simulate_batch(plant, starts, inputs),
                          simulate_rows(plant, starts, inputs))
    for x0, u in zip(starts, inputs.transpose(1, 0, 2)):
        assert np.array_equal(simulate(plant, x0, u),
                              simulate_rows(plant, x0[None], u[:, None])[:, 0])
    x0 = starts[0]
    result = closed_loop_rollout(plant, gains, reference=reference, x0=x0, noise=noise)
    replayed = simulate(plant, x0, result.inputs)
    assert np.array_equal(replayed, result.states)
    assert np.array_equal(simulate_rows(plant, x0[None], result.inputs[:, None])[:, 0], replayed)


# JSON values of every kind: NaN and infinities, integers beyond float range,
# numeric strings and booleans where numbers belong, and nested arrays and objects.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["", "1", "cosmic"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=12)
_INT = st.integers(-2, 8)
_NUM = _INT | st.floats()


def _nested(depth):
    values = _NUM
    for _ in range(depth):
        values = st.lists(values, max_size=4)
    return values


def _records(required, optional=None):
    """JSON objects with the required keys and some of the optional ones;
    each value is mostly plausible for its key and otherwise any JSON value."""
    def value(plausible):
        return st.one_of(plausible, plausible, plausible, _JSON)
    return st.fixed_dictionaries({k: value(v) for k, v in required.items()},
                                 optional={k: value(v) for k, v in (optional or {}).items()})


_SMD = {"mass": _NUM, "k0": _NUM, "c0": _NUM, "alpha_k": _NUM, "alpha_c": _NUM, "omega": _NUM,
        "dt": _NUM, "N": _INT, "ltv": st.booleans()}
_LOADERS = [
    (TrajectoryDataset.from_dict,
     _records({"p": _INT, "q": _INT, "N": _INT, "trajectories": st.lists(
         _records({"states": _nested(2), "inputs": _nested(2)}), max_size=3)})),
    (LtvModel.from_dict, _records({"p": _INT, "q": _INT, "N": _INT, "C": _nested(3)})),
    (GainSchedule.from_dict, _records({"K": _nested(3)})),
    (LambdaSchedule.from_dict,
     _records({}, {"scalar": _NUM, "per_instant": _nested(1),
                   "zones": st.lists(st.lists(_NUM, max_size=3), max_size=3)})),
    (SmdConfig.from_dict, _records({}, _SMD)),
    (ExcitationSpec.from_dict,
     _records({}, {"x0": st.sampled_from(["uniform", "gaussian"]), "x0_scale": _NUM,
                   "inputs": st.sampled_from(["zero", "white", "sinusoids"]),
                   "input_scale": _NUM, "frequencies": _nested(1)})),
    (BenchSpec.from_dict,
     _records({"N_grid": st.lists(_INT, max_size=3)},
              {"solvers": st.lists(st.sampled_from(["cosmic", "sbcd", "oracle"]), max_size=3),
               "repetitions": _INT, "p": _INT, "q": _INT, "L": _INT, "seed": _INT,
               "dense_limit": _INT, "sbcd_max_iters": _INT, "sbcd_epsilon": _NUM,
               "lambda": _NUM, "accounting": st.booleans()})),
    (SweepSpec.from_dict,
     _records({"lambda_grid": _nested(1), "sigma_grid": _nested(1)},
              {"seeds": st.lists(_INT, max_size=3), "L": _INT, "smd": _records({}, _SMD),
               "metric": st.sampled_from(["estimation", "prediction"])})),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.one_of(*(st.tuples(st.just(load), records | _JSON) for load, records in _LOADERS)))
def test_loaders_return_an_instance_or_raise_value_error(case):
    """Each JSON loader builds its object or raises ValueError, never another
    exception, whatever JSON value it is given.  Only loaders run, so every
    allocation is bounded by the (small) generated values."""
    load, obj = case
    try:
        load(obj)
    except ValueError:
        pass


# Values outside each field's range: below an integer's minimum, at or below
# zero for a positive number, below zero for a nonnegative one, above the
# bound of a smoothness weight or a modulation depth, and beyond float64 for
# a number or array entry with no other bound.
def _below(minimum):
    return st.integers(max_value=minimum - 1)


_NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False)
_NEGATIVE = st.floats(max_value=-5e-324, allow_nan=False)
_BEYOND_FLOAT = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
_BAD_WEIGHT = _NOT_POSITIVE | st.floats(min_value=1.35e154)
_OTHER_TYPE = st.integers() | st.floats() | st.text()  # for a field that holds an object
_TRAJECTORY = Trajectory(states=np.zeros((3, 1)), inputs=np.zeros((2, 0)))
_HAND_DATA = assemble_stacked(TrajectoryDataset.build(1, 0, [([1.0, 0.5, 0.2], None)]))
_HAND_PLANT = LtvModel.constant([[0.5]], [[1.0]], 2)
_HAND_GAINS = GainSchedule(K=np.zeros((2, 1, 1)))


def _fields(build, defaults, rules, name=None):
    """One case per (field, needle, out-of-range values) rule: ``build`` with
    ``defaults`` and the field set to the value under test."""
    return [pytest.param(lambda v, field=field: build(**{**defaults, field: v}), needle, bad,
                         id=f"{name or build.__name__}.{field}")
            for field, needle, bad in rules]


def _entry(name, build, needle, out_of_range=_BEYOND_FLOAT):
    """A list or array field, given the value under test as one entry."""
    return pytest.param(build, needle, out_of_range, id=name)


_SHARED_RULES = [
    *_fields(LtvModel, dict(p=1, q=1, N=2, C=np.zeros((2, 2, 1))), [
        ("p", "state dimension p", _below(1)), ("q", "input dimension q", _below(0)),
        ("N", "horizon N", _below(1))]),
    _entry("LtvModel.C", lambda v: LtvModel(p=1, q=1, N=2, C=[[[0.0], [v]], [[0.0], [0.0]]]),
           "model coefficients"),
    *_fields(TrajectoryDataset, dict(p=1, q=0, N=2, trajectories=(_TRAJECTORY,)), [
        ("p", "state dimension p", _below(1)), ("q", "input dimension q", _below(0)),
        ("N", "horizon N", _below(2))]),
    *_fields(TrajectoryDataset.build, dict(p=1, q=0, pairs=[([1.0, 0.5, 0.2], None)]), [
        ("p", "state dimension p", _below(1)), ("q", "input dimension q", _below(0))],
        name="TrajectoryDataset.build"),
    *_fields(LtvModel.constant, dict(A=[[0.5]], B=[[1.0]], N=2), [("N", "horizon N", _below(1))],
             name="LtvModel.constant"),
    _entry("TrajectoryDataset.trajectories",
           lambda v: TrajectoryDataset(p=1, q=0, N=2, trajectories=(_TRAJECTORY, v)),
           "trajectories entry", _OTHER_TYPE),
    _entry("TrajectoryDataset.states",
           lambda v: TrajectoryDataset.build(1, 1, [([[0.0], [v], [1.0]], [[1.0], [0.0]])]),
           "trajectory 0: states"),
    _entry("TrajectoryDataset.inputs",
           lambda v: TrajectoryDataset.build(1, 1, [([[0.0], [0.5], [1.0]], [[1.0], [v]])]),
           "trajectory 0: inputs"),
    _entry("GainSchedule.K", lambda v: GainSchedule(K=[[[0.5]], [[v]]]), "gains"),
    _entry("GainSchedule.P", lambda v: GainSchedule(K=[[[0.5]]], P=[[[1.0]], [[v]]]),
           "Riccati solutions"),
    *_fields(LqrWeights, {}, [(name, name, _NOT_POSITIVE) for name in ("q_x", "q_v", "r")]),
    _entry("LqrWeights.terminal", lambda v: LqrWeights(terminal=[[1.0, 0.0], [0.0, v]]),
           "terminal cost"),
    *_fields(SmdConfig, {}, [
        ("mass", "mass", _NOT_POSITIVE), ("dt", "dt", _NOT_POSITIVE),
        *((name, name, _BEYOND_FLOAT) for name in ("k0", "c0", "omega")),
        *((name, name, st.floats(min_value=1.0) | st.floats(max_value=-1.0))
          for name in ("alpha_k", "alpha_c")),
        ("N", "horizon N", _below(2))]),
    *_fields(NoiseConfig, {}, [("sigma", "sigma", _NEGATIVE), ("seed", "noise seed", _below(0))]),
    *_fields(ExcitationSpec, {}, [("x0_scale", "x0_scale", _NEGATIVE),
                                  ("input_scale", "input_scale", _NEGATIVE)]),
    _entry("ExcitationSpec.frequencies", lambda v: ExcitationSpec(frequencies=(0.3, v)),
           "frequencies entry"),
    _entry("LambdaSchedule.value", LambdaSchedule.scalar, "smoothness weight", _BAD_WEIGHT),
    _entry("LambdaSchedule.zones.weight", lambda v: LambdaSchedule.zoned([(1, 1.0), (3, v)]),
           "smoothness weight", _BAD_WEIGHT),
    _entry("LambdaSchedule.zones.start", lambda v: LambdaSchedule.zoned([(v, 1.0)]), "zones",
           _below(1)),
    _entry("LambdaSchedule.values", lambda v: LambdaSchedule.per_instant([1.0, v]),
           "smoothness weight", _BAD_WEIGHT),
    _entry("BenchSpec.N_grid", lambda v: BenchSpec(N_grid=(10, v)), "N_grid entry", _below(2)),
    *_fields(BenchSpec, dict(N_grid=(10,)), [
        ("repetitions", "repetitions", _below(1)), ("p", "p", _below(1)),
        ("q", "q", _below(0)), ("L", "L", _below(1)), ("seed", "seed", _below(0)),
        ("dense_limit", "dense_limit", _below(0)),
        ("sbcd_max_iters", "sbcd_max_iters", _below(0)), ("lam", "lambda", _NOT_POSITIVE),
        ("sbcd_epsilon", "sbcd_epsilon", _NOT_POSITIVE)]),
    _entry("SweepSpec.lambda_grid", lambda v: SweepSpec(lambda_grid=(v,), sigma_grid=(0.0,)),
           "lambda_grid entry", _NOT_POSITIVE),
    _entry("SweepSpec.sigma_grid", lambda v: SweepSpec(lambda_grid=(1.0,), sigma_grid=(v,)),
           "sigma_grid entry", _NEGATIVE),
    _entry("SweepSpec.seeds", lambda v: SweepSpec((1.0,), (0.0,), seeds=(v,)), "seeds entry",
           _below(0)),
    *_fields(SweepSpec, dict(lambda_grid=(1.0,), sigma_grid=(0.0,)),
             [("L", "L", _below(1)), ("smd", "smd", _OTHER_TYPE)]),
    *_fields(lambda **kwargs: sbcd_solve(_HAND_DATA, LambdaSchedule.scalar(1.0), **kwargs), {},
             [("epsilon", "epsilon", _NOT_POSITIVE), ("max_iters", "max_iters", _below(0)),
              ("seed", "seed", _below(0))], name="sbcd_solve"),
    *_fields(lambda **kwargs: oracle_solve(_HAND_DATA, LambdaSchedule.scalar(1.0), **kwargs), {},
             [("dense_limit", "dense_limit", _below(0))], name="oracle_solve"),
    _entry("closed_loop_rollout.reference",
           lambda v: closed_loop_rollout(_HAND_PLANT, _HAND_GAINS, reference=[[0.0], [v], [0.0]]),
           "reference state"),
    _entry("closed_loop_rollout.x0",
           lambda v: closed_loop_rollout(_HAND_PLANT, _HAND_GAINS, x0=[v]), "initial state"),
    _entry("closed_loop_rollout.noise",
           lambda v: closed_loop_rollout(_HAND_PLANT, _HAND_GAINS, noise=v), "noise", _OTHER_TYPE),
    *_fields(lambda **kwargs: generate_dataset(_HAND_PLANT, 1, **kwargs), {},
             [("excitation", "excitation", _OTHER_TYPE), ("noise", "noise", _OTHER_TYPE),
              ("seed", "seed", _below(0))], name="generate_dataset"),
]

_NUMERIC_STRINGS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                    | st.integers().map(str))


@pytest.mark.parametrize("build, needle, out_of_range", _SHARED_RULES)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_every_setting_refuses_what_the_shared_rules_refuse(build, needle, out_of_range, data):
    """Each numeric or object-valued setting of the value objects, the
    solvers, the rollout and the dataset generator refuses a bool, a
    numeric string, NaN, both infinities and a value outside its range or of
    another type with a ValueError whose message starts with its name; a
    list or an array gets the value as one of its entries."""
    for value in (data.draw(st.booleans()), data.draw(_NUMERIC_STRINGS), math.nan, math.inf,
                  -math.inf, data.draw(out_of_range)):
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}"):
            build(value)


_FLAG_RULES = [
    pytest.param(lambda v: SmdConfig(ltv=v), "ltv", id="SmdConfig.ltv"),
    pytest.param(lambda v: BenchSpec(N_grid=(10,), accounting=v), "accounting",
                 id="BenchSpec.accounting"),
    pytest.param(lambda v: SolveOptions(accounting=v), "accounting", id="SolveOptions.accounting"),
]


@pytest.mark.parametrize("build, name", _FLAG_RULES)
@pytest.mark.parametrize("value", [0, 1, "true", None, np.True_], ids=repr)
def test_every_flag_refuses_what_is_not_a_boolean(build, name, value):
    """A flag takes True or False alone: not a number, a string, None or a
    numpy boolean, any of which would otherwise be read by its truth value."""
    with pytest.raises(ValueError, match=f"^{name} must be a boolean"):
        build(value)


# The settings no rule case above reads: choice strings, which refuse any
# value outside their choices, each with the test that covers it.
_OTHER_SETTINGS = {
    "LambdaSchedule.kind": "test_core.py::test_schedule_json_round_trip",
    "ExcitationSpec.x0": "test_sim.py::test_excitation_and_noise_validation",
    "ExcitationSpec.inputs": "test_sim.py::test_excitation_and_noise_validation",
    "BenchSpec.solvers": "test_cli.py::test_bench_spec_validation",
    "SweepSpec.metric": "test_cli.py::test_sweep_spec_validation",
    "SolveOptions.precondition": "test_solvers.py::test_solve_options_validation",
}


def test_every_setting_is_checked_by_a_named_test():
    """Every field of the settings dataclasses that a caller can pass (a
    non-init field, such as a dataset's ``samples``, is derived) and every
    keyword parameter of the solvers, the rollout and the dataset generator
    is a rule or flag case above, each of which refuses a string, or is in
    ``_OTHER_SETTINGS`` with a test that exists."""
    settings_classes = (LtvModel, TrajectoryDataset, GainSchedule, LqrWeights, LambdaSchedule,
                        SmdConfig, NoiseConfig, ExcitationSpec, BenchSpec, SweepSpec,
                        SolveOptions)
    names = [f"{cls.__name__}.{f.name}" for cls in settings_classes
             for f in dataclasses.fields(cls) if f.init]
    names += [f"{fn.__name__}.{name}"
              for fn in (sbcd_solve, oracle_solve, closed_loop_rollout, generate_dataset)
              for name, param in inspect.signature(fn).parameters.items()
              if param.default is not inspect.Parameter.empty]
    cases = {case.id: case.values[:2] for case in _SHARED_RULES + _FLAG_RULES}
    unchecked, accepting = [], []
    for name in names:
        covering = [case for case in cases if case == name or case.startswith(name + ".")]
        if name in _OTHER_SETTINGS:
            test_file, test = _OTHER_SETTINGS[name].split("::")
            assert f"def {test}(" in (Path(__file__).parent / test_file).read_text(), name
        elif not covering:
            unchecked.append(name)
        for case in covering:
            build, needle = cases[case]
            try:
                build("x")
                accepting.append(case)
            except ValueError as exc:
                assert str(exc).startswith(needle), (case, str(exc))
    assert not unchecked + accepting, (f"settings without a rule case: {unchecked}; "
                                       f"rule cases that accept a string: {accepting}")
