import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltvkit import (LambdaSchedule, LtvModel, StackedData, Trajectory, TrajectoryDataset,
                    assemble_stacked, cost, cost_terms, gradient)

from _cases import dense_reference_solution, hand_instance, random_dataset, tracing, wide_dataset


def loop_cost(model, data, lam):
    """Naive double-loop evaluation of the objective."""
    total = 0.0
    for k in range(data.N):
        for ell in range(data.L):
            r = data.D[k, ell] @ model.C[k] - data.Xnext[k][:, ell]
            total += 0.5 * float(r @ r)
    for k in range(1, data.N):
        d = model.C[k] - model.C[k - 1]
        total += 0.5 * lam[k - 1] * float(np.sum(d * d))
    return total


def loop_gradient(model, data, lam):
    g = np.zeros_like(model.C)
    for k in range(data.N):
        res = data.D[k] @ model.C[k] - data.Xnext[k].T
        g[k] = data.D[k].T @ res
        if k >= 1:
            g[k] += lam[k - 1] * (model.C[k] - model.C[k - 1])
        if k <= data.N - 2:
            g[k] -= lam[k] * (model.C[k + 1] - model.C[k])
    return g


def random_model(rng, p, q, n):
    return LtvModel(p=p, q=q, N=n, C=rng.normal(size=(n, p + q, p)))


# ---------------------------------------------------------------- stacking


def test_assemble_hand_values():
    data, _ = hand_instance()
    assert data.D.shape == (2, 1, 1)
    assert_allclose(data.D[:, 0, 0], [1.0, 2.0])
    assert_allclose(data.Xnext[:, 0, 0], [2.0, 6.0])
    assert (data.N, data.L, data.p, data.q, data.width) == (2, 1, 1, 0, 1)


def test_assemble_one_hot_rows():
    ds = TrajectoryDataset.build(1, 1, [([1.0, 0.0, 0.0], [0.0, 1.0])])
    data = assemble_stacked(ds)
    assert_allclose(data.D[0], [[1.0, 0.0]])
    assert_allclose(data.D[1], [[0.0, 1.0]])
    assert_allclose(data.Xnext[:, 0, 0], [0.0, 0.0])


def test_assemble_round_trip():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 3, 2, 5, 4)
    data = assemble_stacked(ds)
    for ell, tr in enumerate(ds.trajectories):
        assert np.array_equal(data.D[:, ell, :3], tr.states[:-1])
        assert np.array_equal(data.Xnext[:, :, ell], tr.states[1:])
        assert np.array_equal(data.D[:, ell, 3:], tr.inputs)


def test_stacked_arrays_read_only():
    data, _ = hand_instance()
    with pytest.raises(ValueError):
        data.D[0, 0, 0] = 9.0


def test_stacking_holds_each_sample_once():
    """On the bench's wide-block shape (p = 8, q = 4, L = 24, N = 2 000),
    stacking allocates at most 0.01 times the dataset's bytes (nothing but
    the views; 0.13 when ``StackedData`` tested the dataset's samples again
    for finiteness, 1.13 when stacking wrote its own copy of the samples,
    3.79 when the states were held twice), and D, Xnext and every
    trajectory are views of the dataset's one read-only sample array."""
    dataset, size = wide_dataset(2000)
    with tracing() as peak:
        data = assemble_stacked(dataset)
        assert peak() <= 0.01 * size
    samples = dataset.samples
    assert data.D.base is data.Xnext.base is samples
    assert samples.shape == (2001, 24, 12) and not samples.flags.writeable
    views = [data.D, data.Xnext]
    views += [a for tr in dataset.trajectories for a in (tr.states, tr.inputs)]
    assert all(np.shares_memory(v, samples) and not v.flags.writeable for v in views)


def test_read_only_arrays_are_held_as_given_and_others_copied():
    """An array read-only all the way down to its base is held without a
    copy; a writeable array, or a read-only view of one, is copied, so that
    a later write by the caller does not reach the held array."""
    frozen = np.arange(24.0).reshape(4, 3, 2).copy()
    frozen.setflags(write=False)
    writeable = np.arange(24.0).reshape(4, 3, 2)
    read_only_view = writeable[:]
    read_only_view.setflags(write=False)
    builders = [
        lambda a: (Trajectory(states=a[0], inputs=a[1, :, :1]), ("states", "inputs")),
        lambda a: (StackedData(D=a, Xnext=a[:, :, :1].mT), ("D", "Xnext")),
        lambda a: (LtvModel(p=1, q=1, N=4, C=a[:, :2, :1]), ("C",)),
    ]
    for build in builders:
        held, names = build(frozen)
        assert all(np.shares_memory(getattr(held, name), frozen) for name in names)
        for given in (writeable, read_only_view):
            held, names = build(given)
            for name in names:
                assert not np.shares_memory(getattr(held, name), writeable)
                assert not getattr(held, name).flags.writeable


# ---------------------------------------------------------------- dataset


def test_dataset_shape_validation():
    good = np.zeros((3, 2))
    with pytest.raises(ValueError, match="trajectory 0: states"):
        TrajectoryDataset.build(2, 0, [(np.zeros((4, 3)), None)])
    with pytest.raises(ValueError, match="trajectory 1: inputs"):
        TrajectoryDataset.build(2, 1, [(good, np.zeros((2, 1))),
                                       (good, np.zeros((2, 2)))])


def test_dataset_ragged_row_message():
    with pytest.raises(ValueError, match="states at instant 2 has dimension 1, expected 2"):
        TrajectoryDataset.build(2, 0, [([[1.0, 2.0], [3.0, 4.0], [5.0]], None)])


def test_dataset_dimension_bounds():
    with pytest.raises(ValueError, match="state dimension"):
        TrajectoryDataset(p=0, q=0, N=2, trajectories=())
    with pytest.raises(ValueError, match="horizon"):
        TrajectoryDataset.build(1, 0, [([1.0, 2.0], None)])
    with pytest.raises(ValueError, match="at least one trajectory"):
        TrajectoryDataset.build(1, 0, [])


def test_dimensions_must_be_integers():
    # Each was once accepted: A(0) then failed with a TypeError, and p=True
    # stood for 1.
    with pytest.raises(ValueError, match="^state dimension p must be an integer, got 2.0$"):
        LtvModel(p=2.0, q=1, N=3, C=np.zeros((3, 3, 2)))
    states = Trajectory(states=np.zeros((3, 1)), inputs=np.zeros((2, 0)))
    with pytest.raises(ValueError, match="^state dimension p must be an integer, got True$"):
        TrajectoryDataset(p=True, q=0, N=2, trajectories=(states,))
    # The builders once used these before any rule saw them: numpy raised
    # TypeError, or a ValueError naming no field.
    with pytest.raises(ValueError, match="^input dimension q must be an integer, got None$"):
        TrajectoryDataset.build(1, None, [([], [])])
    with pytest.raises(ValueError, match="^horizon N must be an integer, got 2.0$"):
        LtvModel.constant(np.eye(1), np.eye(1), 2.0)
    with pytest.raises(ValueError, match="^horizon N must be at least 1, got -1$"):
        LtvModel.constant(np.eye(1), np.eye(1), -1)


# Shape rules that no other test reaches, each with the message naming it.
_SHAPE_RULES = [
    (lambda: TrajectoryDataset.build(2, 0, [(np.zeros((3, 2, 1)), None)]),
     "trajectory 0: states must be a matrix of rows"),
    (lambda: Trajectory(states=np.zeros(3), inputs=np.zeros((2, 1))),
     "trajectory states and inputs must be 2-D arrays"),
    (lambda: TrajectoryDataset(p=1, q=0, N=2, trajectories=()),
     "dataset needs at least one trajectory"),
    (lambda: StackedData(D=np.ones((4, 3)), Xnext=np.ones((4, 1, 3))),
     "stacked data must be 3-D arrays"),
    (lambda: StackedData(D=np.ones((4, 3, 2)), Xnext=np.ones((5, 1, 3))),
     "stacked data disagree on the number of instants"),
    (lambda: StackedData(D=np.ones((4, 3, 2)), Xnext=np.ones((4, 1, 2))),
     "stacked data disagree on the number of trajectories"),
    (lambda: StackedData(D=np.ones((4, 3, 2)), Xnext=np.ones((4, 3, 3))),
     "state dimension exceeds the regressor width"),
    (lambda: LtvModel.from_blocks(np.zeros((3, 2, 2)), np.zeros((4, 2, 1))),
     "A and B stacks must share the instant and state axes"),
    (lambda: LtvModel.from_blocks(np.zeros((3, 2, 2)), np.zeros((3, 1, 1))),
     "A and B stacks must share the instant and state axes"),
    (lambda: LtvModel.constant(np.eye(2), [["0.5"], [1.0]], 3), "B matrices are not a numeric array"),
    (lambda: LambdaSchedule.per_instant([]), "per-instant schedule must be a nonempty vector"),
    (lambda: LambdaSchedule.per_instant([[1.0, 2.0]]),
     "per-instant schedule must be a nonempty vector"),
]


@pytest.mark.parametrize("build, needle", _SHAPE_RULES,
                         ids=["rows", "trajectory", "dataset", "stacked-ndim", "stacked-instants",
                              "stacked-trajectories", "stacked-width", "blocks-instants",
                              "blocks-states", "blocks-numeric", "per-instant-empty",
                              "per-instant-matrix"])
def test_shape_rules_raise_value_error_naming_the_rule(build, needle):
    with pytest.raises(ValueError, match=f"^{needle}$"):
        build()


def test_dataset_rejects_non_finite_values():
    states = np.ones((6, 2))
    states[3, 1] = np.nan
    with pytest.raises(ValueError, match="trajectory 1: states at instant 3 are not finite"):
        TrajectoryDataset.build(2, 1, [(np.ones((6, 2)), np.ones((5, 1))),
                                       (states, np.ones((5, 1)))])
    inputs = np.ones((5, 1))
    inputs[4, 0] = np.inf
    with pytest.raises(ValueError, match="trajectory 0: inputs at instant 4 are not finite"):
        TrajectoryDataset.build(2, 1, [(np.ones((6, 2)), inputs)])
    # A non-finite value is named before a later trajectory's shape error.
    with pytest.raises(ValueError, match="trajectory 0: inputs at instant 4 are not finite"):
        TrajectoryDataset.build(2, 1, [(np.ones((6, 2)), inputs),
                                       (np.ones((6, 2)), np.ones((4, 1)))])


# Non-finite entries as (trajectory, array, instant), and the one named: the
# first trajectory, its states before its inputs, the first instant in them.
_NON_FINITE = [
    ([(2, "states", 1), (0, "inputs", 3)], "trajectory 0: inputs at instant 3"),
    ([(2, "inputs", 0), (0, "states", 4)], "trajectory 0: states at instant 4"),
    ([(0, "states", 1), (2, "inputs", 3)], "trajectory 0: states at instant 1"),
    ([(1, "inputs", 0), (1, "states", 5), (1, "states", 2)], "trajectory 1: states at instant 2"),
    ([(2, "states", 5), (1, "inputs", 4), (1, "inputs", 1)], "trajectory 1: inputs at instant 1"),
    ([(2, "inputs", 0), (1, "states", 5)], "trajectory 1: states at instant 5"),
]


@pytest.mark.parametrize("via", ["constructor", "build"])
@pytest.mark.parametrize("entries, named", _NON_FINITE)
def test_non_finite_samples_are_named_in_trajectory_order(via, entries, named):
    """With non-finite entries in two trajectories, or twice in one, the
    message names the same entry whichever way the dataset is made."""
    arrays = [{"states": np.ones((6, 2)), "inputs": np.ones((5, 1))} for _ in range(3)]
    for i, (ell, name, k) in enumerate(entries):
        arrays[ell][name][k, -1] = (np.nan, np.inf, -np.inf)[i]
    pairs = [(a["states"], a["inputs"]) for a in arrays]
    with pytest.raises(ValueError, match=f"^{named} are not finite$"):
        if via == "build":
            TrajectoryDataset.build(2, 1, pairs)
        else:
            TrajectoryDataset(p=2, q=1, N=5, trajectories=tuple(
                Trajectory(states=s, inputs=u) for s, u in pairs))


def test_stacked_data_rejects_non_finite_values():
    d = np.ones((4, 3, 2))
    d[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="trajectory 1: regressors at instant 2 are not finite"):
        StackedData(D=d, Xnext=np.ones((4, 1, 3)))
    xnext = np.ones((4, 1, 3))
    xnext[3, 0, 2] = -np.inf
    with pytest.raises(ValueError,
                       match="trajectory 2: successor states at instant 3 are not finite"):
        StackedData(D=np.ones((4, 3, 2)), Xnext=xnext)


def test_dataset_json_round_trip():
    rng = np.random.default_rng(1)
    for p, q in ((2, 1), (1, 0)):
        ds = random_dataset(rng, p, q, 4, 3)
        again = TrajectoryDataset.from_dict(ds.to_dict())
        assert (again.p, again.q, again.N, again.L) == (ds.p, ds.q, ds.N, ds.L)
        for a, b in zip(again.trajectories, ds.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.inputs, b.inputs)


def test_dataset_json_horizon_mismatch():
    ds = random_dataset(np.random.default_rng(2), 1, 0, 3, 1)
    obj = ds.to_dict()
    obj["N"] = 7
    with pytest.raises(ValueError, match="declares N=7"):
        TrajectoryDataset.from_dict(obj)
    with pytest.raises(ValueError, match="malformed dataset"):
        TrajectoryDataset.from_dict({"p": 1, "q": 0})


# ---------------------------------------------------------------- model


def test_model_accessors_transpose():
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, 1, 4)
    for k in range(4):
        assert_allclose(model.A(k), model.C[k, :2, :].T)
        assert_allclose(model.B(k), model.C[k, 2:, :].T)
        assert_allclose(model.A_seq[k], model.A(k))
        assert_allclose(model.B_seq[k], model.B(k))
    assert model.A(0).shape == (2, 2)
    assert model.B(0).shape == (2, 1)


def test_model_constant_and_from_blocks():
    a = np.array([[0.5, 0.1], [0.0, 0.9]])
    b = np.array([[0.0], [1.0]])
    model = LtvModel.constant(a, b, 5)
    assert model.N == 5
    for k in range(5):
        assert_allclose(model.A(k), a)
        assert_allclose(model.B(k), b)
    rebuilt = LtvModel.from_blocks(model.A_seq, model.B_seq)
    assert_allclose(rebuilt.C, model.C)


def test_model_validation_and_round_trip():
    with pytest.raises(ValueError, match="coefficient stack"):
        LtvModel(p=2, q=1, N=3, C=np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="^state dimension p must be at least 1, got 0$"):
        LtvModel(p=0, q=0, N=1, C=np.zeros((1, 0, 0)))
    model = random_model(np.random.default_rng(4), 1, 2, 3)
    again = LtvModel.from_dict(model.to_dict())
    assert np.array_equal(again.C, model.C)
    with pytest.raises(ValueError, match="malformed model"):
        LtvModel.from_dict({"p": 1})
    for bad in (np.nan, np.inf, -np.inf):
        c = model.C.copy()
        c[2, 1, 0] = bad
        with pytest.raises(ValueError, match="instant 2 are not finite"):
            LtvModel(p=1, q=2, N=3, C=c)
        record = model.to_dict()
        record["C"][1][0][0] = bad
        with pytest.raises(ValueError, match="instant 1 are not finite"):
            LtvModel.from_dict(record)


def test_a_non_finite_coefficient_is_named_by_its_instant():
    c = np.zeros((3, 2, 1))
    c[1, 1, 0] = np.inf
    with pytest.raises(ValueError, match="^model coefficients at instant 1 are not finite$"):
        LtvModel(p=1, q=1, N=3, C=c)


def test_value_objects_compare_and_hash_by_identity():
    # Comparing or hashing their array fields by value raised.
    model = LtvModel.constant([[0.5]], [[1.0]], 3)
    twin = LtvModel.constant([[0.5]], [[1.0]], 3)
    dataset = TrajectoryDataset.build(1, 1, [([0.0, 1.0, 0.5, 0.2], [1.0, 0.0, 0.0])])
    schedule = LambdaSchedule.per_instant([1.0, 2.0])
    assert len({model, dataset, schedule}) == 3
    assert model == model
    assert model != twin


# ---------------------------------------------------------------- schedules


def test_schedule_scalar():
    sched = LambdaSchedule.scalar(2.5)
    assert_allclose(sched.materialize(5), np.full(4, 2.5))
    assert_allclose(LambdaSchedule.scalar(np.float32(2.5)).materialize(5), np.full(4, 2.5))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LambdaSchedule.scalar(bad)


def test_schedule_zoned_carry_forward():
    sched = LambdaSchedule.zoned([(1, 1e8), (4, 1e2), (7, 1e8)])
    lam = sched.materialize(10)
    assert_allclose(lam, [1e8, 1e8, 1e8, 1e2, 1e2, 1e2, 1e8, 1e8, 1e8])
    assert_allclose(LambdaSchedule.zoned([(1, 3.0)]).materialize(4), [3.0, 3.0, 3.0])


def test_schedule_zoned_validation():
    with pytest.raises(ValueError, match="start at instant 1"):
        LambdaSchedule.zoned([(2, 1.0)])
    with pytest.raises(ValueError, match="strictly increasing"):
        LambdaSchedule.zoned([(1, 1.0), (1, 2.0)])
    with pytest.raises(ValueError, match="smoothness weight must be a finite number > 0"):
        LambdaSchedule.zoned([(1, -1.0)])
    with pytest.raises(ValueError, match="beyond the last instant"):
        LambdaSchedule.zoned([(1, 1.0), (5, 2.0)]).materialize(5)
    with pytest.raises(ValueError, match="at least one breakpoint"):
        LambdaSchedule.zoned([])


def test_schedule_per_instant():
    sched = LambdaSchedule.per_instant([1.0, 2.0, 3.0])
    assert_allclose(sched.materialize(4), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length 3, expected 4"):
        sched.materialize(5)
    with pytest.raises(ValueError, match="smoothness weight must be a finite number > 0"):
        LambdaSchedule.per_instant([1.0, 0.0])
    out = sched.materialize(4)
    out[0] = 99.0
    assert sched.values[0] == 1.0


def test_schedule_rejects_weights_whose_square_overflows():
    top = math.sqrt(sys.float_info.max)
    assert math.isfinite(top * top)
    builders = (LambdaSchedule.scalar,
                lambda v: LambdaSchedule.zoned([(1, 1.0), (2, v)]),
                lambda v: LambdaSchedule.per_instant([1.0, v]))
    for build in builders:
        for bad in (1e160, math.nextafter(top, math.inf)):
            with pytest.raises(ValueError, match="too large: its square overflows"):
                build(bad)
        assert build(top).materialize(3).max() == top


def test_schedule_json_round_trip():
    for sched, n in ((LambdaSchedule.scalar(0.5), 6),
                     (LambdaSchedule.zoned([(1, 1.0), (3, 2.0)]), 6),
                     (LambdaSchedule.per_instant([0.1, 0.2]), 3)):
        again = LambdaSchedule.from_dict(sched.to_dict())
        assert_allclose(again.materialize(n), sched.materialize(n))
    with pytest.raises(ValueError, match="exactly one"):
        LambdaSchedule.from_dict({"scalar": 1.0, "zones": [[1, 1.0]]})
    with pytest.raises(ValueError, match="unknown schedule kind"):
        LambdaSchedule(kind="bogus")


# ---------------------------------------------------------------- objective


def test_cost_exact_fit_is_zero():
    rng = np.random.default_rng(5)
    a = np.array([[0.7, 0.2], [-0.1, 0.8]])
    b = np.array([[0.0], [0.5]])
    pairs = []
    for _ in range(4):
        x = np.empty((7, 2))
        x[0] = rng.normal(size=2)
        u = rng.normal(size=(6, 1))
        for k in range(6):
            x[k + 1] = a @ x[k] + b @ u[k]
        pairs.append((x, u))
    data = assemble_stacked(TrajectoryDataset.build(2, 1, pairs))
    model = LtvModel.constant(a, b, 6)
    for sched in (LambdaSchedule.scalar(1.0), LambdaSchedule.scalar(1e6)):
        fit, smooth = cost_terms(model, data, sched)
        assert fit < 1e-20
        assert smooth == 0.0


def test_cost_hand_value():
    data, sched = hand_instance(lam=1.0)
    model = LtvModel(p=1, q=0, N=2, C=np.zeros((2, 1, 1)))
    assert cost(model, data, sched) == pytest.approx(20.0, rel=1e-14)


def test_cost_matches_double_loop():
    rng = np.random.default_rng(6)
    data = assemble_stacked(random_dataset(rng, 2, 2, 6, 5))
    model = random_model(rng, 2, 2, 6)
    sched = LambdaSchedule.per_instant(rng.uniform(0.1, 3.0, size=5))
    lam = sched.materialize(6)
    assert cost(model, data, sched) == pytest.approx(loop_cost(model, data, lam), rel=1e-12)


def test_cost_permutation_invariant():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 2, 1, 5, 6)
    shuffled = TrajectoryDataset(p=2, q=1, N=5,
                                 trajectories=tuple(ds.trajectories[i]
                                                    for i in rng.permutation(6)))
    model = random_model(rng, 2, 1, 5)
    sched = LambdaSchedule.scalar(0.3)
    a = cost(model, assemble_stacked(ds), sched)
    b = cost(model, assemble_stacked(shuffled), sched)
    assert a == pytest.approx(b, rel=1e-12)


def test_smoothness_term_scales_linearly():
    rng = np.random.default_rng(8)
    data = assemble_stacked(random_dataset(rng, 1, 1, 5, 3))
    model = random_model(rng, 1, 1, 5)
    fit1, smooth1 = cost_terms(model, data, LambdaSchedule.scalar(0.7))
    fit3, smooth3 = cost_terms(model, data, LambdaSchedule.scalar(3 * 0.7))
    assert fit3 == fit1
    assert smooth3 == pytest.approx(3 * smooth1, rel=1e-12)


def test_gradient_hand_value():
    data, sched = hand_instance(lam=1.0)
    model = LtvModel(p=1, q=0, N=2, C=np.zeros((2, 1, 1)))
    g = gradient(model, data, sched)
    assert_allclose(g.ravel(), [-2.0, -12.0], rtol=1e-14)


def test_gradient_matches_double_loop():
    rng = np.random.default_rng(9)
    data = assemble_stacked(random_dataset(rng, 3, 1, 7, 5))
    model = random_model(rng, 3, 1, 7)
    sched = LambdaSchedule.per_instant(rng.uniform(0.5, 2.0, size=6))
    assert_allclose(gradient(model, data, sched),
                    loop_gradient(model, data, sched.materialize(7)), rtol=1e-12, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    data = assemble_stacked(random_dataset(rng, 2, 1, 4, 4))
    model = random_model(rng, 2, 1, 4)
    sched = LambdaSchedule.scalar(0.9)
    g = gradient(model, data, sched)
    h = 1e-6
    for k in range(4):
        for i in range(3):
            for j in range(2):
                plus = np.array(model.C)
                minus = np.array(model.C)
                plus[k, i, j] += h
                minus[k, i, j] -= h
                fd = (cost(LtvModel(2, 1, 4, plus), data, sched)
                      - cost(LtvModel(2, 1, 4, minus), data, sched)) / (2 * h)
                assert g[k, i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_vanishes_at_reference_minimizer():
    rng = np.random.default_rng(11)
    data = assemble_stacked(random_dataset(rng, 2, 1, 8, 4))
    sched = LambdaSchedule.scalar(2.0)
    c_star = dense_reference_solution(data, sched)
    model = LtvModel(p=2, q=1, N=8, C=c_star)
    theta_norm = float(np.linalg.norm(
        np.einsum("kli,kjl->kij", data.D, data.Xnext)))
    assert float(np.linalg.norm(gradient(model, data, sched))) <= 1e-9 * (1 + theta_norm)


def test_objective_dimension_mismatch():
    data, sched = hand_instance()
    wrong_n = LtvModel(p=1, q=0, N=3, C=np.zeros((3, 1, 1)))
    with pytest.raises(ValueError, match="covers 3 instants"):
        cost(wrong_n, data, sched)
    wrong_pq = LtvModel(p=1, q=1, N=2, C=np.zeros((2, 2, 1)))
    with pytest.raises(ValueError, match="do not match"):
        gradient(wrong_pq, data, sched)
