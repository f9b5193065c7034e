"""Shared builders for randomized and hand-crafted test instances."""

import math
import tracemalloc
from contextlib import contextmanager

import mpmath
import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve, expm

from ltvkit import (ExcitationSpec, LambdaSchedule, LqrWeights, LtvModel, NoiseConfig,
                    SingularInputCost, TrajectoryDataset, assemble_stacked, generate_dataset)
from ltvkit.sim import _draw_inputs


def random_dataset(rng, p, q, n, ell):
    pairs = [(rng.normal(size=(n + 1, p)), rng.normal(size=(n, q))) for _ in range(ell)]
    return TrajectoryDataset.build(p, q, pairs)


def random_instance(rng, n_lo=3, n_hi=50):
    """A solvable random fitting instance: generic Gaussian data with L >= p+q."""
    p = int(rng.integers(1, 5))
    q = int(rng.integers(0, 3))
    n = int(rng.integers(n_lo, n_hi + 1))
    m = p + q
    ell = int(rng.integers(m, 2 * m + 1))
    dataset = random_dataset(rng, p, q, n, ell)
    lam = float(rng.uniform(1e-3, 1e3))
    return assemble_stacked(dataset), LambdaSchedule.scalar(lam)


def drifting_plant(rng, p, q, n, spread=0.85):
    """Random LTV plant A(k) = A0 + sin(k/7) A1, B(k) = B0 + 0.2 cos(k/7) B1.

    A0 has spectral norm ``spread`` and A1 0.1.
    """
    a0, a1 = rng.normal(size=(2, p, p))
    a0 *= spread / np.linalg.norm(a0, 2)
    a1 *= 0.1 / np.linalg.norm(a1, 2)
    b0, b1 = rng.normal(size=(2, p, q)) / np.sqrt(p)
    phase = np.arange(n) / 7.0
    a = a0 + np.sin(phase)[:, None, None] * a1
    b = b0 + 0.2 * np.cos(phase)[:, None, None] * b1
    return LtvModel.from_blocks(a, b)


def wide_plant(n):
    """The bench's wide-block plant: p = 8, q = 4, drifting over n instants."""
    return drifting_plant(np.random.default_rng(0), 8, 4, n)


def simulate_wide(plant):
    """Data of ``plant`` over L = 24 noisy trajectories, and their bytes."""
    dataset = generate_dataset(plant, 24, noise=NoiseConfig(sigma=0.01, seed=2), seed=1)
    return dataset, sum(tr.states.nbytes + tr.inputs.nbytes for tr in dataset.trajectories)


def wide_dataset(n):
    """Data of ``wide_plant(n)`` over L = 24 noisy trajectories, and their bytes."""
    return simulate_wide(wide_plant(n))


@contextmanager
def tracing():
    """Trace allocations inside the block; yields a function that returns the
    peak of the bytes traced since the previous call (or the block's start),
    counting what was allocated before it and is still alive.  numpy reports
    every array buffer to tracemalloc, so the bytes do not depend on the
    machine."""
    tracemalloc.start()
    try:
        def peak():
            high = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return high
        yield peak
    finally:
        tracemalloc.stop()


def riccati_loop(model, weights=None):
    """Reference backward Riccati recursion, one instant at a time.

    P(N) is the terminal cost; each step factors S = R + B^T P(k+1) B by
    Cholesky, raising SingularInputCost(k) where that fails, and sets
    K(k) = S^{-1} B^T P(k+1) A and P(k) = Q + A^T P(k+1) (A - B K(k)),
    symmetrized.  Returns (K, P).
    """
    weights = weights or LqrWeights()
    p, q, n = model.p, model.q, model.N
    state_cost, input_cost = weights.state_cost(p), weights.input_cost(q)
    ric = np.empty((n + 1, p, p))
    gains = np.zeros((n, q, p))
    ric[n] = weights.terminal_cost(p)
    for k in range(n - 1, -1, -1):
        a, b = model.A(k), model.B(k)
        if q > 0:
            s = input_cost + b.T @ ric[k + 1] @ b
            try:
                factor = cho_factor(0.5 * (s + s.T), lower=True)
            except np.linalg.LinAlgError:
                raise SingularInputCost(k) from None
            gains[k] = cho_solve(factor, b.T @ ric[k + 1] @ a)
        nxt = state_cost + a.T @ ric[k + 1] @ (a - b @ gains[k])
        ric[k] = 0.5 * (nxt + nxt.T)
    return gains, ric


def smd_model_loop(config):
    """Reference discretization: one ``expm`` of the frozen augmented block per instant."""
    a_seq = np.empty((config.N, 2, 2))
    b_seq = np.empty((config.N, 2, 1))
    for k in range(config.N):
        t = k * config.dt if config.ltv else 0.0
        kt = config.k0 * (1.0 + config.alpha_k * math.sin(config.omega * t))
        ct = config.c0 * (1.0 + config.alpha_c * math.sin(config.omega * t))
        aug = np.zeros((3, 3))
        aug[0, 1] = 1.0
        aug[1, 0] = -kt / config.mass
        aug[1, 1] = -ct / config.mass
        aug[1, 2] = 1.0 / config.mass
        phi = expm(aug * config.dt)
        a_seq[k] = phi[:2, :2]
        b_seq[k] = phi[:2, 2:]
    return LtvModel.from_blocks(a_seq, b_seq)


def generate_dataset_loop(model, L, excitation=None, noise=None, seed=0):
    """Reference generation: each trajectory drawn, then stepped on its own.

    Same streams as ``generate_dataset``: x0 and inputs from (seed, l, 0),
    noise from (noise.seed, l, 1); x(k+1) = A(k) x(k) + B(k) u(k) one
    trajectory and one instant at a time.
    """
    excitation = excitation or ExcitationSpec()
    pairs = []
    for ell in range(L):
        rng = np.random.default_rng([seed, ell, 0])
        if excitation.x0 == "uniform":
            x0 = rng.uniform(-excitation.x0_scale, excitation.x0_scale, size=model.p)
        else:
            x0 = rng.normal(0.0, excitation.x0_scale, size=model.p)
        u = _draw_inputs(excitation, rng, model.N, model.q)
        states = np.empty((model.N + 1, model.p))
        states[0] = x0
        for k in range(model.N):
            states[k + 1] = model.A(k) @ states[k] + model.B(k) @ u[k]
        if noise is not None and noise.sigma > 0.0:
            noise_rng = np.random.default_rng([noise.seed, ell, 1])
            states = states + noise_rng.normal(0.0, noise.sigma, size=states.shape)
        pairs.append((states, u))
    return TrajectoryDataset.build(model.p, model.q, pairs)


def relative_gap(x, ref):
    """Largest per-instant relative Frobenius distance of a block stack from ``ref``."""
    err = np.linalg.norm(x - ref, axis=(1, 2))
    scale = np.linalg.norm(ref, axis=(1, 2))
    return float(np.max(err / np.maximum(scale, np.finfo(np.float64).tiny)))


def hand_instance(lam=1.0):
    """Scalar instance p=1, q=0, N=2, L=1 with states (1, 2, 6)."""
    dataset = TrajectoryDataset.build(1, 0, [([1.0, 2.0, 6.0], None)])
    return assemble_stacked(dataset), LambdaSchedule.scalar(lam)


def confined_dataset(rng, p, q, n, ell):
    """Sample rows restricted to a random (p+q-1)-dimensional subspace."""
    m = p + q
    basis = np.linalg.qr(rng.normal(size=(m, m - 1)))[0]
    pairs = []
    for _ in range(ell):
        coords = rng.normal(size=(n, m - 1))
        rows = coords @ basis.T
        states = np.vstack([rows[:, :p], rng.normal(size=(1, p))])
        inputs = rows[:, p:] if q else None
        pairs.append((states, inputs))
    return TrajectoryDataset.build(p, q, pairs)


def ill_scaled_instance(ratio=1e6, n=10, seed=5, process_noise=0.0):
    """The stacked ``ill_scaled_dataset`` with the schedule lambda = 1."""
    dataset = ill_scaled_dataset(ratio, n, seed, process_noise)
    return assemble_stacked(dataset), LambdaSchedule.scalar(1.0)


def ill_scaled_dataset(ratio=1e6, n=10, seed=5, process_noise=0.0):
    """Six trajectories of A = diag(0.9, 0.8), B = (0, 0.5), with the first
    state coordinate multiplied by ``ratio``.

    Each trajectory draws x0, then its n inputs, then (when
    ``process_noise`` is positive) its n process-noise vectors of that
    standard deviation from one ``default_rng(seed)`` stream.  The
    *ill-scaled family* is N = 12, process noise 0.01, seeds 0 and 1.
    """
    rng = np.random.default_rng(seed)
    a = np.diag([0.9, 0.8])
    b = np.array([[0.0], [0.5]])
    pairs = []
    for _ in range(6):
        x = np.empty((n + 1, 2))
        x[0] = rng.normal(size=2)
        u = rng.normal(size=(n, 1))
        w = rng.normal(0.0, process_noise, size=(n, 2)) if process_noise > 0.0 else np.zeros((n, 2))
        for k in range(n):
            x[k + 1] = a @ x[k] + b @ u[k] + w[k]
        x[:, 0] *= ratio
        pairs.append((x, u))
    return TrajectoryDataset.build(2, 1, pairs)


# The smoothness schedules the ill-scaled family is fitted with.
ILL_SCALED_SCHEDULES = {
    "1e-3": LambdaSchedule.scalar(1e-3),
    "1": LambdaSchedule.scalar(1.0),
    "1e3": LambdaSchedule.scalar(1e3),
    "zoned": LambdaSchedule.zoned([(1, 1e6), (5, 1e-2), (9, 1e4)]),
}


def dense_normal_matrix(data, sched):
    """Full normal matrix assembled from first principles.

    Block-diagonal Gram part plus the smoothness penalty built from an
    explicit block difference operator, sharing no code with the solver
    module's stencil assembly.
    """
    lam = sched.materialize(data.N)
    m = data.width
    gram = block_diag(*[data.D[k].T @ data.D[k] for k in range(data.N)])
    steps = np.zeros((data.N - 1, data.N))
    for i in range(data.N - 1):
        steps[i, i] = -1.0
        steps[i, i + 1] = 1.0
    diff = np.kron(steps, np.eye(m))
    weights = np.kron(np.diag(lam), np.eye(m))
    return gram + diff.T @ weights @ diff


def dense_rhs(data):
    return np.concatenate([data.D[k].T @ data.Xnext[k].T for k in range(data.N)], axis=0)


def dense_reference_solution(data, sched):
    """Solve the full normal equations with a generic dense solver."""
    sol = np.linalg.solve(dense_normal_matrix(data, sched), dense_rhs(data))
    return sol.reshape(data.N, data.width, data.p)


def mp_reference(data, sched, dps=60):
    """Solution of the dense normal equations formed and solved in mpmath.

    The normal matrix and right-hand side are formed from the float64 data
    (converted exactly) at ``dps`` digits, each column is solved with
    ``mpmath.lu_solve``, and the result is rounded to float64.
    """
    lam = sched.materialize(data.N)
    n, m, p = data.N, data.width, data.p
    with mpmath.workdps(dps):
        normal = mpmath.zeros(n * m, n * m)
        rhs = mpmath.zeros(n * m, p)
        for k in range(n):
            rows = mpmath.matrix(data.D[k].tolist())
            gram = rows.T * rows
            theta = rows.T * mpmath.matrix(data.Xnext[k].T.tolist())
            for i in range(m):
                for j in range(m):
                    normal[k * m + i, k * m + j] = gram[i, j]
                for j in range(p):
                    rhs[k * m + i, j] = theta[i, j]
        for k in range(n - 1):
            weight = mpmath.mpf(float(lam[k]))
            for i in range(m):
                a, b = k * m + i, (k + 1) * m + i
                normal[a, a] += weight
                normal[b, b] += weight
                normal[a, b] -= weight
                normal[b, a] -= weight
        cols = [mpmath.lu_solve(normal, rhs.column(j)) for j in range(p)]
        out = np.array([[float(col[i]) for col in cols] for i in range(n * m)])
    return out.reshape(n, m, p)
