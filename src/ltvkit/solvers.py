"""Solvers for the smoothness-regularized LTV least-squares problem.

The objective is quadratic in the stacked blocks C(k), and its normal
equations form a symmetric block-tridiagonal system: diagonal blocks
S_kk = D(k)^T D(k) + (lambda stencil) I, off-diagonal blocks -lambda_k I,
and right-hand sides Theta_k = D(k)^T Xnext(k)^T.  Three routes solve it:

* ``cosmic_solve``: closed-form block elimination by odd-even cyclic
  reduction, floor(log2 N) + 1 levels of batched block operations and as
  many batched back-substitution levels.
* ``sbcd_solve``: stochastic block coordinate descent with exact block
  minimization, i.e. randomized block Gauss-Seidel on the same system; it
  evaluates the objective's ``gradient`` once per sweep to decide when to stop.
* ``oracle_solve``: assembles the full dense normal matrix and solves it
  directly; intended as an independent reference, guarded by size.

Every route judges its SPD pivots on their unit-diagonal rescaling (van der
Sluis, Numer. Math. 14, 1969), so whether a fit succeeds does not depend on
the units of the states and inputs; the arithmetic is not rescaled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import LambdaSchedule, LtvModel, StackedData, _cost_and_gradient, gradient
from .diagnostics import predicted_multiply_count

Array = np.ndarray

__all__ = [
    "TridiagonalSystem",
    "SolveOptions",
    "SolveReport",
    "SolverError",
    "SingularBlock",
    "SingularSystem",
    "SizeGuard",
    "build_system",
    "cosmic_solve",
    "sbcd_solve",
    "oracle_solve",
]

# d_i^2 / S_ii, a pivot's squared Cholesky diagonal over its own diagonal, is
# the share of S_ii left after eliminating the unknowns before i: in (0, 1]
# and independent of how the unknowns are scaled.  A share at most 1e-6 means
# a rescaled condition number of at least 1e6.  Healthy fits (SMD bench grids,
# the ill-scaled family to a 1e12 ratio, random instances) measured >= 0.018,
# exactly singular systems <= 6e-10; an unrescaled spread limit of
# sqrt(1/eps) on d let some of the latter through.
_PIVOT_FLOOR = 1e-6


class SolverError(Exception):
    """Base class for numerical failures raised by the solvers."""


class SingularBlock(SolverError):
    """A pivot block of the block elimination is numerically singular.

    ``instant`` is the original index of the failing pivot.  Cyclic
    reduction eliminates instants in odd-even order: level 0 factors the
    even instants 0, 2, 4, ..., level l the instants k with
    k + 1 divisible by 2^l but not by 2^(l+1); the pivots of one level are
    checked together and the smallest failing instant of the first failing
    level is reported.  SBCD reports the first failing instant in time
    order: it checks all N diagonal blocks S_kk in one batch before its
    first sweep.  A pivot is singular when its Cholesky factorization fails
    or, rescaled to unit diagonal, a squared Cholesky diagonal is at most
    1e-6.
    """

    def __init__(self, instant: int):
        self.instant = instant
        super().__init__(f"pivot block at instant {instant} is numerically singular")


class SingularSystem(SolverError):
    """The assembled dense normal matrix is numerically singular."""

    def __init__(self, message: str = "normal equations are numerically singular"):
        super().__init__(message)


class SizeGuard(SolverError):
    """The dense reference solve would exceed its size limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"dense system of size {size} exceeds the limit {limit}")


@dataclass(frozen=True)
class TridiagonalSystem:
    """Blocks of the normal equations: diagonals, couplings, right-hand sides."""

    skk: Array    # (N, p+q, p+q) diagonal blocks, symmetric positive definite
    lam: Array    # (N-1,) coupling weights; block (k, k-1) is -lam[k-1] I
    theta: Array  # (N, p+q, p) right-hand side blocks

    def __post_init__(self):
        if self.skk.shape[0] != self.theta.shape[0] or self.skk.shape[0] != self.lam.size + 1:
            raise ValueError("tridiagonal system blocks disagree on the horizon")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the closed-form solver.

    precondition
        Validated as "off", "on" or "auto" but without effect; kept so that
        callers written for the retired preconditioned route still run.
    accounting
        When true, the report's multiply counts are
        ``predicted_multiply_count``'s per-instant textbook charges of the
        closed-form recursion instead of the multiplies of the batched
        operations the solver performs.
    """

    precondition: str = "off"
    accounting: bool = False

    def __post_init__(self):
        if self.precondition not in ("off", "on", "auto"):
            raise ValueError(f"precondition must be off/on/auto, got {self.precondition!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: the model plus cost, gradient, and effort metrics.

    ``preconditioned`` and its ``to_dict()`` key are always False; they are
    kept so that readers written for the retired preconditioned route run.
    """

    model: LtvModel
    final_cost: float
    gradient_norm: float
    multiply_count: int
    elapsed: float
    iterations: int
    preconditioned: bool = False
    converged: bool = True
    multiply_forward: int = 0
    multiply_backward: int = 0

    def to_dict(self, include_model: bool = False) -> dict:
        out = {
            "final_cost": self.final_cost,
            "gradient_norm": self.gradient_norm,
            "multiply_count": self.multiply_count,
            "multiply_forward": self.multiply_forward,
            "multiply_backward": self.multiply_backward,
            "elapsed": self.elapsed,
            "iterations": self.iterations,
            "preconditioned": self.preconditioned,
            "converged": self.converged,
        }
        if include_model:
            out["model"] = self.model.to_dict()
        return out


class _Counter:
    """Tallies scalar multiplies, split by solver phase.

    The charges follow standard dense linear algebra formulas (Cholesky
    n^3/6 + n^2, LU n^3/3 + n^2, factored solve n^2 per column, inverse as
    LU plus n solved columns, matrix product full size, scalar times matrix
    one per entry), so the count is a deterministic function of the problem
    shapes.
    """

    __slots__ = ("forward", "backward", "other")

    def __init__(self):
        self.forward = 0
        self.backward = 0
        self.other = 0

    @property
    def total(self) -> int:
        return self.forward + self.backward + self.other

    def fwd(self, n: int) -> None:
        self.forward += n

    def bwd(self, n: int) -> None:
        self.backward += n

    def misc(self, n: int) -> None:
        self.other += n

    @staticmethod
    def chol(n: int) -> int:
        return n**3 // 6 + n * n

    @staticmethod
    def lu(n: int) -> int:
        return n**3 // 3 + n * n

    @staticmethod
    def solve(n: int, rhs: int) -> int:
        return n * n * rhs


def build_system(data: StackedData, sched: LambdaSchedule) -> TridiagonalSystem:
    """Assemble the block-tridiagonal normal equations of the objective.

    Diagonal blocks are D(k)^T D(k) plus lambda_1 I at k = 0,
    (lambda_k + lambda_{k+1}) I in the interior, and lambda_{N-1} I at
    k = N-1; couplings are -lambda_k I; right-hand sides are D(k)^T Xnext(k)^T.
    Both are batched matmuls; numpy forms D^T D as a symmetric rank-k update.
    """
    lam = sched.materialize(data.N)
    dt = np.swapaxes(data.D, 1, 2)
    gram = dt @ data.D
    theta = dt @ np.swapaxes(data.Xnext, 1, 2)
    shift = np.zeros(data.N)
    shift[:-1] += lam
    shift[1:] += lam
    skk = gram + shift[:, None, None] * np.eye(data.width)
    return TridiagonalSystem(skk=skk, lam=lam, theta=theta)


def _unstable(d: Array, diag: Array) -> Array:
    """Whether pivots with Cholesky diagonals ``d`` and own diagonals ``diag``
    (last axis) are numerically singular; NaN in ``d`` marks a failed factor."""
    return ~np.all(d * d > _PIVOT_FLOOR * diag, axis=-1)


def _cholesky_diagonals(s: Array) -> Array:
    """|diag| of the Cholesky factor of every block of ``s``, NaN where it fails.

    One batched factorization; only when it fails are the blocks factored
    one at a time to find which.
    """
    try:
        return np.abs(np.diagonal(np.linalg.cholesky(s), axis1=-2, axis2=-1))
    except np.linalg.LinAlgError:
        if s.ndim == 2:
            return np.full(s.shape[-1], np.nan)
        return np.stack([_cholesky_diagonals(block) for block in s])


def _invert_pivots(s: Array, instants: Array, charge) -> Array:
    """Inverses of a stack of SPD pivot blocks, charged to ``charge``.

    Raises SingularBlock naming the first of ``instants`` whose pivot fails
    the test of ``_unstable``.
    """
    bad = _unstable(_cholesky_diagonals(s), np.diagonal(s, axis1=-2, axis2=-1))
    if bad.any():
        raise SingularBlock(int(instants[bad.argmax()]))
    m = s.shape[-1]
    charge(len(s) * (_Counter.chol(m) + _Counter.lu(m) + _Counter.solve(m, m)))
    return np.linalg.inv(s)


def _t(a: Array) -> Array:
    """Transpose every block of a stack; a 1-D stack of scalars is its own."""
    return a if a.ndim == 1 else np.swapaxes(a, 1, 2)


def _product(a: Array, b: Array, charge) -> Array:
    """Blockwise products a[i] @ b[i], charged to ``charge``.

    A 1-D factor holds scalar multiples of the identity and multiplies
    elementwise.
    """
    if a.ndim == 1:
        charge(b.size)
        return a[:, None, None] * b
    if b.ndim == 1:
        charge(a.size)
        return a * b[:, None, None]
    charge(a.shape[0] * a.shape[1] * a.shape[2] * b.shape[2])
    return a @ b


def _stencil_passes(system: TridiagonalSystem, counter: _Counter) -> Array:
    """Odd-even block cyclic reduction of the normal equations.

    A level holds a block-tridiagonal system: diagonal blocks ``s``,
    right-hand sides ``r`` and couplings ``e`` with block (j, j-1) = e[j-1]
    and block (j-1, j) = e[j-1]^T.  It inverts the pivots at its even
    positions in one batched call, eliminates them, and passes the Schur
    complement on its odd positions to the next level.  The couplings of
    the first level are the scalars -lambda_k; from the second level on
    they are dense.  For an SPD system this is Gaussian elimination in a
    symmetric permutation, so every pivot is SPD.  Back-substitution then
    recovers the even positions of each level, deepest level first.
    """
    s, r, e = system.skk, system.theta, -system.lam
    instants = np.arange(s.shape[0])
    levels = []
    while True:
        sinv = _invert_pivots(s[0::2], instants[0::2], counter.fwd)
        y = _product(sinv, r[0::2], counter.fwd)
        levels.append((sinv, e, y))
        h = s.shape[0] // 2
        if h == 0:
            break
        left, right = e[0::2], e[1::2]  # odd position 2i+1 to its even neighbours 2i, 2i+2
        hr = right.shape[0]
        g_left = _product(left, sinv[:h], counter.fwd)
        g_right = _product(_t(right), sinv[1:], counter.fwd)
        s_next = s[1::2] - _product(g_left, _t(left), counter.fwd)
        s_next[:hr] -= _product(g_right, right, counter.fwd)
        r_next = r[1::2] - _product(left, y[:h], counter.fwd)
        r_next[:hr] -= _product(_t(right), y[1:], counter.fwd)
        e = -_product(g_left[1:], right[: h - 1], counter.fwd)
        s, r, instants = s_next, r_next, instants[1::2]

    x = levels.pop()[2]
    for sinv, e, y in reversed(levels):
        left, right = e[0::2], e[1::2]
        hr = right.shape[0]
        z = np.zeros_like(y)
        z[: x.shape[0]] = _product(_t(left), x, counter.bwd)
        z[1 : hr + 1] += _product(right, x[:hr], counter.bwd)
        out = np.empty((y.shape[0] + x.shape[0],) + y.shape[1:])
        out[0::2] = y - _product(sinv, z, counter.bwd)
        out[1::2] = x
        x = out
    return x


def _finish(model, data, sched, counter, elapsed, iterations, converged=True):
    final_cost, grad = _cost_and_gradient(model, data, sched)
    return SolveReport(
        model=model,
        final_cost=final_cost,
        gradient_norm=float(np.linalg.norm(grad)),
        multiply_count=counter.total,
        elapsed=elapsed,
        iterations=iterations,
        converged=converged,
        multiply_forward=counter.forward,
        multiply_backward=counter.backward,
    )


def cosmic_solve(data: StackedData, sched: LambdaSchedule,
                 opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve the regularized fitting problem in closed form.

    Odd-even block cyclic reduction factorizes the block-tridiagonal
    normal equations in floor(log2 N) + 1 levels of batched block
    operations, and as many back-substitution levels recover the blocks
    C(k); the report's iteration count is therefore always 1.  Raises
    SingularBlock, naming the original instant of the failing pivot, when
    a pivot block is numerically singular, which happens when the data do
    not sufficiently excite the system.
    """
    opts = opts or SolveOptions()
    start = time.perf_counter()
    system = build_system(data, sched)
    counter = _Counter()
    counter.misc(data.N * data.L * data.width * (data.width + data.p))
    c = _stencil_passes(system, counter)
    if opts.accounting:
        textbook = predicted_multiply_count(data.N, data.p, data.q)
        counter.forward, counter.backward, counter.other = textbook.forward, textbook.backward, 0
    elapsed = time.perf_counter() - start
    model = LtvModel(p=data.p, q=data.q, N=data.N, C=c)
    return _finish(model, data, sched, counter, elapsed, 1)


def oracle_solve(data: StackedData, sched: LambdaSchedule,
                 dense_limit: int = 4000) -> SolveReport:
    """Assemble and solve the dense normal equations directly.

    Independent reference route for the closed-form solver.  Refuses
    systems larger than ``dense_limit`` rows with SizeGuard, and raises
    SingularSystem when the dense Cholesky factorization fails or one of
    its diagonal blocks, the factors of the block pivots in time order,
    fails the pivot test of the closed-form route.
    """
    start = time.perf_counter()
    n_blocks, m, p = data.N, data.width, data.p
    size = n_blocks * m
    if size > dense_limit:
        raise SizeGuard(size, dense_limit)
    system = build_system(data, sched)
    counter = _Counter()
    counter.misc(n_blocks * data.L * m * (m + p))

    full = np.zeros((size, size))
    for k in range(n_blocks):
        sl = slice(k * m, (k + 1) * m)
        full[sl, sl] = system.skk[k]
        if k > 0:
            prev = slice((k - 1) * m, k * m)
            full[sl, prev] = -system.lam[k - 1] * np.eye(m)
            full[prev, sl] = -system.lam[k - 1] * np.eye(m)
    rhs = system.theta.reshape(size, p)

    try:
        fac = cho_factor(full, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise SingularSystem() from None
    blocks = fac[0].reshape(n_blocks, m, n_blocks, m).diagonal(axis1=0, axis2=2)
    pivots = np.tril(np.moveaxis(blocks, -1, 0))
    if _unstable(np.diagonal(pivots, axis1=-2, axis2=-1), np.sum(pivots * pivots, axis=-1)).any():
        raise SingularSystem()
    counter.misc(_Counter.chol(size) + _Counter.solve(size, p))
    c = cho_solve(fac, rhs, check_finite=False).reshape(n_blocks, m, p)
    elapsed = time.perf_counter() - start
    model = LtvModel(p=data.p, q=data.q, N=data.N, C=c)
    return _finish(model, data, sched, counter, elapsed, 1)


def sbcd_solve(data: StackedData, sched: LambdaSchedule, epsilon: float = 1e-10,
               max_iters: int = 10**6, seed: int = 0,
               init: Optional[LtvModel] = None) -> SolveReport:
    """Stochastic block coordinate descent on the fitting objective.

    Starts from i.i.d. uniform [-0.5, 0.5] blocks drawn from ``seed``
    (or from ``init`` when given), then repeatedly sweeps the instants in
    a fresh uniformly random order, replacing each block by its exact
    minimizer S_ii^{-1} (Theta_i + lambda_i C(i-1) + lambda_{i+1} C(i+1))
    with the boundary terms dropped: randomized block Gauss-Seidel on the
    normal equations of ``build_system``.  The N inverses S_ii^{-1} are
    formed once, in one batch checked by the closed-form route's pivot
    test.  Before the first sweep and after each one, the squared Frobenius
    norm of the objective's ``gradient`` is evaluated; the solve stops when
    it drops to ``epsilon`` or after ``max_iters`` sweeps, and the report's
    ``converged`` flag records which.

    The RNG contract is: one ``default_rng(seed)`` stream, first the
    initial blocks, then one permutation per sweep, so equal seeds give
    bit-identical iterate sequences.
    """
    if not epsilon > 0.0:
        raise ValueError(f"stopping tolerance must be positive, got {epsilon}")
    if max_iters < 0:
        raise ValueError(f"sweep budget must be nonnegative, got {max_iters}")
    start = time.perf_counter()
    system = build_system(data, sched)
    skk, lam, theta = system.skk, system.lam, system.theta
    n_blocks, m, p = theta.shape

    counter = _Counter()
    counter.misc(n_blocks * data.L * m * (m + p))
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=(n_blocks, m, p))
    if init is not None:
        if (init.N, init.p, init.q) != (data.N, data.p, data.q):
            raise ValueError("initial model does not match the data dimensions")
        c = np.array(init.C)

    sinv = _invert_pivots(skk, np.arange(n_blocks), counter.misc)

    def grad_sq() -> float:
        counter.misc(2 * n_blocks * data.L * m * p + (n_blocks - 1) * m * p)
        grad = gradient(LtvModel(p=data.p, q=data.q, N=data.N, C=c), data, sched)
        return float(np.linalg.norm(grad)) ** 2

    sweeps = 0
    converged = grad_sq() <= epsilon
    while not converged and sweeps < max_iters:
        order = rng.permutation(n_blocks)
        for i in order:
            rhs = theta[i].copy()
            if i > 0:
                rhs += lam[i - 1] * c[i - 1]
            if i < n_blocks - 1:
                rhs += lam[i] * c[i + 1]
            c[i] = sinv[i] @ rhs
        counter.misc(n_blocks * (_Counter.solve(m, p) + 2 * m * p))
        sweeps += 1
        converged = grad_sq() <= epsilon
    elapsed = time.perf_counter() - start
    model = LtvModel(p=data.p, q=data.q, N=data.N, C=c)
    return _finish(model, data, sched, counter, elapsed, sweeps, converged)
