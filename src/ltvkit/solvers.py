"""Solvers for the smoothness-regularized LTV least-squares problem.

The objective is quadratic in the stacked blocks C(k), and its normal
equations form a symmetric block-tridiagonal system: diagonal blocks
S_kk = D(k)^T D(k) + (lambda stencil) I, off-diagonal blocks -lambda_k I,
and right-hand sides Theta_k = D(k)^T Xnext(k)^T.  Three routes solve it:

* ``cosmic_solve``: closed-form block elimination by odd-even cyclic
  reduction, split into a factorization (``_factorize``: floor(log2 N) + 1
  levels of batched block operations, each keeping its pivot inverses and
  couplings) and a solve (``_solve_factored``) that pushes any right-hand
  side through the stored levels and back-substitutes, so one factorization
  is reusable for any right-hand side.
* ``sbcd_solve``: stochastic block coordinate descent with exact block
  minimization, i.e. randomized block Gauss-Seidel on the same system; it
  evaluates the objective's ``gradient`` once per sweep to decide when to stop.
* ``oracle_solve``: assembles the full dense normal matrix and solves it
  directly; intended as an independent reference, guarded by size.

Every route judges its SPD pivots on their unit-diagonal rescaling (van der
Sluis, Numer. Math. 14, 1969), so whether a fit succeeds does not depend on
the units of the states and inputs; the arithmetic is not rescaled.  Each
route's multiply count is computed from the problem shapes, cyclic
reduction's from the shapes of its stored levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (LambdaSchedule, LtvModel, SolverError, StackedData, _cost_and_gradient,
                   _finite, _flag, _integer, _require_finite, gradient)
from .diagnostics import predicted_multiply_count

Array = np.ndarray

__all__ = [
    "TridiagonalSystem",
    "SolveOptions",
    "SolveReport",
    "SolverError",
    "SingularBlock",
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


class SingularBlock(SolverError):
    """A pivot block of the block elimination is numerically singular.

    ``instant`` is the original index of the failing pivot, named in the
    order each route eliminates.  Cyclic reduction goes odd-even: level 0
    factors the even instants, level l the instants k with k + 1 divisible
    by 2^l but not by 2^(l+1), and the smallest failing instant of the
    first failing level is named.  SBCD names the first failing diagonal
    block S_kk in time order, the oracle the first failing pivot of its
    time-ordered dense elimination.  A pivot is singular when its Cholesky
    factorization fails or, rescaled to unit diagonal, a squared Cholesky
    diagonal is at most 1e-6.
    """

    def __init__(self, instant: int):
        self.instant = instant
        super().__init__(f"pivot block at instant {instant} is numerically singular")


class SizeGuard(SolverError):
    """The dense reference solve would exceed its size limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"dense system of size {size} exceeds the limit {limit}")


class TridiagonalSystem(NamedTuple):
    """Blocks of the normal equations: diagonals, couplings, right-hand sides;
    ``build_system`` makes all three from one N, so they agree on it."""

    skk: Array    # (N, p+q, p+q) diagonal blocks, symmetric positive definite
    lam: Array    # (N-1,) coupling weights; block (k, k-1) is -lam[k-1] I
    theta: Array  # (N, p+q, p) right-hand side blocks


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
        _flag("accounting", self.accounting)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a solve: the model plus cost, gradient, and effort metrics.

    ``to_dict()`` writes every field but ``model``; the field order is the JSON key order.
    ``preconditioned`` and its ``to_dict()`` key are always False; they are
    kept so that readers written for the retired preconditioned route run.
    """

    model: LtvModel
    final_cost: float
    gradient_norm: float
    multiply_count: int
    multiply_forward: int
    multiply_backward: int
    elapsed: float
    iterations: int
    preconditioned: bool = False
    converged: bool = True

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}


# Multiplies are counted from the problem shapes, by standard dense linear
# algebra charges: Cholesky n^3/6 + n^2, LU n^3/3 + n^2, a factored solve
# n^2 per column, an inverse as LU plus n solved columns, a matrix product
# at full size and a scalar times a matrix one per entry.  A pivot inverse
# is charged Cholesky plus inverse whichever route of ``_spd_inverse``
# computes it; stacking D(k)^T D(k) and D(k)^T Xnext(k)^T is charged to
# every route.
def _chol_count(n: int) -> int:
    return n**3 // 6 + n * n


def _inverse_count(n: int, m: int) -> int:
    """Multiplies of inverting n SPD pivots of size m x m."""
    return n * (_chol_count(m) + m**3 // 3 + m * m + m**3)


def _stacking_count(data: StackedData) -> int:
    return data.N * data.L * data.width * (data.width + data.p)


def _gram(a: Array) -> Array:
    """a^T a per block on the leading axes, exactly symmetric.

    numpy sends ``a.mT @ a`` to a symmetric rank-k update per block.  For
    blocks of at most ``_NARROW_WIDTH_MAX`` columns one GEMM against a
    contiguous copy of a^T, averaged with its transpose because GEMM may
    round the two triangles apart, is faster: 0.5 of the time on 1 000
    blocks of 6 x 3 and 0.7 on 24 x 3.  From 6 columns on it was slower on
    some shapes, and on 12 columns it took 1.1 to 3.1 times as long on
    blocks of 6, 12 and 24 rows.
    """
    if a.shape[-1] > _NARROW_WIDTH_MAX:
        return a.mT @ a
    g = np.ascontiguousarray(a.mT) @ a
    return 0.5 * (g + g.mT)


_PRODUCTS_OVERFLOW = "the data's products overflow float64: rescale the data"


def _diagonal_blocks(data: StackedData, lam: Array) -> Array:
    """D(k)^T D(k) plus the coupling weights' stencil, added on the diagonal
    in place; data whose Gram blocks overflow float64 raise SolverError."""
    shift = np.zeros(data.N)
    shift[:-1] += lam
    shift[1:] += lam
    with np.errstate(over="ignore", invalid="ignore"):
        skk = _gram(data.D)
        skk.reshape(data.N, -1)[:, :: data.width + 1] += shift[:, None]
    _require_finite(_PRODUCTS_OVERFLOW, skk, error=SolverError)
    return skk


def _right_hand_sides(data: StackedData) -> Array:
    """D(k)^T Xnext(k)^T; data whose products overflow float64 raise SolverError."""
    with np.errstate(over="ignore", invalid="ignore"):
        theta = data.D.mT @ data.Xnext.mT
    _require_finite(_PRODUCTS_OVERFLOW, theta, error=SolverError)
    return theta


def build_system(data: StackedData, sched: LambdaSchedule) -> TridiagonalSystem:
    """Assemble the block-tridiagonal normal equations of the objective.

    Diagonal blocks are D(k)^T D(k) plus lambda_1 I at k = 0,
    (lambda_k + lambda_{k+1}) I in the interior, and lambda_{N-1} I at
    k = N-1; couplings are -lambda_k I; right-hand sides are D(k)^T Xnext(k)^T.
    Both are batched matmuls; ``_gram`` forms the Gram blocks, by a GEMM made
    exactly symmetric up to 4 columns and a symmetric rank-k update above;
    the weights are added to their diagonals in place.  Data whose products
    overflow float64 raise SolverError.
    """
    lam = sched.materialize(data.N)
    return TridiagonalSystem(_diagonal_blocks(data, lam), lam, _right_hand_sides(data))


def _unstable(d: Array, diag: Array) -> Array:
    """Whether pivots with Cholesky diagonals ``d`` and own diagonals ``diag``
    (last axis) are numerically singular; NaN in ``d`` marks a failed factor."""
    return ~np.all(d * d > _PIVOT_FLOOR * diag, axis=-1)


def _blockwise(fn, *stacks: Array) -> Array:
    """``fn(*stacks)`` for a batched LAPACK routine, with the result's blocks
    all NaN where ``fn`` fails on them.

    One batched call; only when it fails is ``fn`` applied block by block to
    find which.  A failed block has the shape of the last stack's block.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        if stacks[0].ndim == 2:
            return np.full(stacks[-1].shape, np.nan)
        return np.stack([_blockwise(fn, *blocks) for blocks in zip(*stacks)])


# Batches of at least this many pivots are inverted from their Cholesky
# factors, smaller ones by np.linalg.inv: the factor route makes about
# 4(m-1) numpy calls per batch of m x m pivots where inv makes one.  32 is
# the measured crossover (interleaved medians, one BLAS thread): the factor
# route took 0.99 of inv's time on 32 blocks of 3 x 3 and 1.05 on 24, and
# 12 x 12 blocks broke even near 20.  With no threshold, smd-sweep's fits,
# whose batches run from 50 pivots down to 1, were 5 % slower.
_FACTOR_INVERSE_MIN = 32

# Batches of at least _NARROW_INVERSE_MIN pivots of at most _NARROW_WIDTH_MAX
# rows are factored and inverted entry by entry by ``_narrow_inverse``: a
# number of numpy calls that grows as m^3, each spanning the whole batch,
# where LAPACK's Cholesky and numpy's matmul make one library call per
# pivot.  Measured crossovers against the routes below (interleaved medians,
# one BLAS thread): 4 x 4 pivots between 128 and 192 (1.04 of their time on
# 128, 0.90 on 192), 3 x 3 near 56 (0.95 on 64, 0.79 on 128), 2 x 2 near 24,
# 1 x 1 below 16.  Wider pivots need larger batches (5 x 5 near 200, 8 x 8
# near 550), and 12 x 12 ones were still slower on 1 000 (1.05).
_NARROW_WIDTH_MAX = 4
_NARROW_INVERSE_MIN = 128


def _narrow_inverse(s: Array) -> tuple[Array, Array]:
    """Cholesky diagonals and inverses of a stack of small SPD blocks.

    S = L L^T, W = L^-1 and S^-1 = W^T W, each entry computed for the whole
    stack at once, with the reciprocal of each diagonal of L multiplied in
    as LAPACK's unblocked Cholesky does.  A zero or negative pivot gives an
    infinite or NaN diagonal, without a warning, for the pivot test to flag.
    """
    m = s.shape[-1]
    low = [[None] * m for _ in range(m)]
    w = [[None] * m for _ in range(m)]
    d = np.empty(s.shape[:-1])
    sinv = np.empty(s.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m):
            for i in range(j, m):
                acc = s[..., i, j]
                for k in range(j):
                    acc = acc - low[i][k] * low[j][k]
                if i == j:
                    d[..., j] = np.sqrt(acc)
                    w[j][j] = 1.0 / d[..., j]
                else:
                    low[i][j] = acc * w[j][j]
        for j in range(m):
            for i in range(j + 1, m):
                acc = low[i][j] * w[j][j]
                for k in range(j + 1, i):
                    acc = acc + low[i][k] * w[k][j]
                w[i][j] = -acc * w[i][i]
        for a in range(m):
            for b in range(a + 1):
                acc = w[a][a] * w[a][b]
                for k in range(a + 1, m):
                    acc = acc + w[k][a] * w[k][b]
                sinv[..., a, b] = sinv[..., b, a] = acc
    return d, sinv


def _fill_lower_inverse(factor: Array, w: Array, lo: int, hi: int) -> None:
    """Write the inverse of ``factor[:, lo:hi, lo:hi]`` into the same block of
    ``w``, whose diagonal already holds the reciprocals of the factor's.

    Recursive 2 x 2 blocking: with both diagonal blocks inverted, the
    off-diagonal block of the inverse is W21 = -W22 L21 W11.
    """
    if hi - lo < 2:
        return
    mid = (lo + hi) // 2
    _fill_lower_inverse(factor, w, lo, mid)
    _fill_lower_inverse(factor, w, mid, hi)
    w11, w22 = w[:, lo:mid, lo:mid], w[:, mid:hi, mid:hi]
    w[:, mid:hi, lo:mid] = -(w22 @ (factor[:, mid:hi, lo:mid] @ w11))


def _spd_inverse(s: Array) -> tuple[Array, Array]:
    """Cholesky diagonals and inverses of a stack of small SPD blocks.

    A large batch of narrow blocks is inverted by ``_narrow_inverse``.
    Otherwise each block is factored by LAPACK, and a batch of at least
    ``_FACTOR_INVERSE_MIN`` blocks is inverted as S^-1 = W^T W from
    W = L^-1, the inverse of that factor, a smaller one by np.linalg.inv.
    Inverting from the Cholesky factor is as stable as LU-based inversion
    (Du Croz & Higham, IMA J. Numer. Anal. 12, 1992).  A block whose factor
    fails gets NaN diagonals (the narrow route: NaN, or 0 for a zero pivot)
    and an inverse that is not meaningful, without a warning; the caller
    tests the diagonals.
    """
    n, m = s.shape[0], s.shape[-1]
    if m <= _NARROW_WIDTH_MAX and n >= _NARROW_INVERSE_MIN:
        return _narrow_inverse(s)
    factor = _blockwise(np.linalg.cholesky, s)
    d = factor.diagonal(axis1=-2, axis2=-1)
    if n < _FACTOR_INVERSE_MIN:
        return d, _blockwise(np.linalg.inv, s)
    w = np.zeros((n, m, m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w.reshape(n, m * m)[:, :: m + 1] = 1.0 / d
        _fill_lower_inverse(factor, w, 0, m)
        return d, _gram(w)


def _invert_pivots(s: Array, instants: Sequence[int]) -> Array:
    """Inverses of a stack of SPD pivot blocks, by ``_spd_inverse``.

    Raises SingularBlock naming the first of ``instants`` whose pivot fails
    the test of ``_unstable``; the batch is tested as a whole, and pivot by
    pivot only when it fails.
    """
    d, sinv = _spd_inverse(s)
    diag = s.diagonal(axis1=-2, axis2=-1)
    if not (d * d > _PIVOT_FLOOR * diag).all():
        raise SingularBlock(int(instants[_unstable(d, diag).argmax()]))
    return sinv


# Even positions, odd positions and all but the first, on axis -3, the axis
# the level arrays stack their blocks on.
_EVEN, _ODD, _TAIL = np.s_[..., 0::2, :, :], np.s_[..., 1::2, :, :], np.s_[..., 1:, :, :]


def _factorize(s: Array, lam: Array) -> list:
    """Odd-even block cyclic reduction of the normal matrix with diagonal
    blocks ``s`` and couplings -``lam``, one entry per level.

    A level holds a block-tridiagonal matrix, stacked on axis -3: diagonal
    blocks ``s`` and couplings ``e``, block (j, j-1) = e[j-1] and block
    (j-1, j) = e[j-1]^T.  It inverts the pivots at its even positions in one
    batched call and passes the Schur complement on its odd positions to the
    next level.  It keeps ``(sinv, left, right)``: the pivot inverses and the
    couplings of each odd position to its even neighbours, e[0::2] and
    e[1::2] (None at the last level); the Schur complement lives on as the
    next level's pivots.  The first level's couplings are the scalars
    -lambda_k, shaped (N-1, 1, 1) and broadcast; later ones are dense.  For
    an SPD matrix this is Gaussian elimination in a symmetric permutation,
    so every pivot is SPD.  A level's diagonal blocks are dropped once its
    Schur complement is formed, so the first level's are freed then if the
    caller does not hold them.
    """
    e = -lam[..., None, None]
    instants = range(s.shape[-3])
    levels = []
    mul = np.multiply
    while True:
        sinv = _invert_pivots(s[_EVEN], instants[0::2])
        h = s.shape[-3] // 2
        if h == 0:
            levels.append((sinv, None, None))
            return levels
        left, right = e[_EVEN], e[_ODD]
        levels.append((sinv, left, right))
        hr = right.shape[-3]
        g_left = mul(left, sinv[..., :h, :, :])
        s = s[_ODD] - mul(g_left, left.mT)
        e = -mul(g_left[_TAIL], right[..., : h - 1, :, :])
        del g_left
        head = s[..., :hr, :, :]
        np.subtract(head, mul(mul(right.mT, sinv[_TAIL]), right), out=head)
        instants, mul = instants[1::2], np.matmul


def _solve_factored(levels: list, r: Array) -> Array:
    """Solve the factorized normal equations for the right-hand sides ``r``,
    one (p+q, k) block per instant on axis -3, for any k.  ``r`` is dropped
    after the first level, so it is freed then if the caller does not hold
    it.

    Down the levels y = sinv r on the even positions and r_next = r_odd - e y;
    back-substitution then recovers the even positions, deepest level first.
    With ``system.theta`` the operands and their order are the elimination's,
    so C is the closed-form solution to the last bit.
    """
    ys = []
    mul = np.multiply
    for sinv, left, right in levels:
        y = sinv @ r[_EVEN]
        ys.append(y)
        if left is None:
            break
        h, hr = left.shape[-3], right.shape[-3]
        r_next = r[_ODD] - mul(left, y[..., :h, :, :])
        head = r_next[..., :hr, :, :]
        np.subtract(head, mul(right.mT, y[_TAIL]), out=head)
        r, mul = r_next, np.matmul

    x = ys.pop()
    for level in range(len(ys) - 1, -1, -1):
        (sinv, left, right), y = levels[level], ys[level]
        mul = np.matmul if level else np.multiply
        h, hr = left.shape[-3], right.shape[-3]
        z = np.zeros(y.shape)
        z[..., :h, :, :] = mul(left.mT, x)
        mid = z[..., 1 : hr + 1, :, :]
        np.add(mid, mul(right, x[..., :hr, :, :]), out=mid)
        out = np.empty(y.shape[:-3] + (y.shape[-3] + h,) + y.shape[-2:])
        np.subtract(y, sinv @ z, out=out[_EVEN])
        out[_ODD] = x
        x = out
    return x


def _reduction_count(levels: list, k: int) -> tuple[int, int]:
    """(forward, backward) multiplies of ``_factorize`` into ``levels`` and of
    one ``_solve_factored`` for k right-hand side columns, read from the
    shapes of the stored levels on axis -3.

    Forward charges each level's pivot inverses and y = sinv r, and, where
    the level has couplings, its Schur complement and r_next; backward
    charges the back-substitution.  A coupling's last axis w is 1 at the
    first level, whose couplings are scalars.
    """
    forward = backward = 0
    for sinv, left, right in levels:
        n, m = sinv.shape[-3], sinv.shape[-1]
        forward += _inverse_count(n, m) + n * m * m * k
        if left is not None:
            h, hr, w = left.shape[-3], right.shape[-3], left.shape[-1]
            forward += (3 * h + 2 * hr - 1) * m * m * w + (h + hr) * m * w * k
            backward += ((h + hr) * w + n * m) * m * k
    return forward, backward


def _finish(c, data, sched, counts, elapsed, iterations, converged=True):
    """The report of a solve that found the blocks ``c`` with multiplies ``counts``
    = (forward, backward, other); their model is built here, after ``elapsed``."""
    forward, backward, other = counts
    model = LtvModel(p=data.p, q=data.q, N=data.N, C=c)
    final_cost, grad = _cost_and_gradient(model, data, sched)
    return SolveReport(
        model=model,
        final_cost=final_cost,
        gradient_norm=float(np.linalg.norm(grad)),
        multiply_count=forward + backward + other,
        multiply_forward=forward,
        multiply_backward=backward,
        elapsed=elapsed,
        iterations=iterations,
        converged=converged,
    )


def cosmic_solve(data: StackedData, sched: LambdaSchedule,
                 opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve the regularized fitting problem in closed form.

    Odd-even block cyclic reduction factorizes the block-tridiagonal
    normal matrix once, in floor(log2 N) + 1 levels of batched block
    operations; the solve pushes Theta through the stored levels, and as
    many back-substitution levels recover the blocks C(k).  The report's
    iteration count is therefore always 1, and its default multiply count
    is read from the shapes of the stored levels.  Raises
    SingularBlock, naming the original instant of the failing pivot, when
    a pivot block is numerically singular, which happens when the data do
    not sufficiently excite the system.
    """
    opts = opts or SolveOptions()
    start = time.perf_counter()
    lam = sched.materialize(data.N)
    # The diagonal blocks and Theta are passed unnamed, so that each is
    # freed once the first level has read it.
    levels = _factorize(_diagonal_blocks(data, lam), lam)
    c = _solve_factored(levels, _right_hand_sides(data))
    c.setflags(write=False)  # so that the model holds it without a copy
    if opts.accounting:
        textbook = predicted_multiply_count(data.N, data.p, data.q)
        counts = textbook.forward, textbook.backward, 0
    else:
        counts = (*_reduction_count(levels, data.p), _stacking_count(data))
    del levels  # so that _finish's verification can reuse their memory
    elapsed = time.perf_counter() - start
    return _finish(c, data, sched, counts, elapsed, 1)


def oracle_solve(data: StackedData, sched: LambdaSchedule,
                 dense_limit: int = 4000) -> SolveReport:
    """Assemble and solve the dense normal equations directly.

    Independent reference route for the closed-form solver, and the
    general-purpose baseline it is timed against.  Refuses systems larger
    than ``dense_limit`` rows with SizeGuard, and a negative
    ``dense_limit`` with ValueError.  One LAPACK Cholesky
    factorization eliminates the instants in time order; its diagonal
    blocks are the factors of the block pivots.  SingularBlock names the
    first instant whose pivot fails the closed-form route's pivot test or
    where the factorization stops.
    """
    _integer("dense_limit", dense_limit, 0)
    from scipy.linalg import lapack  # deferred as in sim.smd_model; outside the timed part
    start = time.perf_counter()
    n_blocks, m, p = data.N, data.width, data.p
    size = n_blocks * m
    if size > dense_limit:
        raise SizeGuard(size, dense_limit)
    system = build_system(data, sched)
    full = np.zeros((n_blocks, m, n_blocks, m))
    k = np.arange(n_blocks)
    coupling = -system.lam[:, None, None] * np.eye(m)
    full[k, :, k, :] = system.skk
    full[k[1:], :, k[:-1], :] = coupling
    full[k[:-1], :, k[1:], :] = coupling
    factor, info = lapack.dpotrf(full.reshape(size, size), lower=True, clean=False)
    stop = n_blocks if info == 0 else (info - 1) // m
    pivots = np.tril(factor.reshape(n_blocks, m, n_blocks, m)[k[:stop], :, k[:stop], :])
    bad = _unstable(np.diagonal(pivots, axis1=-2, axis2=-1), np.sum(pivots * pivots, axis=-1))
    bad = np.append(bad, stop < n_blocks)  # the instant where the factorization stopped
    if bad.any():
        raise SingularBlock(int(bad.argmax()))
    c, _ = lapack.dpotrs(factor, system.theta.reshape(size, p), lower=True)
    elapsed = time.perf_counter() - start
    counts = 0, 0, _stacking_count(data) + _chol_count(size) + size * size * p
    return _finish(c.reshape(n_blocks, m, p), data, sched, counts, elapsed, 1)


def sbcd_solve(data: StackedData, sched: LambdaSchedule, epsilon: float = 1e-10,
               max_iters: int = 10**6, seed: int = 0) -> SolveReport:
    """Stochastic block coordinate descent on the fitting objective.

    Starts from i.i.d. uniform [-0.5, 0.5] blocks drawn from ``seed``, then
    repeatedly sweeps the instants in a fresh uniformly random order,
    replacing each block by its exact minimizer S_ii^{-1} (Theta_i +
    lambda_i C(i-1) + lambda_{i+1} C(i+1)) with the boundary terms dropped:
    randomized block Gauss-Seidel on the normal equations of
    ``build_system``.  The N inverses S_ii^{-1} are formed once, in one
    batch checked by the closed-form route's pivot test.  Before the first
    sweep and after each one, the squared Frobenius norm of the objective's
    ``gradient`` is evaluated; the solve stops when it drops to ``epsilon``
    or after ``max_iters`` sweeps, and the report's ``converged`` flag
    records which.

    The RNG contract is: one ``default_rng(seed)`` stream, first the
    initial blocks, then one permutation per sweep, so equal seeds give
    bit-identical iterate sequences.
    """
    _finite("epsilon (stopping tolerance)", epsilon, positive=True)
    _integer("max_iters (sweep budget)", max_iters, 0)
    _integer("seed", seed, 0)
    start = time.perf_counter()
    skk, lam, theta = build_system(data, sched)
    n_blocks, m, p = theta.shape
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=(n_blocks, m, p))

    sinv = _invert_pivots(skk, np.arange(n_blocks))

    def grad_sq() -> float:
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
        sweeps += 1
        converged = grad_sq() <= epsilon
    elapsed = time.perf_counter() - start
    # Each sweep solves N blocks and adds two scaled neighbours to each
    # right-hand side; each stopping test evaluates the gradient once.
    other = (_stacking_count(data) + _inverse_count(n_blocks, m)
             + sweeps * n_blocks * (m * m * p + 2 * m * p)
             + (sweeps + 1) * (2 * n_blocks * data.L + n_blocks - 1) * m * p)
    return _finish(c, data, sched, (0, 0, other), elapsed, sweeps, converged)
