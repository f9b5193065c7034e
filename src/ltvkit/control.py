"""Finite-horizon LQR synthesis and closed-loop evaluation for LTV models.

Gains come from the backward Riccati recursion over the model's horizon,
run as a batched odd-even scan, and the closed-loop rollout applies them
to an arbitrary plant model so that controllers synthesized from
estimated dynamics can be judged against the true system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LtvModel, _first_nonfinite
from .sim import _step
from .solvers import _cholesky_diagonals

Array = np.ndarray

__all__ = [
    "LqrWeights",
    "GainSchedule",
    "RolloutResult",
    "TrackingStats",
    "SingularInputCost",
    "lqr_synthesize",
    "closed_loop_rollout",
    "tracking_stats",
]


class SingularInputCost(Exception):
    """The input-cost term R + B^T P B lost positive definiteness."""

    def __init__(self, instant: int):
        self.instant = instant
        super().__init__(f"input cost block at instant {instant} is not positive definite")


def position_coordinates(p: int, mask=None) -> np.ndarray:
    """Indices of the position-like coordinates: the first ceil(p/2) by default."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (p,) or not mask.any():
            raise ValueError(f"position mask must select at least one of {p} coordinates")
        return np.flatnonzero(mask)
    return np.arange((p + 1) // 2)


@dataclass(frozen=True)
class LqrWeights:
    """Diagonal LQR weights: q_x on positions, q_v on the rest, r on inputs.

    ``terminal`` overrides the terminal state cost (default: same as the
    running state cost).  ``position_mask`` overrides which coordinates
    count as positions.
    """

    q_x: float = 1.0
    q_v: float = 0.1
    r: float = 1e-3
    terminal: Optional[Array] = None
    position_mask: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        for name in ("q_x", "q_v", "r"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"LQR weights must be positive and finite, got {name}={value!r}")
        if self.terminal is not None:
            term = np.asarray(self.terminal, dtype=np.float64)
            object.__setattr__(self, "terminal", term)

    def state_cost(self, p: int) -> Array:
        diag = np.full(p, self.q_v)
        diag[position_coordinates(p, self.position_mask)] = self.q_x
        return np.diag(diag)

    def input_cost(self, q: int) -> Array:
        return self.r * np.eye(q)

    def terminal_cost(self, p: int) -> Array:
        if self.terminal is None:
            return self.state_cost(p)
        if self.terminal.shape != (p, p):
            raise ValueError(f"terminal cost has shape {self.terminal.shape}, expected ({p}, {p})")
        return self.terminal


@dataclass(frozen=True)
class GainSchedule:
    """Time-varying finite feedback gains K(k), with the Riccati solutions kept."""

    K: Array           # (N, q, p)
    P: Optional[Array] = None  # (N+1, p, p)

    def __post_init__(self):
        object.__setattr__(self, "K", np.array(self.K, dtype=np.float64))
        if self.K.ndim != 3:
            raise ValueError("gain schedule must be an (N, q, p) array")
        bad = _first_nonfinite(self.K)
        if bad is not None:
            raise ValueError(f"gains at instant {bad[0]} are not finite")
        if self.P is not None:
            object.__setattr__(self, "P", np.array(self.P, dtype=np.float64))

    @property
    def N(self) -> int:
        return self.K.shape[0]

    def to_dict(self) -> dict:
        return {"K": self.K.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "GainSchedule":
        try:
            return cls(K=np.asarray(obj["K"], dtype=np.float64))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed gain record: {exc}") from None


@dataclass(frozen=True)
class RolloutResult:
    states: Array           # (N+1, p)
    inputs: Array           # (N, q)
    tracking_errors: Array  # (N+1,)


@dataclass(frozen=True)
class TrackingStats:
    mean: float
    stddev: float
    sum_sq: float

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stddev": self.stddev, "sum_sq": self.sum_sq}


def _solve_blocks(a: Array, b: Array) -> Array:
    """a[i]^{-1} b[i] for every block, NaN where a[i] is singular.

    One batched solve; only when it fails are the blocks solved one at a
    time to find which.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return np.full_like(b, np.nan)
        return np.stack([_solve_blocks(x, y) for x, y in zip(a, b)])


def _sym(a: Array) -> Array:
    return 0.5 * (a + a.mT)


def _combine(first, second):
    """Riccati elements first ⊗ second, first the earlier in time, blockwise.

    With M = (I + C1 J2)^{-1}: A = A2 M A1, C = A2 M C1 A2^T + C2 and
    J = A1^T M^T J2 A1 + J1, where M^T J2 = J2 M because C1 and J2 are symmetric.
    """
    a1, c1, j1 = first
    a2, c2, j2 = second
    p = a1.shape[-1]
    m = _solve_blocks(np.eye(p) + c1 @ j2, np.concatenate([a1, c1], axis=-1))
    ma, mc = m[..., :p], m[..., p:]
    return a2 @ ma, _sym(a2 @ mc @ a2.mT + c2), _sym((j2 @ a1).mT @ ma + j1)


def _riccati_suffix_scan(a: Array, c: Array, j: Array) -> Array:
    """J of every suffix e_k ⊗ ... ⊗ e_N of the elements (a, c, j), k = 0..N.

    Odd-even scan.  The up-sweep combines the pairs (2i, 2i+1) of a level
    in full, carrying an odd last element over, until one element is left.
    The down-sweep gives each level's even positions the suffix values of
    the level above, and each odd position 2i+1 the J of its element
    followed by the suffix value at 2i+2, or zero (the J of the identity
    element) past the end.  That needs only J.  About 2 log2(N) levels of
    batched p x p work, O(N p^3) in all.
    """
    levels = []
    while a.shape[0] > 1:
        levels.append((a, c, j))
        paired = _combine((a[0:-1:2], c[0:-1:2], j[0:-1:2]), (a[1::2], c[1::2], j[1::2]))
        if a.shape[0] % 2:
            paired = [np.concatenate([x, y[-1:]]) for x, y in zip(paired, (a, c, j))]
        a, c, j = paired
    suffix = j
    for a, c, j in reversed(levels):
        a, c, j = a[1::2], c[1::2], j[1::2]
        later = np.zeros_like(j)
        later[: suffix.shape[0] - 1] = suffix[1:]
        ma = _solve_blocks(np.eye(a.shape[-1]) + c @ later, a)
        out = np.empty((suffix.shape[0] + j.shape[0],) + j.shape[1:])
        out[0::2] = suffix
        out[1::2] = _sym((later @ a).mT @ ma + j)
        suffix = out
    return suffix


def lqr_synthesize(model: LtvModel, weights: Optional[LqrWeights] = None) -> GainSchedule:
    """Finite-horizon LQR gains from the backward Riccati recursion.

    The recursion P(N) = terminal cost,
    K(k) = (R + B^T P(k+1) B)^{-1} B^T P(k+1) A and
    P(k) = Q + A^T P(k+1) (A - B K(k)) is run as an associative scan
    (Sarkka, Corenflos et al., "Temporal parallelization of dynamic
    programming and linear quadratic control", IEEE TAC 2023) over the
    elements e_k = (A(k), B(k) R^{-1} B(k)^T, Q) and e_N = (0, 0, P(N)):
    P(k) is the J of e_k ⊗ ... ⊗ e_N, found for every k by a batched
    odd-even scan (``_riccati_suffix_scan``), symmetrized along the way.
    The gains then come from one batched Cholesky check and one batched
    solve of S(k) = R + B^T P(k+1) B.

    SingularInputCost(k) is raised when S(k) is not positive definite (for
    any q, including a 1x1 block); k is the largest such instant, the one
    where the step-by-step recursion stops, since the scan's P below it
    need not mean anything.  A terminal cost that is not finite raises
    ValueError; ``LtvModel`` already rejects a model that is not.

    The combine solves with I + C P where the recursion factors S, so when
    |B R^{-1} B^T| |P| is large the scan can lose about log10 of it in
    digits more than the recursion; on the spring-mass-damper plant the two
    agree to about 1e-15.
    """
    weights = weights or LqrWeights()
    p, q, n = model.p, model.q, model.N
    a_seq, b_seq = model.A_seq, model.B_seq
    terminal = weights.terminal_cost(p)
    if not np.isfinite(terminal).all():
        raise ValueError("LQR needs a finite terminal cost")

    a = np.concatenate([a_seq, np.zeros((1, p, p))])
    c = np.concatenate([b_seq @ b_seq.mT / weights.r, np.zeros((1, p, p))])
    j = np.concatenate([np.broadcast_to(weights.state_cost(p), (n, p, p)), terminal[None]])
    ric = _riccati_suffix_scan(a, c, j)
    ric[n] = terminal  # as given, like the recursion; the scan symmetrizes

    pb = ric[1:] @ b_seq
    s = _sym(weights.input_cost(q) + b_seq.mT @ pb)
    failed = ~np.isfinite(_cholesky_diagonals(s)).all(axis=-1)
    if failed.any():
        raise SingularInputCost(int(np.flatnonzero(failed)[-1]))
    gains = np.linalg.solve(s, pb.mT @ a_seq)
    return GainSchedule(K=gains, P=ric)


def closed_loop_rollout(plant: LtvModel, gains: GainSchedule, reference=None,
                        x0=None, noise=None, position_mask=None) -> RolloutResult:
    """Apply a gain schedule to a plant and track a reference trajectory.

    The control law is u(k) = -K(k) (x(k) - ref(k)), evaluated on the
    measured state (the true state plus Gaussian noise when a noise
    config is given), while the plant propagates the true state.  The
    reference defaults to zero, making this a regulation run.  Tracking
    errors are the Euclidean deviations of the position coordinates from
    the reference at every instant.
    """
    n, p, q = plant.N, plant.p, plant.q
    if gains.K.shape != (n, q, p):
        raise ValueError(f"gain schedule shape {gains.K.shape} does not match plant ({n}, {q}, {p})")
    ref = np.zeros((n + 1, p)) if reference is None else np.asarray(reference, dtype=np.float64)
    if ref.shape != (n + 1, p):
        raise ValueError(f"reference has shape {ref.shape}, expected ({n + 1}, {p})")
    x0 = ref[0] if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != (p,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({p},)")

    meas_noise = None
    if noise is not None and noise.sigma > 0.0:
        meas_noise = np.random.default_rng(noise.seed).normal(0.0, noise.sigma, size=(n, p))

    a_seq, b_seq = plant.A_seq, plant.B_seq
    states = np.empty((n + 1, p))
    inputs = np.empty((n, q))
    states[0] = x0
    for k in range(n):
        measured = states[k] if meas_noise is None else states[k] + meas_noise[k]
        inputs[k] = -gains.K[k] @ (measured - ref[k])
        states[k + 1 : k + 2] = _step(a_seq[k], b_seq[k], states[k : k + 1], inputs[k : k + 1])
    pos = position_coordinates(p, position_mask)
    errors = np.linalg.norm(states[:, pos] - ref[:, pos], axis=1)
    return RolloutResult(states=states, inputs=inputs, tracking_errors=errors)


def tracking_stats(errors) -> TrackingStats:
    """Mean, population standard deviation, and sum of squares of an error sequence."""
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("tracking statistics need a nonempty error vector")
    return TrackingStats(
        mean=float(e.mean()),
        stddev=float(e.std()),
        sum_sq=float(np.sum(e * e)),
    )
