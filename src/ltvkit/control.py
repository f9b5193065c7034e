"""Finite-horizon LQR synthesis and closed-loop evaluation for LTV models.

Gains come from the backward Riccati recursion over the model's horizon,
run step by step inside chunks of eight instants, batched across the
chunks, with a batched odd-even scan across them.  The closed-loop rollout
applies the gains to an arbitrary plant model so that controllers
synthesized from estimated dynamics can be judged against the true system.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .core import LtvModel, _finite, _frozen_array, _of_type, _record, _require_finite
from .sim import NoiseConfig, _step
from .solvers import SolverError, _blockwise, _spd_inverse

Array = np.ndarray

__all__ = [
    "LqrWeights",
    "GainSchedule",
    "RolloutResult",
    "TrackingStats",
    "SingularInputCost",
    "lqr_synthesize",
    "closed_loop_rollout",
    "position_coordinates",
    "tracking_stats",
]


class SingularInputCost(SolverError):
    """The input-cost term R + B^T P B lost positive definiteness."""

    def __init__(self, instant: int):
        self.instant = instant
        super().__init__(f"input cost block at instant {instant} is not positive definite")


def position_coordinates(p: int) -> np.ndarray:
    """Indices of the position-like coordinates: the first ceil(p/2)."""
    return np.arange((p + 1) // 2)


@dataclass(frozen=True, eq=False)
class LqrWeights:
    """Diagonal LQR weights: q_x on positions, q_v on the rest, r on inputs.

    ``terminal`` overrides the terminal state cost (default: the running one).
    """

    q_x: float = 1.0
    q_v: float = 0.1
    r: float = 1e-3
    terminal: Optional[Array] = None

    def __post_init__(self):
        for name in ("q_x", "q_v", "r"):
            _finite(name, getattr(self, name), positive=True)
        if self.terminal is not None:
            term = _frozen_array(self.terminal, "terminal cost entries")
            _require_finite("terminal cost is not finite", term)
            object.__setattr__(self, "terminal", term)

    def state_cost(self, p: int) -> Array:
        diag = np.full(p, self.q_v)
        diag[position_coordinates(p)] = self.q_x
        return np.diag(diag)

    def input_cost(self, q: int) -> Array:
        return self.r * np.eye(q)

    def terminal_cost(self, p: int) -> Array:
        if self.terminal is None:
            return self.state_cost(p)
        if self.terminal.shape != (p, p):
            raise ValueError(f"terminal cost has shape {self.terminal.shape}, expected ({p}, {p})")
        return self.terminal


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Time-varying finite feedback gains K(k), with the Riccati solutions kept."""

    K: Array           # (N, q, p)
    P: Optional[Array] = None  # (N+1, p, p)

    def __post_init__(self):
        object.__setattr__(self, "K", _frozen_array(self.K, "gains"))
        if self.K.ndim != 3:
            raise ValueError("gain schedule must be an (N, q, p) array")
        if self.P is not None:
            object.__setattr__(self, "P", _frozen_array(self.P, "Riccati solutions"))
            if self.P.shape != (self.N + 1, self.K.shape[2], self.K.shape[2]):
                raise ValueError("Riccati solutions must be an (N+1, p, p) array")
        _require_finite("gains at instant {0} are not finite", self.K)
        if self.P is not None:
            _require_finite("Riccati solutions at instant {0} are not finite", self.P)

    @property
    def N(self) -> int:
        return self.K.shape[0]

    def to_dict(self) -> dict:
        return {"K": self.K.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "GainSchedule":
        return cls(K=_record("gain record", obj, ("K",))["K"])


@dataclass(frozen=True, eq=False)
class RolloutResult:
    states: Array           # (N+1, p)
    inputs: Array           # (N, q)
    tracking_errors: Array  # (N+1,)


@dataclass(frozen=True)
class TrackingStats:
    mean: float
    stddev: float
    sum_sq: float

    to_dict = asdict


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
    m = _blockwise(np.linalg.solve, np.eye(p) + c1 @ j2, np.concatenate([a1, c1], axis=-1))
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
        ma = _blockwise(np.linalg.solve, np.eye(a.shape[-1]) + c @ later, a)
        out = np.empty((suffix.shape[0] + j.shape[0],) + j.shape[1:])
        out[0::2] = suffix
        out[1::2] = _sym((later @ a).mT @ ma + j)
        suffix = out
    return suffix


# Instants per chunk of ``lqr_synthesize``.  Against a scan over the whole
# horizon (interleaved medians of 31, one BLAS thread) it took 0.53, 0.43,
# 0.43 and 0.50 of the time at 4, 8, 16 and 32 on a p = 8, q = 4 plant with
# N = 2 000, and 0.67, 0.66, 0.74 and 1.05 on the spring-mass-damper with
# N = 2 500: 8 is the fastest on both, tied with 16 on the first.
_CHUNK = 8


def _riccati_step(a: Array, b: Array, later: Array, state_cost: Array, input_cost: Array):
    """One backward Riccati step from P(k+1) = ``later``, batched on axis 0.

    Returns the Cholesky diagonals of S = R + B^T P(k+1) B, S^-1,
    K = S^-1 B^T P(k+1) A, the closed loop A - B K and
    P(k) = Q + A^T P(k+1) (A - B K), symmetrized, each product grouped as
    the step-by-step recursion groups it.
    """
    ap, bp = a.mT @ later, b.mT @ later
    d, sinv = _spd_inverse(_sym(input_cost + bp @ b))
    gain = sinv @ (bp @ a)
    closed = a - b @ gain
    return d, sinv, gain, closed, _sym(state_cost + ap @ closed)


def _chunk_ends(a: Array, b: Array, costs: tuple, r: float, terminal: Array) -> Array:
    """P(k+1) for the last instant k of every chunk of A (chunks, T, p, p) and B
    (chunks, T, p, q), costs (Q, r I): ``lqr_synthesize``'s up and across phases.

    Every chunk but the first is folded right to left into its composite
    element, e_t ⊗ (A2, C2, J2).  By Woodbury,
    (I + B R^-1 B^T J2)^-1 = I - B S^-1 B^T J2 with S = R + B^T J2 B, so
    that combine is the recursion's step from P(k+1) = J2:
    J = Q + A^T J2 (A - B K), A = A2 (A - B K) and
    C = C2 + (A2 B) S^-1 (A2 B)^T.  S is SPD because J2 is a cost-to-go
    with zero terminal cost.  The last chunk gets the terminal cost as
    given, like the recursion; a single chunk has no composite to fold.
    """
    p = a.shape[-1]
    ends = np.empty((a.shape[0], p, p))
    ends[-1] = terminal
    a, b = a[1:], b[1:]
    comp_a, comp_c, comp_j = a[:, -1], b[:, -1] @ (b[:, -1].mT / r), costs[0]
    for t in range(a.shape[1] - 2, -1, -1):
        _, sinv, _, closed, comp_j = _riccati_step(a[:, t], b[:, t], comp_j, *costs)
        g = comp_a @ b[:, t]
        comp_c = comp_c + g @ sinv @ g.mT
        comp_a = comp_a @ closed
    zero = np.zeros((1, p, p))
    ends[:-1] = _riccati_suffix_scan(np.concatenate([comp_a, zero]),
                                     np.concatenate([_sym(comp_c), zero]),
                                     np.concatenate([comp_j, terminal[None]]))[:-1]
    return ends


def lqr_synthesize(model: LtvModel, weights: Optional[LqrWeights] = None) -> GainSchedule:
    """Finite-horizon LQR gains from the backward Riccati recursion.

    The recursion P(N) = terminal cost,
    K(k) = S(k)^{-1} B^T P(k+1) A with S(k) = R + B^T P(k+1) B and
    P(k) = Q + A^T P(k+1) (A - B K(k)) runs in chunks of T = ``_CHUNK``
    instants, as a blocked scan (Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190, 1990).  The front of the horizon is
    padded with identity steps (A = I, B = 0), whose outputs are dropped,
    so that every chunk is T long.  Three phases:

    * up: each chunk's composite Riccati element is built right to left,
      one step per instant, batched across chunks (``_chunk_ends``);
    * across: the associative scan of Sarkka, Corenflos et al. ("Temporal
      parallelization of dynamic programming and linear quadratic control",
      IEEE TAC 2023; ``_riccati_suffix_scan``) over the composites and
      the terminal element (0, 0, P(N)) gives P at every chunk's end;
    * down: the step-by-step recursion runs T steps from there, batched
      across chunks, and gives every K(k) and P(k).

    That is T + 2 log2(N/T) batched steps, O(N p^3) in all.  Each step
    inverts S(k) with ``solvers._spd_inverse``, whose Cholesky diagonals
    also test it.  Only the P entering a chunk comes from the scan, whose
    combine solves with I + C P where the recursion factors S, so where
    |B R^{-1} B^T| |P| is large it can lose about log10 of it in digits
    more; on the spring-mass-damper plant and a p = 8, q = 4 drifting plant
    P agrees with the step-by-step recursion to about 1e-15.

    SingularInputCost(k) is raised when S(k) is not positive definite (for
    any q, including a 1x1 block); k is the largest such instant, the one
    where the step-by-step recursion stops, since P below it need not mean
    anything.  ``LtvModel`` and ``LqrWeights`` already reject a model or a
    terminal cost that is not finite; a recursion that overflows float64
    raises SolverError.
    """
    weights = weights or LqrWeights()
    p, q, n = model.p, model.q, model.N
    terminal = weights.terminal_cost(p)
    costs = weights.state_cost(p), weights.input_cost(q)
    chunks = -(-n // _CHUNK)
    pad = chunks * _CHUNK - n
    a = np.empty((chunks * _CHUNK, p, p))
    a[:pad] = np.eye(p)
    a[pad:] = model.A_seq
    b = np.zeros((chunks * _CHUNK, p, q))
    b[pad:] = model.B_seq
    a, b = a.reshape(chunks, _CHUNK, p, p), b.reshape(chunks, _CHUNK, p, q)
    gains = np.empty((chunks * _CHUNK, q, p))
    ric = np.empty((chunks * _CHUNK + 1, p, p))
    ric[-1] = terminal
    chunk_gains, chunk_ric = gains.reshape(chunks, _CHUNK, q, p), ric[:-1].reshape(a.shape)
    definite = np.empty((chunks, _CHUNK), dtype=bool)
    with np.errstate(all="ignore"):  # the results are tested below
        later = ends = _chunk_ends(a, b, costs, weights.r, terminal)
        for t in range(_CHUNK - 1, -1, -1):
            d, _, chunk_gains[:, t], _, later = _riccati_step(a[:, t], b[:, t], later, *costs)
            chunk_ric[:, t] = later
            definite[:, t] = (d > 0.0).all(axis=-1)
        failed = np.flatnonzero(~definite.reshape(-1)[pad:])
        if failed.size:  # a failure, or values that are not finite
            k = int(failed[-1])
            chunk, t = divmod(k + pad, _CHUNK)
            entering = ends[chunk] if t == _CHUNK - 1 else chunk_ric[chunk, t + 1]
            if np.isfinite(model.B(k).T @ entering @ model.B(k)).all():
                raise SingularInputCost(k)
    # Sums and products keep a value that is not finite, and each step forms
    # P(k) from P(k+1) through them, so an overflow anywhere in a chunk
    # reaches the P at its start.
    _require_finite("the Riccati recursion overflows float64: rescale the model or the weights",
                    later, error=SolverError)
    gains.setflags(write=False)  # so that the schedule holds both without a copy
    ric.setflags(write=False)
    return GainSchedule(K=gains[pad:], P=ric[pad:])


def closed_loop_rollout(plant: LtvModel, gains: GainSchedule, reference=None,
                        x0=None, noise=None) -> RolloutResult:
    """Apply a gain schedule to a plant and track a reference trajectory.

    The control law is u(k) = -K(k) (x(k) - ref(k)), evaluated on the
    measured state (the true state plus Gaussian noise when a noise
    config is given), while the plant propagates the true state.  The
    reference defaults to zero, making this a regulation run.  Tracking
    errors are the Euclidean deviations of the position coordinates from
    the reference at every instant.  A non-finite initial state or
    reference raises ValueError.

    The plant steps with ``sim._step`` over the same per-instant views as
    ``simulate``, so ``simulate(plant, x0, result.inputs)`` reproduces
    ``result.states`` bit for bit.
    """
    n, p, q = plant.N, plant.p, plant.q
    if gains.K.shape != (n, q, p):
        raise ValueError(f"gain schedule shape {gains.K.shape} does not match plant ({n}, {q}, {p})")
    ref = np.zeros((n + 1, p)) if reference is None else _frozen_array(reference, "reference states")
    if ref.shape != (n + 1, p):
        raise ValueError(f"reference has shape {ref.shape}, expected ({n + 1}, {p})")
    _require_finite("reference state at instant {0} is not finite", ref)
    x0 = ref[0] if x0 is None else _frozen_array(x0, "initial state entries")
    if x0.shape != (p,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({p},)")
    _require_finite(f"initial state {x0.tolist()} is not finite", x0)

    # Rows of the measurement noise and reference, or None where an
    # operation would add or subtract zero and is dropped.
    noise_rows = repeat(None)
    if noise is not None and _of_type("noise", noise, NoiseConfig).sigma > 0.0:
        noise_rows = np.random.default_rng(noise.seed).normal(0.0, noise.sigma, size=(n, p))
    ref_rows = repeat(None) if reference is None else ref
    # u = -(x - r) K^T = (x - r) (-K)^T exactly.  K is negated once, in its
    # own memory layout, so np.dot gets each K(k)^T as the same strided view.
    neg_kt = np.negative(gains.K).mT
    states = np.empty((n + 1, 1, p))
    inputs = np.empty((n, 1, q))
    states[0] = x0
    for x, w, r, kt, u, a_t, b_t, nxt in zip(states[:-1], noise_rows, ref_rows, neg_kt, inputs,
                                             plant.C[:, :p], plant.C[:, p:], states[1:]):
        error = x if w is None else x + w
        if r is not None:
            error = error - r
        np.dot(error, kt, out=u)
        _step(x, u, a_t, b_t, nxt)
    states, inputs = states.reshape(n + 1, p), inputs.reshape(n, q)
    pos = position_coordinates(p)
    errors = np.linalg.norm(states[:, pos] - ref[:, pos], axis=1)
    return RolloutResult(states=states, inputs=inputs, tracking_errors=errors)


def tracking_stats(errors) -> TrackingStats:
    """Mean, population standard deviation, and sum of squares of an error sequence."""
    e = _frozen_array(errors, "tracking errors")
    if e.ndim != 1 or e.size == 0:
        raise ValueError("tracking statistics need a nonempty error vector")
    return TrackingStats(
        mean=float(e.mean()),
        stddev=float(e.std()),
        sum_sq=float(np.sum(e * e)),
    )
