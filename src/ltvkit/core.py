"""Domain types and objective evaluation for smooth LTV system fitting.

The data is a set of recorded trajectories of a discrete-time linear
time-variant system x(k+1) = A(k) x(k) + B(k) u(k) with state dimension p
and input dimension q.  A model is stored as the stacked coefficient
blocks C(k) = [A(k)^T; B(k)^T], one (p+q) x p block per instant, and the
fitting objective combines a per-instant least-squares term with a
smoothness penalty on consecutive block differences weighted by a
per-instant schedule lambda_k > 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Trajectory",
    "TrajectoryDataset",
    "StackedData",
    "LtvModel",
    "LambdaSchedule",
    "assemble_stacked",
    "cost",
    "cost_terms",
    "gradient",
]


def _frozen_array(values, dtype=np.float64) -> Array:
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


# The solvers square the smoothness weights; beyond this value the square overflows.
_LAMBDA_MAX = math.sqrt(sys.float_info.max)


def _first_nonfinite(values: Array):
    """Index tuple of the first non-finite entry of ``values``, or None."""
    bad = ~np.isfinite(values)
    return np.unravel_index(bad.argmax(), bad.shape) if bad.any() else None


def _check_weight(value) -> None:
    if value is None or not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"smoothness weight must be positive, got {value}")
    if value > _LAMBDA_MAX:
        raise ValueError(
            f"smoothness weight {value} is too large: its square overflows "
            f"(the limit is {_LAMBDA_MAX:.6g})"
        )


def _coerce_rows(values, width: int, name: str, traj: int) -> Array:
    """Convert a row sequence to a float64 matrix, naming ragged rows."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (ValueError, TypeError):
        for k, row in enumerate(values):
            r = np.atleast_1d(np.asarray(row, dtype=np.float64))
            if r.shape != (width,):
                raise ValueError(
                    f"trajectory {traj}: {name} at instant {k} has "
                    f"dimension {r.size}, expected {width}"
                ) from None
        raise ValueError(f"trajectory {traj}: {name} are not a numeric matrix") from None
    if arr.ndim == 1 and width == 1:
        arr = arr[:, None]
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, width)
    if arr.ndim != 2:
        raise ValueError(f"trajectory {traj}: {name} must be a matrix of rows")
    return arr


@dataclass(frozen=True)
class Trajectory:
    """One recorded run: states x(0..N) and inputs u(0..N-1), rows per instant."""

    states: Array
    inputs: Array

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen_array(self.states))
        object.__setattr__(self, "inputs", _frozen_array(self.inputs))
        if self.states.ndim != 2 or self.inputs.ndim != 2:
            raise ValueError("trajectory states and inputs must be 2-D arrays")


@dataclass(frozen=True)
class TrajectoryDataset:
    """A set of L trajectories sharing dimensions p, q and horizon N.

    Every trajectory carries N+1 states and N inputs; N is the number of
    transitions.  Instances are immutable after construction.
    """

    p: int
    q: int
    N: int
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if self.p < 1:
            raise ValueError(f"state dimension must be at least 1, got {self.p}")
        if self.q < 0:
            raise ValueError(f"input dimension must be nonnegative, got {self.q}")
        if self.N < 2:
            raise ValueError(f"horizon must be at least 2 transitions, got {self.N}")
        if not self.trajectories:
            raise ValueError("dataset needs at least one trajectory")
        for ell, tr in enumerate(self.trajectories):
            if tr.states.shape != (self.N + 1, self.p):
                raise ValueError(
                    f"trajectory {ell}: states have shape {tr.states.shape}, "
                    f"expected ({self.N + 1}, {self.p})"
                )
            if tr.inputs.shape != (self.N, self.q):
                raise ValueError(
                    f"trajectory {ell}: inputs have shape {tr.inputs.shape}, "
                    f"expected ({self.N}, {self.q})"
                )
            for name, values in (("states", tr.states), ("inputs", tr.inputs)):
                bad = _first_nonfinite(values)
                if bad is not None:
                    raise ValueError(
                        f"trajectory {ell}: {name} at instant {bad[0]} are not finite"
                    )

    @property
    def L(self) -> int:
        return len(self.trajectories)

    @classmethod
    def build(cls, p: int, q: int, pairs: Iterable[tuple]) -> "TrajectoryDataset":
        """Construct a dataset from (states, inputs) pairs of array-likes.

        ``inputs`` may be None when q == 0.  The horizon is inferred from
        the first trajectory.
        """
        trajs = []
        n = None
        for ell, (states, inputs) in enumerate(pairs):
            s = _coerce_rows(states, p, "states", ell)
            if n is None:
                n = s.shape[0] - 1
            if inputs is None and q == 0:
                u = np.zeros((n, 0))
            else:
                u = _coerce_rows(inputs, q, "inputs", ell)
            trajs.append(Trajectory(states=s, inputs=u))
        if n is None:
            raise ValueError("dataset needs at least one trajectory")
        return cls(p=p, q=q, N=n, trajectories=tuple(trajs))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "N": self.N,
            "trajectories": [
                {"states": tr.states.tolist(), "inputs": tr.inputs.tolist()}
                for tr in self.trajectories
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrajectoryDataset":
        try:
            p, q, n = int(obj["p"]), int(obj["q"]), int(obj["N"])
            records = obj["trajectories"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed dataset record: {exc}") from None
        ds = cls.build(p, q, ((r["states"], r["inputs"]) for r in records))
        if ds.N != n:
            raise ValueError(f"dataset declares N={n} but trajectories carry N={ds.N}")
        return ds


@dataclass(frozen=True)
class StackedData:
    """Per-instant regressor stacks over a dataset.

    D[k] has one row [x_l(k)^T, u_l(k)^T] per trajectory l, and Xnext[k]
    has the successor state x_l(k+1) in column l.
    """

    D: Array      # (N, L, p+q)
    Xnext: Array  # (N, p, L)

    def __post_init__(self):
        object.__setattr__(self, "D", _frozen_array(self.D))
        object.__setattr__(self, "Xnext", _frozen_array(self.Xnext))
        if self.D.ndim != 3 or self.Xnext.ndim != 3:
            raise ValueError("stacked data must be 3-D arrays")
        if self.D.shape[0] != self.Xnext.shape[0]:
            raise ValueError("stacked data disagree on the number of instants")
        if self.D.shape[1] != self.Xnext.shape[2]:
            raise ValueError("stacked data disagree on the number of trajectories")
        if self.Xnext.shape[1] > self.D.shape[2]:
            raise ValueError("state dimension exceeds the regressor width")
        for name, values, axis in (("regressors", self.D, 1), ("successor states", self.Xnext, 2)):
            bad = _first_nonfinite(values)
            if bad is not None:
                raise ValueError(
                    f"trajectory {bad[axis]}: {name} at instant {bad[0]} are not finite"
                )

    @property
    def N(self) -> int:
        return self.D.shape[0]

    @property
    def L(self) -> int:
        return self.D.shape[1]

    @property
    def p(self) -> int:
        return self.Xnext.shape[1]

    @property
    def q(self) -> int:
        return self.D.shape[2] - self.Xnext.shape[1]

    @property
    def width(self) -> int:
        return self.D.shape[2]


@dataclass(frozen=True)
class LtvModel:
    """A discrete-time LTV model stored as finite blocks C(k) = [A(k)^T; B(k)^T]."""

    p: int
    q: int
    N: int
    C: Array  # (N, p+q, p)

    def __post_init__(self):
        object.__setattr__(self, "C", _frozen_array(self.C))
        if self.p < 1 or self.q < 0 or self.N < 1:
            raise ValueError(f"invalid model dimensions p={self.p}, q={self.q}, N={self.N}")
        if self.C.shape != (self.N, self.p + self.q, self.p):
            raise ValueError(
                f"coefficient stack has shape {self.C.shape}, "
                f"expected ({self.N}, {self.p + self.q}, {self.p})"
            )
        bad = _first_nonfinite(self.C)
        if bad is not None:
            raise ValueError(f"model coefficients at instant {bad[0]} are not finite")

    def A(self, k: int) -> Array:
        """State matrix A(k), shape (p, p)."""
        return self.C[k, : self.p, :].T

    def B(self, k: int) -> Array:
        """Input matrix B(k), shape (p, q)."""
        return self.C[k, self.p :, :].T

    @property
    def A_seq(self) -> Array:
        """All state matrices stacked, shape (N, p, p)."""
        return np.swapaxes(self.C[:, : self.p, :], 1, 2)

    @property
    def B_seq(self) -> Array:
        """All input matrices stacked, shape (N, p, q)."""
        return np.swapaxes(self.C[:, self.p :, :], 1, 2)

    @classmethod
    def from_blocks(cls, A_seq, B_seq) -> "LtvModel":
        """Build a model from stacked A (N, p, p) and B (N, p, q) matrices."""
        a = np.asarray(A_seq, dtype=np.float64)
        b = np.asarray(B_seq, dtype=np.float64)
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[1] != b.shape[1]:
            raise ValueError("A and B stacks must share the instant and state axes")
        c = np.concatenate([np.swapaxes(a, 1, 2), np.swapaxes(b, 1, 2)], axis=1)
        return cls(p=a.shape[1], q=b.shape[2], N=a.shape[0], C=c)

    @classmethod
    def constant(cls, A, B, N: int) -> "LtvModel":
        """Repeat a single (A, B) pair over N instants."""
        a = np.asarray(A, dtype=np.float64)
        b = np.asarray(B, dtype=np.float64)
        return cls.from_blocks(np.broadcast_to(a, (N,) + a.shape), np.broadcast_to(b, (N,) + b.shape))

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "N": self.N, "C": self.C.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "LtvModel":
        try:
            return cls(p=int(obj["p"]), q=int(obj["q"]), N=int(obj["N"]),
                       C=np.asarray(obj["C"], dtype=np.float64))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model record: {exc}") from None


@dataclass(frozen=True)
class LambdaSchedule:
    """Smoothness weights 0 < lambda_k <= sqrt(float max) for k = 1 .. N-1.

    The upper bound, about 1.34e154, is the largest weight whose square is
    finite; the closed-form solver squares the weights.

    Three variants: a single scalar applied uniformly, a zoned piecewise
    constant schedule given as (start_instant, value) breakpoints with the
    last value carried forward, or explicit per-instant values.
    """

    kind: str
    value: float | None = None
    zones: tuple[tuple[int, float], ...] | None = None
    values: Array | None = None

    def __post_init__(self):
        if self.kind == "scalar":
            _check_weight(self.value)
        elif self.kind == "zoned":
            if not self.zones:
                raise ValueError("zoned schedule needs at least one breakpoint")
            zones = tuple((int(k), float(v)) for k, v in self.zones)
            object.__setattr__(self, "zones", zones)
            if zones[0][0] != 1:
                raise ValueError(f"zoned schedule must start at instant 1, got {zones[0][0]}")
            for (ka, _), (kb, _) in zip(zones, zones[1:]):
                if kb <= ka:
                    raise ValueError("zoned schedule breakpoints must be strictly increasing")
            for _, v in zones:
                _check_weight(v)
        elif self.kind == "per_instant":
            vals = _frozen_array(self.values)
            object.__setattr__(self, "values", vals)
            if vals.ndim != 1 or vals.size == 0:
                raise ValueError("per-instant schedule must be a nonempty vector")
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
                raise ValueError("smoothness weights must all be positive")
            if np.any(vals > _LAMBDA_MAX):
                _check_weight(float(vals.max()))
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def scalar(cls, value: float) -> "LambdaSchedule":
        return cls(kind="scalar", value=float(value))

    @classmethod
    def zoned(cls, zones: Sequence[tuple[int, float]]) -> "LambdaSchedule":
        return cls(kind="zoned", zones=tuple(zones))

    @classmethod
    def per_instant(cls, values) -> "LambdaSchedule":
        return cls(kind="per_instant", values=np.asarray(values, dtype=np.float64))

    def materialize(self, N: int) -> Array:
        """Weights as a vector of length N-1; entry i holds lambda_{i+1}."""
        if N < 2:
            raise ValueError(f"horizon must be at least 2 transitions, got {N}")
        if self.kind == "scalar":
            return np.full(N - 1, self.value)
        if self.kind == "zoned":
            out = np.empty(N - 1)
            starts = [k for k, _ in self.zones]
            if starts[-1] > N - 1:
                raise ValueError(
                    f"zoned schedule breakpoint {starts[-1]} is beyond the last instant {N - 1}"
                )
            bounds = starts[1:] + [N]
            for (start, val), stop in zip(self.zones, bounds):
                out[start - 1 : min(stop, N) - 1] = val
            return out
        if self.values.shape != (N - 1,):
            raise ValueError(
                f"per-instant schedule has length {self.values.size}, expected {N - 1}"
            )
        return self.values.copy()

    def to_dict(self) -> dict:
        if self.kind == "scalar":
            return {"scalar": self.value}
        if self.kind == "zoned":
            return {"zones": [[k, v] for k, v in self.zones]}
        return {"per_instant": self.values.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "LambdaSchedule":
        keys = set(obj)
        if keys == {"scalar"}:
            return cls.scalar(obj["scalar"])
        if keys == {"zones"}:
            return cls.zoned([(k, v) for k, v in obj["zones"]])
        if keys == {"per_instant"}:
            return cls.per_instant(obj["per_instant"])
        raise ValueError(f"schedule record must have exactly one of scalar/zones/per_instant, got {sorted(keys)}")


def assemble_stacked(dataset: TrajectoryDataset) -> StackedData:
    """Stack a dataset into per-instant regressor matrices.

    Returns
    -------
    StackedData
        D[k] with rows [x_l(k)^T, u_l(k)^T] and Xnext[k] with columns
        x_l(k+1), for k = 0 .. N-1.
    """
    states = np.stack([tr.states for tr in dataset.trajectories])  # (L, N+1, p)
    inputs = np.stack([tr.inputs for tr in dataset.trajectories])  # (L, N, q)
    d = np.concatenate([states[:, :-1, :], inputs], axis=2).transpose(1, 0, 2)
    xnext = states[:, 1:, :].transpose(1, 2, 0)
    return StackedData(D=d, Xnext=xnext)


def _check_consistent(model: LtvModel, data: StackedData) -> None:
    if model.N != data.N:
        raise ValueError(f"model covers {model.N} instants, data cover {data.N}")
    if (model.p, model.q) != (data.p, data.q):
        raise ValueError(
            f"model dimensions (p={model.p}, q={model.q}) do not match "
            f"data dimensions (p={data.p}, q={data.q})"
        )


def _residual(model: LtvModel, data: StackedData, sched: LambdaSchedule):
    """Residual blocks D(k) C(k) - Xnext(k)^T (N, L, p), weights, block differences."""
    _check_consistent(model, data)
    res = data.D @ model.C - np.swapaxes(data.Xnext, 1, 2)
    return res, sched.materialize(data.N), model.C[1:] - model.C[:-1]


def _terms(res: Array, lam: Array, dc: Array) -> tuple[float, float]:
    return 0.5 * float(np.sum(res * res)), 0.5 * float(lam @ np.sum(dc * dc, axis=(1, 2)))


def _gradient(data: StackedData, res: Array, lam: Array, dc: Array) -> Array:
    g = np.swapaxes(data.D, 1, 2) @ res
    w = lam[:, None, None] * dc
    g[1:] += w
    g[:-1] -= w
    return g


def cost_terms(model: LtvModel, data: StackedData, sched: LambdaSchedule) -> tuple[float, float]:
    """Fit and smoothness terms of the objective, separately.

    The fit term is 0.5 * sum_k ||D(k) C(k) - Xnext(k)^T||_F^2 (one batched
    matmul) and the smoothness term is 0.5 * sum_{k>=1} lambda_k ||C(k) - C(k-1)||_F^2.
    """
    return _terms(*_residual(model, data, sched))


def cost(model: LtvModel, data: StackedData, sched: LambdaSchedule) -> float:
    """Value of the smoothness-regularized least-squares objective."""
    fit, smooth = cost_terms(model, data, sched)
    return fit + smooth


def gradient(model: LtvModel, data: StackedData, sched: LambdaSchedule) -> Array:
    """Gradient of the objective with respect to the blocks C(k).

    Returns an (N, p+q, p) array; block k holds
    D(k)^T (D(k) C(k) - Xnext(k)^T) (two batched matmuls) plus the smoothness terms
    lambda_k (C(k) - C(k-1)) + lambda_{k+1} (C(k) - C(k+1)), with the
    boundary terms dropped at k = 0 and k = N-1.
    """
    return _gradient(data, *_residual(model, data, sched))


def _cost_and_gradient(model: LtvModel, data: StackedData, sched: LambdaSchedule):
    """``cost`` and ``gradient`` from one residual; bitwise equal to both."""
    parts = _residual(model, data, sched)
    fit, smooth = _terms(*parts)
    return fit + smooth, _gradient(data, *parts)
