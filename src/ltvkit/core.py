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
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
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


class SolverError(Exception):
    """Base of the numerical failures; ``ltvkit.solvers.SolverError`` is this class."""


def _list_array(values: list) -> Array:
    """A nested list as an array built from its flattened entries.

    The entries are checked one by one on the way: numpy would read a
    boolean among numbers as 0 or 1, so one raises TypeError.  Ragged
    nesting raises ValueError or TypeError.
    """
    shape, flat = [len(values)], values
    while flat and isinstance(flat[0], list):
        widths = set(map(len, flat))
        if len(widths) != 1:
            raise ValueError("ragged nesting")
        shape.append(widths.pop())
        flat = list(chain.from_iterable(flat))
    if bool in set(map(type, flat)):
        raise TypeError(bool)
    arr = np.array(flat)
    return arr.reshape(shape + list(arr.shape[1:]))


def _frozen_array(values, what: str = "values") -> Array:
    """``values`` as a read-only float64 array; ValueError if not numeric.

    An array that is already read-only float64 all the way down to its base
    is kept as given, views and memory layout included, so that holding it
    costs no copy.  Any other ndarray, a read-only view of a writeable one
    among them, is copied into a new read-only C-ordered array, so that no
    later write by the caller reaches it.  Lists and other array-likes are
    converted into a new array.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        base = values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            if base.base is None:
                return values
            base = base.base
    try:
        arr = _list_array(values) if isinstance(values, list) else np.asarray(values)
        if arr.dtype.kind not in "iuf":
            raise TypeError(arr.dtype)
    except (ValueError, TypeError):  # ragged rows; strings, booleans or None as entries
        raise ValueError(f"{what} are not a numeric array") from None
    out = arr.astype(np.float64, order="C", copy=isinstance(values, np.ndarray))
    out.setflags(write=False)
    return out


# The rules every JSON record, config and spec is read by: objects, arrays,
# integers, finite numbers, instances of a given type and booleans.


def _record(what: str, obj, required=(), known=None) -> dict:
    """``obj`` if it is a JSON object holding every ``required`` key and, when
    ``known`` is given, no other key; ValueError naming ``what`` otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {what}: expected a JSON object, got {type(obj).__name__}")
    unknown = [] if known is None else sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"malformed {what}: unknown keys {unknown}")
    for key in required:
        if key not in obj:
            raise ValueError(f"malformed {what}: {key} is required")
    return obj


def _dataclass_record(cls, what: str, obj, json_names=None) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a JSON object with one
    key per field, named as the field unless ``json_names`` maps it to another
    key.  Unknown keys are rejected; fields without a default are required."""
    by_key = {(json_names or {}).get(f.name, f.name): f for f in fields(cls)}
    required = [key for key, f in by_key.items()
                if f.default is MISSING and f.default_factory is MISSING]
    _record(what, obj, required, known=by_key)
    return {by_key[key].name: value for key, value in obj.items()}


def _array(name: str, values, check=None) -> tuple:
    """``values`` as a tuple if it is a JSON array (a list, tuple or numpy array),
    each entry passed through ``check(f"{name} entry", entry)`` if given."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return tuple(values if check is None else (check(f"{name} entry", v) for v in values))


def _integer(name: str, value, minimum=None):
    """``value`` if it is an integer (and >= ``minimum`` when given); bools,
    floats and strings raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        rule = "a nonnegative integer" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _in_float_range(value) -> bool:
    """Whether the real number ``value`` is finite in float64: compared
    exactly for integers of any size, and without casting float64's bound
    to a narrower numpy float, where it would overflow to infinity."""
    if isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


def _finite(name: str, value, nonnegative: bool = False, positive: bool = False):
    """``value`` if it is a real number of float64 range (and >= 0 when
    ``nonnegative``, > 0 when ``positive``); NaN, infinities, bools and
    strings raise ValueError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not _in_float_range(value)
            or (nonnegative and value < 0) or (positive and value <= 0)):
        kind = ("finite number > 0" if positive
                else "finite nonnegative number" if nonnegative else "finite number")
        raise ValueError(f"{name} must be a {kind}, got {value!r}")
    return value


def _of_type(name: str, value, cls):
    """``value`` if it is an instance of ``cls``; anything else raises ValueError."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _flag(name: str, value) -> bool:
    """``value`` if it is a bool; anything else, truthy or not, raises ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean, got {value!r}")
    return value


# The largest smoothness weight whose square is finite.  Cyclic reduction
# never forms lambda^2, but SBCD's stopping test sums the squares of a
# gradient that grows with lambda, and overflows past this bound (at 1e160).
_LAMBDA_MAX = math.sqrt(sys.float_info.max)


def _first_nonfinite(values: Array):
    """Index tuple of the first non-finite entry of ``values``, or None."""
    finite = np.isfinite(values)
    return None if finite.all() else np.unravel_index(finite.argmin(), finite.shape)


def _require_finite(message: str, *series, error=ValueError) -> None:
    """Raise ``error(message.format(*index))`` if an entry of ``series`` (arrays
    or numbers) is not finite, ``index`` being the least index of such an entry
    over all of them; with one entry or row per instant, ``{0}`` names an instant.
    Non-finite data and results are refused here, settings by ``_finite``."""
    bad = [index for index in map(_first_nonfinite, series) if index is not None]
    if bad:
        raise error(message.format(*min(bad)))


def _check_weight(value) -> None:
    _finite("smoothness weight", value, positive=True)
    if float(value) > _LAMBDA_MAX:
        raise ValueError(
            f"smoothness weight {value} is too large: its square overflows "
            f"(the limit is {_LAMBDA_MAX:.6g})"
        )


def _breakpoint(name: str, entry) -> tuple[int, float]:
    """A zoned schedule's [start instant, weight] pair, checked."""
    pair = _array(name, entry)
    if len(pair) != 2:
        raise ValueError(f"{name} must be a [start instant, weight] pair, got {entry!r}")
    _check_weight(pair[1])
    return _integer(f"{name} start instant", pair[0]), pair[1]


def _coerce_rows(values, width: int, name: str, traj: int) -> Array:
    """Convert a row sequence to a float64 matrix, naming ragged rows."""
    try:
        arr = _frozen_array(values, f"trajectory {traj}: {name}")
    except ValueError:
        for k, row in enumerate(values if isinstance(values, (list, tuple)) else ()):
            if np.size(row) != width:
                raise ValueError(
                    f"trajectory {traj}: {name} at instant {k} has "
                    f"dimension {np.size(row)}, expected {width}"
                ) from None
        raise
    if arr.ndim == 1 and width == 1:
        arr = arr[:, None]
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, width)
    if arr.ndim != 2:
        raise ValueError(f"trajectory {traj}: {name} must be a matrix of rows")
    return arr


def _refuse_nonfinite(trajectories) -> None:
    """ValueError naming the first trajectory, states before inputs, and the
    first instant within that array, that holds a non-finite value."""
    for ell, tr in enumerate(trajectories):
        _require_finite(f"trajectory {ell}: states at instant {{0}} are not finite", tr.states)
        _require_finite(f"trajectory {ell}: inputs at instant {{0}} are not finite", tr.inputs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One recorded run: states x(0..N) and inputs u(0..N-1), rows per instant
    (in a dataset, read-only views into its ``samples``)."""

    states: Array
    inputs: Array

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen_array(self.states))
        object.__setattr__(self, "inputs", _frozen_array(self.inputs))
        if self.states.ndim != 2 or self.inputs.ndim != 2:
            raise ValueError("trajectory states and inputs must be 2-D arrays")


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """A set of L trajectories sharing dimensions p, q and horizon N.

    Every trajectory carries N+1 states and N inputs; N is the number of
    transitions.  Instances are immutable after construction.

    The constructor writes every sample once, into the read-only
    (N+1, L, p+q) array ``samples``: row k holds [x_l(k)^T, u_l(k)^T] for
    each trajectory l, and the last row's inputs, which no instant uses, are
    zero.  ``trajectories`` become views into it, and so do the fit's
    stacks and the sufficiency check's samples, so no sample is held twice.
    """

    p: int
    q: int
    N: int
    trajectories: tuple[Trajectory, ...]
    samples: Array = field(init=False, repr=False)

    def __post_init__(self):
        trajs = _array("trajectories", self.trajectories,
                       lambda name, v: _of_type(name, v, Trajectory))
        _integer("state dimension p", self.p, 1)
        _integer("input dimension q", self.q, 0)
        _integer("horizon N", self.N, 2)
        if not trajs:
            raise ValueError("dataset needs at least one trajectory")
        p = self.p
        samples = np.empty((self.N + 1, len(trajs), p + self.q))
        for ell, tr in enumerate(trajs):
            for name, values, rows in (("states", tr.states, samples[:, ell, :p]),
                                       ("inputs", tr.inputs, samples[:-1, ell, p:])):
                if values.shape != rows.shape:
                    _refuse_nonfinite(trajs[:ell])  # earlier trajectories are named first
                    raise ValueError(f"trajectory {ell}: {name} have shape {values.shape}, "
                                     f"expected {rows.shape}")
                rows[...] = values
        samples[-1, :, p:] = 0.0
        if not np.isfinite(samples).all():
            _refuse_nonfinite(trajs)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "trajectories", tuple(
            Trajectory(states=s[:, :p], inputs=s[:-1, p:]) for s in samples.swapaxes(0, 1)))

    @property
    def L(self) -> int:
        return len(self.trajectories)

    @classmethod
    def build(cls, p: int, q: int, pairs: Iterable[tuple]) -> "TrajectoryDataset":
        """Construct a dataset from (states, inputs) pairs of array-likes.

        ``inputs`` may be None when q == 0.  The horizon is inferred from
        the first trajectory.
        """
        _integer("state dimension p", p, 1)
        _integer("input dimension q", q, 0)
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
        _record("dataset record", obj, ("p", "q", "N", "trajectories"))
        n = _integer("N", obj["N"])
        records = [_record(f"trajectory {ell}", r, ("states", "inputs"))
                   for ell, r in enumerate(_array("trajectories", obj["trajectories"]))]
        ds = cls.build(obj["p"], obj["q"], ((r["states"], r["inputs"]) for r in records))
        if ds.N != n:
            raise ValueError(f"dataset declares N={n} but trajectories carry N={ds.N}")
        return ds


@dataclass(frozen=True, eq=False)
class StackedData:
    """Per-instant regressor stacks over a dataset: the solvers' input.

    D[k] has one row [x_l(k)^T, u_l(k)^T] per trajectory l, and Xnext[k]
    has the successor state x_l(k+1) in column l.  Both are held by
    ``_frozen_array``'s rule (read-only arrays are kept as given, others
    copied) and checked for shape and finiteness, except in a stack from
    ``assemble_stacked``, whose dataset has checked every sample.
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
        _require_finite("trajectory {1}: regressors at instant {0} are not finite", self.D)
        _require_finite("trajectory {2}: successor states at instant {0} are not finite",
                        self.Xnext)

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


@dataclass(frozen=True, eq=False)
class LtvModel:
    """A discrete-time LTV model stored as finite blocks C(k) = [A(k)^T; B(k)^T]."""

    p: int
    q: int
    N: int
    C: Array  # (N, p+q, p)

    def __post_init__(self):
        _integer("state dimension p", self.p, 1)
        _integer("input dimension q", self.q, 0)
        _integer("horizon N", self.N, 1)
        object.__setattr__(self, "C", _frozen_array(self.C, "model coefficients"))
        if self.C.shape != (self.N, self.p + self.q, self.p):
            raise ValueError(
                f"coefficient stack has shape {self.C.shape}, "
                f"expected ({self.N}, {self.p + self.q}, {self.p})"
            )
        _require_finite("model coefficients at instant {0} are not finite", self.C)

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
        a = _frozen_array(A_seq, "A matrices")
        b = _frozen_array(B_seq, "B matrices")
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[1] != b.shape[1]:
            raise ValueError("A and B stacks must share the instant and state axes")
        n, p, q = a.shape[0], a.shape[1], b.shape[2]
        c = np.empty((n, p + q, p))
        c[:, :p], c[:, p:] = a.mT, b.mT
        c.setflags(write=False)  # so that the model holds it without a copy
        return cls(p=p, q=q, N=n, C=c)

    @classmethod
    def constant(cls, A, B, N: int) -> "LtvModel":
        """Repeat a single (A, B) pair over N instants."""
        _integer("horizon N", N, 1)
        a = _frozen_array(A, "A matrices")
        b = _frozen_array(B, "B matrices")
        return cls.from_blocks(np.broadcast_to(a, (N,) + a.shape), np.broadcast_to(b, (N,) + b.shape))

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "N": self.N, "C": self.C.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "LtvModel":
        _record("model record", obj, ("p", "q", "N", "C"))
        return cls(p=obj["p"], q=obj["q"], N=obj["N"], C=obj["C"])


@dataclass(frozen=True, eq=False)
class LambdaSchedule:
    """Smoothness weights 0 < lambda_k <= sqrt(float max) for k = 1 .. N-1.

    The upper bound, about 1.34e154, is the largest weight whose square is
    finite.  Cyclic reduction never squares a weight, but SBCD's stopping
    test overflows past the bound, so every route keeps it.

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
            zones = _array("zones", self.zones, _breakpoint)
            if not zones:
                raise ValueError("zoned schedule needs at least one breakpoint")
            object.__setattr__(self, "zones", zones)
            if zones[0][0] != 1:
                raise ValueError(f"zones must start at instant 1, got {zones[0][0]}")
            for (ka, _), (kb, _) in zip(zones, zones[1:]):
                if kb <= ka:
                    raise ValueError("zoned schedule breakpoints must be strictly increasing")
        elif self.kind == "per_instant":
            vals = _frozen_array(self.values, "smoothness weights")
            object.__setattr__(self, "values", vals)
            if vals.ndim != 1 or vals.size == 0:
                raise ValueError("per-instant schedule must be a nonempty vector")
            bad = ~((vals > 0.0) & (vals <= _LAMBDA_MAX))
            if bad.any():
                _check_weight(float(vals[bad.argmax()]))
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def scalar(cls, value: float) -> "LambdaSchedule":
        return cls(kind="scalar", value=value)

    @classmethod
    def zoned(cls, zones: Sequence[tuple[int, float]]) -> "LambdaSchedule":
        return cls(kind="zoned", zones=zones)

    @classmethod
    def per_instant(cls, values) -> "LambdaSchedule":
        return cls(kind="per_instant", values=values)

    def materialize(self, N: int) -> Array:
        """Weights as a vector of length N-1; entry i holds lambda_{i+1}."""
        _integer("horizon N", N, 2)
        if self.kind == "scalar":
            return np.full(N - 1, self.value, dtype=np.float64)
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
        builders = {"scalar": cls.scalar, "zones": cls.zoned, "per_instant": cls.per_instant}
        keys = sorted(_record("schedule record", obj))
        if len(keys) != 1 or keys[0] not in builders:
            raise ValueError(f"schedule record must have exactly one of scalar/zones/per_instant, got {keys}")
        return builders[keys[0]](obj[keys[0]])


def assemble_stacked(dataset: TrajectoryDataset) -> StackedData:
    """A dataset's per-instant regressor stacks, as views of its samples: D is
    the first N rows of ``dataset.samples`` and Xnext the (N, p, L) view of
    the states in its last N rows, so stacking allocates nothing."""
    samples = dataset.samples
    # Unchecked: the dataset's constructor tested and froze every sample,
    # and the two views agree in shape by construction.
    data = object.__new__(StackedData)
    object.__setattr__(data, "D", samples[:-1])
    object.__setattr__(data, "Xnext", samples[1:, :, :dataset.p].transpose(0, 2, 1))
    return data


def _check_consistent(model: LtvModel, data: StackedData) -> None:
    if model.N != data.N:
        raise ValueError(f"model covers {model.N} instants, data cover {data.N}")
    if (model.p, model.q) != (data.p, data.q):
        raise ValueError(
            f"model dimensions (p={model.p}, q={model.q}) do not match "
            f"data dimensions (p={data.p}, q={data.q})"
        )


def _residual(model: LtvModel, data: StackedData, sched: LambdaSchedule):
    """Residual blocks D(k) C(k) - Xnext(k)^T (N, L, p), formed in the
    product's own memory, weights, block differences."""
    _check_consistent(model, data)
    res = data.D @ model.C
    np.subtract(res, data.Xnext.mT, out=res)
    return res, sched.materialize(data.N), model.C[1:] - model.C[:-1]


def _terms(res: Array, lam: Array, dc: Array) -> tuple[float, float]:
    res *= res  # squared in place: callers are done with both arrays
    dc *= dc
    return 0.5 * float(np.sum(res)), 0.5 * float(lam @ np.sum(dc, axis=(1, 2)))


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
    """``cost`` and ``gradient`` from one residual, the gradient first; bitwise equal to both."""
    parts = _residual(model, data, sched)
    grad = _gradient(data, *parts)
    fit, smooth = _terms(*parts)
    return fit + smooth, grad
