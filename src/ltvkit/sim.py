"""Benchmark plant, simulation, and dataset generation.

The reference plant is a spring-mass-damper whose stiffness and damping
drift sinusoidally in time.  Its continuous-time dynamics are discretized
with a zero-order hold on the input, freezing the coefficients over each
sampling interval (exact for piecewise-constant inputs under frozen
coefficients), all intervals in one batched matrix exponential.
Simulation steps all trajectories of a dataset together, one instant at a
time, with the states as rows: x(k+1)^T = x(k)^T A(k)^T + u(k)^T B(k)^T.
The loop walks views made once before it starts: the model's blocks
C(k)[:p] = A(k)^T and C(k)[p:] = B(k)^T, and the rows of the state and
input buffers.  Each step writes its two products into the next state row
and one scratch row allocated with the buffers, then adds them in place,
and the next step reads the row it wrote.  The closed-loop rollout in
``control`` walks the same views and takes the same ``_step``, so the two
agree bit for bit, which an associative scan, rounding differently, would
not give.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import (LtvModel, SolverError, TrajectoryDataset, _array, _dataclass_record,
                   _finite, _flag, _frozen_array, _integer, _of_type, _require_finite)

Array = np.ndarray

__all__ = [
    "SmdConfig",
    "NoiseConfig",
    "ExcitationSpec",
    "smd_model",
    "simulate",
    "generate_dataset",
]


@dataclass(frozen=True)
class SmdConfig:
    """Spring-mass-damper with sinusoidally drifting coefficients.

    The continuous-time state is [position, velocity] with
    stiffness k(t) = k0 (1 + alpha_k sin(omega t)) and damping
    c(t) = c0 (1 + alpha_c sin(omega t)); ltv=False freezes both at t=0.
    """

    mass: float = 1.0
    k0: float = 1.0
    c0: float = 0.2
    alpha_k: float = 0.5
    alpha_c: float = 0.3
    omega: float = 0.5
    dt: float = 0.1
    N: int = 100
    ltv: bool = True

    def __post_init__(self):
        for name in ("mass", "k0", "c0", "alpha_k", "alpha_c", "omega", "dt"):
            _finite(name, getattr(self, name), positive=name in ("mass", "dt"))
        _integer("horizon N", self.N, 2)
        _flag("ltv", self.ltv)
        for name in ("alpha_k", "alpha_c"):
            if abs(getattr(self, name)) >= 1.0:
                raise ValueError(f"{name} must stay below 1 in magnitude, "
                                 f"got {getattr(self, name)!r}")

    to_dict = asdict

    @classmethod
    def from_dict(cls, obj: dict) -> "SmdConfig":
        return cls(**_dataclass_record(cls, "plant config", obj))


@dataclass(frozen=True)
class NoiseConfig:
    """Gaussian measurement noise added to recorded states."""

    sigma: float = 0.06
    seed: int = 0

    def __post_init__(self):
        _finite("sigma (noise level)", self.sigma, nonnegative=True)
        _integer("noise seed", self.seed, 0)


@dataclass(frozen=True)
class ExcitationSpec:
    """How trajectories are excited: initial state law and input law.

    x0 is drawn uniformly from [-x0_scale, x0_scale]^p or as a zero-mean
    Gaussian with that standard deviation.  Inputs are zero, white
    Gaussian with standard deviation input_scale, or a bank of sinusoids
    sin(f * k + phase) with frequencies in radians per instant and phases
    drawn per channel.
    """

    x0: str = "uniform"
    x0_scale: float = 1.0
    inputs: str = "white"
    input_scale: float = 1.0
    frequencies: tuple[float, ...] = (0.3, 1.1, 2.7)

    def __post_init__(self):
        if self.x0 not in ("uniform", "gaussian"):
            raise ValueError(f"x0 law must be uniform or gaussian, got {self.x0!r}")
        if self.inputs not in ("zero", "white", "sinusoids"):
            raise ValueError(f"input law must be zero/white/sinusoids, got {self.inputs!r}")
        for name in ("x0_scale", "input_scale"):
            _finite(name, getattr(self, name), nonnegative=True)
        object.__setattr__(self, "frequencies", _array("frequencies", self.frequencies, _finite))
        if self.inputs == "sinusoids" and not self.frequencies:
            raise ValueError("frequencies must list at least one frequency for sinusoidal inputs")

    to_dict = asdict

    @classmethod
    def from_dict(cls, obj: dict) -> "ExcitationSpec":
        return cls(**_dataclass_record(cls, "excitation config", obj))


def smd_model(config: SmdConfig) -> LtvModel:
    """Discretize the drifting spring-mass-damper into an LTV model.

    For each step k the continuous coefficients are frozen at t = k dt, and
    the N augmented blocks [[A_c, B_c], [0, 0]] * dt are exponentiated in one
    batched ``expm`` call, so A(k) and B(k) realize an exact zero-order-hold
    step of the frozen dynamics.
    """
    from scipy.linalg import expm  # deferred so that `import ltvkit` does not load scipy
    t = np.arange(config.N) * config.dt if config.ltv else np.zeros(config.N)
    drift = np.sin(config.omega * t)
    kt = config.k0 * (1.0 + config.alpha_k * drift)
    ct = config.c0 * (1.0 + config.alpha_c * drift)
    aug = np.zeros((config.N, 3, 3))
    aug[:, 0, 1] = 1.0
    aug[:, 1, 0] = -kt / config.mass
    aug[:, 1, 1] = -ct / config.mass
    aug[:, 1, 2] = 1.0 / config.mass
    phi = expm(aug * config.dt)
    return LtvModel.from_blocks(phi[:, :2, :2], phi[:, :2, 2:])


def _step(x: Array, u: Array, a_t: Array, b_t: Array, out: Array, scratch: Array) -> None:
    """Store x A^T + u B^T in ``out``, for rows x and u and a_t = A^T, b_t = B^T.

    The one step of ``_simulate_batch`` and of ``closed_loop_rollout``;
    ``scratch`` is a row buffer shaped like ``out`` that holds u B^T.
    """
    # ndarray.dot into given rows skips np.dot's array-function dispatch and
    # allocates no result, yet runs the same product routine: every state
    # stays bitwise what np.add(np.dot(x, a_t), np.dot(u, b_t)) gives.
    x.dot(a_t, out)
    u.dot(b_t, scratch)
    np.add(out, scratch, out)


def _simulate_batch(model: LtvModel, x0: Array, inputs: Array) -> Array:
    """States (N+1, L, p) from initial states x0 (L, p) and inputs (N, L, q).

    A state that leaves the float range runs on through inf and NaN without
    numpy's warnings; each caller tests the states once and refuses them.
    """
    p = model.p
    states = np.empty((model.N + 1,) + x0.shape)
    states[0] = x0
    x, scratch = states[0], np.empty(x0.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for u, a_t, b_t, nxt in zip(inputs, model.C[:, :p], model.C[:, p:], states[1:]):
            _step(x, u, a_t, b_t, nxt, scratch)
            x = nxt
    return states


def simulate(model: LtvModel, x0, inputs) -> Array:
    """Roll the model forward from x0 under the given input sequence.

    Returns the N+1 visited states as rows, starting with x0.  A non-finite
    x0 or input raises ValueError naming it; a simulation that overflows
    float64 raises SolverError naming the first instant whose state is not
    finite.
    """
    x0 = _frozen_array(x0, "initial state entries")
    u = _frozen_array(inputs, "inputs")
    if u.ndim == 1 and model.q == 1:
        u = u[:, None]
    if x0.shape != (model.p,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({model.p},)")
    if u.shape != (model.N, model.q):
        raise ValueError(f"inputs have shape {u.shape}, expected ({model.N}, {model.q})")
    _require_finite(f"initial state {x0.tolist()} is not finite", x0)
    _require_finite("inputs at instant {0} are not finite", u)
    states = _simulate_batch(model, x0[None], u[:, None])[:, 0]
    _require_finite("the simulation overflows at instant {0}", states, error=SolverError)
    return states


def _draw_inputs(spec: ExcitationSpec, rng: np.random.Generator, n: int, q: int) -> Array:
    if spec.inputs == "zero" or q == 0:
        return np.zeros((n, q))
    if spec.inputs == "white":
        return rng.normal(0.0, spec.input_scale, size=(n, q))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(len(spec.frequencies), q))
    k = np.arange(n)[:, None, None]
    waves = np.sin(np.asarray(spec.frequencies)[None, :, None] * k + phases[None, :, :])
    return spec.input_scale * waves.sum(axis=1)


def generate_dataset(model: LtvModel, L: int, excitation: Optional[ExcitationSpec] = None,
                     noise: Optional[NoiseConfig] = None, seed: int = 0) -> TrajectoryDataset:
    """Simulate L independently excited trajectories of a model.

    Each trajectory l draws its initial state and inputs from a stream
    seeded by (seed, l), and measurement noise, when configured, from a
    stream seeded by (noise.seed, l); generation order therefore does not
    affect the result.  All L trajectories are then stepped together, one
    instant at a time.  Noise is added to the recorded states only, the
    underlying simulation stays exact.  A simulation that overflows float64
    raises SolverError naming the first instant whose state is not finite;
    a model of one instant, which gives no dataset, or an excitation or
    noise that is not an ExcitationSpec or a NoiseConfig (None gives the
    default or no noise) raises ValueError before anything is simulated.
    """
    _integer("seed", seed, 0)
    _integer("L (trajectory count)", L, 1)
    if model.N < 2:
        raise ValueError(f"a dataset needs at least two instants, got a model with N = {model.N}")
    if excitation is None:
        excitation = ExcitationSpec()
    _of_type("excitation", excitation, ExcitationSpec)
    if noise is not None:
        _of_type("noise", noise, NoiseConfig)
    x0 = np.empty((L, model.p))
    inputs = np.empty((model.N, L, model.q))
    for ell in range(L):
        rng = np.random.default_rng([seed, ell, 0])
        if excitation.x0 == "uniform":
            x0[ell] = rng.uniform(-excitation.x0_scale, excitation.x0_scale, size=model.p)
        else:
            x0[ell] = rng.normal(0.0, excitation.x0_scale, size=model.p)
        inputs[:, ell] = _draw_inputs(excitation, rng, model.N, model.q)
    states = _simulate_batch(model, x0, inputs)
    _require_finite("the simulation overflows at instant {0}", states, error=SolverError)
    if noise is not None and noise.sigma > 0.0:
        for ell in range(L):
            noise_rng = np.random.default_rng([noise.seed, ell, 1])
            states[:, ell] += noise_rng.normal(0.0, noise.sigma, size=(model.N + 1, model.p))
    states.setflags(write=False)  # so that build keeps its views and the dataset
    inputs.setflags(write=False)  # copies each sample once, into its samples
    return TrajectoryDataset.build(model.p, model.q,
                                   [(states[:, ell], inputs[:, ell]) for ell in range(L)])
