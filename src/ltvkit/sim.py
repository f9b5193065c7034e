"""Benchmark plant, simulation, and dataset generation.

The reference plant is a spring-mass-damper whose stiffness and damping
drift sinusoidally in time.  Its continuous-time dynamics are discretized
with a zero-order hold on the input, freezing the coefficients over each
sampling interval (exact for piecewise-constant inputs under frozen
coefficients), all intervals in one batched matrix exponential.
Simulation steps all trajectories of a dataset together, one instant at a
time.  The closed-loop rollout takes the same step, so the two agree bit
for bit, which an associative scan, rounding differently, would not give.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .core import LtvModel, Trajectory, TrajectoryDataset

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
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral):
            raise ValueError(f"horizon N must be an integer, got {self.N!r}")
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.dt <= 0.0:
            raise ValueError(f"sampling period must be positive, got {self.dt}")
        if abs(self.alpha_k) >= 1.0 or abs(self.alpha_c) >= 1.0:
            raise ValueError("modulation depths must stay below 1 in magnitude")
        if self.N < 2:
            raise ValueError(f"horizon must be at least 2 steps, got {self.N}")

    def to_dict(self) -> dict:
        return {
            "mass": self.mass, "k0": self.k0, "c0": self.c0,
            "alpha_k": self.alpha_k, "alpha_c": self.alpha_c, "omega": self.omega,
            "dt": self.dt, "N": self.N, "ltv": self.ltv,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SmdConfig":
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ValueError(f"malformed plant config: {exc}") from None


@dataclass(frozen=True)
class NoiseConfig:
    """Gaussian measurement noise added to recorded states."""

    sigma: float = 0.06
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.sigma, numbers.Real) and 0.0 <= self.sigma < math.inf):
            raise ValueError(f"sigma (noise level) must be a finite nonnegative number, "
                             f"got {self.sigma!r}")


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
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        if self.inputs == "sinusoids" and not self.frequencies:
            raise ValueError("frequencies must list at least one frequency for sinusoidal inputs")

    def to_dict(self) -> dict:
        return {
            "x0": self.x0, "x0_scale": self.x0_scale,
            "inputs": self.inputs, "input_scale": self.input_scale,
            "frequencies": list(self.frequencies),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExcitationSpec":
        known = dict(obj)
        if "frequencies" in known:
            known["frequencies"] = tuple(known["frequencies"])
        try:
            return cls(**known)
        except TypeError as exc:
            raise ValueError(f"malformed excitation config: {exc}") from None


def smd_model(config: SmdConfig) -> LtvModel:
    """Discretize the drifting spring-mass-damper into an LTV model.

    For each step k the continuous coefficients are frozen at t = k dt, and
    the N augmented blocks [[A_c, B_c], [0, 0]] * dt are exponentiated in one
    batched ``expm`` call, so A(k) and B(k) realize an exact zero-order-hold
    step of the frozen dynamics.
    """
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


def _step(a: Array, b: Array, x: Array, u: Array) -> Array:
    """A x + B u for rows x and u; ``closed_loop_rollout`` takes the same step."""
    # np.dot rather than @: on blocks this small its per-call overhead is lower.
    return np.dot(x, a.T) + np.dot(u, b.T)


def _simulate_batch(model: LtvModel, x0: Array, inputs: Array) -> Array:
    """States (N+1, L, p) from initial states x0 (L, p) and inputs (N, L, q)."""
    a_seq, b_seq = model.A_seq, model.B_seq
    states = np.empty((model.N + 1,) + x0.shape)
    states[0] = x0
    for k in range(model.N):
        states[k + 1] = _step(a_seq[k], b_seq[k], states[k], inputs[k])
    return states


def simulate(model: LtvModel, x0, inputs) -> Array:
    """Roll the model forward from x0 under the given input sequence.

    Returns the N+1 visited states as rows, starting with x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    u = np.asarray(inputs, dtype=np.float64)
    if u.ndim == 1 and model.q == 1:
        u = u[:, None]
    if u.ndim == 1 and u.size == 0:
        u = u.reshape(0, model.q)
    if x0.shape != (model.p,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({model.p},)")
    if u.shape != (model.N, model.q):
        raise ValueError(f"inputs have shape {u.shape}, expected ({model.N}, {model.q})")
    return _simulate_batch(model, x0[None], u[:, None])[:, 0]


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
    underlying simulation stays exact.
    """
    if L < 1:
        raise ValueError(f"need at least one trajectory, got L={L}")
    excitation = excitation or ExcitationSpec()
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
    if noise is not None and noise.sigma > 0.0:
        for ell in range(L):
            noise_rng = np.random.default_rng([noise.seed, ell, 1])
            states[:, ell] += noise_rng.normal(0.0, noise.sigma, size=(model.N + 1, model.p))
    return TrajectoryDataset.build(model.p, model.q,
                                   [(states[:, ell], inputs[:, ell]) for ell in range(L)])
