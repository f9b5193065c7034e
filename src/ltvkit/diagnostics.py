"""Data sufficiency checks, error metrics, and solver cost prediction.

A dataset identifies the fitting problem uniquely exactly when the summed
empirical covariance of the stacked state-input samples is positive
definite, or equivalently when the stacked sample rows have full column
rank.  Both checks are provided, together with the per-instant textbook
multiply count of the closed-form recursion, which ``cosmic_solve``
reports in accounting mode, and the error metrics used for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import LtvModel, Trajectory, TrajectoryDataset
from .sim import simulate

Array = np.ndarray

__all__ = [
    "SufficiencyReport",
    "MultiplyCount",
    "covariance_sufficiency",
    "rank_condition",
    "predicted_multiply_count",
    "estimation_error",
    "prediction_error",
]


@dataclass(frozen=True)
class SufficiencyReport:
    """Outcome of the covariance sufficiency check."""

    sigma: Array
    min_eigenvalue: float
    sufficient: bool
    rank: int
    tolerance: float
    per_trajectory_sigmas: Optional[tuple[Array, ...]] = None

    def to_dict(self) -> dict:
        return {
            "sufficient": self.sufficient,
            "min_eigenvalue": self.min_eigenvalue,
            "rank": self.rank,
            "tolerance": self.tolerance,
            "sigma": self.sigma.tolist(),
        }


class MultiplyCount(NamedTuple):
    total: int
    forward: int
    backward: int


def _sample_matrix(tr: Trajectory, n: int) -> Array:
    """Stacked sample rows [x(k)^T, u(k)^T] for k = 0 .. N-1."""
    return np.concatenate([tr.states[:n], tr.inputs], axis=1)


def covariance_sufficiency(dataset: TrajectoryDataset, tol: Optional[float] = None,
                           per_trajectory: bool = False) -> SufficiencyReport:
    """Check whether the summed empirical covariance is positive definite.

    Each trajectory contributes Sigma_l = (1/N) sum_k z(k) z(k)^T over its
    samples z(k) = [x(k); u(k)], k = 0 .. N-1, and the check requires the
    sum of all Sigma_l to have its smallest eigenvalue above ``tol``
    (default 1e-10 * trace / (p+q); a finite ``tol`` below the smallest
    normal float is raised to it, a non-finite one raises ValueError).  A
    sufficient dataset guarantees the fitting problem has a unique solution
    for any positive smoothness schedule.
    """
    if tol is not None and not math.isfinite(tol):
        raise ValueError(f"tol must be a finite number, got {tol}")
    m = dataset.p + dataset.q
    sigmas = []
    sigma = np.zeros((m, m))
    for tr in dataset.trajectories:
        z = _sample_matrix(tr, dataset.N)
        s = (z.T @ z) / dataset.N
        sigma += s
        if per_trajectory:
            sigmas.append(s)
    w = np.linalg.eigvalsh(sigma)
    if tol is None:
        tol = 1e-10 * float(np.trace(sigma)) / m
    tol = max(float(tol), float(np.finfo(np.float64).tiny))
    return SufficiencyReport(
        sigma=sigma,
        min_eigenvalue=float(w[0]),
        sufficient=bool(w[0] > tol),
        rank=int(np.sum(w > tol)),
        tolerance=tol,
        per_trajectory_sigmas=tuple(sigmas) if per_trajectory else None,
    )


def rank_condition(dataset: TrajectoryDataset, tol: Optional[float] = None) -> tuple[bool, int]:
    """Numerical rank of the stacked sample rows across all trajectories.

    Returns (satisfied, rank) where satisfied means the (N*L) x (p+q)
    stack has full column rank.  The default tolerance is
    max(N*L, p+q) * eps * sigma_max, the usual rank cutoff for the
    machine precision eps.
    """
    rows = np.concatenate(
        [_sample_matrix(tr, dataset.N) for tr in dataset.trajectories], axis=0
    )
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False, 0
    if tol is None:
        tol = max(rows.shape) * np.finfo(np.float64).eps * float(s[0])
    rank = int(np.sum(s > tol))
    return rank == dataset.p + dataset.q, rank


def predicted_multiply_count(N: int, p: int, q: int) -> MultiplyCount:
    """Per-instant textbook multiply count of the closed-form recursion.

    This is the count ``cosmic_solve`` reports with
    ``SolveOptions(accounting=True)``, split by pass.  The forward pass
    charges one (p+q)^3 block inversion, two scalar-matrix products of
    (p+q)^2, and one (p+q) x (p+q) by (p+q) x p product per instant; the
    backward pass charges one scalar-matrix product and one block product
    per instant.  The total is N * ((p+q)^3 + (2p+3)(p+q)^2), independent
    of the trajectory count.
    """
    if N < 1 or p < 1 or q < 0:
        raise ValueError(f"invalid shape N={N}, p={p}, q={q}")
    m = p + q
    forward = N * (m**3 + (p + 2) * m * m)
    backward = N * ((p + 1) * m * m)
    return MultiplyCount(total=forward + backward, forward=forward, backward=backward)


def estimation_error(estimated: LtvModel, truth: LtvModel) -> float:
    """Frobenius norm of the stacked coefficient difference."""
    if (estimated.N, estimated.p, estimated.q) != (truth.N, truth.p, truth.q):
        raise ValueError(
            f"models disagree on dimensions: "
            f"({estimated.N}, {estimated.p}, {estimated.q}) vs ({truth.N}, {truth.p}, {truth.q})"
        )
    return float(np.linalg.norm(estimated.C - truth.C))


def prediction_error(model: LtvModel, trajectory: Trajectory, mode: str = "one-step") -> Array:
    """Per-step state prediction errors of a model on a held-out trajectory.

    In "one-step" mode each prediction starts from the recorded state
    x(k); in "rollout" mode the model propagates its own prediction from
    x(0) by ``simulate``.  Returns the N Euclidean errors against x(k+1).
    """
    states = trajectory.states
    inputs = trajectory.inputs
    n = inputs.shape[0]
    if states.shape != (n + 1, model.p) or inputs.shape[1] != model.q:
        raise ValueError(
            f"trajectory shapes {states.shape}/{inputs.shape} do not match "
            f"model dimensions p={model.p}, q={model.q}"
        )
    if model.N != n:
        raise ValueError(f"model covers {model.N} instants, trajectory has {n}")
    if mode == "one-step":
        pred = (model.A_seq @ states[:-1, :, None] + model.B_seq @ inputs[:, :, None])[:, :, 0]
    elif mode == "rollout":
        pred = simulate(model, states[0], inputs)[1:]
    else:
        raise ValueError(f"mode must be one-step or rollout, got {mode!r}")
    return np.linalg.norm(pred - states[1:], axis=1)
