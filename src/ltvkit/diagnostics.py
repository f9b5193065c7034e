"""Data sufficiency checks, error metrics, and solver cost prediction.

A dataset identifies the fitting problem uniquely exactly when the summed
empirical covariance of the stacked state-input samples is positive
definite.  ``covariance_sufficiency`` decides that on the covariance
rescaled to unit diagonal, so its verdict does not depend on units.  The
module also gives the per-instant textbook multiply count of the
closed-form recursion, which ``cosmic_solve`` reports in accounting mode,
and the error metrics used for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .core import (LtvModel, SolverError, Trajectory, TrajectoryDataset, _finite, _integer,
                   _require_finite, assemble_stacked)
from .sim import _simulate_batch

Array = np.ndarray

__all__ = [
    "SufficiencyReport",
    "MultiplyCount",
    "covariance_sufficiency",
    "predicted_multiply_count",
    "estimation_error",
    "prediction_error",
]


@dataclass(frozen=True, eq=False)
class SufficiencyReport:
    """Outcome of the covariance sufficiency check.

    ``sigma`` and ``min_eigenvalue`` are raw; ``rank``, ``sufficient`` and
    ``tolerance`` refer to the unit-diagonal rescaling of ``sigma``, whose
    smallest eigenvalue is ``scaled_min_eigenvalue`` (0.0 when a coordinate
    never varies).  ``to_dict()`` writes every field, ``sigma`` as nested
    lists; the field order is the JSON key order.
    """

    sufficient: bool
    min_eigenvalue: float
    scaled_min_eigenvalue: float
    rank: int
    tolerance: float
    sigma: Array

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"sigma": self.sigma.tolist()}


class MultiplyCount(NamedTuple):
    total: int
    forward: int
    backward: int


def covariance_sufficiency(dataset: TrajectoryDataset,
                           tol: Optional[float] = None) -> SufficiencyReport:
    """Check whether the summed empirical covariance is positive definite.

    Each trajectory contributes Sigma_l = (1/N) sum_k z(k) z(k)^T over its
    samples z(k) = [x(k); u(k)], k = 0 .. N-1; the sum is one product over
    the fit's regressors, ``assemble_stacked``'s D, without a copy.  The
    verdict is taken on the sum Sigma rescaled to unit diagonal,
    D^(-1/2) Sigma D^(-1/2) with D = diag(Sigma), over the coordinates that
    vary: ``rank`` counts its eigenvalues above ``tol`` (default 1e-10; a
    finite ``tol`` below the smallest normal float is raised to it, a
    non-finite one raises ValueError), a coordinate that never varies adds
    nothing, and the data are sufficient when the rank is p+q.  The
    rescaling is the one the solver's pivot test is invariant under (van der
    Sluis, Numer. Math. 14, 1969), so a change of units does not move the
    verdict.  A sufficient dataset guarantees the fitting problem has a
    unique solution for any positive smoothness schedule.  Data whose
    covariance overflows float64 raise ValueError.
    """
    if tol is not None:
        _finite("tol", tol)
    m = dataset.p + dataset.q
    z = assemble_stacked(dataset).D.reshape(-1, m)  # a view, one row per sample
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = (z.T @ z) / dataset.N
    _require_finite("the sample covariance overflows float64: rescale the data", sigma)
    tol = max(1e-10 if tol is None else float(tol), float(np.finfo(np.float64).tiny))
    scale = np.sqrt(np.diagonal(sigma))
    varies = scale > 0.0
    s = scale[varies]
    # Divided one factor at a time, so that s_i s_j cannot underflow.
    w = np.linalg.eigvalsh(sigma[varies][:, varies] / s[:, None] / s)
    rank = int(np.sum(w > tol))
    return SufficiencyReport(
        sigma=sigma,
        min_eigenvalue=float(np.linalg.eigvalsh(sigma)[0]),
        scaled_min_eigenvalue=float(w[0]) if varies.all() else 0.0,
        sufficient=rank == m,
        rank=rank,
        tolerance=tol,
    )


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
    _integer("horizon N", N, 1)
    _integer("state dimension p", p, 1)
    _integer("input dimension q", q, 0)
    m = p + q
    forward = N * (m**3 + (p + 2) * m * m)
    backward = N * ((p + 1) * m * m)
    return MultiplyCount(total=forward + backward, forward=forward, backward=backward)


def estimation_error(estimated: LtvModel, truth: LtvModel) -> float:
    """Frobenius norm of the stacked coefficient difference.

    A norm that overflows float64 raises SolverError naming the first
    instant whose block difference has no finite norm, or, when every
    block's has one, saying that their sum overflows.
    """
    if (estimated.N, estimated.p, estimated.q) != (truth.N, truth.p, truth.q):
        raise ValueError(
            f"models disagree on dimensions: "
            f"({estimated.N}, {estimated.p}, {estimated.q}) vs ({truth.N}, {truth.p}, {truth.q})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        diff = estimated.C - truth.C
        error = float(np.linalg.norm(diff))
        if not math.isfinite(error):  # only a failure pays for the per-block norms
            _require_finite("the estimation error overflows at instant {0}",
                            np.linalg.norm(diff, axis=(1, 2)), error=SolverError)
            raise SolverError("the estimation error overflows")
    return error


def prediction_error(model: LtvModel, trajectory: Trajectory, mode: str = "one-step") -> Array:
    """Per-step state prediction errors of a model on a held-out trajectory.

    In "one-step" mode each prediction starts from the recorded state
    x(k); in "rollout" mode the model propagates its own prediction from
    x(0), stepping as ``simulate`` does.  Returns the N Euclidean errors
    against x(k+1); an error that overflows float64 raises SolverError
    naming its instant k.
    """
    if mode not in ("one-step", "rollout"):
        raise ValueError(f"mode must be one-step or rollout, got {mode!r}")
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
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "one-step":
            pred = (model.A_seq @ states[:-1, :, None] + model.B_seq @ inputs[:, :, None])[:, :, 0]
        else:
            pred = _simulate_batch(model, states[:1], inputs[:, None])[1:, 0]
        errors = np.linalg.norm(pred - states[1:], axis=1)
    _require_finite(f"the {mode} prediction overflows at instant {{0}}", errors, error=SolverError)
    return errors
