"""ltvkit: fit, check, and control discrete-time linear time-variant systems."""

from .control import (GainSchedule, LqrWeights, RolloutResult, SingularInputCost,
                      TrackingStats, closed_loop_rollout, lqr_synthesize,
                      position_coordinates, tracking_stats)
from .core import (LambdaSchedule, LtvModel, StackedData, Trajectory,
                   TrajectoryDataset, assemble_stacked, cost, cost_terms, gradient)
from .diagnostics import (MultiplyCount, SufficiencyReport, covariance_sufficiency,
                          estimation_error, prediction_error, predicted_multiply_count)
from .sim import (ExcitationSpec, NoiseConfig, SmdConfig, generate_dataset,
                  simulate, smd_model)
from .solvers import (SingularBlock, SizeGuard, SolveOptions, SolveReport, SolverError,
                      TridiagonalSystem, build_system, cosmic_solve, oracle_solve,
                      sbcd_solve)

__version__ = "0.1.0"

__all__ = [
    "GainSchedule", "LqrWeights", "RolloutResult", "SingularInputCost",
    "TrackingStats", "closed_loop_rollout", "lqr_synthesize",
    "position_coordinates", "tracking_stats",
    "LambdaSchedule", "LtvModel", "StackedData", "Trajectory",
    "TrajectoryDataset", "assemble_stacked", "cost", "cost_terms", "gradient",
    "MultiplyCount", "SufficiencyReport", "covariance_sufficiency",
    "estimation_error", "prediction_error", "predicted_multiply_count",
    "ExcitationSpec", "NoiseConfig", "SmdConfig", "generate_dataset",
    "simulate", "smd_model",
    "SingularBlock", "SizeGuard", "SolveOptions", "SolveReport", "SolverError",
    "TridiagonalSystem", "build_system", "cosmic_solve", "oracle_solve",
    "sbcd_solve",
    "__version__",
]
