"""Approximate MAP estimation in pairwise MRFs via QP message passing."""

from .common import SolverConfig, SolveReport, TraceRecord
from .generators import IsingSpec, gen_ising_grid, gen_random_mrf
from .model import (
    DegenerateNodeError,
    InvalidAssignmentError,
    ModelError,
    PairwiseMRF,
    UnsupportedModelError,
    evaluate_assignment,
    prepare_model,
)
from .uai import UaiParseError, parse_uai, write_uai
from .cccp import solve
from .convex import solve_convex
from .gpem import solve_gp
from .maxproduct import solve_mp

__all__ = [
    "SolverConfig",
    "SolveReport",
    "TraceRecord",
    "IsingSpec",
    "gen_ising_grid",
    "gen_random_mrf",
    "DegenerateNodeError",
    "InvalidAssignmentError",
    "ModelError",
    "PairwiseMRF",
    "UnsupportedModelError",
    "evaluate_assignment",
    "prepare_model",
    "UaiParseError",
    "parse_uai",
    "write_uai",
    "solve",
    "solve_convex",
    "solve_gp",
    "solve_mp",
]

__version__ = "0.1.0"
