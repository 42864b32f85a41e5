"""Desk-scale optimization benchmarks: polynomial programming, mean-field
variational inference for a Gaussian mixture, and Sudoku completion."""

from .adam import AdamState, adam_step
from .polyprog import PolyProgProblem, exact_polyprog_loss, polyprog_loss
from .gmm import GmmProblem, clustering_accuracy, exact_objective_value, gmm_generate
from .sudoku import SudokuProblem, generate_puzzles, parse_puzzles
from .runner import run_benchmark, write_summary_json, write_trace_csv

__all__ = [
    "AdamState",
    "adam_step",
    "PolyProgProblem",
    "polyprog_loss",
    "exact_polyprog_loss",
    "GmmProblem",
    "gmm_generate",
    "exact_objective_value",
    "clustering_accuracy",
    "SudokuProblem",
    "generate_puzzles",
    "parse_puzzles",
    "run_benchmark",
    "write_trace_csv",
    "write_summary_json",
]
