"""Evaluation: recall metrics + the paper's table sweeps (Sec 6)."""
from repro.eval.recall import recall_at_k, recall_table
from repro.eval.experiments import ExperimentResult, run_lanns_experiment

__all__ = [
    "recall_at_k",
    "recall_table",
    "ExperimentResult",
    "run_lanns_experiment",
]
