"""Evaluation: recall metrics + the table-reproduction harness."""
from repro.eval.recall import recall_at_k, recall_table
from repro.eval.harness import ExperimentResult, run_lanns_experiment

__all__ = [
    "recall_at_k",
    "recall_table",
    "ExperimentResult",
    "run_lanns_experiment",
]
