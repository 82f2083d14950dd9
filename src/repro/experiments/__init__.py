"""Experiment drivers: one per table/figure of the paper, plus ablations.

See DESIGN.md §5 for the experiment index.  ``python -m repro
experiments`` regenerates everything.
"""

from .context import ExperimentContext, complex_profiles, default_context
from .runner import EXPERIMENTS, run_all

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "complex_profiles",
    "default_context",
    "run_all",
]
