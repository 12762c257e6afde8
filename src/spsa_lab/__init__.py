"""Gradient-free optimization with stabilized single-sample perturbation updates.

Provides the one- and two-sample simultaneous-perturbation recursions
with oblivious or iterate-dependent exploration gains, iid and
difference-correlated (zigzag) probe streams, mean-field and flow
analysis, and a reproducible ensemble experiment harness with a CLI.

Each public name is imported from its module, for example
``spsa_lab.core.run_batch``; the package re-exports none of them.
"""

from . import core, ensemble, exploration, meanflow, objectives, schedules

__version__ = "0.1.0"

__all__ = ["__version__", "core", "ensemble", "exploration", "meanflow", "objectives", "schedules"]
