"""Retired ``vector`` engine: a name kept for benchmark tooling only.

The NumPy columnar engine was a line-by-line port of
:mod:`repro.core.compiled`; it was removed, and the engine name
``vector`` now resolves to ``compiled`` (:data:`repro.core.engine.ALIASES`).
This module survives because the benchmark harness imports it and wraps
its ``lower_trace`` binding; it simply re-exports the shared lowering.
"""

from .lower import lower_trace

__all__ = ["lower_trace"]
