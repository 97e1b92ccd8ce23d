"""Pluggable simulation-backend registry.

The cycle model has one semantics and several implementations:

* ``reference`` — the per-cycle :meth:`CoreSimulator._step` loop, one
  cycle at a time, observability-friendly.  Slowest, simplest, the
  differential oracle every other backend is checked against.
* ``fast`` — the event-driven skip-ahead loop; bit-identical to
  ``reference`` by construction and by CI.
* ``compiled`` — the ``CoreConfig.engine`` default: lowers the dynamic
  trace into flat parallel columns (:mod:`repro.core.lower`) and runs
  a config-specialized engine (:mod:`repro.core.compiled`).  Falls
  back to the event-driven loop whenever an observer is attached (the
  compiled loop has no probe points).
* ``vector`` — NumPy columnar replay (:mod:`repro.core.vector`):
  decode, width-class and branch-resolution columns precomputed as
  whole-array gathers and memoized per trace, plus batch lanes
  (``simulate_batch``) that decode K independent jobs in one
  concatenated pass.  Same observer fallback as ``compiled``.

Backends register a factory ``(trace, config, obs=None) -> runner``
where ``runner.run()`` returns a :class:`~repro.core.cpu.SimResult`.
A backend may additionally register a *batch* entry point
``batch(items) -> [SimResult]`` taking ``(trace, config)`` pairs;
callers with many independent jobs probe :meth:`EngineRegistry.batch`
to amortize per-job setup (campaign runner, fuzz oracle, serve sweeps).
Every engine must be *cycle-identical*: the backend-equivalence CI
matrix runs ``check_regression.py --exact-cycles`` once per engine and
fails on any diff, and :mod:`repro.verify` fuzzes engines against each
other nightly.  An engine is a performance choice, never a semantics
choice — which is why ``CoreConfig.engine`` is a plain string any
config path (campaign, serve, verify CLI) can thread through.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

#: factory signature: (trace, config, obs) -> object with .run()
EngineFactory = Callable[..., Any]

#: batch signature: (items: [(trace, config)]) -> [SimResult]
BatchFactory = Callable[..., Any]


class EngineRegistry:
    """Name → backend-factory table with helpful failure modes."""

    def __init__(self) -> None:
        self._factories: Dict[str, EngineFactory] = {}
        self._batch: Dict[str, BatchFactory] = {}

    def register(self, name: str, factory: EngineFactory, *,
                 batch: Optional[BatchFactory] = None) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"engine name must be a non-empty string, "
                             f"got {name!r}")
        self._factories[name] = factory
        if batch is not None:
            self._batch[name] = batch
        else:
            self._batch.pop(name, None)

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, registration order."""
        return tuple(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def _unknown(self, name: str) -> ValueError:
        return ValueError(
            f"unknown engine {name!r}; choose from "
            f"{sorted(self._factories)}")

    def create(self, name: str, trace, config, *, obs=None):
        """Instantiate the named backend for one simulation run."""
        factory = self._factories.get(name)
        if factory is None:
            raise self._unknown(name)
        return factory(trace, config, obs=obs)

    def batch(self, name: str) -> Optional[BatchFactory]:
        """The named backend's batch entry point, or ``None``.

        Returns a callable ``batch(items) -> [SimResult]`` over
        ``(trace, config)`` pairs when the backend supports batched
        replay; ``None`` means callers should loop single runs.
        Batch callables accept an optional ``lane_times`` keyword (a
        list receiving one per-lane replay wall-time per item) so
        callers can keep per-job telemetry meaningful.  Unknown names
        raise, same as :meth:`create`.
        """
        if name not in self._factories:
            raise self._unknown(name)
        return self._batch.get(name)


#: process-global registry; :mod:`repro.core.cpu` populates it on import
ENGINES = EngineRegistry()

__all__ = ["ENGINES", "BatchFactory", "EngineFactory", "EngineRegistry"]
