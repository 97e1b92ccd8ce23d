"""Pluggable simulation-backend registry.

The cycle model has one semantics and two implementations:

* ``reference`` — the per-cycle :meth:`CoreSimulator._step` loop, one
  cycle at a time, observability-friendly.  Slowest, simplest, the
  differential oracle the other backend is checked against.
* ``compiled`` — the ``CoreConfig.engine`` default: lowers the dynamic
  trace into flat parallel columns (:mod:`repro.core.lower`) and runs
  a config-specialized engine (:mod:`repro.core.compiled`).  Falls
  back to the step loop whenever an observer is attached (the
  compiled loop has no probe points).

Backends register a factory ``(trace, config, obs=None) -> runner``
where ``runner.run()`` returns a :class:`~repro.core.cpu.SimResult`.
Both engines must be *cycle-identical*: the backend-equivalence CI
matrix runs ``check_regression.py --exact-cycles`` once per engine and
fails on any diff, and :mod:`repro.verify` fuzzes the engines against
each other nightly.  An engine is a performance choice, never a
semantics choice — which is why ``CoreConfig.engine`` is a plain
string any config path (campaign, serve, verify CLI) can thread
through.

Retired engine names stay accepted: :data:`ALIASES` maps each to the
engine that now serves it, and :meth:`EngineRegistry.resolve` is the
one place a name is validated and canonicalized, so stored configs and
old serve clients keep working and share cache entries with the
canonical name.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, Dict, Tuple

#: factory signature: (trace, config, obs) -> object with .run()
EngineFactory = Callable[..., Any]

#: retired engine name -> the registered engine that now serves it
#: (``fast`` was an event-driven skip-ahead variant of the step loop,
#: ``vector`` a NumPy port of ``compiled``; both were cycle-identical)
ALIASES: Dict[str, str] = {"fast": "compiled", "vector": "compiled"}


class EngineRegistry:
    """Name → backend-factory table with helpful failure modes."""

    def __init__(self) -> None:
        self._factories: Dict[str, EngineFactory] = {}

    def register(self, name: str, factory: EngineFactory) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"engine name must be a non-empty string, "
                             f"got {name!r}")
        self._factories[name] = factory

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, registration order (no aliases)."""
        return tuple(self._factories)

    def __contains__(self, name: object) -> bool:
        try:
            self.resolve(name)
        except ValueError:
            return False
        return True

    def resolve(self, name: str) -> str:
        """Canonical engine name for *name* (an engine or an alias).

        Unknown names raise :class:`ValueError` listing the registered
        engines.
        """
        canonical = ALIASES.get(name, name) if isinstance(name, str) \
            else None
        if canonical not in self._factories:
            raise ValueError(
                f"unknown engine {name!r}; choose from "
                f"{sorted(self._factories)}")
        return canonical

    def create(self, name: str, trace, config, *, obs=None):
        """Instantiate the named backend for one simulation run."""
        return self._factories[self.resolve(name)](trace, config, obs=obs)

    def batch(self, name: str) -> None:
        """Always ``None``: no backend replays batched lanes.

        Kept, name-validating, for benchmark tooling that wraps it.
        """
        self.resolve(name)
        return None


#: process-global registry; :mod:`repro.core.cpu` populates it on import
ENGINES = EngineRegistry()


def engine_arg(name: str) -> str:
    """``argparse`` type for ``--engine`` options: the canonical name."""
    try:
        return ENGINES.resolve(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


__all__ = ["ALIASES", "ENGINES", "EngineFactory", "EngineRegistry",
           "engine_arg"]
