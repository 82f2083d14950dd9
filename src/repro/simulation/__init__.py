"""Discrete-event simulation substrate.

This subpackage replaces the paper's physical testbed (a network of
Pentium III machines) with a deterministic discrete-event simulator:

* :class:`~repro.simulation.engine.Environment` /
  :class:`~repro.simulation.engine.Process` — event loop and
  generator-based processes that wait on one-shot events, timeouts, other
  processes and the :class:`~repro.simulation.events.AllOf` join;
* :class:`~repro.simulation.resources.FairShareResource` — processor-sharing
  CPU and disk models;
* :class:`~repro.simulation.resources.MemoryResource` — memory with
  thrashing pressure;
* :class:`~repro.simulation.network.Network` — shared-medium Ethernet;
* :class:`~repro.simulation.failures.FailureInjector` — node crash/recovery.
"""

from .chaos import ChaosConfig, FaultInterval, generate_chaos_schedule
from .engine import EmptySchedule, Environment, Process
from .events import AllOf, Event, SimulationError, Timeout
from .failures import FailureInjector, FailureSchedule
from .network import Network, TransferFailed
from .resources import FairShareResource, Job, MemoryResource
from .statistics import TimeWeightedSignal

__all__ = [
    "AllOf",
    "ChaosConfig",
    "EmptySchedule",
    "Environment",
    "Event",
    "FailureInjector",
    "FailureSchedule",
    "FairShareResource",
    "FaultInterval",
    "Job",
    "MemoryResource",
    "Network",
    "Process",
    "SimulationError",
    "TimeWeightedSignal",
    "Timeout",
    "TransferFailed",
    "generate_chaos_schedule",
]
