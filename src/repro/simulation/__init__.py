"""Discrete-event simulation substrate.

This subpackage replaces the paper's physical testbed (a network of
Pentium III machines) with a deterministic discrete-event simulator:

* :class:`~repro.simulation.engine.Environment` /
  :class:`~repro.simulation.engine.Process` — event loop and
  generator-based processes;
* :class:`~repro.simulation.resources.FairShareResource` — processor-sharing
  CPU and disk models;
* :class:`~repro.simulation.resources.MemoryResource` — memory with
  thrashing pressure;
* :class:`~repro.simulation.network.Network` — shared-medium Ethernet;
* :class:`~repro.simulation.failures.FailureInjector` — node crash/recovery.
"""

from .chaos import ChaosConfig, FaultInterval, generate_chaos_schedule
from .engine import EmptySchedule, Environment, Process
from .events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from .failures import FailureInjector, FailureSchedule
from .network import Network, TransferFailed
from .resources import FairShareResource, Job, MemoryResource
from .schedkey import SeqHeap
from .statistics import TimeWeightedSignal

__all__ = [
    "AllOf",
    "AnyOf",
    "ChaosConfig",
    "EmptySchedule",
    "Environment",
    "Event",
    "FailureInjector",
    "FailureSchedule",
    "FairShareResource",
    "FaultInterval",
    "Interrupt",
    "Job",
    "MemoryResource",
    "Network",
    "Process",
    "SeqHeap",
    "SimulationError",
    "TimeWeightedSignal",
    "Timeout",
    "TransferFailed",
    "generate_chaos_schedule",
]
