"""Serving layer: the real Q/A pipeline behind bounded admission control.

The batch experiment drivers answer a fixed workload and exit; this
package wraps :class:`~repro.qa.pipeline.QAPipeline` in a **long-lived
multi-worker server** so the real pipeline can be subjected to the same
overload protocol as the simulated cluster:

* :mod:`repro.serving.admission` — deterministic bounded-FIFO admission
  (the simulator's FIFO-of-3 node discipline), per-client token-bucket
  rate limits, deadline-aware load shedding;
* :mod:`repro.serving.workers` — worker processes attaching to the
  shared v2 packed-index artifact (zero rebuild per process);
* :mod:`repro.serving.server` — the :class:`QAServer` lifecycle with
  conservation accounting, metrics, stitched cross-process span trees,
  and the telemetry plane (head sampling, ``telemetry.jsonl``);
* :mod:`repro.serving.slo` — the rolling-window SLO monitor
  (OK/WARN/BREACH) and the ``repro top`` text dashboard;
* :mod:`repro.serving.loadgen` — the Section 6.1-style seeded workload
  driver (``python -m repro loadgen``).

CLI: ``python -m repro serve`` (interactive stdin server),
``python -m repro loadgen`` (offered-load sweep), and
``python -m repro top`` (dashboard over a telemetry file).
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from .loadgen import (
    LoadgenConfig,
    format_serving,
    run_loadgen,
    zipf_workload,
)
from .protocol import (
    ConservationLedger,
    Outcome,
    OverloadError,
    ServeResponse,
    ShedReason,
)
from .server import QAServer, ServerConfig
from .slo import SLOConfig, SLOMonitor, SLOReport, SLOState, format_top, run_top
from .workers import ExecutionResult, InlineExecutor, ProcessWorkerPool

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "ConservationLedger",
    "ExecutionResult",
    "InlineExecutor",
    "LoadgenConfig",
    "Outcome",
    "OverloadError",
    "ProcessWorkerPool",
    "QAServer",
    "SLOConfig",
    "SLOMonitor",
    "SLOReport",
    "SLOState",
    "ServeResponse",
    "ServerConfig",
    "ShedReason",
    "TokenBucket",
    "format_serving",
    "format_top",
    "run_loadgen",
    "run_top",
    "zipf_workload",
]
