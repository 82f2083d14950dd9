"""Cross-process telemetry: head sampling and the ``telemetry.jsonl`` stream.

The serving stack spans a front-end process plus N worker processes.  A
question's span tree is nevertheless built in one place: every worker
reply carries the five measured module timings, and the server writes
the ``service`` subtree from them into its own ``SpanStream`` (see
``serving/server.py``) — no span, and no trace context, crosses the
process boundary.  What lives here:

* :class:`HeadSampler` — deterministic seed-keyed head sampling, decided
  per submission *after* admission (a pure function of ``seed:seq``), so
  enabling tracing can never perturb the accept/shed decision digest;
* :class:`TelemetryWriter` / :func:`validate_telemetry_line` — the
  ``telemetry.jsonl`` exporter (sample / SLO / metrics records) and its
  schema validator, consumed by ``repro top`` and the CI smoke job.

The header of every ``telemetry/v2`` file records ``p99_target_s``, the
one latency promise the server judged its SLO against (the admission
deadline); the validator refuses a ``telemetry/v1`` header, which has
none, rather than let ``repro top`` misjudge its samples.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry

__all__ = [
    "TELEMETRY_SCHEMA",
    "HeadSampler",
    "TelemetryWriter",
    "read_telemetry",
    "validate_telemetry_file",
    "validate_telemetry_line",
]

TELEMETRY_SCHEMA = "telemetry/v2"


class HeadSampler:
    """Deterministic head sampling keyed on ``seed:seq``.

    The decision is a pure function of the sampler seed and the request's
    submission sequence number — no RNG state, no wall clock — so two
    runs of the same workload sample the same questions, and turning
    sampling on cannot change anything else about the run (the admission
    decision digest in particular).
    """

    __slots__ = ("rate", "seed")

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed

    def _hash64(self, seq: int) -> int:
        digest = hashlib.sha256(f"{self.seed}:{seq}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def sample(self, seq: int) -> bool:
        """True when request ``seq`` is head-sampled."""
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return self._hash64(seq) / 2.0**64 < self.rate

    def trace_id(self, seq: int) -> str:
        """Stable, collision-resistant trace id for request ``seq``."""
        return f"{self._hash64(seq):016x}-{seq:x}"


# -- telemetry.jsonl exporter --------------------------------------------------
class TelemetryWriter:
    """Streaming ``telemetry.jsonl`` writer (one JSON object per line).

    Record types: ``header`` (schema, the SLO's ``p99_target_s`` and run
    metadata, always first), ``sample`` (one per sampled or forced
    question outcome), ``slo`` (SLO
    monitor state, emitted on transitions and at drain), ``metrics`` (the
    server's registry, emitted at drain).  Every write flushes so
    ``repro top --follow`` can tail the live file.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        p99_target_s: float,
        header: dict[str, t.Any] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.records = 0
        self._fh: t.IO[str] | None = self.path.open("w")
        self._write(
            {
                "record": "header",
                "schema": TELEMETRY_SCHEMA,
                "p99_target_s": p99_target_s,
                **(header or {}),
            }
        )

    def _write(self, obj: dict[str, t.Any]) -> None:
        if self._fh is None:
            raise RuntimeError("TelemetryWriter is closed")
        self._fh.write(json.dumps(obj, allow_nan=False) + "\n")
        self._fh.flush()
        self.records += 1

    def write_sample(
        self,
        *,
        t_s: float,
        seq: int,
        qid: int,
        outcome: str,
        latency_s: float = 0.0,
        wait_s: float = 0.0,
        service_s: float = 0.0,
        worker: int = 0,
        sampled: bool = False,
        forced: bool = False,
        reason: str | None = None,
    ) -> None:
        """One question outcome (head-sampled, or force-sampled on shed,
        deadline violation or drain)."""
        rec: dict[str, t.Any] = {
            "record": "sample",
            "t": t_s,
            "seq": seq,
            "qid": qid,
            "outcome": outcome,
            "latency_s": latency_s,
            "wait_s": wait_s,
            "service_s": service_s,
            "worker": worker,
            "sampled": sampled,
            "forced": forced,
        }
        if reason is not None:
            rec["reason"] = reason
        self._write(rec)

    def write_slo(self, report: dict[str, t.Any]) -> None:
        """One SLO monitor evaluation (``SLOReport.to_dict()``)."""
        self._write({"record": "slo", **report})

    def write_metrics(self, metrics: "MetricsRegistry") -> None:
        """The final aggregated metrics registry."""
        self._write({"record": "metrics", "metrics": metrics.to_dict()})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.close()


# -- schema validation ---------------------------------------------------------
_OUTCOMES = {"answered", "shed", "drained"}
_SLO_STATES = {"ok", "warn", "breach"}
_SAMPLE_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "t": (int, float),
    "seq": int,
    "qid": int,
    "outcome": str,
    "latency_s": (int, float),
    "wait_s": (int, float),
    "service_s": (int, float),
    "worker": int,
    "sampled": bool,
    "forced": bool,
}
_SLO_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "t": (int, float),
    "state": str,
    "n_answered": int,
    "n_shed": int,
    "shed_rate": (int, float),
    "p50_s": (int, float),
    "p95_s": (int, float),
    "p99_s": (int, float),
    "deadline_violations": int,
    "transition": bool,
}


def validate_telemetry_line(obj: dict[str, t.Any]) -> None:
    """Validate one parsed telemetry record; raises ValueError on violation."""
    record = obj.get("record")
    if record == "header":
        if obj.get("schema") != TELEMETRY_SCHEMA:
            raise ValueError(f"unknown telemetry schema {obj.get('schema')!r}")
        target = obj.get("p99_target_s")
        if not isinstance(target, (int, float)) or target <= 0:
            raise ValueError(f"header p99_target_s must be positive: {target!r}")
        return
    if record == "sample":
        for key, types in _SAMPLE_REQUIRED.items():
            if key not in obj:
                raise ValueError(f"sample record missing {key!r}: {obj}")
            if not isinstance(obj[key], types):  # type: ignore[arg-type]
                raise ValueError(
                    f"sample field {key!r} has wrong type: {obj[key]!r}"
                )
        if obj["outcome"] not in _OUTCOMES:
            raise ValueError(f"unknown outcome {obj['outcome']!r}")
        for key in ("latency_s", "wait_s", "service_s"):
            if obj[key] < 0:
                raise ValueError(f"sample field {key!r} is negative: {obj}")
        if not (obj["sampled"] or obj["forced"]):
            raise ValueError(f"sample record neither sampled nor forced: {obj}")
        return
    if record == "slo":
        for key, types in _SLO_REQUIRED.items():
            if key not in obj:
                raise ValueError(f"slo record missing {key!r}: {obj}")
            if not isinstance(obj[key], types):  # type: ignore[arg-type]
                raise ValueError(
                    f"slo field {key!r} has wrong type: {obj[key]!r}"
                )
        if obj["state"] not in _SLO_STATES:
            raise ValueError(f"unknown SLO state {obj['state']!r}")
        if not 0.0 <= obj["shed_rate"] <= 1.0:
            raise ValueError(f"shed_rate out of [0, 1]: {obj['shed_rate']!r}")
        return
    if record == "metrics":
        metrics = obj.get("metrics")
        if not isinstance(metrics, dict):
            raise ValueError("metrics record missing 'metrics' mapping")
        for name, body in metrics.items():
            if body.get("type") not in {"counter", "gauge", "histogram"}:
                raise ValueError(f"metric {name!r} has bad type: {body!r}")
        return
    raise ValueError(f"unknown telemetry record type {record!r}")


def read_telemetry(path: str | pathlib.Path) -> list[dict[str, t.Any]]:
    """Parse a telemetry.jsonl file (no validation; see validate_*)."""
    out: list[dict[str, t.Any]] = []
    with pathlib.Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def validate_telemetry_file(path: str | pathlib.Path) -> int:
    """Validate every record in a telemetry.jsonl file; returns the count.

    The first line must be a valid header; an empty file is invalid (a
    writer that opened the file always wrote its header).
    """
    records = read_telemetry(path)
    if not records:
        raise ValueError(f"{path}: empty telemetry file (missing header)")
    if records[0].get("record") != "header":
        raise ValueError(f"{path}: first record is not a header")
    for i, obj in enumerate(records):
        try:
            validate_telemetry_line(obj)
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 1}: {exc}") from exc
    return len(records)
