"""Head sampling and the one JSONL envelope (``telemetry/v3``).

Every JSONL file the repo writes — the serving stack's
``telemetry.jsonl`` and ``repro observe``'s ``spans_*.jsonl`` — is one
record per line, a ``header`` first, written by :class:`TelemetryWriter`,
checked by :func:`validate_telemetry_line` (one record) and
:func:`validate_telemetry_file` (a whole file), and parsed by
:func:`read_telemetry`.  Record types:

* ``header`` — the schema (:data:`TELEMETRY_SCHEMA`) and run metadata;
  a serving file also names ``p99_target_s``, the one latency promise
  the server judged its SLO against (the admission deadline);
* ``span`` — one :class:`~repro.observability.spans.Span`;
* ``sample`` — one question outcome, as the server built it for its SLO
  monitor (head-sampled, or forced on shed, deadline violation or
  drain);
* ``slo`` — one SLO evaluation, on a transition and at drain;
* ``metrics`` — the metrics registry (and, from a server, its
  conservation ledger), last.

:class:`HeadSampler` decides per submission, *after* admission (a pure
function of ``seed:seq``), which questions are head-sampled, so enabling
tracing can never perturb the accept/shed decision digest.  The span
tree itself never crosses the process boundary: every worker reply
carries the five measured module timings, and the server writes the
``service`` subtree from them (see ``serving/server.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry
    from .spans import Span

__all__ = [
    "TELEMETRY_SCHEMA",
    "HeadSampler",
    "TelemetryWriter",
    "read_telemetry",
    "span_to_json",
    "validate_telemetry_file",
    "validate_telemetry_line",
]

TELEMETRY_SCHEMA = "telemetry/v3"


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


def span_to_json(span: "Span") -> dict[str, t.Any]:
    """One span as a flat JSON-friendly dict (the ``span`` record)."""
    out: dict[str, t.Any] = {
        "record": "span",
        "sid": span.sid,
        "parent": span.parent_id,
        "name": span.name,
        "cat": span.cat,
        "qid": span.qid,
        "node": span.node_id,
        "t0": span.t0,
        "t1": span.t1,
    }
    if span.detail:
        out["detail"] = span.detail
    if span.attrs:
        out["attrs"] = span.attrs
    return out


# -- the writer ----------------------------------------------------------------
class TelemetryWriter:
    """Streaming JSONL writer: the header on open, then one record a line.

    Every record but a span batch is flushed as it is written, so
    ``repro top --follow`` can tail a live file.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        p99_target_s: float | None = None,
        header: dict[str, t.Any] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.records = 0
        self._fh: t.IO[str] | None = self.path.open("w")
        first: dict[str, t.Any] = {"record": "header", "schema": TELEMETRY_SCHEMA}
        if p99_target_s is not None:
            first["p99_target_s"] = p99_target_s
        self._write({**first, **(header or {})})

    def _write(self, obj: dict[str, t.Any], flush: bool = True) -> None:
        if self._fh is None:
            raise RuntimeError("TelemetryWriter is closed")
        self._fh.write(json.dumps(obj, allow_nan=False) + "\n")
        self.records += 1
        if flush:
            self._fh.flush()

    def write_spans(self, spans: t.Iterable["Span"]) -> None:
        """One ``span`` record per span, flushed once after the last."""
        for span in spans:
            self._write(span_to_json(span), flush=False)
        if self._fh is not None:
            self._fh.flush()

    def write_sample(self, sample: dict[str, t.Any]) -> None:
        """One question outcome (the dict the SLO monitor was fed)."""
        self._write({"record": "sample", **sample})

    def write_slo(self, report: dict[str, t.Any]) -> None:
        """One SLO monitor evaluation (``SLOReport.to_dict()``)."""
        self._write({"record": "slo", **report})

    def write_metrics(
        self, metrics: "MetricsRegistry", ledger: dict[str, t.Any] | None = None
    ) -> None:
        """The final metrics registry, and the conservation ledger if any."""
        rec: dict[str, t.Any] = {"record": "metrics", "metrics": metrics.to_dict()}
        if ledger is not None:
            rec["ledger"] = ledger
        self._write(rec)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.close()


# -- the validator and the reader ----------------------------------------------
_NUM = (int, float)
_OUTCOMES = {"answered", "shed", "drained"}
_SLO_STATES = {"ok", "warn", "breach"}
_METRIC_TYPES = {"counter", "gauge", "histogram"}
#: Required fields and their types, per record type.
_REQUIRED: dict[str, dict[str, type | tuple[type, ...]]] = {
    "header": {"schema": str},
    "span": {
        "sid": int, "parent": int, "name": str, "cat": str, "qid": int,
        "node": int, "t0": _NUM, "t1": _NUM,
    },
    "sample": {
        "t": _NUM, "seq": int, "qid": int, "outcome": str, "latency_s": _NUM,
        "wait_s": _NUM, "service_s": _NUM, "worker": int, "sampled": bool,
        "forced": bool,
    },
    "slo": {
        "t": _NUM, "state": str, "n_answered": int, "n_shed": int,
        "shed_rate": _NUM, "p50_s": _NUM, "p95_s": _NUM, "p99_s": _NUM,
        "deadline_violations": int, "transition": bool,
    },
    "metrics": {"metrics": dict},
}


def _require(
    record: str, obj: dict[str, t.Any], fields: dict[str, t.Any]
) -> None:
    """Each field present, of its type, and finite when a float."""
    for key, types in fields.items():
        if key not in obj:
            raise ValueError(f"{record} record missing {key!r}: {obj}")
        value = obj[key]
        if not isinstance(value, types):
            raise ValueError(f"{record} field {key!r} has wrong type: {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{record} field {key!r} is non-finite: {obj}")


def validate_telemetry_line(obj: dict[str, t.Any]) -> None:
    """Validate one parsed record; raises ValueError on the first violation."""
    record = obj.get("record")
    fields = _REQUIRED.get(record) if isinstance(record, str) else None
    if fields is None:
        raise ValueError(f"unknown record type {record!r}")
    _require(record, obj, fields)
    if record == "header":
        if obj["schema"] != TELEMETRY_SCHEMA:
            raise ValueError(f"unknown telemetry schema {obj['schema']!r}")
        if "p99_target_s" in obj:
            _require(record, obj, {"p99_target_s": _NUM})
            if obj["p99_target_s"] <= 0:
                raise ValueError(f"header p99_target_s must be positive: {obj}")
    elif record == "span":
        if obj["t1"] < obj["t0"]:
            raise ValueError(f"span ends before it starts: {obj}")
    elif record == "sample":
        if obj["outcome"] not in _OUTCOMES:
            raise ValueError(f"unknown outcome {obj['outcome']!r}")
        for key in ("latency_s", "wait_s", "service_s"):
            if obj[key] < 0:
                raise ValueError(f"sample field {key!r} is negative: {obj}")
        if not (obj["sampled"] or obj["forced"]):
            raise ValueError(f"sample record neither sampled nor forced: {obj}")
    elif record == "slo":
        if obj["state"] not in _SLO_STATES:
            raise ValueError(f"unknown SLO state {obj['state']!r}")
        if not 0.0 <= obj["shed_rate"] <= 1.0:
            raise ValueError(f"shed_rate out of [0, 1]: {obj['shed_rate']!r}")
    else:
        for name, body in obj["metrics"].items():
            if body.get("type") not in _METRIC_TYPES:
                raise ValueError(f"metric {name!r} has bad type: {body!r}")
            for key, value in body.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(
                        f"metric {name!r} field {key!r} is non-finite "
                        f"(zero-sample histograms must serialize 0/None)"
                    )


def read_telemetry(path: str | pathlib.Path) -> list[dict[str, t.Any]]:
    """Parse a JSONL file, one record a line (no validation)."""
    out: list[dict[str, t.Any]] = []
    with pathlib.Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def validate_telemetry_file(path: str | pathlib.Path) -> int:
    """Validate every record of a JSONL file; returns the count.

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
