"""The Chrome ``trace_event`` exporter.

:func:`chrome_trace` renders a span stream as the
``{"traceEvents": [...]}`` JSON the ``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_ viewers open directly.  Durational
spans become complete (``"ph": "X"``) events, Fig 7 instants become
instant (``"ph": "i"``) events; nodes map to ``pid`` rows and questions
to ``tid`` tracks, so the viewer shows one swim-lane per node with its
questions stacked — the paper's Fig 7 as an interactive timeline.
:func:`validate_chrome_trace` is its schema check.

JSONL (span, sample, SLO and metrics records) has one home,
:mod:`repro.observability.telemetry`.
"""

from __future__ import annotations

import json
import math
import pathlib
import typing as t

from .spans import SpanStream

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

_MICRO = 1e6  # trace_event timestamps are microseconds


def chrome_trace(
    stream: SpanStream,
    label: str = "repro observe",
    stable_pids: bool = False,
    process_names: dict[int, str] | None = None,
) -> dict[str, t.Any]:
    """Render the span stream in Chrome ``trace_event`` JSON format.

    By default ``pid`` is the raw ``node_id`` (simulator traces, where
    node ids are small and dense).  With ``stable_pids=True`` node ids
    are remapped to contiguous pids in sorted order — for multi-process
    serving traces, where node ids are OS worker pids: the server's
    ``node_id=-1`` becomes pid 0 (lane "server") and each worker gets
    its own stable lane ("worker-<ospid>"), instead of every process
    interleaving on huge raw-pid rows.  ``process_names`` overrides the
    lane label per node id in either mode.
    """
    events: list[dict[str, t.Any]] = []
    node_ids = sorted({s.node_id for s in stream.spans})
    if stable_pids:
        pid_map = {nid: i for i, nid in enumerate(node_ids)}

        def default_name(nid: int) -> str:
            return "server" if nid < 0 else f"worker-{nid}"

    else:
        pid_map = {nid: nid for nid in node_ids}

        def default_name(nid: int) -> str:
            return f"N{nid}"

    for nid in node_ids:
        name = (process_names or {}).get(nid, default_name(nid))
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_map[nid],
                "tid": 0,
                "args": {"name": name},
            }
        )
        if stable_pids:
            events.append(
                {
                    "ph": "M",
                    "name": "process_sort_index",
                    "pid": pid_map[nid],
                    "tid": 0,
                    "args": {"sort_index": pid_map[nid]},
                }
            )
    for span in stream.spans:
        args: dict[str, t.Any] = {"qid": span.qid, "sid": span.sid}
        if span.parent_id >= 0:
            args["parent"] = span.parent_id
        if span.detail:
            args["detail"] = span.detail
        args.update(span.attrs)
        common = {
            "name": span.name,
            "cat": span.cat,
            "pid": pid_map[span.node_id],
            "tid": span.qid,
            "ts": span.t0 * _MICRO,
            "args": args,
        }
        if span.is_instant:
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append(
                {**common, "ph": "X", "dur": max(0.0, span.duration) * _MICRO}
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": label, "dropped_spans": stream.dropped},
    }


def write_chrome_trace(
    stream: SpanStream,
    path: str | pathlib.Path,
    label: str = "repro observe",
    stable_pids: bool = False,
    process_names: dict[int, str] | None = None,
) -> pathlib.Path:
    """Write :func:`chrome_trace` output to ``path``."""
    out = pathlib.Path(path)
    trace = chrome_trace(
        stream, label=label, stable_pids=stable_pids, process_names=process_names
    )
    out.write_text(json.dumps(trace, allow_nan=False) + "\n")
    return out


# -- schema validation --------------------------------------------------------
_PHASES_WITH_DUR = {"X"}
_VALID_PHASES = {"X", "i", "M", "B", "E"}


def validate_chrome_trace(trace: dict[str, t.Any]) -> int:
    """Validate a ``trace_event`` document; returns the event count.

    Checks the invariants the viewers rely on: a ``traceEvents`` list,
    every event carrying ``ph``/``pid``/``tid``, ``ts`` on all non-metadata
    phases, and non-negative ``dur`` on complete events.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"event {i} missing integer {key!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts):
                raise ValueError(f"event {i} missing finite numeric ts")
            if not isinstance(event.get("name"), str) or not event["name"]:
                raise ValueError(f"event {i} missing name")
        if ph in _PHASES_WITH_DUR:
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or not math.isfinite(dur)
                or dur < 0
            ):
                raise ValueError(f"event {i} has invalid dur {dur!r}")
    return len(events)
