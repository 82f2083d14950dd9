"""Rolling-window SLO monitor: typed transitions on logical time."""

import json

import pytest

import repro.serving.server as server_module
from repro import cli
from repro.observability.telemetry import (
    TelemetryWriter,
    read_telemetry,
    validate_telemetry_file,
)
from repro.serving import AdmissionConfig, QAServer, ServerConfig
from repro.serving.slo import (
    WINDOW_S,
    SLOMonitor,
    SLOState,
    format_top,
    replay_telemetry,
    run_top,
)
from repro.serving.workers import ExecutionResult

#: The p99 target (seconds) the state-machine tests judge against.
TARGET = 0.5


def _answered(t, latency, service_s=0.0, worker=0):
    """A sample record body of one answered question, as the server builds it."""
    return {
        "t": t, "seq": 0, "qid": 0, "outcome": "answered",
        "latency_s": latency, "wait_s": 0.0, "service_s": service_s,
        "worker": worker, "sampled": True, "forced": False,
    }


def _shed(t):
    return {
        "t": t, "seq": 0, "qid": 0, "outcome": "shed", "latency_s": 0.0,
        "wait_s": 0.0, "service_s": 0.0, "worker": -1, "sampled": False,
        "forced": True, "reason": "shed:queue_full",
    }


def _feed_answered(monitor, t0, n, latency, dt=0.1, **kw):
    for i in range(n):
        monitor.record(_answered(t0 + i * dt, latency, **kw))
    return t0 + (n - 1) * dt


class TestStateMachine:
    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            SLOMonitor(0.0)

    def test_starts_ok_and_stays_ok_when_healthy(self):
        m = SLOMonitor(TARGET)
        t = _feed_answered(m, 0.0, 10, latency=0.1)
        report = m.evaluate(t)
        assert report.state is SLOState.OK
        assert not report.transition and not m.transitions
        assert report.p99_s == pytest.approx(0.1)

    def test_min_samples_gate_suppresses_early_judgement(self):
        m = SLOMonitor(TARGET)
        m.record(_answered(0.0, latency=100.0))  # horribly slow, but alone
        report = m.evaluate(0.0)
        # No p99 judgement on one answer; only its deadline violation warns.
        assert report.state is SLOState.WARN
        assert report.reasons == ("1 deadline violation(s) in window",)
        assert report.n_answered == 1

    def test_ok_warn_breach_ok_cycle(self):
        m = SLOMonitor(TARGET)
        # Healthy.
        t = _feed_answered(m, 0.0, 5, latency=0.1)
        assert m.evaluate(t).state is SLOState.OK
        # p99 above target but below breach_factor x target -> WARN,
        # judged by the record that crossed the line.
        report = m.record(_answered(t + 0.1, 0.7))
        assert report.state is SLOState.WARN
        assert report.transition and report.prev_state is SLOState.OK
        assert any("p99" in r for r in report.reasons)
        t = _feed_answered(m, t + 0.2, 4, latency=0.7)
        # p99 above 2x target -> BREACH.
        t = _feed_answered(m, t + 0.1, 10, latency=1.5)
        report = m.evaluate(t)
        assert report.state is SLOState.BREACH
        # Window slides past the bad stretch; healthy again -> OK.
        t2 = _feed_answered(m, t + WINDOW_S + 1.0, 5, latency=0.1)
        report = m.evaluate(t2)
        assert report.state is SLOState.OK
        states = [(old.value, new.value) for _, old, new, _ in m.transitions]
        assert states == [("ok", "warn"), ("warn", "breach"), ("breach", "ok")]

    def test_shed_rate_lines(self):
        m = SLOMonitor(TARGET)
        t = _feed_answered(m, 0.0, 8, latency=0.1)
        report = m.record(_shed(t))  # 1/9 ~ 11% >= warn 5%
        assert report.state is SLOState.WARN
        assert any("shed rate" in r for r in report.reasons)
        for i in range(8):
            m.record(_shed(t + 0.01 * (i + 1)))
        report = m.evaluate(t + 0.1)  # 9/17 = 52.9% >= breach 25%
        assert report.state is SLOState.BREACH

    def test_deadline_violations_warn_even_when_fast(self):
        # One answer over the target among 101: the windowed p99 stays
        # within it, and the violation alone warns.
        m = SLOMonitor(TARGET)
        t = _feed_answered(m, 0.0, 100, latency=0.1, dt=0.01)
        report = m.record(_answered(t + 0.01, TARGET + 0.1))
        assert report.p99_s <= TARGET
        assert report.state is SLOState.WARN
        assert report.deadline_violations == 1
        assert [r for r in report.reasons if "deadline" in r] == list(report.reasons)

    def test_window_expiry_trims_outcomes(self):
        m = SLOMonitor(TARGET)
        _feed_answered(m, 0.0, 5, latency=1.5)  # breach-worthy
        report = m.evaluate(WINDOW_S + 5.0)  # all expired
        assert report.n_answered == 0
        assert report.state is SLOState.OK

    def test_utilization_per_worker(self):
        m = SLOMonitor(TARGET)
        for i in range(4):
            m.record(_answered(float(i), 0.1, service_s=0.5, worker=100 + (i % 2)))
        report = m.evaluate(3.0)
        assert set(report.utilization) == {100, 101}
        # 2 x 0.5s service over a 3s observed span.
        assert report.utilization[100] == pytest.approx(1.0 / 3.0)
        assert all(0.0 <= u <= 1.0 for u in report.utilization.values())

    def test_report_to_dict_is_json_and_stringifies_pids(self):
        m = SLOMonitor(TARGET)
        _feed_answered(m, 0.0, 5, latency=0.1, service_s=0.05, worker=7)
        body = m.evaluate(0.5).to_dict()
        text = json.dumps(body, allow_nan=False)
        assert '"7"' in text
        assert body["state"] == "ok" and body["transition"] is False


class TestTopDashboard:
    def _telemetry(self, path, with_slo=True, target=0.05):
        with TelemetryWriter(path, target, header={"workers": 2}) as w:
            m = SLOMonitor(target)
            for i in range(6):
                sample = _answered(
                    float(i), 0.1 + 0.01 * i, service_s=0.08, worker=4000 + (i % 2)
                )
                m.record(sample)
                w.write_sample(sample)
            w.write_sample(_shed(6.0))
            if with_slo:
                w.write_slo(m.evaluate(6.0).to_dict())
        return path

    def test_format_top_renders_state_and_workers(self):
        m = SLOMonitor(TARGET)
        _feed_answered(m, 0.0, 5, latency=0.7, service_s=0.3, worker=9)
        text = format_top(
            m.evaluate(0.5).to_dict(),
            samples=[{"qid": 3, "outcome": "answered", "latency_s": 0.7,
                      "worker": 9, "forced": False}],
            totals={"answered": 5},
            source="test",
        )
        assert "SLO WARN" in text
        assert "w9:" in text
        assert "totals: answered=5" in text
        assert "! p99" in text

    def test_run_top_over_file_with_slo_records(self, tmp_path):
        path = self._telemetry(tmp_path / "telemetry.jsonl")
        frames = []
        n = run_top(str(path), follow=False, out=frames.append)
        assert n == 1 and len(frames) == 1
        # The written slo record judged BREACH (p99 0.1495s > 2x 0.05s target).
        assert "SLO BREACH" in frames[0]
        assert "answered=6" in frames[0] and "shed=1" in frames[0]

    def test_run_top_replays_samples_when_no_slo_record(self, tmp_path):
        path = self._telemetry(tmp_path / "t.jsonl", with_slo=False, target=0.5)
        frames = []
        run_top(str(path), follow=False, out=frames.append)
        # Fallback replay against the header's 0.5 s target: latencies
        # are within it, and the single shed (1/7 ~ 14%) crosses the 5%
        # warn line.
        assert "SLO WARN" in frames[0]
        assert "shed rate" in frames[0]
        assert "shed=1" in frames[0]

    def test_replay_judges_against_the_header_target(self, tmp_path):
        path = self._telemetry(tmp_path / "t.jsonl", with_slo=False, target=0.05)
        frames = []
        run_top(str(path), follow=False, out=frames.append)
        assert "SLO BREACH" in frames[0]
        assert "target 0.050s" in frames[0]
        assert "6 deadline violation(s)" in frames[0]

    def test_run_top_refuses_a_v1_header(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            json.dumps({"record": "header", "schema": "telemetry/v1"}) + "\n"
        )
        with pytest.raises(ValueError, match="unknown telemetry schema"):
            run_top(str(path), follow=False, out=lambda _: None)
        with pytest.raises(SystemExit, match="telemetry/v1"):
            cli.main(["top", "--telemetry", str(path)])

    def test_run_top_missing_file_waits(self, tmp_path):
        frames = []
        run_top(str(tmp_path / "absent.jsonl"), follow=False, out=frames.append)
        assert "waiting for telemetry" in frames[0]

    def test_run_top_follow_caps_at_max_frames(self, tmp_path):
        path = self._telemetry(tmp_path / "telemetry.jsonl")
        frames = []
        n = run_top(
            str(path), follow=True, interval_s=0.0, max_frames=3,
            out=frames.append,
        )
        assert n == 3 and len(frames) == 3


class _Clock:
    """Stands in for the server's ``time`` module: wall time the test sets."""

    def __init__(self):
        self.now = 0.0

    def time(self):
        return self.now


class _ReplyPool:
    """Completes every submitted question at the next poll."""

    workers = 1
    idle_workers = 1
    attach_report = {}

    def __init__(self):
        self._ready = []

    def start(self):
        pass

    def submit(self, unit):
        self._ready.extend(
            ExecutionResult(
                seq=seq, qid=qid, answers=(), wait_s=0.0, service_s=0.01,
                worker_pid=1,
            )
            for seq, qid, _text, _submit_wall in unit
        )

    def poll(self):
        out, self._ready = self._ready, []
        return out

    def drain(self, timeout_s):
        return self.poll()

    def stop(self):
        pass


class TestOnePromise:
    """``repro serve`` with default flags promises 6 x 0.05 s = 0.3 s."""

    def test_slo_is_judged_against_the_admission_deadline(
        self, monkeypatch, tmp_path
    ):
        path = tmp_path / "telemetry.jsonl"
        args = cli.build_parser().parse_args(["serve", "--telemetry", str(path)])
        clock = _Clock()
        monkeypatch.setattr(server_module, "time", clock)
        server = QAServer(cli._server_config(args), pool=_ReplyPool())
        with server:
            for i in range(8):
                clock.now = float(i)
                assert server.submit(f"q{i}", qid=i, arrival_s=float(i)).accepted
                clock.now = i + 0.5  # every answer takes 0.5 s
                server.poll()
        assert all(r.deadline_violated for r in server.responses)
        assert server.slo.state is SLOState.WARN
        records = read_telemetry(path)
        assert records[0]["p99_target_s"] == pytest.approx(0.3)
        final = [r for r in records if r["record"] == "slo"][-1]
        assert final["state"] == "warn"
        assert "p99 0.500s > target 0.300s" in final["reasons"]
        assert final["deadline_violations"] == 8

        # ``repro top`` on the finished file, its slo records stripped,
        # replays the samples against the header's target.
        stripped = tmp_path / "stripped.jsonl"
        stripped.write_text(
            "".join(json.dumps(r) + "\n" for r in records if r["record"] != "slo")
        )
        frames = []
        run_top(str(stripped), follow=False, out=frames.append)
        assert "SLO WARN" in frames[0]
        assert "! p99 0.500s > target 0.300s" in frames[0]
        assert "8 deadline violation(s)" in frames[0]


class TestOneRecord:
    """Each outcome is one record: the response, the sample the live
    monitor judges and the sample the file holds say the same thing."""

    def _serve(self, monkeypatch, path, spans_enabled=True):
        """20 arrivals 3 s apart; the first 6 bring a second question that
        is shed, and every 4th answer misses the 0.3 s deadline."""
        clock = _Clock()
        monkeypatch.setattr(server_module, "time", clock)
        config = ServerConfig(
            admission=AdmissionConfig(
                max_concurrent=1, max_queue_depth=0, est_service_s=0.05
            ),
            spans_enabled=spans_enabled,
            trace_sample_rate=1.0,
            telemetry_path=str(path),
        )
        server = QAServer(config, pool=_ReplyPool())
        with server:
            for i in range(20):
                clock.now = 3.0 * i
                server.submit(f"q{i}", qid=i, arrival_s=clock.now)
                if i < 6:
                    server.submit("again", qid=100 + i, arrival_s=clock.now)
                clock.now += 0.5 if i % 4 == 0 else 0.1
                server.poll()
        return server

    def test_sampled_means_head_sampled(self, monkeypatch, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        server = self._serve(monkeypatch, path, spans_enabled=False)
        answered = [r for r in server.responses if r.answered]
        assert len(answered) == 20 and all(r.sampled for r in answered)
        samples = {
            r["seq"]: r for r in read_telemetry(path) if r["record"] == "sample"
        }
        assert {r.seq: r.sampled for r in server.responses} == {
            seq: s["sampled"] for seq, s in samples.items()
        }

    def test_live_monitor_equals_the_top_replay(self, monkeypatch, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        server = self._serve(monkeypatch, path)
        records = read_telemetry(path)
        assert validate_telemetry_file(path) == len(records)
        assert records[-1]["ledger"] == server.ledger.to_dict()
        live_final = [r for r in records if r["record"] == "slo"][-1]
        assert len(server.slo.transitions) >= 2

        monitor = replay_telemetry([r for r in records if r["record"] != "slo"])
        report = monitor.evaluate(monitor.t_last).to_dict()
        assert {"record": "slo", **report} == live_final
        assert monitor.state is server.slo.state
        assert monitor.transitions == server.slo.transitions

    def test_top_refuses_an_observe_spans_file(self, tmp_path):
        from repro.observability import ObserveConfig, run_observe

        run_observe(
            ObserveConfig(
                n_nodes=2, questions_per_node=1, strategies=("RECV",),
                output_dir=str(tmp_path),
            )
        )
        spans = tmp_path / "spans_RECV.jsonl"
        assert validate_telemetry_file(spans) > 2
        with pytest.raises(SystemExit, match="^top: .*p99_target_s"):
            cli.main(["top", "--telemetry", str(spans)])
