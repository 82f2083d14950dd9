"""Property test: admission-queue question conservation.

Every question submitted to a :class:`QAServer` must finish in exactly
one of {answered, shed, drained} — under random burst patterns, worker
completion schedules, and admission configurations.  The executor here
is a scriptable stub so Hypothesis can explore completion orders
(including "never completes", which exercises the ``DRAINED`` path)
without paying for real pipelines.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    AdmissionConfig,
    Outcome,
    QAServer,
    ServerConfig,
)
from repro.serving.workers import ExecutionResult


class ScriptedPool:
    """Executor stub completing a caller-controlled subset of submissions.

    ``complete_mask[i]`` decides whether the i-th *accepted* question
    ever completes; completions surface in FIFO order at the next
    ``poll``/``drain``.  Unfinished questions stay in flight forever, so
    the server must account them ``DRAINED`` at shutdown.
    """

    workers = 1

    def __init__(self, complete_mask):
        self.complete_mask = complete_mask
        self.accepted = 0
        self._ready = []
        self.attach_report = {}
        self.worker_snapshots = {}

    def start(self):
        pass

    def submit(self, unit):
        for seq, qid, _text, _submit_wall in unit:
            i = self.accepted
            self.accepted += 1
            if i < len(self.complete_mask) and self.complete_mask[i]:
                self._ready.append(
                    ExecutionResult(
                        seq=seq, qid=qid, answers=(("stub", 1.0),),
                        wait_s=0.0, service_s=0.001, worker_pid=1,
                    )
                )

    def poll(self):
        out, self._ready = self._ready, []
        return out

    def drain(self, timeout_s):
        return self.poll()

    def stop(self):
        pass


@st.composite
def burst_plan(draw):
    """A random admission config plus a random burst schedule.

    The schedule is a list of (client, logical inter-arrival gap)
    pairs; zero gaps form bursts that overflow the bounded queue.
    """
    config = AdmissionConfig(
        max_concurrent=draw(st.integers(1, 4)),
        max_queue_depth=draw(st.integers(0, 5)),
        est_service_s=draw(st.floats(0.01, 0.5)),
        rate_limit_qps=draw(st.sampled_from([0.0, 2.0, 50.0])),
        rate_burst=draw(st.integers(1, 4)),
    )
    n = draw(st.integers(1, 40))
    gaps = draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    )
    clients = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)
    )
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return config, gaps, clients, mask


@settings(max_examples=60, deadline=None)
@given(plan=burst_plan())
def test_every_question_has_exactly_one_outcome(plan):
    admission, gaps, clients, mask = plan
    pool = ScriptedPool(mask)
    server = QAServer(
        ServerConfig(
            admission=admission, workers=1,
            metrics_enabled=False, spans_enabled=False,
        ),
        pool=pool,
    )
    server.start()
    now = 0.0
    for i, (gap, client) in enumerate(zip(gaps, clients)):
        now += gap
        server.submit(f"question {i}", qid=i, client=client, arrival_s=now)
        if i % 3 == 2:  # interleave completions with submissions
            server.poll()
    server.poll()
    ledger = server.drain()
    server.stop()

    n = len(gaps)
    assert ledger.submitted == n
    assert ledger.balanced, ledger
    assert ledger.answered + ledger.shed + ledger.drained == n
    # The response log tells the same story, one terminal record each.
    assert len(server.responses) == n
    assert sorted(r.seq for r in server.responses) == list(range(n))
    by_outcome = {
        Outcome.ANSWERED: 0, Outcome.SHED: 0, Outcome.DRAINED: 0,
    }
    for r in server.responses:
        by_outcome[r.outcome] += 1
    assert by_outcome[Outcome.ANSWERED] == ledger.answered
    assert by_outcome[Outcome.SHED] == ledger.shed
    assert by_outcome[Outcome.DRAINED] == ledger.drained
    # Shed taxonomy adds up too.
    assert sum(ledger.shed_by_reason.values()) == ledger.shed


@settings(max_examples=20, deadline=None)
@given(plan=burst_plan())
def test_drain_is_idempotent_and_final(plan):
    admission, gaps, clients, mask = plan
    server = QAServer(
        ServerConfig(
            admission=admission, workers=1,
            metrics_enabled=False, spans_enabled=False,
        ),
        pool=ScriptedPool(mask),
    )
    server.start()
    now = 0.0
    for i, (gap, client) in enumerate(zip(gaps, clients)):
        now += gap
        server.submit(f"q{i}", qid=i, client=client, arrival_s=now)
    first = server.drain()
    again = server.drain()
    assert again is first and again.balanced
    # Post-drain submissions shed DRAINING and stay conserved.
    d = server.submit("too late", qid=999, arrival_s=now + 1.0)
    assert not d.accepted
    assert server.ledger.balanced
    server.stop()
