"""Shared-medium interconnection network model.

The paper's testbed is a *star-configuration 100 Mbps Ethernet* — a shared
medium where all concurrent transfers contend for the same bandwidth.  The
analytical model (Section 5) assumes exactly this: with ``N`` simultaneous
broadcasters the per-node bandwidth is ``B/N``.

We model the medium as one :class:`FairShareResource` with capacity equal
to the nominal bandwidth in **bytes/second**.  A message additionally pays:

* a fixed *latency* (propagation + protocol stack), and
* an optional *connection setup* cost — the paper's RECV partitioning
  strategy pays one TCP connection per chunk, which is what makes very
  small chunks unprofitable (Fig 10).

Broadcasts would occupy the medium once (a hub repeats the frame to every
port), matching the analytical model's ``S_load·N/B`` total monitoring
traffic — the N factor comes from N nodes each broadcasting, not from N
copies.  The only broadcasts, the load monitor's, are charged that way as
a standing reservation (:meth:`Network.reserve`) and counted with
:meth:`Network.book_broadcasts`.
"""

from __future__ import annotations

import typing as t

from .engine import Environment
from .events import Event
from .resources import FairShareResource

__all__ = ["Network", "TransferFailed"]


class TransferFailed(Exception):
    """Raised inside a waiting process when a transfer is aborted.

    The paper detects worker failure "through TCP error messages"
    (Section 4.1.1); this exception is the simulated equivalent.
    """

    def __init__(self, src: object, dst: object, nbytes: float, reason: str) -> None:
        super().__init__(f"transfer {src}->{dst} ({nbytes:.0f} B) failed: {reason}")
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.reason = reason


class Network:
    """A shared-bandwidth interconnection network.

    Parameters
    ----------
    env:
        Simulation environment.
    bandwidth_bps:
        Nominal bandwidth in *bits* per second (networks are quoted in
        bits; 100 Mbps Ethernet => ``100e6``).
    latency_s:
        One-way per-message latency in seconds.
    connection_setup_s:
        Extra latency charged when ``new_connection=True`` (TCP handshake).
    """

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = 100e6,
        latency_s: float = 0.2e-3,
        connection_setup_s: float = 1.5e-3,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.connection_setup_s = float(connection_setup_s)
        self.medium = FairShareResource(
            env, capacity=bandwidth_bps / 8.0, name="network"
        )
        #: Set of node ids currently reachable; transfers to/from a dead
        #: node fail.  Nodes are considered up unless explicitly marked.
        self._down: set[object] = set()
        # Accounting
        self.bytes_transferred = 0.0
        self.messages_sent = 0
        self.broadcasts_sent = 0

    # -- failure control -------------------------------------------------------
    def set_node_up(self, node_id: object, up: bool) -> None:
        """Mark a node as reachable/unreachable on the network."""
        if up:
            self._down.discard(node_id)
        else:
            self._down.add(node_id)

    def is_up(self, node_id: object) -> bool:
        return node_id not in self._down

    # -- standing reservations -------------------------------------------------
    def reserve(self, fraction: float) -> None:
        """Hold back a standing ``fraction`` of the medium's bandwidth.

        Periodic traffic whose cost is known in closed form (the load
        monitor's ``N·S_load`` bytes per interval, Eq 14) is charged this
        way rather than as messages; :meth:`book_broadcasts` keeps it in
        the accounting.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"network reservation must be in [0, 1), got {fraction}")
        self.medium.set_capacity(self.bandwidth_bps / 8.0 * (1.0 - fraction))

    def book_broadcasts(self, count: int, nbytes: float) -> None:
        """Account ``count`` broadcasts, ``nbytes`` in all, carried by a reservation."""
        self.broadcasts_sent += count
        self.bytes_transferred += nbytes

    # -- transfers ---------------------------------------------------------------
    def transfer(
        self,
        src: object,
        dst: object,
        nbytes: float,
        new_connection: bool = False,
    ) -> t.Generator[Event, object, float]:
        """Process body: move ``nbytes`` from ``src`` to ``dst``.

        Yields until the transfer completes; returns the elapsed transfer
        time.  Raises :class:`TransferFailed` if either endpoint is down at
        the start or goes down mid-transfer (checked at completion — the
        granularity at which TCP would observe a reset).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        start = self.env.now
        if not self.is_up(src) or not self.is_up(dst):
            raise TransferFailed(src, dst, nbytes, "endpoint down")
        setup = self.connection_setup_s if new_connection else 0.0
        if setup + self.latency_s > 0:
            yield self.env.timeout(setup + self.latency_s)
        if nbytes > 0:
            job = self.medium.use(nbytes)
            yield job.event
        if not self.is_up(src) or not self.is_up(dst):
            raise TransferFailed(src, dst, nbytes, "endpoint failed mid-transfer")
        self.bytes_transferred += nbytes
        self.messages_sent += 1
        return self.env.now - start
