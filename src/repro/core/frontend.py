"""The DNS front-end (Section 3.1).

"We assume that an initial distribution of questions among processors is
already performed by the Domain Name Service ... requests are mapped to
system processors in a round-robin manner.  In practice, load balancing
using this strategy is far from perfect ... due to DNS address caching,
requests from the same net are directed to the same IP address for the
lifetime of the cache."

:class:`DNSFrontend` models the perfect round-robin the paper's experiments
assume for comparability.
"""

from __future__ import annotations

from ..observability.metrics import MetricsRegistry
from ..observability.names import DNS_ASSIGNMENTS

__all__ = ["DNSFrontend"]


class DNSFrontend:
    """Round-robin question-to-node assignment over ``n_nodes`` nodes (the
    paper's "perfect round-robin initial question distribution")."""

    def __init__(
        self,
        n_nodes: int,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.metrics = metrics
        self._next = 0
        self.assignments: list[int] = []

    def assign(self) -> int:
        """Pick the entry node for the next question."""
        node = self._next
        self._next = (self._next + 1) % self.n_nodes
        self.assignments.append(node)
        if self.metrics is not None:
            self.metrics.inc(DNS_ASSIGNMENTS)
        return node
