"""Message delivery between nodes.

The :class:`Network` owns the registered nodes, the latency model, the
adverse-condition controls, and delivery statistics.  It models the paper's
pairwise authenticated, asynchronous channels: messages may be dropped,
delayed, or duplicated (per :class:`~repro.net.conditions.NetworkConditions`),
but a message delivered as coming from replica *j* really was sent by *j* --
spoofing is impossible because senders are identified by the object doing
the sending, not by a field inside the message.
"""

from __future__ import annotations

import random
from collections import Counter
from heapq import heappush
from typing import Any, Dict, Optional

from repro.net.conditions import NetworkConditions
from repro.net.costs import NodeCostModel
from repro.net.latency import LatencyModel, UniformLatencyModel
from repro.net.node import Node
from repro.sim.simulator import Simulator


class Network:
    """Simulated datagram network with per-link latency and pathologies."""

    def __init__(
        self,
        simulator: Simulator,
        latency_model: Optional[LatencyModel] = None,
        conditions: Optional[NetworkConditions] = None,
        cost_model: Optional[NodeCostModel] = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator
        self.latency_model = latency_model or UniformLatencyModel()
        self.conditions = conditions or NetworkConditions()
        self.cost_model = cost_model or NodeCostModel()
        self._rng = random.Random(seed)
        self._nodes: Dict[str, Node] = {}
        # Precomputed reciprocal: transmission delay is size * this, and a
        # method call per delivery into the (frozen) cost model is wasted.
        bandwidth = self.cost_model.bandwidth_bytes_per_second
        self._seconds_per_byte = 1.0 / bandwidth if bandwidth > 0 else 0.0

        self.messages_offered = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_delivered = 0
        # Keyed by message *class* on the hot path (hashing a class is
        # cheaper than building its __name__ string per delivery); exposed
        # by name via :attr:`message_type_counts` / :meth:`stats`.
        self._type_counts: Counter = Counter()

    # -- membership -------------------------------------------------------

    def register(self, node: Node) -> None:
        """Attach ``node`` to the network (id must be unique)."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id: {node.node_id!r}")
        self._nodes[node.node_id] = node
        node.attach(self)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node: {node_id!r}") from None

    def knows(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list:
        return sorted(self._nodes)

    # -- delivery ---------------------------------------------------------

    def deliver(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        """Route one message from ``src`` to ``dst``.

        Applies drop/partition rules, latency, transmission delay, and
        duplication, then schedules arrival at the destination node.
        Messages to unknown destinations are dropped (the node may have been
        removed by an experiment).
        """
        self.messages_offered += 1
        self._type_counts[type(payload)] += 1

        destination = self._nodes.get(dst)
        if destination is None:
            self.messages_dropped += 1
            return

        # Per-delivery bookkeeping is batched into one closure: no envelope
        # object or f-string label on the hot path (labels only matter for
        # debugging traces; the src/dst live in the closure).  The
        # pathology checks collapse to a single flag read while no drop /
        # partition / delay / duplication condition is configured.
        conditions = self.conditions
        if conditions.quiet:
            # _total_delay and Simulator.defer's heap push, inlined for the
            # quiet (no pathology) case — the steady-state path of every benchmark.
            # Exactly one latency sample (one RNG draw) per delivery.
            delay = (
                self.latency_model.sample(src, dst, self._rng)
                + size_bytes * self._seconds_per_byte
            )
            simulator = self.simulator
            seq = simulator._seq
            simulator._seq = seq + 1
            heappush(
                simulator._heap,
                (
                    simulator._now + delay,
                    seq,
                    self._arrive,
                    (src, dst, payload, size_bytes),
                ),
            )
            return

        if conditions.should_drop(src, dst, self._rng):
            self.messages_dropped += 1
            return
        delay = self._total_delay(src, dst, size_bytes)
        self.simulator.defer(delay, self._arrive, (src, dst, payload, size_bytes))
        if conditions.is_duplicated(src, dst):
            duplicate_delay = self._total_delay(src, dst, size_bytes)
            self.simulator.defer(
                duplicate_delay, self._arrive, (src, dst, payload, size_bytes)
            )

    def _total_delay(self, src: str, dst: str, size_bytes: int) -> float:
        latency = self.latency_model.sample(src, dst, self._rng)
        transmission = size_bytes * self._seconds_per_byte
        if self.conditions.quiet:
            return latency + transmission
        return latency + transmission + self.conditions.extra_delay(src, dst)

    def _arrive(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        destination = self._nodes.get(dst)
        if destination is None:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        self.bytes_delivered += size_bytes
        destination.deliver(src, payload, size_bytes)

    # -- statistics -------------------------------------------------------

    @property
    def message_type_counts(self) -> Counter:
        """Offered-message counts keyed by message type *name*."""
        return Counter({cls.__name__: count for cls, count in self._type_counts.items()})

    def stats(self) -> Dict[str, Any]:
        """Snapshot of delivery counters (useful in benches and tests)."""
        return {
            "messages_offered": self.messages_offered,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_delivered": self.bytes_delivered,
            "by_type": dict(self.message_type_counts),
        }
