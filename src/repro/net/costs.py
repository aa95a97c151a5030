"""Per-node CPU and bandwidth cost model.

Each node is a single-threaded server (see :mod:`repro.runtime.sim`).  The
cost model determines how much CPU a message charges when it is sent and
when it is handled, and how long its bytes occupy the wire.  Together with
the crypto cost model this is what makes protocols with more phases, more
messages, or bigger quorums saturate earlier -- the effect behind the
latency-throughput curves of Figures 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.crypto.costs import CryptoCostModel


@dataclass(frozen=True)
class NodeCostModel:
    """CPU/bandwidth costs charged by every node.

    Attributes:
        handle_base_cost: fixed CPU cost to deserialize and dispatch one
            received message.
        handle_per_byte: additional CPU cost per payload byte received.
        send_base_cost: fixed CPU cost to serialize and enqueue one outgoing
            message.
        send_per_byte: additional CPU cost per payload byte sent.
        execute_cost: CPU cost of executing one state-machine operation.
        bandwidth_bytes_per_second: link bandwidth used to compute
            transmission delay (bytes / bandwidth), shared by all links.
        crypto: cost of signatures, MACs, and digests.
    """

    handle_base_cost: float = 5e-6
    handle_per_byte: float = 0.6e-9
    send_base_cost: float = 8e-6
    send_per_byte: float = 0.6e-9
    execute_cost: float = 2e-6
    bandwidth_bytes_per_second: float = 1.25e9
    crypto: CryptoCostModel = field(default_factory=CryptoCostModel)
    # Memo for the pure cost functions, keyed by their int/bool arguments.
    # A steady-state run sees only a handful of distinct message sizes, so
    # the arithmetic (and crypto sub-model calls) would otherwise repeat on
    # every delivery.  A plain instance dict beats ``functools.lru_cache``
    # here: the lru would re-hash this (frozen, nested) dataclass per call.
    _cost_memo: Dict[Tuple, float] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def receive_cost(self, size_bytes: int, signed: bool, verify_signatures: int = 1) -> float:
        """CPU cost to accept one incoming message.

        Args:
            size_bytes: serialized message size.
            signed: whether the message carries public-key signatures that
                the receiver must verify (vs. only channel MACs).
            verify_signatures: how many signatures must be verified (e.g. a
                new-view message embeds several).
        """
        key = (size_bytes, signed, verify_signatures)
        cached = self._cost_memo.get(key)
        if cached is not None:
            return cached
        cost = self.handle_base_cost + self.handle_per_byte * size_bytes
        cost += self.crypto.digest_cost(size_bytes)
        if signed:
            cost += self.crypto.verify_cost * max(1, verify_signatures)
        else:
            cost += self.crypto.mac_cost
        self._cost_memo[key] = cost
        return cost

    def send_cost(self, size_bytes: int, signed: bool) -> float:
        """CPU cost to produce and enqueue one outgoing message.

        Signing is charged once per *message content*; the network layer is
        responsible for charging it only once per multicast (a replica signs
        the message once and sends the same bytes to everyone).
        """
        key = (size_bytes, signed)
        cached = self._cost_memo.get(key)
        if cached is not None:
            return cached
        cost = self.send_base_cost + self.send_per_byte * size_bytes
        if signed:
            cost += self.crypto.sign_cost
        else:
            cost += self.crypto.mac_cost
        self._cost_memo[key] = cost
        return cost

    def transmission_delay(self, size_bytes: int) -> float:
        """Time the message's bytes occupy the wire."""
        if self.bandwidth_bytes_per_second <= 0:
            return 0.0
        return size_bytes / self.bandwidth_bytes_per_second
