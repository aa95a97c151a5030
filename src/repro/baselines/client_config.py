"""Client configurations for the baseline protocols.

All three send to the view's primary, retransmit to every replica, and
report mode 0; they differ only in whose single reply is trusted.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.baselines.config import PaxosConfig, PBFTConfig, UpRightConfig
from repro.smr.client import ClientConfig, ReplyRule


def _client_config(config, request_timeout: float, trusted: FrozenSet[str]) -> ClientConfig:
    def targets(view: int, mode: int) -> List[str]:
        return [config.primary_of_view(view)]

    def retransmit(view: int, mode: int) -> List[str]:
        return list(config.replicas)

    quorum = config.client_reply_quorum
    return ClientConfig(
        request_targets=targets,
        rules={0: ReplyRule(trusted, quorum, quorum)},
        members=frozenset(config.replicas),
        retransmit_targets=retransmit,
        request_timeout=request_timeout,
    )


def paxos_client_config(config: PaxosConfig, request_timeout: float = 0.2) -> ClientConfig:
    """CFT client: send to the leader, a single reply from any replica suffices."""
    return _client_config(config, request_timeout, trusted=frozenset(config.replicas))


def pbft_client_config(config: PBFTConfig, request_timeout: float = 0.2) -> ClientConfig:
    """PBFT client: f+1 matching replies from distinct replicas."""
    return _client_config(config, request_timeout, trusted=frozenset())


def upright_client_config(config: UpRightConfig, request_timeout: float = 0.2) -> ClientConfig:
    """S-UpRight client: m+1 matching replies from distinct replicas."""
    return _client_config(config, request_timeout, trusted=frozenset())
