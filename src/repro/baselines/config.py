"""Configurations for the baseline protocols."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class BaselineConfig:
    """Common shape of a baseline replica-group configuration.

    Attributes:
        replicas: replica ids in identifier order.
        checkpoint_period: how often replicas checkpoint and garbage collect.
        request_timeout: backup timeout before suspecting the primary; twice
            it is how long a replica waits for a new view to be installed.
    """

    replicas: Tuple[str, ...]
    checkpoint_period: int = 128
    request_timeout: float = 0.02

    def __post_init__(self) -> None:
        if len(self.replicas) < self.minimum_network_size:
            raise ValueError(
                f"{type(self).__name__} needs at least {self.minimum_network_size} replicas, "
                f"got {len(self.replicas)}"
            )

    # -- to be specialised -----------------------------------------------------

    @property
    def minimum_network_size(self) -> int:
        raise NotImplementedError

    @property
    def agreement_quorum(self) -> int:
        """Votes (including the collector's own) needed to order a request."""
        raise NotImplementedError

    @property
    def commit_quorum(self) -> int:
        """Matching commit votes needed to commit (BFT-style protocols)."""
        return self.agreement_quorum

    @property
    def client_reply_quorum(self) -> int:
        """Matching replies a client needs before accepting a result."""
        raise NotImplementedError

    @property
    def messages_are_signed(self) -> bool:
        """Whether replica-to-replica protocol messages carry signatures."""
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------------

    @property
    def network_size(self) -> int:
        return len(self.replicas)

    def primary_of_view(self, view: int) -> str:
        if view < 0:
            raise ValueError(f"view numbers are non-negative: {view}")
        return self.replicas[view % len(self.replicas)]

    @classmethod
    def build(cls, *args, prefix: str = "replica", **kwargs) -> "BaselineConfig":
        raise NotImplementedError


@dataclass(frozen=True)
class PaxosConfig(BaselineConfig):
    """Crash fault tolerance: 2f+1 replicas, quorum f+1, unsigned messages."""

    crash_tolerance: int = 1

    @property
    def minimum_network_size(self) -> int:
        return 2 * self.crash_tolerance + 1

    @property
    def agreement_quorum(self) -> int:
        return self.crash_tolerance + 1

    @property
    def client_reply_quorum(self) -> int:
        return 1

    @property
    def messages_are_signed(self) -> bool:
        return False

    @classmethod
    def build(cls, crash_tolerance: int, prefix: str = "cft", **overrides) -> "PaxosConfig":
        replicas = tuple(f"{prefix}-{index}" for index in range(2 * crash_tolerance + 1))
        return cls(replicas=replicas, crash_tolerance=crash_tolerance, **overrides)


@dataclass(frozen=True)
class PBFTConfig(BaselineConfig):
    """Byzantine fault tolerance: 3f+1 replicas, quorum 2f+1, signed messages."""

    byzantine_tolerance: int = 1

    @property
    def minimum_network_size(self) -> int:
        return 3 * self.byzantine_tolerance + 1

    @property
    def agreement_quorum(self) -> int:
        return 2 * self.byzantine_tolerance + 1

    @property
    def client_reply_quorum(self) -> int:
        return self.byzantine_tolerance + 1

    @property
    def messages_are_signed(self) -> bool:
        return True

    @classmethod
    def build(cls, byzantine_tolerance: int, prefix: str = "bft", **overrides) -> "PBFTConfig":
        replicas = tuple(f"{prefix}-{index}" for index in range(3 * byzantine_tolerance + 1))
        return cls(replicas=replicas, byzantine_tolerance=byzantine_tolerance, **overrides)


@dataclass(frozen=True)
class UpRightConfig(BaselineConfig):
    """S-UpRight: the hybrid model's 3m+2c+1 replicas with quorum 2m+c+1.

    Unlike SeeMoRe, UpRight does not know *where* crash or Byzantine faults
    can occur, so every replica is treated as potentially Byzantine and all
    protocol messages are signed.
    """

    crash_tolerance: int = 0
    byzantine_tolerance: int = 1

    @property
    def minimum_network_size(self) -> int:
        return 3 * self.byzantine_tolerance + 2 * self.crash_tolerance + 1

    @property
    def agreement_quorum(self) -> int:
        return 2 * self.byzantine_tolerance + self.crash_tolerance + 1

    @property
    def client_reply_quorum(self) -> int:
        return self.byzantine_tolerance + 1

    @property
    def messages_are_signed(self) -> bool:
        return True

    @classmethod
    def build(
        cls,
        crash_tolerance: int,
        byzantine_tolerance: int,
        prefix: str = "upright",
        **overrides,
    ) -> "UpRightConfig":
        size = 3 * byzantine_tolerance + 2 * crash_tolerance + 1
        replicas = tuple(f"{prefix}-{index}" for index in range(size))
        return cls(
            replicas=replicas,
            crash_tolerance=crash_tolerance,
            byzantine_tolerance=byzantine_tolerance,
            **overrides,
        )
