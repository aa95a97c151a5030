"""Deployment configuration for a SeeMoRe replica group.

The configuration captures the hybrid cloud layout (which replicas are in
the trusted private cloud and which in the untrusted public cloud), the
fault thresholds ``c`` and ``m``, and the role functions of Section 5:

* ``primary_of_view(v)`` — the primary of view ``v`` in each mode;
* ``proxies_of_view(v)`` — the 3m+1 public replicas doing agreement in the
  Dog and Peacock modes;
* ``transferer_of_view(v)`` — the trusted replica that drives Peacock view
  changes;

together with the quorum sizes of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.admission import AdmissionPolicy
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.planner.sizing import hybrid_network_size, hybrid_quorum_size


@dataclass(frozen=True)
class SeeMoReConfig:
    """Static configuration shared by every replica and client.

    Attributes:
        private_replicas: trusted replica ids, in identifier order
            (paper identifiers ``0 .. S-1``).
        public_replicas: untrusted replica ids, in identifier order
            (paper identifiers ``S .. N-1``).
        crash_tolerance: ``c``, maximum crash failures in the private cloud.
        byzantine_tolerance: ``m``, maximum Byzantine failures in the public
            cloud.
        checkpoint_period: a checkpoint is taken every this many executed
            requests.
        request_timeout: view-change timeout ``τ`` (seconds of simulated
            time a backup waits for a commit after seeing a prepare).  A
            replica waits ``2τ`` for a new view before suspecting the
            *next* primary as well.
        batch_policy: how the primary groups client requests into consensus
            slots (see :class:`repro.core.batching.BatchPolicy`).  The
            default policy proposes one request per slot, exactly like the
            unbatched protocol.  ``checkpoint_period`` counts *slots*, so a
            deployment with large batches checkpoints every
            ``checkpoint_period × batch size`` requests.
    """

    private_replicas: Tuple[str, ...]
    public_replicas: Tuple[str, ...]
    crash_tolerance: int
    byzantine_tolerance: int
    checkpoint_period: int = 128
    request_timeout: float = 0.02
    batch_policy: BatchPolicy = field(default_factory=BatchPolicy)
    # Primary-side admission control (None = accept everything, the paper's
    # closed-loop setting; see repro.core.admission for the open-loop story).
    admission: Optional[AdmissionPolicy] = None
    # Memo for proxies_of_view, keyed by ``view mod public_size``.  Derived
    # state only: excluded from equality/hash/repr, never serialized.
    _proxy_cache: Dict[int, List[str]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _proxy_set_cache: Dict[int, frozenset] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    # Memo for primary_of_view, keyed by ``(view, mode)``.  Every vote and
    # request handler asks who the primary is, so the modulo-and-index is
    # paid once per (view, mode) instead of per message.
    _primary_cache: Dict[tuple, str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.crash_tolerance < 0 or self.byzantine_tolerance < 0:
            raise ValueError("fault tolerances cannot be negative")
        if not self.private_replicas:
            raise ValueError("SeeMoRe requires at least one trusted replica for the primary")
        if self.crash_tolerance >= len(self.private_replicas) and self.crash_tolerance > 0:
            raise ValueError(
                f"private cloud of {len(self.private_replicas)} replicas cannot tolerate "
                f"c={self.crash_tolerance} crashes"
            )
        overlap = set(self.private_replicas) & set(self.public_replicas)
        if overlap:
            raise ValueError(f"replicas cannot be in both clouds: {sorted(overlap)}")
        if self.network_size < self.minimum_network_size:
            raise ValueError(
                f"network of {self.network_size} replicas is below the minimum "
                f"3m+2c+1 = {self.minimum_network_size}"
            )
        if len(self.public_replicas) < self.proxy_count and self.byzantine_tolerance > 0:
            raise ValueError(
                f"public cloud of {len(self.public_replicas)} replicas cannot host "
                f"3m+1 = {self.proxy_count} proxies"
            )
        if self.checkpoint_period < 1:
            raise ValueError("checkpoint period must be at least 1")

    # -- factory ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        crash_tolerance: int,
        byzantine_tolerance: int,
        private_size: int = 0,
        public_size: int = 0,
        name_prefix: str = "",
        **overrides,
    ) -> "SeeMoReConfig":
        """Create a config with generated replica names.

        By default uses the paper's evaluation layout: ``2c`` replicas in
        the private cloud and ``3m+1`` in the public cloud, for a total of
        exactly ``3m + 2c + 1``.  ``name_prefix`` namespaces the generated
        replica ids (e.g. ``"s0-"``) so several independently configured
        clusters — the shards of a sharded deployment — can share one
        simulator, network, and keystore without id collisions.
        """
        if private_size <= 0:
            private_size = max(1, 2 * crash_tolerance)
        if public_size <= 0:
            public_size = 3 * byzantine_tolerance + 1
        private = tuple(f"{name_prefix}private-{index}" for index in range(private_size))
        public = tuple(f"{name_prefix}public-{index}" for index in range(public_size))
        return cls(
            private_replicas=private,
            public_replicas=public,
            crash_tolerance=crash_tolerance,
            byzantine_tolerance=byzantine_tolerance,
            **overrides,
        )

    # -- sizes ----------------------------------------------------------------

    @property
    def private_size(self) -> int:
        """``S`` in the paper."""
        return len(self.private_replicas)

    @property
    def public_size(self) -> int:
        """``P`` in the paper."""
        return len(self.public_replicas)

    @property
    def network_size(self) -> int:
        """``N = S + P``."""
        return self.private_size + self.public_size

    @property
    def minimum_network_size(self) -> int:
        """``3m + 2c + 1`` (Equation 1)."""
        return hybrid_network_size(self.byzantine_tolerance, self.crash_tolerance)

    @property
    def proxy_count(self) -> int:
        """``3m + 1`` proxies used by the Dog and Peacock modes."""
        return 3 * self.byzantine_tolerance + 1

    @property
    def all_replicas(self) -> Tuple[str, ...]:
        return self.private_replicas + self.public_replicas

    def is_trusted(self, replica_id: str) -> bool:
        return replica_id in self.private_replicas

    # -- quorums (Table 1) ------------------------------------------------------

    def quorum_size(self, mode: Mode) -> int:
        """Matching votes needed to commit a request in ``mode``."""
        if mode is Mode.LION:
            return hybrid_quorum_size(self.byzantine_tolerance, self.crash_tolerance)
        return 2 * self.byzantine_tolerance + 1

    def accept_quorum(self, mode: Mode) -> int:
        """Votes (including the collector's own) needed in the accept phase."""
        return self.quorum_size(mode)

    def commit_quorum(self, mode: Mode) -> int:
        """Matching commits that commit a slot at a proxy: m+1 catch up a Dog
        proxy (a prepared one commits at once), 2m+1 commit a Peacock one."""
        if mode is Mode.DOG:
            return self.byzantine_tolerance + 1
        return 2 * self.byzantine_tolerance + 1

    def inform_quorum(self, mode: Mode) -> int:
        """Matching inform messages a passive replica waits for before executing."""
        if mode is Mode.DOG:
            return 2 * self.byzantine_tolerance + 1
        return self.byzantine_tolerance + 1

    def view_change_quorum(self, mode: Mode) -> int:
        """View-change messages (including the collector's own) needed for a new view."""
        if mode is Mode.LION:
            return hybrid_quorum_size(self.byzantine_tolerance, self.crash_tolerance)
        return 2 * self.byzantine_tolerance + 1

    # -- roles --------------------------------------------------------------------

    def primary_of_view(self, view: int, mode: Mode) -> str:
        """The primary of ``view`` under ``mode`` (Section 5 role functions)."""
        cached = self._primary_cache.get((view, mode))
        if cached is not None:
            return cached
        if view < 0:
            raise ValueError(f"view numbers are non-negative: {view}")
        if mode.has_trusted_primary:
            primary = self.private_replicas[view % self.private_size]
        elif not self.public_replicas:
            raise ValueError("the Peacock mode requires at least one public-cloud replica")
        else:
            primary = self.public_replicas[view % self.public_size]
        self._primary_cache[(view, mode)] = primary
        return primary

    def transferer_of_view(self, view: int) -> str:
        """The trusted transferer that installs Peacock view ``view``."""
        if view < 0:
            raise ValueError(f"view numbers are non-negative: {view}")
        return self.private_replicas[view % self.private_size]

    def proxies_of_view(self, view: int, mode: Mode) -> List[str]:
        """The 3m+1 public-cloud proxies of ``view`` (Dog and Peacock modes).

        A public replica with public-cloud index ``j`` is a proxy when
        ``(j - (v mod P)) mod P <= 3m``, which rotates the proxy set with
        the view and always makes the Peacock primary a proxy.

        The result only depends on ``view mod P``, so it is memoized — every
        vote-validity check consults the proxy set, making this one of the
        hottest calls in the Dog and Peacock modes.  Callers must treat the
        returned list as read-only.
        """
        if not mode.uses_proxies or not self.public_replicas:
            return []
        offset = view % self.public_size
        cached = self._proxy_cache.get(offset)
        if cached is None:
            proxies = [
                replica_id
                for index, replica_id in enumerate(self.public_replicas)
                if (index - offset) % self.public_size <= 3 * self.byzantine_tolerance
            ]
            cached = proxies[: self.proxy_count]
            self._proxy_cache[offset] = cached
        return cached

    def proxy_set_of_view(self, view: int, mode: Mode) -> frozenset:
        """Frozenset of :meth:`proxies_of_view`, memoized for membership tests."""
        if not mode.uses_proxies or not self.public_replicas:
            return frozenset()
        offset = view % self.public_size
        cached = self._proxy_set_cache.get(offset)
        if cached is None:
            cached = frozenset(self.proxies_of_view(view, mode))
            self._proxy_set_cache[offset] = cached
        return cached

    def is_proxy(self, replica_id: str, view: int, mode: Mode) -> bool:
        return replica_id in self.proxy_set_of_view(view, mode)

    def participants(self, view: int, mode: Mode) -> List[str]:
        """Replicas that actively vote in the agreement of ``view``."""
        if mode is Mode.LION:
            return list(self.all_replicas)
        proxies = self.proxies_of_view(view, mode)
        if mode is Mode.DOG:
            return [self.primary_of_view(view, mode)] + proxies
        return proxies

    def passive_replicas(self, view: int, mode: Mode) -> List[str]:
        """Replicas that only learn results via inform messages in ``view``."""
        participants = set(self.participants(view, mode))
        return [replica for replica in self.all_replicas if replica not in participants]

    def receiving_network_size(self, mode: Mode) -> int:
        """Replicas that receive a client request's ordering messages (Table 1)."""
        if mode is Mode.LION:
            return self.minimum_network_size
        return self.proxy_count
