"""The one pool of clients sharing one metrics collector (closed or open loop)."""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.crypto.keys import KeyStore
from repro.net.topology import Cloud, Placement
from repro.runtime.api import Runtime
from repro.shard.client import ShardedClient
from repro.shard.router import ShardRouter
from repro.smr.client import Client, ClientConfig
from repro.workload.generator import Workload
from repro.workload.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.openloop import ClientPopulation, OpenLoopDriver


class ClientPool:
    """Creates, registers, and manages the clients of one deployment.

    ``client_configs`` holds one :class:`~repro.smr.client.ClientConfig` per
    replica group.  Without a ``router`` there is one group and the pool
    builds plain :class:`~repro.smr.client.Client` objects; with one it
    builds :class:`~repro.shard.client.ShardedClient` objects holding a
    session per group, recording each group's share into
    ``shard_recorders`` and bounding 2PC prepares by ``txn_timeout`` — a
    choice made from what the pool was given, closed loop and open loop alike.
    """

    def __init__(
        self,
        runtime: Runtime,
        keystore: KeyStore,
        placement: Placement,
        client_configs: Sequence[ClientConfig],
        workload: Workload,
        metrics: Optional[MetricsCollector] = None,
        name_prefix: str = "client",
        router: Optional[ShardRouter] = None,
        shard_recorders: Optional[Dict[int, MetricsCollector]] = None,
        txn_timeout: Optional[float] = None,
    ) -> None:
        if router is None and len(client_configs) != 1:
            raise ValueError(
                f"unrouted clients talk to one group, not {len(client_configs)}: pass a router"
            )
        self.runtime = runtime
        self.keystore = keystore
        self.placement = placement
        self.client_configs = list(client_configs)
        self.workload = workload
        self.metrics = metrics or MetricsCollector()
        self.name_prefix = name_prefix
        self.router = router
        self.shard_recorders = shard_recorders or {}
        self.txn_timeout = txn_timeout
        self.clients: List[Client] = []

    def _attach(self, count: int, make: Callable[..., Client]) -> List[Client]:
        """Key, place, construct (``make(index, **identity)``) and register clients.

        One running index names each client and — in :meth:`spawn` — seeds
        its operation stream, so clients surged later never replay the first
        clients' keys.
        """
        if count < 1:
            raise ValueError(f"client count must be positive: {count}")
        verifier = self.keystore.verifier()
        created: List[Client] = []
        for index in range(len(self.clients), len(self.clients) + count):
            client_id = f"{self.name_prefix}-{index}"
            self.keystore.register(client_id)
            self.placement.assign(client_id, Cloud.CLIENT)
            client = make(
                index,
                node_id=client_id,
                runtime=self.runtime,
                signer=self.keystore.signer_for(client_id),
                verifier=verifier,
                recorder=self.metrics,
            )
            self.runtime.register(client)
            created.append(client)
        self.clients.extend(created)
        return created

    def _client_class(
        self, unrouted: type, routed: type, configs: Sequence[ClientConfig]
    ) -> Callable[..., Client]:
        """The class this pool builds, bound to its group(s): the router alone decides."""
        if self.router is None:
            return partial(unrouted, config=configs[0])
        return partial(
            routed,
            configs=configs,
            router=self.router,
            shard_recorders=self.shard_recorders,
            txn_timeout=self.txn_timeout,
        )

    def spawn(
        self,
        count: int,
        max_requests_each: Optional[int] = None,
        window: Optional[int] = None,
    ) -> List[Client]:
        """Create ``count`` clients and attach them to the transport.

        ``window`` pipelines that many requests per client (defaults to the
        workload's ``client_window``, normally 1 — the paper's closed loop).
        """
        if window is None:
            window = getattr(self.workload, "client_window", 1)
        client_class = self._client_class(Client, ShardedClient, self.client_configs)
        return self._attach(
            count,
            lambda index, **identity: client_class(
                operation_factory=self.workload.operation_factory(client_seed=index),
                max_requests=max_requests_each,
                window=window,
                **identity,
            ),
        )

    def spawn_open_loop(
        self,
        population: "ClientPopulation",
        connections: int = 32,
        max_backlog: int = 10_000,
        max_busy_retries: Optional[int] = 8,
        window: int = 1,
    ) -> "OpenLoopDriver":
        """Spawn a bounded open-loop connection pool driven by ``population``.

        ``connections`` real connection objects multiplex the population's
        arrivals — memory is O(connections + backlog), never O(users).
        ``max_busy_retries`` bounds how often a request is re-sent after
        signed ``Busy`` rejects before being shed (``None`` retries
        forever, which re-queues overload instead of shedding it — only
        sensible without admission control).  Returns the driver; callers
        ``start()`` it alongside the deployment.
        """
        from repro.workload.openloop import (
            OpenLoopConnection,
            OpenLoopDriver,
            RoutedOpenLoopConnection,
            workload_operation_source,
        )

        configs = self.client_configs
        if max_busy_retries is not None:
            configs = [
                dataclass_replace(config, max_busy_retries=max_busy_retries) for config in configs
            ]
        connection_class = self._client_class(
            OpenLoopConnection, RoutedOpenLoopConnection, configs
        )
        created = self._attach(
            connections,
            lambda index, **identity: connection_class(
                operation_factory=lambda timestamp: None, window=window, **identity
            ),
        )
        return OpenLoopDriver(
            self.runtime,
            population,
            created,
            workload_operation_source(self.workload),
            max_backlog=max_backlog,
        )

    def start_all(self) -> None:
        for client in self.clients:
            client.start()

    def stop_all(self) -> None:
        for client in self.clients:
            client.stop()

    @property
    def total_completed(self) -> int:
        return sum(client.completed_count for client in self.clients)

    @property
    def total_timeouts(self) -> int:
        return sum(client.timeouts for client in self.clients)
