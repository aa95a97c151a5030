"""Workload definitions.

A workload is a recipe for the operations clients issue and the size of the
replies the service returns.  The paper's micro-benchmarks are named
``"x/y"``: request payloads of x KB and reply payloads of y KB (``0/0``,
``0/4``, and ``4/0`` appear in Figures 2 and 3).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (shard -> workload)
    from repro.shard.partition import Partitioner

from repro.smr.state_machine import (
    KeyValueStore,
    NullStateMachine,
    Operation,
    StateMachine,
    TransactionalKeyValueStore,
)

KILOBYTE = 1024


@dataclass(frozen=True)
class WorkloadSpec:
    """One declarative description of any workload this repo can generate.

    The single entry point :meth:`Workload.build` turns a spec into the
    right :class:`Workload` subclass: payload sizes, key distribution and
    cross-shard fraction, all in one dataclass.

    Attributes:
        kind: ``"micro"`` (payload-only no-op service), ``"kv"``
            (key-value store), or ``"sharded-kv"`` (transactional
            key-value store with cross-shard transactions).
        name: workload display name; derived from the knobs when ``None``.
        request_kb / reply_kb: the paper's x/y micro-benchmark payload
            sizes, in KB (used by every kind).
        client_window: requests each closed-loop client pipelines.
        key_space / value_size / read_fraction / seed / key_distribution /
            zipf_theta: key-value knobs (``kv`` and ``sharded-kv``).
        cross_shard_fraction / txn_size / partitioner: sharded knobs.
    """

    kind: str = "micro"
    name: Optional[str] = None
    request_kb: int = 0
    reply_kb: int = 0
    client_window: int = 1
    key_space: int = 1000
    value_size: int = 64
    read_fraction: float = 0.5
    seed: int = 0
    key_distribution: str = "uniform"
    zipf_theta: float = 0.99
    cross_shard_fraction: float = 0.1
    txn_size: int = 2
    partitioner: Optional["Partitioner"] = None

    @classmethod
    def micro(cls, name: str, **overrides) -> "WorkloadSpec":
        """Spec for one of the paper's ``"x/y"`` micro-benchmarks."""
        try:
            request_kb_text, reply_kb_text = name.split("/")
            request_kb = int(request_kb_text)
            reply_kb = int(reply_kb_text)
        except (ValueError, AttributeError):
            raise ValueError(f"micro-benchmark names look like '0/4', got {name!r}") from None
        return cls(kind="micro", name=name, request_kb=request_kb, reply_kb=reply_kb, **overrides)

    def __post_init__(self) -> None:
        if self.kind not in ("micro", "kv", "sharded-kv"):
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"choose 'micro', 'kv', or 'sharded-kv'"
            )
        if self.request_kb < 0 or self.reply_kb < 0:
            raise ValueError(
                f"payload sizes cannot be negative: {self.request_kb}/{self.reply_kb}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read fraction must be in [0, 1]: {self.read_fraction}")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError(
                f"cross-shard fraction must be in [0, 1]: {self.cross_shard_fraction}"
            )


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build operations and the service they run on.

    Attributes:
        name: human-readable name (e.g. ``"0/4"``).
        request_payload_bytes: extra payload attached to every request.
        reply_payload_bytes: payload the service attaches to every reply.
        client_window: requests each client keeps in flight.  ``1`` is the
            paper's closed loop; larger windows pipeline requests so batching
            primaries see enough concurrent load to fill their batches.
    """

    name: str
    request_payload_bytes: int = 0
    reply_payload_bytes: int = 0
    client_window: int = 1

    def with_client_window(self, window: int) -> "Workload":
        """Copy of this workload with a different per-client pipeline window."""
        if window < 1:
            raise ValueError(f"client window must be at least 1: {window}")
        return replace(self, client_window=window)

    @classmethod
    def build(cls, spec: Union[str, WorkloadSpec]) -> "Workload":
        """The one spec-driven workload entry point.

        Accepts a full :class:`WorkloadSpec` or — as shorthand for the
        overwhelmingly common case — a bare ``"x/y"`` micro-benchmark
        name.  Returns the :class:`Workload` subclass the spec's ``kind``
        calls for.
        """
        if isinstance(spec, str):
            spec = WorkloadSpec.micro(spec)
        if spec.kind == "micro":
            return Workload(
                name=spec.name or f"{spec.request_kb}/{spec.reply_kb}",
                request_payload_bytes=spec.request_kb * KILOBYTE,
                reply_payload_bytes=spec.reply_kb * KILOBYTE,
                client_window=spec.client_window,
            )
        if spec.kind == "kv":
            return KeyValueWorkload(
                name=spec.name or f"kv-{int(spec.read_fraction * 100)}r",
                request_payload_bytes=spec.request_kb * KILOBYTE,
                reply_payload_bytes=spec.reply_kb * KILOBYTE,
                client_window=spec.client_window,
                key_space=spec.key_space,
                value_size=spec.value_size,
                read_fraction=spec.read_fraction,
                seed=spec.seed,
                key_distribution=spec.key_distribution,
                zipf_theta=spec.zipf_theta,
            )
        return ShardedKeyValueWorkload(
            name=spec.name or f"kv-sharded-{int(spec.cross_shard_fraction * 100)}x",
            request_payload_bytes=spec.request_kb * KILOBYTE,
            reply_payload_bytes=spec.reply_kb * KILOBYTE,
            client_window=spec.client_window,
            key_space=spec.key_space,
            value_size=spec.value_size,
            read_fraction=spec.read_fraction,
            seed=spec.seed,
            key_distribution=spec.key_distribution,
            zipf_theta=spec.zipf_theta,
            cross_shard_fraction=spec.cross_shard_fraction,
            txn_size=spec.txn_size,
            partitioner=spec.partitioner,
        )

    def operation_factory(self, client_seed: int = 0) -> Callable[[int], Operation]:
        """Return a factory mapping a client timestamp to an operation."""
        payload = "x" * self.request_payload_bytes

        def factory(timestamp: int) -> Operation:
            return Operation("noop", (), payload)

        return factory

    def state_machine_factory(self) -> Callable[[], StateMachine]:
        """Return a factory for the state machine replicas should run."""
        reply_bytes = self.reply_payload_bytes

        def factory() -> StateMachine:
            return NullStateMachine(reply_payload_size=reply_bytes)

        return factory


@dataclass(frozen=True)
class KeyValueWorkload(Workload):
    """A key-value workload: a mix of puts and gets over a keyspace.

    Used by the examples to exercise the replicated key-value store rather
    than the no-op micro-benchmark service.  Key choice is either uniform
    or Zipfian (``key_distribution="zipfian"``): real key-value traffic is
    skewed, and a hot key stresses whichever shard owns it — the scenario
    the sharded deployments need to reproduce.  Both distributions are
    seed-deterministic.
    """

    key_space: int = 1000
    value_size: int = 64
    read_fraction: float = 0.5
    seed: int = 0
    key_distribution: str = "uniform"
    zipf_theta: float = 0.99

    def _key_sampler(self, rng: random.Random) -> Callable[[], str]:
        """A deterministic ``() -> key`` sampler for this workload's distribution."""
        if self.key_distribution == "uniform":
            return lambda: f"key-{rng.randrange(self.key_space)}"
        if self.key_distribution == "zipfian":
            # Classic Zipf over ranks 1..key_space with exponent theta:
            # P(rank r) ∝ r^-theta.  Rank 0 maps to key-0 (the hottest key);
            # inversion samples the precomputed cumulative weights.
            if self.zipf_theta <= 0:
                raise ValueError(f"zipf theta must be positive: {self.zipf_theta}")
            cumulative = []
            total = 0.0
            for rank in range(self.key_space):
                total += (rank + 1) ** -self.zipf_theta
                cumulative.append(total)

            def sample() -> str:
                return f"key-{bisect_right(cumulative, rng.random() * total)}"

            return sample
        raise ValueError(
            f"unknown key distribution {self.key_distribution!r}; "
            f"choose 'uniform' or 'zipfian'"
        )

    def operation_factory(self, client_seed: int = 0) -> Callable[[int], Operation]:
        rng = random.Random(self.seed * 100_003 + client_seed)
        value = "v" * self.value_size
        sample_key = self._key_sampler(rng)

        def factory(timestamp: int) -> Operation:
            key = sample_key()
            if rng.random() < self.read_fraction:
                return Operation("get", (key,))
            return Operation("put", (key, value))

        return factory

    def state_machine_factory(self) -> Callable[[], StateMachine]:
        return KeyValueStore


@dataclass(frozen=True)
class ShardedKeyValueWorkload(KeyValueWorkload):
    """A key-value workload aware of the deployment's keyspace partition.

    Single-key operations route wherever their key lives; a configurable
    fraction of operations are multi-write transactions
    (``Operation("txn", ...)``) whose keys — when a ``partitioner`` is
    attached — are deterministically re-drawn until they span at least two
    shards, so ``cross_shard_fraction`` really is the fraction of traffic
    exercising the two-phase commit path.  With ``partitioner=None`` the
    transactions still run, but key placement is left to chance.

    The state machine is the transactional store, so every shard can order
    prepare/decide records through its own consensus.
    """

    cross_shard_fraction: float = 0.0
    txn_size: int = 2
    partitioner: Optional[Partitioner] = None

    #: Bounded deterministic re-draws when forcing a transaction to span shards.
    _SPAN_ATTEMPTS = 64

    def with_partitioner(self, partitioner: Partitioner) -> "ShardedKeyValueWorkload":
        """Copy of this workload generating transactions that span ``partitioner``'s shards."""
        return replace(self, partitioner=partitioner)

    def operation_factory(self, client_seed: int = 0) -> Callable[[int], Operation]:
        if self.txn_size < 2:
            raise ValueError(f"transactions need at least two writes: {self.txn_size}")
        rng = random.Random(self.seed * 100_003 + client_seed)
        value = "v" * self.value_size
        sample_key = self._key_sampler(rng)

        def sample_transaction() -> Operation:
            keys = [sample_key()]
            attempts = 0
            while len(keys) < self.txn_size and attempts < self._SPAN_ATTEMPTS:
                attempts += 1
                candidate = sample_key()
                if candidate not in keys:
                    keys.append(candidate)
            if self.partitioner is not None:
                shard_of = self.partitioner.shard_of_key
                home = shard_of(keys[0])
                if all(shard_of(key) == home for key in keys):
                    for _ in range(self._SPAN_ATTEMPTS):
                        candidate = sample_key()
                        if candidate not in keys and shard_of(candidate) != home:
                            keys[-1] = candidate
                            break
            return Operation("txn", tuple(("put", key, value) for key in keys))

        def factory(timestamp: int) -> Operation:
            if self.cross_shard_fraction > 0 and rng.random() < self.cross_shard_fraction:
                return sample_transaction()
            key = sample_key()
            if rng.random() < self.read_fraction:
                return Operation("get", (key,))
            return Operation("put", (key, value))

        return factory

    def state_machine_factory(self) -> Callable[[], StateMachine]:
        return TransactionalKeyValueStore
