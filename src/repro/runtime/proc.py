"""Multi-core runtime backend: one OS process per replica group, real TCP.

The aio backend (:mod:`repro.runtime.aio`) already runs the protocol over
real loopback sockets, but every node shares one event loop — one core,
one GIL.  This backend splits the cluster across OS processes so
throughput can scale with hardware: each worker process runs its own
:class:`ProcWorkerRuntime` (an :class:`~repro.runtime.aio.AioRuntime`
whose destination table spans the whole cluster), hosting one or more
nodes, and messages between processes travel as the same binary wire
envelopes the aio backend uses — the protocol objects in ``repro.core``
and ``repro.smr`` run unmodified.

A :class:`ProcCluster` supervisor in the parent process owns the
lifecycle over per-worker control pipes:

1. **spawn** — each :class:`WorkerSpec` becomes a process; inside it a
   picklable ``build(runtime, **kwargs)`` callable constructs and
   registers its nodes and returns a :class:`WorkerPlan`;
2. **readiness / endpoint exchange** — every worker starts one TCP
   server per local node on an ephemeral port and reports
   ``node_id -> port``; the supervisor merges the maps and broadcasts
   the full table, which lets every worker's outbound channels dial;
3. **run** — workers invoke their plan's ``kickoff`` (clients start,
   timers arm) and periodically stream per-node stats (``busy_time``,
   ``items_processed``, ``queue_depth``, message counters — the same
   fields the sim and aio backends populate) plus an optional
   ``progress`` value back over the pipe; a worker whose plan declares
   an ``until`` predicate reports ``done`` the moment it holds;
4. **supervision** — the supervisor detects worker death (a dead
   process, or EOF on its pipe) without hanging: a dead worker is
   recorded in ``deaths`` and the run continues, unless the dead worker
   was one the run was *waiting on*, in which case the wait aborts;
5. **shutdown** — a ``stop`` broadcast makes each worker harvest its
   plan's ``harvest()`` payload, send a final stats snapshot, close
   every socket and task, and exit; the supervisor drains results,
   joins with a hard grace deadline, and escalates terminate → kill so
   no orphan process or leaked socket ever outlives a run.

Workers are daemonic, so even a crashed supervisor cannot leak them.
The default start method is ``fork`` where available (workers inherit
the built cluster cheaply); ``spawn`` works too provided every
``build`` callable and its kwargs are picklable (module-level functions
— see :func:`repro.cluster.builders.build_proc_seemore`).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.aio import UNTIL_POLL_S, AioRuntime, new_event_loop

_log = logging.getLogger(__name__)

#: Control-channel message kinds (worker -> supervisor).
#: ("ready", ports, waits) / ("stats", snapshot) / ("done", snapshot)
#: ("result", snapshot, harvest) / ("error", text)
#: Supervisor -> worker: ("endpoints", ports) / ("stop",)

#: How long ``ProcCluster.start`` waits for every worker to report ready.
READY_TIMEOUT_S = 30.0


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, closure-friendly)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerPlan:
    """What one worker does beyond hosting its registered nodes.

    Returned by the ``build`` callable inside the worker process.  All
    fields are optional:

    * ``kickoff`` — runs inside the event loop once the full endpoint
      table is installed (arm timers, start clients here);
    * ``until`` — local completion predicate; the worker reports
      ``done`` to the supervisor the first time it returns true (the
      worker keeps serving until told to stop, so peers can finish);
    * ``harvest`` — called at shutdown; its picklable return value is
      shipped to the supervisor as the worker's result;
    * ``progress`` — cheap picklable scalar shipped with every stats
      message (e.g. a client's completed count) so the supervisor can
      observe the run mid-flight.
    """

    __slots__ = ("kickoff", "until", "harvest", "progress")

    def __init__(
        self,
        kickoff: Optional[Callable[[], None]] = None,
        until: Optional[Callable[[], bool]] = None,
        harvest: Optional[Callable[[], Any]] = None,
        progress: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.kickoff = kickoff
        self.until = until
        self.harvest = harvest
        self.progress = progress


@dataclass(frozen=True)
class WorkerSpec:
    """One worker process: a name and the build callable that populates it."""

    name: str
    build: Callable[..., Optional[WorkerPlan]]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


class ProcClusterError(RuntimeError):
    """Raised when the cluster cannot be stood up or supervised."""


class ProcWorkerRuntime(AioRuntime):
    """The runtime inside one worker process.

    Identical to :class:`~repro.runtime.aio.AioRuntime` (same envelope
    codec, timers, CPUs, channels, per-connection sender authentication)
    except the destination table spans the whole cluster: no channel dials
    until the supervisor's broadcast installs every peer's port, so a
    message sent the instant a node wakes up is buffered, not dropped for
    targeting a peer in another process.
    """

    # -- worker lifecycle --------------------------------------------------

    def serve(
        self,
        conn,
        build: Callable[..., Optional[WorkerPlan]],
        kwargs: Mapping[str, Any],
        stats_interval: float = 0.25,
    ) -> None:
        """Build the worker's nodes, then run the supervised lifecycle."""
        plan = build(self, **dict(kwargs)) or WorkerPlan()
        with asyncio.Runner(loop_factory=new_event_loop) as runner:
            runner.run(self._worker_main(conn, plan, stats_interval))

    async def _worker_main(self, conn, plan: WorkerPlan, stats_interval: float) -> None:
        try:
            await self._listen()
            conn.send(("ready", dict(self._ports), plan.until is not None))

            running = True
            done_sent = False
            next_stats = time.monotonic() + stats_interval
            while running:
                try:
                    while conn.poll():
                        command = conn.recv()
                        kind = command[0]
                        if kind == "endpoints":
                            self._install_endpoints(command[1])
                            if plan.kickoff is not None:
                                plan.kickoff()
                        elif kind == "stop":
                            running = False
                except (EOFError, OSError):
                    # The supervisor vanished: there is nobody left to
                    # report to, so wind down rather than serve forever.
                    running = False
                if not running:
                    break
                if plan.until is not None and not done_sent and plan.until():
                    done_sent = True
                    self._send(conn, ("done", self._snapshot(plan)))
                if time.monotonic() >= next_stats:
                    next_stats = time.monotonic() + stats_interval
                    self._send(conn, ("stats", self._snapshot(plan)))
                await asyncio.sleep(UNTIL_POLL_S)

            harvest = plan.harvest() if plan.harvest is not None else None
            self._send(conn, ("result", self._snapshot(plan), harvest))
        finally:
            await self._shutdown()

    @staticmethod
    def _send(conn, message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # supervisor gone; shutdown path handles the rest

    def _snapshot(self, plan: WorkerPlan) -> Dict[str, Any]:
        """Per-node stats in the same fields the sim and aio backends fill."""
        nodes: Dict[str, Dict[str, Any]] = {}
        for node_id, node in self._nodes.items():
            cpu = node.process
            nodes[node_id] = {
                "busy_time": cpu.busy_time,
                "items_processed": cpu.items_processed,
                "queue_depth": cpu.queue_depth,
                "messages_handled": getattr(node, "messages_handled", 0),
                "messages_sent": getattr(node, "messages_sent", 0),
            }
        return {
            "now": self.now,
            "messages_delivered": self.messages_delivered,
            "bytes_delivered": self.bytes_delivered,
            "frames_sent": self.frames_sent,
            "writes_issued": self.writes_issued,
            "message_type_counts": dict(self.transport.message_type_counts),
            "nodes": nodes,
            "progress": plan.progress() if plan.progress is not None else None,
        }


def _worker_entry(name: str, build, kwargs, conn, host: str, stats_interval: float) -> None:
    """Process target: run one worker, reporting any failure up the pipe."""
    try:
        runtime = ProcWorkerRuntime(host=host)
        runtime.serve(conn, build, kwargs, stats_interval=stats_interval)
    except BaseException:
        try:
            conn.send(("error", f"worker {name!r} failed:\n{traceback.format_exc()}"))
        except (BrokenPipeError, OSError):
            pass
        raise SystemExit(1)


@dataclass
class ProcResult:
    """What a supervised run produced, per worker and merged."""

    met: bool
    wall_seconds: float
    harvests: Dict[str, Any]
    stats: Dict[str, Dict[str, Any]]
    deaths: List[str]
    exitcodes: Dict[str, Optional[int]]
    errors: List[str]

    def node_stats(self) -> Dict[str, Dict[str, Any]]:
        """``node_id -> {busy_time, items_processed, ...}`` across workers."""
        merged: Dict[str, Dict[str, Any]] = {}
        for snapshot in self.stats.values():
            merged.update(snapshot.get("nodes", {}))
        return merged

    def as_row(self) -> Dict[str, Any]:
        """Flat row for :func:`repro.analysis.report.format_run_report`.

        Per-request records die with the worker processes, so the row has
        the client workers' completion counts but no latency columns.
        """
        return {
            "protocol": "proc",
            "completed": sum(
                int(harvest.get("completed", 0) or 0)
                for harvest in self.harvests.values()
                if isinstance(harvest, dict)
            ),
            "wall_seconds": round(self.wall_seconds, 3),
            "met": self.met,
            "deaths": len(self.deaths),
            "errors": len(self.errors),
            "violations": len(self.deaths) + len(self.errors),
        }

    def message_type_counts(self) -> Counter:
        counts: Counter = Counter()
        for snapshot in self.stats.values():
            counts.update(snapshot.get("message_type_counts", {}))
        return counts

    def messages_delivered(self) -> int:
        return sum(s.get("messages_delivered", 0) for s in self.stats.values())

    def bytes_delivered(self) -> int:
        return sum(s.get("bytes_delivered", 0) for s in self.stats.values())


class _Supervised:
    """Supervisor-side state for one worker."""

    __slots__ = ("spec", "process", "conn", "ready", "waits", "done", "ports",
                 "stats", "harvest", "has_result", "dead", "progress")

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process = None
        self.conn = None
        self.ready = False
        self.waits = False
        self.done = False
        self.ports: Dict[str, int] = {}
        self.stats: Dict[str, Any] = {}
        self.harvest: Any = None
        self.has_result = False
        self.dead = False
        self.progress: Any = None

    def adopt(self, snapshot: Dict[str, Any]) -> None:
        """Take a ``stats`` / ``done`` / ``result`` snapshot as the latest."""
        self.stats = dict(snapshot)
        self.progress = snapshot.get("progress")


class ProcCluster:
    """Supervisor for a set of worker processes forming one cluster.

    Either call :meth:`run` for the whole lifecycle, or drive it manually
    (``start`` → ``wait`` → ``shutdown``) when the caller needs mid-run
    access — e.g. the worker-crash tests kill a replica process between
    ``start`` and ``wait`` and assert the survivors keep committing.
    """

    def __init__(
        self,
        workers: Sequence[WorkerSpec],
        host: str = "127.0.0.1",
        start_method: Optional[str] = None,
        stats_interval: float = 0.25,
    ) -> None:
        names = [spec.name for spec in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate worker names: {names}")
        if not workers:
            raise ValueError("a ProcCluster needs at least one worker")
        self._workers: Dict[str, _Supervised] = {
            spec.name: _Supervised(spec) for spec in workers
        }
        self._host = host
        self._start_method = start_method or default_start_method()
        self._stats_interval = stats_interval
        self._started = False
        self._go_at: Optional[float] = None
        self._met_at: Optional[float] = None
        self.endpoints: Dict[str, int] = {}
        self.errors: List[str] = []
        self.deaths: List[str] = []
        #: Extra metadata a builder may attach (config, replica grouping, ...).
        self.extras: Dict[str, Any] = {}

    # -- introspection -----------------------------------------------------

    @property
    def worker_names(self) -> List[str]:
        return list(self._workers)

    @property
    def specs(self) -> Tuple[WorkerSpec, ...]:
        """The worker specs, in order (frozen: a run cannot be re-planned)."""
        return tuple(worker.spec for worker in self._workers.values())

    @property
    def processes(self) -> Dict[str, Any]:
        return {
            name: worker.process
            for name, worker in self._workers.items()
            if worker.process is not None
        }

    @property
    def progress(self) -> Dict[str, Any]:
        """Latest per-worker ``progress`` values from the stats stream."""
        return {
            name: worker.progress
            for name, worker in self._workers.items()
            if worker.progress is not None
        }

    @property
    def latest_stats(self) -> Dict[str, Dict[str, Any]]:
        return {name: worker.stats for name, worker in self._workers.items()}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and complete the readiness/endpoint handshake."""
        if self._started:
            raise RuntimeError("ProcCluster.start() may only be called once")
        self._started = True
        context = multiprocessing.get_context(self._start_method)
        try:
            for worker in self._workers.values():
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_entry,
                    args=(worker.spec.name, worker.spec.build,
                          dict(worker.spec.kwargs), child_conn, self._host,
                          self._stats_interval),
                    name=f"proc-{worker.spec.name}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                worker.process = process
                worker.conn = parent_conn

            deadline = time.monotonic() + READY_TIMEOUT_S
            while not all(w.ready for w in self._workers.values()):
                progressed = self._drain_all()
                for name, worker in self._workers.items():
                    if worker.dead and not worker.ready:
                        raise ProcClusterError(
                            f"worker {name!r} died during startup"
                            + (f": {self.errors[-1]}" if self.errors else "")
                        )
                if time.monotonic() > deadline:
                    missing = [n for n, w in self._workers.items() if not w.ready]
                    raise ProcClusterError(f"workers never became ready: {missing}")
                if not progressed:
                    time.sleep(0.002)

            merged: Dict[str, int] = {}
            for name, worker in self._workers.items():
                for node_id, port in worker.ports.items():
                    if node_id in merged:
                        raise ProcClusterError(
                            f"node id {node_id!r} registered by two workers"
                        )
                    merged[node_id] = port
            self.endpoints = merged
            for worker in self._workers.values():
                self._send(worker, ("endpoints", merged))
            self._go_at = time.monotonic()
        except BaseException:
            self._kill_everything()
            raise

    def wait(self, timeout: float) -> bool:
        """Wait until every worker with an ``until`` predicate reported done.

        Returns ``True`` on success; ``False`` when the timeout elapsed or
        a worker the run was waiting on died first.  With no predicate
        workers at all, the call simply lasts ``timeout`` seconds and
        returns ``True`` — mirroring :meth:`AioRuntime.run`.
        """
        if self._go_at is None:
            raise RuntimeError("call start() before wait()")
        deadline = time.monotonic() + timeout
        while True:
            self._drain_all()
            waiting = [w for w in self._workers.values() if w.waits]
            if waiting and all(w.done for w in waiting):
                self._met_at = time.monotonic()
                return True
            if any(w.dead and not w.done for w in waiting):
                return False
            if time.monotonic() > deadline:
                if not waiting:
                    self._met_at = time.monotonic()
                    return True
                return False
            time.sleep(0.002)

    def shutdown(self, grace: float = 10.0) -> ProcResult:
        """Stop every worker, drain results, and reap all processes.

        Never hangs: workers that fail to exit within ``grace`` seconds
        are terminated, then killed.  Returns the merged
        :class:`ProcResult`; ``met`` reflects the last :meth:`wait`.
        """
        for worker in self._workers.values():
            self._send(worker, ("stop",))
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            self._drain_all()
            pending = [
                w for w in self._workers.values()
                if not w.has_result and not w.dead
            ]
            if not pending:
                break
            time.sleep(0.002)

        for worker in self._workers.values():
            process = worker.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        exitcodes = {
            name: (worker.process.exitcode if worker.process is not None else None)
            for name, worker in self._workers.items()
        }
        for worker in self._workers.values():
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None

        end = self._met_at if self._met_at is not None else time.monotonic()
        wall = (end - self._go_at) if self._go_at is not None else 0.0
        stats = {name: worker.stats for name, worker in self._workers.items() if worker.ready}
        harvests = {
            name: worker.harvest
            for name, worker in self._workers.items()
            if worker.has_result and worker.harvest is not None
        }
        waiting = [w for w in self._workers.values() if w.waits]
        met = bool(waiting) and all(w.done for w in waiting) or not waiting
        return ProcResult(
            met=met,
            wall_seconds=wall,
            harvests=harvests,
            stats=stats,
            deaths=list(self.deaths),
            exitcodes=exitcodes,
            errors=list(self.errors),
        )

    def run(self, timeout: float = 60.0, grace: float = 10.0) -> ProcResult:
        """The whole lifecycle: start, wait, shutdown."""
        self.start()
        met = self.wait(timeout)
        result = self.shutdown(grace=grace)
        result.met = met and not result.errors
        return result

    def kill_worker(self, name: str, signum: Optional[int] = None) -> None:
        """Hard-kill one worker process (crash injection for tests)."""
        import os
        import signal as signal_module

        process = self._workers[name].process
        if process is None or process.pid is None:
            raise ProcClusterError(f"worker {name!r} is not running")
        os.kill(process.pid, signum if signum is not None else signal_module.SIGKILL)

    # -- plumbing ----------------------------------------------------------

    def poll(self) -> None:
        """Drain pending control messages and liveness-check every worker."""
        self._drain_all()

    def _drain_all(self) -> bool:
        progressed = False
        for name, worker in self._workers.items():
            conn = worker.conn
            if conn is None or worker.dead:
                continue
            try:
                while conn.poll():
                    progressed = True
                    self._dispatch(name, worker, conn.recv())
            except (EOFError, OSError):
                # EOF after the final result is a normal exit; EOF before
                # it means the worker died with work outstanding.
                conn.close()
                worker.conn = None
                if not worker.has_result:
                    self._mark_dead(name, worker)
                progressed = True
                continue
            process = worker.process
            if (process is not None and not process.is_alive()
                    and not worker.has_result):
                # Reap any messages that raced the death before marking it.
                try:
                    while conn.poll():
                        self._dispatch(name, worker, conn.recv())
                except (EOFError, OSError):
                    pass
                if not worker.has_result:
                    self._mark_dead(name, worker)
                    progressed = True
        return progressed

    def _dispatch(self, name: str, worker: _Supervised, message: Tuple) -> None:
        kind = message[0]
        if kind == "ready":
            worker.ready = True
            worker.waits = message[2]
            worker.ports = message[1]
        elif kind in ("stats", "done"):
            worker.adopt(message[1])
            if kind == "done":
                worker.done = True
        elif kind == "result":
            worker.adopt(message[1])
            worker.harvest = message[2]
            worker.has_result = True
        elif kind == "error":
            _log.error("%s", message[1])
            self.errors.append(message[1])
            self._mark_dead(name, worker)

    def _mark_dead(self, name: str, worker: _Supervised) -> None:
        if not worker.dead:
            _log.warning("worker %r marked dead", name)
            worker.dead = True
            if name not in self.deaths:
                self.deaths.append(name)

    def _send(self, worker: _Supervised, message: Tuple) -> None:
        if worker.conn is None or worker.dead:
            return
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            self._mark_dead(worker.spec.name, worker)

    def _kill_everything(self) -> None:
        for worker in self._workers.values():
            process = worker.process
            if process is not None and process.is_alive():
                process.terminate()
        for worker in self._workers.values():
            process = worker.process
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None


__all__ = [
    "ProcCluster",
    "ProcClusterError",
    "ProcResult",
    "ProcWorkerRuntime",
    "WorkerPlan",
    "WorkerSpec",
    "default_start_method",
]
