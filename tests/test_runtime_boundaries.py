"""Import-boundary enforcement for the runtime abstraction.

The whole point of ``repro.runtime`` is that the protocol core sees only
the narrow runtime interface, never a concrete backend.  These tests walk
the import statements (via ``ast``, so string mentions in docstrings and
comments don't count) of every module under ``repro/core``, ``repro/smr``,
``repro/baselines`` and ``repro/shard``, and of ``repro/net/node.py``, and
fail if any of them reaches into the simulator, the simulated network or a
cost model directly.  The machine model has one home: ``create_cpu`` takes
only a name on every backend, and only the three runtime modules define a
CPU.  A message's modeled cost is classified by the simulated CPU alone:
no other module names ``wire_size_of`` and its kin, and the node and the
two TCP backends name nothing of the cost model.  ``repro/runtime/api.py``
must additionally stay a dependency leaf: it is imported by everything, so it may import
nothing from ``repro`` at module scope.

Cluster construction is held to one path the same way: only
``repro/cluster/wiring.py`` may construct a replica or a ``KeyStore``, and
clients are constructed only by their pools.  Reporting is held to one
shape too: one ``*Result`` dataclass in ``cluster/runner.py``, one under
``scenarios/``, and one function that samples and finalizes checkers.  And
the client's decisions (reply filtering, acceptance, completion, ``Busy``
backoff, retransmission) are defined in ``repro/smr/client.py`` only.
The two TCP backends move messages by callbacks: no per-message task, queue
or stream machinery may reappear in ``runtime/aio.py`` or ``runtime/proc.py``;
the listener receives into the runtime's buffer, a payload table belongs to one
connection, and no process-wide allocator setting stands in for either.
Both start their event loop through ``runtime.aio.new_event_loop``, and the
selector under it is the only code in ``src/repro`` that names ``select`` or
``selectors``.
And frames are decoded in place by ``read_x(buf, off, end)`` functions: no
cursor object (a ``Reader`` class, a ``.take(n)`` call) may reappear under
``src/repro``.  The agreement engines share one skeleton: the no-op filler,
the baselines' request intake and view change, and the Dog / Peacock inform
leg are each defined in one module, and no replica keeps a table of the
requests it has seen.  And there is one scenario declaration: one class
under ``scenarios/`` builds a deployment, its entry points take no
``**overrides``, and the retired second vocabularies stay retired.  And
there is one deployment: one ``*Deployment`` class, one ``*ClientPool``
class, no ``getattr(x, "shards", ...)``, no ``extras`` dict on a deployment.
And there is one clock: only the two TCP backends import ``time``, and
only the sim backend, the modeled network and the deployment's builder and
holder read a ``.simulator`` attribute (plus the engine's one event-count
read); every runner and observer takes its clock from ``deployment.runtime``.
And there is one event heap: only ``sim/simulator.py`` and the two hot paths
that inline its push (``runtime/sim.py``, ``net/network.py``) touch it.
And there is one key schedule: only ``crypto/signatures.py`` imports ``hmac``
(for ``compare_digest``), nothing calls a per-call key setup such as
``hmac.digest``, and no module outside ``crypto/`` reads a node's key material.
"""

import ast
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules the protocol core must never import: the concrete simulator
#: package, the simulated network, and the two cost models the sim backend
#: charges a CPU by.  ``repro.net.node``/``repro.net.latency`` are allowed —
#: the base Node class and latency models are backend-neutral.
FORBIDDEN_PREFIXES = ("repro.sim", "repro.net.network", "repro.net.costs", "repro.crypto.costs")

#: Protocol code: the replica engines, the clients, and the node they all extend.
PROTOCOL_PACKAGES = ("core", "smr", "baselines", "shard")
PROTOCOL_MODULES = (Path("net") / "node.py",)


def iter_imports(path, top_level_only=False):
    """Yield (lineno, dotted_module) for every import in ``path``.

    For ``from X import Y`` the dotted module is ``X`` — good enough to
    prefix-match against forbidden packages.  Relative imports resolve
    against the file's package so ``from ..sim import x`` can't sneak by.
    With ``top_level_only`` only module-scope statements count, leaving
    deliberate function-scope lazy imports out of scope.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    parts = path.parts
    # Package path anchored at the last 'repro' directory, e.g. ('repro', 'core').
    anchor = max(i for i, part in enumerate(parts) if part == "repro")
    package_parts = parts[anchor:-1]
    nodes = tree.body if top_level_only else ast.walk(tree)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module or ""
            else:
                base = package_parts[: len(package_parts) - node.level + 1]
                suffix = (node.module,) if node.module else ()
                yield node.lineno, ".".join(base + suffix)


def protocol_modules(root):
    """Every protocol module under ``root`` (a ``repro`` source tree)."""
    for package in PROTOCOL_PACKAGES:
        yield from sorted((root / package).rglob("*.py"))
    for module in PROTOCOL_MODULES:
        yield root / module


def forbidden_imports(root):
    """Where a protocol module under ``root`` imports a backend or a cost model."""
    return [
        f"{path.relative_to(root)}:{lineno} imports {module}"
        for path in protocol_modules(root)
        for lineno, module in iter_imports(path)
        if module.startswith(FORBIDDEN_PREFIXES)
    ]


#: The one CPU per backend: no other module under ``src/repro`` defines ``submit_receive``.
CPU_MODULES = {Path("runtime") / name for name in ("api.py", "sim.py", "aio.py")}


def cpu_definitions(root):
    """Yield ``path:line defines a CPU`` for each ``submit_receive`` outside :data:`CPU_MODULES`."""
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative in CPU_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "submit_receive":
                yield f"{relative}:{node.lineno} defines a CPU"


#: The modeled-cost classification of a message: its wire size, whether it is
#: signed, how many signatures it carries.  Only the simulated CPU classifies.
CLASSIFIERS = {"wire_size_of", "is_signed", "signature_count_of"}
CLASSIFIER_OWNER = Path("runtime") / "sim.py"
#: Everything of the cost model besides: a module that runs unmodeled references none.
COST_MODEL_NAMES = CLASSIFIERS | {
    "NodeCostModel", "cost_model", "_cost_memo", "send_cost", "receive_cost", "WIRE_SIZE_CACHE_ATTR"
}
#: The node every backend runs, and the two TCP backends, which measure instead of modeling.
UNMODELED = {Path("net") / "node.py", Path("runtime") / "aio.py", Path("runtime") / "proc.py"}


def _referenced_names(tree):
    """Yield ``(lineno, name)`` for each name, attribute, definition and import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


def cost_classification_sites(root):
    """Where a module under ``root`` classifies a message's modeled cost out of turn.

    Outside :data:`CLASSIFIER_OWNER` no module names a classifier (the modeled
    network sizes a transmission from the size it is handed), and the
    :data:`UNMODELED` modules name nothing of the cost model.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == CLASSIFIER_OWNER:
            continue
        watched = COST_MODEL_NAMES if relative in UNMODELED else CLASSIFIERS
        for lineno, name in _referenced_names(ast.parse(path.read_text(), filename=str(path))):
            if name in watched:
                found.append(f"{relative}:{lineno} references {name}")
    return sorted(set(found))


#: The modules that push onto a simulator's heap: its owner, and the two hot
#: paths (``SimCpu``'s completions, ``Network.deliver``'s arrivals) that inline the push.
HEAP_OWNERS = {Path("sim") / "simulator.py", Path("runtime") / "sim.py", Path("net") / "network.py"}
#: A simulator's heap and sequence counter, by attribute name.
HEAP_ATTRIBUTES = {"_heap", "_seq"}


def heap_touches(root):
    """Where a module under ``root`` touches a simulator's heap or imports ``repro.sim.events``.

    Outside :data:`HEAP_OWNERS`, reading ``._heap`` / ``._seq`` off anything,
    or any private attribute off something named ``*simulator``, counts.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        for lineno, module in iter_imports(path):
            if module == "repro.sim.events":
                found.append((str(relative), lineno, "imports repro.sim.events"))
        if relative in HEAP_OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = getattr(node.value, "attr", None) or getattr(node.value, "id", "")
            if node.attr in HEAP_ATTRIBUTES or (
                node.attr.startswith("_") and owner.endswith("simulator")
            ):
                found.append((str(relative), node.lineno, f"touches {owner}.{node.attr}"))
    return [f"{path}:{lineno} {what}" for path, lineno, what in sorted(found)]


class TestProtocolCoreIsBackendAgnostic:
    def test_no_protocol_module_imports_a_backend_or_a_cost_model(self):
        offenders = forbidden_imports(SRC)
        assert offenders == [], (
            "protocol modules must depend only on repro.runtime, never on "
            "the simulator, the simulated network or a cost model:\n" + "\n".join(offenders)
        )

    def test_the_walk_actually_sees_the_protocol_modules(self):
        # Guard against a refactor silently emptying the walk.
        seen = list(protocol_modules(SRC))
        assert len(seen) >= 20
        assert all(path.exists() for path in seen)


class TestOneSimulatedMachine:
    """The machine model (CPU and cost model) belongs to the runtime, not to a node.

    A node asks its runtime for a CPU by name; the sim backend charges every
    CPU by its deployment's one cost model, so no protocol constructor takes
    or holds a cost model.  Each backend defines one CPU, in its own module.
    The simulator owns the one event heap: only it and the two hot paths
    that inline its push touch the heap or its sequence counter.
    """

    def test_create_cpu_takes_only_a_name(self):
        from repro.runtime.aio import AioRuntime
        from repro.runtime.api import Runtime
        from repro.runtime.sim import SimRuntime

        for runtime_class in (Runtime, SimRuntime, AioRuntime):
            parameters = list(inspect.signature(runtime_class.create_cpu).parameters)
            assert parameters == ["self", "name"], runtime_class

    def test_only_the_runtime_modules_define_a_cpu(self):
        assert list(cpu_definitions(SRC)) == []
        for module in CPU_MODULES:
            source = (SRC / module).read_text()
            assert "def submit_receive" in source, module

    def test_the_rules_catch_a_node_cost_model_and_a_second_cpu(self, tmp_path):
        root = tmp_path / "repro"
        for package in (*PROTOCOL_PACKAGES, "net", "sim"):
            (root / package).mkdir(parents=True)
        (root / "net" / "node.py").write_text(
            "from repro.net.costs import NodeCostModel\n"
            "class Node:\n"
            "    def __init__(self, node_id, runtime, cost_model=None):\n"
            "        self.cost_model = cost_model or NodeCostModel()\n"
            "        self.process = runtime.create_cpu(node_id, self.cost_model)\n"
        )
        (root / "smr" / "client.py").write_text("from ..crypto.costs import CryptoCostModel\n")
        (root / "sim" / "process.py").write_text(
            "class Process:\n"
            "    def submit(self, cost, handler, args=()):\n"
            "        pass\n"
            "class SimCpu(Process):\n"
            "    def submit_receive(self, payload, size, handler, args=()):\n"
            "        pass\n"
        )
        assert forbidden_imports(root) == [
            "smr/client.py:1 imports repro.crypto.costs",
            "net/node.py:1 imports repro.net.costs",
        ]
        assert list(cpu_definitions(root)) == ["sim/process.py:5 defines a CPU"]

    def test_only_the_simulated_cpu_classifies_a_messages_cost(self):
        assert cost_classification_sites(SRC) == []
        assert "def wire_size_of" in (SRC / CLASSIFIER_OWNER).read_text()

    def test_the_classification_rule_catches_a_classifying_node(self, tmp_path):
        """The node that classified each message for a CPU that, on TCP, discarded it."""
        root = tmp_path / "repro"
        for package in ("net", "runtime", "smr"):
            (root / package).mkdir(parents=True)
        (root / "net" / "node.py").write_text(
            "from repro.crypto.digest import WIRE_SIZE_CACHE_ATTR\n"
            "def wire_size_of(payload):\n"
            "    return len(repr(payload))\n"
            "class Node:\n"
            "    def send(self, dst, payload):\n"
            "        size = payload.__dict__.get(WIRE_SIZE_CACHE_ATTR)\n"
            "        if size is None:\n"
            "            size = wire_size_of(payload)\n"
            "        signed = True if getattr(payload, 'signed', False) else False\n"
            "        self.process.submit_send(size, signed, self._transmit, (dst, payload, size))\n"
        )
        (root / "runtime" / "aio.py").write_text(
            "class AioCpu:\n"
            "    def submit_send(self, payload, handler, args=()):\n"
            "        self.submit(self.cost_model.send_cost(len(payload), False), handler, args)\n"
        )
        (root / "runtime" / "sim.py").write_text("def wire_size_of(payload):\n    return 0\n")
        (root / "smr" / "replica.py").write_text(
            "from repro.runtime.sim import wire_size_of\nBATCH_BYTES = wire_size_of(None)\n"
        )
        assert cost_classification_sites(root) == [
            "net/node.py:1 references WIRE_SIZE_CACHE_ATTR",
            "net/node.py:2 references wire_size_of",
            "net/node.py:6 references WIRE_SIZE_CACHE_ATTR",
            "net/node.py:8 references wire_size_of",
            "runtime/aio.py:3 references cost_model",
            "runtime/aio.py:3 references send_cost",
            "smr/replica.py:1 references wire_size_of",
            "smr/replica.py:2 references wire_size_of",
        ]

    def test_only_the_heap_owners_touch_the_heap(self):
        assert heap_touches(SRC) == []
        for module in HEAP_OWNERS:
            assert "._seq" in (SRC / module).read_text(), module

    def test_the_rule_catches_a_second_owner_of_the_heap(self, tmp_path):
        root = tmp_path / "repro"
        for package in ("net", "runtime", "sim"):
            (root / package).mkdir(parents=True)
        push = (
            "    simulator = self._simulator\n"
            "    seq = simulator._seq\n"
            "    simulator._seq = seq + 1\n"
            "    heappush(simulator._heap, (simulator._now + cost, seq, done, ()))\n"
        )
        (root / "runtime" / "sim.py").write_text("def submit(self, cost, done):\n" + push)
        # The inlined push as it read when the heap belonged to an EventQueue.
        (root / "net" / "node.py").write_text(
            "from repro.sim.events import EventQueue\n"
            "def submit(self, cost, done):\n"
            "    simulator = self._simulator\n"
            "    queue = simulator._queue\n"
            "    seq = queue._counter\n"
            "    queue._counter = seq + 1\n"
            "    queue._live += 1\n"
            "    heappush(queue._heap, (simulator._now + cost, seq, done, ()))\n"
        )
        assert heap_touches(root) == [
            "net/node.py:1 imports repro.sim.events",
            "net/node.py:4 touches simulator._queue",
            "net/node.py:8 touches queue._heap",
            "net/node.py:8 touches simulator._now",
        ]


class TestRuntimeApiIsALeaf:
    def test_api_module_imports_nothing_from_repro(self):
        offenders = [
            f"api.py:{lineno} imports {module}"
            for lineno, module in iter_imports(
                SRC / "runtime" / "api.py", top_level_only=True
            )
            if module.startswith("repro")
        ]
        assert offenders == [], (
            "repro.runtime.api must stay a dependency leaf (a backend imports "
            "the interface, never the other way round):\n" + "\n".join(offenders)
        )


class TestProcBackendLayering:
    """The proc backend is a sibling of aio, not a protocol dependency.

    ``repro/runtime/proc.py`` may build on the api and reuse the aio
    runtime it embeds in each worker, but it must not reach into the
    protocol, cluster, or simulator layers at module scope — cluster
    wiring lives in ``repro.cluster.builders``, which imports proc, never
    the other way around.
    """

    ALLOWED_REPRO_IMPORTS = {"repro.runtime.api", "repro.runtime.aio"}

    def test_proc_module_imports_stay_within_the_runtime_layer(self):
        offenders = [
            f"proc.py:{lineno} imports {module}"
            for lineno, module in iter_imports(
                SRC / "runtime" / "proc.py", top_level_only=True
            )
            if module.startswith("repro") and module not in self.ALLOWED_REPRO_IMPORTS
        ]
        assert offenders == [], (
            "repro.runtime.proc may import only repro.runtime.api and "
            "repro.runtime.aio from repro at module scope:\n"
            + "\n".join(offenders)
        )


#: Names whose appearance in ``runtime/aio.py`` or ``runtime/proc.py`` means a
#: per-message task, queue or stream wake-up is back on the data path.
PER_MESSAGE_MACHINERY = {"Queue", "start_server", "open_connection", "drain"}


def per_message_machinery(path):
    """Yield ``(lineno, what)`` for every banned name or ``sleep(0)`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in PER_MESSAGE_MACHINERY:
            yield node.lineno, name
        elif isinstance(node, ast.Call) and node.args:
            callee = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            first = node.args[0]
            if callee == "sleep" and isinstance(first, ast.Constant) and first.value == 0:
                yield node.lineno, "sleep(0)"


#: Constructors of a buffer: none may be called per ``get_buffer``.
BUFFER_CONSTRUCTORS = {"bytearray", "bytes", "memoryview"}


def _classes(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _method(cls, name):
    return next(
        (node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == name),
        None,
    )


def receive_buffer_offences(path):
    """Why ``_Inbound`` in ``path`` would allocate a read buffer per ``recv``."""
    inbound = _classes(ast.parse(path.read_text(), filename=str(path))).get("_Inbound")
    if inbound is None:
        yield "no _Inbound class"
        return
    if "BufferedProtocol" not in {getattr(base, "attr", None) for base in inbound.bases}:
        yield "_Inbound is not an asyncio.BufferedProtocol"
    get_buffer = _method(inbound, "get_buffer")
    if get_buffer is None:
        yield "_Inbound defines no get_buffer"
        return
    for node in ast.walk(get_buffer):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in BUFFER_CONSTRUCTORS:
            yield f"get_buffer calls {node.func.id}() at line {node.lineno}"


def payload_table_offences(path):
    """Every payload table ``path`` builds outside a connection's ``__init__``, and every
    connection class that builds none."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owned = set()
    for name in ("_Inbound", "_Outbound"):
        init = _method(_classes(tree).get(name, ast.ClassDef(body=[])), "__init__")
        for node in ast.walk(init) if init is not None else ():
            target = node.targets[0] if isinstance(node, ast.Assign) else None
            if (
                isinstance(getattr(node, "value", None), ast.Call)
                and getattr(node.value.func, "id", None) == "_PayloadTable"
                and getattr(getattr(target, "value", None), "id", None) == "self"
            ):
                owned.add(node.value)
                break
        else:
            yield f"{name}.__init__ assigns no payload table to self"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_PayloadTable"
            and node not in owned
        ):
            yield f"a payload table is built outside a connection at line {node.lineno}"


def process_wide_settings(path):
    """Yield what in ``path`` reads the environment or reaches for the allocator / collector."""
    for lineno, module in iter_imports(path):
        if module.split(".")[0] in ("gc", "ctypes"):
            yield f"line {lineno} imports {module}"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "putenv"):
            yield f"line {node.lineno} touches os.{node.attr}"


class TestAioDataPathIsCallbacks:
    """Messages move through Protocol callbacks, a CPU slice and one flush per tick.

    ``asyncio.Queue``, the ``start_server`` / ``open_connection`` stream
    pair, ``drain()`` and a ``sleep(0)`` yield are how the data path once
    paid a task wake-up (or several) per message; none may come back to
    either TCP backend.  ``asyncio.sleep(UNTIL_POLL_S)`` in the ``until``
    loops is not on the data path and stays.
    """

    BACKENDS = (SRC / "runtime" / "aio.py", SRC / "runtime" / "proc.py")

    def test_neither_tcp_backend_uses_per_message_tasks_queues_or_streams(self):
        offenders = [
            f"{path.name}:{lineno} uses {what}"
            for path in self.BACKENDS
            for lineno, what in per_message_machinery(path)
        ]
        assert offenders == []

    def test_the_rule_catches_the_old_pump(self, tmp_path):
        (tmp_path / "old.py").write_text(
            "async def _pump(self, channel: asyncio.Queue):\n"
            "    _, writer = await asyncio.open_connection(host, port)\n"
            "    while True:\n"
            "        writer.write(await channel.get())\n"
            "        await writer.drain()\n"
            "        await asyncio.sleep(0)\n"
            "        await asyncio.sleep(poll)\n"
            "server = await asyncio.start_server(serve, host, 0)\n"
        )
        assert [what for _, what in sorted(per_message_machinery(tmp_path / "old.py"))] == [
            "Queue", "open_connection", "drain", "sleep(0)", "start_server",
        ]

    AIO = SRC / "runtime" / "aio.py"

    def test_the_listener_receives_into_a_buffer_it_does_not_allocate(self):
        """At the parent (a plain ``asyncio.Protocol``, whose transport allocates
        256 KiB per ``recv``) the rule reports 2 offences."""
        assert list(receive_buffer_offences(self.AIO)) == []

    def test_the_buffer_rule_catches_a_plain_protocol_and_a_buffer_per_call(self, tmp_path):
        (tmp_path / "plain.py").write_text(
            "class _Inbound(asyncio.Protocol):\n"
            "    def data_received(self, data): pass\n"
        )
        assert list(receive_buffer_offences(tmp_path / "plain.py")) == [
            "_Inbound is not an asyncio.BufferedProtocol",
            "_Inbound defines no get_buffer",
        ]
        (tmp_path / "fresh.py").write_text(
            "class _Inbound(asyncio.BufferedProtocol):\n"
            "    def get_buffer(self, sizehint):\n"
            "        self._buffer = memoryview(bytearray(sizehint))\n"
            "        return self._buffer\n"
        )
        assert list(receive_buffer_offences(tmp_path / "fresh.py")) == [
            "get_buffer calls memoryview() at line 3",
            "get_buffer calls bytearray() at line 3",
        ]

    def test_a_payload_table_belongs_to_one_connection(self):
        """A table shared by a module or a runtime would let one co-located replica
        hand another a decoded object.  At the parent, which has no table, the rule
        reports 2 offences (neither connection class builds one)."""
        assert list(payload_table_offences(self.AIO)) == []

    def test_the_table_rule_catches_a_shared_table(self, tmp_path):
        (tmp_path / "shared.py").write_text(
            "_DECODED = _PayloadTable()\n"
            "class AioRuntime:\n"
            "    def __init__(self):\n"
            "        self.carried = _PayloadTable()\n"
            "class _Inbound:\n"
            "    def __init__(self, runtime):\n"
            "        self.carried = runtime.carried\n"
            "class _Outbound:\n"
            "    def __init__(self, runtime):\n"
            "        self.shipped = _PayloadTable()\n"
        )
        assert list(payload_table_offences(tmp_path / "shared.py")) == [
            "_Inbound.__init__ assigns no payload table to self",
            "a payload table is built outside a connection at line 1",
            "a payload table is built outside a connection at line 4",
        ]

    def test_no_process_wide_allocator_or_collector_setting(self):
        """The fix for heap-layout sensitivity is not ``MALLOC_TRIM_THRESHOLD_``, ``mallopt``
        or a ``gc`` threshold.  At the parent the rule reports 0 offences."""
        assert list(process_wide_settings(self.AIO)) == []

    def test_the_settings_rule_catches_environ_gc_and_ctypes(self, tmp_path):
        tuned = tmp_path / "repro" / "tuned.py"  # ``iter_imports`` anchors at a ``repro`` directory
        tuned.parent.mkdir()
        tuned.write_text(
            "import ctypes, gc\n"
            "import os\n"
            "gc.set_threshold(100_000)\n"
            "if os.environ.get('REPRO_TRIM'):\n"
            "    ctypes.CDLL('libc.so.6').mallopt(-1, 1 << 28)\n"
        )
        assert list(process_wide_settings(tuned)) == [
            "line 1 imports ctypes", "line 1 imports gc", "line 4 touches os.environ",
        ]


#: ``asyncio`` calls that start or build an event loop.
LOOP_STARTERS = {"run", "new_event_loop", "get_event_loop", "set_event_loop", "SelectorEventLoop"}
SELECT_MODULES = {"select", "selectors"}


def event_loop_offences(path):
    """Yield where ``path`` starts or builds an event loop other than through its own
    ``new_event_loop``, and where it names ``select`` / ``selectors`` outside the top-level
    statement that defines ``_TimelySelector`` (a plain ``import`` beside that class is fine)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    selector_home, factory = set(), set()
    for statement in tree.body:
        inside = set(ast.walk(statement))
        if any(
            isinstance(node, ast.ClassDef) and node.name == "_TimelySelector" for node in inside
        ):
            selector_home = inside
        elif isinstance(statement, ast.FunctionDef) and statement.name == "new_event_loop":
            factory = inside
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and not selector_home:
            for alias in node.names:
                if alias.name.split(".")[0] in SELECT_MODULES:
                    yield f"line {node.lineno} imports {alias.name}"
        elif (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] in SELECT_MODULES
        ):
            yield f"line {node.lineno} imports from {node.module}"
        elif isinstance(node, ast.Name) and node.id in SELECT_MODULES and node not in selector_home:
            yield f"line {node.lineno} names {node.id} outside _TimelySelector"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) is not None:
            called = node.func.attr
            if getattr(node.func.value, "id", None) != "asyncio":
                continue
            if called in LOOP_STARTERS and node not in factory:
                yield f"line {node.lineno} calls asyncio.{called}"
            elif called == "Runner" and not any(
                keyword.arg == "loop_factory"
                and getattr(keyword.value, "id", None) == "new_event_loop"
                for keyword in node.keywords
            ):
                yield f"line {node.lineno} calls asyncio.Runner without loop_factory=new_event_loop"


class TestOneLoopFactory:
    """Both TCP backends run on the loop ``runtime.aio.new_event_loop`` builds.

    Its selector is what makes an ``AioTimer`` fire when it is due; a backend that
    started its loop with ``asyncio.run`` would get the stock selector back, and its
    timers would be up to a millisecond late again without any test failing.
    """

    def test_every_loop_under_src_comes_from_the_factory(self):
        """At the parent the rule reports 2 offences: the two ``asyncio.run`` calls."""
        offenders = [
            f"{path.relative_to(SRC)}: {what}"
            for path in sorted(SRC.rglob("*.py"))
            for what in event_loop_offences(path)
        ]
        assert offenders == []

    def test_the_factory_exists_and_both_backends_use_it(self):
        for name in ("aio.py", "proc.py"):
            source = (SRC / "runtime" / name).read_text()
            assert "asyncio.Runner(loop_factory=new_event_loop)" in source, name

    def test_the_rule_catches_a_stock_loop_and_a_stray_selector(self, tmp_path):
        (tmp_path / "backend.py").write_text(
            "import asyncio, select\n"
            "from selectors import EpollSelector\n"
            "def serve(main):\n"
            "    asyncio.run(main())\n"
            "    with asyncio.Runner() as runner:\n"
            "        runner.run(main())\n"
            "    with asyncio.Runner(loop_factory=asyncio.new_event_loop) as runner:\n"
            "        runner.run(main())\n"
            "    with asyncio.Runner(loop_factory=new_event_loop) as runner:\n"
            "        runner.run(main())\n"
            "    select.select((), (), (), 0.0003)\n"
        )
        assert sorted(event_loop_offences(tmp_path / "backend.py")) == [
            "line 1 imports select",
            "line 11 names select outside _TimelySelector",
            "line 2 imports from selectors",
            "line 4 calls asyncio.run",
            "line 5 calls asyncio.Runner without loop_factory=new_event_loop",
            "line 7 calls asyncio.Runner without loop_factory=new_event_loop",
        ]
        (tmp_path / "home.py").write_text(
            "import asyncio, select, selectors\n"
            "if hasattr(selectors, 'EpollSelector'):\n"
            "    class _TimelySelector(selectors.EpollSelector):\n"
            "        def select(self, timeout=None):\n"
            "            return select.select((self.fileno(),), (), (), timeout)[0]\n"
            "def new_event_loop():\n"
            "    return asyncio.SelectorEventLoop(_TimelySelector())\n"
            "def elsewhere():\n"
            "    return asyncio.new_event_loop(), selectors.DefaultSelector()\n"
        )
        assert sorted(event_loop_offences(tmp_path / "home.py")) == [
            "line 9 calls asyncio.new_event_loop",
            "line 9 names selectors outside _TimelySelector",
        ]


#: The only modules that may read the host's clock: the two TCP backends.
WALL_CLOCK_OWNERS = {Path("runtime") / "aio.py", Path("runtime") / "proc.py"}


def wall_clock_imports(root):
    """Yield where a module under ``root`` other than the two owners imports ``time``."""
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative in WALL_CLOCK_OWNERS:
            continue
        for lineno, module in iter_imports(path):
            if module == "time":
                yield f"{relative}:{lineno} imports time"


#: The only modules that may read a ``.simulator`` attribute: the sim backend,
#: the modeled network, and the builders and the deployment that hold one.
SIMULATOR_READERS = {
    Path("runtime") / "sim.py",
    Path("net") / "network.py",
    Path("cluster") / "builders.py",
    Path("cluster") / "deployment.py",
}

#: The one other read: the engine's event count, the scenario goldens' telemetry.
ENGINE = Path("scenarios") / "engine.py"


def simulator_reads(root):
    """Yield where a module under ``root`` reads ``.simulator`` outside the readers.

    ``scenarios/engine.py`` may read it once, as ``<x>.simulator.events_processed``.
    """
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative in SIMULATOR_READERS:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        telemetry = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "events_processed"
        }
        allowance = 1 if relative == ENGINE else 0
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr == "simulator"
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            if allowance and id(node) in telemetry:
                allowance -= 1
                continue
            yield f"{relative}:{node.lineno} reads .simulator"


class TestOneClock:
    """Protocol code reads time only through its runtime's ``now``.

    The batcher times the gaps between arrivals, the clients stamp latencies
    and the adaptive controller polls; each reads the clock the runtime hands
    it, so a simulated run stays a pure function of its seed and replays
    exactly.  An ``import time`` anywhere but ``runtime/aio.py`` and
    ``runtime/proc.py`` would let wall-clock time leak into a simulated run.

    Runners and observers (the measurement window, the scenario engine, the
    adaptive controller, the SLO checker) take their clock, timers and run
    loop from ``deployment.runtime`` the same way: a ``.simulator`` read
    outside the sim backend, the network and the deployment's builder and
    holder would tie one of them to the simulator again.
    """

    def test_only_the_tcp_backends_import_time(self):
        assert list(wall_clock_imports(SRC)) == []
        for owner in WALL_CLOCK_OWNERS:
            assert "time" in {module for _, module in iter_imports(SRC / owner)}, owner

    def test_the_rule_catches_a_planted_offender(self, tmp_path):
        root = tmp_path / "repro"
        (root / "core").mkdir(parents=True)
        (root / "runtime").mkdir()
        (root / "core" / "batching.py").write_text(
            "import time\ndef _observe_arrival():\n    from time import monotonic\n"
        )
        (root / "runtime" / "aio.py").write_text("import time\n")
        (root / "runtime" / "sim.py").write_text("import os, time as clock\nimport datetime\n")
        assert list(wall_clock_imports(root)) == [
            "core/batching.py:1 imports time",
            "core/batching.py:3 imports time",
            "runtime/sim.py:1 imports time",
        ]

    def test_only_the_simulator_owners_read_it(self):
        assert list(simulator_reads(SRC)) == []
        engine = ast.parse((SRC / ENGINE).read_text())
        reads = [
            node
            for node in ast.walk(engine)
            if isinstance(node, ast.Attribute) and node.attr == "simulator"
        ]
        assert len(reads) == 1, "the engine's event-count read is the rule's one exception"

    def test_the_simulator_rule_catches_the_old_window_and_controller(self, tmp_path):
        root = tmp_path / "repro"
        for package in ("cluster", "adaptive", "scenarios", "runtime"):
            (root / package).mkdir(parents=True)
        (root / "cluster" / "runner.py").write_text(
            "def _measure(deployment, duration, warmup):\n"
            "    simulator = deployment.simulator\n"
            "    simulator.run(until=simulator.now + warmup)\n"
        )
        (root / "adaptive" / "controller.py").write_text(
            "class AdaptiveModeController:\n"
            "    def __init__(self, group, deployment):\n"
            "        self._simulator = deployment.simulator\n"
        )
        (root / "scenarios" / "engine.py").write_text(
            "def run_scenario(deployment):\n"
            "    start = deployment.simulator.now\n"
            "    return deployment.simulator.events_processed\n"
        )
        (root / "runtime" / "sim.py").write_text(
            "class SimRuntime:\n"
            "    def now(self):\n"
            "        return self.simulator.now\n"
        )
        assert list(simulator_reads(root)) == [
            "adaptive/controller.py:3 reads .simulator",
            "cluster/runner.py:2 reads .simulator",
            "scenarios/engine.py:2 reads .simulator",
        ]


#: The one module that imports ``hmac``, for ``compare_digest``: every tag comes
#: from a key's precomputed schedule, through ``signatures._compute_tag``.
HMAC_OWNER = Path("crypto") / "signatures.py"
#: ``hmac`` calls that set a key up on every call.
PER_CALL_KEY_SETUP = {"digest", "new", "HMAC"}
#: A signer's and a keystore's key material, which only ``crypto/`` touches.
KEY_MATERIAL = {"_secret", "_secrets"}


def key_material_sites(root):
    """Yield where a module under ``root`` imports ``hmac`` outside :data:`HMAC_OWNER`,
    calls a per-call key setup, or reads key material outside ``crypto/``."""
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative != HMAC_OWNER:
            for lineno, module in iter_imports(path):
                if module.split(".")[0] == "hmac":
                    yield f"{relative}:{lineno} imports hmac"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in PER_CALL_KEY_SETUP and getattr(node.value, "id", None) == "hmac":
                yield f"{relative}:{node.lineno} calls hmac.{node.attr}"
            elif node.attr in KEY_MATERIAL and relative.parts[0] != "crypto":
                yield f"{relative}:{node.lineno} reads .{node.attr}"


class TestOneKeySchedule:
    """Every HMAC runs from its key's schedule, derived once when the key is registered.

    ``hmac.digest(secret, ...)`` rebuilds the key schedule on each call, which
    cost more than half of every tag on the TCP backends.  A second ``hmac``
    importer or a key read outside ``crypto/`` is where such a call would
    come back.
    """

    def test_one_module_imports_hmac_and_only_crypto_reads_keys(self):
        assert list(key_material_sites(SRC)) == []
        assert "hmac" in {module for _, module in iter_imports(SRC / HMAC_OWNER)}

    def test_the_rule_catches_a_planted_hmac_digest(self, tmp_path):
        root = tmp_path / "repro"
        for package in ("crypto", "runtime"):
            (root / package).mkdir(parents=True)
        (root / "crypto" / "signatures.py").write_text(
            "import hmac\n"
            "def _compute_tag(secret, payload_digest):\n"
            "    return hmac.digest(secret, payload_digest.encode(), 'sha256').hex()\n"
        )
        (root / "crypto" / "keys.py").write_text(
            "def signer_for(self, node_id):\n    return self._secrets[node_id]\n"
        )
        (root / "runtime" / "aio.py").write_text(
            "import hmac\n"
            "def _frame_mac(signer, frame):\n"
            "    return hmac.new(signer._secret, frame, 'sha256').digest()\n"
        )
        assert sorted(key_material_sites(root)) == [
            "crypto/signatures.py:3 calls hmac.digest",
            "runtime/aio.py:1 imports hmac",
            "runtime/aio.py:3 calls hmac.new",
            "runtime/aio.py:3 reads ._secret",
        ]


def cursor_decoding(path):
    """Yield ``(lineno, what)`` for every cursor class or ``.take(...)`` call in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and node.name in ("Reader", "_Cursor"):
            yield node.lineno, f"class {node.name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "take":
            yield node.lineno, ".take()"


class TestDecodeIsInPlace:
    """One read convention, ``read_x(buf, off, end) -> (value, next_off)``.

    A cursor object per frame (and a sub-cursor and a copy per embedded
    request) was a third of the TCP path's time; it may not come back.
    """

    def test_no_module_defines_a_cursor_or_takes_from_one(self):
        offenders = [
            f"{path.relative_to(SRC.parent)}:{lineno} {what}"
            for path in sorted(SRC.rglob("*.py"))
            for lineno, what in cursor_decoding(path)
        ]
        assert offenders == []

    def test_the_rule_catches_the_old_reader(self, tmp_path):
        (tmp_path / "old.py").write_text(
            "class Reader:\n"
            "    def take(self, count):\n"
            "        return self.buf[self.off : self.off + count]\n"
            "    def u32(self):\n"
            "        return _U32.unpack(self.take(4))[0]\n"
            "def _read_request_frames(reader):\n"
            "    sub = Reader(reader.take(reader.u32()))\n"
        )
        assert [what for _, what in sorted(cursor_decoding(tmp_path / "old.py"))] == [
            "class Reader", ".take()", ".take()",
        ]


class TestWireLayerBoundaries:
    """``repro.wire`` holds the field kinds and the tag registry; message
    classes register themselves, so the codec never imports one — and with
    every type on a binary frame, nothing under ``src/repro`` unpickles."""

    MESSAGE_PACKAGES = ("repro.core", "repro.smr", "repro.baselines")

    def test_wire_imports_no_message_package(self):
        offenders = [
            f"{path.relative_to(SRC.parent)}:{lineno} imports {module}"
            for path in sorted((SRC / "wire").rglob("*.py"))
            for lineno, module in iter_imports(path)
            if module.startswith(self.MESSAGE_PACKAGES)
        ]
        assert offenders == [], "\n".join(offenders)

    def test_no_module_imports_pickle(self):
        modules = sorted(SRC.rglob("*.py"))
        assert len(modules) >= 90
        offenders = [
            f"{path.relative_to(SRC.parent)}:{lineno}"
            for path in modules
            for lineno, module in iter_imports(path)
            if module.split(".")[0] in ("pickle", "cPickle", "marshal", "shelve")
        ]
        assert offenders == [], "unpickling wire bytes runs code:\n" + "\n".join(offenders)


def constructor_calls(path):
    """Yield (lineno, callee_name) for every ``Name(...)``/``x.Name(...)`` call."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name:
                yield node.lineno, name


class TestOneConstructionPath:
    """Replicas, key stores and clients each have exactly one constructor site.

    ``wire_group`` in ``repro/cluster/wiring.py`` is the only code that may
    call a ``*Replica(...)`` constructor or ``KeyStore(...)``; each client
    class is constructed only by its pool.  An eighth hand-rolled cluster
    cannot appear without failing here.
    """

    WIRING = Path("cluster") / "wiring.py"
    #: constructor name -> the one module allowed to call it.
    CLIENT_SITES = {
        "Client": Path("workload") / "client_pool.py",
        "OpenLoopConnection": Path("workload") / "client_pool.py",
        "ShardedClient": Path("workload") / "client_pool.py",
        "RoutedOpenLoopConnection": Path("workload") / "client_pool.py",
    }

    @staticmethod
    def owner_of(name):
        if name == "KeyStore" or name.endswith("Replica"):
            return TestOneConstructionPath.WIRING
        return TestOneConstructionPath.CLIENT_SITES.get(name)

    def offenders(self, root):
        return [
            f"{path.relative_to(root)}:{lineno} calls {name}(...)"
            for path in sorted(root.rglob("*.py"))
            for lineno, name in constructor_calls(path)
            if self.owner_of(name) not in (None, path.relative_to(root))
        ]

    def test_no_module_builds_a_cluster_by_hand(self):
        assert self.offenders(SRC) == [], (
            "replicas and key stores are constructed only by "
            "repro.cluster.wiring.wire_group, clients only by their pools"
        )

    def test_the_rule_catches_a_hand_rolled_cluster(self, tmp_path):
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "eighth.py").write_text(
            "keys = KeyStore(seed='x')\n"
            "replica = core.SeeMoReReplica(node_id='r')\n"
            "client = Client(node_id='c')\n"
        )
        assert [line.split(" calls ")[1] for line in self.offenders(tmp_path)] == [
            "KeyStore(...)",
            "SeeMoReReplica(...)",
            "Client(...)",
        ]

    def test_wire_group_sees_only_the_runtime_interface(self):
        from repro.cluster import wiring
        from repro.runtime import api

        parameters = inspect.signature(wiring.wire_group).parameters
        assert wiring.Runtime is api.Runtime
        assert parameters["runtime"].annotation == "Runtime"
        for backend_type in ("Simulator", "Network", "SimRuntime", "AioRuntime"):
            assert backend_type not in str(inspect.signature(wiring.wire_group))
        backends = FORBIDDEN_PREFIXES + ("repro.runtime.sim", "repro.runtime.aio")
        offenders = [
            module
            for _, module in iter_imports(SRC / self.WIRING)
            if module.startswith(backends)
        ]
        assert offenders == []

    def test_every_backend_calls_the_same_wire_group(self):
        """Two assemblies call ``wire_group``: the sim builders' and the oracle cluster's.

        Every conformance leg reaches the second one through
        ``build_proc_seemore``'s worker specs, so the oracle module wires
        nothing itself.
        """
        from repro.cluster import builders, wiring
        from repro.runtime import conformance

        assert builders.wire_group is wiring.wire_group

        def called_names(node):
            return {
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
            }

        def function_defs(path):
            tree = ast.parse(path.read_text(), filename=str(path))
            return [
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]

        callers = {
            function.name
            for path in SRC.rglob("*.py")
            for function in function_defs(path)
            if "wire_group" in called_names(function)
        }
        assert callers == {"_sim_deployment", "wire_oracle"}

        def called_by(function):
            return called_names(ast.parse(inspect.getsource(function)))

        for builder in (builders._build_single, builders.build_sharded_seemore):
            assert "_sim_deployment" in called_by(builder), builder.__name__
        assert "wire_oracle" in called_by(builders._oracle_worker)
        specs = builders.build_proc_seemore(num_procs=3).specs
        assert [spec.build for spec in specs] == [builders._oracle_worker] * 4

        conformance_path = SRC / "runtime" / "conformance.py"
        assert "wire_group" not in called_names(ast.parse(conformance_path.read_text()))
        assert not hasattr(conformance, "wire_group")

        # run_leg builds the one cluster unconditionally; the only branch
        # before it is the guard that refuses an unknown backend.
        (run_leg,) = ast.parse(inspect.getsource(conformance.run_leg)).body
        builds = [
            index
            for index, statement in enumerate(run_leg.body)
            if "build_proc_seemore" in called_names(statement)
        ]
        assert len(builds) == 1
        for statement in run_leg.body[: builds[0]]:
            if isinstance(statement, ast.If):
                assert [type(each) for each in statement.body] == [ast.Raise]
            assert not isinstance(statement, (ast.For, ast.While, ast.Try, ast.With))


#: The methods in which a client decides what a reply, a ``Busy`` or a
#: timeout means for a request.
CLIENT_DECISIONS = {
    "_on_reply",
    "_is_acceptable",
    "_complete",
    "_on_busy",
    "_on_busy_resend",
    "_shed",
    "_on_timeout",
}


def client_decision_sites(path):
    """Yield ``(lineno, what)`` per client-decision definition or ``.retransmitted`` write.

    ``_on_timeout = Client._on_timeout`` is not a definition: it re-exports
    the one retransmit scan under the class the benchmark's tracer patches.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in CLIENT_DECISIONS:
                yield node.lineno, f"defines {node.name}"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Attribute) and target.attr == "retransmitted":
                    yield node.lineno, "assigns .retransmitted"
                elif isinstance(target, ast.Name) and target.id in CLIENT_DECISIONS:
                    if ast.unparse(node) != "_on_timeout = Client._on_timeout":
                        yield node.lineno, f"defines {target.id}"


class TestOneClientImplementation:
    """Only ``repro/smr/client.py`` decides what happens to a request.

    ``ShardedClient`` and ``OpenLoopConnection`` pick a session or an
    operation; filtering, counting and accepting replies, completing,
    backing off after ``Busy``, shedding and retransmitting are written once.
    """

    CLIENT = Path("smr") / "client.py"

    def offenders(self, root):
        return [
            f"{path.relative_to(root)}:{lineno} {what}"
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root) != self.CLIENT
            for lineno, what in client_decision_sites(path)
        ]

    def test_no_other_module_defines_a_client_decision(self):
        assert self.offenders(SRC) == []
        defined = {what for _, what in client_decision_sites(SRC / self.CLIENT)}
        assert defined == {f"defines {name}" for name in CLIENT_DECISIONS} | {
            "assigns .retransmitted"
        }

    def test_the_rule_catches_a_second_acceptance_rule(self, tmp_path):
        (tmp_path / "shard").mkdir()
        (tmp_path / "shard" / "client.py").write_text(
            "class ShardedClient(Client):\n"
            "    _on_timeout = Client._on_timeout\n"
            "    _complete = Client._complete\n"
            "    def _is_acceptable(self, reply, voters, pending):\n"
            "        pending.retransmitted = True\n"
            "        return len(voters) >= 1\n"
        )
        assert [line.split(" ", 1)[1] for line in self.offenders(tmp_path)] == [
            "defines _complete",
            "defines _is_acceptable",
            "assigns .retransmitted",
        ]


def result_dataclasses(path):
    """Names of the ``@dataclass`` classes in ``path`` whose name ends in ``Result``."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Result")):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                names.append(node.name)
    return names


def engine_functions(root):
    """``{"finalize": {...}, "schedule": {...}}``: who drives checkers under ``root``.

    Every call is attributed to its outermost enclosing function or method
    (so closures count for the function that defines them), named
    ``file.py:function``.  ``finalize`` collects callers of ``<x>.finalize(...)``
    -- except a method itself named ``finalize``, where a checker may
    delegate to the checkers it wraps or to its base class; ``schedule``
    collects callers of ``call_at``/``call_later``, the only ways to put
    periodic sampling on the simulator clock.
    """
    found = {"finalize": set(), "schedule": set()}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [
            member
            for node in tree.body
            for member in (node.body if isinstance(node, ast.ClassDef) else [node])
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                where = f"{path.name}:{scope.name}"
                if node.func.attr == "finalize" and scope.name != "finalize":
                    found["finalize"].add(where)
                elif node.func.attr in ("call_at", "call_later"):
                    found["schedule"].add(where)
    return found


class TestOneRunLoopOneResult:
    """One result type per layer and one engine that drives the checkers.

    ``cluster/runner.py`` defines exactly one ``*Result`` dataclass
    (``RunResult``) and ``scenarios/`` exactly one (``ScenarioResult``); and
    exactly one function under ``scenarios/`` finalizes checkers or schedules
    anything on the simulator clock -- ``engine.run_scenario``.  A fourth
    result class or a second copy of the sampling loop fails here.
    """

    SCENARIOS = SRC / "scenarios"

    def test_the_runner_has_one_result_dataclass(self):
        assert result_dataclasses(SRC / "cluster" / "runner.py") == ["RunResult"]

    def test_the_scenarios_package_has_one_result_dataclass(self):
        found = {
            path.name: names
            for path in sorted(self.SCENARIOS.glob("*.py"))
            if (names := result_dataclasses(path))
        }
        assert found == {"engine.py": ["ScenarioResult"]}

    def test_one_function_samples_and_finalizes_checkers(self):
        assert engine_functions(self.SCENARIOS) == {
            "finalize": {"engine.py:run_scenario"},
            "schedule": {"engine.py:run_scenario"},
        }

    def test_the_rules_catch_a_second_result_and_a_second_engine(self, tmp_path):
        (tmp_path / "second.py").write_text(
            "@dataclass(frozen=True)\n"
            "class ShardedThingResult:\n"
            "    ok: bool\n"
            "class Composite:\n"
            "    def finalize(self, deployment):\n"
            "        return [v for inner in self.inner for v in inner.finalize(deployment)]\n"
            "def run_second_engine(scenario, deployment):\n"
            "    def sample():\n"
            "        deployment.simulator.call_later(0.05, sample)\n"
            "    sample()\n"
            "    for checker in scenario.default_checkers():\n"
            "        checker.finalize(deployment)\n"
        )
        assert result_dataclasses(tmp_path / "second.py") == ["ShardedThingResult"]
        assert engine_functions(tmp_path) == {
            "finalize": {"second.py:run_second_engine"},
            "schedule": {"second.py:run_second_engine"},
        }


#: The declarations and runners folded into ``Scenario`` / ``run_scenario``.
RETIRED_SCENARIO_NAMES = {
    "ShardedScenario",
    "OpenLoopScenario",
    "FaultPlan",
    "run_timeline",
    "run_adaptive_scenario",
}
SCENARIO_RUNNERS = {"run_scenario", "run_scenario_matrix"}


def scenario_sites(path):
    """Yield ``(lineno, what)`` for everything the one-scenario rule watches in ``path``.

    A class that defines ``build`` (and whether that takes ``**kwargs``), a
    scenario runner that takes ``**kwargs``, and every definition or import
    of a retired name.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "build":
                    yield member.lineno, f"{node.name} defines build"
                    if member.args.kwarg is not None:
                        yield member.lineno, f"{node.name}.build takes **{member.args.kwarg.arg}"
        elif isinstance(node, ast.FunctionDef):
            if node.name in SCENARIO_RUNNERS and node.args.kwarg is not None:
                yield node.lineno, f"{node.name} takes **{node.args.kwarg.arg}"
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in RETIRED_SCENARIO_NAMES:
                yield node.lineno, f"defines {node.name}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name in RETIRED_SCENARIO_NAMES:
                    yield node.lineno, f"imports {alias.name}"


class TestOneScenario:
    """One scenario type, one way to vary it, one way to put a fault on a clock.

    Exactly one class under ``scenarios/`` defines ``build`` (``Scenario``,
    in ``engine.py``); ``Scenario.build``, ``run_scenario`` and
    ``run_scenario_matrix`` take no ``**kwargs`` (a frozen dataclass is varied
    with ``dataclasses.replace``); and nothing under ``src/repro`` defines or
    imports ``ShardedScenario``, ``OpenLoopScenario``, ``FaultPlan``,
    ``run_timeline`` or ``run_adaptive_scenario``.  Against the tree before
    the fold (commit ``c0eb3de``) ``offenders`` lists 17 sites: 2 second
    ``build`` classes, 4 ``**overrides``, and 5 definitions and 6 imports of
    the retired names, at least one per name.
    """

    OWNER = (Path("scenarios") / "engine.py", "Scenario defines build")

    def offenders(self, root):
        found = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            for lineno, what in sorted(scenario_sites(path)):
                if what.endswith(" defines build") and (
                    relative.parts[0] != "scenarios" or (relative, what) == self.OWNER
                ):
                    continue  # SeeMoReConfig.build, Workload.build ... are not scenarios
                if ".build takes" in what and relative.parts[0] != "scenarios":
                    continue
                found.append(f"{relative}:{lineno} {what}")
        return found

    def test_one_class_builds_and_nothing_takes_overrides(self):
        assert self.offenders(SRC) == []
        owner, what = self.OWNER
        assert what in {site for _, site in scenario_sites(SRC / owner)}

    def test_the_rule_catches_a_second_scenario_class(self, tmp_path):
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "sharded.py").write_text(
            "from repro.faults.adversary import FaultPlan\n"
            "class ShardedScenario:\n"
            "    def build(self, mode=None, **overrides):\n"
            "        return build_sharded_seemore(**overrides)\n"
            "def run_adaptive_scenario(scenario, mode=None, **overrides):\n"
            "    return run_scenario(scenario, mode, **overrides)\n"
        )
        (tmp_path / "scenarios" / "engine.py").write_text(
            "class Scenario:\n"
            "    def build(self, mode=None):\n"
            "        return build_seemore(mode=mode)\n"
            "def run_scenario(scenario, mode=None, **overrides):\n"
            "    return scenario.build(mode, **overrides)\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "config.py").write_text(
            "class SeeMoReConfig:\n"
            "    def build(cls, c, m, **overrides):\n"
            "        return cls(**overrides)\n"
        )
        assert self.offenders(tmp_path) == [
            "scenarios/engine.py:4 run_scenario takes **overrides",
            "scenarios/sharded.py:1 imports FaultPlan",
            "scenarios/sharded.py:2 defines ShardedScenario",
            "scenarios/sharded.py:3 ShardedScenario defines build",
            "scenarios/sharded.py:3 ShardedScenario.build takes **overrides",
            "scenarios/sharded.py:5 defines run_adaptive_scenario",
        ]


#: The request intake, the role test, the primary's proposal, the commit
#: entry and the checkpoint handler and vote rule of every agreement engine,
#: defined once in ``smr/replica.py``.  (``finalize`` is also the name
#: of an invariant checker's last look, so only the protocol packages count.)
SKELETON_METHODS = {
    "on_request",
    "is_primary",
    "propose",
    "finalize",
    "on_checkpoint",
    "count_checkpoint_vote",
}
AGREEMENT_PACKAGES = {"smr", "core", "baselines"}
#: What the former copies of the intake, the commit entry and the checkpoint
#: vote rule were called, and the baselines' own checkpoint message; nothing
#: defines these now.
RETIRED_SKELETON = {
    "_on_request",
    "handle_retransmission_or_forward",
    "finalize_commit",
    "_finalize",
    "_record_checkpoint_vote",
    "_maybe_stabilise_by_votes",
    "_on_checkpoint",
    "BaselineCheckpoint",
}
#: The view-change state machine and its reconciliation rule, defined once in
#: ``smr/view_change.py`` for SeeMoRe and the baselines alike.
VIEW_CHANGE_MACHINE = {
    "ViewChangeManager",
    "reconcile",
    "on_view_change",
    "on_new_view",
    "_maybe_build_new_view",
    "_on_new_view_timeout",
    "_on_request_timeout",
}
#: What the two former copies called their pieces; nothing defines these now.
RETIRED_VIEW_CHANGE = {
    "_start_view_change",
    "_on_view_change",
    "_maybe_install_view",
    "_on_new_view",
    "_install_view",
    "enter_new_view",
    "_build_new_view_message",
}
#: The inform leg of Dog and Peacock, defined once on ``SeeMoReReplica``.
INFORM_LEG = {"send_informs", "on_inform"}
REQUEST_TABLE = {"remember_request", "known_request", "_known_requests"}
#: The per-client sequence-assignment table and its accessors, one copy in
#: ``smr/replica.py`` for SeeMoRe and the baselines; ``_assigned_sequences``
#: was SeeMoRe's own copy.
ASSIGNMENT_ACCESSORS = {
    "record_assignment",
    "already_assigned",
    "clear_assignments",
    "prune_assignments",
}
ASSIGNMENT_TABLE = {"_assigned", "_assigned_sequences"}
#: PBFT's phase handlers, defined once in ``smr/pbft.py`` for Peacock and the
#: BFT baselines.
PBFT_PHASES = {
    "on_preprepare",
    "on_proxy_prepare",
    "_send_prepare",
    "_maybe_send_commit",
    "_maybe_commit",
}
#: What the BFT baselines' former copy called its handlers; nothing defines these now.
RETIRED_PBFT = {"_on_preprepare", "_on_prepare", "_on_commit"}
#: Dog's former own accept vote and commit rule, now PBFT's ``_send_prepare`` and
#: ``_maybe_send_commit`` under a trusted primary; nothing defines these now.
RETIRED_DOG = {"_send_accept", "_maybe_commit_from_accepts"}
#: The wire tags of the retired ``BftPrePrepare`` / ``BftPrepare`` / ``BftCommit``.
RETIRED_PBFT_TAGS = {0x23, 0x24, 0x25}
#: The leader agreement's phase handlers, defined once in ``smr/leader.py`` for
#: Lion and the CFT baseline.
LEADER_PHASES = {"on_prepare", "on_accept", "on_commit"}
#: The phase messages an agreement declares in its ``handlers``; only
#: ``ReplicaBase.install_agreement`` routes them, never a ``register_handler`` call.
PHASE_MESSAGES = {"Prepare", "Accept", "Commit", "PrePrepare", "ProxyPrepare"}
#: The second wiring that ``install_agreement`` replaced: SeeMoRe's strategy layer
#: and the baselines' own registration hook; nothing defines or calls these now.
RETIRED_WIRING = {"ModeStrategy", "_register_phases"}
#: Where else a watched site may be: PBFT's commit, and ``smr/replica.py``,
#: where the one wiring path lives.
OTHER_PHASE_OWNERS = {
    "defines on_commit": {Path("smr") / "pbft.py"},
    **{f"registers {name}": {Path("smr") / "replica.py"} for name in PHASE_MESSAGES},
}
#: What the CFT baseline's former copy called its handlers; nothing defines these now.
RETIRED_LEADER = {"_on_accept_request", "_on_accepted", "_on_learn"}
#: The CFT baseline's former messages and its own new view, and their wire tags.
RETIRED_LEADER_MESSAGES = {"AcceptRequest", "Accepted", "Learn", "BaselineNewView"}
RETIRED_LEADER_TAGS = {0x20, 0x21, 0x22, 0x28}


def declared_tag(cls):
    """The constant a class body assigns to ``TAG``, if any."""
    for node in cls.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "TAG" for target in node.targets)
            and isinstance(node.value, ast.Constant)
        ):
            return node.value.value
    return None


def has_a_body(function):
    """Whether ``function`` does anything beyond a docstring, ``pass`` or ``...``."""
    return any(
        not (isinstance(node, ast.Pass) or isinstance(getattr(node, "value", None), ast.Constant))
        for node in function.body
    )


def skeleton_sites(path):
    """Yield ``(lineno, what)`` for every definition or use the skeleton rules watch."""
    watched = (
        SKELETON_METHODS
        | RETIRED_SKELETON
        | VIEW_CHANGE_MACHINE
        | RETIRED_VIEW_CHANGE
        | REQUEST_TABLE
        | ASSIGNMENT_ACCESSORS
    )
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            retired = (
                VIEW_CHANGE_MACHINE | RETIRED_SKELETON | RETIRED_LEADER_MESSAGES | RETIRED_WIRING
            )
            if node.name in retired or node.name.startswith("Bft"):
                yield node.lineno, f"defines {node.name}"
            if declared_tag(node) in RETIRED_PBFT_TAGS | RETIRED_LEADER_TAGS:
                yield node.lineno, f"declares tag {declared_tag(node):#04x}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if name.endswith("noop_request"):
                yield node.lineno, "defines noop_request"
            elif name in watched | RETIRED_PBFT | RETIRED_DOG | RETIRED_LEADER | RETIRED_WIRING:
                yield node.lineno, f"defines {name}"
            elif name in INFORM_LEG | PBFT_PHASES | LEADER_PHASES and has_a_body(node):
                yield node.lineno, f"defines {name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "register_handler":
            for argument in node.args:
                name = getattr(argument, "attr", getattr(argument, "id", None))
                if name in PHASE_MESSAGES:
                    yield node.lineno, f"registers {name}"
        elif isinstance(node, ast.Attribute) and node.attr in (
            REQUEST_TABLE | ASSIGNMENT_TABLE | RETIRED_WIRING
        ):
            yield node.lineno, f"touches {node.attr}"


class TestOneAgreementSkeleton:
    """What every agreement engine shares is written once.

    ``smr/replica.py`` owns ``noop_request`` and, for SeeMoRe and the
    baselines alike, the request intake (``on_request``), ``is_primary`` and
    the commit entry (``finalize``); the former copies of those and of the
    checkpoint vote rule, and ``BaselineCheckpoint``, are gone;
    ``smr/view_change.py`` owns the view-change state machine and its one
    reconciliation rule, which SeeMoRe and the baselines both drive
    (``core/`` and ``baselines/`` give answers, not handlers);
    ``core/replica.py`` owns the inform leg of Dog and Peacock; the
    never-pruned ``_known_requests`` table with its two accessors is gone;
    ``smr/replica.py`` owns the one sequence-assignment table,
    ``_assigned``, with its accessors; ``smr/pbft.py`` owns PBFT's
    phase handlers, which Peacock and the BFT baselines run on one message
    family (no ``Bft*`` class, no tag 0x23–0x25) and Dog on its own (no
    ``_send_accept`` / ``_maybe_commit_from_accepts``); and
    ``smr/leader.py`` owns the leader agreement's, which Lion and the CFT
    baseline both run (on Lion's messages: no ``AcceptRequest`` /
    ``Accepted`` / ``Learn`` / ``BaselineNewView``, no tag 0x20–0x22 or 0x28).
    Those two modules are the only ones that define phase handlers.
    Every agreement's phase handlers are installed one way, by
    ``ReplicaBase.install_agreement`` from the agreement's ``handlers``: no
    ``register_handler`` call outside ``smr/replica.py`` passes a phase
    message, and no ``ModeStrategy`` or ``_register_phases`` is left.
    """

    OWNERS = {
        "defines noop_request": Path("smr") / "replica.py",
        "touches _assigned": Path("smr") / "replica.py",
        **{f"defines {name}": Path("smr") / "replica.py" for name in ASSIGNMENT_ACCESSORS},
        **{f"defines {name}": Path("smr") / "view_change.py" for name in VIEW_CHANGE_MACHINE},
        **{f"defines {name}": Path("smr") / "replica.py" for name in SKELETON_METHODS},
        **{f"defines {name}": Path("core") / "replica.py" for name in INFORM_LEG},
        **{f"defines {name}": Path("smr") / "pbft.py" for name in PBFT_PHASES},
        **{f"defines {name}": Path("smr") / "leader.py" for name in LEADER_PHASES},
    }

    def offenders(self, root):
        found = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            in_agreement = relative.parts[0] in AGREEMENT_PACKAGES
            for lineno, what in sorted(skeleton_sites(path)):
                if what.split()[-1] in SKELETON_METHODS and not in_agreement:
                    continue
                if self.OWNERS.get(what) != relative and relative not in OTHER_PHASE_OWNERS.get(
                    what, ()
                ):
                    found.append(f"{relative}:{lineno} {what}")
        return found

    def test_each_shared_piece_has_one_owner(self):
        assert self.offenders(SRC) == []
        for what, owner in self.OWNERS.items():
            assert what in {site for _, site in skeleton_sites(SRC / owner)}, (what, owner)

    def test_the_rule_catches_the_old_paxos_and_dog(self, tmp_path):
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "paxos.py").write_text(
            "def _noop_request(sequence):\n"
            "    return Request(operation=Operation('noop'), timestamp=sequence)\n"
            "class PaxosReplica(ReplicaBase):\n"
            "    def _on_request(self, src, request):\n"
            "        self.remember_request(request)\n"
            "    def _on_accept_request(self, src, message):\n"
            "        pass\n"
            "    def _install_view(self, src, message):\n"
            "        self._assigned.clear()\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "dog.py").write_text(
            "class DogStrategy(ModeStrategy):\n"
            "    def on_inform(self, replica, src, message):\n"
            "        replica.finalize_commit(slot, send_reply=False)\n"
            "class LionStrategy(ModeStrategy):\n"
            "    def on_inform(self, replica, src, message):\n"
            "        \"\"\"Lion has no inform leg.\"\"\"\n"
        )
        (tmp_path / "smr").mkdir()
        (tmp_path / "smr" / "replica.py").write_text(
            "class ReplicaBase(Node):\n"
            "    def known_request(self, client_id, timestamp):\n"
            "        return self._known_requests.get((client_id, timestamp))\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/paxos.py:1 defines noop_request",
            "baselines/paxos.py:4 defines _on_request",
            "baselines/paxos.py:5 touches remember_request",
            "baselines/paxos.py:6 defines _on_accept_request",
            "baselines/paxos.py:8 defines _install_view",
            "baselines/paxos.py:9 touches _assigned",
            "core/dog.py:2 defines on_inform",
            "smr/replica.py:2 defines known_request",
            "smr/replica.py:3 touches _known_requests",
        ]

    def test_the_rule_catches_the_old_assignment_tables(self, tmp_path):
        """The baselines' never-pruned ``_assigned`` and SeeMoRe's ``_assigned_sequences``."""
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "replica.py").write_text(
            "class BaselineReplica(ReplicaBase):\n"
            "    def __init__(self):\n"
            "        self._assigned = {}\n"
            "    def _on_request(self, src, request):\n"
            "        key = (request.client_id, request.timestamp)\n"
            "        if key in self._assigned:\n"
            "            return\n"
            "        self._assigned[key] = self.next_sequence\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "replica.py").write_text(
            "class SeeMoReReplica(ReplicaBase):\n"
            "    def already_assigned(self, request):\n"
            "        return (request.client_id, request.timestamp) in self._assigned_sequences\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/replica.py:3 touches _assigned",
            "baselines/replica.py:4 defines _on_request",
            "baselines/replica.py:6 touches _assigned",
            "baselines/replica.py:8 touches _assigned",
            "core/replica.py:2 defines already_assigned",
            "core/replica.py:3 touches _assigned_sequences",
        ]

    def test_the_rule_catches_the_old_intakes_commit_entries_and_checkpoint_votes(self, tmp_path):
        """The two intakes this rule retired (SeeMoRe's strategy and the
        baselines' skeleton), their commit entries and their vote rules."""
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "strategy_base.py").write_text(
            "class ModeStrategy:\n"
            "    def on_request(self, replica, src, request):\n"
            "        if not replica.is_primary():\n"
            "            self.handle_retransmission_or_forward(replica, src, request)\n"
            "    def handle_retransmission_or_forward(self, replica, src, request):\n"
            "        replica.send(replica.current_primary(), request)\n"
        )
        (tmp_path / "core" / "replica.py").write_text(
            "class SeeMoReReplica(ReplicaBase):\n"
            "    def is_primary(self):\n"
            "        return self.current_primary() == self.node_id\n"
            "    def finalize_commit(self, slot, send_reply):\n"
            "        self.commit_slot(slot.sequence, slot.request, self.view, send_reply)\n"
            "    def _maybe_stabilise_by_votes(self, sequence, state_digest):\n"
            "        pass\n"
        )
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "replica.py").write_text(
            "class BaselineReplica(ReplicaBase):\n"
            "    def _on_request(self, src, request):\n"
            "        self._propose(self.next_sequence, request_digest(request), request)\n"
            "    def _finalize(self, slot, send_reply):\n"
            "        self.commit_slot(slot.sequence, slot.request, self.view, send_reply)\n"
        )
        (tmp_path / "baselines" / "bft.py").write_text(
            "class BaselineCheckpoint(ProtocolMessage):\n"
            "    TAG = 0x26\n"
            "class QuorumBFTReplica(BaselineReplica):\n"
            "    def _record_checkpoint_vote(self, sequence, state_digest, replica_id):\n"
            "        pass\n"
        )
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "invariants.py").write_text(
            "class PrefixAgreement:\n"
            "    def finalize(self, deployment):\n"
            "        return []\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/bft.py:1 defines BaselineCheckpoint",
            "baselines/bft.py:4 defines _record_checkpoint_vote",
            "baselines/replica.py:2 defines _on_request",
            "baselines/replica.py:4 defines _finalize",
            "core/replica.py:2 defines is_primary",
            "core/replica.py:4 defines finalize_commit",
            "core/replica.py:6 defines _maybe_stabilise_by_votes",
            "core/strategy_base.py:1 defines ModeStrategy",
            "core/strategy_base.py:2 defines on_request",
            "core/strategy_base.py:5 defines handle_retransmission_or_forward",
        ]

    def test_the_rule_catches_the_two_pbft_copies_and_their_messages(self, tmp_path):
        """Peacock's phases and the BFT baselines' own, each on its own messages."""
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "bft.py").write_text(
            "class QuorumBFTReplica(BaselineReplica):\n"
            "    def _on_preprepare(self, src, message):\n"
            "        self._send_prepare(slot, message.digest)\n"
            "    def _send_prepare(self, slot, digest):\n"
            "        self._maybe_send_commit(slot)\n"
            "    def _on_prepare(self, src, message):\n"
            "        self._maybe_send_commit(slot)\n"
            "    def _maybe_send_commit(self, slot):\n"
            "        self._maybe_commit(slot)\n"
            "    def _on_commit(self, src, message):\n"
            "        self._maybe_commit(slot)\n"
            "    def _maybe_commit(self, slot):\n"
            "        self.finalize(slot, send_reply=True)\n"
        )
        (tmp_path / "baselines" / "messages.py").write_text(
            "class BftPrePrepare(ProtocolMessage):\n"
            "    TAG = 0x23\n"
            "class Proposal(ProtocolMessage):\n"
            "    TAG = 0x25\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "peacock.py").write_text(
            "class PeacockStrategy(ModeStrategy):\n"
            "    def on_preprepare(self, replica, src, message):\n"
            "        self._send_prepare(replica, slot, message.digest)\n"
            "    def on_proxy_prepare(self, replica, src, message):\n"
            "        self._maybe_send_commit(replica, slot)\n"
        )
        (tmp_path / "core" / "strategy_base.py").write_text(
            "class ModeStrategy:\n"
            "    def on_preprepare(self, replica, src, message):\n"
            "        \"\"\"Handle the untrusted primary's pre-prepare (Peacock mode only).\"\"\"\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/bft.py:2 defines _on_preprepare",
            "baselines/bft.py:4 defines _send_prepare",
            "baselines/bft.py:6 defines _on_prepare",
            "baselines/bft.py:8 defines _maybe_send_commit",
            "baselines/bft.py:10 defines _on_commit",
            "baselines/bft.py:12 defines _maybe_commit",
            "baselines/messages.py:1 declares tag 0x23",
            "baselines/messages.py:1 defines BftPrePrepare",
            "baselines/messages.py:3 declares tag 0x25",
            "core/peacock.py:2 defines on_preprepare",
            "core/peacock.py:4 defines on_proxy_prepare",
            "core/strategy_base.py:1 defines ModeStrategy",
        ]

    def test_the_rule_catches_the_two_leader_agreements_and_their_messages(self, tmp_path):
        """Lion's phases and the CFT baseline's own, each on its own messages."""
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "lion.py").write_text(
            "class LionStrategy(ModeStrategy):\n"
            "    def on_prepare(self, replica, src, message):\n"
            "        replica.send(src, accept)\n"
            "    def on_accept(self, replica, src, message):\n"
            "        replica.finalize(slot, send_reply=True)\n"
            "    def on_commit(self, replica, src, message):\n"
            "        replica.finalize(slot, send_reply=False)\n"
        )
        (tmp_path / "core" / "dog.py").write_text(
            "class DogStrategy(ModeStrategy):\n"
            "    def on_prepare(self, replica, src, message):\n"
            "        replica.view_changes.start_request_timer()\n"
        )
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "paxos.py").write_text(
            "class PaxosReplica(BaselineReplica):\n"
            "    def _on_accept_request(self, src, message):\n"
            "        self.send(src, accepted)\n"
            "    def _on_accepted(self, src, message):\n"
            "        self.multicast(self.other_replicas(), learn)\n"
            "    def _on_learn(self, src, message):\n"
            "        self.finalize(slot, send_reply=False)\n"
        )
        (tmp_path / "baselines" / "messages.py").write_text(
            "class AcceptRequest(ProtocolMessage):\n"
            "    TAG = 0x20\n"
            "class BaselineNewView(ProtocolMessage):\n"
            "    TAG = 0x28\n"
            "class Proposal(ProtocolMessage):\n"
            "    TAG = 0x22\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/messages.py:1 declares tag 0x20",
            "baselines/messages.py:1 defines AcceptRequest",
            "baselines/messages.py:3 declares tag 0x28",
            "baselines/messages.py:3 defines BaselineNewView",
            "baselines/messages.py:5 declares tag 0x22",
            "baselines/paxos.py:2 defines _on_accept_request",
            "baselines/paxos.py:4 defines _on_accepted",
            "baselines/paxos.py:6 defines _on_learn",
            "core/dog.py:2 defines on_prepare",
            "core/lion.py:2 defines on_prepare",
            "core/lion.py:4 defines on_accept",
            "core/lion.py:6 defines on_commit",
        ]

    def test_the_rule_catches_dogs_own_phases(self, tmp_path):
        """Dog's agreement as it was before it ran on PBFT's engine."""
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "dog.py").write_text(
            "class DogAgreement:\n"
            "    handlers = {msgs.Prepare: 'on_prepare', msgs.Accept: 'on_accept'}\n"
            "    def on_prepare(self, replica, src, message):\n"
            "        self._send_accept(replica, slot, message.digest)\n"
            "    def _send_accept(self, replica, slot, digest):\n"
            "        replica.multicast(replica.other_proxies(), accept)\n"
            "    def reenter(self, replica, slot, entry):\n"
            "        self._send_accept(replica, slot, entry.digest)\n"
            "    def on_accept(self, replica, src, message):\n"
            "        self._maybe_commit_from_accepts(replica, slot)\n"
            "    def _maybe_commit_from_accepts(self, replica, slot):\n"
            "        replica.finalize(slot, send_reply=True)\n"
            "    def on_commit(self, replica, src, message):\n"
            "        replica.finalize(slot, send_reply=True)\n"
        )
        assert self.offenders(tmp_path) == [
            "core/dog.py:3 defines on_prepare",
            "core/dog.py:5 defines _send_accept",
            "core/dog.py:9 defines on_accept",
            "core/dog.py:11 defines _maybe_commit_from_accepts",
            "core/dog.py:13 defines on_commit",
        ]

    def test_the_rule_catches_the_second_wiring(self, tmp_path):
        """SeeMoRe's strategy lambdas and the baselines' ``_register_phases``."""
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "replica.py").write_text(
            "class SeeMoReReplica(ReplicaBase):\n"
            "    def _register_handlers(self) -> None:\n"
            "        self.register_handler(msgs.Prepare, lambda src, m: "
            "self.strategy.on_prepare(self, src, m))\n"
            "        self.register_handler(msgs.Accept, lambda src, m: "
            "self.strategy.on_accept(self, src, m))\n"
            "        self.register_handler(msgs.Commit, lambda src, m: "
            "self.strategy.on_commit(self, src, m))\n"
            "        self.register_handler(\n"
            "            msgs.PrePrepare, lambda src, m: "
            "self.strategy.on_preprepare(self, src, m)\n"
            "        )\n"
            "        self.register_handler(\n"
            "            msgs.ProxyPrepare, lambda src, m: "
            "self.strategy.on_proxy_prepare(self, src, m)\n"
            "        )\n"
            "        self.register_handler(msgs.Inform, lambda src, m: "
            "self.strategy.on_inform(self, src, m))\n"
            "        self.register_handler(msgs.Checkpoint, self.on_checkpoint)\n"
        )
        (tmp_path / "core" / "strategy_base.py").write_text(
            "class ModeStrategy:\n"
            "    def on_prepare(self, replica, src, message):\n"
            "        \"\"\"Handle the trusted primary's prepare (Lion and Dog modes).\"\"\"\n"
        )
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "replica.py").write_text(
            "class BaselineReplica(ReplicaBase):\n"
            "    def __init__(self, node_id, runtime, config, signer, verifier, state_machine):\n"
            "        self.register_handler(NewView, self.view_changes.on_new_view)\n"
            "        self._register_phases()\n"
        )
        (tmp_path / "baselines" / "paxos.py").write_text(
            "class PaxosReplica(BaselineReplica):\n"
            "    agreement = _AGREEMENT\n"
            "\n"
            "    def _register_phases(self) -> None:\n"
            "        self.register_handler(Prepare, partial(_AGREEMENT.on_prepare, self))\n"
            "        self.register_handler(Accept, partial(_AGREEMENT.on_accept, self))\n"
            "        self.register_handler(Commit, partial(_AGREEMENT.on_commit, self))\n"
        )
        (tmp_path / "smr").mkdir()
        (tmp_path / "smr" / "replica.py").write_text(
            "class ReplicaBase(Node):\n"
            "    def install_agreement(self, agreement):\n"
            "        self.register_handler(Prepare, partial(agreement.on_prepare, self))\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/paxos.py:4 defines _register_phases",
            "baselines/paxos.py:5 registers Prepare",
            "baselines/paxos.py:6 registers Accept",
            "baselines/paxos.py:7 registers Commit",
            "baselines/replica.py:4 touches _register_phases",
            "core/replica.py:3 registers Prepare",
            "core/replica.py:4 registers Accept",
            "core/replica.py:5 registers Commit",
            "core/replica.py:6 registers PrePrepare",
            "core/replica.py:9 registers ProxyPrepare",
            "core/strategy_base.py:1 defines ModeStrategy",
        ]

    def test_the_rule_catches_a_second_view_change(self, tmp_path):
        """The two copies this rule retired: SeeMoRe's manager under ``core/``
        and the baselines' handlers, each with its own reconciliation."""
        (tmp_path / "smr").mkdir()
        (tmp_path / "smr" / "view_change.py").write_text(
            "def reconcile(votes, target_view, promote_at=None):\n"
            "    return max(votes)\n"
            "class ViewChangeManager:\n"
            "    def on_view_change(self, src, message):\n"
            "        self._maybe_build_new_view(message.new_view, 0)\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "view_change.py").write_text(
            "class ViewChangeManager:\n"
            "    def on_new_view(self, src, message):\n"
            "        self.enter_new_view(src, message)\n"
            "    def enter_new_view(self, src, message):\n"
            "        self.replica.view = message.new_view\n"
        )
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "replica.py").write_text(
            "class BaselineReplica(ReplicaBase):\n"
            "    def _on_view_change(self, src, message):\n"
            "        self._maybe_install_view(message.new_view)\n"
            "    def _maybe_install_view(self, target_view):\n"
            "        entries = reconcile(self._votes, target_view)\n"
            "def reconcile(votes, target_view):\n"
            "    return {}\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/replica.py:2 defines _on_view_change",
            "baselines/replica.py:4 defines _maybe_install_view",
            "baselines/replica.py:6 defines reconcile",
            "core/view_change.py:1 defines ViewChangeManager",
            "core/view_change.py:2 defines on_new_view",
            "core/view_change.py:4 defines enter_new_view",
        ]


#: The catch-up path: the lag check, the request, both handlers, the snapshot
#: check and the adoption, defined once in ``smr/replica.py`` for all six
#: protocols; each protocol answers ``state_transfer_quorum`` only.
CATCH_UP_PATH = {
    "_maybe_request_catchup",
    "request_state_transfer",
    "_on_state_transfer_request",
    "_on_state_transfer_response",
    "_snapshot_is_what_was_signed",
    "_adopt_snapshot",
}
STATE_TRANSFER_MESSAGES = {"StateTransferRequest", "StateTransferResponse"}


def catch_up_sites(path):
    """Yield ``(lineno, what)`` for every catch-up definition or handler route in ``path``.

    A route is a state-transfer message passed to ``register_handler`` or used
    as a key of a dict literal (a handler table).
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and node.name in STATE_TRANSFER_MESSAGES:
            yield node.lineno, f"defines {node.name}"
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in CATCH_UP_PATH
        ):
            yield node.lineno, f"defines {node.name}"
        elif isinstance(node, (ast.Call, ast.Dict)):
            if isinstance(node, ast.Dict):
                routed = node.keys
            elif getattr(node.func, "attr", None) == "register_handler":
                routed = node.args[:1]
            else:
                continue
            for key in routed:
                name = getattr(key, "attr", getattr(key, "id", None))
                if name in STATE_TRANSFER_MESSAGES:
                    yield key.lineno, f"registers {name}"


class TestOneCatchUpPath:
    """State transfer is written once, in ``smr/replica.py``, for SeeMoRe and
    the baselines alike, and its two messages are declared once, in
    ``smr/messages.py`` (``core.messages`` re-exports them).  No other module
    defines a piece of the path or routes a state-transfer message to a
    handler of its own."""

    OWNERS = {
        **{f"defines {name}": Path("smr") / "replica.py" for name in CATCH_UP_PATH},
        **{f"registers {name}": Path("smr") / "replica.py" for name in STATE_TRANSFER_MESSAGES},
        **{f"defines {name}": Path("smr") / "messages.py" for name in STATE_TRANSFER_MESSAGES},
    }

    def offenders(self, root):
        return [
            f"{path.relative_to(root)}:{lineno} {what}"
            for path in sorted(root.rglob("*.py"))
            for lineno, what in sorted(catch_up_sites(path))
            if self.OWNERS[what] != path.relative_to(root)
        ]

    def test_state_transfer_has_one_owner(self):
        assert self.offenders(SRC) == []
        for what, owner in self.OWNERS.items():
            assert what in {site for _, site in catch_up_sites(SRC / owner)}, (what, owner)

    def test_the_rule_catches_seemores_own_catch_up_path(self, tmp_path):
        """The path as ``SeeMoReReplica`` held it, and a handler table in a baseline."""
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "replica.py").write_text(
            "class SeeMoReReplica(ReplicaBase):\n"
            "    def _register_handlers(self) -> None:\n"
            "        self.register_handler(msgs.ModeChange, self._on_mode_change)\n"
            "        self.register_handler(msgs.StateTransferRequest, "
            "self._on_state_transfer_request)\n"
            "        self.register_handler(\n"
            "            msgs.StateTransferResponse, self._on_state_transfer_response\n"
            "        )\n"
            "    def _after_commit(self, sequence, executions):\n"
            "        self._maybe_request_catchup(sequence)\n"
            "    def _maybe_request_catchup(self, committed_sequence):\n"
            "        self.request_state_transfer(None, committed_sequence)\n"
            "    def request_state_transfer(self, target, up_to_sequence):\n"
            "        self.multicast(self.other_replicas(), request)\n"
            "    def _on_state_transfer_request(self, src, message):\n"
            "        self.send(src, response)\n"
            "    def _on_state_transfer_response(self, src, message):\n"
            "        self._adopt_snapshot(message.snapshot)\n"
            "    @staticmethod\n"
            "    def _snapshot_is_what_was_signed(message):\n"
            "        return True\n"
            "    def _adopt_snapshot(self, snapshot):\n"
            "        self.executor.restore(snapshot)\n"
        )
        (tmp_path / "core" / "messages.py").write_text(
            "class StateTransferRequest(ProtocolMessage):\n"
            "    TAG = 0x1A\n"
            "class StateTransferResponse(ProtocolMessage):\n"
            "    TAG = 0x1B\n"
        )
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "replica.py").write_text(
            "class BaselineReplica(ReplicaBase):\n"
            "    def __init__(self):\n"
            "        self._handlers = {\n"
            "            StateTransferRequest: self._serve_snapshot,\n"
            "        }\n"
        )
        assert self.offenders(tmp_path) == [
            "baselines/replica.py:4 registers StateTransferRequest",
            "core/messages.py:1 defines StateTransferRequest",
            "core/messages.py:3 defines StateTransferResponse",
            "core/replica.py:4 registers StateTransferRequest",
            "core/replica.py:6 registers StateTransferResponse",
            "core/replica.py:10 defines _maybe_request_catchup",
            "core/replica.py:12 defines request_state_transfer",
            "core/replica.py:14 defines _on_state_transfer_request",
            "core/replica.py:16 defines _on_state_transfer_response",
            "core/replica.py:19 defines _snapshot_is_what_was_signed",
            "core/replica.py:21 defines _adopt_snapshot",
        ]


def deployment_kind_sites(path, relative):
    """Yield ``(lineno, what)`` for everything the one-deployment rule watches in ``path``.

    A class named ``*Deployment`` or ``*ClientPool``; ``getattr(x, "shards",
    ...)``; a subscript of, or ``.get`` on, an attribute named ``extras``
    (``ProcCluster.extras`` in ``runtime/proc.py`` is a different object and
    out of scope); and, under ``cluster/``, an assignment to ``x.spawn``.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and node.name.endswith(("Deployment", "ClientPool")):
            yield node.lineno, f"defines {node.name}"
        elif isinstance(node, ast.Call):
            callee, arguments = node.func, node.args
            if (
                isinstance(callee, ast.Name)
                and callee.id == "getattr"
                and len(arguments) > 1
                and isinstance(arguments[1], ast.Constant)
                and arguments[1].value == "shards"
            ):
                yield node.lineno, 'getattr(..., "shards")'
            extras_get = (
                isinstance(callee, ast.Attribute)
                and callee.attr == "get"
                and isinstance(callee.value, ast.Attribute)
                and callee.value.attr == "extras"
            )
            if extras_get and relative != Path("runtime") / "proc.py":
                yield node.lineno, "extras.get(...)"
        elif isinstance(node, ast.Subscript):
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "extras"
                and relative != Path("runtime") / "proc.py"
            ):
                yield node.lineno, "extras[...]"
        elif isinstance(node, ast.Assign) and relative.parts[0] == "cluster":
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "spawn":
                    yield node.lineno, "assigns .spawn"


class TestOneDeployment:
    """One deployment type over typed groups, one client pool, no kind-sniffing.

    Under ``src/repro`` exactly one class is named ``*Deployment``
    (``cluster/deployment.py``) and one ``*ClientPool``
    (``workload/client_pool.py``); nothing asks ``getattr(x, "shards", ...)``
    to tell one kind of deployment from another; no deployment carries a
    stringly ``extras`` dict (what was in it is typed fields of ``Group``);
    and nothing under ``cluster/`` patches a pool's ``spawn``.  Against the
    tree before the fold (commit ``3b9f3c7``) ``offenders`` lists 22 sites:
    2 extra classes, 3 ``getattr`` probes, 8 ``extras[...]`` subscripts, 8
    ``extras.get(...)`` calls and the 1 patched ``spawn``.
    """

    OWNERS = {
        (Path("cluster") / "deployment.py", "defines Deployment"),
        (Path("workload") / "client_pool.py", "defines ClientPool"),
    }

    def offenders(self, root):
        return [
            f"{path.relative_to(root)}:{lineno} {what}"
            for path in sorted(root.rglob("*.py"))
            for lineno, what in sorted(deployment_kind_sites(path, path.relative_to(root)))
            if (path.relative_to(root), what) not in self.OWNERS
        ]

    def test_one_of_each_and_no_duck_typing_of_the_deployment_kind(self):
        assert self.offenders(SRC) == []
        for owner, what in self.OWNERS:
            assert what in {site for _, site in deployment_kind_sites(SRC / owner, owner)}

    def test_the_rule_catches_the_old_fork(self, tmp_path):
        for package in ("cluster", "shard", "scenarios", "runtime"):
            (tmp_path / package).mkdir()
        (tmp_path / "cluster" / "deployment.py").write_text(
            "class ClientDriven:\n    pass\nclass Deployment(ClientDriven):\n    pass\n"
        )
        (tmp_path / "cluster" / "builders.py").write_text(
            "for shard in shards:\n"
            "    shard.client_pool.spawn = _reject_per_shard_spawn\n"
            "    shard.extras['adaptive'] = controller\n"
        )
        (tmp_path / "shard" / "deployment.py").write_text(
            "class ShardedDeployment(ClientDriven):\n    pass\n"
        )
        (tmp_path / "shard" / "client.py").write_text(
            "class ShardedClientPool(ClientPool):\n    pass\n"
        )
        (tmp_path / "scenarios" / "engine.py").write_text(
            "shards = getattr(deployment, 'shards', None)\n"
            "mode = deployment.extras.get('mode')\n"
        )
        # A checker may wrap the pool's spawn; ProcCluster.extras is another object.
        (tmp_path / "scenarios" / "invariants.py").write_text("pool.spawn = spawning\n")
        (tmp_path / "runtime" / "proc.py").write_text("config = self.extras['config']\n")
        assert self.offenders(tmp_path) == [
            "cluster/builders.py:2 assigns .spawn",
            "cluster/builders.py:3 extras[...]",
            'scenarios/engine.py:1 getattr(..., "shards")',
            "scenarios/engine.py:2 extras.get(...)",
            "shard/client.py:1 defines ShardedClientPool",
            "shard/deployment.py:1 defines ShardedDeployment",
        ]


class TestDetectorDetects:
    def test_forbidden_import_is_caught(self, tmp_path):
        sample = tmp_path / "repro"
        (sample / "core").mkdir(parents=True)
        bad = sample / "core" / "bad.py"
        bad.write_text("from repro.sim.simulator import Simulator\n")
        # Re-point the resolver at the sample tree by mimicking its layout.
        tree_offenders = [
            module
            for _, module in iter_imports(bad)
            if module.startswith(FORBIDDEN_PREFIXES)
        ]
        assert tree_offenders == ["repro.sim.simulator"]
