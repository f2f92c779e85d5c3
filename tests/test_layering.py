"""Import layering: product code does not depend on the harness.

Walks the import graph of ``src/repro`` with ``ast`` (every ``import``
and ``from ... import``, at any nesting depth, so lazy imports count):

* nothing under ``repro.{common,core,storage,runtime,models,workflow,
  lang,resilience,obs}`` imports ``repro.chaos`` or ``repro.cluster``;
* ``repro.net`` imports nothing from ``repro.chaos``: a fabric is given
  its fault injector or has none;
* ``repro.cluster`` imports one thing from ``repro.chaos``: the
  ``evaluate_cluster`` that ``Cluster.evaluate`` hands its durable logs
  to (the cluster's scenarios and sweeps are ``repro.chaos`` modules);
* nothing outside ``repro.chaos`` reads a fault plan: the injector is
  the plan's only reader, and product code calls it by duck typing;
* the mutations live with the tests, and nothing in ``src/`` imports
  them;
* ``repro.storage`` imports nothing from ``repro.core``: placement is
  the storage manager's own;
* the paper's chained hash table, the FIG1 reference, lives with the
  tests, and no product module names it;
* there is one transaction manager: nothing under ``repro.core``
  imports a latch (storage latches its own frames), and the striped
  manager's structures are gone.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PRODUCT = (
    "common", "core", "storage", "runtime", "models", "workflow", "lang",
    "resilience", "obs",
)


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path):
    """Yield ``(module, name)`` for every import in ``path``: ``name`` is
    the imported attribute for ``from module import name``, else None."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


def _modules(*packages):
    for package in packages:
        yield from sorted((SRC / "repro" / package).rglob("*.py"))


def _under(module, name, package):
    full = f"{module}.{name}" if name else module
    return module == package or module.startswith(package + ".") or (
        full == package or full.startswith(package + ".")
    )


def test_product_code_imports_neither_chaos_nor_cluster():
    offenders = [
        f"{_module_name(path)} imports {module}" + (f".{name}" if name else "")
        for path in _modules(*PRODUCT)
        for module, name in _imports(path)
        if _under(module, name, "repro.chaos")
        or _under(module, name, "repro.cluster")
    ]
    assert not offenders, "\n".join(offenders)


def test_storage_imports_nothing_from_core():
    offenders = [
        f"{_module_name(path)} imports {module}" + (f".{name}" if name else "")
        for path in _modules("storage")
        for module, name in _imports(path)
        if _under(module, name, "repro.core")
    ]
    assert not offenders, "\n".join(offenders)


def test_net_imports_nothing_from_chaos():
    offenders = [
        f"{_module_name(path)} imports {module}" + (f".{name}" if name else "")
        for path in _modules("net")
        for module, name in _imports(path)
        if _under(module, name, "repro.chaos")
    ]
    assert not offenders, "\n".join(offenders)


def test_cluster_takes_only_its_oracle_from_chaos():
    allowed_extra = {
        ("repro.cluster.cluster", "repro.chaos.oracles", "evaluate_cluster"),
    }
    offenders = []
    for path in _modules("net", "cluster"):
        importer = _module_name(path)
        for module, name in _imports(path):
            if not _under(module, name, "repro.chaos"):
                continue
            if (importer, module, name) in allowed_extra:
                continue
            offenders.append(f"{importer} imports {module}.{name}")
    assert not offenders, "\n".join(offenders)


def test_only_the_harness_reads_a_fault_plan():
    """No module outside ``repro.chaos`` reads an attribute named after
    a :class:`~repro.chaos.faults.FaultPlan` field.  (``label`` is a
    plain word elsewhere — a saga step's, a workflow task's; every other
    field name is the plan's alone.)"""
    from dataclasses import fields

    from repro.chaos.faults import FaultPlan

    plan_fields = {spec.name for spec in fields(FaultPlan)} - {"label"}
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}: .{node.attr}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if not _module_name(path).startswith("repro.chaos")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in plan_fields
    ]
    assert not offenders, "\n".join(offenders)


def test_the_mutations_live_with_the_tests():
    assert not (SRC / "repro" / "chaos" / "mutations.py").exists()
    assert (SRC.parent / "tests" / "chaos" / "mutations.py").exists()
    offenders = [
        f"{_module_name(path)} imports {module}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for module, name in _imports(path)
        if module.split(".")[0] == "tests"
        or "mutations" in (module.split(".")[-1], name)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_chained_table_lives_with_the_tests():
    assert (SRC.parent / "tests" / "common" / "chained_table.py").exists()
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "ChainedHashTable" in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def test_the_fabric_is_transport_and_the_cluster_takes_four_settings():
    """What only the harness used is gone from the product: the
    fabric's plan marks and their state, and ``Cluster(plan=...)``."""
    import inspect

    from repro.cluster import Cluster
    from repro.net.fabric import NetworkFabric

    fabric = NetworkFabric()
    gone = (
        "crash_hook", "coordinator_name", "_churn_requests", "take_churn",
        "_apply_planned_marks", "_partition_applied", "_healed",
        "_site_crash_fired", "_kill_coordinator_fired", "_join_fired",
        "_leave_fired",
    )
    assert not [name for name in gone if hasattr(fabric, name)]
    assert list(inspect.signature(Cluster).parameters) == [
        "sites", "injector", "rpc_timeout", "rpc_attempts",
    ]


def test_the_durable_engine_loads_without_the_harness():
    """The acceptance one-liner: importing the workflow engine (by the
    name the benchmark uses) pulls in neither the chaos harness nor the
    ACTA checker."""
    code = (
        "import repro.workflow.durable, sys; "
        "bad = [m for m in sys.modules"
        " if m.startswith(('repro.chaos', 'repro.acta'))]; "
        "assert not bad, bad"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)}
    )


def test_there_is_one_workflow_engine():
    """One class runs workflows; the durable name is the same object, and
    what existed only to join two engines is gone from the product tree."""
    import repro.workflow
    import repro.workflow.durable

    assert (
        repro.workflow.durable.DurableWorkflowEngine
        is repro.workflow.WorkflowEngine
    )
    runners = sorted(
        (node.name, item.name)
        for path in _modules("workflow")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name in ("start", "execute")
    )
    assert runners == [
        ("WorkflowEngine", "execute"), ("WorkflowEngine", "start"),
    ]
    gone = (
        "WorkflowResult", "TaskOutcome", "StepStrategies", "before_commit",
        "reissue_exhausted",
    )
    offenders = [
        f"{path.relative_to(SRC)}: {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def _callers_of(method):
    """``module:Class.function`` (or ``module:function``) of every call
    ``<anything>.method(...)`` under ``src/``."""
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    scopes.append((node, f"{prefix}{node.name}."))
                    continue
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == method
                    ):
                        callers.add(f"{_module_name(path)}:{prefix[:-1]}")
    return callers


def test_one_update_rule():
    """An update is one record written before its one install, and the
    sites that may write one are few enough to name: three forward — a
    shard stack's, at every shard count — one backward (the segmented
    log's router forwards to it), and the base images a sharp
    checkpoint logs after truncating, which describe pages it has just
    flushed and so install nothing."""
    assert _callers_of("log_update") == {
        "repro.storage.store:ShardStack.create_at",
        "repro.storage.store:ShardStack.write_object",
        "repro.storage.store:ShardStack.delete_object",
    }
    assert _callers_of("log_compensation") == {
        "repro.storage.recovery:undo_updates",
        "repro.storage.segmented:SegmentedLog.log_compensation",
        "repro.storage.store:StorageManager._log_base_images",
    }
    gone = (
        "BeforeImageRecord", "AfterImageRecord", "log_before_image",
        "log_after_image", "whole=", "transactions in doubt",
    )
    offenders = [
        f"{path.relative_to(SRC)}: {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def test_an_operation_pins_in_one_place():
    """``frame_for`` is where an object operation pins: the forward
    operations call it once each, the frameless entry and the stale-pin
    retry share one call in ``_anchor``, and ``read`` / ``write`` /
    ``delete`` fetch nothing themselves — the other ``pool.fetch`` sites
    are pages an operation does *not* hold (chunks) and the one page
    placement fills, which the free-space map names, cached or not.
    ``BufferPool.pin_first``, the walk of the cached frames placement
    made instead, is gone; the table rebuild fetches nothing, for it
    reads the disk's images in one pass and caches nothing."""
    from repro.storage.buffer import BufferPool

    storage = {
        caller for caller in _callers_of("fetch")
        if caller.startswith("repro.storage.")
    }
    assert storage == {
        "repro.storage.objects:ObjectStore.frame_for",
        "repro.storage.objects:ObjectStore._read_slot",
        "repro.storage.objects:ObjectStore._delete_slot",
        "repro.storage.objects:ObjectStore._place",
    }
    assert not hasattr(BufferPool, "pin_first")
    assert _callers_of("pin_first") == set()
    assert _callers_of("frame_for") == {
        "repro.storage.objects:ObjectStore._anchor",
        "repro.storage.store:ShardStack.read_object",
        "repro.storage.store:ShardStack.write_object",
        "repro.storage.store:ShardStack.delete_object",
    }


def test_no_exception_to_the_rule():
    """What the rule let go of, by name: redo takes no ``whole``, never
    asks who is in doubt, and savepoint rollback has no loop of its own."""
    import inspect

    from repro.storage.log import WriteAheadLog
    from repro.storage.recovery import RecoveryManager
    from repro.storage.segmented import SegmentedLog
    from repro.storage.store import StorageManager

    for log in (WriteAheadLog, SegmentedLog):
        assert list(inspect.signature(log.redo_records).parameters) == ["self"]
    assert "in_doubt" not in inspect.getsource(RecoveryManager._redo)
    rollback = ast.parse(inspect.getsource(StorageManager.undo_to).strip())
    assert not any(
        isinstance(node, (ast.For, ast.While, ast.comprehension))
        for node in ast.walk(rollback)
    )


def test_one_transaction_manager():
    """Striping belongs to storage.  The N-shard engine is the flat
    manager over an N-shard store: ``core/sharding.py`` is gone, no
    module under ``repro.core`` imports a latch or keeps a thread-local,
    and no product module names the striped registry, the striped
    dependency index or the shard-latch discipline."""
    assert not (SRC / "repro" / "core" / "sharding.py").exists()
    latches = [
        f"{_module_name(path)} imports {module}" + (f".{name}" if name else "")
        for path in _modules("core")
        for module, name in _imports(path)
        if _under(module, name, "repro.common.latch") or name == "Latch"
    ]
    assert not latches, latches
    gone = (
        "StripedDependencyGraph", "_StripedIndex", "_ShardedRegistry",
        "_latched", "_held_shards", "threading.local",
    )
    offenders = [
        f"{path.relative_to(SRC)}: {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def test_one_thread_engine():
    """One program driver and one thread engine.  Only
    ``CooperativeRuntime._step`` sends into or throws into a transaction
    program; the thread engine runs that stepper on its workers, so the
    second driver, the second copy of the driver API and the per-shard
    engine with its routing table are gone from the product tree."""
    drivers = []
    for path in _modules("runtime"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                drivers += [
                    f"{cls.name}.{method.name}:{node.lineno}"
                    for node in ast.walk(method)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in ("send", "throw")
                ]
    assert drivers and {d.split(":")[0] for d in drivers} == {
        "CooperativeRuntime._step"
    }, drivers
    gone = (
        "ThreadDrivenRuntime", "ParallelShardedRuntime", "_ShardWorkerRuntime",
        "_wait_a_moment", "_make_progress_or_die",
    )
    offenders = [
        f"{path.relative_to(SRC)}: {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text()
    ] + [
        f"{path.relative_to(SRC)}: {word}"
        for path in _modules("runtime")
        for word in ("_owner", "_subs", "def _worker")
        if word in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def test_one_storage_facade():
    """Restart, checkpoints, crashes and oid allocation have one owner
    at every shard count: no class under ``repro.storage`` but
    ``StorageManager`` defines ``recover``, ``checkpoint`` or ``crash``
    (a log device's ``crash`` is the power cut itself: it drops what
    was never synced) or keeps a counter of oids, and the second facade
    and its helpers are gone."""
    owner, devices = "StorageManager", {"MemoryLogDevice", "FileLogDevice"}
    duties, counters, defined = [], [], set()
    for path in _modules("storage"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            defined.add(cls.name)
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    defined.add(node.name)
                    allowed = {owner} | (devices if node.name == "crash" else set())
                    if (
                        node.name in ("recover", "checkpoint", "crash")
                        and cls.name not in allowed
                    ):
                        duties.append(f"{cls.name}.{node.name}")
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                counted = isinstance(node, ast.AugAssign) or isinstance(
                    getattr(node, "value", None), ast.Constant
                ) and isinstance(node.value.value, int)
                if cls.name != owner and counted and any(
                    "oid" in getattr(target, "attr", "") for target in targets
                ):
                    counters.append(f"{cls.name}:{node.lineno}")
    assert not duties, duties
    assert not counters, counters
    gone = {"ShardedStorageManager", "LoggedUndo", "_clone_group_commit"}
    assert not gone & defined
    assert not [
        f"{path.relative_to(SRC)}: {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text()
    ]


def test_a_site_holds_one_group_ledger():
    """What a site knows about a global group is one record in one
    ledger: ``Site._boot`` builds no container besides the ledger, its
    has-work index and the proxy / handoff tables, and the two messages
    that used to have literal copies each have one send site."""
    tree = ast.parse((SRC / "repro" / "cluster" / "site.py").read_text())

    def containers(function):
        (body,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        return {
            target.attr
            for node in ast.walk(body)
            if isinstance(node, ast.Assign)
            and (
                isinstance(node.value, (ast.Dict, ast.Set, ast.List))
                or isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None)
                in ("dict", "set", "list", "defaultdict", "OrderedDict")
            )
            for target in node.targets
        }

    # The ledger outlives a crash as storage (``_group`` re-derives a
    # record on its first mention); everything else volatile is rebuilt
    # in ``_boot``.
    assert containers("__init__") == {"stats", "groups"}
    assert containers("_boot") == {
        "active", "proxies", "proxy_owner", "remote_holders", "_handoff_accepts",
    }
    sends = [
        arg.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("_send", "_tell")
        for arg in node.args
        if isinstance(arg, ast.Name)
    ]
    assert sends.count("DECISION") == 1 and sends.count("STATUS_REQ") == 1
    gone = (
        "pending_prepares", "self.prepared", "self.in_doubt", "coordinating",
        "open_groups", "durable_decisions", "taking_over", "takeover_claims",
        "group_epochs",
    )
    text = (SRC / "repro" / "cluster" / "site.py").read_text()
    assert not [word for word in gone if word in text]


def test_one_rule_for_a_torn_page():
    """A page proves it is whole by its checksum, and a torn one is
    rebuilt by redo under the void mark: ``storage/`` defines no
    structural page walk, no way to give the restart point up, and no
    report field saying why it was given up."""
    gone = {"rewind", "redo_reason", "validate"}
    defined = set()
    for path in _modules("storage"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            targets = getattr(node, "targets", [])
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            defined |= {getattr(t, "attr", getattr(t, "id", "")) for t in targets}
    assert not gone & defined, sorted(gone & defined)


def test_a_site_takes_no_knobs():
    """Protocol timing is module constants of ``cluster/site.py``: a
    ``Site`` is its name, its fabric, its clock and its injector."""
    tree = ast.parse((SRC / "repro" / "cluster" / "site.py").read_text())
    (init,) = [
        item
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Site"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    ]
    arguments = init.args
    assert [a.arg for a in arguments.args] == [
        "self", "name", "fabric", "clock", "injector",
    ]
    assert not (arguments.kwonlyargs or arguments.vararg or arguments.kwarg)


# Where an id may meet a bare number: its own module and the log codec,
# which packs and unpacks ids as the integers they are.
_ID_NUMBER_SITES = {
    "repro.common.ids": None,
    "repro.storage.log": {
        "encode_record", "decode_record", "_pack_tids", "_unpack_tids",
    },
}


def _names_an_id(node):
    """Whether ``node`` reads a variable or field named like an id."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if not isinstance(name, str):
        return False
    return name in ("tid", "oid", "lsn", "delegatee") or name.endswith(
        ("_tid", "_oid")
    ) and name != "max_tid"


def _id_number_comparisons(path):
    """``line: source`` of every comparison of an id-named operand with
    an int literal in ``path``, outside the functions allowed one."""
    allowed = _ID_NUMBER_SITES.get(_module_name(path), ())
    if allowed is None:
        return []
    tree = ast.parse(path.read_text())
    skipped = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in allowed
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in skipped:
            continue
        sides = [node.left, *node.comparators]
        literal = any(
            isinstance(side, ast.Constant) and type(side.value) is int
            for side in sides
        )
        if literal and any(map(_names_an_id, sides)):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_id_is_compared_with_a_number():
    """Ids are ints, so ``tid == 0`` or ``oid < 3`` would run — and an
    id of one kind equals a number meant as another (``Tid(3) ==
    ObjectId(3)``).  The null tid is tested by truth (``if tid:``);
    nothing else asks an id about a bare number."""
    offenders = [
        f"{path.relative_to(SRC)}:{site}"
        for path in sorted(SRC.rglob("*.py"))
        for site in _id_number_comparisons(path)
    ]
    assert not offenders, "\n".join(offenders)
