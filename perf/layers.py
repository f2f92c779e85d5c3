"""Fold a cProfile of the timed loop into per-layer self time and calls.

The key is a *module path*, not a class or function name, so the fold
survives the renames and engine merges the roadmap plans.  A builtin has
no module of its own (``posix.write``, ``dict.get``, ``list.append``);
its time is charged to whichever function called it, using the
profile's caller table — so a log device's ``write`` lands in
``storage.log`` and a ``Tid`` dict probe in the layer that probed.
"""

from __future__ import annotations

import os

PERF_DIR = os.path.dirname(os.path.abspath(__file__)).replace(os.sep, "/")

# First match wins; paths are relative to ``src/repro/``.
RULES = (
    ("runtime/", "runtime"),
    ("core/manager.py", "core.manager"),
    ("core/locks.py", "core.locks"),
    ("core/permits.py", "core.permits"),
    ("core/dependency.py", "core.dependency"),
    ("core/descriptors.py", "core.descriptors"),
    ("core/deadlock.py", "core.deadlock"),
    ("core/sharded.py", "core.sharded"),
    ("core/sharding.py", "core.sharded"),
    ("core/", "core.other"),
    ("common/ids.py", "common.ids"),
    ("common/hashtable.py", "common.hashtable"),
    ("common/latch.py", "common.latch"),
    ("common/events.py", "common.events"),
    ("common/", "common.other"),
    ("storage/log.py", "storage.log"),
    ("storage/buffer.py", "storage.pages"),
    ("storage/page.py", "storage.pages"),
    ("storage/objects.py", "storage.pages"),
    ("storage/disk.py", "storage.pages"),
    ("storage/segmented.py", "storage.segmented"),
    ("storage/recovery.py", "storage.recovery"),
    ("storage/", "storage.store"),
    ("net/", "net.fabric"),
    ("cluster/site.py", "cluster.site"),
    ("cluster/", "cluster.cluster"),
    ("models/", "models"),
    ("workflow/", "workflow"),
    ("resilience/", "resilience"),
    ("chaos/", "chaos"),
    ("obs/", "obs"),
    ("", "other"),  # acta, bench, lang, cli: never on a workload's path
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in RULES)) + (
    "device",  # perf's stand-in for device sync latency (perf/device.py)
    "driver",  # the rest of perf: clients, bodies, recorder, span proxies
    "stdlib",  # everything outside the repository
)


def layer_of_module(relative):
    """The layer of a module path relative to ``src/repro/``."""
    for prefix, layer in RULES:
        if relative.startswith(prefix):
            return layer
    raise AssertionError(relative)  # unreachable: "" matches everything


def layer_of_file(filename):
    """The layer a profiled function's source file belongs to."""
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/src/repro/")
    if marker >= 0:
        return layer_of_module(path[marker + len("/src/repro/"):])
    if path.startswith(PERF_DIR + "/"):
        return "device" if path.endswith("/device.py") else "driver"
    return "stdlib"


def is_public(name):
    """Public functions and the dunder protocol; not ``_private`` helpers
    nor the ``<genexpr>``/``<lambda>`` frames inside them."""
    if name.startswith("<"):
        return False
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def fold(profile_stats):
    """``{layer: [self seconds, public calls]}`` from ``pstats`` entries.

    ``profile_stats`` is ``pstats.Stats(profiler).stats``: a dict of
    ``(file, line, name) -> (cc, nc, tt, ct, callers)``.
    """
    layers = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _line, name), (_cc, nc, tt, _ct, callers) in (
        profile_stats.items()
    ):
        if filename != "~":
            entry = layers[layer_of_file(filename)]
            entry[0] += tt
            if is_public(name):
                entry[1] += nc
            continue
        # A builtin: split its self time over the functions that called it.
        if not callers:  # called from outside the profiled region
            layers["stdlib"][0] += tt
        for (caller_file, _l, _n), (_c, _n2, caller_tt, _ct2) in callers.items():
            owner = "stdlib" if caller_file == "~" else layer_of_file(caller_file)
            layers[owner][0] += caller_tt
    return layers


def calls_of(profile_stats, module_suffix, name):
    """How often the profile saw ``name`` from a file ending ``module_suffix``."""
    return sum(
        nc
        for (filename, _line, func), (_cc, nc, _tt, _ct, _callers) in (
            profile_stats.items()
        )
        if func == name and filename.replace(os.sep, "/").endswith(module_suffix)
    )
