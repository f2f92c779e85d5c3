"""The profile fold: builtins go to their callers, modules to one layer."""

import os

import perf
from perf import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(perf.__file__)))
SRC = os.path.join(ROOT, "src", "repro")


def _path(relative):
    return os.path.join(SRC, *relative.split("/"))


def test_a_builtin_is_charged_to_the_module_that_called_it():
    log = (_path("storage/log.py"), 10, "append")
    ids = (_path("common/ids.py"), 35, "__hash__")
    write = ("~", 0, "<method 'write' of '_io.BufferedRandom' objects>")
    stats = {
        log: (5, 5, 0.010, 0.050, {}),
        ids: (100, 100, 0.020, 0.020, {log: (100, 100, 0.020, 0.020)}),
        # 0.030 s inside write(): 0.025 called from the log, 0.005 from ids.
        write: (7, 7, 0.030, 0.030, {
            log: (5, 5, 0.025, 0.025),
            ids: (2, 2, 0.005, 0.005),
        }),
    }
    folded = layers.fold(stats)
    assert abs(folded["storage.log"][0] - 0.035) < 1e-12
    assert abs(folded["common.ids"][0] - 0.025) < 1e-12
    assert folded["stdlib"][0] == 0.0
    assert folded["storage.log"][1] == 5 and folded["common.ids"][1] == 100
    total = sum(seconds for seconds, _calls in folded.values())
    assert abs(total - 0.060) < 1e-12  # nothing lost, nothing counted twice


def test_private_helpers_and_inner_frames_are_not_public_calls():
    assert layers.is_public("acquire") and layers.is_public("__hash__")
    assert not layers.is_public("_grant")
    assert not layers.is_public("<genexpr>")


def test_every_module_of_the_program_maps_to_exactly_one_layer():
    seen = 0
    for folder, _dirs, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            relative = os.path.relpath(os.path.join(folder, name), SRC)
            relative = relative.replace(os.sep, "/")
            matches = [
                layer for prefix, layer in layers.RULES
                if relative.startswith(prefix)
            ]
            assert matches, relative
            assert layers.layer_of_module(relative) == matches[0]
            assert layers.layer_of_file(os.path.join(folder, name)) == matches[0]
            assert matches[0] in layers.LAYERS
            seen += 1
    assert seen > 90


def test_the_layers_the_issue_names():
    expect = {
        "runtime/coop.py": "runtime",
        "core/sharding.py": "core.sharded",
        "core/status.py": "core.other",
        "common/clock.py": "common.other",
        "storage/buffer.py": "storage.pages",
        "storage/store.py": "storage.store",
        "cluster/site.py": "cluster.site",
        "cluster/sweep.py": "cluster.cluster",
        "chaos/faults.py": "chaos",
        "workflow/durable.py": "workflow",
    }
    for relative, layer in expect.items():
        assert layers.layer_of_module(relative) == layer


def test_perf_itself_is_driver_or_device_and_the_rest_is_stdlib():
    assert layers.layer_of_file(os.path.join(ROOT, "perf", "clients.py")) == "driver"
    assert layers.layer_of_file(os.path.join(ROOT, "perf", "device.py")) == "device"
    assert layers.layer_of_file(os.__file__) == "stdlib"
