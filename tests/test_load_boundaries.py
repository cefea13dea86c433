"""What each entry point loads.

The registry is a declared table and the packages export their names
lazily, so a CLI command imports only what it runs.  Each probe runs in
a fresh interpreter and reads ``sys.modules`` afterwards: ``-X
importtime`` would miss the modules loaded through
``importlib.import_module``.

``repro serve`` is the opposite case: the server loads every algorithm
before it starts a thread, so a forked job child imports nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: runs ``repro.cli.main(argv)`` and prints the loaded modules as JSON.
_CLI_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: after every registry row is resolved and every submodule imported,
#: each package's ``__all__`` name must still be its submodule's object.
_EXPORTS_PROBE = """
import importlib, json, pkgutil, sys, types
import repro
from repro import registry
for spec in registry.specs():
    spec.factory, spec.make
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
problems = []
packages = [name for name, module in sys.modules.items()
            if name.split(".")[0] == "repro" and hasattr(module, "__path__")]
for package in sorted(packages):
    for name in sys.modules[package].__all__:
        if name.startswith("__"):
            continue
        value = getattr(sys.modules[package], name)
        if isinstance(value, types.ModuleType):
            # Only a submodule exported as itself, never a module that
            # shadows the function or class of the same name.
            if (value is not sys.modules.get(f"{package}.{name}")
                    or hasattr(value, name)):
                problems.append(f"{package}.{name} is the module {value.__name__}")
            continue
        owners = [module for module_name, module in list(sys.modules.items())
                  if module_name.startswith(package + ".")
                  and not hasattr(module, "__path__")
                  and getattr(module, name, None) is value]
        if not owners:
            problems.append(f"{package}.{name} is no submodule's {name}")
print(json.dumps(problems))
"""

#: an in-process server runs one job of each kind; each forked job
#: child writes the ``repro`` modules it gained while running the job.
_SERVER_PROBE = """
import json, os, sys, time
from repro.server import api, scheduler

out_dir, store_root, basket, table, blobs = sys.argv[1:]
real_execute_job = scheduler.execute_job

def spy(*args, **kwargs):
    before = set(sys.modules)
    try:
        return real_execute_job(*args, **kwargs)
    finally:
        gained = sorted(m for m in set(sys.modules) - before
                        if m.split(".")[0] == "repro")
        with open(os.path.join(out_dir, f"{args[0]}.json"), "w") as handle:
            json.dump({"pid": os.getpid(), "gained": gained}, handle)

scheduler.execute_job = spy
httpd, sched = api.build_server(store_root, port=0, workers=1)
sched.start()
states = {}
try:
    for kind, algorithm, dataset, params in (
        ("mine", "apriori", basket, {"min_support": 0.1, "min_confidence": 0.6}),
        ("classify", "c45", table, {"target": "group"}),
        ("cluster", "kmeans", blobs, {"k": 3}),
    ):
        job_id = sched.submit("t", kind, algorithm, dataset, params).job_id
        deadline = time.monotonic() + 60
        while (sched.store.get(job_id).state not in ("done", "failed")
               and time.monotonic() < deadline):
            time.sleep(0.05)
        states[kind] = sched.store.get(job_id).state
finally:
    httpd.server_close()
    sched.stop()
print(json.dumps({"states": states, "server_pid": os.getpid()}))
"""


def _python(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("load-boundaries")
    paths = {
        "basket": root / "basket.dat",
        "table": root / "credit.csv",
        "blobs": root / "blobs.csv",
    }
    assert main(["generate", "basket", str(paths["basket"]),
                 "--rows", "150", "--seed", "1"]) == 0
    assert main(["generate", "agrawal", str(paths["table"]),
                 "--rows", "150", "--function", "2", "--seed", "2"]) == 0
    assert main(["generate", "blobs", str(paths["blobs"]),
                 "--rows", "90", "--centers", "3", "--seed", "3"]) == 0
    return paths


def _loaded(*argv):
    result = _python(_CLI_PROBE, *argv)
    assert result["code"] == 0
    return result["modules"]


def _under(modules, *prefixes):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


FAMILIES = ("repro.associations", "repro.classification",
            "repro.clustering", "repro.sequences")


def test_algorithms_loads_no_numpy_and_no_algorithm():
    modules = _loaded("algorithms")
    assert _under(modules, "numpy", *FAMILIES) == []


def test_mine_loads_only_the_mining_layers(data):
    modules = _loaded("mine", data["basket"], "--min-support", "0.1")
    assert "repro.associations.apriori" in modules
    assert _under(
        modules, "repro.classification", "repro.clustering",
        "repro.sequences", "repro.server", "repro.runtime.supervisor",
    ) == []


@pytest.mark.parametrize("argv, family", [
    (("classify", "table", "--target", "group"), "repro.classification"),
    (("cluster", "blobs", "--k", "3"), "repro.clustering"),
], ids=["classify", "cluster"])
def test_classify_and_cluster_load_no_other_family(data, argv, family):
    command, path, *flags = argv
    modules = _loaded(command, data[path], *flags)
    assert _under(modules, family)
    others = [f for f in FAMILIES if f != family]
    assert _under(modules, *others) == []


def test_every_public_name_is_its_submodules_object():
    assert _python(_EXPORTS_PROBE) == []


def test_forked_job_children_import_nothing(data, tmp_path):
    out = tmp_path / "children"
    out.mkdir()
    result = _python(_SERVER_PROBE, out, tmp_path / "store",
                     data["basket"], data["table"], data["blobs"])
    assert result["states"] == {
        "mine": "done", "classify": "done", "cluster": "done"}
    for kind in ("mine", "classify", "cluster"):
        child = json.loads((out / f"{kind}.json").read_text())
        assert child["pid"] != result["server_pid"], kind
        assert child["gained"] == [], kind
