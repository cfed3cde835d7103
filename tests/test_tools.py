"""The repository's tools and docs outside the package, run against its
current API.

perfbench/tracer.py wraps package functions by name for the per-layer
benchmark, perfbench/worker.py reads the kernel backend's name,
scripts/probe_landscape.py calls the engine directly, and the
README shows a library example and a table of the config keys; none is
imported by the package, so renaming or deleting a name they use would
otherwise go unnoticed until they are run.  The C source of the count
kernel is compiled here with every warning an error, which the loader's
own build does not ask for.
"""
import importlib.util
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from evoforge import _kernels
from evoforge.experiments import REGISTRY

ROOT = Path(__file__).resolve().parent.parent


def load(relpath):
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def evoforge_state(wrapped):
    """Every attribute of every evoforge module, every REGISTRY entry, and
    each wrapped method as its class holds it."""
    state = {f"{name}.{attr}": value
             for name, module in sys.modules.items()
             if name == "evoforge" or name.startswith("evoforge.")
             for attr, value in vars(module).items()}
    registry = sys.modules["evoforge.experiments"].REGISTRY
    state.update({f"REGISTRY[{key}]": fn for key, fn in registry.items()})
    for layer, names in wrapped.items():
        home = sys.modules[f"evoforge.{layer}"]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                state[f"{layer}:{name}"] = vars(getattr(home, cls_name))[meth]
    return state


def test_tracer_installs_and_uninstalls():
    import evoforge.cli  # noqa: F401  (loads every layer the tracer wraps)
    tracer_mod = load("perfbench/tracer.py")
    before = evoforge_state(tracer_mod.WRAPPED)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        during = evoforge_state(tracer_mod.WRAPPED)
    finally:
        tracer.uninstall()
    key = "evoforge.cli.experiment_kwargs"
    assert during[key] is not before[key]
    after = evoforge_state(tracer_mod.WRAPPED)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_tracer_sees_the_cli_after_a_first_call(capsys):
    # the benchmark's traced rounds follow untraced ones in one process
    from evoforge import cli
    query = ["perf", "--r", "x1 | x2", "--f", "x1&x3", "--n", "6"]
    assert cli.main(query) == 0
    tracer_mod = load("perfbench/tracer.py")
    before = evoforge_state(tracer_mod.WRAPPED)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert cli.main(query) == 0
    finally:
        tracer.uninstall()
    calls = tracer.totals()["calls"]
    assert (calls["cli.main"], calls["cli.cmd_perf"]) == (1, 1)
    after = evoforge_state(tracer_mod.WRAPPED)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_benchmark_worker_environment():
    # worker.py puts perfbench/ on sys.path and imports its inputs module
    path, inputs = list(sys.path), sys.modules.get("inputs")
    try:
        worker = load("perfbench/worker.py")
        # perfbench names a compiled loop "numba" until it reads BACKEND
        want = "numba" if _kernels.BACKEND == "c" else "numpy"
        assert worker.environment()["backend"] == want
    finally:
        sys.path[:] = path
        if inputs is None:
            sys.modules.pop("inputs", None)
        else:
            sys.modules["inputs"] = inputs


def test_probe_landscape_runs(capsys):
    probe = load("scripts/probe_landscape.py")
    assert probe.run(["--target", "x1&x2", "--n", "6", "--s", "500",
                      "--g", "5"]) == 0
    exact = capsys.readouterr().out.splitlines()
    assert "mode=exact" in exact[0]
    assert exact[-1].startswith("perf evals ")
    assert probe.run(["--target", "parity(x1,x2,x3)", "--n", "6",
                      "--s", "500", "--g", "3"]) == 0
    sampled = capsys.readouterr().out.splitlines()
    assert "mode=sampled (s=500)" in sampled[0]
    assert sampled[-1].startswith("perf evals ")
    # a bad argument is reported as evoforge reports it, not as a traceback
    assert probe.run(["--epsilon", "0"]) == 2
    assert capsys.readouterr().err == "error: epsilon must be in (0,1), got 0.0\n"
    assert probe.run(["--target", "x" + "9" * 5000]) == 2
    assert capsys.readouterr().err == ("error: variable indices must be ints "
                                       "in 1..16777216, got one of 5000 "
                                       "digits\n")


@pytest.mark.parametrize("script", ["scripts/run_all.py",
                                    "scripts/probe_landscape.py",
                                    "scripts/count_loops.py"])
def test_script_runs_from_a_checkout(script, tmp_path):
    # no install and no PYTHONPATH: the script finds the package under src/
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / script), "--help"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_readme_config_table_lists_every_key():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | meaning |\n| --- | --- |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    keys = [key for row in rows
            for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    params = {key for fn in REGISTRY.values()
              for key in inspect.signature(fn).parameters}
    assert sorted(keys) == sorted(params | {"experiment", "out", "k"})


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


# Without __ELF__ the source takes the branch with no target_clones, the
# one built for musl and for targets other than x86-64.
@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
@pytest.mark.parametrize("flags", [(), ("-U__ELF__",)],
                         ids=["clones", "plain"])
def test_count_source_compiles_without_warnings(flags, tmp_path):
    # built as the import builds it, so that the warnings that need the
    # optimizer (-Wmaybe-uninitialized, -Warray-bounds) run too
    source = ROOT / "src" / "evoforge" / "_count.c"
    done = subprocess.run(["cc", *flags, *_kernels._FLAGS, "-Wall",
                           "-Wextra", "-Werror", "-o", str(tmp_path / "c.so"),
                           str(source)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
