"""The repository's tools outside the package, run against its current API.

perfbench/tracer.py wraps package functions by name for the per-layer
benchmark, and scripts/probe_landscape.py calls the engine directly;
neither is imported by the package, so renaming or deleting a name they
use would otherwise go unnoticed until they are run.
"""
import importlib.util
import sys
from pathlib import Path

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
