"""The `ctxae` names the benchmark binds must exist.

``perfbench/tracing.py`` patches functions and methods it names in its
SPANS, METHOD_SPANS and COUNTERS tables, and ``perfbench/workloads.py``
imports and rebinds `ctxae` names of its own. A rename in the package
breaks those only when a traced benchmark runs; these tests read both files
as data, without importing them, and check every bound name here instead.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _table(name: str) -> tuple:
    """The literal value of the module-level assignment `name` in tracing.py."""
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"tracing.py has no table {name}")


def _workload_bindings() -> list[tuple[str, str]]:
    """(module, attribute) for each `ctxae` import and rebind in workloads.py,
    and each attribute it reads off an imported `ctxae` module."""
    tree = _tree("workloads.py")
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ctxae"):
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            # for attr in (...): rebind("ctxae.x", attr, ...)
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "rebind"
                        and isinstance(call.args[1], ast.Name)
                        and call.args[1].id == node.target.id):
                    module = ast.literal_eval(call.args[0])
                    out.extend((module, attr) for attr in ast.literal_eval(node.iter))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rebind"
              and isinstance(node.args[1], ast.Constant)):
            out.append((ast.literal_eval(node.args[0]), node.args[1].value))
    modules = {attr: f"{module}.{attr}" for module, attr in out if module == "ctxae"}
    out.extend((modules[node.value.id], node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules)
    return out


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        # `from ctxae import pipeline` names a submodule
        importlib.import_module(f"{module}.{attr}")
    return getattr(mod, attr)


@pytest.mark.parametrize("table", ["SPANS", "COUNTERS"])
def test_traced_functions_exist(table):
    rows = _table(table)
    assert rows
    for module, attr, _name in rows:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_traced_methods_exist():
    rows = _table("METHOD_SPANS")
    assert rows
    for module, cls_name, attr, _name in rows:
        cls = _resolve(module, cls_name)
        # the tracer swaps the class's own attribute, not an inherited one
        assert callable(cls.__dict__.get(attr)), f"{module}.{cls_name}.{attr}"


def test_workload_imports_and_rebinds_exist():
    bindings = _workload_bindings()
    assert ("ctxae.net.training", "train_multi_decoder") in bindings
    assert ("ctxae.pipeline", "stage_train") in bindings
    for module, attr in bindings:
        _resolve(module, attr)


def test_model_hooks_exist():
    """What the tracer wraps on every model built, loaded or streamed."""
    from ctxae.detectors import Detector
    from ctxae.net import checkpoint, default_autoencoder_spec, model

    assert callable(checkpoint.load_checkpoint)
    for attr in ("build_encoder", "build_decoder"):
        assert callable(model.AutoencoderSpec.__dict__.get(attr))
    # Stream.on_install wraps every model of a detector's two dicts
    assert {"encoders", "decoders"} <= set(Detector.__dataclass_fields__)
    spec = default_autoencoder_spec()
    for build in (spec.build_encoder, spec.build_decoder):
        for layer in build(np.random.default_rng(0)).layers:
            assert isinstance(layer.spec.kind, str)
            assert callable(layer.forward) and callable(layer.backward)


def test_stages_load_through_the_functions_the_tracer_counts(tmp_path, monkeypatch):
    """run_all calls each function whose calls the fit segment counts, and the
    checkpoint loader the tracer hooks, each rebound in every `ctxae` module
    that binds it, as tracing.rebind does."""
    from ctxae.config import config_from_dict
    from ctxae.pipeline import run_all

    spans = {name: (module, attr) for module, attr, name in _table("SPANS")}
    targets = [spans[name] for name in _table("FIT_CALLS")]
    targets.append(("ctxae.net.checkpoint", "load_checkpoint"))
    calls = Counter()
    for module, attr in targets:
        orig = getattr(importlib.import_module(module), attr)

        def counted(*args, _orig=orig, _name=f"{module}.{attr}", **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.startswith("ctxae") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
    run_all(config_from_dict({
        "synth": {"messages_per_vessel": 200, "contexts": [
            {"id": 0, "behavior": "transit", "vessels": 3}]},
        "train": {"max_epochs": 2, "patience": 1}, "models": ["ae", "cae"]},
        seed=2, out_dir=tmp_path / "run"))
    assert sorted(calls) == sorted(f"{module}.{attr}" for module, attr in targets)
