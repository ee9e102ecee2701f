"""The traced run wraps every public function of the six layers and reports self times correctly."""

import contextlib
import importlib
import inspect
import io
import json
from pathlib import Path

import pytest

import metrics
import tracing

LAYER_MODULES = [importlib.import_module(f"sun_gates.{layer}") for layer in tracing.LAYERS]
# Collected at import, before any tracer rebinds the names.
PUBLIC_FUNCTIONS = {
    module: {name: fn for name, fn in vars(module).items()
             if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")}
    for module in LAYER_MODULES
}


def package_bindings():
    """(module, attribute, value) of every public sun_gates function bound in a sun_gates namespace."""
    return [(module, name, value) for module in tracing.package_modules()
            for name, value in vars(module).items() if not name.startswith("_") and tracing.traceable(value)]


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    before = package_bindings()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is value for module, name, value in before)


def test_every_public_layer_function_is_wrapped(tracer):
    for module, functions in PUBLIC_FUNCTIONS.items():
        assert functions, module.__name__
        for name, fn in functions.items():
            assert fn in tracer.wrappers, f"{module.__name__}.{name} is not traced"
            assert getattr(module, name) is tracer.wrappers[fn]


def test_every_binding_in_the_package_is_rebound(tracer):
    wrappers = set(tracer.wrappers.values())
    bindings = package_bindings()
    assert len(bindings) > len(wrappers)  # re-exports in sun_gates and imports in cli are covered too
    for module, name, value in bindings:
        assert value in wrappers, f"{module.__name__}.{name} still calls the untraced function"


def test_traced_item_records_nested_spans(tracer):
    from sun_gates import cli

    tracer.item = 3
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--n", "3"]) == 0
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][tracing.PARENT] == -1
    assert {"cli.identity_checks", "qudit_ops.decompose", "qudit_ops.reconstruct",
            "invariant_channels.build_projectors"} <= set(names)
    assert all(span[tracing.ITEM] == 3 and not span[tracing.RAISED] for span in tracer.spans)
    stats = tracing.summarize(tracer.spans)
    total_ns = tracer.spans[0][tracing.END_NS] - tracer.spans[0][tracing.START_NS]
    assert sum(stats[layer][1] for layer in tracing.LAYERS if layer in stats) == total_ns


def test_raising_call_is_counted_as_an_error(tracer):
    from sun_gates import sun_algebra

    with pytest.raises(ValueError):
        sun_algebra.build_generators(1)
    calls, _self_ns, errors = tracing.summarize(tracer.spans)["sun_algebra.build_generators"]
    assert (calls, errors) == (1, 1)


def test_self_time_excludes_direct_children():
    spans = [
        ["cli.main", 0, 0, 100, -1, False],
        ["qudit_ops.decompose", 0, 10, 50, 0, False],
        ["sun_algebra.build_generators", 0, 20, 30, 1, False],
        ["qudit_ops.reconstruct", 0, 60, 90, 0, True],
    ]
    stats = tracing.summarize(spans)
    assert stats["cli"] == [1, 30, 0]
    assert stats["qudit_ops"] == [2, 30 + 30, 1]
    assert stats["qudit_ops.decompose"] == [1, 30, 0]
    assert stats["sun_algebra"] == [1, 10, 0]


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((Path(metrics.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == metrics.per_layer_metrics()
