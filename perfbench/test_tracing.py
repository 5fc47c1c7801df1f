"""Tests of the benchmark's tracer: how wrappers are installed and how
spans add up.  They do not depend on which package function calls which.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import importlib
import json
from pathlib import Path

import pytest

import tracing

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _holders(target):
    """Every (namespace, key) in the package that holds target."""
    return [(ns, key) for ns in tracing._package_namespaces()
            for key, value in vars(ns).items() if value is target]


def _resolve(spec):
    module_name, _, qualname = spec.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, attr, owner.__dict__[attr]
    return module, attr, getattr(module, attr)


@pytest.fixture
def installed():
    for _, spec in tracing.TARGETS:
        _resolve(spec)  # import every target module first
    originals = {spec: _resolve(spec) for _, spec in tracing.TARGETS}
    holders = {spec: _holders(orig) for spec, (_, _, orig) in originals.items()
               if not spec.partition(":")[2].count(".")}
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        yield tracer, originals, holders
    finally:
        uninstall()
    for spec, (owner, attr, original) in originals.items():
        assert owner.__dict__[attr] is original, spec


def test_every_holder_of_a_function_gets_the_wrapper(installed):
    _, originals, holders = installed
    for spec, places in holders.items():
        original = originals[spec][2]
        assert places, f"{spec} is held by no package namespace"
        for namespace, key in places:
            held = vars(namespace)[key]
            assert held is not original, (namespace.__name__, key)
            assert held.__wrapped__ is original, (namespace.__name__, key)


def test_methods_are_wrapped_on_their_class(installed):
    _, originals, holders = installed
    for spec, (owner, attr, original) in originals.items():
        if spec in holders:
            continue
        held = owner.__dict__[attr]
        assert (isinstance(held, staticmethod)
                == isinstance(original, staticmethod)), spec
        inner = held.__func__ if isinstance(held, staticmethod) else held
        raw = (original.__func__ if isinstance(original, staticmethod)
               else original)
        assert inner.__wrapped__ is raw, spec


def test_a_wrapped_name_records_its_calls(installed):
    tracer, _, _ = installed
    cli = importlib.import_module("pattern_forge.cli")
    cli.canonical_json({"a": 1})  # the name cli bound with from-import
    assert tracer.totals["tokens.canonical_json"][0] == 1


def test_unfired_spans_report_zero_not_missing():
    metrics = tracing.layer_metrics(tracing.Tracer().totals, {})
    assert metrics and all(v == 0 for v in metrics.values())
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    declared = {m["name"] for m in per_layer}
    produced = set(metrics) | {"cli.import_s", "trace.overhead_ratio"}
    assert declared == produced


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_excludes_children():
    tracer = tracing.Tracer(clock=_fake_clock([0.0, 1.0, 4.0, 10.0]))
    inner = tracer.wrap("tokens.canonical_json", lambda: None)
    outer = tracer.wrap("cli.main", lambda: inner())
    outer()
    assert tracer.totals["cli.main"][:3] == [1, 10.0, 7.0]
    assert tracer.totals["tokens.canonical_json"][:3] == [1, 3.0, 3.0]
    names = [s[1] for s in tracer.spans]
    assert names == ["tokens.canonical_json", "cli.main"]
    assert tracer.spans[0][4] == tracer.spans[1][0]  # parent id


def test_generator_spans_cover_each_resume():
    tracer = tracing.Tracer(clock=_fake_clock([0, 1, 5, 7, 20, 22]))

    def gen():
        yield 1
        yield 2

    assert list(tracer.wrap("groups.enumerate", gen)()) == [1, 2]
    calls, total, self_s, _ = tracer.totals["groups.enumerate"]
    assert (calls, total, self_s) == (3, 5, 5)


def test_span_cap_keeps_shallow_spans():
    tracer = tracing.Tracer(span_cap=1)
    leaf = tracer.wrap("groups.hash", lambda: None)

    def oracle():
        for _ in range(3):
            leaf()
    root = tracer.wrap("cli.main",
                       tracer.wrap("verify.find_monochromatic_fs", oracle))
    root()
    names = [s[1] for s in tracer.spans]
    assert names == ["groups.hash", "verify.find_monochromatic_fs", "cli.main"]
    assert tracer.dropped == 2
