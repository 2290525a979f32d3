"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""
import json
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
import workloads
from sketchdec import constraints, decoders, scoring
from sketchdec.decoders import decode

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["short-sketch", "remote-mock"])
def test_layer_counters_repeat_across_runs(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    counters = [
        m["name"] for m in BENCHMARK["per_layer"]
        if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"
    ]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["lm.next_distribution.calls"]["value"] > 0


def test_tracing_leaves_outputs_unchanged():
    originals = (
        decoders.compute_mask,
        decoders.advance,
        constraints.MaskState.__dict__["start"],
        scoring.Hypothesis.__init__,
        scoring.Hypothesis.rank_key,
    )
    items = workloads.short_sketch(0).items + workloads.dungeon_walk(0).items[:3]
    for item in items:
        plain = decode(item.source, item.backend, item.config)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer, [item.source]):
            traced = decode(
                item.source,
                tracing.BackendProxy(item.backend, tracer),
                replace(item.config, record_tree=True),
            )
        vocab = item.backend.vocab
        assert run.digest(traced, vocab) == run.digest(plain, vocab), item.key
        assert tracer.calls()["lm.next_distribution"] > 0
        assert "pending" not in vars(item.source)
    assert originals == (
        decoders.compute_mask,
        decoders.advance,
        constraints.MaskState.__dict__["start"],
        scoring.Hypothesis.__init__,
        scoring.Hypothesis.rank_key,
    )


class FutureBackend:
    """A backend with a protocol the proxy has never heard of."""

    def __init__(self):
        self.vocab = "vocab"
        self.window = 4

    def start(self):
        return ("state",)

    def step(self, state, token):
        return state + (token,)


def test_proxy_forwards_unknown_attributes():
    inner = FutureBackend()
    tracer = tracing.Tracer()
    proxy = tracing.BackendProxy(inner, tracer)
    assert proxy.vocab == "vocab" and proxy.window == 4
    assert proxy.step(proxy.start(), 7) == ("state", 7)
    proxy.window = 5
    assert inner.window == 5
    assert tracer.calls() == {"lm.start": 1, "lm.step": 1}
    with pytest.raises(AttributeError):
        proxy.missing
