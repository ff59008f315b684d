"""Tests of the benchmark's tracing helpers.

    python3 -m pytest -q perfbench
"""

import itertools
from collections import Counter

import pytest

import traced
import workloads as wl
from tracer import Tracer, summarize


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_nested_and_siblings():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    t = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))

    def b():
        t.call("c", lambda: None)

    def outer():
        t.call("a", lambda: None)
        t.call("b", b)

    t.call("outer", outer)
    stats = summarize(t.spans)
    assert stats["outer"] == {"calls": 1, "s": 10, "self_s": 4}
    assert stats["a"] == {"calls": 1, "s": 2, "self_s": 2}
    assert stats["b"] == {"calls": 1, "s": 4, "self_s": 3}
    assert stats["c"] == {"calls": 1, "s": 1, "self_s": 1}
    assert [s[3] for s in t.spans] == [None, 0, 0, 2]


def test_same_name_nested_counts_outermost_once():
    # f [0, 10] calls f [2, 5]: inclusive time is 10, self times add to 10
    t = Tracer(clock=fake_clock([0, 2, 5, 10]))
    t.call("f", lambda: t.call("f", lambda: None))
    stats = summarize(t.spans)
    assert stats["f"] == {"calls": 2, "s": 10, "self_s": 10}


def test_repeated_siblings_accumulate():
    t = Tracer(clock=fake_clock(itertools.count()))
    for _ in range(3):
        t.call("g", lambda: None)
    assert summarize(t.spans)["g"] == {"calls": 3, "s": 3, "self_s": 3}


def test_span_closes_when_call_raises():
    t = Tracer(clock=fake_clock([0, 1, 2, 4]))

    def boom():
        t.call("inner", lambda: None)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        t.call("outer", boom)
    assert summarize(t.spans)["outer"] == {"calls": 1, "s": 4, "self_s": 3}
    assert t._stack == []


def wrapped_names():
    from toruscodes import cli, codec, curves, layers, simulate

    modules = {"cli": cli, "codec": codec, "curves": curves, "layers": layers, "simulate": simulate}
    return {
        (mod_name, attr): getattr(module, attr)
        for mod_name, module in modules.items()
        for attr in dir(module)
        if callable(getattr(module, attr))
    }


def test_every_wrapped_name_is_restored():
    wl.import_package()
    before = wrapped_names()
    with Tracer() as t:
        traced.instrument(t, Counter())
        changed = {k for k, v in wrapped_names().items() if v is not before[k]}
    assert changed  # the run did replace names
    after = wrapped_names()
    assert all(after[k] is before[k] for k in before)


def test_names_restored_after_error():
    wl.import_package()
    before = wrapped_names()
    with pytest.raises(RuntimeError):
        with Tracer() as t:
            traced.instrument(t, Counter())
            raise RuntimeError("stop")
    assert all(v is before[k] for k, v in wrapped_names().items())


def test_traced_outputs_equal_untraced_stream(monkeypatch):
    monkeypatch.setattr(wl, "STREAM_LINES", 200)
    values, checks, _ = traced.traced_run("stream-n3", seed=3)
    assert all(ok for _, ok in checks), checks
    assert values["codec.decode_batch.vectors_per_call"] == 1.0
    assert values["cli.decode.s"] >= values["cli.decode.self_s"] > 0.0


def test_traced_outputs_equal_untraced_mc(monkeypatch):
    monkeypatch.setattr(wl, "MC_TRIALS", 4096 + 100)
    values, checks, _ = traced.traced_run("mc-n4", seed=5)
    assert all(ok for _, ok in checks), checks
    assert values["simulate.blocks"] == 2
    assert values["curves.search_best_w.calls"] == 0
    assert values["codec.decode_batch.vectors_per_call"] == (4096 + 100) / 2
